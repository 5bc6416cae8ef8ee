#!/usr/bin/env python3
"""The repository benchmark: one command, three stages, two workloads.

    python3 perfbench/run.py --workload porto --seed 1 --seconds 14 --trace 0

Run from the root of the repository. The script builds the library and the
benchmark binary from source into .bench_build/ (perfbench/CMakeLists.txt),
trains and caches the serving model and the corpus-search query index the
first time a workload needs them, and runs the binary once. Every run executes the three stages of
perfbench/spec.json on the workload's inputs:

* serve-mixed: an open loop of seeded Poisson arrivals (80% kNN, 20%
  inserts) against a live TcpServer over a preloaded DurableStore;
* corpus-search: the paper's most-similar search on a fixed corpus larger
  than L2;
* train: T2Vec::TrainChecked on a fixed set with a fixed iteration budget.

With --trace 0 the last line of standard output is a JSON object holding
every end-to-end metric; with --trace 1 it holds the per-layer metrics of a
separate traced pass, timed by spans the benchmark records around its calls
into each layer, plus the tracing overhead. The lines before it give the
host fingerprint and each metric with its unit. A fuller record, with span
self times, is written to .bench_build/results/.

Exit status is non-zero, with no result line, when the build or a run
fails.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench" / "perfbench"
RUN_TIMEOUT_S = 170
PREPARE_TIMEOUT_S = 600


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout, env=None):
    """Runs `cmd` with its output on stderr; raises on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=timeout, env=env)


def bulk_threads():
    return max(1, (os.cpu_count() or 2) // 2)


def pool_env():
    """The environment of the process under test: the library's pool is
    sized for the bulk threads (spec.json "threads")."""
    return dict(os.environ, T2VEC_THREADS=str(bulk_threads()))


def build():
    build_dir = BUILD / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"], 300)
    run_quiet(["cmake", "--build", str(build_dir), "-j",
               str(os.cpu_count() or 1)], 840)


def source_digest(*tops):
    """SHA-256 over the files under `tops`: identifies the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in tops:
        for path in sorted(top.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def prepare_models(spec):
    """Trains the serving model and builds the corpus-search query index of
    every workload that lacks them. The cost is paid once per checkout and
    is part of no metric. The cache key covers the library and benchmark
    sources, so a change to them rebuilds both."""
    model = spec["model"]
    corpus = spec["stages"]["corpus-search"]
    digest = source_digest(ROOT / "src", HERE / "src")
    paths = {}
    for workload in spec["workloads"]:
        key = hashlib.sha256(json.dumps(
            [workload, model["trips"], model["iterations"],
             model["validation_pairs"], corpus["queries"],
             corpus["distractors"], digest]
        ).encode()).hexdigest()[:16]
        path = BUILD / "models" / f"{workload}-{key}.t2vec"
        index = BUILD / "models" / f"{workload}-{key}.index"
        paths[workload] = (path, index)
        if path.exists() and index.exists():
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        log(f"preparing the cached {workload} serving model and query index")
        run_quiet([str(BINARY), "--mode", "prepare", "--regime", workload,
                   "--model", str(path), "--query-index", str(index),
                   "--model-trips", str(model["trips"]),
                   "--model-iterations", str(model["iterations"]),
                   "--model-validation-pairs", str(model["validation_pairs"]),
                   "--corpus-queries", str(corpus["queries"]),
                   "--corpus-distractors", str(corpus["distractors"]),
                   "--bulk-threads", str(bulk_threads())],
                  PREPARE_TIMEOUT_S, pool_env())
    return paths


def binary_args(spec, workload, seed, seconds, trace, cached, work, out):
    serve = spec["stages"]["serve-mixed"]
    corpus = spec["stages"]["corpus-search"]
    train = spec["stages"]["train"]
    rates = serve["rates_rps"]
    return [
        str(BINARY), "--mode", "run", "--regime", workload,
        "--seed", str(seed), "--trace", str(trace),
        "--model", str(cached[0]), "--query-index", str(cached[1]),
        "--work", str(work), "--out", str(out),
        "--setup-reps", str(spec["setup_repeats"]),
        "--rounds", str(spec["rounds"]),
        "--default-threads", "1",
        "--bulk-threads", str(bulk_threads()),
        "--encode-slice", str(corpus["encode_slice"]),
        "--serve-preload", str(serve["preload_rows"]),
        "--serve-pool", str(serve["knn_pool"]),
        "--serve-rates", ",".join(str(r) for r in rates),
        "--serve-nominal-step", str(rates.index(serve["nominal_rate_rps"])),
        "--serve-warmup-seconds",
        repr(seconds * serve["warmup_share_of_seconds"]),
        "--serve-nominal-seconds",
        repr(seconds * serve["nominal_share_of_seconds"]),
        "--serve-step-seconds", repr(seconds * serve["step_share_of_seconds"]),
        "--serve-ladder-repeats", str(serve["ladder_repeats"]),
        "--serve-insert-share", repr(serve["mix"]["insert"]),
        "--serve-k", str(serve["knn_k"]),
        "--serve-connections",
        str(min(serve["connections"], os.cpu_count() or 1)),
        "--serve-check-sample", str(serve["check_sample"]),
        "--serve-replay", str(serve["replay_requests"]),
        "--corpus-queries", str(corpus["queries"]),
        "--corpus-distractors", str(corpus["distractors"]),
        "--corpus-k", str(corpus["knn_k"]),
        "--corpus-seconds", repr(seconds * corpus["query_share_of_seconds"]),
        "--corpus-check-sample", str(corpus["check_sample"]),
        "--train-trips", str(train["trips"]),
        "--train-iterations", str(train["iterations_per_call"]),
        "--train-validation-pairs", str(train["validation_pairs"]),
    ]


def nominal_steps(serve):
    return [s for s in serve["steps"] if s["nominal"]]


def max_rate(serve, limit_ms, wanted):
    """The highest ladder rate at which at least half of its steps meet the
    latency limit (the nominal rate has one step per round, every other rate
    one per ladder repeat)."""
    verdicts = {}
    for step in serve["steps"]:
        if not step["warmup"]:
            verdicts.setdefault(step["rate"], []).append(
                stats.meets_limit(step["requests"], limit_ms, wanted))
    return max((rate for rate, ok in verdicts.items()
                if 2 * sum(ok) >= len(ok)), default=0.0)


def round_median(serve, op):
    """The median over the nominal rounds of each round's median latency of
    `op` ("knn" or "insert")."""
    return statistics.median(
        stats.percentile(stats.open_loop(s["requests"])[f"{op}_ms"], 50)
        for s in nominal_steps(serve))


def step_counts(serve, spec):
    """Per open-loop step: its rate, role, requests sent, succeeded and
    failed, the generator's worst lag, and whether it met the limit."""
    sp = spec["stages"]["serve-mixed"]
    out = []
    for step in serve["steps"]:
        fig = stats.open_loop(step["requests"])
        out.append({
            "rate": step["rate"],
            "role": ("warmup" if step["warmup"] else
                     "nominal" if step["nominal"] else "ladder"),
            "sent": fig["sent"],
            "succeeded": fig["sent"] - fig["failed"],
            "failed": fig["failed"],
            "max_lag_ms": max(fig["lag_ms"], default=0.0),
            "meets_limit": stats.meets_limit(
                step["requests"], sp["latency_limit_ms"],
                sp["tail_percentile"]),
        })
    return out


def end_to_end(raw, spec, notes):
    """Every end-to-end metric, from the untraced pass. Rates and latencies
    are medians over the run's rounds."""
    sp = spec["stages"]["serve-mixed"]
    wanted = sp["tail_percentile"]
    untraced = raw["untraced"]
    metrics = {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MiB"),
    }
    metrics["knn_p50_ms"] = (round_median(untraced["serve"], "knn"), "ms")
    notes["knn_p50_ms"] = "median of the rounds' medians"
    metrics["max_rate_rps"] = (max_rate(untraced["serve"],
                                        sp["latency_limit_ms"], wanted),
                               "req/s")
    notes["max_rate_rps"] = f"limit {sp['latency_limit_ms']} ms on the kNN tail"
    corpus = untraced["corpus"]
    metrics["encode_traj_per_s"] = (
        statistics.median(corpus["build_part_rates"]), "traj/s")
    metrics["search_qps"] = (statistics.median(corpus["query_window_rates"]),
                             "query/s")
    metrics["mean_rank"] = (corpus["mean_rank"], "rank")
    train = untraced["train"]
    metrics["train_tokens_per_s"] = (
        statistics.median(train["target_tokens"] / s for s in train["seconds"]),
        "tok/s")
    metrics["train_val_loss"] = (train["val_losses"][0], "nats/token")
    return metrics


def mean_span_us(totals, name):
    count, total = totals.get(name, (0, 0))
    return total / count / 1e3 if count else 0.0


def total_span_s(totals, name):
    return totals.get(name, (0, 0))[1] / 1e9


def per_layer(raw, spec):
    """Every per-layer metric, from the traced pass of a --trace 1 run."""
    traced = raw["traced"]["stages"]
    spans = raw["traced"]["spans"]
    totals = stats.span_totals(spans)
    wanted = spec["stages"]["serve-mixed"]["tail_percentile"]
    m = {}

    # serve-mixed insert latency and tails, from the untraced pass. Tails
    # pool the rounds, since a tail needs every sample.
    untraced = raw["untraced"]
    m["insert_p50_ms"] = (round_median(untraced["serve"], "insert"), "ms")
    for op in ("knn", "insert"):
        pooled = [v for s in nominal_steps(untraced["serve"])
                  for v in stats.open_loop(s["requests"])[f"{op}_ms"]]
        m[f"{op}_p99_ms"] = (stats.tail_percentile(pooled, wanted)[1], "ms")

    # serve-mixed: generator, wire, server and service from the traced TCP
    # pass (client spans plus the server's stats delta); tokenizer, encoder,
    # pool, index and store from the in-process replay.
    serve = traced["serve"]
    nominal = [r for s in nominal_steps(serve) for r in s["requests"]]
    fig = stats.open_loop(nominal)
    m["loadgen.lag_p99_ms"] = (stats.tail_percentile(fig["lag_ms"], wanted)[1],
                               "ms")
    # The server's stats, summed over the snapshot pairs taken around each
    # nominal step.
    windows = serve["stats_windows"]

    def hist_delta(get):
        return stats.merge_deltas([stats.histogram_delta(get(b), get(a))
                                   for b, a in windows])

    def count_delta(get):
        return sum(get(a) - get(b) for b, a in windows)

    req = hist_delta(lambda s: s["server"]["request_latency_us"])
    round_trips = [(done - sent) / 1e3 for _, _, sent, done, ok
                   in nominal if ok]
    m["wire.overhead_us"] = (statistics.fmean(round_trips) -
                             req["sum"] / req["count"], "us")
    m["server.request_p50_us"] = (stats.delta_quantile(req, 0.5), "us")
    m["server.request_p99_us"] = (stats.delta_quantile(req, 0.99), "us")
    m["server.errors"] = (count_delta(lambda s: s["server"]["errors"]),
                          "count")
    m["server.timeouts"] = (count_delta(lambda s: s["server"]["timeouts"]),
                            "count")

    def counter(name):
        return count_delta(lambda s: s["service"]["counters"][name])

    def hist_mean(name):
        d = hist_delta(lambda s: s["service"]["histograms"][name])
        return d["sum"] / d["count"] if d["count"] else 0.0

    m["service.queue_wait_us"] = (hist_mean("request_latency_us") -
                                  hist_mean("flush_latency_us"), "us")
    m["service.mean_batch"] = (
        counter("completed") / max(counter("flushes"), 1), "requests")
    m["service.rejected_share"] = (
        (counter("rejected_queue_full") + counter("deadline_expired")) /
        max(counter("submitted"), 1), "share")
    m["encoder.flush_us"] = (hist_mean("flush_latency_us"), "us")
    replay = serve["replay"]
    m["serve.tokenize.us_per_traj"] = (mean_span_us(totals, "serve.tokenize"),
                                       "us")
    batch1 = mean_span_us(totals, "serve.encoder.batch1")
    m["encoder.batch1_us"] = (batch1, "us")
    m["pool.overhead_ratio"] = (
        mean_span_us(totals, "serve.encoder.batch1_pool") / batch1, "ratio")
    m["serve.index.query_us"] = (mean_span_us(totals, "serve.store.knn"), "us")
    m["serve.index.candidates_per_query"] = (
        replay["index_candidates"] / max(replay["index_queries"], 1), "rows")
    m["store.insert_us"] = (mean_span_us(totals, "serve.store.insert"), "us")
    m["wal.bytes_per_insert"] = (
        replay["wal_bytes"] / max(replay["inserts"], 1), "bytes")

    # corpus-search: busy time per row across the parallel slices.
    corpus = traced["corpus"]
    rows = corpus["rows"]
    encode_s = total_span_s(totals, "corpus.encoder.encode")
    m["tokenize.us_per_traj"] = (
        total_span_s(totals, "corpus.tokenize") / rows * 1e6, "us")
    m["encoder.us_per_traj"] = (encode_s / rows * 1e6, "us")
    m["encoder.pad_ratio"] = (corpus["padded_steps"] / corpus["real_steps"],
                              "ratio")
    m["encoder.gflops"] = (corpus["gru_flops"] / encode_s / 1e9, "GFLOP/s")
    m["corpus.encoder.batch1_us"] = (
        mean_span_us(totals, "corpus.encoder.batch1"), "us")
    m["index.query_us"] = (mean_span_us(totals, "corpus.index.query"), "us")
    m["index.candidates_per_query"] = (
        corpus["index_candidates"] / max(corpus["index_queries"], 1), "rows")
    m["index.add_us_per_row"] = (
        total_span_s(totals, "corpus.index.add") / rows * 1e6, "us")

    # train: the step-by-step replay.
    train = traced["train"]
    iters = train["iterations"]
    m["vocab.build_s"] = (total_span_s(totals, "train.vocab.build"), "s")
    m["cell_knn.build_s"] = (total_span_s(totals, "train.cell_knn.build"), "s")
    m["pretrain.s"] = (total_span_s(totals, "train.pretrain"), "s")
    m["pairs.s"] = (total_span_s(totals, "train.pairs"), "s")
    fwd_ms = mean_span_us(totals, "train.fwd") / 1e3
    m["trainer.fwd_ms_per_batch"] = (fwd_ms, "ms")
    m["trainer.bwd_ms_per_batch"] = (
        mean_span_us(totals, "train.fwd_bwd") / 1e3 - fwd_ms, "ms")
    m["encoder.train_fwd_ms_per_batch"] = (
        mean_span_us(totals, "train.encoder_fwd") / 1e3, "ms")
    m["trainer.validation_s"] = (total_span_s(totals, "train.validation"), "s")
    m["trainer.tokens_per_batch"] = (train["target_tokens"] / iters, "tokens")
    m["optim.step_ms"] = (mean_span_us(totals, "train.optim_step") / 1e3, "ms")

    # Tracing overhead: traced against untraced time for the same work.
    untraced_knn = stats.open_loop(
        [r for s in nominal_steps(untraced["serve"]) for r in s["requests"]])
    serve_share = (statistics.fmean(fig["knn_ms"]) /
                   statistics.fmean(untraced_knn["knn_ms"]) - 1.0)
    plain = untraced["corpus"]

    def corpus_time(c):
        return (c["rows"] / statistics.median(c["build_part_rates"]) +
                plain["queries"] / statistics.median(c["query_window_rates"]))

    corpus_share = corpus_time(corpus) / corpus_time(plain) - 1.0
    extra_s = (total_span_s(totals, "train.fwd") +
               total_span_s(totals, "train.encoder_fwd"))
    train_share = ((train["seconds"][0] - extra_s) /
                   statistics.median(untraced["train"]["seconds"]) - 1.0)
    m["serve.trace.overhead_share"] = (serve_share, "share")
    m["corpus.trace.overhead_share"] = (corpus_share, "share")
    m["train.trace.overhead_share"] = (train_share, "share")
    m["trace.overhead_share"] = (
        statistics.fmean([serve_share, corpus_share, train_share]), "share")
    return m


def checks(raw, spec, workload, trace):
    """Output checks made here, as (attempted, failed): the pinned mean rank
    and validation loss, that every TrainChecked call of the run ended on the
    same loss, and, when traced, that the training replay ended on it too,
    bit for bit."""
    attempted = failed = 0
    pinned = spec["pinned"][workload]
    untraced = raw["untraced"]
    val_loss = untraced["train"]["val_losses"][0]
    for loss in untraced["train"]["val_losses"][1:]:
        attempted += 1
        if loss != val_loss:
            log(f"check failed: TrainChecked ended on {loss!r}, "
                f"not {val_loss!r}")
            failed += 1
    for metric, value in (("mean_rank", untraced["corpus"]["mean_rank"]),
                          ("train_val_loss", val_loss)):
        attempted += 1
        if value != pinned[metric]:
            log(f"check failed: {metric} {value!r} != pinned "
                f"{pinned[metric]!r}")
            failed += 1
    if trace:
        attempted += 1
        if raw["traced"]["stages"]["train"]["val_losses"] != [val_loss]:
            log("check failed: the training replay diverged from TrainChecked")
            failed += 1
    return attempted, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((HERE / "spec.json").read_text())
    if args.workload not in spec["workloads"]:
        parser.error(f"unknown workload {args.workload}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        build()
        digest = source_digest(ROOT / "src", HERE)
        models = prepare_models(spec)
        work = BUILD / "work" / f"{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        out = work / "raw.json"
        started = time.monotonic()
        try:
            run_quiet(binary_args(spec, args.workload, args.seed, args.seconds,
                                  args.trace, models[args.workload], work, out),
                      RUN_TIMEOUT_S, pool_env())
            raw = json.loads(out.read_text())
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (OSError, subprocess.SubprocessError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1

    notes = {}
    metrics = (per_layer(raw, spec) if args.trace
               else end_to_end(raw, spec, notes))
    extra_attempted, extra_failed = checks(raw, spec, args.workload,
                                           args.trace)
    attempted = raw["attempted"] + extra_attempted
    failed = raw["failed"] + extra_failed
    host = {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "simd": raw["simd"],
        "pool_threads": raw["pool_threads"],
        "bulk_threads": raw["bulk_threads"],
        "commit": git_commit(),
        "source_sha256": digest,
        "build_type": "Release",
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "wall_s": time.monotonic() - started,
        "attempted": attempted, "failed": failed, "notes": notes,
        # A value that could not be measured (too few samples, or infinite
        # because requests failed) is reported as null.
        "metrics": {k: {"value": v if v is not None and math.isfinite(v)
                        else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    if args.trace:
        record["self_time_s"] = {
            name: ns / 1e9 for name, ns in
            sorted(stats.self_times(raw["traced"]["spans"]).items())}
    else:
        untraced = raw["untraced"]
        record["steps"] = step_counts(untraced["serve"], spec)
        record["rounds"] = {
            "build_part_rates": untraced["corpus"]["build_part_rates"],
            "query_window_rates": untraced["corpus"]["query_window_rates"],
            "train_seconds": untraced["train"]["seconds"],
        }
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    print("host " + json.dumps(host))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value!r} {unit}{note}")
    for step in record.get("steps", []):
        print("step " + json.dumps(step))
    print(f"attempted {attempted} failed {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
