"""Statistics of the repository benchmark, kept apart from the runner so
that perfbench/test_stats.py can check them without building anything.

Everything here is a pure function of recorded observations:

* ``tail_percentile`` applies the reporting rule for tails: report the
  highest whole percentile, up to the one asked for, that still has at least
  ten samples beyond it, and say which percentile that was.
* ``spread`` is the run-to-run spread the benchmark is judged by: the
  distance between the first and third quartile as a share of the median,
  with quartiles as ``statistics.quantiles(values, n=4)`` gives them.
* ``open_loop`` derives latency from the due time, so a stall charges every
  request queued behind it, and the generator's lag from the send time.
* ``self_times`` turns spans into per-name self time: a span's duration
  minus the part of it that its child spans cover.
* ``histogram_delta_quantile`` reads a quantile from the difference of two
  snapshots of a server histogram (the stats JSON of serve/metrics.h), and
  ``merge_deltas`` pools the differences of several pairs of snapshots.
"""

import math
import statistics

MIN_BEYOND = 10


def percentile(values, pct):
    """Linearly interpolated percentile (0-100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = pct / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def supported_percentile(count, wanted):
    """The highest whole percentile <= ``wanted`` with at least
    MIN_BEYOND of ``count`` samples beyond it, or None below the median."""
    if count <= 0:
        return None
    pct = min(float(wanted), math.floor(100.0 * (1.0 - MIN_BEYOND / count)))
    return pct if pct >= 50.0 else None


def tail_percentile(values, wanted=99.0):
    """(percentile reported, value) under the tail rule; (None, None) when
    the sample cannot support even the median."""
    pct = supported_percentile(len(values), wanted)
    if pct is None:
        return None, None
    return pct, percentile(values, pct)


def quartiles(values):
    """First quartile, median and third quartile, as the benchmark's
    acceptance rule computes them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def open_loop(requests):
    """Per-request figures of one open-loop step.

    ``requests`` holds ``[insert, due_ns, sent_ns, done_ns, ok]`` rows. A
    request's latency runs from when it was due, not when it was sent; its
    lag is how late the generator sent it. A failed request counts as
    missing any latency limit: its latency is infinite.
    """
    out = {"knn_ms": [], "insert_ms": [], "lag_ms": [], "failed": 0,
           "sent": len(requests)}
    for insert, due, sent, done, ok in requests:
        out["lag_ms"].append((sent - due) / 1e6)
        out["failed"] += 0 if ok else 1
        latency = (done - due) / 1e6 if ok else math.inf
        out["insert_ms" if insert else "knn_ms"].append(latency)
    return out


def meets_limit(step, limit_ms, wanted=99.0):
    """Whether an open-loop step meets the latency limit: no failed
    request, the kNN tail (from due time) within the limit, and no growing
    backlog, i.e. the requests of the step's last tenth were sent within the
    limit of their due time."""
    figures = open_loop(step)
    if figures["failed"] or not figures["knn_ms"]:
        return False
    _, tail = tail_percentile(figures["knn_ms"], wanted)
    if tail is None or tail > limit_ms:
        return False
    last = figures["lag_ms"][len(figures["lag_ms"]) * 9 // 10:]
    return max(last, default=0.0) <= limit_ms


def self_times(spans):
    """Total self time in nanoseconds per span name.

    ``spans`` holds ``[name, start_ns, end_ns, parent, request]`` rows,
    where ``parent`` indexes the enclosing span (-1 for none). Children may
    overlap each other; the covered part of the parent is their union,
    clipped to the parent.
    """
    children = {}
    for index, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(index, [])):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        totals[name] = totals.get(name, 0) + (end - start) - covered
    return totals


def span_totals(spans):
    """(count, total duration in ns) per span name."""
    totals = {}
    for name, start, end, _, _ in spans:
        count, total = totals.get(name, (0, 0))
        totals[name] = (count + 1, total + end - start)
    return totals


def _bucket_counts(histogram):
    return [(math.inf if b["le"] == "inf" else float(b["le"]), b["count"])
            for b in histogram["buckets"]]


def histogram_delta(before, after):
    """count, sum and per-bucket counts observed between two snapshots."""
    buckets = [(le, a - b) for (le, a), (_, b) in
               zip(_bucket_counts(after), _bucket_counts(before))]
    return {"count": after["count"] - before["count"],
            "sum": after["sum"] - before["sum"],
            "max": after["max"], "buckets": buckets}


def merge_deltas(deltas):
    """One histogram delta holding the observations of several."""
    return {"count": sum(d["count"] for d in deltas),
            "sum": sum(d["sum"] for d in deltas),
            "max": max(d["max"] for d in deltas),
            "buckets": [(column[0][0], sum(c for _, c in column))
                        for column in zip(*(d["buckets"] for d in deltas))]}


def histogram_delta_quantile(before, after, q):
    """The q-quantile (0-1) of the observations between two snapshots,
    interpolated inside its bucket as serve/metrics.cc does."""
    return delta_quantile(histogram_delta(before, after), q)


def delta_quantile(delta, q):
    """The q-quantile (0-1) of the observations in a histogram delta."""
    total = delta["count"]
    if total <= 0:
        return None
    target = q * total
    cumulative = 0
    lower = 0.0
    for le, count in delta["buckets"]:
        if count > 0 and cumulative + count >= target:
            upper = delta["max"] if math.isinf(le) else le
            return lower + (target - cumulative) / count * (upper - lower)
        cumulative += count
        if not math.isinf(le):
            lower = le
    return delta["max"]
