// The benchmark binary. perfbench/run.py builds it and runs it twice per
// benchmark run at most: `--mode prepare` trains the serving model and
// builds the corpus-search query index once per checkout and caches them
// (their cost is not part of any metric), and `--mode run` builds the
// set-up several times, runs the serve-mixed, corpus-search and train
// stages, and writes their raw observations as one JSON document to --out.

#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "common/cpu.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "serve/embedding_store.h"
#include "trace.h"

namespace perfbench {

Params::Params(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected --name value, got " + key);
    }
    values_[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) throw std::invalid_argument("dangling argument");
}

std::string Params::Str(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) throw std::invalid_argument("missing --" + name);
  return it->second;
}

double Params::Num(const std::string& name) const {
  const std::string s = Str(name);
  size_t used = 0;
  const double v = std::stod(s, &used);
  if (used != s.size() || !std::isfinite(v)) {
    throw std::invalid_argument("--" + name + " is not a number: " + s);
  }
  return v;
}

size_t Params::Count(const std::string& name) const {
  const double v = Num(name);
  if (v < 0 || v != std::floor(v)) {
    throw std::invalid_argument("--" + name + " must be a whole number");
  }
  return static_cast<size_t>(v);
}

std::vector<double> Params::NumList(const std::string& name) const {
  std::vector<double> out;
  std::stringstream in(Str(name));
  std::string item;
  while (std::getline(in, item, ',')) out.push_back(std::stod(item));
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendNumber(std::string* list, double v) {
  if (list->size() > 1) list->append(", ");
  list->append(Num(v));
}

void JsonObject::Key(const std::string& key) {
  if (body_.size() > 1) body_ += ", ";
  body_ += "\"" + key + "\": ";
}

JsonObject& JsonObject::Add(const std::string& key, double value) {
  Key(key);
  body_ += Num(value);
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::AddString(const std::string& key,
                                  const std::string& value) {
  Key(key);
  body_ += "\"" + value + "\"";
  return *this;
}

JsonObject& JsonObject::AddRaw(const std::string& key,
                               const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

traj::GeneratorConfig RegimeGenerator(const std::string& regime) {
  if (regime == "porto") return traj::GeneratorConfig::PortoLike();
  if (regime == "harbin") return traj::GeneratorConfig::HarbinLike();
  throw std::invalid_argument("unknown regime " + regime);
}

std::vector<traj::Trajectory> GenerateTrips(
    const traj::SyntheticTrajectoryGenerator& generator, int64_t first,
    size_t count, int threads) {
  std::vector<traj::Trajectory> trips(count);
  ParallelFor(
      0, count, 8,
      [&](size_t i) {
        trips[i] =
            generator.GenerateOne(first + static_cast<int64_t>(i), nullptr);
      },
      threads);
  return trips;
}

core::T2VecConfig TrainConfig(size_t iterations, size_t validation_pairs) {
  // The library defaults (hidden 96, L3 NCE loss, cell pretraining) with a
  // smaller validation split, so that a short call still spends most of
  // its time training.
  core::T2VecConfig config;
  config.max_iterations = iterations;
  // One validation pass, after the last batch: early stopping needs
  // `patience` passes without improvement, so it cannot fire and every run
  // trains exactly `iterations` batches.
  config.validate_every = iterations;
  config.validation_pairs = validation_pairs;
  return config;
}

namespace {

/// Hands the heap's free pages back to the system. The allocator otherwise
/// keeps a share of freed memory resident that differs from run to run
/// (which thread freed what into which arena), and the peak resident size
/// would move with it; called between set-ups and rounds, the peak is the
/// live data plus what the current stage allocates.
void ReleaseFreeMemory() { malloc_trim(0); }

// The corpus never overlaps the training trips: trips [0, kCorpusFirstTrip)
// of the regime's fixed generator are for training.
constexpr int64_t kCorpusFirstTrip = 100'000;

std::vector<RateStep> MakeLadder(const Params& params, Rng& rng,
                                 size_t preload, size_t pool,
                                 size_t* inserts) {
  const std::vector<double> rates = params.NumList("serve-rates");
  const size_t nominal = params.Count("serve-nominal-step");
  const double step_s = params.Num("serve-step-seconds");
  const double nominal_s = params.Num("serve-nominal-seconds");
  const double insert_share = params.Num("serve-insert-share");
  const size_t rounds = params.Count("rounds");
  // A warm-up step at the nominal rate, the nominal rate split into one
  // window per round, then every other rate of the ladder, the whole ladder
  // `serve-ladder-repeats` times over.
  const auto make_step = [](double rate, double seconds) {
    RateStep step;
    step.rate = rate;
    step.seconds = seconds;
    return step;
  };
  std::vector<RateStep> ladder = {
      make_step(rates[nominal], params.Num("serve-warmup-seconds"))};
  ladder[0].warmup = true;
  for (size_t r = 0; r < rounds; ++r) {
    ladder.push_back(
        make_step(rates[nominal], nominal_s / static_cast<double>(rounds)));
    ladder.back().nominal = true;
  }
  for (size_t rep = 0; rep < params.Count("serve-ladder-repeats"); ++rep) {
    for (size_t i = 0; i < rates.size(); ++i) {
      if (i != nominal) ladder.push_back(make_step(rates[i], step_s));
    }
  }
  for (RateStep& step : ladder) {
    // Poisson arrivals: exponential gaps at the step's rate.
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng.Uniform()) / step.rate;
      if (t >= step.seconds) break;
      ScheduledRequest r;
      r.due_ns = static_cast<int64_t>(t * 1e9);
      r.insert = rng.Bernoulli(insert_share);
      r.trip = r.insert ? preload + pool + (*inserts)++
                        : preload + rng.UniformInt(pool);
      step.requests.push_back(r);
    }
  }
  return ladder;
}

}  // namespace

eval::MssData MakeCorpus(const Params& params) {
  const traj::SyntheticTrajectoryGenerator fixed_gen(
      RegimeGenerator(params.Str("regime")));
  const size_t queries = params.Count("corpus-queries");
  const traj::Dataset corpus(GenerateTrips(
      fixed_gen, kCorpusFirstTrip, queries + params.Count("corpus-distractors"),
      static_cast<int>(params.Count("bulk-threads"))));
  return eval::BuildMss(corpus, queries, params.Count("corpus-distractors"));
}

Setup MakeSetup(const Params& params, const std::string& dir) {
  Setup setup;
  const std::string regime = params.Str("regime");
  const uint64_t seed = params.Count("seed");
  Result<core::T2Vec> model = core::T2Vec::Load(params.Str("model"));
  if (!model.ok()) {
    throw std::runtime_error("model: " + model.status().ToString());
  }
  setup.model = std::make_unique<core::T2Vec>(std::move(model).value());
  const core::T2Vec& t2vec = *setup.model;

  // serve-mixed: new trips over the regime's road network, from the seed.
  Rng rng(seed);
  traj::GeneratorConfig serve_config = RegimeGenerator(regime);
  serve_config.seed = rng.NextU64();
  const traj::SyntheticTrajectoryGenerator serve_gen(serve_config);
  setup.preload = params.Count("serve-preload");
  const size_t pool = params.Count("serve-pool");
  size_t inserts = 0;
  setup.ladder = MakeLadder(params, rng, setup.preload, pool, &inserts);
  const int bulk = static_cast<int>(params.Count("bulk-threads"));
  setup.serve_trips =
      GenerateTrips(serve_gen, 0, setup.preload + pool + inserts, bulk);

  // Preload: encode with the library's bulk path, save a snapshot, and open
  // the durable store over it.
  const std::vector<traj::Trajectory> preload_trips(
      setup.serve_trips.begin(),
      setup.serve_trips.begin() + static_cast<long>(setup.preload));
  nn::Matrix preload_vecs;
  {
    // Bulk work of the set-up runs on the bulk threads (results are
    // bit-identical at any thread count).
    ScopedNumThreads threads(bulk);
    preload_vecs = t2vec.Encode(preload_trips);
  }
  serve::EmbeddingStore preloaded(t2vec.model().hidden());
  for (size_t i = 0; i < setup.preload; ++i) {
    Status added = preloaded.Add(
        preload_trips[i].id,
        std::span<const float>(preload_vecs.Row(i), preload_vecs.cols()));
    if (!added.ok()) throw std::runtime_error(added.ToString());
  }
  std::filesystem::create_directories(dir);
  setup.store_snapshot = dir + "/preload.snapshot";
  if (Status saved = preloaded.Save(setup.store_snapshot); !saved.ok()) {
    throw std::runtime_error(saved.ToString());
  }
  setup.store = OpenPreloadedStore(setup, dir + "/store");

  // corpus-search: a fixed corpus (so mean_rank is a pinned constant); the
  // seed orders the database build and the queries.
  setup.mss = MakeCorpus(params);
  Result<std::unique_ptr<core::AnnIndex>> query_index =
      core::LoadIndex(core::IndexConfig{}, params.Str("query-index"));
  if (!query_index.ok()) {
    throw std::runtime_error("query index: " +
                             query_index.status().ToString());
  }
  setup.query_index = std::move(query_index).value();
  const size_t queries = setup.mss.queries.size();
  setup.db_order.resize(setup.mss.database.size());
  for (size_t i = 0; i < setup.db_order.size(); ++i) setup.db_order[i] = i;
  rng.Shuffle(setup.db_order);
  setup.query_order.resize(queries);
  for (size_t i = 0; i < queries; ++i) setup.query_order[i] = i;
  rng.Shuffle(setup.query_order);

  // train: a fixed set, so train_val_loss is a pinned constant.
  const traj::SyntheticTrajectoryGenerator fixed_gen(RegimeGenerator(regime));
  setup.train_trips =
      GenerateTrips(fixed_gen, 0, params.Count("train-trips"), bulk);
  return setup;
}

std::unique_ptr<serve::DurableStore> OpenPreloadedStore(
    const Setup& setup, const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::filesystem::copy_file(setup.store_snapshot, dir + "/store.snapshot");
  Result<std::unique_ptr<serve::DurableStore>> store =
      serve::DurableStore::Open(dir, setup.model->model().hidden());
  if (!store.ok()) throw std::runtime_error(store.status().ToString());
  return std::move(store).value();
}

namespace {

int Prepare(const Params& params) {
  const std::string path = params.Str("model");
  if (!std::filesystem::exists(path)) {
    const traj::SyntheticTrajectoryGenerator gen(
        RegimeGenerator(params.Str("regime")));
    const std::vector<traj::Trajectory> trips =
        GenerateTrips(gen, 0, params.Count("model-trips"), 0);
    Result<core::T2Vec> model = core::T2Vec::TrainChecked(
        trips, TrainConfig(params.Count("model-iterations"),
                           params.Count("model-validation-pairs")));
    if (!model.ok()) {
      std::fprintf(stderr, "train: %s\n", model.status().ToString().c_str());
      return 1;
    }
    const std::string tmp = path + ".tmp";
    if (Status saved = model.value().Save(tmp); !saved.ok()) {
      std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::filesystem::rename(tmp, path);
  }
  // The query index of corpus-search: the corpus database encoded in corpus
  // order. Each run also builds the database itself (encode_traj_per_s) and
  // checks it against this index row for row, but loading the index at
  // set-up lets queries run in every round instead of only after the build.
  const std::string index_path = params.Str("query-index");
  if (std::filesystem::exists(index_path)) return 0;
  Result<core::T2Vec> model = core::T2Vec::Load(path);
  if (!model.ok()) {
    std::fprintf(stderr, "model: %s\n", model.status().ToString().c_str());
    return 1;
  }
  const eval::MssData mss = MakeCorpus(params);
  const nn::Matrix db = model.value().Encode(mss.database);
  Result<std::unique_ptr<core::AnnIndex>> index =
      core::CreateIndex(core::IndexConfig{}, db.cols());
  if (!index.ok()) {
    std::fprintf(stderr, "index: %s\n", index.status().ToString().c_str());
    return 1;
  }
  for (size_t r = 0; r < db.rows(); ++r) {
    index.value()->Add(std::span<const float>(db.Row(r), db.cols()));
  }
  const std::string tmp = index_path + ".tmp";
  if (Status saved = index.value()->Save(tmp); !saved.ok()) {
    std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::filesystem::rename(tmp, index_path);
  return 0;
}

std::string SpansJson(const std::vector<SpanRecord>& spans) {
  std::string out = "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i > 0) out += ", ";
    out += "[\"" + std::string(s.name) + "\", " + std::to_string(s.start_ns) +
           ", " + std::to_string(s.end_ns) + ", " + std::to_string(s.parent) +
           ", " + std::to_string(s.request) + "]";
  }
  return out + "]";
}

/// One pass over the three stages, interleaved in rounds so that every
/// metric samples the whole run: each round runs one nominal-rate serving
/// window, one part of the corpus build, one query window, a share of the
/// ladder steps and one training call. A slow spell of the host then lands
/// in a few windows of each metric instead of all of one metric, and the
/// medians over windows that perfbench/run.py reports pass over it. The
/// traced pass replays training once instead of calling it every round.
std::string Measure(Setup& setup, const Params& params, bool traced,
                    const std::string& dir, int64_t* attempted,
                    int64_t* failed) {
  ServeStage serve(setup, params, traced, dir);
  CorpusStage corpus(setup, params);
  TrainStage train(setup, params, traced);
  std::vector<const RateStep*> nominal;
  std::vector<const RateStep*> ladder;
  for (const RateStep& step : setup.ladder) {
    if (step.warmup) {
      serve.RunStep(step);
    } else {
      (step.nominal ? nominal : ladder).push_back(&step);
    }
  }
  const size_t rounds = nominal.size();
  const double window_s =
      params.Num("corpus-seconds") / static_cast<double>(rounds);
  for (size_t r = 0; r < rounds; ++r) {
    ReleaseFreeMemory();
    serve.RunStep(*nominal[r]);
    corpus.BuildPart(r, rounds);
    corpus.QueryWindow(window_s);
    for (size_t i = r; i < ladder.size(); i += rounds) {
      serve.RunStep(*ladder[i]);
    }
    if (!traced || r == 0) train.Call();
  }
  JsonObject json;
  json.AddRaw("serve", serve.Finish(attempted, failed))
      .AddRaw("corpus", corpus.Finish(attempted, failed))
      .AddRaw("train", train.Finish(attempted, failed));
  return json.Finish();
}

int Run(const Params& params) {
  // The library's default thread count for every call the benchmark makes,
  // except the corpus build's slice loop, which runs on --bulk-threads.
  SetNumThreads(static_cast<int>(params.Count("default-threads")));
  const std::string work = params.Str("work");
  const bool trace = params.Count("trace") != 0;
  const size_t reps = params.Count("setup-reps");
  std::string setup_s = "[";
  Setup setup;
  for (size_t r = 0; r < reps; ++r) {
    setup = Setup();  // Release the previous set-up before timing the next.
    ReleaseFreeMemory();
    const std::string dir = work + "/setup" + std::to_string(r);
    const auto t0 = std::chrono::steady_clock::now();
    setup = MakeSetup(params, dir);
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    AppendNumber(&setup_s, s);
  }
  setup_s += "]";

  int64_t attempted = 0;
  int64_t failed = 0;
  JsonObject out;
  out.AddRaw("setup_s", setup_s);
  out.AddString("simd", SimdTierName(ActiveSimdTier()));
  out.Add("pool_threads", GetNumThreads());
  out.Add("bulk_threads", params.Count("bulk-threads"));
  out.AddRaw("untraced", Measure(setup, params, false, work + "/untraced",
                                 &attempted, &failed));
  if (trace) {
    EnableTracing(true);
    JsonObject traced;
    traced.AddRaw("stages", Measure(setup, params, true, work + "/traced",
                                    &attempted, &failed));
    EnableTracing(false);
    traced.AddRaw("spans", SpansJson(TakeSpans()));
    out.AddRaw("traced", traced.Finish());
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.Add("peak_rss_kb", static_cast<int64_t>(usage.ru_maxrss));
  out.Add("attempted", attempted);
  out.Add("failed", failed);

  std::ofstream file(params.Str("out"));
  file << out.Finish() << "\n";
  file.close();
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", params.Str("out").c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Params params(argc, argv);
    const std::string mode = params.Str("mode");
    if (mode == "prepare") return perfbench::Prepare(params);
    if (mode == "run") return perfbench::Run(params);
    std::fprintf(stderr, "unknown --mode %s\n", mode.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  return 1;
}
