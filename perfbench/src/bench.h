#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/ann_index.h"
#include "core/t2vec.h"
#include "eval/experiments.h"
#include "serve/client.h"
#include "serve/durable_store.h"
#include "serve/server.h"
#include "traj/generator.h"
#include "traj/trajectory.h"

/// \file
/// Shared pieces of the benchmark binary: command-line parameters, the
/// per-run set-up, the three stages and a minimal JSON writer. The binary
/// only measures and records raw observations; perfbench/run.py derives
/// every reported metric from them.

namespace perfbench {

using namespace t2vec;  // NOLINT(google-build-using-namespace)

/// `--name value` pairs from the command line (perfbench/run.py passes the
/// sizes from perfbench/spec.json this way).
class Params {
 public:
  Params(int argc, char** argv);
  std::string Str(const std::string& name) const;
  double Num(const std::string& name) const;
  size_t Count(const std::string& name) const;
  std::vector<double> NumList(const std::string& name) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Appends `"key": value` members to a JSON object.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double value);
  JsonObject& Add(const std::string& key, int64_t value);
  JsonObject& Add(const std::string& key, size_t value) {
    return Add(key, static_cast<int64_t>(value));
  }
  JsonObject& Add(const std::string& key, int value) {
    return Add(key, static_cast<int64_t>(value));
  }
  JsonObject& AddString(const std::string& key, const std::string& value);
  /// `json` must already be valid JSON.
  JsonObject& AddRaw(const std::string& key, const std::string& json);
  std::string Finish() const { return body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_ = "{";
};

/// Full-precision decimal form of `v` (round-trips exactly).
std::string Num(double v);

/// Appends `v` to `list`, the text of a JSON array opened with "[".
void AppendNumber(std::string* list, double v);

/// The generator preset of a regime ("porto" or "harbin").
traj::GeneratorConfig RegimeGenerator(const std::string& regime);

/// Trips `first .. first + count - 1` of `generator`, generated in parallel
/// on `threads` threads.
std::vector<traj::Trajectory> GenerateTrips(
    const traj::SyntheticTrajectoryGenerator& generator, int64_t first,
    size_t count, int threads);

/// One open-loop request: when it is due (offset from its step's start),
/// what it does, and on which trajectory.
struct ScheduledRequest {
  int64_t due_ns = 0;
  bool insert = false;
  size_t trip = 0;  ///< Index into Setup::serve_trips.
};

/// One rate step of the serving ladder.
struct RateStep {
  double rate = 0.0;
  double seconds = 0.0;
  bool nominal = false;
  /// Runs first at the nominal rate so connections, threads and caches are
  /// warm; perfbench/run.py leaves it out of every latency metric.
  bool warmup = false;
  std::vector<ScheduledRequest> requests;
};

/// What happened to one sent request, in nanoseconds from its step's start.
struct RequestOutcome {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;
};

/// Everything a run needs before measuring starts. Built several times per
/// run so that its cost (setup_s) is reported as a median.
struct Setup {
  std::unique_ptr<core::T2Vec> model;
  // serve-mixed: preloaded store, kNN pool and insert trajectories (seeded).
  /// Trip i has id i; [0, preload) are preloaded, then the kNN pool, then
  /// one fresh trip per scheduled insert.
  std::vector<traj::Trajectory> serve_trips;
  size_t preload = 0;
  std::vector<RateStep> ladder;
  std::string store_snapshot;  ///< Preloaded EmbeddingStore::Save file.
  std::unique_ptr<serve::DurableStore> store;
  // corpus-search: the most-similar-search protocol on a fixed corpus.
  eval::MssData mss;
  /// The database in corpus order, loaded from the benchmark's cache; the
  /// queries run against it while the build rounds build the database anew.
  std::unique_ptr<core::AnnIndex> query_index;
  std::vector<size_t> db_order;     ///< Seeded database insertion order.
  std::vector<size_t> query_order;  ///< Seeded query order.
  // train: fixed training set.
  std::vector<traj::Trajectory> train_trips;
};

/// The corpus of corpus-search (fixed per regime): queries and database.
eval::MssData MakeCorpus(const Params& params);

/// Builds the set-up into the fresh directory `dir`.
Setup MakeSetup(const Params& params, const std::string& dir);

/// Opens a DurableStore in the fresh directory `dir` holding a copy of the
/// preloaded snapshot.
std::unique_ptr<serve::DurableStore> OpenPreloadedStore(const Setup& setup,
                                                        const std::string& dir);

/// The stages. Each is driven step by step, so that a run can interleave
/// them (see main.cc), and Finish() checks the outputs, adds every checked
/// operation to `attempted` and every failed one to `failed`, and returns a
/// JSON object of raw observations.

/// serve-mixed: a live TcpServer over the set-up's store, driven open-loop.
class ServeStage {
 public:
  ServeStage(Setup& setup, const Params& params, bool traced, std::string dir);
  /// Sends one rate step's schedule and waits for every response.
  void RunStep(const RateStep& step);
  std::string Finish(int64_t* attempted, int64_t* failed);

 private:
  Setup& setup_;
  const Params& params_;
  const bool traced_;
  const std::string dir_;
  const uint32_t k_;
  std::unique_ptr<serve::DurableStore> fresh_store_;
  serve::DurableStore* store_ = nullptr;
  std::unique_ptr<serve::TcpServer> server_;
  std::vector<std::unique_ptr<serve::TcpClient>> clients_;
  std::string steps_ = "[";
  /// JSON list of [before, after] server stats around each nominal step.
  std::string stats_windows_ = "[";
  const RateStep* replay_step_ = nullptr;  ///< First nominal step.
  std::vector<int64_t> acked_;
  int64_t request_base_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// corpus-search: an exact index built in parts, and queries in windows
/// against the set-up's copy of the same database.
class CorpusStage {
 public:
  CorpusStage(const Setup& setup, const Params& params);
  /// Tokenizes, encodes and adds part `part` of `parts` of the database.
  void BuildPart(size_t part, size_t parts);
  /// Answers queries one at a time for `seconds`, against
  /// Setup::query_index.
  void QueryWindow(double seconds);
  std::string Finish(int64_t* attempted, int64_t* failed);

 private:
  const Setup& setup_;
  const Params& params_;
  std::unique_ptr<core::AnnIndex> index_;
  int64_t real_steps_ = 0;
  int64_t padded_steps_ = 0;
  std::string part_rates_ = "[";
  std::string window_rates_ = "[";
  core::IndexStats before_queries_;
  size_t answered_ = 0;
  int64_t bad_answers_ = 0;
};

/// train: TrainChecked calls (untraced) or the step-by-step replay (traced).
class TrainStage {
 public:
  TrainStage(const Setup& setup, const Params& params, bool traced);
  void Call();
  std::string Finish(int64_t* attempted, int64_t* failed);

 private:
  const Setup& setup_;
  const core::T2VecConfig config_;
  const bool traced_;
  std::string seconds_ = "[";
  std::string val_losses_ = "[";
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t target_tokens_ = 0;
  int64_t token_mismatches_ = 0;
};

/// The training config of the train stage and of the cached serving model.
core::T2VecConfig TrainConfig(size_t iterations, size_t validation_pairs);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
