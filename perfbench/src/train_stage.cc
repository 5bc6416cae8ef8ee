// train: T2Vec::TrainChecked on a fixed set with a fixed iteration budget.
//
// The untraced pass times one library call per round. The traced pass
// replays the same pipeline step by step through the public functions
// TrainChecked and Trainer::Train call, in the same order and with the same
// random streams, so every layer gets its own span: vocabulary, cell kNN
// table, Algorithm 1 pretraining, pair generation, and per batch the
// forward pass, the backward pass, the encoder alone, and the optimizer
// step. The replay must end on the library's validation loss bit for bit;
// perfbench/run.py counts a mismatch as a failed operation.

#include <chrono>
#include <numeric>

#include "bench.h"
#include "common/rng.h"
#include "common/sort.h"
#include "core/cell_pretrain.h"
#include "core/loss.h"
#include "core/model.h"
#include "core/pairs.h"
#include "geo/cell_knn.h"
#include "geo/grid.h"
#include "geo/vocab.h"
#include "nn/optimizer.h"
#include "nn/parameter.h"
#include "trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Mirrors the bounding box T2Vec::TrainChecked builds its grid over.
void BoundingBox(const std::vector<geo::Point>& points, double margin,
                 geo::Point* min_corner, geo::Point* max_corner) {
  *min_corner = points.front();
  *max_corner = points.front();
  for (const geo::Point& p : points) {
    min_corner->x = std::min(min_corner->x, p.x);
    min_corner->y = std::min(min_corner->y, p.y);
    max_corner->x = std::max(max_corner->x, p.x);
    max_corner->y = std::max(max_corner->y, p.y);
  }
  min_corner->x -= margin;
  min_corner->y -= margin;
  max_corner->x += margin;
  max_corner->y += margin;
}

/// Mirrors Trainer's length-bucketed batching.
std::vector<std::vector<size_t>> MakeBatches(
    const std::vector<core::TokenPair>& pairs, size_t batch_size) {
  std::vector<size_t> order(pairs.size());
  std::iota(order.begin(), order.end(), 0);
  DeterministicSort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return pairs[a].tgt.size() < pairs[b].tgt.size();
  });
  std::vector<std::vector<size_t>> batches;
  for (size_t start = 0; start < order.size(); start += batch_size) {
    const size_t end = std::min(start + batch_size, order.size());
    batches.emplace_back(order.begin() + static_cast<long>(start),
                         order.begin() + static_cast<long>(end));
  }
  return batches;
}

core::Batch MakeBatch(const std::vector<core::TokenPair>& pairs,
                      const std::vector<size_t>& indices) {
  std::vector<const core::TokenPair*> selected;
  for (size_t i : indices) selected.push_back(&pairs[i]);
  return core::BuildBatch(selected);
}

struct ReplayResult {
  int64_t target_tokens = 0;  ///< Decoder targets trained, EOS included.
  int64_t token_mismatches = 0;
  double val_loss = 0.0;      ///< Only when the model runs.
};

/// Replays TrainChecked. With `run_model` false only the batch schedule is
/// derived (to count the target tokens the library trains on); with it true
/// the model is trained exactly as the library does, under spans.
ReplayResult Replay(const std::vector<traj::Trajectory>& trips,
                    const core::T2VecConfig& config, bool run_model) {
  ReplayResult result;
  Rng rng(config.seed);
  std::unique_ptr<geo::HotCellVocab> vocab;
  {
    Span span("train.vocab.build");
    std::vector<geo::Point> points;
    for (const traj::Trajectory& t : trips) {
      points.insert(points.end(), t.points.begin(), t.points.end());
    }
    geo::Point lo, hi;
    BoundingBox(points, config.cell_size, &lo, &hi);
    const geo::SpatialGrid grid(lo, hi, config.cell_size);
    vocab = std::make_unique<geo::HotCellVocab>(grid, points,
                                                config.hot_cell_min_hits);
  }
  std::unique_ptr<geo::CellKnnTable> knn;
  if (run_model) {
    Span span("train.cell_knn.build");
    knn = std::make_unique<geo::CellKnnTable>(*vocab, config.knn_k,
                                              config.theta);
  }
  core::EncoderDecoder model(config, vocab->vocab_size(), rng);
  if (config.pretrain_cells) {
    Rng pretrain_rng = rng.Fork();
    if (run_model) {
      // The defaults use one θ for the loss and for pretraining.
      Span span("train.pretrain");
      model.embedding().table().value =
          core::PretrainCellEmbeddings(*vocab, *knn, config, pretrain_rng);
    }
  }
  Rng pair_rng = rng.Fork();
  std::vector<core::TokenPair> pairs;
  {
    Span span("train.pairs");
    pairs = core::BuildTrainingPairs(trips, *vocab, config, pair_rng);
  }
  Rng loss_rng = rng.Fork();
  std::unique_ptr<core::SeqLoss> loss;
  if (run_model) {
    loss = core::MakeLoss(config, &model.projection(), vocab.get(), knn.get(),
                          loss_rng);
  }
  Rng train_rng = rng.Fork();

  // Trainer::Train: validation split, batching, batch order.
  train_rng.Shuffle(pairs);
  const size_t val_count = std::min(config.validation_pairs, pairs.size() / 5);
  const std::vector<core::TokenPair> val_pairs(
      pairs.end() - static_cast<long>(val_count), pairs.end());
  pairs.resize(pairs.size() - val_count);
  const std::vector<std::vector<size_t>> batches =
      MakeBatches(pairs, config.batch_size);
  std::vector<size_t> order(batches.size());
  std::iota(order.begin(), order.end(), 0);
  train_rng.Shuffle(order);
  std::unique_ptr<nn::Adam> adam;
  if (run_model) {
    adam = std::make_unique<nn::Adam>(model.Params(), config.learning_rate);
    adam->ZeroGrad();
  }

  size_t cursor = 0;
  for (size_t iter = 1; iter <= config.max_iterations; ++iter) {
    if (cursor >= order.size()) {
      cursor = 0;
      train_rng.Shuffle(order);
    }
    const std::vector<size_t>& indices = batches[order[cursor++]];
    int64_t tokens = 0;
    for (size_t i : indices) {
      tokens += static_cast<int64_t>(pairs[i].tgt.size() + 1);
    }
    result.target_tokens += tokens;
    if (!run_model) continue;

    Span step("train.iteration", static_cast<int64_t>(iter));
    const core::Batch batch = MakeBatch(pairs, indices);
    result.token_mismatches +=
        static_cast<int64_t>(batch.target_tokens) == tokens ? 0 : 1;
    {
      // A forward-only pass must not move the loss's noise stream, or the
      // replay would drift from the library's run.
      Span span("train.fwd");
      Rng* noise = loss->MutableNoiseRng();
      const Rng::State saved =
          noise != nullptr ? noise->GetState() : Rng::State{};
      (void)model.RunBatch(batch, loss.get(), /*accumulate_grads=*/false);
      if (noise != nullptr) noise->SetState(saved);
    }
    {
      Span span("train.encoder_fwd");
      std::vector<traj::TokenSeq> sources;
      for (size_t i : indices) sources.push_back(pairs[i].src);
      (void)model.EncodeBatch(sources);
    }
    {
      Span span("train.fwd_bwd");
      (void)model.RunBatch(batch, loss.get(), /*accumulate_grads=*/true);
    }
    {
      Span span("train.optim_step");
      nn::ClipGradNorm(model.Params(), config.grad_clip);
      adam->Step();
      adam->ZeroGrad();
    }
    if (iter % config.validate_every == 0) {
      Span span("train.validation");
      double total = 0.0;
      size_t total_tokens = 0;
      std::vector<size_t> val_indices;
      for (size_t start = 0; start < val_pairs.size();
           start += config.batch_size) {
        const size_t end =
            std::min(start + config.batch_size, val_pairs.size());
        val_indices.clear();
        for (size_t i = start; i < end; ++i) val_indices.push_back(i);
        const core::Batch val_batch = MakeBatch(val_pairs, val_indices);
        total += model.RunBatch(val_batch, loss.get(), false);
        total_tokens += val_batch.target_tokens;
      }
      result.val_loss =
          total / static_cast<double>(std::max<size_t>(total_tokens, 1));
    }
  }
  return result;
}

}  // namespace

TrainStage::TrainStage(const Setup& setup, const Params& params, bool traced)
    : setup_(setup),
      config_(TrainConfig(params.Count("train-iterations"),
                          params.Count("train-validation-pairs"))),
      traced_(traced) {}

void TrainStage::Call() {
  attempted_ += static_cast<int64_t>(config_.max_iterations);
  const Clock::time_point start = Clock::now();
  if (traced_) {
    ReplayResult replay;
    {
      Span span("train.replay");
      replay = Replay(setup_.train_trips, config_, true);
    }
    AppendNumber(&seconds_,
                 std::chrono::duration<double>(Clock::now() - start).count());
    AppendNumber(&val_losses_, replay.val_loss);
    target_tokens_ = replay.target_tokens;
    token_mismatches_ += replay.token_mismatches;
    failed_ += replay.token_mismatches;
    return;
  }
  core::TrainStats stats;
  Result<core::T2Vec> model =
      core::T2Vec::TrainChecked(setup_.train_trips, config_, &stats);
  AppendNumber(&seconds_,
               std::chrono::duration<double>(Clock::now() - start).count());
  AppendNumber(&val_losses_, stats.best_val_loss);
  if (!model.ok() || stats.iterations != config_.max_iterations ||
      stats.early_stopped) {
    failed_ += static_cast<int64_t>(config_.max_iterations);
  }
}

std::string TrainStage::Finish(int64_t* attempted, int64_t* failed) {
  if (!traced_) {
    // The library call does not report its token count; the schedule
    // replay derives it without running the model.
    target_tokens_ = Replay(setup_.train_trips, config_, false).target_tokens;
  }
  *attempted += attempted_;
  *failed += failed_;
  JsonObject json;
  json.Add("iterations", config_.max_iterations)
      .AddRaw("seconds", seconds_ + "]")
      .Add("target_tokens", target_tokens_)
      .Add("token_mismatches", token_mismatches_)
      .AddRaw("val_losses", val_losses_ + "]");
  return json.Finish();
}

}  // namespace perfbench
