// corpus-search: the paper's most-similar search (Table III, the
// eval::BuildMss shape). The database is built the way T2Vec::Encode
// batches: tokenize, encode 256-row padded slices in parallel, add each row
// to an exact AnnIndex. Queries are answered one at a time: encode one
// trajectory, then Query the set-up's copy of the same database, which the
// built one must match row for row. The twin's mean rank is the quality
// check.

#include <chrono>
#include <cstring>
#include <stdexcept>

#include "bench.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

}  // namespace

CorpusStage::CorpusStage(const Setup& setup, const Params& params)
    : setup_(setup), params_(params) {
  Result<std::unique_ptr<core::AnnIndex>> index =
      core::CreateIndex(core::IndexConfig{}, setup.model->model().hidden());
  if (!index.ok()) throw std::runtime_error(index.status().ToString());
  index_ = std::move(index).value();
  before_queries_ = setup.query_index->Stats();
}

void CorpusStage::BuildPart(size_t part, size_t parts) {
  const core::T2Vec& model = *setup_.model;
  const eval::MssData& mss = setup_.mss;
  const size_t rows = mss.database.size();
  const size_t slice = params_.Count("encode-slice");
  const size_t num_slices = (rows + slice - 1) / slice;
  const size_t first = num_slices * part / parts;
  const size_t last = num_slices * (part + 1) / parts;
  std::vector<nn::Matrix> blocks(last - first);
  std::vector<int64_t> real(last - first);
  std::vector<int64_t> padded(last - first);

  const Clock::time_point start = Clock::now();
  Span build("corpus.build");
  // Slices are tokenized and encoded in parallel on the bulk threads, as
  // T2Vec::Encode does; rows then enter the index in build order.
  ParallelFor(first, last, 1, [&](size_t b) {
    std::vector<traj::TokenSeq> seqs;
    {
      Span span("corpus.tokenize");
      for (size_t p = b * slice; p < std::min((b + 1) * slice, rows); ++p) {
        seqs.push_back(model.EncoderTokens(mss.database[setup_.db_order[p]]));
      }
    }
    size_t longest = 0;
    for (const traj::TokenSeq& seq : seqs) {
      real[b - first] += static_cast<int64_t>(seq.size());
      longest = std::max(longest, seq.size());
    }
    padded[b - first] = static_cast<int64_t>(longest * seqs.size());
    Span span("corpus.encoder.encode");
    blocks[b - first] = model.EncodeTokenized(seqs);
  }, static_cast<int>(params_.Count("bulk-threads")));
  size_t added = 0;
  {
    Span span("corpus.index.add");
    for (const nn::Matrix& block : blocks) {
      for (size_t r = 0; r < block.rows(); ++r) {
        index_->Add(std::span<const float>(block.Row(r), block.cols()));
      }
      added += block.rows();
    }
  }
  AppendNumber(&part_rates_, static_cast<double>(added) / Seconds(start));
  for (size_t i = 0; i < blocks.size(); ++i) {
    real_steps_ += real[i];
    padded_steps_ += padded[i];
  }
}

void CorpusStage::QueryWindow(double seconds) {
  const core::T2Vec& model = *setup_.model;
  const size_t k = params_.Count("corpus-k");
  const Clock::time_point start = Clock::now();
  size_t in_window = 0;
  double elapsed = 0.0;
  while ((elapsed = Seconds(start)) < seconds) {
    const size_t q = setup_.query_order[answered_ % setup_.query_order.size()];
    Span request("corpus.query", static_cast<int64_t>(answered_));
    traj::TokenSeq tokens;
    {
      Span span("corpus.query.tokenize");
      tokens = model.EncoderTokens(setup_.mss.queries[q]);
    }
    nn::Matrix vec;
    {
      Span span("corpus.encoder.batch1");
      vec = model.EncodeTokenized({tokens});
    }
    Span span("corpus.index.query");
    const core::KnnResult result =
        setup_.query_index->Query(
            std::span<const float>(vec.Row(0), vec.cols()), k);
    bad_answers_ += result.size() == k ? 0 : 1;
    ++answered_;
    ++in_window;
  }
  AppendNumber(&window_rates_, static_cast<double>(in_window) / elapsed);
}

std::string CorpusStage::Finish(int64_t* attempted, int64_t* failed) {
  const core::T2Vec& model = *setup_.model;
  const eval::MssData& mss = setup_.mss;
  const core::T2VecConfig& config = model.config();
  const size_t rows = mss.database.size();
  const core::IndexStats after = setup_.query_index->Stats();
  *attempted += static_cast<int64_t>(rows + answered_);
  *failed += bad_answers_;

  // Every built row must equal the queried index's row bit for bit, and
  // both must hold every database trajectory.
  std::vector<size_t> position(rows);
  for (size_t p = 0; p < rows; ++p) position[setup_.db_order[p]] = p;
  const core::AnnIndex& queried = *setup_.query_index;
  int64_t row_mismatches = 0;
  if (index_->Size() != rows || queried.Size() != rows ||
      queried.dim() != index_->dim()) {
    row_mismatches = static_cast<int64_t>(rows);
  } else {
    for (size_t i = 0; i < rows; ++i) {
      row_mismatches += std::memcmp(index_->RowPtr(position[i]),
                                    queried.RowPtr(i),
                                    index_->dim() * sizeof(float)) == 0
                            ? 0
                            : 1;
    }
  }
  *failed += row_mismatches;

  // Quality: the mean rank of each query's twin (untimed).
  nn::Matrix db(rows, index_->dim());
  for (size_t i = 0; i < rows; ++i) {
    std::memcpy(db.Row(i), index_->RowPtr(position[i]),
                index_->dim() * sizeof(float));
  }
  const double mean_rank =
      eval::MeanRankOfVectors(model.Encode(mss.queries), db);

  // Exactness: a seeded sample of database rows equals EncodeOne bit for bit.
  Rng rng(params_.Count("seed") + 2);
  const size_t sample = params_.Count("corpus-check-sample");
  int64_t check_failures = 0;
  for (size_t s = 0; s < sample; ++s) {
    const size_t i = rng.UniformInt(rows);
    const std::vector<float> expect = model.EncodeOne(mss.database[i]);
    check_failures += std::memcmp(index_->RowPtr(position[i]), expect.data(),
                                  expect.size() * sizeof(float)) == 0
                          ? 0
                          : 1;
  }
  *attempted += static_cast<int64_t>(sample);
  *failed += check_failures;

  // GRU FLOPs per padded token-step: per layer, the input and recurrent
  // GEMMs of the three gates.
  const double h = static_cast<double>(config.hidden);
  double flops_per_step = 0.0;
  for (size_t l = 0; l < config.layers; ++l) {
    const double in = l == 0 ? static_cast<double>(config.embed_dim) : h;
    flops_per_step += 2.0 * 3.0 * h * (in + h);
  }

  JsonObject json;
  json.Add("rows", rows)
      .AddRaw("build_part_rates", part_rates_ + "]")
      .Add("queries", answered_)
      .AddRaw("query_window_rates", window_rates_ + "]")
      .Add("bad_answers", bad_answers_)
      .Add("row_mismatches", row_mismatches)
      .Add("real_steps", real_steps_)
      .Add("padded_steps", padded_steps_)
      .Add("gru_flops", flops_per_step * static_cast<double>(padded_steps_))
      .Add("index_queries", after.queries - before_queries_.queries)
      .Add("index_candidates", after.candidates - before_queries_.candidates)
      .Add("mean_rank", mean_rank)
      .Add("checks", sample)
      .Add("check_failures", check_failures);
  return json.Finish();
}

}  // namespace perfbench
