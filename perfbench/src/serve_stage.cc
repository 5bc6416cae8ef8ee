// serve-mixed: an open loop with seeded Poisson arrivals against a live
// TcpServer over a preloaded DurableStore. Requests are sent by a fixed set
// of sender threads, each owning one TcpClient; a request is sent at its due
// time or, when every sender is busy, as soon as one frees up. Latency is
// taken from the due time, so a stall also charges the requests queued
// behind it, and the lateness of each send is recorded as generator lag.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "serve/client.h"
#include "serve/embedding_service.h"
#include "serve/server.h"
#include "trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::chrono::microseconds kSpinBeforeDue{200};

int64_t SinceNs(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

/// Sends one request and checks its response.
bool Send(serve::TcpClient& client, const traj::Trajectory& trip, bool insert,
          uint32_t k) {
  if (insert) {
    Result<int64_t> id = client.Insert(trip);
    return id.ok() && id.value() == trip.id;
  }
  Result<serve::EmbeddingStore::Neighbors> knn = client.Knn(trip, k);
  return knn.ok() && knn.value().size() == k;
}

std::string StepJson(const RateStep& step,
                     const std::vector<RequestOutcome>& out) {
  std::string requests = "[";
  char row[128];
  for (size_t i = 0; i < out.size(); ++i) {
    std::snprintf(row, sizeof(row), "%s[%d, %lld, %lld, %lld, %d]",
                  i > 0 ? ", " : "", step.requests[i].insert ? 1 : 0,
                  static_cast<long long>(out[i].due_ns),
                  static_cast<long long>(out[i].sent_ns),
                  static_cast<long long>(out[i].done_ns), out[i].ok ? 1 : 0);
    requests += row;
  }
  requests += "]";
  JsonObject json;
  json.Add("rate", step.rate)
      .Add("seconds", step.seconds)
      .Add("nominal", step.nominal ? 1 : 0)
      .Add("warmup", step.warmup ? 1 : 0)
      .AddRaw("requests", requests);
  return json.Finish();
}

/// In-process replay of the nominal step's first requests through the
/// layers the server calls, each under its own span: tokenizer, batch-1
/// encode (at the run's default of one thread, and again on the pool's
/// threads), the embedding service, and the durable store's kNN or insert.
std::string Replay(const Setup& setup, const RateStep& step, size_t count,
                   uint32_t k, int pool_threads, const std::string& dir,
                   int64_t* attempted, int64_t* failed) {
  const core::T2Vec& model = *setup.model;
  std::unique_ptr<serve::DurableStore> store = OpenPreloadedStore(setup, dir);
  serve::EmbeddingService service(&model);
  const uint64_t wal_before = store->wal_bytes();
  const core::IndexStats index_before = store->IndexStats();
  count = std::min(count, step.requests.size());
  int64_t inserts = 0;
  int64_t failures = 0;
  for (size_t i = 0; i < count; ++i) {
    const ScheduledRequest& r = step.requests[i];
    const traj::Trajectory& trip = setup.serve_trips[r.trip];
    Span request("serve.replay.request", static_cast<int64_t>(i));
    traj::TokenSeq tokens;
    {
      Span span("serve.tokenize");
      tokens = model.EncoderTokens(trip);
    }
    {
      Span span("serve.encoder.batch1");
      (void)model.EncodeTokenized({tokens});
    }
    {
      Span span("serve.encoder.batch1_pool");
      ScopedNumThreads pool(pool_threads);
      (void)model.EncodeTokenized({tokens});
    }
    Result<std::vector<float>> vec = Status::Internal("not run");
    {
      Span span("serve.service.submit");
      vec = service.Submit(trip).get();
    }
    if (!vec.ok()) {
      ++failures;
      continue;
    }
    if (r.insert) {
      Span span("serve.store.insert");
      failures += store->Insert(trip.id, vec.value()).ok() ? 0 : 1;
      ++inserts;
    } else {
      Span span("serve.store.knn");
      failures += store->Knn(vec.value(), k).size() == k ? 0 : 1;
    }
  }
  const core::IndexStats index_after = store->IndexStats();
  *attempted += static_cast<int64_t>(count);
  *failed += failures;
  JsonObject json;
  json.Add("requests", count)
      .Add("inserts", inserts)
      .Add("failures", failures)
      .Add("wal_bytes", static_cast<int64_t>(store->wal_bytes() - wal_before))
      .Add("index_queries", index_after.queries - index_before.queries)
      .Add("index_candidates",
           index_after.candidates - index_before.candidates);
  return json.Finish();
}

}  // namespace

ServeStage::ServeStage(Setup& setup, const Params& params, bool traced,
                       std::string dir)
    : setup_(setup),
      params_(params),
      traced_(traced),
      dir_(std::move(dir)),
      k_(static_cast<uint32_t>(params.Count("serve-k"))) {
  // The untraced pass uses the store opened during set-up; a traced pass
  // gets a fresh copy so both passes start from the same state.
  store_ = setup.store.get();
  if (traced) {
    fresh_store_ = OpenPreloadedStore(setup, dir_ + "/tcp");
    store_ = fresh_store_.get();
  }
  serve::ServerOptions options;
  options.port = 0;  // Ephemeral: never fight over a port.
  server_ = std::make_unique<serve::TcpServer>(setup.model.get(), store_,
                                               options);
  if (Status started = server_->Start(); !started.ok()) {
    throw std::runtime_error("server: " + started.ToString());
  }
  for (size_t c = 0; c < params.Count("serve-connections"); ++c) {
    Result<std::unique_ptr<serve::TcpClient>> client =
        serve::TcpClient::Connect("127.0.0.1", server_->port());
    if (!client.ok()) {
      throw std::runtime_error("connect: " + client.status().ToString());
    }
    clients_.push_back(std::move(client).value());
  }
}

void ServeStage::RunStep(const RateStep& step) {
  // Server stats around each nominal step, so that the server-side split
  // covers exactly the nominal-rate traffic.
  const std::string stats_before = step.nominal ? server_->StatsJson() : "";
  std::vector<RequestOutcome> out(step.requests.size());
  std::atomic<size_t> next{0};
  // A short lead so every sender is waiting before the first due time.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> senders;
  for (size_t c = 0; c < clients_.size(); ++c) {
    senders.emplace_back([&, c] {
      for (size_t i = next.fetch_add(1); i < out.size();
           i = next.fetch_add(1)) {
        const ScheduledRequest& r = step.requests[i];
        // Sleep to just before the due time, then spin: a wake-up from sleep
        // is late by an amount that varies with the host's load, and that
        // lateness would enter every latency timed from the due time.
        const Clock::time_point due =
            start + std::chrono::nanoseconds(r.due_ns);
        std::this_thread::sleep_until(due - kSpinBeforeDue);
        while (Clock::now() < due) {
        }
        out[i].due_ns = r.due_ns;
        out[i].sent_ns = SinceNs(start);
        Span span(r.insert ? "serve.client.insert" : "serve.client.knn",
                  request_base_ + static_cast<int64_t>(i));
        out[i].ok =
            Send(*clients_[c], setup_.serve_trips[r.trip], r.insert, k_);
        out[i].done_ns = SinceNs(start);
      }
    });
  }
  for (std::thread& t : senders) t.join();
  if (step.nominal) {
    if (stats_windows_.size() > 1) stats_windows_ += ", ";
    stats_windows_ += "[" + stats_before + ", " + server_->StatsJson() + "]";
  }
  for (size_t i = 0; i < out.size(); ++i) {
    ++attempted_;
    if (!out[i].ok) ++failed_;
    if (out[i].ok && step.requests[i].insert) {
      acked_.push_back(setup_.serve_trips[step.requests[i].trip].id);
    }
  }
  if (steps_.size() > 1) steps_ += ", ";
  steps_ += StepJson(step, out);
  request_base_ += static_cast<int64_t>(out.size());
  if (step.nominal && replay_step_ == nullptr) replay_step_ = &step;
}

std::string ServeStage::Finish(int64_t* attempted, int64_t* failed) {
  clients_.clear();
  server_->Stop();

  // Durability and exactness checks, each counted as one operation: every
  // acknowledged insert is in the store, the store holds exactly the preload
  // plus the acknowledged inserts, and a seeded sample of stored vectors is
  // bit-identical to T2Vec::EncodeOne.
  int64_t check_failures = 0;
  for (int64_t id : acked_) check_failures += store_->Contains(id) ? 0 : 1;
  check_failures += store_->size() == setup_.preload + acked_.size() ? 0 : 1;
  Rng rng(params_.Count("seed") + 1);
  const size_t sample = params_.Count("serve-check-sample");
  for (size_t s = 0; s < sample; ++s) {
    const bool from_inserts = !acked_.empty() && s % 2 == 1;
    const int64_t id =
        from_inserts ? acked_[rng.UniformInt(acked_.size())]
                     : static_cast<int64_t>(rng.UniformInt(setup_.preload));
    const std::vector<float> stored = store_->Find(id);
    const std::vector<float> expect =
        setup_.model->EncodeOne(setup_.serve_trips[static_cast<size_t>(id)]);
    check_failures +=
        stored.size() == expect.size() &&
                std::memcmp(stored.data(), expect.data(),
                            expect.size() * sizeof(float)) == 0
            ? 0
            : 1;
  }
  const int64_t checks = static_cast<int64_t>(acked_.size() + 1 + sample);
  *attempted += attempted_ + checks;
  *failed += failed_ + check_failures;

  JsonObject json;
  json.AddRaw("steps", steps_ + "]")
      .AddRaw("stats_windows", stats_windows_ + "]")
      .Add("preload", setup_.preload)
      .Add("acked_inserts", acked_.size())
      .Add("store_size", store_->size())
      .Add("checks", checks)
      .Add("check_failures", check_failures);
  if (traced_) {
    json.AddRaw("replay", Replay(setup_, *replay_step_,
                                 params_.Count("serve-replay"), k_,
                                 static_cast<int>(params_.Count("bulk-threads")),
                                 dir_ + "/replay", attempted, failed));
  }
  return json.Finish();
}

}  // namespace perfbench
