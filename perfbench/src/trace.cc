#include "trace.h"

#include <atomic>
#include <chrono>
#include <mutex>

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<SpanRecord> g_spans;  // Guarded by g_mu.
thread_local int64_t t_current = -1;

}  // namespace

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void EnableTracing(bool on) { g_enabled.store(on); }

bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<SpanRecord> TakeSpans() {
  std::lock_guard<std::mutex> lock(g_mu);
  return std::move(g_spans);
}

Span::Span(const char* name, int64_t request) {
  if (!TracingEnabled()) return;
  const int64_t start = NowNs();
  {
    std::lock_guard<std::mutex> lock(g_mu);
    if (request < 0 && t_current >= 0) {
      request = g_spans[static_cast<size_t>(t_current)].request;
    }
    index_ = static_cast<int64_t>(g_spans.size());
    g_spans.push_back({name, start, -1, t_current, request});
  }
  saved_parent_ = t_current;
  t_current = index_;
}

Span::~Span() {
  if (index_ < 0) return;
  const int64_t end = NowNs();
  {
    std::lock_guard<std::mutex> lock(g_mu);
    g_spans[static_cast<size_t>(index_)].end_ns = end;
  }
  t_current = saved_parent_;
}

}  // namespace perfbench
