#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <vector>

/// \file
/// In-memory spans for the benchmark's traced run. Spans are recorded only
/// by the benchmark's own code, around the calls it makes into the library's
/// public functions; nothing inside the library is instrumented. Tracing is
/// off unless EnableTracing(true) is called, and then every span costs two
/// clock reads and two short critical sections. Spans stay in memory until
/// TakeSpans() hands them to the output writer at the end of the run.

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
int64_t NowNs();

/// One finished (or still open, end_ns == -1) span. `parent` is the index
/// of the enclosing span on the same thread (-1 at top level); `request`
/// ties the spans of one benchmark request together (-1 when none).
struct SpanRecord {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;
  int64_t request;
};

/// Turns span recording on or off for the whole process.
void EnableTracing(bool on);
bool TracingEnabled();

/// Moves every recorded span out of the recorder.
std::vector<SpanRecord> TakeSpans();

/// RAII span around one call into a layer. `name` must be a string literal.
/// A span without its own request id inherits its parent's.
class Span {
 public:
  explicit Span(const char* name, int64_t request = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_ = -1;
  int64_t saved_parent_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
