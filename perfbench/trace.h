// Span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public functions (workload construction, engine start/step/
// finish, journal appends, ...).  Each span has a name ("<layer>.<what>"),
// a start and end on the steady clock, the span that caused it and the id of
// the cell or request it belongs to.  Spans stay in memory and are written
// once, as Chrome Trace Event JSON, when the run ends.
//
// A disabled tracer records nothing; the traced and untraced passes run the
// same code, so their wall-clock difference is the tracing overhead.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since a process-wide origin.
std::int64_t now_ns();

struct Span {
  std::string name;
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::uint64_t span_id{0};
  /// 0 for a root span.
  std::uint64_t parent{0};
  /// The cell or request this span belongs to (0 = none).
  std::uint64_t id{0};
  std::uint32_t tid{0};
};

/// Self time and call count of one span name.
struct SpanTotals {
  double total_ms{0.0};
  double self_ms{0.0};
  std::uint64_t count{0};
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span on the calling thread.  Its parent is the innermost open
  /// span of this thread, or `parent` when the thread has none (work handed
  /// to a pool worker names the span that fanned it out).  Returns the span
  /// id, 0 when disabled.
  std::uint64_t begin(const char* name, std::uint64_t id, std::uint64_t parent = 0);
  void end(std::uint64_t span_id);

  /// RAII form of begin/end.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t id, std::uint64_t parent = 0)
        : tracer_(tracer), span_(tracer.begin(name, id, parent)) {}
    ~Scope() { tracer_.end(span_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint64_t span_id() const { return span_; }

   private:
    Tracer& tracer_;
    std::uint64_t span_;
  };

  /// Closed spans, in closing order.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Per span name: total and self time (duration minus the union of its
  /// children's intervals), and calls.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;

  /// Write every closed span of each tracer as Chrome Trace Event JSON
  /// ("X" events, µs); tracer k becomes process k + 1.
  static void write_chrome_trace(const std::string& path,
                                 const std::vector<const Tracer*>& tracers);

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::uint64_t next_span_{1};
  std::map<std::uint64_t, Span> open_;
  std::vector<Span> closed_;
};

}  // namespace perfbench
