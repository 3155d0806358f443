#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced benchmark run. Spans are recorded
// by the benchmark around its calls into the library's public functions;
// nothing inside the library is instrumented. Spans are kept in memory and
// written once, as Chrome trace-event JSON, when the run ends.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// One closed span. `parent` is the index of the enclosing span in the
/// recorder's span list, or -1 for a top-level span. Times are seconds
/// since the recorder was created.
struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0.0;
  double end_s = 0.0;

  double seconds() const { return end_s - start_s; }
};

/// Records nested spans on one thread. When disabled, Begin/End cost a
/// branch and record nothing, so untraced runs carry no tracing work.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one; returns its index
  /// (-1 when disabled).
  int Begin(std::string_view name);
  /// Closes span `id`, which must be the innermost open span.
  void End(int id);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name)
        : tracer_(tracer), id_(tracer.Begin(name)) {}
    ~Scope() { tracer_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  /// Seconds since the recorder was created.
  double Now() const;

  /// Writes every span as a Chrome trace-event "X" event (open in Perfetto
  /// or chrome://tracing); each event's args carry its parent and self time.
  fae::Status WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
std::vector<double> SelfSeconds(const std::vector<Span>& spans);

/// Durations of the spans named `name`, in recording order.
std::vector<double> SpanSeconds(const std::vector<Span>& spans,
                                std::string_view name);

/// Sum of top-level span durations over `wall_s`: the share of the traced
/// interval the spans account for.
double TopLevelCoverage(const std::vector<Span>& spans, double wall_s);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
