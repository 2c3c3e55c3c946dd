#pragma once

// In-memory span tracer for the benchmark's traced run (--trace 1). Spans
// are recorded by the benchmark around the public calls it makes into each
// module; nothing inside the library is instrumented. The benchmark drives
// the library from one client thread, so the tracer is single-threaded.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct SpanRecord {
  std::string name;  ///< "<layer>.<call>", e.g. "service.plan_cold".
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;   ///< Index of the enclosing span, -1 for a root.
  int session = 0;   ///< Round (or probe) the span belongs to.
};

class Tracer {
 public:
  Tracer();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; -1 when disabled.
  int begin(std::string name, int session);
  void end(int index);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const {
    return spans_;
  }
  /// Microseconds since the tracer was created.
  [[nodiscard]] double now_us() const;

  /// Chrome trace-event JSON (chrome://tracing, Perfetto): one complete
  /// event per span, one row per session.
  void write_chrome_trace(std::ostream& out) const;

  struct LayerRow {
    std::string layer;
    std::size_t spans = 0;
    double self_ms = 0.0;  ///< Span time not covered by child spans.
  };
  /// Self time per layer (the span-name prefix before the first '.').
  [[nodiscard]] std::vector<LayerRow> self_time_by_layer() const;

 private:
  bool enabled_ = false;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int session)
      : tracer_(tracer), index_(tracer.begin(std::move(name), session)) {}
  ~ScopedSpan() { tracer_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
