#pragma once

// Per-layer probes of the traced run (--trace 1): each public call of each
// module, timed on the benchmark thread at the workload's own shapes.

#include <vector>

#include "session.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

/// Measures every per-layer metric. `untraced` holds the run's untraced
/// rounds (for the shares that divide by the end-to-end step time).
[[nodiscard]] std::vector<Metric> measure_layers(Session& session,
                                                 Tracer& tracer,
                                                 const RoundSamples& untraced);

}  // namespace perfbench
