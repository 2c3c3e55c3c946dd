#pragma once

#include <cstdint>

#include "cluster/cluster.h"
#include "profiler/profile_db.h"

namespace dpipe {

struct ProfilerOptions {
  std::vector<double> batch_grid = default_batch_grid();
  std::uint64_t noise_seed = 0xD1FFu;  ///< "profiled" noise seed.
  double noise_amplitude = 0.02;
  int repeats = 10;        ///< Measurement repetitions per (layer, batch).
  int warmup_repeats = 3;  ///< Discarded warm-up runs per (layer, batch).
};

/// Appends the canonical text form of the profiler settings (every
/// ProfileDb-visible field, fixed order, doubles as "%.17g"). Part of the
/// plan service's request fingerprint: two requests whose profiles could
/// differ must never share a cached plan.
void write_canonical(CanonicalWriter& out, const ProfilerOptions& options);

/// Parses write_canonical output (byte-identity on re-serialization).
/// Throws std::invalid_argument on malformed input.
[[nodiscard]] ProfilerOptions read_canonical_profiler_options(
    CanonicalReader& in);

/// Result of the parallel profiling pass (step 1 of Fig. 7).
struct ProfileReport {
  ProfileDb db;
  /// Estimated wall-clock time of profiling on the real cluster: every
  /// (layer, batch, repeat) measurement executed once, work divided over
  /// all devices (the paper reports ~55 s for SD v2.1 on 16 GPUs).
  double profiling_wall_ms = 0.0;
};

/// Emulates the cluster-parallel profiler: builds the ProfileDb from the
/// analytic cost model and estimates what profiling would have cost on the
/// given cluster.
class Profiler {
 public:
  explicit Profiler(ProfilerOptions options = {});

  [[nodiscard]] ProfileReport profile(const ModelDesc& model,
                                      const ClusterSpec& cluster) const;

  [[nodiscard]] const ProfilerOptions& options() const { return options_; }

 private:
  ProfilerOptions options_;
};

}  // namespace dpipe
