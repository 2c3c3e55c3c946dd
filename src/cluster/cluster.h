#pragma once

#include <string>
#include <vector>

#include "common/canonical.h"
#include "common/error.h"

namespace dpipe {

/// A single accelerator. Defaults model an NVIDIA A100-80GB (p4de).
struct DeviceSpec {
  std::string name = "A100-80GB";
  double peak_tflops = 312.0;   ///< Dense fp16 tensor-core peak.
  double memory_gb = 80.0;      ///< HBM capacity.
  double mem_bw_gbps = 2039.0;  ///< HBM bandwidth, GB/s.
};

/// An interconnect link class (intra-node NVSwitch or inter-node EFA).
struct LinkSpec {
  double bandwidth_gbps = 0.0;  ///< Per-device attainable bandwidth, GB/s.
  double latency_ms = 0.0;      ///< One-way message latency.
};

/// A homogeneous cluster: `num_machines` hosts with `devices_per_machine`
/// identical devices each. Devices are globally ranked
/// [0, world_size()): rank r lives on machine r / devices_per_machine.
struct ClusterSpec {
  int num_machines = 1;
  int devices_per_machine = 8;
  DeviceSpec device;
  LinkSpec intra{600.0, 0.003};  ///< NVSwitch: 600 GB/s, ~3 us.
  /// EFA 400 Gb/s per machine shared by 8 GPUs = 6.25 GB/s theoretical per
  /// device; NCCL attains roughly a third of that under collective load
  /// (protocol overhead, NIC sharing, stragglers), so the model uses the
  /// effective value.
  LinkSpec inter{2.0, 0.015};

  [[nodiscard]] int world_size() const {
    return num_machines * devices_per_machine;
  }
  [[nodiscard]] int machine_of(int rank) const {
    require(rank >= 0 && rank < world_size(), "rank out of range");
    return rank / devices_per_machine;
  }
  [[nodiscard]] bool same_machine(int rank_a, int rank_b) const {
    return machine_of(rank_a) == machine_of(rank_b);
  }
};

/// Convenience factory for the paper's test-bed shape: N p4de.24xlarge
/// machines (8x A100-80GB, NVSwitch 600 GB/s, EFA 400 Gb/s).
[[nodiscard]] ClusterSpec make_p4de_cluster(int num_machines);

/// Validates internal consistency; throws std::invalid_argument on bad specs.
void validate(const ClusterSpec& cluster);

/// Appends the canonical text form of the cluster topology: every field,
/// fixed order, doubles as "%.17g". Equal specs produce equal bytes — the
/// plan service fingerprints this to key plan-cache entries and to
/// invalidate persisted plans when the cluster changes.
void write_canonical(CanonicalWriter& out, const ClusterSpec& cluster);

/// Parses write_canonical output (byte-identity on re-serialization).
/// Throws std::invalid_argument on malformed input, including malformed
/// numbers.
[[nodiscard]] ClusterSpec read_canonical_cluster(CanonicalReader& in);

}  // namespace dpipe
