#include "cluster/cluster.h"

#include <limits>

namespace dpipe {

ClusterSpec make_p4de_cluster(int num_machines) {
  require(num_machines >= 1, "need at least one machine");
  ClusterSpec cluster;
  cluster.num_machines = num_machines;
  cluster.devices_per_machine = 8;
  validate(cluster);
  return cluster;
}

void validate(const ClusterSpec& cluster) {
  require(cluster.num_machines >= 1, "num_machines must be >= 1");
  require(cluster.devices_per_machine >= 1,
          "devices_per_machine must be >= 1");
  require(cluster.num_machines <=
              std::numeric_limits<int>::max() / cluster.devices_per_machine,
          "world size overflows int");
  require(cluster.device.peak_tflops > 0.0, "peak_tflops must be positive");
  require(cluster.device.memory_gb > 0.0, "memory_gb must be positive");
  require(cluster.intra.bandwidth_gbps > 0.0 &&
              cluster.inter.bandwidth_gbps > 0.0,
          "link bandwidth must be positive");
  require(cluster.intra.latency_ms >= 0.0 && cluster.inter.latency_ms >= 0.0,
          "link latency must be non-negative");
}

void write_canonical(CanonicalWriter& out, const ClusterSpec& cluster) {
  out << "dpipe-cluster v1\n";
  out << "shape " << cluster.num_machines << ' '
      << cluster.devices_per_machine << '\n';
  out << "device " << cluster.device.peak_tflops << ' '
      << cluster.device.memory_gb << ' ' << cluster.device.mem_bw_gbps
      << " name=" << cluster.device.name << '\n';
  out << "intra " << cluster.intra.bandwidth_gbps << ' '
      << cluster.intra.latency_ms << '\n';
  out << "inter " << cluster.inter.bandwidth_gbps << ' '
      << cluster.inter.latency_ms << '\n';
}

ClusterSpec read_canonical_cluster(CanonicalReader& in) {
  in.keyword("dpipe-cluster");
  in.keyword("v1");
  ClusterSpec cluster;
  in.keyword("shape");
  cluster.num_machines = in.integer<int>("num_machines");
  cluster.devices_per_machine = in.integer<int>("devices_per_machine");
  in.keyword("device");
  cluster.device.peak_tflops = in.real("peak_tflops");
  cluster.device.memory_gb = in.real("memory_gb");
  cluster.device.mem_bw_gbps = in.real("mem_bw_gbps");
  cluster.device.name = in.name_field("name=");
  in.keyword("intra");
  cluster.intra.bandwidth_gbps = in.real("intra bandwidth");
  cluster.intra.latency_ms = in.real("intra latency");
  in.keyword("inter");
  cluster.inter.bandwidth_gbps = in.real("inter bandwidth");
  cluster.inter.latency_ms = in.real("inter latency");
  validate(cluster);
  return cluster;
}

}  // namespace dpipe
