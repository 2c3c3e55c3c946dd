#include "cluster/cluster.h"

#include <istream>

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

ClusterSpec read_canonical_cluster(std::istream& in) {
  std::string line;
  while (std::getline(in, line) && line.empty()) {
  }
  require(line == "dpipe-cluster v1", "not a dpipe-cluster v1 block");
  ClusterSpec cluster;
  expect_keyword(in, "shape");
  cluster.num_machines = read_integer<int>(in, "num_machines");
  cluster.devices_per_machine = read_integer<int>(in, "devices_per_machine");
  expect_keyword(in, "device");
  cluster.device.peak_tflops = read_double(in, "peak_tflops");
  cluster.device.memory_gb = read_double(in, "memory_gb");
  cluster.device.mem_bw_gbps = read_double(in, "mem_bw_gbps");
  cluster.device.name = read_name_field(in, "name=");
  expect_keyword(in, "intra");
  cluster.intra.bandwidth_gbps = read_double(in, "intra bandwidth");
  cluster.intra.latency_ms = read_double(in, "intra latency");
  expect_keyword(in, "inter");
  cluster.inter.bandwidth_gbps = read_double(in, "inter bandwidth");
  cluster.inter.latency_ms = read_double(in, "inter latency");
  std::getline(in, line);  // Consume the trailing newline.
  validate(cluster);
  return cluster;
}

}  // namespace dpipe
