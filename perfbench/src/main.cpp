// dpipe_perfbench: the repository benchmark. Closed-loop user sessions
// (workloads narrow-sd, wide-cdm), each driven from one client thread
// through the library's public entry points.
//
//   dpipe_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out <file.json>]
//
// With --setup-only 1 it only sets the session up and prints the set-up
// time; a run starts itself this way for the extra setup_s samples.
//
// Prints a host stamp, per-kind operation counts and a metric table, then
// as its last line one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. perfbench/README.md documents every metric.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "layers.h"
#include "runtime/interpreter.h"
#include "runtime/kernels.h"
#include "runtime/simd.h"
#include "session.h"

namespace {

using namespace perfbench;

/// Set-ups per run; setup_s is their median. Each is timed from the start
/// of a process: the run's own, then fresh processes of this program
/// (--setup-only) started at evenly spaced points of the run, so one burst
/// of host contention cannot move them all and no set-up finds code or
/// memory already warm.
constexpr int kSetupSamples = 10;
/// Every p90 needs at least 100 samples, so a run never stops before this
/// many rounds (each round yields one sample of every per-round metric).
constexpr int kMinRounds = 100;
/// The traced run spends this share of --seconds in rounds (alternately
/// traced and untraced) and the rest in the per-layer probes.
constexpr double kTracedRoundShare = 0.5;
constexpr int kMinTracedRounds = 24;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--setup-only") {
      args.setup_only = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) {
    throw std::invalid_argument("--workload is required");
  }
  if (args.seconds <= 0.0) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return args;
}

void print_host_stamp() {
  namespace rt = dpipe::rt;
  std::printf(
      "host: {\"nproc\": %ld, \"hardware_concurrency\": %u, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"simd\": \"%s\", "
      "\"wave_exec\": \"%s\", \"kernel_mode\": \"%s\", "
      "\"kernel_threads\": %d}\n",
      sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      rt::simd_level_name(rt::simd_level()),
      rt::wave_exec_name(rt::wave_exec()),
      rt::kernel_mode_name(rt::kernel_mode()), rt::kernel_threads());
}

/// Steal share of the VM's CPU time since `since` (0 where /proc/stat has
/// no steal column): time the hypervisor ran other guests instead of this
/// one. Printed with every run because it explains most run-to-run drift
/// of thread-heavy metrics on shared hosts.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks ticks;
  double value = 0.0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    ticks.total += value;
    if (field == 7) {
      ticks.steal = value;
    }
  }
  return ticks;
}

double steal_share(const CpuTicks& since) {
  const CpuTicks now = cpu_ticks();
  const double total = now.total - since.total;
  return total > 0.0 ? (now.steal - since.steal) / total : 0.0;
}

/// Peak resident memory of this process image (VmHWM). getrusage's
/// ru_maxrss is not used: Linux carries it across exec, so a child of a
/// larger parent (e.g. a Python launcher) would report the parent's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB.
    }
  }
  return 0.0;
}

/// Starts this program with --setup-only, waits for it and returns the
/// set-up time it printed.
double child_setup_s(const Args& args) {
  const std::string seed = std::to_string(args.seed);
  const char* argv[] = {"dpipe_perfbench", "--workload", args.workload.c_str(),
                        "--seed", seed.c_str(), "--setup-only", "1", nullptr};
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error("set-up child: pipe failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                  const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string output;
  char buffer[256];
  ssize_t n = 0;
  while (spawned == 0 && (n = read(fds[0], buffer, sizeof(buffer))) > 0) {
    output.append(buffer, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (spawned != 0 || waitpid(pid, &status, 0) != pid ||
      !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      output.rfind("setup_s ", 0) != 0) {
    throw std::runtime_error("set-up child failed");
  }
  return std::stod(output.substr(8));
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

/// The last output line. A non-finite metric is printed as null and makes
/// the run incorrect.
void print_result(const OpCounts& counts, const std::vector<Metric>& metrics) {
  long attempted = 0;
  long failed = 0;
  std::printf("operations:\n");
  for (int k = 0; k < kNumOps; ++k) {
    std::printf("  %-18s attempted %8ld failed %ld\n", op_kind_name(k),
                counts.attempted[k], counts.failed[k]);
    attempted += counts.attempted[k];
    failed += counts.failed[k];
  }
  bool finite = true;
  std::string body;
  for (const Metric& m : metrics) {
    char value[32] = "null";
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.10g", m.value);
    } else {
      finite = false;
    }
    body += (body.empty() ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            value + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {%s}}\n",
              finite && failed == 0 ? "true" : "false", attempted, failed,
              body.c_str());
}

int run(const Args& args, Clock::time_point process_start) {
  Tracer tracer;
  if (args.setup_only) {
    const Session session(args.workload, args.seed, tracer);
    std::printf("setup_s %.10g\n", ms_since(process_start) / 1000.0);
    return 0;
  }
  print_host_stamp();

  Session session(args.workload, args.seed, tracer);
  std::vector<double> setup_s = {ms_since(process_start) / 1000.0};
  session.prepare_reference();

  const int global_batch = session.spec().config.global_batch;
  const CpuTicks ticks = cpu_ticks();
  const auto start = Clock::now();
  const double budget_ms =
      args.seconds * 1000.0 * (args.trace ? kTracedRoundShare : 1.0);
  const int min_rounds = args.trace ? kMinTracedRounds : kMinRounds;
  RoundSamples untraced;
  RoundSamples traced;
  for (int round = 0; round < min_rounds || ms_since(start) < budget_ms;
       ++round) {
    // The traced run alternates traced and untraced rounds, so the
    // tracing overhead is measured under the same host conditions.
    const bool trace_round = args.trace && round % 2 == 1;
    tracer.set_enabled(trace_round);
    session.run_round(round, trace_round ? traced : untraced);
    tracer.set_enabled(false);
    if (setup_s.size() < kSetupSamples &&
        ms_since(start) >= budget_ms * setup_s.size() / kSetupSamples) {
      setup_s.push_back(child_setup_s(args));
    }
  }
  std::printf("setup_s of each set-up:");
  for (const double s : setup_s) {
    std::printf(" %.4f", s);
  }
  std::printf("\n");
  session.finish();
  std::printf("workload %s seed %llu: %d rounds in %.2f s, host steal %.2f%%\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              untraced.rounds + traced.rounds, ms_since(start) / 1000.0,
              100.0 * steal_share(ticks));

  std::vector<Metric> e2e = untraced.metrics();
  e2e.insert(e2e.begin(), {"peak_rss_mb", peak_rss_mb(), "MB"});
  e2e.insert(e2e.begin(), {"setup_s", median(setup_s), "s"});

  print_table("not in the result (wall time that moves with host load):",
              untraced.unbounded_metrics(global_batch));
  if (!args.trace) {
    print_table("end-to-end metrics:", e2e);
    print_result(session.counts(), e2e);
    return 0;
  }

  print_table("end-to-end metrics, untraced rounds:", e2e);
  std::vector<Metric> overhead;
  const std::vector<Metric> with_spans = traced.metrics();
  for (const Metric& m : with_spans) {
    for (const Metric& base : e2e) {
      if (base.name == m.name) {
        overhead.push_back({m.name, m.value - base.value, m.unit});
      }
    }
  }
  print_table("tracing overhead (traced minus untraced rounds):", overhead);

  tracer.set_enabled(true);
  const std::vector<Metric> layers =
      measure_layers(session, tracer, untraced);
  tracer.set_enabled(false);

  // Self time per layer over every span. The benchmark's own spans
  // (rounds, probe groups) keep only what no library call covers: the
  // unattributed remainder.
  double root_ms = 0.0;
  for (const SpanRecord& span : tracer.spans()) {
    if (span.parent < 0) {
      root_ms += (span.end_us - span.start_us) / 1000.0;
    }
  }
  double unattributed_ms = 0.0;
  std::printf("self time by layer (traced spans):\n");
  for (const Tracer::LayerRow& row : tracer.self_time_by_layer()) {
    const bool own = row.layer == "bench";
    std::printf("  %-16s %8zu spans %12.3f ms %6.2f%%\n",
                own ? "(unattributed)" : row.layer.c_str(), row.spans,
                row.self_ms, 100.0 * row.self_ms / root_ms);
    if (own) {
      unattributed_ms = row.self_ms;
    }
  }
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    tracer.write_chrome_trace(out);
    std::printf("chrome trace: %s (%zu spans)\n", args.trace_out.c_str(),
                tracer.spans().size());
  }
  std::vector<Metric> per_layer = layers;
  per_layer.push_back(
      {"trace.unattributed_share", unattributed_ms / root_ms, "ratio"});
  const double untraced_round = median(untraced.round_ms);
  per_layer.push_back(
      {"trace.overhead_share",
       (median(traced.round_ms) - untraced_round) / untraced_round, "ratio"});
  print_table("per-layer metrics:", per_layer);
  print_result(session.counts(), per_layer);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  try {
    return run(parse_args(argc, argv), process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpipe_perfbench: %s\n", e.what());
    return 2;
  }
}
