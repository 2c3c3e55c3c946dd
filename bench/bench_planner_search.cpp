// Planner grid-search performance: the memoized search at width 1 (inline
// on the calling thread) vs at the executor's width (see DESIGN.md §7).
// Prints one table row per (model, machines) testbed and writes the same
// rows to a JSON file (default BENCH_planner.json in the current directory
// — run from the repo root; pass an output path as argv[1] to override).

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"

namespace {

using namespace dpipe;

struct Case {
  std::string name;
  ModelDesc model;
  int machines = 1;
  double global_batch = 256.0;
};

struct Row {
  std::string config;
  double width1_ms = 0.0;  ///< search_threads = 1: inline, memoized.
  double wide_ms = 0.0;    ///< search_threads = 0: the executor's width.
  double speedup = 0.0;    ///< width1_ms / wide_ms.
  int threads = 0;         ///< Width the wide search actually used.
  int nproc = 0;           ///< CPUs this process may run on.
  double cache_hit_rate = 0.0;
  int combos = 0;
  int vstage_axis = 1;  ///< V-axis size: 1 = the historical (S, M, D) grid.
};

/// CPUs this process may run on (what `nproc` prints).
int available_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return CPU_COUNT(&mask);
  }
  return static_cast<int>(std::thread::hardware_concurrency());
}

double time_plan_once_ms(const Planner& planner, Plan* out) {
  const auto start = std::chrono::steady_clock::now();
  Plan plan = planner.plan();
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  if (out != nullptr) {
    *out = std::move(plan);
  }
  return ms;
}

/// Times every variant round-robin, one repetition each per round, taking
/// per-variant minima. Interleaving keeps slow background-load drift from
/// biasing one variant's block of repetitions against another's; the search
/// is deterministic, so the minimum is the cleanest estimate of the actual
/// work. Cheap (small-grid) plans get more rounds because scheduler noise
/// is proportionally larger for them.
void time_plans_ms(const std::vector<const Planner*>& planners,
                   std::vector<double>* best_ms, std::vector<Plan>* plans) {
  best_ms->assign(planners.size(), 0.0);
  plans->resize(planners.size());
  int rounds = 5;
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t v = 0; v < planners.size(); ++v) {
      const double ms = time_plan_once_ms(*planners[v], &(*plans)[v]);
      if (round == 0 || ms < (*best_ms)[v]) {
        (*best_ms)[v] = ms;
      }
    }
    if (round == 0) {
      const double slowest =
          *std::max_element(best_ms->begin(), best_ms->end());
      rounds = slowest < 40.0 ? 31 : (slowest < 250.0 ? 15 : 5);
    }
  }
}

Row run_case(const Case& c) {
  const ClusterSpec cluster = make_p4de_cluster(c.machines);

  PlannerOptions width1_opts;
  width1_opts.global_batch = c.global_batch;
  width1_opts.search_threads = 1;

  PlannerOptions wide_opts = width1_opts;
  wide_opts.search_threads = 0;

  const Planner width1_planner(c.model, cluster, width1_opts);
  const Planner wide_planner(c.model, cluster, wide_opts);

  Row row;
  row.config = c.name;
  std::vector<double> best_ms;
  std::vector<Plan> plans;
  time_plans_ms({&width1_planner, &wide_planner}, &best_ms, &plans);
  row.width1_ms = best_ms[0];
  row.wide_ms = best_ms[1];
  const Plan& width1_plan = plans[0];
  const Plan& wide_plan = plans[1];
  row.speedup = row.width1_ms / row.wide_ms;
  row.threads = wide_plan.search.threads;
  row.nproc = available_cpus();
  row.combos = wide_plan.search.combos_total;
  row.vstage_axis = wide_plan.search.vstage_axis;
  const double lookups = static_cast<double>(wide_plan.search.cache_hits +
                                             wide_plan.search.cache_misses);
  row.cache_hit_rate =
      lookups > 0.0 ? wide_plan.search.cache_hits / lookups : 0.0;

  // Sanity: both widths must pick the same plan (the search's bit-identity
  // contract; the parity tests check it exhaustively).
  if (!(width1_plan.config == wide_plan.config)) {
    std::fprintf(stderr, "FATAL: %s: plan mismatch across search widths\n",
                 c.name.c_str());
    std::exit(1);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : std::string("BENCH_planner.json");

  std::vector<Case> cases;
  cases.push_back({"sd_v21_x1", make_stable_diffusion_v21(), 1, 256.0});
  cases.push_back({"sd_v21_x2", make_stable_diffusion_v21(), 2, 512.0});
  cases.push_back({"controlnet_x1", make_controlnet_v10(), 1, 256.0});
  cases.push_back({"controlnet_x2", make_controlnet_v10(), 2, 512.0});
  cases.push_back({"cdm_x1", make_cdm_lsun(), 1, 128.0});
  cases.push_back({"cdm_x2", make_cdm_lsun(), 2, 256.0});

  bench::header("Planner search: width 1 vs executor width (memoized)");
  std::printf("nproc: %d, executor width: %d\n", available_cpus(),
              executor_width());
  std::printf("%-16s %10s %10s %9s %8s %9s %7s\n", "config", "width1_ms",
              "wide_ms", "speedup", "threads", "hit_rate", "combos");

  std::vector<Row> rows;
  for (const Case& c : cases) {
    const Row row = run_case(c);
    std::printf("%-16s %10.1f %10.1f %8.2fx %8d %8.1f%% %7d\n",
                row.config.c_str(), row.width1_ms, row.wide_ms, row.speedup,
                row.threads, 100.0 * row.cache_hit_rate, row.combos);
    rows.push_back(row);
  }

  double total_width1 = 0.0;
  double total_wide = 0.0;
  for (const Row& r : rows) {
    total_width1 += r.width1_ms;
    total_wide += r.wide_ms;
  }
  std::printf("aggregate speedup: %.2fx\n", total_width1 / total_wide);

  std::ofstream json(out_path);
  json << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "  {\"config\": \"" << r.config
         << "\", \"width1_ms\": " << r.width1_ms
         << ", \"wide_ms\": " << r.wide_ms << ", \"speedup\": " << r.speedup
         << ", \"threads\": " << r.threads << ", \"nproc\": " << r.nproc
         << ", \"cache_hit_rate\": " << r.cache_hit_rate
         << ", \"combos\": " << r.combos
         << ", \"vstage_axis\": " << r.vstage_axis << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "]\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
