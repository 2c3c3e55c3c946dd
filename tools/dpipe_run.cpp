// dpipe_run: DiffusionPipe's back-ends as a CLI. Loads an instruction
// program written by dpipe_plan and replays it on one of two backends that
// interpret the same validated program:
//
//   --backend=sim   discrete-event engine (modeled time, default)
//   --backend=real  functional runtime (real tensors; every wave runs one
//                   static op order over all devices' streams)
//
// With --backend=real the tool also replays the program on the engine and
// checks that both backends' execution logs equal the program's occupancy
// trace, device by device — the "one program, two backends" parity check.
//
// With --elastic the real runtime additionally absorbs an injected device
// crash halfway through: the ElasticRecoveryController aborts the wave,
// salvages the boundary checkpoint, re-plans for the shrunk cluster,
// re-shards the checkpoint onto the new stage geometry, and resumes —
// printing RecoveryStats and cross-checking every phase's op order.
//
//   dpipe_run [--backend=sim|real] [--elastic] <program.dpipe> <model>
//             <machines> <group_batch> [data_parallel_degree] [iterations]
//
// With --schedule the tool lowers its own trainer program instead of
// loading one: positionals become <stages> <micros> <group_batch>
// [data_parallel_degree] [iterations] and the chosen schedule family is
// built over the synthetic trainer model.
//
//   --schedule=1f1b|gpipe|interleaved   schedule family to lower
//   --vstages=N                         virtual stages per device
//                                       (interleaved only; default 1)
//
// 1f1b and interleaved run on both backends; gpipe is sim-only (its LIFO
// backward order is not runtime-bindable) and bidirectional programs come
// from dpipe_plan with a two-backbone cdm_* model.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/instr/serialize.h"
#include "core/instr/validate.h"
#include "engine/engine.h"
#include "fault/elastic.h"
#include "model/zoo.h"
#include "profiler/profiler.h"
#include "runtime/interpreter.h"
#include "runtime/pipeline_exec.h"

namespace {

/// Per-device PREFIX parity: every device's actual op order must be a
/// prefix of the expected trace (an aborted wave stops each stream early
/// but never reorders it).
bool check_prefix_parity(const dpipe::ExecutionLog& expected,
                         const dpipe::ExecutionLog& actual,
                         const char* what) {
  if (expected.size() != actual.size()) {
    std::fprintf(stderr, "parity FAILED (%s): device count %zu vs %zu\n",
                 what, expected.size(), actual.size());
    return false;
  }
  for (std::size_t dev = 0; dev < expected.size(); ++dev) {
    if (actual[dev].size() > expected[dev].size()) {
      std::fprintf(stderr,
                   "parity FAILED (%s) on device %zu: %zu ops executed, "
                   "only %zu expected\n",
                   what, dev, actual[dev].size(), expected[dev].size());
      return false;
    }
    for (std::size_t i = 0; i < actual[dev].size(); ++i) {
      if (actual[dev][i] != expected[dev][i]) {
        std::fprintf(stderr,
                     "parity FAILED (%s) on device %zu op %zu: expected "
                     "'%s', got '%s'\n",
                     what, dev, i, expected[dev][i].c_str(),
                     actual[dev][i].c_str());
        return false;
      }
    }
  }
  return true;
}

/// Per-device op-order parity between two execution records.
bool check_parity(const dpipe::ExecutionLog& expected,
                  const dpipe::ExecutionLog& actual, const char* what) {
  if (expected.size() != actual.size()) {
    std::fprintf(stderr, "parity FAILED (%s): device count %zu vs %zu\n",
                 what, expected.size(), actual.size());
    return false;
  }
  for (std::size_t dev = 0; dev < expected.size(); ++dev) {
    if (expected[dev] == actual[dev]) {
      continue;
    }
    std::fprintf(stderr, "parity FAILED (%s) on device %zu:\n", what, dev);
    const std::size_t n = std::max(expected[dev].size(), actual[dev].size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& e =
          i < expected[dev].size() ? expected[dev][i] : "<none>";
      const std::string& a = i < actual[dev].size() ? actual[dev][i] : "<none>";
      if (e != a) {
        std::fprintf(stderr, "  op %zu: expected '%s', got '%s'\n", i,
                     e.c_str(), a.c_str());
        break;
      }
    }
    return false;
  }
  return true;
}

int run_sim(const dpipe::InstructionProgram& program,
            const dpipe::ProfileDb& db, const dpipe::CommModel& comm,
            const char* path, double group_batch, int dp, int iterations) {
  dpipe::EngineOptions options;
  options.group_batch = group_batch;
  options.data_parallel_degree = dp;
  options.iterations = iterations;
  const dpipe::ExecutionEngine engine(db, comm);
  const dpipe::EngineResult result = engine.run(program, options);
  std::printf("replayed %d iterations of %s (backend=sim):\n",
              options.iterations, path);
  std::printf("  steady iteration %.1f ms (first %.1f ms incl. "
              "preamble)\n",
              result.steady_iteration_ms,
              result.iterations[0].duration_ms());
  std::printf("  throughput %.1f samples/s, bubble ratio %.1f%%\n",
              result.samples_per_second, 100.0 * result.steady_bubble_ratio);
  return 0;
}

/// Replays `program` on the discrete-event engine for `iterations` and
/// returns its execution log.
dpipe::ExecutionLog engine_replay(const dpipe::InstructionProgram& program,
                                  const dpipe::ProfileDb& db,
                                  const dpipe::CommModel& comm,
                                  double group_batch, int dp,
                                  int iterations) {
  dpipe::EngineOptions sim;
  sim.group_batch = group_batch;
  sim.data_parallel_degree = dp;
  sim.iterations = iterations;
  sim.record_timelines = true;
  return dpipe::ExecutionEngine(db, comm).run(program, sim).execution_log;
}

int run_real(const dpipe::InstructionProgram& program,
             const dpipe::ProfileDb& db, const dpipe::CommModel& comm,
             const char* path, int dp, int iterations) {
  using namespace dpipe;
  using namespace dpipe::rt;

  // Geometry from the program itself: micro-batch rows from the stage-0
  // load instructions, stage count from the binding.
  int num_stages = 0;
  int num_micros = 0;
  int per_micro = 0;
  for (const std::vector<Instruction>& stream : program.per_device) {
    for (const Instruction& instr : stream) {
      if (instr.kind == InstrKind::kLoadMicroBatch) {
        per_micro = std::max(
            per_micro, static_cast<int>(std::llround(instr.samples)));
        num_micros = std::max(num_micros, instr.micro + 1);
      } else if (instr.kind == InstrKind::kForward) {
        num_stages = std::max(num_stages, instr.stage + 1);
      }
    }
  }
  if (per_micro < 1 || num_micros < 1 || num_stages < 1) {
    std::fprintf(stderr, "error: program has no runnable backbone work\n");
    return 1;
  }

  DdpmConfig ddpm;
  // Enough MLP blocks that every pipeline stage gets at least one module.
  ddpm.depth = std::max(4, num_stages);
  const DdpmProblem problem(ddpm);

  PipelineRtConfig cfg;
  cfg.data_parallel_degree = dp;
  cfg.global_batch = per_micro * num_micros * dp;
  cfg.cross_iteration = true;
  cfg.record_execution = true;
  PipelineTrainer trainer(problem, cfg, program);
  trainer.train(iterations);

  std::printf("replayed %d iterations of %s (backend=real):\n", iterations,
              path);
  std::printf("  %d stages x %d micro-batches x %d replicas, "
              "global batch %d\n",
              num_stages, num_micros, dp, cfg.global_batch);
  std::printf("  losses:");
  for (double loss : trainer.losses()) {
    std::printf(" %.6f", loss);
  }
  std::printf("\n");

  // Cross-backend parity: the runtime's and the engine's execution logs
  // must both equal the program's static occupancy trace.
  const ExecutionLog expected = occupancy_trace(trainer.program(), iterations);
  bool ok = check_parity(expected, trainer.execution_log(), "runtime");
  ok = check_parity(expected,
                    engine_replay(trainer.program(), db, comm,
                                  static_cast<double>(per_micro) * num_micros,
                                  dp, iterations),
                    "engine") &&
       ok;

  std::printf("  cross-backend op order parity: %s\n",
              ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

int run_elastic(const dpipe::InstructionProgram& program,
                const dpipe::ProfileDb& db, const dpipe::CommModel& comm,
                const char* path, int dp, int iterations) {
  using namespace dpipe;
  using namespace dpipe::rt;

  // Geometry from the program, exactly like run_real.
  int num_stages = 0;
  int num_micros = 0;
  int per_micro = 0;
  for (const std::vector<Instruction>& stream : program.per_device) {
    for (const Instruction& instr : stream) {
      if (instr.kind == InstrKind::kLoadMicroBatch) {
        per_micro = std::max(
            per_micro, static_cast<int>(std::llround(instr.samples)));
        num_micros = std::max(num_micros, instr.micro + 1);
      } else if (instr.kind == InstrKind::kForward) {
        num_stages = std::max(num_stages, instr.stage + 1);
      }
    }
  }
  if (per_micro < 1 || num_micros < 1 || num_stages < 1) {
    std::fprintf(stderr, "error: program has no runnable backbone work\n");
    return 1;
  }

  DdpmConfig ddpm;
  ddpm.depth = std::max(4, num_stages);
  const DdpmProblem problem(ddpm);

  ElasticOptions eopts;
  eopts.config.data_parallel_degree = dp;
  eopts.config.global_batch = per_micro * num_micros * dp;
  eopts.config.cross_iteration = true;
  eopts.config.record_execution = true;
  eopts.config.checkpoint_interval = 2;  // The restart baseline's cadence.
  eopts.initial_program = program;
  // One device dies mid-forward halfway through the run, on a middle stage.
  ElasticCrash crash;
  crash.iteration = iterations / 2;
  crash.stage = num_stages / 2;
  eopts.crashes = {crash};

  ElasticRecoveryController controller(problem, eopts);
  const RecoveryStats& stats = controller.run(iterations);

  std::printf("elastic run of %d iterations of %s:\n", iterations, path);
  std::printf("  losses:");
  for (double loss : controller.losses()) {
    std::printf(" %.6f", loss);
  }
  std::printf("\n");
  std::printf("  recovery: %d fault(s), %d re-plan(s) (%.1f ms), "
              "%d tensor(s) resharded\n",
              stats.faults, stats.replans, stats.replan_ms,
              stats.resharded_tensors);
  std::printf("  stage-cost cache: %zu hits / %zu misses across re-plans\n",
              stats.stage_cache_hits, stats.stage_cache_misses);
  std::printf("  iterations lost per fault: elastic %d, restart baseline "
              "%d\n",
              stats.iterations_lost, stats.restart_iterations_lost);

  // Per-phase parity: every phase's program is re-validated, the runtime's
  // executed op order is checked against the program's occupancy trace
  // (prefix for the aborted phase), and completed iterations are replayed
  // on the engine — the three-way harness, per recovery phase.
  bool ok = true;
  const int num_modules = 2 * ddpm.depth + 1;
  for (std::size_t p = 0; p < controller.phases().size(); ++p) {
    const RecoveryPhase& phase = controller.phases()[p];
    require_valid_program(phase.program);
    const int full_iters = phase.end_iteration - phase.start_iteration;
    const char* what = phase.crashed ? "runtime (crashed phase)" : "runtime";
    std::printf("  phase %zu: world %d, stages %d, iterations %d..%d%s\n",
                p, phase.world, phase.config.num_stages,
                phase.start_iteration, phase.end_iteration,
                phase.crashed ? " (aborted by crash)" : "");
    if (phase.crashed) {
      ok = check_prefix_parity(occupancy_trace(phase.program, full_iters + 1),
                               phase.log, what) &&
           ok;
    } else {
      ok = check_parity(occupancy_trace(phase.program, full_iters),
                        phase.log, what) &&
           ok;
    }
    if (full_iters < 1) {
      continue;  // Nothing completed for the engine to replay.
    }
    // Phase 0 runs the CLI-supplied program against the CLI model's db;
    // re-planned phases run programs lowered from the runtime's synthetic
    // model, so replay those against its db on the shrunk cluster.
    const double group_batch = static_cast<double>(
        phase.config.global_batch / phase.config.data_parallel_degree);
    ExecutionLog engine_log;
    if (p == 0) {
      engine_log = engine_replay(phase.program, db, comm, group_batch,
                                 phase.config.data_parallel_degree,
                                 full_iters);
    } else {
      const ClusterSpec shrunk = rt::elastic_cluster(phase.world);
      const ProfileDb synth_db(
          rt::trainer_planner_model(num_modules),
          AnalyticCostModel(shrunk.device, NoiseSource(1, 0.0)),
          default_batch_grid());
      engine_log = engine_replay(phase.program, synth_db, CommModel(shrunk),
                                 group_batch,
                                 phase.config.data_parallel_degree,
                                 full_iters);
    }
    const ExecutionLog expected = occupancy_trace(phase.program, full_iters);
    if (phase.crashed) {
      ok = check_prefix_parity(expected, engine_log, "engine") && ok;
    } else {
      ok = check_parity(expected, engine_log, "engine") && ok;
    }
  }
  std::printf("  per-phase op order parity: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

/// --schedule mode: lower the requested family over the synthetic trainer
/// model and replay it on the chosen backend.
int run_lowered(const std::string& schedule, int vstages,
                const std::string& backend, int S, int Mi, double gb, int dp,
                int iterations) {
  using namespace dpipe;
  using namespace dpipe::rt;
  const ScheduleFamily family = parse_schedule_family(schedule);
  if (family == ScheduleFamily::kBidirectional) {
    std::fprintf(stderr,
                 "error: bidirectional schedules need a two-backbone model; "
                 "plan one with dpipe_plan and a cdm_* model instead\n");
    return 2;
  }
  if (S < 1 || Mi < 1 || dp < 1 || vstages < 1) {
    std::fprintf(stderr, "error: stages, micros, dp and vstages must be "
                         "positive\n");
    return 2;
  }
  const int group_batch = static_cast<int>(std::llround(gb));
  if (group_batch < Mi || group_batch % Mi != 0) {
    std::fprintf(stderr,
                 "error: group_batch must be a positive multiple of the "
                 "micro-batch count\n");
    return 2;
  }
  const int St = family == ScheduleFamily::kInterleaved ? S * vstages : S;
  // 1:1 with the DdpmProblem geometry run_real builds (depth blocks =
  // 2*depth+1 modules), so the binding's module map is the identity.
  const int num_modules = 2 * std::max(4, St) + 1;

  TrainerLoweringSpec spec;
  spec.num_stages = S;
  spec.num_microbatches = Mi;
  spec.data_parallel_degree = dp;
  spec.global_batch = group_batch * dp;
  // GPipe is the baseline that does no bubble filling (§6).
  spec.cross_iteration = family != ScheduleFamily::kGpipe;
  spec.num_modules = num_modules;
  spec.family = family;
  spec.vstages = vstages;
  const TrainerLowering lowering = lower_trainer_program(spec);
  require_valid_program(lowering.program);

  const ClusterSpec cluster = make_p4de_cluster((S * dp + 7) / 8);
  const CommModel comm(cluster);
  const ProfileDb db(lowering.model,
                     AnalyticCostModel(cluster.device, NoiseSource(1, 0.0)),
                     default_batch_grid());
  std::string label = "<" + schedule;
  if (family == ScheduleFamily::kInterleaved) {
    label += " v" + std::to_string(vstages);
  }
  label += ">";
  if (backend == "sim") {
    return run_sim(lowering.program, db, comm, label.c_str(), gb, dp,
                   iterations);
  }
  return run_real(lowering.program, db, comm, label.c_str(), dp, iterations);
}

}  // namespace

int main(int argc, char** argv) {
  std::string backend = "sim";
  std::string schedule;
  int vstages = 1;
  bool elastic = false;
  int arg = 1;
  while (arg < argc && std::strncmp(argv[arg], "--", 2) == 0) {
    if (std::strncmp(argv[arg], "--backend=", 10) == 0) {
      backend = argv[arg] + 10;
    } else if (std::strncmp(argv[arg], "--schedule=", 11) == 0) {
      schedule = argv[arg] + 11;
    } else if (std::strncmp(argv[arg], "--vstages=", 10) == 0) {
      vstages = std::atoi(argv[arg] + 10);
    } else if (std::strcmp(argv[arg], "--elastic") == 0) {
      elastic = true;
      backend = "real";  // Recovery runs on the functional runtime.
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[arg]);
      return 2;
    }
    ++arg;
  }
  if (backend != "sim" && backend != "real") {
    std::fprintf(stderr, "unknown backend: %s\n", backend.c_str());
    return 2;
  }
  if (!schedule.empty()) {
    if (elastic || argc - arg < 3) {
      std::fprintf(stderr,
                   "usage: %s --schedule=1f1b|gpipe|interleaved "
                   "[--vstages=N] [--backend=sim|real] <stages> <micros> "
                   "<group_batch> [dp_degree] [iterations]\n",
                   argv[0]);
      return 2;
    }
    try {
      return run_lowered(schedule, vstages, backend, std::atoi(argv[arg]),
                         std::atoi(argv[arg + 1]), std::atof(argv[arg + 2]),
                         argc - arg >= 4 ? std::atoi(argv[arg + 3]) : 1,
                         argc - arg >= 5 ? std::atoi(argv[arg + 4]) : 4);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return 1;
    }
  }
  if (argc - arg < 4) {
    std::fprintf(stderr,
                 "usage: %s [--backend=sim|real] [--elastic] "
                 "<program.dpipe> <model> <machines> <group_batch> "
                 "[dp_degree] [iterations]\n",
                 argv[0]);
    return 2;
  }
  try {
    std::ifstream in(argv[arg], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[arg]);
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const dpipe::InstructionProgram program =
        dpipe::program_from_string(text.str());
    dpipe::require_valid_program(program);
    const dpipe::ModelDesc model = dpipe::model_by_name(argv[arg + 1]);
    const dpipe::ClusterSpec cluster =
        dpipe::make_p4de_cluster(std::atoi(argv[arg + 2]));
    const dpipe::CommModel comm(cluster);
    const dpipe::ProfileDb db(
        model,
        dpipe::AnalyticCostModel(cluster.device,
                                 dpipe::NoiseSource(0xD1FF, 0.02)),
        dpipe::default_batch_grid());
    const double group_batch = std::atof(argv[arg + 3]);
    const int dp = argc - arg >= 5 ? std::atoi(argv[arg + 4]) : 1;
    const int iterations = argc - arg >= 6 ? std::atoi(argv[arg + 5]) : 4;
    if (elastic) {
      return run_elastic(program, db, comm, argv[arg], dp, iterations);
    }
    if (backend == "sim") {
      return run_sim(program, db, comm, argv[arg], group_batch, dp,
                     iterations);
    }
    return run_real(program, db, comm, argv[arg], dp, iterations);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
