#include "fault/elastic.h"

#include <chrono>
#include <memory>
#include <utility>

#include "runtime/interpreter.h"

namespace dpipe::rt {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Divisors of `n` no larger than `cap`, ascending.
std::vector<int> divisors_up_to(int n, int cap) {
  std::vector<int> out;
  for (int d = 1; d <= n && d <= cap; ++d) {
    if (n % d == 0) {
      out.push_back(d);
    }
  }
  return out;
}

}  // namespace

ClusterSpec elastic_cluster(int world) {
  require(world >= 1, "cluster needs at least one device");
  // Survivors of a single p4de-style host: same device/link speeds, just
  // fewer accelerators behind the intra-machine switch.
  ClusterSpec cluster = make_p4de_cluster(1);
  cluster.num_machines = 1;
  cluster.devices_per_machine = world;
  return cluster;
}

ElasticRecoveryController::ElasticRecoveryController(
    const DdpmProblem& problem, ElasticOptions options)
    : problem_(&problem), options_(std::move(options)) {
  DPIPE_REQUIRE(options_.config.checkpoint_interval >= 1,
                "elastic recovery requires checkpoint_interval >= 1 (it "
                "defines the restart baseline)");
  DPIPE_REQUIRE(options_.search_threads >= 0,
                "search threads must be non-negative");
  int prev_iteration = -1;
  for (const ElasticCrash& crash : options_.crashes) {
    DPIPE_REQUIRE(crash.iteration > prev_iteration,
                  "crash iterations must be strictly increasing");
    DPIPE_REQUIRE(crash.stage >= 0 && crash.micro >= 0 && crash.replica >= 0,
                  "crash coordinates must be non-negative");
    prev_iteration = crash.iteration;
  }
  num_modules_ = problem.num_modules();
}

Plan ElasticRecoveryController::plan_for_world(int world) {
  DPIPE_REQUIRE(world >= 1, "cannot plan for an empty cluster");
  const ModelDesc model = trainer_planner_model(num_modules_);
  const ClusterSpec cluster = elastic_cluster(world);

  PlannerOptions popts;
  popts.global_batch = options_.config.global_batch;
  popts.search_threads = options_.search_threads;
  // Only runtime-bindable shapes: one device per stage and whole-sample
  // micro-batches (the functional runtime slices real tensor rows).
  popts.require_bindable_placement = true;
  popts.integer_microbatches = true;
  // Match the trainer's own lowering: bubbles are only filled with frozen
  // work in cross-iteration mode; otherwise the non-trainable part runs as
  // the per-iteration preamble, un-overlapped.
  popts.enable_fill = options_.config.cross_iteration;
  // D == S combos over divisors of the world (dp = world / S); micro
  // counts over divisors of the global batch.
  popts.stage_candidates = divisors_up_to(world, num_modules_);
  popts.group_candidates = popts.stage_candidates;
  popts.micro_candidates = divisors_up_to(
      options_.config.global_batch, options_.config.global_batch);

  const Planner planner(model, cluster, popts);
  return planner.plan();
}

const RecoveryStats& ElasticRecoveryController::run(int iterations) {
  DPIPE_REQUIRE(iterations >= 1, "need at least one iteration");
  phases_.clear();
  losses_.clear();
  final_params_.clear();
  stats_ = RecoveryStats{};
  replica_divergence_ = 0.0f;

  PipelineRtConfig cfg = options_.config;
  cfg.fault = RtFaultInjection{};
  std::optional<InstructionProgram> program = options_.initial_program;
  std::optional<TrainerCheckpoint> salvaged;  // Pre-reshard, last crash.
  std::size_t next_crash = 0;

  while (true) {
    std::unique_ptr<PipelineTrainer> trainer =
        program.has_value()
            ? std::make_unique<PipelineTrainer>(*problem_, cfg, *program)
            : std::make_unique<PipelineTrainer>(*problem_, cfg);
    const int num_stages = trainer->config().num_stages;
    const int num_micros = trainer->config().num_microbatches;
    const int dp = trainer->config().data_parallel_degree;
    if (phases_.empty()) {
      world_ = num_stages * dp;
    }

    // Re-bind the salvaged boundary onto this phase's geometry and resume.
    std::optional<TrainerCheckpoint> resumed;
    if (salvaged.has_value()) {
      ReshardReport report;
      resumed = reshard_checkpoint(*salvaged, trainer->binding().module_cut(),
                                   dp, &report);
      stats_.resharded_tensors += report.moved_tensors;
      trainer->restore(*resumed);
      salvaged.reset();
    }

    // Arm the next scheduled device loss, folded onto this geometry.
    if (next_crash < options_.crashes.size() &&
        options_.crashes[next_crash].iteration < iterations) {
      const ElasticCrash& crash = options_.crashes[next_crash];
      DPIPE_REQUIRE(crash.iteration >= trainer->iteration(),
                    "crash scheduled before the resume point");
      RtFaultInjection fault;
      fault.iteration = crash.iteration;
      fault.stage = crash.stage % num_stages;
      fault.micro = crash.micro % num_micros;
      fault.replica = crash.replica % dp;
      trainer->arm_fault(fault);
    }

    bool crashed = false;
    try {
      trainer->train(iterations - trainer->iteration());
    } catch (const StageFailure&) {
      crashed = true;
    }

    RecoveryPhase phase;
    phase.config = trainer->config();
    phase.config.fault = RtFaultInjection{};
    phase.program = trainer->program();
    phase.world = world_;
    phase.start_iteration =
        phases_.empty() ? 0 : phases_.back().end_iteration;
    phase.end_iteration = trainer->iteration();
    phase.crashed = crashed;
    phase.resume_from = std::move(resumed);
    phase.log = trainer->execution_log();
    phases_.push_back(std::move(phase));

    if (!crashed) {
      losses_ = trainer->losses();
      final_params_ = trainer->snapshot_params();
      replica_divergence_ =
          std::max(replica_divergence_, trainer->replica_divergence());
      return stats_;
    }

    // Crash: salvage the boundary, shrink the world, re-plan, go again.
    ++next_crash;
    ++stats_.faults;
    replica_divergence_ =
        std::max(replica_divergence_, trainer->replica_divergence());
    salvaged = trainer->salvage_checkpoint();
    const int crash_iteration = salvaged->iteration;
    // Elastic recovery resumes from the crash-iteration boundary itself,
    // so it redoes crash - salvage = 0 completed iterations. The restart
    // baseline would rewind to the last periodic checkpoint.
    stats_.iterations_lost += crash_iteration - salvaged->iteration;
    const int interval = options_.config.checkpoint_interval;
    stats_.restart_iterations_lost +=
        crash_iteration - (crash_iteration / interval) * interval;

    --world_;
    DPIPE_REQUIRE(world_ >= 1, "no surviving devices to resume on");

    const auto replan_start = std::chrono::steady_clock::now();
    Plan plan = plan_for_world(world_);
    stats_.replan_ms += elapsed_ms(replan_start);
    ++stats_.replans;
    stats_.stage_cache_hits += plan.search.cache_hits;
    stats_.stage_cache_misses += plan.search.cache_misses;

    cfg = options_.config;
    cfg.fault = RtFaultInjection{};
    cfg.num_stages = plan.config.num_stages;
    cfg.num_microbatches = plan.config.num_microbatches;
    cfg.data_parallel_degree = plan.config.data_parallel_degree;
    program = std::move(plan.program);
  }
}

}  // namespace dpipe::rt
