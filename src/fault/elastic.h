#pragma once

#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "core/planner/planner.h"
#include "runtime/pipeline_exec.h"

namespace dpipe::rt {

/// One injected device loss: while training iteration `iteration`, the
/// device running `stage` of replica `replica` dies mid-forward of
/// micro-batch `micro`. Coordinates are taken modulo the geometry live at
/// that point, so a crash plan written against the initial geometry stays
/// meaningful after earlier crashes have re-planned the pipeline.
struct ElasticCrash {
  int iteration = 0;
  int stage = 0;
  int micro = 0;
  int replica = 0;
};

struct ElasticOptions {
  /// Initial trainer configuration. checkpoint_interval must be >= 1: the
  /// controller itself resumes from the crash boundary, but the interval
  /// defines the restart-from-checkpoint baseline it reports against.
  PipelineRtConfig config;
  /// Scheduled device losses, strictly increasing in iteration (each crash
  /// shrinks the world by one device and ends the current phase).
  std::vector<ElasticCrash> crashes;
  /// Program for the initial geometry (e.g. a loaded .dpipe file);
  /// unset = self-lower from `config` like PipelineTrainer does.
  std::optional<InstructionProgram> initial_program;
  int search_threads = 1;  ///< Re-plan grid-search threads.
};

/// Recovery counters across one run() — the `dpipe_run --elastic` output.
struct RecoveryStats {
  int faults = 0;   ///< Device losses absorbed.
  int replans = 0;  ///< Planner::plan() runs on shrunk clusters.
  std::size_t stage_cache_hits = 0;    ///< Per-evaluation StageCostCache
                                       ///< hits, summed over re-plans.
  std::size_t stage_cache_misses = 0;
  int resharded_tensors = 0;  ///< Parameter/moment tensors whose owning
                              ///< stage changed across all re-shards.
  /// Completed iterations re-executed after faults. Elastic recovery
  /// salvages the crash-iteration boundary, so this stays 0 — only the
  /// aborted partial iteration is redone.
  int iterations_lost = 0;
  /// What restarting from the last periodic checkpoint would have
  /// re-executed instead: sum over faults of (crash iteration - last
  /// checkpoint iteration).
  int restart_iterations_lost = 0;
  double replan_ms = 0.0;  ///< Wall time spent in re-planning.
};

/// One stretch of execution under a fixed geometry, recorded for the
/// parity harness: the phase's program can be re-validated, its execution
/// log checked against occupancy_trace(), and a fresh trainer built from
/// (config, program, resume_from) must reproduce the phase bit-for-bit.
struct RecoveryPhase {
  PipelineRtConfig config;  ///< As executed, with the fault disarmed.
  InstructionProgram program;
  int world = 0;            ///< Devices alive during this phase.
  int start_iteration = 0;
  int end_iteration = 0;    ///< Iterations completed when the phase ended.
  bool crashed = false;     ///< Ended by a device loss (vs run completion).
  /// The (re-sharded) checkpoint restored at phase start; unset for the
  /// initial phase.
  std::optional<TrainerCheckpoint> resume_from;
  ExecutionLog log;  ///< Populated when config.record_execution.
};

/// A single-host cluster of `world` devices — the shrunk device set an
/// elastic re-plan targets (and the ProfileDb context for replaying its
/// programs on the engine).
[[nodiscard]] ClusterSpec elastic_cluster(int world);

/// The crash -> re-plan -> re-shard -> resume loop (DESIGN.md §10).
///
/// On an injected device crash the in-flight wave aborts (no op whose
/// predecessors never finished runs; PipelineTrainer scrubs the partial
/// wave), the controller salvages the last iteration boundary
/// (salvage_checkpoint — sound because a crashed iteration can never have
/// stepped an optimizer), re-runs the full Planner over the runtime's
/// synthetic model for the shrunk cluster (each re-plan memoizes its own
/// stage costs; none are kept across re-plans), re-bins the checkpoint
/// onto the winning plan's stage cuts and dp width (reshard_checkpoint),
/// and resumes a fresh ProgramInterpreter-driven trainer on the
/// survivors. The resumed trajectory is bit-identical
/// to a fresh (N-1)-device trainer restored from the same checkpoint.
class ElasticRecoveryController {
 public:
  ElasticRecoveryController(const DdpmProblem& problem,
                            ElasticOptions options);

  /// Trains `iterations` iterations end to end, absorbing every scheduled
  /// crash. Returns the accumulated recovery counters.
  const RecoveryStats& run(int iterations);

  /// Full Planner::plan() for a `world`-device cluster over the runtime
  /// model (trainer_planner_model), restricted to runtime-bindable combos
  /// (one replica per stage, integer micro-batches). Deterministic: two
  /// calls for one world give the same plan and program bytes.
  [[nodiscard]] Plan plan_for_world(int world);

  /// Devices alive (initial world = stages x replicas; -1 per crash).
  /// 0 until run() has built the initial trainer.
  [[nodiscard]] int world() const { return world_; }
  [[nodiscard]] const RecoveryStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<RecoveryPhase>& phases() const {
    return phases_;
  }
  /// Full loss history after run() (carried across re-shards).
  [[nodiscard]] const std::vector<double>& losses() const { return losses_; }
  /// Final parameters after run() (canonical replica).
  [[nodiscard]] const std::vector<Tensor>& final_params() const {
    return final_params_;
  }
  [[nodiscard]] float replica_divergence() const {
    return replica_divergence_;
  }

 private:
  const DdpmProblem* problem_;
  ElasticOptions options_;
  int num_modules_ = 0;
  int world_ = 0;
  RecoveryStats stats_;
  std::vector<RecoveryPhase> phases_;
  std::vector<double> losses_;
  std::vector<Tensor> final_params_;
  float replica_divergence_ = 0.0f;
};

}  // namespace dpipe::rt
