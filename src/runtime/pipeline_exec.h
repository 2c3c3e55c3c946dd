#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "core/instr/instructions.h"
#include "runtime/channel.h"
#include "runtime/ddpm.h"
#include "runtime/interpreter.h"
#include "runtime/optim.h"
#include "runtime/pool.h"

namespace dpipe::rt {

struct PipelineRtConfig {
  int num_stages = 2;
  int num_microbatches = 4;
  int data_parallel_degree = 1;  ///< Pipeline replicas (grads averaged).
  /// Cross-iteration mode (§3.2): iteration k's frozen-encoder outputs are
  /// produced during iteration k-1 (in the real system, inside its pipeline
  /// bubbles). Off = encode at the start of the same iteration. Both must
  /// yield bit-identical trajectories — the equivalence the paper claims.
  bool cross_iteration = true;
  int global_batch = 16;
  float lr = 0.05f;
  bool use_adam = false;  ///< Adam instead of SGD (per-replica states stay
                          ///< identical because averaged grads are).
  /// Auto-checkpoint period in iterations (0 = disabled). When enabled, a
  /// checkpoint of the full trainer state is taken at construction and
  /// after every `checkpoint_interval`-th iteration; last_checkpoint()
  /// exposes the most recent one for crash recovery.
  int checkpoint_interval = 0;
  RtFaultInjection fault;  ///< Kill-a-stage-task injection point.
  /// Record every iteration's per-device op order (execution_log()) for
  /// cross-backend parity checks against occupancy_trace() and the engine.
  bool record_execution = false;
};

/// Complete PipelineTrainer state at an iteration boundary: parameters and
/// optimizer state sharded by the capturing trainer's stage geometry, the
/// cross-iteration activation stash, and the logical clock (iteration
/// index — all data/noise/coin randomness is a pure function of it, so it
/// doubles as the RNG state). Restoring a checkpoint into a trainer of the
/// SAME geometry resumes the exact reference trajectory; restoring into a
/// different geometry requires reshard_checkpoint() first — restore() is
/// strict about shard cuts and dp width by design.
struct TrainerCheckpoint {
  /// One pipeline stage's slice of the canonical state, keyed by the
  /// [module_begin, module_end) range it owned. Tensor lists are indexed
  /// [module - module_begin][param]; adam_m/adam_v parallel params
  /// tensor-for-tensor (empty for SGD, or for Adam before its first step).
  struct StageShard {
    int module_begin = 0;
    int module_end = 0;
    std::vector<std::vector<Tensor>> params;
    std::vector<std::vector<Tensor>> adam_m;
    std::vector<std::vector<Tensor>> adam_v;
  };

  int iteration = 0;
  int global_batch = 0;
  int data_parallel_degree = 1;  ///< dp width at capture (replicas are
                                 ///< identical; one canonical copy kept).
  std::vector<double> losses;
  bool has_adam = false;
  int adam_t = 0;  ///< Shared Adam step count (every stage steps in lock-
                   ///< step, so one counter covers all shards).
  /// Contiguous cover of [0, num_modules): shards[s].module_end ==
  /// shards[s+1].module_begin.
  std::vector<StageShard> shards;
  std::vector<Tensor> pending_cond;  ///< Cross-iteration encoder outputs.
  float replica_divergence = 0.0f;

  /// Stage layer cuts as a vector (length shards+1) — the geometry key.
  [[nodiscard]] std::vector<int> module_cut() const;
  /// Canonical flat parameter list (module-major), as snapshot_params().
  [[nodiscard]] std::vector<Tensor> flat_params() const;
};

/// How much state a reshard moved: tensors whose owning stage changed.
struct ReshardReport {
  int total_tensors = 0;   ///< Parameter tensors in the checkpoint.
  int moved_tensors = 0;   ///< Parameter tensors that changed stages.
  int old_stages = 0;
  int new_stages = 0;
  int old_dp = 0;
  int new_dp = 0;
};

/// Re-bins a checkpoint onto a new stage geometry: flattens the shards'
/// module-major tensor lists (validating the contiguous cover), regroups
/// them by `new_module_cut`, and retargets the dp width. Parameters and
/// Adam moments are copied bit-for-bit — only their stage assignment
/// changes — so a trainer of the new geometry restoring the result
/// continues the exact trajectory the old geometry would have produced
/// from this boundary (subject to the new geometry's own summation order
/// going forward). `new_module_cut` must be monotone, start at 0, and end
/// at the checkpoint's module count; `new_dp` must divide global_batch.
[[nodiscard]] TrainerCheckpoint reshard_checkpoint(
    const TrainerCheckpoint& ckpt, const std::vector<int>& new_module_cut,
    int new_dp, ReshardReport* report = nullptr);

/// Byte-exact on-disk serialization ("dpipe-checkpoint v1", a line-based
/// text format like serialize.h's program format). Floats and doubles are
/// written as hex bit patterns, so save -> load -> save is byte-identical
/// and a loaded checkpoint resumes the exact trajectory. save_checkpoint
/// throws std::invalid_argument, before writing anything, when a tensor of
/// `ckpt` is undefined (default-constructed): the format has no encoding
/// for one.
void save_checkpoint(std::ostream& out, const TrainerCheckpoint& ckpt);
[[nodiscard]] TrainerCheckpoint load_checkpoint(std::istream& in);

/// Program-driven synchronous pipeline trainer over the toy DDPM.
///
/// The trainer does not hand-roll its wave loops: it lowers its
/// configuration through the planner's own pipeline (partition ->
/// ScheduleBuilder::build_1f1b -> BubbleFiller -> generate_instructions)
/// into the same InstructionProgram the simulated engine replays, validates
/// it (ProgramValidator), binds it onto the runtime model (ProgramBinding),
/// and executes it with the ProgramInterpreter, which compiles every
/// (replica, device) instruction stream into one static wave order when
/// the trainer is built and runs it over real tensors, moving activations
/// and gradients through per-(replica, stage, micro) tensor slots.
/// Front-end and back-end thereby share one program — the "one program,
/// two backends" contract checked by the parity tests.
///
/// Demonstrates functionally that DiffusionPipe's schedule — FIFO-1F1B with
/// micro-batch gradient accumulation, data-parallel replicas with gradient
/// averaging, optional self-conditioning feedback and cross-iteration
/// frozen-part execution — reproduces the reference full-batch trajectory
/// exactly, and that it survives stage failures: a throwing op aborts the
/// wave cleanly (no op whose predecessors never finished runs, no
/// optimizer step is applied, the exception propagates) and training
/// resumes bit-exactly from the last checkpoint.
class PipelineTrainer {
 public:
  PipelineTrainer(const DdpmProblem& problem, PipelineRtConfig config);

  /// Binds and runs an externally supplied program (e.g. parsed from a
  /// .dpipe file) instead of self-lowering one. The program must be
  /// runtime-bindable (see ProgramValidator::validate_runtime_bindable);
  /// config.num_stages/num_microbatches are taken from the program.
  PipelineTrainer(const DdpmProblem& problem, PipelineRtConfig config,
                  const InstructionProgram& program);

  void train(int iterations);

  /// (Re-)arms the fault-injection point after construction, validated
  /// against the bound geometry like the config's fault is at init. The
  /// elastic controller uses this to schedule the next crash on a trainer
  /// whose geometry came from the program, not the config.
  void arm_fault(const RtFaultInjection& fault);

  /// Snapshot of the full trainer state; valid only at iteration
  /// boundaries (throws if called on a trainer poisoned by a failure).
  [[nodiscard]] TrainerCheckpoint checkpoint() const;
  /// Restores a checkpoint into this trainer: parameters and optimizer
  /// state on every replica, losses, the cross-iteration stash, and the
  /// iteration clock. Clears any partial gradients or stashed contexts.
  void restore(const TrainerCheckpoint& ckpt);
  /// Most recent auto-checkpoint (requires checkpoint_interval > 0).
  [[nodiscard]] const TrainerCheckpoint& last_checkpoint() const;
  /// True once a stage failure escaped train(); the trainer's mid-wave
  /// state is undefined until restore() is called.
  [[nodiscard]] bool failed() const { return failed_; }
  /// Boundary-consistent checkpoint of a FAILED trainer (requires
  /// failed()). Sound because no optimizer step can have run in the
  /// crashed iteration: faults fire on a forward, so no stage completes
  /// all its backwards, so no stage's gradient allreduce (and hence no
  /// kOptimizerStep) completes — parameters and Adam state are exactly
  /// the last iteration boundary's, and the aborted wave's partial
  /// gradients/contexts were already scrubbed. The consumed cross-
  /// iteration stash is dropped (empty pending_cond); the resumed
  /// iteration regenerates it via the preamble, bit-identically (the
  /// encoder is row-pure).
  [[nodiscard]] TrainerCheckpoint salvage_checkpoint() const;

  /// Parameters of replica 0 (all replicas stay identical).
  [[nodiscard]] std::vector<Tensor> snapshot_params() const;
  [[nodiscard]] const std::vector<double>& losses() const { return losses_; }
  /// Largest max-abs parameter divergence observed between replicas after
  /// any optimizer step (should be exactly 0).
  [[nodiscard]] float replica_divergence() const {
    return replica_divergence_;
  }

  /// The validated instruction program this trainer executes.
  [[nodiscard]] const InstructionProgram& program() const {
    return binding_->program();
  }
  /// The program's binding onto the runtime model (stage->module cover,
  /// frozen row slots) — the geometry checkpoints are sharded by.
  [[nodiscard]] const ProgramBinding& binding() const { return *binding_; }
  /// The logical clock: completed iterations (== next iteration index).
  [[nodiscard]] int iteration() const { return iteration_; }
  [[nodiscard]] const PipelineRtConfig& config() const { return config_; }
  /// Per-device op order of everything executed so far (replica 0);
  /// requires config.record_execution.
  [[nodiscard]] const ExecutionLog& execution_log() const { return log_; }

 private:
  struct Replica {
    std::unique_ptr<Sequential> net;
    /// Per-stage Adam instances (empty for SGD). Stepping each stage's
    /// parameter slice with its own Adam is bit-identical to one global
    /// Adam over the whole list: state is kept per tensor and every stage
    /// steps exactly once per iteration.
    std::vector<std::unique_ptr<Adam>> stage_adam;
  };
  void init(const DdpmProblem& problem, const InstructionProgram& program);
  void train_one_iteration();
  /// Shared body of checkpoint() and salvage_checkpoint().
  [[nodiscard]] TrainerCheckpoint make_checkpoint() const;
  /// Drops stashed micro-batch contexts and accumulated gradients on every
  /// replica — the cleanup step after an aborted wave or before a restore.
  void reset_transient_state();
  [[nodiscard]] std::vector<ProgramInterpreter::ReplicaState>
  replica_states() const;

  const DdpmProblem* problem_;
  PipelineRtConfig config_;
  std::optional<ProgramBinding> binding_;
  std::optional<ProgramInterpreter> interpreter_;
  std::vector<Replica> replicas_;
  Sgd optimizer_;
  std::vector<double> losses_;
  std::vector<Tensor> pending_cond_;  ///< Cross-iteration encoder outputs
                                      ///< (one per replica) for iteration_.
  ExecutionLog log_;
  TrainerCheckpoint last_checkpoint_;
  bool has_checkpoint_ = false;
  bool failed_ = false;
  int iteration_ = 0;
  float replica_divergence_ = 0.0f;
};

}  // namespace dpipe::rt
