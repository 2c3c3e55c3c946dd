#pragma once

#include <cstdint>

#include "cluster/comm_model.h"
#include "core/instr/instructions.h"
#include "core/instr/validate.h"
#include "fault/fault.h"
#include "profiler/cost_model.h"
#include "profiler/profile_db.h"

namespace dpipe {

struct EngineOptions {
  int iterations = 4;  ///< Replay count; iteration 0 includes the preamble.
  int data_parallel_degree = 1;  ///< For throughput scaling (groups run the
                                 ///< same program concurrently).
  double group_batch = 64.0;     ///< Samples per iteration per group.
  /// The "actual" kernel times differ from the profiled ones: separate
  /// noise seed (same amplitude) — the paper's explanation for residual
  /// unfilled bubble time (§6.2).
  std::uint64_t actual_noise_seed = 0xAC7BA1;
  double noise_amplitude = 0.02;
  double load_ms = 0.05;  ///< Fixed micro-batch load cost.
  /// Self-conditioning realism: instead of the planner's expected-value
  /// model (every forward costs (1+p)x, p = ModelDesc::self_cond_prob),
  /// sample the Bernoulli(p) coin per iteration — active iterations run 2x
  /// forwards, inactive 1x. Off by default so measured time is directly
  /// comparable to the plan.
  bool sample_self_conditioning = false;
  /// Record per-device measured op timelines (EngineResult::timelines) —
  /// a measured counterpart to the planner's Schedule, exportable with
  /// write_chrome_trace for side-by-side inspection — and the executed op
  /// order (EngineResult::execution_log).
  bool record_timelines = false;
  /// Fault scenario to inject (stragglers, link faults, device crashes).
  /// An empty plan leaves the fault-free path bit-identical to a run
  /// without one; see fault/fault.h for the event and cost models.
  fault::FaultPlan faults;
};

struct IterationStats {
  double start_ms = 0.0;  ///< End of the previous iteration.
  double end_ms = 0.0;    ///< Completion of this iteration's last op.
  double bubble_ratio = 0.0;  ///< Idle fraction within [start, end].

  [[nodiscard]] double duration_ms() const { return end_ms - start_ms; }
};

struct EngineResult {
  std::vector<IterationStats> iterations;
  double steady_iteration_ms = 0.0;  ///< Mean over iterations >= 1.
  double steady_bubble_ratio = 0.0;  ///< Mean over iterations >= 1.
  double samples_per_second = 0.0;   ///< group_batch x dp / steady time.
  /// Measured device timelines across all replayed iterations (empty
  /// unless EngineOptions::record_timelines). Packaged as a Schedule so
  /// extract_bubbles / write_chrome_trace apply directly.
  Schedule timelines;
  /// op_signature() of every device-occupying op in the order each device
  /// executed it, whatever its duration (empty unless
  /// EngineOptions::record_timelines): the engine's side of the
  /// cross-backend parity check against occupancy_trace().
  ExecutionLog execution_log;
  /// Per-fault accounting (all zero when EngineOptions::faults is empty).
  fault::FaultStats fault_stats;
};

/// Discrete-event back-end: replays per-device instruction streams with
/// blocking receives, async sends, async collectives, and a cross-iteration
/// fence between a batch's non-trainable outputs (computed in the previous
/// iteration's bubbles, or the preamble) and its first micro-batch load.
/// Timing comes from an *actual* cost model, independent of the profiled
/// times that drove planning — so plan robustness is genuinely exercised.
class ExecutionEngine {
 public:
  ExecutionEngine(const ProfileDb& db, const CommModel& comm);

  [[nodiscard]] EngineResult run(const InstructionProgram& program,
                                 const EngineOptions& opts) const;

 private:
  const ProfileDb* db_;
  const CommModel* comm_;
};

}  // namespace dpipe
