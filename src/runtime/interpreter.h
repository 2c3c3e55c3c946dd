#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/instr/instructions.h"
#include "core/instr/validate.h"
#include "runtime/channel.h"
#include "runtime/ddpm.h"
#include "runtime/optim.h"

namespace dpipe::rt {

/// How pipeline waves run on this host, as reported in benchmark host
/// stamps. ProgramInterpreter runs every wave as one static op order that
/// it fixed at construction: `width` participants on the process-wide
/// executor (common/parallel.h) claim the order's ops in turn and wait only
/// on an op's unfinished predecessors. The width comes from the program's
/// shapes (see ProgramInterpreter::wave_width), so a wave of cheap stage
/// ops is a flat loop on the calling thread. Every value is a pure function
/// of the inputs, so all widths are bit-identical. wave_exec() is kSerial
/// when the executor's width is 1 (no wave can use a second thread), else
/// kThreads.
enum class WaveExec { kThreads, kSerial };

[[nodiscard]] const char* wave_exec_name(WaveExec mode);
[[nodiscard]] WaveExec wave_exec();

/// Integer row range [begin, end) within one replica's batch shard.
struct RowRange {
  int begin = 0;
  int end = 0;

  [[nodiscard]] int rows() const { return end - begin; }
};

/// Binds a validated InstructionProgram onto the functional runtime: maps
/// `Instruction.component`/`layer_begin..end` onto rt::Sequential module
/// slices, stages onto module ranges, and frozen-forward placements onto
/// integer row ranges of the replica's batch shard. Which device owns a
/// stage does not matter to the binding: the interpreter runs each
/// device's stream as written and keys tensors by stage.
///
/// Requires ProgramValidator::validate_runtime_bindable to pass (single
/// backbone; every stage owned by exactly one device and every device
/// owning one or more; FIFO micro order per owned stage); throws
/// std::invalid_argument carrying the report otherwise. num_stages()
/// counts *virtual* stages: with V stages per device it is V * group_size.
///
/// Planner layers need not be 1:1 with runtime modules: stage layer cuts
/// are mapped proportionally onto module indices (monotone, at least one
/// module per stage). When the program was lowered from the runtime's own
/// synthetic model (lower_trainer_program) the mapping is the identity.
class ProgramBinding {
 public:
  struct Options {
    int num_modules = 0;       ///< rt::Sequential size to bind onto.
    int rows_per_replica = 0;  ///< Integer samples behind one iteration of
                               ///< the program (its group batch).
  };

  ProgramBinding(const InstructionProgram& program, const Options& opts);

  [[nodiscard]] const InstructionProgram& program() const {
    return program_;
  }
  [[nodiscard]] int num_stages() const { return num_stages_; }
  [[nodiscard]] int num_micros() const { return num_micros_; }
  [[nodiscard]] int rows_per_replica() const { return rows_per_replica_; }
  /// Module range [begin, end) of `stage` within the bound Sequential.
  [[nodiscard]] int module_begin(int stage) const {
    return module_cut_[stage];
  }
  [[nodiscard]] int module_end(int stage) const {
    return module_cut_[stage + 1];
  }
  /// The whole stage->module cover (length num_stages + 1, starts at 0,
  /// ends at num_modules) — the geometry key checkpoints are sharded by.
  [[nodiscard]] const std::vector<int>& module_cut() const {
    return module_cut_;
  }

  /// One kFrozenForward occurrence bound to shard rows.
  struct FrozenSlot {
    int component = -1;
    int layer = -1;
    RowRange rows;               ///< Shard rows this occurrence encodes.
    bool produces_cond = false;  ///< Writes encoder outputs (vs modeled).
  };
  /// steady_frozen()[dev][j]: j-th kFrozenForward in dev's steady stream.
  [[nodiscard]] const std::vector<std::vector<FrozenSlot>>& steady_frozen()
      const {
    return steady_frozen_;
  }
  [[nodiscard]] const std::vector<std::vector<FrozenSlot>>& preamble_frozen()
      const {
    return preamble_frozen_;
  }

 private:
  InstructionProgram program_;  ///< Owned copy: the bound contract.
  int num_stages_ = 0;
  int num_micros_ = 0;
  int rows_per_replica_ = 0;
  std::vector<int> module_cut_;  ///< Length num_stages + 1.
  std::vector<std::vector<FrozenSlot>> steady_frozen_;
  std::vector<std::vector<FrozenSlot>> preamble_frozen_;
};

/// Executes a bound InstructionProgram on the functional runtime. At
/// construction it compiles the program's steady streams into one static
/// wave order (the MPMD lowering of JaxPP, arXiv 2412.14374): every
/// instruction of every device and replica becomes a node that waits on
/// the previous op of its device, a receive also on its send (paired by
/// direction, stage boundary and micro-batch), and each stage's
/// kAllReduceGrads is one node shared by all replicas, which waits on
/// every replica's preceding op. An ASAP list simulation (forward costs
/// 1x, backward 2x the stage's forward FLOPs, other ops 0) sorts the nodes
/// topologically, ties in (device, stream) order, and the replicas are
/// laid out replica-inner, so neighbouring entries can run concurrently.
/// A program whose streams wait on each other in a cycle has no such order
/// and is rejected here with std::invalid_argument.
///
/// A wave then runs that order: activations and gradients move through
/// per-(replica, stage, micro) tensor slots (sends and receives do no
/// work, so the order contracts them into edges: an op waits directly on
/// the op that filled its slot), the shared allreduce sums gradients in
/// ascending replica order, and kOptimizerStep updates the stage's
/// parameter slice in place. kFrozenForward ops encode their bound row
/// slice of the *next* iteration's conditioning into the sink tensor. A
/// failing op aborts the wave: ops whose predecessors never finished never
/// run, and since every kOptimizerStep depends on every forward through
/// the shared allreduce, no optimizer steps before an abort. Determinism:
/// every value is a pure function of the inputs, whichever thread runs an
/// op.
class ProgramInterpreter {
 public:
  /// Mutable training state of one data-parallel replica.
  struct ReplicaState {
    Sequential* net = nullptr;
    const Sgd* sgd = nullptr;       ///< Used when stage_adam is empty.
    std::vector<Adam*> stage_adam;  ///< Per-stage Adam (or empty for SGD).
  };

  /// One replica's inputs for one iteration of the program.
  struct WaveInputs {
    std::vector<DdpmProblem::Batch> micros;  ///< Per-micro batch slices.
    const Tensor* cond = nullptr;  ///< Encoder outputs, all replicas' rows.
    int row_offset = 0;            ///< This replica's first row in `cond`.
    const Tensor* self_cond = nullptr;      ///< [shard rows, data_dim].
    const Tensor* next_cond_raw = nullptr;  ///< Next iteration's raw cond
                                            ///< (all replicas' rows).
    Tensor* next_cond = nullptr;   ///< Sink for kFrozenForward outputs.
  };

  /// `backbone` is a network of the replicas' shape; only its parameter
  /// shapes are read, to cost the order's ops and size the waves. The
  /// number of replicas is global_batch / binding.rows_per_replica().
  ProgramInterpreter(const DdpmProblem& problem,
                     const ProgramBinding& binding, int global_batch,
                     Sequential& backbone);

  /// One full training iteration across all replicas: 1F1B forward/backward
  /// waves, gradient allreduce, optimizer steps, and (cross-iteration mode)
  /// frozen-forward encoding of the next iteration's inputs. Returns the
  /// summed squared error over all replicas (ascending replica order).
  /// `log` (optional) records replica 0's per-device execution order.
  double train_wave(const std::vector<ReplicaState>& replicas,
                    const std::vector<WaveInputs>& inputs, int iteration,
                    const RtFaultInjection& fault, ExecutionLog* log) const;

  /// Forward-only (no-grad) replay of the program's load/recv/forward/send
  /// instructions for one replica — the self-conditioning first pass.
  /// Returns the last stage's per-micro outputs; contexts are dropped.
  [[nodiscard]] std::vector<Tensor> forward_wave(
      const ReplicaState& replica, const WaveInputs& inputs) const;

  /// Executes the iteration-0 preamble streams: every device encodes its
  /// bound row slice of `cond_raw` into `cond` (one task per device per
  /// replica; rows are disjoint). Also used every iteration when
  /// cross-iteration mode is off — the program then has no steady frozen
  /// ops and the whole non-trainable part runs un-overlapped.
  void run_preamble(const Tensor& cond_raw, Tensor& cond, int replicas,
                    ExecutionLog* log) const;

 private:
  /// One op of a static wave order.
  struct WaveNode {
    int replica = 0;      ///< -1: the stage's shared kAllReduceGrads.
    int device = 0;
    int instr = 0;        ///< Index into the device's steady stream.
    int frozen_slot = 0;  ///< steady_frozen()[device] index of the op's
                          ///< first layer (kFrozenForward only).
    int pred_begin = 0;   ///< The nodes it waits on:
    int pred_end = 0;     ///< WaveOrder::preds[pred_begin, pred_end).
  };
  /// Nodes in execution order; every predecessor precedes its successors.
  struct WaveOrder {
    std::vector<WaveNode> nodes;
    std::vector<int> preds;
  };

  /// The order over `replicas` copies of the steady streams, or over the
  /// load/recv/forward/send ops alone (`forward_only`, forward_wave).
  [[nodiscard]] WaveOrder build_order(
      const std::vector<std::int64_t>& stage_flops, int replicas,
      bool forward_only) const;

  /// Runs op(node) for every node of `order` on `width` participants. Each
  /// claims the next node through one cursor and waits on the done flags
  /// of its unfinished predecessors, all earlier in the order, so the
  /// earliest unfinished claimed node can always run and no participant
  /// count deadlocks; at width 1 nothing waits. The first exception aborts
  /// the wave (waiters wake, no further node runs) and is rethrown.
  template <typename Op>
  static void run_order(const WaveOrder& order, int width, const Op& op);

  /// Participants of a wave whose ops span `tasks` (replica, device)
  /// streams: 1 (a flat loop on the caller) when the cheapest stage op is
  /// below kParallelCostThreshold, else min(executor width, tasks).
  [[nodiscard]] int wave_width(std::size_t tasks) const;

  const DdpmProblem* problem_;
  const ProgramBinding* binding_;
  int global_batch_;
  int replicas_ = 1;  ///< global_batch / rows_per_replica.
  std::int64_t min_stage_flops_ = 0;  ///< Cheapest stage op's forward FLOPs.
  WaveOrder train_order_;    ///< All replicas' steady streams.
  WaveOrder forward_order_;  ///< One replica's no-grad forward replay.
};

/// The PipelineTrainer's program generation: a synthetic ModelDesc whose
/// backbone layers are 1:1 with the runtime Sequential's modules (plus a
/// one-layer frozen encoder component), partitioned with the trainer's
/// historical stage split, scheduled by the ScheduleBuilder family the
/// spec names, bubble-filled (cross-iteration mode only), and lowered
/// through generate_instructions. The engine can replay `program` against a
/// ProfileDb built from `model` — that is the cross-backend parity setup.
struct TrainerLowering {
  ModelDesc model;
  PartitionOptions options;
  InstructionProgram program;
};

struct TrainerLoweringSpec {
  int num_stages = 1;  ///< Pipeline devices (the pipeline-parallel degree).
  int num_microbatches = 1;
  int data_parallel_degree = 1;
  int global_batch = 1;
  bool cross_iteration = true;
  int num_modules = 1;  ///< rt::Sequential size; must be >= num_stages
                        ///< (>= num_stages * vstages when interleaved).
  /// Schedule family. k1F1B is the historical trainer schedule;
  /// kInterleaved places vstages virtual stages round-robin on each device
  /// (vstages == 1 lowers to a program bit-identical to the k1F1B one).
  /// kGpipe lowers for the engine only: validate_runtime_bindable rejects
  /// its LIFO backward order, which breaks the FIFO autograd stashes.
  /// kBidirectional needs two backbones and is rejected.
  ScheduleFamily family = ScheduleFamily::k1F1B;
  int vstages = 1;  ///< Virtual stages per device (kInterleaved only).
};

[[nodiscard]] TrainerLowering lower_trainer_program(
    const TrainerLoweringSpec& spec);

/// The synthetic planner model lower_trainer_program builds: a trainable
/// backbone whose layers are 1:1 with the runtime Sequential's modules plus
/// a one-layer frozen encoder. Exposed so elastic re-plans can run the full
/// Planner over exactly the model the runtime will bind the result onto.
[[nodiscard]] ModelDesc trainer_planner_model(int num_modules);

}  // namespace dpipe::rt
