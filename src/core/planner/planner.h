#pragma once

#include "cluster/comm_model.h"
#include "core/fill/filler.h"
#include "core/instr/instructions.h"
#include "core/partition/bidirectional.h"
#include "core/partition/grouping.h"
#include "core/partition/stage_cache.h"
#include "core/schedule/schedule.h"
#include "engine/memory.h"
#include "profiler/profiler.h"

namespace dpipe {

/// Options of the front-end workflow (Fig. 7). Candidate lists left empty
/// are derived from the cluster/model shape.
struct PlannerOptions {
  double global_batch = 512.0;  ///< Samples per iteration, whole cluster.
  std::vector<int> stage_candidates;  ///< S values; default {2, 4, 8}.
  std::vector<int> micro_candidates;  ///< M values; default {2, 4, 8, 16}.
  std::vector<int> group_candidates;  ///< D values; default: divisors of
                                      ///< world size (>= 2).
  bool enable_fill = true;     ///< Ablation: pipeline bubble filling (§6.3).
  bool enable_partial = true;  ///< Ablation: partial-batch layers (§6.3).
  bool check_memory = true;    ///< Skip configurations that exceed HBM.
  /// Cap on the threads the (S, M, D) grid search fans out over on the
  /// process-wide executor; 0 = the executor's width, 1 = inline on the
  /// calling thread. The selected plan and explored list are bit-identical
  /// for every value.
  int search_threads = 0;
  /// Schedule family of the candidate plans. k1F1B (the default) is the
  /// paper's single-backbone schedule; kInterleaved searches the virtual-
  /// stage axis too: each (S, M, D, V) combo with V > 1 partitions the
  /// backbone into S*V virtual stages placed round-robin on the group's S
  /// devices (runtime-bindable shapes only, so D == S). V == 1 combos are
  /// evaluated exactly like k1F1B ones. kGpipe/kBidirectional are not
  /// searchable families (GPipe is a baseline; bidirectional is implied by
  /// a two-backbone model).
  ScheduleFamily schedule_family = ScheduleFamily::k1F1B;
  /// V values for kInterleaved; default {1}. Values > 1 require
  /// schedule_family == kInterleaved (the constructor rejects the
  /// contradiction).
  std::vector<int> vstage_candidates;
  /// Placement validity predicate: restrict the grid to combos whose
  /// placement the functional runtime can bind (every virtual stage owned
  /// by exactly one device, i.e. D == S; see
  /// ProgramValidator::validate_runtime_bindable). Elastic re-plans set
  /// this so every candidate program is executable.
  bool require_bindable_placement = false;
  /// Reject combos whose micro-batch is fractional. The engine models
  /// fractional micro-batches fine; the functional runtime slices real
  /// tensors and needs global_batch divisible by dp x M.
  bool integer_microbatches = false;
  /// Optional cross-plan stage-cost persistence: combos take their
  /// StageCostCache from this store (keyed by the planner's model/cluster/
  /// profiler context fingerprint plus world and combo, so reuse is always
  /// fingerprint-valid) instead of a per-evaluation cache, so a second plan
  /// over the same grid is a pure cache replay. The store has one owner at
  /// a time: a plan() that reaches it while another plan() holds it throws
  /// StageCostStoreBusy. The store never evicts; the caller owns it and
  /// must keep it alive. nullptr = per-evaluation caches (the default, and
  /// what the plan service and elastic re-plans use).
  StageCostStore* cache_store = nullptr;
  ProfilerOptions profiler;    ///< Step-1 settings.
};

/// One evaluated hyper-parameter combination (for sweeps and benches).
struct PlanConfig {
  int num_stages = 0;  ///< Pipeline chain length (devices per group / S).
  int num_microbatches = 0;
  int group_size = 0;
  int data_parallel_degree = 0;
  double predicted_iteration_ms = 0.0;
  double planned_bubble_ratio = 0.0;  ///< After filling.
  bool memory_feasible = true;
  int vstages = 1;  ///< Virtual stages per device (interleaved; else 1).

  friend bool operator==(const PlanConfig&, const PlanConfig&) = default;
};

/// Instrumentation of the (S, M, D) grid search. Wall times are summed
/// across search threads, so they can exceed search_wall_ms.
struct PlanSearchStats {
  int threads = 0;           ///< Execution width actually used.
  int combos_total = 0;      ///< Grid points enumerated.
  int vstage_axis = 1;       ///< V-axis size (vstage candidate count).
  int combos_evaluated = 0;  ///< evaluate() calls performed.
  std::size_t cache_hits = 0;    ///< StageCostCache hits, all evaluations.
  std::size_t cache_misses = 0;
  double search_wall_ms = 0.0;  ///< Wall time of steps 2-4 (the whole grid).
};

/// The selected plan plus everything the back-end needs.
struct Plan {
  PlanConfig config;
  PartitionOptions partition_opts;
  FillResult fill;                  ///< Includes the filled schedule.
  InstructionProgram program;
  /// Every feasible config evaluated, in deterministic (D, S, M) candidate
  /// order.
  std::vector<PlanConfig> explored;
  PlanSearchStats search;           ///< Grid-search instrumentation.
  double profiling_wall_ms = 0.0;   ///< Estimated step-1 cluster time.
  double partitioning_wall_ms = 0.0;  ///< Host time in steps 2-3, summed
                                      ///< across search threads.
  double filling_wall_ms = 0.0;       ///< Host time in step 4, ditto.
};

/// DiffusionPipe's front-end: profiles the model (step 1), searches the
/// (S, M, D) space with the DP partitioner (steps 2-3), fills bubbles
/// (step 4), selects the configuration with the minimum predicted iteration
/// time (step 5), and lowers it to back-end instructions (step 6).
///
/// Single-backbone models use FIFO-1F1B; two-backbone cascades use
/// bidirectional pipelining on the shared device chain (§4.2); cascades
/// with more than two backbones are first merged into two FLOP-balanced
/// virtual backbones (group_backbones, the paper's §4.2 extension).
class Planner {
 public:
  Planner(ModelDesc model, ClusterSpec cluster, PlannerOptions options = {});

  [[nodiscard]] Plan plan() const;

  [[nodiscard]] const ProfileDb& db() const { return report_.db; }
  [[nodiscard]] const CommModel& comm() const { return comm_; }
  [[nodiscard]] const ModelDesc& model() const { return model_; }
  [[nodiscard]] const ClusterSpec& cluster() const { return cluster_; }
  [[nodiscard]] const PlannerOptions& options() const { return options_; }

  /// Fills empty candidate lists with their defaults for a `world`-device
  /// cluster: S in {2, 4, 8}, M in {2, 4, 8, 16}, D over the divisors of
  /// the world size (>= 2). The constructor applies this; the plan
  /// service's request canonicalizer calls it too, so an empty candidate
  /// list and its explicit default fingerprint identically.
  static void apply_default_candidates(PlannerOptions& options, int world);

  /// Fingerprint of everything the stage costs depend on — the grouped
  /// model, the cluster, and the profiler settings, in canonical bytes —
  /// used to key this planner's caches in a StageCostStore.
  [[nodiscard]] std::string cost_context_fingerprint() const;

 private:
  struct Evaluation {
    PlanConfig config;
    PartitionOptions opts;
    FillResult fill;
    double partition_wall_ms = 0.0;  ///< Steps 2-3 host time of this combo.
    double fill_wall_ms = 0.0;       ///< Step-4 host time of this combo.
    std::size_t cache_hits = 0;
    std::size_t cache_misses = 0;
  };
  /// `external_cache` (optional) is a pre-bound-or-empty StageCostCache
  /// from options_.cache_store; nullptr = a per-evaluation cache.
  /// Hit/miss stats in the returned Evaluation are deltas for this call
  /// either way.
  [[nodiscard]] std::optional<Evaluation> evaluate(
      int S, int M, int D, int V,
      StageCostCache* external_cache = nullptr) const;
  /// The cheap structural validity checks of a combo (divisibility,
  /// micro-batch >= 1 sample, enough layers per stage, CDM
  /// self-conditioning exclusion, and the placement predicate: bindable
  /// shapes for V > 1 or require_bindable_placement).
  [[nodiscard]] bool combo_shape_valid(int S, int M, int D, int V = 1) const;

  ModelDesc model_;
  ClusterSpec cluster_;
  PlannerOptions options_;
  CommModel comm_;
  ProfileReport report_;
};

}  // namespace dpipe
