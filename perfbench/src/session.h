#pragma once

// One closed-loop user session: a single client thread that trains, plans
// and recovers through the library's public entry points, in rounds that
// interleave every segment so host drift lands on every metric alike.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "cluster/comm_model.h"
#include "core/instr/instructions.h"
#include "engine/engine.h"
#include "fault/elastic.h"
#include "profiler/profile_db.h"
#include "runtime/pipeline_exec.h"
#include "service/service.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// Operation kinds counted as attempted / failed in every run.
enum OpKind { kTrainStep, kColdPlan, kWarmPlan, kReplay, kRecovery, kNumOps };

[[nodiscard]] const char* op_kind_name(int kind);

struct OpCounts {
  std::array<long, kNumOps> attempted{};
  std::array<long, kNumOps> failed{};
};

/// Raw samples of the end-to-end metrics over a set of rounds. Samples of
/// sub-millisecond operations are per-round means; the rest are per call.
struct RoundSamples {
  int rounds = 0;
  std::vector<double> train_step_ms;      ///< Per round: mean train(1) time.
  /// Per round: process CPU time (every thread) per train(1) call.
  std::vector<double> train_step_cpu_ms;
  std::vector<double> cold_ms;            ///< Every cold plan.
  std::vector<double> warm_ms;            ///< Per round: mean of its repeats.
  /// Replays of the first kModeledReplays cold plans only, so the batch mix
  /// behind them does not depend on how many rounds fit in a run.
  std::vector<double> modeled_samples_per_s;
  std::vector<double> modeled_bubble_ratio;
  /// Every session pair: lossy minus clean session wall time.
  std::vector<double> recovery_ms;
  std::vector<double> round_ms;

  /// The end-to-end metrics these samples give (setup and memory excluded).
  [[nodiscard]] std::vector<Metric> metrics() const;
  /// Wall-time metrics that move with host contention beyond any bound the
  /// result allows (see README.md): printed, not in the result.
  /// `global_batch` is the trainer's.
  [[nodiscard]] std::vector<Metric> unbounded_metrics(int global_batch) const;
};

/// Cold plans whose replays give the modeled metrics: 20 balanced passes
/// over a five-batch list, and no more than the rounds of a run plan.
constexpr std::size_t kModeledReplays = 100;

class Session {
 public:
  /// Builds everything a user would before the first timed operation: the
  /// workload's models and clusters, the trainer (lower, validate, bind),
  /// the plan service, and a warm-up of each path.
  Session(const std::string& workload, std::uint64_t seed, Tracer& tracer);

  /// Trains the equivalent-placement reference trainer for the first
  /// iterations (untimed); finish() compares its losses bit for bit.
  void prepare_reference();

  /// One round: train steps, a request stream of one cold request among
  /// warm repeats, one engine replay, and a lossy/clean elastic session
  /// pair. Appends to `out`.
  void run_round(int round, RoundSamples& out);

  /// Run-level correctness checks (loss falls, reference bit-identity),
  /// counted against the train-step kind.
  void finish();

  [[nodiscard]] const WorkloadSpec& spec() const { return spec_; }
  [[nodiscard]] const OpCounts& counts() const { return counts_; }
  [[nodiscard]] dpipe::rt::PipelineTrainer& trainer() { return *trainer_; }
  [[nodiscard]] const dpipe::rt::DdpmProblem& problem() const {
    return problem_;
  }
  /// A cold plan's program with what the engine needs to replay it.
  struct Replayable {
    dpipe::InstructionProgram program;
    int dp = 1;
    double group_batch = 1.0;
  };
  /// Engine context and the last cold plan.
  [[nodiscard]] const dpipe::ProfileDb& db() const { return *db_; }
  [[nodiscard]] const dpipe::CommModel& comm() const { return *comm_; }
  [[nodiscard]] const Replayable& last_cold() const {
    return round_cold_.back();
  }
  /// Replay options for `plan`; `round` seeds the actual-noise seed.
  [[nodiscard]] dpipe::EngineOptions engine_options(const Replayable& plan,
                                                    int round) const;
  /// Store hits/misses and iterations lost, summed over the sessions.
  [[nodiscard]] const dpipe::rt::RecoveryStats& recovery_totals() const {
    return recovery_totals_;
  }

 private:
  /// Runs `fn` as one attempt of `kind`; an exception or a false return
  /// counts as failed. Returns whether it succeeded.
  template <typename Fn>
  bool attempt(OpKind kind, const Fn& fn);

  void train_segment(int round, RoundSamples& out);
  void plan_segment(int round, RoundSamples& out);
  bool cold_plan(int round, RoundSamples& out);
  bool warm_plan(int round, std::vector<double>& times);
  void replay_segment(int round, RoundSamples& out);
  void recovery_segment(int round, RoundSamples& out);
  [[nodiscard]] dpipe::rt::ElasticCrash draw_crash();
  /// One controller session of kSessionIterations with `crashes`; checks
  /// its outcome and adds its counters to recovery_totals_.
  bool elastic_session(const std::vector<dpipe::rt::ElasticCrash>& crashes,
                       int round, double& wall_ms);
  [[nodiscard]] int next_batch();

  WorkloadSpec spec_;
  std::uint64_t seed_;
  Tracer& tracer_;
  std::mt19937_64 rng_;
  OpCounts counts_;
  int num_modules_ = 0;

  dpipe::rt::DdpmProblem problem_;
  std::unique_ptr<dpipe::rt::PipelineTrainer> trainer_;
  std::vector<double> reference_losses_;

  // Plan side.
  /// A request the service answered, kept as its variant (the request is
  /// rebuilt from the base before each repeat).
  struct Answered {
    double global_batch = 0.0;
    std::uint64_t noise_seed = 0;
    std::string program_text;
  };
  [[nodiscard]] dpipe::PlanRequest variant(double global_batch,
                                           std::uint64_t noise_seed) const;
  std::unique_ptr<dpipe::PlanService> service_;
  std::vector<Answered> answered_;
  std::optional<dpipe::ProfileDb> db_;
  std::optional<dpipe::CommModel> comm_;
  /// This round's cold plans (each is replayed), or the set-up's plan.
  std::vector<Replayable> round_cold_;
  std::uint64_t requests_issued_ = 0;
  std::vector<int> batch_order_;
  std::size_t batch_cursor_ = 0;

  dpipe::rt::RecoveryStats recovery_totals_;
};

}  // namespace perfbench
