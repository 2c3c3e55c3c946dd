#include "session.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "core/instr/validate.h"
#include "core/partition/grouping.h"
#include "profiler/profiler.h"
#include "runtime/interpreter.h"

namespace perfbench {

namespace {

using dpipe::rt::ElasticCrash;
using dpipe::rt::ElasticOptions;
using dpipe::rt::ElasticRecoveryController;
using dpipe::rt::PipelineRtConfig;
using dpipe::rt::PipelineTrainer;

constexpr int kWarmupIterations = 2;
constexpr int kReferenceIterations = 4;
/// The plan service is replaced by a fresh one every this many rounds (a
/// restart without a store), which bounds its cache and keeps memory
/// independent of how many rounds fit in a run.
constexpr int kServiceEpochRounds = 64;
constexpr int kMaxReportedFailures = 5;

bool all_finite(const std::vector<double>& values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

}  // namespace

const char* op_kind_name(int kind) {
  static const char* const names[kNumOps] = {
      "train_step", "cold_plan", "warm_plan", "engine_replay",
      "recovery_session"};
  return names[kind];
}

std::vector<Metric> RoundSamples::metrics() const {
  return {
      {"train_step_cpu_ms_p50", quantile(train_step_cpu_ms, 0.5), "ms"},
      {"plan_warm_ms_p50", quantile(warm_ms, 0.5), "ms"},
      {"modeled_samples_per_s", mean(modeled_samples_per_s), "samples/s"},
      {"modeled_bubble_ratio", mean(modeled_bubble_ratio), "ratio"},
  };
}

std::vector<Metric> RoundSamples::unbounded_metrics(int global_batch) const {
  const double step_ms = quantile(train_step_ms, 0.5);
  return {
      {"train_samples_per_s", global_batch * 1000.0 / step_ms, "samples/s"},
      {"train_step_ms_p50", step_ms, "ms"},
      {"train_step_ms_p90", quantile(train_step_ms, 0.9), "ms"},
      {"plan_cold_ms_p50", quantile(cold_ms, 0.5), "ms"},
      {"plan_cold_ms_p90", quantile(cold_ms, 0.9), "ms"},
      {"plan_warm_ms_p90", quantile(warm_ms, 0.9), "ms"},
      {"recovery_ms_p50", quantile(recovery_ms, 0.5), "ms"},
      {"recovery_ms_p90", quantile(recovery_ms, 0.9), "ms"},
  };
}

Session::Session(const std::string& workload, std::uint64_t seed,
                 Tracer& tracer)
    : spec_(make_workload(workload, seed)),
      seed_(seed),
      tracer_(tracer),
      rng_(mix_seed(seed, 2)),
      problem_(spec_.ddpm) {
  num_modules_ = problem_.make_backbone()->size();
  trainer_ = std::make_unique<PipelineTrainer>(problem_, spec_.config);
  trainer_->train(kWarmupIterations);

  const dpipe::PlanRequest& base = spec_.base_request;
  service_ = std::make_unique<dpipe::PlanService>();
  const auto plan = service_->plan(base);
  answered_.push_back({base.options.global_batch,
                       base.options.profiler.noise_seed, plan->program_text});
  const int dp = plan->config.data_parallel_degree;
  round_cold_.push_back({plan->program(), dp, base.options.global_batch / dp});
  const dpipe::ModelDesc grouped =
      dpipe::group_backbones(base.model).grouped_model;
  db_.emplace(
      dpipe::Profiler(base.options.profiler).profile(grouped, base.cluster).db);
  comm_.emplace(base.cluster);
  const dpipe::ExecutionEngine engine(*db_, *comm_);
  (void)engine.run(last_cold().program, engine_options(last_cold(), -1));
  ElasticOptions clean;
  clean.config = recovery_config();
  (void)ElasticRecoveryController(problem_, clean)
      .run(kSessionIterations);
}

dpipe::EngineOptions Session::engine_options(const Replayable& plan,
                                             int round) const {
  dpipe::EngineOptions opts;
  opts.data_parallel_degree = plan.dp;
  opts.group_batch = plan.group_batch;
  opts.actual_noise_seed = mix_seed(seed_, 7000 + round);
  return opts;
}

void Session::prepare_reference() {
  // An equivalent placement under the determinism contract: an even S >= 4
  // pipeline folded onto S/2 devices with two virtual stages each (the
  // same module cuts); otherwise the frozen encoder moved from the
  // bubbles of the previous iteration into the un-overlapped preamble
  // (cross-iteration off). Both must reproduce the losses bit for bit.
  PipelineRtConfig cfg = spec_.config;
  std::unique_ptr<PipelineTrainer> reference;
  if (cfg.num_stages >= 4 && cfg.num_stages % 2 == 0) {
    dpipe::rt::TrainerLoweringSpec lowering;
    lowering.num_stages = cfg.num_stages / 2;
    lowering.num_microbatches = cfg.num_microbatches;
    lowering.data_parallel_degree = cfg.data_parallel_degree;
    lowering.global_batch = cfg.global_batch;
    lowering.cross_iteration = cfg.cross_iteration;
    lowering.num_modules = num_modules_;
    lowering.family = dpipe::ScheduleFamily::kInterleaved;
    lowering.vstages = 2;
    reference = std::make_unique<PipelineTrainer>(
        problem_, cfg, dpipe::rt::lower_trainer_program(lowering).program);
    std::printf("reference: S=%d folded onto %d devices x 2 virtual stages\n",
                cfg.num_stages, cfg.num_stages / 2);
  } else {
    cfg.cross_iteration = !cfg.cross_iteration;
    reference = std::make_unique<PipelineTrainer>(problem_, cfg);
    std::printf("reference: cross_iteration=%d\n", cfg.cross_iteration);
  }
  reference->train(kReferenceIterations);
  reference_losses_ = reference->losses();
}

template <typename Fn>
bool Session::attempt(OpKind kind, const Fn& fn) {
  ++counts_.attempted[kind];
  bool ok = false;
  std::string error = "correctness check failed";
  try {
    ok = fn();
  } catch (const std::exception& e) {
    error = e.what();
  }
  if (!ok) {
    ++counts_.failed[kind];
    long total = 0;
    for (const long f : counts_.failed) {
      total += f;
    }
    if (total <= kMaxReportedFailures) {
      std::fprintf(stderr, "failed %s: %s\n", op_kind_name(kind),
                   error.c_str());
    }
  }
  return ok;
}

void Session::run_round(int round, RoundSamples& out) {
  const auto start = Clock::now();
  {
    const ScopedSpan span(tracer_, "bench.round", round);
    train_segment(round, out);
    plan_segment(round, out);
    replay_segment(round, out);
    recovery_segment(round, out);
  }
  out.round_ms.push_back(ms_since(start));
  ++out.rounds;
}

void Session::train_segment(int round, RoundSamples& out) {
  const int steps = spec_.train_steps_per_round;
  double burst_ms = 0.0;
  const double cpu_start_ms = process_cpu_ms();
  for (int k = 0; k < steps; ++k) {
    attempt(kTrainStep, [&] {
      const auto start = Clock::now();
      {
        const ScopedSpan span(tracer_, "runtime.train", round);
        trainer_->train(1);
      }
      burst_ms += ms_since(start);
      return std::isfinite(trainer_->losses().back());
    });
  }
  out.train_step_cpu_ms.push_back((process_cpu_ms() - cpu_start_ms) / steps);
  out.train_step_ms.push_back(burst_ms / steps);
}

int Session::next_batch() {
  // Seeded order, balanced over every pass through the list, so run
  // medians do not depend on which batches a seed happens to favour.
  if (batch_cursor_ == batch_order_.size()) {
    batch_order_ = spec_.batch_list;
    std::shuffle(batch_order_.begin(), batch_order_.end(), rng_);
    batch_cursor_ = 0;
  }
  return batch_order_[batch_cursor_++];
}

dpipe::PlanRequest Session::variant(double global_batch,
                                    std::uint64_t noise_seed) const {
  dpipe::PlanRequest request = spec_.base_request;
  request.options.global_batch = global_batch;
  request.options.profiler.noise_seed = noise_seed;
  return request;
}

void Session::plan_segment(int round, RoundSamples& out) {
  if (round > 0 && round % kServiceEpochRounds == 0) {
    service_ = std::make_unique<dpipe::PlanService>();
    answered_.clear();
  }
  // The round's request stream: a new request among repeats, in seeded
  // order (~90% repeats, so inserts run among hits).
  std::vector<char> stream(1 + kWarmPerRound, 0);
  stream[0] = 1;
  std::shuffle(stream.begin(), stream.end(), rng_);
  std::vector<double> warm;
  std::vector<Replayable> previous = std::move(round_cold_);
  round_cold_.clear();
  for (const char is_cold : stream) {
    if (is_cold != 0) {
      cold_plan(round, out);
    } else if (!answered_.empty()) {
      warm_plan(round, warm);
    }
  }
  if (round_cold_.empty()) {  // Every cold plan failed (and was counted).
    round_cold_ = std::move(previous);
  }
  if (!warm.empty()) {
    out.warm_ms.push_back(mean(warm));
  }
}

bool Session::cold_plan(int round, RoundSamples& out) {
  const dpipe::PlanRequest request =
      variant(next_batch(), mix_seed(seed_, 100000 + requests_issued_++));
  return attempt(kColdPlan, [&] {
    bool hit = true;
    std::shared_ptr<const dpipe::CachedPlan> plan;
    const auto start = Clock::now();
    {
      const ScopedSpan span(tracer_, "service.plan_cold", round);
      plan = service_->plan(request, &hit);
    }
    out.cold_ms.push_back(ms_since(start));
    dpipe::InstructionProgram program = plan->program();
    dpipe::require_valid_program(program);
    const int dp = plan->config.data_parallel_degree;
    round_cold_.push_back(
        {std::move(program), dp, request.options.global_batch / dp});
    answered_.push_back({request.options.global_batch,
                         request.options.profiler.noise_seed,
                         plan->program_text});
    return !hit;
  });
}

bool Session::warm_plan(int round, std::vector<double>& times) {
  const Answered& repeat =
      answered_[static_cast<std::size_t>(rng_() % answered_.size())];
  const dpipe::PlanRequest request =
      variant(repeat.global_batch, repeat.noise_seed);
  return attempt(kWarmPlan, [&] {
    bool hit = false;
    std::shared_ptr<const dpipe::CachedPlan> plan;
    const auto start = Clock::now();
    {
      const ScopedSpan span(tracer_, "service.plan_warm", round);
      plan = service_->plan(request, &hit);
    }
    times.push_back(ms_since(start));
    return hit && plan->program_text == repeat.program_text;
  });
}

void Session::replay_segment(int round, RoundSamples& out) {
  // Every cold plan of the round, so the replayed variants stay balanced.
  const dpipe::ExecutionEngine engine(*db_, *comm_);
  for (const Replayable& plan : round_cold_) {
    attempt(kReplay, [&] {
      dpipe::EngineResult result;
      {
        const ScopedSpan span(tracer_, "engine.run", round);
        result = engine.run(plan.program, engine_options(plan, round));
      }
      if (out.modeled_samples_per_s.size() < kModeledReplays) {
        out.modeled_samples_per_s.push_back(result.samples_per_second);
        out.modeled_bubble_ratio.push_back(result.steady_bubble_ratio);
      }
      return std::isfinite(result.samples_per_second) &&
             result.samples_per_second > 0.0 &&
             result.steady_bubble_ratio >= 0.0 &&
             result.steady_bubble_ratio < 1.0;
    });
  }
}

ElasticCrash Session::draw_crash() {
  // An iteration in [1, kSessionIterations), random stage, micro and
  // replica (the controller folds them onto the geometry live then).
  ElasticCrash crash;
  crash.iteration = 1 + static_cast<int>(rng_() % (kSessionIterations - 1));
  crash.stage = static_cast<int>(rng_() % 4);
  crash.micro = static_cast<int>(rng_() % 8);
  crash.replica = static_cast<int>(rng_() % 2);
  return crash;
}

bool Session::elastic_session(const std::vector<ElasticCrash>& crashes,
                              int round, double& wall_ms) {
  ElasticOptions options;
  options.config = recovery_config();
  options.crashes = crashes;
  ElasticRecoveryController controller(problem_, options);
  const auto start = Clock::now();
  {
    const ScopedSpan span(tracer_,
                          crashes.empty() ? "fault.session_clean"
                                          : "fault.session_lossy",
                          round);
    (void)controller.run(kSessionIterations);
  }
  wall_ms = ms_since(start);
  const dpipe::rt::RecoveryStats& stats = controller.stats();
  recovery_totals_.stage_cache_hits += stats.stage_cache_hits;
  recovery_totals_.stage_cache_misses += stats.stage_cache_misses;
  recovery_totals_.iterations_lost += stats.iterations_lost;
  return static_cast<int>(controller.losses().size()) ==
             kSessionIterations &&
         all_finite(controller.losses()) &&
         controller.replica_divergence() == 0.0f &&
         stats.iterations_lost == 0 &&
         stats.faults == static_cast<int>(crashes.size());
}

void Session::recovery_segment(int round, RoundSamples& out) {
  for (int p = 0; p < spec_.recovery_pairs; ++p) {
    const std::vector<ElasticCrash> crashes = {draw_crash()};
    attempt(kRecovery, [&] {
      // The same session with and without its loss, back to back;
      // alternate which goes first.
      double lossy_ms = 0.0;
      double clean_ms = 0.0;
      const bool lossy_first = (round + p) % 2 == 0;
      bool ok = lossy_first ? elastic_session(crashes, round, lossy_ms)
                            : elastic_session({}, round, clean_ms);
      ok = (lossy_first ? elastic_session({}, round, clean_ms)
                        : elastic_session(crashes, round, lossy_ms)) &&
           ok;
      out.recovery_ms.push_back(lossy_ms - clean_ms);
      return ok;
    });
  }
}

void Session::finish() {
  const std::vector<double>& losses = trainer_->losses();
  const std::size_t window = std::min<std::size_t>(32, losses.size() / 4);
  const std::vector<double> first(losses.begin(), losses.begin() + window);
  const std::vector<double> last(losses.end() - window, losses.end());
  const bool finite = all_finite(losses);
  const bool falls = window > 0 && mean(last) < mean(first);
  bool identical = losses.size() >= reference_losses_.size() &&
                   !reference_losses_.empty();
  for (std::size_t i = 0; identical && i < reference_losses_.size(); ++i) {
    identical = losses[i] == reference_losses_[i];
  }
  std::printf(
      "checks: losses finite=%d, fall %.6g -> %.6g (%zu-step windows)=%d, "
      "first %zu losses bit-identical to reference=%d\n",
      finite, mean(first), mean(last), window, falls,
      reference_losses_.size(), identical);
  counts_.failed[kTrainStep] += !finite + !falls + !identical;
}

}  // namespace perfbench
