#include "layers.h"

#include <optional>
#include <sstream>
#include <thread>

#include "common/hash.h"
#include "common/parallel.h"
#include "core/instr/validate.h"
#include "core/partition/bidirectional.h"
#include "core/partition/grouping.h"
#include "core/partition/stage_cache.h"
#include "runtime/channel.h"
#include "runtime/kernels.h"
#include "runtime/optim.h"
#include "runtime/pool.h"
#include "service/request.h"

namespace perfbench {

namespace {

namespace rt = dpipe::rt;

/// Session id of probe spans in the Chrome trace (rounds use their index).
constexpr int kProbeSession = 1000000;
/// Planner-side probes (whole plans) repeat this many times.
constexpr int kPlanReps = 5;
/// Cold requests in the service probe stream; each is followed by
/// kWarmPerRound repeats, like a round.
constexpr int kServiceColdRequests = 6;

/// Runs `fn` under a span named `name` and returns its wall time in ms.
template <typename Fn>
double timed(Tracer& tracer, const char* name, const Fn& fn) {
  const auto start = Clock::now();
  {
    const ScopedSpan span(tracer, name, kProbeSession);
    fn();
  }
  return ms_since(start);
}

/// Median ms of `reps` spanned calls.
template <typename Fn>
double median_timed(Tracer& tracer, const char* name, int reps,
                    const Fn& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    times.push_back(timed(tracer, name, fn));
  }
  return median(times);
}

/// Calls of `fn` that last at least ~1 ms together.
template <typename Fn>
int calls_per_batch(const Fn& fn) {
  int calls = 1;
  for (;;) {
    const auto start = Clock::now();
    for (int i = 0; i < calls; ++i) {
      fn();
    }
    if (ms_since(start) >= 1.0 || calls >= (1 << 20)) {
      return calls;
    }
    calls *= 2;
  }
}

/// Per-call ms of one spanned batch of `calls` calls.
template <typename Fn>
double batch_ms(Tracer& tracer, const char* name, int calls, const Fn& fn) {
  return timed(tracer, name,
               [&] {
                 for (int i = 0; i < calls; ++i) {
                   fn();
                 }
               }) /
         calls;
}

/// Median per-call ms of a call too short to time alone: batches of calls
/// lasting at least ~1 ms each, median over `batches`.
template <typename Fn>
double per_call_ms(Tracer& tracer, const char* name, int batches,
                   const Fn& fn) {
  const int calls = calls_per_batch(fn);
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    per_call.push_back(batch_ms(tracer, name, calls, fn));
  }
  return median(per_call);
}

double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

void add(std::vector<Metric>& out, const char* name, double value,
         const char* unit) {
  out.push_back({name, value, unit});
}

void parallel_probes(Tracer& tracer, const dpipe::PlanRequest& request,
                     std::vector<Metric>& out) {
  dpipe::PlannerOptions options = request.options;
  dpipe::Planner::apply_default_candidates(options,
                                           request.cluster.world_size());
  const std::size_t grid =
      options.group_candidates.size() * options.stage_candidates.size() *
      options.micro_candidates.size() * options.vstage_candidates.size();
  add(out, "parallel.pool_create_us",
      1000.0 * median_timed(tracer, "parallel.pool_create", 40, [&] {
        const dpipe::ThreadPool pool(options.search_threads);
      }),
      "us");
  dpipe::ThreadPool pool(options.search_threads);
  add(out, "parallel.fork_join_us",
      1000.0 * median_timed(tracer, "parallel.fork_join", 200, [&] {
        pool.parallel_for(grid, [](std::size_t) {});
      }),
      "us");
}

void plan_probes(Tracer& tracer, const Session& session,
                 std::vector<Metric>& out) {
  const dpipe::PlanRequest request = session.spec().base_request;
  const dpipe::ModelDesc grouped =
      dpipe::group_backbones(request.model).grouped_model;
  add(out, "profiler.profile_ms",
      median_timed(tracer, "profiler.profile", 10,
                   [&] {
                     (void)dpipe::Profiler(request.options.profiler)
                         .profile(grouped, request.cluster);
                   }),
      "ms");

  // Whole plans as a cold service plan runs them: a fresh stage-cost store
  // (a new request context starts cold), the request's own thread setting.
  std::vector<double> search_ms;
  std::vector<double> partition_ms;
  std::vector<double> fill_ms;
  dpipe::Plan plan;
  std::optional<dpipe::Planner> planner;
  for (int i = 0; i < kPlanReps; ++i) {
    dpipe::StageCostStore store;
    dpipe::PlannerOptions options = request.options;
    options.cache_store = &store;
    planner.emplace(request.model, request.cluster, options);
    timed(tracer, "planner.plan", [&] { plan = planner->plan(); });
    search_ms.push_back(plan.search.search_wall_ms);
    partition_ms.push_back(plan.partitioning_wall_ms);
    fill_ms.push_back(plan.filling_wall_ms);
  }
  add(out, "planner.search_ms", median(search_ms), "ms");
  add(out, "planner.partition_ms", median(partition_ms), "ms");
  add(out, "planner.fill_ms", median(fill_ms), "ms");
  add(out, "planner.combos_evaluated", plan.search.combos_evaluated, "count");
  add(out, "planner.threads", plan.search.threads, "count");
  add(out, "planner.stage_cache_hit_ratio",
      ratio(static_cast<double>(plan.search.cache_hits),
            static_cast<double>(plan.search.cache_hits +
                                plan.search.cache_misses)),
      "ratio");

  // The selected combo, step by step.
  const dpipe::ProfileDb& db = planner->db();
  const dpipe::DpPartitioner partitioner(db, planner->comm());
  const dpipe::ScheduleBuilder builder(db, planner->comm());
  const std::vector<int>& backbones = planner->model().backbone_ids;
  const dpipe::PartitionOptions& opts = plan.partition_opts;
  std::vector<double> selected_ms;
  std::vector<double> build_ms;
  dpipe::Schedule schedule;
  for (int i = 0; i < 10; ++i) {
    dpipe::StageCostCache cache;
    if (backbones.size() == 1) {
      dpipe::PartitionResult part;
      selected_ms.push_back(timed(tracer, "partition.partition_single", [&] {
        part = partitioner.partition_single(backbones[0], opts, &cache);
      }));
      build_ms.push_back(timed(tracer, "schedule.build_1f1b", [&] {
        schedule = builder.build_1f1b(backbones[0], part.stages, opts, &cache);
      }));
    } else {
      dpipe::BiPartitionResult part;
      selected_ms.push_back(
          timed(tracer, "partition.partition_bidirectional", [&] {
            part = dpipe::partition_bidirectional(
                partitioner, backbones[0], backbones[1], opts, &cache);
          }));
      build_ms.push_back(timed(tracer, "schedule.build_bidirectional", [&] {
        schedule = builder.build_bidirectional(backbones[0], part.down_stages,
                                               backbones[1], part.up_stages,
                                               opts, &cache);
      }));
    }
  }
  add(out, "partition.selected_ms", median(selected_ms), "ms");

  // Mean uncached stage_cost call over every stage range of up to 8 layers
  // at the selected replica count.
  const int replicas = std::max(1, opts.group_size / opts.num_stages);
  long calls = 0;
  const double sweep_ms = timed(tracer, "partition.stage_cost", [&] {
    for (const int b : backbones) {
      const int layers = planner->model().components[b].num_layers();
      for (int lo = 0; lo < layers; ++lo) {
        for (int hi = lo + 1; hi <= std::min(layers, lo + 8); ++hi) {
          (void)partitioner.stage_cost(b, lo, hi, replicas, 0, opts);
          ++calls;
        }
      }
    }
  });
  add(out, "partition.stage_cost_ns", 1e6 * sweep_ms / calls, "ns");
  add(out, "schedule.build_ms", median(build_ms), "ms");

  dpipe::FillOptions fill_opts;
  fill_opts.training_batch =
      request.options.global_batch / opts.data_parallel_degree;
  fill_opts.enable_fill = request.options.enable_fill;
  fill_opts.enable_partial = request.options.enable_partial;
  const dpipe::BubbleFiller filler(db);
  add(out, "fill.fill_ms",
      median_timed(tracer, "fill.fill", 10,
                   [&] { (void)filler.fill(schedule, fill_opts); }),
      "ms");
  double frozen_device_ms = 0.0;
  for (const auto* ops : {&plan.fill.placed, &plan.fill.leftover}) {
    for (const dpipe::PlacedFrozenOp& op : *ops) {
      frozen_device_ms += (op.end_ms - op.start_ms) * op.devices.size();
    }
  }
  add(out, "fill.filled_share",
      ratio(plan.fill.filled_device_ms, frozen_device_ms), "ratio");

  add(out, "instr.generate_ms",
      median_timed(tracer, "instr.generate_instructions", 10,
                   [&] {
                     (void)dpipe::generate_instructions(
                         db, plan.fill.filled_schedule, plan.fill, opts);
                   }),
      "ms");
  add(out, "instr.validate_ms",
      median_timed(tracer, "instr.require_valid_program", 10,
                   [&] { dpipe::require_valid_program(plan.program); }),
      "ms");
  std::size_t ops = 0;
  for (const auto* streams : {&plan.program.per_device,
                              &plan.program.preamble}) {
    for (const auto& stream : *streams) {
      ops += stream.size();
    }
  }
  add(out, "instr.program_ops", static_cast<double>(ops), "count");
}

void engine_probes(Tracer& tracer, const Session& session,
                   std::vector<Metric>& out) {
  const dpipe::ExecutionEngine engine(session.db(), session.comm());
  const Session::Replayable& plan = session.last_cold();
  dpipe::EngineOptions opts = session.engine_options(plan, -1);
  opts.record_timelines = true;
  const dpipe::EngineResult result = engine.run(plan.program, opts);
  double end_ms = 0.0;
  for (const dpipe::DeviceTimeline& device : result.timelines.devices) {
    for (const dpipe::PipelineOp& op : device.ops) {
      end_ms = std::max(end_ms, op.end_ms);
    }
  }
  double idle_max = 0.0;
  double idle_min = 1.0;
  for (const dpipe::DeviceTimeline& device : result.timelines.devices) {
    double busy_ms = 0.0;
    for (const dpipe::PipelineOp& op : device.ops) {
      busy_ms += op.duration_ms();
    }
    const double idle = 1.0 - ratio(busy_ms, end_ms);
    idle_max = std::max(idle_max, idle);
    idle_min = std::min(idle_min, idle);
  }
  add(out, "engine.idle_ratio_max", idle_max, "ratio");
  add(out, "engine.idle_ratio_min", idle_min, "ratio");
  add(out, "engine.replay_ms",
      median_timed(tracer, "engine.run", 20,
                   [&] {
                     (void)engine.run(plan.program,
                                      session.engine_options(plan, -1));
                   }),
      "ms");
}

void service_probes(Tracer& tracer, const Session& session,
                    std::vector<Metric>& out) {
  const dpipe::PlanRequest base = session.spec().base_request;
  const std::string text = dpipe::canonical_request_text(base);
  // The sink keeps the inlined hash from being optimized away.
  volatile std::uint64_t sink = 0;
  add(out, "service.fingerprint_us",
      1000.0 * per_call_ms(tracer, "service.fingerprint_bytes", 15,
                           [&] {
                             sink = sink ^ dpipe::fingerprint_bytes(text).lo;
                           }),
      "us");

  // A short stream with the rounds' mix: each new request is followed by
  // kWarmPerRound repeats of requests already answered.
  dpipe::PlanService service;
  std::vector<dpipe::PlanRequest> answered;
  const std::vector<int>& batches = session.spec().batch_list;
  (void)service.plan(base);
  for (int c = 0; c < kServiceColdRequests; ++c) {
    dpipe::PlanRequest request = base;
    request.options.global_batch = batches[c % batches.size()];
    request.options.profiler.noise_seed = mix_seed(0xC01D, c);
    timed(tracer, "service.plan_cold", [&] { (void)service.plan(request); });
    answered.push_back(request);
    for (int w = 0; w < kWarmPerRound; ++w) {
      const dpipe::PlanRequest& repeat = answered[(c + w) % answered.size()];
      timed(tracer, "service.plan_warm", [&] { (void)service.plan(repeat); });
    }
  }
  // Warm time minus canonicalization, timed in alternating batches so
  // both see the same allocator, cache and host state.
  const auto canonicalize = [&] {
    (void)dpipe::canonical_request_text(base);
  };
  const auto warm = [&] { (void)service.plan(base); };
  const int calls = calls_per_batch(warm);
  std::vector<double> canonicalize_ms;
  std::vector<double> lookup_ms;
  for (int b = 0; b < 15; ++b) {
    const double c = batch_ms(tracer, "service.canonical_request_text",
                              calls, canonicalize);
    canonicalize_ms.push_back(c);
    lookup_ms.push_back(batch_ms(tracer, "service.plan_warm", calls, warm) -
                        c);
  }
  add(out, "service.canonicalize_us", 1000.0 * median(canonicalize_ms), "us");
  add(out, "service.lookup_us", 1000.0 * median(lookup_ms), "us");
  const dpipe::PlanService::Stats stats = service.stats();
  add(out, "service.cache_hit_ratio",
      ratio(static_cast<double>(stats.cache.hits),
            static_cast<double>(stats.cache.hits + stats.cache.misses)),
      "ratio");
  add(out, "service.planner_runs", static_cast<double>(stats.planner_runs),
      "count");
  add(out, "service.stage_store_hit_ratio",
      ratio(static_cast<double>(stats.stage_costs.cost_hits),
            static_cast<double>(stats.stage_costs.cost_hits +
                                stats.stage_costs.cost_misses)),
      "ratio");
}

void runtime_probes(Tracer& tracer, Session& session,
                    const RoundSamples& untraced, std::vector<Metric>& out) {
  rt::PipelineTrainer& trainer = session.trainer();
  const rt::PipelineRtConfig& cfg = trainer.config();
  const rt::DdpmProblem& problem = session.problem();
  const std::vector<int>& cut = trainer.binding().module_cut();
  const int stages = static_cast<int>(cut.size()) - 1;
  const int replicas = cfg.data_parallel_degree;
  const int micros = cfg.num_microbatches;
  const int rows = cfg.global_batch / (replicas * micros);

  // One micro-batch through every stage's module range, forward then
  // backward, on a private copy of the backbone.
  const std::unique_ptr<rt::Sequential> net = problem.make_backbone();
  rt::Rng rng(0x5EED);
  const rt::Tensor input = rng.randn({rows, problem.input_dim()});
  std::vector<double> fwd_ms;
  std::vector<double> bwd_ms;
  for (int rep = 0; rep < 200; ++rep) {
    rt::Tensor act = input;
    double fwd = 0.0;
    for (int s = 0; s < stages; ++s) {
      fwd += timed(tracer, "runtime.forward_range", [&] {
        act = net->forward_range(std::move(act), cut[s], cut[s + 1]);
      });
    }
    rt::Tensor grad = act;
    double bwd = 0.0;
    for (int s = stages - 1; s >= 0; --s) {
      bwd += timed(tracer, "runtime.backward_range", [&] {
        grad = net->backward_range(std::move(grad), cut[s], cut[s + 1]);
      });
    }
    fwd_ms.push_back(fwd);
    bwd_ms.push_back(bwd);
  }
  const double fwd_total_ms = median(fwd_ms);
  const double bwd_total_ms = median(bwd_ms);
  add(out, "runtime.stage_fwd_us", 1000.0 * fwd_total_ms / stages, "us");
  add(out, "runtime.stage_bwd_us", 1000.0 * bwd_total_ms / stages, "us");

  const rt::DdpmProblem::Batch batch = problem.make_batch(0, cfg.global_batch);
  const double encode_ms =
      median_timed(tracer, "runtime.encode_condition", 50,
                   [&] { (void)problem.encode_condition(batch.cond_raw); });
  add(out, "runtime.encode_us", 1000.0 * encode_ms, "us");

  rt::Adam adam(cfg.lr);
  const std::vector<rt::Tensor*> params = net->params();
  const std::vector<rt::Tensor*> grads = net->grads();
  const double optim_ms = median_timed(tracer, "runtime.adam_step", 50,
                                       [&] { adam.step(params, grads); });
  add(out, "runtime.optim_ms", optim_ms, "ms");

  // GEMM at the largest Linear of the backbone, at micro-batch rows.
  const rt::Linear* largest = nullptr;
  for (int m = 0; m < net->size(); ++m) {
    const auto* linear = dynamic_cast<const rt::Linear*>(&net->module(m));
    if (linear != nullptr &&
        (largest == nullptr ||
         linear->weight.numel() > largest->weight.numel())) {
      largest = linear;
    }
  }
  const int k = largest->weight.rows();
  const int n = largest->weight.cols();
  const rt::Tensor a = rng.randn({rows, k});
  rt::Tensor c({rows, n});
  const double gemm_ms =
      per_call_ms(tracer, "runtime.matmul_into", 15,
                  [&] { rt::matmul_into(c, a, largest->weight); });
  add(out, "runtime.gemm_gflops", 2.0 * rows * k * n / (gemm_ms * 1e6),
      "GFLOP/s");

  // Column sums of a bias gradient (micro-batch rows x widest output).
  const rt::Tensor g = rng.randn({rows, n});
  rt::Tensor col({1, n});
  const double sum_ms = per_call_ms(tracer, "runtime.sum_rows_into", 15,
                                    [&] { rt::sum_rows_into(col, g); });
  add(out, "runtime.sum_rows_gbs",
      static_cast<double>(g.numel() + col.numel()) * sizeof(float) /
          (sum_ms * 1e6),
      "GB/s");

  // Two-thread Channel ping-pong.
  rt::Channel<int> ping;
  rt::Channel<int> pong;
  std::thread echo([&] {
    while (const std::optional<int> v = ping.pop()) {
      (void)pong.push(*v);
    }
  });
  std::vector<double> rtt_ms;
  for (int b = 0; b < 7; ++b) {
    constexpr int kTrips = 1000;
    rtt_ms.push_back(timed(tracer, "runtime.channel_ping_pong", [&] {
                       for (int i = 0; i < kTrips; ++i) {
                         (void)ping.push(i);
                         (void)pong.pop();
                       }
                     }) /
                     kTrips);
  }
  ping.close();
  echo.join();
  add(out, "runtime.channel_rtt_us", 1000.0 * median(rtt_ms), "us");

  // Serial compute of one step: every micro-batch forward (plus the
  // self-conditioning pass in expectation) and backward on every replica,
  // one optimizer step per replica, one encoder pass over the batch.
  const rt::DdpmConfig& ddpm = problem.config();
  const double self_cond = ddpm.self_conditioning ? ddpm.self_cond_prob : 0.0;
  const double serial_ms =
      replicas * micros * (fwd_total_ms * (1.0 + self_cond) + bwd_total_ms) +
      replicas * optim_ms + encode_ms;
  add(out, "runtime.wave_overhead_share",
      1.0 - serial_ms / quantile(untraced.train_step_ms, 0.5), "ratio");

  const rt::TensorPool::Stats pool = rt::TensorPool::global().stats();
  add(out, "runtime.pool_hit_ratio",
      ratio(static_cast<double>(pool.allocs_avoided),
            static_cast<double>(pool.allocs_avoided + pool.allocs_fresh)),
      "ratio");
  add(out, "runtime.pool_peak_mb",
      static_cast<double>(pool.peak_bytes) / (1024.0 * 1024.0), "MB");

  constexpr int kProfiledSteps = 8;
  rt::set_op_profiling(true);
  rt::reset_op_profile();
  timed(tracer, "runtime.train", [&] { trainer.train(kProfiledSteps); });
  const rt::RuntimeOpProfile profile = rt::op_profile();
  rt::set_op_profiling(false);
  add(out, "runtime.matmul_calls_per_step",
      static_cast<double>(profile.matmul_calls) / kProfiledSteps, "count");
  add(out, "runtime.eltwise_calls_per_step",
      static_cast<double>(profile.eltwise_calls) / kProfiledSteps, "count");
}

void elastic_probes(Tracer& tracer, const Session& session,
                    std::vector<Metric>& out) {
  // One device loss, recovered step by step with the public calls the
  // controller makes: salvage, re-plan on a fresh controller (a session's
  // first loss), re-shard, rebuild (new trainer + restore), plus the
  // on-disk checkpoint format.
  const rt::PipelineRtConfig cfg = recovery_config();
  const rt::DdpmProblem& problem = session.problem();
  const int world = cfg.num_stages * cfg.data_parallel_degree;
  std::vector<double> salvage_ms, replan_ms, reshard_ms, rebuild_ms, save_ms,
      load_ms;
  for (int rep = 0; rep < 8; ++rep) {
    rt::PipelineTrainer trainer(problem, cfg);
    rt::RtFaultInjection fault;
    fault.iteration = 1 + rep % 3;
    fault.stage = rep % cfg.num_stages;
    trainer.arm_fault(fault);
    try {
      trainer.train(fault.iteration + 1);
    } catch (const rt::StageFailure&) {
    }
    rt::TrainerCheckpoint salvaged;
    salvage_ms.push_back(timed(tracer, "fault.salvage_checkpoint", [&] {
      salvaged = trainer.salvage_checkpoint();
    }));
    rt::ElasticOptions options;
    options.config = cfg;
    rt::ElasticRecoveryController controller(problem, options);
    dpipe::Plan plan;
    replan_ms.push_back(timed(tracer, "fault.plan_for_world", [&] {
      plan = controller.plan_for_world(world - 1);
    }));
    rt::PipelineRtConfig next = cfg;
    next.num_stages = plan.config.num_stages;
    next.num_microbatches = plan.config.num_microbatches;
    next.data_parallel_degree = plan.config.data_parallel_degree;
    std::unique_ptr<rt::PipelineTrainer> rebuilt;
    const double construct_ms = timed(tracer, "runtime.trainer_build", [&] {
      rebuilt = std::make_unique<rt::PipelineTrainer>(problem, next,
                                                      plan.program);
    });
    rt::TrainerCheckpoint resharded;
    reshard_ms.push_back(timed(tracer, "fault.reshard_checkpoint", [&] {
      resharded = rt::reshard_checkpoint(salvaged,
                                         rebuilt->binding().module_cut(),
                                         next.data_parallel_degree);
    }));
    rebuild_ms.push_back(construct_ms +
                         timed(tracer, "runtime.trainer_restore",
                               [&] { rebuilt->restore(resharded); }));
    std::ostringstream saved;
    save_ms.push_back(timed(tracer, "fault.save_checkpoint", [&] {
      rt::save_checkpoint(saved, salvaged);
    }));
    std::istringstream in(saved.str());
    load_ms.push_back(timed(tracer, "fault.load_checkpoint",
                            [&] { (void)rt::load_checkpoint(in); }));
  }
  add(out, "elastic.salvage_ms", median(salvage_ms), "ms");
  add(out, "elastic.replan_ms", median(replan_ms), "ms");
  add(out, "elastic.reshard_ms", median(reshard_ms), "ms");
  add(out, "elastic.rebuild_ms", median(rebuild_ms), "ms");
  add(out, "elastic.checkpoint_save_ms", median(save_ms), "ms");
  add(out, "elastic.checkpoint_load_ms", median(load_ms), "ms");
  const rt::RecoveryStats& totals = session.recovery_totals();
  add(out, "elastic.store_hit_ratio",
      ratio(static_cast<double>(totals.stage_cache_hits),
            static_cast<double>(totals.stage_cache_hits +
                                totals.stage_cache_misses)),
      "ratio");
  add(out, "elastic.iterations_lost", totals.iterations_lost, "count");
}

}  // namespace

std::vector<Metric> measure_layers(Session& session, Tracer& tracer,
                                   const RoundSamples& untraced) {
  std::vector<Metric> out;
  const auto probe = [&](const char* layer, const auto& fn) {
    const ScopedSpan span(tracer, std::string("bench.probe_") + layer,
                          kProbeSession);
    fn();
  };
  probe("parallel",
        [&] { parallel_probes(tracer, session.spec().base_request, out); });
  probe("plan", [&] { plan_probes(tracer, session, out); });
  probe("engine", [&] { engine_probes(tracer, session, out); });
  probe("service", [&] { service_probes(tracer, session, out); });
  probe("runtime", [&] { runtime_probes(tracer, session, untraced, out); });
  probe("fault", [&] { elastic_probes(tracer, session, out); });
  return out;
}

}  // namespace perfbench
