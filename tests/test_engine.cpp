#include <gtest/gtest.h>

#include "core/fill/filler.h"
#include "core/instr/instructions.h"
#include "core/partition/partitioner.h"
#include "engine/engine.h"
#include "engine/memory.h"
#include "model/zoo.h"

namespace dpipe {
namespace {

struct Pipeline {
  ModelDesc model;
  ClusterSpec cluster;
  CommModel comm;
  ProfileDb db;
  DpPartitioner partitioner;
  ScheduleBuilder builder;
  PartitionOptions opts;
  Schedule schedule;
  FillResult fill;
  InstructionProgram program;

  Pipeline(ModelDesc m, int backbone, int stages, int micro, double batch,
           bool do_fill = true, int machines = 1)
      : model(std::move(m)),
        cluster(make_p4de_cluster(machines)),
        comm(cluster),
        db(model, AnalyticCostModel(cluster.device, NoiseSource(0xD1FF, 0.02)),
           default_batch_grid()),
        partitioner(db, comm),
        builder(db, comm) {
    opts.num_stages = stages;
    opts.num_microbatches = micro;
    opts.group_size = 8 * machines;
    opts.microbatch_size = batch / micro;
    opts.self_conditioning = model.self_conditioning;
    opts.self_cond_prob = model.self_cond_prob;
    const PartitionResult part =
        partitioner.partition_single(backbone, opts);
    schedule = builder.build_1f1b(backbone, part.stages, opts);
    FillOptions fill_opts;
    fill_opts.training_batch = batch;
    fill_opts.enable_fill = do_fill;
    fill = BubbleFiller(db).fill(schedule, fill_opts);
    program = generate_instructions(db, fill.filled_schedule, fill, opts);
  }

  EngineResult run(int iterations = 4) const {
    ExecutionEngine engine(db, comm);
    EngineOptions eopts;
    eopts.iterations = iterations;
    eopts.group_batch = opts.microbatch_size * opts.num_microbatches;
    return engine.run(program, eopts);
  }
};

TEST(Instructions, EveryDeviceGetsAStream) {
  const Pipeline p(make_stable_diffusion_v21(), 2, 4, 4, 64.0);
  ASSERT_EQ(static_cast<int>(p.program.per_device.size()), 8);
  for (const auto& stream : p.program.per_device) {
    EXPECT_FALSE(stream.empty());
  }
  for (const auto& stream : p.program.preamble) {
    EXPECT_FALSE(stream.empty());
  }
}

TEST(Instructions, SendRecvPairsMatch) {
  const Pipeline p(make_stable_diffusion_v21(), 2, 4, 4, 64.0);
  int sends = 0;
  int recvs = 0;
  for (const auto& stream : p.program.per_device) {
    for (const Instruction& i : stream) {
      if (i.kind == InstrKind::kSendActivation ||
          i.kind == InstrKind::kSendGradient) {
        ++sends;
        EXPECT_GE(i.peer, 0);
        EXPECT_LT(i.peer, 8);
        EXPECT_GT(i.size_mb, 0.0);
      }
      if (i.kind == InstrKind::kRecvActivation ||
          i.kind == InstrKind::kRecvGradient) {
        ++recvs;
      }
    }
  }
  EXPECT_GT(sends, 0);
  EXPECT_EQ(sends, recvs);
}

TEST(Instructions, OneAllreducePerStagePerReplica) {
  const Pipeline p(make_stable_diffusion_v21(), 2, 4, 4, 64.0);
  int allreduces = 0;
  int steps = 0;
  for (const auto& stream : p.program.per_device) {
    for (const Instruction& i : stream) {
      allreduces += i.kind == InstrKind::kAllReduceGrads ? 1 : 0;
      steps += i.kind == InstrKind::kOptimizerStep ? 1 : 0;
    }
  }
  // 2 stages x 4 replicas each.
  EXPECT_EQ(allreduces, 8);
  EXPECT_EQ(steps, 8);
}

TEST(Engine, RunsWithoutDeadlockAcrossConfigs) {
  for (const int stages : {2, 4, 8}) {
    const Pipeline p(make_stable_diffusion_v21(), 2, stages, 4, 64.0);
    const EngineResult result = p.run();
    EXPECT_GT(result.steady_iteration_ms, 0.0) << "stages " << stages;
    EXPECT_GT(result.samples_per_second, 0.0);
  }
}

TEST(Engine, FirstIterationIncludesPreamble) {
  const Pipeline p(make_stable_diffusion_v21(), 2, 4, 4, 64.0);
  const EngineResult result = p.run();
  // Iteration 0 runs the non-trainable part un-overlapped (§3.2), so it is
  // strictly longer than the steady iterations.
  EXPECT_GT(result.iterations[0].duration_ms(),
            result.steady_iteration_ms * 1.1);
}

TEST(Engine, SteadyIterationsAreConsistent) {
  const Pipeline p(make_controlnet_v10(), 4, 4, 4, 64.0);
  const EngineResult result = p.run(6);
  for (std::size_t k = 2; k < result.iterations.size(); ++k) {
    EXPECT_NEAR(result.iterations[k].duration_ms(),
                result.iterations[1].duration_ms(),
                result.iterations[1].duration_ms() * 0.05);
  }
}

TEST(Engine, MeasuredTimeTracksPlannedMakespan) {
  const Pipeline p(make_stable_diffusion_v21(), 2, 4, 4, 64.0);
  const EngineResult result = p.run();
  // Measured steady iteration should be within ~15% of the planned filled
  // schedule makespan (instruction order is fixed; only +/-2% noise and
  // modeling gaps separate them).
  EXPECT_NEAR(result.steady_iteration_ms,
              p.fill.filled_schedule.makespan_ms,
              p.fill.filled_schedule.makespan_ms * 0.15);
}

TEST(Engine, FillingReducesMeasuredBubbleRatio) {
  const Pipeline filled(make_stable_diffusion_v21(), 2, 4, 4, 64.0, true);
  const Pipeline unfilled(make_stable_diffusion_v21(), 2, 4, 4, 64.0, false);
  const EngineResult with = filled.run();
  const EngineResult without = unfilled.run();
  EXPECT_LT(with.steady_bubble_ratio, without.steady_bubble_ratio);
  EXPECT_GT(with.samples_per_second, without.samples_per_second);
}

TEST(Engine, MeasuredBubbleRatioNearPaperTarget) {
  // Paper §6.2: DiffusionPipe reduces the bubble ratio to < 5% on 8 GPUs.
  // Accept < 12% here (our greedy placement is not tuned per batch size).
  const Pipeline p(make_stable_diffusion_v21(), 2, 4, 8, 128.0);
  const EngineResult result = p.run();
  EXPECT_LT(result.steady_bubble_ratio, 0.12);
}

TEST(Engine, ThroughputScalesWithDataParallelDegree) {
  const Pipeline p(make_stable_diffusion_v21(), 2, 4, 4, 64.0);
  // A 4-machine cluster hosts 4 data-parallel copies of the 8-GPU group.
  const CommModel wide_comm(make_p4de_cluster(4));
  ExecutionEngine engine(p.db, wide_comm);
  EngineOptions eopts;
  eopts.iterations = 3;
  eopts.group_batch = 64.0;
  const double one = engine.run(p.program, eopts).samples_per_second;
  eopts.data_parallel_degree = 4;
  const double four = engine.run(p.program, eopts).samples_per_second;
  EXPECT_GT(four, one * 2.5);  // Sub-linear: allreduce crosses machines.
  EXPECT_LE(four, one * 4.0 + 1e-6);
}

TEST(Engine, RejectsOversizedDataParallelDegree) {
  const Pipeline p(make_stable_diffusion_v21(), 2, 4, 4, 64.0);
  ExecutionEngine engine(p.db, p.comm);  // 1 machine = 8 devices.
  EngineOptions eopts;
  eopts.data_parallel_degree = 4;
  EXPECT_THROW((void)engine.run(p.program, eopts), std::invalid_argument);
}

TEST(Engine, RecordedTimelinesMatchReportedBusyTime) {
  const Pipeline p(make_stable_diffusion_v21(), 2, 4, 4, 64.0);
  ExecutionEngine engine(p.db, p.comm);
  EngineOptions eopts;
  eopts.iterations = 3;
  eopts.group_batch = 64.0;
  eopts.record_timelines = true;
  const EngineResult result = engine.run(p.program, eopts);
  ASSERT_EQ(result.timelines.group_size, 8);
  // Timelines must be per-device non-overlapping and chronologically
  // ordered, like any Schedule.
  for (const DeviceTimeline& device : result.timelines.devices) {
    EXPECT_FALSE(device.ops.empty());
    double cursor = 0.0;
    for (const PipelineOp& op : device.ops) {
      EXPECT_GE(op.start_ms, cursor - 1e-9);
      cursor = op.end_ms;
    }
  }
  // The measured schedule round-trips through the bubble extractor: total
  // idle fraction across the whole run must be consistent with the
  // per-iteration bubble ratios (order-of-magnitude cross-check).
  const double ratio =
      bubble_ratio(result.timelines, extract_bubbles(result.timelines, 0.1));
  EXPECT_GT(ratio, 0.0);
  EXPECT_LT(ratio, 0.5);
  // Gradient syncs surface as link ops: one per stage per iteration.
  EXPECT_EQ(result.timelines.link_ops.size(), 4u * 3u);
}

TEST(Engine, SampledSelfConditioningVariesPerIteration) {
  const Pipeline p(make_stable_diffusion_v21(), 2, 4, 4, 64.0);
  ExecutionEngine engine(p.db, p.comm);
  EngineOptions eopts;
  eopts.iterations = 10;
  eopts.group_batch = 64.0;
  eopts.sample_self_conditioning = true;
  const EngineResult result = engine.run(p.program, eopts);
  // Active iterations pay a full extra forward pass: durations must split
  // into two visibly separated groups.
  double lo = 1e18;
  double hi = 0.0;
  for (std::size_t k = 1; k < result.iterations.size(); ++k) {
    lo = std::min(lo, result.iterations[k].duration_ms());
    hi = std::max(hi, result.iterations[k].duration_ms());
  }
  EXPECT_GT(hi, lo * 1.10);
  // The expectation-mode run sits between the two sampled extremes.
  eopts.sample_self_conditioning = false;
  const EngineResult expected = engine.run(p.program, eopts);
  EXPECT_GT(expected.steady_iteration_ms, lo);
  EXPECT_LT(expected.steady_iteration_ms, hi);
}

TEST(Engine, RejectsTooFewIterations) {
  const Pipeline p(make_uniform_model(8, 50.0, 10.0), 0, 4, 4, 32.0);
  ExecutionEngine engine(p.db, p.comm);
  EngineOptions eopts;
  eopts.iterations = 1;
  EXPECT_THROW((void)engine.run(p.program, eopts), std::invalid_argument);
}

// --- Memory model -----------------------------------------------------------

TEST(Memory, StableDiffusionDataParallelMatchesPaper) {
  const ModelDesc m = make_stable_diffusion_v21();
  const ProfileDb db(m, AnalyticCostModel(DeviceSpec{}, NoiseSource(0, 0.0)),
                     {8});
  // Paper §2.3: ~24.3 GB at local batch 8 (TPU-v3 32 GB would not fit more).
  const MemoryReport report = estimate_data_parallel_memory(db, 8.0, 8);
  EXPECT_NEAR(report.peak_gb, 24.3, 3.0);
  EXPECT_TRUE(report.fits(32.0));
  EXPECT_FALSE(estimate_data_parallel_memory(db, 64.0, 8).fits(80.0));
}

TEST(Memory, PipelinePartitioningCutsPerDeviceFootprint) {
  const Pipeline p(make_stable_diffusion_v21(), 2, 4, 4, 64.0);
  const MemoryReport pipeline =
      estimate_pipeline_memory(p.db, p.schedule, p.opts);
  const MemoryReport ddp = estimate_data_parallel_memory(p.db, 8.0, 8);
  EXPECT_LT(pipeline.peak_gb, ddp.peak_gb);
}

TEST(Memory, GpipeHoldsMoreActivationsThan1F1B) {
  const Pipeline p(make_stable_diffusion_v21(), 2, 2, 8, 128.0);
  const MemoryReport f1b =
      estimate_pipeline_memory(p.db, p.schedule, p.opts, false);
  const MemoryReport gpipe =
      estimate_pipeline_memory(p.db, p.schedule, p.opts, true);
  EXPECT_GT(gpipe.peak_gb, f1b.peak_gb);
}

TEST(Memory, Zero3ShardsStates) {
  const ModelDesc m = make_stable_diffusion_v21();
  const ProfileDb db(m, AnalyticCostModel(DeviceSpec{}, NoiseSource(0, 0.0)),
                     {8});
  const MemoryReport ddp = estimate_data_parallel_memory(db, 8.0, 16);
  const MemoryReport z3 = estimate_zero3_memory(db, 8.0, 16);
  EXPECT_LT(z3.peak_gb, ddp.peak_gb * 0.6);
}

TEST(Memory, MaxFeasibleLocalBatch) {
  const ModelDesc m = make_stable_diffusion_v21();
  const ProfileDb db(m, AnalyticCostModel(DeviceSpec{}, NoiseSource(0, 0.0)),
                     {8});
  const std::vector<double> candidates = {4, 8, 16, 32, 64};
  const double ddp80 = max_feasible_local_batch(db, 80.0, candidates, 8,
                                                false);
  const double z380 = max_feasible_local_batch(db, 80.0, candidates, 8,
                                               true);
  EXPECT_GE(z380, ddp80);
  EXPECT_GT(ddp80, 0.0);
  EXPECT_EQ(max_feasible_local_batch(db, 0.5, candidates, 8, false), 0.0);
}

}  // namespace
}  // namespace dpipe
