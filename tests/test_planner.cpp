#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "core/planner/planner.h"
#include "engine/engine.h"
#include "model/zoo.h"

namespace dpipe {
namespace {

EngineResult run_plan(const Planner& planner, const Plan& plan,
                      double global_batch) {
  const ExecutionEngine engine(planner.db(), planner.comm());
  EngineOptions eopts;
  eopts.iterations = 4;
  eopts.data_parallel_degree = plan.config.data_parallel_degree;
  eopts.group_batch = global_batch / plan.config.data_parallel_degree;
  return engine.run(plan.program, eopts);
}

TEST(Planner, SelectsFeasibleMinimumPredictedConfig) {
  PlannerOptions opts;
  opts.global_batch = 128.0;
  const Planner planner(make_stable_diffusion_v21(), make_p4de_cluster(1),
                        opts);
  const Plan plan = planner.plan();
  EXPECT_TRUE(plan.config.memory_feasible);
  EXPECT_GT(plan.config.predicted_iteration_ms, 0.0);
  for (const PlanConfig& c : plan.explored) {
    if (c.memory_feasible) {
      EXPECT_LE(plan.config.predicted_iteration_ms,
                c.predicted_iteration_ms + 1e-9);
    }
  }
  EXPECT_GT(plan.explored.size(), 3u);
}

TEST(Planner, PlanExecutesOnTheEngine) {
  PlannerOptions opts;
  opts.global_batch = 128.0;
  const Planner planner(make_stable_diffusion_v21(), make_p4de_cluster(1),
                        opts);
  const Plan plan = planner.plan();
  const EngineResult result = run_plan(planner, plan, 128.0);
  EXPECT_GT(result.samples_per_second, 0.0);
  // Measured vs predicted within 20%.
  EXPECT_NEAR(result.steady_iteration_ms, plan.config.predicted_iteration_ms,
              plan.config.predicted_iteration_ms * 0.20);
}

TEST(Planner, CdmUsesBidirectionalTwoBackbonePlan) {
  PlannerOptions opts;
  opts.global_batch = 128.0;
  const Planner planner(make_cdm_lsun(), make_p4de_cluster(1), opts);
  const Plan plan = planner.plan();
  EXPECT_EQ(plan.program.num_backbones, 2);
  const EngineResult result = run_plan(planner, plan, 128.0);
  EXPECT_GT(result.samples_per_second, 0.0);
}

TEST(Planner, DisablingFillRaisesPredictedTime) {
  PlannerOptions with;
  with.global_batch = 128.0;
  PlannerOptions without = with;
  without.enable_fill = false;
  const ModelDesc model = make_controlnet_v10();
  const ClusterSpec cluster = make_p4de_cluster(1);
  const Plan a = Planner(model, cluster, with).plan();
  const Plan b = Planner(model, cluster, without).plan();
  EXPECT_LT(a.config.predicted_iteration_ms,
            b.config.predicted_iteration_ms);
}

TEST(Planner, DisablingPartialBatchSitsBetween) {
  // Paper Fig. 15: full > no-partial > no-fill in throughput (so predicted
  // iteration times are ordered the other way).
  PlannerOptions full;
  full.global_batch = 256.0;
  PlannerOptions no_partial = full;
  no_partial.enable_partial = false;
  PlannerOptions no_fill = full;
  no_fill.enable_fill = false;
  const ModelDesc model = make_controlnet_v10();
  const ClusterSpec cluster = make_p4de_cluster(1);
  const double t_full =
      Planner(model, cluster, full).plan().config.predicted_iteration_ms;
  const double t_no_partial = Planner(model, cluster, no_partial)
                                  .plan()
                                  .config.predicted_iteration_ms;
  const double t_no_fill =
      Planner(model, cluster, no_fill).plan().config.predicted_iteration_ms;
  EXPECT_LE(t_full, t_no_partial + 1e-9);
  EXPECT_LE(t_no_partial, t_no_fill + 1e-9);
}

TEST(Planner, ReportsPreprocessingTimes) {
  PlannerOptions opts;
  opts.global_batch = 128.0;
  const Planner planner(make_stable_diffusion_v21(), make_p4de_cluster(1),
                        opts);
  const Plan plan = planner.plan();
  // §6.4: profiling tens of seconds (simulated estimate), partitioning and
  // filling sub-second host time.
  EXPECT_GT(plan.profiling_wall_ms, 1e3);
  EXPECT_GT(plan.partitioning_wall_ms, 0.0);
  EXPECT_LT(plan.partitioning_wall_ms, 10e3);
  EXPECT_LT(plan.filling_wall_ms, 5e3);
}

TEST(Planner, GroupsThreeBackboneModelsIntoTwoVirtual) {
  // Paper §4.2's extension: >2 backbones are split into two groups, each
  // pipelined in one direction. The planner applies this transparently.
  ModelDesc m = make_cdm_lsun();
  m.components.push_back(m.components[1]);
  m.components.back().name = "third_backbone";
  m.backbone_ids.push_back(static_cast<int>(m.components.size()) - 1);
  PlannerOptions opts;
  opts.global_batch = 64.0;
  const Planner planner(m, make_p4de_cluster(1), opts);
  EXPECT_EQ(planner.model().backbone_ids.size(), 2u);
  const Plan plan = planner.plan();
  EXPECT_EQ(plan.program.num_backbones, 2);
  EXPECT_GT(plan.config.predicted_iteration_ms, 0.0);
}

// --- Baselines --------------------------------------------------------------

struct BaselineFixture {
  ModelDesc model;
  ClusterSpec cluster;
  CommModel comm;
  ProfileDb db;

  BaselineFixture(ModelDesc m, int machines)
      : model(std::move(m)),
        cluster(make_p4de_cluster(machines)),
        comm(cluster),
        db(model,
           AnalyticCostModel(cluster.device, NoiseSource(0xD1FF, 0.02)),
           default_batch_grid()) {}
};

TEST(PlannerDefaults, GroupCandidatesAreTheDivisorsAboveOne) {
  for (int world = 1; world <= 10'000; ++world) {
    std::vector<int> expected;
    for (int d = 2; d <= world; ++d) {
      if (world % d == 0) {
        expected.push_back(d);
      }
    }
    PlannerOptions options;
    Planner::apply_default_candidates(options, world);
    ASSERT_EQ(options.group_candidates, expected) << "world " << world;
  }
}

TEST(PlannerDefaults, GroupCandidatesOfTheLargestIntWorld) {
  // 2^31 - 1 is prime; counting divisors up to it would overflow the loop
  // variable and divide by zero.
  PlannerOptions options;
  Planner::apply_default_candidates(options, 2'147'483'647);
  EXPECT_EQ(options.group_candidates, std::vector<int>{2'147'483'647});
}

TEST(Baselines, DdpSyncFractionGrowsWithClusterSize) {
  // Paper Table 2 shape: 5.2% -> 19.3% -> 36.1% -> 38.1% for SD at local
  // batch 8 on 8..64 GPUs.
  double prev = 0.0;
  for (const int machines : {1, 2, 4, 8}) {
    const BaselineFixture f(make_stable_diffusion_v21(), machines);
    const BaselineReport r =
        run_ddp(f.db, f.comm, 8.0 * f.cluster.world_size());
    EXPECT_GT(r.sync_fraction, prev) << machines << " machines";
    prev = r.sync_fraction;
  }
  EXPECT_GT(prev, 0.25);  // Large-cluster sync share is substantial.
  EXPECT_LT(prev, 0.60);
}

TEST(Baselines, DdpThroughputSaturatesAcrossMachines) {
  const BaselineFixture one(make_stable_diffusion_v21(), 1);
  const BaselineFixture eight(make_stable_diffusion_v21(), 8);
  const double t1 = run_ddp(one.db, one.comm, 64.0).samples_per_second;
  const double t8 = run_ddp(eight.db, eight.comm, 512.0).samples_per_second;
  EXPECT_GT(t8, t1 * 3.0);  // Scales, but...
  EXPECT_LT(t8, t1 * 8.0);  // ...sub-linearly (sync overhead).
}

TEST(Baselines, Zero3SlowerButLeaner) {
  const BaselineFixture f(make_stable_diffusion_v21(), 2);
  const BaselineReport ddp = run_ddp(f.db, f.comm, 128.0);
  const BaselineReport z3 = run_zero3(f.db, f.comm, 128.0);
  EXPECT_LT(z3.samples_per_second, ddp.samples_per_second);
  EXPECT_LT(z3.peak_memory_gb, ddp.peak_memory_gb);
}

TEST(Baselines, GpipeRunsAndHasBubbles) {
  const BaselineFixture f(make_stable_diffusion_v21(), 1);
  const BaselineReport r = run_gpipe_baseline(f.db, f.comm, 64.0);
  EXPECT_GT(r.samples_per_second, 0.0);
  EXPECT_GT(r.bubble_ratio, 0.10);
}

TEST(Baselines, SppBeatsGpipe) {
  const BaselineFixture f(make_stable_diffusion_v21(), 1);
  const BaselineReport gpipe = run_gpipe_baseline(f.db, f.comm, 128.0);
  const BaselineReport spp = run_spp_baseline(f.db, f.comm, 128.0);
  EXPECT_GT(spp.samples_per_second, gpipe.samples_per_second * 0.95);
}

TEST(Baselines, DiffusionPipeBeatsPipelineBaselines) {
  // The headline claim (§6.1): DiffusionPipe outperforms GPipe and SPP.
  const ModelDesc model = make_stable_diffusion_v21();
  const ClusterSpec cluster = make_p4de_cluster(1);
  const BaselineFixture f(model, 1);
  PlannerOptions opts;
  opts.global_batch = 256.0;
  const Planner planner(model, cluster, opts);
  const Plan plan = planner.plan();
  const EngineResult ours = run_plan(planner, plan, 256.0);
  const BaselineReport gpipe = run_gpipe_baseline(f.db, f.comm, 256.0);
  const BaselineReport spp = run_spp_baseline(f.db, f.comm, 256.0);
  EXPECT_GT(ours.samples_per_second, gpipe.samples_per_second);
  EXPECT_GT(ours.samples_per_second, spp.samples_per_second);
}

TEST(Baselines, CdmDeepspeedVariants) {
  const BaselineFixture f(make_cdm_lsun(), 1);
  const BaselineReport s = run_deepspeed_s(f.db, f.comm, 64.0);
  const BaselineReport p = run_deepspeed_p(f.db, f.comm, 64.0);
  EXPECT_GT(s.samples_per_second, 0.0);
  EXPECT_GT(p.samples_per_second, 0.0);
  // P's per-backbone iteration uses half the devices at the same batch, so
  // its single-iteration latency exceeds each S iteration, but the two
  // backbones run concurrently; throughputs land in the same ballpark.
  EXPECT_NEAR(p.samples_per_second / s.samples_per_second, 1.0, 0.5);
}

TEST(Baselines, GpipeRejectsCdm) {
  const BaselineFixture f(make_cdm_lsun(), 1);
  EXPECT_THROW((void)run_gpipe_baseline(f.db, f.comm, 64.0),
               std::invalid_argument);
  EXPECT_THROW((void)run_spp_baseline(f.db, f.comm, 64.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace dpipe
