#include <gtest/gtest.h>

#include "core/partition/bidirectional.h"
#include "core/partition/brute_force.h"
#include "core/partition/partitioner.h"
#include "model/zoo.h"

namespace dpipe {
namespace {

struct Fixture {
  ModelDesc model;
  ClusterSpec cluster;
  CommModel comm;
  ProfileDb db;

  explicit Fixture(ModelDesc m, int machines = 1)
      : model(std::move(m)),
        cluster(make_p4de_cluster(machines)),
        comm(cluster),
        db(model, AnalyticCostModel(cluster.device, NoiseSource(0, 0.0)),
           default_batch_grid()) {}
};

PartitionOptions basic_options(int stages, int micro, int group) {
  PartitionOptions opts;
  opts.num_stages = stages;
  opts.num_microbatches = micro;
  opts.group_size = group;
  opts.microbatch_size = 8.0;
  return opts;
}

void expect_valid_partition(const PartitionResult& result, int num_layers,
                            int group_size) {
  int layer = 0;
  int devices = 0;
  for (const StagePlan& s : result.stages) {
    EXPECT_EQ(s.layer_begin, layer);
    EXPECT_GT(s.num_layers(), 0);
    EXPECT_EQ(static_cast<int>(s.device_ranks.size()), s.replicas);
    layer = s.layer_end;
    devices += s.replicas;
  }
  EXPECT_EQ(layer, num_layers);
  EXPECT_EQ(devices, group_size);
}

TEST(Partitioner, UniformModelGetsEvenSplit) {
  const Fixture f(make_uniform_model(8, 50.0, 0.0));
  const DpPartitioner dp(f.db, f.comm);
  const PartitionResult result =
      dp.partition_single(0, basic_options(4, 4, 4));
  expect_valid_partition(result, 8, 4);
  for (const StagePlan& s : result.stages) {
    EXPECT_EQ(s.num_layers(), 2);
  }
}

TEST(Partitioner, StagesCoverAllLayersAndDevices) {
  const Fixture f(make_stable_diffusion_v21());
  const DpPartitioner dp(f.db, f.comm);
  for (const int stages : {2, 4, 8}) {
    const PartitionResult result =
        dp.partition_single(2, basic_options(stages, 4, 8));
    expect_valid_partition(result, 30, 8);
  }
}

TEST(Partitioner, MatchesBruteForceUniformReplicas) {
  // Property: DP is optimal w.r.t. the paper's objective on small random
  // instances (exhaustive oracle).
  for (const unsigned seed : {1u, 2u, 3u, 4u, 5u}) {
    const Fixture f(make_synthetic_model(9, 0, seed));
    const DpPartitioner dp(f.db, f.comm);
    const PartitionOptions opts = basic_options(3, 4, 6);
    const PartitionResult got = dp.partition_single(0, opts);
    const PartitionResult want = brute_force_partition(dp, 0, opts);
    EXPECT_NEAR(got.upper_bound_ms, want.upper_bound_ms,
                1e-9 * want.upper_bound_ms)
        << "seed " << seed;
  }
}

TEST(Partitioner, MatchesBruteForceGeneralReplicas) {
  for (const unsigned seed : {11u, 12u, 13u}) {
    const Fixture f(make_synthetic_model(7, 0, seed));
    const DpPartitioner dp(f.db, f.comm);
    PartitionOptions opts = basic_options(2, 4, 5);
    opts.force_uniform_replicas = false;
    const PartitionResult got = dp.partition_single(0, opts);
    const PartitionResult want = brute_force_partition(dp, 0, opts);
    expect_valid_partition(got, 7, 5);
    EXPECT_NEAR(got.upper_bound_ms, want.upper_bound_ms,
                1e-9 * want.upper_bound_ms)
        << "seed " << seed;
  }
}

TEST(Partitioner, MatchesBruteForceWithSelfConditioning) {
  for (const unsigned seed : {21u, 22u}) {
    const Fixture f(make_synthetic_model(8, 0, seed));
    const DpPartitioner dp(f.db, f.comm);
    PartitionOptions opts = basic_options(4, 4, 4);
    opts.self_conditioning = true;
    const PartitionResult got = dp.partition_single(0, opts);
    const PartitionResult want = brute_force_partition(dp, 0, opts);
    EXPECT_NEAR(got.upper_bound_ms, want.upper_bound_ms,
                1e-9 * want.upper_bound_ms)
        << "seed " << seed;
  }
}

TEST(Partitioner, SelfConditioningRaisesBound) {
  const Fixture f(make_stable_diffusion_v21());
  const DpPartitioner dp(f.db, f.comm);
  PartitionOptions opts = basic_options(4, 4, 8);
  opts.self_conditioning = false;
  const double plain = dp.partition_single(2, opts).upper_bound_ms;
  opts.self_conditioning = true;
  const double with_sc = dp.partition_single(2, opts).upper_bound_ms;
  // An extra forward pass on half the iterations: bound must grow, but by
  // less than a full forward pass (p = 0.5).
  EXPECT_GT(with_sc, plain * 1.05);
  EXPECT_LT(with_sc, plain * 1.60);
}

TEST(Partitioner, MoreMicrobatchesRaiseBoundLinearly) {
  const Fixture f(make_uniform_model(8, 100.0, 0.0));
  const DpPartitioner dp(f.db, f.comm);
  const double m4 = dp.partition_single(0, basic_options(4, 4, 4))
                        .upper_bound_ms;
  const double m8 = dp.partition_single(0, basic_options(4, 8, 4))
                        .upper_bound_ms;
  // Bound = (M + 2S - 2) * T0 with T0 unchanged (same micro-batch size).
  EXPECT_NEAR(m8 / m4, (8.0 + 6.0) / (4.0 + 6.0), 1e-6);
}

TEST(Partitioner, SyncGapReflectsAllreduceCost) {
  // With a huge gradient on the first stage, Y must be positive; gradient
  // sync cannot hide behind zero preceding backward work.
  ModelDesc m = make_uniform_model(4, 10.0, 0.0);
  m.components[0].layers[0].param_mb = 4000.0;
  const Fixture f(std::move(m));
  const DpPartitioner dp(f.db, f.comm);
  PartitionOptions opts = basic_options(4, 4, 4);
  opts.data_parallel_degree = 2;
  const PartitionResult result = dp.partition_single(0, opts);
  EXPECT_GT(result.y_ms, 0.0);
}

TEST(Partitioner, RejectsBadOptions) {
  const Fixture f(make_uniform_model(4, 10.0, 10.0));
  const DpPartitioner dp(f.db, f.comm);
  EXPECT_THROW((void)dp.partition_single(0, basic_options(5, 4, 8)),
               std::invalid_argument);  // more stages than layers
  EXPECT_THROW((void)dp.partition_single(0, basic_options(3, 4, 8)),
               std::invalid_argument);  // S does not divide D (uniform)
  EXPECT_THROW((void)dp.partition_single(1, basic_options(2, 4, 8)),
               std::invalid_argument);  // component out of range
  PartitionOptions opts = basic_options(2, 4, 8);
  opts.microbatch_size = 0.0;
  EXPECT_THROW((void)dp.partition_single(0, opts), std::invalid_argument);
}

TEST(Partitioner, StageCostSelfConditioningExpectation) {
  const Fixture f(make_uniform_model(6, 93.6, 0.0));
  const DpPartitioner dp(f.db, f.comm);
  PartitionOptions opts = basic_options(2, 4, 2);
  opts.microbatch_size = 1.0;
  const StageCost plain = dp.stage_cost(0, 0, 3, 1, 0, opts);
  opts.self_conditioning = true;
  opts.self_cond_prob = 1.0;
  const StageCost sc = dp.stage_cost(0, 0, 3, 1, 0, opts);
  // With p = 1 and no comm bound: T0 = 2 * fwd + bwd instead of fwd + bwd.
  EXPECT_NEAR(sc.t0_ms - plain.t0_ms, plain.fwd_ms, 1e-9);
}

// --- Bidirectional (CDM) ---------------------------------------------------

TEST(Bidirectional, MatchesBruteForce) {
  // Unequal backbones make a swapped down/up index in the DP's dense
  // tables land on the wrong stage (or outside the table) instead of
  // coinciding with the right one.
  struct Case {
    int down_layers, up_layers, stages, replicas;
  };
  for (const Case c : {Case{6, 6, 2, 2}, Case{5, 7, 2, 2}, Case{7, 5, 2, 2},
                       Case{5, 7, 3, 1}}) {
    for (const unsigned seed : {31u, 32u, 33u}) {
      SCOPED_TRACE(::testing::Message()
                   << "Ld=" << c.down_layers << " Lu=" << c.up_layers
                   << " S=" << c.stages << " r=" << c.replicas
                   << " seed=" << seed);
      ModelDesc m = make_synthetic_model(c.down_layers, 0, seed);
      ModelDesc other = make_synthetic_model(c.up_layers, 0, seed + 100);
      other.components[0].name = "backbone_up";
      m.components.push_back(other.components[0]);
      m.backbone_ids = {0, 1};
      const Fixture f(std::move(m));
      const DpPartitioner dp(f.db, f.comm);
      const PartitionOptions opts =
          basic_options(c.stages, 4, c.stages * c.replicas);
      const BiPartitionResult got = partition_bidirectional(dp, 0, 1, opts);
      const BiPartitionResult want =
          brute_force_bidirectional(dp, 0, 1, opts);
      EXPECT_NEAR(got.upper_bound_ms, want.upper_bound_ms,
                  1e-9 * want.upper_bound_ms);
      ASSERT_EQ(got.down_stages.size(), static_cast<std::size_t>(c.stages));
      ASSERT_EQ(got.up_stages.size(), static_cast<std::size_t>(c.stages));
      EXPECT_EQ(got.down_stages.back().layer_end, c.down_layers);
      EXPECT_EQ(got.up_stages.back().layer_end, c.up_layers);
    }
  }
}

TEST(Bidirectional, StagesShareDevicesMirrored) {
  const Fixture f(make_cdm_lsun());
  const DpPartitioner dp(f.db, f.comm);
  const PartitionOptions opts = basic_options(4, 4, 8);
  const BiPartitionResult result = partition_bidirectional(dp, 1, 2, opts);
  ASSERT_EQ(result.down_stages.size(), 4u);
  ASSERT_EQ(result.up_stages.size(), 4u);
  // Down stage k and up stage S-1-k run on the same devices.
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(result.down_stages[k].device_ranks,
              result.up_stages[3 - k].device_ranks);
  }
  // Both backbones fully covered, contiguously.
  int down_layers = 0;
  int up_layers = 0;
  for (int k = 0; k < 4; ++k) {
    down_layers += result.down_stages[k].num_layers();
    up_layers += result.up_stages[k].num_layers();
  }
  EXPECT_EQ(down_layers, f.model.backbone(0).num_layers());
  EXPECT_EQ(up_layers, f.model.backbone(1).num_layers());
}

TEST(Bidirectional, UpStagesAreContiguousInPipelineOrder) {
  const Fixture f(make_cdm_imagenet());
  const DpPartitioner dp(f.db, f.comm);
  const BiPartitionResult result =
      partition_bidirectional(dp, 1, 2, basic_options(2, 4, 8));
  int layer = 0;
  for (const StagePlan& s : result.up_stages) {
    EXPECT_EQ(s.layer_begin, layer);
    layer = s.layer_end;
  }
  EXPECT_EQ(layer, f.model.backbone(1).num_layers());
}

TEST(Bidirectional, RejectsSelfConditioning) {
  const Fixture f(make_cdm_lsun());
  const DpPartitioner dp(f.db, f.comm);
  PartitionOptions opts = basic_options(2, 4, 8);
  opts.self_conditioning = true;
  EXPECT_THROW((void)partition_bidirectional(dp, 1, 2, opts),
               std::invalid_argument);
}

TEST(Bidirectional, RejectsSameBackboneTwice) {
  const Fixture f(make_cdm_lsun());
  const DpPartitioner dp(f.db, f.comm);
  EXPECT_THROW(
      (void)partition_bidirectional(dp, 1, 1, basic_options(2, 4, 8)),
      std::invalid_argument);
}

}  // namespace
}  // namespace dpipe
