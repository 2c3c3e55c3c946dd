#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/instr/serialize.h"
#include "core/partition/bidirectional.h"
#include "core/partition/brute_force.h"
#include "core/partition/stage_cache.h"
#include "core/planner/planner.h"
#include "core/schedule/schedule.h"
#include "model/zoo.h"

namespace dpipe {
namespace {

// --- ThreadPool -------------------------------------------------------------

TEST(ParallelFor, CoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 4096;
  std::vector<int> visits(n, 0);
  std::atomic<std::size_t> calls{0};
  pool.parallel_for(n, [&](std::size_t i) {
    ++visits[i];
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(calls.load(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(visits[i], 1) << "index " << i;
  }
}

TEST(ParallelFor, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::vector<std::size_t> order;
  pool.parallel_for(16, [&](std::size_t i) { order.push_back(i); });
  // No workers: the caller runs every index, in order.
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ParallelFor, HandlesEmptyAndTinyBatches) {
  ThreadPool pool(8);
  int ran = 0;
  pool.parallel_for(0, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 0);
  // Fewer items than threads.
  std::vector<int> visits(3, 0);
  pool.parallel_for(3, [&](std::size_t i) { ++visits[i]; });
  EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 3);
}

TEST(ParallelFor, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::vector<int> out(round + 1, 0);
    pool.parallel_for(out.size(), [&](std::size_t i) {
      out[i] = static_cast<int>(i) + round;
    });
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], static_cast<int>(i) + round);
    }
  }
}

TEST(ParallelFor, PropagatesFirstExceptionAndStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 13) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool must survive a throwing batch.
  std::atomic<int> ran{0};
  pool.parallel_for(32, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 32);
}

TEST(ParallelFor, DefaultThreadCountReadsEnvironment) {
  const char* previous = std::getenv("DPIPE_THREADS");
  const std::string saved = previous != nullptr ? previous : "";
  ::setenv("DPIPE_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3);
  ::setenv("DPIPE_THREADS", "not-a-number", 1);
  EXPECT_GE(default_thread_count(), 1);  // Falls back to the CPU mask.
  ::unsetenv("DPIPE_THREADS");
  EXPECT_GE(default_thread_count(), 1);
  if (previous != nullptr) {
    ::setenv("DPIPE_THREADS", saved.c_str(), 1);
  }
}

// --- ProfileDb interpolation ------------------------------------------------

struct DbFixture {
  ModelDesc model = make_stable_diffusion_v21();
  ClusterSpec cluster = make_p4de_cluster(1);
  AnalyticCostModel cost{cluster.device, NoiseSource(0xD1FF, 0.02)};
  ProfileDb db{model, cost, default_batch_grid()};
  int backbone() const { return model.backbone_ids[0]; }
};

TEST(ProfileDbInterp, ExactGridPointsMatchCostModel) {
  const DbFixture f;
  const int b = f.backbone();
  const int L = f.model.components[b].num_layers();
  for (const double batch : f.db.batch_grid()) {
    for (int l = 0; l < L; l += 7) {
      const LayerDesc& layer = f.model.components[b].layers[l];
      EXPECT_DOUBLE_EQ(f.db.fwd_ms(b, l, batch), f.cost.fwd_ms(layer, batch));
      EXPECT_DOUBLE_EQ(f.db.bwd_ms(b, l, batch), f.cost.bwd_ms(layer, batch));
    }
  }
}

TEST(ProfileDbInterp, OffGridIsLinearBetweenNeighbors) {
  const DbFixture f;
  const int b = f.backbone();
  const std::vector<double>& grid = f.db.batch_grid();
  for (std::size_t g = 0; g + 1 < grid.size(); g += 3) {
    const double lo = grid[g];
    const double hi = grid[g + 1];
    const double mid = lo + 0.375 * (hi - lo);
    const double t = (mid - lo) / (hi - lo);
    const double at_lo = f.db.fwd_ms(b, 0, lo);
    const double at_hi = f.db.fwd_ms(b, 0, hi);
    EXPECT_DOUBLE_EQ(f.db.fwd_ms(b, 0, mid), at_lo + t * (at_hi - at_lo));
  }
}

TEST(ProfileDbInterp, ExtrapolatesLinearlyBeyondGridEnds) {
  const DbFixture f;
  const int b = f.backbone();
  const std::vector<double>& grid = f.db.batch_grid();
  // Above the last grid point: extend the final segment.
  {
    const double lo = grid[grid.size() - 2];
    const double hi = grid.back();
    const double beyond = hi + 2.0 * (hi - lo);
    const double t = (beyond - lo) / (hi - lo);
    const double expect = std::max(
        0.0, f.db.fwd_ms(b, 0, lo) +
                 t * (f.db.fwd_ms(b, 0, hi) - f.db.fwd_ms(b, 0, lo)));
    EXPECT_DOUBLE_EQ(f.db.fwd_ms(b, 0, beyond), expect);
  }
  // Below the first grid point: extend the first segment (clamped at 0).
  {
    const double lo = grid[0];
    const double hi = grid[1];
    const double below = 0.5 * lo;
    const double t = (below - lo) / (hi - lo);
    const double expect = std::max(
        0.0, f.db.fwd_ms(b, 0, lo) +
                 t * (f.db.fwd_ms(b, 0, hi) - f.db.fwd_ms(b, 0, lo)));
    EXPECT_DOUBLE_EQ(f.db.fwd_ms(b, 0, below), expect);
  }
  EXPECT_EQ(f.db.fwd_ms(b, 0, 0.0), 0.0);
  EXPECT_EQ(f.db.fwd_range_ms(b, 0, 4, 0.0), 0.0);
}

TEST(ProfileDbInterp, RangeQueryMatchesPerLayerSum) {
  const DbFixture f;
  const int b = f.backbone();
  const int L = f.model.components[b].num_layers();
  // On-grid, off-grid, and extrapolated batch sizes.
  for (const double batch : {1.0, 5.5, 17.3, 96.0, 400.0}) {
    for (const auto& [lo, hi] :
         std::vector<std::pair<int, int>>{{0, L}, {3, 11}, {L / 2, L}}) {
      double fwd_sum = 0.0;
      double bwd_sum = 0.0;
      for (int l = lo; l < hi; ++l) {
        fwd_sum += f.db.fwd_ms(b, l, batch);
        bwd_sum += f.db.bwd_ms(b, l, batch);
      }
      EXPECT_NEAR(f.db.fwd_range_ms(b, lo, hi, batch), fwd_sum,
                  1e-9 * std::max(1.0, fwd_sum));
      EXPECT_NEAR(f.db.bwd_range_ms(b, lo, hi, batch), bwd_sum,
                  1e-9 * std::max(1.0, bwd_sum));
    }
  }
}

// --- StageCostCache ---------------------------------------------------------

PartitionOptions small_partition_opts() {
  PartitionOptions opts;
  opts.num_stages = 4;
  opts.num_microbatches = 8;
  opts.group_size = 8;
  opts.data_parallel_degree = 1;
  opts.microbatch_size = 8.0;
  return opts;
}

/// PartitionOptions of every shape-valid (S, M, D) combo of the planner's
/// default candidate grid for `model` on `cluster` at the default global
/// batch, built the way Planner::evaluate builds them.
std::vector<PartitionOptions> default_grid(const ModelDesc& model,
                                           const ClusterSpec& cluster) {
  const int world = cluster.world_size();
  PlannerOptions grid;
  Planner::apply_default_candidates(grid, world);
  std::vector<PartitionOptions> combos;
  for (const int D : grid.group_candidates) {
    for (const int S : grid.stage_candidates) {
      for (const int M : grid.micro_candidates) {
        const int dp = world / D;
        const double micro = grid.global_batch / dp / M;
        bool valid = world % D == 0 && D % S == 0 && micro >= 1.0;
        for (const int b : model.backbone_ids) {
          valid = valid && S <= model.components[b].num_layers();
        }
        if (!valid) {
          continue;
        }
        PartitionOptions opts;
        opts.num_stages = S;
        opts.num_microbatches = M;
        opts.group_size = D;
        opts.data_parallel_degree = dp;
        opts.microbatch_size = micro;
        opts.self_conditioning = model.self_conditioning;
        opts.self_cond_prob = model.self_cond_prob;
        combos.push_back(opts);
      }
    }
  }
  return combos;
}

std::string combo_name(const PartitionOptions& opts) {
  return "S=" + std::to_string(opts.num_stages) +
         " M=" + std::to_string(opts.num_microbatches) +
         " D=" + std::to_string(opts.group_size);
}

void expect_stages_identical(const std::vector<StagePlan>& a,
                             const std::vector<StagePlan>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].layer_begin, b[s].layer_begin);
    EXPECT_EQ(a[s].layer_end, b[s].layer_end);
    EXPECT_EQ(a[s].device_ranks, b[s].device_ranks);
  }
}

void expect_ops_identical(const std::vector<PipelineOp>& a,
                          const std::vector<PipelineOp>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].backbone, b[i].backbone);
    EXPECT_EQ(a[i].stage, b[i].stage);
    EXPECT_EQ(a[i].micro, b[i].micro);
    EXPECT_EQ(a[i].start_ms, b[i].start_ms);
    EXPECT_EQ(a[i].end_ms, b[i].end_ms);
  }
}

void expect_schedules_identical(const Schedule& a, const Schedule& b) {
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_EQ(a.compute_makespan_ms, b.compute_makespan_ms);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t d = 0; d < a.devices.size(); ++d) {
    expect_ops_identical(a.devices[d].ops, b.devices[d].ops);
  }
  expect_ops_identical(a.link_ops, b.link_ops);
}

TEST(StageCostCache, PartitionWithCacheIsBitIdentical) {
  const DbFixture f;
  const CommModel comm(f.cluster);
  const DpPartitioner partitioner(f.db, comm);
  const PartitionOptions opts = small_partition_opts();
  const PartitionResult plain =
      partitioner.partition_single(f.backbone(), opts);
  StageCostCache cache;
  const PartitionResult cached =
      partitioner.partition_single(f.backbone(), opts, &cache);
  EXPECT_EQ(plain.t0_ms, cached.t0_ms);
  EXPECT_EQ(plain.y_ms, cached.y_ms);
  EXPECT_EQ(plain.upper_bound_ms, cached.upper_bound_ms);
  ASSERT_EQ(plain.stages.size(), cached.stages.size());
  for (std::size_t s = 0; s < plain.stages.size(); ++s) {
    EXPECT_EQ(plain.stages[s].layer_begin, cached.stages[s].layer_begin);
    EXPECT_EQ(plain.stages[s].layer_end, cached.stages[s].layer_end);
    EXPECT_EQ(plain.stages[s].device_ranks, cached.stages[s].device_ranks);
  }
  EXPECT_GT(cache.misses(), 0u);
  // The uniform-replica DP visits each (range, placement) state once, so
  // reuse shows up across passes: a warm re-run is 100% hits.
  const std::size_t cold_misses = cache.misses();
  const PartitionResult warm =
      partitioner.partition_single(f.backbone(), opts, &cache);
  EXPECT_EQ(warm.upper_bound_ms, cached.upper_bound_ms);
  EXPECT_EQ(cache.misses(), cold_misses);
  EXPECT_GT(cache.hits(), 0u);

  // The no-cache reference over the planner's whole default grid: for every
  // shape-valid combo, the partition is bit-identical with a fresh cache and
  // with none, and so are the 1F1B schedules built on the two partitions.
  const ScheduleBuilder builder(f.db, comm);
  const int b = f.backbone();
  const std::vector<PartitionOptions> grid = default_grid(f.model, f.cluster);
  EXPECT_GE(grid.size(), 20u);
  for (const PartitionOptions& combo : grid) {
    SCOPED_TRACE(combo_name(combo));
    const PartitionResult reference =
        partitioner.partition_single(b, combo, nullptr);
    StageCostCache fresh;
    const PartitionResult memoized =
        partitioner.partition_single(b, combo, &fresh);
    EXPECT_EQ(reference.t0_ms, memoized.t0_ms);
    EXPECT_EQ(reference.y_ms, memoized.y_ms);
    EXPECT_EQ(reference.feedback_ms, memoized.feedback_ms);
    EXPECT_EQ(reference.upper_bound_ms, memoized.upper_bound_ms);
    expect_stages_identical(reference.stages, memoized.stages);
    expect_schedules_identical(
        builder.build_1f1b(b, reference.stages, combo),
        builder.build_1f1b(b, memoized.stages, combo));
  }
}

TEST(StageCostCache, StageCostHitReturnsIdenticalFields) {
  const DbFixture f;
  const CommModel comm(f.cluster);
  const DpPartitioner partitioner(f.db, comm);
  const PartitionOptions opts = small_partition_opts();
  StageCostCache cache;
  const StageCost plain =
      partitioner.stage_cost(f.backbone(), 2, 9, 2, 2, opts);
  const StageCost miss = partitioner.stage_cost(f.backbone(), 2, 9, 2, 2,
                                                opts, PipeDirection::kDown,
                                                &cache);
  const StageCost hit = partitioner.stage_cost(f.backbone(), 2, 9, 2, 2,
                                               opts, PipeDirection::kDown,
                                               &cache);
  for (const StageCost& got : {miss, hit}) {
    EXPECT_EQ(got.fwd_ms, plain.fwd_ms);
    EXPECT_EQ(got.bwd_ms, plain.bwd_ms);
    EXPECT_EQ(got.comm_in_ms, plain.comm_in_ms);
    EXPECT_EQ(got.boundary_ms, plain.boundary_ms);
    EXPECT_EQ(got.t0_ms, plain.t0_ms);
    EXPECT_EQ(got.sync_ms, plain.sync_ms);
    EXPECT_EQ(got.comp_ms, plain.comp_ms);
    EXPECT_EQ(got.y_ms, plain.y_ms);
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(StageCostCache, RejectsReuseUnderDifferentOptions) {
  const DbFixture f;
  const CommModel comm(f.cluster);
  const DpPartitioner partitioner(f.db, comm);
  StageCostCache cache;
  PartitionOptions opts = small_partition_opts();
  (void)partitioner.stage_cost(f.backbone(), 0, 4, 2, 0, opts,
                               PipeDirection::kDown, &cache);
  opts.microbatch_size = 16.0;  // Different config, same cache: hard error.
  EXPECT_THROW((void)partitioner.stage_cost(f.backbone(), 0, 4, 2, 0, opts,
                                            PipeDirection::kDown, &cache),
               std::logic_error);
}

TEST(StageCostCache, BruteForceOracleUnaffectedByCache) {
  // Small enough for the exhaustive oracle; the cache must not change what
  // either partitioner computes, and DP must still match the oracle.
  ModelDesc model = make_stable_diffusion_v21();
  const ClusterSpec cluster = make_p4de_cluster(1);
  const AnalyticCostModel cost(cluster.device, NoiseSource(0xD1FF, 0.02));
  const ProfileDb db(model, cost, default_batch_grid());
  const CommModel comm(cluster);
  const DpPartitioner partitioner(db, comm);
  PartitionOptions opts = small_partition_opts();
  // S >= 3 makes the oracle revisit stage ranges across compositions (the
  // same [lo, hi) paired with every split of the remaining layers).
  opts.num_stages = 4;
  opts.group_size = 4;
  const int b = model.backbone_ids[0];
  StageCostCache dp_cache;
  StageCostCache bf_cache;
  const PartitionResult dp = partitioner.partition_single(b, opts, &dp_cache);
  const PartitionResult bf_plain = brute_force_partition(partitioner, b, opts);
  const PartitionResult bf_cached =
      brute_force_partition(partitioner, b, opts, &bf_cache);
  EXPECT_EQ(bf_plain.t0_ms, bf_cached.t0_ms);
  EXPECT_EQ(bf_plain.y_ms, bf_cached.y_ms);
  ASSERT_EQ(bf_plain.stages.size(), bf_cached.stages.size());
  for (std::size_t s = 0; s < bf_plain.stages.size(); ++s) {
    EXPECT_EQ(bf_plain.stages[s].layer_begin, bf_cached.stages[s].layer_begin);
    EXPECT_EQ(bf_plain.stages[s].layer_end, bf_cached.stages[s].layer_end);
  }
  EXPECT_DOUBLE_EQ(dp.upper_bound_ms, bf_cached.upper_bound_ms);
  EXPECT_GT(bf_cache.hits(), 0u);
}

TEST(StageCostCache, BidirectionalWithCacheIsBitIdentical) {
  const ModelDesc model = make_cdm_lsun();
  const ClusterSpec cluster = make_p4de_cluster(1);
  const AnalyticCostModel cost(cluster.device, NoiseSource(0xD1FF, 0.02));
  const ProfileDb db(model, cost, default_batch_grid());
  const CommModel comm(cluster);
  const DpPartitioner partitioner(db, comm);
  const PartitionOptions opts = small_partition_opts();
  const int b0 = model.backbone_ids[0];
  const int b1 = model.backbone_ids[1];
  const BiPartitionResult plain =
      partition_bidirectional(partitioner, b0, b1, opts);
  StageCostCache cache;
  const BiPartitionResult cached =
      partition_bidirectional(partitioner, b0, b1, opts, &cache);
  EXPECT_EQ(plain.t0_ms, cached.t0_ms);
  EXPECT_EQ(plain.y_ms, cached.y_ms);
  EXPECT_EQ(plain.upper_bound_ms, cached.upper_bound_ms);
  expect_stages_identical(plain.down_stages, cached.down_stages);
  expect_stages_identical(plain.up_stages, cached.up_stages);
  // The DP holds each stage cost it has asked for, so it costs every
  // distinct (direction, lo, hi, chain_begin) once and never re-asks. The
  // builder times stages from the profile and ignores the cache it is
  // handed: building leaves hits and misses where the DP left them.
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), cache.size());
  const std::size_t misses = cache.misses();
  const ScheduleBuilder builder(db, comm);
  (void)builder.build_bidirectional(b0, cached.down_stages, b1,
                                    cached.up_stages, opts, &cache);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), misses);

  // The no-cache reference over the planner's whole default CDM grid: the
  // co-partition is bit-identical with a fresh cache and with none, and so
  // are the bidirectional schedules built on the two co-partitions.
  const std::vector<PartitionOptions> grid = default_grid(model, cluster);
  EXPECT_GE(grid.size(), 20u);
  for (const PartitionOptions& combo : grid) {
    SCOPED_TRACE(combo_name(combo));
    const BiPartitionResult reference =
        partition_bidirectional(partitioner, b0, b1, combo, nullptr);
    StageCostCache fresh;
    const BiPartitionResult memoized =
        partition_bidirectional(partitioner, b0, b1, combo, &fresh);
    EXPECT_EQ(reference.t0_ms, memoized.t0_ms);
    EXPECT_EQ(reference.y_ms, memoized.y_ms);
    EXPECT_EQ(reference.m_cdm, memoized.m_cdm);
    EXPECT_EQ(reference.upper_bound_ms, memoized.upper_bound_ms);
    expect_stages_identical(reference.down_stages, memoized.down_stages);
    expect_stages_identical(reference.up_stages, memoized.up_stages);
    expect_schedules_identical(
        builder.build_bidirectional(b0, reference.down_stages, b1,
                                    reference.up_stages, combo),
        builder.build_bidirectional(b0, memoized.down_stages, b1,
                                    memoized.up_stages, combo));
  }
}

// --- Planner search parity --------------------------------------------------

/// search_threads caps the fan-out at the executor's width; the tests that
/// assert a thread count pin the width to 4 so they hold on any host.
struct ExecutorWidth4 {
  ExecutorWidth4() { set_executor_width(4); }
  ~ExecutorWidth4() { set_executor_width(0); }
};

Plan plan_with(const ModelDesc& model, int threads) {
  PlannerOptions opts;
  opts.global_batch = 128.0;
  opts.search_threads = threads;
  const Planner planner(model, make_p4de_cluster(1), opts);
  return planner.plan();
}

void expect_plans_identical(const Plan& a, const Plan& b) {
  EXPECT_TRUE(a.config == b.config);
  ASSERT_EQ(a.explored.size(), b.explored.size());
  for (std::size_t i = 0; i < a.explored.size(); ++i) {
    EXPECT_TRUE(a.explored[i] == b.explored[i]) << "explored entry " << i;
  }
  EXPECT_EQ(program_to_string(a.program), program_to_string(b.program));
}

TEST(PlannerSearch, BitIdenticalAcrossThreadCounts) {
  const ExecutorWidth4 width;
  const ModelDesc model = make_stable_diffusion_v21();
  const Plan seq = plan_with(model, 1);
  const Plan two = plan_with(model, 2);
  const Plan auto_sized = plan_with(model, 0);
  expect_plans_identical(seq, two);
  expect_plans_identical(seq, auto_sized);
  EXPECT_EQ(two.search.threads, 2);
  EXPECT_EQ(seq.search.threads, 1);
}

TEST(PlannerSearch, CdmBidirectionalParity) {
  const ModelDesc model = make_cdm_lsun();
  const Plan seq = plan_with(model, 1);
  const Plan par = plan_with(model, 4);
  expect_plans_identical(seq, par);
  // Each evaluation's DP costs every stage once and the builder never reads
  // the memo, so a cold plan has no hits.
  EXPECT_EQ(par.search.cache_hits, 0u);
  EXPECT_GT(par.search.cache_misses, 0u);
}

TEST(PlannerSearch, StageCostStoreMakesSecondPlanFullyWarm) {
  // A persistent StageCostStore shared across Planner instances: the
  // second plan over the same grid re-derives every stage cost from the
  // store (zero misses) and still produces the identical plan.
  const ModelDesc model = make_stable_diffusion_v21();
  StageCostStore store;
  PlannerOptions opts;
  opts.global_batch = 128.0;
  opts.search_threads = 2;
  opts.cache_store = &store;
  const Plan cold = Planner(model, make_p4de_cluster(1), opts).plan();
  EXPECT_GT(cold.search.cache_misses, 0u);
  EXPECT_GT(store.size(), 0u);
  const Plan warm = Planner(model, make_p4de_cluster(1), opts).plan();
  EXPECT_EQ(warm.search.cache_misses, 0u);
  EXPECT_GT(warm.search.cache_hits, 0u);
  expect_plans_identical(cold, warm);
  // And the store-backed plan matches a storeless one bit for bit.
  PlannerOptions plain = opts;
  plain.cache_store = nullptr;
  expect_plans_identical(cold,
                         Planner(model, make_p4de_cluster(1), plain).plan());
}

TEST(PlannerSearch, RuntimeBindableRestrictionsFilterTheGrid) {
  const ModelDesc model = make_stable_diffusion_v21();
  PlannerOptions opts;
  opts.global_batch = 128.0;
  opts.require_bindable_placement = true;
  opts.integer_microbatches = true;
  const Plan plan = Planner(model, make_p4de_cluster(1), opts).plan();
  for (const PlanConfig& c : plan.explored) {
    // One device per stage: D == S, so dp = world / S.
    EXPECT_EQ(c.group_size, c.num_stages);
    // Whole-sample micro-batches.
    const double micro =
        opts.global_batch / c.data_parallel_degree / c.num_microbatches;
    EXPECT_EQ(micro, std::floor(micro));
  }
  // The restriction strictly shrinks the explored grid.
  PlannerOptions full = opts;
  full.require_bindable_placement = false;
  full.integer_microbatches = false;
  const Plan wide = Planner(model, make_p4de_cluster(1), full).plan();
  EXPECT_GT(wide.explored.size(), plan.explored.size());
}

TEST(PlannerSearch, StatsAndWallTimesPopulated) {
  const Plan plan = plan_with(make_stable_diffusion_v21(), 0);
  EXPECT_GE(plan.search.threads, 1);
  EXPECT_GT(plan.search.combos_total, 0);
  EXPECT_EQ(plan.search.combos_evaluated, plan.search.combos_total);
  EXPECT_GT(plan.search.search_wall_ms, 0.0);
  EXPECT_GT(plan.partitioning_wall_ms, 0.0);
  EXPECT_GT(plan.filling_wall_ms, 0.0);
  EXPECT_GT(plan.search.cache_misses, 0u);
}

}  // namespace
}  // namespace dpipe
