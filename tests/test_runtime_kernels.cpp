// Kernel substrate tests: bit-exact parity between the naive and blocked
// matmul paths at several executor widths; TensorPool recycling; the Rng
// zero-seed regression; and end-to-end training-trajectory bit-identity
// across kernel modes and executor widths (the determinism contract in
// DESIGN.md §8).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "runtime/dp_trainer.h"
#include "runtime/kernels.h"
#include "runtime/pipeline_exec.h"
#include "runtime/pool.h"

namespace dpipe::rt {
namespace {

/// Restores the process-wide kernel mode and executor width on scope exit so a
/// test cannot leak its overrides into suites that assume the defaults.
struct KernelStateGuard {
  KernelMode mode = kernel_mode();
  ~KernelStateGuard() {
    set_kernel_mode(mode);
    set_kernel_threads(0);
  }
};

void expect_bit_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  if (a.numel() == 0) {
    return;
  }
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0);
}

/// Runs all three transpose variants at (m, k, n) in the blocked mode at
/// several executor widths and requires results bit-identical to the naive
/// reference. Covers the contract that blocking and parallel fan-out
/// reorder memory traffic only.
void check_parity(int m, int k, int n) {
  SCOPED_TRACE(::testing::Message()
               << "m=" << m << " k=" << k << " n=" << n);
  Rng rng(static_cast<std::uint64_t>(m) * 7919 +
          static_cast<std::uint64_t>(k) * 131 + n + 1);
  const Tensor a = rng.randn({m, k});
  const Tensor b_nn = rng.randn({k, n});
  const Tensor b_tn = rng.randn({m, n});  // a^T b : [m,k]^T [m,n] -> [k,n]
  const Tensor b_nt = rng.randn({n, k});  // a b^T : [m,k] [n,k]^T -> [m,n]

  Tensor ref_nn({m, n});
  Tensor ref_tn({k, n});
  Tensor ref_nt({m, n});
  matmul_into(ref_nn, a, b_nn, KernelMode::kNaive);
  matmul_tn_into(ref_tn, a, b_tn, KernelMode::kNaive);
  matmul_nt_into(ref_nt, a, b_nt, KernelMode::kNaive);

  for (const int threads : {1, 4, 0}) {  // 0 = DPIPE_THREADS / hardware.
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    set_kernel_threads(threads);
    Tensor out_nn({m, n});
    Tensor out_tn({k, n});
    Tensor out_nt({m, n});
    matmul_into(out_nn, a, b_nn, KernelMode::kBlocked);
    matmul_tn_into(out_tn, a, b_tn, KernelMode::kBlocked);
    matmul_nt_into(out_nt, a, b_nt, KernelMode::kBlocked);
    expect_bit_equal(ref_nn, out_nn);
    expect_bit_equal(ref_tn, out_tn);
    expect_bit_equal(ref_nt, out_nt);
  }
}

TEST(Kernels, ParityAcrossModesAndThreadCounts) {
  KernelStateGuard guard;
  // Square, rectangular, tile-boundary straddling, and panel-crossing
  // shapes (kRowBlock=64, kKc=64, kNc=256), plus one past the parallel
  // flop threshold so kBlocked actually fans out at widths above 1.
  check_parity(1, 1, 1);
  check_parity(2, 3, 4);
  check_parity(64, 64, 64);
  check_parity(65, 67, 63);
  check_parity(33, 130, 70);
  check_parity(3, 300, 5);
  check_parity(17, 64, 257);
  check_parity(128, 128, 128);
}

TEST(Kernels, DegenerateAndEmptyShapes) {
  KernelStateGuard guard;
  check_parity(0, 4, 5);
  check_parity(4, 0, 5);  // k = 0: output must still be zeroed.
  check_parity(4, 5, 0);
  check_parity(1, 512, 1);
  check_parity(512, 1, 1);
}

TEST(Kernels, EmptyInnerDimensionZeroesStaleOutput) {
  KernelStateGuard guard;
  const Tensor a = Tensor::zeros({3, 0});
  const Tensor b = Tensor::zeros({0, 2});
  for (const KernelMode mode : {KernelMode::kNaive, KernelMode::kBlocked}) {
    Tensor out = Tensor::full({3, 2}, 42.0f);  // Stale contents.
    matmul_into(out, a, b, mode);
    for (std::int64_t i = 0; i < out.numel(); ++i) {
      EXPECT_EQ(out.data()[i], 0.0f);
    }
  }
}

TEST(Kernels, DefaultOverloadsFollowKernelMode) {
  KernelStateGuard guard;
  EXPECT_STREQ(kernel_mode_name(KernelMode::kNaive), "naive");
  EXPECT_STREQ(kernel_mode_name(KernelMode::kBlocked), "blocked");
  Rng rng(11);
  const Tensor a = rng.randn({9, 33});
  const Tensor b = rng.randn({33, 17});
  Tensor expected({9, 17});
  matmul_into(expected, a, b, KernelMode::kNaive);
  for (const KernelMode mode : {KernelMode::kNaive, KernelMode::kBlocked}) {
    set_kernel_mode(mode);
    EXPECT_EQ(kernel_mode(), mode);
    Tensor out({9, 17});
    matmul_into(out, a, b);
    expect_bit_equal(expected, out);
  }
}

TEST(Kernels, RejectsBadOutputShapeAndAliasing) {
  Rng rng(13);
  const Tensor a = rng.randn({4, 6});
  const Tensor b = rng.randn({6, 5});
  Tensor wrong({4, 4});
  EXPECT_THROW(matmul_into(wrong, a, b), std::invalid_argument);
  Tensor alias = rng.randn({4, 6});
  EXPECT_THROW(matmul_into(alias, alias, b), std::invalid_argument);
}

// --- Concurrent kernel entry (shared executor fan-out) -----------------------

TEST(Kernels, ConcurrentCallersBitExactUnderContention) {
  // Several threads call kBlocked simultaneously: each fan-out
  // recruits whichever executor workers are idle at the call, or runs
  // inline when none is. Results must be bit-identical to the
  // single-threaded reference either way. Runs under TSan in tier-1.
  KernelStateGuard guard;
  set_kernel_threads(4);
  constexpr int kDim = 96;  // 2*96^3 FLOPs: above the parallel threshold.
  Rng rng(41);
  const Tensor a = rng.randn({kDim, kDim});
  const Tensor b = rng.randn({kDim, kDim});
  Tensor ref({kDim, kDim});
  matmul_into(ref, a, b, KernelMode::kNaive);
  std::vector<std::thread> callers;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      Tensor out({kDim, kDim});
      for (int rep = 0; rep < 20; ++rep) {
        matmul_into(out, a, b, KernelMode::kBlocked);
        if (std::memcmp(ref.data(), out.data(),
                        static_cast<std::size_t>(ref.numel()) *
                            sizeof(float)) != 0) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& th : callers) {
    th.join();
  }
  for (const int m : mismatches) {
    EXPECT_EQ(m, 0);
  }
}

TEST(Kernels, NestedInsideParallelForRunsInlineWithoutDeadlock) {
  // A kernel called from inside a fork-join that occupies every executor
  // worker finds none idle and runs inline: it must neither wait for a
  // busy worker (deadlock) nor change bits.
  KernelStateGuard guard;
  set_kernel_threads(4);
  Rng rng(43);
  const Tensor a = rng.randn({96, 96});
  const Tensor b = rng.randn({96, 96});
  Tensor ref({96, 96});
  matmul_into(ref, a, b, KernelMode::kNaive);
  ThreadPool outer(4);
  std::vector<int> ok(6, 0);
  outer.parallel_for(ok.size(), [&](std::size_t i) {
    Tensor out({96, 96});
    matmul_into(out, a, b, KernelMode::kBlocked);
    ok[i] = std::memcmp(ref.data(), out.data(),
                        static_cast<std::size_t>(ref.numel()) *
                            sizeof(float)) == 0
                ? 1
                : 0;
  });
  for (const int v : ok) {
    EXPECT_EQ(v, 1);
  }
}

TEST(RngSeed, ZeroSeedDoesNotLockUp) {
  // xorshift64 has a fixed point at state 0: seeding with 0 used to yield
  // an all-zero stream forever. The constructor must remap seed 0.
  Rng rng(0);
  std::uint64_t prev = rng.next_u64();
  EXPECT_NE(prev, 0u);
  int distinct = 0;
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t next = rng.next_u64();
    if (next != prev) {
      ++distinct;
    }
    prev = next;
  }
  EXPECT_EQ(distinct, 16);
  // And the remapped stream must not collide with a small nonzero seed.
  Rng one(1);
  Rng zero(0);
  EXPECT_NE(zero.next_u64(), one.next_u64());
}

TEST(TensorPool, RecyclesExactSizeBuffers) {
  TensorPool pool;
  Tensor t = pool.acquire({4, 8});
  const float* storage = t.data();
  EXPECT_EQ(pool.stats().allocs_fresh, 1u);
  pool.release(std::move(t));
  EXPECT_EQ(pool.stats().released, 1u);
  EXPECT_EQ(pool.stats().bytes_free, 4u * 8u * sizeof(float));
  // Same element count, different shape: the bucket is keyed by numel.
  Tensor u = pool.acquire({8, 4});
  EXPECT_EQ(u.data(), storage);
  EXPECT_EQ(u.rows(), 8);
  EXPECT_EQ(u.cols(), 4);
  EXPECT_EQ(pool.stats().allocs_avoided, 1u);
  EXPECT_EQ(pool.stats().bytes_free, 0u);
}

TEST(TensorPool, TracksPeakAndTrims) {
  TensorPool pool;
  Tensor a = pool.acquire({16, 16});
  Tensor b = pool.acquire({16, 16});
  const std::uint64_t both = 2u * 16u * 16u * sizeof(float);
  EXPECT_GE(pool.stats().peak_bytes, both);
  pool.release(std::move(a));
  pool.release(std::move(b));
  EXPECT_EQ(pool.stats().bytes_free, both);
  pool.trim();
  EXPECT_EQ(pool.stats().bytes_free, 0u);
  // A miss after trim allocates fresh again.
  (void)pool.acquire({16, 16});
  EXPECT_EQ(pool.stats().allocs_fresh, 3u);
}

TEST(TensorPool, EmptyTensorsAreIgnored) {
  TensorPool pool;
  pool.release(Tensor{});
  EXPECT_EQ(pool.stats().released, 0u);
  const Tensor e = pool.acquire({0, 5});
  EXPECT_EQ(e.numel(), 0);
}

bool is_aligned(const float* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kTensorAlignment == 0;
}

TEST(TensorPool, StorageIsCacheLineAligned) {
  // Every tensor — pooled or not — sits on a 64-byte boundary (the SIMD
  // microkernels issue aligned loads against pooled packing panels).
  TensorPool pool;
  Tensor t = pool.acquire({3, 7});
  EXPECT_TRUE(is_aligned(t.data()));
  pool.release(std::move(t));
  Tensor u = pool.acquire({21});
  EXPECT_TRUE(is_aligned(u.data()));
  EXPECT_TRUE(is_aligned(Tensor::zeros({5, 5}).data()));
  Rng rng(7);
  EXPECT_TRUE(is_aligned(rng.randn({9, 3}).data()));
}

TEST(TensorPool, PadsBucketsToAlignmentGranule) {
  TensorPool pool;
  // 1x5 and 3x5 both round up to one 16-float granule: same bucket.
  Tensor small = pool.acquire({1, 5});
  const float* storage = small.data();
  pool.release(std::move(small));
  Tensor larger = pool.acquire({3, 5});
  EXPECT_EQ(larger.data(), storage);
  EXPECT_EQ(larger.numel(), 15);
  const TensorPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.allocs_avoided, 1u);
  EXPECT_EQ(stats.allocs_fresh, 1u);
  EXPECT_EQ(stats.alignment_bytes, kTensorAlignment);
  EXPECT_EQ(stats.rounded_allocs, 2u);  // 5 -> 16 and 15 -> 16.
  EXPECT_EQ(stats.padding_bytes_total, (11u + 1u) * sizeof(float));
}

TEST(TensorPool, BytesAccountingUsesPaddedBuckets) {
  TensorPool pool;
  Tensor t = pool.acquire({1, 5});
  pool.release(std::move(t));
  EXPECT_EQ(pool.stats().bytes_free,
            static_cast<std::uint64_t>(TensorPool::kGranuleElems) *
                sizeof(float));
}

// --- Training-trajectory bit-identity across the substrate ------------------

struct TrajectoryRun {
  std::vector<double> losses;
  std::vector<Tensor> params;
};

float params_diff(const std::vector<Tensor>& a,
                  const std::vector<Tensor>& b) {
  EXPECT_EQ(a.size(), b.size());
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, max_abs_diff(a[i], b[i]));
  }
  return worst;
}

/// Full-feature pipeline run (self-conditioning, cross-iteration frozen
/// part, data parallelism) under an explicit kernel mode and executor width.
TrajectoryRun run_pipeline(KernelMode mode, int threads, bool use_adam) {
  set_kernel_mode(mode);
  set_kernel_threads(threads);
  DdpmConfig dc;
  dc.self_conditioning = true;
  dc.self_cond_prob = 0.5;
  const DdpmProblem problem(dc);
  PipelineRtConfig cfg;
  cfg.num_stages = 3;
  cfg.num_microbatches = 4;
  cfg.data_parallel_degree = 2;
  cfg.global_batch = 32;
  cfg.lr = use_adam ? 0.01f : 0.2f;
  cfg.use_adam = use_adam;
  cfg.cross_iteration = true;
  PipelineTrainer trainer(problem, cfg);
  trainer.train(8);
  return {trainer.losses(), trainer.snapshot_params()};
}

void expect_same_trajectory(const TrajectoryRun& a, const TrajectoryRun& b) {
  ASSERT_EQ(a.losses.size(), b.losses.size());
  for (std::size_t i = 0; i < a.losses.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.losses[i], b.losses[i]) << "iteration " << i;
  }
  EXPECT_EQ(params_diff(a.params, b.params), 0.0f);
}

TEST(Trajectory, SgdBitExactAcrossModesAndThreadCounts) {
  KernelStateGuard guard;
  const TrajectoryRun naive = run_pipeline(KernelMode::kNaive, 1, false);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    expect_same_trajectory(
        naive, run_pipeline(KernelMode::kBlocked, threads, false));
  }
}

TEST(Trajectory, AdamBitExactAcrossModesAndThreadCounts) {
  KernelStateGuard guard;
  const TrajectoryRun naive = run_pipeline(KernelMode::kNaive, 1, true);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    expect_same_trajectory(
        naive, run_pipeline(KernelMode::kBlocked, threads, true));
  }
}

TEST(Trajectory, ReferenceTrainerBitExactAcrossModes) {
  KernelStateGuard guard;
  const DdpmProblem problem(DdpmConfig{});
  auto run = [&](KernelMode mode, int threads) {
    set_kernel_mode(mode);
    set_kernel_threads(threads);
    ReferenceTrainer trainer(problem, 16, 0.1f);
    trainer.train(10);
    return TrajectoryRun{trainer.losses(), trainer.snapshot_params()};
  };
  const TrajectoryRun naive = run(KernelMode::kNaive, 1);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    expect_same_trajectory(naive, run(KernelMode::kBlocked, threads));
  }
}

TEST(Trajectory, TrainerSurfacesPoolStats) {
  KernelStateGuard guard;
  const DdpmProblem problem(DdpmConfig{});
  PipelineRtConfig cfg;
  cfg.num_stages = 2;
  cfg.num_microbatches = 4;
  cfg.global_batch = 16;
  PipelineTrainer trainer(problem, cfg);
  const std::uint64_t avoided_before =
      TensorPool::global().stats().allocs_avoided;
  trainer.train(4);
  const TensorPool::Stats after = TensorPool::global().stats();
  // After the first iteration the working set is warm: later iterations
  // must be served from the free lists.
  EXPECT_GT(after.allocs_avoided, avoided_before);
  EXPECT_GT(after.peak_bytes, 0u);
}

}  // namespace
}  // namespace dpipe::rt
