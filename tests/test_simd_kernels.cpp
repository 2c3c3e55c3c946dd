// SIMD dispatch and exactness tests (DESIGN.md §11): bit-exact parity
// between the scalar fallback and the AVX2 microkernels across executor
// widths, parity of both levels with the naive reference, and the
// DPIPE_SIMD dispatch surface itself.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <utility>
#include <vector>

#include "runtime/kernels.h"
#include "runtime/pipeline_exec.h"
#include "runtime/simd.h"

namespace dpipe::rt {
namespace {

/// Restores kernel mode, pool width, and SIMD level on scope exit.
struct SimdStateGuard {
  KernelMode mode = kernel_mode();
  SimdLevel level = simd_level();
  ~SimdStateGuard() {
    set_kernel_mode(mode);
    set_kernel_threads(0);
    set_simd_level(level);
  }
};

bool avx2_available() {
  return build_has_avx2_kernels() && cpu_supports_avx2();
}

void expect_bit_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  if (a.numel() == 0) {
    return;
  }
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0);
}

struct OpOutputs {
  Tensor nn, tn, nt;
};

/// All three transpose variants at (m, k, n) under the given mode with the
/// current SIMD level / thread count.
OpOutputs run_ops(int m, int k, int n, KernelMode mode) {
  Rng rng(static_cast<std::uint64_t>(m) * 7919 +
          static_cast<std::uint64_t>(k) * 131 + n + 17);
  const Tensor a = rng.randn({m, k});
  const Tensor b_nn = rng.randn({k, n});
  const Tensor b_tn = rng.randn({m, n});
  const Tensor b_nt = rng.randn({n, k});
  OpOutputs out{Tensor({m, n}), Tensor({k, n}), Tensor({m, n})};
  matmul_into(out.nn, a, b_nn, mode);
  matmul_tn_into(out.tn, a, b_tn, mode);
  matmul_nt_into(out.nt, a, b_nt, mode);
  return out;
}

const std::vector<std::array<int, 3>>& parity_shapes() {
  // Square, rectangular (skinny/tall like the trainer's batch x hidden
  // GEMMs), tile-boundary straddling, panel-edge, and long-shared-dimension
  // shapes (kPanelWidth=16, kRowTile=6, row block 60, panel group 4, and
  // k > kKChunk=256 so the chunked partial-sum accumulation is exercised).
  static const std::vector<std::array<int, 3>> shapes = {
      {1, 1, 1},    {2, 3, 4},     {16, 40, 32},  {16, 32, 2},
      {6, 16, 16},  {7, 17, 15},   {61, 33, 65},  {64, 64, 64},
      {130, 70, 33}, {128, 128, 128}, {33, 600, 29}, {64, 512, 64}};
  return shapes;
}

TEST(SimdDispatch, ResolvesToSupportedLevel) {
  SimdStateGuard guard;
  const SimdLevel level = simd_level();
  EXPECT_TRUE(level == SimdLevel::kScalar || level == SimdLevel::kAvx2);
  if (level == SimdLevel::kAvx2) {
    EXPECT_TRUE(avx2_available());
  }
  EXPECT_STREQ(simd_level_name(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(simd_level_name(SimdLevel::kAvx2), "avx2");
}

TEST(SimdDispatch, ScalarIsAlwaysSettable) {
  SimdStateGuard guard;
  set_simd_level(SimdLevel::kScalar);
  EXPECT_EQ(simd_level(), SimdLevel::kScalar);
  // And the kernels still work through it.
  Rng rng(3);
  const Tensor a = rng.randn({5, 7});
  const Tensor b = rng.randn({7, 9});
  Tensor ref({5, 9});
  Tensor out({5, 9});
  matmul_into(ref, a, b, KernelMode::kNaive);
  matmul_into(out, a, b, KernelMode::kBlocked);
  expect_bit_equal(ref, out);
}

TEST(SimdDispatch, RejectsAvx2WhenUnavailable) {
  if (avx2_available()) {
    GTEST_SKIP() << "AVX2 is available; nothing to reject";
  }
  EXPECT_THROW(set_simd_level(SimdLevel::kAvx2), std::invalid_argument);
}

TEST(SimdParity, ScalarVsAvx2BitExactAcrossModesAndThreads) {
  if (!avx2_available()) {
    GTEST_SKIP() << "no AVX2 on this CPU/build";
  }
  SimdStateGuard guard;
  for (const auto& s : parity_shapes()) {
    SCOPED_TRACE(::testing::Message()
                 << "m=" << s[0] << " k=" << s[1] << " n=" << s[2]);
    for (const int threads : {1, 4}) {
      set_kernel_threads(threads);
      set_simd_level(SimdLevel::kScalar);
      const OpOutputs scalar = run_ops(s[0], s[1], s[2], KernelMode::kBlocked);
      set_simd_level(SimdLevel::kAvx2);
      const OpOutputs avx2 = run_ops(s[0], s[1], s[2], KernelMode::kBlocked);
      expect_bit_equal(scalar.nn, avx2.nn);
      expect_bit_equal(scalar.tn, avx2.tn);
      expect_bit_equal(scalar.nt, avx2.nt);
    }
  }
}

TEST(SimdParity, BothLevelsMatchNaiveReference) {
  SimdStateGuard guard;
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (avx2_available()) {
    levels.push_back(SimdLevel::kAvx2);
  }
  for (const auto& s : parity_shapes()) {
    SCOPED_TRACE(::testing::Message()
                 << "m=" << s[0] << " k=" << s[1] << " n=" << s[2]);
    const OpOutputs ref = run_ops(s[0], s[1], s[2], KernelMode::kNaive);
    for (const SimdLevel level : levels) {
      set_simd_level(level);
      const OpOutputs got = run_ops(s[0], s[1], s[2], KernelMode::kBlocked);
      expect_bit_equal(ref.nn, got.nn);
      expect_bit_equal(ref.tn, got.tn);
      expect_bit_equal(ref.nt, got.nt);
    }
  }
}

/// Full-feature pipeline run under one SIMD level (default kernel mode).
std::pair<std::vector<double>, std::vector<Tensor>> run_pipeline(
    SimdLevel level) {
  set_simd_level(level);
  set_kernel_mode(KernelMode::kBlocked);
  set_kernel_threads(0);
  DdpmConfig dc;
  dc.self_conditioning = true;
  dc.self_cond_prob = 0.5;
  const DdpmProblem problem(dc);
  PipelineRtConfig cfg;
  cfg.num_stages = 3;
  cfg.num_microbatches = 4;
  cfg.data_parallel_degree = 2;
  cfg.global_batch = 32;
  cfg.lr = 0.2f;
  cfg.cross_iteration = true;
  PipelineTrainer trainer(problem, cfg);
  trainer.train(6);
  return {trainer.losses(), trainer.snapshot_params()};
}

TEST(SimdParity, TrajectoryBitExactAcrossLevels) {
  if (!avx2_available()) {
    GTEST_SKIP() << "no AVX2 on this CPU/build";
  }
  SimdStateGuard guard;
  const auto scalar = run_pipeline(SimdLevel::kScalar);
  const auto avx2 = run_pipeline(SimdLevel::kAvx2);
  ASSERT_EQ(scalar.first.size(), avx2.first.size());
  for (std::size_t i = 0; i < scalar.first.size(); ++i) {
    EXPECT_DOUBLE_EQ(scalar.first[i], avx2.first[i]) << "iteration " << i;
  }
  ASSERT_EQ(scalar.second.size(), avx2.second.size());
  for (std::size_t i = 0; i < scalar.second.size(); ++i) {
    EXPECT_EQ(max_abs_diff(scalar.second[i], avx2.second[i]), 0.0f);
  }
}

TEST(Roofline, PeakEstimateIsPositive) {
  SimdStateGuard guard;
  set_simd_level(SimdLevel::kScalar);
  EXPECT_GT(measured_peak_gflops(), 0.0);
  if (avx2_available()) {
    set_simd_level(SimdLevel::kAvx2);
    EXPECT_GT(measured_peak_gflops(), 0.0);
  }
}

}  // namespace
}  // namespace dpipe::rt
