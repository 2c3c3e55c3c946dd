// Elementwise/optimizer engine tests (DESIGN.md §13): the deterministic
// polynomial exp (accuracy vs libm, clamp semantics, cross-level
// bit-parity), scalar-vs-AVX2 bit-exact parity for every dispatched op
// across sizes and thread counts, the fused Adam update vs the historical
// reference loop, the slim small-shape matmul path, and bias/SiLU matmul
// epilogue fusion vs the unfused sequence — at tensor level and through
// the module layer's fused Linear→SiLU pair.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "runtime/eltwise.h"
#include "runtime/kernels.h"
#include "runtime/modules.h"
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

/// Input sizes: single element, sub-lane tails, exact lane multiples, one
/// fan-out block (8192), and a block-straddling remainder.
const std::vector<int>& parity_sizes() {
  static const std::vector<int> sizes = {1, 3, 7, 8, 9, 16, 31,
                                         100, 1000, 8192, 8201};
  return sizes;
}

Tensor make_input(int n, std::uint64_t seed, float scale = 3.0f) {
  Rng rng(seed);
  return rng.randn({1, n}, scale);
}

// --- Deterministic exp ----------------------------------------------------

TEST(EltwiseExp, AccuracyVsLibm) {
  // Dense sweep across the clamp range: |rel err| vs the double-precision
  // libm exp stays under 1e-6 (the polynomial's ~2-ulp design bound).
  double worst = 0.0;
  for (int i = -8700; i <= 8800; ++i) {
    const float x = static_cast<float>(i) * 0.01f;
    const double ref = std::exp(static_cast<double>(x));
    const double got = static_cast<double>(deterministic_exp(x));
    worst = std::max(worst, std::abs(got - ref) / ref);
  }
  EXPECT_LT(worst, 1e-6);
}

TEST(EltwiseExp, ClampAndIdentities) {
  EXPECT_EQ(deterministic_exp(0.0f), 1.0f);
  // Out-of-range inputs pin to the clamp boundaries by definition.
  EXPECT_EQ(deterministic_exp(-500.0f), deterministic_exp(-87.0f));
  EXPECT_EQ(deterministic_exp(500.0f), deterministic_exp(88.0f));
  EXPECT_TRUE(std::isfinite(deterministic_exp(88.0f)));
  EXPECT_GT(deterministic_exp(-87.0f), 0.0f);
}

TEST(EltwiseExp, ScalarVsAvx2BitExact) {
  if (!avx2_available()) {
    GTEST_SKIP() << "no AVX2 on this CPU/build";
  }
  SimdStateGuard guard;
  for (const int n : parity_sizes()) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    const Tensor x = make_input(n, 42, 20.0f);  // Covers both clamp edges.
    Tensor scalar_out({1, n});
    Tensor avx2_out({1, n});
    set_simd_level(SimdLevel::kScalar);
    exp_into(scalar_out, x);
    set_simd_level(SimdLevel::kAvx2);
    exp_into(avx2_out, x);
    expect_bit_equal(scalar_out, avx2_out);
  }
}

// --- Per-op scalar vs AVX2 parity ----------------------------------------

TEST(EltwiseParity, UnaryOpsBitExactAcrossLevels) {
  if (!avx2_available()) {
    GTEST_SKIP() << "no AVX2 on this CPU/build";
  }
  SimdStateGuard guard;
  using UnaryFn = void (*)(Tensor&, const Tensor&);
  const std::vector<std::pair<const char*, UnaryFn>> ops = {
      {"exp", &exp_into}, {"sigmoid", &sigmoid_into}, {"silu", &silu_into}};
  for (const auto& [name, fn] : ops) {
    for (const int n : parity_sizes()) {
      SCOPED_TRACE(::testing::Message() << name << " n=" << n);
      const Tensor x = make_input(n, 7 + n);
      Tensor a({1, n});
      Tensor b({1, n});
      set_simd_level(SimdLevel::kScalar);
      fn(a, x);
      set_simd_level(SimdLevel::kAvx2);
      fn(b, x);
      expect_bit_equal(a, b);
    }
  }
}

TEST(EltwiseParity, BinaryAndFusedOpsBitExactAcrossLevels) {
  if (!avx2_available()) {
    GTEST_SKIP() << "no AVX2 on this CPU/build";
  }
  SimdStateGuard guard;
  for (const int n : parity_sizes()) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    const Tensor x = make_input(n, 11 + n);
    const Tensor y = make_input(n, 13 + n);
    const Tensor g = make_input(n, 17 + n);

    auto run_all = [&](SimdLevel level) {
      set_simd_level(level);
      std::vector<Tensor> outs;
      Tensor t({1, n});
      silu_backward_into(t, x, g);
      outs.push_back(std::move(t));
      Tensor ai = x.slice_rows(0, 1);
      add_inplace(ai, y);
      outs.push_back(std::move(ai));
      Tensor si({1, n});
      sub_into(si, x, y);
      outs.push_back(std::move(si));
      Tensor sc = x.slice_rows(0, 1);
      scale_inplace(sc, 1.7f);
      outs.push_back(std::move(sc));
      Tensor ax = y.slice_rows(0, 1);
      axpy_inplace(ax, x, -0.37f);
      outs.push_back(std::move(ax));
      Tensor ss({1, n});
      sub_scale_into(ss, x, y, 0.123f);
      outs.push_back(std::move(ss));
      Tensor ab({1, n});
      eltwise_axpby(ab.data(), x.data(), y.data(), 0.6f, -1.2f, n);
      outs.push_back(std::move(ab));
      return outs;
    };
    const std::vector<Tensor> scalar_outs = run_all(SimdLevel::kScalar);
    const std::vector<Tensor> avx2_outs = run_all(SimdLevel::kAvx2);
    ASSERT_EQ(scalar_outs.size(), avx2_outs.size());
    for (std::size_t i = 0; i < scalar_outs.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "op index " << i);
      expect_bit_equal(scalar_outs[i], avx2_outs[i]);
    }
  }
}

TEST(EltwiseParity, RowOpsBitExactAcrossLevels) {
  if (!avx2_available()) {
    GTEST_SKIP() << "no AVX2 on this CPU/build";
  }
  SimdStateGuard guard;
  for (const auto& [rows, cols] : std::vector<std::pair<int, int>>{
           {1, 1}, {3, 7}, {4, 32}, {33, 37}, {130, 64}}) {
    SCOPED_TRACE(::testing::Message() << rows << "x" << cols);
    Rng rng(static_cast<std::uint64_t>(rows) * 1000 + cols);
    const Tensor a = rng.randn({rows, cols});
    const Tensor bias = rng.randn({1, cols});

    set_simd_level(SimdLevel::kScalar);
    Tensor ba_s = a.slice_rows(0, rows);
    bias_add_inplace(ba_s, bias);
    Tensor sr_s({1, cols});
    sum_rows_into(sr_s, a);

    set_simd_level(SimdLevel::kAvx2);
    Tensor ba_a = a.slice_rows(0, rows);
    bias_add_inplace(ba_a, bias);
    Tensor sr_a({1, cols});
    sum_rows_into(sr_a, a);

    expect_bit_equal(ba_s, ba_a);
    expect_bit_equal(sr_s, sr_a);
  }
}

TEST(EltwiseParity, SumRowsColumnFanOutBitExact) {
  // At or above the cost threshold sum_rows fans out over column blocks;
  // every column must still be one ascending chain over all rows, at every
  // SIMD level and executor width. 4096x100 ends in a partial block; the
  // trainer's 32x128 stays below the threshold and runs inline.
  SimdStateGuard guard;
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (avx2_available()) {
    levels.push_back(SimdLevel::kAvx2);
  }
  for (const auto& [rows, cols] : std::vector<std::pair<int, int>>{
           {4096, 256}, {4096, 100}, {32, 128}}) {
    SCOPED_TRACE(::testing::Message() << rows << "x" << cols);
    Rng rng(static_cast<std::uint64_t>(rows) * 7 + cols);
    const Tensor a = rng.randn({rows, cols});
    Tensor expected = Tensor::zeros({1, cols});
    for (int i = 0; i < rows; ++i) {
      for (int j = 0; j < cols; ++j) {
        expected.data()[j] = expected.data()[j] + a.at(i, j);
      }
    }
    for (const SimdLevel level : levels) {
      set_simd_level(level);
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message() << simd_level_name(level) << " x"
                                          << threads);
        set_kernel_threads(threads);
        Tensor out({1, cols});
        sum_rows_into(out, a);
        expect_bit_equal(out, expected);
      }
    }
  }
}

TEST(EltwiseParity, ThreadCountNeverChangesBits) {
  SimdStateGuard guard;
  // Big enough to clear the intra-op cost threshold (1 MiB of traffic), so
  // the fan-out genuinely engages when the pool has width.
  const int n = 300000;
  const Tensor x = make_input(n, 99);
  const Tensor g = make_input(n, 101);
  for (const int threads : {1, 2, 5}) {
    set_kernel_threads(threads);
    Tensor out({1, n});
    silu_into(out, x);
    Tensor bwd({1, n});
    silu_backward_into(bwd, x, g);
    set_kernel_threads(1);
    Tensor ref({1, n});
    silu_into(ref, x);
    Tensor ref_bwd({1, n});
    silu_backward_into(ref_bwd, x, g);
    expect_bit_equal(out, ref);
    expect_bit_equal(bwd, ref_bwd);
  }
}

// --- Fused Adam -----------------------------------------------------------

/// The historical optim.cpp inner loop, verbatim: the contract
/// eltwise_adam must reproduce bit-for-bit.
void reference_adam(Tensor& p, const Tensor& g, Tensor& m, Tensor& v,
                    float lr, float beta1, float beta2, float eps, float bc1,
                    float bc2) {
  float* pd = p.data();
  const float* gd = g.data();
  float* md = m.data();
  float* vd = v.data();
  for (std::int64_t j = 0; j < p.numel(); ++j) {
    md[j] = beta1 * md[j] + (1 - beta1) * gd[j];
    vd[j] = beta2 * vd[j] + (1 - beta2) * gd[j] * gd[j];
    const float mhat = md[j] / bc1;
    const float vhat = vd[j] / bc2;
    pd[j] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

TEST(EltwiseAdam, FusedMatchesReferenceTrajectoryBitExact) {
  SimdStateGuard guard;
  const float lr = 3e-3f;
  const float beta1 = 0.9f;
  const float beta2 = 0.999f;
  const float eps = 1e-8f;
  const std::vector<SimdLevel> levels =
      avx2_available()
          ? std::vector<SimdLevel>{SimdLevel::kScalar, SimdLevel::kAvx2}
          : std::vector<SimdLevel>{SimdLevel::kScalar};
  for (const SimdLevel level : levels) {
    SCOPED_TRACE(::testing::Message() << "level=" << simd_level_name(level));
    set_simd_level(level);
    for (const int n : {1, 13, 8201}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n);
      Rng rng(5000 + n);
      Tensor p_ref = rng.randn({1, n});
      Tensor p_fused = p_ref.slice_rows(0, 1);
      Tensor m_ref({1, n}), v_ref({1, n}), m_fused({1, n}), v_fused({1, n});
      for (int step = 1; step <= 50; ++step) {
        const Tensor g = rng.randn({1, n});
        const float bc1 = 1.0f - std::pow(beta1, static_cast<float>(step));
        const float bc2 = 1.0f - std::pow(beta2, static_cast<float>(step));
        reference_adam(p_ref, g, m_ref, v_ref, lr, beta1, beta2, eps, bc1,
                       bc2);
        eltwise_adam(p_fused, g, m_fused, v_fused, lr, beta1, beta2, eps,
                     bc1, bc2);
      }
      expect_bit_equal(p_ref, p_fused);
      expect_bit_equal(m_ref, m_fused);
      expect_bit_equal(v_ref, v_fused);
    }
  }
}

// --- Slim small-shape matmul path ----------------------------------------

TEST(EltwiseSlim, SmallShapesBitExactAcrossAllModes) {
  SimdStateGuard guard;
  // Shapes under the slim gate (n < 16 or tiny FLOPs): the blocked mode
  // must equal the naive reference bit-for-bit, at every SIMD level and
  // executor width.
  const std::vector<std::array<int, 3>> shapes = {
      {1, 1, 1}, {3, 5, 7}, {4, 12, 32}, {4, 32, 32}, {16, 32, 2},
      {12, 4, 32}, {64, 300, 3}};
  const std::vector<SimdLevel> levels =
      avx2_available()
          ? std::vector<SimdLevel>{SimdLevel::kScalar, SimdLevel::kAvx2}
          : std::vector<SimdLevel>{SimdLevel::kScalar};
  for (const auto& s : shapes) {
    SCOPED_TRACE(::testing::Message()
                 << "m=" << s[0] << " k=" << s[1] << " n=" << s[2]);
    Rng rng(static_cast<std::uint64_t>(s[0]) * 31 + s[1] * 7 + s[2]);
    const Tensor a = rng.randn({s[0], s[1]});
    const Tensor b_nn = rng.randn({s[1], s[2]});
    const Tensor b_nt = rng.randn({s[2], s[1]});
    Tensor ref({s[0], s[2]});
    matmul_into(ref, a, b_nn, KernelMode::kNaive);
    Tensor ref_nt({s[0], s[2]});
    matmul_nt_into(ref_nt, a, b_nt, KernelMode::kNaive);
    for (const SimdLevel level : levels) {
      set_simd_level(level);
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message()
                     << simd_level_name(level) << "/threads=" << threads);
        set_kernel_threads(threads);
        Tensor out({s[0], s[2]});
        matmul_into(out, a, b_nn, KernelMode::kBlocked);
        expect_bit_equal(ref, out);
        Tensor out_nt({s[0], s[2]});
        matmul_nt_into(out_nt, a, b_nt, KernelMode::kBlocked);
        expect_bit_equal(ref_nt, out_nt);
      }
    }
  }
}

// --- Matmul epilogue fusion ----------------------------------------------

TEST(EltwiseEpilogue, FusedBiasSiluMatchesUnfusedBitExact) {
  SimdStateGuard guard;
  // Slim, packed, narrow-n, and k-chunked (k > 256) shapes.
  const std::vector<std::array<int, 3>> shapes = {
      {4, 12, 32}, {16, 32, 2}, {7, 17, 15}, {61, 33, 65},
      {33, 600, 29}, {64, 512, 64}};
  const std::vector<SimdLevel> levels =
      avx2_available()
          ? std::vector<SimdLevel>{SimdLevel::kScalar, SimdLevel::kAvx2}
          : std::vector<SimdLevel>{SimdLevel::kScalar};
  for (const auto& s : shapes) {
    Rng rng(static_cast<std::uint64_t>(s[0]) * 131 + s[1] * 17 + s[2]);
    const Tensor a = rng.randn({s[0], s[1]});
    const Tensor b = rng.randn({s[1], s[2]});
    const Tensor bias = rng.randn({1, s[2]});
    for (const SimdLevel level : levels) {
      set_simd_level(level);
      for (const auto& [mode, threads] :
           {std::pair{KernelMode::kNaive, 1},
            std::pair{KernelMode::kBlocked, 1},
            std::pair{KernelMode::kBlocked, 4}}) {
        SCOPED_TRACE(::testing::Message()
                     << "m=" << s[0] << " k=" << s[1] << " n=" << s[2] << " "
                     << simd_level_name(level) << "/"
                     << kernel_mode_name(mode) << "/threads=" << threads);
        set_kernel_threads(threads);
        // Unfused: matmul, then bias sweep, then silu sweep.
        Tensor z_ref({s[0], s[2]});
        matmul_into(z_ref, a, b, mode);
        bias_add_inplace(z_ref, bias);
        Tensor y_ref({s[0], s[2]});
        silu_into(y_ref, z_ref);
        // Fused epilogue, separate activation buffer.
        Tensor z({s[0], s[2]});
        Tensor y({s[0], s[2]});
        MatmulEpilogue ep;
        ep.bias = &bias;
        ep.silu_out = &y;
        matmul_into(z, a, b, mode, ep);
        expect_bit_equal(z_ref, z);
        expect_bit_equal(y_ref, y);
        // Fused epilogue, in-place activation.
        Tensor zi({s[0], s[2]});
        MatmulEpilogue ep_in;
        ep_in.bias = &bias;
        ep_in.silu_out = &zi;
        matmul_into(zi, a, b, mode, ep_in);
        expect_bit_equal(y_ref, zi);
        // Bias-only epilogue.
        Tensor zb({s[0], s[2]});
        MatmulEpilogue ep_bias;
        ep_bias.bias = &bias;
        matmul_into(zb, a, b, mode, ep_bias);
        expect_bit_equal(z_ref, zb);
      }
    }
  }
}

TEST(EltwiseEpilogue, ModuleFusionMatchesUnfusedPairBitExact) {
  SimdStateGuard guard;
  Rng rng(424242);
  Sequential fused;
  fused.push(std::make_unique<Linear>(12, 32, rng));
  fused.push(std::make_unique<SiLU>());
  // Clone the weights into an identical unfused pair.
  Rng rng2(424242);
  Linear lin(12, 32, rng2);
  SiLU act;

  Rng data_rng(7);
  const Tensor x = data_rng.randn({4, 12});
  const Tensor g = data_rng.randn({4, 32});

  // Full-range forward takes the fused path; the manual pair is unfused.
  Tensor y_fused = fused.forward(x.slice_rows(0, 4));
  Tensor y_ref = act.forward(lin.forward(x.slice_rows(0, 4)));
  expect_bit_equal(y_ref, y_fused);

  // Backward is the plain per-module pair either way.
  Tensor gx_fused = fused.backward(g.slice_rows(0, 4));
  Tensor gx_ref = lin.backward(act.backward(g.slice_rows(0, 4)));
  expect_bit_equal(gx_ref, gx_fused);
  auto* fused_lin = dynamic_cast<Linear*>(&fused.module(0));
  ASSERT_NE(fused_lin, nullptr);
  expect_bit_equal(lin.grad_weight, fused_lin->grad_weight);
  expect_bit_equal(lin.grad_bias, fused_lin->grad_bias);

  // A stage cut that splits the pair falls back to unfused forward with
  // identical results (and contexts retire cleanly).
  Tensor h = fused.forward_range(x.slice_rows(0, 4), 0, 1);
  Tensor y_split = fused.forward_range(std::move(h), 1, 2);
  expect_bit_equal(y_ref, y_split);
  fused.drop_context();
}

// --- Runtime op profiler --------------------------------------------------

TEST(EltwiseProfile, CountersAccumulateAndReset) {
  SimdStateGuard guard;
  set_op_profiling(true);
  reset_op_profile();
  Rng rng(31337);
  const Tensor a = rng.randn({32, 48});
  const Tensor b = rng.randn({48, 40});
  Tensor out({32, 40});
  matmul_into(out, a, b, KernelMode::kBlocked);
  Tensor s({32, 40});
  silu_into(s, out);
  const RuntimeOpProfile prof = op_profile();
  EXPECT_EQ(prof.matmul_calls, 1u);
  EXPECT_EQ(prof.eltwise_calls, 1u);
  EXPECT_GT(prof.matmul_ns, 0u);
  EXPECT_GT(prof.eltwise_ns, 0u);
  set_op_profiling(false);
  reset_op_profile();
  const RuntimeOpProfile cleared = op_profile();
  EXPECT_EQ(cleared.matmul_calls, 0u);
  EXPECT_EQ(cleared.eltwise_ns, 0u);
  // Disabled profiling must not accumulate.
  Tensor s2({32, 40});
  silu_into(s2, out);
  EXPECT_EQ(op_profile().eltwise_calls, 0u);
}

}  // namespace
}  // namespace dpipe::rt
