#include "runtime/eltwise.h"

#include <algorithm>
#include <chrono>

#include "runtime/eltwise_impl.h"
#include "runtime/intraop.h"
#include "runtime/simd.h"

namespace dpipe::rt {

namespace {

using detail::AdamConsts;
using detail::EltwiseKernels;

// --- Portable scalar kernels ---------------------------------------------
// Compiled with the base ISA only: auto-vectorization may widen these loops
// but every op here is a single correctly-rounded instruction per step (no
// FMA exists in the base ISA, and the transcendental helpers fix their own
// op order), so widening never changes bits. These are the reference the
// AVX2 TU must match lane-for-lane.

void s_vexp(float* out, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = detail::dpipe_exp(x[i]);
  }
}

void s_sigmoid(float* out, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = detail::dpipe_sigmoid(x[i]);
  }
}

void s_silu(float* out, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = detail::dpipe_silu(x[i]);
  }
}

void s_silu_bwd(float* gin, const float* x, const float* gout,
                std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    gin[i] = detail::dpipe_silu_bwd(gout[i], x[i]);
  }
}

void s_add(float* out, const float* a, const float* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = a[i] + b[i];
  }
}

void s_sub(float* out, const float* a, const float* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = a[i] - b[i];
  }
}

void s_scale(float* out, const float* a, float s, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = a[i] * s;
  }
}

void s_axpy(float* y, const float* x, float alpha, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = y[i] + alpha * x[i];
  }
}

void s_axpby(float* out, const float* x, const float* y, float a, float b,
             std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = a * x[i] + b * y[i];
  }
}

void s_sub_scale(float* out, const float* a, const float* b, float s,
                 std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = (a[i] - b[i]) * s;
  }
}

void s_bias_add(float* y, std::int64_t ld, const float* bias, int rows,
                int cols) {
  for (int i = 0; i < rows; ++i) {
    float* row = y + static_cast<std::ptrdiff_t>(i) * ld;
    for (int j = 0; j < cols; ++j) {
      row[j] = row[j] + bias[j];
    }
  }
}

void s_sum_rows(float* out, const float* a, std::int64_t ld, int rows,
                int cols) {
  for (int j = 0; j < cols; ++j) {
    out[j] = 0.0f;
  }
  for (int i = 0; i < rows; ++i) {
    const float* row = a + static_cast<std::ptrdiff_t>(i) * ld;
    for (int j = 0; j < cols; ++j) {
      out[j] = out[j] + row[j];
    }
  }
}

void s_adam(float* p, const float* g, float* m, float* v, const AdamConsts& c,
            std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    detail::dpipe_adam_element(p + i, g + i, m + i, v + i, c);
  }
}

// --- Threading ------------------------------------------------------------

/// Fixed fan-out block: 8K elements (32 KiB) per task. Block boundaries
/// depend only on n and each output element is written by exactly one task,
/// so results are identical for any executor width (including the inline
/// fallback). Below kParallelCostThreshold the fan-out is
/// skipped entirely — which covers everything the small trainer does; the
/// parallel path exists for the wide sweeps the bench and larger models
/// drive.
constexpr std::int64_t kEltwiseBlock = 1 << 13;

template <typename Fn>
void run_blocks(std::int64_t n, std::int64_t bytes_per_elem, const Fn& fn) {
  if (n <= 0) {
    return;
  }
  const int num_tasks =
      static_cast<int>((n + kEltwiseBlock - 1) / kEltwiseBlock);
  detail::intraop_for_each_task(
      num_tasks, n * bytes_per_elem, [&](int t) {
        const std::int64_t start = static_cast<std::int64_t>(t) *
                                   kEltwiseBlock;
        fn(start, std::min(kEltwiseBlock, n - start));
      });
}

/// Accumulates wall time into the eltwise bucket of the runtime op profile
/// when profiling is on (one relaxed atomic load when it is not).
class OpTimer {
 public:
  OpTimer() : on_(detail::op_profiling_enabled()) {
    if (on_) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~OpTimer() {
    if (on_) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      detail::profile_add_eltwise(static_cast<std::uint64_t>(ns));
    }
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  bool on_;
  std::chrono::steady_clock::time_point start_;
};

void check_same_numel(const Tensor& a, const Tensor& b, const char* what) {
  DPIPE_REQUIRE(a.numel() == b.numel(),
                std::string(what) + ": element count mismatch");
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* what) {
  DPIPE_REQUIRE(a.shape() == b.shape(),
                std::string(what) + ": tensor shape mismatch");
}

}  // namespace

namespace detail {

const EltwiseKernels& scalar_eltwise() {
  static const EltwiseKernels kernels{
      "scalar",  &s_vexp, &s_sigmoid,  &s_silu,     &s_silu_bwd,
      &s_add,    &s_sub,  &s_scale,    &s_axpy,     &s_axpby,
      &s_sub_scale, &s_bias_add, &s_sum_rows, &s_adam,
  };
  return kernels;
}

const EltwiseKernels& active_eltwise() {
#if defined(DPIPE_HAVE_AVX2_TU)
  if (simd_level() == SimdLevel::kAvx2) {
    return avx2_eltwise();
  }
#endif
  return scalar_eltwise();
}

}  // namespace detail

float deterministic_exp(float x) { return detail::dpipe_exp(x); }

void exp_into(Tensor& out, const Tensor& x) {
  check_same_numel(out, x, "exp_into");
  const OpTimer timer;
  const EltwiseKernels& ek = detail::active_eltwise();
  run_blocks(x.numel(), 8, [&](std::int64_t s, std::int64_t len) {
    ek.vexp(out.data() + s, x.data() + s, len);
  });
}

void sigmoid_into(Tensor& out, const Tensor& x) {
  check_same_numel(out, x, "sigmoid_into");
  const OpTimer timer;
  const EltwiseKernels& ek = detail::active_eltwise();
  run_blocks(x.numel(), 8, [&](std::int64_t s, std::int64_t len) {
    ek.sigmoid(out.data() + s, x.data() + s, len);
  });
}

void silu_into(Tensor& out, const Tensor& x) {
  check_same_numel(out, x, "silu_into");
  const OpTimer timer;
  const EltwiseKernels& ek = detail::active_eltwise();
  run_blocks(x.numel(), 8, [&](std::int64_t s, std::int64_t len) {
    ek.silu(out.data() + s, x.data() + s, len);
  });
}

void silu_backward_into(Tensor& gin, const Tensor& x, const Tensor& gout) {
  check_same_numel(gin, x, "silu_backward_into");
  check_same_numel(gin, gout, "silu_backward_into");
  const OpTimer timer;
  const EltwiseKernels& ek = detail::active_eltwise();
  run_blocks(x.numel(), 12, [&](std::int64_t s, std::int64_t len) {
    ek.silu_bwd(gin.data() + s, x.data() + s, gout.data() + s, len);
  });
}

void bias_add_inplace(Tensor& y, const Tensor& bias) {
  DPIPE_REQUIRE(bias.numel() == y.cols(),
                "bias_add_inplace: bias length must equal columns");
  const OpTimer timer;
  const EltwiseKernels& ek = detail::active_eltwise();
  const int cols = y.cols();
  const int rows = y.rows();
  // Row-block tasks (fixed 256-row granularity): each row is written whole
  // by one task.
  constexpr int kRowBlock = 256;
  const int num_tasks = (rows + kRowBlock - 1) / kRowBlock;
  detail::intraop_for_each_task(
      num_tasks, static_cast<std::int64_t>(rows) * cols * 8, [&](int t) {
        const int r0 = t * kRowBlock;
        const int r1 = std::min(r0 + kRowBlock, rows);
        ek.bias_add(y.data() + static_cast<std::ptrdiff_t>(r0) * cols, cols,
                    bias.data(), r1 - r0, cols);
      });
}

void sub_scale_into(Tensor& out, const Tensor& a, const Tensor& b, float s) {
  check_same_numel(out, a, "sub_scale_into");
  check_same_numel(a, b, "sub_scale_into");
  const OpTimer timer;
  const EltwiseKernels& ek = detail::active_eltwise();
  run_blocks(a.numel(), 12, [&](std::int64_t st, std::int64_t len) {
    ek.sub_scale(out.data() + st, a.data() + st, b.data() + st, s, len);
  });
}

void eltwise_axpby(float* out, const float* x, const float* y, float alpha,
                   float beta, std::int64_t n) {
  // Row-fragment helper: unthreaded and untimed by design — callers invoke
  // it on short rows inside their own loops, where a steady_clock pair per
  // call would cost more than the op.
  detail::active_eltwise().axpby(out, x, y, alpha, beta, n);
}

void eltwise_adam(Tensor& p, const Tensor& g, Tensor& m, Tensor& v, float lr,
                  float beta1, float beta2, float eps, float bc1, float bc2) {
  check_same_numel(p, g, "eltwise_adam");
  check_same_numel(p, m, "eltwise_adam");
  check_same_numel(p, v, "eltwise_adam");
  const OpTimer timer;
  AdamConsts c;
  c.beta1 = beta1;
  c.beta2 = beta2;
  c.one_minus_beta1 = 1.0f - beta1;
  c.one_minus_beta2 = 1.0f - beta2;
  c.bc1 = bc1;
  c.bc2 = bc2;
  c.lr = lr;
  c.eps = eps;
  const EltwiseKernels& ek = detail::active_eltwise();
  run_blocks(p.numel(), 28, [&](std::int64_t s, std::int64_t len) {
    ek.adam(p.data() + s, g.data() + s, m.data() + s, v.data() + s, c, len);
  });
}

// --- tensor.h in-place ops (declared there, dispatched here) --------------

void add_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add_inplace");
  const OpTimer timer;
  const EltwiseKernels& ek = detail::active_eltwise();
  run_blocks(a.numel(), 12, [&](std::int64_t s, std::int64_t len) {
    ek.add(a.data() + s, a.data() + s, b.data() + s, len);
  });
}

void sub_into(Tensor& out, const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub_into");
  DPIPE_REQUIRE(out.shape() == a.shape(), "sub_into output shape mismatch");
  const OpTimer timer;
  const EltwiseKernels& ek = detail::active_eltwise();
  run_blocks(a.numel(), 12, [&](std::int64_t s, std::int64_t len) {
    ek.sub(out.data() + s, a.data() + s, b.data() + s, len);
  });
}

void scale_inplace(Tensor& a, float s) {
  const OpTimer timer;
  const EltwiseKernels& ek = detail::active_eltwise();
  run_blocks(a.numel(), 8, [&](std::int64_t st, std::int64_t len) {
    ek.scale(a.data() + st, a.data() + st, s, len);
  });
}

void axpy_inplace(Tensor& y, const Tensor& x, float alpha) {
  check_same_shape(y, x, "axpy_inplace");
  const OpTimer timer;
  const EltwiseKernels& ek = detail::active_eltwise();
  run_blocks(y.numel(), 12, [&](std::int64_t s, std::int64_t len) {
    ek.axpy(y.data() + s, x.data() + s, alpha, len);
  });
}

void sum_rows_into(Tensor& out, const Tensor& a) {
  DPIPE_REQUIRE(out.rows() == 1 && out.cols() == a.cols(),
                "sum_rows_into output shape mismatch");
  const OpTimer timer;
  // Single task: each output column is one ascending chain over all rows,
  // which cannot be split without changing the reduction.
  detail::active_eltwise().sum_rows(out.data(), a.data(), a.cols(), a.rows(),
                                    a.cols());
}

}  // namespace dpipe::rt
