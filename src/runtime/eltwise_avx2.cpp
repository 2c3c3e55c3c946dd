// AVX2 elementwise/optimizer kernels. Like kernels_avx2.cpp this is one of
// the only TUs compiled with -mavx2 (CMake option DPIPE_NATIVE_KERNELS) and
// it is entered only after the runtime CPUID dispatch confirmed hardware
// support.
//
// Also compiled with -ffp-contract=off, and no kernel here uses an FMA
// instruction: every multiply and add is rounded separately so each vector
// lane reproduces the scalar kernel's per-element op chain bit-for-bit
// (eltwise_impl.h spells out the contract). Scalar tail loops reuse the
// same static-inline helpers the portable TU compiles, which the base ISA
// cannot contract either — so tails match full lanes and the scalar TU.

#include <immintrin.h>

#include <cstdint>

#include "runtime/eltwise_impl.h"

namespace dpipe::rt::detail {

namespace {

constexpr std::int64_t kLanes = 8;

void a_vexp(float* out, const float* x, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(out + i, dpipe_exp8(_mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) {
    out[i] = dpipe_exp(x[i]);
  }
}

void a_sigmoid(float* out, const float* x, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(out + i, dpipe_sigmoid8(_mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) {
    out[i] = dpipe_sigmoid(x[i]);
  }
}

void a_silu(float* out, const float* x, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(out + i, dpipe_silu8(_mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) {
    out[i] = dpipe_silu(x[i]);
  }
}

void a_silu_bwd(float* gin, const float* x, const float* gout,
                std::int64_t n) {
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(gin + i, dpipe_silu_bwd8(_mm256_loadu_ps(gout + i),
                                              _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) {
    gin[i] = dpipe_silu_bwd(gout[i], x[i]);
  }
}

void a_add(float* out, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(
        out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) {
    out[i] = a[i] + b[i];
  }
}

void a_sub(float* out, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(
        out + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) {
    out[i] = a[i] - b[i];
  }
}

void a_scale(float* out, const float* a, float s, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (; i < n; ++i) {
    out[i] = a[i] * s;
  }
}

void a_axpy(float* y, const float* x, float alpha, std::int64_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) {
    y[i] = y[i] + alpha * x[i];
  }
}

void a_axpby(float* out, const float* x, const float* y, float a, float b,
             std::int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  const __m256 vb = _mm256_set1_ps(b);
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 px = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    const __m256 py = _mm256_mul_ps(vb, _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(out + i, _mm256_add_ps(px, py));
  }
  for (; i < n; ++i) {
    out[i] = a * x[i] + b * y[i];
  }
}

void a_sub_scale(float* out, const float* a, const float* b, float s,
                 std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    _mm256_storeu_ps(out + i, _mm256_mul_ps(d, vs));
  }
  for (; i < n; ++i) {
    out[i] = (a[i] - b[i]) * s;
  }
}

void a_bias_add(float* y, std::int64_t ld, const float* bias, int rows,
                int cols) {
  for (int i = 0; i < rows; ++i) {
    float* row = y + static_cast<std::ptrdiff_t>(i) * ld;
    int j = 0;
    for (; j + kLanes <= cols; j += kLanes) {
      _mm256_storeu_ps(
          row + j,
          _mm256_add_ps(_mm256_loadu_ps(row + j), _mm256_loadu_ps(bias + j)));
    }
    for (; j < cols; ++j) {
      row[j] = row[j] + bias[j];
    }
  }
}

void a_sum_rows(float* out, const float* a, std::int64_t ld, int rows,
                int cols) {
  // Vectorize across columns: each output column keeps its own ascending
  // accumulation chain over rows, exactly like the scalar kernel. Strips
  // of four vectors stream each row's 128 bytes once, with four
  // independent chains in flight.
  int j = 0;
  for (; j + 4 * kLanes <= cols; j += 4 * kLanes) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    for (int i = 0; i < rows; ++i) {
      const float* row = a + static_cast<std::ptrdiff_t>(i) * ld + j;
      acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(row));
      acc1 = _mm256_add_ps(acc1, _mm256_loadu_ps(row + kLanes));
      acc2 = _mm256_add_ps(acc2, _mm256_loadu_ps(row + 2 * kLanes));
      acc3 = _mm256_add_ps(acc3, _mm256_loadu_ps(row + 3 * kLanes));
    }
    _mm256_storeu_ps(out + j, acc0);
    _mm256_storeu_ps(out + j + kLanes, acc1);
    _mm256_storeu_ps(out + j + 2 * kLanes, acc2);
    _mm256_storeu_ps(out + j + 3 * kLanes, acc3);
  }
  for (; j + kLanes <= cols; j += kLanes) {
    __m256 acc = _mm256_setzero_ps();
    for (int i = 0; i < rows; ++i) {
      acc = _mm256_add_ps(
          acc, _mm256_loadu_ps(a + static_cast<std::ptrdiff_t>(i) * ld + j));
    }
    _mm256_storeu_ps(out + j, acc);
  }
  for (; j < cols; ++j) {
    float acc = 0.0f;
    for (int i = 0; i < rows; ++i) {
      acc = acc + a[static_cast<std::ptrdiff_t>(i) * ld + j];
    }
    out[j] = acc;
  }
}

void a_adam(float* p, const float* g, float* m, float* v, const AdamConsts& c,
            std::int64_t n) {
  const __m256 b1 = _mm256_set1_ps(c.beta1);
  const __m256 b2 = _mm256_set1_ps(c.beta2);
  const __m256 omb1 = _mm256_set1_ps(c.one_minus_beta1);
  const __m256 omb2 = _mm256_set1_ps(c.one_minus_beta2);
  const __m256 bc1 = _mm256_set1_ps(c.bc1);
  const __m256 bc2 = _mm256_set1_ps(c.bc2);
  const __m256 lr = _mm256_set1_ps(c.lr);
  const __m256 eps = _mm256_set1_ps(c.eps);
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 gv = _mm256_loadu_ps(g + i);
    const __m256 mn = _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + i)),
                                    _mm256_mul_ps(omb1, gv));
    const __m256 vn =
        _mm256_add_ps(_mm256_mul_ps(b2, _mm256_loadu_ps(v + i)),
                      _mm256_mul_ps(_mm256_mul_ps(omb2, gv), gv));
    _mm256_storeu_ps(m + i, mn);
    _mm256_storeu_ps(v + i, vn);
    const __m256 mhat = _mm256_div_ps(mn, bc1);
    const __m256 vhat = _mm256_div_ps(vn, bc2);
    const __m256 denom = _mm256_add_ps(_mm256_sqrt_ps(vhat), eps);
    const __m256 step = _mm256_div_ps(_mm256_mul_ps(lr, mhat), denom);
    _mm256_storeu_ps(p + i, _mm256_sub_ps(_mm256_loadu_ps(p + i), step));
  }
  for (; i < n; ++i) {
    dpipe_adam_element(p + i, g + i, m + i, v + i, c);
  }
}

}  // namespace

const EltwiseKernels& avx2_eltwise() {
  static const EltwiseKernels kernels{
      "avx2",  &a_vexp, &a_sigmoid,  &a_silu,     &a_silu_bwd,
      &a_add,  &a_sub,  &a_scale,    &a_axpy,     &a_axpby,
      &a_sub_scale, &a_bias_add, &a_sum_rows, &a_adam,
  };
  return kernels;
}

}  // namespace dpipe::rt::detail
