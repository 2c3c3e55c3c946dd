// AVX2 packed microkernels. Together with eltwise_avx2.cpp this is the
// only code compiled with -mavx2 (CMake option DPIPE_NATIVE_KERNELS); it is
// entered only after the runtime CPUID dispatch in kernels.cpp confirmed
// hardware support, so no other TU ever executes AVX2 instructions.
//
// The TU is also compiled with -ffp-contract=off: every microkernel rounds
// the multiply and the add separately (matching the scalar fallback
// bit-for-bit), so the compiler must not contract a
// _mm256_mul_ps/_mm256_add_ps pair into an FMA.

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "runtime/eltwise_impl.h"
#include "runtime/kernels_impl.h"

namespace dpipe::rt::detail {

namespace {

/// Register tile: ROWS output rows x kPanelWidth columns held in 2*ROWS
/// accumulator registers across the whole shared dimension — each output
/// element is one uninterrupted chain over p ascending, seeded from the
/// stored partial sum when a k-chunked driver passes accumulate.
template <int ROWS>
void rows_x_panel(float* out, int ldout, const float* a,
                  std::ptrdiff_t a_row_stride, std::ptrdiff_t a_col_stride,
                  const float* panel, int kk, int i, int j0, int valid_cols,
                  bool accumulate) {
  __m256 acc_lo[ROWS];
  __m256 acc_hi[ROWS];
  if (accumulate) {
    for (int r = 0; r < ROWS; ++r) {
      const float* orow = out + static_cast<std::ptrdiff_t>(i + r) * ldout +
                          j0;
      if (valid_cols == kPanelWidth) {
        acc_lo[r] = _mm256_loadu_ps(orow);
        acc_hi[r] = _mm256_loadu_ps(orow + 8);
      } else {
        // Edge panel: never read past the matrix — stage through a zeroed
        // buffer (the padded lanes' chains are garbage but never stored).
        alignas(32) float buf[kPanelWidth] = {};
        std::memcpy(buf, orow,
                    static_cast<std::size_t>(valid_cols) * sizeof(float));
        acc_lo[r] = _mm256_load_ps(buf);
        acc_hi[r] = _mm256_load_ps(buf + 8);
      }
    }
  } else {
    for (int r = 0; r < ROWS; ++r) {
      acc_lo[r] = _mm256_setzero_ps();
      acc_hi[r] = _mm256_setzero_ps();
    }
  }
  for (int p = 0; p < kk; ++p) {
    const float* prow = panel + static_cast<std::ptrdiff_t>(p) * kPanelWidth;
    const __m256 b_lo = _mm256_load_ps(prow);      // 64B-aligned panel row.
    const __m256 b_hi = _mm256_load_ps(prow + 8);  // 32B-aligned half.
    const float* ap = a + static_cast<std::ptrdiff_t>(i) * a_row_stride +
                      static_cast<std::ptrdiff_t>(p) * a_col_stride;
    for (int r = 0; r < ROWS; ++r) {
      const __m256 av = _mm256_set1_ps(ap[r * a_row_stride]);
      acc_lo[r] = _mm256_add_ps(acc_lo[r], _mm256_mul_ps(av, b_lo));
      acc_hi[r] = _mm256_add_ps(acc_hi[r], _mm256_mul_ps(av, b_hi));
    }
  }
  for (int r = 0; r < ROWS; ++r) {
    float* orow = out + static_cast<std::ptrdiff_t>(i + r) * ldout + j0;
    if (valid_cols == kPanelWidth) {
      _mm256_storeu_ps(orow, acc_lo[r]);
      _mm256_storeu_ps(orow + 8, acc_hi[r]);
    } else {
      alignas(32) float buf[kPanelWidth];
      _mm256_store_ps(buf, acc_lo[r]);
      _mm256_store_ps(buf + 8, acc_hi[r]);
      std::memcpy(orow, buf, static_cast<std::size_t>(valid_cols) *
                                 sizeof(float));
    }
  }
}

void avx2_tile(float* out, int ldout, const float* a,
               std::ptrdiff_t a_row_stride, std::ptrdiff_t a_col_stride,
               const float* panel, int kk, int i0, int i1, int j0,
               int valid_cols, bool accumulate) {
  int i = i0;
  for (; i + kRowTile <= i1; i += kRowTile) {
    rows_x_panel<kRowTile>(out, ldout, a, a_row_stride, a_col_stride, panel,
                           kk, i, j0, valid_cols, accumulate);
  }
  // Remainder rows still get a register tile of their exact height.
  switch (i1 - i) {
    case 5:
      rows_x_panel<5>(out, ldout, a, a_row_stride, a_col_stride, panel, kk,
                      i, j0, valid_cols, accumulate);
      break;
    case 4:
      rows_x_panel<4>(out, ldout, a, a_row_stride, a_col_stride, panel, kk,
                      i, j0, valid_cols, accumulate);
      break;
    case 3:
      rows_x_panel<3>(out, ldout, a, a_row_stride, a_col_stride, panel, kk,
                      i, j0, valid_cols, accumulate);
      break;
    case 2:
      rows_x_panel<2>(out, ldout, a, a_row_stride, a_col_stride, panel, kk,
                      i, j0, valid_cols, accumulate);
      break;
    case 1:
      rows_x_panel<1>(out, ldout, a, a_row_stride, a_col_stride, panel, kk,
                      i, j0, valid_cols, accumulate);
      break;
    default:
      break;
  }
}

/// Fused bias/activation epilogue (kernels_impl.h contract): vector lanes
/// over full 8-column groups, scalar helpers for the tail — both execute
/// the same per-element chain (one add, then the deterministic SiLU), so
/// the result matches the scalar epilogue bit-for-bit.
void avx2_epilogue(float* out, int ldout, float* act, std::ptrdiff_t ldact,
                   const float* bias, int i0, int i1, int j0, int valid_cols) {
  for (int i = i0; i < i1; ++i) {
    float* orow = out + static_cast<std::ptrdiff_t>(i) * ldout + j0;
    if (bias != nullptr) {
      const float* brow = bias + j0;
      int c = 0;
      for (; c + 8 <= valid_cols; c += 8) {
        _mm256_storeu_ps(orow + c, _mm256_add_ps(_mm256_loadu_ps(orow + c),
                                                 _mm256_loadu_ps(brow + c)));
      }
      for (; c < valid_cols; ++c) {
        orow[c] = orow[c] + brow[c];
      }
    }
    if (act != nullptr) {
      float* arow = act + static_cast<std::ptrdiff_t>(i) * ldact + j0;
      int c = 0;
      for (; c + 8 <= valid_cols; c += 8) {
        _mm256_storeu_ps(arow + c, dpipe_silu8(_mm256_loadu_ps(orow + c)));
      }
      for (; c < valid_cols; ++c) {
        arow[c] = dpipe_silu(orow[c]);
      }
    }
  }
}

// --- Slim small-shape kernels (kernels_impl.h contract) -------------------
// Lane parallelism groups output COLUMNS only: each output element keeps
// its own ascending chain over p with _mm256_mul_ps/_mm256_add_ps rounded
// separately, so results match the scalar slim kernels bit-for-bit.

/// ROWS output rows x 8 columns held in registers across the whole shared
/// dimension; the b vector load is shared by every row's broadcast-mul.
template <int ROWS>
void slim_rows_x_cols8(float* out, const float* a, std::ptrdiff_t ars,
                       std::ptrdiff_t acs, const float* b, int i, int j,
                       int kk, int n) {
  __m256 acc[ROWS];
  for (int r = 0; r < ROWS; ++r) {
    acc[r] = _mm256_setzero_ps();
  }
  for (int p = 0; p < kk; ++p) {
    const __m256 bv =
        _mm256_loadu_ps(b + static_cast<std::ptrdiff_t>(p) * n + j);
    const float* ap = a + static_cast<std::ptrdiff_t>(i) * ars +
                      static_cast<std::ptrdiff_t>(p) * acs;
    for (int r = 0; r < ROWS; ++r) {
      const __m256 av = _mm256_set1_ps(ap[r * ars]);
      acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(av, bv));
    }
  }
  for (int r = 0; r < ROWS; ++r) {
    _mm256_storeu_ps(out + static_cast<std::ptrdiff_t>(i + r) * n + j,
                     acc[r]);
  }
}

void avx2_slim_row_major(float* out, const float* a, std::ptrdiff_t ars,
                         std::ptrdiff_t acs, const float* b, int rows, int kk,
                         int n) {
  const int n8 = n - n % 8;
  int i = 0;
  for (; i + 4 <= rows; i += 4) {
    for (int j = 0; j < n8; j += 8) {
      slim_rows_x_cols8<4>(out, a, ars, acs, b, i, j, kk, n);
    }
  }
  for (; i < rows; ++i) {
    for (int j = 0; j < n8; j += 8) {
      slim_rows_x_cols8<1>(out, a, ars, acs, b, i, j, kk, n);
    }
  }
  // Tail columns: scalar chains, same order as the scalar slim kernel.
  for (i = 0; i < rows; ++i) {
    const float* arow = a + static_cast<std::ptrdiff_t>(i) * ars;
    float* orow = out + static_cast<std::ptrdiff_t>(i) * n;
    for (int j = n8; j < n; ++j) {
      orow[j] = 0.0f;
    }
    for (int p = 0; p < kk; ++p) {
      const float av = arow[static_cast<std::ptrdiff_t>(p) * acs];
      const float* brow = b + static_cast<std::ptrdiff_t>(p) * n;
      for (int j = n8; j < n; ++j) {
        orow[j] += av * brow[j];
      }
    }
  }
}

void avx2_slim_transposed(float* out, const float* a, std::ptrdiff_t ars,
                          std::ptrdiff_t acs, const float* b, int rows,
                          int kk, int n) {
  // 8 output columns per vector; lane l walks row j+l of b via a gather
  // with stride kk. Each lane is one ascending dot-product chain.
  const int n8 = n - n % 8;
  const __m256i idx = _mm256_setr_epi32(0, kk, 2 * kk, 3 * kk, 4 * kk,
                                        5 * kk, 6 * kk, 7 * kk);
  for (int i = 0; i < rows; ++i) {
    const float* arow = a + static_cast<std::ptrdiff_t>(i) * ars;
    float* orow = out + static_cast<std::ptrdiff_t>(i) * n;
    for (int j = 0; j < n8; j += 8) {
      const float* bbase = b + static_cast<std::ptrdiff_t>(j) * kk;
      __m256 acc = _mm256_setzero_ps();
      for (int p = 0; p < kk; ++p) {
        const __m256 av =
            _mm256_set1_ps(arow[static_cast<std::ptrdiff_t>(p) * acs]);
        const __m256 bv = _mm256_i32gather_ps(bbase + p, idx, 4);
        acc = _mm256_add_ps(acc, _mm256_mul_ps(av, bv));
      }
      _mm256_storeu_ps(orow + j, acc);
    }
    for (int j = n8; j < n; ++j) {
      const float* brow = b + static_cast<std::ptrdiff_t>(j) * kk;
      float acc = 0.0f;
      for (int p = 0; p < kk; ++p) {
        acc += arow[static_cast<std::ptrdiff_t>(p) * acs] * brow[p];
      }
      orow[j] = acc;
    }
  }
}

}  // namespace

const Microkernels& avx2_microkernels() {
  static const Microkernels kernels{"avx2", &avx2_tile, &avx2_epilogue,
                                    &avx2_slim_row_major,
                                    &avx2_slim_transposed};
  return kernels;
}

}  // namespace dpipe::rt::detail
