#include "runtime/kernels.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstring>

#include "runtime/eltwise_impl.h"
#include "runtime/intraop.h"
#include "runtime/kernels_impl.h"
#include "runtime/pool.h"
#include "runtime/simd.h"

namespace dpipe::rt {

namespace {

using detail::kPanelWidth;
using detail::kRowTile;
using detail::Microkernels;

// Parallel task grid. Tasks tile the *output*: blocks of kParRowBlock rows
// (a multiple of the register tile so only edge tasks see remainder rows)
// by groups of kParColGroup packed panels. Each output element is computed
// whole by exactly one task, so results are independent of how tasks are
// scheduled — the determinism across thread counts needs no other
// argument. The constants are fixed (never derived from the thread count)
// so the decomposition itself is reproducible too.
constexpr int kParRowBlock = 10 * kRowTile;  ///< 60 output rows per task.
constexpr int kParColGroup = 4;              ///< Packed panels per task.

/// Cache block over the shared dimension: a packed panel chunk is
/// kKChunk * 64 bytes (16 KiB), so chunk + register-tile A rows + output
/// tile stay L1-resident even when kk itself is large. Chains split at
/// these fixed boundaries and resume from the stored partial sums — exact
/// (see kernels_impl.h) because a float round-trips through memory
/// unchanged, and deterministic because the boundaries depend only on kk.
constexpr int kKChunk = 256;

/// The tn variant walks A down columns (a_col_stride = lda, one fresh
/// cache line per chunk step); above this many A elements that walk spills
/// L1, so the driver transpose-packs the A chunk into contiguous rows
/// first. Shape-only threshold, so the decision — and the result, since
/// packing copies values untouched — is deterministic.
constexpr std::int64_t kPackAThreshold = 16 * 1024;

/// At or below this many FLOPs (2*m*k*n) the packed pipeline is pure
/// overhead — two TensorPool acquire/releases behind a global mutex plus a
/// full B-panel packing sweep dwarf the arithmetic — so the driver takes
/// the slim no-pack path below. Narrow outputs (n < kPanelWidth) also go
/// slim at any FLOP count: they fill at most one zero-padded panel, wasting
/// most of every packed lane. Shape-only gate, so dispatch stays
/// deterministic; the slim kernels keep the exact ascending chains (see
/// kernels_impl.h), so results are bit-identical to the packed path on
/// every SIMD level.
constexpr std::int64_t kSlimFlopThreshold = 1 << 14;

std::atomic<KernelMode> g_mode{KernelMode::kBlocked};

// --- Scalar packed microkernel (portable fallback) -----------------------
// Same panel layout and accumulation chains as the AVX2 TU: lanes are
// panel-local columns, each chain runs over p ascending with separate
// multiply/add roundings. The base build carries no FMA instructions, so
// the compiler cannot contract the pair; auto-vectorization only widens
// lanes, which does not touch any chain.

template <int ROWS>
void scalar_rows_x_panel(float* out, int ldout, const float* a,
                         std::ptrdiff_t a_row_stride,
                         std::ptrdiff_t a_col_stride, const float* panel,
                         int kk, int i, int j0, int valid_cols,
                         bool accumulate) {
  float acc[ROWS][kPanelWidth] = {};
  if (accumulate) {
    // K-chunked call: continue each chain from its stored partial sum
    // (padded lanes stay zero-seeded; they are never stored).
    for (int r = 0; r < ROWS; ++r) {
      const float* orow = out + static_cast<std::ptrdiff_t>(i + r) * ldout +
                          j0;
      std::memcpy(acc[r], orow,
                  static_cast<std::size_t>(valid_cols) * sizeof(float));
    }
  }
  for (int p = 0; p < kk; ++p) {
    const float* prow = panel + static_cast<std::ptrdiff_t>(p) * kPanelWidth;
    const float* ap = a + static_cast<std::ptrdiff_t>(i) * a_row_stride +
                      static_cast<std::ptrdiff_t>(p) * a_col_stride;
    for (int r = 0; r < ROWS; ++r) {
      const float av = ap[r * a_row_stride];
      for (int j = 0; j < kPanelWidth; ++j) {
        acc[r][j] += av * prow[j];
      }
    }
  }
  for (int r = 0; r < ROWS; ++r) {
    float* orow = out + static_cast<std::ptrdiff_t>(i + r) * ldout + j0;
    std::memcpy(orow, acc[r],
                static_cast<std::size_t>(valid_cols) * sizeof(float));
  }
}

void scalar_tile(float* out, int ldout, const float* a,
                 std::ptrdiff_t a_row_stride, std::ptrdiff_t a_col_stride,
                 const float* panel, int kk, int i0, int i1, int j0,
                 int valid_cols, bool accumulate) {
  int i = i0;
  for (; i + 4 <= i1; i += 4) {
    scalar_rows_x_panel<4>(out, ldout, a, a_row_stride, a_col_stride, panel,
                           kk, i, j0, valid_cols, accumulate);
  }
  for (; i < i1; ++i) {
    scalar_rows_x_panel<1>(out, ldout, a, a_row_stride, a_col_stride, panel,
                           kk, i, j0, valid_cols, accumulate);
  }
}

const Microkernels& active_microkernels() {
#if defined(DPIPE_HAVE_AVX2_TU)
  if (simd_level() == SimdLevel::kAvx2) {
    return detail::avx2_microkernels();
  }
#endif
  return detail::scalar_microkernels();
}

/// Accumulates wall time into the matmul bucket of the runtime op profile
/// when profiling is on.
class MatmulTimer {
 public:
  MatmulTimer() : on_(detail::op_profiling_enabled()) {
    if (on_) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~MatmulTimer() {
    if (on_) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      detail::profile_add_matmul(static_cast<std::uint64_t>(ns));
    }
  }
  MatmulTimer(const MatmulTimer&) = delete;
  MatmulTimer& operator=(const MatmulTimer&) = delete;

 private:
  bool on_;
  std::chrono::steady_clock::time_point start_;
};

// --- Scalar epilogue (portable fallback) ---------------------------------
// Same per-element chain as the AVX2 epilogue: one add for the bias, then
// the deterministic SiLU from eltwise_impl.h. The base TU has no FMA, so
// nothing here can contract; bit-identical across ISA levels.

void scalar_epilogue(float* out, int ldout, float* act, std::ptrdiff_t ldact,
                     const float* bias, int i0, int i1, int j0,
                     int valid_cols) {
  for (int i = i0; i < i1; ++i) {
    float* orow = out + static_cast<std::ptrdiff_t>(i) * ldout + j0;
    if (bias != nullptr) {
      const float* brow = bias + j0;
      for (int c = 0; c < valid_cols; ++c) {
        orow[c] = orow[c] + brow[c];
      }
    }
    if (act != nullptr) {
      float* arow = act + static_cast<std::ptrdiff_t>(i) * ldact + j0;
      for (int c = 0; c < valid_cols; ++c) {
        arow[c] = detail::dpipe_silu(orow[c]);
      }
    }
  }
}

// --- Slim small-shape kernels (portable fallback) ------------------------
// No packing, no TensorPool traffic, no task grid: plain stride-addressed
// loops, dispatched through the Microkernels table like the tiles (the
// AVX2 TU lane-parallelizes output columns). Bit-equality with the packed
// path and across levels needs only the per-level contract: each output
// element is one ascending accumulation over p with the multiply and add
// rounded separately (no FMA exists in the base ISA, and the AVX2 slim
// kernels use none).

/// b row-major [kk, n]: accumulate in the output row (seeded 0), sweeping p
/// outer / j inner so b rows stream once per output row.
void slim_row_major(float* out, const float* a, std::ptrdiff_t ars,
                    std::ptrdiff_t acs, const float* b, int rows, int kk,
                    int n) {
  for (int i = 0; i < rows; ++i) {
    float* orow = out + static_cast<std::ptrdiff_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      orow[j] = 0.0f;
    }
    const float* arow = a + static_cast<std::ptrdiff_t>(i) * ars;
    for (int p = 0; p < kk; ++p) {
      const float av = arow[static_cast<std::ptrdiff_t>(p) * acs];
      const float* brow = b + static_cast<std::ptrdiff_t>(p) * n;
      for (int j = 0; j < n; ++j) {
        orow[j] += av * brow[j];
      }
    }
  }
}

/// b transposed [n, kk]: per-element dot products (both operands walk
/// contiguously when acs == 1).
void slim_transposed(float* out, const float* a, std::ptrdiff_t ars,
                     std::ptrdiff_t acs, const float* b, int rows, int kk,
                     int n) {
  for (int i = 0; i < rows; ++i) {
    float* orow = out + static_cast<std::ptrdiff_t>(i) * n;
    const float* arow = a + static_cast<std::ptrdiff_t>(i) * ars;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::ptrdiff_t>(j) * kk;
      float acc = 0.0f;
      for (int p = 0; p < kk; ++p) {
        acc += arow[static_cast<std::ptrdiff_t>(p) * acs] * brow[p];
      }
      orow[j] = acc;
    }
  }
}

// --- B-panel packing ------------------------------------------------------
// The packed buffer holds ceil(n / kPanelWidth) contiguous panels; panel jp
// stores logical element (p, j0 + r) at panel[p * kPanelWidth + r], zero
// for columns past the edge (the padded lanes feed accumulators whose
// results are never stored). Buffers come from the TensorPool, whose
// 64-byte-aligned, granule-rounded buckets make every panel row one
// aligned cache line and recycle the buffer across calls.

/// Packs b [kk, n] (row-major, leading dimension n).
void pack_row_major(float* packed, const float* b, int kk, int n) {
  const int panels = (n + kPanelWidth - 1) / kPanelWidth;
  for (int jp = 0; jp < panels; ++jp) {
    float* dst = packed + static_cast<std::ptrdiff_t>(jp) * kk * kPanelWidth;
    const int j0 = jp * kPanelWidth;
    const int width = std::min(kPanelWidth, n - j0);
    for (int p = 0; p < kk; ++p) {
      const float* src = b + static_cast<std::ptrdiff_t>(p) * n + j0;
      float* row = dst + static_cast<std::ptrdiff_t>(p) * kPanelWidth;
      std::memcpy(row, src, static_cast<std::size_t>(width) * sizeof(float));
      for (int j = width; j < kPanelWidth; ++j) {
        row[j] = 0.0f;
      }
    }
  }
}

/// Packs kc shared-dimension elements starting at p0 of b [n, ld]
/// (row-major) as their transpose: panel element (p, r) is
/// b[(j0 + r) * ld + p0 + p], so the nt variant reuses the nn microkernel.
void pack_transposed(float* packed, const float* b, int ld, int p0, int kc,
                     int n) {
  const int panels = (n + kPanelWidth - 1) / kPanelWidth;
  for (int jp = 0; jp < panels; ++jp) {
    float* dst = packed + static_cast<std::ptrdiff_t>(jp) * kc * kPanelWidth;
    const int j0 = jp * kPanelWidth;
    const int width = std::min(kPanelWidth, n - j0);
    for (int r = 0; r < width; ++r) {
      const float* src =
          b + static_cast<std::ptrdiff_t>(j0 + r) * ld + p0;
      for (int p = 0; p < kc; ++p) {
        dst[static_cast<std::ptrdiff_t>(p) * kPanelWidth + r] = src[p];
      }
    }
    for (int r = width; r < kPanelWidth; ++r) {
      for (int p = 0; p < kc; ++p) {
        dst[static_cast<std::ptrdiff_t>(p) * kPanelWidth + r] = 0.0f;
      }
    }
  }
}

/// Transpose-packs the A chunk a(i, p0 + q) = a[i * ars + (p0 + q) * acs]
/// into row-major scratch [rows, kc] so the microkernel's broadcasts read
/// contiguously. Used for tn (ars == 1), where consecutive i share a source
/// cache line, so the q-strided reads stay hot across the inner sweep.
void pack_a_chunk(float* packed, const float* a, std::ptrdiff_t ars,
                  std::ptrdiff_t acs, int rows, int kc) {
  for (int i = 0; i < rows; ++i) {
    float* dst = packed + static_cast<std::ptrdiff_t>(i) * kc;
    const float* src = a + static_cast<std::ptrdiff_t>(i) * ars;
    for (int q = 0; q < kc; ++q) {
      dst[q] = src[static_cast<std::ptrdiff_t>(q) * acs];
    }
  }
}

// --- Packed-matmul driver -------------------------------------------------

/// Shared driver for all three transpose variants: a(i, p) is addressed via
/// the two strides, b is packed (transposing if b_transposed), and the 2-D
/// task grid fans out over the executor once the work clears
/// kParallelCostThreshold. `ep` (nullable) is the fused bias/activation
/// epilogue, applied per output region as it finishes.
void packed_matmul(Tensor& out, const float* a, std::ptrdiff_t a_row_stride,
                   std::ptrdiff_t a_col_stride, const float* b,
                   bool b_transposed, int rows, int kk, int n,
                   const detail::EpilogueArgs* ep) {
  if (rows == 0 || n == 0) {
    return;
  }
  const Microkernels& mk = active_microkernels();
  float* out_data = out.data();
  if (kk == 0) {
    std::fill(out_data, out_data + out.numel(), 0.0f);
    if (ep != nullptr) {
      mk.epilogue(out_data, n, ep->act, ep->ldact, ep->bias, 0, rows, 0, n);
    }
    return;
  }
  const std::int64_t flops = 2LL * rows * kk * n;
  if (n < kPanelWidth || flops <= kSlimFlopThreshold) {
    if (b_transposed) {
      mk.slim_transposed(out_data, a, a_row_stride, a_col_stride, b, rows,
                         kk, n);
    } else {
      mk.slim_row_major(out_data, a, a_row_stride, a_col_stride, b, rows, kk,
                        n);
    }
    if (ep != nullptr) {
      mk.epilogue(out_data, n, ep->act, ep->ldact, ep->bias, 0, rows, 0, n);
    }
    return;
  }
  const int panels = (n + kPanelWidth - 1) / kPanelWidth;
  const int row_blocks = (rows + kParRowBlock - 1) / kParRowBlock;
  const int col_groups = (panels + kParColGroup - 1) / kParColGroup;

  TensorPool& pool = TensorPool::global();
  const int kc_max = std::min(kk, kKChunk);
  Tensor packed = pool.acquire({panels * kPanelWidth, kc_max});
  const bool pack_a = a_col_stride != 1 && panels >= 2 &&
                      static_cast<std::int64_t>(rows) * kk >= kPackAThreshold;
  Tensor a_scratch = pack_a ? pool.acquire({rows, kc_max}) : Tensor();
  // Sweep the shared dimension in L1-sized chunks (one chunk when kk fits).
  // Each chunk packs its B slice and runs the full 2-D task grid; the grid
  // join between chunks orders the partial-sum writes before their reads.
  for (int p0 = 0; p0 < kk; p0 += kKChunk) {
    const int kc = std::min(kKChunk, kk - p0);
    const bool accumulate = p0 > 0;
    if (b_transposed) {
      pack_transposed(packed.data(), b, kk, p0, kc, n);
    } else {
      pack_row_major(packed.data(), b + static_cast<std::ptrdiff_t>(p0) * n,
                     kc, n);
    }
    const float* panel_base = packed.data();
    const float* a_chunk = a + static_cast<std::ptrdiff_t>(p0) * a_col_stride;
    std::ptrdiff_t ars = a_row_stride;
    std::ptrdiff_t acs = a_col_stride;
    if (pack_a) {
      pack_a_chunk(a_scratch.data(), a_chunk, a_row_stride, a_col_stride,
                   rows, kc);
      a_chunk = a_scratch.data();
      ars = kc;
      acs = 1;
    }
    const bool last_chunk = p0 + kc >= kk;
    detail::intraop_for_each_task(row_blocks * col_groups, flops, [&](int t) {
      const int rb = t / col_groups;
      const int cg = t % col_groups;
      const int i0 = rb * kParRowBlock;
      const int i1 = std::min(i0 + kParRowBlock, rows);
      const int jp_end = std::min((cg + 1) * kParColGroup, panels);
      for (int jp = cg * kParColGroup; jp < jp_end; ++jp) {
        const int j0 = jp * kPanelWidth;
        const int valid = std::min(kPanelWidth, n - j0);
        mk.tile(out_data, n, a_chunk, ars, acs,
                panel_base + static_cast<std::ptrdiff_t>(jp) * kc * kPanelWidth,
                kc, i0, i1, j0, valid, accumulate);
        if (last_chunk && ep != nullptr) {
          // The region's chains are complete and the tile is still L1-hot:
          // fuse the bias/activation pass here instead of a fresh sweep.
          mk.epilogue(out_data, n, ep->act, ep->ldact, ep->bias, i0, i1, j0,
                      valid);
        }
      }
    });
  }
  if (pack_a) {
    pool.release(std::move(a_scratch));
  }
  pool.release(std::move(packed));
}

void check_matmul_shapes(const Tensor& out, const Tensor& a, const Tensor& b,
                         int m, int k, int n, const char* what) {
  DPIPE_REQUIRE(out.rows() == m && out.cols() == n,
                std::string(what) + ": output shape mismatch");
  DPIPE_REQUIRE(out.numel() == 0 ||
                    (out.data() != a.data() && out.data() != b.data()),
                std::string(what) + ": output must not alias an input");
  (void)k;
}

// --- Naive kernels: faithful ports of the pre-substrate triple loops -----
// (bounds-checked at() access, zeroed output, ascending inner loop). These
// define the reference accumulation chains the packed kernels reproduce.

void nn_naive(Tensor& out, const Tensor& a, const Tensor& b) {
  std::fill(out.data(), out.data() + out.numel(), 0.0f);
  for (int i = 0; i < a.rows(); ++i) {
    for (int k = 0; k < a.cols(); ++k) {
      const float av = a.at(i, k);
      for (int j = 0; j < b.cols(); ++j) {
        out.at(i, j) += av * b.at(k, j);
      }
    }
  }
}

void tn_naive(Tensor& out, const Tensor& a, const Tensor& b) {
  std::fill(out.data(), out.data() + out.numel(), 0.0f);
  for (int m = 0; m < a.rows(); ++m) {
    for (int i = 0; i < a.cols(); ++i) {
      const float av = a.at(m, i);
      for (int j = 0; j < b.cols(); ++j) {
        out.at(i, j) += av * b.at(m, j);
      }
    }
  }
}

void nt_naive(Tensor& out, const Tensor& a, const Tensor& b) {
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.rows(); ++j) {
      float acc = 0.0f;
      for (int k = 0; k < a.cols(); ++k) {
        acc += a.at(i, k) * b.at(j, k);
      }
      out.at(i, j) = acc;
    }
  }
}

}  // namespace

namespace detail {

const Microkernels& scalar_microkernels() {
  static const Microkernels kernels{"scalar", &scalar_tile, &scalar_epilogue,
                                    &slim_row_major, &slim_transposed};
  return kernels;
}

}  // namespace detail

const char* kernel_mode_name(KernelMode mode) {
  switch (mode) {
    case KernelMode::kNaive:
      return "naive";
    case KernelMode::kBlocked:
      return "blocked";
  }
  return "?";
}

KernelMode kernel_mode() { return g_mode.load(std::memory_order_relaxed); }

void set_kernel_mode(KernelMode mode) {
  g_mode.store(mode, std::memory_order_relaxed);
}

int kernel_threads() { return executor_width(); }

void set_kernel_threads(int num_threads) { set_executor_width(num_threads); }

void matmul_into(Tensor& out, const Tensor& a, const Tensor& b,
                 KernelMode mode, const MatmulEpilogue& epilogue) {
  DPIPE_REQUIRE(a.cols() == b.rows(), "matmul inner dimension mismatch");
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.cols();
  check_matmul_shapes(out, a, b, m, k, n, "matmul_into");
  const MatmulTimer timer;
  detail::EpilogueArgs ep;
  const bool fused =
      epilogue.bias != nullptr || epilogue.silu_out != nullptr;
  if (epilogue.bias != nullptr) {
    DPIPE_REQUIRE(epilogue.bias->numel() == n,
                  "matmul_into: epilogue bias length must equal columns");
    ep.bias = epilogue.bias->data();
  }
  if (epilogue.silu_out != nullptr) {
    DPIPE_REQUIRE(epilogue.silu_out->rows() == m &&
                      epilogue.silu_out->cols() == n,
                  "matmul_into: epilogue activation shape mismatch");
    ep.act = epilogue.silu_out->data();
    ep.ldact = n;
  }
  if (mode == KernelMode::kNaive) {
    nn_naive(out, a, b);
    if (fused) {
      // Same per-element chain as the fused path, applied in one sweep.
      active_microkernels().epilogue(out.data(), n, ep.act, ep.ldact, ep.bias,
                                     0, m, 0, n);
    }
    return;
  }
  packed_matmul(out, a.data(), k, 1, b.data(), /*b_transposed=*/false, m, k,
                n, fused ? &ep : nullptr);
}

void matmul_into(Tensor& out, const Tensor& a, const Tensor& b,
                 KernelMode mode) {
  matmul_into(out, a, b, mode, MatmulEpilogue{});
}

void matmul_tn_into(Tensor& out, const Tensor& a, const Tensor& b,
                    KernelMode mode) {
  DPIPE_REQUIRE(a.rows() == b.rows(), "matmul_tn outer dimension mismatch");
  const int m = a.rows();
  const int k = a.cols();  // Output rows.
  const int n = b.cols();
  check_matmul_shapes(out, a, b, k, m, n, "matmul_tn_into");
  const MatmulTimer timer;
  if (mode == KernelMode::kNaive) {
    tn_naive(out, a, b);
    return;
  }
  // out[i][j] = sum over the shared row index m of a[m][i] * b[m][j]:
  // a(i, p) = a[p * k + i].
  packed_matmul(out, a.data(), 1, k, b.data(), /*b_transposed=*/false, k, m,
                n, nullptr);
}

void matmul_nt_into(Tensor& out, const Tensor& a, const Tensor& b,
                    KernelMode mode) {
  DPIPE_REQUIRE(a.cols() == b.cols(), "matmul_nt inner dimension mismatch");
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.rows();  // Output cols.
  check_matmul_shapes(out, a, b, m, k, n, "matmul_nt_into");
  const MatmulTimer timer;
  if (mode == KernelMode::kNaive) {
    nt_naive(out, a, b);
    return;
  }
  packed_matmul(out, a.data(), k, 1, b.data(), /*b_transposed=*/true, m, k,
                n, nullptr);
}

void matmul_into(Tensor& out, const Tensor& a, const Tensor& b) {
  matmul_into(out, a, b, kernel_mode());
}

void matmul_tn_into(Tensor& out, const Tensor& a, const Tensor& b) {
  matmul_tn_into(out, a, b, kernel_mode());
}

void matmul_nt_into(Tensor& out, const Tensor& a, const Tensor& b) {
  matmul_nt_into(out, a, b, kernel_mode());
}

double measured_peak_gflops() {
  const Microkernels& mk = active_microkernels();
  // L1-resident problem: a 24x128 A block (12 KiB), one packed panel
  // (8 KiB), a 24x16 output tile — the register tile's issue rate is the
  // only bottleneck, which is the compute roofline the bench report
  // compares achieved GFLOP/s against.
  constexpr int kRows = 24;
  constexpr int kK = 128;
  TensorPool& pool = TensorPool::global();
  Tensor a = pool.acquire({kRows, kK});
  Tensor panel = pool.acquire({kPanelWidth, kK});
  Tensor out = pool.acquire({kRows, kPanelWidth});
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    a.data()[i] = 1.0f + 1e-6f * static_cast<float>(i % 97);
  }
  for (std::int64_t i = 0; i < panel.numel(); ++i) {
    panel.data()[i] = 1.0f - 1e-6f * static_cast<float>(i % 89);
  }
  const double flops_per_call = 2.0 * kRows * kK * kPanelWidth;
  // Many short reps, best-of: on a time-shared machine a single slow
  // scheduling window must not masquerade as the compute ceiling.
  constexpr int kCallsPerRep = 500;
  constexpr int kReps = 16;
  double best_seconds = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {  // Rep 0 is the warm-up.
    const auto start = std::chrono::steady_clock::now();
    for (int c = 0; c < kCallsPerRep; ++c) {
      mk.tile(out.data(), kPanelWidth, a.data(), kK, 1, panel.data(), kK, 0,
              kRows, 0, kPanelWidth, /*accumulate=*/false);
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (rep == 0) {
      continue;
    }
    if (best_seconds == 0.0 || seconds < best_seconds) {
      best_seconds = seconds;
    }
  }
  pool.release(std::move(a));
  pool.release(std::move(panel));
  pool.release(std::move(out));
  return flops_per_call * kCallsPerRep / (best_seconds * 1e9);
}

}  // namespace dpipe::rt
