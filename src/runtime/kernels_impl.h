#pragma once

// Internal interface between the packed-matmul driver (kernels.cpp) and the
// per-ISA microkernel translation units. Not installed, not part of the
// public API — include only from runtime kernel TUs and their tests.
//
// Layout contract (DESIGN.md §11): the driver packs the B operand into
// panels of kPanelWidth output columns. Panel jp is contiguous —
// kPanelWidth * kk floats starting 64-byte aligned — and stores element
// (p, r) (shared-dimension index p, panel-local column r) at
// panel[p * kPanelWidth + r], zero-padded for columns beyond the matrix
// edge. Every packed row is therefore one cache line, and both 8-float
// halves are 32-byte aligned, so the AVX2 microkernel issues aligned loads.
//
// Exactness contract: tile() computes each output element as one
// accumulation chain over p ascending in [0, kk), seeded from 0.0f, with
// a separate rounding for the multiply and the add — exactly the chain the
// naive triple loop produces. Implementations may reorder *which* elements
// advance together (vector lanes, register tiles) but never the chain
// itself, so every ISA level is bit-identical in every kernel mode. No
// microkernel contracts a multiply-add pair into an FMA.
//
// When the driver cache-blocks a long shared dimension it splits the chain
// at fixed chunk boundaries and passes accumulate=true for every chunk but
// the first: the tile seeds its accumulators from the stored partial sums
// instead of 0.0f and continues the chain. A float round-trips through
// memory exactly, so the chunked chain is bit-identical to the unchunked
// one — chunk boundaries are chosen by the driver (never per-ISA or
// per-thread), keeping the cross-level guarantee intact.

#include <cstddef>

namespace dpipe::rt::detail {

/// Output columns per packed panel (one 64-byte cache line of floats).
inline constexpr int kPanelWidth = 16;

/// Output rows per register tile in the vector microkernels: 6 rows x 2
/// vectors of 8 columns = 12 accumulator registers, leaving room for the
/// two panel loads and the broadcast in a 16-register file.
inline constexpr int kRowTile = 6;

/// One microkernel implementation (one ISA level).
///
/// tile(out, ldout, a, a_row_stride, a_col_stride, panel, kk, i0, i1, j0,
///      valid_cols, accumulate) computes, for every output row i in
/// [i0, i1) and panel column r in [0, valid_cols):
///   out[i * ldout + j0 + r] = seed + sum over p in [0, kk) of
///       a[i * a_row_stride + p * a_col_stride] * panel[p * kPanelWidth + r]
/// where seed is the existing out value when accumulate is true and 0.0f
/// otherwise (so accumulate=false overwrites, zero when kk == 0). The a
/// strides express the three transpose variants without copying A: nn/nt
/// pass (lda, 1), tn passes (1, lda).
struct Microkernels {
  const char* name;
  void (*tile)(float* out, int ldout, const float* a,
               std::ptrdiff_t a_row_stride, std::ptrdiff_t a_col_stride,
               const float* panel, int kk, int i0, int i1, int j0,
               int valid_cols, bool accumulate);
  /// Fused bias/activation epilogue, applied by the driver to the output
  /// region rows [i0, i1) x columns [j0, j0 + valid_cols) right after that
  /// region's final k-chunk, while it is cache-hot. For each element
  /// e = out[i * ldout + j0 + c]:
  ///   if bias != null:  e += bias[j0 + c], stored back to out;
  ///   if act  != null:  act[i * ldact + j0 + c] = dpipe_silu(e)
  /// (eltwise_impl.h's deterministic SiLU; act may alias out for in-place
  /// activation). One add and the fixed SiLU op chain per element, so the
  /// fused result is bit-identical to the unfused bias_add + silu sweeps —
  /// and bit-identical across ISA levels, same as tile().
  void (*epilogue)(float* out, int ldout, float* act, std::ptrdiff_t ldact,
                   const float* bias, int i0, int i1, int j0, int valid_cols);
  /// Slim small-shape kernel, b row-major [kk, n] (no packing, no task
  /// grid — the driver routes shapes below its slim gate here). Computes
  /// out[i * n + j] = sum over p ascending of
  ///   a[i * ars + p * acs] * b[p * n + j]
  /// seeded 0.0f, multiply and add rounded separately. Lane parallelism
  /// may only group different output elements; each element's chain stays
  /// ascending, so ISA levels are bit-identical.
  void (*slim_row_major)(float* out, const float* a, std::ptrdiff_t ars,
                         std::ptrdiff_t acs, const float* b, int rows, int kk,
                         int n);
  /// Slim kernel, b transposed [n, kk]: out[i * n + j] = one ascending dot
  /// of a(i, ·) (strided) and row j of b. Same exactness rules as
  /// slim_row_major.
  void (*slim_transposed)(float* out, const float* a, std::ptrdiff_t ars,
                          std::ptrdiff_t acs, const float* b, int rows,
                          int kk, int n);
};

/// Portable fallback, compiled with the project's base ISA flags.
[[nodiscard]] const Microkernels& scalar_microkernels();

#if defined(DPIPE_HAVE_AVX2_TU)
/// AVX2 microkernels; present only when CMake compiled the native TU.
/// Call only when cpu_supports_avx2() — the TU contains AVX2 instructions.
[[nodiscard]] const Microkernels& avx2_microkernels();
#endif

}  // namespace dpipe::rt::detail
