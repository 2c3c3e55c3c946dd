#pragma once

#include <cstdint>

#include "runtime/tensor.h"

namespace dpipe::rt {

/// Which matmul implementation the runtime dispatches to.
///
/// Exactness contract (DESIGN.md §11): in both modes every output element
/// is a single accumulation chain over the inner dimension in ascending
/// order, seeded from 0.0f, with the multiply and the add rounded
/// separately. Packing, vector lanes, register tiles, and the 2-D parallel
/// fan-out reorder *memory traffic* only, never the floating-point
/// reduction — so the two modes are bit-identical to each other, across
/// executor widths, and across SIMD levels (DPIPE_SIMD=scalar|avx2).
enum class KernelMode {
  kNaive,    ///< Bounds-checked triple loop: the test reference.
  /// Packed SIMD microkernels; work of at least kParallelCostThreshold
  /// FLOPs fans out over the executor in a (row-block x panel-group) grid.
  kBlocked,
};

[[nodiscard]] const char* kernel_mode_name(KernelMode mode);

/// Process-wide dispatch mode (default kBlocked).
[[nodiscard]] KernelMode kernel_mode();
void set_kernel_mode(KernelMode mode);

/// Width of the process-wide executor (common/parallel.h) that runs intra-op
/// fan-out, pipeline waves and the planner: its worker threads plus the
/// calling thread. It starts at DPIPE_THREADS, else the CPUs this process
/// may run on; set_kernel_threads(n) replaces the workers so the width is n
/// (n <= 0 restores the default). Results never depend on this value — the
/// task decomposition is fixed and every output element is computed whole
/// by one task — only wall time does.
[[nodiscard]] int kernel_threads();
void set_kernel_threads(int num_threads);

// Out-parameter matmuls: `out` must already have the result shape and must
// not alias an input. Every element of `out` is overwritten (recycled pool
// buffers with stale contents are safe inputs).

/// out = a [m,k] x b [k,n].
void matmul_into(Tensor& out, const Tensor& a, const Tensor& b);
void matmul_into(Tensor& out, const Tensor& a, const Tensor& b,
                 KernelMode mode);

/// Optional fused epilogue for matmul_into: the driver applies it to each
/// output tile right after that tile's final k-chunk, while the tile is
/// cache-hot, instead of re-reading the whole output in separate bias/SiLU
/// sweeps. Bit-identical to the unfused sequence (matmul, then
/// bias_add_inplace, then silu_into) on every SIMD level — a float
/// round-trips memory exactly and the per-element op chain is unchanged
/// (DESIGN.md §13).
struct MatmulEpilogue {
  /// Row vector added to every output row; numel must equal out.cols().
  /// Null: no bias.
  const Tensor* bias = nullptr;
  /// Destination for silu(out); same shape as out, may be &out (in-place).
  /// Null: no activation. Uses the runtime's deterministic_exp SiLU.
  Tensor* silu_out = nullptr;
};
void matmul_into(Tensor& out, const Tensor& a, const Tensor& b,
                 KernelMode mode, const MatmulEpilogue& epilogue);
/// out = a^T [m,k] x b [m,n] -> [k,n] (weight gradients).
void matmul_tn_into(Tensor& out, const Tensor& a, const Tensor& b);
void matmul_tn_into(Tensor& out, const Tensor& a, const Tensor& b,
                    KernelMode mode);
/// out = a [m,k] x b^T [n,k] -> [m,n] (input gradients).
void matmul_nt_into(Tensor& out, const Tensor& a, const Tensor& b);
void matmul_nt_into(Tensor& out, const Tensor& a, const Tensor& b,
                    KernelMode mode);

/// Measured single-thread compute-roofline estimate for the packed
/// microkernels at the current SIMD level: best GFLOP/s of the register
/// tile over an L1-resident problem (no packing, no memory traffic beyond
/// cache). Used by bench_runtime_kernels' roofline report.
[[nodiscard]] double measured_peak_gflops();

// --- Runtime op profiler --------------------------------------------------
// Process-wide wall-time accounting split into matmul vs elementwise
// buckets, used by bench_runtime_kernels' GEMM-vs-non-GEMM breakdown.
// Overhead when disabled is one relaxed atomic load per op; when enabled,
// one steady_clock pair and two relaxed atomic adds per op. Counters are
// cumulative across threads (stage threads included) until reset.

struct RuntimeOpProfile {
  std::uint64_t matmul_ns = 0;
  std::uint64_t matmul_calls = 0;
  std::uint64_t eltwise_ns = 0;
  std::uint64_t eltwise_calls = 0;
};

void set_op_profiling(bool enabled);
[[nodiscard]] bool op_profiling_enabled();
[[nodiscard]] RuntimeOpProfile op_profile();
void reset_op_profile();

}  // namespace dpipe::rt
