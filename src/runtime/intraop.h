#pragma once

// Internal interface to the intra-op fan-out and the runtime op profiler.
// Not installed, not part of the public API — include only from runtime
// kernel/eltwise TUs. The public surface (kernel_threads,
// set_kernel_threads, set_op_profiling, op_profile) lives in kernels.h.
//
// Every intra-op fan-out — the packed matmul task grid (kernels.cpp) and
// the wide elementwise/optimizer loops (eltwise.cpp) — runs on the
// process-wide executor (common/parallel.h). It recruits only idle
// workers, so kernels called from pipeline wave tasks that occupy every
// worker run inline.
//
// Determinism contract: callers decompose work into tasks whose boundaries
// depend only on the problem shape (never on the thread count), and every
// output element is written whole by exactly one task — so results are
// bit-identical for any executor width, including the inline path.

#include <cstdint>

#include "common/parallel.h"

namespace dpipe::rt::detail {

/// Runs fn(t) for every task t in [0, num_tasks) on the executor when the
/// work (`cost`: FLOPs or bytes moved) is at least kParallelCostThreshold;
/// otherwise inline, in ascending order.
template <typename Fn>
void intraop_for_each_task(int num_tasks, std::int64_t cost, const Fn& fn) {
  parallel_for(static_cast<std::size_t>(num_tasks),
               cost >= kParallelCostThreshold ? 0 : 1,
               [&](std::size_t t) { fn(static_cast<int>(t)); });
}

// --- Runtime op profiler (backing kernels.h set_op_profiling) ------------
// Cheap enough to leave compiled in: one relaxed atomic load per op when
// disabled, one steady_clock pair + two relaxed atomic adds when enabled.

[[nodiscard]] bool op_profiling_enabled();
void profile_add_matmul(std::uint64_t ns);
void profile_add_eltwise(std::uint64_t ns);

}  // namespace dpipe::rt::detail
