#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace dpipe {

/// Work below this cost runs on the calling thread alone, whoever asks for
/// fan-out. Callers state the cost of the work they would fan out in their
/// own units: FLOPs for matmuls and pipeline stage ops, bytes moved for
/// elementwise sweeps. The value decides both the intra-op kernel fan-out
/// and how many workers a pipeline wave uses; it depends only on shapes,
/// so the dispatch decision is the same on every host.
inline constexpr std::int64_t kParallelCostThreshold = 1 << 20;

/// Worker count of the process-wide executor when nothing pins it: the
/// DPIPE_THREADS environment variable if set to a positive integer,
/// otherwise the number of CPUs this process may run on (its
/// sched_getaffinity mask, so `taskset -c 0` yields 1), minimum 1.
[[nodiscard]] int default_thread_count();

/// Execution width of the process-wide executor: its persistent worker
/// threads plus the calling thread. The workers start on first use, from
/// default_thread_count().
[[nodiscard]] int executor_width();

/// Replaces the executor's workers so that its width becomes `width`
/// (<= 0 restores default_thread_count()). Results never depend on the
/// width, only wall time does. Callers still inside a fork-join while the
/// workers are replaced finish their remaining indices themselves.
void set_executor_width(int width);

namespace detail {
void fork_join(std::size_t n, int max_width, void (*body)(void*, std::size_t),
               void* ctx);
}  // namespace detail

/// Runs fn(i) for every i in [0, n) on the calling thread plus up to
/// max_width - 1 executor workers (max_width <= 0: the executor's width),
/// blocking until all are done. Only workers idle at the call join in, so
/// the call never waits for a busy worker: a caller that finds none idle,
/// which includes most nested calls from inside another fork-join, runs
/// the loop inline in ascending order. Concurrent callers on different
/// threads are allowed. The first exception thrown by fn is rethrown here;
/// indices not yet started when it was thrown are skipped.
///
/// Determinism contract: fn(i) runs exactly once for every i; which thread
/// runs which index is unspecified, so fn must only write to per-index
/// state (e.g. results[i]). Under that contract the result is bit-identical
/// for any width, which the planner's and the kernels' parity tests rely
/// on.
template <typename Fn>
void parallel_for(std::size_t n, int max_width, const Fn& fn) {
  detail::fork_join(
      n, max_width,
      [](void* ctx, std::size_t i) { (*static_cast<const Fn*>(ctx))(i); },
      const_cast<void*>(static_cast<const void*>(&fn)));
}

/// A width cap on the shared executor, for callers that hold on to one
/// fan-out width. Owns no threads: constructing one is free.
class ThreadPool {
 public:
  /// num_threads <= 0 selects the executor's width; larger values are
  /// capped by it.
  explicit ThreadPool(int num_threads = 0);

  /// Upper bound on the threads one parallel_for uses (the caller plus
  /// workers idle at the call).
  [[nodiscard]] int size() const;

  /// dpipe::parallel_for(n, size(), fn).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  int max_width_;
};

}  // namespace dpipe
