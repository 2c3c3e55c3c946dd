#include "common/parallel.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dpipe {

namespace {

/// One fork_join call, shared between its caller and the workers it
/// recruited. Workers hold a shared_ptr, so a worker that arrives after
/// the caller returned only finds no index left to claim.
struct Batch {
  std::size_t total = 0;
  void (*body)(void*, std::size_t) = nullptr;
  void* ctx = nullptr;
  std::atomic<std::size_t> next{0};       ///< Next index to claim.
  std::atomic<std::size_t> completed{0};  ///< Indices finished/skipped.
  std::atomic<bool> cancelled{false};     ///< Set on first exception.
  int helpers_wanted = 0;  ///< Workers still to join; executor mutex.
  std::mutex mutex;
  std::condition_variable done_cv;  ///< Signals the caller: all completed.
  std::exception_ptr error;         ///< Guarded by mutex.

  void run() {
    for (;;) {
      const std::size_t index = next.fetch_add(1);
      if (index >= total) {
        return;
      }
      if (!cancelled.load()) {
        try {
          body(ctx, index);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(mutex);
          if (error == nullptr) {
            error = std::current_exception();
          }
          cancelled.store(true);
        }
      }
      if (completed.fetch_add(1) + 1 == total) {
        // The lock orders the wakeup after the caller entered its wait.
        const std::lock_guard<std::mutex> lock(mutex);
        done_cv.notify_all();
      }
    }
  }
};

/// The process-wide executor: persistent workers that join fork-join
/// batches. A batch recruits only workers that are idle when it starts, so
/// no caller ever waits for a busy worker and nesting cannot deadlock: a
/// worker running an index that itself forks either finds idle workers or
/// runs the nested loop inline.
class Executor {
 public:
  static Executor& instance() {
    static Executor executor;
    return executor;
  }

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;
  ~Executor() { stop_workers(); }

  int width() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return width_;
  }

  void set_width(int width) {
    const std::lock_guard<std::mutex> resize_lock(resize_mutex_);
    stop_workers();
    const std::lock_guard<std::mutex> lock(mutex_);
    start_locked(width);
  }

  void fork_join(std::size_t n, int max_width,
                 void (*body)(void*, std::size_t), void* ctx) {
    int helpers = 0;
    std::shared_ptr<Batch> batch;
    // The relaxed pre-check keeps crowded callers (every worker busy, e.g.
    // kernels inside a full-width wave) off the executor mutex.
    if (n > 1 && max_width != 1 &&
        idle_.load(std::memory_order_relaxed) > 0) {
      const std::lock_guard<std::mutex> lock(mutex_);
      const int cap = max_width <= 0 ? width_ : std::min(max_width, width_);
      helpers = std::min(idle_.load(std::memory_order_relaxed), cap - 1);
      if (n - 1 < static_cast<std::size_t>(std::max(helpers, 0))) {
        helpers = static_cast<int>(n - 1);
      }
      if (helpers > 0) {
        batch = std::make_shared<Batch>();
        batch->total = n;
        batch->body = body;
        batch->ctx = ctx;
        batch->helpers_wanted = helpers;
        idle_.fetch_sub(helpers, std::memory_order_relaxed);
        queue_.push_back(batch);
      }
    }
    if (helpers <= 0) {
      for (std::size_t i = 0; i < n; ++i) {
        body(ctx, i);
      }
      return;
    }
    for (int h = 0; h < helpers; ++h) {
      work_cv_.notify_one();
    }
    batch->run();
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(batch->mutex);
      batch->done_cv.wait(
          lock, [&] { return batch->completed.load() == batch->total; });
      error = batch->error;
    }
    if (error != nullptr) {
      std::rethrow_exception(error);
    }
  }

 private:
  Executor() {
    const std::lock_guard<std::mutex> lock(mutex_);
    start_locked(0);
  }

  /// Starts width - 1 workers (width <= 0: default_thread_count()).
  void start_locked(int width) {
    width_ = width > 0 ? width : default_thread_count();
    stop_ = false;
    queue_.clear();  // Batches whose callers finished them alone.
    idle_.store(width_ - 1, std::memory_order_relaxed);
    workers_.reserve(static_cast<std::size_t>(width_ - 1));
    for (int i = 1; i < width_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  /// Joins every worker. Workers finish the index they are running; the
  /// callers of their batches claim what is left.
  void stop_workers() {
    std::vector<std::thread> workers;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
      idle_.store(0, std::memory_order_relaxed);
      workers.swap(workers_);
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers) {
      worker.join();
    }
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_) {
        return;
      }
      std::shared_ptr<Batch> batch = queue_.front();
      if (--batch->helpers_wanted == 0) {
        queue_.pop_front();
      }
      lock.unlock();
      batch->run();
      batch.reset();
      lock.lock();
      if (!stop_) {
        idle_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  std::mutex resize_mutex_;  ///< Serializes set_width calls.
  std::mutex mutex_;         ///< Guards everything below but the atomics'
                             ///< relaxed pre-check reads.
  std::condition_variable work_cv_;  ///< Signals workers: batch or stop.
  std::deque<std::shared_ptr<Batch>> queue_;  ///< Batches wanting helpers.
  std::atomic<int> idle_{0};  ///< Workers not reserved by a batch.
  int width_ = 1;             ///< Workers + the calling thread.
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace

int default_thread_count() {
  if (const char* env = std::getenv("DPIPE_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) {
      return parsed;
    }
  }
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return std::max(1, CPU_COUNT(&mask));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int executor_width() { return Executor::instance().width(); }

void set_executor_width(int width) { Executor::instance().set_width(width); }

namespace detail {

void fork_join(std::size_t n, int max_width, void (*body)(void*, std::size_t),
               void* ctx) {
  if (n == 0) {
    return;
  }
  Executor::instance().fork_join(n, max_width, body, ctx);
}

}  // namespace detail

ThreadPool::ThreadPool(int num_threads) : max_width_(num_threads) {}

int ThreadPool::size() const {
  const int width = executor_width();
  return max_width_ <= 0 ? width : std::min(max_width_, width);
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  dpipe::parallel_for(n, max_width_, fn);
}

}  // namespace dpipe
