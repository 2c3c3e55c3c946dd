#pragma once

#include <condition_variable>
#include <mutex>
#include <optional>
#include <queue>
#include <stdexcept>

namespace dpipe::rt {

/// Closable FIFO between threads; pop() blocks the calling thread.
/// Pipeline waves do not use it: they hand tensors between stages through
/// slots ordered by ProgramInterpreter's static wave order.
///
/// Supports cooperative shutdown: `close()` wakes every blocked consumer,
/// after which `pop()` drains any queued values and then returns nullopt.
/// `push()` reports whether the value was enqueued: it returns false on a
/// closed channel (the consumer is gone) so producers can distinguish a
/// shutdown from a delivered message instead of dropping values silently.
template <typename T>
class Channel {
 public:
  [[nodiscard]] bool push(T value) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) {
        return false;
      }
      queue_.push(std::move(value));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until a value is available or the channel is closed and empty.
  [[nodiscard]] std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return !queue_.empty() || closed_; });
    return take_locked();
  }

  /// Marks the channel closed and wakes all blocked consumers. Idempotent.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

 private:
  [[nodiscard]] std::optional<T> take_locked() {
    if (queue_.empty()) {
      return std::nullopt;
    }
    std::optional<T> value = std::move(queue_.front());
    queue_.pop();
    return value;
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::queue<T> queue_;
  bool closed_ = false;
};

/// Thrown by the forward op PipelineRtConfig::fault selects — the
/// test-visible stand-in for a crashed pipeline worker.
class StageFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Test-visible fault injection: the matching forward op throws
/// StageFailure while processing forward micro-batch `micro` of training
/// iteration `iteration` on replica `replica`. iteration < 0 disables it.
struct RtFaultInjection {
  int iteration = -1;
  int stage = 0;
  int micro = 0;
  int replica = 0;

  [[nodiscard]] bool armed() const { return iteration >= 0; }
};

}  // namespace dpipe::rt
