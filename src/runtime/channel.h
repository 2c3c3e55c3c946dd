#pragma once

#include <condition_variable>
#include <mutex>
#include <optional>
#include <queue>
#include <stdexcept>

namespace dpipe::rt {

/// Outcome of a non-blocking Channel::try_pop().
enum class TryPop {
  kValue,   ///< A value was dequeued.
  kEmpty,   ///< Nothing queued, but the channel is still open.
  kClosed,  ///< Closed and fully drained: no value will ever arrive.
};

/// FIFO channel between pipeline stage tasks. The interpreter's tasks only
/// use the non-blocking try_pop(); pop() blocks the calling thread.
///
/// Supports cooperative shutdown: `close()` wakes every blocked consumer,
/// after which `pop()` drains any queued values and then returns nullopt.
/// `push()` reports whether the value was enqueued: it returns false on a
/// closed channel (the consumer is gone — this happens only while a wave is
/// being aborted) so producers can distinguish an abort from a delivered
/// message instead of dropping values silently.
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

  /// Non-blocking pop for the wave scheduler's resumable tasks. Dequeues into
  /// `out` whenever a value is queued — including after close(), matching
  /// pop()'s drain-then-nullopt order — otherwise reports whether one can
  /// still arrive (kEmpty) or never will (kClosed).
  [[nodiscard]] TryPop try_pop(T& out) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!queue_.empty()) {
      out = std::move(queue_.front());
      queue_.pop();
      return TryPop::kValue;
    }
    return closed_ ? TryPop::kClosed : TryPop::kEmpty;
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

/// Thrown by a stage task killed via PipelineRtConfig::fault — the
/// test-visible stand-in for a crashed pipeline worker.
class StageFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Test-visible fault injection: the matching stage task throws
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
