#include "service/plan_cache.h"

namespace dpipe {

std::shared_ptr<const CachedPlan> PlanCache::get_or_compute(
    const std::string& key, const ComputeFn& compute, bool* hit) {
  std::shared_ptr<Slot> slot;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = slots_.find(key);
    if (it != slots_.end()) {
      slot = it->second;
      if (slot->ready) {
        if (slot->error != nullptr) {
          // Unreachable in practice (failed slots are erased), but keeps
          // the invariant local: a ready slot either has a value or throws.
          std::rethrow_exception(slot->error);
        }
        ++stats_.hits;
        if (hit != nullptr) {
          *hit = true;
        }
        return slot->value;
      }
      // Single-flight join: another caller is computing this exact
      // request. Wait for it instead of planning again.
      ++stats_.hits;
      ++stats_.single_flight_joins;
      ready_cv_.wait(lock, [&] { return slot->ready; });
      if (slot->error != nullptr) {
        std::rethrow_exception(slot->error);
      }
      if (hit != nullptr) {
        *hit = true;
      }
      return slot->value;
    }
    slot = std::make_shared<Slot>();
    slots_.emplace(key, slot);
    ++stats_.misses;
  }

  // Compute outside the lock: cold plans take hundreds of milliseconds and
  // must not serialize unrelated requests.
  std::shared_ptr<const CachedPlan> value;
  try {
    value = compute();
    DPIPE_ENSURE(value != nullptr, "plan compute returned null");
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      slot->error = std::current_exception();
      slot->ready = true;
      // Drop the failed slot so the next identical request retries; the
      // waiters still hold the shared_ptr and will observe the error.
      slots_.erase(key);
    }
    ready_cv_.notify_all();
    throw;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    slot->value = std::move(value);
    slot->ready = true;
  }
  ready_cv_.notify_all();
  if (hit != nullptr) {
    *hit = false;
  }
  return slot->value;
}

void PlanCache::put(const std::string& key,
                    std::shared_ptr<const CachedPlan> plan) {
  DPIPE_REQUIRE(plan != nullptr, "cannot cache a null plan");
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = slots_[key];
  if (slot != nullptr && !slot->ready) {
    return;  // An in-flight computation owns this slot; let it finish.
  }
  slot = std::make_shared<Slot>();
  slot->ready = true;
  slot->value = std::move(plan);
}

std::shared_ptr<const CachedPlan> PlanCache::find(
    const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = slots_.find(key);
  if (it == slots_.end() || !it->second->ready ||
      it->second->value == nullptr) {
    return nullptr;
  }
  return it->second->value;
}

std::size_t PlanCache::invalidate_cluster(const Fingerprint& cluster_fp) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t removed = 0;
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (it->second->ready && it->second->value != nullptr &&
        it->second->value->cluster_fp == cluster_fp) {
      it = slots_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  stats_.invalidated += removed;
  return removed;
}

void PlanCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (it->second->ready) {
      it = slots_.erase(it);
      ++stats_.invalidated;
    } else {
      ++it;  // In-flight; its computation will publish into this slot.
    }
  }
}

PlanCache::Stats PlanCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  out.entries = 0;
  for (const auto& [key, slot] : slots_) {
    if (slot->ready && slot->value != nullptr) {
      ++out.entries;
    }
  }
  return out;
}

}  // namespace dpipe
