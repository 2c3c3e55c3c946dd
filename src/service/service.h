#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "service/plan_cache.h"
#include "service/plan_store.h"
#include "service/request.h"

namespace dpipe {

/// Server-side policy. Everything here is result-INVISIBLE: it controls how
/// the service executes cold plans, never what plan a request maps to, so
/// none of it participates in cache identity.
struct PlanServiceOptions {
  /// Directory for the versioned on-disk plan store. Empty = in-memory
  /// only (no persistence, cold start on restart).
  std::string store_dir;
  /// search_threads applied to every cold plan (0 = the executor's
  /// width).
  int planner_threads = 0;
};

/// The multi-tenant planning service: accepts concurrent plan requests,
/// answers repeats from a whole-plan cache keyed by request_key()
/// (single-flight: N concurrent identical cold requests run the planner
/// once), and optionally persists every plan to a PlanStore for warm
/// restart. Only a cold plan writes the canonical request text. Cold
/// plans keep no stage costs across requests: each (S, M, D) evaluation
/// memoizes its own, and the memo is freed when the plan returns. All
/// public methods are thread-safe.
class PlanService {
 public:
  struct Stats {
    /// Stage-cost memo lookups, summed over every cold plan's
    /// per-evaluation caches.
    struct StageCosts {
      std::size_t cost_hits = 0;
      std::size_t cost_misses = 0;
    };
    PlanCache::Stats cache;
    StageCosts stage_costs;
    std::size_t planner_runs = 0;       ///< Cold plans actually computed.
    std::size_t store_loaded = 0;       ///< Warm-start entries from disk.
    std::size_t store_corrupt_dropped = 0;
  };

  /// Result of an invalidation sweep across the cache and the store.
  struct InvalidationReport {
    std::size_t cache_evicted = 0;
    std::size_t store_removed = 0;
  };

  explicit PlanService(PlanServiceOptions options = {});

  /// Returns the (shared, immutable) plan for `request`. Cache hit: no
  /// planner work at all. Cold: runs the full planner pipeline, validates
  /// the program, caches and persists the result. `cache_hit` (optional)
  /// reports which path this call took. Safe to call from many threads;
  /// identical concurrent requests deduplicate to one planner run.
  [[nodiscard]] std::shared_ptr<const CachedPlan> plan(
      const PlanRequest& request, bool* cache_hit = nullptr);

  /// Plans a batch concurrently on up to `threads` executor threads (0 =
  /// the executor's width). Each cold plan's own grid search fans out only
  /// onto workers left idle. Order of results matches the input.
  [[nodiscard]] std::vector<std::shared_ptr<const CachedPlan>> plan_all(
      const std::vector<PlanRequest>& requests, int threads = 0);

  /// The cluster changed shape: every cached and persisted plan for its old
  /// fingerprint is stale. Evicts from the cache and deletes from the
  /// store.
  InvalidationReport invalidate_cluster(const ClusterSpec& cluster);

  [[nodiscard]] Stats stats() const;

  /// The shared whole-plan cache (exposed for tests and tools).
  [[nodiscard]] PlanCache& cache() { return cache_; }

  [[nodiscard]] const PlanServiceOptions& options() const { return options_; }

 private:
  /// Runs the planner for one cold request and packages the result.
  [[nodiscard]] std::shared_ptr<const CachedPlan> compute_plan(
      const PlanRequest& request);

  PlanServiceOptions options_;
  PlanCache cache_;
  std::optional<PlanStore> store_;
  std::mutex store_mutex_;  ///< Serializes store_ mutation (put/invalidate).
  mutable std::mutex stats_mutex_;
  std::size_t planner_runs_ = 0;
  Stats::StageCosts stage_costs_;
  std::size_t store_loaded_ = 0;
  std::size_t store_corrupt_dropped_ = 0;
};

}  // namespace dpipe
