#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/instr/serialize.h"
#include "core/planner/planner.h"

namespace dpipe {

/// The service's unit of caching and persistence: everything result-visible
/// about one planned request. Wall-time instrumentation (search stats,
/// profiling/partitioning times) is deliberately absent — it varies run to
/// run and would break the byte-identical store round-trip.
struct CachedPlan {
  Fingerprint fingerprint;          ///< request_fingerprint(request).
  Fingerprint model_fp;             ///< Of the model profile bytes.
  Fingerprint cluster_fp;           ///< Invalidation key on cluster change.
  std::string request_text;         ///< canonical_request_text(request).
  PlanConfig config;                ///< The winning configuration.
  PartitionOptions partition_opts;  ///< Its partition context.
  std::vector<PlanConfig> explored; ///< Deterministic (D, S, M) order.
  std::string program_text;         ///< Validated program, .dpipe bytes.

  /// Deserializes the instruction program (validated before caching).
  [[nodiscard]] InstructionProgram program() const {
    return program_from_string(program_text);
  }
};

/// Whole-plan cache with single-flight deduplication: N concurrent
/// identical cold requests run the planner exactly once — the first caller
/// computes while the rest block on the in-flight slot and wake with the
/// shared result. Slots match exactly on opaque key bytes (the service
/// uses request_key(), not the request text or its fingerprint), so a hash
/// collision can never serve the wrong plan.
class PlanCache {
 public:
  struct Stats {
    std::size_t hits = 0;    ///< Served without running compute (includes
                             ///< single-flight joins).
    std::size_t misses = 0;  ///< Calls that ran compute.
    std::size_t single_flight_joins = 0;  ///< Hits that waited on a
                                          ///< concurrent identical miss.
    std::size_t invalidated = 0;          ///< Entries evicted.
    std::size_t entries = 0;              ///< Ready entries resident now.
  };

  using ComputeFn = std::function<std::shared_ptr<const CachedPlan>()>;

  /// Returns the plan for `key`, running `compute` (outside the
  /// cache lock) only if no ready or in-flight entry exists. On compute
  /// failure the error propagates to this caller and every waiter, and the
  /// slot is removed so a later request retries. `hit` (optional) reports
  /// whether this call avoided running compute.
  [[nodiscard]] std::shared_ptr<const CachedPlan> get_or_compute(
      const std::string& key, const ComputeFn& compute, bool* hit = nullptr);

  /// Inserts a ready entry under `key` (the plan-store warm-load path).
  /// Overwrites any existing ready entry with the same key; in-flight slots
  /// are left to complete.
  void put(const std::string& key, std::shared_ptr<const CachedPlan> plan);

  /// The ready entry for `key`, or nullptr. Never waits.
  [[nodiscard]] std::shared_ptr<const CachedPlan> find(
      const std::string& key) const;

  /// Evicts every ready entry whose cluster fingerprint matches. In-flight
  /// computations are not interrupted (their requests were validated
  /// against the topology they carry). Returns the number evicted.
  std::size_t invalidate_cluster(const Fingerprint& cluster_fp);

  void clear();

  [[nodiscard]] Stats stats() const;

 private:
  /// One cache slot; not ready while its computation is in flight.
  struct Slot {
    bool ready = false;
    std::shared_ptr<const CachedPlan> value;
    std::exception_ptr error;
  };

  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  std::map<std::string, std::shared_ptr<Slot>> slots_;
  mutable Stats stats_;
};

}  // namespace dpipe
