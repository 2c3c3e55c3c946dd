#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/partition/partitioner.h"

namespace dpipe {

/// Memoizes DpPartitioner::stage_cost results for one fixed (ProfileDb,
/// CommModel, PartitionOptions) context. Both DPs ask for each distinct
/// (lo, hi, replicas, chain_begin, direction) once (the bidirectional DP
/// keeps the costs it has asked for in dense per-stage tables), so within
/// one planner evaluation the hits are the schedule builder re-deriving
/// the chosen stages' timings; the brute-force oracle, which re-enumerates
/// the same stages, hits far more. Every caller collapses to one
/// computation per distinct key here.
///
/// A cache is only valid for the PartitionOptions it was first used with:
/// the first bind() snapshots every option field stage_cost reads, and
/// later binds verify the snapshot (DPIPE_ENSURE on mismatch), so sharing
/// one cache across the DP, the oracle, and the builder inside one planner
/// evaluation is safe, while accidental reuse across configurations is a
/// hard error instead of silent wrong numbers.
///
/// Not thread-safe: use one cache per thread (the planner creates one per
/// (S, M, D) evaluation, each of which runs on a single search thread).
class StageCostCache {
 public:
  struct Key {
    int component = -1;
    int lo = 0;
    int hi = 0;
    int replicas = 1;
    int chain_begin = 0;
    PipeDirection direction = PipeDirection::kDown;

    friend bool operator==(const Key&, const Key&) = default;
  };

  /// Returns the cached cost for `key`, or nullptr on a miss. Hit/miss
  /// counters update either way (mutable: lookups from the builder go
  /// through a const pointer).
  [[nodiscard]] const StageCost* find(const Key& key) const;

  void insert(const Key& key, const StageCost& cost);

  /// Snapshot (first call) or verify (later calls) the option fields
  /// stage_cost depends on. Throws std::logic_error if this cache is
  /// reused under different options.
  void bind(const PartitionOptions& opts);

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::size_t hits() const { return hits_; }
  [[nodiscard]] std::size_t misses() const { return misses_; }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      // FNV-1a over the key fields.
      std::size_t h = 1469598103934665603ull;
      const auto mix = [&h](std::size_t v) {
        h = (h ^ v) * 1099511628211ull;
      };
      mix(static_cast<std::size_t>(key.component));
      mix(static_cast<std::size_t>(key.lo));
      mix(static_cast<std::size_t>(key.hi));
      mix(static_cast<std::size_t>(key.replicas));
      mix(static_cast<std::size_t>(key.chain_begin));
      mix(static_cast<std::size_t>(key.direction));
      return h;
    }
  };

  /// Every PartitionOptions field read by DpPartitioner::stage_cost.
  struct Fingerprint {
    double microbatch_size = 0.0;
    int group_size = 0;
    int data_parallel_degree = 0;
    bool self_conditioning = false;
    double self_cond_prob = 0.0;
    double comm_competition_factor = 1.0;
    std::vector<int> device_ranks;
    int dp_rank_stride = 0;

    friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
  };

  std::optional<Fingerprint> bound_;
  std::unordered_map<Key, StageCost, KeyHash> map_;
  mutable std::size_t hits_ = 0;
  mutable std::size_t misses_ = 0;
};

/// Thrown when a Planner::plan() reaches a StageCostStore that another
/// plan() is using at the same time: a store has one owner at a time.
class StageCostStoreBusy : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// A map of per-combo StageCostCaches that outlives one Planner::plan(), so
/// a later plan over the same grid replays its stage costs instead of
/// recomputing them. Keyed by the full evaluation context — a caller-
/// supplied context fingerprint (model + cluster + profiler, so plans with
/// different profiles never share costs) plus world size and the (S, M, D,
/// dp, microbatch) combo — which keeps every cache fingerprint-valid by
/// construction: a key collision implies identical PartitionOptions, so
/// bind() never trips. Nothing is evicted; the caller owns the lifetime.
///
/// Single owner: plan() claims the store for its whole search, looks up
/// every combo's cache on the calling thread before it fans out, and hands
/// each cache to exactly one search task. A second claim while the first
/// is held throws StageCostStoreBusy, so concurrent plans over one store
/// fail loudly instead of racing.
class StageCostStore {
 public:
  struct Key {
    std::string context;  ///< Model/cluster/profiler fingerprint.
    int world = 0;
    int num_stages = 0;
    int num_microbatches = 0;
    int group_size = 0;
    int data_parallel_degree = 0;
    double microbatch_size = 0.0;

    friend bool operator<(const Key& a, const Key& b) {
      return std::tie(a.context, a.world, a.num_stages, a.num_microbatches,
                      a.group_size, a.data_parallel_degree,
                      a.microbatch_size) <
             std::tie(b.context, b.world, b.num_stages, b.num_microbatches,
                      b.group_size, b.data_parallel_degree,
                      b.microbatch_size);
    }
  };

  /// Exclusive use of the store, released on destruction. Throws
  /// StageCostStoreBusy if another Claim on the same store is alive.
  class Claim {
   public:
    explicit Claim(StageCostStore& store);
    ~Claim();
    Claim(const Claim&) = delete;
    Claim& operator=(const Claim&) = delete;

    /// The cache for `key`, created empty on first use. The reference
    /// stays valid for the store's lifetime.
    [[nodiscard]] StageCostCache& cache(const Key& key);

   private:
    StageCostStore& store_;
  };

  /// Distinct (context, combo) caches. Not to be called while a Claim is
  /// held on another thread.
  [[nodiscard]] std::size_t size() const { return map_.size(); }

 private:
  std::atomic<bool> claimed_{false};
  std::map<Key, StageCostCache> map_;
};

}  // namespace dpipe
