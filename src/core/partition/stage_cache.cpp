#include "core/partition/stage_cache.h"

#include "common/error.h"

namespace dpipe {

const StageCost* StageCostCache::find(const Key& key) const {
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &it->second;
}

void StageCostCache::insert(const Key& key, const StageCost& cost) {
  map_.emplace(key, cost);
}

void StageCostCache::bind(const PartitionOptions& opts) {
  if (bound_.has_value()) {
    // Hot path (stage_cost verifies on every call): compare in place
    // instead of materializing a Fingerprint.
    const Fingerprint& b = *bound_;
    DPIPE_ENSURE(b.microbatch_size == opts.microbatch_size &&
                     b.group_size == opts.group_size &&
                     b.data_parallel_degree == opts.data_parallel_degree &&
                     b.self_conditioning == opts.self_conditioning &&
                     b.self_cond_prob == opts.self_cond_prob &&
                     b.comm_competition_factor ==
                         opts.comm_competition_factor &&
                     b.device_ranks == opts.device_ranks &&
                     b.dp_rank_stride == opts.dp_rank_stride,
                 "StageCostCache reused under different partition options");
    return;
  }
  Fingerprint fp;
  fp.microbatch_size = opts.microbatch_size;
  fp.group_size = opts.group_size;
  fp.data_parallel_degree = opts.data_parallel_degree;
  fp.self_conditioning = opts.self_conditioning;
  fp.self_cond_prob = opts.self_cond_prob;
  fp.comm_competition_factor = opts.comm_competition_factor;
  fp.device_ranks = opts.device_ranks;
  fp.dp_rank_stride = opts.dp_rank_stride;
  bound_ = std::move(fp);
  map_.reserve(1024);  // The DP touches hundreds of distinct stage keys.
}

StageCostStore::Claim::Claim(StageCostStore& store) : store_(store) {
  if (store_.claimed_.exchange(true, std::memory_order_acquire)) {
    throw StageCostStoreBusy(
        "StageCostStore is in use by another plan(); a store has one owner "
        "at a time");
  }
}

StageCostStore::Claim::~Claim() {
  store_.claimed_.store(false, std::memory_order_release);
}

StageCostCache& StageCostStore::Claim::cache(const Key& key) {
  return store_.map_[key];
}

}  // namespace dpipe
