#include "service/service.h"

#include "common/error.h"
#include "common/parallel.h"
#include "core/instr/serialize.h"
#include "core/instr/validate.h"
#include "core/planner/planner.h"

namespace dpipe {

PlanService::PlanService(PlanServiceOptions options)
    : options_(std::move(options)) {
  if (!options_.store_dir.empty()) {
    store_.emplace(options_.store_dir);
    // Warm start: every verified on-disk plan becomes a ready cache entry,
    // so a restarted server answers repeats without replanning anything.
    PlanStore::LoadReport report = store_->load_all();
    store_loaded_ = report.plans.size();
    store_corrupt_dropped_ = report.corrupt_dropped;
    for (std::size_t i = 0; i < report.plans.size(); ++i) {
      cache_.put(request_key(report.requests[i]), std::move(report.plans[i]));
    }
  }
}

std::shared_ptr<const CachedPlan> PlanService::compute_plan(
    const PlanRequest& request) {
  PlannerOptions popts = request.options;
  popts.search_threads = options_.planner_threads;
  const Planner planner(request.model, request.cluster, popts);
  const Plan plan = planner.plan();
  // Every cold plan is validated before it is cached or persisted, so the
  // cache can only ever serve validated programs.
  require_valid_program(plan.program);

  auto entry = std::make_shared<CachedPlan>();
  entry->request_text = canonical_request_text(request);
  // The entry lives as long as the cache: drop the writer's growth slack
  // (up to 4.6 KB of a CDM request's 10.7 KB text).
  entry->request_text.shrink_to_fit();
  entry->fingerprint = fingerprint_bytes(entry->request_text);
  entry->model_fp = model_fingerprint(request.model);
  entry->cluster_fp = cluster_fingerprint(request.cluster);
  entry->config = plan.config;
  entry->partition_opts = plan.partition_opts;
  entry->explored = plan.explored;
  entry->program_text = program_to_string(plan.program);

  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++planner_runs_;
    stage_costs_.cost_hits += plan.search.cache_hits;
    stage_costs_.cost_misses += plan.search.cache_misses;
  }
  if (store_.has_value()) {
    const std::lock_guard<std::mutex> lock(store_mutex_);
    store_->put(*entry);
  }
  return entry;
}

std::shared_ptr<const CachedPlan> PlanService::plan(const PlanRequest& request,
                                                    bool* cache_hit) {
  // A hit formats no number: the key is the request with raw double bits.
  // The canonical text, fingerprints and store bytes are written only on a
  // miss, inside compute_plan.
  return cache_.get_or_compute(
      request_key(request), [this, &request] { return compute_plan(request); },
      cache_hit);
}

std::vector<std::shared_ptr<const CachedPlan>> PlanService::plan_all(
    const std::vector<PlanRequest>& requests, int threads) {
  std::vector<std::shared_ptr<const CachedPlan>> results(requests.size());
  parallel_for(requests.size(), threads,
               [&](std::size_t i) { results[i] = plan(requests[i]); });
  return results;
}

PlanService::InvalidationReport PlanService::invalidate_cluster(
    const ClusterSpec& cluster) {
  const Fingerprint cluster_fp = cluster_fingerprint(cluster);
  InvalidationReport report;
  report.cache_evicted = cache_.invalidate_cluster(cluster_fp);
  if (store_.has_value()) {
    const std::lock_guard<std::mutex> lock(store_mutex_);
    report.store_removed = store_->invalidate_cluster(cluster_fp);
  }
  return report;
}

PlanService::Stats PlanService::stats() const {
  Stats out;
  out.cache = cache_.stats();
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  out.stage_costs = stage_costs_;
  out.planner_runs = planner_runs_;
  out.store_loaded = store_loaded_;
  out.store_corrupt_dropped = store_corrupt_dropped_;
  return out;
}

}  // namespace dpipe
