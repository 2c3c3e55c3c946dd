#include "core/planner/planner.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/hash.h"
#include "common/parallel.h"
#include "core/partition/stage_cache.h"

namespace dpipe {

namespace {

/// The divisors of `world` that are >= 2, ascending. Each divisor d with
/// d * d <= world is paired with world / d, so the loop runs about
/// sqrt(world) times (at most 46,341 for an int) and d never overflows.
std::vector<int> default_group_candidates(int world) {
  std::vector<int> out;
  std::vector<int> paired;  // world / d for each small divisor d, descending.
  for (int d = 1; d <= world / d; ++d) {
    if (world % d != 0) {
      continue;
    }
    if (d >= 2) {
      out.push_back(d);
    }
    if (world / d != d) {
      paired.push_back(world / d);
    }
  }
  out.insert(out.end(), paired.rbegin(), paired.rend());
  return out;
}

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// One (S, M, D, V) grid point, in candidate-list enumeration order (D
/// outer, then S, then M, then V). Index order doubles as the selection
/// tie-break: the reduction keeps the earliest minimum, matching the
/// sequential baseline.
struct Combo {
  int S = 0;
  int M = 0;
  int D = 0;
  int V = 1;
};

}  // namespace

Planner::Planner(ModelDesc model, ClusterSpec cluster, PlannerOptions options)
    : model_(group_backbones(model).grouped_model),
      cluster_(std::move(cluster)),
      options_(std::move(options)),
      comm_(cluster_),
      report_(Profiler(options_.profiler).profile(model_, cluster_)) {
  validate(model_);
  require(options_.global_batch > 0.0, "global batch must be positive");
  ensure(model_.backbone_ids.size() <= 2,
         "grouping must produce at most two virtual backbones");
  apply_default_candidates(options_, cluster_.world_size());
  for (const int v : options_.vstage_candidates) {
    require(v >= 1, "vstage candidates must be positive");
    require(v == 1 || options_.schedule_family == ScheduleFamily::kInterleaved,
            "vstage candidates > 1 require schedule_family == kInterleaved");
  }
  require(options_.schedule_family == ScheduleFamily::k1F1B ||
              options_.schedule_family == ScheduleFamily::kInterleaved,
          "planner searches the 1f1b and interleaved schedule families only");
}

void Planner::apply_default_candidates(PlannerOptions& options, int world) {
  if (options.stage_candidates.empty()) {
    options.stage_candidates = {2, 4, 8};
  }
  if (options.micro_candidates.empty()) {
    options.micro_candidates = {2, 4, 8, 16};
  }
  if (options.group_candidates.empty()) {
    options.group_candidates = default_group_candidates(world);
  }
  if (options.vstage_candidates.empty()) {
    options.vstage_candidates = {1};
  }
}

std::string Planner::cost_context_fingerprint() const {
  CanonicalWriter canonical;
  write_canonical(canonical, model_);
  write_canonical(canonical, cluster_);
  write_canonical(canonical, options_.profiler);
  return fingerprint_bytes(canonical.take()).hex();
}

bool Planner::combo_shape_valid(int S, int M, int D, int V) const {
  const int world = cluster_.world_size();
  if (V < 1) {
    return false;
  }
  if (D > world || world % D != 0 || D % S != 0) {
    return false;
  }
  if (options_.require_bindable_placement && D != S) {
    return false;
  }
  if (V > 1) {
    // Virtual stages only exist under the interleaved family, on bindable
    // shapes (one device per chain position), with at least two devices (a
    // device cannot send to itself) and a single backbone.
    if (options_.schedule_family != ScheduleFamily::kInterleaved ||
        D != S || S < 2 || model_.backbone_ids.size() != 1) {
      return false;
    }
  }
  const int dp = world / D;
  const double micro = options_.global_batch / dp / M;
  if (micro < 1.0) {
    return false;
  }
  if (options_.integer_microbatches &&
      micro != std::floor(micro)) {
    return false;
  }
  for (const int b : model_.backbone_ids) {
    if (S * V > model_.components[b].num_layers()) {
      return false;
    }
  }
  if (model_.backbone_ids.size() > 1 && model_.self_conditioning) {
    return false;  // Not supported for CDMs (§6, Table 5).
  }
  return true;
}

std::optional<Planner::Evaluation> Planner::evaluate(
    int S, int M, int D, int V, StageCostCache* external_cache) const {
  if (!combo_shape_valid(S, M, D, V)) {
    return std::nullopt;
  }
  const int world = cluster_.world_size();
  const int dp = world / D;
  const double group_batch = options_.global_batch / dp;
  const double micro = group_batch / M;

  PartitionOptions opts;
  opts.num_stages = S;
  opts.num_microbatches = M;
  opts.group_size = D;
  opts.data_parallel_degree = dp;
  opts.microbatch_size = micro;
  opts.self_conditioning = model_.self_conditioning;
  opts.self_cond_prob = model_.self_cond_prob;

  // One cache per evaluation: caches are single-threaded by design, and the
  // DP and the bidirectional pairing of one combo query the same
  // (component, range, placement) keys. The schedule builder times its
  // stages from the profile and never reads it. With a cache store the
  // combo's persistent cache (pre-fetched by plan()) is used instead,
  // carrying costs memoized by earlier plans into this one.
  StageCostCache cache;
  StageCostCache* cache_ptr = external_cache != nullptr ? external_cache : &cache;
  const std::size_t hits_before = cache_ptr->hits();
  const std::size_t misses_before = cache_ptr->misses();

  const auto partition_start = std::chrono::steady_clock::now();
  const DpPartitioner partitioner(report_.db, comm_);
  const ScheduleBuilder builder(report_.db, comm_);
  Schedule schedule;
  if (V > 1) {
    // Interleaved placement: partition the backbone into S*V virtual
    // stages over a synthetic identity chain (one replica per virtual
    // stage, so the DP and the stage-cost cache see chain positions
    // 0..S*V-1), then remap the virtual chain round-robin onto the S
    // physical devices.
    const int St = S * V;
    PartitionOptions chain_opts = opts;
    chain_opts.num_stages = St;
    chain_opts.group_size = St;
    // Chain position s lives on physical device s % D, and a device's DP
    // replicas are still D global ranks apart — so boundary links and
    // allreduce groups are costed against the real placement even though
    // the chain itself has S*V positions.
    chain_opts.device_ranks.resize(St);
    for (int s = 0; s < St; ++s) {
      chain_opts.device_ranks[s] = s % D;
    }
    chain_opts.dp_rank_stride = D;
    const PartitionResult part = partitioner.partition_single(
        model_.backbone_ids[0], chain_opts, cache_ptr);
    std::vector<StagePlan> stages = part.stages;
    for (int s = 0; s < St; ++s) {
      stages[s].device_ranks = {s % D};
    }
    opts.num_stages = St;
    schedule =
        builder.build_interleaved(model_.backbone_ids[0], stages, opts);
  } else if (model_.backbone_ids.size() == 1) {
    const PartitionResult part = partitioner.partition_single(
        model_.backbone_ids[0], opts, cache_ptr);
    schedule = builder.build_1f1b(model_.backbone_ids[0], part.stages, opts);
  } else {
    const BiPartitionResult part =
        partition_bidirectional(partitioner, model_.backbone_ids[0],
                                model_.backbone_ids[1], opts, cache_ptr);
    schedule = builder.build_bidirectional(
        model_.backbone_ids[0], part.down_stages, model_.backbone_ids[1],
        part.up_stages, opts);
  }

  Evaluation eval;
  eval.cache_hits = cache_ptr->hits() - hits_before;
  eval.cache_misses = cache_ptr->misses() - misses_before;

  if (options_.check_memory) {
    const MemoryReport memory =
        estimate_pipeline_memory(report_.db, schedule, opts);
    if (!memory.fits(cluster_.device.memory_gb)) {
      eval.config = {S, M, D, dp, 0.0, 0.0, false, V};
      eval.opts = opts;
      eval.partition_wall_ms = elapsed_ms(partition_start);
      return eval;
    }
  }
  eval.partition_wall_ms = elapsed_ms(partition_start);

  FillOptions fill_opts;
  fill_opts.training_batch = group_batch;
  fill_opts.enable_fill = options_.enable_fill;
  fill_opts.enable_partial = options_.enable_partial;
  const auto fill_start = std::chrono::steady_clock::now();
  eval.fill = BubbleFiller(report_.db).fill(schedule, fill_opts);
  eval.fill_wall_ms = elapsed_ms(fill_start);
  eval.opts = opts;
  eval.config.num_stages = S;
  eval.config.num_microbatches = M;
  eval.config.group_size = D;
  eval.config.data_parallel_degree = dp;
  eval.config.predicted_iteration_ms = eval.fill.filled_schedule.makespan_ms;
  eval.config.planned_bubble_ratio = bubble_ratio(
      eval.fill.filled_schedule, extract_bubbles(eval.fill.filled_schedule));
  eval.config.memory_feasible = true;
  eval.config.vstages = V;
  return eval;
}

Plan Planner::plan() const {
  Plan plan;
  plan.profiling_wall_ms = report_.profiling_wall_ms;

  std::vector<Combo> combos;
  for (const int D : options_.group_candidates) {
    for (const int S : options_.stage_candidates) {
      for (const int M : options_.micro_candidates) {
        for (const int V : options_.vstage_candidates) {
          combos.push_back({S, M, D, V});
        }
      }
    }
  }
  const std::size_t n = combos.size();

  const auto search_start = std::chrono::steady_clock::now();

  // With a cache store, claim it for the whole search and look up every
  // shape-valid combo's persistent cache here, on the calling thread; each
  // cache then belongs to exactly one search task.
  std::optional<StageCostStore::Claim> claim;
  std::vector<StageCostCache*> combo_cache(n, nullptr);
  if (options_.cache_store != nullptr) {
    claim.emplace(*options_.cache_store);
    const std::string context = cost_context_fingerprint();
    const int world = cluster_.world_size();
    for (std::size_t i = 0; i < n; ++i) {
      const Combo& c = combos[i];
      if (combo_shape_valid(c.S, c.M, c.D, c.V)) {
        // Interleaved combos are keyed by their virtual chain length
        // (S*V): their stage costs live at virtual chain positions, so
        // they must not share a cache with the V == 1 combo of the same
        // physical shape. S*V never collides with another combo's key in
        // one grid (V > 1 forces D == S, so any same-D combo with
        // S' == S*V fails D % S' == 0).
        const int dp = world / c.D;
        combo_cache[i] = &claim->cache({context, world, c.S * c.V, c.M, c.D,
                                        dp, options_.global_batch / dp / c.M});
      }
    }
  }

  // Evaluation. Each index writes only results[i], so the outcome is
  // bit-identical for any width (see parallel_for's contract; width 1 runs
  // inline on the calling thread); the reduction below runs sequentially in
  // candidate order, reproducing the sequential loop's earliest-minimum
  // selection exactly.
  const int width = executor_width();
  const int threads_used = options_.search_threads > 0
                               ? std::min(options_.search_threads, width)
                               : width;
  std::vector<std::optional<Evaluation>> results(n);
  parallel_for(n, threads_used, [&](std::size_t i) {
    results[i] = evaluate(combos[i].S, combos[i].M, combos[i].D, combos[i].V,
                          combo_cache[i]);
  });

  std::optional<Evaluation> best;
  double partition_ms = 0.0;
  double fill_ms = 0.0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::optional<Evaluation>& eval = results[i];
    if (!eval.has_value()) {
      continue;
    }
    partition_ms += eval->partition_wall_ms;
    fill_ms += eval->fill_wall_ms;
    cache_hits += eval->cache_hits;
    cache_misses += eval->cache_misses;
    plan.explored.push_back(eval->config);
    if (!eval->config.memory_feasible) {
      continue;
    }
    if (!best.has_value() || eval->config.predicted_iteration_ms <
                                 best->config.predicted_iteration_ms) {
      best = std::move(*eval);
    }
  }
  ensure(best.has_value(), "no feasible (S, M, D) configuration found");

  plan.search.threads = threads_used;
  plan.search.combos_total = static_cast<int>(n);
  plan.search.vstage_axis =
      static_cast<int>(options_.vstage_candidates.size());
  plan.search.combos_evaluated = static_cast<int>(n);
  plan.search.cache_hits = cache_hits;
  plan.search.cache_misses = cache_misses;
  plan.search.search_wall_ms = elapsed_ms(search_start);
  plan.filling_wall_ms = fill_ms;
  plan.partitioning_wall_ms = partition_ms;

  plan.config = best->config;
  plan.partition_opts = best->opts;
  plan.program = generate_instructions(report_.db, best->fill.filled_schedule,
                                       best->fill, best->opts);
  plan.fill = std::move(best->fill);
  return plan;
}

}  // namespace dpipe
