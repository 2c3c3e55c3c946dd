#include "core/partition/bidirectional.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <vector>

#include "common/pareto.h"
#include "core/partition/stage_cache.h"

namespace dpipe {

namespace {

PartitionOptions bidirectional_options(PartitionOptions opts) {
  // Communication in the two directions competes for links (§4.2).
  opts.comm_competition_factor = 2.0;
  return opts;
}

StagePlan make_stage(const PartitionOptions& opts, int lo, int hi,
                     int chain_begin, int replicas) {
  StagePlan stage;
  stage.layer_begin = lo;
  stage.layer_end = hi;
  stage.replicas = replicas;
  for (int i = 0; i < replicas; ++i) {
    const int pos = chain_begin + i;
    stage.device_ranks.push_back(
        opts.device_ranks.empty() ? pos : opts.device_ranks[pos]);
  }
  return stage;
}

void check_bidirectional(const DpPartitioner& partitioner, int down_component,
                         int up_component, const PartitionOptions& opts) {
  const ModelDesc& model = partitioner.db().model();
  const auto num_components = static_cast<int>(model.components.size());
  require(down_component >= 0 && down_component < num_components &&
              up_component >= 0 && up_component < num_components,
          "component index out of range");
  require(down_component != up_component,
          "bidirectional pipelining needs two distinct backbones");
  require(model.components[down_component].trainable &&
              model.components[up_component].trainable,
          "both backbones must be trainable");
  require(opts.force_uniform_replicas,
          "bidirectional partitioning supports uniform replication only");
  require(opts.group_size % opts.num_stages == 0,
          "uniform replication requires S to divide D");
  require(opts.num_stages <= model.components[down_component].num_layers() &&
              opts.num_stages <= model.components[up_component].num_layers(),
          "more stages than layers in a backbone");
  require(!opts.self_conditioning,
          "self-conditioned CDM partitioning is not supported");
}

}  // namespace

BiPartitionResult partition_bidirectional(const DpPartitioner& partitioner,
                                          int down_component,
                                          int up_component,
                                          const PartitionOptions& opts_in,
                                          StageCostCache* cache) {
  check_bidirectional(partitioner, down_component, up_component, opts_in);
  const PartitionOptions opts = bidirectional_options(opts_in);
  const ModelDesc& model = partitioner.db().model();
  const int Ld = model.components[down_component].num_layers();
  const int Lu = model.components[up_component].num_layers();
  const int S = opts.num_stages;
  const int r = opts.group_size / S;
  // Both pipelines contribute M micro-batches to the paired stable phase.
  const int m_cdm = 2 * opts.num_microbatches;

  // DP along the chain, front to back. Chain stage k holds down layers
  // taken from the *front* of the down backbone and up layers taken from
  // the *back* of the up backbone (the up pipeline's stage 0 sits at the
  // chain end). State: (down layers placed, up layers placed-from-back).
  struct Transition {
    std::size_t prev_tag = 0;
    int down_lo = 0, down_hi = 0;
    int up_lo = 0, up_hi = 0;
    int chain_begin = 0;
  };
  constexpr std::size_t kRootTag = std::numeric_limits<std::size_t>::max();
  std::vector<Transition> transitions;

  // The frontiers of chain stages s and s + 1 as dense row-major
  // (down_placed, up_placed) arrays; visiting them row-major is the order
  // of a sorted state map, so ties break as they always have. Backpointers
  // live in `transitions`, so earlier stages' frontiers are not kept.
  const int cols = Lu + 1;
  const auto state = [cols](int down_placed, int up_placed) {
    return static_cast<std::size_t>(down_placed) * cols + up_placed;
  };
  std::vector<ParetoFrontier> frontiers(state(Ld, Lu) + 1);
  std::vector<ParetoFrontier> next_frontiers(frontiers.size());
  frontiers[state(0, 0)].insert({0.0, 0.0, kRootTag});

  // The (t0, y) of chain stage s's down and up candidates, dense by
  // (lo, hi) and costed on first use: a stage cost depends on (s, lo, hi)
  // alone, however many states and pairings reach it, so each is asked of
  // `partitioner` (and `cache`) once.
  struct Cost {
    double t0_ms = 0.0;
    double y_ms = 0.0;
    bool known = false;
  };
  std::vector<Cost> down_costs(static_cast<std::size_t>(Ld + 1) * (Ld + 1));
  std::vector<Cost> up_costs(static_cast<std::size_t>(Lu + 1) * (Lu + 1));
  const auto cost_of = [&](std::vector<Cost>& table, int layers,
                           int component, int lo, int hi, int chain_begin,
                           PipeDirection direction) -> const Cost& {
    Cost& cost = table[static_cast<std::size_t>(lo) * (layers + 1) + hi];
    if (!cost.known) {
      const StageCost full = partitioner.stage_cost(
          component, lo, hi, r, chain_begin, opts, direction, cache);
      cost = {full.t0_ms, full.y_ms, true};
    }
    return cost;
  };

  for (int s = 0; s < S; ++s) {
    const int stages_left = S - s;
    const int chain_begin = s * r;
    std::fill(down_costs.begin(), down_costs.end(), Cost{});
    std::fill(up_costs.begin(), up_costs.end(), Cost{});
    for (int down_placed = 0; down_placed <= Ld; ++down_placed) {
      for (int up_placed = 0; up_placed <= Lu; ++up_placed) {
        const ParetoFrontier& frontier =
            frontiers[state(down_placed, up_placed)];
        if (frontier.empty()) {
          continue;
        }
        // The last chain stage takes whatever is left of both backbones.
        const int max_down_take = Ld - down_placed - (stages_left - 1);
        const int max_up_take = Lu - up_placed - (stages_left - 1);
        const int min_down_take = stages_left == 1 ? max_down_take : 1;
        const int min_up_take = stages_left == 1 ? max_up_take : 1;
        for (int dt = min_down_take; dt <= max_down_take; ++dt) {
          const int down_lo = down_placed;
          const int down_hi = down_placed + dt;
          const Cost& down_cost =
              cost_of(down_costs, Ld, down_component, down_lo, down_hi,
                      chain_begin, PipeDirection::kDown);
          for (int ut = min_up_take; ut <= max_up_take; ++ut) {
            // Up layers counted from the back: this chain stage holds
            // [Lu - up_placed - ut, Lu - up_placed).
            const int up_lo = Lu - up_placed - ut;
            const int up_hi = Lu - up_placed;
            const Cost& up_cost = cost_of(up_costs, Lu, up_component, up_lo,
                                          up_hi, chain_begin,
                                          PipeDirection::kUp);
            const double t0 = std::max(down_cost.t0_ms, up_cost.t0_ms);
            const double y = std::max(down_cost.y_ms, up_cost.y_ms);
            ParetoFrontier& target =
                next_frontiers[state(down_hi, up_placed + ut)];
            for (const ParetoPoint& p : frontier.points()) {
              ParetoPoint next;
              next.w = std::max(p.w, t0);
              next.y = std::max(p.y, y);
              next.tag = transitions.size();
              if (target.insert(next)) {
                transitions.push_back(
                    {p.tag, down_lo, down_hi, up_lo, up_hi, chain_begin});
              }
            }
          }
        }
      }
    }
    frontiers.swap(next_frontiers);
    for (ParetoFrontier& frontier : next_frontiers) {
      frontier.clear();
    }
  }

  const ParetoFrontier& final_frontier = frontiers[state(Ld, Lu)];
  ensure(!final_frontier.empty(),
         "bidirectional DP found no feasible assignment");
  const double coeff = static_cast<double>(m_cdm) + 2.0 * S - 2.0;
  const ParetoPoint best = final_frontier.best(coeff);

  BiPartitionResult result;
  result.t0_ms = best.w;
  result.y_ms = best.y;
  result.m_cdm = m_cdm;
  result.upper_bound_ms = coeff * best.w + best.y;

  std::size_t tag = best.tag;
  while (tag != kRootTag) {
    ensure(tag < transitions.size(), "dangling DP backpointer");
    const Transition& t = transitions[tag];
    result.down_stages.push_back(
        make_stage(opts, t.down_lo, t.down_hi, t.chain_begin, r));
    result.up_stages.push_back(
        make_stage(opts, t.up_lo, t.up_hi, t.chain_begin, r));
    tag = transitions[tag].prev_tag;
  }
  // Transitions were walked last-chain-stage first. Down pipeline order ==
  // chain order; up pipeline order is reverse chain order, which is exactly
  // the walk order — so only the down list needs reversing.
  std::reverse(result.down_stages.begin(), result.down_stages.end());
  ensure(static_cast<int>(result.down_stages.size()) == S &&
             static_cast<int>(result.up_stages.size()) == S,
         "reconstructed stage count mismatch");
  return result;
}

BiPartitionResult brute_force_bidirectional(const DpPartitioner& partitioner,
                                            int down_component,
                                            int up_component,
                                            const PartitionOptions& opts_in,
                                            StageCostCache* cache) {
  check_bidirectional(partitioner, down_component, up_component, opts_in);
  const PartitionOptions opts = bidirectional_options(opts_in);
  const ModelDesc& model = partitioner.db().model();
  const int Ld = model.components[down_component].num_layers();
  const int Lu = model.components[up_component].num_layers();
  const int S = opts.num_stages;
  const int r = opts.group_size / S;
  const int m_cdm = 2 * opts.num_microbatches;
  const double coeff = static_cast<double>(m_cdm) + 2.0 * S - 2.0;

  std::vector<int> down_counts(S), up_counts(S);
  double best_objective = std::numeric_limits<double>::infinity();
  BiPartitionResult best;

  const std::function<void(int, int, int)> recurse = [&](int index,
                                                         int down_left,
                                                         int up_left) {
    if (index == S) {
      if (down_left != 0 || up_left != 0) {
        return;
      }
      double w = 0.0;
      double y = 0.0;
      std::vector<StagePlan> down_stages, up_stages;
      int dl = 0;
      int up_hi = Lu;
      for (int s = 0; s < S; ++s) {
        const int chain_begin = s * r;
        const StageCost dc = partitioner.stage_cost(
            down_component, dl, dl + down_counts[s], r, chain_begin, opts,
            PipeDirection::kDown, cache);
        const StageCost uc = partitioner.stage_cost(
            up_component, up_hi - up_counts[s], up_hi, r, chain_begin, opts,
            PipeDirection::kUp, cache);
        down_stages.push_back(
            make_stage(opts, dl, dl + down_counts[s], chain_begin, r));
        up_stages.push_back(make_stage(opts, up_hi - up_counts[s], up_hi,
                                       chain_begin, r));
        dl += down_counts[s];
        up_hi -= up_counts[s];
        w = std::max({w, dc.t0_ms, uc.t0_ms});
        y = std::max({y, dc.y_ms, uc.y_ms});
      }
      const double obj = coeff * w + y;
      if (obj < best_objective) {
        best_objective = obj;
        best.down_stages = std::move(down_stages);
        // Up stages were built in chain order; up pipeline order is the
        // reverse.
        std::reverse(up_stages.begin(), up_stages.end());
        best.up_stages = std::move(up_stages);
        best.t0_ms = w;
        best.y_ms = y;
        best.m_cdm = m_cdm;
        best.upper_bound_ms = obj;
      }
      return;
    }
    for (int dt = 1; dt <= down_left - (S - index - 1); ++dt) {
      for (int ut = 1; ut <= up_left - (S - index - 1); ++ut) {
        down_counts[index] = dt;
        up_counts[index] = ut;
        recurse(index + 1, down_left - dt, up_left - ut);
      }
    }
  };
  recurse(0, Ld, Lu);
  ensure(!best.down_stages.empty(),
         "brute force bidirectional found no feasible assignment");
  return best;
}

}  // namespace dpipe
