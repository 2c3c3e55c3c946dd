// The schedule builders. All four families share one body: per-stage
// timings from the profile, proto-ops per backbone, per-executor queues,
// list scheduling, then assembly into device timelines. A family differs
// only in which executor runs each stage and in its queue order.

#include <algorithm>
#include <vector>

#include "common/units.h"
#include "core/schedule/schedule.h"

namespace dpipe {
namespace {

/// Per-stage timing inputs derived from the profile.
struct StageTiming {
  double fwd_ms = 0.0;      ///< One micro-batch forward (incl. expected
                            ///< self-conditioning extra pass).
  double bwd_ms = 0.0;      ///< One micro-batch backward.
  double comm_in_ms = 0.0;  ///< Lag for activations arriving from the
                            ///< previous stage (0 for stage 0).
  double comm_out_bwd_ms = 0.0;  ///< Lag for activation gradients sent back
                                 ///< to the previous stage.
  double sync_ms = 0.0;     ///< Gradient allreduce duration.
};

double self_cond_factor(const PartitionOptions& opts) {
  return opts.self_conditioning ? 1.0 + opts.self_cond_prob : 1.0;
}

std::vector<int> stage_sync_group(const StagePlan& stage,
                                  const PartitionOptions& opts) {
  const int stride =
      opts.dp_rank_stride > 0 ? opts.dp_rank_stride : opts.group_size;
  std::vector<int> group;
  for (int g = 0; g < opts.data_parallel_degree; ++g) {
    for (const int rank : stage.device_ranks) {
      group.push_back(rank + g * stride);
    }
  }
  return group;
}

/// Timings of one backbone's stages, in pipeline order, from the profile
/// and the communication model. Sync groups and boundary links are costed
/// against each stage's device ranks, so the same expressions serve every
/// placement.
std::vector<StageTiming> stage_timings(const ProfileDb& db,
                                       const CommModel& comm, int component,
                                       const std::vector<StagePlan>& stages,
                                       const PartitionOptions& opts) {
  std::vector<StageTiming> timings;
  timings.reserve(stages.size());
  const double sc = self_cond_factor(opts);
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const StagePlan& stage = stages[s];
    const double local_batch = opts.microbatch_size / stage.replicas;
    StageTiming t;
    t.fwd_ms = sc * db.fwd_range_ms(component, stage.layer_begin,
                                    stage.layer_end, local_batch);
    t.bwd_ms = db.bwd_range_ms(component, stage.layer_begin, stage.layer_end,
                               local_batch);
    const double grad_mb =
        kGradCommBytesFactor *
        db.grad_range_mb(component, stage.layer_begin, stage.layer_end);
    t.sync_ms = comm.allreduce_ms(grad_mb, stage_sync_group(stage, opts));
    if (s > 0) {
      const StagePlan& prev = stages[s - 1];
      const double size_mb =
          db.layer(component, stage.layer_begin - 1).output_mb * local_batch;
      const LinkSpec link =
          comm.p2p_link(prev.device_ranks.back(), stage.device_ranks.front());
      const double base =
          transfer_ms(size_mb, link.bandwidth_gbps) + link.latency_ms;
      t.comm_in_ms = opts.comm_competition_factor * sc * base;
      t.comm_out_bwd_ms = opts.comm_competition_factor * base;
    }
    timings.push_back(t);
  }
  return timings;
}

/// Expected self-conditioning feedback transfer p * T_F (§4.3).
double feedback_lag_ms(const ProfileDb& db, const CommModel& comm,
                       int component, const std::vector<StagePlan>& stages,
                       const PartitionOptions& opts) {
  if (!opts.self_conditioning) {
    return 0.0;
  }
  const int last_layer = stages.back().layer_end - 1;
  const double size_mb =
      db.layer(component, last_layer).output_mb * opts.microbatch_size;
  const LinkSpec link = comm.p2p_link(stages.back().device_ranks.back(),
                                      stages.front().device_ranks.front());
  return opts.self_cond_prob *
         (transfer_ms(size_mb, link.bandwidth_gbps) + link.latency_ms);
}

/// Indices of one backbone's proto-ops: fwd[s][m], bwd[s][m].
struct BackboneOps {
  std::vector<std::vector<int>> fwd;
  std::vector<std::vector<int>> bwd;
};

/// Appends forward/backward/sync proto-ops of one backbone to `ops` and
/// wires their dependencies. `executor_of_stage[s]` maps the backbone's
/// stage index to its executor.
BackboneOps append_backbone_ops(std::vector<detail::ProtoOp>& ops,
                                int backbone_index,
                                const std::vector<StageTiming>& timings,
                                const std::vector<int>& executor_of_stage,
                                int num_microbatches, double feedback_ms) {
  const int S = static_cast<int>(timings.size());
  const int M = num_microbatches;
  BackboneOps ids;
  ids.fwd.assign(S, std::vector<int>(M, -1));
  ids.bwd.assign(S, std::vector<int>(M, -1));
  for (int s = 0; s < S; ++s) {
    for (int m = 0; m < M; ++m) {
      detail::ProtoOp fwd;
      fwd.kind = OpKind::kForward;
      fwd.backbone = backbone_index;
      fwd.stage = s;
      fwd.micro = m;
      fwd.duration_ms = timings[s].fwd_ms;
      fwd.executor = executor_of_stage[s];
      if (s > 0) {
        fwd.deps.emplace_back(ids.fwd[s - 1][m], timings[s].comm_in_ms);
      }
      ids.fwd[s][m] = static_cast<int>(ops.size());
      ops.push_back(std::move(fwd));
    }
  }
  for (int s = S - 1; s >= 0; --s) {
    for (int m = 0; m < M; ++m) {
      detail::ProtoOp bwd;
      bwd.kind = OpKind::kBackward;
      bwd.backbone = backbone_index;
      bwd.stage = s;
      bwd.micro = m;
      bwd.duration_ms = timings[s].bwd_ms;
      bwd.executor = executor_of_stage[s];
      bwd.deps.emplace_back(ids.fwd[s][m], 0.0);
      if (s < S - 1) {
        bwd.deps.emplace_back(ids.bwd[s + 1][m],
                              timings[s + 1].comm_out_bwd_ms);
      } else if (m == 0 && feedback_ms > 0.0) {
        // Self-conditioning feedback: the expected T_F transfer from the
        // last stage's output back to stage 0 sits on the critical path
        // before the backward phase begins (§4.3, Fig. 10).
        bwd.deps.emplace_back(ids.fwd[s][m], feedback_ms);
      }
      ids.bwd[s][m] = static_cast<int>(ops.size());
      ops.push_back(std::move(bwd));
    }
  }
  for (int s = 0; s < S; ++s) {
    detail::ProtoOp sync;
    sync.kind = OpKind::kGradSync;
    sync.backbone = backbone_index;
    sync.stage = s;
    sync.duration_ms = timings[s].sync_ms;
    sync.executor = -1;  // Link op: overlaps compute.
    for (int m = 0; m < M; ++m) {
      sync.deps.emplace_back(ids.bwd[s][m], 0.0);
    }
    ops.push_back(std::move(sync));
  }
  return ids;
}

/// 1F1B queue order of one stage: warm-up forwards, steady 1F1B pairs,
/// cool-down backwards (paper Fig. 2).
std::vector<int> one_f_one_b_order(const BackboneOps& ids, int stage,
                                   int num_stages, int num_microbatches) {
  const int warmup = std::min(num_stages - 1 - stage, num_microbatches);
  std::vector<int> queue;
  for (int m = 0; m < warmup; ++m) {
    queue.push_back(ids.fwd[stage][m]);
  }
  for (int i = 0; i + warmup < num_microbatches; ++i) {
    queue.push_back(ids.fwd[stage][warmup + i]);
    queue.push_back(ids.bwd[stage][i]);
  }
  for (int m = num_microbatches - warmup; m < num_microbatches; ++m) {
    queue.push_back(ids.bwd[stage][m]);
  }
  return queue;
}

/// GPipe queue order: all forwards, then all backwards (reverse micro
/// order, matching the backward dependency chain).
std::vector<int> gpipe_order(const BackboneOps& ids, int stage,
                             int num_microbatches) {
  std::vector<int> queue;
  for (int m = 0; m < num_microbatches; ++m) {
    queue.push_back(ids.fwd[stage][m]);
  }
  for (int m = num_microbatches - 1; m >= 0; --m) {
    queue.push_back(ids.bwd[stage][m]);
  }
  return queue;
}

/// Materializes a Schedule from resolved proto-ops. `devices_of_executor`
/// lists the chain positions each executor's compute occupies.
Schedule assemble_schedule(
    const std::vector<detail::ProtoOp>& ops, const std::vector<Span>& times,
    const std::vector<std::vector<int>>& devices_of_executor, int group_size,
    int num_stages, int num_microbatches) {
  Schedule schedule;
  schedule.group_size = group_size;
  schedule.num_stages = num_stages;
  schedule.num_microbatches = num_microbatches;
  schedule.devices.resize(group_size);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    PipelineOp op;
    op.kind = ops[i].kind;
    op.backbone = ops[i].backbone;
    op.stage = ops[i].stage;
    op.micro = ops[i].micro;
    op.start_ms = times[i].start;
    op.end_ms = times[i].end;
    schedule.makespan_ms = std::max(schedule.makespan_ms, op.end_ms);
    if (ops[i].executor < 0) {
      schedule.link_ops.push_back(op);
      continue;
    }
    schedule.compute_makespan_ms =
        std::max(schedule.compute_makespan_ms, op.end_ms);
    for (const int device : devices_of_executor[ops[i].executor]) {
      schedule.devices[device].ops.push_back(op);
    }
  }
  for (DeviceTimeline& device : schedule.devices) {
    std::sort(device.ops.begin(), device.ops.end(),
              [](const PipelineOp& a, const PipelineOp& b) {
                return a.start_ms < b.start_ms;
              });
  }
  return schedule;
}

void check_stages(const std::vector<StagePlan>& stages,
                  const PartitionOptions& opts) {
  require(!stages.empty(), "schedule needs at least one stage");
  require(static_cast<int>(stages.size()) == opts.num_stages,
          "stage list does not match opts.num_stages");
  int devices = 0;
  for (const StagePlan& s : stages) {
    require(s.replicas >= 1 &&
                static_cast<int>(s.device_ranks.size()) == s.replicas,
            "stage replica list inconsistent");
    devices += s.replicas;
  }
  require(devices == opts.group_size,
          "stages do not cover the pipeline group");
}

/// One backbone's pipeline as the builder body sees it.
struct Pipeline {
  int component = 0;
  const std::vector<StagePlan>& stages;
  /// Serial executor of each stage. Executors are laid along the chain in
  /// index order, each as wide as the replica count of the stages it runs.
  std::vector<int> executor_of_stage;
};

enum class QueueOrder { kOneFOneB, kGpipe };

std::vector<int> identity_executors(int num_stages) {
  std::vector<int> executors(num_stages);
  for (int s = 0; s < num_stages; ++s) {
    executors[s] = s;
  }
  return executors;
}

/// The body every family shares. Proto-ops are appended backbone by
/// backbone; each executor's queues follow backbone then stage order, and
/// a stage's slot on its device is its queue's index there. The order of
/// both matters: list_schedule breaks ties by executor and queue index.
Schedule build_pipelines(const ProfileDb& db, const CommModel& comm,
                         const PartitionOptions& opts,
                         const std::vector<Pipeline>& pipelines,
                         int num_executors, QueueOrder order) {
  const int M = opts.num_microbatches;
  // The feedback transfer runs from the last stage back to stage 0 of one
  // pipeline; the bidirectional family has none.
  const double feedback =
      pipelines.size() == 1
          ? feedback_lag_ms(db, comm, pipelines[0].component,
                            pipelines[0].stages, opts)
          : 0.0;
  std::vector<detail::ProtoOp> ops;
  std::vector<BackboneOps> ids;
  for (std::size_t b = 0; b < pipelines.size(); ++b) {
    const Pipeline& p = pipelines[b];
    ids.push_back(append_backbone_ops(
        ops, static_cast<int>(b),
        stage_timings(db, comm, p.component, p.stages, opts),
        p.executor_of_stage, M, feedback));
  }

  std::vector<std::vector<std::vector<int>>> queues(num_executors);
  std::vector<int> width(num_executors, 0);
  std::vector<std::vector<StagePlacement>> placement(pipelines.size());
  for (std::size_t b = 0; b < pipelines.size(); ++b) {
    const Pipeline& p = pipelines[b];
    const int S = static_cast<int>(p.stages.size());
    placement[b].resize(S);
    for (int s = 0; s < S; ++s) {
      const int e = p.executor_of_stage[s];
      width[e] = p.stages[s].replicas;
      placement[b][s].slot = static_cast<int>(queues[e].size());
      queues[e].push_back(order == QueueOrder::kOneFOneB
                              ? one_f_one_b_order(ids[b], s, S, M)
                              : gpipe_order(ids[b], s, M));
    }
  }
  const std::vector<Span> times = detail::list_schedule(ops, queues);

  std::vector<std::vector<int>> devices_of_executor(num_executors);
  int position = 0;
  for (int e = 0; e < num_executors; ++e) {
    for (int i = 0; i < width[e]; ++i) {
      devices_of_executor[e].push_back(position++);
    }
  }
  Schedule schedule = assemble_schedule(ops, times, devices_of_executor,
                                        opts.group_size, opts.num_stages, M);
  for (std::size_t b = 0; b < pipelines.size(); ++b) {
    const Pipeline& p = pipelines[b];
    for (std::size_t s = 0; s < p.stages.size(); ++s) {
      placement[b][s].device =
          devices_of_executor[p.executor_of_stage[s]].front();
    }
    schedule.backbone_stages.push_back(p.stages);
  }
  schedule.placement = std::move(placement);
  return schedule;
}

}  // namespace

Schedule ScheduleBuilder::build_1f1b(int backbone_component,
                                     const std::vector<StagePlan>& stages,
                                     const PartitionOptions& opts,
                                     const StageCostCache*) const {
  check_stages(stages, opts);
  return build_pipelines(
      *db_, *comm_, opts,
      {{backbone_component, stages, identity_executors(opts.num_stages)}},
      opts.num_stages, QueueOrder::kOneFOneB);
}

Schedule ScheduleBuilder::build_gpipe(int backbone_component,
                                      const std::vector<StagePlan>& stages,
                                      const PartitionOptions& opts) const {
  check_stages(stages, opts);
  return build_pipelines(
      *db_, *comm_, opts,
      {{backbone_component, stages, identity_executors(opts.num_stages)}},
      opts.num_stages, QueueOrder::kGpipe);
}

Schedule ScheduleBuilder::build_interleaved(
    int backbone_component, const std::vector<StagePlan>& stages,
    const PartitionOptions& opts) const {
  require(!stages.empty(), "schedule needs at least one stage");
  const int S = static_cast<int>(stages.size());
  const int D = opts.group_size;
  require(S == opts.num_stages,
          "stage list does not match opts.num_stages");
  require(D >= 1 && S % D == 0,
          "interleaved placement needs num_stages to be a multiple of "
          "group_size");
  require(S / D == 1 || D >= 2,
          "interleaved with more than one virtual stage per device needs at "
          "least two devices (a device cannot send to itself)");
  std::vector<int> executors(S);
  for (int s = 0; s < S; ++s) {
    require(stages[s].replicas == 1 &&
                static_cast<int>(stages[s].device_ranks.size()) == 1,
            "interleaved stages must have exactly one replica");
    require(stages[s].device_ranks[0] == s % D,
            "interleaved placement must be round-robin: stage s on device "
            "s % group_size");
    executors[s] = s % D;
  }
  // Each device interleaves its owned stages' 1F1B queues greedily
  // (earliest feasible start, ties to the lower slot), which realizes the
  // looping interleaved warm-up/steady/cool-down pattern. With V == 1 this
  // is exactly build_1f1b.
  return build_pipelines(*db_, *comm_, opts,
                         {{backbone_component, stages, std::move(executors)}},
                         D, QueueOrder::kOneFOneB);
}

Schedule ScheduleBuilder::build_bidirectional(
    int down_component, const std::vector<StagePlan>& down_stages,
    int up_component, const std::vector<StagePlan>& up_stages,
    const PartitionOptions& opts_in, const StageCostCache*) const {
  PartitionOptions opts = opts_in;
  opts.comm_competition_factor =
      std::max(opts.comm_competition_factor, 2.0);  // §4.2
  check_stages(down_stages, opts);
  check_stages(up_stages, opts);
  const int S = opts.num_stages;
  // Chain slot k hosts down stage k and up stage S-1-k; they must share
  // devices (as produced by partition_bidirectional).
  std::vector<int> up_executors(S);
  for (int k = 0; k < S; ++k) {
    require(down_stages[k].device_ranks == up_stages[S - 1 - k].device_ranks,
            "down stage k and up stage S-1-k must share devices");
    up_executors[k] = S - 1 - k;
  }
  // Each chain slot interleaves its down-stage and up-stage queues greedily
  // (earliest feasible start), which lets each direction's micro-batches
  // fill the other direction's bubbles (paper Fig. 3).
  return build_pipelines(
      *db_, *comm_, opts,
      {{down_component, down_stages, identity_executors(S)},
       {up_component, up_stages, std::move(up_executors)}},
      S, QueueOrder::kOneFOneB);
}

}  // namespace dpipe
