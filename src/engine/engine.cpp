#include "engine/engine.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "common/timeline.h"
#include "common/units.h"
#include "core/instr/validate.h"

namespace dpipe {

namespace {

/// Channel key for matching a send with its receive.
using ChannelKey = std::tuple<int /*src*/, int /*dst*/, int /*backbone*/,
                              int /*stage*/, int /*micro*/, bool /*grad*/,
                              int /*round*/>;
/// Collective key.
using CollectiveKey = std::tuple<int /*backbone*/, int /*stage*/,
                                 int /*round*/>;

struct RtInstr {
  Instruction instr;
  int round = 0;
};

struct Collective {
  int expected = 0;
  int issued = 0;
  double last_issue_ms = 0.0;
  double size_mb = 0.0;
  std::vector<int> participants;  ///< Chain positions.
  /// Lazily computed link-fault retry penalty (< 0 = not yet computed;
  /// stays negative on fault-free runs so it contributes nothing).
  double fault_penalty_ms = -1.0;
};

/// Stable identity for a message or collective, used to seed deterministic
/// link-fault retry draws.
std::uint64_t fault_msg_key(int backbone, int stage, int micro, int round,
                            bool grad) {
  return (static_cast<std::uint64_t>(backbone + 1) << 44) ^
         (static_cast<std::uint64_t>(stage + 1) << 30) ^
         (static_cast<std::uint64_t>(micro + 1) << 14) ^
         (static_cast<std::uint64_t>(round + 1) << 1) ^
         (grad ? 1ull : 0ull);
}

}  // namespace

ExecutionEngine::ExecutionEngine(const ProfileDb& db, const CommModel& comm)
    : db_(&db), comm_(&comm) {}

EngineResult ExecutionEngine::run(const InstructionProgram& program,
                                  const EngineOptions& opts) const {
  DPIPE_REQUIRE(opts.iterations >= 2,
                "need at least 2 iterations (steady state starts at 1)");
  DPIPE_REQUIRE(opts.group_batch > 0.0, "group batch must be positive");
  DPIPE_REQUIRE(program.group_size >= 1 &&
                    static_cast<int>(program.per_device.size()) ==
                        program.group_size,
                "program/device shape mismatch");
  require_valid_program(program);  // Shared front-end/back-end contract.
  DPIPE_REQUIRE(opts.data_parallel_degree * program.group_size <=
                    comm_->cluster().world_size(),
                "cluster too small for group_size x data_parallel_degree");
  const int R = opts.iterations;
  const int D = program.group_size;
  // Fault injection: `faulty` gates every adjustment below so an empty plan
  // leaves the run bit-identical to pre-fault behaviour.
  const bool faulty = !opts.faults.empty();
  if (faulty) {
    fault::validate(opts.faults, D);
  }
  const fault::FaultModel faults(opts.faults);
  fault::FaultStats fstats;
  const ModelDesc& model = db_->model();
  const AnalyticCostModel actual(
      comm_->cluster().device,
      NoiseSource(opts.actual_noise_seed, opts.noise_amplitude));

  // Unroll R rounds per device.
  std::vector<std::vector<RtInstr>> streams(D);
  for (int dev = 0; dev < D; ++dev) {
    for (int k = 0; k < R; ++k) {
      if (k == 0) {
        for (const Instruction& i : program.preamble[dev]) {
          streams[dev].push_back({i, 0});
        }
      }
      for (const Instruction& i : program.per_device[dev]) {
        streams[dev].push_back({i, k});
      }
    }
  }

  // Pre-scan: collective participants and frozen-fence counts.
  std::map<CollectiveKey, Collective> collectives;
  // data_round -> number of frozen ops producing that round's inputs.
  std::map<int, int> frozen_expected;
  for (int dev = 0; dev < D; ++dev) {
    bool in_preamble = true;
    std::size_t preamble_size = program.preamble[dev].size();
    for (std::size_t idx = 0; idx < streams[dev].size(); ++idx) {
      const RtInstr& ri = streams[dev][idx];
      in_preamble = ri.round == 0 && idx < preamble_size;
      if (ri.instr.kind == InstrKind::kAllReduceGrads) {
        Collective& c = collectives[{ri.instr.backbone, ri.instr.stage,
                                     ri.round}];
        ++c.expected;
        c.size_mb = ri.instr.size_mb;
        c.participants.push_back(dev);
      } else if (ri.instr.kind == InstrKind::kFrozenForward) {
        // Preamble prepares round 0; steady frozen ops in round k prepare
        // round k+1 (cross-iteration pipelining, §3.2).
        const int data_round = in_preamble ? 0 : ri.round + 1;
        ++frozen_expected[data_round];
      }
    }
  }
  std::map<int, int> frozen_done_count;
  std::map<int, double> frozen_ready_ms;

  const auto collective_duration = [&](Collective& c, std::uint64_t key) {
    std::vector<int> group;
    for (int g = 0; g < opts.data_parallel_degree; ++g) {
      for (const int dev : c.participants) {
        group.push_back(dev + g * D);
      }
    }
    // Link faults are declared over chain positions; the retry penalty is
    // computed (and accounted) once per collective, then cached.
    if (faulty && c.fault_penalty_ms < 0.0) {
      c.fault_penalty_ms = faults.collective_penalty_ms(
          c.participants, c.last_issue_ms, key, &fstats);
    }
    return comm_->allreduce_ms(c.size_mb, group) +
           std::max(0.0, c.fault_penalty_ms);
  };

  // Self-conditioning factor on backbone forwards: the expectation (1+p)
  // by default (comparable to the planner's model, §4.3), or a sampled
  // per-iteration Bernoulli coin — active iterations pay the full 2x extra
  // pass, inactive ones 1x.
  const double sc_prob = model.self_conditioning ? model.self_cond_prob : 0.0;
  const NoiseSource sc_coin(opts.actual_noise_seed ^ 0x5Cull, 0.999);
  const auto self_cond_factor = [&](int round) -> double {
    if (sc_prob == 0.0) {
      return 1.0;
    }
    if (!opts.sample_self_conditioning) {
      return 1.0 + sc_prob;
    }
    // Map the noise multiplier (uniform on [0.001, 1.999]) to a coin.
    const double unit =
        (sc_coin.multiplier(static_cast<std::uint64_t>(round)) - 1.0) / 2.0 +
        0.5;
    return unit < sc_prob ? 2.0 : 1.0;
  };

  const auto compute_duration = [&](const Instruction& i, bool backward,
                                    int round) -> double {
    double total = 0.0;
    for (int l = i.layer_begin; l < i.layer_end; ++l) {
      const LayerDesc& layer = model.components[i.component].layers[l];
      total += backward ? actual.bwd_ms(layer, i.samples)
                        : actual.fwd_ms(layer, i.samples);
    }
    if (i.kind == InstrKind::kForward) {
      total *= self_cond_factor(round);
    }
    return total;
  };

  std::vector<double> clock(D, 0.0);
  std::vector<std::size_t> head(D, 0);
  std::vector<DeviceTimeline> result_timelines(
      opts.record_timelines ? D : 0);
  ExecutionLog execution_log(opts.record_timelines ? D : 0);
  std::map<ChannelKey, double> sends;  ///< Key -> sender enqueue time.
  std::vector<std::vector<std::vector<Span>>> busy(
      D, std::vector<std::vector<Span>>(R));
  std::vector<double> round_end(R, 0.0);

  std::size_t remaining = 0;
  for (const auto& s : streams) {
    remaining += s.size();
  }

  // Fixed-point sweep: each pass advances every device as far as possible.
  while (remaining > 0) {
    bool progress = false;
    for (int dev = 0; dev < D; ++dev) {
      while (head[dev] < streams[dev].size()) {
        const RtInstr& ri = streams[dev][head[dev]];
        const Instruction& i = ri.instr;
        const int k = ri.round;
        double start = clock[dev];
        double duration = 0.0;
        bool executable = true;
        bool occupies_device = true;

        switch (i.kind) {
          case InstrKind::kLoadMicroBatch: {
            const auto expected_it = frozen_expected.find(k);
            if (expected_it != frozen_expected.end() &&
                frozen_done_count[k] < expected_it->second) {
              executable = false;
              break;
            }
            const auto ready_it = frozen_ready_ms.find(k);
            if (ready_it != frozen_ready_ms.end()) {
              start = std::max(start, ready_it->second);
            }
            duration = opts.load_ms;
            break;
          }
          case InstrKind::kForward:
            duration = compute_duration(i, false, k);
            break;
          case InstrKind::kBackward:
            duration = compute_duration(i, true, k);
            break;
          case InstrKind::kFrozenForward:
            duration = compute_duration(i, false, k);
            break;
          case InstrKind::kSendActivation:
          case InstrKind::kSendGradient: {
            const bool grad = i.kind == InstrKind::kSendGradient;
            // Channels are keyed by the *receiver's* stage: activations go
            // to stage+1, activation gradients to stage-1.
            const int receiver_stage = i.stage + (grad ? -1 : 1);
            sends[{dev, i.peer, i.backbone, receiver_stage, i.micro, grad,
                   k}] = clock[dev];
            duration = 0.0;
            occupies_device = false;
            break;
          }
          case InstrKind::kRecvActivation:
          case InstrKind::kRecvGradient: {
            const bool grad = i.kind == InstrKind::kRecvGradient;
            // The matching send is emitted with the *sender's* stage id;
            // match on the boundary instead: activation sends from stage
            // s-1 to s carry micro m; we key channels by the receiver-side
            // (stage, micro) to keep send/recv symmetric. See send above.
            const ChannelKey key{i.peer, dev, i.backbone, i.stage, i.micro,
                                 grad, k};
            const auto it = sends.find(key);
            if (it == sends.end()) {
              executable = false;
              break;
            }
            const double arrival =
                faulty ? it->second +
                             comm_->p2p_ms(i.size_mb, i.peer, dev, it->second,
                                           faults,
                                           fault_msg_key(i.backbone, i.stage,
                                                         i.micro, k, grad),
                                           &fstats)
                       : it->second + comm_->p2p_ms(i.size_mb, i.peer, dev);
            start = std::max(clock[dev], arrival);
            duration = 0.0;
            occupies_device = false;
            break;
          }
          case InstrKind::kAllReduceGrads: {
            Collective& c = collectives.at({i.backbone, i.stage, k});
            ++c.issued;
            c.last_issue_ms = std::max(c.last_issue_ms, clock[dev]);
            duration = 0.0;
            occupies_device = false;
            break;
          }
          case InstrKind::kOptimizerStep: {
            Collective& c = collectives.at({i.backbone, i.stage, k});
            if (c.issued < c.expected) {
              executable = false;
              break;
            }
            start = std::max(
                start, c.last_issue_ms +
                           collective_duration(
                               c, fault_msg_key(i.backbone, i.stage, -1, k,
                                                true)));
            // Adam update: read/modify/write fp32 states, HBM-bound.
            duration = transfer_ms(3.0 * i.size_mb,
                                   comm_->cluster().device.mem_bw_gbps);
            break;
          }
        }
        if (!executable) {
          break;
        }
        if (faulty && occupies_device && duration > 0.0) {
          const double factor = faults.straggler_factor(dev, start);
          if (factor > 1.0) {
            fstats.straggler_delay_ms += duration * (factor - 1.0);
            duration *= factor;
          }
        }
        const double end = start + duration;
        clock[dev] = std::max(clock[dev], end);
        if (opts.record_timelines && occupies_device) {
          execution_log[dev].push_back(op_signature(i));
        }
        if (occupies_device && duration > 0.0) {
          busy[dev][k].push_back({start, end});
          if (opts.record_timelines) {
            PipelineOp measured;
            switch (i.kind) {
              case InstrKind::kLoadMicroBatch:
                measured.kind = OpKind::kLoad;
                break;
              case InstrKind::kBackward:
                measured.kind = OpKind::kBackward;
                break;
              case InstrKind::kFrozenForward:
                measured.kind = OpKind::kFrozenForward;
                break;
              case InstrKind::kOptimizerStep:
                measured.kind = OpKind::kOptimizer;
                break;
              default:
                measured.kind = OpKind::kForward;
                break;
            }
            measured.backbone = i.backbone;
            measured.stage = i.stage;
            measured.micro = i.micro;
            measured.component = i.component;
            measured.layer = i.layer_begin;
            measured.samples = i.samples;
            measured.start_ms = start;
            measured.end_ms = end;
            result_timelines[dev].ops.push_back(measured);
          }
        }
        round_end[k] = std::max(round_end[k], end);
        if (i.kind == InstrKind::kFrozenForward) {
          const bool in_preamble =
              k == 0 && head[dev] < program.preamble[dev].size();
          const int data_round = in_preamble ? 0 : k + 1;
          ++frozen_done_count[data_round];
          frozen_ready_ms[data_round] =
              std::max(frozen_ready_ms[data_round], end);
        }
        ++head[dev];
        --remaining;
        progress = true;
      }
    }
    DPIPE_ENSURE(progress || remaining == 0,
                 "execution engine deadlocked: unmatched receive or fence");
  }

  // Device crashes: modeled post-hoc as global stalls. A synchronous
  // pipeline cannot advance past a dead stage, so at each crash the whole
  // group restores from the last iteration-boundary checkpoint (restore_ms)
  // and replays the work lost since it; everything after the crash point
  // shifts by that stall. Stalls are resolved in wall-clock order: each
  // crash's at_ms is mapped back into the unshifted timeline by subtracting
  // the stalls already incurred before it.
  std::vector<std::pair<double, double>> stalls;  ///< (unshifted t, stall).
  if (faulty && !opts.faults.crashes.empty()) {
    std::vector<fault::DeviceCrash> crashes = opts.faults.crashes;
    std::sort(crashes.begin(), crashes.end(),
              [](const fault::DeviceCrash& a, const fault::DeviceCrash& b) {
                return a.at_ms < b.at_ms;
              });
    const double makespan = round_end.back();
    double incurred = 0.0;
    for (const fault::DeviceCrash& crash : crashes) {
      const double t_c = crash.at_ms - incurred;
      if (t_c <= 0.0 || t_c >= makespan) {
        continue;  // The device died outside the simulated window.
      }
      double checkpoint_ms = 0.0;
      for (int k = 0; k < R; ++k) {
        if (round_end[k] <= t_c) {
          checkpoint_ms = std::max(checkpoint_ms, round_end[k]);
        }
      }
      const double stall = crash.restore_ms + (t_c - checkpoint_ms);
      stalls.emplace_back(t_c, stall);
      incurred += stall;
      ++fstats.recoveries;
      fstats.recovery_ms += stall;
    }
    // Total shift for an event ending at unshifted time `t`: ops that end
    // strictly after a crash point move (interrupted work is replayed after
    // recovery); ops already finished stay put.
    const auto shift_for = [&stalls](double t) {
      double s = 0.0;
      for (const auto& [tc, stall] : stalls) {
        if (t > tc) {
          s += stall;
        }
      }
      return s;
    };
    for (int dev = 0; dev < D; ++dev) {
      for (int k = 0; k < R; ++k) {
        for (Span& s : busy[dev][k]) {
          const double shift = shift_for(s.end);
          s.start += shift;
          s.end += shift;
        }
      }
    }
    for (double& re : round_end) {
      re += shift_for(re);
    }
    if (opts.record_timelines) {
      for (DeviceTimeline& device : result_timelines) {
        for (PipelineOp& op : device.ops) {
          const double shift = shift_for(op.end_ms);
          op.start_ms += shift;
          op.end_ms += shift;
        }
      }
      for (auto& [key, c] : collectives) {
        c.last_issue_ms += shift_for(c.last_issue_ms);
      }
    }
  }

  // Iteration statistics. Rounds must be non-decreasing in end time.
  EngineResult result;
  double window_start = 0.0;
  for (int k = 0; k < R; ++k) {
    IterationStats stats;
    stats.start_ms = window_start;
    stats.end_ms = std::max(round_end[k], window_start);
    const double window = stats.end_ms - stats.start_ms;
    if (window > 0.0) {
      double busy_total = 0.0;
      for (int dev = 0; dev < D; ++dev) {
        // Clip this round's busy spans to the window; spans from adjacent
        // rounds overlapping the window edges are attributed to their own
        // round, which keeps the sum consistent across rounds.
        for (const Span& s : busy[dev][k]) {
          busy_total += std::max(0.0, std::min(s.end, stats.end_ms) -
                                          std::max(s.start, stats.start_ms));
        }
      }
      stats.bubble_ratio =
          1.0 - busy_total / (window * static_cast<double>(D));
    }
    window_start = stats.end_ms;
    result.iterations.push_back(stats);
  }
  double steady_sum = 0.0;
  double steady_bubble = 0.0;
  for (int k = 1; k < R; ++k) {
    steady_sum += result.iterations[k].duration_ms();
    steady_bubble += result.iterations[k].bubble_ratio;
  }
  result.steady_iteration_ms = steady_sum / (R - 1);
  result.steady_bubble_ratio = steady_bubble / (R - 1);
  result.samples_per_second =
      opts.group_batch * opts.data_parallel_degree /
      ms_to_seconds(result.steady_iteration_ms);
  if (opts.record_timelines) {
    result.timelines.group_size = D;
    result.timelines.devices = std::move(result_timelines);
    result.execution_log = std::move(execution_log);
    result.timelines.makespan_ms = round_end.back();
    result.timelines.compute_makespan_ms = round_end.back();
    // Resolved collectives as link ops (duration known once all issued).
    for (auto& [key, c] : collectives) {
      PipelineOp sync;
      sync.kind = OpKind::kGradSync;
      sync.backbone = std::get<0>(key);
      sync.stage = std::get<1>(key);
      sync.start_ms = c.last_issue_ms;
      sync.end_ms =
          c.last_issue_ms +
          collective_duration(c, fault_msg_key(std::get<0>(key),
                                               std::get<1>(key), -1,
                                               std::get<2>(key), true));
      result.timelines.link_ops.push_back(sync);
    }
  }
  if (faulty) {
    // Effective bubble inflation: re-run the same program fault-free (the
    // engine is deterministic, so this is an exact counterfactual) and diff
    // the steady bubble ratios.
    EngineOptions clean = opts;
    clean.faults = fault::FaultPlan{};
    clean.record_timelines = false;
    const EngineResult baseline = run(program, clean);
    fstats.bubble_inflation =
        result.steady_bubble_ratio - baseline.steady_bubble_ratio;
  }
  result.fault_stats = fstats;
  return result;
}

}  // namespace dpipe
