#include "runtime/interpreter.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "cluster/comm_model.h"
#include "common/parallel.h"
#include "core/fill/filler.h"
#include "core/instr/validate.h"
#include "core/partition/partitioner.h"
#include "core/schedule/schedule.h"
#include "profiler/cost_model.h"
#include "profiler/profile_db.h"
#include "runtime/pool.h"

namespace dpipe::rt {

namespace {

[[nodiscard]] bool occupies_device(InstrKind kind) {
  return kind == InstrKind::kLoadMicroBatch || kind == InstrKind::kForward ||
         kind == InstrKind::kBackward || kind == InstrKind::kFrozenForward ||
         kind == InstrKind::kOptimizerStep;
}

[[nodiscard]] bool is_transfer(InstrKind kind) {
  return kind == InstrKind::kSendActivation ||
         kind == InstrKind::kRecvActivation ||
         kind == InstrKind::kSendGradient || kind == InstrKind::kRecvGradient;
}

/// Ops of the no-grad forward replay (forward_wave).
[[nodiscard]] bool in_forward_pass(InstrKind kind) {
  return kind == InstrKind::kLoadMicroBatch || kind == InstrKind::kForward ||
         kind == InstrKind::kSendActivation ||
         kind == InstrKind::kRecvActivation;
}

/// Done-flag states of a wave node.
constexpr int kPending = 0;
constexpr int kDone = 1;
constexpr int kAborted = 2;

}  // namespace

const char* wave_exec_name(WaveExec mode) {
  switch (mode) {
    case WaveExec::kThreads:
      return "threads";
    case WaveExec::kSerial:
      return "serial";
  }
  return "?";
}

WaveExec wave_exec() {
  return executor_width() == 1 ? WaveExec::kSerial : WaveExec::kThreads;
}

ProgramBinding::ProgramBinding(const InstructionProgram& program,
                               const Options& opts)
    : program_(program), rows_per_replica_(opts.rows_per_replica) {
  const ValidationReport report =
      ProgramValidator().validate_runtime_bindable(program_);
  if (!report.ok()) {
    throw std::invalid_argument("program is not runtime-bindable:\n" +
                                report.to_string());
  }
  DPIPE_REQUIRE(opts.num_modules >= 1, "need at least one runtime module");
  DPIPE_REQUIRE(opts.rows_per_replica >= 1,
                "rows_per_replica must be positive");

  // Per-stage planner layer ranges come from the first forward op of each
  // stage (validate_runtime_bindable guarantees each stage one owner).
  std::map<int, std::pair<int, int>> stage_layers;  // stage -> [begin, end)
  for (const std::vector<Instruction>& stream : program_.per_device) {
    for (const Instruction& instr : stream) {
      if (instr.kind != InstrKind::kForward) {
        continue;
      }
      stage_layers.emplace(instr.stage,
                           std::make_pair(instr.layer_begin, instr.layer_end));
      num_micros_ = std::max(num_micros_, instr.micro + 1);
    }
  }
  num_stages_ = static_cast<int>(stage_layers.size());

  // Map planner layer cuts onto runtime module indices. Proportional and
  // monotone (each stage keeps at least one module); the identity mapping
  // when the planner layer count equals the module count.
  const int planner_layers = stage_layers.at(num_stages_ - 1).second;
  DPIPE_REQUIRE(opts.num_modules >= num_stages_,
                "more pipeline stages than runtime modules");
  module_cut_.assign(num_stages_ + 1, 0);
  module_cut_[num_stages_] = opts.num_modules;
  for (int s = 1; s < num_stages_; ++s) {
    const int begin = stage_layers.at(s).first;
    const int mapped = static_cast<int>(std::llround(
        static_cast<double>(begin) * opts.num_modules / planner_layers));
    module_cut_[s] = std::clamp(mapped, module_cut_[s - 1] + 1,
                                opts.num_modules - (num_stages_ - s));
  }

  // Bind kFrozenForward occurrences to shard rows: per frozen layer
  // identity, the occurrences (canonical order: device ascending, stream
  // order within a device) split [0, rows_per_replica) proportionally to
  // their scheduled samples, with cumulative rounding so the union is an
  // exact disjoint cover.
  struct Occurrence {
    int dev = 0;
    int index = 0;  ///< Occurrence position within the device's slot list.
    double samples = 0.0;
  };
  const auto bind_frozen =
      [&](const std::vector<std::vector<Instruction>>& streams,
          std::vector<std::vector<FrozenSlot>>& slots) {
        slots.assign(streams.size(), {});
        std::map<std::pair<int, int>, std::vector<Occurrence>> groups;
        for (std::size_t dev = 0; dev < streams.size(); ++dev) {
          for (const Instruction& instr : streams[dev]) {
            if (instr.kind != InstrKind::kFrozenForward) {
              continue;
            }
            for (int layer = instr.layer_begin; layer < instr.layer_end;
                 ++layer) {
              FrozenSlot slot;
              slot.component = instr.component;
              slot.layer = layer;
              groups[{instr.component, layer}].push_back(
                  {static_cast<int>(dev),
                   static_cast<int>(slots[dev].size()), instr.samples});
              slots[dev].push_back(slot);
            }
          }
        }
        for (auto& [key, occurrences] : groups) {
          double total = 0.0;
          for (const Occurrence& occ : occurrences) {
            total += occ.samples;
          }
          DPIPE_REQUIRE(total > 0.0,
                        "frozen layer scheduled with zero total samples");
          double cum = 0.0;
          int prev = 0;
          for (const Occurrence& occ : occurrences) {
            cum += occ.samples;
            const int next = static_cast<int>(
                std::llround(cum / total * rows_per_replica_));
            slots[occ.dev][occ.index].rows = {prev, next};
            prev = next;
          }
          DPIPE_ENSURE(prev == rows_per_replica_,
                       "frozen row partition does not cover the shard");
        }
      };
  bind_frozen(program_.per_device, steady_frozen_);
  bind_frozen(program_.preamble, preamble_frozen_);

  // The conditioning the backbone consumes comes from the final layer of
  // the lowest-numbered frozen component — the encoder's output layer. (A
  // multi-layer frozen encoder runs every layer; only the last one's output
  // is the conditioning. Other frozen placements are replayed as modeled
  // compute only.)
  int prod_component = -1;
  int prod_layer = -1;
  std::set<std::pair<int, int>> identities;
  for (const std::vector<std::vector<FrozenSlot>>* slots :
       {&steady_frozen_, &preamble_frozen_}) {
    for (const std::vector<FrozenSlot>& dev_slots : *slots) {
      for (const FrozenSlot& slot : dev_slots) {
        identities.insert({slot.component, slot.layer});
      }
    }
  }
  if (!identities.empty()) {
    prod_component = identities.begin()->first;
    for (const auto& [component, layer] : identities) {
      if (component == prod_component) {
        prod_layer = layer;
      }
    }
  }
  for (std::vector<std::vector<FrozenSlot>>* slots :
       {&steady_frozen_, &preamble_frozen_}) {
    for (std::vector<FrozenSlot>& dev_slots : *slots) {
      for (FrozenSlot& slot : dev_slots) {
        slot.produces_cond =
            slot.component == prod_component && slot.layer == prod_layer;
      }
    }
  }
}

ProgramInterpreter::ProgramInterpreter(const DdpmProblem& problem,
                                       const ProgramBinding& binding,
                                       int global_batch, Sequential& backbone)
    : problem_(&problem), binding_(&binding), global_batch_(global_batch) {
  DPIPE_REQUIRE(global_batch >= 1, "global batch must be positive");
  DPIPE_REQUIRE(backbone.size() == binding.module_cut().back(),
                "backbone does not match the binding's module count");
  DPIPE_REQUIRE(global_batch % binding.rows_per_replica() == 0,
                "global batch must be a whole number of replica shards");
  replicas_ = global_batch / binding.rows_per_replica();
  // Each stage op's forward FLOPs: 2 x micro-batch rows x stage parameters.
  const std::int64_t rows = binding.rows_per_replica() / binding.num_micros();
  std::vector<std::int64_t> stage_flops(binding.num_stages());
  for (int s = 0; s < binding.num_stages(); ++s) {
    std::int64_t params = 0;
    for (int i = binding.module_begin(s); i < binding.module_end(s); ++i) {
      for (const Tensor* p : backbone.module(i).params()) {
        params += p->numel();
      }
    }
    stage_flops[s] = 2 * rows * params;
  }
  min_stage_flops_ =
      *std::min_element(stage_flops.begin(), stage_flops.end());
  train_order_ = build_order(stage_flops, replicas_, /*forward_only=*/false);
  forward_order_ = build_order(stage_flops, 1, /*forward_only=*/true);
}

ProgramInterpreter::WaveOrder ProgramInterpreter::build_order(
    const std::vector<std::int64_t>& stage_flops, int replicas,
    bool forward_only) const {
  const ProgramBinding& b = *binding_;
  const int S = b.num_stages();
  const int M = b.num_micros();
  const std::vector<std::vector<Instruction>>& streams =
      b.program().per_device;

  // One replica's ops, each waiting on the previous kept op of its device
  // and, for a receive, on its send: the one send of the same direction,
  // stage boundary and micro-batch.
  struct Op {
    InstrKind kind = InstrKind::kForward;
    int device = 0;
    int instr = 0;
    int frozen_slot = 0;
    std::int64_t cost = 0;
    std::vector<int> preds;

    /// kAllReduceGrads: one node for all replicas.
    [[nodiscard]] bool shared() const {
      return kind == InstrKind::kAllReduceGrads;
    }
  };
  std::vector<Op> ops;
  // Sends per (direction, stage boundary, micro), stream order; boundary
  // k lies between stages k and k + 1.
  std::vector<std::vector<int>> sends(
      static_cast<std::size_t>(2 * (S - 1) * M));
  std::vector<int> recvs;
  const auto channel = [&](const Instruction& instr) {
    const bool activation = instr.kind == InstrKind::kSendActivation ||
                            instr.kind == InstrKind::kRecvActivation;
    const bool send = instr.kind == InstrKind::kSendActivation ||
                      instr.kind == InstrKind::kSendGradient;
    const int boundary = activation == send ? instr.stage : instr.stage - 1;
    DPIPE_REQUIRE(boundary >= 0 && boundary < S - 1 && instr.micro >= 0 &&
                      instr.micro < M,
                  "transfer outside the pipeline's stage boundaries");
    return ((activation ? 0 : 1) * (S - 1) + boundary) * M + instr.micro;
  };
  for (int dev = 0; dev < static_cast<int>(streams.size()); ++dev) {
    int prev = -1;
    int frozen = 0;  // FrozenSlots bound so far on this device.
    for (int i = 0; i < static_cast<int>(streams[dev].size()); ++i) {
      const Instruction& instr = streams[dev][i];
      Op op;
      op.kind = instr.kind;
      op.device = dev;
      op.instr = i;
      op.frozen_slot = frozen;
      if (instr.kind == InstrKind::kFrozenForward) {
        frozen += instr.layer_end - instr.layer_begin;
      }
      if (forward_only && !in_forward_pass(instr.kind)) {
        continue;
      }
      if (instr.kind == InstrKind::kForward) {
        op.cost = stage_flops[instr.stage];
      } else if (instr.kind == InstrKind::kBackward) {
        op.cost = 2 * stage_flops[instr.stage];
      }
      if (prev >= 0) {
        op.preds.push_back(prev);
      }
      prev = static_cast<int>(ops.size());
      if (instr.kind == InstrKind::kSendActivation ||
          instr.kind == InstrKind::kSendGradient) {
        sends[channel(instr)].push_back(prev);
      } else if (is_transfer(instr.kind)) {
        recvs.push_back(prev);
      }
      ops.push_back(std::move(op));
    }
  }
  std::vector<std::size_t> paired(sends.size(), 0);
  for (const int r : recvs) {
    const int key = channel(streams[ops[r].device][ops[r].instr]);
    DPIPE_REQUIRE(paired[key] < sends[key].size(),
                  "receive without a matching send");
    ops[r].preds.push_back(sends[key][paired[key]++]);
  }
  for (std::size_t key = 0; key < sends.size(); ++key) {
    DPIPE_REQUIRE(paired[key] == sends[key].size(),
                  "send without a matching receive");
  }

  // ASAP list simulation: an op starts once all its predecessors finished;
  // among ready ops the earliest start goes first, ties in (device, stream)
  // order. The result is a topological order; ops left over lie on a cycle.
  const int n = static_cast<int>(ops.size());
  std::vector<std::vector<int>> succs(n);
  std::vector<int> missing(n);
  std::vector<std::int64_t> start(n, 0);
  for (int id = 0; id < n; ++id) {
    missing[id] = static_cast<int>(ops[id].preds.size());
    for (const int p : ops[id].preds) {
      succs[p].push_back(id);
    }
  }
  using Ready = std::tuple<std::int64_t, int, int, int>;  // start, dev, i, id
  std::priority_queue<Ready, std::vector<Ready>, std::greater<>> ready;
  for (int id = 0; id < n; ++id) {
    if (missing[id] == 0) {
      ready.emplace(0, ops[id].device, ops[id].instr, id);
    }
  }
  std::vector<int> sorted;
  sorted.reserve(n);
  while (!ready.empty()) {
    const auto [at, dev, instr, id] = ready.top();
    ready.pop();
    sorted.push_back(id);
    for (const int next : succs[id]) {
      start[next] = std::max(start[next], at + ops[id].cost);
      if (--missing[next] == 0) {
        ready.emplace(start[next], ops[next].device, ops[next].instr, next);
      }
    }
  }
  if (static_cast<int>(sorted.size()) != n) {
    throw std::invalid_argument(
        "program is not executable: its device streams wait on each other "
        "in a cycle");
  }

  // Sends and receives do no work: contract them into edges, so an op
  // waits directly on the ops its transfers waited on.
  std::vector<std::vector<int>> deps(n);
  for (const int id : sorted) {
    for (const int p : ops[id].preds) {
      if (is_transfer(ops[p].kind)) {
        deps[id].insert(deps[id].end(), deps[p].begin(), deps[p].end());
      } else {
        deps[id].push_back(p);
      }
    }
    std::sort(deps[id].begin(), deps[id].end());
    deps[id].erase(std::unique(deps[id].begin(), deps[id].end()),
                   deps[id].end());
  }

  // Lay the replicas out replica-inner: each op becomes `replicas`
  // consecutive nodes, except the shared allreduce, which waits on every
  // replica's copy of its predecessors.
  WaveOrder order;
  std::vector<int> first(n);  // Node of each op's replica 0 (or shared).
  for (const int id : sorted) {
    const Op& op = ops[id];
    if (is_transfer(op.kind)) {
      continue;
    }
    first[id] = static_cast<int>(order.nodes.size());
    for (int g = 0; g < (op.shared() ? 1 : replicas); ++g) {
      WaveNode node;
      node.replica = op.shared() ? -1 : g;
      node.device = op.device;
      node.instr = op.instr;
      node.frozen_slot = op.frozen_slot;
      node.pred_begin = static_cast<int>(order.preds.size());
      for (const int p : deps[id]) {
        if (ops[p].shared()) {
          order.preds.push_back(first[p]);
        } else if (op.shared()) {
          for (int r = 0; r < replicas; ++r) {
            order.preds.push_back(first[p] + r);
          }
        } else {
          order.preds.push_back(first[p] + g);
        }
      }
      node.pred_end = static_cast<int>(order.preds.size());
      order.nodes.push_back(node);
    }
  }
  return order;
}

template <typename Op>
void ProgramInterpreter::run_order(const WaveOrder& order, int width,
                                   const Op& op) {
  const std::size_t n = order.nodes.size();
  std::vector<std::atomic<int>> state(n);  // kPending (zero) initially.
  std::atomic<std::size_t> cursor{0};
  std::mutex error_mutex;
  std::exception_ptr error;  // The first op failure; guarded by error_mutex.
  const auto abort_wave = [&] {
    for (std::atomic<int>& flag : state) {
      int expected = kPending;
      if (flag.compare_exchange_strong(expected, kAborted)) {
        flag.notify_all();
      }
    }
  };
  parallel_for(static_cast<std::size_t>(width), width, [&](std::size_t) {
    for (std::size_t i = cursor.fetch_add(1); i < n;
         i = cursor.fetch_add(1)) {
      const WaveNode& node = order.nodes[i];
      for (int p = node.pred_begin; p < node.pred_end; ++p) {
        std::atomic<int>& pred = state[order.preds[p]];
        int seen = kPending;
        while ((seen = pred.load()) == kPending) {
          pred.wait(kPending);
        }
        if (seen == kAborted) {
          return;
        }
      }
      if (state[i].load() == kAborted) {
        return;  // The wave was aborted.
      }
      try {
        op(node);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (error == nullptr) {
            error = std::current_exception();
          }
        }
        abort_wave();
        return;
      }
      state[i].store(kDone);
      state[i].notify_all();
    }
  });
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

int ProgramInterpreter::wave_width(std::size_t tasks) const {
  if (min_stage_flops_ < kParallelCostThreshold) {
    return 1;
  }
  return static_cast<int>(
      std::min(tasks, static_cast<std::size_t>(executor_width())));
}

double ProgramInterpreter::train_wave(
    const std::vector<ReplicaState>& replicas,
    const std::vector<WaveInputs>& inputs, int iteration,
    const RtFaultInjection& fault, ExecutionLog* log) const {
  const ProgramBinding& b = *binding_;
  const int S = b.num_stages();
  const int M = b.num_micros();
  const int G = static_cast<int>(replicas.size());
  DPIPE_REQUIRE(G == replicas_,
                "replica count does not match the interpreter's global "
                "batch");
  DPIPE_REQUIRE(static_cast<int>(inputs.size()) == G,
                "one WaveInputs per replica");
  for (const WaveInputs& in : inputs) {
    DPIPE_REQUIRE(static_cast<int>(in.micros.size()) == M,
                  "micro-batch count mismatch with the program");
    DPIPE_REQUIRE(in.cond != nullptr, "wave needs encoder outputs");
  }
  const int devices = b.program().group_size;
  if (log != nullptr) {
    log->resize(devices);
  }

  // Per-stage parameter/gradient slices of every replica, precomputed so
  // the allreduce and the optimizer steps need no module walks.
  std::vector<std::vector<std::vector<Tensor*>>> stage_params(G);
  std::vector<std::vector<std::vector<Tensor*>>> stage_grads(G);
  for (int g = 0; g < G; ++g) {
    stage_params[g].resize(S);
    stage_grads[g].resize(S);
    for (int s = 0; s < S; ++s) {
      for (int i = b.module_begin(s); i < b.module_end(s); ++i) {
        Module& mod = replicas[g].net->module(i);
        for (Tensor* p : mod.params()) {
          stage_params[g][s].push_back(p);
        }
        for (Tensor* gr : mod.grads()) {
          stage_grads[g][s].push_back(gr);
        }
      }
    }
  }

  // Tensor slots, flat-indexed [(g * S + s) * M + m]: act holds stage s's
  // forward input for micro m, grad its backward input. The order makes
  // every slot's writer finish before its reader starts.
  const std::size_t slots = static_cast<std::size_t>(G) * S * M;
  std::vector<Tensor> act(slots);
  std::vector<Tensor> grad(slots);
  std::vector<Tensor> preds(static_cast<std::size_t>(G) * M);
  const auto slot = [&](int g, int s, int m) {
    return (static_cast<std::size_t>(g) * S + s) * M + m;
  };
  const int per_micro = b.rows_per_replica() / M;
  TensorPool& pool = TensorPool::global();

  run_order(train_order_, wave_width(static_cast<std::size_t>(G) * devices),
            [&](const WaveNode& node) {
    const Instruction& instr = b.program().per_device[node.device][node.instr];
    const int s = instr.stage;
    const int m = instr.micro;
    if (node.replica < 0) {
      // The shared allreduce: sum the replicas' gradients in ascending
      // replica order and broadcast the result. Micro gradients are already
      // global-batch normalized, so the sum IS the full-batch gradient.
      for (std::size_t i = 0; i < stage_grads[0][s].size(); ++i) {
        Tensor sum = pool.acquire(stage_grads[0][s][i]->shape());
        std::copy(stage_grads[0][s][i]->data(),
                  stage_grads[0][s][i]->data() + sum.numel(), sum.data());
        for (int r = 1; r < G; ++r) {
          add_inplace(sum, *stage_grads[r][s][i]);
        }
        for (int r = 0; r < G; ++r) {
          std::copy(sum.data(), sum.data() + sum.numel(),
                    stage_grads[r][s][i]->data());
        }
        pool.release(std::move(sum));
      }
      return;
    }
    const int g = node.replica;
    const WaveInputs& in = inputs[g];
    const ReplicaState& replica = replicas[g];
    if (log != nullptr && g == 0 && occupies_device(instr.kind)) {
      (*log)[node.device].push_back(op_signature(instr));
    }
    switch (instr.kind) {
      case InstrKind::kLoadMicroBatch: {
        const int lo = m * per_micro;
        const int hi = lo + per_micro;
        const Tensor cond_rows =
            in.cond->slice_rows(in.row_offset + lo, in.row_offset + hi);
        const Tensor sc_rows = in.self_cond != nullptr
                                   ? in.self_cond->slice_rows(lo, hi)
                                   : Tensor();
        act[slot(g, 0, m)] = problem_->make_input(
            in.micros[m], cond_rows,
            in.self_cond != nullptr ? &sc_rows : nullptr);
        break;
      }
      case InstrKind::kForward: {
        if (fault.armed() && iteration == fault.iteration &&
            g == fault.replica && s == fault.stage && m == fault.micro) {
          throw StageFailure("injected stage failure: iteration " +
                             std::to_string(iteration) + ", stage " +
                             std::to_string(s) + ", micro " +
                             std::to_string(m));
        }
        Tensor y = replica.net->forward_range(std::move(act[slot(g, s, m)]),
                                              b.module_begin(s),
                                              b.module_end(s));
        if (s == S - 1) {
          grad[slot(g, s, m)] =
              problem_->loss_grad(y, in.micros[m].noise, global_batch_);
          preds[static_cast<std::size_t>(g) * M + m] = std::move(y);
        } else {
          act[slot(g, s + 1, m)] = std::move(y);
        }
        break;
      }
      case InstrKind::kBackward: {
        Tensor gout = replica.net->backward_range(
            std::move(grad[slot(g, s, m)]), b.module_begin(s),
            b.module_end(s));
        if (s == 0) {
          pool.release(std::move(gout));
        } else {
          grad[slot(g, s - 1, m)] = std::move(gout);
        }
        break;
      }
      case InstrKind::kFrozenForward: {
        // One bound slot per covered layer (see ProgramBinding).
        for (int layer = instr.layer_begin; layer < instr.layer_end;
             ++layer) {
          const ProgramBinding::FrozenSlot& frozen =
              b.steady_frozen()[node.device][node.frozen_slot + layer -
                                             instr.layer_begin];
          if (!frozen.produces_cond || in.next_cond_raw == nullptr ||
              in.next_cond == nullptr || frozen.rows.rows() == 0) {
            continue;  // Modeled compute only.
          }
          const Tensor raw = in.next_cond_raw->slice_rows(
              in.row_offset + frozen.rows.begin,
              in.row_offset + frozen.rows.end);
          Tensor enc = problem_->encode_condition(raw);
          const int cols = enc.cols();
          std::copy(enc.data(), enc.data() + enc.numel(),
                    in.next_cond->data() +
                        static_cast<std::int64_t>(in.row_offset +
                                                  frozen.rows.begin) *
                            cols);
          pool.release(std::move(enc));
        }
        break;
      }
      case InstrKind::kOptimizerStep: {
        if (!replica.stage_adam.empty()) {
          replica.stage_adam[s]->step(stage_params[g][s], stage_grads[g][s]);
        } else {
          replica.sgd->step(stage_params[g][s], stage_grads[g][s]);
        }
        for (Tensor* gt : stage_grads[g][s]) {
          fill(*gt, 0.0f);
        }
        break;
      }
      default:
        break;  // Sends and receives are edges of the order, not nodes.
    }
  });

  // Loss accumulation in the reference order: a per-replica partial sum
  // (micros ascending, elements in order), partials folded in ascending
  // replica order — bit-identical to summing each replica's wave result
  // sequentially.
  double sse = 0.0;
  for (int g = 0; g < G; ++g) {
    double replica_sse = 0.0;
    for (int m = 0; m < M; ++m) {
      Tensor& p = preds[static_cast<std::size_t>(g) * M + m];
      const Tensor& t = inputs[g].micros[m].noise;
      DPIPE_ENSURE(p.shape() == t.shape(), "pred/target shape mismatch");
      for (std::int64_t i = 0; i < p.numel(); ++i) {
        const float d = p.data()[i] - t.data()[i];
        replica_sse += static_cast<double>(d) * d;
      }
      pool.release(std::move(p));
    }
    sse += replica_sse;
  }
  return sse;  // Caller normalizes over the global batch.
}

std::vector<Tensor> ProgramInterpreter::forward_wave(
    const ReplicaState& replica, const WaveInputs& inputs) const {
  const ProgramBinding& b = *binding_;
  const int S = b.num_stages();
  const int M = b.num_micros();
  DPIPE_REQUIRE(static_cast<int>(inputs.micros.size()) == M,
                "micro-batch count mismatch with the program");
  DPIPE_REQUIRE(inputs.cond != nullptr, "wave needs encoder outputs");
  const int per_micro = b.rows_per_replica() / M;
  std::vector<Tensor> act(static_cast<std::size_t>(S) * M);  // [s * M + m].
  std::vector<Tensor> outputs(M);
  run_order(forward_order_,
            wave_width(static_cast<std::size_t>(b.program().group_size)),
            [&](const WaveNode& node) {
    const Instruction& instr = b.program().per_device[node.device][node.instr];
    const int s = instr.stage;
    const int m = instr.micro;
    if (instr.kind == InstrKind::kLoadMicroBatch) {
      const int lo = inputs.row_offset + m * per_micro;
      const Tensor cond_rows = inputs.cond->slice_rows(lo, lo + per_micro);
      act[m] = problem_->make_input(inputs.micros[m], cond_rows, nullptr);
    } else if (instr.kind == InstrKind::kForward) {
      Tensor y = replica.net->forward_range(
          std::move(act[static_cast<std::size_t>(s) * M + m]),
          b.module_begin(s), b.module_end(s));
      if (s == S - 1) {
        outputs[m] = std::move(y);
      } else {
        act[static_cast<std::size_t>(s + 1) * M + m] = std::move(y);
      }
    }
  });
  // Discard the stashed contexts of this no-grad pass.
  for (int s = 0; s < S; ++s) {
    for (int m = 0; m < M; ++m) {
      replica.net->drop_context_range(b.module_begin(s), b.module_end(s));
    }
  }
  return outputs;
}

void ProgramInterpreter::run_preamble(const Tensor& cond_raw, Tensor& cond,
                                      int replicas,
                                      ExecutionLog* log) const {
  const ProgramBinding& b = *binding_;
  const int devices = b.program().group_size;
  if (log != nullptr) {
    log->resize(devices);
  }
  // Preamble tasks are fully independent (disjoint row slices, no
  // channels): a plain fork-join at the wave's width.
  const std::size_t num_tasks = static_cast<std::size_t>(replicas) * devices;
  std::vector<std::exception_ptr> errors(num_tasks);
  parallel_for(num_tasks, wave_width(num_tasks), [&](std::size_t t) {
    const int g = static_cast<int>(t) / devices;
    const int dev = static_cast<int>(t) % devices;
    try {
      const int row_offset = g * b.rows_per_replica();
      int frozen_seen = 0;
      TensorPool& pool = TensorPool::global();
      for (const Instruction& instr : b.program().preamble[dev]) {
        if (log != nullptr && g == 0) {
          (*log)[dev].push_back(op_signature(instr));
        }
        // One bound slot per covered layer (see ProgramBinding).
        for (int layer = instr.layer_begin; layer < instr.layer_end;
             ++layer) {
          const ProgramBinding::FrozenSlot& slot =
              b.preamble_frozen()[dev][frozen_seen++];
          if (!slot.produces_cond || slot.rows.rows() == 0) {
            continue;  // Modeled compute only.
          }
          const Tensor raw = cond_raw.slice_rows(
              row_offset + slot.rows.begin, row_offset + slot.rows.end);
          Tensor enc = problem_->encode_condition(raw);
          const int cols = enc.cols();
          std::copy(enc.data(), enc.data() + enc.numel(),
                    cond.data() + static_cast<std::int64_t>(
                                      row_offset + slot.rows.begin) *
                                      cols);
          pool.release(std::move(enc));
        }
      }
    } catch (...) {
      errors[t] = std::current_exception();
    }
  });
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) {
      std::rethrow_exception(error);
    }
  }
}

ModelDesc trainer_planner_model(int num_modules) {
  DPIPE_REQUIRE(num_modules >= 1, "need at least one module");
  // Synthetic model whose backbone layers are 1:1 with the runtime's
  // Sequential modules; sizes are nominal (the planner only needs relative
  // costs, the interpreter executes real kernels regardless).
  ComponentDesc backbone;
  backbone.name = "backbone";
  backbone.trainable = true;
  backbone.deps = {1};
  for (int l = 0; l < num_modules; ++l) {
    LayerDesc layer;
    layer.name = "mlp" + std::to_string(l);
    layer.kind = LayerKind::kLinear;
    layer.fwd_gflop = 1.0;
    layer.param_mb = 1.0;
    layer.output_mb = 0.1;
    layer.act_mb = 0.1;
    backbone.layers.push_back(layer);
  }
  ComponentDesc encoder;
  encoder.name = "frozen_encoder";
  encoder.trainable = false;
  LayerDesc enc_layer;
  enc_layer.name = "encode";
  enc_layer.kind = LayerKind::kEmbedding;
  enc_layer.fwd_gflop = 0.5;
  enc_layer.param_mb = 1.0;
  enc_layer.grad_mb = 0.0;
  enc_layer.output_mb = 0.1;
  encoder.layers.push_back(enc_layer);
  ModelDesc model;
  model.name = "rt_trainer";
  model.components = {backbone, encoder};
  model.backbone_ids = {0};
  validate(model);
  return model;
}

TrainerLowering lower_trainer_program(const TrainerLoweringSpec& spec) {
  const int S = spec.num_stages;
  const int M = spec.num_microbatches;
  const int G = spec.data_parallel_degree;
  DPIPE_REQUIRE(S >= 1, "need at least one stage");
  DPIPE_REQUIRE(M >= 1, "need at least one micro-batch");
  DPIPE_REQUIRE(G >= 1, "need at least one replica");
  DPIPE_REQUIRE(spec.global_batch % (G * M) == 0,
                "global batch must divide into replicas x micro-batches");
  DPIPE_REQUIRE(spec.family != ScheduleFamily::kBidirectional,
                "trainer lowering has one backbone; bidirectional "
                "schedules need two");
  DPIPE_REQUIRE(spec.vstages >= 1, "vstages must be positive");
  DPIPE_REQUIRE(
      spec.vstages == 1 || spec.family == ScheduleFamily::kInterleaved,
      "vstages > 1 needs --schedule=interleaved");
  const int V = spec.family == ScheduleFamily::kInterleaved ? spec.vstages : 1;
  const int St = S * V;  ///< Total (virtual) stages over S devices.
  DPIPE_REQUIRE(V == 1 || S >= 2,
                "interleaved with vstages > 1 needs at least two devices");
  DPIPE_REQUIRE(spec.num_modules >= St,
                "more (virtual) stages than runtime modules");
  const int L = spec.num_modules;
  const int per_replica = spec.global_batch / G;

  TrainerLowering out;
  out.model = trainer_planner_model(L);

  const ClusterSpec cluster = make_p4de_cluster((S * G + 7) / 8);
  const AnalyticCostModel cost(cluster.device, NoiseSource(1, 0.0));
  const ProfileDb db(out.model, cost, default_batch_grid());
  const CommModel comm(cluster);

  out.options.num_stages = St;
  out.options.num_microbatches = M;
  out.options.group_size = S;
  out.options.data_parallel_degree = G;
  out.options.microbatch_size =
      static_cast<double>(per_replica) / M;

  // The trainer's historical stage split over the virtual-stage count:
  // module s*L/St .. (s+1)*L/St on device s % S (round-robin; the identity
  // placement when V == 1).
  std::vector<StagePlan> stages(St);
  for (int s = 0; s < St; ++s) {
    stages[s].layer_begin = s * L / St;
    stages[s].layer_end = (s + 1) * L / St;
    stages[s].replicas = 1;
    stages[s].device_ranks = {s % S};
  }

  const ScheduleBuilder builder(db, comm);
  const Schedule schedule =
      spec.family == ScheduleFamily::kInterleaved
          ? builder.build_interleaved(0, stages, out.options)
      : spec.family == ScheduleFamily::kGpipe
          ? builder.build_gpipe(0, stages, out.options)
          : builder.build_1f1b(0, stages, out.options);

  FillResult fill;
  if (spec.cross_iteration) {
    FillOptions fill_opts;
    fill_opts.training_batch = per_replica;
    fill = BubbleFiller(db).fill(schedule, fill_opts);
  } else {
    // No steady-state frozen work: the non-trainable part runs as the
    // (per-iteration) preamble, un-overlapped.
    fill.filled_schedule = schedule;
  }
  out.program =
      generate_instructions(db, fill.filled_schedule, fill, out.options);
  return out;
}

}  // namespace dpipe::rt
