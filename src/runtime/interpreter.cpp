#include "runtime/interpreter.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <string>
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

/// Cross-replica rendezvous realizing kAllReduceGrads: the last of
/// `parties` arriving tasks runs the reduction under the lock, so every
/// replica's accumulated gradients happen-before the reduce and the reduced
/// values happen-before every party's optimizer step. Single-use. Tasks
/// never wait inside it: an arrival that finds peers missing parks its task
/// until the last arriver wakes it.
class ReduceBarrier {
 public:
  explicit ReduceBarrier(int parties) : parties_(parties) {}

  enum class TryArrive { kReduced, kPending, kAborted };

  /// `arrived` is the calling task's own registration flag: the first call
  /// registers the arrival, later calls only poll. kReduced means the
  /// reduction has run and the task may proceed; kPending means peers are
  /// still missing. The last arriver runs the reduction inline; if it
  /// throws, the barrier aborts.
  template <typename Fn>
  [[nodiscard]] TryArrive try_arrive(bool& arrived, Fn&& reduce) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (aborted_) {
      return TryArrive::kAborted;
    }
    if (!arrived) {
      arrived = true;
      if (++arrived_ == parties_) {
        try {
          reduce();
        } catch (...) {
          aborted_ = true;
          throw;
        }
        done_ = true;
      }
    }
    return done_ ? TryArrive::kReduced : TryArrive::kPending;
  }

  void abort() {
    const std::lock_guard<std::mutex> lock(mutex_);
    aborted_ = true;
  }

 private:
  std::mutex mutex_;
  int parties_;
  int arrived_ = 0;
  bool done_ = false;
  bool aborted_ = false;
};

[[nodiscard]] bool occupies_device(InstrKind kind) {
  return kind == InstrKind::kLoadMicroBatch || kind == InstrKind::kForward ||
         kind == InstrKind::kBackward || kind == InstrKind::kFrozenForward ||
         kind == InstrKind::kOptimizerStep;
}

/// Runs one wave's resumable tasks on the calling thread plus up to
/// width - 1 idle executor workers (the participants). A participant pulls
/// a ready task and runs it until it finishes or would block on a channel
/// pop or an allreduce barrier; the blocked task parks, and the participant
/// pulls the next one. The peer whose push or barrier arrival unblocks a
/// parked task wakes it, so no thread ever waits inside a task: a
/// participant only sleeps when no task is ready, and with width 1 the
/// whole wave runs cooperatively on the caller. Every value a task computes
/// is a pure function of the wave's inputs (see ProgramInterpreter), so
/// every width and interleaving yields the same bits.
class WaveScheduler {
 public:
  explicit WaveScheduler(std::size_t tasks)
      : state_(tasks, State::kReady), remaining_(tasks) {
    for (std::size_t t = 0; t < tasks; ++t) {
      ready_.push_back(t);
    }
  }

  /// Something task `t` may wait on changed: a parked `t` becomes ready,
  /// a running one is re-run once it yields.
  void wake(std::size_t t) {
    const std::lock_guard<std::mutex> lock(mutex_);
    wake_locked(t);
  }

  void wake_all() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t t = 0; t < state_.size(); ++t) {
      wake_locked(t);
    }
  }

  /// Runs every task to completion. step(t) runs task t from where it
  /// stopped and returns true once it is finished, false when it parks.
  /// Throws if no task can progress: the program would deadlock under any
  /// schedule (validated programs never do).
  template <typename Step>
  void run(int width, const Step& step) {
    parallel_for(static_cast<std::size_t>(width), width,
                 [&](std::size_t) { participate(step); });
    DPIPE_ENSURE(!deadlocked_, "wave deadlocked: no task can progress");
  }

 private:
  enum class State { kReady, kRunning, kRerun, kParked, kDone };

  void wake_locked(std::size_t t) {
    if (state_[t] == State::kParked) {
      state_[t] = State::kReady;
      ready_.push_back(t);
      if (sleeping_ > 0) {
        cv_.notify_one();
      }
    } else if (state_[t] == State::kRunning) {
      state_[t] = State::kRerun;
    }
  }

  template <typename Step>
  void participate(const Step& step) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (remaining_ > 0 && !deadlocked_) {
      if (ready_.empty()) {
        if (running_ == 0) {
          deadlocked_ = true;
          cv_.notify_all();
          return;
        }
        ++sleeping_;
        cv_.wait(lock);
        --sleeping_;
        continue;
      }
      const std::size_t t = ready_.front();
      ready_.pop_front();
      state_[t] = State::kRunning;
      ++running_;
      lock.unlock();
      const bool done = step(t);
      lock.lock();
      --running_;
      if (done) {
        state_[t] = State::kDone;
        if (--remaining_ == 0) {
          cv_.notify_all();
        }
      } else if (state_[t] == State::kRerun) {
        state_[t] = State::kReady;
        ready_.push_back(t);
      } else {
        state_[t] = State::kParked;
      }
    }
  }

  std::mutex mutex_;  ///< Guards every member below.
  std::condition_variable cv_;  ///< Signals sleepers: ready task or end.
  std::vector<State> state_;
  std::deque<std::size_t> ready_;
  std::size_t remaining_;  ///< Tasks not yet kDone.
  int running_ = 0;
  int sleeping_ = 0;
  bool deadlocked_ = false;
};

/// Everything one train_wave's per-(replica, device) tasks share. Owned by
/// train_wave's frame; tasks hold a reference.
struct TrainWave {
  const ProgramBinding& b;
  const DdpmProblem& problem;
  const std::vector<ProgramInterpreter::ReplicaState>& replicas;
  const std::vector<ProgramInterpreter::WaveInputs>& inputs;
  int global_batch;
  int iteration;
  const RtFaultInjection& fault;
  ExecutionLog* log;
  int S;
  int M;
  int G;
  int per_micro;
  std::vector<std::vector<std::vector<Tensor*>>>& stage_params;
  std::vector<std::vector<std::vector<Tensor*>>>& stage_grads;
  std::vector<Channel<Tensor>>& act;
  std::vector<Channel<Tensor>>& grad;
  std::vector<Channel<int>>& cond_gate;
  std::vector<std::unique_ptr<ReduceBarrier>>& barriers;
  std::vector<std::vector<Tensor>>& preds;
  WaveScheduler& sched;

  /// Wakes the task of the device that owns `stage` in replica g.
  void wake(int g, int stage) const {
    sched.wake(static_cast<std::size_t>(g) * b.program().group_size +
               b.device_of_stage(stage));
  }
};

/// Resumable execution state of one (replica g, device dev) training task:
/// an instruction cursor plus the locals a thread body would hold. One task
/// walks its device's whole instruction stream, dispatching each op onto
/// the owned (virtual) stage it names: per-stage inbox/barrier state is
/// indexed by the stage's slot, so an interleaved device drives V resumable
/// stage machines from one cursor. run() executes until the next channel
/// pop or barrier would block, returns kBlocked with all state intact, and
/// resumes exactly where it stopped. Suspension points carry no partial
/// arithmetic, so every schedule produces bit-identical tensors.
class DeviceExec {
 public:
  enum class Status { kBlocked, kDone };

  DeviceExec(TrainWave& w, int g, int dev)
      : w_(w),
        g_(g),
        dev_(dev),
        stream_(w.b.program().per_device[dev]),
        in_(w.inputs[g]),
        replica_(w.replicas[g]),
        owned_(w.b.stages_of_device(dev)),
        loaded_(w.M),  // Stage-0 assembled inputs.
        inbox_act_(owned_.size(),
                   std::vector<Tensor>(w.M)),  // Received activations.
        inbox_grad_(owned_.size(),
                    std::vector<Tensor>(w.M)),  // Received gradients.
        local_grads_(w.M),                      // Last stage's loss grads.
        barrier_arrived_(owned_.size(), 0) {}

  /// Executes instructions from the cursor until the task blocks or its
  /// stream ends. Throws on stage failure; an aborted wave ends the task
  /// silently (kDone).
  Status run();

 private:
  /// Marks the task finished (aborted wave): the scheduler must not resume
  /// it again.
  Status finish() {
    ip_ = stream_.size();
    return Status::kDone;
  }

  TrainWave& w_;
  int g_;
  int dev_;
  const std::vector<Instruction>& stream_;
  const ProgramInterpreter::WaveInputs& in_;
  const ProgramInterpreter::ReplicaState& replica_;
  const std::vector<int>& owned_;  ///< Stages this device owns, slot order.
  std::vector<Tensor> loaded_;
  std::vector<std::vector<Tensor>> inbox_act_;   ///< [slot][micro].
  std::vector<std::vector<Tensor>> inbox_grad_;  ///< [slot][micro].
  std::vector<Tensor> local_grads_;
  bool gate_passed_ = false;
  int frozen_seen_ = 0;
  std::size_t ip_ = 0;      ///< Next instruction to execute.
  std::size_t logged_ = 0;  ///< Instructions already logged (once each).
  std::vector<char> barrier_arrived_;  ///< [slot].
};

DeviceExec::Status DeviceExec::run() {
  TensorPool& pool = TensorPool::global();
  while (ip_ < stream_.size()) {
    const Instruction& instr = stream_[ip_];
    if (logged_ <= ip_) {
      // Log on first arrival (a blocked instruction is revisited but must
      // be recorded once, in the order the device reached it).
      logged_ = ip_ + 1;
      if (w_.log != nullptr && g_ == 0 && occupies_device(instr.kind)) {
        (*w_.log)[dev_].push_back(op_signature(instr));
      }
    }
    switch (instr.kind) {
      case InstrKind::kLoadMicroBatch: {
        if (!gate_passed_) {
          int token = 0;
          switch (w_.cond_gate[g_].try_pop(token)) {
            case TryPop::kValue:
              break;
            case TryPop::kEmpty:
              return Status::kBlocked;
            case TryPop::kClosed:
              return finish();  // Wave aborted before the inputs arrived.
          }
          gate_passed_ = true;
        }
        const int m = instr.micro;
        const int lo = m * w_.per_micro;
        const int hi = lo + w_.per_micro;
        const Tensor cond_rows =
            in_.cond->slice_rows(in_.row_offset + lo, in_.row_offset + hi);
        const Tensor sc_rows = in_.self_cond != nullptr
                                   ? in_.self_cond->slice_rows(lo, hi)
                                   : Tensor();
        loaded_[m] = w_.problem.make_input(
            in_.micros[m], cond_rows,
            in_.self_cond != nullptr ? &sc_rows : nullptr);
        break;
      }
      case InstrKind::kRecvActivation: {
        const int s = instr.stage;
        Tensor recv;
        switch (w_.act[g_ * w_.S + (s - 1)].try_pop(recv)) {
          case TryPop::kValue:
            inbox_act_[w_.b.slot_of_stage(s)][instr.micro] = std::move(recv);
            break;
          case TryPop::kEmpty:
            return Status::kBlocked;
          case TryPop::kClosed:
            return finish();  // Peer aborted the wave.
        }
        break;
      }
      case InstrKind::kRecvGradient: {
        const int s = instr.stage;
        Tensor recv;
        switch (w_.grad[g_ * w_.S + s].try_pop(recv)) {
          case TryPop::kValue:
            inbox_grad_[w_.b.slot_of_stage(s)][instr.micro] = std::move(recv);
            break;
          case TryPop::kEmpty:
            return Status::kBlocked;
          case TryPop::kClosed:
            return finish();  // Peer aborted the wave.
        }
        break;
      }
      case InstrKind::kForward: {
        const int s = instr.stage;
        const int slot = w_.b.slot_of_stage(s);
        const int m = instr.micro;
        if (w_.fault.armed() && w_.iteration == w_.fault.iteration &&
            g_ == w_.fault.replica && s == w_.fault.stage &&
            m == w_.fault.micro) {
          throw StageFailure("injected stage failure: iteration " +
                             std::to_string(w_.iteration) + ", stage " +
                             std::to_string(s) + ", micro " +
                             std::to_string(m));
        }
        Tensor x =
            s == 0 ? std::move(loaded_[m]) : std::move(inbox_act_[slot][m]);
        Tensor y = replica_.net->forward_range(
            std::move(x), w_.b.module_begin(s), w_.b.module_end(s));
        if (s == w_.S - 1) {
          local_grads_[m] =
              w_.problem.loss_grad(y, in_.micros[m].noise, w_.global_batch);
          w_.preds[g_][m] = std::move(y);
        } else {
          inbox_act_[slot][m] = std::move(y);  // Outbox until the send.
        }
        break;
      }
      case InstrKind::kSendActivation: {
        const int s = instr.stage;
        if (!w_.act[g_ * w_.S + s].push(std::move(
                inbox_act_[w_.b.slot_of_stage(s)][instr.micro]))) {
          return finish();  // Consumer gone: the wave is being aborted.
        }
        w_.wake(g_, s + 1);
        break;
      }
      case InstrKind::kBackward: {
        const int s = instr.stage;
        const int slot = w_.b.slot_of_stage(s);
        const int m = instr.micro;
        Tensor gin = s == w_.S - 1 ? std::move(local_grads_[m])
                                   : std::move(inbox_grad_[slot][m]);
        Tensor gout = replica_.net->backward_range(
            std::move(gin), w_.b.module_begin(s), w_.b.module_end(s));
        if (s == 0) {
          pool.release(std::move(gout));
        } else {
          inbox_grad_[slot][m] = std::move(gout);  // Outbox until the send.
        }
        break;
      }
      case InstrKind::kSendGradient: {
        const int s = instr.stage;
        if (!w_.grad[g_ * w_.S + (s - 1)].push(std::move(
                inbox_grad_[w_.b.slot_of_stage(s)][instr.micro]))) {
          return finish();  // Consumer gone: the wave is being aborted.
        }
        w_.wake(g_, s - 1);
        break;
      }
      case InstrKind::kFrozenForward: {
        // One bound slot per covered layer (see ProgramBinding).
        for (int layer = instr.layer_begin; layer < instr.layer_end;
             ++layer) {
          const ProgramBinding::FrozenSlot& slot =
              w_.b.steady_frozen()[dev_][frozen_seen_++];
          if (!slot.produces_cond || in_.next_cond_raw == nullptr ||
              in_.next_cond == nullptr || slot.rows.rows() == 0) {
            continue;  // Modeled compute only.
          }
          const Tensor raw = in_.next_cond_raw->slice_rows(
              in_.row_offset + slot.rows.begin,
              in_.row_offset + slot.rows.end);
          Tensor enc = w_.problem.encode_condition(raw);
          const int cols = enc.cols();
          std::copy(enc.data(), enc.data() + enc.numel(),
                    in_.next_cond->data() +
                        static_cast<std::int64_t>(in_.row_offset +
                                                  slot.rows.begin) *
                            cols);
          pool.release(std::move(enc));
        }
        break;
      }
      case InstrKind::kAllReduceGrads: {
        const int s = instr.stage;
        const auto reduce = [&] {
          // Sum replica gradients (ascending replica order) and broadcast
          // the result — micro gradients are already global-batch
          // normalized, so the sum IS the full-batch gradient.
          for (std::size_t i = 0; i < w_.stage_grads[0][s].size(); ++i) {
            Tensor avg = pool.acquire(w_.stage_grads[0][s][i]->shape());
            std::copy(w_.stage_grads[0][s][i]->data(),
                      w_.stage_grads[0][s][i]->data() + avg.numel(),
                      avg.data());
            for (int r = 1; r < w_.G; ++r) {
              add_inplace(avg, *w_.stage_grads[r][s][i]);
            }
            for (int r = 0; r < w_.G; ++r) {
              std::copy(avg.data(), avg.data() + avg.numel(),
                        w_.stage_grads[r][s][i]->data());
            }
            pool.release(std::move(avg));
          }
        };
        const int slot = w_.b.slot_of_stage(s);
        bool arrived = barrier_arrived_[slot] != 0;
        const bool first_call = !arrived;
        const ReduceBarrier::TryArrive outcome =
            w_.barriers[s]->try_arrive(arrived, reduce);
        barrier_arrived_[slot] = arrived ? 1 : 0;
        switch (outcome) {
          case ReduceBarrier::TryArrive::kReduced:
            if (first_call) {
              // This arrival ran the reduction: release the parked peers.
              for (int r = 0; r < w_.G; ++r) {
                if (r != g_) {
                  w_.wake(r, s);
                }
              }
            }
            break;
          case ReduceBarrier::TryArrive::kPending:
            return Status::kBlocked;
          case ReduceBarrier::TryArrive::kAborted:
            return finish();  // Wave aborted while waiting for peers.
        }
        break;
      }
      case InstrKind::kOptimizerStep: {
        const int s = instr.stage;
        if (!replica_.stage_adam.empty()) {
          replica_.stage_adam[s]->step(w_.stage_params[g_][s],
                                       w_.stage_grads[g_][s]);
        } else {
          replica_.sgd->step(w_.stage_params[g_][s], w_.stage_grads[g_][s]);
        }
        for (Tensor* gt : w_.stage_grads[g_][s]) {
          fill(*gt, 0.0f);
        }
        break;
      }
    }
    ++ip_;
  }
  return Status::kDone;
}

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

  // Stage ownership cover (each stage owned by exactly one device —
  // guaranteed by validate_runtime_bindable). A device's owned stages are
  // recorded in stream (slot) order; per-stage planner layer ranges come
  // from the first forward op of each stage.
  const int devices = program_.group_size;
  stages_of_device_.assign(devices, {});
  std::map<int, std::pair<int, int>> stage_layers;  // stage -> [begin, end)
  for (int dev = 0; dev < devices; ++dev) {
    for (const Instruction& instr : program_.per_device[dev]) {
      if (instr.kind != InstrKind::kForward) {
        continue;
      }
      if (stage_layers
              .emplace(instr.stage,
                       std::make_pair(instr.layer_begin, instr.layer_end))
              .second) {
        stages_of_device_[dev].push_back(instr.stage);
      }
      num_micros_ = std::max(num_micros_, instr.micro + 1);
    }
    DPIPE_ENSURE(!stages_of_device_[dev].empty(),
                 "device hosts no backbone stage");
  }
  num_stages_ = static_cast<int>(stage_layers.size());
  device_of_stage_.assign(num_stages_, -1);
  slot_of_stage_.assign(num_stages_, 0);
  for (int dev = 0; dev < devices; ++dev) {
    for (std::size_t slot = 0; slot < stages_of_device_[dev].size(); ++slot) {
      const int s = stages_of_device_[dev][slot];
      device_of_stage_[s] = dev;
      slot_of_stage_[s] = static_cast<int>(slot);
    }
  }

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

  // Resolve which frozen layer identity produces the conditioning the
  // backbone consumes. Explicit via Options, else inferred as the final
  // layer of the lowest-numbered frozen component — the encoder's output
  // layer. (A multi-layer frozen encoder runs every layer; only the last
  // one's output is the conditioning.)
  int prod_component = opts.producer_component;
  int prod_layer = opts.producer_layer;
  if (prod_component < 0) {
    std::map<std::pair<int, int>, int> identities;
    for (const std::vector<std::vector<FrozenSlot>>* slots :
         {&steady_frozen_, &preamble_frozen_}) {
      for (const std::vector<FrozenSlot>& dev_slots : *slots) {
        for (const FrozenSlot& slot : dev_slots) {
          identities[{slot.component, slot.layer}] += 1;
        }
      }
    }
    if (!identities.empty()) {
      prod_component = identities.begin()->first.first;
      for (const auto& [key, count] : identities) {
        if (key.first == prod_component) {
          prod_layer = key.second;
        }
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
  // The cheapest stage op's forward FLOPs: 2 x micro-batch rows x stage
  // parameters.
  const std::int64_t rows = binding.rows_per_replica() / binding.num_micros();
  for (int s = 0; s < binding.num_stages(); ++s) {
    std::int64_t params = 0;
    for (int i = binding.module_begin(s); i < binding.module_end(s); ++i) {
      for (const Tensor* p : backbone.module(i).params()) {
        params += p->numel();
      }
    }
    const std::int64_t flops = 2 * rows * params;
    min_stage_flops_ = s == 0 ? flops : std::min(min_stage_flops_, flops);
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
  DPIPE_REQUIRE(G >= 1, "need at least one replica");
  DPIPE_REQUIRE(static_cast<int>(inputs.size()) == G,
                "one WaveInputs per replica");
  for (const WaveInputs& in : inputs) {
    DPIPE_REQUIRE(static_cast<int>(in.micros.size()) == M,
                  "micro-batch count mismatch with the program");
    DPIPE_REQUIRE(in.cond != nullptr, "wave needs encoder outputs");
  }
  if (log != nullptr) {
    log->resize(b.program().group_size);
  }

  // Per-stage parameter/gradient slices of every replica, precomputed so
  // the allreduce reducer and the optimizer steps need no module walks.
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

  // Inter-stage channels, flat-indexed [g * S + s]: act[s] carries stage
  // s -> s+1 activations, grad[s] carries stage s+1 -> s gradients.
  std::vector<Channel<Tensor>> act(static_cast<std::size_t>(G) * S);
  std::vector<Channel<Tensor>> grad(static_cast<std::size_t>(G) * S);
  // The cross-iteration fence: kLoadMicroBatch may not start before this
  // iteration's non-trainable outputs exist. The driver arms the gate once
  // the conditioning tensor is ready (here: before the wave spawns).
  std::vector<Channel<int>> cond_gate(G);
  std::vector<std::unique_ptr<ReduceBarrier>> barriers;
  barriers.reserve(S);
  for (int s = 0; s < S; ++s) {
    barriers.push_back(std::make_unique<ReduceBarrier>(G));
  }
  for (int g = 0; g < G; ++g) {
    DPIPE_ENSURE(cond_gate[g].push(1),
                 "cond gate closed before the wave started");
  }

  const int per_micro = b.rows_per_replica() / M;
  std::vector<std::vector<Tensor>> preds(G);
  for (int g = 0; g < G; ++g) {
    preds[g].resize(M);
  }
  const int devices = b.program().group_size;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(G) *
                                         devices);

  const std::size_t num_tasks = static_cast<std::size_t>(G) * devices;
  WaveScheduler sched(num_tasks);
  const auto abort_all = [&] {
    for (Channel<Tensor>& ch : act) {
      ch.close();
    }
    for (Channel<Tensor>& ch : grad) {
      ch.close();
    }
    for (Channel<int>& ch : cond_gate) {
      ch.close();
    }
    for (const std::unique_ptr<ReduceBarrier>& barrier : barriers) {
      barrier->abort();
    }
    sched.wake_all();
  };

  TrainWave wave{b,         *problem_,  replicas,  inputs,   global_batch_,
                 iteration, fault,      log,       S,        M,
                 G,         per_micro,  stage_params, stage_grads,
                 act,       grad,       cond_gate, barriers, preds,
                 sched};
  std::vector<std::unique_ptr<DeviceExec>> tasks;
  tasks.reserve(num_tasks);
  for (int g = 0; g < G; ++g) {
    for (int dev = 0; dev < devices; ++dev) {
      tasks.push_back(std::make_unique<DeviceExec>(wave, g, dev));
    }
  }
  sched.run(wave_width(num_tasks), [&](std::size_t t) {
    try {
      return tasks[t]->run() == DeviceExec::Status::kDone;
    } catch (...) {
      errors[t] = std::current_exception();
      abort_all();
      return true;
    }
  });
  for (int dev = 0; dev < devices; ++dev) {
    for (int g = 0; g < G; ++g) {
      if (errors[static_cast<std::size_t>(g) * devices + dev] != nullptr) {
        std::rethrow_exception(
            errors[static_cast<std::size_t>(g) * devices + dev]);
      }
    }
  }

  // Loss accumulation in the reference order: a per-replica partial sum
  // (micros ascending, elements in order), partials folded in ascending
  // replica order — bit-identical to summing each replica's wave result
  // sequentially.
  TensorPool& pool = TensorPool::global();
  double sse = 0.0;
  for (int g = 0; g < G; ++g) {
    double replica_sse = 0.0;
    for (int m = 0; m < M; ++m) {
      const Tensor& p = preds[g][m];
      const Tensor& t = inputs[g].micros[m].noise;
      DPIPE_ENSURE(p.shape() == t.shape(), "pred/target shape mismatch");
      for (std::int64_t i = 0; i < p.numel(); ++i) {
        const float d = p.data()[i] - t.data()[i];
        replica_sse += static_cast<double>(d) * d;
      }
      pool.release(std::move(preds[g][m]));
    }
    sse += replica_sse;
  }
  return sse;  // Caller normalizes over the global batch.
}

namespace {

/// Resumable per-device state of one forward_wave (the no-grad
/// self-conditioning pass) — same scheduling and stage-dispatch contract
/// as DeviceExec.
class ForwardExec {
 public:
  enum class Status { kBlocked, kDone };

  ForwardExec(const ProgramBinding& b, const DdpmProblem& problem,
              const ProgramInterpreter::ReplicaState& replica,
              const ProgramInterpreter::WaveInputs& inputs, int dev, int S,
              int M, int per_micro, std::vector<Channel<Tensor>>& act,
              std::vector<Tensor>& outputs, WaveScheduler& sched)
      : b_(b),
        problem_(problem),
        replica_(replica),
        in_(inputs),
        S_(S),
        M_(M),
        per_micro_(per_micro),
        act_(act),
        outputs_(outputs),
        sched_(sched),
        stream_(b.program().per_device[dev]),
        owned_(b.stages_of_device(dev)),
        loaded_(M),
        inbox_(owned_.size(), std::vector<Tensor>(M)) {}

  Status run() {
    while (ip_ < stream_.size()) {
      const Instruction& instr = stream_[ip_];
      switch (instr.kind) {
        case InstrKind::kLoadMicroBatch: {
          const int m = instr.micro;
          const int lo = m * per_micro_;
          const Tensor cond_rows = in_.cond->slice_rows(
              in_.row_offset + lo, in_.row_offset + lo + per_micro_);
          loaded_[m] = problem_.make_input(in_.micros[m], cond_rows, nullptr);
          break;
        }
        case InstrKind::kRecvActivation: {
          const int s = instr.stage;
          Tensor recv;
          switch (act_[s - 1].try_pop(recv)) {
            case TryPop::kValue:
              inbox_[b_.slot_of_stage(s)][instr.micro] = std::move(recv);
              break;
            case TryPop::kEmpty:
              return Status::kBlocked;
            case TryPop::kClosed:
              return finish();
          }
          break;
        }
        case InstrKind::kForward: {
          const int s = instr.stage;
          const int slot = b_.slot_of_stage(s);
          const int m = instr.micro;
          Tensor x =
              s == 0 ? std::move(loaded_[m]) : std::move(inbox_[slot][m]);
          Tensor y = replica_.net->forward_range(
              std::move(x), b_.module_begin(s), b_.module_end(s));
          if (s == S_ - 1) {
            outputs_[m] = std::move(y);
          } else {
            inbox_[slot][m] = std::move(y);
          }
          break;
        }
        case InstrKind::kSendActivation: {
          const int s = instr.stage;
          if (!act_[s].push(
                  std::move(inbox_[b_.slot_of_stage(s)][instr.micro]))) {
            return finish();
          }
          sched_.wake(static_cast<std::size_t>(b_.device_of_stage(s + 1)));
          break;
        }
        default:
          break;  // No-grad pass: backward/opt/frozen ops are inert.
      }
      ++ip_;
    }
    // Discard the stashed contexts of this no-grad pass, per owned stage.
    // Reached only on natural completion (an aborted task skips it).
    for (const int s : owned_) {
      for (int m = 0; m < M_; ++m) {
        replica_.net->drop_context_range(b_.module_begin(s),
                                         b_.module_end(s));
      }
    }
    return Status::kDone;
  }

 private:
  Status finish() {
    ip_ = stream_.size() + 1;  // Past-the-end: skip the context drop too.
    return Status::kDone;
  }

  const ProgramBinding& b_;
  const DdpmProblem& problem_;
  const ProgramInterpreter::ReplicaState& replica_;
  const ProgramInterpreter::WaveInputs& in_;
  int S_;
  int M_;
  int per_micro_;
  std::vector<Channel<Tensor>>& act_;
  std::vector<Tensor>& outputs_;
  WaveScheduler& sched_;
  const std::vector<Instruction>& stream_;
  const std::vector<int>& owned_;  ///< Stages this device owns, slot order.
  std::vector<Tensor> loaded_;
  std::vector<std::vector<Tensor>> inbox_;  ///< [slot][micro].
  std::size_t ip_ = 0;
};

}  // namespace

std::vector<Tensor> ProgramInterpreter::forward_wave(
    const ReplicaState& replica, const WaveInputs& inputs) const {
  const ProgramBinding& b = *binding_;
  const int S = b.num_stages();
  const int M = b.num_micros();
  DPIPE_REQUIRE(static_cast<int>(inputs.micros.size()) == M,
                "micro-batch count mismatch with the program");
  DPIPE_REQUIRE(inputs.cond != nullptr, "wave needs encoder outputs");
  const int per_micro = b.rows_per_replica() / M;
  const int devices = b.program().group_size;
  std::vector<Channel<Tensor>> act(S);
  std::vector<Tensor> outputs(M);
  std::vector<std::exception_ptr> errors(devices);
  WaveScheduler sched(static_cast<std::size_t>(devices));
  std::vector<std::unique_ptr<ForwardExec>> tasks;
  tasks.reserve(devices);
  for (int dev = 0; dev < devices; ++dev) {
    tasks.push_back(std::make_unique<ForwardExec>(b, *problem_, replica,
                                                  inputs, dev, S, M, per_micro,
                                                  act, outputs, sched));
  }
  sched.run(wave_width(tasks.size()), [&](std::size_t t) {
    try {
      return tasks[t]->run() == ForwardExec::Status::kDone;
    } catch (...) {
      errors[t] = std::current_exception();
      for (Channel<Tensor>& ch : act) {
        ch.close();
      }
      sched.wake_all();
      return true;
    }
  });
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) {
      std::rethrow_exception(error);
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
  DPIPE_REQUIRE(spec.family == ScheduleFamily::k1F1B ||
                    spec.family == ScheduleFamily::kInterleaved,
                "trainer lowering supports the 1f1b and interleaved "
                "schedule families only");
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
