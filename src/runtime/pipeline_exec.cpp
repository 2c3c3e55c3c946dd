#include "runtime/pipeline_exec.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "common/canonical.h"

namespace dpipe::rt {

namespace {

DdpmProblem::Batch slice_batch(const DdpmProblem::Batch& batch, int lo,
                               int hi) {
  DdpmProblem::Batch out;
  out.x0 = batch.x0.slice_rows(lo, hi);
  out.cond_raw = batch.cond_raw.slice_rows(lo, hi);
  out.noise = batch.noise.slice_rows(lo, hi);
  out.t_feat = batch.t_feat.slice_rows(lo, hi);
  out.alpha_bar = batch.alpha_bar.slice_rows(lo, hi);
  return out;
}

}  // namespace

PipelineTrainer::PipelineTrainer(const DdpmProblem& problem,
                                 PipelineRtConfig config)
    : problem_(&problem), config_(config), optimizer_(config.lr) {
  DPIPE_REQUIRE(config_.num_stages >= 1, "need at least one stage");
  DPIPE_REQUIRE(config_.num_microbatches >= 1,
                "need at least one micro-batch");
  DPIPE_REQUIRE(config_.data_parallel_degree >= 1,
                "need at least one replica");
  DPIPE_REQUIRE(config_.global_batch % (config_.data_parallel_degree *
                                        config_.num_microbatches) ==
                    0,
                "global batch must divide into replicas x micro-batches");

  // Probe the runtime model's module count, then lower the configuration
  // through the planner pipeline (partition -> 1F1B schedule -> bubble
  // fill -> instruction generation) into the program this trainer runs.
  const int num_modules = problem.make_backbone()->size();
  DPIPE_REQUIRE(config_.num_stages <= num_modules,
                "more stages than modules");
  TrainerLoweringSpec spec;
  spec.num_stages = config_.num_stages;
  spec.num_microbatches = config_.num_microbatches;
  spec.data_parallel_degree = config_.data_parallel_degree;
  spec.global_batch = config_.global_batch;
  spec.cross_iteration = config_.cross_iteration;
  spec.num_modules = num_modules;
  init(problem, lower_trainer_program(spec).program);
}

PipelineTrainer::PipelineTrainer(const DdpmProblem& problem,
                                 PipelineRtConfig config,
                                 const InstructionProgram& program)
    : problem_(&problem), config_(config), optimizer_(config.lr) {
  DPIPE_REQUIRE(config_.data_parallel_degree >= 1,
                "need at least one replica");
  init(problem, program);
}

void PipelineTrainer::init(const DdpmProblem& problem,
                           const InstructionProgram& program) {
  // Recovery-consumed knobs fail here, at construction, not deep inside a
  // training wave or a restore.
  DPIPE_REQUIRE(config_.checkpoint_interval >= 0,
                "checkpoint interval must be non-negative");
  DPIPE_REQUIRE(config_.global_batch >= 1, "global batch must be positive");
  DPIPE_REQUIRE(std::isfinite(config_.lr) && config_.lr > 0.0f,
                "learning rate must be positive and finite");
  DPIPE_REQUIRE(!config_.fault.armed() || config_.fault.iteration >= 0,
                "fault-injection iteration must be non-negative");
  // One probe network determines the binding geometry; replicas share it.
  std::unique_ptr<Sequential> probe = problem.make_backbone();
  ProgramBinding::Options bind_opts;
  bind_opts.num_modules = probe->size();
  bind_opts.rows_per_replica =
      config_.global_batch / config_.data_parallel_degree;
  binding_.emplace(program, bind_opts);
  // The externally supplied program is the source of truth for the
  // pipeline geometry.
  config_.num_stages = binding_->num_stages();
  config_.num_microbatches = binding_->num_micros();
  DPIPE_REQUIRE(config_.global_batch % (config_.data_parallel_degree *
                                        config_.num_microbatches) ==
                    0,
                "global batch must divide into replicas x micro-batches");
  if (config_.fault.armed()) {
    arm_fault(config_.fault);
  }
  interpreter_.emplace(problem, *binding_, config_.global_batch, *probe);
  for (int g = 0; g < config_.data_parallel_degree; ++g) {
    Replica replica;
    replica.net = problem.make_backbone();  // Same seed: identical weights.
    if (config_.use_adam) {
      for (int s = 0; s < config_.num_stages; ++s) {
        replica.stage_adam.push_back(std::make_unique<Adam>(config_.lr));
      }
    }
    replicas_.push_back(std::move(replica));
  }
  if (config_.checkpoint_interval > 0) {
    last_checkpoint_ = checkpoint();
    has_checkpoint_ = true;
  }
}

void PipelineTrainer::arm_fault(const RtFaultInjection& fault) {
  if (fault.armed()) {
    DPIPE_REQUIRE(fault.iteration >= 0,
                  "fault-injection iteration must be non-negative");
    DPIPE_REQUIRE(fault.stage >= 0 && fault.stage < config_.num_stages,
                  "fault-injection stage out of range");
    DPIPE_REQUIRE(fault.micro >= 0 && fault.micro < config_.num_microbatches,
                  "fault-injection micro-batch out of range");
    DPIPE_REQUIRE(fault.replica >= 0 &&
                      fault.replica < config_.data_parallel_degree,
                  "fault-injection replica out of range");
  }
  config_.fault = fault;
}

std::vector<ProgramInterpreter::ReplicaState>
PipelineTrainer::replica_states() const {
  std::vector<ProgramInterpreter::ReplicaState> states;
  states.reserve(replicas_.size());
  for (const Replica& r : replicas_) {
    ProgramInterpreter::ReplicaState state;
    state.net = r.net.get();
    state.sgd = &optimizer_;
    for (const std::unique_ptr<Adam>& adam : r.stage_adam) {
      state.stage_adam.push_back(adam.get());
    }
    states.push_back(std::move(state));
  }
  return states;
}

void PipelineTrainer::train_one_iteration() {
  const int G = config_.data_parallel_degree;
  const int M = config_.num_microbatches;
  const int B = config_.global_batch;
  const int per_replica = B / G;
  const int per_micro = per_replica / M;
  const int cond_dim = problem_->config().cond_dim;
  TensorPool& pool = TensorPool::global();
  ExecutionLog* log = config_.record_execution ? &log_ : nullptr;

  const DdpmProblem::Batch batch = problem_->make_batch(iteration_, B);

  // Frozen-encoder outputs for THIS iteration: in cross-iteration mode they
  // were produced during the previous iteration's wave (kFrozenForward ops
  // in the program's bubbles) or, at iteration 0, by the program's
  // un-overlapped preamble. Off = run the preamble every iteration.
  // Identical values either way: the encoder is row-pure.
  Tensor cond;
  if (config_.cross_iteration && !pending_cond_.empty()) {
    cond = std::move(pending_cond_.front());
    pending_cond_.clear();
  } else {
    cond = pool.acquire({B, cond_dim});
    interpreter_->run_preamble(batch.cond_raw, cond, G, log);
  }

  const bool sc_active = problem_->self_cond_active(iteration_);
  const std::vector<ProgramInterpreter::ReplicaState> states =
      replica_states();

  // Cross-iteration: the wave's kFrozenForward ops encode the NEXT
  // iteration's conditioning into next_cond (disjoint row slices).
  DdpmProblem::Batch next_batch;
  Tensor next_cond;
  if (config_.cross_iteration) {
    next_batch = problem_->make_batch(iteration_ + 1, B);
    next_cond = pool.acquire({B, cond_dim});
  }

  std::vector<ProgramInterpreter::WaveInputs> wave(G);
  std::vector<Tensor> sc_preds(G);
  for (int g = 0; g < G; ++g) {
    const int lo = g * per_replica;
    const DdpmProblem::Batch shard = slice_batch(batch, lo, lo + per_replica);
    for (int m = 0; m < M; ++m) {
      wave[g].micros.push_back(
          slice_batch(shard, m * per_micro, (m + 1) * per_micro));
    }
    wave[g].cond = &cond;
    wave[g].row_offset = lo;
    if (config_.cross_iteration) {
      wave[g].next_cond_raw = &next_batch.cond_raw;
      wave[g].next_cond = &next_cond;
    }

    // Optional self-conditioning: a no-grad replay of the program's forward
    // instructions whose last-stage outputs feed back into the trainable
    // wave's inputs (Fig. 10).
    if (sc_active) {
      std::vector<Tensor> outputs =
          interpreter_->forward_wave(states[g], wave[g]);
      sc_preds[g] = pool.acquire({per_replica, problem_->config().data_dim});
      float* dst = sc_preds[g].data();
      for (Tensor& out : outputs) {
        dst = std::copy(out.data(), out.data() + out.numel(), dst);
        pool.release(std::move(out));
      }
      wave[g].self_cond = &sc_preds[g];
    }
  }

  // The trainable wave: all replicas execute the program concurrently
  // (stages x replicas tasks); allreduce + optimizer steps are
  // instructions inside it.
  const double sse =
      interpreter_->train_wave(states, wave, iteration_, config_.fault, log);
  losses_.push_back(sse /
                    (static_cast<double>(B) * problem_->config().data_dim));
  for (int g = 0; g < G; ++g) {
    if (sc_preds[g].defined()) {
      pool.release(std::move(sc_preds[g]));
    }
  }
  pool.release(std::move(cond));

  // Replicas must stay bit-identical.
  const std::vector<Tensor*> p0 = replicas_[0].net->params();
  for (int g = 1; g < G; ++g) {
    const std::vector<Tensor*> pg = replicas_[g].net->params();
    for (std::size_t i = 0; i < p0.size(); ++i) {
      replica_divergence_ =
          std::max(replica_divergence_, max_abs_diff(*p0[i], *pg[i]));
    }
  }

  if (config_.cross_iteration) {
    pending_cond_.push_back(std::move(next_cond));
  }
  ++iteration_;
}

void PipelineTrainer::train(int iterations) {
  DPIPE_REQUIRE(!failed_,
                "trainer poisoned by a stage failure; restore() a "
                "checkpoint before resuming");
  for (int k = 0; k < iterations; ++k) {
    try {
      train_one_iteration();
    } catch (...) {
      // The wave has finished all its tasks; scrub the partial gradients
      // and stashed contexts so destruction (or restore) is clean.
      failed_ = true;
      reset_transient_state();
      throw;
    }
    if (config_.checkpoint_interval > 0 &&
        iteration_ % config_.checkpoint_interval == 0) {
      last_checkpoint_ = checkpoint();
      has_checkpoint_ = true;
    }
  }
}

TrainerCheckpoint PipelineTrainer::make_checkpoint() const {
  TrainerCheckpoint ckpt;
  ckpt.iteration = iteration_;
  ckpt.global_batch = config_.global_batch;
  ckpt.data_parallel_degree = config_.data_parallel_degree;
  ckpt.losses = losses_;
  ckpt.has_adam = config_.use_adam;
  const Replica& r0 = replicas_[0];  // Canonical: replicas are identical.
  for (int s = 0; s < config_.num_stages; ++s) {
    TrainerCheckpoint::StageShard shard;
    shard.module_begin = binding_->module_begin(s);
    shard.module_end = binding_->module_end(s);
    for (int i = shard.module_begin; i < shard.module_end; ++i) {
      std::vector<Tensor> module_params;
      for (Tensor* p : r0.net->module(i).params()) {
        module_params.push_back(*p);
      }
      shard.params.push_back(std::move(module_params));
    }
    if (config_.use_adam) {
      // Split the stage Adam's flat moment lists (module order within the
      // stage) back into per-module groups, so shards carry everything a
      // reshard needs to regroup at module granularity.
      const Adam::State state = r0.stage_adam[s]->state();
      if (s == 0) {
        ckpt.adam_t = state.t;
      } else {
        DPIPE_ENSURE(state.t == ckpt.adam_t,
                     "per-stage Adam step counters diverged");
      }
      if (!state.m.empty()) {
        std::size_t offset = 0;
        for (int i = shard.module_begin; i < shard.module_end; ++i) {
          const std::size_t count = r0.net->module(i).params().size();
          DPIPE_ENSURE(offset + count <= state.m.size(),
                       "stage Adam moment count mismatch");
          shard.adam_m.emplace_back(state.m.begin() + offset,
                                    state.m.begin() + offset + count);
          shard.adam_v.emplace_back(state.v.begin() + offset,
                                    state.v.begin() + offset + count);
          offset += count;
        }
        DPIPE_ENSURE(offset == state.m.size(),
                     "stage Adam moment count mismatch");
      }
    }
    ckpt.shards.push_back(std::move(shard));
  }
  ckpt.pending_cond = pending_cond_;
  ckpt.replica_divergence = replica_divergence_;
  return ckpt;
}

TrainerCheckpoint PipelineTrainer::checkpoint() const {
  DPIPE_REQUIRE(!failed_, "cannot checkpoint a failed trainer");
  return make_checkpoint();
}

TrainerCheckpoint PipelineTrainer::salvage_checkpoint() const {
  DPIPE_REQUIRE(failed_,
                "salvage_checkpoint() is for failed trainers; use "
                "checkpoint() on a healthy one");
  // See the header: the aborted iteration cannot have stepped any
  // optimizer, train() already scrubbed partial gradients/contexts, and
  // losses_/iteration_ only advance on completion — so the trainer's
  // durable state IS the last boundary's. The consumed pending_cond was
  // dropped; restore() + the preamble regenerate it bit-identically.
  return make_checkpoint();
}

void PipelineTrainer::restore(const TrainerCheckpoint& ckpt) {
  DPIPE_REQUIRE(ckpt.has_adam == config_.use_adam,
                "checkpoint optimizer kind mismatch");
  DPIPE_REQUIRE(ckpt.global_batch == config_.global_batch,
                "checkpoint global batch mismatch");
  DPIPE_REQUIRE(ckpt.data_parallel_degree == config_.data_parallel_degree,
                "checkpoint dp width mismatch; reshard_checkpoint() first");
  DPIPE_REQUIRE(ckpt.module_cut() == binding_->module_cut(),
                "checkpoint stage geometry mismatch; reshard_checkpoint() "
                "first");
  reset_transient_state();
  for (Replica& r : replicas_) {
    for (int s = 0; s < config_.num_stages; ++s) {
      const TrainerCheckpoint::StageShard& shard = ckpt.shards[s];
      const bool has_moments = !shard.adam_m.empty();
      Adam::State stage;
      stage.t = ckpt.adam_t;
      for (int i = shard.module_begin; i < shard.module_end; ++i) {
        const std::size_t local = i - shard.module_begin;
        const std::vector<Tensor>& saved = shard.params[local];
        const std::vector<Tensor*> params = r.net->module(i).params();
        DPIPE_REQUIRE(params.size() == saved.size(),
                      "checkpoint parameter count mismatch");
        for (std::size_t k = 0; k < params.size(); ++k) {
          DPIPE_REQUIRE(params[k]->shape() == saved[k].shape(),
                        "checkpoint parameter shape mismatch");
          *params[k] = saved[k];
        }
        if (config_.use_adam && has_moments) {
          DPIPE_REQUIRE(shard.adam_m[local].size() == saved.size() &&
                            shard.adam_v[local].size() == saved.size(),
                        "checkpoint Adam state size mismatch");
          for (const Tensor& m : shard.adam_m[local]) {
            stage.m.push_back(m);
          }
          for (const Tensor& v : shard.adam_v[local]) {
            stage.v.push_back(v);
          }
        }
      }
      if (config_.use_adam) {
        r.stage_adam[s]->load_state(stage);
      }
    }
  }
  losses_ = ckpt.losses;
  pending_cond_ = ckpt.pending_cond;
  iteration_ = ckpt.iteration;
  replica_divergence_ = ckpt.replica_divergence;
  failed_ = false;
}

const TrainerCheckpoint& PipelineTrainer::last_checkpoint() const {
  DPIPE_REQUIRE(has_checkpoint_,
                "no checkpoint taken; set checkpoint_interval > 0");
  return last_checkpoint_;
}

void PipelineTrainer::reset_transient_state() {
  for (Replica& r : replicas_) {
    while (r.net->pending_contexts() > 0) {
      r.net->drop_context();
    }
    r.net->zero_grad();
  }
}

std::vector<Tensor> PipelineTrainer::snapshot_params() const {
  std::vector<Tensor> out;
  for (Tensor* p : const_cast<Sequential&>(*replicas_[0].net).params()) {
    out.push_back(*p);
  }
  return out;
}

std::vector<int> TrainerCheckpoint::module_cut() const {
  std::vector<int> cut;
  cut.push_back(shards.empty() ? 0 : shards.front().module_begin);
  for (const StageShard& shard : shards) {
    cut.push_back(shard.module_end);
  }
  return cut;
}

std::vector<Tensor> TrainerCheckpoint::flat_params() const {
  std::vector<Tensor> out;
  for (const StageShard& shard : shards) {
    for (const std::vector<Tensor>& module_params : shard.params) {
      for (const Tensor& p : module_params) {
        out.push_back(p);
      }
    }
  }
  return out;
}

namespace {

/// Validates a checkpoint's shards as a contiguous module cover and
/// returns the module count. Also checks moment lists parallel the
/// parameter lists (or are absent) consistently across shards.
int checked_module_count(const TrainerCheckpoint& ckpt) {
  DPIPE_REQUIRE(!ckpt.shards.empty(), "checkpoint has no shards");
  DPIPE_REQUIRE(ckpt.shards.front().module_begin == 0,
                "checkpoint shards must start at module 0");
  const bool has_moments = !ckpt.shards.front().adam_m.empty();
  int expected_begin = 0;
  for (const TrainerCheckpoint::StageShard& shard : ckpt.shards) {
    DPIPE_REQUIRE(shard.module_begin == expected_begin,
                  "checkpoint shards must cover modules contiguously");
    DPIPE_REQUIRE(shard.module_end > shard.module_begin,
                  "checkpoint shard has an empty module range");
    const std::size_t range = shard.module_end - shard.module_begin;
    DPIPE_REQUIRE(shard.params.size() == range,
                  "checkpoint shard module list length mismatch");
    DPIPE_REQUIRE((shard.adam_m.empty() && shard.adam_v.empty()) ||
                      (shard.adam_m.size() == range &&
                       shard.adam_v.size() == range),
                  "checkpoint shard Adam moment list length mismatch");
    DPIPE_REQUIRE(shard.adam_m.empty() == !has_moments,
                  "checkpoint shards disagree about Adam moments");
    for (std::size_t i = 0; i < shard.adam_m.size(); ++i) {
      DPIPE_REQUIRE(shard.adam_m[i].size() == shard.params[i].size() &&
                        shard.adam_v[i].size() == shard.params[i].size(),
                    "checkpoint Adam moments must parallel parameters");
    }
    expected_begin = shard.module_end;
  }
  return expected_begin;
}

}  // namespace

TrainerCheckpoint reshard_checkpoint(const TrainerCheckpoint& ckpt,
                                     const std::vector<int>& new_module_cut,
                                     int new_dp, ReshardReport* report) {
  const int num_modules = checked_module_count(ckpt);
  DPIPE_REQUIRE(new_module_cut.size() >= 2,
                "new module cut needs at least one stage");
  DPIPE_REQUIRE(new_module_cut.front() == 0 &&
                    new_module_cut.back() == num_modules,
                "new module cut must cover exactly the checkpoint's "
                "modules");
  for (std::size_t s = 0; s + 1 < new_module_cut.size(); ++s) {
    DPIPE_REQUIRE(new_module_cut[s] < new_module_cut[s + 1],
                  "new module cut must be strictly increasing");
  }
  DPIPE_REQUIRE(new_dp >= 1, "dp width must be positive");
  DPIPE_REQUIRE(ckpt.global_batch % new_dp == 0,
                "dp width must divide the global batch");

  // Module-major flatten of the old cover: owner stage + local index.
  std::vector<int> old_owner(num_modules);
  for (std::size_t s = 0; s < ckpt.shards.size(); ++s) {
    for (int i = ckpt.shards[s].module_begin; i < ckpt.shards[s].module_end;
         ++i) {
      old_owner[i] = static_cast<int>(s);
    }
  }

  TrainerCheckpoint out;
  out.iteration = ckpt.iteration;
  out.global_batch = ckpt.global_batch;
  out.data_parallel_degree = new_dp;
  out.losses = ckpt.losses;
  out.has_adam = ckpt.has_adam;
  out.adam_t = ckpt.adam_t;
  out.pending_cond = ckpt.pending_cond;
  out.replica_divergence = ckpt.replica_divergence;

  ReshardReport rep;
  rep.old_stages = static_cast<int>(ckpt.shards.size());
  rep.new_stages = static_cast<int>(new_module_cut.size()) - 1;
  rep.old_dp = ckpt.data_parallel_degree;
  rep.new_dp = new_dp;
  const bool has_moments = !ckpt.shards.front().adam_m.empty();
  for (int s = 0; s + 1 < static_cast<int>(new_module_cut.size()); ++s) {
    TrainerCheckpoint::StageShard shard;
    shard.module_begin = new_module_cut[s];
    shard.module_end = new_module_cut[s + 1];
    for (int i = shard.module_begin; i < shard.module_end; ++i) {
      const TrainerCheckpoint::StageShard& src = ckpt.shards[old_owner[i]];
      const std::size_t local = i - src.module_begin;
      const int tensors_per_module =
          static_cast<int>(src.params[local].size()) * (has_moments ? 3 : 1);
      rep.total_tensors += tensors_per_module;
      if (old_owner[i] != s) {
        rep.moved_tensors += tensors_per_module;
      }
      shard.params.push_back(src.params[local]);
      if (has_moments) {
        shard.adam_m.push_back(src.adam_m[local]);
        shard.adam_v.push_back(src.adam_v[local]);
      }
    }
    out.shards.push_back(std::move(shard));
  }
  if (report != nullptr) {
    *report = rep;
  }
  return out;
}

namespace {

// ---- "dpipe-checkpoint v1": token-based text format, like serialize.h's
// program format, but with float/double payloads as hex bit patterns so a
// round-trip is byte-exact and a loaded checkpoint resumes the exact
// trajectory.

void write_tensor(CanonicalWriter& out, const Tensor& t) {
  out << "tensor " << t.shape().size();
  for (const int d : t.shape()) {
    out << ' ' << d;
  }
  out << '\n';
  const float* data = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    out.hex(std::bit_cast<std::uint32_t>(data[i]))
        << (i + 1 == t.numel() ? '\n' : ' ');
  }
  if (t.numel() == 0) {
    out << '\n';
  }
}

Tensor read_tensor(CanonicalReader& in) {
  in.keyword("tensor");
  const int ndim = in.integer<int>("tensor rank");
  DPIPE_REQUIRE(ndim >= 0 && ndim <= 4, "checkpoint tensor rank invalid");
  std::vector<int> shape(ndim);
  std::int64_t numel = 1;
  for (int d = 0; d < ndim; ++d) {
    shape[d] = in.integer<int>("tensor dim");
    DPIPE_REQUIRE(shape[d] >= 0, "checkpoint tensor dim invalid");
    DPIPE_REQUIRE(!__builtin_mul_overflow(numel, shape[d], &numel),
                  "checkpoint tensor element count overflows");
  }
  // Each payload element takes at least two bytes (a hex digit and a
  // separator), so the header alone cannot size the allocation: a shape
  // the remaining bytes cannot back fails as truncated before any storage
  // is reserved.
  DPIPE_REQUIRE(static_cast<std::uint64_t>(numel) <= in.rest().size() / 2,
                "checkpoint truncated: tensor payload");
  FloatStorage data(static_cast<std::size_t>(numel));
  for (float& value : data) {
    value = std::bit_cast<float>(in.hex<std::uint32_t>("tensor payload"));
  }
  return Tensor::from_storage(std::move(shape), std::move(data));
}

void write_tensor_list(CanonicalWriter& out, const std::vector<Tensor>& list) {
  out << list.size() << '\n';
  for (const Tensor& t : list) {
    write_tensor(out, t);
  }
}

std::vector<Tensor> read_tensor_list(CanonicalReader& in) {
  const auto n = in.integer<std::size_t>("tensor list length");
  DPIPE_REQUIRE(n <= 1u << 20, "checkpoint tensor list length invalid");
  std::vector<Tensor> list;
  for (std::size_t i = 0; i < n; ++i) {
    list.push_back(read_tensor(in));
  }
  return list;
}

/// The whole of `in`. The buffer is sized up front by what the stream
/// says it holds (all of it for a string stream), then filled in chunks.
std::string read_stream(std::istream& in) {
  std::string bytes;
  bytes.reserve(static_cast<std::size_t>(
      std::max<std::streamsize>(0, in.rdbuf()->in_avail())));
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    bytes.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return bytes;
}

}  // namespace

void save_checkpoint(std::ostream& out, const TrainerCheckpoint& ckpt) {
  checked_module_count(ckpt);
  const auto require_defined = [](const std::vector<Tensor>& list) {
    for (const Tensor& t : list) {
      DPIPE_REQUIRE(t.defined(), "checkpoint holds an undefined tensor");
    }
  };
  require_defined(ckpt.pending_cond);
  for (const TrainerCheckpoint::StageShard& shard : ckpt.shards) {
    for (const std::vector<std::vector<Tensor>>* lists :
         {&shard.params, &shard.adam_m, &shard.adam_v}) {
      for (const std::vector<Tensor>& list : *lists) {
        require_defined(list);
      }
    }
  }
  CanonicalWriter text;
  text << "dpipe-checkpoint v1\n";
  text << "iteration " << ckpt.iteration << '\n';
  text << "global_batch " << ckpt.global_batch << '\n';
  text << "data_parallel_degree " << ckpt.data_parallel_degree << '\n';
  text << "replica_divergence ";
  text.hex(std::bit_cast<std::uint32_t>(ckpt.replica_divergence))
      << '\n';
  text << "losses " << ckpt.losses.size() << '\n';
  for (std::size_t i = 0; i < ckpt.losses.size(); ++i) {
    text.hex(std::bit_cast<std::uint64_t>(ckpt.losses[i]))
        << (i + 1 == ckpt.losses.size() ? '\n' : ' ');
  }
  text << "adam " << (ckpt.has_adam ? 1 : 0) << " t " << ckpt.adam_t << '\n';
  text << "pending_cond ";
  write_tensor_list(text, ckpt.pending_cond);
  text << "shards " << ckpt.shards.size() << '\n';
  for (const TrainerCheckpoint::StageShard& shard : ckpt.shards) {
    text << "shard " << shard.module_begin << ' ' << shard.module_end << ' '
         << (shard.adam_m.empty() ? 0 : 1) << '\n';
    for (std::size_t i = 0; i < shard.params.size(); ++i) {
      text << "module ";
      write_tensor_list(text, shard.params[i]);
      if (!shard.adam_m.empty()) {
        text << "adam_m ";
        write_tensor_list(text, shard.adam_m[i]);
        text << "adam_v ";
        write_tensor_list(text, shard.adam_v[i]);
      }
    }
  }
  text << "end\n";
  const std::string bytes = text.take();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  DPIPE_ENSURE(static_cast<bool>(out), "checkpoint write failed");
}

TrainerCheckpoint load_checkpoint(std::istream& in) {
  const std::string bytes = read_stream(in);
  CanonicalReader text(bytes);
  text.keyword("dpipe-checkpoint");
  text.keyword("v1");
  TrainerCheckpoint ckpt;
  text.keyword("iteration");
  ckpt.iteration = text.integer<int>("iteration");
  text.keyword("global_batch");
  ckpt.global_batch = text.integer<int>("global batch");
  text.keyword("data_parallel_degree");
  ckpt.data_parallel_degree = text.integer<int>("dp degree");
  text.keyword("replica_divergence");
  ckpt.replica_divergence =
      std::bit_cast<float>(text.hex<std::uint32_t>("replica divergence"));
  text.keyword("losses");
  const auto num_losses = text.integer<std::size_t>("loss count");
  DPIPE_REQUIRE(num_losses <= 1u << 24, "checkpoint loss count invalid");
  for (std::size_t i = 0; i < num_losses; ++i) {
    ckpt.losses.push_back(
        std::bit_cast<double>(text.hex<std::uint64_t>("loss")));
  }
  text.keyword("adam");
  ckpt.has_adam = text.integer<int>("adam flag") != 0;
  text.keyword("t");
  ckpt.adam_t = text.integer<int>("adam step count");
  text.keyword("pending_cond");
  ckpt.pending_cond = read_tensor_list(text);
  text.keyword("shards");
  const auto num_shards = text.integer<std::size_t>("shard count");
  DPIPE_REQUIRE(num_shards >= 1 && num_shards <= 4096,
                "checkpoint shard count invalid");
  for (std::size_t s = 0; s < num_shards; ++s) {
    text.keyword("shard");
    TrainerCheckpoint::StageShard shard;
    shard.module_begin = text.integer<int>("shard begin");
    shard.module_end = text.integer<int>("shard end");
    const bool has_moments = text.integer<int>("shard moment flag") != 0;
    DPIPE_REQUIRE(shard.module_end > shard.module_begin,
                  "checkpoint shard range invalid");
    for (int i = shard.module_begin; i < shard.module_end; ++i) {
      text.keyword("module");
      shard.params.push_back(read_tensor_list(text));
      if (has_moments) {
        text.keyword("adam_m");
        shard.adam_m.push_back(read_tensor_list(text));
        text.keyword("adam_v");
        shard.adam_v.push_back(read_tensor_list(text));
      }
    }
    ckpt.shards.push_back(std::move(shard));
  }
  text.keyword("end");
  checked_module_count(ckpt);
  return ckpt;
}

}  // namespace dpipe::rt
