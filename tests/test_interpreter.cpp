// One program, two backends: the functional runtime and the discrete-event
// engine both interpret the trainer's builder-generated InstructionProgram.
// These tests pin the contract: identical per-device op order on both
// back-ends (and in the program's static occupancy trace), and training
// trajectories that match the full-batch reference regardless of which
// ctor supplied the program.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/parallel.h"
#include "core/instr/serialize.h"
#include "core/instr/validate.h"
#include "engine/engine.h"
#include "runtime/dp_trainer.h"
#include "runtime/interpreter.h"
#include "runtime/kernels.h"
#include "runtime/pipeline_exec.h"

namespace dpipe::rt {
namespace {

float params_diff(const std::vector<Tensor>& a,
                  const std::vector<Tensor>& b) {
  EXPECT_EQ(a.size(), b.size());
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, max_abs_diff(a[i], b[i]));
  }
  return worst;
}

/// The engine's execution log of `iterations` replays of `program`, costed
/// against `model` on one p4de machine.
ExecutionLog engine_log(const ModelDesc& model,
                        const InstructionProgram& program, int iterations,
                        double group_batch, int dp) {
  const ClusterSpec cluster = make_p4de_cluster(1);
  const CommModel comm(cluster);
  const ProfileDb db(model,
                     AnalyticCostModel(cluster.device, NoiseSource(1, 0.0)),
                     default_batch_grid());
  EngineOptions eopts;
  eopts.iterations = iterations;
  eopts.group_batch = group_batch;
  eopts.data_parallel_degree = dp;
  eopts.record_timelines = true;
  return ExecutionEngine(db, comm).run(program, eopts).execution_log;
}

TEST(Parity, RuntimeExecutionMatchesOccupancyTrace) {
  // With and without self-conditioning (its extra forward passes are
  // outside the program), the interpreter's executed op order per device
  // is exactly the program's static occupancy trace.
  for (const bool self_cond : {false, true}) {
    DdpmConfig dcfg;
    dcfg.self_conditioning = self_cond;
    dcfg.self_cond_prob = 0.5;
    const DdpmProblem problem(dcfg);
    PipelineRtConfig cfg;
    cfg.num_stages = 3;
    cfg.num_microbatches = 4;
    cfg.data_parallel_degree = 2;
    cfg.global_batch = 24;
    cfg.cross_iteration = true;
    cfg.record_execution = true;
    PipelineTrainer trainer(problem, cfg);
    trainer.train(3);
    const auto expected = occupancy_trace(trainer.program(), 3);
    ASSERT_EQ(trainer.execution_log().size(), expected.size());
    for (std::size_t dev = 0; dev < expected.size(); ++dev) {
      ASSERT_GT(expected[dev].size(), 0u);
      EXPECT_EQ(trainer.execution_log()[dev], expected[dev])
          << "device " << dev << " self_cond=" << self_cond;
    }
  }
}

TEST(Parity, SimEngineReplaysTheTrainerProgramInTheSameOrder) {
  // The other half of "one program, two backends": feed the trainer's
  // lowered program to the discrete-event engine and compare its execution
  // log against the same occupancy trace the runtime matched.
  TrainerLoweringSpec spec;
  spec.num_stages = 3;
  spec.num_microbatches = 4;
  spec.data_parallel_degree = 2;
  spec.global_batch = 24;
  spec.cross_iteration = true;
  spec.num_modules = 9;
  const TrainerLowering l = lower_trainer_program(spec);

  // Each of the 2 groups replays its 12-row share of the global batch.
  EXPECT_EQ(engine_log(l.model, l.program, 3, 12.0, 2),
            occupancy_trace(l.program, 3));
}

TEST(Interpreter, ExternalProgramReproducesSelfLoweredTrajectory) {
  // Handing the trainer the very program it would lower itself (the
  // .dpipe hand-off path) must not perturb the trajectory in any bit.
  const DdpmProblem problem(DdpmConfig{});
  PipelineRtConfig cfg;
  cfg.num_stages = 3;
  cfg.num_microbatches = 2;
  cfg.data_parallel_degree = 2;
  cfg.global_batch = 24;
  cfg.use_adam = true;
  cfg.lr = 0.01f;

  TrainerLoweringSpec spec;
  spec.num_stages = cfg.num_stages;
  spec.num_microbatches = cfg.num_microbatches;
  spec.data_parallel_degree = cfg.data_parallel_degree;
  spec.global_batch = cfg.global_batch;
  spec.cross_iteration = cfg.cross_iteration;
  spec.num_modules = problem.make_backbone()->size();
  const TrainerLowering l = lower_trainer_program(spec);

  PipelineTrainer self_lowered(problem, cfg);
  PipelineTrainer external(problem, cfg, l.program);
  self_lowered.train(10);
  external.train(10);
  EXPECT_FLOAT_EQ(params_diff(self_lowered.snapshot_params(),
                              external.snapshot_params()),
                  0.0f);
  ASSERT_EQ(self_lowered.losses().size(), external.losses().size());
  for (std::size_t i = 0; i < self_lowered.losses().size(); ++i) {
    EXPECT_DOUBLE_EQ(self_lowered.losses()[i], external.losses()[i]);
  }
}

TEST(Interpreter, TrajectoryMatchesFullBatchReference) {
  // Program-driven execution preserves the runtime's core theorem: the
  // pipelined trajectory equals full-batch training, for both optimizers
  // and both frozen-part modes.
  const DdpmProblem problem(DdpmConfig{});
  for (const bool adam : {false, true}) {
    const float lr = adam ? 0.01f : 0.05f;
    ReferenceTrainer ref(problem, 24, lr, adam);
    ref.train(10);
    for (const bool cross : {false, true}) {
      PipelineRtConfig cfg;
      cfg.num_stages = 3;
      cfg.num_microbatches = 2;
      cfg.data_parallel_degree = 2;
      cfg.global_batch = 24;
      cfg.cross_iteration = cross;
      cfg.use_adam = adam;
      cfg.lr = lr;
      PipelineTrainer trainer(problem, cfg);
      trainer.train(10);
      EXPECT_LT(params_diff(ref.snapshot_params(), trainer.snapshot_params()),
                2e-4f)
          << "adam=" << adam << " cross=" << cross;
      EXPECT_FLOAT_EQ(trainer.replica_divergence(), 0.0f);
    }
  }
}

TEST(Interpreter, CrossIterationBitExactWithAdam) {
  // §3.2 equivalence survives both the program-driven rewrite and a
  // stateful optimizer: cross-iteration on/off trajectories are identical
  // bit for bit.
  const DdpmProblem problem(DdpmConfig{});
  PipelineRtConfig cross;
  cross.num_stages = 3;
  cross.num_microbatches = 4;
  cross.global_batch = 16;
  cross.cross_iteration = true;
  cross.use_adam = true;
  cross.lr = 0.01f;
  PipelineRtConfig same = cross;
  same.cross_iteration = false;
  PipelineTrainer a(problem, cross);
  PipelineTrainer b(problem, same);
  a.train(12);
  b.train(12);
  EXPECT_FLOAT_EQ(params_diff(a.snapshot_params(), b.snapshot_params()),
                  0.0f);
  for (std::size_t i = 0; i < a.losses().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.losses()[i], b.losses()[i]);
  }
}

// --- Wave width: executor widths 1/2/4 x below/above kParallelCostThreshold

/// Restores the executor's default width on scope exit.
struct ExecutorWidthGuard {
  ~ExecutorWidthGuard() { set_kernel_threads(0); }
};

/// The width-parity configuration: self-conditioning (forward waves), data
/// parallelism (allreduce barriers), Adam and cross-iteration frozen
/// overlap all active. `wide` selects a shape whose cheapest stage op is
/// above kParallelCostThreshold (hidden 128, 32 rows per micro-batch), so
/// waves fan out over the executor; otherwise the default DdpmConfig keeps
/// every wave cooperative on the calling thread.
struct WidthCase {
  DdpmConfig ddpm;
  PipelineRtConfig cfg;

  explicit WidthCase(bool wide) {
    ddpm.self_conditioning = true;
    ddpm.self_cond_prob = 0.5;
    cfg.data_parallel_degree = 2;
    cfg.cross_iteration = true;
    cfg.use_adam = true;
    cfg.lr = 0.01f;
    cfg.record_execution = true;
    if (wide) {
      ddpm.hidden = 128;
      cfg.num_stages = 2;
      cfg.num_microbatches = 2;
      cfg.global_batch = 128;  // 32 rows per micro-batch.
    } else {
      cfg.num_stages = 3;
      cfg.num_microbatches = 4;
      cfg.global_batch = 16;
    }
  }
};

void expect_bit_exact_across_widths(bool wide, int iterations) {
  ExecutorWidthGuard guard;
  const WidthCase c(wide);
  const DdpmProblem problem(c.ddpm);
  std::vector<std::vector<Tensor>> params;
  std::vector<std::vector<double>> losses;
  std::vector<ExecutionLog> logs;
  const std::vector<int> widths = {1, 2, 4};
  for (const int width : widths) {
    set_kernel_threads(width);
    EXPECT_EQ(wave_exec(),
              width == 1 ? WaveExec::kSerial : WaveExec::kThreads);
    PipelineTrainer trainer(problem, c.cfg);
    trainer.train(iterations);
    params.push_back(trainer.snapshot_params());
    losses.push_back(trainer.losses());
    logs.push_back(trainer.execution_log());
  }
  for (std::size_t w = 1; w < widths.size(); ++w) {
    EXPECT_FLOAT_EQ(params_diff(params[0], params[w]), 0.0f)
        << "width " << widths[w];
    ASSERT_EQ(losses[0].size(), losses[w].size());
    for (std::size_t i = 0; i < losses[0].size(); ++i) {
      EXPECT_DOUBLE_EQ(losses[0][i], losses[w][i]) << "width " << widths[w];
    }
    EXPECT_EQ(logs[0], logs[w]) << "width " << widths[w];
  }
}

TEST(WaveWidth, BelowThresholdBitExactAcrossWidths) {
  expect_bit_exact_across_widths(/*wide=*/false, 8);
}

TEST(WaveWidth, AboveThresholdBitExactAcrossWidths) {
  expect_bit_exact_across_widths(/*wide=*/true, 4);
}

TEST(WaveWidth, StageFailureAtWidthFourAbortsTheWave) {
  // Waves of the wide shape fan out over four executor threads. A forward
  // that throws mid-wave must abort it: participants waiting on a
  // predecessor are woken, no op whose predecessors never finished runs,
  // and the failure escapes train() instead of wedging the executor. The
  // executor stays usable afterwards.
  ExecutorWidthGuard guard;
  set_kernel_threads(4);
  WidthCase c(/*wide=*/true);
  c.cfg.fault.iteration = 1;
  c.cfg.fault.stage = 1;
  c.cfg.fault.micro = 1;
  c.cfg.fault.replica = 1;
  const DdpmProblem problem(c.ddpm);
  PipelineTrainer trainer(problem, c.cfg);
  EXPECT_THROW(trainer.train(3), StageFailure);
  EXPECT_TRUE(trainer.failed());
  c.cfg.fault = RtFaultInjection{};
  PipelineTrainer healthy(problem, c.cfg);
  healthy.train(2);
  EXPECT_EQ(healthy.losses().size(), 2u);
}

TEST(WaveWidth, NestedWaveWithNoIdleWorkers) {
  // A trainer driven from inside a full-width fork-join: its waves find
  // every worker busy, so only the calling thread joins them and it runs
  // each wave's whole order alone. A node only waits on nodes earlier in
  // the order, so this cannot deadlock, and the bits match width 1.
  ExecutorWidthGuard guard;
  const WidthCase c(/*wide=*/true);
  const DdpmProblem problem(c.ddpm);
  const int iterations = 3;
  set_kernel_threads(1);
  PipelineTrainer reference(problem, c.cfg);
  reference.train(iterations);

  set_kernel_threads(4);  // Fresh workers: all three idle at the next call.
  std::unique_ptr<PipelineTrainer> nested;
  std::atomic<bool> trained{false};
  struct Release {
    std::atomic<bool>& flag;
    ~Release() {
      flag.store(true);
      flag.notify_all();
    }
  };
  parallel_for(4, 4, [&](std::size_t i) {
    if (i != 0) {
      // Index 0 is always claimed first; hold this thread until it is done
      // so no worker is idle while the trainer runs.
      trained.wait(false);
      return;
    }
    const Release release{trained};
    nested = std::make_unique<PipelineTrainer>(problem, c.cfg);
    nested->train(iterations);
  });
  ASSERT_NE(nested, nullptr);
  EXPECT_FLOAT_EQ(
      params_diff(reference.snapshot_params(), nested->snapshot_params()),
      0.0f);
  ASSERT_EQ(reference.losses().size(), nested->losses().size());
  for (std::size_t i = 0; i < reference.losses().size(); ++i) {
    EXPECT_DOUBLE_EQ(reference.losses()[i], nested->losses()[i]) << i;
  }
  EXPECT_EQ(reference.execution_log(), nested->execution_log());
}

TEST(Interpreter, RejectsCorruptedPrograms) {
  const DdpmProblem problem(DdpmConfig{});
  TrainerLoweringSpec spec;
  spec.num_stages = 2;
  spec.num_microbatches = 2;
  spec.global_batch = 8;
  spec.num_modules = problem.make_backbone()->size();
  const TrainerLowering l = lower_trainer_program(spec);
  PipelineRtConfig cfg;
  cfg.global_batch = 8;

  {
    // Dropping a device's optimizer step fails validation outright.
    InstructionProgram bad = l.program;
    for (std::vector<Instruction>& stream : bad.per_device) {
      stream.erase(std::remove_if(stream.begin(), stream.end(),
                                  [](const Instruction& i) {
                                    return i.kind ==
                                           InstrKind::kOptimizerStep;
                                  }),
                   stream.end());
      break;
    }
    EXPECT_THROW(PipelineTrainer(problem, cfg, bad), std::invalid_argument);
  }
  {
    // Swapping two devices' streams without re-pointing their peers turns
    // every boundary transfer into a self-send/self-receive mismatch.
    InstructionProgram bad = l.program;
    std::swap(bad.per_device[0], bad.per_device[1]);
    EXPECT_THROW(PipelineTrainer(problem, cfg, bad), std::invalid_argument);
  }
}

TEST(Interpreter, GpipeLoweringIsPinnedAndNotBindable) {
  // GPipe lowers through the same trainer lowering as 1F1B, without
  // cross-iteration filling (it is the baseline that fills nothing, §6).
  // The program is pinned bit for bit; binding rejects its LIFO backward
  // order, which the FIFO autograd stashes cannot replay.
  const DdpmProblem problem(DdpmConfig{});
  TrainerLoweringSpec spec;
  spec.num_stages = 2;
  spec.num_microbatches = 4;
  spec.global_batch = 8;
  spec.cross_iteration = false;
  spec.num_modules = 9;
  spec.family = ScheduleFamily::kGpipe;
  ASSERT_EQ(static_cast<int>(problem.make_backbone()->size()),
            spec.num_modules);
  const TrainerLowering l = lower_trainer_program(spec);
  const std::string text = program_to_string(l.program);
  EXPECT_EQ(text.size(), 2301u);
  EXPECT_EQ(fingerprint_bytes(text).hex(), "32c8f46cfa0a275afb409e9bcbd31064");
  const ProgramValidator validator;
  EXPECT_TRUE(validator.validate(l.program).ok());
  EXPECT_FALSE(validator.validate_runtime_bindable(l.program).ok());
  PipelineRtConfig cfg;
  cfg.global_batch = 8;
  cfg.cross_iteration = false;
  EXPECT_THROW(PipelineTrainer(problem, cfg, l.program),
               std::invalid_argument);
  spec.family = ScheduleFamily::kBidirectional;
  EXPECT_THROW((void)lower_trainer_program(spec), std::invalid_argument);
}

TEST(Interpreter, RejectsStreamsThatWaitInACycle) {
  // Device 0 sends its activation only after receiving the gradient,
  // which needs that activation's forward on device 1 first: the streams
  // wait on each other, so no wave order exists. With one micro-batch every
  // per-channel order check passes, and the wave order's cycle check
  // rejects the program while the trainer is built, never inside train().
  const DdpmProblem problem(DdpmConfig{});
  TrainerLoweringSpec spec;
  spec.num_stages = 2;
  spec.num_microbatches = 1;
  spec.global_batch = 8;
  spec.num_modules = problem.make_backbone()->size();
  InstructionProgram bad = lower_trainer_program(spec).program;
  std::vector<Instruction>& stream = bad.per_device[0];
  const auto first = [&](InstrKind kind) {
    return std::find_if(stream.begin(), stream.end(),
                        [&](const Instruction& i) { return i.kind == kind; });
  };
  const auto send = first(InstrKind::kSendActivation);
  const auto recv = first(InstrKind::kRecvGradient);
  ASSERT_TRUE(send != stream.end() && recv != stream.end() && send < recv);
  std::rotate(send, send + 1, recv + 1);
  PipelineRtConfig cfg;
  cfg.global_batch = 8;
  try {
    PipelineTrainer trainer(problem, cfg, bad);
    ADD_FAILURE() << "a cyclic program was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos)
        << e.what();
  }
}

TEST(Interpreter, ReorderedGradientReceivesTrainBitIdentically) {
  // Tensor slots are keyed by (replica, stage, micro) and each receive is
  // paired with its send by (direction, boundary, micro), so a device may
  // take its gradients in any order its stream can wait in. Device 0 of a
  // 1F1B S=2 M=4 program receives micro 1's gradient before micro 0's: it
  // trains bit-identically to the unmodified program, and both back-ends
  // execute it in its occupancy order.
  const DdpmProblem problem(DdpmConfig{});
  TrainerLoweringSpec spec;
  spec.num_stages = 2;
  spec.num_microbatches = 4;
  spec.data_parallel_degree = 2;
  spec.global_batch = 16;
  spec.num_modules = problem.make_backbone()->size();
  const TrainerLowering l = lower_trainer_program(spec);
  InstructionProgram reordered = l.program;
  std::vector<Instruction>& stream = reordered.per_device[0];
  const auto recv_grad = [&](int micro) {
    return std::find_if(stream.begin(), stream.end(),
                        [&](const Instruction& i) {
                          return i.kind == InstrKind::kRecvGradient &&
                                 i.micro == micro;
                        });
  };
  const auto m0 = recv_grad(0);
  const auto m1 = recv_grad(1);
  ASSERT_TRUE(m0 != stream.end() && m1 != stream.end() && m0 < m1);
  std::rotate(m0, m1, m1 + 1);
  const ValidationReport rep =
      ProgramValidator().validate_runtime_bindable(reordered);
  ASSERT_TRUE(rep.ok()) << rep.to_string();

  const int iterations = 6;
  PipelineRtConfig cfg;
  cfg.data_parallel_degree = 2;
  cfg.global_batch = 16;
  cfg.use_adam = true;
  cfg.lr = 0.01f;
  cfg.record_execution = true;
  PipelineTrainer original(problem, cfg, l.program);
  PipelineTrainer trainer(problem, cfg, reordered);
  original.train(iterations);
  trainer.train(iterations);
  EXPECT_FLOAT_EQ(
      params_diff(original.snapshot_params(), trainer.snapshot_params()),
      0.0f);
  ASSERT_EQ(original.losses().size(), trainer.losses().size());
  for (std::size_t i = 0; i < original.losses().size(); ++i) {
    EXPECT_DOUBLE_EQ(original.losses()[i], trainer.losses()[i]) << i;
  }
  const ExecutionLog expected = occupancy_trace(reordered, iterations);
  EXPECT_EQ(trainer.execution_log(), expected);
  EXPECT_EQ(engine_log(l.model, reordered, iterations, 8.0, 2), expected);
}

TEST(Interpreter, BindingMapsStagesOntoDisjointModuleRanges) {
  const DdpmProblem problem(DdpmConfig{});
  const int num_modules = problem.make_backbone()->size();
  TrainerLoweringSpec spec;
  spec.num_stages = 3;
  spec.num_microbatches = 2;
  spec.global_batch = 12;
  spec.num_modules = num_modules;
  const TrainerLowering l = lower_trainer_program(spec);
  ProgramBinding::Options opts;
  opts.num_modules = num_modules;
  opts.rows_per_replica = 12;
  const ProgramBinding binding(l.program, opts);
  ASSERT_EQ(binding.num_stages(), 3);
  EXPECT_EQ(binding.module_begin(0), 0);
  EXPECT_EQ(binding.module_end(binding.num_stages() - 1), num_modules);
  for (int s = 0; s < binding.num_stages(); ++s) {
    EXPECT_LT(binding.module_begin(s), binding.module_end(s)) << "stage " << s;
    if (s > 0) {
      EXPECT_EQ(binding.module_begin(s), binding.module_end(s - 1));
    }
  }
  // Frozen preamble slots, across all devices of the group, tile the
  // replica's rows exactly once.
  int covered = 0;
  for (const std::vector<ProgramBinding::FrozenSlot>& slots :
       binding.preamble_frozen()) {
    for (const ProgramBinding::FrozenSlot& slot : slots) {
      EXPECT_TRUE(slot.produces_cond);
      covered += slot.rows.rows();
    }
  }
  EXPECT_EQ(covered, binding.rows_per_replica());
}

}  // namespace
}  // namespace dpipe::rt
