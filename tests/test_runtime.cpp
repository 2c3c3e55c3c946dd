#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>

#include "runtime/dp_trainer.h"
#include "runtime/kernels.h"
#include "runtime/pipeline_exec.h"

namespace dpipe::rt {
namespace {

TEST(Tensor, BasicOpsAndShapes) {
  const Tensor a = Tensor::full({2, 3}, 2.0f);
  const Tensor b = Tensor::full({2, 3}, 1.5f);
  Tensor sum = a;
  add_inplace(sum, b);
  EXPECT_FLOAT_EQ(sum.at(0, 0), 3.5f);
  Tensor diff({2, 3});
  sub_into(diff, a, b);
  EXPECT_FLOAT_EQ(diff.at(1, 2), 0.5f);
  Tensor scaled = a;
  scale_inplace(scaled, 0.5f);
  EXPECT_FLOAT_EQ(scaled.at(0, 0), 1.0f);
  Tensor axpy = a;
  axpy_inplace(axpy, b, 2.0f);
  EXPECT_FLOAT_EQ(axpy.at(0, 1), 5.0f);
  Tensor wrong = Tensor::zeros({3, 2});
  EXPECT_THROW(add_inplace(wrong, a), std::invalid_argument);
}

TEST(Tensor, MatmulAgainstHandComputed) {
  Tensor a({2, 2});
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 3;
  a.at(1, 1) = 4;
  Tensor b({2, 2});
  b.at(0, 0) = 5;
  b.at(0, 1) = 6;
  b.at(1, 0) = 7;
  b.at(1, 1) = 8;
  Tensor c({2, 2});
  matmul_into(c, a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50);
  // A^T B and A B^T identities against matmul.
  Tensor tn({2, 2});
  matmul_tn_into(tn, a, b);
  EXPECT_FLOAT_EQ(tn.at(0, 0), 1 * 5 + 3 * 7);
  Tensor nt({2, 2});
  matmul_nt_into(nt, a, b);
  EXPECT_FLOAT_EQ(nt.at(0, 0), 1 * 5 + 2 * 6);
}

TEST(Tensor, SliceRowsAndSumRows) {
  Tensor t({3, 2});
  for (int r = 0; r < 3; ++r) {
    t.at(r, 0) = static_cast<float>(r + 1);
    t.at(r, 1) = static_cast<float>(10 * (r + 1));
  }
  const Tensor sl = t.slice_rows(1, 3);
  EXPECT_EQ(sl.rows(), 2);
  EXPECT_FLOAT_EQ(sl.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(sl.at(1, 1), 30.0f);
  Tensor col_sum({1, 2});
  sum_rows_into(col_sum, t);
  EXPECT_FLOAT_EQ(col_sum.at(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(col_sum.at(0, 1), 60.0f);
}

TEST(Rng, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

// Gradient check for Linear/SiLU via central differences.
TEST(Modules, GradientCheckLinearSilu) {
  Rng rng(3);
  Sequential net;
  net.push(std::make_unique<Linear>(3, 4, rng));
  net.push(std::make_unique<SiLU>());
  net.push(std::make_unique<Linear>(4, 2, rng));
  const Tensor x = rng.randn({5, 3});
  const Tensor target = rng.randn({5, 2});

  const auto loss_value = [&]() {
    Tensor pred = net.forward(x);
    net.drop_context();
    Tensor diff(pred.shape());
    sub_into(diff, pred, target);
    double acc = 0.0;
    for (std::int64_t i = 0; i < diff.numel(); ++i) {
      acc += 0.5 * diff.data()[i] * diff.data()[i];
    }
    return acc;
  };

  // Analytic gradients.
  Tensor pred = net.forward(x);
  Tensor grad(pred.shape());
  sub_into(grad, pred, target);
  (void)net.backward(grad);
  const std::vector<Tensor*> params = net.params();
  const std::vector<Tensor*> grads = net.grads();
  const float eps = 1e-3f;
  int checked = 0;
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    for (std::int64_t j = 0; j < std::min<std::int64_t>(
                                 params[pi]->numel(), 4);
         ++j) {
      const float original = params[pi]->data()[j];
      params[pi]->data()[j] = original + eps;
      const double hi = loss_value();
      params[pi]->data()[j] = original - eps;
      const double lo = loss_value();
      params[pi]->data()[j] = original;
      const double numeric = (hi - lo) / (2.0 * eps);
      EXPECT_NEAR(grads[pi]->data()[j], numeric,
                  1e-2 * std::max(1.0, std::abs(numeric)));
      ++checked;
    }
  }
  EXPECT_GT(checked, 8);
}

TEST(Modules, FifoContextsSupportMultipleMicrobatches) {
  Rng rng(5);
  Linear layer(2, 2, rng);
  const Tensor x1 = rng.randn({3, 2});
  const Tensor x2 = rng.randn({3, 2});
  (void)layer.forward(x1);
  (void)layer.forward(x2);
  EXPECT_EQ(layer.pending_contexts(), 2);
  const Tensor g = Tensor::full({3, 2}, 1.0f);
  (void)layer.backward(g);  // Consumes x1's context.
  (void)layer.backward(g);  // Consumes x2's context.
  EXPECT_EQ(layer.pending_contexts(), 0);
}

TEST(Optim, SgdStep) {
  Tensor p = Tensor::full({1, 2}, 1.0f);
  Tensor g = Tensor::full({1, 2}, 0.5f);
  Sgd(0.1f).step({&p}, {&g});
  EXPECT_FLOAT_EQ(p.at(0, 0), 0.95f);
}

TEST(Optim, AdamMovesAgainstGradient) {
  Tensor p = Tensor::full({1, 1}, 1.0f);
  Tensor g = Tensor::full({1, 1}, 2.0f);
  Adam adam(0.1f);
  adam.step({&p}, {&g});
  EXPECT_LT(p.at(0, 0), 1.0f);
}

TEST(Ddpm, DeterministicBatches) {
  const DdpmProblem problem(DdpmConfig{});
  const auto a = problem.make_batch(3, 8);
  const auto b = problem.make_batch(3, 8);
  EXPECT_FLOAT_EQ(max_abs_diff(a.x0, b.x0), 0.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(a.noise, b.noise), 0.0f);
  const auto c = problem.make_batch(4, 8);
  EXPECT_GT(max_abs_diff(a.x0, c.x0), 0.0f);
}

TEST(Ddpm, TrainingReducesLoss) {
  const DdpmProblem problem(DdpmConfig{});
  ReferenceTrainer trainer(problem, 32, 0.5f);
  trainer.train(150);
  const auto& losses = trainer.losses();
  double early = 0.0;
  double late = 0.0;
  for (int i = 0; i < 10; ++i) {
    early += losses[i];
    late += losses[losses.size() - 10 + i];
  }
  EXPECT_LT(late, early * 0.8);
}

// --- The equivalence results the runtime exists for ------------------------

std::vector<Tensor> reference_params(const DdpmProblem& problem, int batch,
                                     float lr, int iterations) {
  ReferenceTrainer trainer(problem, batch, lr);
  trainer.train(iterations);
  return trainer.snapshot_params();
}

float params_diff(const std::vector<Tensor>& a,
                  const std::vector<Tensor>& b) {
  EXPECT_EQ(a.size(), b.size());
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, max_abs_diff(a[i], b[i]));
  }
  return worst;
}

TEST(Equivalence, PipelineMatchesReference) {
  // Thread-per-stage 1F1B with micro-batch accumulation reproduces the
  // full-batch trajectory (synchronous pipeline training is exact).
  const DdpmProblem problem(DdpmConfig{});
  const auto ref = reference_params(problem, 16, 0.05f, 25);
  PipelineRtConfig cfg;
  cfg.num_stages = 3;
  cfg.num_microbatches = 4;
  cfg.global_batch = 16;
  cfg.lr = 0.05f;
  PipelineTrainer pipeline(problem, cfg);
  pipeline.train(25);
  EXPECT_LT(params_diff(ref, pipeline.snapshot_params()), 2e-4f);
}

TEST(Equivalence, DataParallelReplicasMatchReference) {
  const DdpmProblem problem(DdpmConfig{});
  const auto ref = reference_params(problem, 16, 0.05f, 20);
  PipelineRtConfig cfg;
  cfg.num_stages = 2;
  cfg.num_microbatches = 2;
  cfg.data_parallel_degree = 2;  // Mixed pipeline + data parallelism.
  cfg.global_batch = 16;
  cfg.lr = 0.05f;
  PipelineTrainer pipeline(problem, cfg);
  pipeline.train(20);
  EXPECT_LT(params_diff(ref, pipeline.snapshot_params()), 2e-4f);
  EXPECT_FLOAT_EQ(pipeline.replica_divergence(), 0.0f);
}

TEST(Equivalence, CrossIterationIsExactlyEquivalent) {
  // The paper's §3.2 claim: computing the non-trainable part one iteration
  // ahead (inside the previous iteration's bubbles) is mathematically
  // equivalent. Trajectories must match bit for bit.
  const DdpmProblem problem(DdpmConfig{});
  PipelineRtConfig cross;
  cross.num_stages = 3;
  cross.num_microbatches = 4;
  cross.global_batch = 16;
  cross.cross_iteration = true;
  PipelineRtConfig same = cross;
  same.cross_iteration = false;
  PipelineTrainer a(problem, cross);
  PipelineTrainer b(problem, same);
  a.train(15);
  b.train(15);
  EXPECT_FLOAT_EQ(params_diff(a.snapshot_params(), b.snapshot_params()),
                  0.0f);
  for (std::size_t i = 0; i < a.losses().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.losses()[i], b.losses()[i]);
  }
}

TEST(Equivalence, SelfConditioningMatchesReference) {
  DdpmConfig config;
  config.self_conditioning = true;
  config.self_cond_prob = 0.5;
  const DdpmProblem problem(config);
  const auto ref = reference_params(problem, 16, 0.05f, 20);
  PipelineRtConfig cfg;
  cfg.num_stages = 3;
  cfg.num_microbatches = 4;
  cfg.global_batch = 16;
  PipelineTrainer pipeline(problem, cfg);
  pipeline.train(20);
  EXPECT_LT(params_diff(ref, pipeline.snapshot_params()), 2e-4f);
}

TEST(Equivalence, HoldsAcrossStageAndMicroCounts) {
  // Property sweep: stage/micro-batch partitioning must never change the
  // learned parameters.
  const DdpmProblem problem(DdpmConfig{});
  const auto ref = reference_params(problem, 24, 0.05f, 12);
  for (const int stages : {1, 2, 4}) {
    for (const int micros : {1, 3}) {
      PipelineRtConfig cfg;
      cfg.num_stages = stages;
      cfg.num_microbatches = micros;
      cfg.global_batch = 24;
      PipelineTrainer pipeline(problem, cfg);
      pipeline.train(12);
      EXPECT_LT(params_diff(ref, pipeline.snapshot_params()), 2e-4f)
          << "S=" << stages << " M=" << micros;
    }
  }
}

TEST(Equivalence, AdamTrajectoriesMatchToo) {
  // Stateful optimizers preserve the equivalence: identical gradients give
  // identical Adam moments on every stage and replica.
  const DdpmProblem problem(DdpmConfig{});
  ReferenceTrainer ref(problem, 16, 0.01f, /*use_adam=*/true);
  ref.train(15);
  PipelineRtConfig cfg;
  cfg.num_stages = 3;
  cfg.num_microbatches = 4;
  cfg.data_parallel_degree = 2;
  cfg.global_batch = 16;
  cfg.lr = 0.01f;
  cfg.use_adam = true;
  PipelineTrainer pipeline(problem, cfg);
  pipeline.train(15);
  EXPECT_LT(params_diff(ref.snapshot_params(), pipeline.snapshot_params()),
            2e-4f);
  EXPECT_FLOAT_EQ(pipeline.replica_divergence(), 0.0f);
}

TEST(Ddpm, AdamConvergesFasterThanSgd) {
  const DdpmProblem problem(DdpmConfig{});
  ReferenceTrainer sgd(problem, 32, 0.5f);
  ReferenceTrainer adam(problem, 32, 0.01f, /*use_adam=*/true);
  sgd.train(80);
  adam.train(80);
  double sgd_late = 0.0;
  double adam_late = 0.0;
  for (int i = 70; i < 80; ++i) {
    sgd_late += sgd.losses()[i];
    adam_late += adam.losses()[i];
  }
  EXPECT_LT(adam_late, sgd_late);
}

TEST(Equivalence, LossCurvesMatchReference) {
  const DdpmProblem problem(DdpmConfig{});
  ReferenceTrainer ref(problem, 16, 0.05f);
  ref.train(10);
  PipelineRtConfig cfg;
  cfg.num_stages = 2;
  cfg.num_microbatches = 4;
  cfg.global_batch = 16;
  PipelineTrainer pipeline(problem, cfg);
  pipeline.train(10);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(pipeline.losses()[i], ref.losses()[i],
                std::abs(ref.losses()[i]) * 1e-4 + 1e-7);
  }
}

TEST(PipelineTrainer, RejectsIndivisibleBatch) {
  const DdpmProblem problem(DdpmConfig{});
  PipelineRtConfig cfg;
  cfg.num_stages = 2;
  cfg.num_microbatches = 3;
  cfg.global_batch = 16;  // Not divisible by 3.
  EXPECT_THROW(PipelineTrainer(problem, cfg), std::invalid_argument);
}

// --- Fault tolerance: channels, exception safety, checkpoint/restart -------

TEST(Channel, PopDrainsThenReportsClosed) {
  Channel<int> ch;
  EXPECT_TRUE(ch.push(1));
  EXPECT_TRUE(ch.push(2));
  ch.close();
  EXPECT_EQ(ch.pop(), 1);  // Queued values drain after close...
  EXPECT_EQ(ch.pop(), 2);
  EXPECT_EQ(ch.pop(), std::nullopt);  // ...then closed-and-empty.
  EXPECT_FALSE(ch.push(3));  // A closed channel refuses the value...
  EXPECT_EQ(ch.pop(), std::nullopt);  // ...and stays empty.
}

TEST(Channel, CloseWakesBlockedConsumer) {
  Channel<int> ch;
  std::optional<int> got = std::make_optional(-1);
  std::thread consumer([&] { got = ch.pop(); });
  ch.close();  // Without close semantics this pop would block forever.
  consumer.join();
  EXPECT_EQ(got, std::nullopt);
}

TEST(PipelineTrainer, StageFailurePropagatesWithoutHanging) {
  // A forward that fails mid-wave must abort the whole wave cleanly: no op
  // whose predecessors never finished runs, and the failure escapes
  // train() instead of deadlocking the trainer.
  const DdpmProblem problem(DdpmConfig{});
  PipelineRtConfig cfg;
  cfg.num_stages = 3;
  cfg.num_microbatches = 4;
  cfg.global_batch = 16;
  cfg.fault.iteration = 2;  // Mid-training, mid-wave.
  cfg.fault.stage = 1;
  cfg.fault.micro = 2;
  PipelineTrainer trainer(problem, cfg);
  EXPECT_THROW(trainer.train(10), StageFailure);
  EXPECT_TRUE(trainer.failed());
  // Poisoned until restored: further training is refused, not wedged.
  EXPECT_THROW(trainer.train(1), std::invalid_argument);
}

TEST(PipelineTrainer, FirstAndLastStageFailuresAlsoUnwindCleanly) {
  const DdpmProblem problem(DdpmConfig{});
  for (const int stage : {0, 2}) {
    PipelineRtConfig cfg;
    cfg.num_stages = 3;
    cfg.num_microbatches = 4;
    cfg.global_batch = 16;
    cfg.fault.iteration = 0;
    cfg.fault.stage = stage;
    cfg.fault.micro = stage == 0 ? 0 : 3;
    PipelineTrainer trainer(problem, cfg);
    EXPECT_THROW(trainer.train(3), StageFailure) << "stage " << stage;
  }
}

TEST(PipelineTrainer, CheckpointRestartReproducesTrajectoryBitExactly) {
  // Kill stage 1 mid-iteration 7, restart from the auto-checkpoint, finish
  // training: the recovered run must match an uninterrupted pipeline bit
  // for bit, and the reference trainer trajectory (losses + divergence 0).
  const DdpmProblem problem(DdpmConfig{});
  const int total_iterations = 15;
  PipelineRtConfig cfg;
  cfg.num_stages = 3;
  cfg.num_microbatches = 4;
  cfg.data_parallel_degree = 2;
  cfg.global_batch = 16;
  cfg.lr = 0.05f;
  cfg.checkpoint_interval = 2;
  PipelineRtConfig doomed = cfg;
  doomed.fault.iteration = 7;
  doomed.fault.stage = 1;
  doomed.fault.micro = 2;
  doomed.fault.replica = 1;

  PipelineTrainer victim(problem, doomed);
  EXPECT_THROW(victim.train(total_iterations), StageFailure);
  const TrainerCheckpoint ckpt = victim.last_checkpoint();
  EXPECT_EQ(ckpt.iteration, 6);  // Interval 2, crash in iteration 7.

  // Restart: a fresh trainer (fresh threads, fresh weights) restored from
  // the checkpoint, resuming the remaining iterations.
  PipelineTrainer recovered(problem, cfg);
  recovered.restore(ckpt);
  recovered.train(total_iterations - ckpt.iteration);

  PipelineTrainer uninterrupted(problem, cfg);
  uninterrupted.train(total_iterations);

  ASSERT_EQ(recovered.losses().size(), uninterrupted.losses().size());
  for (std::size_t i = 0; i < recovered.losses().size(); ++i) {
    EXPECT_DOUBLE_EQ(recovered.losses()[i], uninterrupted.losses()[i]) << i;
  }
  EXPECT_FLOAT_EQ(params_diff(recovered.snapshot_params(),
                              uninterrupted.snapshot_params()),
                  0.0f);
  EXPECT_FLOAT_EQ(recovered.replica_divergence(), 0.0f);

  // And the recovered trajectory still matches the full-batch reference.
  ReferenceTrainer ref(problem, 16, 0.05f);
  ref.train(total_iterations);
  EXPECT_LT(params_diff(ref.snapshot_params(), recovered.snapshot_params()),
            2e-4f);
  for (std::size_t i = 0; i < recovered.losses().size(); ++i) {
    EXPECT_NEAR(recovered.losses()[i], ref.losses()[i],
                std::abs(ref.losses()[i]) * 1e-4 + 1e-7);
  }
}

TEST(PipelineTrainer, AdamStateSurvivesCheckpointRestart) {
  // Stateful optimizer: moments and step count must ride along in the
  // checkpoint or the recovered trajectory diverges.
  const DdpmProblem problem(DdpmConfig{});
  PipelineRtConfig cfg;
  cfg.num_stages = 3;
  cfg.num_microbatches = 4;
  cfg.global_batch = 16;
  cfg.lr = 0.01f;
  cfg.use_adam = true;
  cfg.checkpoint_interval = 3;
  PipelineRtConfig doomed = cfg;
  doomed.fault.iteration = 8;
  doomed.fault.stage = 2;
  doomed.fault.micro = 1;

  PipelineTrainer victim(problem, doomed);
  EXPECT_THROW(victim.train(12), StageFailure);
  EXPECT_EQ(victim.last_checkpoint().iteration, 6);
  EXPECT_TRUE(victim.last_checkpoint().has_adam);

  PipelineTrainer recovered(problem, cfg);
  recovered.restore(victim.last_checkpoint());
  recovered.train(6);

  PipelineTrainer uninterrupted(problem, cfg);
  uninterrupted.train(12);
  EXPECT_FLOAT_EQ(params_diff(recovered.snapshot_params(),
                              uninterrupted.snapshot_params()),
                  0.0f);
}

TEST(PipelineTrainer, RestoreRejectsMismatchedOptimizer) {
  const DdpmProblem problem(DdpmConfig{});
  PipelineRtConfig sgd_cfg;
  sgd_cfg.checkpoint_interval = 1;
  PipelineTrainer sgd_trainer(problem, sgd_cfg);
  sgd_trainer.train(2);
  PipelineRtConfig adam_cfg = sgd_cfg;
  adam_cfg.use_adam = true;
  PipelineTrainer adam_trainer(problem, adam_cfg);
  EXPECT_THROW(adam_trainer.restore(sgd_trainer.last_checkpoint()),
               std::invalid_argument);
}

TEST(PipelineTrainer, RejectsOutOfRangeFaultInjection) {
  const DdpmProblem problem(DdpmConfig{});
  PipelineRtConfig cfg;
  cfg.num_stages = 2;
  cfg.fault.iteration = 0;
  cfg.fault.stage = 5;  // Only 2 stages.
  EXPECT_THROW(PipelineTrainer(problem, cfg), std::invalid_argument);
}

TEST(ErrorMacros, LocateFailuresWithFileAndLine) {
  try {
    DPIPE_REQUIRE(false, "precondition text");
    FAIL() << "DPIPE_REQUIRE did not throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test_runtime.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("precondition text"), std::string::npos) << what;
  }
  try {
    DPIPE_ENSURE(false, "invariant text");
    FAIL() << "DPIPE_ENSURE did not throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(":"), std::string::npos);
    EXPECT_NE(what.find("invariant text"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace dpipe::rt
