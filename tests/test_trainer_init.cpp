// Trainer construction: pinned digests of the initial weights and of short
// trajectories at the benchmark's trainer shapes, so any change to how a
// trainer builds its replicas must keep every bit of what it trains; the
// module count read from the config; and the replica copy of a backbone.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.h"
#include "fault/elastic.h"
#include "runtime/optim.h"
#include "runtime/pipeline_exec.h"

namespace dpipe::rt {
namespace {

/// Digest of the raw bits of a parameter list followed by a loss history.
std::string state_digest(const std::vector<Tensor>& params,
                         const std::vector<double>& losses) {
  std::string bytes;
  for (const Tensor& p : params) {
    bytes.append(reinterpret_cast<const char*>(p.data()),
                 static_cast<std::size_t>(p.numel()) * sizeof(float));
  }
  bytes.append(reinterpret_cast<const char*>(losses.data()),
               losses.size() * sizeof(double));
  return fingerprint_bytes(bytes).hex();
}

std::vector<Tensor> param_values(Sequential& net) {
  std::vector<Tensor> out;
  for (const Tensor* p : net.params()) {
    out.push_back(*p);
  }
  return out;
}

struct TrainerShape {
  const char* name;
  DdpmConfig ddpm;
  PipelineRtConfig config;
  const char* initial_digest;
  const char* trained_digest;
};

/// The wide-cdm trainer: hidden 128, depth 6, S=2, M=4, dp=2, batch 256.
TrainerShape wide_shape() {
  TrainerShape shape{"wide", {}, {}, "3027e55ac47acc7f3ae23ec1fc2e5315",
                     "eca6f26df8f17f4d9b0a5a636b881aa7"};
  shape.ddpm.hidden = 128;
  shape.ddpm.depth = 6;
  shape.config.num_stages = 2;
  shape.config.num_microbatches = 4;
  shape.config.data_parallel_degree = 2;
  shape.config.global_batch = 256;
  shape.config.use_adam = true;
  shape.config.lr = 0.01f;
  return shape;
}

/// The narrow-sd trainer: hidden 32, depth 4, S=4, M=8, dp=1, batch 64,
/// self-conditioning with p = 0.5.
TrainerShape narrow_shape() {
  TrainerShape shape{"narrow", {}, {}, "5342c8ad165328089cd9df138269a5fc",
                     "fe4bd5921309551b09495a86ce395c6f"};
  shape.ddpm.hidden = 32;
  shape.ddpm.depth = 4;
  shape.ddpm.self_conditioning = true;
  shape.ddpm.self_cond_prob = 0.5;
  shape.config.num_stages = 4;
  shape.config.num_microbatches = 8;
  shape.config.data_parallel_degree = 1;
  shape.config.global_batch = 64;
  shape.config.use_adam = true;
  shape.config.lr = 0.01f;
  return shape;
}

TEST(TrainerInit, GoldenDigests) {
  for (const TrainerShape& shape : {wide_shape(), narrow_shape()}) {
    SCOPED_TRACE(shape.name);
    const DdpmProblem problem(shape.ddpm);
    PipelineTrainer trainer(problem, shape.config);
    EXPECT_EQ(state_digest(trainer.snapshot_params(), trainer.losses()),
              shape.initial_digest);
    trainer.train(4);
    EXPECT_EQ(state_digest(trainer.snapshot_params(), trainer.losses()),
              shape.trained_digest);
    EXPECT_EQ(trainer.replica_divergence(), 0.0f);
  }

  // One elastic session at the recovery geometry, crashing once.
  const DdpmProblem problem(DdpmConfig{});
  ElasticOptions options;
  options.config.num_stages = 2;
  options.config.data_parallel_degree = 2;
  options.config.num_microbatches = 4;
  options.config.global_batch = 32;
  options.config.use_adam = true;
  options.config.lr = 0.01f;
  options.config.checkpoint_interval = 4;
  ElasticCrash crash;
  crash.iteration = 5;
  crash.stage = 1;
  crash.micro = 2;
  crash.replica = 1;
  options.crashes = {crash};
  ElasticRecoveryController controller(problem, options);
  EXPECT_EQ(controller.run(8).faults, 1);
  EXPECT_EQ(state_digest(controller.final_params(), controller.losses()),
            "a13f858a91c1d566290de61b22ce3663");
  EXPECT_EQ(controller.replica_divergence(), 0.0f);
}

TEST(TrainerInit, NumModulesMatchesBackbone) {
  for (int depth = 1; depth <= 6; ++depth) {
    DdpmConfig config;
    config.depth = depth;
    const DdpmProblem problem(config);
    EXPECT_EQ(problem.num_modules(), problem.make_backbone()->size())
        << "depth " << depth;
  }
}

TEST(TrainerInit, ReplicaCopyIsDeep) {
  const DdpmProblem problem(DdpmConfig{});
  const std::unique_ptr<Sequential> source = problem.make_backbone();
  const std::string source_digest = state_digest(param_values(*source), {});
  Sequential copy(*source);
  ASSERT_EQ(copy.size(), source->size());
  EXPECT_EQ(state_digest(param_values(copy), {}), source_digest);
  const std::vector<Tensor*> source_params = source->params();
  const std::vector<Tensor*> copy_params = copy.params();
  ASSERT_EQ(copy_params.size(), source_params.size());
  for (std::size_t i = 0; i < source_params.size(); ++i) {
    EXPECT_NE(copy_params[i]->data(), source_params[i]->data()) << i;
    EXPECT_EQ(copy_params[i]->shape(), source_params[i]->shape()) << i;
  }

  // One SGD step on the copy moves its weights and leaves the source's.
  const DdpmProblem::Batch batch = problem.make_batch(0, 8);
  const Tensor input = problem.make_input(
      batch, problem.encode_condition(batch.cond_raw), nullptr);
  const Tensor pred = copy.forward(input);
  (void)copy.backward(problem.loss_grad(pred, batch.noise, 8));
  Sgd(0.1f).step(copy.params(), copy.grads());
  EXPECT_NE(state_digest(param_values(copy), {}), source_digest);
  EXPECT_EQ(state_digest(param_values(*source), {}), source_digest);

  // A net holding a stashed (not yet backward-ed) context is not copied.
  (void)copy.forward(input);
  ASSERT_GT(copy.pending_contexts(), 0);
  EXPECT_THROW(Sequential{copy}, std::invalid_argument);
}

}  // namespace
}  // namespace dpipe::rt
