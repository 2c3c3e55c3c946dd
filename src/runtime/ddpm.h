#pragma once

#include <memory>

#include "runtime/modules.h"

namespace dpipe::rt {

/// Configuration of the toy class-conditional DDPM training problem.
struct DdpmConfig {
  int data_dim = 2;      ///< Samples live in R^2 (Gaussian mixture).
  int cond_raw_dim = 6;  ///< Raw conditioning vector ("text prompt").
  int cond_dim = 4;      ///< Frozen-encoder embedding size.
  int time_dim = 4;      ///< Sinusoidal timestep features.
  int hidden = 32;       ///< Backbone width.
  int depth = 4;         ///< Backbone [Linear, SiLU] blocks.
  int timesteps = 100;
  bool self_conditioning = false;
  double self_cond_prob = 0.5;
  std::uint64_t seed = 1234;
};

/// Deterministic data + noise generator and loss plumbing for a toy DDPM.
/// Every quantity is a pure function of (config.seed, iteration), so two
/// trainers given the same config consume identical batches, noise,
/// timesteps and self-conditioning coin flips — making parameter
/// trajectories directly comparable.
class DdpmProblem {
 public:
  explicit DdpmProblem(DdpmConfig config);

  struct Batch {
    Tensor x0;        ///< [B, data_dim] clean samples.
    Tensor cond_raw;  ///< [B, cond_raw_dim] raw conditioning.
    Tensor noise;     ///< [B, data_dim] epsilon targets.
    Tensor t_feat;    ///< [B, time_dim] timestep features.
    Tensor alpha_bar; ///< [B, 1] cumulative schedule value per sample.
  };

  [[nodiscard]] Batch make_batch(int iteration, int batch_size) const;

  /// Frozen-encoder output for the batch (the non-trainable part).
  [[nodiscard]] Tensor encode_condition(const Tensor& cond_raw) const;

  /// Denoiser input: concat(x_t, t_feat, cond, self_cond_slot). The
  /// self-conditioning slot is always present (zeros when inactive) so the
  /// backbone's shape is static.
  [[nodiscard]] Tensor make_input(const Batch& batch, const Tensor& cond,
                                  const Tensor* self_cond_pred) const;

  /// dL/dpred of the MSE loss, normalized by the *global* batch element
  /// count so micro-batch gradient accumulation reproduces the full-batch
  /// gradient exactly.
  [[nodiscard]] Tensor loss_grad(const Tensor& pred, const Tensor& target,
                                 int global_batch) const;

  [[nodiscard]] double loss(const Tensor& pred, const Tensor& target) const;

  /// Deterministic Bernoulli(p): is self-conditioning active this
  /// iteration?
  [[nodiscard]] bool self_cond_active(int iteration) const;

  /// Backbone input width (incl. the always-present self-cond slot).
  [[nodiscard]] int input_dim() const;
  [[nodiscard]] const DdpmConfig& config() const { return config_; }

  /// Modules in make_backbone()'s chain, 2 * depth + 1, without drawing
  /// its weights.
  [[nodiscard]] int num_modules() const { return 2 * config_.depth + 1; }
  /// A fresh backbone with deterministic (seeded) initialization.
  [[nodiscard]] std::unique_ptr<Sequential> make_backbone() const;

 private:
  DdpmConfig config_;
  FrozenEncoder encoder_;
};

}  // namespace dpipe::rt
