#pragma once

#include <deque>
#include <memory>

#include "runtime/tensor.h"

namespace dpipe::rt {

/// Layer-wise autograd module. Forward pushes a context onto a FIFO;
/// backward pops the oldest. This matches FIFO-1F1B execution, where each
/// stage backward-processes micro-batches in the same order it
/// forward-processed them (Fig. 2); gradients accumulate across
/// micro-batches until zero_grad().
///
/// forward/backward take their tensor by value: pipeline hot paths move
/// activations through the chain (stash, channel, next layer) without
/// copying, and consumed buffers are recycled into the TensorPool when the
/// matching backward (or drop_context) retires them.
class Module {
 public:
  virtual ~Module() = default;

  [[nodiscard]] virtual Tensor forward(Tensor x) = 0;
  /// Returns dL/dx; accumulates dL/dW internally.
  [[nodiscard]] virtual Tensor backward(Tensor grad_out) = 0;

  [[nodiscard]] virtual std::vector<Tensor*> params() { return {}; }
  [[nodiscard]] virtual std::vector<Tensor*> grads() { return {}; }
  virtual void zero_grad() {}
  /// Number of stashed (not yet backward-ed) micro-batch contexts.
  [[nodiscard]] virtual int pending_contexts() const { return 0; }
  /// Discards the oldest stashed context without computing gradients.
  /// Used for no-grad forwards (the self-conditioning first pass).
  virtual void drop_context() {}
  /// A deep copy of the parameters and accumulated gradients. Throws
  /// std::invalid_argument while contexts are stashed: a copy must not
  /// inherit a half-finished micro-batch.
  [[nodiscard]] virtual std::unique_ptr<Module> clone() const = 0;
};

class SiLU;

/// y = x W + b.
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, Rng& rng);

  [[nodiscard]] Tensor forward(Tensor x) override;
  /// Fused Linear→SiLU forward: one matmul whose epilogue applies the bias
  /// and writes silu(z) while each output tile is cache-hot, instead of
  /// re-reading z in two extra sweeps. Stashes x here and the
  /// pre-activation z in `act`, so the backward pair is exactly the
  /// unfused one — results are bit-identical either way (DESIGN.md §13).
  [[nodiscard]] Tensor forward_fused_silu(Tensor x, SiLU& act);
  [[nodiscard]] Tensor backward(Tensor grad_out) override;
  [[nodiscard]] std::vector<Tensor*> params() override;
  [[nodiscard]] std::vector<Tensor*> grads() override;
  void zero_grad() override;
  [[nodiscard]] int pending_contexts() const override {
    return static_cast<int>(inputs_.size());
  }
  void drop_context() override;
  [[nodiscard]] std::unique_ptr<Module> clone() const override;

  Tensor weight;  ///< [in, out]
  Tensor bias;    ///< [1, out]
  Tensor grad_weight;
  Tensor grad_bias;

 private:
  std::deque<Tensor> inputs_;
};

/// y = x * sigmoid(x).
class SiLU : public Module {
 public:
  [[nodiscard]] Tensor forward(Tensor x) override;
  [[nodiscard]] Tensor backward(Tensor grad_out) override;
  /// Stashes a pre-activation computed elsewhere (the fused Linear→SiLU
  /// epilogue) so backward() sees the same FIFO it would after forward().
  void stash(Tensor x) { inputs_.push_back(std::move(x)); }
  [[nodiscard]] int pending_contexts() const override {
    return static_cast<int>(inputs_.size());
  }
  void drop_context() override;
  [[nodiscard]] std::unique_ptr<Module> clone() const override;

 private:
  std::deque<Tensor> inputs_;
};

/// Chain of modules; supports forward/backward over a sub-range so a
/// pipeline stage can own layers [begin, end).
class Sequential : public Module {
 public:
  Sequential() = default;
  /// Deep copy, module by module through clone(): how data-parallel
  /// replicas get the weights of one seeded draw.
  Sequential(const Sequential& other);
  Sequential& operator=(const Sequential&) = delete;
  void push(std::unique_ptr<Module> module);

  [[nodiscard]] Tensor forward(Tensor x) override;
  [[nodiscard]] Tensor backward(Tensor grad_out) override;
  [[nodiscard]] Tensor forward_range(Tensor x, int begin, int end);
  [[nodiscard]] Tensor backward_range(Tensor grad_out, int begin, int end);
  [[nodiscard]] std::vector<Tensor*> params() override;
  [[nodiscard]] std::vector<Tensor*> grads() override;
  void zero_grad() override;
  [[nodiscard]] int size() const { return static_cast<int>(modules_.size()); }
  [[nodiscard]] int pending_contexts() const override;
  void drop_context() override;
  /// Discards one context from every module in [begin, end).
  void drop_context_range(int begin, int end);
  [[nodiscard]] Module& module(int index) { return *modules_.at(index); }
  [[nodiscard]] std::unique_ptr<Module> clone() const override;

 private:
  std::vector<std::unique_ptr<Module>> modules_;
};

/// An MLP denoiser backbone: `depth` [Linear -> SiLU] blocks plus an output
/// projection. 2*depth + 1 schedulable modules.
[[nodiscard]] std::unique_ptr<Sequential> make_mlp_backbone(int in_features,
                                                            int hidden,
                                                            int depth,
                                                            int out_features,
                                                            Rng& rng);

/// Frozen encoder: a fixed random MLP used as the non-trainable component
/// (its outputs do not depend on trainable parameters, so they can be
/// computed one iteration ahead — the premise of cross-iteration filling).
class FrozenEncoder {
 public:
  FrozenEncoder(int in_features, int out_features, Rng& rng);
  [[nodiscard]] Tensor encode(const Tensor& x) const;

 private:
  Tensor w1_, b1_, w2_, b2_;
};

}  // namespace dpipe::rt
