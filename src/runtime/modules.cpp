#include "runtime/modules.h"

#include <cmath>
#include <utility>

#include "runtime/eltwise.h"
#include "runtime/kernels.h"
#include "runtime/pool.h"

namespace dpipe::rt {

Linear::Linear(int in_features, int out_features, Rng& rng)
    : weight(rng.randn({in_features, out_features},
                       1.0f / std::sqrt(static_cast<float>(in_features)))),
      bias(Tensor::zeros({1, out_features})),
      grad_weight(Tensor::zeros({in_features, out_features})),
      grad_bias(Tensor::zeros({1, out_features})) {}

Tensor Linear::forward(Tensor x) {
  Tensor y = TensorPool::global().acquire({x.rows(), weight.cols()});
  MatmulEpilogue ep;
  ep.bias = &bias;
  matmul_into(y, x, weight, kernel_mode(), ep);
  inputs_.push_back(std::move(x));
  return y;
}

Tensor Linear::forward_fused_silu(Tensor x, SiLU& act) {
  TensorPool& pool = TensorPool::global();
  Tensor z = pool.acquire({x.rows(), weight.cols()});
  Tensor y = pool.acquire(z.shape());
  MatmulEpilogue ep;
  ep.bias = &bias;
  ep.silu_out = &y;
  matmul_into(z, x, weight, kernel_mode(), ep);
  inputs_.push_back(std::move(x));
  act.stash(std::move(z));
  return y;
}

Tensor Linear::backward(Tensor grad_out) {
  DPIPE_ENSURE(!inputs_.empty(), "Linear::backward without stashed forward");
  Tensor x = std::move(inputs_.front());
  inputs_.pop_front();
  TensorPool& pool = TensorPool::global();
  // grad_weight += x^T grad_out, via a pooled scratch so the accumulation
  // is a single add (same addition order as the old add(grad, matmul_tn)).
  Tensor gw = pool.acquire(grad_weight.shape());
  matmul_tn_into(gw, x, grad_out);
  add_inplace(grad_weight, gw);
  pool.release(std::move(gw));
  Tensor gb = pool.acquire(grad_bias.shape());
  sum_rows_into(gb, grad_out);
  add_inplace(grad_bias, gb);
  pool.release(std::move(gb));
  Tensor grad_in = pool.acquire({grad_out.rows(), weight.rows()});
  matmul_nt_into(grad_in, grad_out, weight);
  pool.release(std::move(x));
  pool.release(std::move(grad_out));
  return grad_in;
}

std::vector<Tensor*> Linear::params() { return {&weight, &bias}; }
std::vector<Tensor*> Linear::grads() { return {&grad_weight, &grad_bias}; }

std::unique_ptr<Module> Linear::clone() const {
  DPIPE_REQUIRE(inputs_.empty(), "cannot copy a module with stashed contexts");
  return std::make_unique<Linear>(*this);
}

void Linear::zero_grad() {
  fill(grad_weight, 0.0f);
  fill(grad_bias, 0.0f);
}

void Linear::drop_context() {
  if (!inputs_.empty()) {
    TensorPool::global().release(std::move(inputs_.front()));
    inputs_.pop_front();
  }
}

Tensor SiLU::forward(Tensor x) {
  Tensor y = TensorPool::global().acquire(x.shape());
  silu_into(y, x);
  inputs_.push_back(std::move(x));
  return y;
}

Tensor SiLU::backward(Tensor grad_out) {
  DPIPE_ENSURE(!inputs_.empty(), "SiLU::backward without stashed forward");
  Tensor x = std::move(inputs_.front());
  inputs_.pop_front();
  TensorPool& pool = TensorPool::global();
  Tensor grad_in = pool.acquire(x.shape());
  silu_backward_into(grad_in, x, grad_out);
  pool.release(std::move(x));
  pool.release(std::move(grad_out));
  return grad_in;
}

void SiLU::drop_context() {
  if (!inputs_.empty()) {
    TensorPool::global().release(std::move(inputs_.front()));
    inputs_.pop_front();
  }
}

std::unique_ptr<Module> SiLU::clone() const {
  DPIPE_REQUIRE(inputs_.empty(), "cannot copy a module with stashed contexts");
  return std::make_unique<SiLU>(*this);
}

Sequential::Sequential(const Sequential& other) : Module() {
  modules_.reserve(other.modules_.size());
  for (const auto& m : other.modules_) {
    modules_.push_back(m->clone());
  }
}

std::unique_ptr<Module> Sequential::clone() const {
  return std::make_unique<Sequential>(*this);
}

void Sequential::push(std::unique_ptr<Module> module) {
  modules_.push_back(std::move(module));
}

Tensor Sequential::forward(Tensor x) {
  return forward_range(std::move(x), 0, size());
}

Tensor Sequential::backward(Tensor grad_out) {
  return backward_range(std::move(grad_out), 0, size());
}

Tensor Sequential::forward_range(Tensor x, int begin, int end) {
  DPIPE_REQUIRE(begin >= 0 && begin <= end && end <= size(),
          "module range out of bounds");
  Tensor y = std::move(x);
  for (int i = begin; i < end; ++i) {
    // Adjacent Linear→SiLU pairs inside one range run fused (bias +
    // activation in the matmul epilogue). Module granularity is untouched —
    // both modules still stash their own context and backward is the plain
    // per-module pair — so planner stage cuts are unaffected, and a cut
    // that splits the pair across ranges simply runs the two modules
    // unfused, with bit-identical results.
    if (i + 1 < end) {
      auto* lin = dynamic_cast<Linear*>(modules_[i].get());
      auto* act = dynamic_cast<SiLU*>(modules_[i + 1].get());
      if (lin != nullptr && act != nullptr) {
        y = lin->forward_fused_silu(std::move(y), *act);
        ++i;
        continue;
      }
    }
    y = modules_[i]->forward(std::move(y));
  }
  return y;
}

Tensor Sequential::backward_range(Tensor grad_out, int begin, int end) {
  DPIPE_REQUIRE(begin >= 0 && begin <= end && end <= size(),
          "module range out of bounds");
  Tensor g = std::move(grad_out);
  for (int i = end - 1; i >= begin; --i) {
    g = modules_[i]->backward(std::move(g));
  }
  return g;
}

std::vector<Tensor*> Sequential::params() {
  std::vector<Tensor*> out;
  for (const auto& m : modules_) {
    for (Tensor* p : m->params()) {
      out.push_back(p);
    }
  }
  return out;
}

std::vector<Tensor*> Sequential::grads() {
  std::vector<Tensor*> out;
  for (const auto& m : modules_) {
    for (Tensor* g : m->grads()) {
      out.push_back(g);
    }
  }
  return out;
}

void Sequential::zero_grad() {
  for (const auto& m : modules_) {
    m->zero_grad();
  }
}

void Sequential::drop_context() { drop_context_range(0, size()); }

void Sequential::drop_context_range(int begin, int end) {
  DPIPE_REQUIRE(begin >= 0 && begin <= end && end <= size(),
          "module range out of bounds");
  for (int i = begin; i < end; ++i) {
    modules_[i]->drop_context();
  }
}

int Sequential::pending_contexts() const {
  int total = 0;
  for (const auto& m : modules_) {
    total += m->pending_contexts();
  }
  return total;
}

std::unique_ptr<Sequential> make_mlp_backbone(int in_features, int hidden,
                                              int depth, int out_features,
                                              Rng& rng) {
  DPIPE_REQUIRE(depth >= 1, "backbone needs at least one block");
  auto net = std::make_unique<Sequential>();
  int width = in_features;
  for (int d = 0; d < depth; ++d) {
    net->push(std::make_unique<Linear>(width, hidden, rng));
    net->push(std::make_unique<SiLU>());
    width = hidden;
  }
  net->push(std::make_unique<Linear>(width, out_features, rng));
  return net;
}

FrozenEncoder::FrozenEncoder(int in_features, int out_features, Rng& rng)
    : w1_(rng.randn({in_features, 2 * out_features},
                    1.0f / std::sqrt(static_cast<float>(in_features)))),
      b1_(Tensor::zeros({1, 2 * out_features})),
      w2_(rng.randn({2 * out_features, out_features},
                    1.0f /
                        std::sqrt(static_cast<float>(2 * out_features)))),
      b2_(Tensor::zeros({1, out_features})) {}

Tensor FrozenEncoder::encode(const Tensor& x) const {
  TensorPool& pool = TensorPool::global();
  Tensor h = pool.acquire({x.rows(), w1_.cols()});
  MatmulEpilogue ep;
  ep.silu_out = &h;  // In-place SiLU in the matmul epilogue (b1_ unused, as
                     // before: the frozen encoder has always been bias-free).
  matmul_into(h, x, w1_, kernel_mode(), ep);
  Tensor out = pool.acquire({x.rows(), w2_.cols()});
  matmul_into(out, h, w2_);
  pool.release(std::move(h));
  return out;
}

}  // namespace dpipe::rt
