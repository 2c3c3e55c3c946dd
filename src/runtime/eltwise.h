#pragma once

#include <cstdint>

#include "runtime/tensor.h"

namespace dpipe::rt {

// Vectorized elementwise / optimizer engine (DESIGN.md §13). Every op here
// dispatches on the same DPIPE_SIMD level as the matmul microkernels
// (simd.h) and fans wide sweeps out over the shared executor, under
// the same exactness contract: results are bit-identical across SIMD
// levels, kernel modes, and thread counts. Transcendentals go through the
// deterministic polynomial exp below, never libm.

/// The runtime's exp: a self-contained polynomial approximation
/// (|rel err| < 4 ulp vs correctly-rounded expf, clamped to [-87, 88])
/// whose scalar and vector implementations execute identical IEEE op
/// sequences, so every DPIPE_SIMD level produces the same bits. This is
/// the only transcendental the runtime uses.
[[nodiscard]] float deterministic_exp(float x);

/// out[i] = deterministic_exp(x[i]). Shapes must match; out may be x.
void exp_into(Tensor& out, const Tensor& x);

/// out[i] = 1 / (1 + deterministic_exp(-x[i])). out may be x.
void sigmoid_into(Tensor& out, const Tensor& x);

/// out[i] = x[i] * sigmoid(x[i]). out may be x.
void silu_into(Tensor& out, const Tensor& x);

/// gin[i] = gout[i] * (s + x[i] * s * (1 - s)), s = sigmoid(x[i]).
/// gin may alias x or gout.
void silu_backward_into(Tensor& gin, const Tensor& x, const Tensor& gout);

/// y[r][j] += bias[j] for every row r; bias.numel() must equal y.cols().
void bias_add_inplace(Tensor& y, const Tensor& bias);

/// out[i] = (a[i] - b[i]) * s; one subtract and one multiply per element.
/// out may alias a or b.
void sub_scale_into(Tensor& out, const Tensor& a, const Tensor& b, float s);

/// Raw-pointer fused out[i] = alpha * x[i] + beta * y[i] for row fragments
/// (ddpm batch assembly); out may alias x or y. Not threaded — callers use
/// it on short rows inside their own loops.
void eltwise_axpby(float* out, const float* x, const float* y, float alpha,
                   float beta, std::int64_t n);

/// Fused Adam step: reads p/g/m/v exactly once, writes p/m/v exactly once.
/// The per-element recurrence is bit-identical to the historical scalar
/// loop in optim.cpp (see eltwise_impl.h for the exact op order):
///   m' = beta1*m + (1-beta1)*g
///   v' = beta2*v + ((1-beta2)*g)*g
///   p' = p - (lr * (m'/bc1)) / (sqrt(v'/bc2) + eps)
/// bc1/bc2 are the bias corrections 1 - beta^t, computed by the caller so
/// this op stays stateless. All four tensors must have equal numel; none
/// may alias another.
void eltwise_adam(Tensor& p, const Tensor& g, Tensor& m, Tensor& v, float lr,
                  float beta1, float beta2, float eps, float bc1, float bc2);

}  // namespace dpipe::rt
