#include "runtime/tensor.h"

#include <algorithm>
#include <cmath>

namespace dpipe::rt {

namespace {

std::int64_t shape_numel(const std::vector<int>& shape) {
  std::int64_t n = 1;
  for (const int d : shape) {
    DPIPE_REQUIRE(d >= 0, "tensor dimensions must be non-negative");
    n *= d;
  }
  return n;
}

void check_same_shape(const Tensor& a, const Tensor& b) {
  DPIPE_REQUIRE(a.shape() == b.shape(), "tensor shape mismatch");
}

}  // namespace

Tensor::Tensor(std::vector<int> shape) : shape_(std::move(shape)) {
  data_.assign(static_cast<std::size_t>(shape_numel(shape_)), 0.0f);
}

Tensor Tensor::zeros(std::vector<int> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::full(std::vector<int> shape, float value) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_.assign(static_cast<std::size_t>(shape_numel(t.shape_)), value);
  return t;
}

Tensor Tensor::from_storage(std::vector<int> shape, FloatStorage storage) {
  const std::int64_t n = shape_numel(shape);
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = std::move(storage);
  t.data_.resize(static_cast<std::size_t>(n));
  return t;
}

FloatStorage Tensor::release_storage() && {
  shape_.clear();
  return std::move(data_);
}

float& Tensor::at(int r, int c) {
  DPIPE_REQUIRE(r >= 0 && r < rows() && c >= 0 && c < cols(),
          "tensor index out of range");
  return data_[static_cast<std::size_t>(r) * cols() + c];
}

float Tensor::at(int r, int c) const {
  DPIPE_REQUIRE(r >= 0 && r < rows() && c >= 0 && c < cols(),
          "tensor index out of range");
  return data_[static_cast<std::size_t>(r) * cols() + c];
}

Tensor Tensor::slice_rows(int begin, int end) const {
  DPIPE_REQUIRE(begin >= 0 && begin <= end && end <= rows(),
          "row slice out of range");
  Tensor out({end - begin, cols()});
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(begin) * cols(),
            data_.begin() + static_cast<std::ptrdiff_t>(end) * cols(),
            out.data_.begin());
  return out;
}

std::uint64_t Rng::next_u64() {
  state_ ^= state_ << 13;
  state_ ^= state_ >> 7;
  state_ ^= state_ << 17;
  return state_;
}

float Rng::uniform() {
  return static_cast<float>((next_u64() >> 11) * 0x1.0p-53);
}

float Rng::normal() {
  // Box-Muller; avoid log(0).
  const float u1 = std::max(uniform(), 1e-12f);
  const float u2 = uniform();
  return std::sqrt(-2.0f * std::log(u1)) *
         std::cos(2.0f * 3.14159265358979f * u2);
}

Tensor Rng::randn(std::vector<int> shape, float scale) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = normal() * scale;
  }
  return t;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b);
  float worst = 0.0f;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

// add_inplace / sub_into / scale_inplace / axpy_inplace / sum_rows_into are
// defined in eltwise.cpp: they are hot-path ops and go through the
// SIMD-dispatched elementwise engine (same bit-exactness contract).

void fill(Tensor& t, float value) {
  std::fill(t.data(), t.data() + t.numel(), value);
}

}  // namespace dpipe::rt
