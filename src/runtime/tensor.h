#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "common/error.h"

namespace dpipe::rt {

/// Every tensor (and pooled packing buffer) starts on a 64-byte boundary:
/// one cache line, and wide enough for aligned AVX-512 loads. The SIMD
/// microkernels rely on this for aligned panel loads, and the TensorPool
/// rounds its buckets up to this granule (pool.h).
inline constexpr std::size_t kTensorAlignment = 64;

/// Minimal allocator that hands out kTensorAlignment-aligned storage via
/// C++17 aligned operator new. Stateless: all instances are interchangeable,
/// so vectors with this allocator move storage freely between owners (the
/// TensorPool free lists depend on that).
template <typename T>
class AlignedAllocator {
 public:
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kTensorAlignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kTensorAlignment});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

/// The storage type behind every Tensor: a float vector whose data() is
/// always kTensorAlignment-aligned.
using FloatStorage = std::vector<float, AlignedAllocator<float>>;

/// Minimal dense float tensor (row-major, rank <= 2 in practice) backing the
/// functional mini-training runtime. Hot paths use the out-parameter kernels
/// (runtime/kernels.h) and recycled storage (runtime/pool.h); the
/// value-returning helpers below remain as thin wrappers for tests and cold
/// paths.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<int> shape);

  [[nodiscard]] static Tensor zeros(std::vector<int> shape);
  [[nodiscard]] static Tensor full(std::vector<int> shape, float value);

  /// Wraps recycled storage (TensorPool's hook): the buffer is resized to
  /// the shape's element count; any recycled contents are preserved, so the
  /// result must be fully overwritten before use.
  [[nodiscard]] static Tensor from_storage(std::vector<int> shape,
                                           FloatStorage storage);
  /// Extracts the storage buffer, leaving the tensor undefined.
  [[nodiscard]] FloatStorage release_storage() &&;

  [[nodiscard]] const std::vector<int>& shape() const { return shape_; }
  [[nodiscard]] std::int64_t numel() const {
    return static_cast<std::int64_t>(data_.size());
  }
  [[nodiscard]] int rows() const { return shape_.empty() ? 0 : shape_[0]; }
  [[nodiscard]] int cols() const {
    return shape_.size() < 2 ? (shape_.empty() ? 0 : 1) : shape_[1];
  }
  [[nodiscard]] bool defined() const { return !shape_.empty(); }

  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }
  [[nodiscard]] float& at(int r, int c);
  [[nodiscard]] float at(int r, int c) const;

  /// Rows [begin, end) as a new tensor (copy).
  [[nodiscard]] Tensor slice_rows(int begin, int end) const;

 private:
  std::vector<int> shape_;
  FloatStorage data_;
};

/// Deterministic xorshift64-based normal sampler (Box-Muller). A zero seed
/// is remapped in the constructor: xorshift's only fixed point is 0, so a
/// zero state would lock the generator into an all-zero stream forever.
class Rng {
 public:
  explicit Rng(std::uint64_t seed)
      : state_(seed != 0 ? seed : 0x9E3779B97F4A7C15ull) {}
  [[nodiscard]] float uniform();        ///< [0, 1)
  [[nodiscard]] float normal();         ///< N(0, 1)
  [[nodiscard]] std::uint64_t next_u64();
  [[nodiscard]] Tensor randn(std::vector<int> shape, float scale = 1.0f);

 private:
  std::uint64_t state_;
};

/// max |a - b| over all elements.
[[nodiscard]] float max_abs_diff(const Tensor& a, const Tensor& b);

// In-place / out-parameter variants used by the hot paths (all fully
// overwrite or accumulate into existing storage — no allocation).
void add_inplace(Tensor& a, const Tensor& b);    ///< a += b
void sub_into(Tensor& out, const Tensor& a, const Tensor& b);
void scale_inplace(Tensor& a, float s);          ///< a *= s
void axpy_inplace(Tensor& y, const Tensor& x, float alpha);  ///< y += a*x
void sum_rows_into(Tensor& out, const Tensor& a);
void fill(Tensor& t, float value);

}  // namespace dpipe::rt
