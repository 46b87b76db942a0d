// Dense row-major float tensor.
//
// This is the compute representation used by garfield::nn for activations,
// weights and gradients. It deliberately stays small: contiguous storage,
// a shape, and the handful of BLAS-like kernels a CNN/MLP needs. The wire
// representation is tensor::FlatVector (see vecops.h); Module::gradient()
// flattens into it.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "tensor/rng.h"

namespace garfield::tensor {

/// Shape of a tensor, e.g. {batch, channels, h, w}.
using Shape = std::vector<std::size_t>;

[[nodiscard]] std::size_t shape_numel(const Shape& shape);
[[nodiscard]] std::string shape_to_string(const Shape& shape);

/// Contiguous row-major dense tensor of float.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape);
  Tensor(Shape shape, float fill);
  Tensor(Shape shape, std::vector<float> values);

  [[nodiscard]] static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  [[nodiscard]] static Tensor full(Shape shape, float v) { return Tensor(std::move(shape), v); }
  /// N(mean, stddev) entries.
  [[nodiscard]] static Tensor randn(Shape shape, Rng& rng, float mean = 0.0F,
                                    float stddev = 1.0F);
  /// U(lo, hi) entries.
  [[nodiscard]] static Tensor rand_uniform(Shape shape, Rng& rng, float lo,
                                           float hi);

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  [[nodiscard]] std::size_t numel() const { return data_.size(); }
  [[nodiscard]] std::size_t dim(std::size_t i) const { return shape_.at(i); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] std::span<float> data() { return data_; }
  [[nodiscard]] std::span<const float> data() const { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// 2-D indexed access; tensor must have rank 2.
  float& at(std::size_t r, std::size_t c);
  float at(std::size_t r, std::size_t c) const;

  /// Reinterpret the same storage with a new shape of identical numel.
  [[nodiscard]] Tensor reshaped(Shape shape) const;
  /// reshaped() in place, without copying the storage.
  void reshape(Shape shape);

  void fill(float v);
  void zero() { fill(0.0F); }

  Tensor& operator+=(const Tensor& rhs);
  Tensor& operator-=(const Tensor& rhs);
  Tensor& operator*=(float alpha);

  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] float max() const;
  /// Index of the maximum element (first on ties).
  [[nodiscard]] std::size_t argmax() const;

 private:
  Shape shape_;
  std::vector<float> data_;
};

// GEMM kernels on raw row-major storage. Each one accumulates into c
// (c += ...), so a caller can pre-fill c with a bias or a running sum.
// Every output element is summed in an order spelled out in tensor.cpp,
// never left to the compiler: the vectorized loops run across independent
// outputs or across fixed partial sums, so the result does not depend on
// the vector width of the build target. The kernels are single-threaded;
// callers already run one gradient per pool thread.

/// c {m,n} += a {m,k} · b {k,n}. Each c(i,j) adds a(i,p)·b(p,j) one at a
/// time in ascending p, starting from its previous value.
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             const float* b, float* c);

/// c {m,n} += a {m,k} · b {n,k}^T. Each c(i,j) adds one dot product of two
/// contiguous rows, summed as eight interleaved partial sums (lane p mod 8)
/// over the whole blocks of eight, reduced pairwise, then the tail in
/// ascending p.
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a,
             const float* b, float* c);

/// c {m,n} += a {k,m}^T · b {k,n}. Same order as gemm_nn.
void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             const float* b, float* c);

/// out = a @ b for rank-2 tensors: (m,k) x (k,n) -> (m,n). Summed as
/// gemm_nn from zero; data::make_teacher_dataset depends on this order.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

/// Rank-2 transpose.
[[nodiscard]] Tensor transpose(const Tensor& a);

}  // namespace garfield::tensor
