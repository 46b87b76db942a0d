#include "tensor/tensor.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace garfield::tensor {

std::size_t shape_numel(const Shape& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return shape.empty() ? 0 : n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0F) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(shape_numel(shape_), fill) {}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  if (data_.size() != shape_numel(shape_)) {
    throw std::invalid_argument("Tensor: values size " +
                                std::to_string(data_.size()) +
                                " does not match shape " +
                                shape_to_string(shape_));
  }
}

Tensor Tensor::randn(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) v = rng.normal(mean, stddev);
  return t;
}

Tensor Tensor::rand_uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) v = rng.uniform(lo, hi);
  return t;
}

float& Tensor::at(std::size_t r, std::size_t c) {
  assert(rank() == 2);
  return data_[r * shape_[1] + c];
}

float Tensor::at(std::size_t r, std::size_t c) const {
  assert(rank() == 2);
  return data_[r * shape_[1] + c];
}

Tensor Tensor::reshaped(Shape shape) const {
  Tensor t = *this;
  t.reshape(std::move(shape));
  return t;
}

void Tensor::reshape(Shape shape) {
  if (shape_numel(shape) != numel()) {
    throw std::invalid_argument("Tensor::reshape: numel mismatch " +
                                shape_to_string(shape_) + " -> " +
                                shape_to_string(shape));
  }
  shape_ = std::move(shape);
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

Tensor& Tensor::operator+=(const Tensor& rhs) {
  assert(numel() == rhs.numel());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& rhs) {
  assert(numel() == rhs.numel());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float alpha) {
  for (float& v : data_) v *= alpha;
  return *this;
}

double Tensor::sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0);
}

double Tensor::mean() const { return empty() ? 0.0 : sum() / double(numel()); }

float Tensor::max() const {
  assert(!empty());
  return *std::max_element(data_.begin(), data_.end());
}

std::size_t Tensor::argmax() const {
  assert(!empty());
  return std::size_t(std::distance(
      data_.begin(), std::max_element(data_.begin(), data_.end())));
}

namespace {

// c {m,n} += A·b, where A(i,p) = a[i*a_row + p*a_col] and b is {k,n}.
// Each c(i,j) is summed in ascending p, one product at a time. Four rows
// of b are applied per sweep of the c row, so it is loaded and stored a
// quarter as often; the inner loop runs across j, so vectorizing it keeps
// every element's order as written.
void gemm_rows(std::size_t m, std::size_t n, std::size_t k, const float* a,
               std::size_t a_row, std::size_t a_col, const float* b,
               float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * a_row;
    float* crow = c + i * n;
    std::size_t p = 0;
    for (; p + 4 <= k; p += 4) {
      const float a0 = arow[p * a_col], a1 = arow[(p + 1) * a_col],
                  a2 = arow[(p + 2) * a_col], a3 = arow[(p + 3) * a_col];
      const float* b0 = b + p * n;
      const float* b1 = b0 + n;
      const float* b2 = b1 + n;
      const float* b3 = b2 + n;
      for (std::size_t j = 0; j < n; ++j)
        crow[j] = (((crow[j] + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) +
                  a3 * b3[j];
    }
    for (; p < k; ++p) {
      const float ap = arow[p * a_col];
      const float* bp = b + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += ap * bp[j];
    }
  }
}

// Dot product of two contiguous rows in the order gemm_nt documents.
float dot_rows(const float* x, const float* y, std::size_t k) {
  float lane[8] = {};
  std::size_t p = 0;
  for (; p + 8 <= k; p += 8)
    for (std::size_t l = 0; l < 8; ++l) lane[l] += x[p + l] * y[p + l];
  float sum = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
              ((lane[4] + lane[5]) + (lane[6] + lane[7]));
  for (; p < k; ++p) sum += x[p] * y[p];
  return sum;
}

}  // namespace

void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             const float* b, float* c) {
  gemm_rows(m, n, k, a, k, 1, b, c);
}

void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             const float* b, float* c) {
  gemm_rows(m, n, k, a, 1, m, b, c);
}

void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a,
             const float* b, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) crow[j] += dot_rows(arow, b + j * k, k);
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  assert(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(0));
  Tensor out({a.dim(0), b.dim(1)});
  gemm_nn(a.dim(0), b.dim(1), a.dim(1), a.data().data(), b.data().data(),
          out.data().data());
  return out;
}

Tensor transpose(const Tensor& a) {
  assert(a.rank() == 2);
  const std::size_t m = a.dim(0), n = a.dim(1);
  Tensor out({n, m});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) out.at(j, i) = a.at(i, j);
  return out;
}

}  // namespace garfield::tensor
