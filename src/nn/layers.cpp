#include "nn/layers.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

namespace garfield::nn {

using tensor::Shape;

namespace {

// Give a cached buffer `shape`, reallocating only when the shape changed.
// The contents are stale afterwards; callers overwrite them.
void reuse(Tensor& buffer, const Shape& shape) {
  if (buffer.shape() != shape) buffer = Tensor(shape);
}

}  // namespace

// ---------------------------------------------------------------- Linear

Linear::Linear(std::size_t in_features, std::size_t out_features,
               tensor::Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_(Tensor::randn({out_features, in_features}, rng, 0.0F,
                            std::sqrt(2.0F / float(in_features)))),
      bias_(Tensor::zeros({out_features})),
      grad_weight_(Tensor::zeros({out_features, in_features})),
      grad_bias_(Tensor::zeros({out_features})) {}

Tensor Linear::forward(Tensor input, bool /*train*/) {
  assert(input.rank() == 2 && input.dim(1) == in_);
  input_cache_ = std::move(input);
  const std::size_t b = input_cache_.dim(0);
  Tensor out({b, out_});
  for (std::size_t i = 0; i < b; ++i)
    std::copy(bias_.data().begin(), bias_.data().end(),
              out.data().begin() + long(i * out_));
  // y = b + x W^T: {b,in} x {out,in}^T.
  tensor::gemm_nt(b, out_, in_, input_cache_.data().data(),
                  weight_.data().data(), out.data().data());
  return out;
}

Tensor Linear::backward(Tensor grad_output) {
  // dX = dY @ W ({b,out} x {out,in})
  Tensor grad_input = tensor::matmul(grad_output, weight_);
  backward_params(std::move(grad_output));
  return grad_input;
}

void Linear::backward_params(Tensor grad_output) {
  assert(grad_output.rank() == 2 && grad_output.dim(1) == out_);
  const std::size_t b = grad_output.dim(0);
  // dW += dY^T @ X  ({out,b} x {b,in})
  tensor::gemm_tn(out_, in_, b, grad_output.data().data(),
                  input_cache_.data().data(), grad_weight_.data().data());
  for (std::size_t i = 0; i < b; ++i)
    for (std::size_t j = 0; j < out_; ++j)
      grad_bias_[j] += grad_output.at(i, j);
}

std::vector<Param> Linear::params() {
  return {{&weight_, &grad_weight_}, {&bias_, &grad_bias_}};
}

// ---------------------------------------------------------------- ReLU

Tensor ReLU::forward(Tensor input, bool /*train*/) {
  reuse(mask_, input.shape());
  float* x = input.data().data();
  float* mask = mask_.data().data();
  for (std::size_t i = 0; i < input.numel(); ++i) {
    const bool on = x[i] > 0.0F;
    mask[i] = on ? 1.0F : 0.0F;
    x[i] = on ? x[i] : 0.0F;
  }
  return input;
}

Tensor ReLU::backward(Tensor grad_output) {
  assert(grad_output.numel() == mask_.numel());
  float* g = grad_output.data().data();
  const float* mask = mask_.data().data();
  for (std::size_t i = 0; i < grad_output.numel(); ++i) g[i] *= mask[i];
  return grad_output;
}

// ---------------------------------------------------------------- Tanh

Tensor Tanh::forward(Tensor input, bool /*train*/) {
  for (std::size_t i = 0; i < input.numel(); ++i)
    input[i] = std::tanh(input[i]);
  output_cache_ = input;
  return input;
}

Tensor Tanh::backward(Tensor grad_output) {
  for (std::size_t i = 0; i < grad_output.numel(); ++i)
    grad_output[i] *= 1.0F - output_cache_[i] * output_cache_[i];
  return grad_output;
}

// ---------------------------------------------------------------- Conv2d

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding,
               tensor::Rng& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_(Tensor::randn(
          {out_channels, in_channels * kernel * kernel}, rng, 0.0F,
          std::sqrt(2.0F / float(in_channels * kernel * kernel)))),
      bias_(Tensor::zeros({out_channels})),
      grad_weight_(Tensor::zeros({out_channels, in_channels * kernel * kernel})),
      grad_bias_(Tensor::zeros({out_channels})) {}

namespace {

// [lo, hi): the output positions o whose input position
// o*stride + tap - padding lies inside [0, size), clamped to [0, out).
std::pair<std::size_t, std::size_t> valid_range(std::size_t tap,
                                                std::size_t stride,
                                                std::size_t padding,
                                                std::size_t size,
                                                std::size_t out) {
  const std::size_t lo =
      tap >= padding ? 0 : (padding - tap + stride - 1) / stride;
  const std::size_t hi =
      size + padding > tap ? (size + padding - tap + stride - 1) / stride : 0;
  return {std::min(lo, out), std::min(hi, out)};
}

// One image {c, h, w} to columns {c*k*k, oh*ow}, as in Caffe: row
// (ch*k + ky)*k + kx holds, at column oy*ow + ox, the input pixel that tap
// (ky, kx) of output (oy, ox) reads, or 0 in the padding.
void im2col(const float* image, std::size_t c, std::size_t h, std::size_t w,
            std::size_t kernel, std::size_t stride, std::size_t padding,
            std::size_t oh, std::size_t ow, float* cols) {
  for (std::size_t ch = 0; ch < c; ++ch) {
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      const auto [y_lo, y_hi] = valid_range(ky, stride, padding, h, oh);
      for (std::size_t kx = 0; kx < kernel; ++kx) {
        const auto [x_lo, x_hi] = valid_range(kx, stride, padding, w, ow);
        float* row = cols + ((ch * kernel + ky) * kernel + kx) * oh * ow;
        std::fill(row, row + oh * ow, 0.0F);
        for (std::size_t oy = y_lo; oy < y_hi; ++oy) {
          const float* src = image + (ch * h + oy * stride + ky - padding) * w;
          float* dst = row + oy * ow;
          for (std::size_t ox = x_lo; ox < x_hi; ++ox)
            dst[ox] = src[ox * stride + kx - padding];
        }
      }
    }
  }
}

// Adjoint of im2col: add every column entry back onto the pixel it was
// read from, in row order, so each pixel's sum has a fixed order.
void col2im(const float* cols, std::size_t c, std::size_t h, std::size_t w,
            std::size_t kernel, std::size_t stride, std::size_t padding,
            std::size_t oh, std::size_t ow, float* image) {
  for (std::size_t ch = 0; ch < c; ++ch) {
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      const auto [y_lo, y_hi] = valid_range(ky, stride, padding, h, oh);
      for (std::size_t kx = 0; kx < kernel; ++kx) {
        const auto [x_lo, x_hi] = valid_range(kx, stride, padding, w, ow);
        const float* row = cols + ((ch * kernel + ky) * kernel + kx) * oh * ow;
        for (std::size_t oy = y_lo; oy < y_hi; ++oy) {
          float* dst = image + (ch * h + oy * stride + ky - padding) * w;
          const float* src = row + oy * ow;
          for (std::size_t ox = x_lo; ox < x_hi; ++ox)
            dst[ox * stride + kx - padding] += src[ox];
        }
      }
    }
  }
}

}  // namespace

Tensor Conv2d::forward(Tensor input, bool train) {
  assert(input.rank() == 4 && input.dim(1) == in_ch_);
  input_shape_ = input.shape();
  const std::size_t b = input.dim(0), h = input.dim(2), w = input.dim(3);
  const std::size_t oh = out_size(h), ow = out_size(w);
  const std::size_t ckk = in_ch_ * kernel_ * kernel_, spatial = oh * ow;
  // Training keeps every image's columns for backward; evaluation lowers
  // each image into the same slot.
  reuse(cols_, {train ? b : 1, ckk, spatial});
  Tensor out({b, out_ch_, oh, ow});
  for (std::size_t n = 0; n < b; ++n) {
    float* cols = cols_.data().data() + (train ? n : 0) * ckk * spatial;
    im2col(input.data().data() + n * in_ch_ * h * w, in_ch_, h, w, kernel_,
           stride_, padding_, oh, ow, cols);
    // Y_n = bias + W cols: {out_ch, ckk} x {ckk, oh*ow}, already NCHW.
    float* y = out.data().data() + n * out_ch_ * spatial;
    for (std::size_t ch = 0; ch < out_ch_; ++ch)
      std::fill(y + ch * spatial, y + (ch + 1) * spatial, bias_[ch]);
    tensor::gemm_nn(out_ch_, spatial, ckk, weight_.data().data(), cols, y);
  }
  return out;
}

Tensor Conv2d::backward(Tensor grad_output) {
  return backprop(grad_output, /*input_grad=*/true);
}

void Conv2d::backward_params(Tensor grad_output) {
  (void)backprop(grad_output, /*input_grad=*/false);
}

Tensor Conv2d::backprop(const Tensor& grad_output, bool input_grad) {
  const std::size_t b = input_shape_[0], h = input_shape_[2],
                    w = input_shape_[3];
  const std::size_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  const std::size_t ckk = in_ch_ * kernel_ * kernel_, spatial = oh * ow;
  assert(cols_.dim(0) == b);  // backward needs a train=true forward
  Tensor grad_input;
  if (input_grad) {
    reuse(dcols_, {ckk, spatial});
    grad_input = Tensor(input_shape_);
  }
  for (std::size_t n = 0; n < b; ++n) {
    const float* dy = grad_output.data().data() + n * out_ch_ * spatial;
    const float* cols = cols_.data().data() + n * ckk * spatial;
    // dW += dY_n cols_n^T: {out_ch, oh*ow} x {ckk, oh*ow}^T.
    tensor::gemm_nt(out_ch_, ckk, spatial, dy, cols,
                    grad_weight_.data().data());
    for (std::size_t ch = 0; ch < out_ch_; ++ch) {
      float sum = grad_bias_[ch];
      for (std::size_t s = 0; s < spatial; ++s) sum += dy[ch * spatial + s];
      grad_bias_[ch] = sum;
    }
    if (!input_grad) continue;
    // dcols = W^T dY_n: {out_ch, ckk}^T x {out_ch, oh*ow}.
    dcols_.zero();
    tensor::gemm_tn(ckk, spatial, out_ch_, weight_.data().data(), dy,
                    dcols_.data().data());
    col2im(dcols_.data().data(), in_ch_, h, w, kernel_, stride_, padding_, oh,
           ow, grad_input.data().data() + n * in_ch_ * h * w);
  }
  return grad_input;
}

std::vector<Param> Conv2d::params() {
  return {{&weight_, &grad_weight_}, {&bias_, &grad_bias_}};
}

// ---------------------------------------------------------------- MaxPool2d

MaxPool2d::MaxPool2d(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride) {}

Tensor MaxPool2d::forward(Tensor input, bool /*train*/) {
  assert(input.rank() == 4);
  input_shape_ = input.shape();
  const std::size_t b = input.dim(0), c = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  const std::size_t oh = (h - kernel_) / stride_ + 1;
  const std::size_t ow = (w - kernel_) / stride_ + 1;
  Tensor out({b, c, oh, ow});
  argmax_.assign(out.numel(), 0);
  const float* in = input.data().data();
  for (std::size_t n = 0; n < b; ++n) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = in + (n * c + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              const std::size_t iy = oy * stride_ + ky;
              const std::size_t ix = ox * stride_ + kx;
              const float v = plane[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = (n * c + ch) * h * w + iy * w + ix;
              }
            }
          }
          const std::size_t o = ((n * c + ch) * oh + oy) * ow + ox;
          out.data()[o] = best;
          argmax_[o] = best_idx;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward(Tensor grad_output) {
  Tensor grad_input(input_shape_);
  for (std::size_t o = 0; o < grad_output.numel(); ++o)
    grad_input[argmax_[o]] += grad_output[o];
  return grad_input;
}

// ---------------------------------------------------------------- Flatten

Tensor Flatten::forward(Tensor input, bool /*train*/) {
  input_shape_ = input.shape();
  const std::size_t b = input.dim(0);
  input.reshape({b, input.numel() / b});
  return input;
}

Tensor Flatten::backward(Tensor grad_output) {
  grad_output.reshape(input_shape_);
  return grad_output;
}

// ---------------------------------------------------------------- Dropout

Dropout::Dropout(double p, tensor::Rng& rng) : p_(p), rng_(rng.fork(0xd0)) {}

Tensor Dropout::forward(Tensor input, bool train) {
  if (!train || p_ <= 0.0) {
    mask_ = Tensor();
    return input;
  }
  mask_ = Tensor::zeros(input.shape());
  const float keep_scale = 1.0F / float(1.0 - p_);
  for (std::size_t i = 0; i < input.numel(); ++i) {
    if (rng_.bernoulli(1.0 - p_)) {
      mask_[i] = keep_scale;
      input[i] *= keep_scale;
    } else {
      input[i] = 0.0F;
    }
  }
  return input;
}

Tensor Dropout::backward(Tensor grad_output) {
  if (mask_.empty()) return grad_output;
  for (std::size_t i = 0; i < grad_output.numel(); ++i)
    grad_output[i] *= mask_[i];
  return grad_output;
}

// ---------------------------------------------------------------- Residual

Tensor Residual::forward(Tensor input, bool train) {
  Tensor out = inner_->forward(input, train);
  assert(out.shape() == input.shape());
  out += input;
  return out;
}

Tensor Residual::backward(Tensor grad_output) {
  Tensor grad = inner_->backward(grad_output);
  grad += grad_output;  // the skip path
  return grad;
}

// ------------------------------------------------------------ ChannelConcat

Tensor ChannelConcat::forward(Tensor input, bool train) {
  assert(input.rank() == 4);
  input_shape_ = input.shape();
  std::vector<Tensor> outputs;
  outputs.reserve(branches_.size());
  branch_channels_.clear();
  std::size_t total_channels = 0;
  for (ModulePtr& branch : branches_) {
    Tensor out = branch->forward(input, train);
    assert(out.rank() == 4 && out.dim(0) == input.dim(0));
    assert(outputs.empty() || (out.dim(2) == outputs[0].dim(2) &&
                               out.dim(3) == outputs[0].dim(3)));
    branch_channels_.push_back(out.dim(1));
    total_channels += out.dim(1);
    outputs.push_back(std::move(out));
  }
  const std::size_t b = input.dim(0);
  const std::size_t h = outputs[0].dim(2), w = outputs[0].dim(3);
  Tensor result({b, total_channels, h, w});
  for (std::size_t n = 0; n < b; ++n) {
    std::size_t channel_offset = 0;
    for (std::size_t k = 0; k < outputs.size(); ++k) {
      const Tensor& out = outputs[k];
      const std::size_t c = branch_channels_[k];
      std::copy(out.data().begin() + long(n * c * h * w),
                out.data().begin() + long((n + 1) * c * h * w),
                result.data().begin() +
                    long(((n * total_channels) + channel_offset) * h * w));
      channel_offset += c;
    }
  }
  return result;
}

Tensor ChannelConcat::backward(Tensor grad_output) {
  const std::size_t b = grad_output.dim(0);
  const std::size_t total_channels = grad_output.dim(1);
  const std::size_t h = grad_output.dim(2), w = grad_output.dim(3);
  Tensor grad_input(input_shape_);
  std::size_t channel_offset = 0;
  for (std::size_t k = 0; k < branches_.size(); ++k) {
    const std::size_t c = branch_channels_[k];
    Tensor branch_grad({b, c, h, w});
    for (std::size_t n = 0; n < b; ++n) {
      std::copy(grad_output.data().begin() +
                    long(((n * total_channels) + channel_offset) * h * w),
                grad_output.data().begin() +
                    long(((n * total_channels) + channel_offset + c) * h * w),
                branch_grad.data().begin() + long(n * c * h * w));
    }
    grad_input += branches_[k]->backward(std::move(branch_grad));
    channel_offset += c;
  }
  return grad_input;
}

std::vector<Param> ChannelConcat::params() {
  std::vector<Param> all;
  for (ModulePtr& branch : branches_) {
    std::vector<Param> p = branch->params();
    all.insert(all.end(), p.begin(), p.end());
  }
  return all;
}

// ---------------------------------------------------------------- Sequential

Tensor Sequential::forward(Tensor input, bool train) {
  for (ModulePtr& m : modules_) input = m->forward(std::move(input), train);
  return input;
}

Tensor Sequential::backward(Tensor grad_output) {
  for (auto it = modules_.rbegin(); it != modules_.rend(); ++it)
    grad_output = (*it)->backward(std::move(grad_output));
  return grad_output;
}

void Sequential::backward_params(Tensor grad_output) {
  if (modules_.empty()) return;
  for (auto it = modules_.rbegin(); std::next(it) != modules_.rend(); ++it)
    grad_output = (*it)->backward(std::move(grad_output));
  modules_.front()->backward_params(std::move(grad_output));
}

std::vector<Param> Sequential::params() {
  std::vector<Param> all;
  for (ModulePtr& m : modules_) {
    std::vector<Param> p = m->params();
    all.insert(all.end(), p.begin(), p.end());
  }
  return all;
}

}  // namespace garfield::nn
