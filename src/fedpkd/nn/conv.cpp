#include "fedpkd/nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fedpkd/tensor/kernels.hpp"
#include "fedpkd/tensor/workspace.hpp"

namespace fedpkd::nn {

namespace {

std::size_t conv_out_dim(std::size_t in, std::size_t kernel,
                         std::size_t stride, std::size_t padding) {
  const std::size_t padded = in + 2 * padding;
  if (padded < kernel) {
    throw std::invalid_argument("Conv2d: kernel larger than padded input");
  }
  // Standard floor semantics: trailing pixels that do not fit a full stride
  // are dropped, as in every mainstream framework.
  return (padded - kernel) / stride + 1;
}

}  // namespace

Conv2d::Conv2d(ImageShape input, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t padding, Rng& rng,
               std::string name)
    : input_(input),
      output_{out_channels, conv_out_dim(input.height, kernel, stride, padding),
              conv_out_dim(input.width, kernel, stride, padding)},
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_(name + ".weight",
              Tensor::randn(
                  {input.channels * kernel * kernel, out_channels}, rng, 0.0f,
                  std::sqrt(2.0f / static_cast<float>(input.channels * kernel *
                                                      kernel)))),
      bias_(name + ".bias", Tensor::zeros({out_channels})) {
  if (input.numel() == 0 || out_channels == 0 || kernel == 0 || stride == 0) {
    throw std::invalid_argument("Conv2d: zero-sized argument");
  }
}

Conv2d::Conv2d(ImageShape input, ImageShape output, std::size_t kernel,
               std::size_t stride, std::size_t padding, Parameter w,
               Parameter b)
    : input_(input),
      output_(output),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_(std::move(w)),
      bias_(std::move(b)) {}

void Conv2d::im2col(const float* sample, float* out) const {
  for (std::size_t oy = 0; oy < output_.height; ++oy) {
    for (std::size_t ox = 0; ox < output_.width; ++ox) {
      for (std::size_t c = 0; c < input_.channels; ++c) {
        const float* plane = sample + c * input_.height * input_.width;
        for (std::size_t ky = 0; ky < kernel_; ++ky) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
              static_cast<std::ptrdiff_t>(padding_);
          for (std::size_t kx = 0; kx < kernel_; ++kx) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                static_cast<std::ptrdiff_t>(padding_);
            const bool inside =
                iy >= 0 && ix >= 0 &&
                iy < static_cast<std::ptrdiff_t>(input_.height) &&
                ix < static_cast<std::ptrdiff_t>(input_.width);
            *out++ = inside ? plane[static_cast<std::size_t>(iy) *
                                        input_.width +
                                    static_cast<std::size_t>(ix)]
                            : 0.0f;
          }
        }
      }
    }
  }
}

void Conv2d::col2im(const float* in, float* sample_grad) const {
  for (std::size_t oy = 0; oy < output_.height; ++oy) {
    for (std::size_t ox = 0; ox < output_.width; ++ox) {
      for (std::size_t c = 0; c < input_.channels; ++c) {
        float* plane = sample_grad + c * input_.height * input_.width;
        for (std::size_t ky = 0; ky < kernel_; ++ky) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
              static_cast<std::ptrdiff_t>(padding_);
          for (std::size_t kx = 0; kx < kernel_; ++kx) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                static_cast<std::ptrdiff_t>(padding_);
            const float v = *in++;
            if (iy >= 0 && ix >= 0 &&
                iy < static_cast<std::ptrdiff_t>(input_.height) &&
                ix < static_cast<std::ptrdiff_t>(input_.width)) {
              plane[static_cast<std::size_t>(iy) * input_.width +
                    static_cast<std::size_t>(ix)] += v;
            }
          }
        }
      }
    }
  }
}

namespace {

/// Position-major [positions, out_ch] copy of one sample's channel-major
/// output gradient.
void position_major(const float* g, float* gpm, std::size_t positions,
                    std::size_t channels) {
  for (std::size_t p = 0; p < positions; ++p) {
    for (std::size_t oc = 0; oc < channels; ++oc) {
      gpm[p * channels + oc] = g[oc * positions + p];
    }
  }
}

}  // namespace

void Conv2d::forward_samples(const Tensor& x, float* y, std::size_t r0,
                             std::size_t r1) const {
  const std::size_t positions = this->positions(), patch = this->patch();
  tensor::Workspace::Scope scope(tensor::Workspace::per_thread());
  float* columns = scope.take(positions * patch).data();
  float* product = scope.take(positions * output_.channels).data();
  for (std::size_t b = r0; b < r1; ++b) {
    im2col(x.data() + b * input_.numel(), columns);
    // [positions, patch] x [patch, out_ch] -> [positions, out_ch].
    tensor::kernels::matmul_rows(columns, weight_.value.data(), product, patch,
                                 output_.channels, 0, positions);
    // Transpose to channel-major C,H,W rows expected by downstream layers.
    float* dst = y + b * output_.numel();
    for (std::size_t p = 0; p < positions; ++p) {
      for (std::size_t oc = 0; oc < output_.channels; ++oc) {
        dst[oc * positions + p] =
            product[p * output_.channels + oc] + bias_.value[oc];
      }
    }
  }
}

void Conv2d::forward_eval_into(const Tensor& x, Tensor& out) {
  if (x.rank() != 2 || x.cols() != input_.numel()) {
    throw std::invalid_argument("Conv2d::forward: expected [batch, " +
                                std::to_string(input_.numel()) + "], got " +
                                x.shape_string());
  }
  out.ensure_shape({x.rows(), output_.numel()});
  forward_samples(x, out.data(), 0, x.rows());
}

void Conv2d::prepare(std::size_t m, std::size_t in_cols) {
  if (in_cols != input_.numel()) {
    throw std::invalid_argument("Conv2d::forward: expected [batch, " +
                                std::to_string(input_.numel()) + "], got [" +
                                std::to_string(m) + ", " +
                                std::to_string(in_cols) + "]");
  }
  y_.ensure_shape({m, output_.numel()});
  gx_.ensure_shape({m, input_.numel()});
}

void Conv2d::forward_rows(const Tensor& x, std::size_t r0, std::size_t r1) {
  if (r0 == 0) x_ = &x;
  forward_samples(x, y_.data(), r0, r1);
}

void Conv2d::backward_rows(const Tensor& gy, std::size_t r0, std::size_t r1) {
  if (r0 == 0) gy_ = &gy;
  const std::size_t positions = this->positions(), patch = this->patch();
  const std::size_t channels = output_.channels;
  tensor::Workspace::Scope scope(tensor::Workspace::per_thread());
  // dx = gout W^T -> col2im, with W transposed once for all of this lane's
  // samples, not per sample as kernels::matmul_tb_rows would pack it.
  float* wt = scope.take(patch * channels).data();
  tensor::kernels::transpose_blocked(weight_.value.data(), wt, patch, channels);
  float* gpm = scope.take(positions * channels).data();
  float* dcolumns = scope.take(positions * patch).data();
  for (std::size_t b = r0; b < r1; ++b) {
    position_major(gy.data() + b * output_.numel(), gpm, positions, channels);
    tensor::kernels::matmul_rows(gpm, wt, dcolumns, channels, patch, 0,
                                 positions);
    float* dx = gx_.data() + b * input_.numel();
    std::fill(dx, dx + input_.numel(), 0.0f);
    col2im(dcolumns, dx);
  }
}

void Conv2d::collect_grad_jobs(std::vector<GradJob>& out) {
  out.push_back({this, &weight_});
  out.push_back({this, &bias_});
}

void Conv2d::accumulate_grad(Parameter& p) {
  const std::size_t positions = this->positions(), patch = this->patch();
  const std::size_t channels = output_.channels;
  const std::size_t batch = gy_->rows();
  if (&p == &bias_) {
    // db += per-sample column sums of the position-major gradient.
    for (std::size_t b = 0; b < batch; ++b) {
      const float* g = gy_->data() + b * output_.numel();
      for (std::size_t oc = 0; oc < channels; ++oc) {
        float sum = 0.0f;
        const float* plane = g + oc * positions;
        for (std::size_t q = 0; q < positions; ++q) sum += plane[q];
        bias_.grad[oc] += sum;
      }
    }
    return;
  }
  if (&p != &weight_) {
    Module::accumulate_grad(p);
    return;
  }
  // dW += columns^T gout, sample by sample (recomputing the patch matrix
  // beats caching batch x positions x patch floats at these sizes).
  tensor::Workspace::Scope scope(tensor::Workspace::per_thread());
  float* columns = scope.take(positions * patch).data();
  float* gpm = scope.take(positions * channels).data();
  for (std::size_t b = 0; b < batch; ++b) {
    im2col(x_->data() + b * input_.numel(), columns);
    position_major(gy_->data() + b * output_.numel(), gpm, positions,
                   channels);
    tensor::kernels::matmul_ta_acc_rows(columns, gpm, weight_.grad.data(),
                                        positions, patch, channels, 0, patch);
  }
}

std::unique_ptr<Module> Conv2d::clone() const {
  Parameter w(weight_.name, weight_.value);
  Parameter b(bias_.name, bias_.value);
  return std::unique_ptr<Module>(new Conv2d(
      input_, output_, kernel_, stride_, padding_, std::move(w), std::move(b)));
}

GlobalAvgPool::GlobalAvgPool(ImageShape input) : input_(input) {
  if (input.numel() == 0) {
    throw std::invalid_argument("GlobalAvgPool: empty shape");
  }
}

void GlobalAvgPool::pool_rows(const Tensor& x, float* y, std::size_t r0,
                              std::size_t r1) const {
  const std::size_t plane = input_.height * input_.width;
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::size_t b = r0; b < r1; ++b) {
    const float* src = x.data() + b * input_.numel();
    for (std::size_t c = 0; c < input_.channels; ++c) {
      double acc = 0.0;
      for (std::size_t p = 0; p < plane; ++p) acc += src[c * plane + p];
      y[b * input_.channels + c] = static_cast<float>(acc) * inv;
    }
  }
}

void GlobalAvgPool::forward_eval_into(const Tensor& x, Tensor& out) {
  if (x.rank() != 2 || x.cols() != input_.numel()) {
    throw std::invalid_argument("GlobalAvgPool::forward: bad input " +
                                x.shape_string());
  }
  out.ensure_shape({x.rows(), input_.channels});
  pool_rows(x, out.data(), 0, x.rows());
}

void GlobalAvgPool::prepare(std::size_t m, std::size_t in_cols) {
  if (in_cols != input_.numel()) {
    throw std::invalid_argument("GlobalAvgPool::forward: bad input width " +
                                std::to_string(in_cols));
  }
  y_.ensure_shape({m, input_.channels});
  gx_.ensure_shape({m, input_.numel()});
}

void GlobalAvgPool::forward_rows(const Tensor& x, std::size_t r0,
                                 std::size_t r1) {
  pool_rows(x, y_.data(), r0, r1);
}

void GlobalAvgPool::backward_rows(const Tensor& gy, std::size_t r0,
                                  std::size_t r1) {
  const std::size_t plane = input_.height * input_.width;
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::size_t b = r0; b < r1; ++b) {
    float* dst = gx_.data() + b * input_.numel();
    for (std::size_t c = 0; c < input_.channels; ++c) {
      const float v = gy[b * input_.channels + c] * inv;
      for (std::size_t p = 0; p < plane; ++p) dst[c * plane + p] = v;
    }
  }
}

std::unique_ptr<Module> GlobalAvgPool::clone() const {
  return std::make_unique<GlobalAvgPool>(input_);
}

AvgPool2x2::AvgPool2x2(ImageShape input)
    : input_(input),
      output_{input.channels, input.height / 2, input.width / 2} {
  if (input.height % 2 != 0 || input.width % 2 != 0 || input.numel() == 0) {
    throw std::invalid_argument("AvgPool2x2: dimensions must be even");
  }
}

void AvgPool2x2::pool_rows(const Tensor& x, float* y, std::size_t r0,
                           std::size_t r1) const {
  for (std::size_t b = r0; b < r1; ++b) {
    const float* src = x.data() + b * input_.numel();
    float* dst = y + b * output_.numel();
    for (std::size_t c = 0; c < input_.channels; ++c) {
      const float* plane = src + c * input_.height * input_.width;
      float* out_plane = dst + c * output_.height * output_.width;
      for (std::size_t oy = 0; oy < output_.height; ++oy) {
        for (std::size_t ox = 0; ox < output_.width; ++ox) {
          const std::size_t iy = 2 * oy, ix = 2 * ox;
          out_plane[oy * output_.width + ox] =
              0.25f * (plane[iy * input_.width + ix] +
                       plane[iy * input_.width + ix + 1] +
                       plane[(iy + 1) * input_.width + ix] +
                       plane[(iy + 1) * input_.width + ix + 1]);
        }
      }
    }
  }
}

void AvgPool2x2::forward_eval_into(const Tensor& x, Tensor& out) {
  if (x.rank() != 2 || x.cols() != input_.numel()) {
    throw std::invalid_argument("AvgPool2x2::forward: bad input " +
                                x.shape_string());
  }
  out.ensure_shape({x.rows(), output_.numel()});
  pool_rows(x, out.data(), 0, x.rows());
}

void AvgPool2x2::prepare(std::size_t m, std::size_t in_cols) {
  if (in_cols != input_.numel()) {
    throw std::invalid_argument("AvgPool2x2::forward: bad input width " +
                                std::to_string(in_cols));
  }
  y_.ensure_shape({m, output_.numel()});
  gx_.ensure_shape({m, input_.numel()});
}

void AvgPool2x2::forward_rows(const Tensor& x, std::size_t r0,
                              std::size_t r1) {
  pool_rows(x, y_.data(), r0, r1);
}

void AvgPool2x2::backward_rows(const Tensor& gy, std::size_t r0,
                               std::size_t r1) {
  for (std::size_t b = r0; b < r1; ++b) {
    const float* src = gy.data() + b * output_.numel();
    float* dst = gx_.data() + b * input_.numel();
    for (std::size_t c = 0; c < input_.channels; ++c) {
      const float* out_plane = src + c * output_.height * output_.width;
      float* plane = dst + c * input_.height * input_.width;
      for (std::size_t oy = 0; oy < output_.height; ++oy) {
        for (std::size_t ox = 0; ox < output_.width; ++ox) {
          const float v = 0.25f * out_plane[oy * output_.width + ox];
          const std::size_t iy = 2 * oy, ix = 2 * ox;
          plane[iy * input_.width + ix] = v;
          plane[iy * input_.width + ix + 1] = v;
          plane[(iy + 1) * input_.width + ix] = v;
          plane[(iy + 1) * input_.width + ix + 1] = v;
        }
      }
    }
  }
}

std::unique_ptr<Module> AvgPool2x2::clone() const {
  return std::make_unique<AvgPool2x2>(input_);
}

}  // namespace fedpkd::nn
