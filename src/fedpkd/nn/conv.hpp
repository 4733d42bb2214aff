#pragma once

#include "fedpkd/nn/module.hpp"

namespace fedpkd::nn {

/// Spatial dimensions of a feature map; tensors stay rank-2 ([batch,
/// channels*height*width] row-major C,H,W) so the whole nn/fl stack keeps a
/// single tensor layout — conv layers carry the geometry themselves.
struct ImageShape {
  std::size_t channels = 0;
  std::size_t height = 0;
  std::size_t width = 0;

  std::size_t numel() const { return channels * height * width; }
  bool operator==(const ImageShape&) const = default;
};

/// 2-D convolution with square kernel, implemented as im2col + matmul so it
/// reuses the tensor library's one optimized kernel. Weight layout:
/// [in_ch*k*k, out_ch]; bias [out_ch]. He initialization over the fan-in.
class Conv2d final : public Module {
 public:
  /// Output spatial size is ((H + 2*padding - kernel) / stride) + 1; the
  /// constructor throws if the geometry does not divide evenly.
  Conv2d(ImageShape input, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t padding, Rng& rng,
         std::string name = "conv");

  void forward_eval_into(const Tensor& x, Tensor& out) override;
  void prepare(std::size_t m, std::size_t in_cols) override;
  void forward_rows(const Tensor& x, std::size_t r0, std::size_t r1) override;
  void backward_rows(const Tensor& gy, std::size_t r0,
                     std::size_t r1) override;
  void collect_grad_jobs(std::vector<GradJob>& out) override;
  /// Weight and bias each accumulate sample by sample in ascending order.
  void accumulate_grad(Parameter& p) override;
  std::unique_ptr<Module> clone() const override;

  ImageShape input_shape() const { return input_; }
  ImageShape output_shape() const { return output_; }

 private:
  Conv2d(ImageShape input, ImageShape output, std::size_t kernel,
         std::size_t stride, std::size_t padding, Parameter w, Parameter b);

  std::size_t positions() const { return output_.height * output_.width; }
  std::size_t patch() const { return input_.channels * kernel_ * kernel_; }

  /// [rows = H_out*W_out, cols = in_ch*k*k] patch matrix for one sample.
  void im2col(const float* sample, float* columns) const;
  /// Scatter-add of a patch-matrix gradient back to input layout.
  void col2im(const float* columns, float* sample_grad) const;
  /// Rows [r0, r1) of y for input rows of x, with this lane's scratch.
  void forward_samples(const Tensor& x, float* y, std::size_t r0,
                       std::size_t r1) const;

  ImageShape input_;
  ImageShape output_;
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t padding_;
  Parameter weight_;
  Parameter bias_;
  const Tensor* x_ = nullptr;   // the step's full-batch input
  const Tensor* gy_ = nullptr;  // the step's full-batch output gradient
};

/// Global average pooling: [batch, C*H*W] -> [batch, C].
class GlobalAvgPool final : public Module {
 public:
  explicit GlobalAvgPool(ImageShape input);

  void forward_eval_into(const Tensor& x, Tensor& out) override;
  void prepare(std::size_t m, std::size_t in_cols) override;
  void forward_rows(const Tensor& x, std::size_t r0, std::size_t r1) override;
  void backward_rows(const Tensor& gy, std::size_t r0,
                     std::size_t r1) override;
  std::unique_ptr<Module> clone() const override;

 private:
  void pool_rows(const Tensor& x, float* y, std::size_t r0,
                 std::size_t r1) const;

  ImageShape input_;
};

/// 2x2 average pooling with stride 2 (dimensions must be even).
class AvgPool2x2 final : public Module {
 public:
  explicit AvgPool2x2(ImageShape input);

  void forward_eval_into(const Tensor& x, Tensor& out) override;
  void prepare(std::size_t m, std::size_t in_cols) override;
  void forward_rows(const Tensor& x, std::size_t r0, std::size_t r1) override;
  void backward_rows(const Tensor& gy, std::size_t r0,
                     std::size_t r1) override;
  std::unique_ptr<Module> clone() const override;

  ImageShape output_shape() const { return output_; }

 private:
  void pool_rows(const Tensor& x, float* y, std::size_t r0,
                 std::size_t r1) const;

  ImageShape input_;
  ImageShape output_;
};

}  // namespace fedpkd::nn
