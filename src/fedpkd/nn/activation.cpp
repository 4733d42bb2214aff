#include "fedpkd/nn/activation.hpp"

namespace fedpkd::nn {

namespace {

/// Elementwise f over elements [begin, end) of `x` into `y`.
template <typename F>
void map_range(const float* x, float* y, std::size_t begin, std::size_t end,
               F&& f) {
  for (std::size_t i = begin; i < end; ++i) y[i] = f(x[i]);
}

float relu(float v) { return v > 0.0f ? v : 0.0f; }

}  // namespace

void Relu::forward_rows(const Tensor& x, std::size_t r0, std::size_t r1,
                        Tensor* out) {
  const std::size_t n = x.cols();
  map_range(x.data(), rows_out(out).data(), r0 * n, r1 * n, relu);
}

void Relu::backward_rows(const Tensor& gy, std::size_t r0, std::size_t r1) {
  // Load gy unconditionally, then select (DESIGN.md §8): the loop becomes a
  // vector compare and mask instead of a branch on every element's sign.
  const std::size_t n = y_.cols();
  const float* py = y_.data();
  const float* pg = gy.data();
  float* pgx = gx_.data();
  for (std::size_t i = r0 * n; i < r1 * n; ++i) {
    const float g = pg[i];
    pgx[i] = py[i] > 0.0f ? g : 0.0f;
  }
}

std::unique_ptr<Module> Relu::clone() const {
  return std::make_unique<Relu>();
}

}  // namespace fedpkd::nn
