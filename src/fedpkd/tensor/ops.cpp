#include "fedpkd/tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/tensor/kernels.hpp"
#include "fedpkd/tensor/workspace.hpp"

namespace fedpkd::tensor {

namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* what) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument(std::string(what) + ": shape mismatch " +
                                a.shape_string() + " vs " + b.shape_string());
  }
}

template <typename F>
Tensor zip(const Tensor& a, const Tensor& b, const char* what, F&& f) {
  check_same_shape(a, b, what);
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (std::size_t i = 0; i < a.numel(); ++i) po[i] = f(pa[i], pb[i]);
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return zip(a, b, "add", [](float x, float y) { return x + y; });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return zip(a, b, "sub", [](float x, float y) { return x - y; });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return zip(a, b, "mul", [](float x, float y) { return x * y; });
}

Tensor div(const Tensor& a, const Tensor& b) {
  return zip(a, b, "div", [](float x, float y) { return x / y; });
}

Tensor scale(const Tensor& a, float s) {
  Tensor out(a.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) out[i] = a[i] * s;
  return out;
}

Tensor add_scalar(const Tensor& a, float s) {
  Tensor out(a.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) out[i] = a[i] + s;
  return out;
}

void add_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add_inplace");
  for (std::size_t i = 0; i < a.numel(); ++i) a[i] += b[i];
}

void sub_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub_inplace");
  for (std::size_t i = 0; i < a.numel(); ++i) a[i] -= b[i];
}

void scale_inplace(Tensor& a, float s) {
  for (std::size_t i = 0; i < a.numel(); ++i) a[i] *= s;
}

void axpy_inplace(Tensor& a, float s, const Tensor& b) {
  check_same_shape(a, b, "axpy_inplace");
  for (std::size_t i = 0; i < a.numel(); ++i) a[i] += s * b[i];
}

void scale_add_inplace(Tensor& a, float sa, const Tensor& b, float sb) {
  check_same_shape(a, b, "scale_add_inplace");
  for (std::size_t i = 0; i < a.numel(); ++i) a[i] = a[i] * sa + sb * b[i];
}

Tensor add_row_vector(const Tensor& a, const Tensor& v) {
  if (a.rank() != 2 || v.rank() != 1 || v.dim(0) != a.cols()) {
    throw std::invalid_argument("add_row_vector: need [m,n] and [n], got " +
                                a.shape_string() + " and " + v.shape_string());
  }
  Tensor out(a.shape());
  const std::size_t m = a.rows(), n = a.cols();
  for (std::size_t r = 0; r < m; ++r) {
    const float* pa = a.data() + r * n;
    float* po = out.data() + r * n;
    for (std::size_t c = 0; c < n; ++c) po[c] = pa[c] + v[c];
  }
  return out;
}

Tensor mul_row_vector(const Tensor& a, const Tensor& v) {
  if (a.rank() != 2 || v.rank() != 1 || v.dim(0) != a.cols()) {
    throw std::invalid_argument("mul_row_vector: need [m,n] and [n], got " +
                                a.shape_string() + " and " + v.shape_string());
  }
  Tensor out(a.shape());
  const std::size_t m = a.rows(), n = a.cols();
  for (std::size_t r = 0; r < m; ++r) {
    const float* pa = a.data() + r * n;
    float* po = out.data() + r * n;
    for (std::size_t c = 0; c < n; ++c) po[c] = pa[c] * v[c];
  }
  return out;
}

namespace {

/// Runs `rows(row_begin, row_end)` over [0, m) with a grain of enough rows
/// per lane (at k*n multiply-adds each) to amortize the pool hand-off, so
/// small matmuls stay serial and medium ones use few lanes. Every kernel
/// computes each output row independently with kk-ascending accumulation, so
/// the result is bitwise identical for any chunking (see kernels.hpp).
template <typename F>
void dispatch_rows(std::size_t m, std::size_t k, std::size_t n, F&& rows) {
  exec::parallel_for(m, exec::grain_for_cost(k * n), rows);
}

}  // namespace

void matmul_into(const Tensor& a, const Tensor& b, Tensor& out) {
  if (a.rank() != 2 || b.rank() != 2 || a.cols() != b.rows()) {
    throw std::invalid_argument("matmul: incompatible shapes " +
                                a.shape_string() + " x " + b.shape_string());
  }
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  out.ensure_shape({m, n});
  dispatch_rows(m, k, n, [&](std::size_t row_begin, std::size_t row_end) {
    kernels::matmul_rows(a.data(), b.data(), out.data(), k, n, row_begin,
                         row_end);
  });
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor out;
  matmul_into(a, b, out);
  return out;
}

void matmul_bias_into(const Tensor& a, const Tensor& b, const Tensor& bias,
                      Tensor& out) {
  if (a.rank() != 2 || b.rank() != 2 || a.cols() != b.rows()) {
    throw std::invalid_argument("matmul_bias: incompatible shapes " +
                                a.shape_string() + " x " + b.shape_string());
  }
  if (bias.rank() != 1 || bias.dim(0) != b.cols()) {
    throw std::invalid_argument("matmul_bias: bias shape " +
                                bias.shape_string() + " does not match " +
                                b.shape_string());
  }
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  out.ensure_shape({m, n});
  dispatch_rows(m, k, n, [&](std::size_t row_begin, std::size_t row_end) {
    kernels::matmul_bias_rows(a.data(), b.data(), bias.data(), out.data(), k,
                              n, row_begin, row_end);
  });
}

Tensor matmul_bias(const Tensor& a, const Tensor& b, const Tensor& bias) {
  Tensor out;
  matmul_bias_into(a, b, bias, out);
  return out;
}

namespace {

void check_ta_shapes(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.rows() != b.rows()) {
    throw std::invalid_argument("matmul_transpose_a: incompatible shapes " +
                                a.shape_string() + "^T x " + b.shape_string());
  }
}

}  // namespace

Tensor matmul_transpose_a(const Tensor& a, const Tensor& b) {
  check_ta_shapes(a, b);
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  Tensor out({m, n});
  dispatch_rows(m, k, n, [&](std::size_t row_begin, std::size_t row_end) {
    kernels::matmul_ta_rows(a.data(), b.data(), out.data(), k, m, n, row_begin,
                            row_end);
  });
  return out;
}

void matmul_transpose_a_accumulate(const Tensor& a, const Tensor& b,
                                   Tensor& out) {
  check_ta_shapes(a, b);
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (out.rank() != 2 || out.rows() != m || out.cols() != n) {
    throw std::invalid_argument(
        "matmul_transpose_a_accumulate: output shape " + out.shape_string() +
        " does not match result");
  }
  dispatch_rows(m, k, n, [&](std::size_t row_begin, std::size_t row_end) {
    kernels::matmul_ta_acc_rows(a.data(), b.data(), out.data(), k, m, n,
                                row_begin, row_end);
  });
}

void matmul_transpose_b_into(const Tensor& a, const Tensor& b, Tensor& out) {
  if (a.rank() != 2 || b.rank() != 2 || a.cols() != b.cols()) {
    throw std::invalid_argument("matmul_transpose_b: incompatible shapes " +
                                a.shape_string() + " x " + b.shape_string() +
                                "^T");
  }
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  out.ensure_shape({m, n});
  // Transpose B to [k, n] once and run the matmul tiles: each output still
  // sums a[i][kk] * b[j][kk] over ascending kk from +0, with matmul's
  // zero-skip of A (see kernels::matmul_tb_rows_naive).
  Workspace::Scope scope(Workspace::per_thread());
  float* bt = scope.take(k * n).data();
  kernels::transpose_blocked(b.data(), bt, n, k);
  dispatch_rows(m, k, n, [&](std::size_t row_begin, std::size_t row_end) {
    kernels::matmul_rows(a.data(), bt, out.data(), k, n, row_begin, row_end);
  });
}

Tensor matmul_transpose_b(const Tensor& a, const Tensor& b) {
  Tensor out;
  matmul_transpose_b_into(a, b, out);
  return out;
}

void transpose_into(const Tensor& a, Tensor& out) {
  if (a.rank() != 2) {
    throw std::invalid_argument("transpose: need rank-2, got " +
                                a.shape_string());
  }
  out.ensure_shape({a.cols(), a.rows()});
  kernels::transpose_blocked(a.data(), out.data(), a.rows(), a.cols());
}

Tensor transpose(const Tensor& a) {
  Tensor out;
  transpose_into(a, out);
  return out;
}

float sum(const Tensor& a) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) acc += a[i];
  return static_cast<float>(acc);
}

float mean(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("mean: empty tensor");
  return sum(a) / static_cast<float>(a.numel());
}

float min(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("min: empty tensor");
  return *std::min_element(a.flat().begin(), a.flat().end());
}

float max(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("max: empty tensor");
  return *std::max_element(a.flat().begin(), a.flat().end());
}

Tensor sum_rows(const Tensor& a) {
  const std::size_t m = a.rows(), n = a.cols();
  Tensor out({n});
  for (std::size_t r = 0; r < m; ++r) {
    const float* pa = a.data() + r * n;
    for (std::size_t c = 0; c < n; ++c) out[c] += pa[c];
  }
  return out;
}

void sum_rows_accumulate(const Tensor& a, Tensor& out) {
  const std::size_t m = a.rows(), n = a.cols();
  if (out.rank() != 1 || out.dim(0) != n) {
    throw std::invalid_argument("sum_rows_accumulate: output shape " +
                                out.shape_string() + " does not match cols");
  }
  // Column sums are fully reduced into scratch first, then added to `out`
  // once per element — accumulating into `out` directly would change the
  // float op order vs. add_inplace(out, sum_rows(a)).
  Workspace::Scope scope(Workspace::per_thread());
  std::span<float> colsum = scope.take(n);
  std::fill(colsum.begin(), colsum.end(), 0.0f);
  for (std::size_t r = 0; r < m; ++r) {
    const float* pa = a.data() + r * n;
    for (std::size_t c = 0; c < n; ++c) colsum[c] += pa[c];
  }
  for (std::size_t c = 0; c < n; ++c) out[c] += colsum[c];
}

Tensor mean_rows(const Tensor& a) {
  if (a.rows() == 0) throw std::invalid_argument("mean_rows: zero rows");
  Tensor out = sum_rows(a);
  scale_inplace(out, 1.0f / static_cast<float>(a.rows()));
  return out;
}

std::vector<int> argmax_rows(const Tensor& a) {
  const std::size_t m = a.rows(), n = a.cols();
  if (n == 0) throw std::invalid_argument("argmax_rows: zero cols");
  std::vector<int> out(m);
  for (std::size_t r = 0; r < m; ++r) {
    const float* pa = a.data() + r * n;
    out[r] = static_cast<int>(std::max_element(pa, pa + n) - pa);
  }
  return out;
}

Tensor variance_per_row(const Tensor& a) {
  const std::size_t m = a.rows(), n = a.cols();
  if (n == 0) throw std::invalid_argument("variance_per_row: zero cols");
  Tensor out({m});
  for (std::size_t r = 0; r < m; ++r) {
    const float* pa = a.data() + r * n;
    double mu = 0.0;
    for (std::size_t c = 0; c < n; ++c) mu += pa[c];
    mu /= static_cast<double>(n);
    double var = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      const double d = pa[c] - mu;
      var += d * d;
    }
    out[r] = static_cast<float>(var / static_cast<double>(n));
  }
  return out;
}

float squared_norm(const Tensor& a) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    acc += static_cast<double>(a[i]) * a[i];
  }
  return static_cast<float>(acc);
}

float l2_distance(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "l2_distance");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return static_cast<float>(std::sqrt(acc));
}

float row_l2_distance(const Tensor& a, std::size_t r, const Tensor& v) {
  if (a.rank() != 2 || v.rank() != 1 || v.dim(0) != a.cols()) {
    throw std::invalid_argument("row_l2_distance: need [m,n] and [n]");
  }
  if (r >= a.rows()) throw std::out_of_range("row_l2_distance: row index");
  const float* pa = a.data() + r * a.cols();
  double acc = 0.0;
  for (std::size_t c = 0; c < a.cols(); ++c) {
    const double d = static_cast<double>(pa[c]) - v[c];
    acc += d * d;
  }
  return static_cast<float>(std::sqrt(acc));
}

void softmax_rows_into(const Tensor& logits, Tensor& out, float temperature) {
  if (temperature <= 0.0f) {
    throw std::invalid_argument("softmax_rows: temperature must be > 0");
  }
  const std::size_t m = logits.rows(), n = logits.cols();
  if (&out != &logits) out.ensure_shape(logits.shape());
  kernels::softmax_rows(logits.data(), out.data(), m, n, temperature);
}

Tensor softmax_rows(const Tensor& logits, float temperature) {
  Tensor out;
  softmax_rows_into(logits, out, temperature);
  return out;
}

void softmax_rows_inplace(Tensor& logits, float temperature) {
  softmax_rows_into(logits, logits, temperature);
}

void log_softmax_rows_into(const Tensor& logits, Tensor& out,
                           float temperature) {
  if (temperature <= 0.0f) {
    throw std::invalid_argument("log_softmax_rows: temperature must be > 0");
  }
  const std::size_t m = logits.rows(), n = logits.cols();
  if (&out != &logits) out.ensure_shape(logits.shape());
  kernels::log_softmax_rows(logits.data(), out.data(), m, n, temperature);
}

Tensor log_softmax_rows(const Tensor& logits, float temperature) {
  Tensor out;
  log_softmax_rows_into(logits, out, temperature);
  return out;
}

float kl_divergence_rows(const Tensor& p, const Tensor& q) {
  check_same_shape(p, q, "kl_divergence_rows");
  const std::size_t m = p.rows(), n = p.cols();
  if (m == 0) throw std::invalid_argument("kl_divergence_rows: zero rows");
  double acc = 0.0;
  constexpr double kEps = 1e-12;
  for (std::size_t i = 0; i < m * n; ++i) {
    const double pi = p[i];
    if (pi <= 0.0) continue;
    acc += pi * (std::log(pi + kEps) - std::log(static_cast<double>(q[i]) + kEps));
  }
  return static_cast<float>(acc / static_cast<double>(m));
}

Tensor entropy_rows(const Tensor& p) {
  const std::size_t m = p.rows(), n = p.cols();
  Tensor out({m});
  constexpr double kEps = 1e-12;
  for (std::size_t r = 0; r < m; ++r) {
    const float* pp = p.data() + r * n;
    double h = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      if (pp[c] > 0.0f) h -= pp[c] * std::log(pp[c] + kEps);
    }
    out[r] = static_cast<float>(h);
  }
  return out;
}

bool has_non_finite(const Tensor& a) {
  for (std::size_t i = 0; i < a.numel(); ++i) {
    if (!std::isfinite(a[i])) return true;
  }
  return false;
}

float max_abs_difference(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "max_abs_difference");
  float mx = 0.0f;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    mx = std::max(mx, std::abs(a[i] - b[i]));
  }
  return mx;
}

}  // namespace fedpkd::tensor
