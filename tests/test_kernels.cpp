// The blocked kernels' core promise: register/cache blocking regroups which
// output elements are in flight but never the per-element float operation
// sequence, so every blocked kernel is BITWISE equal to the retained naive
// reference — on tile-multiple shapes, ragged edges, degenerate dims, and
// inputs salted with exact zeros (which exercise the zero-skip predicate).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/tensor/kernels.hpp"
#include "fedpkd/tensor/ops.hpp"
#include "fedpkd/tensor/rng.hpp"

namespace {

using namespace fedpkd::tensor;

struct GemmShape {
  std::size_t m, k, n;
};

// Register tiles are 6x16 (AVX) and 6x8 (SSE) with a scalar edge tile for
// the last < 8 columns, and a chunk of >= 12 rows with k >= 64 and n >= 16
// streams packed B strips. The list covers exact multiples, ragged
// remainders in every dimension, the packed path, and the m=1 / k=1
// degenerate cases the training loop actually produces.
const std::vector<GemmShape> kShapes = {
    {1, 1, 1},    {1, 5, 3},    {5, 17, 9}, {4, 8, 16},
    {33, 33, 33}, {64, 48, 56}, {7, 1, 19}, {1, 64, 64},
    {13, 700, 5},   // deep k over a column tail only
    {32, 96, 96},   // the server distillation shape: packed, 2-row tail
    {24, 64, 48},   // packed, no row tail
};

std::vector<float> random_values(std::size_t count, std::uint64_t seed,
                                 bool inject_zeros) {
  Rng rng(seed);
  std::vector<float> values(count);
  for (std::size_t i = 0; i < count; ++i) {
    values[i] = static_cast<float>(rng.normal());
  }
  if (inject_zeros) {
    // Exact zeros at a fixed stride hit the zero-skip predicate in both
    // implementations.
    for (std::size_t i = 0; i < count; i += 3) values[i] = 0.0f;
  }
  return values;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(BlockedKernels, MatmulMatchesNaiveBitwise) {
  for (bool zeros : {false, true}) {
    for (const GemmShape& s : kShapes) {
      const auto a = random_values(s.m * s.k, 11 + s.m, zeros);
      const auto b = random_values(s.k * s.n, 23 + s.n, false);
      std::vector<float> blocked(s.m * s.n, -1.0f);
      std::vector<float> naive(s.m * s.n, -2.0f);
      kernels::matmul_rows(a.data(), b.data(), blocked.data(), s.k, s.n, 0,
                           s.m);
      kernels::matmul_rows_naive(a.data(), b.data(), naive.data(), s.k, s.n, 0,
                                 s.m);
      EXPECT_TRUE(bitwise_equal(blocked, naive))
          << "m=" << s.m << " k=" << s.k << " n=" << s.n << " zeros=" << zeros;
    }
  }
}

TEST(BlockedKernels, MatmulTransposeAMatchesNaiveBitwise) {
  for (bool zeros : {false, true}) {
    for (const GemmShape& s : kShapes) {
      // A is stored [k, m] for the transpose-A product.
      const auto a = random_values(s.k * s.m, 31 + s.k, zeros);
      const auto b = random_values(s.k * s.n, 41 + s.n, false);
      std::vector<float> blocked(s.m * s.n, -1.0f);
      std::vector<float> naive(s.m * s.n, -2.0f);
      kernels::matmul_ta_rows(a.data(), b.data(), blocked.data(), s.k, s.m,
                              s.n, 0, s.m);
      kernels::matmul_ta_rows_naive(a.data(), b.data(), naive.data(), s.k, s.m,
                                    s.n, 0, s.m);
      EXPECT_TRUE(bitwise_equal(blocked, naive))
          << "m=" << s.m << " k=" << s.k << " n=" << s.n << " zeros=" << zeros;
    }
  }
}

Tensor tensor_of(std::size_t rows, std::size_t cols,
                 const std::vector<float>& values) {
  Tensor t({rows, cols});
  std::memcpy(t.data(), values.data(), values.size() * sizeof(float));
  return t;
}

TEST(BlockedKernels, MatmulTransposeBMatchesNaiveBitwise) {
  // matmul_transpose_b_into transposes B and runs the matmul tiles; with
  // finite inputs that is the naive dot-product loop bit for bit, at any
  // lane count (at 4 lanes the row chunks of {32, 96, 96} end in partial
  // row tiles).
  for (std::size_t threads : {1u, 4u}) {
    fedpkd::exec::set_num_threads(threads);
    for (bool zeros : {false, true}) {
      for (const GemmShape& s : kShapes) {
        const auto a = random_values(s.m * s.k, 53 + s.m, zeros);
        // B is stored [n, k] for the transpose-B product.
        const auto b = random_values(s.n * s.k, 61 + s.k, zeros);
        Tensor out;
        matmul_transpose_b_into(tensor_of(s.m, s.k, a), tensor_of(s.n, s.k, b),
                                out);
        std::vector<float> naive(s.m * s.n, -2.0f);
        kernels::matmul_tb_rows_naive(a.data(), b.data(), naive.data(), s.k,
                                      s.n, 0, s.m);
        EXPECT_TRUE(bitwise_equal(
            std::vector<float>(out.data(), out.data() + out.numel()), naive))
            << "m=" << s.m << " k=" << s.k << " n=" << s.n
            << " zeros=" << zeros << " threads=" << threads;
      }
    }
  }
  fedpkd::exec::set_num_threads(1);
}

TEST(BlockedKernels, MatmulTransposeBSkipsZeroAAgainstNonFiniteB) {
  // The matmul zero-skip rule: a zero in A contributes nothing, even against
  // an infinite or NaN B element, where the naive loop's 0 * inf = NaN would
  // poison the sum. A non-zero A element still propagates the non-finite B.
  const std::size_t m = 8, k = 20, n = 18;
  for (float bad : {std::numeric_limits<float>::infinity(),
                    std::numeric_limits<float>::quiet_NaN()}) {
    auto a = random_values(m * k, 171, false);
    auto b = random_values(n * k, 173, false);
    a[2 * k + 5] = 0.0f;  // row 2 skips kk = 5
    b[7 * k + 5] = bad;   // column 7 is non-finite at kk = 5
    Tensor out;
    matmul_transpose_b_into(tensor_of(m, k, a), tensor_of(n, k, b), out);
    // Reference: the naive loop with the skipped product removed.
    auto b_clean = b;
    b_clean[7 * k + 5] = 0.0f;
    std::vector<float> expected(m * n);
    kernels::matmul_tb_rows_naive(a.data(), b_clean.data(), expected.data(), k,
                                  n, 0, m);
    EXPECT_TRUE(std::isfinite(out.data()[2 * n + 7]));
    EXPECT_EQ(std::memcmp(out.data() + 2 * n, expected.data() + 2 * n,
                          n * sizeof(float)),
              0);
    for (std::size_t i = 0; i < m; ++i) {
      if (i != 2) {
        EXPECT_FALSE(std::isfinite(out.data()[i * n + 7])) << "row " << i;
      }
    }
  }
}

TEST(BlockedKernels, RowTailsMatchNaiveBitwise) {
  // A row range that is not a multiple of the 6-row tile ends in a 1..5-row
  // tail, which the AVX path runs on its own tile over every full 16-column
  // strip — in place (a range of just the tail) and over packed strips (12
  // full rows first, k >= 64). Each A buffer ends exactly at the range's last
  // row, so a tile reading past it trips AddressSanitizer.
  for (std::size_t tail = 1; tail <= 5; ++tail) {
    for (std::size_t full_rows : {0u, 12u}) {
      for (std::size_t n : {16u, 35u, 48u}) {
        const std::size_t m = full_rows + tail, k = 70;
        const std::string where = "tail=" + std::to_string(tail) +
                                  " full_rows=" + std::to_string(full_rows) +
                                  " n=" + std::to_string(n);
        const auto a = random_values(m * k, 181 + tail, true);
        const auto b = random_values(k * n, 191 + n, false);
        const auto bias = random_values(n, 193, false);

        std::vector<float> naive(m * n);
        kernels::matmul_rows_naive(a.data(), b.data(), naive.data(), k, n, 0,
                                   m);
        std::vector<float> out(m * n, -1.0f);
        kernels::matmul_rows(a.data(), b.data(), out.data(), k, n, 0, m);
        EXPECT_TRUE(bitwise_equal(out, naive)) << "matmul " << where;

        kernels::matmul_bias_rows(a.data(), b.data(), bias.data(), out.data(),
                                  k, n, 0, m);
        std::vector<float> with_bias = naive;
        for (std::size_t i = 0; i < m * n; ++i) with_bias[i] += bias[i % n];
        EXPECT_TRUE(bitwise_equal(out, with_bias)) << "bias " << where;

        // Transpose-A accumulate: A^T is [k, m], so its rows are A's columns.
        const auto at = random_values(k * m, 197 + tail, true);
        std::vector<float> product(m * n);
        kernels::matmul_ta_rows_naive(at.data(), b.data(), product.data(), k,
                                      m, n, 0, m);
        const auto initial = random_values(m * n, 199, false);
        std::vector<float> acc = initial;
        kernels::matmul_ta_acc_rows(at.data(), b.data(), acc.data(), k, m, n,
                                    0, m);
        std::vector<float> expected = initial;
        for (std::size_t i = 0; i < m * n; ++i) expected[i] += product[i];
        EXPECT_TRUE(bitwise_equal(acc, expected)) << "ta_acc " << where;
      }
    }
  }
}

TEST(BlockedKernels, ZeroRowInputProducesZeroOutput) {
  // A row of exact zeros must reduce to exact 0.0f in every variant (the
  // zero-skip path leaves the accumulator untouched).
  const std::size_t m = 6, k = 20, n = 11;
  auto a = random_values(m * k, 71, false);
  for (std::size_t c = 0; c < k; ++c) a[2 * k + c] = 0.0f;
  const auto b = random_values(k * n, 73, false);
  std::vector<float> out(m * n, -1.0f);
  kernels::matmul_rows(a.data(), b.data(), out.data(), k, n, 0, m);
  for (std::size_t c = 0; c < n; ++c) {
    EXPECT_EQ(out[2 * n + c], 0.0f) << "col " << c;
  }
}

TEST(BlockedKernels, RowRangeSplitMatchesFullPass) {
  // Computing [0, m) in one call must equal any partition into row ranges —
  // this is the property parallel_for relies on.
  const std::size_t m = 13, k = 37, n = 29;
  const auto a = random_values(m * k, 81, true);
  const auto b = random_values(k * n, 83, false);
  std::vector<float> whole(m * n), split(m * n);
  kernels::matmul_rows(a.data(), b.data(), whole.data(), k, n, 0, m);
  kernels::matmul_rows(a.data(), b.data(), split.data(), k, n, 0, 5);
  kernels::matmul_rows(a.data(), b.data(), split.data(), k, n, 5, 6);
  kernels::matmul_rows(a.data(), b.data(), split.data(), k, n, 6, m);
  EXPECT_TRUE(bitwise_equal(whole, split));
  // An empty row range is a no-op.
  std::vector<float> untouched = whole;
  kernels::matmul_rows(a.data(), b.data(), untouched.data(), k, n, 4, 4);
  EXPECT_TRUE(bitwise_equal(whole, untouched));
}

TEST(FusedKernels, MatmulBiasEqualsMatmulThenRowBroadcastAdd) {
  for (const GemmShape& s : kShapes) {
    const auto a = random_values(s.m * s.k, 91 + s.m, true);
    const auto b = random_values(s.k * s.n, 93 + s.n, false);
    const auto bias = random_values(s.n, 97 + s.n, false);
    std::vector<float> fused(s.m * s.n);
    kernels::matmul_bias_rows(a.data(), b.data(), bias.data(), fused.data(),
                              s.k, s.n, 0, s.m);
    std::vector<float> reference(s.m * s.n);
    kernels::matmul_rows_naive(a.data(), b.data(), reference.data(), s.k, s.n,
                               0, s.m);
    for (std::size_t r = 0; r < s.m; ++r) {
      for (std::size_t c = 0; c < s.n; ++c) reference[r * s.n + c] += bias[c];
    }
    EXPECT_TRUE(bitwise_equal(fused, reference))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

TEST(FusedKernels, MatmulTransposeAAccumulateEqualsComputeThenAdd) {
  for (const GemmShape& s : kShapes) {
    const auto a = random_values(s.k * s.m, 101 + s.m, true);
    const auto b = random_values(s.k * s.n, 103 + s.n, false);
    const auto initial = random_values(s.m * s.n, 107, false);
    std::vector<float> fused = initial;
    kernels::matmul_ta_acc_rows(a.data(), b.data(), fused.data(), s.k, s.m,
                                s.n, 0, s.m);
    std::vector<float> product(s.m * s.n);
    kernels::matmul_ta_rows_naive(a.data(), b.data(), product.data(), s.k, s.m,
                                  s.n, 0, s.m);
    std::vector<float> reference = initial;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      reference[i] += product[i];
    }
    EXPECT_TRUE(bitwise_equal(fused, reference))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

TEST(BlockedKernels, TransposeMatchesNaive) {
  for (auto [m, n] : std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {1, 7}, {7, 1}, {32, 32}, {33, 31}, {100, 3}, {65, 129}}) {
    const auto a = random_values(m * n, 111 + m + n, false);
    std::vector<float> blocked(m * n), naive(m * n);
    kernels::transpose_blocked(a.data(), blocked.data(), m, n);
    kernels::transpose_naive(a.data(), naive.data(), m, n);
    EXPECT_TRUE(bitwise_equal(blocked, naive)) << "m=" << m << " n=" << n;
  }
}

// Reference softmax with the divide applied at each use (the pre-fusion
// form): the hoisted single divide must be bitwise identical because float
// division of the same operands rounds the same way every time.
void softmax_reference(const float* logits, float* out, std::size_t m,
                       std::size_t n, float temperature) {
  for (std::size_t r = 0; r < m; ++r) {
    const float* pl = logits + r * n;
    float* po = out + r * n;
    float mx = pl[0] / temperature;
    for (std::size_t c = 1; c < n; ++c) {
      mx = std::max(mx, pl[c] / temperature);
    }
    double z = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      po[c] = std::exp(pl[c] / temperature - mx);
      z += po[c];
    }
    const float inv = static_cast<float>(1.0 / z);
    for (std::size_t c = 0; c < n; ++c) po[c] *= inv;
  }
}

void log_softmax_reference(const float* logits, float* out, std::size_t m,
                           std::size_t n, float temperature) {
  for (std::size_t r = 0; r < m; ++r) {
    const float* pl = logits + r * n;
    float* po = out + r * n;
    float mx = pl[0] / temperature;
    for (std::size_t c = 1; c < n; ++c) {
      mx = std::max(mx, pl[c] / temperature);
    }
    double z = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      z += std::exp(pl[c] / temperature - mx);
    }
    const float logz = mx + static_cast<float>(std::log(z));
    for (std::size_t c = 0; c < n; ++c) po[c] = pl[c] / temperature - logz;
  }
}

TEST(FusedKernels, SoftmaxHoistedDivideMatchesPerUseDivide) {
  for (float temperature : {1.0f, 2.0f, 0.5f, 3.7f}) {
    for (auto [m, n] : std::vector<std::pair<std::size_t, std::size_t>>{
             {1, 1}, {1, 10}, {9, 10}, {33, 17}}) {
      const auto logits = random_values(m * n, 131 + m, false);
      std::vector<float> fused(m * n), reference(m * n);
      kernels::softmax_rows(logits.data(), fused.data(), m, n, temperature);
      softmax_reference(logits.data(), reference.data(), m, n, temperature);
      EXPECT_TRUE(bitwise_equal(fused, reference))
          << "m=" << m << " n=" << n << " T=" << temperature;

      // Aliased in-place form must produce the same bits.
      std::vector<float> aliased = logits;
      kernels::softmax_rows(aliased.data(), aliased.data(), m, n, temperature);
      EXPECT_TRUE(bitwise_equal(aliased, reference));
    }
  }
}

TEST(FusedKernels, LogSoftmaxHoistedDivideMatchesPerUseDivide) {
  for (float temperature : {1.0f, 2.0f, 4.0f}) {
    const std::size_t m = 11, n = 13;
    const auto logits = random_values(m * n, 151, false);
    std::vector<float> fused(m * n), reference(m * n);
    kernels::log_softmax_rows(logits.data(), fused.data(), m, n, temperature);
    log_softmax_reference(logits.data(), reference.data(), m, n, temperature);
    EXPECT_TRUE(bitwise_equal(fused, reference)) << "T=" << temperature;

    std::vector<float> aliased = logits;
    kernels::log_softmax_rows(aliased.data(), aliased.data(), m, n,
                              temperature);
    EXPECT_TRUE(bitwise_equal(aliased, reference));
  }
}

TEST(FusedKernels, AdamUpdateMatchesNaiveBitwise) {
  // The SSE update runs the scalar expression tree lane by lane, so values
  // and both moments match the per-element loop bit for bit over several
  // steps, for lengths with and without a scalar tail.
  for (std::size_t n : {1u, 3u, 4u, 5u, 4097u}) {
    for (float weight_decay : {0.0f, 0.01f}) {
      auto value = random_values(n, 211 + n, true);
      std::vector<float> m(n, 0.0f), v(n, 0.0f);
      auto value_ref = value;
      auto m_ref = m, v_ref = v;
      for (int t = 1; t <= 4; ++t) {
        const auto grad = random_values(n, 223 + t, t == 2);
        const kernels::AdamStep s{
            .lr = 1e-3f,
            .beta1 = 0.9f,
            .beta2 = 0.999f,
            .eps = 1e-8f,
            .weight_decay = weight_decay,
            .bc1 = 1.0f - std::pow(0.9f, static_cast<float>(t)),
            .bc2 = 1.0f - std::pow(0.999f, static_cast<float>(t))};
        kernels::adam_update(value.data(), grad.data(), m.data(), v.data(), n,
                             s);
        kernels::adam_update_naive(value_ref.data(), grad.data(), m_ref.data(),
                                   v_ref.data(), n, s);
        EXPECT_TRUE(bitwise_equal(value, value_ref) &&
                    bitwise_equal(m, m_ref) && bitwise_equal(v, v_ref))
            << "n=" << n << " wd=" << weight_decay << " step=" << t;
      }
    }
  }
}

}  // namespace
