// The blocked kernels' core promise: register/cache blocking regroups which
// output elements are in flight but never the per-element float operation
// sequence, so every blocked kernel is BITWISE equal to the retained naive
// reference — on tile-multiple shapes, ragged edges, degenerate dims, and
// inputs salted with exact zeros (which exercise the zero-skip predicate).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
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
  // matmul_transpose_b transposes B and runs the matmul tiles; with
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
        const Tensor out =
            matmul_transpose_b(tensor_of(s.m, s.k, a), tensor_of(s.n, s.k, b));
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
    const Tensor out =
        matmul_transpose_b(tensor_of(m, k, a), tensor_of(n, k, b));
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

TEST(BlockedKernels, MatmulTbRowsMatchesMatmulOnTransposedB) {
  // matmul_tb_rows packs B^T strip by strip from B [n, k]; every row range it
  // is given must come out bitwise equal to the naive matmul over
  // transpose_naive(B), writing only its own rows. The ranges split m rows
  // as exec::parallel_for does at 1..4 lanes (the first m % lanes chunks one
  // row longer). With `non_finite`, B holds inf, -inf and NaN where row 0 of
  // A is zero (the zero skip, rerun in the tile) and row 1 is not. n = 45
  // leaves 13 columns after the AVX strips: an SSE tile, then an edge tile.
  const float kNonFinite[] = {std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::quiet_NaN()};
  const std::uint32_t sentinel_bits = 0x7fc0beef;
  float sentinel;
  std::memcpy(&sentinel, &sentinel_bits, sizeof sentinel);
  for (const bool non_finite : {false, true}) {
    for (const std::size_t n : {1u, 7u, 16u, 33u, 45u, 96u}) {
      for (const std::size_t k : {1u, 3u, 10u, 64u, 97u}) {
        for (const std::size_t m : {1u, 13u, 32u}) {
          auto a = random_values(m * k, 241 + m + k, true);
          auto b = random_values(n * k, 251 + n + k, false);  // [n, k]
          if (non_finite) {
            for (std::size_t j = 0; j < n; j += 3) {
              const std::size_t kk = (5 * j) % k;
              b[j * k + kk] = kNonFinite[j % 3];
              a[kk] = j % 2 == 0 ? 0.0f : -0.0f;
              if (m > 1) a[k + kk] = 1.5f;
            }
          }
          std::vector<float> bt(k * n);
          kernels::transpose_naive(b.data(), bt.data(), n, k);
          std::vector<float> expected(m * n);
          kernels::matmul_rows_naive(a.data(), bt.data(), expected.data(), k,
                                     n, 0, m);
          for (std::size_t lanes = 1; lanes <= 4; ++lanes) {
            const std::string where =
                "m=" + std::to_string(m) + " k=" + std::to_string(k) +
                " n=" + std::to_string(n) + " lanes=" + std::to_string(lanes) +
                " non_finite=" + std::to_string(non_finite);
            const std::size_t chunks = std::min(lanes, m);
            std::vector<float> whole(m * n, sentinel);
            std::size_t r0 = 0;
            for (std::size_t c = 0; c < chunks; ++c) {
              const std::size_t r1 = r0 + m / chunks + (c < m % chunks ? 1 : 0);
              std::vector<float> part(m * n, sentinel);
              kernels::matmul_tb_rows(a.data(), b.data(), part.data(), k, n,
                                      r0, r1);
              kernels::matmul_tb_rows(a.data(), b.data(), whole.data(), k, n,
                                      r0, r1);
              std::vector<float> want(m * n, sentinel);
              std::copy(expected.begin() + r0 * n, expected.begin() + r1 * n,
                        want.begin() + r0 * n);
              EXPECT_TRUE(bitwise_equal(part, want))
                  << where << " rows [" << r0 << ", " << r1 << ")";
              r0 = r1;
            }
            EXPECT_TRUE(bitwise_equal(whole, expected)) << where;
          }
          if (non_finite && m > 1) {
            EXPECT_TRUE(std::isfinite(expected[0])) << "m=" << m << " k=" << k;
            EXPECT_FALSE(std::isfinite(expected[n])) << "m=" << m << " k=" << k;
          }
        }
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

TEST(BlockedKernels, ReluSparseAAgainstNonFiniteBMatchesNaiveBitwise) {
  // The tiles multiply every A element, zeros included, and rerun a tile with
  // the zero skip only when its sums come out non-finite. A is ReLU-sparse
  // (about half exact zeros, every other one -0); B has an inf, -inf or NaN
  // in a few columns, each met by a zero A element in row 0 and a non-zero
  // one in row 1. The shapes cover packed AVX strips (k >= 64, two full row
  // tiles and a row tail), in-place AVX tiles and row tails, SSE tiles (the
  // 8..15 columns after the AVX strips) and scalar edge tiles (the last < 8
  // columns, and partial rows past the AVX strips).
  const std::vector<GemmShape> shapes = {
      {17, 96, 45}, {5, 20, 45}, {8, 70, 24}, {13, 64, 13}, {32, 96, 96}};
  const float kNonFinite[] = {std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::quiet_NaN()};
  const auto relu_values = [](std::size_t count, std::uint64_t seed) {
    auto values = random_values(count, seed, false);
    bool negative_zero = false;
    for (float& v : values) {
      if (v > 0.0f) continue;
      v = negative_zero ? -0.0f : 0.0f;
      negative_zero = !negative_zero;
    }
    return values;
  };
  for (const bool non_finite : {false, true}) {
    for (const GemmShape& s : shapes) {
      const std::string where = "m=" + std::to_string(s.m) +
                                " k=" + std::to_string(s.k) +
                                " n=" + std::to_string(s.n) +
                                " non_finite=" + std::to_string(non_finite);
      auto a = relu_values(s.m * s.k, 211 + s.m);   // [m, k]
      auto at = relu_values(s.k * s.m, 223 + s.m);  // A^T, [k, m]
      auto b = random_values(s.k * s.n, 227 + s.n, false);
      const auto bias = random_values(s.n, 229, false);
      if (non_finite) {
        std::size_t next = 0;
        for (const std::size_t j : {3u, 12u, 20u, 35u, 42u, 90u}) {
          if (j >= s.n) continue;
          const std::size_t kk = (7 * j) % s.k;
          b[kk * s.n + j] = kNonFinite[next++ % 3];
          a[0 * s.k + kk] = 0.0f;
          a[1 * s.k + kk] = 1.5f;
          at[kk * s.m + 0] = -0.0f;
          at[kk * s.m + 1] = -1.5f;
        }
      }

      std::vector<float> naive(s.m * s.n);
      kernels::matmul_rows_naive(a.data(), b.data(), naive.data(), s.k, s.n, 0,
                                 s.m);
      std::vector<float> out(s.m * s.n, -1.0f);
      kernels::matmul_rows(a.data(), b.data(), out.data(), s.k, s.n, 0, s.m);
      EXPECT_TRUE(bitwise_equal(out, naive)) << "matmul " << where;

      kernels::matmul_bias_rows(a.data(), b.data(), bias.data(), out.data(),
                                s.k, s.n, 0, s.m);
      std::vector<float> with_bias = naive;
      for (std::size_t i = 0; i < s.m * s.n; ++i) with_bias[i] += bias[i % s.n];
      EXPECT_TRUE(bitwise_equal(out, with_bias)) << "bias " << where;

      std::vector<float> product(s.m * s.n);
      kernels::matmul_ta_rows_naive(at.data(), b.data(), product.data(), s.k,
                                    s.m, s.n, 0, s.m);
      const auto initial = random_values(s.m * s.n, 233, false);
      std::vector<float> acc = initial;
      kernels::matmul_ta_acc_rows(at.data(), b.data(), acc.data(), s.k, s.m,
                                  s.n, 0, s.m);
      std::vector<float> expected = initial;
      for (std::size_t i = 0; i < s.m * s.n; ++i) expected[i] += product[i];
      EXPECT_TRUE(bitwise_equal(acc, expected)) << "ta_acc " << where;

      if (non_finite && s.n > 3) {
        // Row 0 skips the non-finite B element of column 3; row 1 meets it.
        EXPECT_TRUE(std::isfinite(naive[0 * s.n + 3])) << where;
        EXPECT_FALSE(std::isfinite(naive[1 * s.n + 3])) << where;
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

TEST(BlockedKernels, TransposeRowRangesMatchNaive) {
  // Linear::forward_rows transposes W's rows [r0*in/m, r1*in/m) for each
  // batch range [r0, r1) of a step; the ranges split m rows across the lanes
  // as exec::parallel_for does (the first m % lanes chunks one row longer).
  // Each range alone must write exactly its columns of W^T, bitwise equal to
  // the naive transpose (NaN payloads, -0 and inf included), and leave every
  // other cell as it was.
  const std::uint32_t sentinel_bits = 0x7fc0dead;
  float sentinel;
  std::memcpy(&sentinel, &sentinel_bits, sizeof sentinel);
  for (auto [in, out] : std::vector<std::pair<std::size_t, std::size_t>>{
           {3, 100}, {33, 31}, {65, 129}, {96, 96}}) {
    auto w = random_values(in * out, 117 + in + out, false);
    const std::uint32_t payload = 0x7fa00001;
    std::memcpy(&w[1], &payload, sizeof payload);
    w[in * out / 2] = -0.0f;
    w.back() = -std::numeric_limits<float>::infinity();
    std::vector<float> naive(in * out);
    kernels::transpose_naive(w.data(), naive.data(), in, out);
    for (std::size_t m : {1, 5, 13, 32}) {
      for (std::size_t lanes = 1; lanes <= 4; ++lanes) {
        const std::size_t chunks = std::min(lanes, m);
        std::vector<float> whole(in * out, sentinel);
        std::size_t r0 = 0;
        for (std::size_t c = 0; c < chunks; ++c) {
          const std::size_t r1 = r0 + m / chunks + (c < m % chunks ? 1 : 0);
          const std::size_t lo = r0 * in / m, hi = r1 * in / m;
          std::vector<float> part(in * out, sentinel);
          kernels::transpose_blocked_rows(w.data(), part.data(), in, out, lo,
                                          hi);
          kernels::transpose_blocked_rows(w.data(), whole.data(), in, out, lo,
                                          hi);
          std::vector<float> expected(in * out, sentinel);
          for (std::size_t j = 0; j < out; ++j) {
            for (std::size_t i = lo; i < hi; ++i) {
              expected[j * in + i] = naive[j * in + i];
            }
          }
          EXPECT_TRUE(bitwise_equal(part, expected))
              << in << "x" << out << " m=" << m << " lanes=" << lanes
              << " rows [" << lo << ", " << hi << ")";
          r0 = r1;
        }
        EXPECT_TRUE(bitwise_equal(whole, naive))
            << in << "x" << out << " m=" << m << " lanes=" << lanes;
      }
    }
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
