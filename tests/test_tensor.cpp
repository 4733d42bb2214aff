// Unit and property tests for the tensor substrate: Tensor container, ops,
// RNG, and serialization.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "fedpkd/tensor/ops.hpp"
#include "fedpkd/tensor/rng.hpp"
#include "fedpkd/tensor/serialize.hpp"
#include "fedpkd/tensor/tensor.hpp"

namespace fedpkd::tensor {
namespace {

// ---------------------------------------------------------------- Tensor ---

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.numel(), 0u);
  EXPECT_EQ(t.rank(), 0u);
}

TEST(Tensor, ZerosShapeAndContents) {
  Tensor t = Tensor::zeros({2, 3});
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.numel(), 6u);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FullFillsValue) {
  Tensor t = Tensor::full({4}, 2.5f);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, ConstructorRejectsSizeMismatch) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f}), std::invalid_argument);
}

TEST(Tensor, MatrixFactoryRowMajor) {
  Tensor m = Tensor::matrix({{1.0f, 2.0f}, {3.0f, 4.0f}});
  EXPECT_EQ(m.at(0, 0), 1.0f);
  EXPECT_EQ(m.at(0, 1), 2.0f);
  EXPECT_EQ(m.at(1, 0), 3.0f);
  EXPECT_EQ(m.at(1, 1), 4.0f);
}

TEST(Tensor, MatrixFactoryRejectsRagged) {
  EXPECT_THROW(Tensor::matrix({{1.0f, 2.0f}, {3.0f}}), std::invalid_argument);
}

TEST(Tensor, OneHotPlacesOnes) {
  const std::vector<int> labels{2, 0, 1};
  Tensor t = Tensor::one_hot(labels, 3);
  EXPECT_EQ(t.at(0, 2), 1.0f);
  EXPECT_EQ(t.at(1, 0), 1.0f);
  EXPECT_EQ(t.at(2, 1), 1.0f);
  EXPECT_FLOAT_EQ(sum(t), 3.0f);
}

TEST(Tensor, OneHotRejectsOutOfRange) {
  const std::vector<int> bad{3};
  EXPECT_THROW(Tensor::one_hot(bad, 3), std::invalid_argument);
  const std::vector<int> negative{-1};
  EXPECT_THROW(Tensor::one_hot(negative, 3), std::invalid_argument);
}

TEST(Tensor, AtBoundsChecked) {
  Tensor t = Tensor::zeros({2, 2});
  EXPECT_THROW(t.at(2, 0), std::out_of_range);
  EXPECT_THROW(t.at(0, 2), std::out_of_range);
  EXPECT_THROW(t.at(4), std::out_of_range);
}

TEST(Tensor, RowsColsRequireRank2) {
  Tensor t = Tensor::zeros({4});
  EXPECT_THROW(t.rows(), std::invalid_argument);
  EXPECT_THROW(t.cols(), std::invalid_argument);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.reshape({3, 2});
  EXPECT_EQ(r.rows(), 3u);
  EXPECT_EQ(r.at(2, 1), 6.0f);
  EXPECT_THROW(t.reshape({4, 2}), std::invalid_argument);
}

TEST(Tensor, GatherRowsCopiesSelected) {
  Tensor t({3, 2}, {1, 2, 3, 4, 5, 6});
  const std::vector<std::size_t> idx{2, 0};
  Tensor g = t.gather_rows(idx);
  EXPECT_EQ(g.rows(), 2u);
  EXPECT_EQ(g.at(0, 0), 5.0f);
  EXPECT_EQ(g.at(1, 1), 2.0f);
}

TEST(Tensor, GatherRowsRejectsBadIndex) {
  Tensor t = Tensor::zeros({2, 2});
  const std::vector<std::size_t> idx{5};
  EXPECT_THROW(t.gather_rows(idx), std::out_of_range);
}

TEST(Tensor, SetRowWritesAndValidates) {
  Tensor t = Tensor::zeros({2, 3});
  const std::vector<float> row{7, 8, 9};
  t.set_row(1, row);
  EXPECT_EQ(t.at(1, 2), 9.0f);
  const std::vector<float> wrong{1, 2};
  EXPECT_THROW(t.set_row(0, wrong), std::invalid_argument);
}

TEST(Tensor, RowViewAliasesStorage) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  auto row = t.row(1);
  row[0] = 42.0f;
  EXPECT_EQ(t.at(1, 0), 42.0f);
}

TEST(Tensor, ShapeStringFormat) {
  EXPECT_EQ(Tensor::zeros({2, 3}).shape_string(), "[2, 3]");
  EXPECT_EQ(Tensor().shape_string(), "[]");
}

TEST(Tensor, RandnMomentsRoughlyCorrect) {
  Rng rng(1);
  Tensor t = Tensor::randn({10000}, rng, 1.0f, 2.0f);
  const float m = mean(t);
  EXPECT_NEAR(m, 1.0f, 0.1f);
  double var = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    var += (t[i] - m) * (t[i] - m);
  }
  var /= static_cast<double>(t.numel());
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Tensor, RandUniformRange) {
  Rng rng(2);
  Tensor t = Tensor::rand_uniform({1000}, rng, -2.0f, 3.0f);
  EXPECT_GE(min(t), -2.0f);
  EXPECT_LT(max(t), 3.0f);
}

// ------------------------------------------------------------------- Ops ---

TEST(Ops, AddSubMulDiv) {
  Tensor a({2}, {4, 9});
  Tensor b({2}, {2, 3});
  EXPECT_EQ(add(a, b)[0], 6.0f);
}

TEST(Ops, BinaryOpsRejectShapeMismatch) {
  Tensor a = Tensor::zeros({2});
  Tensor b = Tensor::zeros({3});
  EXPECT_THROW(add(a, b), std::invalid_argument);
  EXPECT_THROW(add_inplace(a, b), std::invalid_argument);
  EXPECT_THROW(axpy_inplace(a, 1.0f, b), std::invalid_argument);
}

TEST(Ops, AxpyInplace) {
  Tensor a({2}, {1, 1});
  Tensor b({2}, {2, 4});
  axpy_inplace(a, 0.5f, b);
  EXPECT_EQ(a[0], 2.0f);
  EXPECT_EQ(a[1], 3.0f);
}

TEST(Ops, AddRowVectorBroadcasts) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor v({2}, {10, 20});
  Tensor r = add_row_vector(a, v);
  EXPECT_EQ(r.at(0, 0), 11.0f);
  EXPECT_EQ(r.at(1, 1), 24.0f);
  Tensor bad({3}, {1, 2, 3});
  EXPECT_THROW(add_row_vector(a, bad), std::invalid_argument);
}

TEST(Ops, MatmulSmallKnown) {
  Tensor a = Tensor::matrix({{1, 2}, {3, 4}});
  Tensor b = Tensor::matrix({{5, 6}, {7, 8}});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.at(0, 0), 19.0f);
  EXPECT_EQ(c.at(0, 1), 22.0f);
  EXPECT_EQ(c.at(1, 0), 43.0f);
  EXPECT_EQ(c.at(1, 1), 50.0f);
}

TEST(Ops, MatmulRejectsIncompatible) {
  EXPECT_THROW(matmul(Tensor::zeros({2, 3}), Tensor::zeros({2, 3})),
               std::invalid_argument);
}

TEST(Ops, MatmulTransposeVariantsAgreeWithExplicitTranspose) {
  Rng rng(3);
  Tensor a = Tensor::randn({4, 3}, rng);
  Tensor b = Tensor::randn({4, 5}, rng);
  // A^T x B.
  Tensor direct = matmul_transpose_a(a, b);
  Tensor reference = matmul(transpose(a), b);
  EXPECT_LT(max_abs_difference(direct, reference), 1e-5f);
  // A x B^T.
  Tensor c = Tensor::randn({6, 3}, rng);
  Tensor direct2 = matmul_transpose_b(a.reshape({3, 4}).reshape({4, 3}), c);
  Tensor reference2 = matmul(a, transpose(c));
  EXPECT_LT(max_abs_difference(direct2, reference2), 1e-5f);
}

TEST(Ops, TransposeInvolution) {
  Rng rng(4);
  Tensor a = Tensor::randn({3, 7}, rng);
  EXPECT_EQ(max_abs_difference(transpose(transpose(a)), a), 0.0f);
}

TEST(Ops, Reductions) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(sum(a), 10.0f);
  EXPECT_FLOAT_EQ(mean(a), 2.5f);
  EXPECT_FLOAT_EQ(min(a), 1.0f);
  EXPECT_FLOAT_EQ(max(a), 4.0f);
}

TEST(Ops, EmptyReductionsThrow) {
  Tensor e;
  EXPECT_THROW(mean(e), std::invalid_argument);
  EXPECT_THROW(min(e), std::invalid_argument);
  EXPECT_THROW(max(e), std::invalid_argument);
}

TEST(Ops, ArgmaxRowsTiesToLowestIndex) {
  Tensor a({2, 3}, {1, 5, 5, 7, 2, 7});
  const auto am = argmax_rows(a);
  EXPECT_EQ(am[0], 1);
  EXPECT_EQ(am[1], 0);
}

TEST(Ops, VariancePerRowKnown) {
  Tensor a({2, 2}, {1, 3, 5, 5});
  Tensor v = variance_per_row(a);
  EXPECT_FLOAT_EQ(v[0], 1.0f);  // mean 2, deviations +-1
  EXPECT_FLOAT_EQ(v[1], 0.0f);
}

TEST(Ops, VarianceHigherForPeakedLogits) {
  // A confident (peaked) logits vector has higher variance than a flat one —
  // the property FedPKD's Eq. (7) weighting relies on.
  Tensor peaked({1, 4}, {10, 0, 0, 0});
  Tensor flat({1, 4}, {2.5, 2.5, 2.5, 2.5});
  EXPECT_GT(variance_per_row(peaked)[0], variance_per_row(flat)[0]);
}

TEST(Ops, NormsAndDistances) {
  Tensor a({3}, {3, 4, 0});
  Tensor b({3}, {0, 0, 0});
  EXPECT_FLOAT_EQ(l2_distance(a, b), 5.0f);
  Tensor m({2, 3}, {3, 4, 0, 1, 1, 1});
  EXPECT_FLOAT_EQ(row_l2_distance(m, 0, b), 5.0f);
  EXPECT_THROW(row_l2_distance(m, 5, b), std::out_of_range);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(5);
  Tensor logits = Tensor::randn({8, 10}, rng, 0.0f, 4.0f);
  Tensor p = softmax_rows(logits);
  for (std::size_t r = 0; r < 8; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < 10; ++c) s += p.at(r, c);
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxNumericallyStableForHugeLogits) {
  Tensor logits({1, 3}, {1000.0f, 999.0f, -1000.0f});
  Tensor p = softmax_rows(logits);
  EXPECT_FALSE(has_non_finite(p));
  EXPECT_GT(p[0], p[1]);
  EXPECT_NEAR(p[2], 0.0f, 1e-6f);
}

TEST(Ops, SoftmaxTemperatureFlattens) {
  Tensor logits({1, 2}, {2.0f, 0.0f});
  Tensor sharp = softmax_rows(logits, 0.5f);
  Tensor soft = softmax_rows(logits, 4.0f);
  EXPECT_GT(sharp[0], soft[0]);
  EXPECT_THROW(softmax_rows(logits, 0.0f), std::invalid_argument);
}

TEST(Ops, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(6);
  Tensor logits = Tensor::randn({4, 6}, rng, 0.0f, 3.0f);
  Tensor p = softmax_rows(logits);
  Tensor lp = log_softmax_rows(logits);
  for (std::size_t i = 0; i < p.numel(); ++i) {
    EXPECT_NEAR(lp[i], std::log(p[i]), 1e-4f);
  }
}

TEST(Ops, KlDivergenceZeroForIdentical) {
  Rng rng(7);
  Tensor p = softmax_rows(Tensor::randn({5, 4}, rng));
  EXPECT_NEAR(kl_divergence_rows(p, p), 0.0f, 1e-5f);
}

TEST(Ops, KlDivergencePositiveForDifferent) {
  Tensor p({1, 2}, {0.9f, 0.1f});
  Tensor q({1, 2}, {0.5f, 0.5f});
  EXPECT_GT(kl_divergence_rows(p, q), 0.0f);
}

TEST(Ops, EntropyRowsUniformIsMax) {
  Tensor uniform({1, 4}, {0.25f, 0.25f, 0.25f, 0.25f});
  Tensor peaked({1, 4}, {1.0f, 0.0f, 0.0f, 0.0f});
  EXPECT_NEAR(entropy_rows(uniform)[0], std::log(4.0f), 1e-4f);
  EXPECT_NEAR(entropy_rows(peaked)[0], 0.0f, 1e-4f);
}

TEST(Ops, HasNonFiniteDetects) {
  Tensor a({2}, {1.0f, 2.0f});
  EXPECT_FALSE(has_non_finite(a));
  a[1] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(has_non_finite(a));
  a[1] = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(has_non_finite(a));
}

// Parameterized property sweep: matmul distributes over addition for a range
// of shapes.
class MatmulProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulProperty, DistributesOverAddition) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000 + k * 100 + n));
  Tensor a = Tensor::randn({static_cast<std::size_t>(m),
                            static_cast<std::size_t>(k)}, rng);
  Tensor b1 = Tensor::randn({static_cast<std::size_t>(k),
                             static_cast<std::size_t>(n)}, rng);
  Tensor b2 = Tensor::randn({static_cast<std::size_t>(k),
                             static_cast<std::size_t>(n)}, rng);
  Tensor lhs = matmul(a, add(b1, b2));
  Tensor rhs = add(matmul(a, b1), matmul(a, b2));
  EXPECT_LT(max_abs_difference(lhs, rhs), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulProperty,
                         ::testing::Values(std::tuple{1, 1, 1},
                                           std::tuple{2, 3, 4},
                                           std::tuple{8, 8, 8},
                                           std::tuple{1, 16, 5},
                                           std::tuple{7, 2, 9},
                                           std::tuple{32, 64, 10}));

// -------------------------------------------------------------------- Rng ---

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(10);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 10000; ++i) ++counts[rng.uniform_index(5)];
  for (int c : counts) EXPECT_NEAR(c, 2000, 300);
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, GammaMeanMatchesShape) {
  // E[Gamma(a, 1)] = a.
  for (double shape : {0.3, 1.0, 2.5, 10.0}) {
    Rng rng(static_cast<std::uint64_t>(shape * 100));
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += rng.gamma(shape);
    EXPECT_NEAR(sum / n, shape, shape * 0.1) << "shape=" << shape;
  }
  Rng rng(1);
  EXPECT_THROW(rng.gamma(0.0), std::invalid_argument);
}

TEST(Rng, SplitStreamsAreDecorrelatedAndStable) {
  Rng parent(42);
  Rng c1 = parent.split(1);
  Rng c2 = parent.split(2);
  Rng c1_again = parent.split(1);
  EXPECT_EQ(c1(), c1_again());
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1() == c2()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// -------------------------------------------------------------- Serialize ---

TEST(Serialize, RoundTripBitExact) {
  Rng rng(13);
  for (const Shape& shape :
       {Shape{}, Shape{1}, Shape{7}, Shape{3, 4}, Shape{2, 3, 4}}) {
    Tensor t = shape.empty() ? Tensor() : Tensor::randn(shape, rng);
    const auto bytes = encode_tensor(t);
    EXPECT_EQ(bytes.size(), encoded_size(shape));
    Tensor back = decode_tensor(bytes);
    ASSERT_EQ(back.shape(), t.shape());
    for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(back[i], t[i]);
  }
}

TEST(Serialize, DecodeRejectsBadMagic) {
  auto bytes = encode_tensor(Tensor::zeros({2}));
  bytes[0] = std::byte{0xff};
  EXPECT_THROW(decode_tensor(bytes), std::runtime_error);
}

TEST(Serialize, DecodeRejectsTruncation) {
  const auto bytes = encode_tensor(Tensor::zeros({4}));
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2, std::size_t{3}}) {
    std::span<const std::byte> truncated(bytes.data(), cut);
    EXPECT_THROW(decode_tensor(truncated), std::runtime_error) << cut;
  }
}

TEST(Serialize, DecodeRejectsTrailingBytes) {
  auto bytes = encode_tensor(Tensor::zeros({2}));
  bytes.push_back(std::byte{0});
  EXPECT_THROW(decode_tensor(bytes), std::runtime_error);
}

TEST(Serialize, StreamingDecodeAdvancesOffset) {
  std::vector<std::byte> buffer;
  encode_tensor(Tensor::full({2}, 1.0f), buffer);
  encode_tensor(Tensor::full({3}, 2.0f), buffer);
  std::size_t offset = 0;
  Tensor a = decode_tensor(buffer, offset);
  Tensor b = decode_tensor(buffer, offset);
  EXPECT_EQ(offset, buffer.size());
  EXPECT_EQ(a.numel(), 2u);
  EXPECT_EQ(b.numel(), 3u);
  EXPECT_EQ(b[0], 2.0f);
}

TEST(Serialize, ScalarHelpersRoundTrip) {
  std::vector<std::byte> out;
  put_u32(0xdeadbeefu, out);
  put_u64(0x0123456789abcdefull, out);
  put_f32(-1.5f, out);
  std::size_t offset = 0;
  EXPECT_EQ(get_u32(out, offset), 0xdeadbeefu);
  EXPECT_EQ(get_u64(out, offset), 0x0123456789abcdefull);
  EXPECT_EQ(get_f32(out, offset), -1.5f);
  EXPECT_EQ(offset, out.size());
}

TEST(Serialize, LogitsPayloadSizeMatchesAnalyticFormula) {
  // The Fig. 3 accounting: |D_p| x N float logits dominate the wire size.
  const std::size_t n = 100, classes = 10;
  const std::size_t payload_bytes = encoded_size({n, classes});
  EXPECT_EQ(payload_bytes, 4u + 1u + 2u * 8u + 4u * n * classes);
}

}  // namespace
}  // namespace fedpkd::tensor
