#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "fedpkd/tensor/tensor.hpp"

namespace fedpkd::tensor {

/// Free-function arithmetic on Tensors. Binary ops require identical shapes
/// (no implicit broadcasting other than add_row_vector) and throw
/// std::invalid_argument on mismatch. All results are freshly allocated;
/// *_inplace variants mutate their first argument.

/// -- Elementwise ------------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b);

void add_inplace(Tensor& a, const Tensor& b);
void sub_inplace(Tensor& a, const Tensor& b);
void scale_inplace(Tensor& a, float s);
/// a += s * b  (the axpy kernel every optimizer and aggregator relies on).
void axpy_inplace(Tensor& a, float s, const Tensor& b);
/// a = sa * a + sb * b, fused in one pass. Rounds exactly like
/// scale_inplace(a, sa) followed by axpy_inplace(a, sb, b): both products are
/// rounded to float before the single rounded add.
void scale_add_inplace(Tensor& a, float sa, const Tensor& b, float sb);

/// -- Broadcast over rows (rank-2 a, rank-1 v of length a.cols()) ------------

Tensor add_row_vector(const Tensor& a, const Tensor& v);

/// -- Linear algebra ----------------------------------------------------------

/// All GEMM variants run the register-blocked kernels in kernels.hpp.

/// C = A x B for rank-2 A [m,k] and B [k,n].
Tensor matmul(const Tensor& a, const Tensor& b);
/// C = A^T x B for rank-2 A [k,m] and B [k,n] (used for weight gradients).
Tensor matmul_transpose_a(const Tensor& a, const Tensor& b);
/// out += A^T x B (fused weight-gradient accumulation; bitwise equal to
/// add_inplace(out, matmul_transpose_a(a, b))).
void matmul_transpose_a_accumulate(const Tensor& a, const Tensor& b,
                                   Tensor& out);
/// C = A x B^T for rank-2 A [m,k] and B [n,k] (used for input gradients).
Tensor matmul_transpose_b(const Tensor& a, const Tensor& b);
/// Rank-2 transpose (tiled; see kernels.hpp).
Tensor transpose(const Tensor& a);

/// -- Reductions ---------------------------------------------------------------

float sum(const Tensor& a);
float mean(const Tensor& a);
float min(const Tensor& a);
float max(const Tensor& a);
/// out += column sums of `a` (rank-1 out of length cols()). Each column is
/// summed in float in row order into workspace scratch first and added to
/// `out` once, so the result does not depend on what `out` held.
void sum_rows_accumulate(const Tensor& a, Tensor& out);
/// Per-row argmax of a rank-2 tensor (ties -> lowest index).
std::vector<int> argmax_rows(const Tensor& a);
/// Per-row (population) variance of a rank-2 tensor -> rank-1 of length rows().
/// This is the logits-confidence signal of FedPKD Eq. (7).
Tensor variance_per_row(const Tensor& a);

/// -- Distances & norms ---------------------------------------------------------

/// Euclidean (L2) distance between two same-shape tensors.
float l2_distance(const Tensor& a, const Tensor& b);
/// Squared L2 distance between row r of a rank-2 tensor and a rank-1 vector.
float row_l2_distance(const Tensor& a, std::size_t r, const Tensor& v);

/// -- Probability utilities -------------------------------------------------------

/// Row-wise numerically stable softmax of a rank-2 logits tensor.
/// `temperature` divides the logits first (T > 0).
Tensor softmax_rows(const Tensor& logits, float temperature = 1.0f);
/// softmax_rows into an existing tensor; `out` may alias `logits` (in-place).
void softmax_rows_into(const Tensor& logits, Tensor& out,
                       float temperature = 1.0f);
/// In-place row-wise softmax of a rank-2 logits tensor.
void softmax_rows_inplace(Tensor& logits, float temperature = 1.0f);
/// Row-wise log-softmax (stable).
Tensor log_softmax_rows(const Tensor& logits, float temperature = 1.0f);
/// Mean over rows of KL(p_row || q_row); both are row-stochastic rank-2.
float kl_divergence_rows(const Tensor& p, const Tensor& q);
/// Shannon entropy (nats) of each row of a row-stochastic tensor.
Tensor entropy_rows(const Tensor& p);

/// -- Validation -------------------------------------------------------------------

/// True if any element is NaN or infinite.
bool has_non_finite(const Tensor& a);
/// Max |a - b| over all elements (shapes must match).
float max_abs_difference(const Tensor& a, const Tensor& b);

}  // namespace fedpkd::tensor
