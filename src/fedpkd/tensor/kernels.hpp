#pragma once

#include <cstddef>

namespace fedpkd::tensor::kernels {

/// Raw pointer-level compute kernels behind the Tensor ops in ops.hpp.
///
/// The GEMM variants run on one register-blocked, cache-tiled kernel family
/// (6x16 AVX tiles for every row count 1..6, a 6x8 SSE tile and a scalar
/// edge tile). The original single-pass naive loops are retained as the
/// bitwise references for tests (and as the pre-optimization baseline in
/// bench/micro_tensor), and so is the scalar Adam loop.
///
/// Determinism contract (see DESIGN.md §8): for every output element
/// C[i][j], the floating-point accumulation order over the inner dimension
/// kk is ascending from +0, and the zero-skip predicate (A-elements equal to
/// ±0.0f are skipped) is identical in the tiled and naive kernels. Blocking
/// therefore only regroups *which* elements are in flight, never the
/// per-element operation sequence, so blocked == naive bitwise, at any tile
/// size and — because each output row is computed independently — at any
/// parallel_for chunking.
///
/// All `*_rows` kernels compute output rows [row_begin, row_end) only, so
/// callers can split work across threads by row range.

/// C[m,n] = A[m,k] x B[k,n]; overwrites C rows.
void matmul_rows(const float* a, const float* b, float* c, std::size_t k,
                 std::size_t n, std::size_t row_begin, std::size_t row_end);
void matmul_rows_naive(const float* a, const float* b, float* c, std::size_t k,
                       std::size_t n, std::size_t row_begin,
                       std::size_t row_end);

/// C[m,n] = A[m,k] x B[k,n] + bias[n] broadcast over rows (fused Linear
/// forward). The bias add happens once per element after the full kk sum,
/// exactly like the separate add_row_vector pass it replaces.
void matmul_bias_rows(const float* a, const float* b, const float* bias,
                      float* c, std::size_t k, std::size_t n,
                      std::size_t row_begin, std::size_t row_end);

/// C[m,n] = A^T x B for A stored [k,m], B [k,n]; overwrites C rows.
void matmul_ta_rows(const float* a, const float* b, float* c, std::size_t k,
                    std::size_t m, std::size_t n, std::size_t row_begin,
                    std::size_t row_end);
void matmul_ta_rows_naive(const float* a, const float* b, float* c,
                          std::size_t k, std::size_t m, std::size_t n,
                          std::size_t row_begin, std::size_t row_end);

/// C[m,n] += A^T x B (fused weight-gradient accumulation). Each element adds
/// its fully-reduced kk sum to C once, exactly like the temporary-then-
/// add_inplace sequence it replaces.
void matmul_ta_acc_rows(const float* a, const float* b, float* c,
                        std::size_t k, std::size_t m, std::size_t n,
                        std::size_t row_begin, std::size_t row_end);

/// C[m,n] = A x B^T for A [m,k], B stored [n,k]; overwrites C rows. The
/// single-pass dot-product loop, kept as the reference for
/// ops::matmul_transpose_b_into, which transposes B once and runs
/// matmul_rows. That route sums the same products in the same kk order from
/// the same +0, so it matches this loop bitwise on finite inputs; it also
/// applies matmul's zero-skip, so where A is zero and B non-finite it leaves
/// the finite sum instead of this loop's NaN.
void matmul_tb_rows_naive(const float* a, const float* b, float* c,
                          std::size_t k, std::size_t n, std::size_t row_begin,
                          std::size_t row_end);

/// out[n,m] = A[m,n]^T, tiled so both sides stream through cache lines.
void transpose_blocked(const float* a, float* out, std::size_t m,
                       std::size_t n);
void transpose_naive(const float* a, float* out, std::size_t m, std::size_t n);

/// Hyper-parameters of one Adam step; bc1 and bc2 are the step's bias
/// corrections 1 - beta1^t and 1 - beta2^t.
struct AdamStep {
  float lr, beta1, beta2, eps, weight_decay, bc1, bc2;
};

/// One Adam update of n parameters, in place on value and the moments m, v:
///   g = grad + wd*value;  m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;
///   value -= (lr * (m/bc1)) / (sqrt(v/bc2) + eps).
/// Four lanes of SSE at a time, with the scalar loop for the last n % 4.
/// Bitwise equal to adam_update_naive, the per-element loop it replaced
/// (see DESIGN.md §8).
void adam_update(float* value, const float* grad, float* m, float* v,
                 std::size_t n, const AdamStep& s);
void adam_update_naive(float* value, const float* grad, float* m, float* v,
                       std::size_t n, const AdamStep& s);

/// Row-wise stable softmax of logits[m,n] into out[m,n] (aliasing
/// out == logits is allowed). The temperature divide is hoisted: each logit
/// is divided once and the scaled value is reused by the max and exp passes,
/// which is bitwise identical to dividing in both passes.
void softmax_rows(const float* logits, float* out, std::size_t m,
                  std::size_t n, float temperature);

/// Row-wise stable log-softmax, same layout and aliasing rules as
/// softmax_rows.
void log_softmax_rows(const float* logits, float* out, std::size_t m,
                      std::size_t n, float temperature);

}  // namespace fedpkd::tensor::kernels
