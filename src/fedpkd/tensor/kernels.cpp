#include "fedpkd/tensor/kernels.hpp"

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "fedpkd/tensor/workspace.hpp"

namespace fedpkd::tensor::kernels {

namespace {

/// Register tile: kMr output rows x kNc output columns are in flight at once,
/// so each loaded B row feeds kMr accumulator rows and C traffic collapses to
/// one store per element. kNc = 8 floats = two 128-bit vectors; with kMr = 6
/// the 12 accumulator vectors plus the 2 B vectors and the A broadcast fill
/// the 16-register SSE file exactly. The accumulators are explicit __m128
/// locals because the zero-skip branches otherwise make the compiler spill a
/// plain float array to the stack on every iteration.
constexpr std::size_t kMr = 6;
constexpr std::size_t kNc = 8;

/// Column width of the AVX tile: 16 floats = two 256-bit vectors, same
/// 12-accumulators-plus-2-B-plus-broadcast register layout as the SSE tile
/// but with twice the lanes. The AVX path uses only vbroadcastss/vmulps/
/// vaddps — elementwise IEEE ops, never FMA — so SSE, AVX, and scalar paths
/// all produce bitwise-identical output and runtime dispatch cannot break
/// cross-machine determinism.
constexpr std::size_t kNcAvx = 16;

// The AVX tiles are compiled with a per-function target attribute and
// selected at runtime, so the translation unit itself still builds for (and
// runs on) baseline x86-64 SSE2.
#if defined(__GNUC__) && defined(__x86_64__)
#define FEDPKD_GEMM_AVX 1
#endif

enum class Store { kAssign, kAddBias, kAccumulate };

/// True iff *p is +0.0f or -0.0f — the zero-skip predicate `av == 0.0f` of
/// the naive kernels, tested on the bit pattern so the hot loop spends one
/// integer test+branch per A element instead of a ucomiss plus two branches.
inline bool is_float_zero(const float* p) {
  std::uint32_t bits;
  std::memcpy(&bits, p, sizeof(bits));
  return (bits << 1) == 0;
}

template <Store kStore>
inline void store_tile(const float (&acc)[kMr][kNcAvx], const float* bias,
                       float* c, std::size_t n, std::size_t i0, std::size_t mr,
                       std::size_t j0, std::size_t nc) {
  for (std::size_t i = 0; i < mr; ++i) {
    float* crow = c + (i0 + i) * n + j0;
    for (std::size_t j = 0; j < nc; ++j) {
      if constexpr (kStore == Store::kAssign) {
        crow[j] = acc[i][j];
      } else if constexpr (kStore == Store::kAddBias) {
        crow[j] = acc[i][j] + bias[j0 + j];
      } else {
        crow[j] += acc[i][j];
      }
    }
  }
}

/// Full kMr x kNc SSE tile: every full row tile without AVX, and the 8..15
/// columns left after the AVX strips with it. A is addressed through runtime
/// strides so the same kernel serves A and A^T layouts. _mm_mul_ps and
/// _mm_add_ps are elementwise IEEE float ops, so each output element still
/// sees exactly the naive kernel's mul-add sequence in ascending kk order,
/// and the av != 0 guard is the naive kernels' zero-skip predicate.
template <Store kStore>
inline void gemm_tile_full(const float* a, std::size_t a_row_stride,
                           std::size_t a_k_stride, const float* b,
                           const float* bias, float* c, std::size_t k,
                           std::size_t n, std::size_t i0, std::size_t j0) {
  __m128 acc00 = _mm_setzero_ps(), acc01 = _mm_setzero_ps();
  __m128 acc10 = _mm_setzero_ps(), acc11 = _mm_setzero_ps();
  __m128 acc20 = _mm_setzero_ps(), acc21 = _mm_setzero_ps();
  __m128 acc30 = _mm_setzero_ps(), acc31 = _mm_setzero_ps();
  __m128 acc40 = _mm_setzero_ps(), acc41 = _mm_setzero_ps();
  __m128 acc50 = _mm_setzero_ps(), acc51 = _mm_setzero_ps();
  const float* pa0 = a + (i0 + 0) * a_row_stride;
  const float* pa1 = a + (i0 + 1) * a_row_stride;
  const float* pa2 = a + (i0 + 2) * a_row_stride;
  const float* pa3 = a + (i0 + 3) * a_row_stride;
  const float* pa4 = a + (i0 + 4) * a_row_stride;
  const float* pa5 = a + (i0 + 5) * a_row_stride;
  const float* brow = b + j0;
  for (std::size_t kk = 0; kk < k; ++kk, brow += n) {
    const __m128 b0 = _mm_loadu_ps(brow);
    const __m128 b1 = _mm_loadu_ps(brow + 4);
    const std::size_t ka = kk * a_k_stride;
    const auto row_step = [&](const float* pa, __m128& lo, __m128& hi) {
      if (!is_float_zero(pa + ka)) {
        const __m128 v = _mm_set1_ps(pa[ka]);
        lo = _mm_add_ps(lo, _mm_mul_ps(v, b0));
        hi = _mm_add_ps(hi, _mm_mul_ps(v, b1));
      }
    };
    row_step(pa0, acc00, acc01);
    row_step(pa1, acc10, acc11);
    row_step(pa2, acc20, acc21);
    row_step(pa3, acc30, acc31);
    row_step(pa4, acc40, acc41);
    row_step(pa5, acc50, acc51);
  }
  const auto store_row = [&](std::size_t i, __m128 lo, __m128 hi) {
    float* crow = c + (i0 + i) * n + j0;
    if constexpr (kStore == Store::kAssign) {
      _mm_storeu_ps(crow, lo);
      _mm_storeu_ps(crow + 4, hi);
    } else if constexpr (kStore == Store::kAddBias) {
      _mm_storeu_ps(crow, _mm_add_ps(lo, _mm_loadu_ps(bias + j0)));
      _mm_storeu_ps(crow + 4, _mm_add_ps(hi, _mm_loadu_ps(bias + j0 + 4)));
    } else {
      // c += acc, keeping the original "c[j] += acc" operand order.
      _mm_storeu_ps(crow, _mm_add_ps(_mm_loadu_ps(crow), lo));
      _mm_storeu_ps(crow + 4, _mm_add_ps(_mm_loadu_ps(crow + 4), hi));
    }
  };
  store_row(0, acc00, acc01);
  store_row(1, acc10, acc11);
  store_row(2, acc20, acc21);
  store_row(3, acc30, acc31);
  store_row(4, acc40, acc41);
  store_row(5, acc50, acc51);
}

#if FEDPKD_GEMM_AVX

inline bool cpu_has_avx() {
  static const bool has = __builtin_cpu_supports("avx") != 0;
  return has;
}

/// AVX twin of gemm_tile_full: kRows x kNcAvx outputs, two 256-bit
/// accumulators per row. kRows == kMr is the full tile; kRows 1..kMr-1 serve
/// the row tail of a range, so a partial row tile stays on vector code. Only
/// A rows [i0, i0 + kRows) are ever read. The row loops are unrolled
/// completely, which is what lets the accumulator arrays live in registers
/// (at kMr: 12 accumulators + 2 B vectors + the broadcast, as in the SSE
/// tile); without the pragmas GCC 12 keeps them on the stack. Spelled out
/// without helpers so the target attribute applies to every intrinsic.
/// `store` is a runtime parameter (one branch per tile, after the k loop)
/// instead of a template one so each row count is a single symbol carrying
/// the attribute. `b_strip` points at the tile's first B row
/// (column j0 already applied) and advances by `b_stride` per kk — n for
/// in-place B, kNcAvx for a packed strip. The packed layout holds identical
/// values in the identical kk order, so both strides produce bitwise-identical
/// output.
template <std::size_t kRows>
__attribute__((target("avx"))) void gemm_tile_avx(
    const float* a, std::size_t a_row_stride, std::size_t a_k_stride,
    const float* b_strip, std::size_t b_stride, const float* bias, float* c,
    std::size_t k, std::size_t n, std::size_t i0, std::size_t j0,
    Store store) {
  __m256 lo[kRows], hi[kRows];
  const float* pa[kRows];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < kRows; ++r) {
    lo[r] = _mm256_setzero_ps();
    hi[r] = _mm256_setzero_ps();
    pa[r] = a + (i0 + r) * a_row_stride;
  }
  const float* brow = b_strip;
  for (std::size_t kk = 0; kk < k; ++kk, brow += b_stride) {
    // Pull the B rows a few iterations ahead into L1; with the packed strip
    // this is one contiguous line per iteration, in-place it hides the
    // stride-n walk. Prefetching past the strip is harmless.
    _mm_prefetch(reinterpret_cast<const char*>(brow + 4 * b_stride),
                 _MM_HINT_T0);
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    const std::size_t ka = kk * a_k_stride;
#pragma GCC unroll 8
    for (std::size_t r = 0; r < kRows; ++r) {
      if (!is_float_zero(pa[r] + ka)) {
        const __m256 v = _mm256_broadcast_ss(pa[r] + ka);
        lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(v, b0));
        hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(v, b1));
      }
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < kRows; ++r) {
    float* crow = c + (i0 + r) * n + j0;
    if (store == Store::kAssign) {
      _mm256_storeu_ps(crow, lo[r]);
      _mm256_storeu_ps(crow + 8, hi[r]);
    } else if (store == Store::kAddBias) {
      _mm256_storeu_ps(crow, _mm256_add_ps(lo[r], _mm256_loadu_ps(bias + j0)));
      _mm256_storeu_ps(crow + 8,
                       _mm256_add_ps(hi[r], _mm256_loadu_ps(bias + j0 + 8)));
    } else {
      // c += acc, keeping the original "c[j] += acc" operand order.
      _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), lo[r]));
      _mm256_storeu_ps(crow + 8,
                       _mm256_add_ps(_mm256_loadu_ps(crow + 8), hi[r]));
    }
  }
}

using AvxTile = void (*)(const float*, std::size_t, std::size_t, const float*,
                         std::size_t, const float*, float*, std::size_t,
                         std::size_t, std::size_t, std::size_t, Store);

/// gemm_tile_avx by row count: kAvxTiles[mr] computes an mr x kNcAvx tile.
constexpr AvxTile kAvxTiles[kMr + 1] = {
    nullptr,          gemm_tile_avx<1>, gemm_tile_avx<2>, gemm_tile_avx<3>,
    gemm_tile_avx<4>, gemm_tile_avx<5>, gemm_tile_avx<6>};

#endif  // FEDPKD_GEMM_AVX

/// Edge tile with runtime bounds (last partial row/column tile).
template <Store kStore>
inline void gemm_tile_edge(const float* a, std::size_t a_row_stride,
                           std::size_t a_k_stride, const float* b,
                           const float* bias, float* c, std::size_t k,
                           std::size_t n, std::size_t i0, std::size_t mr,
                           std::size_t j0, std::size_t nc) {
  float acc[kMr][kNcAvx] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * n + j0;
    for (std::size_t i = 0; i < mr; ++i) {
      const float av = a[(i0 + i) * a_row_stride + kk * a_k_stride];
      if (av == 0.0f) continue;
      float* ai = acc[i];
      for (std::size_t j = 0; j < nc; ++j) ai[j] += av * brow[j];
    }
  }
  store_tile<kStore>(acc, bias, c, n, i0, mr, j0, nc);
}

#if FEDPKD_GEMM_AVX

/// Copies the kNcAvx-wide B column strip at j0 into a contiguous [k x 16]
/// panel. Pure data movement — the packed tile then replays the exact same
/// values in the exact same kk order, so packing cannot change a bit.
void pack_b_strip(const float* b, std::size_t n, std::size_t k,
                  std::size_t j0, float* packed) {
  const float* src = b + j0;
  for (std::size_t kk = 0; kk < k; ++kk, src += n, packed += kNcAvx) {
    _mm_prefetch(reinterpret_cast<const char*>(src + 8 * n), _MM_HINT_T0);
    std::memcpy(packed, src, kNcAvx * sizeof(float));
  }
}

/// Packing pays once per column strip and is reused by every full row tile in
/// the chunk, so it needs a few row tiles to amortize; below that (or for
/// short k) the in-place walk is already L1-resident.
constexpr std::size_t kPackMinRowTiles = 2;
constexpr std::size_t kPackMinK = 64;

#endif  // FEDPKD_GEMM_AVX

/// Columns [j0, n) of the row tile at i0 once the AVX strips are done: SSE
/// tiles while a full kMr x kNc tile fits, scalar edge tiles for the rest
/// (partial rows without AVX, and the last < kNc columns).
template <Store kStore>
void gemm_tile_columns(const float* a, std::size_t a_row_stride,
                       std::size_t a_k_stride, const float* b,
                       const float* bias, float* c, std::size_t k,
                       std::size_t n, std::size_t i0, std::size_t mr,
                       std::size_t j0) {
  for (; j0 + kNc <= n; j0 += kNc) {
    if (mr == kMr) {
      gemm_tile_full<kStore>(a, a_row_stride, a_k_stride, b, bias, c, k, n, i0,
                             j0);
    } else {
      gemm_tile_edge<kStore>(a, a_row_stride, a_k_stride, b, bias, c, k, n, i0,
                             mr, j0, kNc);
    }
  }
  if (j0 < n) {
    gemm_tile_edge<kStore>(a, a_row_stride, a_k_stride, b, bias, c, k, n, i0,
                           mr, j0, n - j0);
  }
}

template <Store kStore>
void gemm_rows(const float* a, std::size_t a_row_stride,
               std::size_t a_k_stride, const float* b, const float* bias,
               float* c, std::size_t k, std::size_t n, std::size_t row_begin,
               std::size_t row_end) {
  std::size_t avx_cols = 0;  // columns [0, avx_cols) go through AVX tiles
#if FEDPKD_GEMM_AVX
  if (cpu_has_avx()) avx_cols = n / kNcAvx * kNcAvx;
  // Cache-blocked K-packing: with enough full row tiles in this chunk, pack
  // each 16-column B strip contiguously once and stream every row tile —
  // the row tail included — over it. The strip loop becomes sequential loads
  // that the prefetches above keep one line ahead, instead of k strided
  // touches per tile.
  const std::size_t full_tiles = (row_end - row_begin) / kMr;
  if (avx_cols != 0 && full_tiles >= kPackMinRowTiles && k >= kPackMinK) {
    Workspace::Scope scope(Workspace::per_thread());
    float* packed = scope.take(k * kNcAvx).data();
    for (std::size_t j0 = 0; j0 < avx_cols; j0 += kNcAvx) {
      pack_b_strip(b, n, k, j0, packed);
      for (std::size_t i0 = row_begin; i0 < row_end; i0 += kMr) {
        const std::size_t mr = std::min(kMr, row_end - i0);
        kAvxTiles[mr](a, a_row_stride, a_k_stride, packed, kNcAvx, bias, c, k,
                      n, i0, j0, kStore);
      }
    }
    for (std::size_t i0 = row_begin; i0 < row_end; i0 += kMr) {
      gemm_tile_columns<kStore>(a, a_row_stride, a_k_stride, b, bias, c, k, n,
                                i0, std::min(kMr, row_end - i0), avx_cols);
    }
    return;
  }
#endif
  for (std::size_t i0 = row_begin; i0 < row_end; i0 += kMr) {
    const std::size_t mr = std::min(kMr, row_end - i0);
#if FEDPKD_GEMM_AVX
    for (std::size_t j0 = 0; j0 < avx_cols; j0 += kNcAvx) {
      kAvxTiles[mr](a, a_row_stride, a_k_stride, b + j0, n, bias, c, k, n, i0,
                    j0, kStore);
    }
#endif
    gemm_tile_columns<kStore>(a, a_row_stride, a_k_stride, b, bias, c, k, n, i0,
                              mr, avx_cols);
  }
}

}  // namespace

void matmul_rows(const float* a, const float* b, float* c, std::size_t k,
                 std::size_t n, std::size_t row_begin, std::size_t row_end) {
  gemm_rows<Store::kAssign>(a, /*a_row_stride=*/k, /*a_k_stride=*/1, b,
                            nullptr, c, k, n, row_begin, row_end);
}

void matmul_bias_rows(const float* a, const float* b, const float* bias,
                      float* c, std::size_t k, std::size_t n,
                      std::size_t row_begin, std::size_t row_end) {
  gemm_rows<Store::kAddBias>(a, k, 1, b, bias, c, k, n, row_begin, row_end);
}

void matmul_ta_rows(const float* a, const float* b, float* c, std::size_t k,
                    std::size_t m, std::size_t n, std::size_t row_begin,
                    std::size_t row_end) {
  gemm_rows<Store::kAssign>(a, /*a_row_stride=*/1, /*a_k_stride=*/m, b,
                            nullptr, c, k, n, row_begin, row_end);
}

void matmul_ta_acc_rows(const float* a, const float* b, float* c,
                        std::size_t k, std::size_t m, std::size_t n,
                        std::size_t row_begin, std::size_t row_end) {
  gemm_rows<Store::kAccumulate>(a, 1, m, b, nullptr, c, k, n, row_begin,
                                row_end);
}

/// -- Naive references (the pre-blocking kernels, kept verbatim) --------------

void matmul_rows_naive(const float* a, const float* b, float* c, std::size_t k,
                       std::size_t n, std::size_t row_begin,
                       std::size_t row_end) {
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const float* pa = a + i * k;
    float* po = c + i * n;
    std::fill(po, po + n, 0.0f);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = pa[kk];
      if (av == 0.0f) continue;
      const float* pb = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) po[j] += av * pb[j];
    }
  }
}

void matmul_ta_rows_naive(const float* a, const float* b, float* c,
                          std::size_t k, std::size_t m, std::size_t n,
                          std::size_t row_begin, std::size_t row_end) {
  for (std::size_t i = row_begin; i < row_end; ++i) {
    float* po = c + i * n;
    std::fill(po, po + n, 0.0f);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = a[kk * m + i];
      if (av == 0.0f) continue;
      const float* pb = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) po[j] += av * pb[j];
    }
  }
}

void matmul_tb_rows_naive(const float* a, const float* b, float* c,
                          std::size_t k, std::size_t n, std::size_t row_begin,
                          std::size_t row_end) {
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const float* pa = a + i * k;
    float* po = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* pb = b + j * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += pa[kk] * pb[kk];
      po[j] = acc;
    }
  }
}

void adam_update(float* value, const float* grad, float* m, float* v,
                 std::size_t n, const AdamStep& s) {
  // Every lane runs the scalar expression tree of adam_update_naive with the
  // same operand order: _mm_{add,sub,mul,div,sqrt}_ps are the correctly
  // rounded IEEE ops of their scalar twins, and no FMA is ever formed.
  const __m128 wd = _mm_set1_ps(s.weight_decay);
  const __m128 beta1 = _mm_set1_ps(s.beta1);
  const __m128 beta2 = _mm_set1_ps(s.beta2);
  const __m128 one_minus_beta1 = _mm_set1_ps(1.0f - s.beta1);
  const __m128 one_minus_beta2 = _mm_set1_ps(1.0f - s.beta2);
  const __m128 bc1 = _mm_set1_ps(s.bc1);
  const __m128 bc2 = _mm_set1_ps(s.bc2);
  const __m128 lr = _mm_set1_ps(s.lr);
  const __m128 eps = _mm_set1_ps(s.eps);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 w = _mm_loadu_ps(value + i);
    const __m128 g = _mm_add_ps(_mm_loadu_ps(grad + i), _mm_mul_ps(wd, w));
    const __m128 mi = _mm_add_ps(_mm_mul_ps(beta1, _mm_loadu_ps(m + i)),
                                 _mm_mul_ps(one_minus_beta1, g));
    const __m128 vi =
        _mm_add_ps(_mm_mul_ps(beta2, _mm_loadu_ps(v + i)),
                   _mm_mul_ps(_mm_mul_ps(one_minus_beta2, g), g));
    _mm_storeu_ps(m + i, mi);
    _mm_storeu_ps(v + i, vi);
    const __m128 mhat = _mm_div_ps(mi, bc1);
    const __m128 vhat = _mm_div_ps(vi, bc2);
    const __m128 step = _mm_div_ps(_mm_mul_ps(lr, mhat),
                                   _mm_add_ps(_mm_sqrt_ps(vhat), eps));
    _mm_storeu_ps(value + i, _mm_sub_ps(w, step));
  }
  adam_update_naive(value + i, grad + i, m + i, v + i, n - i, s);
}

void adam_update_naive(float* value, const float* grad, float* m, float* v,
                       std::size_t n, const AdamStep& s) {
  for (std::size_t k = 0; k < n; ++k) {
    const float g = grad[k] + s.weight_decay * value[k];
    m[k] = s.beta1 * m[k] + (1.0f - s.beta1) * g;
    v[k] = s.beta2 * v[k] + (1.0f - s.beta2) * g * g;
    const float mhat = m[k] / s.bc1;
    const float vhat = v[k] / s.bc2;
    value[k] -= s.lr * mhat / (std::sqrt(vhat) + s.eps);
  }
}

void transpose_blocked(const float* a, float* out, std::size_t m,
                       std::size_t n) {
  // 32x32 tiles: reads and writes both stay within a handful of cache lines
  // per tile instead of the column-scatter of the naive loop. Pure
  // permutation, so tiling cannot change any value.
  constexpr std::size_t kTile = 32;
  for (std::size_t i0 = 0; i0 < m; i0 += kTile) {
    const std::size_t i1 = std::min(m, i0 + kTile);
    for (std::size_t j0 = 0; j0 < n; j0 += kTile) {
      const std::size_t j1 = std::min(n, j0 + kTile);
      for (std::size_t i = i0; i < i1; ++i) {
        for (std::size_t j = j0; j < j1; ++j) {
          out[j * m + i] = a[i * n + j];
        }
      }
    }
  }
}

void transpose_naive(const float* a, float* out, std::size_t m,
                     std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) out[j * m + i] = a[i * n + j];
  }
}

void softmax_rows(const float* logits, float* out, std::size_t m,
                  std::size_t n, float temperature) {
  for (std::size_t r = 0; r < m; ++r) {
    const float* pl = logits + r * n;
    float* po = out + r * n;
    // Hoisted divide: scale once into the output buffer, then reuse the
    // scaled values for both the max and exp passes.
    for (std::size_t c = 0; c < n; ++c) po[c] = pl[c] / temperature;
    float mx = -std::numeric_limits<float>::infinity();
    for (std::size_t c = 0; c < n; ++c) mx = std::max(mx, po[c]);
    double z = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      po[c] = std::exp(po[c] - mx);
      z += po[c];
    }
    const float inv = static_cast<float>(1.0 / z);
    for (std::size_t c = 0; c < n; ++c) po[c] *= inv;
  }
}

void log_softmax_rows(const float* logits, float* out, std::size_t m,
                      std::size_t n, float temperature) {
  for (std::size_t r = 0; r < m; ++r) {
    const float* pl = logits + r * n;
    float* po = out + r * n;
    for (std::size_t c = 0; c < n; ++c) po[c] = pl[c] / temperature;
    float mx = -std::numeric_limits<float>::infinity();
    for (std::size_t c = 0; c < n; ++c) mx = std::max(mx, po[c]);
    double z = 0.0;
    for (std::size_t c = 0; c < n; ++c) z += std::exp(po[c] - mx);
    const float logz = mx + static_cast<float>(std::log(z));
    for (std::size_t c = 0; c < n; ++c) po[c] -= logz;
  }
}

}  // namespace fedpkd::tensor::kernels
