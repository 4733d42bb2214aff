// Microbenchmarks for the tensor substrate hot loops (google-benchmark).
// Every run lands in BENCH_kernels.json via json_reporter.hpp; the *Naive
// variants time the retained reference kernels so the blocked/naive ratio is
// visible in the same file.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fedpkd/nn/activation.hpp"
#include "fedpkd/tensor/kernels.hpp"
#include "fedpkd/tensor/ops.hpp"
#include "fedpkd/tensor/rng.hpp"
#include "json_reporter.hpp"

namespace {

using fedpkd::tensor::Rng;
using fedpkd::tensor::Tensor;
namespace kernels = fedpkd::tensor::kernels;

std::string cube_label(std::size_t n) {
  const std::string s = std::to_string(n);
  return s + "x" + s + "x" + s;
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  const auto allocs_before = Tensor::allocation_count();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fedpkd::tensor::matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
  state.SetLabel(cube_label(n));
  state.counters["flops_per_iter"] = 2.0 * static_cast<double>(n * n * n);
  state.counters["allocs_per_iter"] =
      static_cast<double>(Tensor::allocation_count() - allocs_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

void BM_MatmulNaive(benchmark::State& state) {
  // The pre-blocking reference kernel on the same problem, for the speedup
  // ratio in BENCH_kernels.json.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    kernels::matmul_rows_naive(a.data(), b.data(), c.data(), n, n, 0, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(cube_label(n));
  state.counters["flops_per_iter"] = 2.0 * static_cast<double>(n * n * n);
}
BENCHMARK(BM_MatmulNaive)->Arg(32)->Arg(64)->Arg(128);

/// The matmul tiles on a ReLU output, the A operand of every hidden layer
/// in training and inference: about half the entries are exact zeros, in a
/// fresh pattern per call. The bench cycles through kPatterns distinct A
/// operands so a branch predictor cannot learn one pattern, as it would on
/// the single input that BM_Matmul reuses. Arg: m rows; k = n = 96, the
/// resmlp56 width.
void BM_MatmulReluSparse(benchmark::State& state) {
  constexpr std::size_t kPatterns = 64, k = 96, n = 96;
  const auto m = static_cast<std::size_t>(state.range(0));
  Rng rng(10);
  std::vector<Tensor> a;
  for (std::size_t p = 0; p < kPatterns; ++p) {
    Tensor x = Tensor::randn({m, k}, rng);
    for (std::size_t i = 0; i < x.numel(); ++i) x[i] = std::max(x[i], 0.0f);
    a.push_back(std::move(x));
  }
  const Tensor b = Tensor::randn({k, n}, rng);
  Tensor c({m, n});
  const auto allocs_before = Tensor::allocation_count();
  std::size_t p = 0;
  for (auto _ : state) {
    kernels::matmul_rows(a[p].data(), b.data(), c.data(), k, n, 0, m);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
    p = (p + 1) % kPatterns;
  }
  state.SetLabel(std::to_string(m) + "x96x96,relu");
  state.counters["flops_per_iter"] = 2.0 * static_cast<double>(m * k * n);
  state.counters["allocs_per_iter"] =
      static_cast<double>(Tensor::allocation_count() - allocs_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_MatmulReluSparse)->Arg(32)->Arg(256);

void BM_MatmulTransposeA(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fedpkd::tensor::matmul_transpose_a(a, b));
  }
  state.SetLabel(cube_label(n));
  state.counters["flops_per_iter"] = 2.0 * static_cast<double>(n * n * n);
}
BENCHMARK(BM_MatmulTransposeA)->Arg(64);

void BM_MatmulTransposeB(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fedpkd::tensor::matmul_transpose_b(a, b));
  }
  state.SetLabel(cube_label(n));
  state.counters["flops_per_iter"] = 2.0 * static_cast<double>(n * n * n);
}
BENCHMARK(BM_MatmulTransposeB)->Arg(64);

/// dx = gy W^T of Linear::backward_rows at a resmlp56 hidden layer at batch
/// 32: 32x96 times (96x96)^T, the whole batch (arg 0, one lane) and one
/// lane's quarter of the rows at 4 lanes (arg 1, rows [8, 16)).
void BM_MatmulTransposeBRows(benchmark::State& state) {
  constexpr std::size_t m = 32, n = 96;
  const bool quarter = state.range(0) == 1;
  const std::size_t r0 = quarter ? m / 4 : 0, r1 = quarter ? m / 2 : m;
  Rng rng(14);
  const Tensor gy = Tensor::randn({m, n}, rng);
  const Tensor w = Tensor::randn({n, n}, rng);
  Tensor gx({m, n});
  const auto allocs_before = Tensor::allocation_count();
  for (auto _ : state) {
    kernels::matmul_tb_rows(gy.data(), w.data(), gx.data(), n, n, r0, r1);
    benchmark::DoNotOptimize(gx.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(quarter ? "32x96x96,rows=8..16" : "32x96x96");
  state.counters["flops_per_iter"] =
      2.0 * static_cast<double>((r1 - r0) * n * n);
  state.counters["allocs_per_iter"] =
      static_cast<double>(Tensor::allocation_count() - allocs_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_MatmulTransposeBRows)
    ->Name("BM_MatmulTransposeB")
    ->Arg(0)
    ->Arg(1);

void BM_Transpose(benchmark::State& state) {
  Rng rng(8);
  const Tensor a = Tensor::randn({512, 300}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fedpkd::tensor::transpose(a));
  }
  state.SetLabel("512x300");
}
BENCHMARK(BM_Transpose);

/// Relu::backward_rows on 32x96 rows (a resmlp56 batch-32 hidden layer),
/// cycling through kPatterns modules forwarded on fresh inputs, so the sign
/// pattern changes every call as it does in training.
void BM_ReluBackward(benchmark::State& state) {
  constexpr std::size_t kPatterns = 64, m = 32, n = 96;
  Rng rng(12);
  std::vector<fedpkd::nn::Relu> relus(kPatterns);
  for (fedpkd::nn::Relu& relu : relus) {
    relu.forward(Tensor::randn({m, n}, rng), /*train=*/true);
  }
  const Tensor gy = Tensor::randn({m, n}, rng);
  const auto allocs_before = Tensor::allocation_count();
  std::size_t p = 0;
  for (auto _ : state) {
    relus[p].backward_rows(gy, 0, m);
    benchmark::DoNotOptimize(relus[p].input_grad().data());
    benchmark::ClobberMemory();
    p = (p + 1) % kPatterns;
  }
  state.SetLabel("32x96,patterns=64");
  state.counters["allocs_per_iter"] =
      static_cast<double>(Tensor::allocation_count() - allocs_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_ReluBackward);

/// The blocked transpose of a 96x96 weight: the whole transpose (arg 0, one
/// lane) and one lane's quarter of it at 4 lanes (arg 1, rows [24, 48)).
void BM_TransposeRows(benchmark::State& state) {
  constexpr std::size_t n = 96;
  const bool quarter = state.range(0) == 1;
  const std::size_t r0 = quarter ? n / 4 : 0, r1 = quarter ? n / 2 : n;
  Rng rng(13);
  const Tensor a = Tensor::randn({n, n}, rng);
  Tensor out({n, n});
  const auto allocs_before = Tensor::allocation_count();
  for (auto _ : state) {
    kernels::transpose_blocked_rows(a.data(), out.data(), n, n, r0, r1);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(quarter ? "96x96,rows=24..48" : "96x96");
  state.counters["allocs_per_iter"] =
      static_cast<double>(Tensor::allocation_count() - allocs_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_TransposeRows)->Arg(0)->Arg(1);

void BM_SoftmaxRows(benchmark::State& state) {
  Rng rng(3);
  const Tensor logits = Tensor::randn({512, 100}, rng);
  const auto allocs_before = Tensor::allocation_count();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fedpkd::tensor::softmax_rows(logits));
  }
  state.SetLabel("512x100");
  state.counters["allocs_per_iter"] =
      static_cast<double>(Tensor::allocation_count() - allocs_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_SoftmaxRows);

void BM_SoftmaxRowsInplace(benchmark::State& state) {
  Rng rng(3);
  Tensor logits = Tensor::randn({512, 100}, rng);
  const auto allocs_before = Tensor::allocation_count();
  for (auto _ : state) {
    fedpkd::tensor::softmax_rows_inplace(logits, 2.0f);
    benchmark::DoNotOptimize(logits.data());
  }
  state.SetLabel("512x100");
  state.counters["allocs_per_iter"] =
      static_cast<double>(Tensor::allocation_count() - allocs_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_SoftmaxRowsInplace);

void BM_VariancePerRow(benchmark::State& state) {
  Rng rng(4);
  const Tensor logits = Tensor::randn({1024, 100}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fedpkd::tensor::variance_per_row(logits));
  }
  state.SetLabel("1024x100");
}
BENCHMARK(BM_VariancePerRow);

void BM_Axpy(benchmark::State& state) {
  Rng rng(5);
  Tensor a = Tensor::randn({100000}, rng);
  const Tensor b = Tensor::randn({100000}, rng);
  for (auto _ : state) {
    fedpkd::tensor::axpy_inplace(a, 0.001f, b);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetLabel("100000");
  state.counters["flops_per_iter"] = 2.0 * 100000.0;
}
BENCHMARK(BM_Axpy);

void BM_ScaleAdd(benchmark::State& state) {
  Rng rng(9);
  Tensor a = Tensor::randn({100000}, rng);
  const Tensor b = Tensor::randn({100000}, rng);
  for (auto _ : state) {
    fedpkd::tensor::scale_add_inplace(a, 0.999f, b, 0.001f);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetLabel("100000");
  state.counters["flops_per_iter"] = 3.0 * 100000.0;
}
BENCHMARK(BM_ScaleAdd);

void BM_RngNormal(benchmark::State& state) {
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.normal());
  }
}
BENCHMARK(BM_RngNormal);

}  // namespace

int main(int argc, char** argv) {
  return fedpkd::bench::run_benchmarks_with_json(argc, argv);
}
