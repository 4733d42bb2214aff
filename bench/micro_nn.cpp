// Microbenchmarks for model forward/backward and training steps. Runs are
// appended to BENCH_kernels.json via json_reporter.hpp.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/fl/trainer.hpp"
#include "fedpkd/nn/loss.hpp"
#include "fedpkd/nn/model_zoo.hpp"
#include "fedpkd/nn/optimizer.hpp"
#include "fedpkd/nn/train_step.hpp"
#include "json_reporter.hpp"

namespace {

using namespace fedpkd;
using tensor::Rng;
using tensor::Tensor;

/// Inference logits of one 32-row tile into a reused tensor: the call each
/// lane of fl::compute_logits makes per tile. A warm call allocates nothing.
void BM_ForwardBatch32(benchmark::State& state) {
  Rng rng(1);
  const std::string arch = nn::known_archs().at(
      static_cast<std::size_t>(state.range(0)));
  nn::Classifier model = nn::make_classifier(arch, 32, 10, rng);
  const Tensor x = Tensor::randn({32, 32}, rng);
  Tensor logits;
  model.logits_into(x, logits);  // warm-up: shapes logits and the hops
  const auto allocs_before = Tensor::allocation_count();
  for (auto _ : state) {
    model.logits_into(x, logits);
    benchmark::DoNotOptimize(logits.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(arch);
  state.counters["allocs_per_iter"] =
      static_cast<double>(Tensor::allocation_count() - allocs_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_ForwardBatch32)->DenseRange(0, 3);

/// One shared training step (nn::TrainStep, the step every training loop
/// runs) of `arch` at the given batch size and lane count. The steps cycle
/// through kBatches distinct inputs, as a training loop does: on one fixed
/// batch the ReLU zero patterns repeat and the branch predictor learns them.
void train_step(benchmark::State& state, const std::string& arch,
                std::size_t batch, std::size_t lanes) {
  constexpr std::size_t kBatches = 16;
  exec::set_num_threads(lanes);
  Rng rng(2);
  nn::Classifier model = nn::make_classifier(arch, 32, 10, rng);
  nn::Adam adam(model.parameters());
  nn::TrainStep step(model, adam);
  std::vector<Tensor> xs;
  for (std::size_t i = 0; i < kBatches; ++i) {
    xs.push_back(Tensor::randn({batch, 32}, rng));
  }
  std::vector<int> y(batch);
  for (std::size_t i = 0; i < batch; ++i) y[i] = static_cast<int>(i % 10);
  const auto cross_entropy = [&](const Tensor& logits, const Tensor&) {
    nn::LossResult ce = nn::softmax_cross_entropy(logits, y);
    return nn::StepLoss{ce.value, std::move(ce.grad)};
  };
  step.run(xs[0], cross_entropy);  // warm-up: shapes the step buffers
  const auto allocs_before = Tensor::allocation_count();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(step.run(xs[i], cross_entropy));
    i = (i + 1) % kBatches;
  }
  state.SetLabel(arch + ",batch=" + std::to_string(batch) +
                 ",lanes=" + std::to_string(exec::num_threads()));
  state.counters["allocs_per_iter"] =
      static_cast<double>(Tensor::allocation_count() - allocs_before) /
      static_cast<double>(state.iterations());
  exec::set_num_threads(1);
}

/// Args: arch (0 = resmlp20, 1 = resmlp56), lanes.
void BM_TrainStepBatch32(benchmark::State& state) {
  train_step(state, state.range(0) == 0 ? "resmlp20" : "resmlp56", 32,
             static_cast<std::size_t>(state.range(1)));
}
BENCHMARK(BM_TrainStepBatch32)->ArgsProduct({{0, 1}, {1, 4}});

/// The server model's step at the other batch sizes (batch 32 is above).
/// Args: batch, lanes.
void BM_TrainStepResMlp56(benchmark::State& state) {
  train_step(state, "resmlp56", static_cast<std::size_t>(state.range(0)),
             static_cast<std::size_t>(state.range(1)));
}
BENCHMARK(BM_TrainStepResMlp56)->ArgsProduct({{8, 128}, {1, 4}});

void BM_FeatureExtraction(benchmark::State& state) {
  Rng rng(3);
  nn::Classifier model = nn::make_classifier("resmlp56", 32, 10, rng);
  const Tensor x = Tensor::randn({256, 32}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fl::compute_features(model, x));
  }
}
BENCHMARK(BM_FeatureExtraction);

/// Building one resmlp20 client model with the pool's deferred builder, then
/// either a FedAvg download (arg 0: a whole-model set_flat_weights, which
/// drops the init stream undrawn) or a first read (arg 1: flat_weights,
/// which draws the He init).
void BM_ClientModelBuild(benchmark::State& state) {
  const bool first_read = state.range(0) == 1;
  Rng rng(5);
  const Tensor download = nn::make_classifier("resmlp20", 32, 10, rng)
                              .flat_weights();
  std::uint64_t stream = 0;
  const auto allocs_before = Tensor::allocation_count();
  for (auto _ : state) {
    nn::Classifier model = nn::make_classifier_deferred(
        "resmlp20", 32, 10, rng.split(++stream));
    if (first_read) {
      benchmark::DoNotOptimize(model.flat_weights());
    } else {
      model.set_flat_weights(download);
    }
    benchmark::DoNotOptimize(model);
  }
  state.SetLabel(first_read ? "resmlp20,first_read" : "resmlp20,download");
  state.counters["allocs_per_iter"] =
      static_cast<double>(Tensor::allocation_count() - allocs_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_ClientModelBuild)->Arg(0)->Arg(1);

void BM_AdamStep(benchmark::State& state) {
  Rng rng(4);
  nn::Classifier model = nn::make_classifier("resmlp56", 32, 100, rng);
  nn::Adam adam(model.parameters());
  for (nn::Parameter* p : model.parameters()) p->grad.fill(0.01f);
  for (auto _ : state) {
    adam.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(model.parameter_count()));
}
BENCHMARK(BM_AdamStep);

}  // namespace

int main(int argc, char** argv) {
  return fedpkd::bench::run_benchmarks_with_json(argc, argv);
}
