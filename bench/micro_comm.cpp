// Microbenchmarks for the simulated wire: payload serialization, the CRC32
// integrity check, and one reliable broadcast — the per-round overhead every
// federated algorithm pays.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>

#include "fedpkd/comm/channel.hpp"
#include "fedpkd/comm/payload.hpp"
#include "fedpkd/tensor/rng.hpp"
#include "json_reporter.hpp"

// Heap allocations of every kind (byte buffers included, which
// Tensor::allocation_count does not see), for BM_BroadcastReliable.
namespace {
std::atomic<std::size_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// GCC cannot see that the operator new above allocates with malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace fedpkd;
using tensor::Rng;
using tensor::Tensor;

void BM_EncodeLogits(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  comm::LogitsPayload payload;
  payload.sample_ids.resize(n);
  std::iota(payload.sample_ids.begin(), payload.sample_ids.end(), 0u);
  payload.logits = Tensor::randn({n, 10}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(comm::encode(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(4 * n * 10));
}
BENCHMARK(BM_EncodeLogits)->Arg(1000)->Arg(5000);

void BM_DecodeLogits(benchmark::State& state) {
  Rng rng(2);
  comm::LogitsPayload payload;
  payload.sample_ids.resize(5000);
  std::iota(payload.sample_ids.begin(), payload.sample_ids.end(), 0u);
  payload.logits = Tensor::randn({5000, 10}, rng);
  const auto bytes = comm::encode(payload);
  for (auto _ : state) {
    benchmark::DoNotOptimize(comm::decode_logits(bytes));
  }
}
BENCHMARK(BM_DecodeLogits);

void BM_EncodeWeights(benchmark::State& state) {
  Rng rng(3);
  const comm::WeightsPayload payload{Tensor::randn({200000}, rng)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(comm::encode(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          800000);
}
BENCHMARK(BM_EncodeWeights);

void BM_EncodePrototypes(benchmark::State& state) {
  Rng rng(4);
  comm::PrototypesPayload payload;
  for (int j = 0; j < 100; ++j) {
    payload.entries.push_back(
        {j, 50, Tensor::randn({64}, rng)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(comm::encode(payload));
  }
}
BENCHMARK(BM_EncodePrototypes);

// CRC32 tiers at one resmlp20 weights frame (160 KiB) and one durable
// generation (1.5 MiB). range(0): 0 = naive table loop, 1 = slice-by-16,
// 2 = dispatched (the PCLMULQDQ fold where the CPU has it).
void BM_Crc32(benchmark::State& state) {
  static constexpr const char* kTiers[] = {"naive", "portable", "dispatched"};
  const auto tier = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  Rng rng(5);
  std::vector<std::byte> bytes(n);
  for (std::byte& b : bytes) b = static_cast<std::byte>(rng.uniform_index(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tier == 0   ? comm::crc32_naive(bytes)
                             : tier == 1 ? comm::crc32_portable(bytes)
                                         : comm::crc32(bytes));
  }
  state.SetLabel(std::string(kTiers[tier]) + "/" + std::to_string(n));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Crc32)->ArgsProduct({{0, 1, 2}, {160 << 10, 1536 << 10}});

// One 160 KB weights bundle sealed once and sent to 16 recipients through
// the reliable transport: one frame plus one delivered copy per recipient.
void BM_BroadcastReliable(benchmark::State& state) {
  constexpr int kRecipients = 16;
  Rng rng(6);
  const comm::WeightsPayload payload{Tensor::randn({40000}, rng)};
  comm::Meter meter;
  comm::Channel channel(meter);
  const std::size_t allocs_before = g_heap_allocs.load();
  for (auto _ : state) {
    const std::vector<std::byte> frame = comm::sealed_frame(payload);
    for (int r = 0; r < kRecipients; ++r) {
      benchmark::DoNotOptimize(channel.send_sealed(comm::kServerId, r, frame));
    }
  }
  state.SetLabel("160KBx16");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kRecipients * 160000);
  state.counters["allocs_per_iter"] =
      static_cast<double>(g_heap_allocs.load() - allocs_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_BroadcastReliable);

}  // namespace

int main(int argc, char** argv) {
  return fedpkd::bench::run_benchmarks_with_json(argc, argv);
}
