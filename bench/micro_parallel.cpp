// Round wall-clock speedup vs. thread count: times one FedPKD round and one
// FedAvg round of an 8-client federation at 1/2/4/8 lanes and prints the
// speedup over serial. Results are bitwise identical at every thread count
// (tests/test_exec.cpp proves it); this driver only measures wall-clock.
//
// Speedup saturates at min(threads, clients) for the client-parallel phases
// and at the machine's core count overall — on a single-core container every
// row reports ~1x, which is expected, not a bug.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "fedpkd/comm/fault.hpp"
#include "fedpkd/core/fedpkd.hpp"
#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/fl/fedavg.hpp"
#include "fedpkd/fl/round_pipeline.hpp"
#include "fedpkd/robust/stats.hpp"

namespace {

using namespace fedpkd;
using Clock = std::chrono::steady_clock;

struct Timing {
  std::size_t threads;
  double seconds;
  double allocs;  // Tensor heap allocations during the run
  fl::StageTimes stages;  // summed over the run's rounds
  fl::RoundFaultStats faults;  // summed over the run's rounds
};

/// Process peak resident set in KB (ru_maxrss unit on Linux). Emitted with
/// each timing record so memory growth shows up next to the time series.
double peak_rss_kb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

/// Warm-up + min-of-N measurement. The first run per configuration pays all
/// one-time costs (page faults, arena growth, pool spin-up) and is discarded;
/// the minimum of the remaining runs is the least-noise estimate of the true
/// cost on a shared machine. Allocation counts are taken from the selected
/// run — after the warm-up they are identical across repeats.
constexpr std::size_t kMeasureRepeats = 3;

template <typename Run>
Timing min_of_n(Run&& run) {
  run();  // warm-up, discarded
  Timing best = run();
  for (std::size_t rep = 1; rep < kMeasureRepeats; ++rep) {
    Timing t = run();
    if (t.seconds < best.seconds) best = t;
  }
  return best;
}

/// The lane count a request actually runs with: exec::set_num_threads clamps
/// to the hardware, so on a 1-core box every request runs serial. JSON
/// records carry this *effective* count (the shape string keeps the
/// requested one as the record's identity) so bench_gate can tell a real
/// scaling measurement from two identical serial runs — it derives and
/// gates an N-vs-1 ratio only when the two ends ran with different
/// effective lane counts.
std::size_t effective_threads(std::size_t requested) {
  return std::min(requested, exec::hardware_threads());
}

/// Runs `rounds` rounds of `algorithm` on a fresh 8-client federation with
/// the given lane count and returns elapsed seconds. Rebuilding per
/// measurement keeps every run's work identical (same seed, same schedule).
Timing time_run(const std::string& algorithm,
                const data::FederatedDataBundle& bundle, std::size_t threads,
                std::size_t rounds,
                const comm::FaultPlan* plan = nullptr) {
  fl::FederationConfig config;
  config.num_clients = 8;
  // FedAvg aggregates weights and needs one architecture; FedPKD showcases
  // the heterogeneous case the engine was built for.
  config.client_archs = algorithm == "FedAvg"
                            ? std::vector<std::string>{"resmlp20"}
                            : std::vector<std::string>{"resmlp11", "resmlp20"};
  config.local_test_per_client = 50;
  config.seed = 11;
  config.num_threads = threads;
  auto fed =
      fl::build_federation(bundle, fl::PartitionSpec::dirichlet(0.3), config);
  if (plan != nullptr) fed->channel.set_fault_plan(*plan);

  std::unique_ptr<fl::Algorithm> algo;
  if (algorithm == "FedPKD") {
    core::FedPkd::Options options;
    options.local_epochs = 2;
    options.public_epochs = 1;
    options.server_epochs = 2;
    options.server_arch = "resmlp20";
    algo = std::make_unique<core::FedPkd>(*fed, options);
  } else {
    algo = std::make_unique<fl::FedAvg>(
        *fed, fl::FedAvg::Options{.local_epochs = 2, .proximal_mu = {}});
  }

  fl::RunOptions run;
  run.rounds = rounds;
  const auto allocs_before = tensor::Tensor::allocation_count();
  const auto start = Clock::now();
  fl::run_federation(*algo, *fed, run);
  const auto stop = Clock::now();
  exec::set_num_threads(1);
  Timing timing{
      threads, std::chrono::duration<double>(stop - start).count(),
      static_cast<double>(tensor::Tensor::allocation_count() - allocs_before),
      {},
      {}};
  if (const auto* staged = dynamic_cast<const fl::StagedAlgorithm*>(algo.get())) {
    timing.stages = staged->total_stage_times();
    timing.faults = staged->total_fault_stats();
  }
  return timing;
}

void report(const std::string& algorithm,
            const data::FederatedDataBundle& bundle, std::size_t rounds,
            const std::string& scale_name,
            std::vector<bench::JsonBenchRecord>& records) {
  std::printf("%s, 8 clients, %zu round(s):\n", algorithm.c_str(), rounds);
  std::printf("  %-8s %10s %9s %12s\n", "threads", "seconds", "speedup",
              "allocs");
  std::vector<Timing> timings;
  for (std::size_t threads : {1, 2, 4, 8}) {
    timings.push_back(min_of_n(
        [&] { return time_run(algorithm, bundle, threads, rounds); }));
  }
  const double serial = timings.front().seconds;
  for (const Timing& t : timings) {
    std::printf("  %-8zu %10.3f %8.2fx %12.0f\n", t.threads, t.seconds,
                serial / t.seconds, t.allocs);
    const std::string shape = "clients=8,threads=" + std::to_string(t.threads) +
                              ",scale=" + scale_name;
    bench::JsonBenchRecord record;
    record.op = "round:" + algorithm;
    record.shape = shape;
    record.ns_per_iter = t.seconds / static_cast<double>(rounds) * 1e9;
    record.allocs_per_iter = t.allocs / static_cast<double>(rounds);
    record.threads = effective_threads(t.threads);
    record.grain = exec::kMinOpsPerLane;
    record.rss_kb = peak_rss_kb();
    records.push_back(std::move(record));

    // Per-stage breakdown from the pipeline's instrumentation: where the
    // round's wall-clock goes, and which stages actually scale with lanes.
    const std::pair<const char*, double> stage_rows[] = {
        {"local_update", t.stages.local_update_seconds},
        {"upload", t.stages.upload_seconds},
        {"server_step", t.stages.server_step_seconds},
        {"download", t.stages.download_seconds},
        {"apply", t.stages.apply_seconds},
    };
    for (const auto& [stage, seconds] : stage_rows) {
      bench::JsonBenchRecord stage_record;
      stage_record.op = "stage:" + algorithm + ":" + stage;
      stage_record.shape = shape;
      stage_record.ns_per_iter = seconds / static_cast<double>(rounds) * 1e9;
      stage_record.threads = effective_threads(t.threads);
      stage_record.grain = exec::kMinOpsPerLane;
      records.push_back(std::move(stage_record));
    }
  }
  const Timing& last = timings.back();
  std::printf(
      "  stages@%zut: train=%.3fs up=%.3fs server=%.3fs down=%.3fs "
      "apply=%.3fs\n",
      last.threads, last.stages.local_update_seconds,
      last.stages.upload_seconds, last.stages.server_step_seconds,
      last.stages.download_seconds, last.stages.apply_seconds);
  std::printf("\n");
}

/// Reruns one round under the seeded fault matrix from the robustness tests
/// (20% loss, 5% corruption, latency + jitter, two stragglers) and publishes
/// the resulting fault counters as `fault:<algo>:<counter>` records so CI
/// archives the per-commit robustness overhead next to the kernel timings.
void report_faults(const std::string& algorithm,
                   const data::FederatedDataBundle& bundle, std::size_t rounds,
                   const std::string& scale_name,
                   std::vector<bench::JsonBenchRecord>& records) {
  comm::FaultPlan plan;
  plan.seed = 0xfa01701;
  plan.drop_probability = 0.2;
  plan.corrupt_probability = 0.05;
  plan.latency_ms = 1.0;
  plan.jitter_ms = 0.5;
  plan.max_retries = 3;
  plan.stragglers = {{1, 3.0}, {2, 5.0}};

  const Timing t = time_run(algorithm, bundle, 4, rounds, &plan);
  const fl::RoundFaultStats& f = t.faults;
  std::printf(
      "%s under faults (drop=0.2 corrupt=0.05), %zu round(s): "
      "%.3fs attempts=%zu retries=%zu dropped=%zu corrupt=%zu lost=%zu\n\n",
      algorithm.c_str(), rounds, t.seconds, f.send_attempts, f.retries,
      f.frames_dropped, f.corrupt_frames, f.bundles_lost);

  const std::string shape = "clients=8,threads=4,scale=" + scale_name;
  const std::pair<const char*, double> counters[] = {
      {"send_attempts", static_cast<double>(f.send_attempts)},
      {"retries", static_cast<double>(f.retries)},
      {"frames_dropped", static_cast<double>(f.frames_dropped)},
      {"corrupt_frames", static_cast<double>(f.corrupt_frames)},
      {"bundles_lost", static_cast<double>(f.bundles_lost)},
      {"stragglers_excluded", static_cast<double>(f.stragglers_excluded)},
      {"rejected_contributions",
       static_cast<double>(f.rejected_contributions)},
      {"quorum_misses", static_cast<double>(f.quorum_misses)},
      {"clients_crashed", static_cast<double>(f.clients_crashed)},
  };
  for (const auto& [counter, value] : counters) {
    bench::JsonBenchRecord record;
    record.op = "fault:" + algorithm + ":" + counter;
    record.shape = shape;
    record.value = value;
    record.unit = "count";
    records.push_back(std::move(record));
  }
  bench::JsonBenchRecord latency;
  latency.op = "fault:" + algorithm + ":max_upload_latency";
  latency.shape = shape;
  latency.value = f.max_upload_latency_ms;
  latency.unit = "ms";
  records.push_back(std::move(latency));
}

/// Times the Byzantine-robust aggregation kernels on a fleet-sized input
/// (12 client vectors x 40000 coordinates — roughly one resmlp20's flattened
/// weights) at 1 and 4 lanes, publishing `robust:<kernel>` records so CI
/// tracks the per-commit cost of turning on robust aggregation.
void report_robust(std::vector<bench::JsonBenchRecord>& records) {
  constexpr std::size_t kClients = 12;
  constexpr std::size_t kDims = 40000;
  tensor::Rng rng(0x0b57);
  std::vector<tensor::Tensor> inputs;
  inputs.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    tensor::Tensor t({kDims});
    for (std::size_t i = 0; i < kDims; ++i) {
      t[i] = static_cast<float>(rng.normal());
    }
    inputs.push_back(std::move(t));
  }

  struct Kernel {
    const char* name;
    void (*run)(std::span<const tensor::Tensor>);
  };
  const Kernel kernels[] = {
      {"coordinate_median",
       [](std::span<const tensor::Tensor> in) {
         (void)robust::coordinate_median(in);
       }},
      {"trimmed_mean",
       [](std::span<const tensor::Tensor> in) {
         (void)robust::trimmed_mean(in, 2);
       }},
      {"krum",
       [](std::span<const tensor::Tensor> in) {
         (void)robust::krum_select(in, 2, 1);
       }},
      {"geometric_median",
       [](std::span<const tensor::Tensor> in) {
         (void)robust::geometric_median(in);
       }},
  };

  std::printf("robust aggregation kernels, %zu clients x %zu dims:\n",
              kClients, kDims);
  std::printf("  %-20s %8s %12s\n", "kernel", "threads", "ms/call");
  for (const Kernel& kernel : kernels) {
    for (std::size_t threads : {1, 4}) {
      exec::set_num_threads(threads);
      kernel.run(inputs);  // warm-up
      constexpr std::size_t kIters = 5;
      const auto allocs_before = tensor::Tensor::allocation_count();
      const auto start = Clock::now();
      for (std::size_t it = 0; it < kIters; ++it) kernel.run(inputs);
      const auto stop = Clock::now();
      const double seconds =
          std::chrono::duration<double>(stop - start).count();
      std::printf("  %-20s %8zu %12.3f\n", kernel.name, threads,
                  seconds / kIters * 1e3);
      bench::JsonBenchRecord record;
      record.op = std::string("robust:") + kernel.name;
      record.shape = "clients=" + std::to_string(kClients) +
                     ",dims=" + std::to_string(kDims) +
                     ",threads=" + std::to_string(threads);
      record.ns_per_iter = seconds / kIters * 1e9;
      record.allocs_per_iter =
          static_cast<double>(tensor::Tensor::allocation_count() -
                              allocs_before) /
          kIters;
      record.threads = effective_threads(threads);
      records.push_back(std::move(record));
    }
  }
  exec::set_num_threads(1);
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("hardware threads: %zu\n\n", exec::hardware_threads());

  // FEDPKD_SCALE sizes the data pools (smoke keeps the CI job short); one
  // round regardless of scale, since this driver measures per-round cost.
  const bench::Scale scale = bench::current_scale();
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(11));
  const auto bundle =
      task.make_bundle(scale.name == "bench" ? 1600 : scale.train10,
                       scale.name == "bench" ? 400 : scale.test_n,
                       scale.name == "bench" ? 400 : scale.public_n);

  std::vector<bench::JsonBenchRecord> records;
  report("FedAvg", bundle, 1, scale.name, records);
  report("FedPKD", bundle, 1, scale.name, records);
  report_faults("FedAvg", bundle, 1, scale.name, records);
  report_faults("FedPKD", bundle, 1, scale.name, records);
  report_robust(records);
  bench::append_bench_records(records);
  return 0;
}
