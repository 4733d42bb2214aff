#pragma once

// Shared experiment toolkit for the paper-reproduction benches. Each bench
// binary regenerates one table/figure of the FedPKD paper at a reduced scale
// (see DESIGN.md §3); set FEDPKD_SCALE=smoke|bench|full to trade fidelity for
// runtime. Epoch budgets keep the paper's relative ratios across algorithms.

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fedpkd/core/fedpkd.hpp"
#include "fedpkd/core/fedproto.hpp"
#include "fedpkd/data/stats.hpp"
#include "fedpkd/fl/dsfl.hpp"
#include "fedpkd/fl/fedavg.hpp"
#include "fedpkd/fl/feddf.hpp"
#include "fedpkd/fl/fedet.hpp"
#include "fedpkd/fl/fedmd.hpp"
#include "fedpkd/fl/fedprox.hpp"

namespace fedpkd::bench {

/// Experiment sizing. Epoch fields follow the paper's Section V-A ratios
/// (FedAvg/FedProx e=10; FedMD/DS-FL 10/20; FedET 10/10; FedDF 30/5;
/// FedPKD 15/10/40) scaled by a common factor.
struct Scale {
  std::string name;
  std::size_t train10 = 2500;   // train pool size, Synth-10
  std::size_t train100 = 4000;  // train pool size, Synth-100
  std::size_t test_n = 1500;
  std::size_t public_n = 800;
  std::size_t clients = 6;
  std::size_t rounds = 6;
  double epoch_factor = 0.2;  // multiplies the paper's epoch counts

  std::size_t epochs(std::size_t paper_epochs) const {
    const auto scaled = static_cast<std::size_t>(
        paper_epochs * epoch_factor + 0.5);
    return scaled == 0 ? 1 : scaled;
  }
};

inline Scale current_scale() {
  const char* env = std::getenv("FEDPKD_SCALE");
  const std::string which = env == nullptr ? "bench" : env;
  if (which == "smoke") {
    return {"smoke", 800, 1500, 500, 300, 4, 2, 0.1};
  }
  if (which == "full") {
    return {"full", 10000, 12000, 3000, 5000, 10, 30, 1.0};
  }
  return Scale{.name = "bench"};
}

/// Builds the data bundle for one dataset name ("synth10" or "synth100").
inline data::FederatedDataBundle make_bundle(const std::string& dataset,
                                             const Scale& scale,
                                             std::uint64_t seed = 42) {
  if (dataset == "synth10") {
    data::SyntheticVision task(data::SyntheticVisionConfig::synth10(seed));
    return task.make_bundle(scale.train10, scale.test_n, scale.public_n);
  }
  if (dataset == "synth100") {
    data::SyntheticVision task(data::SyntheticVisionConfig::synth100(seed));
    return task.make_bundle(scale.train100, scale.test_n, scale.public_n);
  }
  throw std::invalid_argument("make_bundle: unknown dataset " + dataset);
}

/// Federation with homogeneous resmlp20 clients (the paper's homogeneous
/// setting) or the heterogeneous 11/20/29 mix, on one lane per hardware
/// thread (results are bitwise identical at any lane count).
inline std::unique_ptr<fl::Federation> make_federation(
    const data::FederatedDataBundle& bundle, const fl::PartitionSpec& spec,
    const Scale& scale, bool heterogeneous = false, std::uint64_t seed = 7) {
  fl::FederationConfig config;
  config.num_clients = scale.clients;
  config.client_archs =
      heterogeneous
          ? std::vector<std::string>{"resmlp11", "resmlp20", "resmlp29"}
          : std::vector<std::string>{"resmlp20"};
  config.local_test_per_client = 150;
  config.seed = seed;
  config.num_threads = 0;
  return fl::build_federation(bundle, spec, config);
}

/// Instantiates a benchmark algorithm by name with paper-ratio epochs.
/// Known names: FedAvg, FedProx, FedMD, DS-FL, FedDF, FedET, FedPKD,
/// FedPKD-noproto, FedPKD-nofilter, FedPKD-meanagg.
inline std::unique_ptr<fl::Algorithm> make_algorithm(const std::string& name,
                                                     fl::Federation& fed,
                                                     const Scale& scale) {
  if (name == "FedAvg") {
    return std::make_unique<fl::FedAvg>(
        fed, fl::FedAvg::Options{.local_epochs = scale.epochs(10),
                                 .proximal_mu = {}});
  }
  if (name == "FedProx") {
    return std::make_unique<fl::FedProx>(
        fed, fl::FedProx::Options{.local_epochs = scale.epochs(10),
                                  .mu = 0.01f});
  }
  if (name == "FedMD") {
    return std::make_unique<fl::FedMd>(
        fl::FedMd::Options{.local_epochs = scale.epochs(10),
                           .digest_epochs = scale.epochs(20),
                           .distill_temperature = 1.0f});
  }
  if (name == "DS-FL") {
    return std::make_unique<fl::DsFl>(
        fl::DsFl::Options{.local_epochs = scale.epochs(10),
                          .digest_epochs = scale.epochs(20),
                          .sharpen_temperature = 0.5f});
  }
  if (name == "FedDF") {
    return std::make_unique<fl::FedDf>(
        fed, fl::FedDf::Options{.local_epochs = scale.epochs(30),
                                .server_epochs = scale.epochs(5),
                                .distill_batch = 32,
                                .distill_temperature = 1.0f});
  }
  if (name == "FedET") {
    return std::make_unique<fl::FedEt>(
        fed, fl::FedEt::Options{.local_epochs = scale.epochs(10),
                                .server_epochs = scale.epochs(10),
                                .client_digest_epochs = scale.epochs(5),
                                .server_arch = "resmlp56",
                                .distill_batch = 32});
  }
  if (name == "FedProto") {
    return std::make_unique<core::FedProto>(
        core::FedProto::Options{.local_epochs = scale.epochs(10),
                                .prototype_weight = 0.5f});
  }
  core::FedPkd::Options o;
  o.local_epochs = scale.epochs(15);
  o.public_epochs = scale.epochs(10);
  o.server_epochs = scale.epochs(40);
  o.server_arch = "resmlp56";
  if (name == "FedPKD") {
    return std::make_unique<core::FedPkd>(fed, o);
  }
  if (name == "FedPKD-noproto") {
    o.use_prototypes = false;
    return std::make_unique<core::FedPkd>(fed, o);
  }
  if (name == "FedPKD-nofilter") {
    o.use_filter = false;
    return std::make_unique<core::FedPkd>(fed, o);
  }
  if (name == "FedPKD-meanagg") {
    o.aggregation = core::LogitAggregation::kMean;
    return std::make_unique<core::FedPkd>(fed, o);
  }
  throw std::invalid_argument("make_algorithm: unknown algorithm " + name);
}

/// FedPKD with the homogeneous server (resmlp20), used where the baseline
/// set is weight-based and a big server would be an unfair comparison knob.
inline core::FedPkd::Options fedpkd_options(const Scale& scale,
                                            const std::string& server_arch) {
  core::FedPkd::Options o;
  o.local_epochs = scale.epochs(15);
  o.public_epochs = scale.epochs(10);
  o.server_epochs = scale.epochs(40);
  o.server_arch = server_arch;
  return o;
}

/// Runs one algorithm on a fresh federation and returns its history.
inline fl::RunHistory run(const std::string& algorithm,
                          const data::FederatedDataBundle& bundle,
                          const fl::PartitionSpec& spec, const Scale& scale,
                          bool heterogeneous = false, bool verbose = false) {
  auto fed = make_federation(bundle, spec, scale, heterogeneous);
  auto algo = make_algorithm(algorithm, *fed, scale);
  fl::RunOptions opts;
  opts.rounds = scale.rounds;
  if (verbose) opts.log = &std::cerr;
  return fl::run_federation(*algo, *fed, opts);
}

/// -- Minimal fixed-width table printer --------------------------------------

class Table {
 public:
  explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void print(std::ostream& os = std::cout) const {
    std::vector<std::size_t> width(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) {
      width[c] = header_[c].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        os << "| " << std::left << std::setw(static_cast<int>(width[c]))
           << row[c] << ' ';
      }
      os << "|\n";
    };
    print_row(header_);
    for (std::size_t c = 0; c < header_.size(); ++c) {
      os << "|" << std::string(width[c] + 2, '-');
    }
    os << "|\n";
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string pct(float fraction) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << 100.0f * fraction << "%";
  return os.str();
}

inline std::string mb(std::size_t bytes) {
  return comm::Meter::to_mb(bytes) + "MB";
}

inline std::string opt_pct(const std::optional<float>& fraction) {
  return fraction ? pct(*fraction) : "N/A";
}

inline std::string opt_mb(const std::optional<std::size_t>& bytes) {
  return bytes ? mb(*bytes) : "not reached";
}

inline void print_banner(const std::string& what, const Scale& scale) {
  std::cout << "==== " << what << " ====\n"
            << "scale=" << scale.name << " clients=" << scale.clients
            << " rounds=" << scale.rounds << " public=" << scale.public_n
            << " (set FEDPKD_SCALE=smoke|bench|full)\n\n";
}

/// -- JSON bench emitter ------------------------------------------------------
///
/// The kernel microbenches (micro_tensor, micro_nn, micro_parallel) each
/// append their measurements to one machine-readable JSON array so CI can
/// archive per-commit kernel numbers. Records merge into the file named by
/// FEDPKD_BENCH_JSON (default BENCH_kernels.json in the working directory).

struct JsonBenchRecord {
  std::string op;     // kernel or scenario name
  std::string shape;  // problem shape, e.g. "128x128x128"
  double ns_per_iter = 0.0;
  double gflops = 0.0;           // 0 when throughput is not meaningful
  // Tensor heap allocations per iteration; emitted only when measured, so
  // the gate never pins a figure nobody counted.
  std::optional<double> allocs_per_iter;
  // Counter-style records (e.g. fault statistics) carry a plain value with a
  // unit instead of a timing; a non-empty unit switches the emitted fields.
  double value = 0.0;
  std::string unit;
  // Measurement context, emitted when set (non-zero): the lane count the
  // record ran at, the scheduler's ops-per-lane grain constant, and the
  // process peak RSS after the measurement. bench_gate keys scaling checks
  // off `threads`; `grain` and `rss_kb` document the conditions a regression
  // was (or was not) reproduced under.
  std::size_t threads = 0;
  std::size_t grain = 0;
  double rss_kb = 0.0;
};

inline std::string bench_json_path() {
  const char* env = std::getenv("FEDPKD_BENCH_JSON");
  return env == nullptr ? "BENCH_kernels.json" : env;
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Appends `records` to the JSON array at bench_json_path(), creating the
/// file on first use. Append-merge lets the bench binaries run in any order
/// and still produce a single well-formed array.
inline void append_bench_records(const std::vector<JsonBenchRecord>& records) {
  if (records.empty()) return;
  const std::string path = bench_json_path();
  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      existing = buffer.str();
    }
  }
  std::string body;
  const std::size_t close = existing.rfind(']');
  if (close != std::string::npos) {
    body = existing.substr(0, close);
    while (!body.empty() && (body.back() == '\n' || body.back() == '\r' ||
                             body.back() == ' ')) {
      body.pop_back();
    }
    if (!body.empty() && body.back() != '[') body.push_back(',');
  } else {
    body = "[";
  }
  std::ostringstream os;
  os << body;
  for (const JsonBenchRecord& r : records) {
    os << "\n  {\"op\": \"" << json_escape(r.op) << "\", \"shape\": \""
       << json_escape(r.shape) << "\", ";
    if (!r.unit.empty()) {
      os << "\"value\": " << std::fixed << std::setprecision(2) << r.value
         << ", \"unit\": \"" << json_escape(r.unit) << "\"},";
      continue;
    }
    os << "\"ns_per_iter\": " << std::fixed << std::setprecision(1)
       << r.ns_per_iter;
    // gflops stays out of records with no FLOP counter (e.g. RNG, rounds).
    if (r.gflops > 0.0) {
      os << ", \"gflops\": " << std::setprecision(3) << r.gflops;
    }
    if (r.allocs_per_iter) {
      os << ", \"allocs_per_iter\": " << std::setprecision(2)
         << *r.allocs_per_iter;
    }
    if (r.threads != 0) os << ", \"threads\": " << r.threads;
    if (r.grain != 0) os << ", \"grain\": " << r.grain;
    if (r.rss_kb > 0.0) {
      os << ", \"rss_kb\": " << std::setprecision(0) << r.rss_kb;
    }
    os << "},";
  }
  std::string out = os.str();
  if (!out.empty() && out.back() == ',') out.pop_back();
  out += "\n]\n";
  std::ofstream file(path, std::ios::trunc);
  file << out;
}

}  // namespace fedpkd::bench
