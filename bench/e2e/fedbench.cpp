// fedbench — the repository's end-to-end benchmark driver.
//
//   fedbench --workload NAME --seed S --seconds T [--trace 0|1]
//            [--trace-out trace.json] [--state-dir DIR]
//
// Runs one workload in one process as a closed loop: one federation, and
// each round (begin_round, run_round, evaluate_round and, on the durable
// workload, a checkpoint commit) starts only after the previous one ends.
// The first episode (the workload's fixed round count) always runs to the
// end; further episodes on a fresh federation of the same seed add timing
// samples until T seconds have passed, and must repeat the first episode's
// results bit for bit. The library is measured only from outside, by timing
// calls into its public functions and reading its public counters.
//
// The seed draws the run's inputs: the training and public samples and the
// fault and attack dice. What is under test stays fixed for every seed: the
// synthetic task, the test set, the partition, model init and (virtual
// workload) the population.
//
// Output: one line per metric, "<workload> <metric> <value> <unit>", with
// "n=<samples>" on timings, and one "digest" line per round. --trace 0
// prints the end-to-end metrics. --trace 1 runs an untraced and a traced
// federation of the same seed in lockstep — the traced one through a
// bench-owned fl::RoundPipeline and TracedStages — and prints the per-layer
// metrics. A failed correctness check prints "FAIL: ..." on stderr and exits
// 1. README.md defines the workloads and metrics.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fedpkd/core/fedpkd.hpp"
#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/fl/checkpoint.hpp"
#include "fedpkd/fl/durable_io.hpp"
#include "fedpkd/fl/fedavg.hpp"
#include "trace.hpp"

namespace {

using namespace fedpkd;
using fedbench::Clock;

/// Lanes the round engine runs on (fewer on smaller machines).
constexpr std::size_t kLanes = 4;
/// Rounds at the start of every episode left out of the round percentiles.
constexpr std::size_t kWarmupRounds = 2;
/// Federations built and dropped over a run, for the set-up median.
constexpr std::size_t kSetupReps = 30;
/// Last-good loads timed on the durable workload.
constexpr std::size_t kRecoverReps = 5;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// splitmix64 of seed ^ salt: independent per-purpose seeds from --seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed ^ salt;
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A field of /proc/self/status (VmRSS, VmHWM) in MiB; 0 where unavailable.
double proc_status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::stod(line.substr(len + 1)) / 1024.0;
    }
  }
  return 0.0;
}

// -- Workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  /// Rounds of one episode.
  std::size_t rounds;
  /// Server accuracy every episode must reach: the best accuracy all of
  /// seeds 1-10 reach by 60% of the episode, rounded down to 0.005, less
  /// 0.01 of margin for other seeds.
  float target;
  /// Client epochs per round, for the training FLOP estimate.
  std::size_t local_epochs;
  bool durable;
};

// Why each workload exists is in README.md.
constexpr Workload kWorkloads[] = {
    {"pkd_hetero", 10, 0.695f, 3, false},
    {"avg_homog", 25, 0.755f, 2, false},
    {"avg_virtual_async", 50, 0.765f, 2, false},
    {"avg_faulty_durable", 25, 0.725f, 2, true},
};

/// One federation + algorithm, and what building them cost.
struct Instance {
  std::unique_ptr<fl::Federation> fed;
  std::unique_ptr<fl::Algorithm> algo;
  double bundle_s = 0.0;  // sampling the data bundle
  double build_s = 0.0;   // federation + algorithm construction
};

Instance make_instance(const Workload& w, std::uint64_t seed,
                       std::size_t lanes) {
  const std::string name = w.name;
  Instance inst;
  const fl::FedAvg::Options avg{.local_epochs = w.local_epochs,
                                .proximal_mu = {}};
  if (name == "avg_virtual_async") {
    const auto t0 = Clock::now();
    fl::VirtualFederationConfig config;
    config.population = 100000;
    config.cohort_size = 16;
    config.warm_capacity = 24;
    config.shard_size = 64;
    config.seed = 7;
    config.num_threads = lanes;
    inst.fed = fl::build_virtual_federation(config);
    inst.fed->policy.mode = fl::RoundMode::kAsync;
    inst.fed->policy.buffer_k = 8;
    inst.fed->policy.staleness_beta = 0.5;
    comm::FaultPlan faults;
    faults.seed = derive(seed, 0x6661756c74);
    faults.drop_probability = 0.1;
    faults.corrupt_probability = 0.02;
    faults.latency_ms = 5.0;
    faults.jitter_ms = 20.0;
    inst.fed->channel.set_fault_plan(faults);
    inst.algo = std::make_unique<fl::FedAvg>(*inst.fed, avg);
    inst.build_s = since(t0);
    return inst;
  }

  auto t0 = Clock::now();
  const data::SyntheticVision task(data::SyntheticVisionConfig::synth10());
  tensor::Rng rng(derive(seed, 0x64617461));
  tensor::Rng test_rng(0x74657374);
  data::FederatedDataBundle bundle;
  bundle.train_pool = task.sample(3000, rng);
  bundle.test_global = task.sample(1500, test_rng);
  bundle.public_data = task.sample(800, rng);
  inst.bundle_s = since(t0);

  t0 = Clock::now();
  fl::FederationConfig config;
  config.num_clients = 8;
  config.client_archs =
      name == "pkd_hetero"
          ? std::vector<std::string>{"resmlp11", "resmlp20", "resmlp29"}
          : std::vector<std::string>{"resmlp20"};
  // Labels come out of SyntheticVision::sample in a fixed order, so a fixed
  // federation seed gives every seed the same partition and so the same
  // per-client work.
  config.seed = 7;
  config.num_threads = lanes;
  if (w.durable) {
    config.robust.rule = robust::RobustAggregation::kMedian;
    config.robust.anomaly_filter = true;
    config.robust.anomaly_theta = 3.0;
  }
  inst.fed = fl::build_federation(bundle, fl::PartitionSpec::dirichlet(0.3),
                                  config);
  if (w.durable) {
    comm::FaultPlan faults;
    faults.seed = derive(seed, 0x6661756c74);
    faults.drop_probability = 0.2;
    faults.corrupt_probability = 0.05;
    faults.latency_ms = 1.0;
    faults.jitter_ms = 0.5;
    faults.max_retries = 3;
    faults.stragglers = {{1, 3.0}};
    inst.fed->channel.set_fault_plan(faults);
    robust::AttackPlan attacks;
    attacks.seed = derive(seed, 0x61747461636b);
    attacks.adversaries = {
        robust::AdversarialClient{3, robust::AttackType::kSignFlip, 10.0}};
    inst.fed->set_attack_plan(attacks);
  }
  if (name == "pkd_hetero") {
    core::FedPkd::Options o;
    o.local_epochs = w.local_epochs;
    o.public_epochs = 2;
    o.server_epochs = 8;
    o.server_arch = "resmlp56";
    inst.algo = std::make_unique<core::FedPkd>(*inst.fed, o);
  } else {
    inst.algo = std::make_unique<fl::FedAvg>(*inst.fed, avg);
  }
  inst.build_s = since(t0);
  return inst;
}

// -- Per-round records -------------------------------------------------------

/// FNV-1a over the deterministic outputs of one round.
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t round_digest(const fl::RoundMetrics& m) {
  Digest d;
  d.add(m.round);
  d.add(m.server_accuracy.value_or(-1.0f));
  d.add(m.mean_client_accuracy);
  for (float acc : m.client_accuracy) d.add(acc);
  d.add(m.cumulative_bytes);
  if (const auto& f = m.fault_stats) {
    for (std::size_t v :
         {f->send_attempts, f->retries, f->frames_dropped, f->corrupt_frames,
          f->bundles_lost, f->stragglers_excluded, f->rejected_contributions,
          f->quorum_misses, f->clients_crashed, f->attacks_injected,
          f->anomaly_excluded, f->clipped_contributions}) {
      d.add(v);
    }
    d.add(f->max_upload_latency_ms);
  }
  if (const auto& e = m.engine_stats) {
    d.add(e->round_start_ms);
    d.add(e->round_end_ms);
    for (std::size_t v : {e->buffer_flushes, e->aggregated_uploads,
                          e->buffered_uploads, e->inflight_uploads,
                          e->busy_skips, e->max_staleness}) {
      d.add(v);
    }
    for (std::size_t v : e->staleness_hist) d.add(v);
  }
  for (const fl::ClientAnomaly& a : m.anomaly) {
    d.add(a.node);
    d.add(a.score);
    d.add(a.excluded);
  }
  return d.value();
}

struct RoundRecord {
  double iter_s = 0.0;    // the whole closed-loop iteration
  double begin_s = 0.0;   // Federation::begin_round
  double eval_s = 0.0;    // evaluate_round
  double encode_s = 0.0;  // encode_federation_checkpoint
  double commit_s = 0.0;  // GenerationChain::commit
  std::size_t checkpoint_bytes = 0;
  std::uint64_t allocs = 0;  // Tensor allocations during the round
  double rss_mb = 0.0;       // VmRSS after the round
  fl::RoundMetrics metrics;
  std::uint64_t digest = 0;
  fedbench::StageBreakdown stages;  // traced episodes only
};

/// One federation stepped round by round. A traced episode drives the
/// algorithm's hooks through its own RoundPipeline and TracedStages.
class Episode {
 public:
  Episode(const Workload& w, std::uint64_t seed, std::size_t lanes,
          const std::filesystem::path& chain_dir,
          fedbench::SpanRecorder* recorder)
      : w_(w), inst_(make_instance(w, seed, lanes)), rec_(recorder) {
    history_.algorithm = inst_.algo->name();
    if (w.durable) {
      std::filesystem::remove_all(chain_dir);
      std::filesystem::create_directories(chain_dir);
      chain_.emplace(chain_dir / "run.ckpt", 3);
    }
    if (rec_ != nullptr) {
      traced_.emplace(dynamic_cast<fl::RoundStages&>(*inst_.algo), *rec_,
                      w.local_epochs);
    }
  }

  bool done() const { return records_.size() == w_.rounds; }
  const std::vector<RoundRecord>& records() const { return records_; }
  const Instance& instance() const { return inst_; }
  const std::optional<fl::durable::GenerationChain>& chain() const {
    return chain_;
  }
  /// The checkpoint payload of the current state, which is what the newest
  /// generation holds (encoding is deterministic).
  std::vector<std::byte> state_payload() const {
    return fl::encode_federation_checkpoint(*inst_.algo, *inst_.fed,
                                            records_.size(), history_);
  }

  void step() {
    fl::Federation& fed = *inst_.fed;
    fl::Algorithm& algo = *inst_.algo;
    const std::size_t t = records_.size();
    RoundRecord r;
    const std::uint64_t allocs0 = tensor::Tensor::allocation_count();
    const auto t0 = Clock::now();
    fed.begin_round(t);
    const auto t1 = Clock::now();
    std::optional<fl::RoundOutcome> outcome;
    if (traced_) {
      outcome = pipeline_.run(*traced_, fed, t);
    } else {
      algo.run_round(fed, t);
    }
    const auto t2 = Clock::now();
    r.allocs = tensor::Tensor::allocation_count() - allocs0;
    r.metrics = fl::evaluate_round(algo, fed, t);
    const auto t3 = Clock::now();
    // The same per-round record run_federation keeps.
    if (outcome) {
      r.metrics.fault_stats = outcome->faults;
      r.metrics.anomaly = std::move(outcome->anomaly);
      r.metrics.pool_stats = outcome->pool;
      r.metrics.engine_stats = outcome->engine;
    } else {
      if (const auto* f = algo.last_fault_stats()) r.metrics.fault_stats = *f;
      if (const auto* a = algo.last_anomaly()) r.metrics.anomaly = *a;
      if (const auto* p = algo.last_pool_stats()) r.metrics.pool_stats = *p;
      if (const auto* e = algo.last_engine_stats()) r.metrics.engine_stats = *e;
    }
    history_.rounds.push_back(r.metrics);
    auto t4 = t3;
    auto t5 = t3;
    if (chain_) {
      std::vector<std::byte> payload =
          fl::encode_federation_checkpoint(algo, fed, t + 1, history_);
      t4 = Clock::now();
      r.checkpoint_bytes = payload.size();
      chain_->commit(std::move(payload));
      t5 = Clock::now();
    }
    const auto end = Clock::now();
    r.begin_s = seconds_between(t0, t1);
    r.eval_s = seconds_between(t2, t3);
    r.encode_s = seconds_between(t3, t4);
    r.commit_s = seconds_between(t4, t5);
    r.iter_s = seconds_between(t0, end);
    r.rss_mb = proc_status_mb("VmRSS");
    r.digest = round_digest(r.metrics);
    if (rec_ != nullptr) {
      const auto round = static_cast<std::uint32_t>(t);
      const auto span = [&](const char* name, Clock::time_point a,
                            Clock::time_point b) {
        return fedbench::Span{name, rec_->at(a), rec_->at(b), round, 0, -1,
                              0.0};
      };
      const fedbench::Span pipeline = span("pipeline", t1, t2);
      rec_->record_serial(span("round", t0, end));
      rec_->record_serial(span("begin_round", t0, t1));
      rec_->record_serial(pipeline);
      rec_->record_serial(span("evaluate_round", t2, t3));
      if (chain_) {
        rec_->record_serial(span("checkpoint.encode", t3, t4));
        rec_->record_serial(span("durable.commit", t4, t5));
      }
      r.stages = fedbench::breakdown(rec_->round_spans(round), pipeline);
    }
    records_.push_back(std::move(r));
  }

 private:
  const Workload& w_;
  Instance inst_;
  fedbench::SpanRecorder* rec_;
  fl::RunHistory history_;
  std::optional<fl::durable::GenerationChain> chain_;
  fl::RoundPipeline pipeline_;
  std::optional<fedbench::TracedStages> traced_;
  std::vector<RoundRecord> records_;
};

// -- Checks and reporting ----------------------------------------------------

class Report {
 public:
  explicit Report(const Workload& w) : w_(w) {}

  void metric(const char* name, double value, const char* unit,
              std::size_t samples = 0) {
    std::printf("%s %s %.17g %s", w_.name, name, value, unit);
    if (samples > 0) std::printf(" n=%zu", samples);
    std::printf("\n");
  }
  /// A median over timed samples, printed with its sample count.
  void timing(const char* name, const std::vector<double>& samples) {
    metric(name, median(samples), "s", samples.size());
  }

  void digests(const std::vector<RoundRecord>& rounds) {
    for (const RoundRecord& r : rounds) {
      std::printf("digest %s round %zu acc %.6f mb %.4f hash %016llx\n",
                  w_.name, r.metrics.round,
                  r.metrics.server_accuracy.value_or(0.0f),
                  comm::Meter::bytes_to_mb(r.metrics.cumulative_bytes),
                  static_cast<unsigned long long>(r.digest));
    }
  }

  /// Counts the rounds run; a round fails when the server aggregated
  /// nothing and nothing is left buffered or in flight for later.
  void count(const std::vector<RoundRecord>& rounds) {
    for (const RoundRecord& r : rounds) {
      ++attempted_;
      const auto& f = r.metrics.fault_stats;
      const auto& e = r.metrics.engine_stats;
      if ((f && f->quorum_misses > 0) ||
          (e && e->aggregated_uploads == 0 && e->buffered_uploads == 0 &&
           e->inflight_uploads == 0)) {
        ++failed_;
      }
    }
  }

  void fail(const std::string& what) {
    std::fprintf(stderr, "FAIL: %s: %s\n", w_.name, what.c_str());
    ok_ = false;
  }

  void check_target(const std::vector<RoundRecord>& rounds) {
    if (!target_round(rounds)) {
      fail("server accuracy never reached the target " +
           std::to_string(w_.target));
    }
  }

  /// First round whose server accuracy reaches the target.
  std::optional<std::size_t> target_round(
      const std::vector<RoundRecord>& rounds) const {
    for (std::size_t t = 0; t < rounds.size(); ++t) {
      if (rounds[t].metrics.server_accuracy.value_or(0.0f) >= w_.target) {
        return t;
      }
    }
    return std::nullopt;
  }

  /// Requires `other` to repeat `first` round for round.
  void check_same(const std::vector<RoundRecord>& first,
                  const std::vector<RoundRecord>& other, const char* what) {
    for (std::size_t t = 0; t < other.size() && t < first.size(); ++t) {
      if (other[t].digest != first[t].digest) {
        fail(std::string(what) + " differs at round " + std::to_string(t));
        return;
      }
    }
  }

  int finish() const {
    std::printf("%s rounds_attempted %zu count\n", w_.name, attempted_);
    std::printf("%s rounds_failed %zu count\n", w_.name, failed_);
    return ok_ ? 0 : 1;
  }

 private:
  const Workload& w_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool ok_ = true;
};

/// Values of `field` over the rounds past warm-up.
template <typename F>
std::vector<double> timed(const std::vector<RoundRecord>& rounds, F field) {
  std::vector<double> out;
  for (const RoundRecord& r : rounds) {
    if (r.metrics.round >= kWarmupRounds) out.push_back(field(r));
  }
  return out;
}

double round_time(const RoundRecord& r) { return r.iter_s; }

/// Mean of a field over the second half of an episode.
template <typename F>
double late_mean(const std::vector<RoundRecord>& rounds, F field) {
  double sum = 0.0;
  for (std::size_t t = rounds.size() / 2; t < rounds.size(); ++t) {
    sum += field(rounds[t]);
  }
  return sum / static_cast<double>(rounds.size() - rounds.size() / 2);
}

struct Run {
  const Workload& w;
  std::uint64_t seed;
  std::size_t lanes;
  double seconds;
  std::filesystem::path state;  // per-workload state directory
  Clock::time_point start = Clock::now();

  bool time_left() const { return since(start) < seconds; }
  Episode episode(const char* dir, fedbench::SpanRecorder* rec) const {
    return Episode(w, seed, lanes, state / dir, rec);
  }
};

/// Set-up cost: kSetupReps federations built and dropped between rounds,
/// spread evenly from `from` to the end of the run so that their median
/// sees the same host load as the rounds do.
class SetupSampler {
 public:
  SetupSampler(const Run& run, Clock::time_point from)
      : run_(run), from_(from) {}

  /// Takes every build that is due by now.
  void poll() {
    const double window =
        std::max(0.0, run_.seconds - seconds_between(run_.start, from_));
    while (total.size() < kSetupReps &&
           since(from_) >=
               window * double(total.size()) / double(kSetupReps)) {
      take();
    }
  }
  /// Takes the builds still missing.
  void finish() {
    while (total.size() < kSetupReps) take();
  }

  std::vector<double> total, bundle, build;

 private:
  void take() {
    const Instance inst = make_instance(run_.w, run_.seed, run_.lanes);
    total.push_back(inst.bundle_s + inst.build_s);
    bundle.push_back(inst.bundle_s);
    build.push_back(inst.build_s);
  }

  const Run& run_;
  Clock::time_point from_;
};

/// Loads the last-good generation into freshly built federations, timing
/// each load, and checks that it holds the final state and that re-encoding
/// the loaded state reproduces the saved payload byte for byte.
std::vector<double> recover(Report& report, const Run& run,
                            const Episode& ep) {
  std::vector<double> loads;
  const auto stored = ep.chain()->load();
  if (!stored || stored->payload != ep.state_payload()) {
    report.fail("last-good generation is not the last committed state");
    return loads;
  }
  for (std::size_t k = 0; k < kRecoverReps; ++k) {
    Instance fresh = make_instance(run.w, run.seed, run.lanes);
    const auto t0 = Clock::now();
    const auto loaded =
        fl::load_federation_checkpoint(*ep.chain(), *fresh.algo, *fresh.fed);
    loads.push_back(since(t0));
    if (!loaded ||
        fl::encode_federation_checkpoint(*fresh.algo, *fresh.fed,
                                         loaded->resume.next_round,
                                         loaded->resume.history) !=
            stored->payload) {
      report.fail("recovered state does not re-encode to the saved payload");
      break;
    }
  }
  return loads;
}

/// --trace 0: the end-to-end metrics.
void run_untraced(const Run& run, Report& report) {
  std::vector<RoundRecord> base;
  double peak_rss_mb = 0.0;
  {
    Episode first = run.episode("first", nullptr);
    while (!first.done()) first.step();
    // Peak memory of one federation's full episode, whatever follows.
    peak_rss_mb = proc_status_mb("VmHWM");
    base = first.records();
    if (run.w.durable) recover(report, run, first);
  }
  report.digests(base);
  report.check_target(base);
  report.count(base);
  std::vector<double> iters = timed(base, round_time);
  // Set-up builds start after the first episode, so that none of them
  // overlaps the federation whose peak memory is reported.
  SetupSampler setup(run, Clock::now());
  setup.poll();
  while (run.time_left()) {
    Episode ep = run.episode("more", nullptr);
    while (!ep.done() && run.time_left()) {
      ep.step();
      setup.poll();
    }
    report.check_same(base, ep.records(), "repeated episode");
    report.count(ep.records());
    const std::vector<double> more = timed(ep.records(), round_time);
    iters.insert(iters.end(), more.begin(), more.end());
  }

  setup.finish();
  report.timing("setup_s", setup.total);
  report.metric("round_s_p50", median(iters), "s", iters.size());
  report.metric("round_s_p90", percentile(iters, 90), "s", iters.size());
  report.metric("mb_per_round",
                comm::Meter::bytes_to_mb(base.back().metrics.cumulative_bytes) /
                    static_cast<double>(base.size()),
                "MB");
  report.metric("final_server_acc", late_mean(base, [](const RoundRecord& r) {
                  return double(r.metrics.server_accuracy.value_or(0.0f));
                }),
                "fraction");
  report.metric("final_client_acc", late_mean(base, [](const RoundRecord& r) {
                  return double(r.metrics.mean_client_accuracy);
                }),
                "fraction");
  report.metric("peak_rss_mb", peak_rss_mb, "MB");
}

/// --trace 1: an untraced (a) and a traced (b) federation of one seed in
/// lockstep, alternating which goes first so drift hits both alike; the
/// per-layer metrics and the tracing overhead.
void run_traced(const Run& run, Report& report, const std::string& trace_out) {
  const Workload& w = run.w;
  SetupSampler setup(run, run.start);
  setup.finish();
  // 16 slots: the largest cohort of any workload.
  fedbench::SpanRecorder recorder(16, w.rounds);
  Episode a = run.episode("a", nullptr);
  Episode b = run.episode("b", &recorder);
  // Runs to the target and past warm-up, then until time is up.
  while (!a.done() &&
         (run.time_left() || a.records().size() < kWarmupRounds + 3 ||
          !report.target_round(a.records()))) {
    const bool a_first = a.records().size() % 2 == 0;
    (a_first ? a : b).step();
    (a_first ? b : a).step();
  }
  report.digests(a.records());
  report.check_same(a.records(), b.records(), "traced run");
  report.check_target(a.records());
  std::vector<double> loads;
  if (w.durable) loads = recover(report, run, a);
  if (!trace_out.empty()) recorder.write_chrome_trace(trace_out);
  report.count(a.records());
  report.count(b.records());

  const std::vector<RoundRecord>& ra = a.records();
  const std::vector<RoundRecord>& rb = b.records();
  const auto n = static_cast<double>(ra.size());
  // Bench-side timings come from a, hook spans from b.
  const auto a_timing = [&](const char* name, double RoundRecord::*f) {
    report.timing(name, timed(ra, [f](const RoundRecord& r) { return r.*f; }));
  };
  const auto stage = [&](const char* name, double fedbench::StageBreakdown::*f) {
    report.timing(name, timed(rb, [f](const RoundRecord& r) {
                    return r.stages.*f;
                  }));
  };
  using SB = fedbench::StageBreakdown;
  stage("stage.local_update.wall_s", &SB::local_wall_s);
  stage("stage.local_update.busy_s", &SB::local_busy_s);
  report.metric("stage.local_update.imbalance",
                median(timed(rb, [](const RoundRecord& r) {
                  return r.stages.local_imbalance;
                })),
                "ratio");
  stage("stage.before_upload_s", &SB::before_upload_s);
  stage("stage.make_upload.busy_s", &SB::make_upload_busy_s);
  stage("stage.server_step_s", &SB::server_step_s);
  stage("stage.apply.busy_s", &SB::apply_busy_s);
  stage("pipeline.self_s", &SB::pipeline_self_s);
  stage("comm.transport.broadcast_s", &SB::broadcast_s);
  stage("comm.transport.upload_s", &SB::upload_s);
  stage("comm.transport.download_s", &SB::download_s);

  double transport_s = 0.0, busy = 0.0, wall = 0.0, flops = 0.0,
         local_busy = 0.0;
  for (const RoundRecord& r : rb) {
    transport_s +=
        r.stages.broadcast_s + r.stages.upload_s + r.stages.download_s;
    if (r.metrics.round < kWarmupRounds) continue;
    busy += r.stages.concurrent_busy_s;
    wall += r.stages.concurrent_wall_s;
    flops += r.stages.train_flops;
    local_busy += r.stages.local_busy_s;
  }
  const comm::Meter& meter = a.instance().fed->meter;
  const double up_mb = comm::Meter::bytes_to_mb(meter.total_uplink());
  const double down_mb = comm::Meter::bytes_to_mb(meter.total_downlink());
  report.metric("comm.mb_up_per_round", up_mb / n, "MB");
  report.metric("comm.mb_down_per_round", down_mb / n, "MB");
  report.metric("comm.transport_mb_per_s",
                ratio(up_mb + down_mb, transport_s), "MB/s");

  fl::RoundFaultStats faults;
  fl::PoolRoundStats pool;
  std::size_t flushes = 0, aggregated = 0, busy_skips = 0;
  double stale_sum = 0.0, stale_n = 0.0;
  for (const RoundRecord& r : ra) {
    if (r.metrics.fault_stats) faults += *r.metrics.fault_stats;
    if (r.metrics.pool_stats) pool += *r.metrics.pool_stats;
    if (const auto& e = r.metrics.engine_stats) {
      flushes += e->buffer_flushes;
      aggregated += e->aggregated_uploads;
      busy_skips += e->busy_skips;
      for (std::size_t tau = 0; tau < e->staleness_hist.size(); ++tau) {
        stale_sum += double(tau) * double(e->staleness_hist[tau]);
        stale_n += double(e->staleness_hist[tau]);
      }
    }
  }
  report.metric("comm.retry_frac",
                ratio(double(faults.retries), double(faults.send_attempts)),
                "fraction");
  report.metric("comm.bundles_lost", double(faults.bundles_lost), "count");
  report.metric("comm.failed_frac",
                ratio(double(faults.bundles_lost),
                      double(faults.send_attempts - faults.retries)),
                "fraction");
  report.metric("exec.lane_util", ratio(busy, wall * double(run.lanes)),
                "fraction");
  report.metric("nn.train_gflops_est", ratio(flops, local_busy) / 1e9,
                "GFLOP/s");
  report.metric("tensor.allocs_per_round",
                median(timed(ra, [](const RoundRecord& r) {
                  return double(r.allocs);
                })),
                "count");
  a_timing("pool.begin_round_s", &RoundRecord::begin_s);
  // A resident pool keeps every client warm: every access is a hit.
  report.metric("pool.hit_ratio",
                a.instance().fed->pool.virtual_mode()
                    ? ratio(double(pool.hits), double(pool.hits + pool.misses))
                    : 1.0,
                "fraction");
  report.metric("pool.hydrations_per_round", double(pool.hydrations) / n,
                "count");
  report.metric("pool.evictions_per_round", double(pool.evictions) / n,
                "count");
  report.timing("pool.hydration_s", timed(ra, [](const RoundRecord& r) {
                  return r.metrics.pool_stats
                             ? r.metrics.pool_stats->hydration_seconds
                             : 0.0;
                }));
  // Growth past warm-up; both federations grow in lockstep, so one is half.
  const std::size_t k = std::min(kWarmupRounds, ra.size() - 1);
  const double late_rounds = double(ra.size() - 1 - k);
  report.metric("mem.rss_mb_per_100_rounds",
                ratio(0.5 * (ra.back().rss_mb - ra[k].rss_mb), late_rounds) *
                    100.0,
                "MB");
  report.metric("engine.flushes_per_round", double(flushes) / n, "count");
  report.metric("engine.uploads_per_flush",
                ratio(double(aggregated), double(flushes)), "count");
  report.metric("engine.busy_skips_per_round", double(busy_skips) / n,
                "count");
  report.metric("engine.stale_mean", ratio(stale_sum, stale_n), "rounds");
  const auto& e0 = ra.front().metrics.engine_stats;
  const auto& e1 = ra.back().metrics.engine_stats;
  report.metric("engine.sim_ms_per_round",
                e0 && e1 ? (e1->round_end_ms - e0->round_start_ms) / n : 0.0,
                "ms");
  a_timing("checkpoint.encode_s", &RoundRecord::encode_s);
  a_timing("durable.commit_s", &RoundRecord::commit_s);
  report.metric("durable.bytes_per_gen", double(ra.back().checkpoint_bytes),
                "bytes");
  report.metric("durable.bytes_growth_per_round",
                ratio(double(ra.back().checkpoint_bytes) -
                          double(ra[k].checkpoint_bytes),
                      late_rounds),
                "bytes");
  report.timing("durable.load_s", loads);
  report.metric("robust.anomaly_excluded", double(faults.anomaly_excluded),
                "count");
  report.metric("robust.rejected", double(faults.rejected_contributions),
                "count");
  a_timing("eval.round_s", &RoundRecord::eval_s);
  report.timing("data.bundle_s", setup.bundle);
  report.timing("fed.build_s", setup.build);
  // Paired by round: each pair ran back to back, so machine drift cancels.
  std::vector<double> overhead;
  for (std::size_t t = kWarmupRounds; t < ra.size(); ++t) {
    overhead.push_back(ratio(rb[t].iter_s, ra[t].iter_s) - 1.0);
  }
  report.metric("trace.overhead_frac", median(overhead), "fraction",
                overhead.size());

  // Target-based outcomes: they depend on the seed's convergence, so they
  // are reported here rather than gated.
  if (const auto hit = report.target_round(ra)) {
    double s = 0.0;
    for (std::size_t t = 0; t <= *hit; ++t) s += ra[t].iter_s;
    const fl::RoundMetrics& m = ra[*hit].metrics;
    report.metric("rounds_to_target", double(*hit + 1), "rounds");
    report.metric("mb_to_target",
                  comm::Meter::bytes_to_mb(m.cumulative_bytes), "MB");
    report.metric("time_to_target_s", s, "s");
    report.metric("sim_s_to_target",
                  m.engine_stats ? m.engine_stats->round_end_ms / 1e3 : 0.0,
                  "s");
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::filesystem::path state_dir;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = v == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--state-dir") {
      a.state_dir = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  std::string known;
  for (const Workload& w : kWorkloads) known += std::string(" ") + w.name;
  throw std::invalid_argument("unknown workload " + name + " (known:" +
                              known + ")");
}

int run(const Args& args) {
  const Workload& w = find_workload(args.workload);
  if (w.durable && args.state_dir.empty()) {
    throw std::invalid_argument(std::string(w.name) + " needs --state-dir");
  }
  const Run run{w, args.seed, std::min(kLanes, exec::hardware_threads()),
                args.seconds, args.state_dir / w.name};
  std::printf("# %s seed=%llu seconds=%g lanes=%zu nproc=%zu trace=%d\n",
              w.name, static_cast<unsigned long long>(args.seed), args.seconds,
              run.lanes, exec::hardware_threads(), args.trace ? 1 : 0);
  Report report(w);
  if (args.trace) {
    run_traced(run, report, args.trace_out);
  } else {
    run_untraced(run, report);
  }
  if (w.durable) std::filesystem::remove_all(run.state);
  return report.finish();
}

}  // namespace

int main(int argc, char** argv) try {
  return run(parse(argc, argv));
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
