/// A small command-line experiment runner over the public API: pick a
/// dataset, algorithm, partition, and round budget; optionally export the
/// per-round metrics as CSV and checkpoint the trained server model. The
/// fault flags drive the comm::FaultPlan, so any experiment can be rerun
/// under seeded packet loss, corruption, latency, stragglers, and scripted
/// mid-round crashes; --save-state/--resume exercise federation-level
/// crash-resume.
///
/// Usage:
///   experiment_cli [--dataset synth10|synth100] [--algorithm NAME]
///                  [--partition iid|dirichlet|shards] [--alpha A] [--k K]
///                  [--clients N] [--rounds R] [--hetero] [--threads T]
///                  [--population P] [--warm-cache W] [--edge-aggregators E]
///                  [--csv out.csv] [--checkpoint out.bin] [--seed S]
///                  [--drop P] [--corrupt P] [--latency-ms L] [--jitter-ms J]
///                  [--straggler ID:FACTOR]... [--crash ROUND:STAGE:ID]...
///                  [--retries N] [--deadline-ms D] [--quorum F]
///                  [--round-mode sync|semisync|async] [--buffer-k K]
///                  [--staleness-beta B] [--wake-interval-ms W]
///                  [--max-weight-norm X] [--fault-seed S]
///                  [--save-state run.ckpt] [--state-every N]
///                  [--resume run.ckpt]
///                  [--state-chain STEM] [--state-generations K]
///                  [--resume-last-good] [--supervise] [--max-restarts N]
///                  [--restart-backoff-ms B] [--final-state out.bin]
///                  [--verify-chain] [--list-crash-points]
///                  [--io-enospc-after BYTES]
///                  [--robust RULE] [--robust-f N] [--robust-m M]
///                  [--robust-clip X] [--anomaly-theta T]
///                  [--anomaly-max-exclude F] [--adaptive-norm]
///                  [--attack TYPE:NODE[:SCALE]]... [--attack-start R]
///                  [--attack-seed S]
///
/// --threads T runs the round engine on T lanes (0 = one per hardware
/// thread). Results are bitwise identical for every T; only wall-clock
/// changes. STAGE is one of broadcast|upload|download.
///
/// Round modes: sync (default) is the barrier round everyone knows;
/// semisync aggregates whatever arrived by --deadline-ms (required);
/// async buffers uploads and aggregates every K arrivals (--buffer-k,
/// 0 derives half the cohort) with staleness discount 1/(1+tau)^beta
/// (--staleness-beta, default 0.5) and wakes idle clients every
/// --wake-interval-ms of simulated time. --deadline-ms and --quorum are
/// sync/semisync concepts and are rejected in async mode; --buffer-k,
/// --staleness-beta and --wake-interval-ms are async-only.
///
/// Scale: --population P > 0 switches to the virtual-client pool
/// (build_virtual_federation): P clients exist as derivable specs,
/// --clients N becomes the per-round cohort size, and --warm-cache W bounds
/// the LRU of hydrated clients (0 = 4*N). --partition shards maps to
/// classes_per_client = K in virtual mode; other partitions fall back to
/// IID shards. --edge-aggregators E > 1 pre-combines surviving uploads into
/// E contiguous edge groups before the server step (works in both modes).
/// Per-round pool counters appear in the run log as pool[hit=... ...].
///
/// Robustness: RULE is one of none|median|trimmed-mean|norm-clip|krum|
/// multi-krum|geometric-median; --robust-f sets the assumed adversary count,
/// --robust-m the multi-krum selection size, --robust-clip the norm-clipping
/// bound (0 = median-of-norms). --anomaly-theta enables prototype-distance
/// client anomaly filtering with threshold median + T*MAD; --adaptive-norm
/// derives the upload weight-norm bound from the median+MAD of accepted
/// history. TYPE is one of sign-flip|scaled-boost|label-flip|free-rider|
/// prototype-shift; SCALE defaults to 10.
///
/// Algorithms: FedAvg FedProx FedMD DS-FL FedDF FedET FedProto FedPKD
///
/// Durability (see DESIGN.md §15): --state-chain STEM checkpoints into a
/// generation chain (STEM.1, STEM.2, … + STEM.manifest, atomic writes,
/// CRC32 footers, --state-generations kept). --resume-last-good loads the
/// newest generation that verifies, falling back past torn/corrupt files.
/// --supervise runs the experiment in a child process and on nonzero exit
/// auto-resumes it from last-good, up to --max-restarts times with
/// exponential --restart-backoff-ms backoff. FEDPKD_CRASH_AT=<point>[@K]
/// (see --list-crash-points) aborts the process at the K-th hit of a named
/// crash point — the crash-at-every-point sweep supervises one such run per
/// point and compares --final-state (the sealed end-of-run federation state,
/// full stitched history) bitwise against an uninterrupted run.
/// --io-enospc-after simulates a disk filling up after BYTES checkpoint
/// bytes; the run fails cleanly and the chain keeps its last good state.
///
/// Examples:
///   ./build/examples/experiment_cli --algorithm FedPKD --partition dirichlet
///       --alpha 0.1 --rounds 8 --csv fedpkd.csv --checkpoint server.bin
///   ./build/examples/experiment_cli --algorithm FedPKD --rounds 8
///       --drop 0.2 --corrupt 0.05 --straggler 0:8 --crash 3:upload:2
///       --deadline-ms 500 --quorum 0.5
///   ./build/examples/experiment_cli --algorithm FedAvg --rounds 12
///       --round-mode async --buffer-k 3 --staleness-beta 0.5
///       --straggler 0:6 --straggler 1:9 --csv async.csv
///   ./build/examples/experiment_cli --algorithm FedAvg --rounds 10
///       --save-state run.ckpt --state-every 5   # then, after a crash:
///   ./build/examples/experiment_cli --algorithm FedAvg --rounds 10
///       --resume run.ckpt
///   FEDPKD_CRASH_AT=round:after_aggregate ./build/examples/experiment_cli
///       --algorithm FedAvg --rounds 10 --supervise --state-chain run.ckpt
///       --state-every 1 --final-state final.bin

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <type_traits>

#include "fedpkd/core/fedpkd.hpp"
#include "fedpkd/core/fedproto.hpp"
#include "fedpkd/fl/checkpoint.hpp"
#include "fedpkd/fl/supervisor.hpp"
#include "fedpkd/fl/dsfl.hpp"
#include "fedpkd/fl/fedavg.hpp"
#include "fedpkd/fl/feddf.hpp"
#include "fedpkd/fl/fedet.hpp"
#include "fedpkd/fl/fedmd.hpp"
#include "fedpkd/fl/fedprox.hpp"
#include "fedpkd/fl/round_pipeline.hpp"

namespace {

using namespace fedpkd;

struct Args {
  std::string dataset = "synth10";
  std::string algorithm = "FedPKD";
  std::string partition = "dirichlet";
  double alpha = 0.3;
  std::size_t k = 3;
  std::size_t clients = 6;
  std::size_t rounds = 6;
  bool hetero = false;
  // Virtual-client pool: a population > 0 switches to build_virtual_federation
  // with `clients` as the per-round cohort size.
  std::size_t population = 0;
  std::size_t warm_cache = 0;       // 0 derives 4 * cohort
  std::size_t edge_aggregators = 0; // <= 1 keeps the flat topology
  std::size_t threads = 1;
  std::string csv;
  std::string checkpoint;
  std::uint64_t seed = 7;
  // Fault / robustness knobs.
  comm::FaultPlan faults;
  bool have_faults = false;
  double deadline_ms = 0.0;  // 0 = no deadline
  double quorum = 0.0;
  bool have_quorum = false;
  // Event-driven round engine. Negative/zero sentinels mean "not given";
  // parse-time validation rejects async-only knobs outside async mode.
  fl::RoundMode round_mode = fl::RoundMode::kSync;
  std::size_t buffer_k = 0;
  bool have_buffer_k = false;
  double staleness_beta = -1.0;   // < 0 = not given
  double wake_interval_ms = 0.0;  // 0 = not given
  double max_weight_norm = 0.0;
  // Crash-resume.
  std::string save_state;
  std::size_t state_every = 1;
  std::string resume;
  // Durable state: generation-chained checkpoints + self-healing supervisor.
  std::string state_chain;
  std::size_t state_generations = 3;
  bool resume_last_good = false;
  bool supervise_run = false;
  std::size_t max_restarts = 5;
  std::uint64_t restart_backoff_ms = 100;
  std::string final_state;
  bool verify_chain = false;
  std::size_t io_enospc_after = 0;
  // Byzantine-robust aggregation and the adversarial-client harness.
  robust::RobustPolicy robust;
  bool adaptive_norm = false;
  robust::AttackPlan attacks;
  bool have_attacks = false;
};

comm::RoundStage parse_stage(const std::string& s) {
  if (s == "broadcast") return comm::RoundStage::kBroadcast;
  if (s == "upload") return comm::RoundStage::kUpload;
  if (s == "download") return comm::RoundStage::kDownload;
  throw std::invalid_argument("unknown crash stage '" + s +
                              "' (broadcast|upload|download)");
}

/// The number `value` of `flag`: the whole string must parse as a T (an
/// unsigned T takes no sign, so "-1" is an error, not a huge count);
/// otherwise throws std::invalid_argument naming the flag and the value.
template <typename T>
T parse_number(const char* flag, const std::string& value) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument(
        std::string(flag) + ": expected " +
        (std::is_floating_point_v<T> ? "a number"
         : std::is_unsigned_v<T>     ? "a non-negative integer"
                                     : "an integer") +
        ", got '" + value + "'");
  }
  return out;
}

Args parse(int argc, char** argv) {
  Args args;
  auto need = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string("missing value for ") + flag);
    }
    return argv[++i];
  };
  auto count = [&](int& i, const char* flag) {
    return parse_number<std::size_t>(flag, need(i, flag));
  };
  auto real = [&](int& i, const char* flag) {
    return parse_number<double>(flag, need(i, flag));
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--dataset") args.dataset = need(i, "--dataset");
    else if (a == "--algorithm") args.algorithm = need(i, "--algorithm");
    else if (a == "--partition") args.partition = need(i, "--partition");
    else if (a == "--alpha") args.alpha = real(i, "--alpha");
    else if (a == "--k") args.k = count(i, "--k");
    else if (a == "--clients") args.clients = count(i, "--clients");
    else if (a == "--rounds") args.rounds = count(i, "--rounds");
    else if (a == "--hetero") args.hetero = true;
    else if (a == "--population")
      args.population = count(i, "--population");
    else if (a == "--warm-cache")
      args.warm_cache = count(i, "--warm-cache");
    else if (a == "--edge-aggregators")
      args.edge_aggregators = count(i, "--edge-aggregators");
    else if (a == "--threads") args.threads = count(i, "--threads");
    else if (a == "--csv") args.csv = need(i, "--csv");
    else if (a == "--checkpoint") args.checkpoint = need(i, "--checkpoint");
    else if (a == "--seed") args.seed = count(i, "--seed");
    else if (a == "--drop") {
      args.faults.drop_probability = real(i, "--drop");
      args.have_faults = true;
    } else if (a == "--corrupt") {
      args.faults.corrupt_probability = real(i, "--corrupt");
      args.have_faults = true;
    } else if (a == "--latency-ms") {
      args.faults.latency_ms = real(i, "--latency-ms");
      args.have_faults = true;
    } else if (a == "--jitter-ms") {
      args.faults.jitter_ms = real(i, "--jitter-ms");
      args.have_faults = true;
    } else if (a == "--retries") {
      args.faults.max_retries = count(i, "--retries");
      args.have_faults = true;
    } else if (a == "--fault-seed") {
      args.faults.seed = count(i, "--fault-seed");
      args.have_faults = true;
    } else if (a == "--straggler") {
      const std::string v = need(i, "--straggler");
      const auto colon = v.find(':');
      if (colon == std::string::npos) {
        throw std::invalid_argument("--straggler wants ID:FACTOR, got " + v);
      }
      args.faults.stragglers.emplace_back(
          parse_number<comm::NodeId>("--straggler", v.substr(0, colon)),
          parse_number<double>("--straggler", v.substr(colon + 1)));
      args.have_faults = true;
    } else if (a == "--crash") {
      const std::string v = need(i, "--crash");
      const auto c1 = v.find(':');
      const auto c2 = v.find(':', c1 == std::string::npos ? 0 : c1 + 1);
      if (c1 == std::string::npos || c2 == std::string::npos) {
        throw std::invalid_argument("--crash wants ROUND:STAGE:ID, got " + v);
      }
      args.faults.crashes.push_back(comm::CrashEvent{
          parse_number<std::size_t>("--crash", v.substr(0, c1)),
          parse_stage(v.substr(c1 + 1, c2 - c1 - 1)),
          parse_number<comm::NodeId>("--crash", v.substr(c2 + 1))});
      args.have_faults = true;
    } else if (a == "--deadline-ms") {
      args.deadline_ms = real(i, "--deadline-ms");
    } else if (a == "--quorum") {
      args.quorum = real(i, "--quorum");
      args.have_quorum = true;
    } else if (a == "--round-mode") {
      args.round_mode = fl::parse_round_mode(need(i, "--round-mode"));
    } else if (a == "--buffer-k") {
      args.buffer_k = count(i, "--buffer-k");
      args.have_buffer_k = true;
    } else if (a == "--staleness-beta") {
      args.staleness_beta = real(i, "--staleness-beta");
      if (args.staleness_beta < 0.0) {
        throw std::invalid_argument("--staleness-beta must be >= 0");
      }
    } else if (a == "--wake-interval-ms") {
      args.wake_interval_ms = real(i, "--wake-interval-ms");
      if (args.wake_interval_ms <= 0.0) {
        throw std::invalid_argument("--wake-interval-ms must be > 0");
      }
    } else if (a == "--max-weight-norm") {
      args.max_weight_norm = real(i, "--max-weight-norm");
    } else if (a == "--robust") {
      args.robust.rule = robust::parse_robust_aggregation(need(i, "--robust"));
    } else if (a == "--robust-f") {
      args.robust.assumed_adversaries = count(i, "--robust-f");
    } else if (a == "--robust-m") {
      args.robust.multi_krum_m = count(i, "--robust-m");
    } else if (a == "--robust-clip") {
      args.robust.clip_norm = real(i, "--robust-clip");
    } else if (a == "--anomaly-theta") {
      args.robust.anomaly_filter = true;
      args.robust.anomaly_theta = real(i, "--anomaly-theta");
    } else if (a == "--anomaly-max-exclude") {
      args.robust.anomaly_max_exclude_fraction =
          real(i, "--anomaly-max-exclude");
    } else if (a == "--adaptive-norm") {
      args.adaptive_norm = true;
    } else if (a == "--attack") {
      const std::string v = need(i, "--attack");
      const auto c1 = v.find(':');
      if (c1 == std::string::npos) {
        throw std::invalid_argument("--attack wants TYPE:NODE[:SCALE], got " +
                                    v);
      }
      const auto c2 = v.find(':', c1 + 1);
      robust::AdversarialClient adv;
      adv.type = robust::parse_attack_type(v.substr(0, c1));
      adv.node = parse_number<comm::NodeId>(
          "--attack", v.substr(c1 + 1, c2 == std::string::npos
                                           ? std::string::npos
                                           : c2 - c1 - 1));
      if (c2 != std::string::npos) {
        adv.scale = parse_number<double>("--attack", v.substr(c2 + 1));
      }
      args.attacks.adversaries.push_back(adv);
      args.have_attacks = true;
    } else if (a == "--attack-start") {
      args.attacks.start_round = count(i, "--attack-start");
    } else if (a == "--attack-seed") {
      args.attacks.seed = count(i, "--attack-seed");
    } else if (a == "--save-state") {
      args.save_state = need(i, "--save-state");
    } else if (a == "--state-every") {
      args.state_every = count(i, "--state-every");
    } else if (a == "--resume") {
      args.resume = need(i, "--resume");
    } else if (a == "--state-chain") {
      args.state_chain = need(i, "--state-chain");
    } else if (a == "--state-generations") {
      args.state_generations = count(i, "--state-generations");
      if (args.state_generations == 0) {
        throw std::invalid_argument("--state-generations must be >= 1");
      }
    } else if (a == "--resume-last-good") {
      args.resume_last_good = true;
    } else if (a == "--supervise") {
      args.supervise_run = true;
    } else if (a == "--max-restarts") {
      args.max_restarts = count(i, "--max-restarts");
    } else if (a == "--restart-backoff-ms") {
      args.restart_backoff_ms = count(i, "--restart-backoff-ms");
    } else if (a == "--final-state") {
      args.final_state = need(i, "--final-state");
    } else if (a == "--verify-chain") {
      args.verify_chain = true;
    } else if (a == "--io-enospc-after") {
      args.io_enospc_after = count(i, "--io-enospc-after");
    } else if (a == "--list-crash-points") {
      for (const std::string& name : fl::durable::crash_point_names()) {
        std::cout << name << "\n";
      }
      std::exit(0);
    } else if (a == "--help" || a == "-h") {
      std::cout << "see the header comment of examples/experiment_cli.cpp\n";
      std::exit(0);
    } else {
      throw std::invalid_argument("unknown flag " + a);
    }
  }
  // Cross-flag validation: reject combinations that would silently do
  // nothing (async knobs outside async, barrier knobs inside async).
  const bool is_async = args.round_mode == fl::RoundMode::kAsync;
  if (!is_async) {
    if (args.have_buffer_k) {
      throw std::invalid_argument(
          "--buffer-k only applies to --round-mode async");
    }
    if (args.staleness_beta >= 0.0) {
      throw std::invalid_argument(
          "--staleness-beta only applies to --round-mode async");
    }
    if (args.wake_interval_ms > 0.0) {
      throw std::invalid_argument(
          "--wake-interval-ms only applies to --round-mode async");
    }
  } else {
    if (args.deadline_ms > 0.0) {
      throw std::invalid_argument(
          "--deadline-ms is a sync/semisync deadline; async rounds flush on "
          "--buffer-k arrivals instead");
    }
    if (args.have_quorum) {
      throw std::invalid_argument(
          "--quorum has no meaning in async mode (no barrier to miss)");
    }
    if (args.have_buffer_k && args.buffer_k == 0) {
      throw std::invalid_argument("--buffer-k must be >= 1");
    }
  }
  if (args.round_mode == fl::RoundMode::kSemiSync && args.deadline_ms <= 0.0) {
    throw std::invalid_argument(
        "--round-mode semisync needs a finite --deadline-ms to aggregate at");
  }
  if (args.state_chain.empty()) {
    if (args.resume_last_good) {
      throw std::invalid_argument("--resume-last-good needs --state-chain");
    }
    if (args.supervise_run) {
      throw std::invalid_argument(
          "--supervise needs --state-chain (restarts resume from the chain's "
          "last good generation)");
    }
    if (args.verify_chain) {
      throw std::invalid_argument("--verify-chain needs --state-chain");
    }
  } else if (!args.save_state.empty()) {
    throw std::invalid_argument(
        "--state-chain and --save-state are alternative checkpoint "
        "destinations; pick one");
  }
  if (!args.resume.empty() && args.resume_last_good) {
    throw std::invalid_argument(
        "--resume and --resume-last-good are mutually exclusive");
  }
  return args;
}

std::unique_ptr<fl::Algorithm> make_algo(const std::string& name,
                                         fl::Federation& fed) {
  if (name == "FedAvg") {
    return std::make_unique<fl::FedAvg>(
        fed, fl::FedAvg::Options{.local_epochs = 2, .proximal_mu = {}});
  }
  if (name == "FedProx") {
    return std::make_unique<fl::FedProx>(
        fed, fl::FedProx::Options{.local_epochs = 2, .mu = 0.01f});
  }
  if (name == "FedMD") {
    return std::make_unique<fl::FedMd>(fl::FedMd::Options{
        .local_epochs = 2, .digest_epochs = 4, .distill_temperature = 1.0f});
  }
  if (name == "DS-FL") {
    return std::make_unique<fl::DsFl>(fl::DsFl::Options{
        .local_epochs = 2, .digest_epochs = 4, .sharpen_temperature = 0.5f});
  }
  if (name == "FedDF") {
    return std::make_unique<fl::FedDf>(
        fed, fl::FedDf::Options{.local_epochs = 6,
                                .server_epochs = 1,
                                .distill_batch = 32,
                                .distill_temperature = 1.0f});
  }
  if (name == "FedET") {
    return std::make_unique<fl::FedEt>(
        fed, fl::FedEt::Options{.local_epochs = 2,
                                .server_epochs = 2,
                                .client_digest_epochs = 1,
                                .server_arch = "resmlp56",
                                .distill_batch = 32});
  }
  if (name == "FedProto") {
    return std::make_unique<core::FedProto>(
        core::FedProto::Options{.local_epochs = 2, .prototype_weight = 0.5f});
  }
  if (name == "FedPKD") {
    core::FedPkd::Options o;
    o.local_epochs = 3;
    o.public_epochs = 2;
    o.server_epochs = 8;
    o.server_arch = "resmlp56";
    return std::make_unique<core::FedPkd>(fed, o);
  }
  throw std::invalid_argument("unknown algorithm " + name);
}

/// One full experiment run (the body of a non-supervised invocation, and the
/// child of a supervised one). Builds the federation, resumes from a single
/// checkpoint file or the generation chain when asked, runs, and writes the
/// CSV / model checkpoint / sealed final state.
int run_once(const Args& args) {
  // Honor FEDPKD_CRASH_AT in every run path (supervised children inherit it
  // through the environment; the supervisor unsets it after the first exit
  // so injected faults are one-shot).
  fl::durable::arm_crash_points_from_env();

  const data::SyntheticVisionConfig config =
      args.dataset == "synth100"
          ? data::SyntheticVisionConfig::synth100(args.seed)
          : data::SyntheticVisionConfig::synth10(args.seed);
  const std::vector<std::string> archs =
      args.hetero
          ? std::vector<std::string>{"resmlp11", "resmlp20", "resmlp29"}
          : std::vector<std::string>{"resmlp20"};

  std::unique_ptr<fl::Federation> fed;
  if (args.population > 0) {
    // Virtual-client pool: the population is a number, `--clients` becomes
    // the per-round cohort, and shards are hydrated lazily on demand.
    fl::VirtualFederationConfig vconfig;
    vconfig.task = config;
    vconfig.population = args.population;
    vconfig.cohort_size = args.clients;
    vconfig.warm_capacity = args.warm_cache;
    vconfig.client_archs = archs;
    if (args.partition == "shards") vconfig.classes_per_client = args.k;
    vconfig.seed = args.seed;
    vconfig.num_threads = args.threads;
    vconfig.edge_aggregators = args.edge_aggregators;
    fed = fl::build_virtual_federation(vconfig);
  } else {
    const data::SyntheticVision task(config);
    const auto bundle = task.make_bundle(3000, 1500, 800);

    fl::PartitionSpec spec = fl::PartitionSpec::dirichlet(args.alpha);
    if (args.partition == "iid") spec = fl::PartitionSpec::iid();
    if (args.partition == "shards") {
      spec = fl::PartitionSpec::shards(args.k, 3000 / (args.clients * 20), 20);
    }

    fl::FederationConfig fed_config;
    fed_config.num_clients = args.clients;
    fed_config.client_archs = archs;
    fed_config.seed = args.seed;
    fed_config.num_threads = args.threads;
    fed_config.edge_aggregators = args.edge_aggregators;
    fed = fl::build_federation(bundle, spec, fed_config);
  }

  // Fault plan and round policy are run *configuration*: a resumed run must
  // re-apply them identically before restoring checkpointed state.
  if (args.have_faults) fed->channel.set_fault_plan(args.faults);
  if (args.deadline_ms > 0.0) fed->policy.upload_deadline_ms = args.deadline_ms;
  fed->policy.quorum_fraction = args.quorum;
  fed->policy.mode = args.round_mode;
  if (args.have_buffer_k) fed->policy.buffer_k = args.buffer_k;
  if (args.staleness_beta >= 0.0) {
    fed->policy.staleness_beta = args.staleness_beta;
  }
  if (args.wake_interval_ms > 0.0) {
    fed->policy.wake_interval_ms = args.wake_interval_ms;
  }
  fed->policy.validation.max_weights_norm = args.max_weight_norm;
  fed->policy.validation.adaptive_weights_norm = args.adaptive_norm;
  fed->robust = args.robust;
  if (args.have_attacks) fed->set_attack_plan(args.attacks);

  auto algo = make_algo(args.algorithm, *fed);
  fl::RunOptions run;
  run.rounds = args.rounds;
  run.log = &std::cout;

  fl::durable::IoFaultInjector io;
  fl::durable::GenerationChain chain(args.state_chain, args.state_generations,
                                     args.io_enospc_after > 0 ? &io : nullptr);
  if (args.io_enospc_after > 0) {
    fl::durable::IoFaultPlan plan;
    plan.enospc_after_bytes = args.io_enospc_after;
    io.set_plan(plan);
  }
  if (!args.state_chain.empty()) {
    run.checkpoint_chain = &chain;
    run.checkpoint_every = args.state_every;
  } else if (!args.save_state.empty()) {
    run.checkpoint_path = args.save_state;
    run.checkpoint_every = args.state_every;
  }

  fl::RunHistory prior;
  bool resumed_any = false;
  if (!args.resume.empty()) {
    const fl::FederationResume resumed =
        fl::load_federation_checkpoint(args.resume, *algo, *fed);
    run.start_round = resumed.next_round;
    prior = resumed.history;
    resumed_any = true;
    std::cout << "resumed " << args.resume << " at round "
              << resumed.next_round << "\n";
  } else if (args.resume_last_good) {
    // An empty chain is not an error: the first supervised attempt starts
    // fresh, every later one resumes from whatever the crash left behind.
    if (const auto resumed =
            fl::load_federation_checkpoint(chain, *algo, *fed)) {
      run.start_round = resumed->resume.next_round;
      prior = resumed->resume.history;
      resumed_any = true;
      std::cout << "resumed " << args.state_chain << " generation "
                << resumed->generation << " at round "
                << resumed->resume.next_round;
      if (resumed->fallbacks > 0) {
        std::cout << " (fell back past " << resumed->fallbacks
                  << " corrupt generation(s))";
      }
      if (resumed->manifest_recovered) {
        std::cout << " (manifest recovered by directory scan)";
      }
      std::cout << "\n";
    }
  }

  fl::RunHistory history = fl::run_federation(*algo, *fed, run);
  if (resumed_any) {
    // Stitch the interrupted run's rounds in front: the CSV, summary, and
    // sealed final state all describe the whole run.
    history.rounds.insert(history.rounds.begin(), prior.rounds.begin(),
                          prior.rounds.end());
  }
  if (const char* restarts = std::getenv("FEDPKD_RESTART_COUNT")) {
    history.recoveries = std::strtoull(restarts, nullptr, 10);
  }

  std::cout << "\nbest: ";
  if (algo->server_model() != nullptr) {
    std::cout << "S_acc=" << history.best_server_accuracy() << " ";
  }
  std::cout << "C_acc=" << history.best_client_accuracy() << " traffic="
            << comm::Meter::to_mb(history.final_round().cumulative_bytes)
            << "MB\n";

  if (const auto* staged = dynamic_cast<const fl::StagedAlgorithm*>(algo.get())) {
    const fl::StageTimes total = staged->total_stage_times();
    std::cout << "stage totals over " << args.rounds
              << " round(s): train=" << total.local_update_seconds
              << "s upload=" << total.upload_seconds
              << "s server=" << total.server_step_seconds
              << "s download=" << total.download_seconds
              << "s apply=" << total.apply_seconds << "s\n";
    const fl::RoundFaultStats faults = staged->total_fault_stats();
    if (faults.any() || args.have_faults) {
      std::cout << "fault totals: attempts=" << faults.send_attempts
                << " retries=" << faults.retries
                << " dropped=" << faults.frames_dropped
                << " corrupt=" << faults.corrupt_frames
                << " lost=" << faults.bundles_lost
                << " stragglers=" << faults.stragglers_excluded
                << " rejected=" << faults.rejected_contributions
                << " crashed=" << faults.clients_crashed
                << " quorum_misses=" << faults.quorum_misses
                << " max_latency=" << faults.max_upload_latency_ms << "ms\n";
    }
    if (args.have_attacks || args.robust.active()) {
      std::cout << "robust totals: rule="
                << robust::to_string(args.robust.rule)
                << " attacks=" << faults.attacks_injected
                << " anomaly_excluded=" << faults.anomaly_excluded
                << " clipped=" << faults.clipped_contributions << "\n";
    }
  }

  if (!history.rounds.empty() && history.rounds.back().engine_stats) {
    std::size_t flushes = 0, aggregated = 0, max_stale = 0;
    for (const fl::RoundMetrics& r : history.rounds) {
      if (!r.engine_stats) continue;
      flushes += r.engine_stats->buffer_flushes;
      aggregated += r.engine_stats->aggregated_uploads;
      max_stale = std::max(max_stale, r.engine_stats->max_staleness);
    }
    std::cout << "simulated: makespan="
              << history.rounds.back().engine_stats->round_end_ms
              << "ms flushes=" << flushes << " aggregated=" << aggregated
              << " max_staleness=" << max_stale << "\n";
  }

  if (!args.csv.empty()) {
    fl::export_history_csv(history, args.csv);
    std::cout << "wrote " << args.csv << "\n";
  }
  if (!args.checkpoint.empty()) {
    if (algo->server_model() == nullptr) {
      std::cerr << args.algorithm << " has no server model to checkpoint\n";
    } else {
      fl::save_checkpoint(*algo->server_model(), args.checkpoint);
      std::cout << "wrote " << args.checkpoint << "\n";
    }
  }
  if (!args.final_state.empty()) {
    // Sealed end-of-run federation state with the full stitched history:
    // byte-identical across an uninterrupted run and a crashed-and-
    // supervised one, which is exactly what the crash sweep compares.
    std::vector<std::byte> state = fl::encode_federation_checkpoint(
        *algo, *fed, args.rounds, history);
    fl::durable::append_footer(state);
    fl::durable::atomic_write_file(args.final_state, state);
    std::cout << "wrote " << args.final_state << "\n";
  }
  if (history.recoveries > 0) {
    std::cout << "recoveries: " << history.recoveries << "\n";
  }
  return 0;
}

/// One supervised attempt: fork, run the experiment in the child, reap it.
/// Children after the first resume from the chain's last good generation.
int supervised_attempt(const Args& args, std::size_t attempt) {
  std::cout.flush();
  std::cerr.flush();
  ::setenv("FEDPKD_RESTART_COUNT", std::to_string(attempt).c_str(), 1);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::cerr << "supervisor: fork failed: " << std::strerror(errno) << "\n";
    return 1;
  }
  if (pid == 0) {
    int rc = 1;
    try {
      Args child = args;
      child.supervise_run = false;
      child.resume_last_good = true;
      rc = run_once(child);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      rc = 1;
    }
    std::cout.flush();
    std::cerr.flush();
    std::_Exit(rc);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) < 0) {
    std::cerr << "supervisor: waitpid failed: " << std::strerror(errno) << "\n";
    return 1;
  }
  // Injected crash points are one-shot: the first child consumed the fault,
  // restarted children must not inherit it.
  ::unsetenv("FEDPKD_CRASH_AT");
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return 1;
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args = parse(argc, argv);

  if (args.verify_chain) {
    // Footer-level chain audit, no federation needed: exit 0 when a
    // generation verifies, 3 when nothing on disk is loadable.
    const fl::durable::GenerationChain chain(args.state_chain,
                                             args.state_generations);
    const auto loaded = chain.load();
    if (!loaded) {
      std::cerr << "chain " << args.state_chain
                << ": no loadable generation\n";
      return 3;
    }
    std::cout << "chain " << args.state_chain << ": generation "
              << loaded->generation << " verified (" << loaded->payload.size()
              << " bytes, fallbacks=" << loaded->fallbacks
              << (loaded->manifest_recovered ? ", manifest recovered" : "")
              << ")\n";
    return 0;
  }

  if (args.supervise_run) {
    fl::durable::SuperviseOptions options;
    options.max_restarts = args.max_restarts;
    options.backoff_ms = args.restart_backoff_ms;
    options.sleep_ms = [](std::uint64_t ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    };
    options.log = [](const std::string& line) {
      std::cerr << line << "\n";
    };
    const fl::durable::SuperviseResult result = fl::durable::supervise(
        [&](std::size_t attempt) { return supervised_attempt(args, attempt); },
        options);
    if (result.restarts > 0 || result.budget_exhausted) {
      std::cerr << "supervisor: " << (result.budget_exhausted
                                          ? "gave up after "
                                          : "recovered after ")
                << result.restarts << " restart(s)\n";
    }
    return result.exit_status;
  }

  return run_once(args);
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
