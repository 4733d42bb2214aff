// scale_clients — the population-scaling curve of the virtual-client pool
// (ROADMAP item 1): rounds/sec and peak RSS as the population grows from
// 1k toward 1M clients on one box, while the per-round cohort stays fixed.
//
// The claim under test: with a virtual federation, per-round cost and
// resident memory depend on the cohort and the warm LRU, not on the
// population or the number of rounds. Specs are derivable, shards hydrate
// lazily, and the pool spills evicted clients to a file — so the curve
// should be flat in rounds/sec and near-flat in peak RSS from 1k to 1M.
//
// Each leg runs in its own child process (this binary, re-executed with
// --leg), one at a time in ascending population order, so its peak RSS
// (VmHWM) covers that leg only and not the heap earlier legs left behind.
// The parent only spawns, collects and reports; it starts no pool threads.
//
// Emits `scale:<algorithm>` records (ns_per_iter = wall-clock per round,
// rss_kb = leg peak RSS) into FEDPKD_BENCH_JSON; bench_gate gates rss_kb
// as the one-sided `peak_rss_kb` metric, so an O(population) or
// O(rounds) memory regression turns the bench-gate job red. When --rounds
// overrides the scale's default, the shape ends in `,rounds=R`, so a long
// memory-bound leg (`--algorithms FedAvg --populations 100000 --rounds
// 200`) never shares a record with the sweep.
//
// Usage:
//   scale_clients [--populations 1000,10000,...] [--cohort N] [--rounds R]
//                 [--warm-cache W] [--algorithms FedAvg,FedPKD]
//                 [--threads T] [--max-rss-kb X] [--max-growth G]
//
// --max-rss-kb X fails (exit 1) if any leg's peak RSS exceeds X KiB — the
// CI scale-smoke ceiling. --max-growth G fails if, per algorithm, the
// largest population's peak RSS exceeds G times the smallest's — the
// "simulating 100x the clients may not cost ~100x the memory" contract.

#include "common.hpp"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "fedpkd/exec/thread_pool.hpp"

extern char** environ;

namespace {

using namespace fedpkd;
using Clock = std::chrono::steady_clock;

/// This process's lifetime peak RSS in KiB; in a leg's child process that
/// is the leg's peak.
double peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr);
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);  // KiB on Linux
}

struct Args {
  std::vector<std::size_t> populations;
  std::vector<std::string> algorithms = {"FedAvg", "FedPKD"};
  std::size_t cohort = 8;
  std::size_t rounds = 0;  // 0 = from scale
  std::size_t warm_cache = 0;
  std::size_t threads = 1;
  double max_rss_kb = 0.0;  // 0 = report only
  double max_growth = 0.0;  // 0 = report only
  bool rounds_overridden = false;  // --rounds given: the shape names it
  bool leg = false;  // child mode: run the one leg, print its result line
};

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string item = s.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

Args parse(int argc, char** argv, const bench::Scale& scale) {
  Args args;
  args.rounds = scale.name == "smoke" ? 3 : (scale.name == "full" ? 10 : 5);
  // Per-round cost is population-independent by design, so even the bench
  // scale can afford the full 1k -> 1M sweep; smoke stays small for CI.
  args.populations = scale.name == "smoke"
                         ? std::vector<std::size_t>{1000, 10000}
                         : std::vector<std::size_t>{1000, 10000, 100000,
                                                    1000000};
  const auto need = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string(flag) + " needs a value");
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--populations") {
      args.populations.clear();
      for (const std::string& p : split_csv(need(i, "--populations"))) {
        args.populations.push_back(std::stoul(p));
      }
    } else if (a == "--algorithms") {
      args.algorithms = split_csv(need(i, "--algorithms"));
    } else if (a == "--cohort") {
      args.cohort = std::stoul(need(i, "--cohort"));
    } else if (a == "--rounds") {
      args.rounds = std::stoul(need(i, "--rounds"));
      args.rounds_overridden = true;
    } else if (a == "--warm-cache") {
      args.warm_cache = std::stoul(need(i, "--warm-cache"));
    } else if (a == "--threads") {
      args.threads = std::stoul(need(i, "--threads"));
    } else if (a == "--max-rss-kb") {
      args.max_rss_kb = std::stod(need(i, "--max-rss-kb"));
    } else if (a == "--max-growth") {
      args.max_growth = std::stod(need(i, "--max-growth"));
    } else if (a == "--leg") {
      args.leg = true;
    } else {
      throw std::invalid_argument("unknown flag " + a);
    }
  }
  if (args.populations.empty() || args.algorithms.empty()) {
    throw std::invalid_argument("need at least one population and algorithm");
  }
  if (args.leg &&
      (args.populations.size() != 1 || args.algorithms.size() != 1)) {
    throw std::invalid_argument("--leg runs one algorithm at one population");
  }
  std::sort(args.populations.begin(), args.populations.end());
  return args;
}

struct Leg {
  std::size_t population = 0;
  double seconds = 0.0;
  double rss_kb = 0.0;
  fl::PoolRoundStats pool;
};

Leg run_leg(const std::string& algorithm, std::size_t population,
            const Args& args) {
  fl::VirtualFederationConfig config;
  config.task = data::SyntheticVisionConfig::synth10(42);
  config.population = population;
  config.cohort_size = args.cohort;
  config.warm_capacity = args.warm_cache;
  // FedAvg aggregates weights and needs one architecture; FedPKD showcases
  // the heterogeneous setting the pool hydrates per id.
  config.client_archs = algorithm == "FedAvg"
                            ? std::vector<std::string>{"resmlp20"}
                            : std::vector<std::string>{"resmlp11", "resmlp20"};
  config.seed = 11;
  config.num_threads = args.threads;
  auto fed = fl::build_virtual_federation(config);

  std::unique_ptr<fl::Algorithm> algo;
  if (algorithm == "FedPKD") {
    core::FedPkd::Options options;
    options.local_epochs = 2;
    options.public_epochs = 1;
    options.server_epochs = 2;
    options.server_arch = "resmlp20";
    algo = std::make_unique<core::FedPkd>(*fed, options);
  } else if (algorithm == "FedAvg") {
    algo = std::make_unique<fl::FedAvg>(
        *fed, fl::FedAvg::Options{.local_epochs = 2, .proximal_mu = {}});
  } else {
    algo = bench::make_algorithm(algorithm, *fed, bench::current_scale());
  }

  fl::RunOptions run;
  run.rounds = args.rounds;
  const auto start = Clock::now();
  const fl::RunHistory history = fl::run_federation(*algo, *fed, run);
  const auto stop = Clock::now();
  exec::set_num_threads(1);

  Leg leg;
  leg.population = population;
  leg.seconds = std::chrono::duration<double>(stop - start).count();
  for (const fl::RoundMetrics& r : history.rounds) {
    if (r.pool_stats) leg.pool += *r.pool_stats;
  }
  // Peak is read *after* the run so it covers construction + all rounds of
  // this leg; the leg's process ran nothing else.
  leg.rss_kb = peak_rss_kb();
  return leg;
}

/// Runs one leg in a child process of this binary and parses the result
/// line the child prints (see the --leg branch of main).
Leg spawn_leg(const std::string& algorithm, std::size_t population,
              const Args& args) {
  const std::vector<std::string> words = {
      "scale_clients",   "--leg",
      "--algorithms",    algorithm,
      "--populations",   std::to_string(population),
      "--cohort",        std::to_string(args.cohort),
      "--rounds",        std::to_string(args.rounds),
      "--warm-cache",    std::to_string(args.warm_cache),
      "--threads",       std::to_string(args.threads)};
  std::vector<char*> argv;
  for (const std::string& w : words) argv.push_back(const_cast<char*>(w.c_str()));
  argv.push_back(nullptr);

  int out[2];
  if (::pipe(out) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  pid_t pid = 0;
  const int spawned = ::posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                    argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  std::string reply;
  if (spawned == 0) {
    char buf[256];
    ::ssize_t n;
    while ((n = ::read(out[0], buf, sizeof buf)) != 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) break;
      reply.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(out[0]);
  if (spawned != 0) {
    throw std::runtime_error("cannot start a leg: " +
                             std::string(std::strerror(spawned)));
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  Leg leg;
  leg.population = population;
  std::istringstream in(reply);
  std::string tag;
  in >> tag >> leg.seconds >> leg.rss_kb >> leg.pool.hits >> leg.pool.misses >>
      leg.pool.hydrations;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || tag != "leg" || !in) {
    throw std::runtime_error(algorithm + " pop=" + std::to_string(population) +
                             ": the leg's process failed");
  }
  return leg;
}

std::string fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace fedpkd;
  const bench::Scale scale = bench::current_scale();
  const Args args = parse(argc, argv, scale);
  if (args.leg) {
    const Leg leg =
        run_leg(args.algorithms.front(), args.populations.front(), args);
    std::cout << std::setprecision(17) << "leg " << leg.seconds << ' '
              << leg.rss_kb << ' ' << leg.pool.hits << ' ' << leg.pool.misses
              << ' ' << leg.pool.hydrations << '\n';
    return 0;
  }
  bench::print_banner("Virtual-client pool — population scaling", scale);
  std::cout << "cohort=" << args.cohort << " rounds=" << args.rounds
            << " warm-cache="
            << (args.warm_cache == 0 ? 4 * args.cohort : args.warm_cache)
            << " threads=" << args.threads << "\n\n";

  bench::Table table({"algorithm", "population", "rounds/s", "s/round",
                      "peak RSS", "pool hit-rate", "hydrations"});
  std::vector<bench::JsonBenchRecord> records;
  bool ceiling_ok = true, growth_ok = true;

  for (const std::string& algorithm : args.algorithms) {
    double first_rss = 0.0, last_rss = 0.0;
    for (const std::size_t population : args.populations) {
      const Leg leg = spawn_leg(algorithm, population, args);
      if (first_rss == 0.0) first_rss = leg.rss_kb;
      last_rss = leg.rss_kb;

      const double per_round = leg.seconds / static_cast<double>(args.rounds);
      const std::size_t lookups = leg.pool.hits + leg.pool.misses;
      table.add_row(
          {algorithm, std::to_string(population), fmt(1.0 / per_round, 2),
           fmt(per_round, 4), fmt(leg.rss_kb / 1024.0, 1) + "MB",
           lookups == 0 ? "n/a"
                        : bench::pct(static_cast<float>(leg.pool.hits) /
                                     static_cast<float>(lookups)),
           std::to_string(leg.pool.hydrations)});

      bench::JsonBenchRecord record;
      record.op = "scale:" + algorithm;
      record.shape = "pop=" + std::to_string(population) +
                     ",cohort=" + std::to_string(args.cohort) +
                     ",threads=" + std::to_string(args.threads) +
                     ",scale=" + scale.name +
                     (args.rounds_overridden
                          ? ",rounds=" + std::to_string(args.rounds)
                          : "");
      record.ns_per_iter = per_round * 1e9;
      record.threads = std::min(args.threads, exec::hardware_threads());
      record.rss_kb = leg.rss_kb;
      records.push_back(std::move(record));

      if (args.max_rss_kb > 0.0 && leg.rss_kb > args.max_rss_kb) {
        std::cout << "FAIL " << algorithm << " pop=" << population
                  << ": peak RSS " << leg.rss_kb << "KiB exceeds ceiling "
                  << args.max_rss_kb << "KiB\n";
        ceiling_ok = false;
      }
    }
    if (args.max_growth > 0.0 && first_rss > 0.0 &&
        last_rss > first_rss * args.max_growth) {
      std::cout << "FAIL " << algorithm << ": peak RSS grew "
                << fmt(last_rss / first_rss, 2) << "x from pop="
                << args.populations.front() << " to pop="
                << args.populations.back() << " (bound " << args.max_growth
                << "x)\n";
      growth_ok = false;
    }
  }

  table.print();
  std::cout << "\npeak RSS is per-leg (each leg ran in its own process)."
               "\nExpectation: rounds/s and peak RSS stay ~flat as the "
               "population grows — per-round cost is O(cohort), memory is "
               "O(warm cache).\n";
  bench::append_bench_records(records);
  return ceiling_ok && growth_ok ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
