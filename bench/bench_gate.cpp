// bench_gate — the perf-regression gate for the micro benches.
//
// The bench binaries (micro_parallel first among them) emit machine-readable
// records into BENCH_kernels.json. This tool compares a fresh run of those
// records against the committed BENCH_baseline.json and exits nonzero when
// any gated record regressed past its per-record tolerance, so CI turns a
// parallel-scaling or allocation regression into a red build instead of an
// artifact nobody reads.
//
// What is gated by default is deliberately hardware-independent:
//
//   * allocs_per_iter  — Tensor heap allocations per round / per kernel call.
//                        Depends only on code paths, not on the machine.
//   * value (counters) — seeded fault statistics; deterministic, drift in
//                        either direction is flagged.
//   * ratio            — derived wall-clock ratio threads=N vs threads=1 of
//                        the same op. Cross-machine comparable because both
//                        ends of the ratio ran on the same box; the gate is
//                        `fresh <= max(baseline, 1.0) * (1 + tolerance)`, so
//                        a 10% tolerance encodes "N threads may never be
//                        more than ~1.1x slower than serial" even when the
//                        baseline was recorded on a single-core machine.
//                        A ratio is only derived when the two ends ran with
//                        different *effective* lane counts (the bench emits
//                        the post-hardware-clamp count in `threads`); on a
//                        host where the clamp makes them equal, the ratio is
//                        reported as skipped, not failed — two identical
//                        serial runs would gate on pure noise.
//   * peak_rss_kb      — process peak RSS at record time (the `rss_kb`
//                        field). One-sided: fresh may not exceed baseline by
//                        more than the tolerance plus a fixed absolute
//                        allowance for allocator/runner variance. This is
//                        what turns an O(population) memory regression in
//                        the virtual-client pool into a red build.
//   * ns_per_iter      — raw timings are only gated when
//                        FEDPKD_BENCH_GATE_TIMING=1 (same-machine workflow:
//                        record a local baseline, then A/B a change); on
//                        shared CI runners they are informational.
//
// Usage:
//   bench_gate --check BENCH_baseline.json [--input BENCH_kernels.json]
//              [--ratio-slack X]
//   bench_gate --write-baseline BENCH_baseline.json [--input BENCH_kernels.json]
//
// --ratio-slack X adds X of extra tolerance to every ratio record (a 0.10
// baseline tolerance with --ratio-slack 0.15 gates at 1.25x). Shared CI
// runners use it: min-of-3 at smoke scale still leaves the N-vs-1
// wall-clock ratio exposed to noisy neighbors on small multi-vCPU
// machines, so CI pairs the widened threshold with rerun-on-fail while the
// local FEDPKD_BENCH_GATE_TIMING workflow keeps the strict 1.1x contract.
//
// Updating the baseline (e.g. after an intentional allocation change):
//   FEDPKD_SCALE=smoke FEDPKD_BENCH_JSON=fresh.json ./build/bench/micro_parallel
//   ./build/bench/bench_gate --write-baseline BENCH_baseline.json --input fresh.json

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace {

/// -- Minimal JSON reader -----------------------------------------------------
///
/// The bench JSON is a flat array of flat objects whose values are strings or
/// numbers — written by bench::append_bench_records and by this tool, never
/// by hand. This parser covers exactly that subset (plus whitespace), keeping
/// the gate dependency-free.

struct JsonValue {
  std::string str;
  double num = 0.0;
  bool is_string = false;
};

using JsonObject = std::map<std::string, JsonValue>;

class Parser {
 public:
  explicit Parser(std::string text) : text_(std::move(text)) {}

  std::vector<JsonObject> parse_array() {
    std::vector<JsonObject> out;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    for (;;) {
      out.push_back(parse_object());
      skip_ws();
      const char c = next();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' after object");
    }
    return out;
  }

 private:
  JsonObject parse_object() {
    JsonObject obj;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      const std::string key = parse_string();
      expect(':');
      skip_ws();
      JsonValue value;
      if (peek() == '"') {
        value.str = parse_string();
        value.is_string = true;
      } else {
        value.num = parse_number();
      }
      obj[key] = std::move(value);
      skip_ws();
      const char c = next();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' after value");
    }
    return obj;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("dangling escape");
        c = text_[pos_++];
      }
      out.push_back(c);
    }
    return out;
  }

  double parse_number() {
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) fail("expected a number");
    pos_ += static_cast<std::size_t>(end - begin);
    return v;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char want) {
    skip_ws();
    const char c = next();
    if (c != want) {
      fail(std::string("expected '") + want + "', got '" + c + "'");
    }
  }

  [[noreturn]] void fail(const std::string& why) {
    throw std::runtime_error("JSON parse error at byte " +
                             std::to_string(pos_) + ": " + why);
  }

  const std::string text_;
  std::size_t pos_ = 0;
};

std::vector<JsonObject> load_records(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Parser parser(buffer.str());
  return parser.parse_array();
}

std::optional<double> number_field(const JsonObject& obj, const char* key) {
  const auto it = obj.find(key);
  if (it == obj.end() || it->second.is_string) return std::nullopt;
  return it->second.num;
}

std::string string_field(const JsonObject& obj, const char* key) {
  const auto it = obj.find(key);
  return it == obj.end() ? std::string() : it->second.str;
}

/// -- Measurements ------------------------------------------------------------

/// One gateable number extracted from a fresh bench run, keyed by
/// (op, shape, metric).
struct Measurement {
  std::string op;
  std::string shape;
  std::string metric;  // "ns_per_iter" | "allocs_per_iter" | "value" | "ratio"
  double value = 0.0;
};

std::string key_of(const std::string& op, const std::string& shape,
                   const std::string& metric) {
  return op + " | " + shape + " | " + metric;
}

/// Requested thread count parsed out of a shape string ("...,threads=N,...");
/// 0 when the shape has no threads key.
long long shape_threads(const std::string& shape) {
  const std::size_t at = shape.find("threads=");
  if (at == std::string::npos) return 0;
  return std::atoll(shape.c_str() + at + 8);
}

/// Flattens bench records into measurements and derives the scaling ratios:
/// for every op that was timed at threads=1 and threads=N (N > 1) with
/// otherwise identical shape, a "ratio" measurement time(N)/time(1) is added
/// under the threads=N shape. N is the shape's requested count; the record's
/// `threads` field (the effective count after the hardware clamp) only
/// decides whether the run was parallel at all, so threads=8 clamped to 4
/// lanes still finds its threads=1 partner.
std::vector<Measurement> extract_measurements(
    const std::vector<JsonObject>& records) {
  std::vector<Measurement> out;
  std::map<std::string, double> serial_ns;  // op|shape-with-threads=1 -> ns

  for (const JsonObject& r : records) {
    const std::string op = string_field(r, "op");
    const std::string shape = string_field(r, "shape");
    if (const auto v = number_field(r, "value")) {
      out.push_back({op, shape, "value", *v});
      continue;
    }
    if (const auto ns = number_field(r, "ns_per_iter")) {
      out.push_back({op, shape, "ns_per_iter", *ns});
      if (const auto threads = number_field(r, "threads");
          threads && *threads == 1.0 && *ns > 0.0) {
        serial_ns[op + " | " + shape] = *ns;
      }
    }
    if (const auto allocs = number_field(r, "allocs_per_iter")) {
      out.push_back({op, shape, "allocs_per_iter", *allocs});
    }
    if (const auto rss = number_field(r, "rss_kb"); rss && *rss > 0.0) {
      out.push_back({op, shape, "peak_rss_kb", *rss});
    }
  }

  for (const JsonObject& r : records) {
    const auto threads = number_field(r, "threads");
    const auto ns = number_field(r, "ns_per_iter");
    if (!threads || *threads <= 1.0 || !ns) continue;
    const std::string op = string_field(r, "op");
    const std::string shape = string_field(r, "shape");
    // Rewrite "threads=N" to "threads=1" to find the serial partner.
    const std::string needle =
        "threads=" + std::to_string(shape_threads(shape));
    const std::size_t at = shape.find(needle);
    if (at == std::string::npos) continue;
    std::string serial_shape = shape;
    serial_shape.replace(at, needle.size(), "threads=1");
    const auto it = serial_ns.find(op + " | " + serial_shape);
    if (it == serial_ns.end() || it->second <= 0.0) continue;
    out.push_back({op, shape, "ratio", *ns / it->second});
  }
  return out;
}

/// -- Baseline ----------------------------------------------------------------

struct BaselineRecord {
  std::string op;
  std::string shape;
  std::string metric;
  double value = 0.0;
  double tolerance = 0.10;
};

bool gated_op(const std::string& op) {
  return op.rfind("round:", 0) == 0 || op.rfind("robust:", 0) == 0 ||
         op.rfind("fault:", 0) == 0 || op.rfind("scale:", 0) == 0 ||
         op.rfind("async:", 0) == 0 || op.rfind("recovery:", 0) == 0 ||
         op.rfind("BM_ClientModelBuild/", 0) == 0 ||
         op.rfind("BM_ForwardBatch32/", 0) == 0 ||
         op.rfind("BM_MatmulReluSparse", 0) == 0 ||
         op.rfind("BM_MatmulTransposeB/", 0) == 0 ||
         op.rfind("BM_ReluBackward", 0) == 0 ||
         op.rfind("BM_TransposeRows", 0) == 0;
}

std::vector<BaselineRecord> make_baseline(
    const std::vector<Measurement>& measurements) {
  std::vector<BaselineRecord> out;
  std::map<std::string, bool> have_ratio;
  for (const Measurement& m : measurements) {
    if (m.metric == "ratio") have_ratio[m.op + " | " + m.shape] = true;
  }
  for (const Measurement& m : measurements) {
    if (!gated_op(m.op)) continue;
    BaselineRecord rec{m.op, m.shape, m.metric, m.value, 0.10};
    if (m.metric == "ns_per_iter") {
      // Raw timings gate only in the opt-in same-machine workflow; give them
      // headroom for run-to-run noise even there.
      rec.tolerance = 0.25;
    } else if (m.metric == "peak_rss_kb") {
      // RSS is reproducible for a deterministic workload but shifts with
      // glibc/allocator versions and lane-count arena behavior across
      // runners; the one-sided gate still catches order-of-magnitude
      // (O(population)) blowups with this much headroom.
      rec.tolerance = 0.35;
    }
    out.push_back(std::move(rec));
    // A host whose hardware clamp left "parallel" runs serial derives no
    // ratio of its own. Baselines must still carry the scaling gate for
    // capable machines, so synthesize the contract's ideal: ratio 1.0,
    // i.e. "N threads may never run more than tolerance slower than
    // serial". On a multicore host the measured ratio is used instead.
    if (m.metric == "ns_per_iter" && shape_threads(m.shape) > 1 &&
        !have_ratio[m.op + " | " + m.shape]) {
      out.push_back({m.op, m.shape, "ratio", 1.0, 0.10});
    }
  }
  return out;
}

void write_baseline(const std::vector<BaselineRecord>& baseline,
                    const std::string& path) {
  std::ofstream outfile(path, std::ios::trunc);
  if (!outfile) throw std::runtime_error("cannot write " + path);
  outfile << "[";
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    const BaselineRecord& r = baseline[i];
    outfile << (i == 0 ? "\n" : ",\n");
    outfile << "  {\"op\": \"" << r.op << "\", \"shape\": \"" << r.shape
            << "\", \"metric\": \"" << r.metric << "\", \"value\": " << r.value
            << ", \"tolerance\": " << r.tolerance << "}";
  }
  outfile << "\n]\n";
}

std::vector<BaselineRecord> load_baseline(const std::string& path) {
  std::vector<BaselineRecord> out;
  for (const JsonObject& obj : load_records(path)) {
    BaselineRecord rec;
    rec.op = string_field(obj, "op");
    rec.shape = string_field(obj, "shape");
    rec.metric = string_field(obj, "metric");
    rec.value = number_field(obj, "value").value_or(0.0);
    rec.tolerance = number_field(obj, "tolerance").value_or(0.10);
    if (rec.op.empty() || rec.metric.empty()) {
      throw std::runtime_error(path + ": baseline record missing op/metric");
    }
    out.push_back(std::move(rec));
  }
  return out;
}

/// -- Check -------------------------------------------------------------------

bool timing_gate_enabled() {
  const char* env = std::getenv("FEDPKD_BENCH_GATE_TIMING");
  return env != nullptr && std::strcmp(env, "1") == 0;
}

int check(const std::vector<BaselineRecord>& baseline,
          const std::vector<Measurement>& fresh, double ratio_slack) {
  std::map<std::string, double> fresh_by_key;
  for (const Measurement& m : fresh) {
    fresh_by_key[key_of(m.op, m.shape, m.metric)] = m.value;
  }

  const bool gate_timing = timing_gate_enabled();
  std::size_t checked = 0, skipped = 0, failures = 0;
  for (const BaselineRecord& base : baseline) {
    if (base.metric == "ns_per_iter" && !gate_timing) {
      ++skipped;
      continue;
    }
    const std::string key = key_of(base.op, base.shape, base.metric);
    const auto it = fresh_by_key.find(key);
    if (it == fresh_by_key.end()) {
      if (base.metric == "ratio") {
        // Ratios only exist when the parallel and serial runs used different
        // effective lane counts. On a host where the hardware clamp makes
        // them equal (e.g. a 1-core container), the fresh run derives no
        // ratio — comparing two identical serial runs would gate on pure
        // noise — so the scaling check is unmeasurable here, not failed.
        std::cout << "SKIP     " << key
                  << " (no parallelism on this host — serial and parallel "
                     "ran with the same effective lane count)\n";
        ++skipped;
        continue;
      }
      std::cout << "MISSING  " << key << " (bench no longer emits it?)\n";
      ++failures;
      continue;
    }
    const double fresh_value = it->second;
    ++checked;

    bool ok;
    std::string bound;
    if (base.metric == "value") {
      // Seeded counters: drift in either direction is a behavior change.
      const double slack = std::abs(base.value) * base.tolerance + 0.5;
      ok = std::abs(fresh_value - base.value) <= slack;
      bound = "within +/-" + std::to_string(slack) + " of " +
              std::to_string(base.value);
    } else if (base.metric == "ratio") {
      // Parallel may never regress past serial-plus-tolerance, no matter how
      // modest the baseline machine was. --ratio-slack widens the margin for
      // noisy shared runners without touching the committed tolerance.
      const double limit =
          std::max(base.value, 1.0) * (1.0 + base.tolerance + ratio_slack);
      ok = fresh_value <= limit;
      bound = "<= " + std::to_string(limit);
    } else if (base.metric == "allocs_per_iter") {
      // +0.5 absolute slack forgives the emitter's two-decimal rounding.
      const double limit = base.value * (1.0 + base.tolerance) + 0.5;
      ok = fresh_value <= limit;
      bound = "<= " + std::to_string(limit);
    } else if (base.metric == "peak_rss_kb") {
      // One-sided memory ceiling; +8 MiB absolute slack keeps small-footprint
      // records from gating on allocator noise while an O(population) blowup
      // (tens to hundreds of MiB) still fails by a wide margin.
      const double limit = base.value * (1.0 + base.tolerance) + 8192.0;
      ok = fresh_value <= limit;
      bound = "<= " + std::to_string(limit);
    } else {  // ns_per_iter
      const double limit = base.value * (1.0 + base.tolerance);
      ok = fresh_value <= limit;
      bound = "<= " + std::to_string(limit);
    }

    if (!ok) {
      std::cout << "FAIL     " << key << ": " << fresh_value << " not "
                << bound << "\n";
      ++failures;
    }
  }

  std::cout << "bench_gate: " << checked << " checked, " << skipped
            << " skipped (timing gates under FEDPKD_BENCH_GATE_TIMING=1), "
            << failures << " failure(s)\n";
  return failures == 0 ? 0 : 1;
}

[[noreturn]] void usage() {
  std::cerr << "usage: bench_gate --check BASELINE.json [--input BENCH.json]"
               " [--ratio-slack X]\n"
               "       bench_gate --write-baseline BASELINE.json "
               "[--input BENCH.json]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode, baseline_path, input_path = "BENCH_kernels.json";
  double ratio_slack = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--check" || arg == "--write-baseline") && i + 1 < argc) {
      mode = arg;
      baseline_path = argv[++i];
    } else if (arg == "--input" && i + 1 < argc) {
      input_path = argv[++i];
    } else if (arg == "--ratio-slack" && i + 1 < argc) {
      char* end = nullptr;
      ratio_slack = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || ratio_slack < 0.0) usage();
    } else {
      usage();
    }
  }
  if (mode.empty() || baseline_path.empty()) usage();

  try {
    const std::vector<Measurement> fresh =
        extract_measurements(load_records(input_path));
    if (mode == "--write-baseline") {
      const std::vector<BaselineRecord> baseline = make_baseline(fresh);
      if (baseline.empty()) {
        std::cerr << "bench_gate: no gateable records in " << input_path
                  << "\n";
        return 2;
      }
      write_baseline(baseline, baseline_path);
      std::cout << "bench_gate: wrote " << baseline.size() << " record(s) to "
                << baseline_path << "\n";
      return 0;
    }
    return check(load_baseline(baseline_path), fresh, ratio_slack);
  } catch (const std::exception& e) {
    std::cerr << "bench_gate: " << e.what() << "\n";
    return 2;
  }
}
