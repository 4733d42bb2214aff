#pragma once

// Hook-level tracing for fedbench's traced run.
//
// TracedStages wraps an algorithm's fl::RoundStages and forwards every hook
// unchanged, recording one span per call. The bench drives it through its own
// fl::RoundPipeline, so the library is measured purely from outside: nothing
// in src/ knows it is being traced, and the traced run's per-round results
// must equal the untraced run's bit for bit (fedbench checks the digests).
//
// Spans of concurrent hooks (local_update, make_upload, apply_download) go
// into one preallocated buffer per cohort slot. The pipeline runs each slot
// on exactly one lane per stage and the stages one after another, so no two
// threads ever write the same buffer; serial hooks and the bench's own spans
// share one buffer written only by the driving thread.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fedpkd/fl/round_pipeline.hpp"
#include "fedpkd/fl/timing.hpp"

namespace fedbench {

using Clock = std::chrono::steady_clock;

/// One timed interval. `name` points at a string literal.
struct Span {
  const char* name = "";
  double start_s = 0.0;  // seconds since the recorder's origin
  double end_s = 0.0;
  std::uint32_t round = 0;  // the round span this one belongs to
  std::uint32_t lane = 0;   // thread that ran it (0 = driving thread)
  std::int32_t client = -1;  // client id for per-client hooks
  double flops = 0.0;        // estimated training FLOPs (local_update only)

  double duration() const { return end_s - start_s; }
};

/// Small dense id of the calling thread, assigned on first use.
inline std::uint32_t lane_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

/// Where spans live. Buffers are reserved up front for `max_rounds` rounds
/// of at most `max_slots` participants, so recording never allocates in the
/// measured region of a run that stays within those bounds.
class SpanRecorder {
 public:
  SpanRecorder(std::size_t max_slots, std::size_t max_rounds)
      : origin_(Clock::now()), slots_(max_slots) {
    lane_id();  // the constructing (driving) thread becomes lane 0
    serial_.reserve(max_rounds * 24);
    for (std::vector<Span>& slot : slots_) slot.reserve(max_rounds * 4);
  }

  double at(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }
  double now() const { return at(Clock::now()); }

  /// Serial hook at the top of a round: grows the slot table if the cohort
  /// is larger than planned (only the driving thread runs here).
  void begin_round(std::size_t round, std::size_t slots) {
    round_ = static_cast<std::uint32_t>(round);
    if (slots_.size() < slots) slots_.resize(slots);
  }
  std::uint32_t round() const { return round_; }

  void record_serial(const Span& span) { serial_.push_back(span); }
  /// Concurrent hooks: each slot index is written by one lane at a time.
  void record_slot(std::size_t slot, const Span& span) {
    slots_[slot].push_back(span);
  }

  /// Every span of `round`, in start order.
  std::vector<Span> round_spans(std::uint32_t round) const {
    std::vector<Span> out;
    const auto take = [&](const std::vector<Span>& buffer) {
      for (const Span& s : buffer) {
        if (s.round == round) out.push_back(s);
      }
    };
    take(serial_);
    for (const std::vector<Span>& slot : slots_) take(slot);
    std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
      return a.start_s < b.start_s;
    });
    return out;
  }

  /// Writes every span as Chrome trace-event JSON ("X" complete events, one
  /// track per lane), the format Perfetto and chrome://tracing open.
  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << std::fixed << std::setprecision(3)
        << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    const auto emit = [&](const Span& s) {
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
          << ",\"ts\":" << s.start_s * 1e6 << ",\"dur\":" << s.duration() * 1e6
          << ",\"args\":{\"round\":" << s.round;
      if (s.client >= 0) out << ",\"client\":" << s.client;
      out << "}}";
      first = false;
    };
    for (const Span& s : serial_) emit(s);
    for (const std::vector<Span>& slot : slots_) {
      for (const Span& s : slot) emit(s);
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write trace " + path);
  }

 private:
  Clock::time_point origin_;
  std::uint32_t round_ = 0;
  std::vector<Span> serial_;
  std::vector<std::vector<Span>> slots_;
};

/// Forwards every RoundStages hook of `inner` and records its span.
class TracedStages final : public fedpkd::fl::RoundStages {
 public:
  /// `local_epochs` feeds the per-client training FLOP estimate.
  TracedStages(fedpkd::fl::RoundStages& inner, SpanRecorder& recorder,
               std::size_t local_epochs)
      : inner_(inner), rec_(recorder), local_epochs_(local_epochs) {}

  void on_round_start(fedpkd::fl::RoundContext& ctx) override {
    rec_.begin_round(ctx.round, ctx.num_active());
    const double start = rec_.now();
    inner_.on_round_start(ctx);
    serial("on_round_start", start);
  }

  std::optional<fedpkd::fl::PayloadBundle> make_broadcast(
      fedpkd::fl::RoundContext& ctx) override {
    const double start = rec_.now();
    auto bundle = inner_.make_broadcast(ctx);
    serial("make_broadcast", start);
    return bundle;
  }

  void local_update(fedpkd::fl::RoundContext& ctx, std::size_t i,
                    fedpkd::fl::Client& client) override {
    const double start = rec_.now();
    inner_.local_update(ctx, i, client);
    Span span = slot_span("local_update", start, client);
    span.flops = static_cast<double>(fedpkd::fl::training_flops(
        client.model, client.train_data.size(), local_epochs_));
    rec_.record_slot(i, span);
  }

  void before_upload(fedpkd::fl::RoundContext& ctx) override {
    const double start = rec_.now();
    inner_.before_upload(ctx);
    serial("before_upload", start);
  }

  fedpkd::fl::PayloadBundle make_upload(fedpkd::fl::RoundContext& ctx,
                                        std::size_t i,
                                        fedpkd::fl::Client& client) override {
    const double start = rec_.now();
    fedpkd::fl::PayloadBundle bundle = inner_.make_upload(ctx, i, client);
    rec_.record_slot(i, slot_span("make_upload", start, client));
    return bundle;
  }

  void server_step(fedpkd::fl::RoundContext& ctx,
                   std::vector<fedpkd::fl::Contribution>& contributions)
      override {
    const double start = rec_.now();
    inner_.server_step(ctx, contributions);
    serial("server_step", start);
  }

  std::optional<fedpkd::fl::PayloadBundle> make_download(
      fedpkd::fl::RoundContext& ctx) override {
    const double start = rec_.now();
    auto bundle = inner_.make_download(ctx);
    serial("make_download", start);
    return bundle;
  }

  void apply_download(fedpkd::fl::RoundContext& ctx, std::size_t i,
                      fedpkd::fl::Client& client,
                      const fedpkd::fl::WireBundle& bundle) override {
    const double start = rec_.now();
    inner_.apply_download(ctx, i, client, bundle);
    rec_.record_slot(i, slot_span("apply_download", start, client));
  }

 private:
  void serial(const char* name, double start) {
    rec_.record_serial(
        Span{name, start, rec_.now(), rec_.round(), lane_id(), -1, 0.0});
  }
  Span slot_span(const char* name, double start,
                 const fedpkd::fl::Client& client) const {
    return Span{name,      start,     rec_.now(), rec_.round(),
                lane_id(), client.id, 0.0};
  }

  fedpkd::fl::RoundStages& inner_;
  SpanRecorder& rec_;
  std::size_t local_epochs_;
};

/// Per-round numbers derived from one round's spans. Self time of a span is
/// its duration minus the part of it its child spans cover.
struct StageBreakdown {
  double local_wall_s = 0.0;  // first local_update start .. last end
  double local_busy_s = 0.0;  // sum of local_update spans
  double local_imbalance = 0.0;  // slowest client span / mean client span
  double before_upload_s = 0.0;
  double make_upload_busy_s = 0.0;
  double server_step_s = 0.0;
  double apply_busy_s = 0.0;
  // Gaps after a hook until the next hook starts (or the pipeline ends):
  // where the pipeline's serial sends, validation and filtering run.
  double broadcast_s = 0.0;  // after make_broadcast
  double upload_s = 0.0;     // after the last make_upload
  double download_s = 0.0;   // after make_download
  double pipeline_self_s = 0.0;  // pipeline span minus union of hook spans
  double concurrent_busy_s = 0.0;  // local_update + make_upload + apply
  double concurrent_wall_s = 0.0;  // wall of those three stages
  double train_flops = 0.0;
};

namespace detail {

inline bool is(const Span& s, const char* name) {
  return std::string_view(s.name) == name;
}

/// Length of the union of the given intervals (sorted by start).
inline double union_length(const std::vector<Span>& spans) {
  double total = 0.0;
  double cur_start = 0.0;
  double cur_end = -1.0;
  bool open = false;
  for (const Span& s : spans) {
    if (!open || s.start_s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s.start_s;
      cur_end = s.end_s;
      open = true;
    } else {
      cur_end = std::max(cur_end, s.end_s);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

}  // namespace detail

/// Folds one round's spans (SpanRecorder::round_spans) into the stage
/// numbers. `pipeline` is the bench's span around RoundPipeline::run.
inline StageBreakdown breakdown(const std::vector<Span>& spans,
                                const Span& pipeline) {
  using detail::is;
  StageBreakdown b;
  std::vector<Span> hooks;
  for (const Span& s : spans) {
    if (s.start_s >= pipeline.start_s && s.end_s <= pipeline.end_s &&
        !is(s, "pipeline")) {
      hooks.push_back(s);
    }
  }
  // Gap from `end` to the next hook start at or after it.
  const auto gap_after = [&](double end) {
    double next = pipeline.end_s;
    for (const Span& s : hooks) {
      if (s.start_s >= end) {
        next = std::min(next, s.start_s);
      }
    }
    return next - end;
  };
  struct Window {
    double start = 1e300;
    double end = -1e300;
    void add(const Span& s) {
      start = std::min(start, s.start_s);
      end = std::max(end, s.end_s);
    }
    double wall() const { return end > start ? end - start : 0.0; }
  };
  Window local, upload, apply;
  double local_max = 0.0;
  std::size_t local_n = 0;
  for (const Span& s : hooks) {
    const double d = s.duration();
    if (is(s, "local_update")) {
      b.local_busy_s += d;
      local_max = std::max(local_max, d);
      ++local_n;
      local.add(s);
      b.train_flops += s.flops;
    } else if (is(s, "make_upload")) {
      b.make_upload_busy_s += d;
      upload.add(s);
    } else if (is(s, "apply_download")) {
      b.apply_busy_s += d;
      apply.add(s);
    } else if (is(s, "before_upload")) {
      b.before_upload_s += d;
    } else if (is(s, "server_step")) {
      b.server_step_s += d;
    } else if (is(s, "make_broadcast")) {
      b.broadcast_s += gap_after(s.end_s);
    } else if (is(s, "make_download")) {
      b.download_s += gap_after(s.end_s);
    }
  }
  b.local_wall_s = local.wall();
  b.local_imbalance =
      local_n > 0 && b.local_busy_s > 0.0
          ? local_max / (b.local_busy_s / static_cast<double>(local_n))
          : 0.0;
  if (upload.wall() > 0.0) b.upload_s = gap_after(upload.end);
  b.concurrent_busy_s = b.local_busy_s + b.make_upload_busy_s + b.apply_busy_s;
  b.concurrent_wall_s = local.wall() + upload.wall() + apply.wall();
  b.pipeline_self_s = pipeline.duration() - detail::union_length(hooks);
  return b;
}

}  // namespace fedbench
