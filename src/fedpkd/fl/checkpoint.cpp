#include "fedpkd/fl/checkpoint.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "fedpkd/nn/model_zoo.hpp"
#include "fedpkd/tensor/serialize.hpp"

namespace fedpkd::fl {

namespace {

constexpr std::uint32_t kMagic = 0x464b5043u;  // 'FPKC' (single model)
// v2 seals the file with durable's CRC32 footer so truncation and bit flips
// are detected at load. Unsealed v1 files are rejected.
constexpr std::uint32_t kVersion = 2;

constexpr std::uint32_t kRunMagic = 0x464b5052u;  // 'FPKR' (federation resume)
// v3 adds the attack injector's replay cache, the adaptive weight-norm
// tracker, the per-round robustness counters, and per-client anomaly records.
// v4 replaces the flat per-client section with the client pool's state: a
// mode byte, then either every resident client (the v3 layout) or the
// virtual pool's warm-LRU list and touched-client blob table.
// v5 adds the event engine's state (simulated clock, global version,
// in-flight uploads, aggregation buffer, staleness cursors) after the pool
// section, and per-round engine counters in the history — a buffered-async
// run resumes bitwise mid-buffer.
// v6 keeps the v5 payload but the file is sealed with durable's CRC32
// footer and written atomically (tmp + fsync + rename).
constexpr std::uint32_t kRunVersion = 6;

void put_string(const std::string& s, std::vector<std::byte>& out) {
  tensor::put_u32(static_cast<std::uint32_t>(s.size()), out);
  for (char c : s) out.push_back(static_cast<std::byte>(c));
}

std::string get_string(std::span<const std::byte> bytes, std::size_t& offset) {
  const std::uint32_t n = tensor::get_u32(bytes, offset);
  if (offset + n > bytes.size()) {
    throw std::runtime_error("checkpoint: truncated string");
  }
  std::string s(n, '\0');
  for (std::uint32_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>(bytes[offset + i]);
  }
  offset += n;
  return s;
}

}  // namespace

void save_checkpoint(nn::Classifier& model,
                     const std::filesystem::path& path) {
  std::vector<std::byte> out;
  tensor::put_u32(kMagic, out);
  tensor::put_u32(kVersion, out);
  put_string(model.arch(), out);
  tensor::put_u64(model.input_dim(), out);
  tensor::put_u64(model.num_classes(), out);
  tensor::encode_tensor(model.flat_weights(), out);
  durable::append_footer(out);
  durable::atomic_write_file(path, out);
}

nn::Classifier load_checkpoint(const std::filesystem::path& path) {
  const auto bytes = durable::read_file_bytes(path);
  std::size_t offset = 0;
  if (bytes.size() < 8 || tensor::get_u32(bytes, offset) != kMagic) {
    throw std::runtime_error("checkpoint: bad magic in " + path.string());
  }
  if (tensor::get_u32(bytes, offset) != kVersion) {
    throw std::runtime_error("checkpoint: unsupported version in " +
                             path.string());
  }
  // Verify the CRC32 footer before trusting a single payload byte — a
  // truncated or bit-flipped file fails here instead of decoding into
  // silently-wrong weights.
  const std::size_t end =
      durable::verified_payload_size(bytes, "checkpoint " + path.string());
  const std::string arch = get_string(bytes, offset);
  const auto input_dim =
      static_cast<std::size_t>(tensor::get_u64(bytes, offset));
  const auto num_classes =
      static_cast<std::size_t>(tensor::get_u64(bytes, offset));
  const tensor::Tensor weights = tensor::decode_tensor(bytes, offset);
  if (offset != end) {
    throw std::runtime_error("checkpoint: trailing bytes in " + path.string());
  }
  // set_flat_weights replaces every weight, so the init is never drawn.
  nn::Classifier model = nn::make_classifier_deferred(
      arch, input_dim, num_classes, tensor::Rng());
  model.set_flat_weights(weights);
  return model;
}

void export_history_csv(const RunHistory& history,
                        const std::filesystem::path& path) {
  // Built in memory and replaced atomically: a crash mid-export leaves the
  // previous CSV intact instead of a torn file under the same name.
  std::ostringstream out;
  out << "round,server_accuracy,mean_client_accuracy,cumulative_bytes,"
         "anomaly_excluded,anomaly,sim_ms,flushes,agg_uploads,stale_max\n";
  for (const RoundMetrics& m : history.rounds) {
    out << m.round << ',';
    if (m.server_accuracy) out << *m.server_accuracy;
    out << ',' << m.mean_client_accuracy << ',' << m.cumulative_bytes << ','
        << (m.fault_stats ? m.fault_stats->anomaly_excluded : 0) << ',';
    // Per-client anomaly records, semicolon-joined: node:score:excluded|kept.
    for (std::size_t i = 0; i < m.anomaly.size(); ++i) {
      if (i != 0) out << ';';
      const ClientAnomaly& a = m.anomaly[i];
      out << a.node << ':' << a.score << ':'
          << (a.excluded ? "excluded" : "kept");
    }
    // Event-engine columns: simulated clock at round end, buffer flushes,
    // aggregated uploads, max staleness. Empty when the round ran outside
    // the staged pipeline (no engine stats).
    out << ',';
    if (m.engine_stats) {
      const RoundEngineStats& e = *m.engine_stats;
      out << e.round_end_ms << ',' << e.buffer_flushes << ','
          << e.aggregated_uploads << ',' << e.max_staleness;
    } else {
      out << ",,,";
    }
    out << '\n';
  }
  const std::string csv = out.str();
  durable::atomic_write_file(
      path, std::as_bytes(std::span<const char>(csv.data(), csv.size())));
}

namespace {

/// std::stoul throws std::invalid_argument on junk, which callers reserve
/// for programmer errors; a malformed *file* is a runtime_error. These
/// wrappers also reject partially-numeric cells ("12abc") and, for floats,
/// non-finite values — a NaN accuracy cell would silently poison every
/// best-accuracy / bytes-to-target query downstream.
std::size_t parse_count(const std::string& field, const char* what) {
  std::size_t pos = 0;
  unsigned long value = 0;
  try {
    value = std::stoul(field, &pos);
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("import_history_csv: bad ") + what +
                             " cell '" + field + "'");
  }
  if (pos != field.size()) {
    throw std::runtime_error(std::string("import_history_csv: bad ") + what +
                             " cell '" + field + "'");
  }
  return static_cast<std::size_t>(value);
}

float parse_accuracy(const std::string& field, const char* what) {
  std::size_t pos = 0;
  float value = 0.0f;
  try {
    value = std::stof(field, &pos);
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("import_history_csv: bad ") + what +
                             " cell '" + field + "'");
  }
  if (pos != field.size() || !std::isfinite(value)) {
    throw std::runtime_error(std::string("import_history_csv: bad ") + what +
                             " cell '" + field + "'");
  }
  return value;
}

/// Parses the semicolon-joined anomaly column written by export_history_csv:
/// `node:score:excluded|kept;...`. Exclusion *reasons* are log-only and not
/// round-tripped through the CSV.
std::vector<ClientAnomaly> parse_anomaly_cell(const std::string& cell) {
  std::vector<ClientAnomaly> anomaly;
  std::istringstream entries(cell);
  std::string entry;
  while (std::getline(entries, entry, ';')) {
    std::istringstream parts(entry);
    std::string node_field;
    std::string score_field;
    std::string flag;
    if (!std::getline(parts, node_field, ':') ||
        !std::getline(parts, score_field, ':') || !std::getline(parts, flag)) {
      throw std::runtime_error("import_history_csv: bad anomaly cell '" +
                               entry + "'");
    }
    ClientAnomaly a;
    a.node =
        static_cast<std::int32_t>(parse_count(node_field, "anomaly node"));
    a.score = parse_accuracy(score_field, "anomaly score");
    if (flag == "excluded") {
      a.excluded = true;
    } else if (flag == "kept") {
      a.excluded = false;
    } else {
      throw std::runtime_error("import_history_csv: bad anomaly cell '" +
                               entry + "'");
    }
    anomaly.push_back(std::move(a));
  }
  return anomaly;
}

}  // namespace

RunHistory import_history_csv(const std::filesystem::path& path,
                              std::string algorithm) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("import_history_csv: cannot open " +
                             path.string());
  }
  RunHistory history;
  history.algorithm = std::move(algorithm);
  std::string line;
  constexpr const char* kHeader =
      "round,server_accuracy,mean_client_accuracy,cumulative_bytes,"
      "anomaly_excluded,anomaly,sim_ms,flushes,agg_uploads,stale_max";
  if (!std::getline(in, line) || line != kHeader) {
    throw std::runtime_error("import_history_csv: bad header");
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string field;
    RoundMetrics m;
    if (!std::getline(row, field, ',')) {
      throw std::runtime_error("import_history_csv: missing round");
    }
    m.round = parse_count(field, "round");
    if (!std::getline(row, field, ',')) {
      throw std::runtime_error("import_history_csv: missing server accuracy");
    }
    if (!field.empty()) {
      m.server_accuracy = parse_accuracy(field, "server accuracy");
    }
    if (!std::getline(row, field, ',')) {
      throw std::runtime_error("import_history_csv: missing client accuracy");
    }
    m.mean_client_accuracy = parse_accuracy(field, "client accuracy");
    if (!std::getline(row, field, ',')) {
      throw std::runtime_error("import_history_csv: missing bytes");
    }
    m.cumulative_bytes = parse_count(field, "bytes");
    if (!std::getline(row, field, ',')) {
      throw std::runtime_error("import_history_csv: missing anomaly count");
    }
    const std::size_t excluded = parse_count(field, "anomaly count");
    if (excluded > 0) {
      RoundFaultStats f;
      f.anomaly_excluded = excluded;
      m.fault_stats = f;
    }
    // The anomaly cell may legitimately be empty.
    if (!std::getline(row, field, ',')) {
      throw std::runtime_error("import_history_csv: missing anomaly");
    }
    if (!field.empty()) m.anomaly = parse_anomaly_cell(field);
    // sim_ms is empty when the round carried no engine stats; then the
    // remaining three cells are empty too.
    if (!std::getline(row, field, ',')) {
      throw std::runtime_error("import_history_csv: missing sim_ms");
    }
    if (!field.empty()) {
      RoundEngineStats e;
      e.round_end_ms = static_cast<double>(parse_accuracy(field, "sim_ms"));
      if (!std::getline(row, field, ',')) {
        throw std::runtime_error("import_history_csv: missing flushes");
      }
      e.buffer_flushes = parse_count(field, "flushes");
      if (!std::getline(row, field, ',')) {
        throw std::runtime_error("import_history_csv: missing agg_uploads");
      }
      e.aggregated_uploads = parse_count(field, "agg_uploads");
      if (!std::getline(row, field, ',')) {
        throw std::runtime_error("import_history_csv: missing stale_max");
      }
      e.max_staleness = parse_count(field, "stale_max");
      m.engine_stats = e;
    }
    history.rounds.push_back(m);
  }
  return history;
}

/// -- Federation crash-resume checkpoints ------------------------------------

namespace {

void put_history(const RunHistory& history, std::vector<std::byte>& out) {
  tensor::put_u64(history.rounds.size(), out);
  for (const RoundMetrics& m : history.rounds) {
    tensor::put_u64(m.round, out);
    out.push_back(static_cast<std::byte>(m.server_accuracy ? 1 : 0));
    if (m.server_accuracy) tensor::put_f32(*m.server_accuracy, out);
    tensor::put_f32(m.mean_client_accuracy, out);
    tensor::put_u64(m.client_accuracy.size(), out);
    for (float acc : m.client_accuracy) tensor::put_f32(acc, out);
    tensor::put_u64(m.cumulative_bytes, out);
    // Wall-clock stage times are not serialized: they are non-deterministic
    // and meaningless across process restarts. Fault counters are.
    out.push_back(static_cast<std::byte>(m.fault_stats ? 1 : 0));
    if (m.fault_stats) {
      const RoundFaultStats& f = *m.fault_stats;
      tensor::put_u64(f.send_attempts, out);
      tensor::put_u64(f.retries, out);
      tensor::put_u64(f.frames_dropped, out);
      tensor::put_u64(f.corrupt_frames, out);
      tensor::put_u64(f.bundles_lost, out);
      tensor::put_u64(f.stragglers_excluded, out);
      tensor::put_u64(f.rejected_contributions, out);
      tensor::put_u64(f.quorum_misses, out);
      tensor::put_u64(f.clients_crashed, out);
      tensor::put_u64(f.attacks_injected, out);
      tensor::put_u64(f.anomaly_excluded, out);
      tensor::put_u64(f.clipped_contributions, out);
      tensor::put_f64(f.max_upload_latency_ms, out);
    }
    tensor::put_u64(m.anomaly.size(), out);
    for (const ClientAnomaly& a : m.anomaly) {
      tensor::put_u32(static_cast<std::uint32_t>(a.node), out);
      tensor::put_f32(a.score, out);
      out.push_back(static_cast<std::byte>(a.excluded ? 1 : 0));
      put_string(a.reason, out);
    }
    // Engine counters are deterministic on the simulated clock (unlike the
    // wall-clock spans), so checkpoint v5 carries them.
    out.push_back(static_cast<std::byte>(m.engine_stats ? 1 : 0));
    if (m.engine_stats) {
      const RoundEngineStats& e = *m.engine_stats;
      tensor::put_f64(e.round_start_ms, out);
      tensor::put_f64(e.round_end_ms, out);
      tensor::put_u64(e.buffer_flushes, out);
      tensor::put_u64(e.aggregated_uploads, out);
      tensor::put_u64(e.buffered_uploads, out);
      tensor::put_u64(e.inflight_uploads, out);
      tensor::put_u64(e.busy_skips, out);
      for (std::size_t bucket : e.staleness_hist) {
        tensor::put_u64(bucket, out);
      }
      tensor::put_u64(e.max_staleness, out);
    }
  }
}

RunHistory get_history(std::span<const std::byte> bytes, std::size_t& offset,
                       std::string algorithm) {
  RunHistory history;
  history.algorithm = std::move(algorithm);
  const auto rounds = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
  history.rounds.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    RoundMetrics m;
    m.round = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
    if (offset >= bytes.size()) {
      throw std::runtime_error("checkpoint: truncated history");
    }
    const bool has_server = bytes[offset++] != std::byte{0};
    if (has_server) m.server_accuracy = tensor::get_f32(bytes, offset);
    m.mean_client_accuracy = tensor::get_f32(bytes, offset);
    const auto accs = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
    if (accs > (bytes.size() - offset) / 4) {
      throw std::runtime_error("checkpoint: truncated history");
    }
    m.client_accuracy.reserve(accs);
    for (std::size_t i = 0; i < accs; ++i) {
      m.client_accuracy.push_back(tensor::get_f32(bytes, offset));
    }
    m.cumulative_bytes = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
    if (offset >= bytes.size()) {
      throw std::runtime_error("checkpoint: truncated history");
    }
    const bool has_faults = bytes[offset++] != std::byte{0};
    if (has_faults) {
      RoundFaultStats f;
      f.send_attempts = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
      f.retries = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
      f.frames_dropped =
          static_cast<std::size_t>(tensor::get_u64(bytes, offset));
      f.corrupt_frames =
          static_cast<std::size_t>(tensor::get_u64(bytes, offset));
      f.bundles_lost = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
      f.stragglers_excluded =
          static_cast<std::size_t>(tensor::get_u64(bytes, offset));
      f.rejected_contributions =
          static_cast<std::size_t>(tensor::get_u64(bytes, offset));
      f.quorum_misses = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
      f.clients_crashed =
          static_cast<std::size_t>(tensor::get_u64(bytes, offset));
      f.attacks_injected =
          static_cast<std::size_t>(tensor::get_u64(bytes, offset));
      f.anomaly_excluded =
          static_cast<std::size_t>(tensor::get_u64(bytes, offset));
      f.clipped_contributions =
          static_cast<std::size_t>(tensor::get_u64(bytes, offset));
      f.max_upload_latency_ms = tensor::get_f64(bytes, offset);
      m.fault_stats = f;
    }
    const auto anomalies =
        static_cast<std::size_t>(tensor::get_u64(bytes, offset));
    if (anomalies > (bytes.size() - offset) / 9) {  // >= 9 bytes per record
      throw std::runtime_error("checkpoint: truncated history");
    }
    m.anomaly.reserve(anomalies);
    for (std::size_t i = 0; i < anomalies; ++i) {
      ClientAnomaly a;
      a.node = static_cast<std::int32_t>(tensor::get_u32(bytes, offset));
      a.score = tensor::get_f32(bytes, offset);
      if (offset >= bytes.size()) {
        throw std::runtime_error("checkpoint: truncated history");
      }
      a.excluded = bytes[offset++] != std::byte{0};
      a.reason = get_string(bytes, offset);
      m.anomaly.push_back(std::move(a));
    }
    if (offset >= bytes.size()) {
      throw std::runtime_error("checkpoint: truncated history");
    }
    const bool has_engine = bytes[offset++] != std::byte{0};
    if (has_engine) {
      RoundEngineStats e;
      e.round_start_ms = tensor::get_f64(bytes, offset);
      e.round_end_ms = tensor::get_f64(bytes, offset);
      e.buffer_flushes = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
      e.aggregated_uploads =
          static_cast<std::size_t>(tensor::get_u64(bytes, offset));
      e.buffered_uploads =
          static_cast<std::size_t>(tensor::get_u64(bytes, offset));
      e.inflight_uploads =
          static_cast<std::size_t>(tensor::get_u64(bytes, offset));
      e.busy_skips = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
      for (std::size_t& bucket : e.staleness_hist) {
        bucket = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
      }
      e.max_staleness = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
      m.engine_stats = e;
    }
    history.rounds.push_back(std::move(m));
  }
  return history;
}

}  // namespace

std::vector<std::byte> encode_federation_checkpoint(Algorithm& algorithm,
                                                    Federation& fed,
                                                    std::size_t next_round,
                                                    const RunHistory& history) {
  if (!algorithm.supports_resume()) {
    throw std::invalid_argument("save_federation_checkpoint: " +
                                algorithm.name() +
                                " does not support crash-resume");
  }
  std::vector<std::byte> out;
  tensor::put_u32(kRunMagic, out);
  tensor::put_u32(kRunVersion, out);
  put_string(algorithm.name(), out);
  tensor::put_u64(next_round, out);
  tensor::put_rng(fed.rng, out);

  const Federation::ParticipationState participation =
      fed.participation_state();
  tensor::put_u64(participation.active_indices.size(), out);
  for (std::size_t i : participation.active_indices) tensor::put_u64(i, out);
  {
    tensor::Rng tmp(0);
    tmp.set_state(participation.rng);
    tensor::put_rng(tmp, out);
  }
  out.push_back(static_cast<std::byte>(participation.sampled_once ? 1 : 0));
  tensor::put_u64(participation.begun_round, out);

  fed.channel.faults().save_state(out);
  // Like the fault plan, the attack plan itself is not serialized: resume
  // re-applies the plan and this restores only the mutable position (the
  // free-rider replay cache and the adaptive norm history).
  fed.attacks.save_state(out);
  fed.norm_tracker.save_state(out);

  const auto& records = fed.meter.records();
  tensor::put_u64(records.size(), out);
  for (const comm::TrafficRecord& r : records) {
    tensor::put_u64(r.round, out);
    tensor::put_u32(static_cast<std::uint32_t>(r.from), out);
    tensor::put_u32(static_cast<std::uint32_t>(r.to), out);
    out.push_back(static_cast<std::byte>(r.kind));
    tensor::put_u64(r.bytes, out);
  }
  tensor::put_u64(fed.meter.current_round(), out);

  tensor::put_u64(fed.num_clients(), out);
  fed.pool.save_state(out);
  fed.engine.save_state(out);

  // The algorithm blob is length-prefixed so load can bound its reads even
  // if the algorithm's own decoder is buggy.
  std::vector<std::byte> algo_blob;
  algorithm.save_state(algo_blob);
  tensor::put_u64(algo_blob.size(), out);
  out.insert(out.end(), algo_blob.begin(), algo_blob.end());

  put_history(history, out);
  return out;
}

FederationResume decode_federation_checkpoint(std::span<const std::byte> bytes,
                                              Algorithm& algorithm,
                                              Federation& fed,
                                              const std::string& origin) {
  std::size_t offset = 0;
  if (bytes.size() < 8 || tensor::get_u32(bytes, offset) != kRunMagic) {
    throw std::runtime_error("checkpoint: bad magic in " + origin);
  }
  if (tensor::get_u32(bytes, offset) != kRunVersion) {
    throw std::runtime_error("checkpoint: unsupported version in " + origin);
  }
  const std::string name = get_string(bytes, offset);
  if (name != algorithm.name()) {
    throw std::runtime_error("checkpoint: recorded for algorithm '" + name +
                             "', resuming '" + algorithm.name() + "'");
  }
  FederationResume resume;
  resume.next_round = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
  fed.rng = tensor::get_rng(bytes, offset);

  Federation::ParticipationState participation;
  const auto actives = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
  if (actives > (bytes.size() - offset) / 8) {
    throw std::runtime_error("checkpoint: truncated participation state");
  }
  participation.active_indices.reserve(actives);
  for (std::size_t i = 0; i < actives; ++i) {
    participation.active_indices.push_back(
        static_cast<std::size_t>(tensor::get_u64(bytes, offset)));
  }
  participation.rng = tensor::get_rng(bytes, offset).state();
  if (offset >= bytes.size()) {
    throw std::runtime_error("checkpoint: truncated participation state");
  }
  participation.sampled_once = bytes[offset++] != std::byte{0};
  participation.begun_round =
      static_cast<std::size_t>(tensor::get_u64(bytes, offset));
  fed.restore_participation(participation);

  fed.channel.faults().load_state(bytes, offset);
  fed.attacks.load_state(bytes, offset);
  fed.norm_tracker.load_state(bytes, offset);

  const auto record_count =
      static_cast<std::size_t>(tensor::get_u64(bytes, offset));
  if (record_count > (bytes.size() - offset) / 25) {  // 25 bytes per record
    throw std::runtime_error("checkpoint: truncated traffic log");
  }
  std::vector<comm::TrafficRecord> records;
  records.reserve(record_count);
  for (std::size_t i = 0; i < record_count; ++i) {
    comm::TrafficRecord r;
    r.round = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
    r.from = static_cast<comm::NodeId>(tensor::get_u32(bytes, offset));
    r.to = static_cast<comm::NodeId>(tensor::get_u32(bytes, offset));
    if (offset >= bytes.size()) {
      throw std::runtime_error("checkpoint: truncated traffic log");
    }
    r.kind = static_cast<comm::PayloadKind>(bytes[offset++]);
    r.bytes = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
    records.push_back(r);
  }
  const auto meter_round =
      static_cast<std::size_t>(tensor::get_u64(bytes, offset));
  fed.meter.restore(std::move(records), meter_round);

  const auto clients = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
  if (clients != fed.num_clients()) {
    throw std::runtime_error("checkpoint: recorded " + std::to_string(clients) +
                             " clients, federation has " +
                             std::to_string(fed.num_clients()));
  }
  fed.pool.load_state(bytes, offset);
  // Checkpoints are written after evaluate_round, whose cohort lookups an
  // uninterrupted run charges to the next round's pool counters. Replay
  // them: they are warm hits on the LRU tail in the same order, so the LRU
  // is unchanged and the first resumed round reports the same counts.
  for (std::size_t id : fed.eval_client_ids()) (void)fed.client(id);
  fed.engine.load_state(bytes, offset);

  const auto blob_size =
      static_cast<std::size_t>(tensor::get_u64(bytes, offset));
  if (blob_size > bytes.size() - offset) {
    throw std::runtime_error("checkpoint: truncated algorithm state");
  }
  const std::size_t blob_end = offset + blob_size;
  algorithm.load_state(bytes, offset);
  if (offset != blob_end) {
    throw std::runtime_error(
        "checkpoint: algorithm state size mismatch (recorded " +
        std::to_string(blob_size) + " bytes, decoder consumed " +
        std::to_string(offset - (blob_end - blob_size)) + ")");
  }

  resume.history = get_history(bytes, offset, name);
  if (offset != bytes.size()) {
    throw std::runtime_error("checkpoint: trailing bytes in " + origin);
  }
  return resume;
}

void save_federation_checkpoint(const std::filesystem::path& path,
                                Algorithm& algorithm, Federation& fed,
                                std::size_t next_round,
                                const RunHistory& history) {
  std::vector<std::byte> out =
      encode_federation_checkpoint(algorithm, fed, next_round, history);
  durable::append_footer(out);
  durable::atomic_write_file(path, out);
}

FederationResume load_federation_checkpoint(const std::filesystem::path& path,
                                            Algorithm& algorithm,
                                            Federation& fed) {
  const auto sealed = durable::read_file_bytes(path);
  const std::size_t payload =
      durable::verified_payload_size(sealed, "checkpoint " + path.string());
  return decode_federation_checkpoint(
      std::span<const std::byte>(sealed.data(), payload), algorithm, fed,
      path.string());
}

std::size_t save_federation_checkpoint(durable::GenerationChain& chain,
                                       Algorithm& algorithm, Federation& fed,
                                       std::size_t next_round,
                                       const RunHistory& history) {
  return chain.commit(
      encode_federation_checkpoint(algorithm, fed, next_round, history));
}

std::optional<ChainResume> load_federation_checkpoint(
    const durable::GenerationChain& chain, Algorithm& algorithm,
    Federation& fed) {
  const auto loaded = chain.load();
  if (!loaded) return std::nullopt;
  ChainResume out;
  out.generation = loaded->generation;
  out.fallbacks = loaded->fallbacks;
  out.manifest_recovered = loaded->manifest_recovered;
  out.resume = decode_federation_checkpoint(
      loaded->payload, algorithm, fed,
      chain.generation_path(loaded->generation).string());
  return out;
}

}  // namespace fedpkd::fl
