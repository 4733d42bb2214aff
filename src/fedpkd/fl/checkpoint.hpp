#pragma once

#include <cstddef>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fedpkd/fl/durable_io.hpp"
#include "fedpkd/fl/federation.hpp"
#include "fedpkd/fl/metrics.hpp"
#include "fedpkd/nn/classifier.hpp"

namespace fedpkd::fl {

/// Model and run-history persistence.
///
/// Checkpoints let a long federated run resume after interruption and let
/// downstream users ship trained server models. The format reuses the wire
/// tensor codec, prefixed with the architecture and dimensions so loading
/// can rebuild the exact network before restoring weights:
///
///   u32 magic 'FPKC' | u32 version | arch string | u64 input_dim |
///   u64 num_classes | tensor(flat weights)
///
/// All files written here go through durable::atomic_write_file (tmp + fsync
/// + rename — a crash mid-save never replaces the old good file with a torn
/// one) and, for the binary formats, carry durable's CRC32 whole-file footer
/// so truncation and bit corruption are detected at load instead of decoded
/// into garbage weights. Model checkpoints are v2, the first sealed version;
/// load_checkpoint rejects anything else.
///
/// History export writes the per-round metrics as CSV for plotting.

/// Writes `model` to `path`. Throws std::runtime_error on I/O failure.
void save_checkpoint(nn::Classifier& model, const std::filesystem::path& path);

/// Rebuilds the model recorded at `path` (architecture looked up in the
/// model zoo) and restores its weights. Throws std::runtime_error on
/// malformed files and std::invalid_argument on unknown architectures.
nn::Classifier load_checkpoint(const std::filesystem::path& path);

/// Writes a RunHistory as CSV with the columns
/// round,server_accuracy,mean_client_accuracy,cumulative_bytes,
/// anomaly_excluded,anomaly,sim_ms,flushes,agg_uploads,stale_max
/// (server_accuracy empty for algorithms without a server model; the anomaly
/// column semicolon-joins per-client records as node:score:excluded|kept;
/// the four event-engine cells are empty for a round without engine stats).
void export_history_csv(const RunHistory& history,
                        const std::filesystem::path& path);

/// Parses a CSV produced by export_history_csv back into a RunHistory
/// (algorithm name is taken from the `algorithm` argument since CSV does not
/// carry it). Only export_history_csv's ten-column header is accepted.
/// Throws std::runtime_error on malformed input, including non-numeric or
/// non-finite accuracy cells.
RunHistory import_history_csv(const std::filesystem::path& path,
                              std::string algorithm);

/// -- Federation crash-resume checkpoints (format v3, magic 'FPKR') ----------
///
/// A federation checkpoint captures everything a resumed run needs to
/// continue bitwise-identically from round `next_round`: the federation RNG,
/// the participation sampler, the fault injector's dice streams / offline set
/// / crash cursor, the attack injector's free-rider replay cache, the
/// adaptive weight-norm history, the traffic meter log, every client's RNG
/// stream and model weights, the algorithm's cross-round state (via
/// Algorithm::save_state), and the per-round history executed so far.
///
/// Run *configuration* — datasets, partition, the FaultPlan, the AttackPlan —
/// is deliberately not stored: resume rebuilds the identical federation and
/// algorithm from the same configuration (build_federation is deterministic
/// under the seed, set_fault_plan / set_attack_plan under the plans' seeds),
/// then this restores the mutable state on top.

/// What load_federation_checkpoint hands back to the resuming caller.
struct FederationResume {
  /// First round the resumed run must execute (pass as RunOptions::start_round).
  std::size_t next_round = 0;
  /// Rounds executed by the interrupted run up to the checkpoint.
  RunHistory history;
};

/// Serializes the full federation checkpoint payload (unsealed — no footer).
/// This is the canonical byte image of a run's state: two runs whose encoded
/// checkpoints are byte-identical are in bitwise-identical states, which is
/// what the crash-at-every-point sweep compares. Throws std::invalid_argument
/// when the algorithm does not support resume.
std::vector<std::byte> encode_federation_checkpoint(Algorithm& algorithm,
                                                    Federation& fed,
                                                    std::size_t next_round,
                                                    const RunHistory& history);

/// Restores a checkpoint payload produced by encode_federation_checkpoint
/// into an identically-configured federation + algorithm pair. `origin`
/// names the source in error messages. Throws std::runtime_error on
/// malformed payloads or a checkpoint recorded for a different algorithm /
/// client count.
FederationResume decode_federation_checkpoint(std::span<const std::byte> payload,
                                              Algorithm& algorithm,
                                              Federation& fed,
                                              const std::string& origin);

/// Writes a federation checkpoint: encoded payload, sealed with the CRC32
/// footer, replaced atomically. Throws std::invalid_argument when the
/// algorithm does not support resume, std::runtime_error on I/O failure.
void save_federation_checkpoint(const std::filesystem::path& path,
                                Algorithm& algorithm, Federation& fed,
                                std::size_t next_round,
                                const RunHistory& history);

/// Restores a federation checkpoint into an identically-configured
/// federation + algorithm pair. Throws std::runtime_error on malformed,
/// torn, or bit-corrupted files (footer verification) or a checkpoint
/// recorded for a different algorithm / client count.
FederationResume load_federation_checkpoint(const std::filesystem::path& path,
                                            Algorithm& algorithm,
                                            Federation& fed);

/// Commits a federation checkpoint as the next generation of `chain`
/// (see durable::GenerationChain: atomic data write, then manifest flip,
/// then prune). Returns the committed generation number.
std::size_t save_federation_checkpoint(durable::GenerationChain& chain,
                                       Algorithm& algorithm, Federation& fed,
                                       std::size_t next_round,
                                       const RunHistory& history);

/// A chain load: the resume state plus where in the chain it came from.
struct ChainResume {
  FederationResume resume;
  std::size_t generation = 0;      // stem.N the state was loaded from
  std::size_t fallbacks = 0;       // corrupt/torn generations skipped
  bool manifest_recovered = false; // manifest was torn; recovered by scan
};

/// Loads the newest generation of `chain` that passes footer verification,
/// falling back generation-by-generation past torn or bit-flipped files.
/// Returns nullopt when the chain holds no loadable generation. A generation
/// that verifies but decodes to a mismatched configuration still throws —
/// that is a config error, not storage corruption.
std::optional<ChainResume> load_federation_checkpoint(
    const durable::GenerationChain& chain, Algorithm& algorithm,
    Federation& fed);

}  // namespace fedpkd::fl
