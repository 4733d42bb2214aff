#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fedpkd/tensor/rng.hpp"

/// Durable-state layer (DESIGN.md §15): everything the checkpoint subsystem
/// needs so a run finishes even when the host process does not.
///
///  * atomic_write_file — write to `path.tmp`, fsync, rename over `path`,
///    fsync the directory. A crash at any instant leaves either the old file
///    or the new one, never a torn mix; write/flush/close errors surface
///    their errno text instead of passing a buffered short write silently.
///  * footer — a 16-byte whole-file trailer (CRC32 over the payload, the
///    payload length, a magic) reusing comm::frame's IEEE 802.3 CRC. Every
///    durable artifact is sealed on write and verified on read, so torn
///    files and single-bit flips are detected, never decoded.
///  * GenerationChain — `stem.1`, `stem.2`, … plus a tiny last-good manifest
///    (`stem.manifest`). commit() writes the next generation atomically,
///    then flips the manifest, then prunes; load() walks generations newest
///    first past any file whose footer fails, so corrupting the newest K-1
///    generations still recovers the run from generation N-K+1... bit for bit.
///  * IoFaultPlan / IoFaultInjector — seeded, deterministic storage faults
///    (short writes, torn renames, bit flips, an ENOSPC byte budget)
///    mirroring comm::FaultInjector, so every failure mode above is testable
///    without root or a real full disk.
///  * crash points — a registry of named process-abort sites threaded
///    through the save path and the round pipeline
///    (`FEDPKD_CRASH_AT=save:pre_rename`), the deterministic "kill -9 right
///    here" the crash-at-every-point sweep is built on.

namespace fedpkd::fl::durable {

/// -- Crash-point injection ---------------------------------------------------

/// Thrown by an armed crash point in kThrow mode (in-process sweep tests).
struct CrashPointError : std::runtime_error {
  explicit CrashPointError(const std::string& point)
      : std::runtime_error("crash point fired: " + point) {}
};

/// What an armed crash point does when hit: abort the process (the real
/// crash, used by the supervised CLI sweep) or throw CrashPointError (unit
/// tests that want to observe the on-disk state afterwards).
enum class CrashAction : std::uint8_t { kAbort, kThrow };

/// Exit status of a crash-point abort — distinct from ordinary error exits
/// so the supervisor's logs can tell an injected crash from a real bug.
inline constexpr int kCrashExitStatus = 42;

/// Every crash point threaded through the codebase, for sweep enumeration.
/// arm_crash_point rejects names outside this list (a typo in FEDPKD_CRASH_AT
/// must fail loudly, not silently never fire).
const std::vector<std::string>& crash_point_names();

/// Arms one crash point from `spec`: a name from crash_point_names(),
/// optionally suffixed `@K` (1-based) to fire on the K-th hit instead of the
/// first. A fired point disarms itself, so the fault is one-shot — resume
/// after the injected crash runs clean. Throws std::invalid_argument on an
/// unknown name or a malformed ordinal.
void arm_crash_point(const std::string& spec, CrashAction action);

/// Disarms any armed crash point (idempotent).
void disarm_crash_points();

/// Whether a crash point is currently armed.
bool crash_points_armed();

/// Hits the named crash point: no-op unless armed for `name` and the hit
/// countdown reaches zero, in which case the point disarms itself and then
/// aborts (std::_Exit(kCrashExitStatus)) or throws per the armed action.
void crash_point(std::string_view name);

/// Arms from the FEDPKD_CRASH_AT environment variable in kAbort mode (the
/// supervised-process workflow). Returns whether anything was armed.
bool arm_crash_points_from_env();

/// -- Whole-file integrity footer ---------------------------------------------

/// Trailer layout (little-endian, appended after the payload):
///   u32 crc32(payload) | u64 payload_size | u32 magic 'FPKS'
inline constexpr std::size_t kFooterSize = 16;

/// Appends the integrity footer over the current contents of `payload`.
void append_footer(std::vector<std::byte>& payload);

/// Verifies the footer of a sealed buffer and returns the payload size.
/// Throws std::runtime_error naming `origin` when the buffer is shorter than
/// a footer, the magic is wrong, the recorded size disagrees with the file,
/// or the CRC does not match (torn write, truncation, bit flip).
std::size_t verified_payload_size(std::span<const std::byte> sealed,
                                  const std::string& origin);

/// -- Deterministic storage-fault injection -----------------------------------

/// A seeded, declarative storage-fault schedule, the durable-IO mirror of
/// comm::FaultPlan: independent dice streams per fault type, so enabling one
/// fault class never shifts another's sequence.
struct IoFaultPlan {
  std::uint64_t seed = 0xd15cf417ull;
  /// Per-write probability that only a prefix of the bytes reaches the tmp
  /// file before the write fails (the classic torn write).
  double short_write_probability = 0.0;
  /// Per-commit probability that the process "dies" after the tmp file is
  /// durable but before the rename (the tmp is left behind, the target
  /// untouched).
  double torn_rename_probability = 0.0;
  /// Per-write probability that one uniformly chosen bit of the written
  /// bytes is flipped (silent media corruption; the footer CRC catches it
  /// on load).
  double bit_flip_probability = 0.0;
  /// Cumulative byte budget across writes; once exhausted every further
  /// write fails like ENOSPC. 0 = unlimited.
  std::size_t enospc_after_bytes = 0;

  bool any() const {
    return short_write_probability > 0.0 || torn_rename_probability > 0.0 ||
           bit_flip_probability > 0.0 || enospc_after_bytes > 0;
  }
};

/// Owns the storage-fault dice. Install on a GenerationChain (or pass to
/// atomic_write_file directly) to make disk failures deterministic.
class IoFaultInjector {
 public:
  IoFaultInjector() = default;

  /// Installs `plan`, reseeding every dice stream. Throws
  /// std::invalid_argument on out-of-range probabilities.
  void set_plan(const IoFaultPlan& plan);
  const IoFaultPlan& plan() const { return plan_; }

  /// Rolls the short-write dice (consumes a draw only when p > 0).
  bool roll_short_write();
  /// Rolls the torn-rename dice.
  bool roll_torn_rename();
  /// Rolls the bit-flip dice and, on a hit, flips one uniformly chosen bit
  /// of `bytes` in place. Returns whether a flip happened.
  bool maybe_flip_bit(std::vector<std::byte>& bytes);
  /// Charges `nbytes` against the ENOSPC budget; false = the disk is "full".
  bool charge(std::size_t nbytes);

  std::size_t bytes_written() const { return written_; }
  /// Resets the ENOSPC accounting (the dice streams keep their positions).
  void reset_budget() { written_ = 0; }

 private:
  IoFaultPlan plan_;
  tensor::Rng short_rng_{0};
  tensor::Rng rename_rng_{0};
  tensor::Rng flip_rng_{0};
  std::size_t written_ = 0;
};

/// -- Atomic file replacement -------------------------------------------------

/// Atomically replaces `path` with `bytes`: writes `path.tmp` (O_TRUNC),
/// fsyncs it, checks close(), renames over `path`, and fsyncs the parent
/// directory. On any failure the previous `path` contents are untouched (a
/// stale `.tmp` may remain; loaders never read it). Throws std::runtime_error
/// carrying the errno text. `io`, when given, applies the injector's
/// short-write / bit-flip / ENOSPC / torn-rename faults deterministically.
void atomic_write_file(const std::filesystem::path& path,
                       std::span<const std::byte> bytes,
                       IoFaultInjector* io = nullptr);

/// Reads a whole file as bytes. Throws std::runtime_error on open failure.
std::vector<std::byte> read_file_bytes(const std::filesystem::path& path);

/// -- Generation-chained durable state ----------------------------------------

/// A chain of sealed generations `stem.1 … stem.N` plus the last-good
/// manifest `stem.manifest`. Writes are ordered so that every crash point
/// leaves a loadable chain:
///
///   commit:  write stem.N+1 atomically  →  flip manifest atomically
///            →  prune generations older than `keep`
///
/// load() prefers the manifest's generation, falls back to a directory scan
/// when the manifest itself is torn, and then walks generations downward
/// past every file whose footer fails verification.
class GenerationChain {
 public:
  explicit GenerationChain(std::filesystem::path stem, std::size_t keep = 3,
                           IoFaultInjector* io = nullptr);

  /// Seals `payload` and commits it as the next generation. Returns the new
  /// generation number. Throws std::runtime_error on I/O failure — the
  /// previous last-good generation is intact in every failure case.
  std::size_t commit(std::vector<std::byte> payload);

  struct Loaded {
    std::vector<std::byte> payload;  // verified, footer stripped
    std::size_t generation = 0;      // which stem.N this came from
    std::size_t fallbacks = 0;       // generations skipped as corrupt/torn
    bool manifest_recovered = false; // manifest was unreadable; used a scan
  };

  /// Loads the newest generation that verifies, or nullopt when no
  /// generation on disk passes the footer check.
  std::optional<Loaded> load() const;

  /// Highest generation number present on disk (manifest or scan; 0 = none).
  std::size_t latest_on_disk() const;

  std::filesystem::path generation_path(std::size_t generation) const;
  std::filesystem::path manifest_path() const;
  const std::filesystem::path& stem() const { return stem_; }
  std::size_t keep() const { return keep_; }
  void set_io(IoFaultInjector* io) { io_ = io; }

 private:
  /// The manifest's last-good generation; 0 when missing or torn.
  std::size_t manifest_generation() const;
  /// Highest stem.N found by scanning the stem's directory (0 = none).
  std::size_t scan_generations() const;

  std::filesystem::path stem_;
  std::size_t keep_;
  IoFaultInjector* io_ = nullptr;
};

}  // namespace fedpkd::fl::durable
