// Tests for the durable-state layer (DESIGN.md §15): the CRC32 whole-file
// footer catching every truncation and every single-bit flip, atomic writes
// leaving the old file intact on any failure, the generation chain falling
// back past corrupt generations and torn manifests, deterministic storage
// faults (short write / torn rename / bit flip / ENOSPC), the sealed model
// checkpoint surviving the same byte-level sweep, the crash-point registry,
// and the supervisor's retry-budget / backoff policy.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fedpkd/fl/checkpoint.hpp"
#include "fedpkd/fl/durable_io.hpp"
#include "fedpkd/fl/supervisor.hpp"
#include "fedpkd/nn/model_zoo.hpp"
#include "fedpkd/tensor/ops.hpp"

namespace fedpkd {
namespace {

namespace durable = fl::durable;

/// Unique scratch directory per test, removed on scope exit.
struct ScopedDir {
  std::filesystem::path path;
  explicit ScopedDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    out[i] = static_cast<std::byte>(s[i]);
  }
  return out;
}

void write_raw(const std::filesystem::path& path,
               const std::vector<std::byte>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// -- Footer ------------------------------------------------------------------

TEST(DurableFooter, RoundTrip) {
  std::vector<std::byte> sealed = bytes_of("prototype distillation state");
  const std::size_t payload = sealed.size();
  durable::append_footer(sealed);
  EXPECT_EQ(sealed.size(), payload + durable::kFooterSize);
  EXPECT_EQ(durable::verified_payload_size(sealed, "test"), payload);
}

TEST(DurableFooter, EmptyPayloadSealsAndVerifies) {
  std::vector<std::byte> sealed;
  durable::append_footer(sealed);
  EXPECT_EQ(durable::verified_payload_size(sealed, "test"), 0u);
}

TEST(DurableFooter, DetectsEveryTruncationLength) {
  std::vector<std::byte> sealed = bytes_of("0123456789abcdef0123456789");
  durable::append_footer(sealed);
  for (std::size_t len = 0; len < sealed.size(); ++len) {
    std::vector<std::byte> cut(sealed.begin(), sealed.begin() + len);
    EXPECT_THROW(durable::verified_payload_size(cut, "cut"),
                 std::runtime_error)
        << "truncation to " << len << " bytes passed verification";
  }
}

TEST(DurableFooter, DetectsEverySingleBitFlip) {
  std::vector<std::byte> sealed = bytes_of("federated prototype payload");
  durable::append_footer(sealed);
  for (std::size_t bit = 0; bit < 8 * sealed.size(); ++bit) {
    std::vector<std::byte> flipped = sealed;
    flipped[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    EXPECT_THROW(durable::verified_payload_size(flipped, "flip"),
                 std::runtime_error)
        << "bit " << bit << " flip passed verification";
  }
}

/// -- Atomic writes -----------------------------------------------------------

TEST(DurableAtomicWrite, WritesAndReplaces) {
  const ScopedDir dir("fedpkd_durable_atomic");
  const auto path = dir.path / "state.bin";
  durable::atomic_write_file(path, bytes_of("one"));
  EXPECT_EQ(durable::read_file_bytes(path), bytes_of("one"));
  durable::atomic_write_file(path, bytes_of("two — longer than before"));
  EXPECT_EQ(durable::read_file_bytes(path),
            bytes_of("two — longer than before"));
  // No stale tmp left behind on the happy path.
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
}

TEST(DurableAtomicWrite, ErrnoTextInOpenFailure) {
  const auto missing =
      std::filesystem::temp_directory_path() / "fedpkd_no_such_dir" / "x.bin";
  try {
    durable::atomic_write_file(missing, bytes_of("payload"));
    FAIL() << "expected atomic_write_file to throw";
  } catch (const std::runtime_error& e) {
    // The message must carry the OS reason, not just "cannot write".
    EXPECT_NE(std::string(e.what()).find("No such file"), std::string::npos)
        << e.what();
  }
}

TEST(DurableAtomicWrite, ShortWriteFaultLeavesOldFileIntact) {
  const ScopedDir dir("fedpkd_durable_short");
  const auto path = dir.path / "state.bin";
  durable::atomic_write_file(path, bytes_of("old good contents"));

  durable::IoFaultInjector io;
  durable::IoFaultPlan plan;
  plan.short_write_probability = 1.0;
  io.set_plan(plan);
  EXPECT_THROW(durable::atomic_write_file(path, bytes_of("new"), &io),
               std::runtime_error);
  EXPECT_EQ(durable::read_file_bytes(path), bytes_of("old good contents"));
}

TEST(DurableAtomicWrite, TornRenameLeavesOldFileIntact) {
  const ScopedDir dir("fedpkd_durable_torn");
  const auto path = dir.path / "state.bin";
  durable::atomic_write_file(path, bytes_of("old good contents"));

  durable::IoFaultInjector io;
  durable::IoFaultPlan plan;
  plan.torn_rename_probability = 1.0;
  io.set_plan(plan);
  EXPECT_THROW(durable::atomic_write_file(path, bytes_of("new"), &io),
               std::runtime_error);
  EXPECT_EQ(durable::read_file_bytes(path), bytes_of("old good contents"));
  // The torn rename models death after fsync(tmp): the tmp file survives.
  EXPECT_TRUE(std::filesystem::exists(path.string() + ".tmp"));
}

TEST(DurableAtomicWrite, EnospcBudgetFailsCleanly) {
  const ScopedDir dir("fedpkd_durable_enospc");
  const auto path = dir.path / "state.bin";
  durable::IoFaultInjector io;
  durable::IoFaultPlan plan;
  plan.enospc_after_bytes = 10;
  io.set_plan(plan);
  durable::atomic_write_file(path, bytes_of("12345678"), &io);  // 8 <= 10
  try {
    durable::atomic_write_file(path, bytes_of("12345678"), &io);  // 16 > 10
    FAIL() << "expected ENOSPC";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("No space left"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(durable::read_file_bytes(path), bytes_of("12345678"));
}

/// -- IoFaultInjector ---------------------------------------------------------

TEST(IoFaultInjector, RejectsOutOfRangeProbabilities) {
  durable::IoFaultInjector io;
  durable::IoFaultPlan plan;
  plan.bit_flip_probability = 1.5;
  EXPECT_THROW(io.set_plan(plan), std::invalid_argument);
  plan.bit_flip_probability = 0.0;
  plan.short_write_probability = -0.1;
  EXPECT_THROW(io.set_plan(plan), std::invalid_argument);
}

TEST(IoFaultInjector, SeededStreamsAreDeterministicAndIndependent) {
  durable::IoFaultPlan plan;
  plan.seed = 99;
  plan.short_write_probability = 0.5;
  plan.torn_rename_probability = 0.5;

  durable::IoFaultInjector a;
  a.set_plan(plan);
  std::vector<bool> shorts;
  std::vector<bool> renames;
  for (int i = 0; i < 32; ++i) {
    shorts.push_back(a.roll_short_write());
    renames.push_back(a.roll_torn_rename());
  }

  // Same seed, but the rename dice are never rolled: the short-write
  // sequence must be unchanged (independent per-fault streams).
  durable::IoFaultInjector b;
  b.set_plan(plan);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(b.roll_short_write(), shorts[static_cast<std::size_t>(i)]);
  }
  durable::IoFaultInjector c;
  c.set_plan(plan);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(c.roll_torn_rename(), renames[static_cast<std::size_t>(i)]);
    EXPECT_EQ(c.roll_short_write(), shorts[static_cast<std::size_t>(i)]);
  }
}

TEST(IoFaultInjector, BitFlipIsCaughtByFooter) {
  const ScopedDir dir("fedpkd_durable_flip");
  const auto path = dir.path / "state.bin";
  std::vector<std::byte> sealed = bytes_of("soon to be corrupted payload");
  durable::append_footer(sealed);

  durable::IoFaultInjector io;
  durable::IoFaultPlan plan;
  plan.bit_flip_probability = 1.0;
  io.set_plan(plan);
  durable::atomic_write_file(path, sealed, &io);
  const auto on_disk = durable::read_file_bytes(path);
  EXPECT_NE(on_disk, sealed);  // exactly one bit differs
  EXPECT_THROW(durable::verified_payload_size(on_disk, "flip"),
               std::runtime_error);
}

/// -- Generation chain --------------------------------------------------------

TEST(GenerationChain, CommitLoadAndPrune) {
  const ScopedDir dir("fedpkd_chain_basic");
  durable::GenerationChain chain(dir.path / "run.ckpt", 3);
  EXPECT_FALSE(chain.load().has_value());
  for (int g = 1; g <= 5; ++g) {
    EXPECT_EQ(chain.commit(bytes_of("state " + std::to_string(g))),
              static_cast<std::size_t>(g));
  }
  // keep=3: generations 3..5 remain, 1..2 pruned.
  EXPECT_FALSE(std::filesystem::exists(chain.generation_path(1)));
  EXPECT_FALSE(std::filesystem::exists(chain.generation_path(2)));
  EXPECT_TRUE(std::filesystem::exists(chain.generation_path(3)));
  const auto loaded = chain.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 5u);
  EXPECT_EQ(loaded->payload, bytes_of("state 5"));
  EXPECT_EQ(loaded->fallbacks, 0u);
  EXPECT_FALSE(loaded->manifest_recovered);
}

TEST(GenerationChain, FallsBackPastTwoCorruptGenerations) {
  const ScopedDir dir("fedpkd_chain_fallback");
  durable::GenerationChain chain(dir.path / "run.ckpt", 3);
  for (int g = 1; g <= 3; ++g) {
    chain.commit(bytes_of("state " + std::to_string(g)));
  }
  // Newest generation: flip one payload bit. Second newest: truncate.
  auto newest = durable::read_file_bytes(chain.generation_path(3));
  newest[4] ^= std::byte{0x10};
  write_raw(chain.generation_path(3), newest);
  auto second = durable::read_file_bytes(chain.generation_path(2));
  second.resize(second.size() / 2);
  write_raw(chain.generation_path(2), second);

  const auto loaded = chain.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 1u);
  EXPECT_EQ(loaded->payload, bytes_of("state 1"));
  EXPECT_EQ(loaded->fallbacks, 2u);
}

TEST(GenerationChain, NoLoadableGenerationReturnsNullopt) {
  const ScopedDir dir("fedpkd_chain_empty");
  durable::GenerationChain chain(dir.path / "run.ckpt", 2);
  chain.commit(bytes_of("only"));
  auto only = durable::read_file_bytes(chain.generation_path(1));
  only.resize(3);
  write_raw(chain.generation_path(1), only);
  EXPECT_FALSE(chain.load().has_value());
}

TEST(GenerationChain, TornManifestRecoversByScan) {
  const ScopedDir dir("fedpkd_chain_manifest");
  durable::GenerationChain chain(dir.path / "run.ckpt", 3);
  chain.commit(bytes_of("state 1"));
  chain.commit(bytes_of("state 2"));
  write_raw(chain.manifest_path(), bytes_of("to"));  // torn manifest

  const auto loaded = chain.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 2u);
  EXPECT_EQ(loaded->payload, bytes_of("state 2"));
  EXPECT_TRUE(loaded->manifest_recovered);

  // A commit after the torn manifest must not overwrite the newest good
  // generation: next generation comes from the directory scan, not the
  // (unreadable) manifest.
  EXPECT_EQ(chain.commit(bytes_of("state 3")), 3u);
  EXPECT_EQ(chain.load()->generation, 3u);
  EXPECT_EQ(durable::GenerationChain(dir.path / "run.ckpt", 3)
                .load()
                ->manifest_recovered,
            false);
}

TEST(GenerationChain, StaleManifestPrefersNewerScannedGeneration) {
  const ScopedDir dir("fedpkd_chain_stale");
  durable::GenerationChain chain(dir.path / "run.ckpt", 3);
  chain.commit(bytes_of("state 1"));
  const auto manifest_for_1 = durable::read_file_bytes(chain.manifest_path());
  chain.commit(bytes_of("state 2"));
  // Model a crash between chain:post_data and chain:post_manifest for
  // generation 2's successor: generation file present, manifest stale.
  write_raw(chain.manifest_path(), manifest_for_1);

  const auto loaded = chain.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 2u);
  EXPECT_TRUE(loaded->manifest_recovered);  // manifest disagreed with disk
  EXPECT_EQ(chain.commit(bytes_of("state 3")), 3u);
}

TEST(GenerationChain, TornRenameKeepsLastGoodLoadable) {
  const ScopedDir dir("fedpkd_chain_torn");
  durable::IoFaultInjector io;
  durable::GenerationChain chain(dir.path / "run.ckpt", 3, &io);
  chain.commit(bytes_of("good"));

  durable::IoFaultPlan plan;
  plan.torn_rename_probability = 1.0;
  io.set_plan(plan);
  EXPECT_THROW(chain.commit(bytes_of("lost")), std::runtime_error);
  io.set_plan(durable::IoFaultPlan{});

  const auto loaded = chain.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, bytes_of("good"));
}

TEST(GenerationChain, EnospcKeepsLastGoodLoadable) {
  const ScopedDir dir("fedpkd_chain_enospc");
  durable::IoFaultInjector io;
  durable::GenerationChain chain(dir.path / "run.ckpt", 3, &io);
  durable::IoFaultPlan plan;
  plan.enospc_after_bytes = 100;
  io.set_plan(plan);
  chain.commit(bytes_of("good"));  // payload + footer + manifest < 100
  EXPECT_THROW(chain.commit(bytes_of(std::string(200, 'x'))),
               std::runtime_error);
  const auto loaded = chain.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, bytes_of("good"));
}

/// -- Sealed model checkpoint (satellite: byte-level sweep) -------------------

nn::Classifier tiny_model() {
  tensor::Rng rng(17);
  return nn::make_classifier("resmlp11", 4, 3, rng);
}

TEST(ModelCheckpoint, RoundTripV2) {
  const ScopedDir dir("fedpkd_model_v2");
  const auto path = dir.path / "model.bin";
  nn::Classifier model = tiny_model();
  fl::save_checkpoint(model, path);
  nn::Classifier loaded = fl::load_checkpoint(path);
  EXPECT_EQ(loaded.arch(), model.arch());
  EXPECT_EQ(tensor::max_abs_difference(loaded.flat_weights(),
                                       model.flat_weights()),
            0.0f);
}

/// The pre-durability v1 layout carries no CRC footer, so nothing vouches
/// for its bytes: the loader refuses it rather than decode unverified weights.
TEST(ModelCheckpoint, UnsealedV1IsRejected) {
  const ScopedDir dir("fedpkd_model_v1");
  const auto path = dir.path / "model.bin";
  nn::Classifier model = tiny_model();
  fl::save_checkpoint(model, path);
  // Reconstruct the v1 layout: strip the footer, patch the version field
  // (u32 little-endian at offset 4) back to 1.
  auto bytes = durable::read_file_bytes(path);
  bytes.resize(bytes.size() - durable::kFooterSize);
  bytes[4] = std::byte{1};
  write_raw(path, bytes);
  EXPECT_THROW(fl::load_checkpoint(path), std::runtime_error);
}

/// Offsets for the byte-level model sweeps: exhaustive over the header (magic,
/// version, arch prefix) and the 16-byte footer, strided through the float
/// payload between. The footer CRC's per-bit behaviour is already swept
/// exhaustively on small buffers above; the strided middle checks the model
/// loader actually consults it across the whole file.
std::vector<std::size_t> sweep_offsets(std::size_t size, std::size_t edge,
                                       std::size_t stride) {
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < size; ++i) {
    const bool near_edge = i < edge || i + edge >= size;
    if (near_edge || i % stride == 0) offsets.push_back(i);
  }
  return offsets;
}

TEST(ModelCheckpoint, TruncationSweepRejected) {
  const ScopedDir dir("fedpkd_model_trunc");
  const auto path = dir.path / "model.bin";
  nn::Classifier model = tiny_model();
  fl::save_checkpoint(model, path);
  const auto bytes = durable::read_file_bytes(path);
  const auto cut_path = dir.path / "cut.bin";
  for (const std::size_t len : sweep_offsets(bytes.size(), 64, 509)) {
    write_raw(cut_path,
              std::vector<std::byte>(bytes.begin(), bytes.begin() + len));
    EXPECT_THROW(fl::load_checkpoint(cut_path), std::runtime_error)
        << "truncation to " << len << " bytes loaded";
  }
}

TEST(ModelCheckpoint, SingleBitFlipSweepRejected) {
  const ScopedDir dir("fedpkd_model_flip");
  const auto path = dir.path / "model.bin";
  nn::Classifier model = tiny_model();
  fl::save_checkpoint(model, path);
  const auto bytes = durable::read_file_bytes(path);
  const auto flip_path = dir.path / "flip.bin";
  // Flips land in the float payload v1 could never defend as well as in the
  // header and footer: every one must be rejected (CRC mismatch, or magic /
  // version mismatch for flips in the head fields).
  for (const std::size_t byte : sweep_offsets(bytes.size(), 32, 251)) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      auto flipped = bytes;
      flipped[byte] ^= static_cast<std::byte>(1u << bit);
      write_raw(flip_path, flipped);
      EXPECT_THROW(fl::load_checkpoint(flip_path), std::runtime_error)
          << "flip at byte " << byte << " bit " << bit << " loaded";
    }
  }
}

/// -- Crash-point registry ----------------------------------------------------

struct CrashPointGuard {
  ~CrashPointGuard() { durable::disarm_crash_points(); }
};

TEST(CrashPoints, RegistryRejectsUnknownNamesAndBadOrdinals) {
  const CrashPointGuard guard;
  EXPECT_THROW(durable::arm_crash_point("save:no_such_point",
                                        durable::CrashAction::kThrow),
               std::invalid_argument);
  EXPECT_THROW(
      durable::arm_crash_point("save:pre_rename@0",
                               durable::CrashAction::kThrow),
      std::invalid_argument);
  EXPECT_THROW(
      durable::arm_crash_point("save:pre_rename@x",
                               durable::CrashAction::kThrow),
      std::invalid_argument);
  EXPECT_FALSE(durable::crash_points_armed());
}

TEST(CrashPoints, ThrowModeFiresOnceThenDisarms) {
  const CrashPointGuard guard;
  durable::arm_crash_point("round:after_train", durable::CrashAction::kThrow);
  EXPECT_TRUE(durable::crash_points_armed());
  durable::crash_point("round:after_upload");  // different point: no-op
  EXPECT_THROW(durable::crash_point("round:after_train"),
               durable::CrashPointError);
  // One-shot: the fired point disarmed itself.
  EXPECT_FALSE(durable::crash_points_armed());
  durable::crash_point("round:after_train");  // no-throw
}

TEST(CrashPoints, OrdinalFiresOnKthHit) {
  const CrashPointGuard guard;
  durable::arm_crash_point("engine:after_flush@3",
                           durable::CrashAction::kThrow);
  durable::crash_point("engine:after_flush");
  durable::crash_point("engine:after_flush");
  EXPECT_THROW(durable::crash_point("engine:after_flush"),
               durable::CrashPointError);
}

TEST(CrashPoints, EnvArming) {
  const CrashPointGuard guard;
  ::setenv("FEDPKD_CRASH_AT", "save:pre_rename@2", 1);
  EXPECT_TRUE(durable::arm_crash_points_from_env());
  EXPECT_TRUE(durable::crash_points_armed());
  ::unsetenv("FEDPKD_CRASH_AT");
  durable::disarm_crash_points();
  EXPECT_FALSE(durable::arm_crash_points_from_env());
}

TEST(CrashPoints, AtomicWriteCrashLeavesOldFile) {
  const CrashPointGuard guard;
  const ScopedDir dir("fedpkd_crash_save");
  const auto path = dir.path / "state.bin";
  durable::atomic_write_file(path, bytes_of("old"));
  durable::arm_crash_point("save:pre_rename", durable::CrashAction::kThrow);
  EXPECT_THROW(durable::atomic_write_file(path, bytes_of("new")),
               durable::CrashPointError);
  EXPECT_EQ(durable::read_file_bytes(path), bytes_of("old"));
}

TEST(CrashPoints, ChainCrashBetweenDataAndManifestStaysLoadable) {
  const CrashPointGuard guard;
  const ScopedDir dir("fedpkd_crash_chain");
  durable::GenerationChain chain(dir.path / "run.ckpt", 3);
  chain.commit(bytes_of("state 1"));
  durable::arm_crash_point("chain:post_data", durable::CrashAction::kThrow);
  EXPECT_THROW(chain.commit(bytes_of("state 2")), durable::CrashPointError);
  // Generation 2 is durable, the manifest still points at 1: load must
  // prefer the newer scanned generation and the next commit must be 3.
  const auto loaded = chain.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 2u);
  EXPECT_EQ(loaded->payload, bytes_of("state 2"));
  EXPECT_EQ(chain.commit(bytes_of("state 3")), 3u);
}

/// -- Supervisor --------------------------------------------------------------

TEST(Supervisor, FirstAttemptSucceeds) {
  durable::SuperviseOptions options;
  const auto result =
      durable::supervise([](std::size_t) { return 0; }, options);
  EXPECT_EQ(result.exit_status, 0);
  EXPECT_EQ(result.restarts, 0u);
  EXPECT_FALSE(result.budget_exhausted);
}

TEST(Supervisor, RecoversWithDeterministicBackoff) {
  durable::SuperviseOptions options;
  options.max_restarts = 5;
  options.backoff_ms = 100;
  std::vector<std::uint64_t> sleeps;
  options.sleep_ms = [&](std::uint64_t ms) { sleeps.push_back(ms); };
  std::size_t calls = 0;
  const auto result = durable::supervise(
      [&](std::size_t attempt) {
        EXPECT_EQ(attempt, calls);
        ++calls;
        return calls < 4 ? durable::kCrashExitStatus : 0;
      },
      options);
  EXPECT_EQ(result.exit_status, 0);
  EXPECT_EQ(result.restarts, 3u);
  EXPECT_EQ(result.total_backoff_ms, 100u + 200u + 400u);
  EXPECT_EQ(sleeps, (std::vector<std::uint64_t>{100, 200, 400}));
}

TEST(Supervisor, BudgetExhaustedExitsNonzeroWithClearMessage) {
  durable::SuperviseOptions options;
  options.max_restarts = 2;
  options.backoff_ms = 0;
  std::vector<std::string> log;
  options.log = [&](const std::string& line) { log.push_back(line); };
  std::size_t calls = 0;
  const auto result = durable::supervise(
      [&](std::size_t) {
        ++calls;
        return 7;
      },
      options);
  EXPECT_EQ(result.exit_status, 7);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_EQ(result.restarts, 2u);
  EXPECT_EQ(calls, 3u);  // initial attempt + 2 restarts
  ASSERT_FALSE(log.empty());
  EXPECT_NE(log.back().find("exhausted"), std::string::npos) << log.back();
  EXPECT_NE(log.back().find("status 7"), std::string::npos) << log.back();
}

TEST(Supervisor, BackoffSaturatesInsteadOfOverflowing) {
  durable::SuperviseOptions options;
  options.backoff_ms = 1ull << 60;
  const std::uint64_t late = durable::restart_backoff_ms(options, 40);
  EXPECT_GE(late, options.backoff_ms);
  EXPECT_EQ(durable::restart_backoff_ms(options, 41), late);
  options.backoff_ms = 0;
  EXPECT_EQ(durable::restart_backoff_ms(options, 5), 0u);
}

}  // namespace
}  // namespace fedpkd
