// Tests for the communication substrate: payload codecs (including
// adversarial header flips and truncation sweeps), traffic meter, the
// simulated channel, CRC32 framing, the fault injector, the reliable
// transport, and inbound bundle validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "fedpkd/comm/channel.hpp"
#include "fedpkd/comm/fault.hpp"
#include "fedpkd/comm/frame.hpp"
#include "fedpkd/comm/meter.hpp"
#include "fedpkd/comm/payload.hpp"
#include "fedpkd/comm/validate.hpp"
#include "fedpkd/tensor/ops.hpp"

namespace fedpkd::comm {
namespace {

using tensor::Rng;
using tensor::Tensor;

// ---------------------------------------------------------------- Payload ---

TEST(Payload, WeightsRoundTrip) {
  Rng rng(1);
  WeightsPayload payload{Tensor::randn({137}, rng)};
  const auto bytes = encode(payload);
  EXPECT_EQ(peek_kind(bytes), PayloadKind::kWeights);
  const WeightsPayload back = decode_weights(bytes);
  EXPECT_EQ(tensor::max_abs_difference(back.flat, payload.flat), 0.0f);
}

TEST(Payload, LogitsRoundTripWithSampleIds) {
  Rng rng(2);
  LogitsPayload payload{{5, 9, 42}, Tensor::randn({3, 10}, rng)};
  const auto bytes = encode(payload);
  EXPECT_EQ(peek_kind(bytes), PayloadKind::kLogits);
  const LogitsPayload back = decode_logits(bytes);
  EXPECT_EQ(back.sample_ids, payload.sample_ids);
  EXPECT_EQ(tensor::max_abs_difference(back.logits, payload.logits), 0.0f);
}

TEST(Payload, LogitsEncodeRejectsMismatch) {
  LogitsPayload bad{{1, 2}, Tensor::zeros({3, 4})};
  EXPECT_THROW(encode(bad), std::invalid_argument);
}

TEST(Payload, PrototypesRoundTrip) {
  Rng rng(3);
  PrototypesPayload payload;
  payload.entries.push_back({2, 17, Tensor::randn({8}, rng)});
  payload.entries.push_back({7, 3, Tensor::randn({8}, rng)});
  const auto bytes = encode(payload);
  EXPECT_EQ(peek_kind(bytes), PayloadKind::kPrototypes);
  const PrototypesPayload back = decode_prototypes(bytes);
  ASSERT_EQ(back.entries.size(), 2u);
  EXPECT_EQ(back.entries[0].class_id, 2);
  EXPECT_EQ(back.entries[0].support, 17u);
  EXPECT_EQ(back.entries[1].class_id, 7);
  EXPECT_EQ(tensor::max_abs_difference(back.entries[1].centroid,
                                       payload.entries[1].centroid),
            0.0f);
}

TEST(Payload, PrototypesEncodeRejectsNonVectorCentroid) {
  PrototypesPayload bad;
  bad.entries.push_back({0, 1, Tensor::zeros({2, 2})});
  EXPECT_THROW(encode(bad), std::invalid_argument);
}

TEST(Payload, DecodeKindMismatchThrows) {
  const auto bytes = encode(WeightsPayload{Tensor::zeros({4})});
  EXPECT_THROW(decode_logits(bytes), std::runtime_error);
  EXPECT_THROW(decode_prototypes(bytes), std::runtime_error);
}

TEST(Payload, DecodeMalformedThrows) {
  std::vector<std::byte> empty;
  EXPECT_THROW(peek_kind(empty), std::runtime_error);
  std::vector<std::byte> junk{std::byte{99}};
  EXPECT_THROW(peek_kind(junk), std::runtime_error);
  auto bytes = encode(WeightsPayload{Tensor::zeros({4})});
  bytes.pop_back();
  EXPECT_THROW(decode_weights(bytes), std::runtime_error);
  bytes.push_back(std::byte{0});
  bytes.push_back(std::byte{0});
  EXPECT_THROW(decode_weights(bytes), std::runtime_error);
}

TEST(Payload, FuzzRandomBytesNeverCrash) {
  // Decoders must reject arbitrary garbage with exceptions, never UB. Run a
  // few hundred random buffers of assorted sizes through every decoder.
  Rng fuzz_rng(0xf022);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t len = fuzz_rng.uniform_index(200);
    std::vector<std::byte> bytes(len);
    for (auto& b : bytes) {
      b = static_cast<std::byte>(fuzz_rng.uniform_index(256));
    }
    try {
      (void)decode_weights(bytes);
    } catch (const std::exception&) {
    }
    try {
      (void)decode_logits(bytes);
    } catch (const std::exception&) {
    }
    try {
      (void)decode_prototypes(bytes);
    } catch (const std::exception&) {
    }
  }
  SUCCEED();
}

TEST(Payload, FuzzTruncationsOfValidPayloadAlwaysThrow) {
  Rng rng(77);
  LogitsPayload payload{{1, 2, 3}, Tensor::randn({3, 4}, rng)};
  const auto bytes = encode(payload);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::span<const std::byte> truncated(bytes.data(), cut);
    EXPECT_THROW((void)decode_logits(truncated), std::runtime_error)
        << "cut=" << cut;
  }
}

TEST(Payload, FuzzBitFlipsEitherThrowOrPreserveStructure) {
  Rng rng(78);
  PrototypesPayload payload;
  payload.entries.push_back({1, 4, Tensor::randn({6}, rng)});
  const auto bytes = encode(payload);
  Rng flip_rng(79);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = bytes;
    const std::size_t pos = flip_rng.uniform_index(corrupted.size());
    corrupted[pos] ^= static_cast<std::byte>(
        1u << flip_rng.uniform_index(8));
    try {
      const PrototypesPayload back = decode_prototypes(corrupted);
      // If it decoded, the structural invariants must still hold.
      for (const auto& e : back.entries) {
        EXPECT_EQ(e.centroid.rank(), 1u);
      }
    } catch (const std::exception&) {
      // Rejection is the expected common case.
    }
  }
  SUCCEED();
}

TEST(Payload, LogitsWireSizeScalesWithSamples) {
  // The linear relationship behind Fig. 3: bytes ~= 4 * n * classes.
  Rng rng(4);
  const std::size_t classes = 10;
  std::size_t previous = 0;
  for (std::size_t n : {100u, 200u, 400u}) {
    std::vector<std::uint32_t> ids(n);
    for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<std::uint32_t>(i);
    const auto bytes = encode(
        LogitsPayload{ids, Tensor::randn({n, classes}, rng)});
    EXPECT_GT(bytes.size(), previous);
    // Dominant term: 4 bytes per logit + 4 per sample id.
    EXPECT_NEAR(static_cast<double>(bytes.size()),
                4.0 * n * classes + 4.0 * n, 64.0);
    previous = bytes.size();
  }
}

// ------------------------------------------------------------------ Meter ---

TEST(Meter, TotalsByDirectionKindRoundClient) {
  Meter meter;
  meter.begin_round(0);
  meter.record({0, 0, kServerId, PayloadKind::kLogits, 100});
  meter.record({0, kServerId, 0, PayloadKind::kWeights, 50});
  meter.begin_round(1);
  meter.record({1, 1, kServerId, PayloadKind::kPrototypes, 7});

  EXPECT_EQ(meter.total(), 157u);
  EXPECT_EQ(meter.total_uplink(), 107u);
  EXPECT_EQ(meter.total_downlink(), 50u);
  EXPECT_EQ(meter.total_for_kind(PayloadKind::kLogits), 100u);
  EXPECT_EQ(meter.total_for_kind(PayloadKind::kWeights), 50u);
  EXPECT_EQ(meter.total_for_client(0), 150u);
  EXPECT_EQ(meter.total_for_client(1), 7u);
  EXPECT_EQ(meter.total_for_round(0), 150u);
  EXPECT_EQ(meter.total_for_round(1), 7u);
  EXPECT_DOUBLE_EQ(meter.mean_per_client(2), 78.5);
}

TEST(Meter, ClearResets) {
  Meter meter;
  meter.record({0, 0, kServerId, PayloadKind::kLogits, 10});
  meter.clear();
  EXPECT_EQ(meter.total(), 0u);
  EXPECT_TRUE(meter.records().empty());
}

TEST(Meter, MbFormatting) {
  EXPECT_EQ(Meter::to_mb(1024 * 1024), "1.00");
  EXPECT_EQ(Meter::to_mb(1536 * 1024), "1.50");
  EXPECT_DOUBLE_EQ(Meter::bytes_to_mb(0), 0.0);
}

// ---------------------------------------------------------------- Channel ---

TEST(Channel, SendChargesExactSerializedBytes) {
  Meter meter;
  Channel channel(meter);
  Rng rng(5);
  const WeightsPayload payload{Tensor::randn({64}, rng)};
  const auto expected = encode(payload).size();
  auto wire = channel.send(3, kServerId, payload);
  ASSERT_TRUE(wire.has_value());
  EXPECT_EQ(wire->size(), expected);
  EXPECT_EQ(meter.total(), expected);
  ASSERT_EQ(meter.records().size(), 1u);
  EXPECT_EQ(meter.records()[0].from, 3);
  EXPECT_EQ(meter.records()[0].to, kServerId);
  EXPECT_EQ(meter.records()[0].kind, PayloadKind::kWeights);
}

TEST(Channel, RoundStampsRecords) {
  Meter meter;
  Channel channel(meter);
  meter.begin_round(4);
  channel.send(0, kServerId, WeightsPayload{Tensor::zeros({2})});
  EXPECT_EQ(meter.records()[0].round, 4u);
}

TEST(Channel, ReceiverDecodesWhatSenderEncoded) {
  Meter meter;
  Channel channel(meter);
  Rng rng(6);
  LogitsPayload payload{{1, 2}, Tensor::randn({2, 3}, rng)};
  auto wire = channel.send(0, kServerId, payload);
  ASSERT_TRUE(wire.has_value());
  const LogitsPayload back = decode_logits(*wire);
  EXPECT_EQ(back.sample_ids, payload.sample_ids);
}

TEST(Channel, DropProbabilityOneDropsEverythingUncharged) {
  Meter meter;
  Channel channel(meter);
  channel.set_drop_probability(1.0, Rng(7));
  for (int i = 0; i < 10; ++i) {
    auto wire = channel.send(0, kServerId, WeightsPayload{Tensor::zeros({4})});
    EXPECT_FALSE(wire.has_value());
  }
  EXPECT_EQ(meter.total(), 0u);
}

TEST(Channel, DropProbabilityHalfDropsAboutHalf) {
  Meter meter;
  Channel channel(meter);
  channel.set_drop_probability(0.5, Rng(8));
  int delivered = 0;
  for (int i = 0; i < 500; ++i) {
    if (channel.send(0, kServerId, WeightsPayload{Tensor::zeros({1})})) {
      ++delivered;
    }
  }
  EXPECT_NEAR(delivered, 250, 60);
}

TEST(Channel, DropProbabilityValidation) {
  Meter meter;
  Channel channel(meter);
  EXPECT_THROW(channel.set_drop_probability(-0.1, Rng(9)),
               std::invalid_argument);
  EXPECT_THROW(channel.set_drop_probability(1.1, Rng(9)),
               std::invalid_argument);
}

// ----------------------------------------------- adversarial decode input ---

/// Overwrites the little-endian u32 at `at` — forges one header field of an
/// otherwise valid wire buffer.
std::vector<std::byte> patched(std::vector<std::byte> bytes, std::size_t at,
                               std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<std::byte>((value >> (8 * i)) & 0xff);
  }
  return bytes;
}

TEST(Payload, KindTagFlipsAreRejectedWithTypedError) {
  const auto weights = encode(WeightsPayload{Tensor::zeros({3})});
  for (int tag : {0, 2, 3, 4, 0x7f, 0xff}) {
    auto bad = weights;
    bad[0] = static_cast<std::byte>(tag);
    EXPECT_THROW(decode_weights(bad), tensor::DecodeError) << "tag " << tag;
  }
}

TEST(Payload, TensorHeaderFieldFlipsAreRejected) {
  // Weights wire layout: [0]=kind, [1..4]=tensor magic, [5]=rank,
  // [6..13]=dim0 as u64.
  const auto weights = encode(WeightsPayload{Tensor::zeros({3})});

  auto bad_magic = weights;
  bad_magic[1] ^= std::byte{0x01};
  EXPECT_THROW(decode_weights(bad_magic), tensor::DecodeError);

  auto bad_rank = weights;
  bad_rank[5] = std::byte{9};  // kMaxRank is 8
  EXPECT_THROW(decode_weights(bad_rank), tensor::DecodeError);

  // A forged dimension must fail the pre-allocation bound check, whether it
  // stays within u32 (too big for the buffer) or exceeds the 2^32 dim cap.
  EXPECT_THROW(decode_weights(patched(weights, 6, 0xffffffffu)),
               tensor::DecodeError);
  EXPECT_THROW(decode_weights(patched(weights, 10, 0x2u)),
               tensor::DecodeError);
}

TEST(Payload, ForgedCountFieldsFailBeforeAllocation) {
  Rng rng(41);
  const auto logits = encode(LogitsPayload{{1, 2, 3}, Tensor::randn({3, 4}, rng)});
  // [0]=kind, [1..4]=sample count.
  EXPECT_THROW(decode_logits(patched(logits, 1, 0xffffffffu)),
               tensor::DecodeError);
  EXPECT_THROW(decode_logits(patched(logits, 1, 4u)), tensor::DecodeError);

  PrototypesPayload protos;
  protos.entries.push_back({0, 1, Tensor::zeros({4})});
  const auto wire = encode(protos);
  EXPECT_THROW(decode_prototypes(patched(wire, 1, 0x7fffffffu)),
               tensor::DecodeError);
}

TEST(Payload, TruncationAtEveryBoundaryThrowsTypedError) {
  Rng rng(42);
  PrototypesPayload protos;
  protos.entries.push_back({1, 2, Tensor::randn({4}, rng)});
  const std::vector<std::vector<std::byte>> wires = {
      encode(WeightsPayload{Tensor::randn({5}, rng)}),
      encode(LogitsPayload{{7, 8}, Tensor::randn({2, 3}, rng)}),
      encode(protos),
  };
  for (const auto& wire : wires) {
    const PayloadKind kind = peek_kind(wire);
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      const std::span<const std::byte> prefix(wire.data(), cut);
      switch (kind) {
        case PayloadKind::kWeights:
          EXPECT_THROW(decode_weights(prefix), tensor::DecodeError)
              << "cut " << cut;
          break;
        case PayloadKind::kLogits:
          EXPECT_THROW(decode_logits(prefix), tensor::DecodeError)
              << "cut " << cut;
          break;
        case PayloadKind::kPrototypes:
          EXPECT_THROW(decode_prototypes(prefix), tensor::DecodeError)
              << "cut " << cut;
          break;
      }
    }
    // Trailing garbage is as malformed as missing bytes.
    auto padded = wire;
    padded.push_back(std::byte{0});
    switch (kind) {
      case PayloadKind::kWeights:
        EXPECT_THROW(decode_weights(padded), tensor::DecodeError);
        break;
      case PayloadKind::kLogits:
        EXPECT_THROW(decode_logits(padded), tensor::DecodeError);
        break;
      case PayloadKind::kPrototypes:
        EXPECT_THROW(decode_prototypes(padded), tensor::DecodeError);
        break;
    }
  }
}

// ------------------------------------------------------------------ Frame ---

TEST(Frame, Crc32MatchesIeee8023CheckValue) {
  // The canonical CRC-32 check value: crc32("123456789") == 0xCBF43926.
  std::vector<std::byte> bytes;
  for (char c : std::string("123456789")) {
    bytes.push_back(static_cast<std::byte>(c));
  }
  EXPECT_EQ(crc32(bytes), 0xcbf43926u);
  EXPECT_EQ(crc32_portable(bytes), 0xcbf43926u);
  EXPECT_EQ(crc32_naive(bytes), 0xcbf43926u);
  EXPECT_EQ(crc32({}), 0u);
  EXPECT_EQ(crc32_portable({}), 0u);
  EXPECT_EQ(crc32_naive({}), 0u);
}

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> bytes(n);
  for (std::byte& b : bytes) b = static_cast<std::byte>(rng.uniform_index(256));
  return bytes;
}

TEST(Frame, Crc32TiersMatchNaiveAtEveryLengthAndAlignment) {
  // Every length up to 4096 from 16 misaligned starts: covers the fold's
  // 64-byte minimum, its 16-byte tail blocks, and the slice-by-16 tail.
  const std::vector<std::byte> buffer = random_bytes(4096 + 16, 7);
  for (std::size_t start = 0; start < 16; ++start) {
    for (std::size_t n = 0; n <= 4096; ++n) {
      const auto bytes = std::span(buffer).subspan(start, n);
      const std::uint32_t want = crc32_naive(bytes);
      ASSERT_EQ(crc32(bytes), want) << "start " << start << " length " << n;
      ASSERT_EQ(crc32_portable(bytes), want)
          << "start " << start << " length " << n;
    }
  }
}

TEST(Frame, Crc32TiersMatchNaiveOnLargeRandomBuffers) {
  // 1.5 MB is one durable generation; odd lengths leave a tail.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::vector<std::byte> buffer =
        random_bytes((3u << 19) + 2 * seed + 1, seed);
    const std::uint32_t want = crc32_naive(buffer);
    EXPECT_EQ(crc32(buffer), want) << seed;
    EXPECT_EQ(crc32_portable(buffer), want) << seed;
  }
}

/// A sealed frame around `payload`: the header reserved in front, then
/// seal_frame — the layout sealed_frame builds from a typed payload.
std::vector<std::byte> seal_bytes(const std::vector<std::byte>& payload) {
  std::vector<std::byte> frame(kFrameOverhead + payload.size());
  std::copy(payload.begin(), payload.end(), frame.begin() + kFrameOverhead);
  seal_frame(frame);
  return frame;
}

TEST(Frame, RoundTripPreservesPayloadWithFixedOverhead) {
  Rng rng(43);
  const WeightsPayload typed{Tensor::randn({17}, rng)};
  const auto payload = encode(typed);
  const auto frame = sealed_frame(typed);
  EXPECT_EQ(frame.size(), payload.size() + kFrameOverhead);
  EXPECT_EQ(frame, seal_bytes(payload));
  const auto back = open_frame(frame);
  ASSERT_TRUE(back.has_value());
  // Verified in place: the payload is a view into the frame, not a copy.
  EXPECT_EQ(back->data(), frame.data() + kFrameOverhead);
  EXPECT_TRUE(std::ranges::equal(*back, payload));
  std::vector<std::byte> short_frame(kFrameOverhead - 1);
  EXPECT_THROW(seal_frame(short_frame), std::invalid_argument);
}

TEST(Frame, EverySingleBitFlipIsDetected) {
  std::vector<std::byte> payload;
  for (int i = 0; i < 13; ++i) payload.push_back(static_cast<std::byte>(i * 7));
  const auto frame = seal_bytes(payload);
  ASSERT_TRUE(open_frame(frame).has_value());
  for (std::size_t bit = 0; bit < 8 * frame.size(); ++bit) {
    auto tampered = frame;
    tampered[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    EXPECT_FALSE(open_frame(tampered).has_value()) << "bit " << bit;
  }
}

TEST(Frame, RejectsTruncatedBuffers) {
  const auto frame = seal_bytes(std::vector<std::byte>(4, std::byte{0x5a}));
  ASSERT_TRUE(open_frame(frame).has_value());
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_FALSE(open_frame(std::span(frame).first(cut)).has_value())
        << "cut " << cut;
  }
  // Unframed bytes (wrong magic) are not a frame either.
  EXPECT_FALSE(
      open_frame(std::vector<std::byte>(32, std::byte{0})).has_value());
}

// ---------------------------------------------------------- FaultInjector ---

TEST(FaultInjector, PlanValidationRejectsOutOfRangeKnobs) {
  FaultInjector injector;
  FaultPlan plan;
  plan.drop_probability = 1.5;
  EXPECT_THROW(injector.set_plan(plan), std::invalid_argument);
  plan = {};
  plan.corrupt_probability = -0.2;
  EXPECT_THROW(injector.set_plan(plan), std::invalid_argument);
  plan = {};
  plan.latency_ms = -1.0;
  EXPECT_THROW(injector.set_plan(plan), std::invalid_argument);
  plan = {};
  plan.stragglers = {{0, 0.5}};  // a factor below 1 would be a speed-up
  EXPECT_THROW(injector.set_plan(plan), std::invalid_argument);
}

TEST(FaultInjector, OfflineSetIsSortedUniqueAndReversible) {
  FaultInjector injector;
  injector.set_node_offline(5, true);
  injector.set_node_offline(1, true);
  injector.set_node_offline(3, true);
  injector.set_node_offline(3, true);  // idempotent
  EXPECT_EQ(injector.offline_nodes(), (std::vector<NodeId>{1, 3, 5}));
  EXPECT_TRUE(injector.is_node_offline(3));
  EXPECT_FALSE(injector.is_node_offline(2));
  injector.set_node_offline(3, false);
  injector.set_node_offline(3, false);  // idempotent
  EXPECT_EQ(injector.offline_nodes(), (std::vector<NodeId>{1, 5}));
  EXPECT_FALSE(injector.is_node_offline(3));
}

TEST(FaultInjector, FaultTypeStreamsAreIndependent) {
  // Enabling corruption must not shift the drop sequence: the injector
  // derives one stream per fault type from the seed.
  FaultPlan drop_only;
  drop_only.seed = 11;
  drop_only.drop_probability = 0.3;
  FaultPlan both = drop_only;
  both.corrupt_probability = 0.5;
  FaultInjector a;
  a.set_plan(drop_only);
  FaultInjector b;
  b.set_plan(both);
  for (int i = 0; i < 128; ++i) {
    b.roll_corruption(16);  // burns corruption dice on b only
    EXPECT_EQ(a.roll_drop(), b.roll_drop()) << i;
  }
}

TEST(FaultInjector, StragglerFactorScalesLinkLatency) {
  FaultPlan plan;
  plan.latency_ms = 10.0;
  plan.stragglers = {{2, 4.0}};
  FaultInjector injector;
  injector.set_plan(plan);
  EXPECT_DOUBLE_EQ(injector.straggler_factor(2), 4.0);
  EXPECT_DOUBLE_EQ(injector.straggler_factor(1), 1.0);
  // The link factor is the max over its endpoints; the server's own is 1.
  EXPECT_DOUBLE_EQ(injector.draw_latency_ms(2, kServerId), 40.0);
  EXPECT_DOUBLE_EQ(injector.draw_latency_ms(kServerId, 2), 40.0);
  EXPECT_DOUBLE_EQ(injector.draw_latency_ms(kServerId, 1), 10.0);
}

TEST(FaultInjector, AdvanceFiresScriptedCrashesInStageOrder) {
  FaultPlan plan;
  plan.crashes = {{2, RoundStage::kBroadcast, 1},
                  {1, RoundStage::kUpload, 0},
                  {1, RoundStage::kUpload, 2}};
  FaultInjector injector;
  injector.set_plan(plan);
  EXPECT_EQ(injector.advance(0, RoundStage::kDownload), 0u);
  EXPECT_TRUE(injector.offline_nodes().empty());
  EXPECT_EQ(injector.advance(1, RoundStage::kBroadcast), 0u);
  EXPECT_EQ(injector.advance(1, RoundStage::kUpload), 2u);
  EXPECT_EQ(injector.offline_nodes(), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(injector.advance(1, RoundStage::kDownload), 0u);
  EXPECT_EQ(injector.advance(2, RoundStage::kBroadcast), 1u);
  EXPECT_TRUE(injector.is_node_offline(1));
  EXPECT_EQ(injector.crash_cursor(), 3u);
}

TEST(FaultInjector, SaveLoadStateReplaysIdenticalDice) {
  FaultPlan plan;
  plan.seed = 77;
  plan.drop_probability = 0.4;
  plan.corrupt_probability = 0.3;
  plan.latency_ms = 1.0;
  plan.jitter_ms = 2.0;
  plan.crashes = {{0, RoundStage::kUpload, 1}, {5, RoundStage::kUpload, 2}};
  FaultInjector a;
  a.set_plan(plan);
  // Burn some state: dice draws, one fired crash, one manual blackout.
  for (int i = 0; i < 17; ++i) {
    a.roll_drop();
    a.roll_corruption(8);
    a.draw_latency_ms(0, kServerId);
  }
  a.advance(0, RoundStage::kUpload);
  a.set_node_offline(3, true);

  std::vector<std::byte> blob;
  a.save_state(blob);
  FaultInjector b;
  b.set_plan(plan);  // resume re-applies the same run configuration
  std::size_t offset = 0;
  b.load_state(blob, offset);
  EXPECT_EQ(offset, blob.size());

  EXPECT_EQ(b.offline_nodes(), a.offline_nodes());
  EXPECT_EQ(b.crash_cursor(), a.crash_cursor());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.roll_drop(), b.roll_drop()) << i;
    EXPECT_EQ(a.roll_corruption(8), b.roll_corruption(8)) << i;
    EXPECT_DOUBLE_EQ(a.draw_latency_ms(1, kServerId),
                     b.draw_latency_ms(1, kServerId))
        << i;
  }
  // A crash that fired before the checkpoint must not fire again on resume.
  EXPECT_EQ(b.advance(0, RoundStage::kDownload), 0u);
}

// ----------------------------------------------------- reliable transport ---

TEST(Channel, SendReliableDeliversEncodedPayloadAndChargesFrame) {
  Meter meter;
  Channel channel(meter);
  Rng rng(50);
  const WeightsPayload payload{Tensor::randn({9}, rng)};
  const SendReport report = channel.send_reliable(3, kServerId, payload);
  ASSERT_TRUE(report.delivered());
  EXPECT_EQ(*report.payload, encode(payload));
  EXPECT_EQ(report.attempts, 1u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.drops, 0u);
  EXPECT_EQ(report.corrupt_detected, 0u);
  // The frame is charged with the *payload's* kind, overhead included.
  EXPECT_EQ(meter.total(), encode(payload).size() + kFrameOverhead);
  EXPECT_EQ(meter.total_for_kind(PayloadKind::kWeights), meter.total());
}

TEST(Channel, SendReliableExhaustsBudgetUnderTotalLossUncharged) {
  Meter meter;
  Channel channel(meter);
  FaultPlan plan;
  plan.drop_probability = 1.0;
  plan.max_retries = 3;
  channel.set_fault_plan(plan);
  const SendReport report =
      channel.send_reliable(0, kServerId, WeightsPayload{Tensor::zeros({4})});
  EXPECT_FALSE(report.delivered());
  EXPECT_EQ(report.attempts, 4u);  // budget = max_retries + 1
  EXPECT_EQ(report.drops, 4u);
  EXPECT_EQ(report.retries, 3u);
  EXPECT_EQ(meter.total(), 0u);  // dropped attempts are never charged
}

TEST(Channel, SendReliableDetectsCorruptionAndChargesEveryCrossing) {
  Meter meter;
  Channel channel(meter);
  FaultPlan plan;
  plan.corrupt_probability = 1.0;
  plan.max_retries = 2;
  channel.set_fault_plan(plan);
  const WeightsPayload payload{Tensor::zeros({6})};
  const SendReport report = channel.send_reliable(1, kServerId, payload);
  EXPECT_FALSE(report.delivered());
  EXPECT_EQ(report.attempts, 3u);
  EXPECT_EQ(report.corrupt_detected, 3u);  // CRC caught every flip
  EXPECT_EQ(report.drops, 0u);
  // Corrupted frames *did* cross the wire: each attempt is charged.
  EXPECT_EQ(meter.total(), 3 * (encode(payload).size() + kFrameOverhead));
}

TEST(Channel, SendReliableRecoversFromIntermittentFaults) {
  Meter meter;
  Channel channel(meter);
  FaultPlan plan;
  plan.seed = 123;
  plan.drop_probability = 0.5;
  plan.corrupt_probability = 0.2;
  plan.max_retries = 8;
  channel.set_fault_plan(plan);
  Rng rng(51);
  const WeightsPayload payload{Tensor::randn({33}, rng)};
  int delivered = 0;
  for (int i = 0; i < 50; ++i) {
    const SendReport report = channel.send_reliable(0, kServerId, payload);
    if (report.delivered()) {
      ++delivered;
      // Whatever survived the lossy link is bit-identical to what was sent.
      EXPECT_EQ(*report.payload, encode(payload));
    }
  }
  // P(9 consecutive failures at 60% per-attempt failure) ~ 1%.
  EXPECT_GT(delivered, 40);
}

TEST(Channel, SendReliableOfflineLinkShortCircuits) {
  Meter meter;
  Channel channel(meter);
  FaultPlan plan;
  plan.drop_probability = 0.5;
  channel.set_fault_plan(plan);
  channel.set_node_offline(2, true);
  const SendReport report =
      channel.send_reliable(2, kServerId, WeightsPayload{Tensor::zeros({4})});
  EXPECT_FALSE(report.delivered());
  EXPECT_EQ(report.attempts, 0u);  // dead link: no transmission, no dice
  EXPECT_EQ(meter.total(), 0u);
}

TEST(Channel, OfflineMessagesConsumeNoDropDice) {
  // Interleaving doomed sends from an offline node must not perturb another
  // link's delivery pattern — offline is detected before the dice roll.
  FaultPlan plan;
  plan.seed = 7;
  plan.drop_probability = 0.5;
  Meter m1;
  Channel a(m1);
  a.set_fault_plan(plan);
  Meter m2;
  Channel b(m2);
  b.set_fault_plan(plan);
  b.set_node_offline(2, true);
  for (int i = 0; i < 200; ++i) {
    const auto wa = a.send(0, kServerId, WeightsPayload{Tensor::zeros({1})});
    EXPECT_FALSE(b.send(2, kServerId, WeightsPayload{Tensor::zeros({1})}));
    const auto wb = b.send(0, kServerId, WeightsPayload{Tensor::zeros({1})});
    EXPECT_EQ(wa.has_value(), wb.has_value()) << i;
  }
}

TEST(Channel, BackoffLatencyIsDeterministicSimulatedTime) {
  Meter meter;
  Channel channel(meter);
  FaultPlan plan;
  plan.latency_ms = 2.0;
  plan.drop_probability = 1.0;
  plan.max_retries = 2;
  plan.retry_backoff_ms = 1.0;
  channel.set_fault_plan(plan);
  const SendReport report =
      channel.send_reliable(0, kServerId, WeightsPayload{Tensor::zeros({1})});
  // 3 attempts x 2ms link latency, plus backoff 1*2^0 + 1*2^1 between them.
  EXPECT_DOUBLE_EQ(report.latency_ms, 3 * 2.0 + 1.0 + 2.0);
}

TEST(Channel, CorruptedDeliveryNeverMutatesASharedFrame) {
  // One broadcast frame serves every recipient. A corruption hit on
  // recipient k flips a bit in the receiver's copy only: recipient k+1 gets
  // the pristine payload and the shared frame still verifies.
  Meter meter;
  Channel channel(meter);
  Rng rng(52);
  const WeightsPayload payload{Tensor::randn({40}, rng)};
  const std::vector<std::byte> frame = sealed_frame(payload);
  const std::vector<std::byte> pristine = frame;
  FaultPlan always;
  always.corrupt_probability = 1.0;
  always.max_retries = 0;
  channel.set_fault_plan(always);
  const SendReport hit = channel.send_sealed(kServerId, 3, frame);
  EXPECT_FALSE(hit.delivered());
  EXPECT_EQ(hit.corrupt_detected, 1u);
  EXPECT_EQ(frame, pristine);
  ASSERT_TRUE(open_frame(frame).has_value());

  channel.set_fault_plan(FaultPlan{});
  const SendReport next = channel.send_sealed(kServerId, 4, frame);
  ASSERT_TRUE(next.delivered());
  EXPECT_EQ(*next.payload, encode(payload));
  EXPECT_EQ(frame, pristine);
}

TEST(Channel, OwnedFrameIsHandedOverWithoutItsHeader) {
  Meter meter;
  Channel channel(meter);
  Rng rng(53);
  const WeightsPayload payload{Tensor::randn({40}, rng)};
  std::vector<std::byte> frame = sealed_frame(payload);
  const std::byte* buffer = frame.data();
  const SendReport report = channel.send_sealed(2, kServerId, std::move(frame));
  ASSERT_TRUE(report.delivered());
  EXPECT_EQ(*report.payload, encode(payload));
  EXPECT_EQ(report.payload->data(), buffer);  // the sender's own buffer
  EXPECT_EQ(meter.total(), encode(payload).size() + kFrameOverhead);
}

// FNV-1a over little-endian 64-bit words and raw bytes.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void bytes(std::span<const std::byte> data) {
    for (std::byte b : data) byte(static_cast<std::uint8_t>(b));
  }
};

TEST(Channel, GoldenSharedBroadcastUnderSeededFaults) {
  // A two-part bundle sealed once and sent to 16 recipients under seeded
  // drop, corruption and jitter. The hashes were recorded when every send
  // still encoded and framed its own copy per recipient (send_reliable), so
  // seal-once must reproduce every report, meter record and delivered byte.
  Meter meter;
  Channel channel(meter);
  FaultPlan plan;
  plan.seed = 1;
  plan.drop_probability = 0.2;
  plan.corrupt_probability = 0.05;
  plan.latency_ms = 1.5;
  plan.jitter_ms = 3.0;
  channel.set_fault_plan(plan);
  Rng rng(77);
  const WeightsPayload weights{Tensor::randn({2000}, rng)};
  LogitsPayload logits;
  logits.sample_ids.resize(64);
  std::iota(logits.sample_ids.begin(), logits.sample_ids.end(), 0u);
  logits.logits = Tensor::randn({64, 10}, rng);
  const std::vector<std::vector<std::byte>> frames = {sealed_frame(weights),
                                                      sealed_frame(logits)};
  Fnv reports;
  Fnv delivered;
  std::size_t drops = 0;
  std::size_t corrupt = 0;
  std::size_t lost = 0;
  for (NodeId r = 0; r < 16; ++r) {
    meter.begin_round(static_cast<std::size_t>(r / 4));
    for (const std::vector<std::byte>& frame : frames) {
      const SendReport report = channel.send_sealed(kServerId, r, frame);
      reports.word(report.attempts);
      reports.word(report.retries);
      reports.word(report.drops);
      reports.word(report.corrupt_detected);
      reports.word(std::bit_cast<std::uint64_t>(report.latency_ms));
      reports.word(report.delivered() ? 1 : 0);
      if (report.delivered()) delivered.bytes(*report.payload);
      drops += report.drops;
      corrupt += report.corrupt_detected;
      lost += report.delivered() ? 0 : 1;
    }
  }
  Fnv log;
  for (const TrafficRecord& record : meter.records()) {
    log.word(record.round);
    log.word(static_cast<std::uint64_t>(record.from));
    log.word(static_cast<std::uint64_t>(record.to));
    log.word(static_cast<std::uint64_t>(record.kind));
    log.word(record.bytes);
  }
  // The plan exercises every path: drops, a caught corruption, a loss.
  EXPECT_EQ(drops, 10u);
  EXPECT_EQ(corrupt, 2u);
  EXPECT_EQ(lost, 1u);
  EXPECT_EQ(meter.records().size(), 33u);
  EXPECT_EQ(reports.h, 0x45dc599ead7f63edull);
  EXPECT_EQ(log.h, 0xb74f74df623a9831ull);
  EXPECT_EQ(delivered.h, 0xc7de2f990c9541cfull);
}

// ------------------------------------------------------------- validation ---

std::vector<std::vector<std::byte>> one_part(std::vector<std::byte> wire) {
  std::vector<std::vector<std::byte>> parts;
  parts.push_back(std::move(wire));
  return parts;
}

TEST(Validate, DefaultPolicyRejectsNonFinitePayloads) {
  const ValidationPolicy policy;  // check_finite is on by default
  EXPECT_TRUE(policy.enabled());
  Rng rng(60);
  const auto clean = one_part(encode(WeightsPayload{Tensor::randn({16}, rng)}));
  EXPECT_FALSE(validate_bundle(clean, nullptr, policy).has_value());

  Tensor nan_weights = Tensor::zeros({16});
  nan_weights[3] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(validate_bundle(one_part(encode(WeightsPayload{nan_weights})),
                              nullptr, policy)
                  .has_value());

  Tensor inf_logits = Tensor::zeros({2, 3});
  inf_logits[4] = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(validate_bundle(one_part(encode(LogitsPayload{{0, 1}, inf_logits})),
                              nullptr, policy)
                  .has_value());
}

TEST(Validate, NormBoundCatchesMagnitudeInflation) {
  ValidationPolicy policy;
  policy.max_weights_norm = 10.0;
  Tensor small = Tensor::zeros({4});
  small[0] = 1.0f;
  Tensor large = Tensor::zeros({4});
  large[0] = 100.0f;
  EXPECT_FALSE(validate_bundle(one_part(encode(WeightsPayload{small})),
                               nullptr, policy)
                   .has_value());
  EXPECT_TRUE(validate_bundle(one_part(encode(WeightsPayload{large})),
                              nullptr, policy)
                  .has_value());
}

TEST(Validate, StructureCheckedAgainstReferenceBundle) {
  const ValidationPolicy policy;
  Rng rng(61);
  const auto reference =
      one_part(encode(LogitsPayload{{0, 1, 2}, Tensor::randn({3, 4}, rng)}));
  const auto same =
      one_part(encode(LogitsPayload{{3, 4, 5}, Tensor::randn({3, 4}, rng)}));
  const auto fewer_rows =
      one_part(encode(LogitsPayload{{0, 1}, Tensor::randn({2, 4}, rng)}));
  const auto wrong_kind =
      one_part(encode(WeightsPayload{Tensor::randn({12}, rng)}));
  EXPECT_FALSE(validate_bundle(same, &reference, policy).has_value());
  EXPECT_TRUE(validate_bundle(fewer_rows, &reference, policy).has_value());
  EXPECT_TRUE(validate_bundle(wrong_kind, &reference, policy).has_value());
  auto two_parts = same;
  two_parts.push_back(same.front());
  EXPECT_TRUE(validate_bundle(two_parts, &reference, policy).has_value());
}

TEST(Validate, UndecodableBytesFailClosedWithoutThrowing) {
  const ValidationPolicy policy;
  const auto garbage =
      one_part(std::vector<std::byte>{std::byte{0x01}, std::byte{0x00}});
  std::optional<std::string> reason;
  EXPECT_NO_THROW(reason = validate_bundle(garbage, nullptr, policy));
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("undecodable"), std::string::npos) << *reason;
}

}  // namespace
}  // namespace fedpkd::comm
