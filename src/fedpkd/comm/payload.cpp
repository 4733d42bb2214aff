#include "fedpkd/comm/payload.hpp"

#include <stdexcept>

namespace fedpkd::comm {

using tensor::decode_tensor;
using tensor::encode_tensor;
using tensor::get_u32;
using tensor::put_u32;

namespace {

using tensor::DecodeError;

void put_kind(PayloadKind kind, std::vector<std::byte>& out) {
  out.push_back(static_cast<std::byte>(kind));
}

PayloadKind take_kind(std::span<const std::byte> bytes, std::size_t& offset,
                      PayloadKind expected) {
  if (offset >= bytes.size()) {
    throw DecodeError("payload: empty buffer");
  }
  const auto kind = static_cast<PayloadKind>(bytes[offset++]);
  if (kind != expected) {
    throw DecodeError(std::string("payload: expected kind ") +
                      to_string(expected) + ", got " + to_string(kind));
  }
  return kind;
}

void finish(std::span<const std::byte> bytes, std::size_t offset) {
  if (offset != bytes.size()) {
    throw DecodeError("payload: trailing bytes");
  }
}

/// Rejects a claimed element count that cannot fit in the remaining bytes
/// (`min_bytes_each` per element) *before* the caller reserves for it — a
/// forged count field must not translate into a gigabyte reserve().
void check_count(std::uint32_t n, std::size_t min_bytes_each,
                 std::span<const std::byte> bytes, std::size_t offset,
                 const char* what) {
  if (static_cast<std::size_t>(n) >
      (bytes.size() - offset) / min_bytes_each) {
    throw DecodeError(std::string(what) + ": count exceeds buffer");
  }
}

}  // namespace

const char* to_string(PayloadKind kind) {
  switch (kind) {
    case PayloadKind::kWeights:
      return "weights";
    case PayloadKind::kLogits:
      return "logits";
    case PayloadKind::kPrototypes:
      return "prototypes";
  }
  return "unknown";
}

std::vector<std::byte> encode(const WeightsPayload& payload,
                              std::size_t headroom) {
  std::vector<std::byte> out;
  out.reserve(headroom + 1 + tensor::encoded_size(payload.flat.shape()));
  out.resize(headroom);
  put_kind(PayloadKind::kWeights, out);
  encode_tensor(payload.flat, out);
  return out;
}

std::vector<std::byte> encode(const LogitsPayload& payload,
                              std::size_t headroom) {
  if (payload.logits.rank() != 2 ||
      payload.logits.rows() != payload.sample_ids.size()) {
    throw std::invalid_argument(
        "encode(LogitsPayload): sample_ids/logits mismatch");
  }
  std::vector<std::byte> out;
  out.reserve(headroom + 5 + 4 * payload.sample_ids.size() +
              tensor::encoded_size(payload.logits.shape()));
  out.resize(headroom);
  put_kind(PayloadKind::kLogits, out);
  put_u32(static_cast<std::uint32_t>(payload.sample_ids.size()), out);
  for (std::uint32_t id : payload.sample_ids) put_u32(id, out);
  encode_tensor(payload.logits, out);
  return out;
}

std::vector<std::byte> encode(const PrototypesPayload& payload,
                              std::size_t headroom) {
  std::vector<std::byte> out(headroom);
  put_kind(PayloadKind::kPrototypes, out);
  put_u32(static_cast<std::uint32_t>(payload.entries.size()), out);
  for (const PrototypeEntry& e : payload.entries) {
    if (e.centroid.rank() != 1) {
      throw std::invalid_argument(
          "encode(PrototypesPayload): centroid must be rank-1");
    }
    put_u32(static_cast<std::uint32_t>(e.class_id), out);
    put_u32(e.support, out);
    encode_tensor(e.centroid, out);
  }
  return out;
}

WeightsPayload decode_weights(std::span<const std::byte> bytes) {
  std::size_t offset = 0;
  take_kind(bytes, offset, PayloadKind::kWeights);
  WeightsPayload payload{decode_tensor(bytes, offset)};
  finish(bytes, offset);
  return payload;
}

LogitsPayload decode_logits(std::span<const std::byte> bytes) {
  std::size_t offset = 0;
  take_kind(bytes, offset, PayloadKind::kLogits);
  const std::uint32_t n = get_u32(bytes, offset);
  check_count(n, 4, bytes, offset, "decode_logits");  // 4 bytes per sample id
  LogitsPayload payload;
  payload.sample_ids.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    payload.sample_ids.push_back(get_u32(bytes, offset));
  }
  payload.logits = decode_tensor(bytes, offset);
  finish(bytes, offset);
  if (payload.logits.rank() != 2 || payload.logits.rows() != n) {
    throw DecodeError("decode_logits: row count mismatch");
  }
  return payload;
}

PrototypesPayload decode_prototypes(std::span<const std::byte> bytes) {
  std::size_t offset = 0;
  take_kind(bytes, offset, PayloadKind::kPrototypes);
  const std::uint32_t n = get_u32(bytes, offset);
  // Each entry is at least class_id + support + a minimal tensor header.
  check_count(n, 8, bytes, offset, "decode_prototypes");
  PrototypesPayload payload;
  payload.entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    PrototypeEntry e;
    e.class_id = static_cast<std::int32_t>(get_u32(bytes, offset));
    e.support = get_u32(bytes, offset);
    e.centroid = decode_tensor(bytes, offset);
    if (e.centroid.rank() != 1) {
      throw DecodeError("decode_prototypes: centroid must be rank-1");
    }
    payload.entries.push_back(std::move(e));
  }
  finish(bytes, offset);
  return payload;
}

PayloadKind peek_kind(std::span<const std::byte> bytes) {
  if (bytes.empty()) throw DecodeError("peek_kind: empty buffer");
  const auto kind = static_cast<PayloadKind>(bytes[0]);
  switch (kind) {
    case PayloadKind::kWeights:
    case PayloadKind::kLogits:
    case PayloadKind::kPrototypes:
      return kind;
  }
  throw DecodeError("peek_kind: unknown kind tag");
}

}  // namespace fedpkd::comm
