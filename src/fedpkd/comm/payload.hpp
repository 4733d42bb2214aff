#pragma once

#include <cstdint>
#include <vector>

#include "fedpkd/tensor/serialize.hpp"
#include "fedpkd/tensor/tensor.hpp"

namespace fedpkd::comm {

using tensor::Tensor;

/// Kinds of knowledge exchanged in the federation. The meter reports traffic
/// per kind so experiments can attribute overhead to model updates vs logits
/// vs prototypes (Fig. 3, Table I).
enum class PayloadKind : std::uint8_t {
  kWeights = 1,     // flat model parameter vector (FedAvg/FedProx/FedDF)
  kLogits = 2,      // per-sample logits over (a subset of) the public dataset
  kPrototypes = 3,  // per-class feature centroids with support counts
};

const char* to_string(PayloadKind kind);

/// Flat model weights, as produced by Classifier::flat_weights().
struct WeightsPayload {
  Tensor flat;  // rank-1
};

/// Logits for a subset of the public dataset. `sample_ids[i]` is the public
/// dataset index that row i of `logits` refers to; this is what lets the
/// server ship logits for only the filtered subset (Section IV-C) while
/// clients still align them with the right samples.
struct LogitsPayload {
  std::vector<std::uint32_t> sample_ids;
  Tensor logits;  // [sample_ids.size(), num_classes]
};

/// Per-class prototypes (Eq. 5): each entry is a class id, the number of
/// local samples that supported the centroid (the |D_c^j| weight of Eq. 8),
/// and the centroid itself in the shared feature space.
struct PrototypeEntry {
  std::int32_t class_id = 0;
  std::uint32_t support = 0;
  Tensor centroid;  // rank-1, feature_dim
};

struct PrototypesPayload {
  std::vector<PrototypeEntry> entries;
};

/// -- Codecs ------------------------------------------------------------------
/// Every payload serializes to a tagged, self-describing byte string; decode_*
/// throws tensor::DecodeError (a std::runtime_error) on malformed input or a
/// kind-tag mismatch, and never reads past the buffer: every length field is
/// validated against the remaining bytes before any allocation, so truncated
/// or adversarial inputs cannot trigger out-of-bounds reads or huge reserves.
/// Byte sizes are exactly what the meter charges.
///
/// `headroom` zero bytes precede the encoding in the returned buffer, so a
/// framed sender (comm::sealed_frame) writes its header in front of the
/// payload without copying it.

std::vector<std::byte> encode(const WeightsPayload& payload,
                              std::size_t headroom = 0);
std::vector<std::byte> encode(const LogitsPayload& payload,
                              std::size_t headroom = 0);
std::vector<std::byte> encode(const PrototypesPayload& payload,
                              std::size_t headroom = 0);

WeightsPayload decode_weights(std::span<const std::byte> bytes);
LogitsPayload decode_logits(std::span<const std::byte> bytes);
PrototypesPayload decode_prototypes(std::span<const std::byte> bytes);

/// Kind tag of an encoded payload (first byte), without full decoding.
PayloadKind peek_kind(std::span<const std::byte> bytes);

}  // namespace fedpkd::comm
