#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

namespace fedpkd::comm {

/// Integrity framing for the reliable transport (Channel::send_sealed).
///
/// Frame layout (little-endian):
///   u32 magic 'FPKF' | u32 crc32(payload) | payload bytes
///
/// The CRC is IEEE 802.3 (reflected polynomial 0xEDB88320), which detects
/// every single-bit and every burst error up to 32 bits — in particular the
/// single-bit flips the FaultInjector's corruption model produces are always
/// caught, so a corrupted frame is retried, never silently decoded.
///
/// Seal once, verify in place: a sender encodes its payload straight behind
/// kFrameOverhead reserved bytes (comm::encode's `headroom`), seal_frame
/// fills the header, and open_frame verifies the whole frame and returns a
/// view of the payload — no step copies the payload.

inline constexpr std::size_t kFrameOverhead = 8;

/// CRC32 (IEEE 802.3, reflected) over `bytes`. Shared beyond the wire: the
/// durable-state layer (fl/durable_io) seals every checkpoint file with this
/// same CRC in its whole-file footer, so on-wire and on-disk corruption are
/// detected by one implementation.
///
/// Three tiers, all returning the same value:
///  * a PCLMULQDQ 4x128-bit fold with a Barrett reduction (the Intel
///    "Fast CRC Computation for Generic Polynomials" scheme), for the
///    16-byte-aligned bulk of buffers of 64+ bytes on x86-64 hosts whose CPU
///    reports pclmul and sse4.1 (checked once at run time);
///  * a portable slice-by-16 table loop, for every other host and for the
///    tail the fold leaves (crc32_portable);
///  * the byte-at-a-time single-table loop, kept as the reference oracle
///    the other two are tested against (crc32_naive).
std::uint32_t crc32(std::span<const std::byte> bytes);

/// The portable tier alone (slice-by-16, no carry-less fold): what crc32
/// runs on a host without PCLMULQDQ. Exposed so tests cover it on any host.
std::uint32_t crc32_portable(std::span<const std::byte> bytes);

/// Reference implementation: one 256-entry table, one byte per step.
std::uint32_t crc32_naive(std::span<const std::byte> bytes);

/// Seals a frame in place: writes the magic and crc32(frame[kFrameOverhead:])
/// into the first kFrameOverhead bytes. Throws std::invalid_argument when
/// `frame` is shorter than the header.
void seal_frame(std::span<std::byte> frame);

/// Verifies a frame in place: the payload (a view into `frame`), or nullopt
/// when the buffer is shorter than the header, the magic is wrong, or the
/// CRC does not match the payload.
std::optional<std::span<const std::byte>> open_frame(
    std::span<const std::byte> frame);

}  // namespace fedpkd::comm
