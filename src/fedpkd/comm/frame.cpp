#include "fedpkd/comm/frame.hpp"

#include <array>
#include <stdexcept>

#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#define FEDPKD_CRC_CLMUL 1
#endif

namespace fedpkd::comm {

namespace {

constexpr std::uint32_t kFrameMagic = 0x464b5046u;  // 'FPKF'

/// Slice-by-16 tables: kTables[0] is the classic byte table; kTables[k][i]
/// is the CRC of byte i followed by k zero bytes, so sixteen lookups advance
/// the register over sixteen bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr CrcTables kTables = make_crc_tables();

std::uint32_t update_naive(std::uint32_t crc, const std::byte* p,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    crc = kTables[0][(crc ^ static_cast<std::uint32_t>(p[i])) & 0xffu] ^
          (crc >> 8);
  }
  return crc;
}

std::uint32_t get_u32_le(const std::byte* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  }
  return v;
}

/// Slice-by-16 over the raw (pre-inversion) register.
std::uint32_t update_slice16(std::uint32_t crc, const std::byte* p,
                             std::size_t n) {
  for (; n >= 16; n -= 16, p += 16) {
    const std::uint32_t a = get_u32_le(p) ^ crc;
    const std::uint32_t b = get_u32_le(p + 4);
    const std::uint32_t c = get_u32_le(p + 8);
    const std::uint32_t d = get_u32_le(p + 12);
    crc = kTables[15][a & 0xff] ^ kTables[14][(a >> 8) & 0xff] ^
          kTables[13][(a >> 16) & 0xff] ^ kTables[12][a >> 24] ^
          kTables[11][b & 0xff] ^ kTables[10][(b >> 8) & 0xff] ^
          kTables[9][(b >> 16) & 0xff] ^ kTables[8][b >> 24] ^
          kTables[7][c & 0xff] ^ kTables[6][(c >> 8) & 0xff] ^
          kTables[5][(c >> 16) & 0xff] ^ kTables[4][c >> 24] ^
          kTables[3][d & 0xff] ^ kTables[2][(d >> 8) & 0xff] ^
          kTables[1][(d >> 16) & 0xff] ^ kTables[0][d >> 24];
  }
  return update_naive(crc, p, n);
}

#if FEDPKD_CRC_CLMUL

bool cpu_has_clmul() {
  static const bool has = __builtin_cpu_supports("pclmul") != 0 &&
                          __builtin_cpu_supports("sse4.1") != 0;
  return has;
}

#define FEDPKD_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

FEDPKD_CLMUL_TARGET inline __m128i load16(const std::byte* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// One fold step: x.lo * k.lo ^ x.hi * k.hi ^ next.
FEDPKD_CLMUL_TARGET inline __m128i fold16(__m128i x, __m128i k,
                                          __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Carry-less-multiply fold over the raw register; `n` must be a multiple of
/// 16 and at least 64. Four 128-bit lanes fold 64 bytes per step, then fold
/// into one lane, to 64 bits, and Barrett-reduce to 32. The constants are
/// the bit-reflected x^k mod P values of the Intel paper's CRC32 appendix,
/// as in zlib's crc32_simd.
FEDPKD_CLMUL_TARGET std::uint32_t update_clmul(std::uint32_t crc,
                                               const std::byte* p,
                                               std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(load16(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; n -= 64, p += 64) {
    x1 = fold16(x1, k1k2, load16(p));
    x2 = fold16(x2, k1k2, load16(p + 16));
    x3 = fold16(x3, k1k2, load16(p + 32));
    x4 = fold16(x4, k1k2, load16(p + 48));
  }
  x1 = fold16(x1, k3k4, x2);
  x1 = fold16(x1, k3k4, x3);
  x1 = fold16(x1, k3k4, x4);
  for (; n >= 16; n -= 16, p += 16) x1 = fold16(x1, k3k4, load16(p));

  // 128 -> 64 bits.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(
      _mm_srli_si128(x, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x, mask32), k5k0, 0x00));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

#endif  // FEDPKD_CRC_CLMUL

void put_u32_le(std::uint32_t v, std::byte* out) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
  }
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> bytes) {
  std::uint32_t crc = 0xffffffffu;
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
#if FEDPKD_CRC_CLMUL
  if (n >= 64 && cpu_has_clmul()) {
    const std::size_t bulk = n & ~std::size_t{15};
    crc = update_clmul(crc, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  return update_slice16(crc, p, n) ^ 0xffffffffu;
}

std::uint32_t crc32_portable(std::span<const std::byte> bytes) {
  return update_slice16(0xffffffffu, bytes.data(), bytes.size()) ^
         0xffffffffu;
}

std::uint32_t crc32_naive(std::span<const std::byte> bytes) {
  return update_naive(0xffffffffu, bytes.data(), bytes.size()) ^ 0xffffffffu;
}

void seal_frame(std::span<std::byte> frame) {
  if (frame.size() < kFrameOverhead) {
    throw std::invalid_argument("seal_frame: buffer shorter than the header");
  }
  put_u32_le(kFrameMagic, frame.data());
  put_u32_le(crc32(frame.subspan(kFrameOverhead)), frame.data() + 4);
}

std::optional<std::span<const std::byte>> open_frame(
    std::span<const std::byte> frame) {
  if (frame.size() < kFrameOverhead) return std::nullopt;
  if (get_u32_le(frame.data()) != kFrameMagic) return std::nullopt;
  const auto payload = frame.subspan(kFrameOverhead);
  if (crc32(payload) != get_u32_le(frame.data() + 4)) return std::nullopt;
  return payload;
}

}  // namespace fedpkd::comm
