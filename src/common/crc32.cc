#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define MIP_CRC32_CLMUL 1
#endif

namespace mip {

namespace {

// The 8-byte loads below read the word in host order and index the tables
// from its low byte up, which is the stream order only on a little-endian
// host — the same host assumption BufferWriter's fixed-width fields make.
static_assert(std::endian::native == std::endian::little,
              "Crc32's slice-by-8 loop assumes a little-endian host");

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

/// tables[0] is the classic bytewise table; tables[k][b] is the CRC
/// contribution of byte b followed by k zero bytes, so eight lookups fold
/// one 8-byte word.
CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

/// Advances the (pre-inverted) CRC register `c` over `n` bytes, slice-by-8.
uint32_t UpdateSliceBy8(uint32_t c, const uint8_t* data, size_t n) {
  static const CrcTables kTables = BuildCrcTables();
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, data, sizeof(word));
    word ^= c;
    c = kTables[7][word & 0xFFu] ^ kTables[6][(word >> 8) & 0xFFu] ^
        kTables[5][(word >> 16) & 0xFFu] ^ kTables[4][(word >> 24) & 0xFFu] ^
        kTables[3][(word >> 32) & 0xFFu] ^ kTables[2][(word >> 40) & 0xFFu] ^
        kTables[1][(word >> 48) & 0xFFu] ^ kTables[0][word >> 56];
  }
  for (; n > 0; ++data, --n) {
    c = kTables[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#ifdef MIP_CRC32_CLMUL

#define MIP_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Carries lane `x` forward past the distance the constant pair `k`
/// encodes: its low half times k's low, its high half times k's high.
MIP_CLMUL_TARGET inline __m128i Fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

/// Advances the (pre-inverted) CRC register `c` over `n` bytes by folding
/// with carry-less multiplication: four 128-bit lanes fold 64 bytes per
/// step, then merge into one lane that folds 16 bytes per step, then a
/// Barrett reduction gives 32 bits. Requires n >= 64 and n % 16 == 0. The
/// constants are powers of x mod P(x) for the bit-reflected IEEE
/// polynomial, from Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), the same ones
/// zlib and the Linux kernel use.
MIP_CLMUL_TARGET uint32_t UpdateClmul(uint32_t c, const uint8_t* data,
                                      size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(Load128(data),
                             _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load128(data + 16);
  __m128i x3 = Load128(data + 32);
  __m128i x4 = Load128(data + 48);
  data += 64;
  n -= 64;
  for (; n >= 64; data += 64, n -= 64) {
    x1 = _mm_xor_si128(Fold(x1, k1k2), Load128(data));
    x2 = _mm_xor_si128(Fold(x2, k1k2), Load128(data + 16));
    x3 = _mm_xor_si128(Fold(x3, k1k2), Load128(data + 32));
    x4 = _mm_xor_si128(Fold(x4, k1k2), Load128(data + 48));
  }
  x1 = _mm_xor_si128(Fold(x1, k3k4), x2);
  x1 = _mm_xor_si128(Fold(x1, k3k4), x3);
  x1 = _mm_xor_si128(Fold(x1, k3k4), x4);
  for (; n >= 16; data += 16, n -= 16) {
    x1 = _mm_xor_si128(Fold(x1, k3k4), Load128(data));
  }

  // 128 -> 64 bits.
  __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  // 64 -> 32 bits.
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00), t);
  // Barrett reduction.
  t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool HostHasClmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#endif  // MIP_CRC32_CLMUL

}  // namespace

namespace internal {

uint32_t Crc32Portable(const uint8_t* data, size_t n, uint32_t seed) {
  return UpdateSliceBy8(0xFFFFFFFFu ^ seed, data, n) ^ 0xFFFFFFFFu;
}

}  // namespace internal

uint32_t Crc32(const uint8_t* data, size_t n, uint32_t seed) {
  uint32_t c = 0xFFFFFFFFu ^ seed;
#ifdef MIP_CRC32_CLMUL
  static const bool kClmul = HostHasClmul();
  if (kClmul && n >= 64) {
    const size_t folded = n & ~size_t{15};
    c = UpdateClmul(c, data, folded);
    data += folded;
    n -= folded;
  }
#endif
  return UpdateSliceBy8(c, data, n) ^ 0xFFFFFFFFu;
}

}  // namespace mip
