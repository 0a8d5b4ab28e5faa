#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

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

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n, uint32_t seed) {
  static const CrcTables kTables = BuildCrcTables();
  uint32_t c = 0xFFFFFFFFu ^ seed;
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
  return c ^ 0xFFFFFFFFu;
}

}  // namespace mip
