#ifndef MIP_COMMON_CRC32_H_
#define MIP_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mip {

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) — the integrity
/// check shared by the network frame layer and the on-disk storage formats
/// (segments, WAL records, manifest, indexes). Crc32("123456789") ==
/// 0xCBF43926.
///
/// Computed slice-by-8: eight table lookups fold each 8-byte word, then a
/// bytewise tail. This is an implementation choice only — the polynomial,
/// init and xorout are the classic bytewise CRC's, so every checksum and
/// every on-disk / on-wire format that stores one is unchanged.
///
/// A nonzero `seed` is XORed into the initial register, so the same bytes
/// checksum differently under every seed; seed 0 is the classic CRC. The
/// WAL seeds its records with a per-epoch salt (storage/wal.h).
uint32_t Crc32(const uint8_t* data, size_t n, uint32_t seed = 0);

inline uint32_t Crc32(const std::vector<uint8_t>& data, uint32_t seed = 0) {
  return Crc32(data.data(), data.size(), seed);
}

}  // namespace mip

#endif  // MIP_COMMON_CRC32_H_
