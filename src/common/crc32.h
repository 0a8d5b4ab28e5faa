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
/// Two implementations compute the same function; only speed differs, so
/// every checksum and every on-disk / on-wire format that stores one is
/// unchanged:
///   * On an x86-64 host whose CPU reports PCLMULQDQ and SSE4.1 (checked
///     once at run time; only the folding function is compiled for them),
///     the longest prefix whose length is a multiple of 16 folds 64 bytes
///     per step by carry-less multiplication, when the input has at least
///     64 bytes. The remaining 0-15 bytes go through slice-by-8.
///   * Everywhere else, and for inputs under 64 bytes, slice-by-8: eight
///     table lookups fold each 8-byte word, then a bytewise tail.
///
/// A nonzero `seed` is XORed into the initial register, so the same bytes
/// checksum differently under every seed; seed 0 is the classic CRC. The
/// WAL seeds its records with a per-epoch salt (storage/wal.h).
uint32_t Crc32(const uint8_t* data, size_t n, uint32_t seed = 0);

inline uint32_t Crc32(const std::vector<uint8_t>& data, uint32_t seed = 0) {
  return Crc32(data.data(), data.size(), seed);
}

namespace internal {

/// The portable slice-by-8 path alone, whatever the host supports, so
/// tests can check it against a reference on a host that dispatches away
/// from it.
uint32_t Crc32Portable(const uint8_t* data, size_t n, uint32_t seed = 0);

}  // namespace internal

}  // namespace mip

#endif  // MIP_COMMON_CRC32_H_
