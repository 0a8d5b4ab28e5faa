#ifndef MIP_ENGINE_ENCODING_H_
#define MIP_ENGINE_ENCODING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "engine/bitmap.h"
#include "engine/column.h"

namespace mip::engine {

/// \brief Light-weight columnar codecs for federated transfers.
///
/// Every encoded column is a self-describing block:
///
///   u8      codec        one of Codec below
///   varint  count        element count
///   u8[...] payload      codec-specific
///
/// The encoder tries every codec applicable to the value type, measures the
/// candidates, and keeps the smallest — raw is always a candidate, so the
/// block never exceeds the fixed-width layout by more than the header. The
/// decoder trusts nothing: counts are capped, varints are length-limited,
/// dictionary indices are range-checked and RLE runs must tile the block
/// exactly, so a corrupt or hostile payload yields a clean Status (the same
/// hardening bar as the frame/envelope deserializers in src/net).
///
/// Codec applicability by value type:
///   int64   kRaw, kDeltaVarint (zigzag of consecutive deltas)
///   double  kRaw, kXorDouble   (varint of bits XOR previous bits)
///   bool    kRaw, kRle         ((value byte, varint run length) pairs)
///   string  kRaw, kDict        (first-appearance dictionary + indices;
///                               only when distinct values fit kDictMaxEntries)
///   validity bitmaps encode as bool columns of their bits.
enum class Codec : uint8_t {
  kRaw = 0,
  kRle = 1,
  kDict = 2,
  kDeltaVarint = 3,
  kXorDouble = 4,
};

/// Dictionary spill threshold: a string column with more distinct values
/// falls back to raw (the indices would approach the data size anyway).
inline constexpr size_t kDictMaxEntries = 64 * 1024;

/// Ceiling on any decoded element count — defends decode-side allocations
/// against hostile counts the same way kDefaultMaxFramePayload defends the
/// frame layer (2^26 elements * 8 bytes = 512 MiB, past the frame cap).
inline constexpr uint64_t kMaxWireElements = 1ull << 26;

/// LEB128 unsigned varint (at most 10 bytes for a u64). GetVarint reads
/// one byte at a time; its errors are a truncated buffer, a tenth byte
/// carrying more than one value bit ("varint overflows 64 bits") and a
/// tenth byte with its continuation bit set ("varint longer than 10
/// bytes").
void PutVarint(BufferWriter* w, uint64_t v);
Result<uint64_t> GetVarint(BufferReader* r);
/// Encoded size of one varint without writing it.
size_t VarintSize(uint64_t v);

/// Zigzag mapping: small magnitudes (of either sign) get small varints.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ (v < 0 ? ~0ull : 0ull);
}
inline int64_t ZigZagDecode(uint64_t u) {
  return static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

// --- Encoders: write one self-describing block, return the codec chosen. ---
Codec EncodeInts(const std::vector<int64_t>& values, BufferWriter* w);
Codec EncodeDoubles(const std::vector<double>& values, BufferWriter* w);
Codec EncodeBools(const std::vector<uint8_t>& values, BufferWriter* w);
Codec EncodeStrings(const std::vector<std::string>& values, BufferWriter* w);
Codec EncodeValidity(const Bitmap& validity, BufferWriter* w);

// --- Decoders: bounds-checked inverses of the encoders above. ---
// Each codec has one decoder, which appends the block's elements to `*out`
// and keeps what is already there, so a caller can decode several blocks
// straight into one column vector (the segment scan path). Each decoder
// reserves room for its own block only, so such a caller reserves the
// total up front. On error `*out` may hold a partial append. The
// value-returning forms decode into a fresh vector.
//
// Every varint run of a block (the XOR-double and delta-int payloads and
// the dictionary indices) goes through one bulk reader: while at least
// ten bytes remain it decodes straight from the reader's bytes, a word at
// a time, and the tail and any malformed varint go through GetVarint, so
// every error is GetVarint's, with the same code and message.
Status DecodeInts(BufferReader* r, std::vector<int64_t>* out);
Status DecodeDoubles(BufferReader* r, std::vector<double>* out);
Status DecodeBools(BufferReader* r, std::vector<uint8_t>* out);
Status DecodeStrings(BufferReader* r, std::vector<std::string>* out);
Result<std::vector<int64_t>> DecodeInts(BufferReader* r);
Result<std::vector<double>> DecodeDoubles(BufferReader* r);
Result<std::vector<uint8_t>> DecodeBools(BufferReader* r);
Result<std::vector<std::string>> DecodeStrings(BufferReader* r);
Result<Bitmap> DecodeValidity(BufferReader* r);

// --- The column codec: one body shared by the v2 wire table and the
// segment column block. ---
//
//   u8           has_validity (0 or 1)
//   [codec block] validity (EncodeValidity), when has_validity
//   codec block  the values, by column type

void EncodeColumn(const Column& column, BufferWriter* w);

/// Reads one EncodeColumn body that must hold `num_rows` rows. Appends its
/// values to `column`'s typed storage past column->length() and returns
/// their validity bits, empty when the body carries none; the caller turns
/// the values into rows (Column::AdoptAppendedRows, or SetValidity on a
/// fresh column). A flag byte above 1, or a validity or value count other
/// than `num_rows`, is an IOError. A caller that knows where the body ends
/// checks for trailing bytes itself.
Result<Bitmap> DecodeColumn(BufferReader* r, uint64_t num_rows,
                            Column* column);

}  // namespace mip::engine

#endif  // MIP_ENGINE_ENCODING_H_
