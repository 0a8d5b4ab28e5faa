// Round-trip property tests and mutation fuzz for the columnar wire codecs
// (engine/encoding.h) and the v2 table / transfer containers built on them.
//
// The contracts under test:
//   * every Encode/Decode pair is lossless, bit-exact for doubles;
//   * the encoder's measured-candidate selection never loses to raw by more
//     than the block header;
//   * the v2 containers are only committed when smaller than v1, so
//     serialized size never exceeds the raw (v1) size;
//   * the v1 and v2 table / transfer bytes, the raw sizes and the
//     decode -> re-encode bytes are pinned (WireBytesTest);
//   * every decoder survives truncation and corruption with a clean Status
//     (run under ASan/UBSan in CI).

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "engine/encoding.h"
#include "engine/table.h"
#include "federation/transfer.h"
#include "stats/matrix.h"

namespace mip {
namespace {

using engine::Bitmap;
using engine::Codec;
using engine::Column;
using engine::DataType;
using engine::Schema;
using engine::Table;
using engine::Value;
using federation::TransferData;

// --------------------------------------------------------------------------
// Varint / zigzag primitives.

TEST(VarintTest, RoundTripsExtremes) {
  const uint64_t cases[] = {0ull,
                            1ull,
                            127ull,
                            128ull,
                            16383ull,
                            16384ull,
                            (1ull << 32) - 1,
                            1ull << 32,
                            std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : cases) {
    BufferWriter w;
    engine::PutVarint(&w, v);
    EXPECT_EQ(w.size(), engine::VarintSize(v));
    BufferReader r(w.bytes().data(), w.size());
    auto got = engine::GetVarint(&r);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.ValueOrDie(), v);
    EXPECT_EQ(r.Remaining(), 0u);
  }
}

TEST(VarintTest, RejectsOverlongEncodings) {
  // Eleven continuation bytes can never be a valid u64 varint.
  std::vector<uint8_t> overlong(11, 0x80);
  BufferReader r(overlong.data(), overlong.size());
  EXPECT_FALSE(engine::GetVarint(&r).ok());

  // Ten bytes whose final byte carries more than the single remaining bit.
  std::vector<uint8_t> overflow(10, 0xFF);
  overflow[9] = 0x7F;
  BufferReader r2(overflow.data(), overflow.size());
  EXPECT_FALSE(engine::GetVarint(&r2).ok());
}

TEST(ZigZagTest, RoundTripsExtremes) {
  const int64_t cases[] = {0,
                           1,
                           -1,
                           63,
                           -64,
                           std::numeric_limits<int64_t>::max(),
                           std::numeric_limits<int64_t>::min()};
  for (int64_t v : cases) {
    EXPECT_EQ(engine::ZigZagDecode(engine::ZigZagEncode(v)), v) << v;
  }
  // Small magnitudes of either sign map to small codes.
  EXPECT_EQ(engine::ZigZagEncode(0), 0ull);
  EXPECT_EQ(engine::ZigZagEncode(-1), 1ull);
  EXPECT_EQ(engine::ZigZagEncode(1), 2ull);
}

// --------------------------------------------------------------------------
// Per-codec round trips.

std::vector<int64_t> RoundTripInts(const std::vector<int64_t>& in,
                                   Codec* chosen = nullptr) {
  BufferWriter w;
  Codec c = engine::EncodeInts(in, &w);
  if (chosen != nullptr) *chosen = c;
  BufferReader r(w.bytes().data(), w.size());
  auto out = engine::DecodeInts(&r);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(r.Remaining(), 0u);
  return std::move(out).MoveValueUnsafe();
}

TEST(IntCodecTest, EmptyColumn) {
  EXPECT_TRUE(RoundTripInts({}).empty());
}

TEST(IntCodecTest, SequentialIntsChooseDelta) {
  std::vector<int64_t> in;
  for (int64_t i = 0; i < 4096; ++i) in.push_back(1000000 + i);
  Codec chosen = Codec::kRaw;
  EXPECT_EQ(RoundTripInts(in, &chosen), in);
  EXPECT_EQ(chosen, Codec::kDeltaVarint);
}

TEST(IntCodecTest, NegativeDeltasRoundTrip) {
  // Descending and sign-alternating sequences exercise the zigzag mapping.
  std::vector<int64_t> in;
  for (int64_t i = 0; i < 1000; ++i) {
    in.push_back((i % 2 == 0 ? 1 : -1) * (5000 - i));
  }
  EXPECT_EQ(RoundTripInts(in), in);
}

TEST(IntCodecTest, ExtremeValuesSurviveDeltaWraparound) {
  // INT64_MIN -> INT64_MAX deltas overflow int64 arithmetic; the encoder
  // must use wraparound u64 deltas (UBSan would flag signed overflow).
  const std::vector<int64_t> in = {std::numeric_limits<int64_t>::min(),
                                   std::numeric_limits<int64_t>::max(),
                                   std::numeric_limits<int64_t>::min(),
                                   0,
                                   -1,
                                   1};
  EXPECT_EQ(RoundTripInts(in), in);
}

TEST(IntCodecTest, RandomIntsFallBackToRawOrDeltaLosslessly) {
  Rng rng(0xC0DEC);
  std::vector<int64_t> in;
  for (int i = 0; i < 2000; ++i) {
    in.push_back(static_cast<int64_t>(rng.NextUint64()));
  }
  EXPECT_EQ(RoundTripInts(in), in);
}

std::vector<double> RoundTripDoubles(const std::vector<double>& in) {
  BufferWriter w;
  engine::EncodeDoubles(in, &w);
  BufferReader r(w.bytes().data(), w.size());
  auto out = engine::DecodeDoubles(&r);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(r.Remaining(), 0u);
  return std::move(out).MoveValueUnsafe();
}

TEST(DoubleCodecTest, BitExactSpecials) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> in = {0.0, -0.0, nan, -nan, inf, -inf,
                                  std::numeric_limits<double>::denorm_min(),
                                  std::numeric_limits<double>::max(), 1.25};
  std::vector<double> out = RoundTripDoubles(in);
  ASSERT_EQ(out.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    uint64_t a, b;
    std::memcpy(&a, &in[i], 8);
    std::memcpy(&b, &out[i], 8);
    EXPECT_EQ(a, b) << "slot " << i << " not bit-identical";
  }
}

TEST(DoubleCodecTest, RepeatedValuesCompress) {
  std::vector<double> in(10000, 3.14159);
  BufferWriter w;
  Codec c = engine::EncodeDoubles(in, &w);
  EXPECT_EQ(c, Codec::kXorDouble);
  EXPECT_LT(w.size(), in.size() * sizeof(double) / 4);
  EXPECT_EQ(RoundTripDoubles(in), in);
}

TEST(DoubleCodecTest, EmptyColumn) {
  EXPECT_TRUE(RoundTripDoubles({}).empty());
}

std::vector<uint8_t> RoundTripBools(const std::vector<uint8_t>& in,
                                    Codec* chosen = nullptr) {
  BufferWriter w;
  Codec c = engine::EncodeBools(in, &w);
  if (chosen != nullptr) *chosen = c;
  BufferReader r(w.bytes().data(), w.size());
  auto out = engine::DecodeBools(&r);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(r.Remaining(), 0u);
  return std::move(out).MoveValueUnsafe();
}

TEST(BoolCodecTest, SingleRunRle) {
  std::vector<uint8_t> in(100000, 1);
  Codec chosen = Codec::kRaw;
  EXPECT_EQ(RoundTripBools(in, &chosen), in);
  EXPECT_EQ(chosen, Codec::kRle);

  BufferWriter w;
  engine::EncodeBools(in, &w);
  // One run: header + (value byte, varint run) — a handful of bytes.
  EXPECT_LT(w.size(), 16u);
}

TEST(BoolCodecTest, AlternatingBitsFallBackToRaw) {
  std::vector<uint8_t> in;
  for (int i = 0; i < 257; ++i) in.push_back(static_cast<uint8_t>(i & 1));
  Codec chosen = Codec::kRle;
  EXPECT_EQ(RoundTripBools(in, &chosen), in);
  EXPECT_EQ(chosen, Codec::kRaw);
}

TEST(BoolCodecTest, EmptyColumn) {
  EXPECT_TRUE(RoundTripBools({}).empty());
}

std::vector<std::string> RoundTripStrings(const std::vector<std::string>& in,
                                          Codec* chosen = nullptr) {
  BufferWriter w;
  Codec c = engine::EncodeStrings(in, &w);
  if (chosen != nullptr) *chosen = c;
  BufferReader r(w.bytes().data(), w.size());
  auto out = engine::DecodeStrings(&r);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(r.Remaining(), 0u);
  return std::move(out).MoveValueUnsafe();
}

TEST(StringCodecTest, LowCardinalityChoosesDict) {
  const std::vector<std::string> sites = {"athens", "paris", "madrid"};
  std::vector<std::string> in;
  for (int i = 0; i < 9000; ++i) in.push_back(sites[i % sites.size()]);
  Codec chosen = Codec::kRaw;
  EXPECT_EQ(RoundTripStrings(in, &chosen), in);
  EXPECT_EQ(chosen, Codec::kDict);

  BufferWriter w;
  engine::EncodeStrings(in, &w);
  size_t raw = 0;
  for (const auto& s : in) raw += 4 + s.size();
  EXPECT_LT(w.size() * 4, raw);  // at least 4x smaller on this shape
}

TEST(StringCodecTest, DictSpillsToRawPastMaxEntries) {
  // More distinct values than kDictMaxEntries: dictionary must spill and
  // the encoder fall back to raw, still losslessly.
  std::vector<std::string> in;
  in.reserve(engine::kDictMaxEntries + 100);
  for (size_t i = 0; i < engine::kDictMaxEntries + 100; ++i) {
    in.push_back("v" + std::to_string(i));
  }
  Codec chosen = Codec::kDict;
  EXPECT_EQ(RoundTripStrings(in, &chosen), in);
  EXPECT_EQ(chosen, Codec::kRaw);
}

TEST(StringCodecTest, EmptyAndEmptyStrings) {
  EXPECT_TRUE(RoundTripStrings({}).empty());
  const std::vector<std::string> in = {"", "", "x", ""};
  EXPECT_EQ(RoundTripStrings(in), in);
}

TEST(ValidityCodecTest, RoundTripsMixedBits) {
  Bitmap bm(1000, true);
  for (size_t i = 0; i < 1000; i += 7) bm.Set(i, false);
  BufferWriter w;
  engine::EncodeValidity(bm, &w);
  BufferReader r(w.bytes().data(), w.size());
  auto out = engine::DecodeValidity(&r);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const Bitmap& got = out.ValueOrDie();
  ASSERT_EQ(got.length(), bm.length());
  for (size_t i = 0; i < bm.length(); ++i) {
    EXPECT_EQ(got.Get(i), bm.Get(i)) << "bit " << i;
  }
}

TEST(ValidityCodecTest, AllNullCompressesToOneRun) {
  Bitmap bm(50000, false);
  BufferWriter w;
  Codec c = engine::EncodeValidity(bm, &w);
  EXPECT_EQ(c, Codec::kRle);
  EXPECT_LT(w.size(), 16u);
  BufferReader r(w.bytes().data(), w.size());
  auto out = engine::DecodeValidity(&r);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.ValueOrDie().length(), 50000u);
  EXPECT_EQ(out.ValueOrDie().CountSet(), 0u);
}

// --------------------------------------------------------------------------
// Container-level: v2 table serialization.

Table MakeMixedTable(size_t rows, bool with_nulls) {
  Schema schema;
  EXPECT_TRUE(schema.AddField({"site", DataType::kString}).ok());
  EXPECT_TRUE(schema.AddField({"visits", DataType::kInt64}).ok());
  EXPECT_TRUE(schema.AddField({"score", DataType::kFloat64}).ok());
  EXPECT_TRUE(schema.AddField({"flag", DataType::kBool}).ok());
  Table t = Table::Empty(schema);
  const std::vector<std::string> sites = {"athens", "paris", "madrid",
                                          "lyon"};
  for (size_t i = 0; i < rows; ++i) {
    std::vector<Value> row;
    if (with_nulls && i % 11 == 0) {
      row = {Value::Null(), Value::Int(static_cast<int64_t>(i)),
             Value::Null(), Value::Bool(i % 2 == 0)};
    } else {
      row = {Value::String(sites[i % sites.size()]),
             Value::Int(static_cast<int64_t>(1000 + i)),
             Value::Double(0.25 * static_cast<double>(i % 17)),
             Value::Bool(i % 3 == 0)};
    }
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.schema().field(c).name, b.schema().field(c).name);
    ASSERT_EQ(a.schema().field(c).type, b.schema().field(c).type);
    for (size_t i = 0; i < a.num_rows(); ++i) {
      EXPECT_EQ(a.column(c).IsValid(i), b.column(c).IsValid(i))
          << "col " << c << " row " << i;
      if (!a.column(c).IsValid(i)) continue;
      switch (a.schema().field(c).type) {
        case DataType::kInt64:
          EXPECT_EQ(a.column(c).IntAt(i), b.column(c).IntAt(i));
          break;
        case DataType::kFloat64: {
          uint64_t x, y;
          const double da = a.column(c).DoubleAt(i);
          const double db = b.column(c).DoubleAt(i);
          std::memcpy(&x, &da, 8);
          std::memcpy(&y, &db, 8);
          EXPECT_EQ(x, y) << "col " << c << " row " << i;
          break;
        }
        case DataType::kBool:
          EXPECT_EQ(a.column(c).BoolAt(i), b.column(c).BoolAt(i));
          break;
        case DataType::kString:
          EXPECT_EQ(a.column(c).StringAt(i), b.column(c).StringAt(i));
          break;
      }
    }
  }
}

TEST(TableWireV2Test, RoundTripsAndShrinks) {
  Table t = MakeMixedTable(5000, /*with_nulls=*/true);
  BufferWriter v2;
  engine::SerializeTableForWire(t, &v2);
  const size_t raw = engine::RawTableWireBytes(t);
  EXPECT_LT(v2.size(), raw / 2) << "expected >=2x reduction on this shape";
  // The raw side of the ledger is exactly the fixed-width layout's size.
  BufferWriter fixed;
  engine::SerializeTable(t, &fixed);
  EXPECT_EQ(fixed.size(), raw);

  BufferReader r(v2.bytes().data(), v2.size());
  auto back = engine::DeserializeTable(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectTablesEqual(t, back.ValueOrDie());
}

TEST(TableWireV2Test, NeverLargerThanRawEvenWhenIncompressible) {
  // Random doubles do not compress; the measured fallback keeps the column
  // block raw, so the wire size never exceeds the fixed-width size.
  Rng rng(0xD0B1E);
  Schema schema;
  ASSERT_TRUE(schema.AddField({"x", DataType::kFloat64}).ok());
  Table t = Table::Empty(schema);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value::Double(rng.NextDouble() * 1e9)}).ok());
  }
  BufferWriter w;
  engine::SerializeTableForWire(t, &w);
  EXPECT_LE(w.size(), engine::RawTableWireBytes(t));
  BufferReader r(w.bytes().data(), w.size());
  auto back = engine::DeserializeTable(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectTablesEqual(t, back.ValueOrDie());
}

TEST(TableWireV2Test, EmptyAndAllNullTables) {
  Schema schema;
  ASSERT_TRUE(schema.AddField({"a", DataType::kInt64}).ok());
  ASSERT_TRUE(schema.AddField({"b", DataType::kString}).ok());
  Table empty = Table::Empty(schema);
  BufferWriter w;
  engine::SerializeTableForWire(empty, &w);
  BufferReader r(w.bytes().data(), w.size());
  auto back = engine::DeserializeTable(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.ValueOrDie().num_rows(), 0u);
  EXPECT_EQ(back.ValueOrDie().num_columns(), 2u);

  Table nulls = Table::Empty(schema);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(nulls.AppendRow({Value::Null(), Value::Null()}).ok());
  }
  BufferWriter w2;
  engine::SerializeTableForWire(nulls, &w2);
  BufferReader r2(w2.bytes().data(), w2.size());
  auto back2 = engine::DeserializeTable(&r2);
  ASSERT_TRUE(back2.ok()) << back2.status().ToString();
  ExpectTablesEqual(nulls, back2.ValueOrDie());
}

// --------------------------------------------------------------------------
// Container-level: v2 TransferData.

TransferData MakeRichTransfer() {
  TransferData t;
  t.PutString("algo", "linreg");
  t.PutStringList("datasets", {"cohort_a", "cohort_b"});
  t.PutScalar("n", 128.0);
  std::vector<double> weights(600, 0.125);
  weights[7] = -3.5;
  t.PutVector("weights", weights);
  auto m = stats::Matrix::FromFlat(2, 2, {1.0, 2.0, 3.0, 4.0});
  t.PutMatrix("xtx", m.ValueOrDie());
  t.PutTable("sample", MakeMixedTable(400, /*with_nulls=*/true));
  return t;
}

TEST(TransferWireV2Test, RoundTripsAndNeverExceedsRaw) {
  TransferData t = MakeRichTransfer();
  BufferWriter v1;
  t.Serialize(&v1);
  EXPECT_EQ(v1.size(), t.RawSerializedBytes());
  EXPECT_EQ(v1.size(), t.SerializedBytes());

  BufferWriter v2;
  t.SerializeForWire(&v2);
  EXPECT_LE(v2.size(), v1.size());
  EXPECT_LT(v2.size(), v1.size());  // this payload is compressible

  BufferReader r(v2.bytes().data(), v2.size());
  auto back = TransferData::Deserialize(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const TransferData& b = back.ValueOrDie();
  EXPECT_EQ(b.GetString("algo").ValueOrDie(), "linreg");
  EXPECT_EQ(b.GetScalar("n").ValueOrDie(), 128.0);
  EXPECT_EQ(b.GetVector("weights").ValueOrDie(),
            t.GetVector("weights").ValueOrDie());
  ExpectTablesEqual(t.tables().at("sample"), b.tables().at("sample"));

  // Re-serializing the decoded transfer in v1 must be byte-identical to the
  // original v1 bytes: the codec path is lossless end to end.
  BufferWriter again;
  b.Serialize(&again);
  EXPECT_EQ(again.bytes(), v1.bytes());
}

TEST(TransferWireV2Test, TinyTransferFallsBackToV1) {
  // A single scalar cannot amortize the v2 magic; the measured container
  // fallback must emit v1 bytes, keeping wire <= raw unconditionally.
  TransferData t;
  t.PutScalar("count", 42.0);
  BufferWriter v1;
  t.Serialize(&v1);
  BufferWriter v2;
  t.SerializeForWire(&v2);
  EXPECT_EQ(v1.bytes(), v2.bytes());
}

// --------------------------------------------------------------------------
// Pinned wire bytes: the size and CRC32 of every layout the table and
// transfer writers produce. A change here is a wire format change.

/// Four types, seeded values, NULLs over non-canonical storage (SetValidity
/// keeps whatever the vectors hold under a null), NaN, -0.0 and "".
Table MakeWirePinnedTable() {
  Rng rng(0x51EE7);
  const size_t n = 300;
  const std::vector<std::string> words = {"", "athens", "lyon", "madrid"};
  std::vector<uint8_t> flags;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  for (size_t i = 0; i < n; ++i) {
    flags.push_back(static_cast<uint8_t>(rng.NextBounded(2)));
    ints.push_back(static_cast<int64_t>(rng.NextBounded(1u << 20)) - 4000);
    double d = 0.25 * static_cast<double>(rng.NextBounded(64));
    if (i % 29 == 0) d = std::numeric_limits<double>::quiet_NaN();
    if (i % 31 == 0) d = -0.0;
    doubles.push_back(d);
    strings.push_back(words[rng.NextBounded(words.size())]);
  }
  auto nulls_every = [n](Column col, size_t stride) {
    Bitmap bm(n, true);
    for (size_t i = 0; i < n; i += stride) bm.Set(i, false);
    EXPECT_TRUE(col.SetValidity(std::move(bm)).ok());
    return col;
  };
  auto t = Table::Make(Schema({{"flag", DataType::kBool},
                               {"visits", DataType::kInt64},
                               {"score", DataType::kFloat64},
                               {"site", DataType::kString}}),
                       {Column::FromBools(flags),
                        nulls_every(Column::FromInts(ints), 7),
                        nulls_every(Column::FromDoubles(doubles), 5),
                        nulls_every(Column::FromStrings(strings), 3)});
  EXPECT_TRUE(t.ok());
  return t.ValueOrDie();
}

TransferData MakeWirePinnedTransfer() {
  TransferData t;
  t.PutString("algo", "linreg");
  t.PutString("empty", "");
  t.PutStringList("datasets", {"cohort_a", "", "cohort_b"});
  t.PutScalar("n", 128.0);
  t.PutScalar("neg_zero", -0.0);
  std::vector<double> weights(200, 0.125);
  weights[7] = std::numeric_limits<double>::quiet_NaN();
  t.PutVector("weights", weights);
  t.PutMatrix("xtx",
              stats::Matrix::FromFlat(2, 3, {1.0, 2.0, 3.0, 4.0, -0.0, 6.0})
                  .ValueOrDie());
  t.PutTable("sample", MakeWirePinnedTable());
  return t;
}

struct PinnedBytes {
  size_t size;
  uint32_t crc;
};

constexpr PinnedBytes kPinnedTableV1{7675, 0x76FA699Du};
constexpr PinnedBytes kPinnedTableV2{4102, 0x2101BF6Au};
constexpr PinnedBytes kPinnedEmptyTableV1{61, 0xD5D5E562u};
constexpr PinnedBytes kPinnedEmptyTableWire{48, 0xA8C6DFECu};
constexpr PinnedBytes kPinnedTransferV1{9499, 0x9B72648Fu};
constexpr PinnedBytes kPinnedTransferV2{4552, 0x2FAA0E7Eu};
constexpr PinnedBytes kPinnedScalarTransfer{57, 0x7E7E7A21u};

void ExpectBytesAre(const std::vector<uint8_t>& bytes, PinnedBytes pin,
                    const char* what) {
  EXPECT_EQ(bytes.size(), pin.size) << what;
  EXPECT_EQ(Crc32(bytes), pin.crc)
      << what << ": crc 0x" << std::hex << Crc32(bytes);
}

bool StartsWith(const std::vector<uint8_t>& bytes, uint32_t magic) {
  uint32_t head = 0;
  if (bytes.size() >= sizeof(head)) std::memcpy(&head, bytes.data(), 4);
  return head == magic;
}

/// Decodes `bytes` with DeserializeTable and re-encodes the result with
/// `encode`: the codec path is lossless, storage under NULLs included.
template <typename Encode>
std::vector<uint8_t> TableRoundTrip(const std::vector<uint8_t>& bytes,
                                    Encode encode) {
  BufferReader r(bytes);
  auto back = engine::DeserializeTable(&r);
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  BufferWriter w;
  if (back.ok()) encode(back.ValueOrDie(), &w);
  return w.TakeBytes();
}

template <typename Encode>
std::vector<uint8_t> TransferRoundTrip(const std::vector<uint8_t>& bytes,
                                       Encode encode) {
  BufferReader r(bytes);
  auto back = TransferData::Deserialize(&r);
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  BufferWriter w;
  if (back.ok()) encode(back.ValueOrDie(), &w);
  return w.TakeBytes();
}

TEST(WireBytesTest, TableLayoutsArePinned) {
  const Table t = MakeWirePinnedTable();
  BufferWriter v1, v2;
  engine::SerializeTable(t, &v1);
  engine::SerializeTableForWire(t, &v2);
  ASSERT_TRUE(StartsWith(v2.bytes(), engine::kTableWireMagic));
  ExpectBytesAre(v1.bytes(), kPinnedTableV1, "table v1");
  ExpectBytesAre(v2.bytes(), kPinnedTableV2, "table v2");
  EXPECT_EQ(engine::RawTableWireBytes(t), kPinnedTableV1.size);

  EXPECT_EQ(TableRoundTrip(v1.bytes(), engine::SerializeTable), v1.bytes());
  EXPECT_EQ(TableRoundTrip(v2.bytes(), engine::SerializeTableForWire),
            v2.bytes());
  // Either layout decodes to the same table: v2 -> v1 gives the v1 bytes.
  EXPECT_EQ(TableRoundTrip(v2.bytes(), engine::SerializeTable), v1.bytes());
}

TEST(WireBytesTest, EmptyTableLayoutsArePinned) {
  const Table t = Table::Empty(Schema({{"id", DataType::kInt64},
                                       {"name", DataType::kString},
                                       {"x", DataType::kFloat64},
                                       {"ok", DataType::kBool}}));
  BufferWriter v1, wire;
  engine::SerializeTable(t, &v1);
  engine::SerializeTableForWire(t, &wire);
  ExpectBytesAre(v1.bytes(), kPinnedEmptyTableV1, "empty table v1");
  ExpectBytesAre(wire.bytes(), kPinnedEmptyTableWire, "empty table wire");
  EXPECT_EQ(engine::RawTableWireBytes(t), kPinnedEmptyTableV1.size);
  EXPECT_EQ(TableRoundTrip(v1.bytes(), engine::SerializeTable), v1.bytes());
  EXPECT_EQ(TableRoundTrip(wire.bytes(), engine::SerializeTableForWire),
            wire.bytes());
}

TEST(WireBytesTest, TransferLayoutsArePinned) {
  const TransferData t = MakeWirePinnedTransfer();
  BufferWriter v1, v2;
  t.Serialize(&v1);
  t.SerializeForWire(&v2);
  ASSERT_TRUE(StartsWith(v2.bytes(), federation::kTransferWireMagic));
  ExpectBytesAre(v1.bytes(), kPinnedTransferV1, "transfer v1");
  ExpectBytesAre(v2.bytes(), kPinnedTransferV2, "transfer v2");
  EXPECT_EQ(t.RawSerializedBytes(), kPinnedTransferV1.size);
  EXPECT_EQ(t.SerializedBytes(), kPinnedTransferV1.size);

  auto v1_again = [](const TransferData& d, BufferWriter* w) {
    d.Serialize(w);
  };
  auto wire_again = [](const TransferData& d, BufferWriter* w) {
    d.SerializeForWire(w);
  };
  EXPECT_EQ(TransferRoundTrip(v1.bytes(), v1_again), v1.bytes());
  EXPECT_EQ(TransferRoundTrip(v2.bytes(), wire_again), v2.bytes());
  EXPECT_EQ(TransferRoundTrip(v2.bytes(), v1_again), v1.bytes());
}

TEST(WireBytesTest, ScalarOnlyTransferFallsBackToPinnedV1) {
  TransferData t;
  t.PutScalar("count", 42.0);
  t.PutScalar("mean", -0.0);
  BufferWriter v1, wire;
  t.Serialize(&v1);
  t.SerializeForWire(&wire);
  EXPECT_EQ(wire.bytes(), v1.bytes());
  ExpectBytesAre(v1.bytes(), kPinnedScalarTransfer, "scalar-only transfer");
  EXPECT_EQ(t.RawSerializedBytes(), kPinnedScalarTransfer.size);
  auto v1_again = [](const TransferData& d, BufferWriter* w) {
    d.Serialize(w);
  };
  EXPECT_EQ(TransferRoundTrip(v1.bytes(), v1_again), v1.bytes());
}

// --------------------------------------------------------------------------
// Mutation fuzz: the new decoders must survive arbitrary corruption with a
// clean Status (no crash, no over-read — ASan/UBSan enforce in CI).

template <typename DecodeFn>
void FuzzBlock(const std::vector<uint8_t>& good, uint64_t seed,
               DecodeFn decode) {
  ASSERT_FALSE(good.empty());
  for (size_t cut = 0; cut < good.size(); ++cut) {
    BufferReader r(good.data(), cut);
    decode(&r);
  }
  Rng rng(seed);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<uint8_t> bad = good;
    const size_t pos = static_cast<size_t>(rng.NextBounded(bad.size()));
    bad[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    BufferReader r(bad.data(), bad.size());
    decode(&r);
  }
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint8_t> bad = good;
    for (int k = 0; k < 8; ++k) {
      const size_t pos = static_cast<size_t>(rng.NextBounded(bad.size()));
      bad[pos] = static_cast<uint8_t>(rng.NextBounded(256));
    }
    BufferReader r(bad.data(), bad.size());
    decode(&r);
  }
}

TEST(CodecFuzzTest, IntBlocksNeverCrash) {
  std::vector<int64_t> vals;
  for (int64_t i = 0; i < 300; ++i) vals.push_back(i * 13 - 700);
  BufferWriter w;
  engine::EncodeInts(vals, &w);
  FuzzBlock(w.bytes(), 0xA11CE,
            [](BufferReader* r) { (void)engine::DecodeInts(r); });
}

TEST(CodecFuzzTest, DoubleBlocksNeverCrash) {
  std::vector<double> vals;
  for (int i = 0; i < 300; ++i) vals.push_back(0.5 * i);
  BufferWriter w;
  engine::EncodeDoubles(vals, &w);
  FuzzBlock(w.bytes(), 0xB0B,
            [](BufferReader* r) { (void)engine::DecodeDoubles(r); });
}

TEST(CodecFuzzTest, BoolBlocksNeverCrash) {
  std::vector<uint8_t> vals(300, 1);
  for (int i = 100; i < 200; ++i) vals[i] = 0;
  BufferWriter w;
  engine::EncodeBools(vals, &w);
  FuzzBlock(w.bytes(), 0xCAFE,
            [](BufferReader* r) { (void)engine::DecodeBools(r); });
}

TEST(CodecFuzzTest, StringBlocksNeverCrash) {
  std::vector<std::string> vals;
  for (int i = 0; i < 300; ++i) vals.push_back(i % 2 ? "aa" : "bbbb");
  BufferWriter w;
  engine::EncodeStrings(vals, &w);
  FuzzBlock(w.bytes(), 0xD1C7,
            [](BufferReader* r) { (void)engine::DecodeStrings(r); });
}

TEST(CodecFuzzTest, ValidityBlocksNeverCrash) {
  Bitmap bm(300, true);
  for (size_t i = 0; i < 300; i += 3) bm.Set(i, false);
  BufferWriter w;
  engine::EncodeValidity(bm, &w);
  FuzzBlock(w.bytes(), 0xF1A6,
            [](BufferReader* r) { (void)engine::DecodeValidity(r); });
}

TEST(CodecFuzzTest, TableV2ContainerNeverCrashes) {
  Table t = MakeMixedTable(64, /*with_nulls=*/true);
  BufferWriter w;
  engine::SerializeTableForWire(t, &w);
  // This shape compresses, so the container really is v2 on the wire.
  ASSERT_LT(w.size(), engine::RawTableWireBytes(t));
  FuzzBlock(w.bytes(), 0x7AB2,
            [](BufferReader* r) { (void)engine::DeserializeTable(r); });
}

TEST(CodecFuzzTest, TransferV2ContainerNeverCrashes) {
  TransferData t = MakeRichTransfer();
  BufferWriter w;
  t.SerializeForWire(&w);
  ASSERT_LT(w.size(), t.RawSerializedBytes());
  FuzzBlock(w.bytes(), 0x7F43,
            [](BufferReader* r) { (void)TransferData::Deserialize(r); });
}

TEST(CodecFuzzTest, TableV1LayoutNeverCrashes) {
  // DeserializeTable reads both layouts in one walk; the fixed-width branch
  // gets the same truncation and corruption as the compressed one.
  Table t = MakeMixedTable(64, /*with_nulls=*/true);
  BufferWriter w;
  engine::SerializeTable(t, &w);
  FuzzBlock(w.bytes(), 0x7AB1,
            [](BufferReader* r) { (void)engine::DeserializeTable(r); });
}

TEST(CodecFuzzTest, TransferV1LayoutNeverCrashes) {
  TransferData t = MakeRichTransfer();
  BufferWriter w;
  t.Serialize(&w);
  FuzzBlock(w.bytes(), 0x7F41,
            [](BufferReader* r) { (void)TransferData::Deserialize(r); });
}

}  // namespace
}  // namespace mip
