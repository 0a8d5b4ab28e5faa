// Disk-backed segment store: segment round-trip byte identity, zone-map
// pruning parity against the in-memory engine, LSM ingest + crash recovery
// (torn WAL tails, orphaned segments), hardened readers over corrupted
// files, EXPLAIN segment accounting, and typed kIOError propagation.
//
// Ordered secondary indexes inside the segment file (probe-vs-brute-force
// parity, a flipped index byte falls back to the scan path and never
// changes results), background compaction (order-preserving byte identity,
// kill-between-every-step crash recovery), the Scan-vs-IndexScan
// access-path rule (EXPLAIN surface, byte parity at 1 and 8 threads),
// storage counters, and opening directories of earlier formats.

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>
#include <sys/stat.h>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "engine/encoding.h"
#include "engine/exec_context.h"
#include "engine/expr.h"
#include "engine/sql_parser.h"
#include "engine/table.h"
#include "net/frame.h"
#include "storage/compaction.h"
#include "storage/index.h"
#include "storage/io.h"
#include "storage/manifest.h"
#include "storage/segment.h"
#include "storage/store.h"
#include "storage/wal.h"

namespace mip {
namespace {

using engine::Bitmap;
using engine::Column;
using engine::DataType;
using engine::Database;
using engine::Field;
using engine::Schema;
using engine::Table;
using engine::Value;
using storage::BuildKeyInterval;
using storage::CompactionHooks;
using storage::RestoreGroupOrder;
using storage::SchemaWithPos;
using storage::IndexDirectory;
using storage::KeyInterval;
using storage::ProbeIndex;
using storage::PruneConjunct;
using storage::SegmentFooter;
using storage::StorageEngine;
using storage::StorageOptions;
using storage::VerifyIndex;

std::string TestDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "mip_storage_" + name;
  // Fresh directory per test: nuke leftovers from earlier runs.
  if (storage::FileExists(dir)) {
    auto names = storage::ListDir(dir);
    if (names.ok()) {
      for (const std::string& f : names.ValueOrDie()) {
        (void)storage::RemoveFile(dir + "/" + f);
      }
    }
  }
  EXPECT_TRUE(storage::EnsureDir(dir).ok());
  return dir;
}

std::vector<uint8_t> TableBytes(const Table& t) {
  BufferWriter w;
  engine::SerializeTable(t, &w);
  return w.bytes();
}

/// Writes `bytes` at `offset` of `path` in place: no O_TRUNC, no fsync, so
/// the corruption sweeps, which patch one file thousands of times, never
/// free its blocks.
void PatchFile(const std::string& path, uint64_t offset,
               const std::vector<uint8_t>& bytes) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good()) << path;
}

/// Sets byte `pos` of `path` to `good[pos] ^ mask` (mask 0 restores it).
void FlipByte(const std::string& path, const std::vector<uint8_t>& good,
              size_t pos, uint8_t mask) {
  PatchFile(path, pos, {static_cast<uint8_t>(good[pos] ^ mask)});
}

/// Appends `bytes` at the end of `path`, creating it when absent.
void AppendBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::app);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good()) << path;
}

uint64_t Inode(const std::string& path) {
  struct stat st{};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return static_cast<uint64_t>(st.st_ino);
}

/// All four types; NULLs, NaN, -0.0, int64 extremes, empty strings. Null
/// slots hold the engine's canonical placeholders (0 / NaN / "") — the
/// invariant every engine path (Concat, Take, AppendRow) maintains.
Table MakeGnarlyTable() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema schema({{"i", DataType::kInt64},
                 {"d", DataType::kFloat64},
                 {"b", DataType::kBool},
                 {"s", DataType::kString}});
  Column ci = Column::FromInts({std::numeric_limits<int64_t>::min(), 0, 0, 7,
                                std::numeric_limits<int64_t>::max(), 42});
  Bitmap vi(6, true);
  vi.Set(1, false);
  EXPECT_TRUE(ci.SetValidity(vi).ok());
  Column cd = Column::FromDoubles({-0.0, nan, 1.5, -1e300, nan, nan});
  Bitmap vd(6, true);
  vd.Set(4, false);
  EXPECT_TRUE(cd.SetValidity(vd).ok());
  Column cb = Column::FromBools({1, 0, 1, 1, 0, 0});
  Bitmap vb(6, true);
  vb.Set(5, false);
  EXPECT_TRUE(cb.SetValidity(vb).ok());
  Column cs = Column::FromStrings({"", "alpha", "", "zeta", "alpha", "m"});
  Bitmap vs(6, true);
  vs.Set(0, false);
  EXPECT_TRUE(cs.SetValidity(vs).ok());
  auto t = Table::Make(schema, {ci, cd, cb, cs});
  EXPECT_TRUE(t.ok());
  return t.ValueOrDie();
}

/// Larger typed table for codec + multi-segment coverage: `id` ascending
/// (so segments have disjoint id ranges), `val` noisy doubles with NaNs,
/// `cat` low-cardinality strings, `flag` bools.
Table MakeEventsTable(int64_t start, int64_t count) {
  std::vector<int64_t> ids;
  std::vector<double> vals;
  std::vector<std::string> cats;
  std::vector<uint8_t> flags;
  for (int64_t i = start; i < start + count; ++i) {
    ids.push_back(i);
    if (i % 97 == 3) {
      vals.push_back(std::numeric_limits<double>::quiet_NaN());
    } else if (i % 101 == 5) {
      vals.push_back(-0.0);
    } else {
      vals.push_back(static_cast<double>((i * 37) % 1000) / 8.0 - 40.0);
    }
    cats.push_back("cat_" + std::to_string(i / 100));
    flags.push_back(static_cast<uint8_t>(i % 3 == 0));
  }
  Schema schema({{"id", DataType::kInt64},
                 {"val", DataType::kFloat64},
                 {"cat", DataType::kString},
                 {"flag", DataType::kBool}});
  Bitmap v(static_cast<size_t>(count), true);
  for (int64_t i = 0; i < count; ++i) {
    if ((start + i) % 113 == 7) {
      v.Set(static_cast<size_t>(i), false);
      // Canonical null placeholder, as every engine path maintains.
      vals[static_cast<size_t>(i)] = std::numeric_limits<double>::quiet_NaN();
    }
  }
  Column cv = Column::FromDoubles(vals);
  EXPECT_TRUE(cv.SetValidity(v).ok());
  auto t = Table::Make(schema, {Column::FromInts(ids), cv,
                                Column::FromStrings(cats),
                                Column::FromBools(flags)});
  EXPECT_TRUE(t.ok());
  return t.ValueOrDie();
}

/// Unsorted high-cardinality table — the shape indexes exist for. `key` is
/// a Fibonacci-hash permutation (every value distinct, no two neighbors
/// close), so every segment's zone map spans nearly the full key range and
/// zone pruning alone is useless; `val` carries NULLs and NaNs; `grp` is
/// low-cardinality.
Table MakeKeyedTable(int64_t start, int64_t count) {
  std::vector<int64_t> keys;
  std::vector<double> vals;
  std::vector<std::string> grps;
  for (int64_t i = start; i < start + count; ++i) {
    keys.push_back((i * 2654435761LL) % 1000003);
    vals.push_back(i % 89 == 2 ? std::numeric_limits<double>::quiet_NaN()
                               : static_cast<double>((i * 53) % 500) / 4.0);
    grps.push_back("g" + std::to_string(i % 7));
  }
  Schema schema({{"key", DataType::kInt64},
                 {"val", DataType::kFloat64},
                 {"grp", DataType::kString}});
  Bitmap v(static_cast<size_t>(count), true);
  for (int64_t i = 0; i < count; ++i) {
    if ((start + i) % 97 == 11) {
      v.Set(static_cast<size_t>(i), false);
      vals[static_cast<size_t>(i)] = std::numeric_limits<double>::quiet_NaN();
    }
  }
  Column cv = Column::FromDoubles(vals);
  EXPECT_TRUE(cv.SetValidity(v).ok());
  auto t = Table::Make(schema, {Column::FromInts(keys), cv,
                                Column::FromStrings(grps)});
  EXPECT_TRUE(t.ok());
  return t.ValueOrDie();
}

/// Index files of the previous storage format; no store writes one now.
std::vector<std::string> IndexFiles(const std::string& dir) {
  std::vector<std::string> out;
  auto names = storage::ListDir(dir);
  EXPECT_TRUE(names.ok());
  for (const std::string& n : names.ValueOrDie()) {
    if (n.rfind("idx-", 0) == 0) out.push_back(dir + "/" + n);
  }
  return out;
}

/// Full index audit of the segment at `path`, through its on-disk footer.
Status AuditSegment(const std::string& path) {
  MIP_ASSIGN_OR_RETURN(SegmentFooter footer, storage::ReadSegmentFooter(path));
  return VerifyIndex(path, footer);
}

/// The byte range [first, second) of a segment's index blocks: from the end
/// of its last column block to the end of its last directory block.
std::pair<uint64_t, uint64_t> IndexRegion(const SegmentFooter& footer) {
  std::pair<uint64_t, uint64_t> region{0, 0};
  for (const storage::SegmentColumn& col : footer.columns) {
    region.first = std::max(region.first, col.block.offset + col.block.length);
  }
  for (const storage::SegmentIndex& index : footer.indexes) {
    region.second = std::max(region.second,
                             index.directory.offset + index.directory.length);
  }
  return region;
}

std::string ExplainText(Database* db, const std::string& sql) {
  auto r = db->ExecuteSql("EXPLAIN " + sql);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  std::string out;
  const Table& t = r.ValueOrDie();
  for (size_t i = 0; i < t.num_rows(); ++i) {
    out += t.At(i, 0).string_value();
    out += "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Segment format
// ---------------------------------------------------------------------------

TEST(SegmentTest, RoundTripByteIdenticalAllTypes) {
  const std::string dir = TestDir("seg_roundtrip");
  const Table original = MakeGnarlyTable();
  auto footer = storage::WriteSegment(dir + "/seg-0.mip", original);
  ASSERT_TRUE(footer.ok()) << footer.status().ToString();
  EXPECT_EQ(footer.ValueOrDie().num_rows, 6u);

  auto read = storage::ReadSegment(dir + "/seg-0.mip");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  // Byte identity through the v2 wire serializer: same schema, same values,
  // same validity, same NaN payload bits and -0.0 signs.
  EXPECT_EQ(TableBytes(original), TableBytes(read.ValueOrDie()));
}

TEST(SegmentTest, RoundTripLargeTableThroughCodecs) {
  const std::string dir = TestDir("seg_large");
  const Table original = MakeEventsTable(0, 8000);
  auto footer = storage::WriteSegment(dir + "/seg-0.mip", original);
  ASSERT_TRUE(footer.ok()) << footer.status().ToString();
  auto read = storage::ReadSegment(dir + "/seg-0.mip");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(TableBytes(original), TableBytes(read.ValueOrDie()));
}

TEST(SegmentTest, ZoneMapsTrackRangesNullsAndNan) {
  const std::string dir = TestDir("seg_zones");
  const Table t = MakeGnarlyTable();
  auto footer = storage::WriteSegment(dir + "/seg-0.mip", t);
  ASSERT_TRUE(footer.ok());
  const SegmentFooter& f = footer.ValueOrDie();
  ASSERT_EQ(f.columns.size(), 4u);

  const storage::ZoneMap& zi = f.columns[0].zone;
  EXPECT_EQ(zi.null_count, 1u);
  EXPECT_TRUE(zi.has_range);
  EXPECT_EQ(zi.min_i, std::numeric_limits<int64_t>::min());
  EXPECT_EQ(zi.max_i, std::numeric_limits<int64_t>::max());

  const storage::ZoneMap& zd = f.columns[1].zone;
  EXPECT_EQ(zd.null_count, 1u);
  EXPECT_TRUE(zd.has_nan);   // row 1 (valid NaN) and row 5
  EXPECT_TRUE(zd.has_range);  // non-NaN values exist
  EXPECT_EQ(zd.min_d, -1e300);
  EXPECT_EQ(zd.max_d, 1.5);

  const storage::ZoneMap& zs = f.columns[3].zone;
  EXPECT_EQ(zs.null_count, 1u);
  EXPECT_EQ(zs.min_s, "");
  EXPECT_EQ(zs.max_s, "zeta");
}

TEST(SegmentTest, AllNullAndAllNanColumns) {
  const std::string dir = TestDir("seg_allnull");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema schema({{"n", DataType::kFloat64}, {"x", DataType::kFloat64}});
  Column cn = Column::FromDoubles({0.0, 0.0});
  Bitmap v(2, false);
  ASSERT_TRUE(cn.SetValidity(v).ok());
  Column cx = Column::FromDoubles({nan, nan});
  auto t = Table::Make(schema, {cn, cx});
  ASSERT_TRUE(t.ok());
  auto footer = storage::WriteSegment(dir + "/seg-0.mip", t.ValueOrDie());
  ASSERT_TRUE(footer.ok());
  const SegmentFooter& f = footer.ValueOrDie();
  EXPECT_EQ(f.columns[0].zone.null_count, 2u);
  EXPECT_FALSE(f.columns[0].zone.has_range);
  EXPECT_FALSE(f.columns[1].zone.has_range);  // NaN-only: no numeric range...
  EXPECT_TRUE(f.columns[1].zone.has_nan);     // ...but NaN presence recorded
}

TEST(SegmentTest, EveryFlippedByteIsRejected) {
  const std::string dir = TestDir("seg_flip");
  const std::string path = dir + "/seg-0.mip";
  const Table original = MakeGnarlyTable();
  auto written = storage::WriteSegment(path, original);
  ASSERT_TRUE(written.ok());
  ASSERT_EQ(written.ValueOrDie().indexes.size(), 4u);
  const auto [index_begin, index_end] = IndexRegion(written.ValueOrDie());
  ASSERT_LT(index_begin, index_end);
  auto bytes = storage::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  const std::vector<uint8_t> good = bytes.ValueOrDie();
  ASSERT_TRUE(AuditSegment(path).ok());
  // Every byte of the file sits under a magic, a version check, or a CRC.
  // A flip in a column block, the footer, the header or the trailer fails
  // the read; a flip in an index block leaves the read untouched and fails
  // the index audit. No flip passes both.
  for (size_t i = 0; i < good.size(); ++i) {
    FlipByte(path, good, i, 0xFF);
    const bool in_index = i >= index_begin && i < index_end;
    auto read = storage::ReadSegment(path);
    if (read.ok()) {
      EXPECT_TRUE(in_index) << "flipped byte " << i << " went undetected";
      EXPECT_EQ(TableBytes(read.ValueOrDie()), TableBytes(original)) << i;
      const Status audit = AuditSegment(path);
      EXPECT_FALSE(audit.ok()) << "flipped index byte " << i << " passed";
      EXPECT_EQ(audit.code(), StatusCode::kIOError) << audit.ToString();
    } else {
      EXPECT_FALSE(in_index) << "index byte " << i << " failed the read";
      EXPECT_EQ(read.status().code(), StatusCode::kIOError)
          << read.status().ToString();
    }
    FlipByte(path, good, i, 0);
  }
}

TEST(SegmentTest, EveryTruncationIsRejected) {
  const std::string dir = TestDir("seg_trunc");
  const std::string path = dir + "/seg-0.mip";
  ASSERT_TRUE(storage::WriteSegment(path, MakeGnarlyTable()).ok());
  auto bytes = storage::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  const std::vector<uint8_t> good = bytes.ValueOrDie();
  for (size_t len = good.size(); len-- > 0;) {
    std::filesystem::resize_file(path, len);
    auto read = storage::ReadSegment(path);
    EXPECT_FALSE(read.ok()) << "truncation to " << len << " went undetected";
  }
}

TEST(SegmentTest, HostileCountsRejectedBeforeAllocation) {
  const std::string dir = TestDir("seg_hostile");
  // Hand-built file whose (CRC-valid) footer claims a row count beyond the
  // wire cap: the reader must fail on the cap check, not trust the count.
  BufferWriter footer;
  engine::PutVarint(&footer, engine::kMaxWireElements + 1);  // num_rows
  engine::PutVarint(&footer, 0);                             // num_cols
  BufferWriter file;
  file.WriteU32(storage::kSegmentMagic);
  file.WriteU8(storage::kSegmentVersion);
  file.AppendRaw(footer.bytes().data(), footer.bytes().size());
  file.WriteU32(static_cast<uint32_t>(footer.bytes().size()));
  file.WriteU32(Crc32(footer.bytes()));
  file.WriteU32(storage::kSegmentFooterMagic);
  const std::string path = dir + "/seg-0.mip";
  ASSERT_TRUE(storage::WriteFileAtomic(path, file.bytes()).ok());
  auto read = storage::ReadSegmentFooter(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
  EXPECT_NE(read.status().message().find("cap"), std::string::npos)
      << read.status().ToString();
}

// ---------------------------------------------------------------------------
// Zone-map feasibility (engine comparison semantics)
// ---------------------------------------------------------------------------

storage::PruneConjunct Conj(const std::string& col, engine::BinaryOp op,
                            engine::Value lit) {
  storage::PruneConjunct c;
  c.column = col;
  c.op = op;
  c.literal = lit;
  return c;
}

TEST(SegmentPruneTest, NanRowsBlockEqLikePruningButNotLtGt) {
  const std::string dir = TestDir("prune_nan");
  // Segment: val in [10, 20] plus one NaN row.
  Schema schema({{"val", DataType::kFloat64}});
  auto t = Table::Make(
      schema, {Column::FromDoubles(
                  {10.0, 15.0, 20.0,
                   std::numeric_limits<double>::quiet_NaN()})});
  ASSERT_TRUE(t.ok());
  auto footer = storage::WriteSegment(dir + "/s.mip", t.ValueOrDie());
  ASSERT_TRUE(footer.ok());
  const SegmentFooter& f = footer.ValueOrDie();

  using engine::BinaryOp;
  using engine::Value;
  // The engine's comparison kernels yield cmp==0 for a NaN operand, so the
  // NaN row satisfies =, <=, >= against ANY literal: those ops must never
  // prune a NaN-bearing segment, even far outside [10, 20].
  EXPECT_TRUE(storage::SegmentCanMatch(f, {Conj("val", BinaryOp::kEq,
                                               Value::Double(999.0))}));
  EXPECT_TRUE(storage::SegmentCanMatch(f, {Conj("val", BinaryOp::kLe,
                                               Value::Double(-999.0))}));
  EXPECT_TRUE(storage::SegmentCanMatch(f, {Conj("val", BinaryOp::kGe,
                                               Value::Double(999.0))}));
  // < and > are genuinely unsatisfiable by NaN rows, so the range decides.
  EXPECT_FALSE(storage::SegmentCanMatch(f, {Conj("val", BinaryOp::kLt,
                                                Value::Double(10.0))}));
  EXPECT_FALSE(storage::SegmentCanMatch(f, {Conj("val", BinaryOp::kGt,
                                                Value::Double(20.0))}));
  EXPECT_TRUE(storage::SegmentCanMatch(f, {Conj("val", BinaryOp::kLt,
                                               Value::Double(10.5))}));
}

TEST(SegmentPruneTest, CleanRangesPruneAndAllNullPrunesEverything) {
  const std::string dir = TestDir("prune_range");
  Schema schema({{"id", DataType::kInt64}, {"n", DataType::kFloat64}});
  Column cn = Column::FromDoubles({0.0, 0.0, 0.0});
  Bitmap v(3, false);
  ASSERT_TRUE(cn.SetValidity(v).ok());
  auto t = Table::Make(schema, {Column::FromInts({100, 150, 200}), cn});
  ASSERT_TRUE(t.ok());
  auto footer = storage::WriteSegment(dir + "/s.mip", t.ValueOrDie());
  ASSERT_TRUE(footer.ok());
  const SegmentFooter& f = footer.ValueOrDie();

  using engine::BinaryOp;
  using engine::Value;
  EXPECT_FALSE(storage::SegmentCanMatch(f, {Conj("id", BinaryOp::kEq,
                                                 Value::Int(99))}));
  EXPECT_TRUE(storage::SegmentCanMatch(f, {Conj("id", BinaryOp::kEq,
                                                Value::Int(100))}));
  EXPECT_FALSE(storage::SegmentCanMatch(f, {Conj("id", BinaryOp::kGt,
                                                 Value::Int(200))}));
  EXPECT_TRUE(storage::SegmentCanMatch(f, {Conj("id", BinaryOp::kGe,
                                                Value::Int(200))}));
  // All-null column: no comparison ever matches NULL.
  EXPECT_FALSE(storage::SegmentCanMatch(f, {Conj("n", BinaryOp::kEq,
                                                 Value::Double(0.0))}));
  // Unknown column: ignored, stays scannable.
  EXPECT_TRUE(storage::SegmentCanMatch(f, {Conj("ghost", BinaryOp::kEq,
                                                Value::Int(1))}));
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

constexpr uint32_t kTestSalt = 0x5A17C0DEu;

TEST(WalTest, TornTailTruncatesToCommittedPrefix) {
  const std::string dir = TestDir("wal_torn");
  const std::string path = dir + "/wal-0.log";
  const Table batch = MakeGnarlyTable();
  uint64_t tail = 0;
  ASSERT_TRUE(storage::AppendWalRecord(path, kTestSalt, &tail, "t", batch).ok());
  ASSERT_TRUE(storage::AppendWalRecord(path, kTestSalt, &tail, "t", batch).ok());
  const uint64_t two = tail;
  ASSERT_TRUE(storage::AppendWalRecord(path, kTestSalt, &tail, "t", batch).ok());
  auto size = storage::FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.ValueOrDie(), tail);

  // Tear the last record mid-payload: replay keeps exactly two, and its
  // tail is where the torn record began.
  std::filesystem::resize_file(path, size.ValueOrDie() - 5);
  auto replay = storage::ReplayWal(path, kTestSalt);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay.ValueOrDie().records.size(), 2u);
  EXPECT_EQ(replay.ValueOrDie().valid_bytes, two);
  EXPECT_EQ(TableBytes(replay.ValueOrDie().records[1].rows),
            TableBytes(batch));
}

TEST(WalTest, GarbageTailIsTornNotFatal) {
  const std::string dir = TestDir("wal_garbage");
  const std::string path = dir + "/wal-0.log";
  uint64_t tail = 0;
  ASSERT_TRUE(storage::AppendWalRecord(path, kTestSalt, &tail, "t",
                                       MakeGnarlyTable())
                  .ok());
  auto size = storage::FileSize(path);
  ASSERT_TRUE(size.ok());
  AppendBytes(path, {0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03, 0x04, 0x05});
  auto replay = storage::ReplayWal(path, kTestSalt);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.ValueOrDie().records.size(), 1u);
  EXPECT_EQ(replay.ValueOrDie().valid_bytes, size.ValueOrDie());
}

TEST(WalTest, MissingFileIsEmptyReplay) {
  auto replay =
      storage::ReplayWal(TestDir("wal_missing") + "/wal-0.log", kTestSalt);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.ValueOrDie().records.empty());
  EXPECT_EQ(replay.ValueOrDie().valid_bytes, 0u);
}

TEST(WalTest, RecordsVerifyOnlyUnderTheirSalt) {
  const std::string path = TestDir("wal_salt") + "/wal-0.log";
  uint64_t tail = 0;
  ASSERT_TRUE(storage::AppendWalRecord(path, kTestSalt, &tail, "t",
                                       MakeGnarlyTable())
                  .ok());
  for (const uint32_t salt : {0u, kTestSalt ^ 1u, kTestSalt ^ 0x80000000u}) {
    auto replay = storage::ReplayWal(path, salt);
    ASSERT_TRUE(replay.ok());
    EXPECT_TRUE(replay.ValueOrDie().records.empty()) << salt;
    EXPECT_EQ(replay.ValueOrDie().valid_bytes, 0u) << salt;
  }
  // A positioned append at an earlier tail overwrites what follows it.
  uint64_t rewrite = 0;
  ASSERT_TRUE(storage::AppendWalRecord(path, kTestSalt ^ 1u, &rewrite, "t",
                                       MakeGnarlyTable())
                  .ok());
  EXPECT_EQ(rewrite, tail);
  EXPECT_TRUE(storage::ReplayWal(path, kTestSalt).ValueOrDie().records.empty());
  EXPECT_EQ(storage::ReplayWal(path, kTestSalt ^ 1u).ValueOrDie().records.size(),
            1u);
}

// ---------------------------------------------------------------------------
// StorageEngine: ingest, flush, recovery
// ---------------------------------------------------------------------------

TEST(StoreTest, AppendScanSurvivesReopenViaWal) {
  const std::string dir = TestDir("store_wal_reopen");
  const Table batch = MakeEventsTable(0, 500);
  {
    auto store = StorageEngine::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->AppendRows("events", batch).ok());
    // Destructor deliberately does NOT flush: durability must come from
    // the WAL alone.
  }
  auto store = StorageEngine::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_EQ((*store)->SegmentCount("events").ValueOrDie(), 0u);
  ASSERT_EQ((*store)->MemtableRows("events").ValueOrDie(), 500u);
  auto scan = (*store)->ScanTable("events", nullptr, nullptr);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(TableBytes(scan.ValueOrDie()), TableBytes(batch));
}

TEST(StoreTest, FlushSplitsIntoSegmentsScanOrderPreserved) {
  const std::string dir = TestDir("store_flush");
  StorageOptions options;
  options.target_segment_rows = 100;
  const Table all = MakeEventsTable(0, 450);
  {
    auto store = StorageEngine::Open(dir, options);
    ASSERT_TRUE(store.ok());
    // Two appends, one flush: 450 rows -> 5 segments (4x100 + 50).
    ASSERT_TRUE((*store)->AppendRows("events", all.Slice(0, 300)).ok());
    ASSERT_TRUE((*store)->AppendRows("events", all.Slice(300, 150)).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_EQ((*store)->SegmentCount("events").ValueOrDie(), 5u);
    ASSERT_EQ((*store)->MemtableRows("events").ValueOrDie(), 0u);
    auto scan = (*store)->ScanTable("events", nullptr, nullptr);
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(TableBytes(scan.ValueOrDie()), TableBytes(all));
  }
  // Reopen: committed segments reload from the manifest, WAL is gone.
  auto store = StorageEngine::Open(dir, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto scan = (*store)->ScanTable("events", nullptr, nullptr);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(TableBytes(scan.ValueOrDie()), TableBytes(all));
}

TEST(StoreTest, MemtableBudgetTriggersAutoFlush) {
  const std::string dir = TestDir("store_autoflush");
  StorageOptions options;
  options.memtable_budget_bytes = 1024;  // tiny: every append flushes
  options.target_segment_rows = 1000;
  auto store = StorageEngine::Open(dir, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AppendRows("events", MakeEventsTable(0, 200)).ok());
  EXPECT_GE((*store)->SegmentCount("events").ValueOrDie(), 1u);
  EXPECT_EQ((*store)->MemtableRows("events").ValueOrDie(), 0u);
}

TEST(StoreTest, CrashRecoveryTornWalKeepsCommittedDropsUncommitted) {
  const std::string dir = TestDir("store_crash_torn");
  const Table committed = MakeEventsTable(0, 120);
  {
    auto store = StorageEngine::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRows("events", committed).ok());
  }
  // Simulate a crash mid-append: a torn half-record at the WAL tail.
  AppendBytes(dir + "/wal-0.log",
              {0x40, 0x00, 0x00, 0x00, 0x99, 0x99, 0x12, 0x34, 0x56});
  auto store = StorageEngine::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto scan = (*store)->ScanTable("events", nullptr, nullptr);
  ASSERT_TRUE(scan.ok());
  // Committed rows intact, torn suffix absent — and the next append
  // overwrites the torn bytes, so the log stays clean.
  EXPECT_EQ(TableBytes(scan.ValueOrDie()), TableBytes(committed));
  ASSERT_TRUE((*store)->AppendRows("events", MakeEventsTable(120, 30)).ok());
  EXPECT_EQ((*store)->ScanTable("events", nullptr, nullptr)
                .ValueOrDie()
                .num_rows(),
            150u);
}

TEST(StoreTest, CrashRecoverySweepsOrphanSegmentsAndStaleWals) {
  const std::string dir = TestDir("store_crash_orphan");
  const Table all = MakeEventsTable(0, 100);
  {
    auto store = StorageEngine::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRows("events", all).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // A flush that died after writing segments but before committing its
  // manifest leaves: an orphan segment, a stale previous-epoch WAL, and a
  // tmp file. Recovery must delete all three and keep the data intact.
  ASSERT_TRUE(storage::WriteFileAtomic(dir + "/seg-999.mip",
                                       {1, 2, 3, 4, 5}).ok());
  AppendBytes(dir + "/wal-0.log", {9, 9, 9});
  AppendBytes(dir + "/seg-7.mip.tmp", {1});
  auto store = StorageEngine::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_FALSE(storage::FileExists(dir + "/seg-999.mip"));
  EXPECT_FALSE(storage::FileExists(dir + "/wal-0.log"));
  EXPECT_FALSE(storage::FileExists(dir + "/seg-7.mip.tmp"));
  auto scan = (*store)->ScanTable("events", nullptr, nullptr);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(TableBytes(scan.ValueOrDie()), TableBytes(all));
}

TEST(StoreTest, CorruptCommittedSegmentIsTypedIOError) {
  const std::string dir = TestDir("store_corrupt_seg");
  {
    auto store = StorageEngine::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRows("events", MakeEventsTable(0, 50)).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  auto names = storage::ListDir(dir);
  ASSERT_TRUE(names.ok());
  std::string seg;
  for (const std::string& n : names.ValueOrDie()) {
    if (n.rfind("seg-", 0) == 0) seg = dir + "/" + n;
  }
  ASSERT_FALSE(seg.empty());
  auto bytes = storage::ReadFileBytes(seg);
  ASSERT_TRUE(bytes.ok());
  const std::vector<uint8_t> good = bytes.ValueOrDie();

  // A flipped byte inside a column block: recovery only validates footers
  // (it never reads data blocks), so Open succeeds — but the scan hits the
  // column CRC and fails with a typed kIOError instead of decoding garbage.
  {
    std::vector<uint8_t> bad = good;
    bad[storage::kFramedHeaderBytes + 2] ^= 0x01;
    ASSERT_TRUE(storage::WriteFileAtomic(seg, bad).ok());
    auto store = StorageEngine::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto scan = (*store)->ScanTable("events", nullptr, nullptr);
    ASSERT_FALSE(scan.ok());
    EXPECT_EQ(scan.status().code(), StatusCode::kIOError)
        << scan.status().ToString();
  }

  // A flipped byte in the footer region is caught already at Open.
  {
    std::vector<uint8_t> bad = good;
    bad[bad.size() - 6] ^= 0x01;  // inside the trailer
    ASSERT_TRUE(storage::WriteFileAtomic(seg, bad).ok());
    auto store = StorageEngine::Open(dir);
    ASSERT_FALSE(store.ok());
    EXPECT_EQ(store.status().code(), StatusCode::kIOError)
        << store.status().ToString();
  }
}

TEST(StoreTest, CorruptManifestFailsOpenWithIOError) {
  const std::string dir = TestDir("store_corrupt_manifest");
  {
    auto store = StorageEngine::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRows("events", MakeEventsTable(0, 10)).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  auto bytes = storage::ReadFileBytes(dir + "/MANIFEST");
  ASSERT_TRUE(bytes.ok());
  std::vector<uint8_t> bad = bytes.ValueOrDie();
  bad[bad.size() / 2] ^= 0xFF;
  ASSERT_TRUE(storage::WriteFileAtomic(dir + "/MANIFEST", bad).ok());
  auto store = StorageEngine::Open(dir);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kIOError);
}

TEST(StoreTest, SchemaMismatchRejectedBeforeWal) {
  const std::string dir = TestDir("store_schema");
  auto store = StorageEngine::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AppendRows("events", MakeEventsTable(0, 5)).ok());
  Schema other({{"x", DataType::kFloat64}});
  auto t = Table::Make(other, {Column::FromDoubles({1.0})});
  ASSERT_TRUE(t.ok());
  auto st = (*store)->AppendRows("events", t.ValueOrDie());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
  // The rejected batch never reached the WAL: reopen replays cleanly.
  auto reopened = StorageEngine::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->MemtableRows("events").ValueOrDie(), 5u);
}

// ---------------------------------------------------------------------------
// Commit path: a flush frees no file (recycled WAL, manifest swapped in
// place) and recovery stays exact
// ---------------------------------------------------------------------------

std::string WalName(const std::string& dir, uint64_t id) {
  return dir + "/wal-" + std::to_string(id) + ".log";
}

std::vector<uint8_t> ScanAll(const StorageEngine& store,
                             const std::string& name) {
  auto scan = store.ScanTable(name, nullptr, nullptr);
  EXPECT_TRUE(scan.ok()) << scan.status().ToString();
  return scan.ok() ? TableBytes(scan.ValueOrDie()) : std::vector<uint8_t>{};
}

std::vector<uint8_t> ConcatBytes(const std::vector<Table>& parts) {
  auto all = Table::Concat(parts);
  EXPECT_TRUE(all.ok());
  return TableBytes(all.ValueOrDie());
}

/// A MANIFEST as version 2 wrote it: no length, no WAL salt, the CRC at the
/// end of the file, and one index file listed per (segment, field), as the
/// index files of that format were.
std::vector<uint8_t> V2ManifestBytes(const storage::Manifest& m) {
  uint64_t num_indexes = 0;
  for (const storage::ManifestTable& t : m.tables) {
    num_indexes += t.segments.size() * t.schema.num_fields();
  }
  BufferWriter w;
  w.WriteU32(storage::kManifestMagic);
  w.WriteU8(2);
  w.WriteU64(m.wal_id);
  w.WriteU64(m.next_segment_id);
  w.WriteU64(num_indexes);  // next_index_id
  uint64_t next_index_id = 0;
  engine::PutVarint(&w, m.tables.size());
  for (const storage::ManifestTable& t : m.tables) {
    w.WriteString(t.name);
    engine::PutVarint(&w, t.schema.num_fields());
    for (const engine::Field& f : t.schema.fields()) {
      w.WriteString(f.name);
      w.WriteU8(static_cast<uint8_t>(f.type));
    }
    engine::PutVarint(&w, t.segments.size());
    for (const storage::ManifestSegment& s : t.segments) {
      engine::PutVarint(&w, s.id);
      engine::PutVarint(&w, s.rows);
      engine::PutVarint(&w, s.group);
      engine::PutVarint(&w, t.schema.num_fields());
      for (const engine::Field& f : t.schema.fields()) {
        engine::PutVarint(&w, next_index_id++);
        w.WriteString(f.name);
      }
    }
  }
  w.WriteU32(Crc32(w.bytes()));
  return w.bytes();
}

TEST(CommitTest, FlushRecyclesTheWalAndAlternatesTwoManifestInodes) {
  const std::string dir = TestDir("commit_no_free");
  StorageOptions options;
  options.target_segment_rows = 1000;
  std::vector<Table> parts;
  std::vector<uint64_t> manifest_inodes;
  uint64_t wal_inode = 0;
  {
    auto store = StorageEngine::Open(dir, options);
    ASSERT_TRUE(store.ok());
    for (uint64_t k = 0; k < 5; ++k) {
      parts.push_back(MakeEventsTable(static_cast<int64_t>(40 * k), 40));
      ASSERT_TRUE((*store)->AppendRows("events", parts.back()).ok());
      if (k == 0) wal_inode = Inode(WalName(dir, 0));
      ASSERT_TRUE((*store)->Flush().ok());
      // The WAL keeps its inode under the next epoch's name.
      EXPECT_FALSE(storage::FileExists(WalName(dir, k)));
      EXPECT_EQ(Inode(WalName(dir, k + 1)), wal_inode) << "flush " << k;
      manifest_inodes.push_back(Inode(dir + "/MANIFEST"));
    }
    // A compaction commits through the same swap.
    ASSERT_TRUE((*store)->Compact("events").ok());
    manifest_inodes.push_back(Inode(dir + "/MANIFEST"));
    EXPECT_EQ(Inode(WalName(dir, 5)), wal_inode);
    EXPECT_EQ(ScanAll(**store, "events"), ConcatBytes(parts));
  }
  // The first commit has no MANIFEST to swap with; from the second on,
  // MANIFEST and its spare trade places.
  ASSERT_NE(manifest_inodes[0], manifest_inodes[1]);
  for (size_t k = 2; k < manifest_inodes.size(); ++k) {
    EXPECT_EQ(manifest_inodes[k], manifest_inodes[k % 2]) << "commit " << k;
  }
  EXPECT_EQ(Inode(dir + "/MANIFEST.tmp"),
            manifest_inodes[(manifest_inodes.size()) % 2]);
  auto store = StorageEngine::Open(dir, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(ScanAll(**store, "events"), ConcatBytes(parts));
  EXPECT_TRUE(storage::FileExists(dir + "/MANIFEST.tmp"));
}

TEST(CommitTest, FlushWithEmptyMemtablesChangesNothing) {
  const std::string dir = TestDir("commit_empty_flush");
  auto store = StorageEngine::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_FALSE(storage::FileExists(dir + "/MANIFEST"));

  ASSERT_TRUE((*store)->AppendRows("events", MakeEventsTable(0, 30)).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  const std::vector<uint8_t> manifest =
      storage::ReadFileBytes(dir + "/MANIFEST").ValueOrDie();
  const std::vector<uint8_t> wal =
      storage::ReadFileBytes(WalName(dir, 1)).ValueOrDie();
  const uint64_t manifest_inode = Inode(dir + "/MANIFEST");
  const uint64_t wal_inode = Inode(WalName(dir, 1));
  const std::vector<std::string> names = storage::ListDir(dir).ValueOrDie();
  const uint64_t flushes = (*store)->Counters().flushes;

  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_EQ(storage::ReadFileBytes(dir + "/MANIFEST").ValueOrDie(), manifest);
  EXPECT_EQ(Inode(dir + "/MANIFEST"), manifest_inode);
  EXPECT_EQ(storage::ReadFileBytes(WalName(dir, 1)).ValueOrDie(), wal);
  EXPECT_EQ(Inode(WalName(dir, 1)), wal_inode);
  EXPECT_EQ(storage::ListDir(dir).ValueOrDie(), names);
  EXPECT_EQ((*store)->Counters().flushes, flushes);
}

TEST(CommitTest, AppendAfterJunkPastTheTailOverwritesIt) {
  // A failed append (short write, failed fsync) leaves bytes past the tail
  // it never advanced. The next acknowledged append must land on them, not
  // behind them where replay would never reach it.
  const std::string dir = TestDir("commit_junk_tail");
  const Table a = MakeEventsTable(0, 40);
  const Table b = MakeEventsTable(40, 25);
  {
    auto store = StorageEngine::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRows("events", a).ok());
    AppendBytes(WalName(dir, 0),
                {0x40, 0x00, 0x00, 0x00, 0x99, 0x99, 0x12, 0x34, 0x56});
    ASSERT_TRUE((*store)->AppendRows("events", b).ok());
  }
  auto store = StorageEngine::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(ScanAll(**store, "events"), ConcatBytes({a, b}));
}

TEST(CommitTest, StaleEpochBytesNeverReplayEvenACraftedRecord) {
  const std::string dir = TestDir("commit_stale_epoch");
  const Schema schema({{"s", DataType::kString}});
  auto rows = [&schema](std::vector<std::string> cells) {
    return Table::Make(schema, {Column::FromStrings(std::move(cells))})
        .ValueOrDie();
  };
  // A complete, valid, unseeded record for "t": the bytes a store that
  // checked WAL records with the classic CRC would replay.
  const std::string scratch = TestDir("commit_stale_scratch") + "/forged.log";
  uint64_t forged_size = 0;
  ASSERT_TRUE(storage::AppendWalRecord(scratch, 0, &forged_size, "t",
                                       rows({"forged"}))
                  .ok());
  const std::vector<uint8_t> forged =
      storage::ReadFileBytes(scratch).ValueOrDie();
  ASSERT_EQ(storage::ReplayWal(scratch, 0).ValueOrDie().records.size(), 1u);

  // Epoch 0 carries the forged record inside a tenant's string cell. The
  // flush moves it into a segment and recycles the file as epoch 1.
  const Table epoch0 =
      rows({std::string(300, 'p'), std::string(forged.begin(), forged.end())});
  {
    auto store = StorageEngine::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRows("t", epoch0).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // Epoch 0's own records are stale at epoch 1's tail 0.
  {
    auto store = StorageEngine::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->MemtableRows("t").ValueOrDie(), 0u);
    EXPECT_EQ(ScanAll(**store, "t"), TableBytes(epoch0));
  }
  const std::vector<uint8_t> stale =
      storage::ReadFileBytes(WalName(dir, 1)).ValueOrDie();
  const auto at =
      std::search(stale.begin(), stale.end(), forged.begin(), forged.end());
  ASSERT_NE(at, stale.end());
  const uint64_t offset = static_cast<uint64_t>(at - stale.begin());

  // One epoch-1 record that ends exactly where the forged record begins.
  const std::string probe = TestDir("commit_stale_probe") + "/probe.log";
  Table filler;
  bool found = false;
  for (size_t len = 0; len < offset && !found; ++len) {
    filler = rows({std::string(len, 'f')});
    uint64_t size = 0;
    ASSERT_TRUE(storage::AppendWalRecord(probe, 1, &size, "t", filler).ok());
    found = size == offset;
  }
  ASSERT_TRUE(found);
  {
    auto store = StorageEngine::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRows("t", filler).ok());
  }
  // The forged bytes now sit at the live tail, and they are a valid
  // unseeded record there...
  const std::vector<uint8_t> now =
      storage::ReadFileBytes(WalName(dir, 1)).ValueOrDie();
  const std::string rest = TestDir("commit_stale_rest") + "/rest.log";
  AppendBytes(rest, std::vector<uint8_t>(now.begin() + offset, now.end()));
  auto unseeded = storage::ReplayWal(rest, 0);
  ASSERT_TRUE(unseeded.ok());
  ASSERT_GE(unseeded->records.size(), 1u);
  EXPECT_EQ(TableBytes(unseeded->records[0].rows), TableBytes(rows({"forged"})));
  // ...but not under epoch 1's salt: replay stops at them.
  auto store = StorageEngine::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->MemtableRows("t").ValueOrDie(), 1u);
  EXPECT_EQ(ScanAll(**store, "t"), ConcatBytes({epoch0, filler}));
}

TEST(CommitTest, CrashBetweenManifestSwapAndWalRenameRecoversExactly) {
  const std::string dir = TestDir("commit_crash_rename");
  const Table a = MakeEventsTable(0, 30);
  const Table b = MakeEventsTable(30, 30);
  const Table c = MakeEventsTable(60, 30);
  {
    auto store = StorageEngine::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRows("events", a).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_TRUE((*store)->AppendRows("events", b).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // The second flush's manifest names epoch 2, but its WAL still has
  // epoch 1's name and records.
  const uint64_t wal_inode = Inode(WalName(dir, 2));
  std::filesystem::rename(WalName(dir, 2), WalName(dir, 1));
  {
    auto store = StorageEngine::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->MemtableRows("events").ValueOrDie(), 0u);
    EXPECT_EQ(ScanAll(**store, "events"), ConcatBytes({a, b}));
    // Recovery finished the rename rather than freeing the file.
    EXPECT_FALSE(storage::FileExists(WalName(dir, 1)));
    EXPECT_EQ(Inode(WalName(dir, 2)), wal_inode);
    ASSERT_TRUE((*store)->AppendRows("events", c).ok());
  }
  auto store = StorageEngine::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(ScanAll(**store, "events"), ConcatBytes({a, b, c}));
}

TEST(CommitTest, TornSpareManifestBeforeTheSwapRecoversExactly) {
  const std::string dir = TestDir("commit_torn_spare");
  const Table a = MakeEventsTable(0, 30);
  const Table b = MakeEventsTable(30, 30);
  const Table c = MakeEventsTable(60, 30);
  {
    auto store = StorageEngine::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRows("events", a).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_TRUE((*store)->AppendRows("events", b).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_TRUE((*store)->AppendRows("events", c).ok());
  }
  // A third commit died halfway through rewriting the spare in place: its
  // first half is new bytes, the rest the commit before last.
  const std::string spare = dir + "/MANIFEST.tmp";
  ASSERT_TRUE(storage::FileExists(spare));
  const std::vector<uint8_t> current =
      storage::ReadFileBytes(dir + "/MANIFEST").ValueOrDie();
  std::vector<uint8_t> half(current.begin(),
                            current.begin() + current.size() / 2);
  for (uint8_t& byte : half) byte ^= 0x5A;
  PatchFile(spare, 0, half);
  {
    auto store = StorageEngine::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ(ScanAll(**store, "events"), ConcatBytes({a, b, c}));
    // The next commit overwrites the torn spare and swaps it in.
    ASSERT_TRUE((*store)->Flush().ok());
  }
  ASSERT_TRUE(storage::LoadManifest(dir + "/MANIFEST").ok());
  auto store = StorageEngine::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->MemtableRows("events").ValueOrDie(), 0u);
  EXPECT_EQ(ScanAll(**store, "events"), ConcatBytes({a, b, c}));
}

TEST(CommitTest, TornWalTailThenMoreAppendsRecoversExactly) {
  const std::string dir = TestDir("commit_torn_wal");
  const Table a = MakeEventsTable(0, 30);
  const Table b = MakeEventsTable(30, 30);
  const Table c = MakeEventsTable(60, 5);
  {
    auto store = StorageEngine::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRows("events", a).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_TRUE((*store)->AppendRows("events", b).ok());
  }
  // A crash tore an append far longer than the one that follows it: the
  // first half of a valid epoch-1 record for 2000 rows.
  const uint32_t salt =
      storage::LoadManifest(dir + "/MANIFEST").ValueOrDie().wal_salt;
  ASSERT_NE(salt, 0u);
  const std::string scratch = TestDir("commit_torn_scratch") + "/big.log";
  uint64_t big_size = 0;
  ASSERT_TRUE(storage::AppendWalRecord(scratch, salt, &big_size, "events",
                                       MakeEventsTable(100, 2000))
                  .ok());
  const std::vector<uint8_t> big = storage::ReadFileBytes(scratch).ValueOrDie();
  AppendBytes(WalName(dir, 1),
              std::vector<uint8_t>(big.begin(), big.begin() + big.size() / 2));
  {
    auto store = StorageEngine::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ(ScanAll(**store, "events"), ConcatBytes({a, b}));
    ASSERT_TRUE((*store)->AppendRows("events", c).ok());
  }
  // The small append overwrote the torn record's start; the rest of it
  // never verifies.
  auto store = StorageEngine::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(ScanAll(**store, "events"), ConcatBytes({a, b, c}));
}

TEST(CommitTest, EveryFlippedManifestByteIsIOErrorAndTheStaleTailIsIgnored) {
  const std::string dir = TestDir("commit_manifest_flip");
  StorageOptions options;
  options.target_segment_rows = 1000;
  std::vector<Table> parts;
  {
    auto store = StorageEngine::Open(dir, options);
    ASSERT_TRUE(store.ok());
    for (int64_t k = 0; k < 3; ++k) {
      parts.push_back(MakeEventsTable(30 * k, 30));
      ASSERT_TRUE((*store)->AppendRows("events", parts.back()).ok());
      ASSERT_TRUE((*store)->Flush().ok());
    }
    // Three segments become one: commit 4, shorter than commit 2, whose
    // file it was written over in place.
    ASSERT_TRUE((*store)->Compact("events").ok());
  }
  const std::string path = dir + "/MANIFEST";
  const std::vector<uint8_t> good = storage::ReadFileBytes(path).ValueOrDie();
  ASSERT_EQ(good[4], storage::kManifestVersion);
  uint32_t length = 0;
  std::memcpy(&length, good.data() + 5, sizeof(length));
  ASSERT_LT(length, good.size()) << "no stale tail to test";
  const std::vector<uint8_t> want = ConcatBytes(parts);

  for (size_t pos = 0; pos < good.size(); ++pos) {
    FlipByte(path, good, pos, 0x01);
    auto store = StorageEngine::Open(dir, options);
    if (pos < length) {
      ASSERT_FALSE(store.ok()) << "flip at byte " << pos << " went undetected";
      EXPECT_EQ(store.status().code(), StatusCode::kIOError)
          << store.status().ToString();
    } else {
      ASSERT_TRUE(store.ok()) << "stale byte " << pos << ": "
                              << store.status().ToString();
      EXPECT_EQ(ScanAll(**store, "events"), want) << "stale byte " << pos;
    }
    FlipByte(path, good, pos, 0);
  }
}

TEST(CommitTest, PreviousFormatDirectoryOpensEveryRowAndUpgrades) {
  const std::string dir = TestDir("commit_v2_dir");
  const Table a = MakeEventsTable(0, 60);
  const Table b = MakeEventsTable(60, 40);
  {
    auto store = StorageEngine::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRows("events", a).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // Rewrite the directory as the previous format left it: a version-2
  // MANIFEST, no spare, and an unseeded WAL holding rows not yet flushed.
  const storage::Manifest m =
      storage::LoadManifest(dir + "/MANIFEST").ValueOrDie();
  ASSERT_NE(m.wal_salt, 0u);
  ASSERT_FALSE(storage::FileExists(dir + "/MANIFEST.tmp"));
  ASSERT_TRUE(
      storage::WriteFileAtomic(dir + "/MANIFEST", V2ManifestBytes(m)).ok());
  ASSERT_TRUE(storage::RemoveFile(WalName(dir, m.wal_id)).ok());
  uint64_t tail = 0;
  ASSERT_TRUE(
      storage::AppendWalRecord(WalName(dir, m.wal_id), 0, &tail, "events", b)
          .ok());
  const storage::Manifest v2 =
      storage::LoadManifest(dir + "/MANIFEST").ValueOrDie();
  EXPECT_EQ(v2.wal_salt, 0u);
  {
    auto store = StorageEngine::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->MemtableRows("events").ValueOrDie(), 40u);
    EXPECT_EQ(ScanAll(**store, "events"), ConcatBytes({a, b}));
    ASSERT_TRUE((*store)->Flush().ok());
  }
  const std::vector<uint8_t> bytes =
      storage::ReadFileBytes(dir + "/MANIFEST").ValueOrDie();
  EXPECT_EQ(bytes[4], storage::kManifestVersion);
  EXPECT_NE(storage::LoadManifest(dir + "/MANIFEST").ValueOrDie().wal_salt,
            0u);
  auto store = StorageEngine::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->MemtableRows("events").ValueOrDie(), 0u);
  EXPECT_EQ(ScanAll(**store, "events"), ConcatBytes({a, b}));
}

TEST(CommitTest, PreviousFormatCrashBeforeWalUnlinkReplaysNothingTwice) {
  // The previous format's flush died after its manifest commit and before
  // it unlinked the old WAL, whose unseeded records are all in segments.
  const std::string dir = TestDir("commit_v2_stale_wal");
  const Table a = MakeEventsTable(0, 60);
  {
    auto store = StorageEngine::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRows("events", a).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  const storage::Manifest m =
      storage::LoadManifest(dir + "/MANIFEST").ValueOrDie();
  ASSERT_EQ(m.wal_id, 1u);
  ASSERT_TRUE(
      storage::WriteFileAtomic(dir + "/MANIFEST", V2ManifestBytes(m)).ok());
  ASSERT_TRUE(storage::RemoveFile(WalName(dir, 1)).ok());
  uint64_t tail = 0;
  ASSERT_TRUE(
      storage::AppendWalRecord(WalName(dir, 0), 0, &tail, "events", a).ok());
  auto store = StorageEngine::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->MemtableRows("events").ValueOrDie(), 0u);
  EXPECT_EQ(ScanAll(**store, "events"), TableBytes(a));
  EXPECT_FALSE(storage::FileExists(WalName(dir, 0)));
}

// ---------------------------------------------------------------------------
// Database integration: catalog, EXPLAIN, pruning parity
// ---------------------------------------------------------------------------

struct DiskDbFixture {
  std::unique_ptr<StorageEngine> store;
  std::unique_ptr<Database> db;

  /// events table: 800 rows across 8 id-disjoint segments.
  static DiskDbFixture Make(const std::string& name) {
    DiskDbFixture fx;
    const std::string dir = TestDir(name);
    StorageOptions options;
    options.target_segment_rows = 100;
    auto store = StorageEngine::Open(dir, options);
    EXPECT_TRUE(store.ok());
    fx.store = std::move(store.ValueOrDie());
    EXPECT_TRUE(fx.store->AppendRows("events", MakeEventsTable(0, 800)).ok());
    EXPECT_TRUE(fx.store->Flush().ok());
    fx.db = std::make_unique<Database>("disknode");
    EXPECT_TRUE(fx.db->AttachStorage(fx.store.get()).ok());
    return fx;
  }
};

TEST(DiskDatabaseTest, CatalogSeesDiskTable) {
  DiskDbFixture fx = DiskDbFixture::Make("db_catalog");
  EXPECT_TRUE(fx.db->HasTable("events"));
  auto schema = fx.db->GetSchema("events");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema.ValueOrDie().num_fields(), 4u);
  auto t = fx.db->GetTable("events");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.ValueOrDie().num_rows(), 800u);
  // Disk tables cannot be dropped from SQL — the store owns their life.
  EXPECT_FALSE(fx.db->DropTable("events").ok());
}

TEST(DiskDatabaseTest, ExplainShowsPrunedSegments) {
  DiskDbFixture fx = DiskDbFixture::Make("db_explain");
  const std::string plan =
      ExplainText(fx.db.get(), "SELECT id FROM events WHERE id < 150");
  // 800 rows / 100-row segments, ids ascending: id < 150 touches segments
  // 0-1 and prunes the other six.
  EXPECT_NE(plan.find("disk"), std::string::npos) << plan;
  EXPECT_NE(plan.find("prune="), std::string::npos) << plan;
  EXPECT_NE(plan.find("segments: scanned=2 pruned=6 total=8"),
            std::string::npos)
      << plan;
}

TEST(DiskDatabaseTest, PruningNeverChangesResults) {
  DiskDbFixture fx = DiskDbFixture::Make("db_parity");
  // Reference: the same rows as a plain in-memory base table.
  Database mem("memnode");
  auto full = fx.store->ScanTable("events", nullptr, nullptr);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(mem.PutTable("events", full.ValueOrDie()).ok());

  // Predicate corpus: every comparison op crossed with literals below, at,
  // inside and above each column's range — plus AND/OR combinations, NULL
  // probes and aggregates. Results must match the memory engine row for
  // row whether pruning fires or not.
  std::vector<std::string> predicates;
  for (const std::string op : {"=", "<", "<=", ">", ">="}) {
    for (const std::string lit :
         {"-5", "0", "17", "399", "400", "799", "1000"}) {
      predicates.push_back("id " + op + " " + lit);
    }
    for (const std::string lit : {"-41.0", "-0.0", "0.0", "12.5", "85.0"}) {
      predicates.push_back("val " + op + " " + lit);
    }
    for (const std::string lit : {"'a'", "'cat_3'", "'zzz'"}) {
      predicates.push_back("cat " + op + " " + lit);
    }
    predicates.push_back("flag " + op + " 1");
  }
  predicates.push_back("id < 100 AND val >= 0.0");
  predicates.push_back("id >= 700 AND cat = 'cat_7'");
  predicates.push_back("id < 50 OR id > 750");
  predicates.push_back("val IS NULL");
  predicates.push_back("val IS NOT NULL AND id <= 10");

  ThreadPool pool(8);
  engine::ExecContext parallel{&pool, 64};  // tiny morsels: force fan-out
  for (const std::string& pred : predicates) {
    for (const std::string sql :
         {"SELECT id, val, cat, flag FROM events WHERE " + pred,
          "SELECT count(*) AS n, sum(val) AS s FROM events WHERE " + pred}) {
      auto want = mem.ExecuteSql(sql);
      ASSERT_TRUE(want.ok()) << sql << ": " << want.status().ToString();
      for (const bool use_pool : {false, true}) {
        fx.db->set_exec_context(use_pool ? &parallel
                                         : &engine::ExecContext::Serial());
        auto got = fx.db->ExecuteSql(sql);
        ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
        EXPECT_EQ(got.ValueOrDie().ToString(100000),
                  want.ValueOrDie().ToString(100000))
            << sql << " (pool=" << use_pool << ")";
      }
    }
  }

  // Same corpus with the optimizer off: no prune hints at all, same rows.
  fx.db->set_exec_context(nullptr);
  fx.db->set_optimizer_enabled(false);
  for (const std::string& pred : predicates) {
    const std::string sql = "SELECT id FROM events WHERE " + pred;
    auto want = mem.ExecuteSql(sql);
    auto got = fx.db->ExecuteSql(sql);
    ASSERT_TRUE(want.ok() && got.ok()) << sql;
    EXPECT_EQ(got.ValueOrDie().ToString(100000),
              want.ValueOrDie().ToString(100000))
        << sql;
  }
}

TEST(DiskDatabaseTest, MemtableRowsAreNeverPruned) {
  DiskDbFixture fx = DiskDbFixture::Make("db_memtable");
  // Rows beyond every segment's zone range, sitting only in the memtable.
  ASSERT_TRUE(fx.db->IngestDisk("events", MakeEventsTable(5000, 10)).ok());
  auto r = fx.db->ExecuteSql(
      "SELECT count(*) AS n FROM events WHERE id >= 5000");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().At(0, 0).int_value(), 10);
}

TEST(DiskDatabaseTest, IngestAndInsertBumpCatalogVersion) {
  DiskDbFixture fx = DiskDbFixture::Make("db_version");
  const uint64_t v0 = fx.db->catalog_version();
  ASSERT_TRUE(fx.db->IngestDisk("events", MakeEventsTable(800, 5)).ok());
  const uint64_t v1 = fx.db->catalog_version();
  EXPECT_GT(v1, v0);
  // SQL INSERT into a disk table routes through the store (WAL'd, durable)
  // and bumps the version again.
  auto st = fx.db->ExecuteSql(
      "INSERT INTO events VALUES (9000, 1.0, 'cat_x', 1)");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_GT(fx.db->catalog_version(), v1);
  auto n = fx.db->ExecuteSql(
      "SELECT count(*) AS n FROM events WHERE id = 9000");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.ValueOrDie().At(0, 0).int_value(), 1);
}

TEST(DiskDatabaseTest, ScanWithoutAttachedStorageFailsCleanly) {
  // A plan that names a disk table executed on a database whose storage
  // was never attached must produce a typed error, not a crash.
  Database db("nostorage");
  auto r = db.ExecuteSql("SELECT * FROM ghost_disk");
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// Typed error propagation (satellite: storage errors over the wire)
// ---------------------------------------------------------------------------

TEST(StorageErrorTest, IOErrorCodeSurvivesReplyFrame) {
  const std::string dir = TestDir("err_frame");
  const std::string path = dir + "/seg-0.mip";
  ASSERT_TRUE(storage::WriteFileAtomic(path, {1, 2, 3}).ok());
  auto read = storage::ReadSegment(path);
  ASSERT_FALSE(read.ok());
  ASSERT_EQ(read.status().code(), StatusCode::kIOError);

  // Round-trip the failure through the reply frame, as a worker would when
  // a remote scan's run_sql hits a bad disk: the typed code must survive so
  // callers can tell storage faults from planner errors.
  const std::vector<uint8_t> payload =
      net::EncodeReplyPayload(read.status(), {});
  auto decoded = net::DecodeReplyPayload(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kIOError);
  EXPECT_EQ(decoded.status().message(), read.status().message());
}

TEST(StorageErrorTest, MissingDataDirIsIOError) {
  auto footer = storage::ReadSegmentFooter("/nonexistent/nope.mip");
  ASSERT_FALSE(footer.ok());
  EXPECT_EQ(footer.status().code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// Ordered secondary indexes: probe parity, corruption hardening
// ---------------------------------------------------------------------------

/// The engine's comparison semantics the index must mirror: numerics
/// compared as doubles; NaN (cell or literal) satisfies =, <=, >= against
/// anything and fails <, >.
bool CmpMatches(engine::BinaryOp op, double v, double lit) {
  if (std::isnan(v) || std::isnan(lit)) {
    return op == engine::BinaryOp::kEq || op == engine::BinaryOp::kLe ||
           op == engine::BinaryOp::kGe;
  }
  switch (op) {
    case engine::BinaryOp::kEq: return v == lit;
    case engine::BinaryOp::kLt: return v < lit;
    case engine::BinaryOp::kLe: return v <= lit;
    case engine::BinaryOp::kGt: return v > lit;
    case engine::BinaryOp::kGe: return v >= lit;
    default: return false;
  }
}

bool CmpMatches(engine::BinaryOp op, const std::string& v,
                const std::string& lit) {
  switch (op) {
    case engine::BinaryOp::kEq: return v == lit;
    case engine::BinaryOp::kLt: return v < lit;
    case engine::BinaryOp::kLe: return v <= lit;
    case engine::BinaryOp::kGt: return v > lit;
    case engine::BinaryOp::kGe: return v >= lit;
    default: return false;
  }
}

constexpr engine::BinaryOp kCmpOps[] = {
    engine::BinaryOp::kEq, engine::BinaryOp::kLt, engine::BinaryOp::kLe,
    engine::BinaryOp::kGt, engine::BinaryOp::kGe};

/// Writes `col` as the one column `name` of the segment at `path` and reads
/// its index directory back.
Result<IndexDirectory> WriteIndexedColumn(const std::string& path,
                                          const std::string& name,
                                          const Column& col) {
  MIP_ASSIGN_OR_RETURN(Table t,
                       Table::Make(Schema({{name, col.type()}}), {col}));
  MIP_ASSIGN_OR_RETURN(SegmentFooter footer, storage::WriteSegment(path, t));
  std::vector<Result<IndexDirectory>> directories =
      storage::ReadIndexDirectories(path, footer);
  if (directories.size() != 1) return Status::Internal("expected one index");
  return directories[0];
}

TEST(IndexTest, IntProbeMatchesBruteForceAcrossOpsAndLiterals) {
  const std::string dir = TestDir("idx_int_probe");
  const std::vector<int64_t> values = {5,  -3, 7,    7,  0,
                                       42, 7,  9000, -3, 13};
  Column col = Column::FromInts(values);
  Bitmap valid(values.size(), true);
  valid.Set(4, false);  // the NULL row must never count as a candidate
  ASSERT_TRUE(col.SetValidity(valid).ok());
  const std::string path = dir + "/seg-0.mip";
  auto directory = WriteIndexedColumn(path, "key", col);
  ASSERT_TRUE(directory.ok()) << directory.status().ToString();
  EXPECT_EQ(directory.ValueOrDie().num_entries, values.size() - 1);
  ASSERT_TRUE(AuditSegment(path).ok());

  for (const engine::BinaryOp op : kCmpOps) {
    for (const int64_t lit : {-10, -3, 0, 7, 8, 42, 9001}) {
      const std::vector<PruneConjunct> conjuncts = {
          {"key", op, Value::Int(lit)}};
      const KeyInterval interval =
          BuildKeyInterval(DataType::kInt64, "key", conjuncts);
      ASSERT_TRUE(interval.restricts);
      auto probe = ProbeIndex(path, directory.ValueOrDie(), interval);
      ASSERT_TRUE(probe.ok()) << probe.status().ToString();
      uint64_t brute = 0;
      for (size_t i = 0; i < values.size(); ++i) {
        if (!col.IsValid(i)) continue;
        if (CmpMatches(op, static_cast<double>(values[i]),
                       static_cast<double>(lit))) {
          ++brute;
        }
      }
      EXPECT_EQ(probe.ValueOrDie().candidates, brute)
          << "op=" << static_cast<int>(op) << " lit=" << lit;
    }
  }
}

TEST(IndexTest, DoubleProbeCountsNanForEqLikeOnly) {
  const std::string dir = TestDir("idx_double_probe");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> values = {1.5, nan, -0.0, 3.25, nan, 100.0, 7.0};
  Column col = Column::FromDoubles(values);
  Bitmap valid(values.size(), true);
  valid.Set(6, false);  // NULL (canonical NaN placeholder) — excluded
  ASSERT_TRUE(col.SetValidity(valid).ok());
  const std::string path = dir + "/seg-0.mip";
  auto directory = WriteIndexedColumn(path, "val", col);
  ASSERT_TRUE(directory.ok()) << directory.status().ToString();
  EXPECT_EQ(directory.ValueOrDie().nan_count, 2u);  // valid NaN cells only

  for (const engine::BinaryOp op : kCmpOps) {
    for (const double lit : {-1.0, -0.0, 0.0, 2.0, 100.0, 200.0}) {
      const std::vector<PruneConjunct> conjuncts = {
          {"val", op, Value::Double(lit)}};
      const KeyInterval interval =
          BuildKeyInterval(DataType::kFloat64, "val", conjuncts);
      ASSERT_TRUE(interval.restricts);
      auto probe = ProbeIndex(path, directory.ValueOrDie(), interval);
      ASSERT_TRUE(probe.ok()) << probe.status().ToString();
      uint64_t brute = 0;
      for (size_t i = 0; i < values.size(); ++i) {
        if (col.IsValid(i) && CmpMatches(op, values[i], lit)) ++brute;
      }
      EXPECT_EQ(probe.ValueOrDie().candidates, brute)
          << "op=" << static_cast<int>(op) << " lit=" << lit;
    }
  }
}

TEST(IndexTest, StringProbeAndRangeConjunction) {
  const std::string dir = TestDir("idx_string_probe");
  Column col = Column::FromStrings({"b", "alpha", "", "zeta", "alpha", "m"});
  Bitmap valid(6, true);
  valid.Set(2, false);
  ASSERT_TRUE(col.SetValidity(valid).ok());
  const std::string path = dir + "/seg-0.mip";
  auto directory = WriteIndexedColumn(path, "grp", col);
  ASSERT_TRUE(directory.ok()) << directory.status().ToString();

  for (const engine::BinaryOp op : kCmpOps) {
    for (const std::string lit : {"", "alpha", "m", "zzz"}) {
      const std::vector<PruneConjunct> conjuncts = {
          {"grp", op, Value::String(lit)}};
      const KeyInterval interval =
          BuildKeyInterval(DataType::kString, "grp", conjuncts);
      auto probe = ProbeIndex(path, directory.ValueOrDie(), interval);
      ASSERT_TRUE(probe.ok()) << probe.status().ToString();
      uint64_t brute = 0;
      for (size_t i = 0; i < 6; ++i) {
        if (col.IsValid(i) && CmpMatches(op, col.StringAt(i), lit)) ++brute;
      }
      EXPECT_EQ(probe.ValueOrDie().candidates, brute);
    }
  }

  // Conjunction narrows to a half-open range: 'alpha' <= grp < 'm'.
  const std::vector<PruneConjunct> range = {
      {"grp", engine::BinaryOp::kGe, Value::String("alpha")},
      {"grp", engine::BinaryOp::kLt, Value::String("m")}};
  auto probe = ProbeIndex(path, directory.ValueOrDie(),
                          BuildKeyInterval(DataType::kString, "grp", range));
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe.ValueOrDie().candidates, 3u);  // "b", "alpha", "alpha"
}

TEST(IndexTest, ContradictionsAndUnusableConjuncts) {
  const std::string dir = TestDir("idx_interval_edges");
  Column col = Column::FromInts({1, 2, 3, 4, 5, 6, 7, 8});
  const std::string path = dir + "/seg-0.mip";
  auto directory = WriteIndexedColumn(path, "k", col);
  ASSERT_TRUE(directory.ok()) << directory.status().ToString();

  // Contradictory bounds prove emptiness without reading any block.
  const std::vector<PruneConjunct> contradiction = {
      {"k", engine::BinaryOp::kGt, Value::Int(10)},
      {"k", engine::BinaryOp::kLt, Value::Int(5)}};
  const KeyInterval empty =
      BuildKeyInterval(DataType::kInt64, "k", contradiction);
  EXPECT_TRUE(empty.empty);
  auto probe = ProbeIndex(path, directory.ValueOrDie(), empty);
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe.ValueOrDie().candidates, 0u);
  EXPECT_EQ(probe.ValueOrDie().blocks_read, 0u);

  // A NaN literal under < can match nothing (NaN fails < and >).
  const std::vector<PruneConjunct> nan_lt = {
      {"k", engine::BinaryOp::kLt,
       Value::Double(std::numeric_limits<double>::quiet_NaN())}};
  EXPECT_TRUE(BuildKeyInterval(DataType::kInt64, "k", nan_lt).empty);

  // A mixed-type conjunct (string literal on an int column) is ignored —
  // ignoring only widens, and alone it leaves nothing to restrict.
  const std::vector<PruneConjunct> mixed = {
      {"k", engine::BinaryOp::kEq, Value::String("five")}};
  EXPECT_FALSE(BuildKeyInterval(DataType::kInt64, "k", mixed).restricts);

  // Conjuncts naming other columns never restrict this one.
  const std::vector<PruneConjunct> other = {
      {"j", engine::BinaryOp::kEq, Value::Int(3)}};
  EXPECT_FALSE(BuildKeyInterval(DataType::kInt64, "k", other).restricts);
}

TEST(IndexTest, EveryFlippedByteAndEveryTruncationIsDetected) {
  const std::string dir = TestDir("idx_corrupt_file");
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 41; ++i) values.push_back((i * 29) % 41);
  const std::string path = dir + "/seg-0.mip";
  ASSERT_TRUE(WriteIndexedColumn(path, "k", Column::FromInts(values)).ok());
  const SegmentFooter footer =
      storage::ReadSegmentFooter(path).ValueOrDie();
  const auto [index_begin, index_end] = IndexRegion(footer);
  auto bytes = storage::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  const std::vector<uint8_t> good = bytes.ValueOrDie();

  // Any single flipped bit of the index's blocks (entries, directory) lands
  // under a CRC — the full audit must reject every one of them, and the
  // segment footer that addresses them stays readable.
  for (size_t pos = index_begin; pos < index_end; ++pos) {
    FlipByte(path, good, pos, 0x01);
    ASSERT_TRUE(storage::ReadSegmentFooter(path).ok()) << pos;
    const Status audit = VerifyIndex(path, footer);
    ASSERT_FALSE(audit.ok()) << "undetected flip at byte " << pos;
    EXPECT_EQ(audit.code(), StatusCode::kIOError);
    EXPECT_EQ(storage::ReadIndexDirectories(path, footer)[0].ok(),
              pos < footer.indexes[0].directory.offset)
        << "directory read at byte " << pos;
    FlipByte(path, good, pos, 0);
  }

  // Every truncated prefix loses the trailer (or leaves one whose offsets
  // dangle): the footer read must fail typed, never crash or misread, and
  // the index audit through the cached footer fails typed too.
  for (size_t len = good.size(); len-- > 0;) {
    std::filesystem::resize_file(path, len);
    auto read = storage::ReadSegmentFooter(path);
    ASSERT_FALSE(read.ok()) << "accepted truncation to " << len;
    EXPECT_EQ(read.status().code(), StatusCode::kIOError);
    if (len < index_end) {
      EXPECT_EQ(VerifyIndex(path, footer).code(), StatusCode::kIOError) << len;
    }
  }

  PatchFile(path, 0, good);
  EXPECT_TRUE(AuditSegment(path).ok());
}

// ---------------------------------------------------------------------------
// Pinned file bytes: the segment and index writers are a storage format
// ---------------------------------------------------------------------------

/// 3000 seeded rows, all four types: NULLs in every column but `s`, NaN
/// cells in `d` (the index's NaN side list), and enough distinct keys for
/// three index blocks per column.
Table MakePinnedTable() {
  const size_t n = 3000;
  uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state] {  // splitmix64
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<uint8_t> bools;
  std::vector<std::string> strings;
  Bitmap vi(n, true), vd(n, true), vb(n, true);
  for (size_t r = 0; r < n; ++r) {
    const uint64_t x = next();
    ints.push_back(static_cast<int64_t>(x % 100000) - 50000);
    doubles.push_back(x % 13 == 0 ? std::numeric_limits<double>::quiet_NaN()
                                  : static_cast<double>(x % 4096) / 8.0);
    bools.push_back(static_cast<uint8_t>((x >> 20) & 1));
    strings.push_back("s" + std::to_string((x >> 32) % 500));
    if ((x >> 40) % 17 == 0) {
      vi.Set(r, false);
      ints.back() = 0;
    }
    if ((x >> 44) % 19 == 0) {
      vd.Set(r, false);
      doubles.back() = std::numeric_limits<double>::quiet_NaN();
    }
    if ((x >> 48) % 23 == 0) {
      vb.Set(r, false);
      bools.back() = 0;
    }
  }
  Column ci = Column::FromInts(ints);
  Column cd = Column::FromDoubles(doubles);
  Column cb = Column::FromBools(bools);
  EXPECT_TRUE(ci.SetValidity(vi).ok());
  EXPECT_TRUE(cd.SetValidity(vd).ok());
  EXPECT_TRUE(cb.SetValidity(vb).ok());
  auto t = Table::Make(Schema({{"i", DataType::kInt64},
                               {"d", DataType::kFloat64},
                               {"b", DataType::kBool},
                               {"s", DataType::kString}}),
                       {ci, cd, cb, Column::FromStrings(strings)});
  EXPECT_TRUE(t.ok());
  return t.ValueOrDie();
}

// The size and CRC of the file WriteSegment produces for MakePinnedTable —
// its column blocks and the indexes of all four columns. A change here is a
// file format change: bump the version.
constexpr uint64_t kPinnedSegmentSize = 90532;
constexpr uint32_t kPinnedSegmentCrc = 0x02F3925Bu;

void ExpectFileIs(const std::string& path, uint64_t size, uint32_t crc) {
  auto bytes = storage::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(bytes.ValueOrDie().size(), size) << path;
  EXPECT_EQ(Crc32(bytes.ValueOrDie()), crc) << path;
}

TEST(FileBytesTest, SegmentAndIndexFilesArePinned) {
  const std::string dir = TestDir("pinned_bytes");
  const std::string path = dir + "/seg-0.mip";
  const Table t = MakePinnedTable();
  auto written = storage::WriteSegment(path, t);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  ExpectFileIs(path, kPinnedSegmentSize, kPinnedSegmentCrc);

  auto read = storage::ReadSegmentFooter(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const SegmentFooter& w = written.ValueOrDie();
  const SegmentFooter& r = read.ValueOrDie();
  EXPECT_EQ(r.num_rows, w.num_rows);
  ASSERT_EQ(r.columns.size(), w.columns.size());
  for (size_t c = 0; c < w.columns.size(); ++c) {
    EXPECT_EQ(r.columns[c].name, w.columns[c].name);
    EXPECT_EQ(r.columns[c].block, w.columns[c].block);
    EXPECT_EQ(r.columns[c].zone.null_count, w.columns[c].zone.null_count);
    EXPECT_EQ(r.columns[c].zone.has_nan, w.columns[c].zone.has_nan);
  }
  auto data = storage::ReadSegmentData(path, r);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(TableBytes(data.ValueOrDie()), TableBytes(t));

  // One index per column, in schema order, each directory matching the
  // column it covers.
  ASSERT_EQ(r.indexes.size(), 4u);
  ASSERT_EQ(w.indexes.size(), 4u);
  const std::vector<Result<IndexDirectory>> directories =
      storage::ReadIndexDirectories(path, r);
  ASSERT_EQ(directories.size(), 4u);
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(r.indexes[k].field, k);
    EXPECT_EQ(r.indexes[k].field, w.indexes[k].field);
    EXPECT_EQ(r.indexes[k].directory, w.indexes[k].directory);
    ASSERT_TRUE(directories[k].ok()) << directories[k].status().ToString();
    const IndexDirectory& d = directories[k].ValueOrDie();
    EXPECT_EQ(d.column, r.columns[k].name);
    EXPECT_EQ(d.num_rows, 3000u);
    EXPECT_EQ(d.num_entries + d.nan_count + r.columns[k].zone.null_count,
              3000u);
    EXPECT_EQ(d.blocks.size(), 3u);
  }
  EXPECT_TRUE(VerifyIndex(path, r).ok());
  // The double column's NaN cells reach the NaN side list.
  EXPECT_GT(directories[1].ValueOrDie().nan_count, 0u);
}

TEST(FileBytesTest, FootersLargerThanTheTailReadRoundTrip) {
  // A 70 KiB string is both zone-map bounds of the segment column and both
  // keys of the index's one block: the segment footer and the index
  // directory each outgrow the 64 KiB tail.
  const std::string dir = TestDir("large_footer");
  const std::string path = dir + "/seg-0.mip";
  const std::string big(70 * 1024, 'x');
  auto directory = WriteIndexedColumn(path, "s", Column::FromStrings({big}));
  ASSERT_TRUE(directory.ok()) << directory.status().ToString();
  auto read = storage::ReadSegment(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(TableBytes(read.ValueOrDie()),
            TableBytes(Table::Make(Schema({{"s", DataType::kString}}),
                                   {Column::FromStrings({big})})
                           .ValueOrDie()));
  ASSERT_EQ(directory.ValueOrDie().blocks.size(), 1u);
  EXPECT_EQ(directory.ValueOrDie().blocks[0].first_s, big);
  EXPECT_TRUE(AuditSegment(path).ok());
}

// ---------------------------------------------------------------------------
// StorageEngine + indexes: flush builds, corruption falls back, never wrong
// ---------------------------------------------------------------------------

TEST(StoreIndexTest, FlushBuildsOneIndexPerColumn) {
  const std::string dir = TestDir("store_idx_flush");
  StorageOptions options;
  options.target_segment_rows = 50;
  {
    auto store = StorageEngine::Open(dir, options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRows("t", MakeKeyedTable(0, 250)).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_EQ((*store)->SegmentCount("t").ValueOrDie(), 5u);
    EXPECT_EQ((*store)->IndexCount("t").ValueOrDie(), 15u);  // 5 segs x 3 cols
    EXPECT_TRUE((*store)->VerifyIndexes().ok());
  }
  // The indexes live in their segment files: a reopen loads them all.
  auto store = StorageEngine::Open(dir, options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->IndexCount("t").ValueOrDie(), 15u);
  EXPECT_TRUE(IndexFiles(dir).empty());
  EXPECT_TRUE((*store)->VerifyIndexes().ok());
}

/// Exactly one seg-<id>.mip per committed segment, MANIFEST and its spare,
/// and the live WAL: no other file.
void ExpectOneFilePerSegment(const StorageEngine& store,
                             const std::string& context) {
  const std::vector<std::string> names =
      storage::ListDir(store.dir()).ValueOrDie();  // sorted
  uint64_t segs = 0, wals = 0, other = 0;
  for (const std::string& n : names) {
    if (n.rfind("seg-", 0) == 0 && n.size() > 8 &&
        n.compare(n.size() - 4, 4, ".mip") == 0) {
      ++segs;
    } else if (n.rfind("wal-", 0) == 0) {
      ++wals;
    } else if (n != "MANIFEST" && n != "MANIFEST.tmp") {
      ++other;
      ADD_FAILURE() << context << ": unexpected file " << n;
    }
  }
  EXPECT_EQ(segs, store.SegmentCount("t").ValueOrDie()) << context;
  EXPECT_EQ(wals, 1u) << context;
  EXPECT_TRUE(std::binary_search(names.begin(), names.end(), "MANIFEST"))
      << context;
  EXPECT_TRUE(std::binary_search(names.begin(), names.end(), "MANIFEST.tmp"))
      << context;
  EXPECT_EQ(other, 0u) << context;
}

TEST(StoreIndexTest, OneFilePerSegmentThroughFlushCompactAndReopen) {
  const std::string dir = TestDir("store_one_file");
  StorageOptions options;
  options.target_segment_rows = 50;
  {
    auto store = StorageEngine::Open(dir, options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRows("t", MakeKeyedTable(0, 120)).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_TRUE((*store)->AppendRows("t", MakeKeyedTable(120, 80)).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_EQ((*store)->SegmentCount("t").ValueOrDie(), 5u);
    EXPECT_EQ((*store)->IndexCount("t").ValueOrDie(), 15u);
    ExpectOneFilePerSegment(**store, "after flush");
    ASSERT_TRUE((*store)->Compact("t").ok());
    ASSERT_EQ((*store)->SegmentCount("t").ValueOrDie(), 4u);
    EXPECT_EQ((*store)->IndexCount("t").ValueOrDie(), 12u);
    ExpectOneFilePerSegment(**store, "after compaction");
  }
  auto store = StorageEngine::Open(dir, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->IndexCount("t").ValueOrDie(), 12u);
  EXPECT_TRUE((*store)->VerifyIndexes().ok());
  ExpectOneFilePerSegment(**store, "after reopen");
}

/// Shared harness for the index-corruption sweep: a 3-segment store with
/// every column indexed, plus reference answers computed while healthy.
struct CorruptionFixture {
  std::string dir;
  StorageOptions options;
  std::string want_present, want_absent;
  int64_t present = 0, absent = 0;

  static CorruptionFixture Make(const std::string& name) {
    CorruptionFixture fx;
    fx.dir = TestDir(name);
    fx.options.target_segment_rows = 40;
    const Table all = MakeKeyedTable(0, 120);
    fx.present = all.At(77, 0).int_value();
    fx.absent = 500000;
    for (bool hit = true; hit;) {
      hit = false;
      for (size_t i = 0; i < all.num_rows(); ++i) {
        if (all.At(i, 0).int_value() == fx.absent) hit = true;
      }
      if (hit) ++fx.absent;
    }
    auto store = StorageEngine::Open(fx.dir, fx.options);
    EXPECT_TRUE(store.ok());
    EXPECT_TRUE((*store)->AppendRows("t", all).ok());
    EXPECT_TRUE((*store)->Flush().ok());
    EXPECT_EQ((*store)->SegmentCount("t").ValueOrDie(), 3u);
    EXPECT_EQ((*store)->IndexCount("t").ValueOrDie(), 9u);  // 3 segs x 3 cols
    EXPECT_TRUE((*store)->VerifyIndexes().ok());
    fx.want_present = fx.Query(store.ValueOrDie().get(), fx.present);
    fx.want_absent = fx.Query(store.ValueOrDie().get(), fx.absent);
    EXPECT_NE(fx.want_present, fx.want_absent);  // one row vs zero rows
    return fx;
  }

  /// Point query through the full stack (optimizer access-path choice,
  /// IndexScan executor, probe fallback) — the "never wrong" oracle.
  std::string Query(StorageEngine* store, int64_t key) const {
    Database db("probe");
    EXPECT_TRUE(db.AttachStorage(store).ok());
    auto r = db.ExecuteSql("SELECT key, val, grp FROM t WHERE key = " +
                           std::to_string(key));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.ValueOrDie().ToString(100000) : "";
  }

  /// Reopens the (possibly corrupted) directory and asserts: Open succeeds,
  /// both point queries still return exactly the healthy answers, and the
  /// explicit audit reports the damage as a typed kIOError.
  void CheckFallback(const std::string& context) const {
    auto store = StorageEngine::Open(dir, options);
    ASSERT_TRUE(store.ok()) << context << ": " << store.status().ToString();
    EXPECT_EQ(Query(store.ValueOrDie().get(), present), want_present)
        << context;
    EXPECT_EQ(Query(store.ValueOrDie().get(), absent), want_absent)
        << context;
    const Status audit = (*store)->VerifyIndexes();
    ASSERT_FALSE(audit.ok()) << context;
    EXPECT_EQ(audit.code(), StatusCode::kIOError) << context;
  }
};

TEST(StoreIndexTest, EveryFlippedIndexByteFallsBackToScanNeverWrongRows) {
  CorruptionFixture fx = CorruptionFixture::Make("store_idx_flip");
  auto names = storage::ListDir(fx.dir);
  ASSERT_TRUE(names.ok());
  uint64_t swept = 0;
  for (const std::string& name : names.ValueOrDie()) {
    if (name.rfind("seg-", 0) != 0) continue;
    const std::string path = fx.dir + "/" + name;
    auto footer = storage::ReadSegmentFooter(path);
    ASSERT_TRUE(footer.ok());
    ASSERT_EQ(footer.ValueOrDie().indexes.size(), 3u);
    auto bytes = storage::ReadFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    const std::vector<uint8_t> good = bytes.ValueOrDie();
    // Entry, NaN and directory blocks of every column's index.
    const auto [begin, end] = IndexRegion(footer.ValueOrDie());
    for (size_t pos = begin; pos < end; ++pos) {
      FlipByte(path, good, pos, 0x01);
      fx.CheckFallback(path + " flip@" + std::to_string(pos));
      FlipByte(path, good, pos, 0);
      ++swept;
    }
  }
  EXPECT_GT(swept, 0u);
}

// ---------------------------------------------------------------------------
// Compaction: byte identity, crash recovery, background thread
// ---------------------------------------------------------------------------

TEST(CompactionTest, CompactPreservesScanBytesAcrossReopenAndRecompaction) {
  const std::string dir = TestDir("compact_bytes");
  StorageOptions options;
  options.target_segment_rows = 60;
  // Two appends of overlapping rows: duplicate keys, NULLs, NaNs — and the
  // cluster key (first column, `key`) is unsorted, so compaction genuinely
  // permutes rows and must restore their order on scan.
  std::vector<uint8_t> bytes0;
  {
    auto store = StorageEngine::Open(dir, options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRows("t", MakeKeyedTable(0, 300)).ok());
    ASSERT_TRUE((*store)->AppendRows("t", MakeKeyedTable(0, 40)).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_EQ((*store)->SegmentCount("t").ValueOrDie(), 6u);
    bytes0 = TableBytes((*store)->ScanTable("t", nullptr, nullptr)
                            .ValueOrDie());

    ASSERT_TRUE((*store)->Compact("t").ok());
    EXPECT_GE((*store)->Counters().compactions, 1u);
    EXPECT_EQ(TableBytes((*store)->ScanTable("t", nullptr, nullptr)
                             .ValueOrDie()),
              bytes0);
    EXPECT_TRUE((*store)->VerifyIndexes().ok());

    // Re-compacting a compacted group (plus nothing new) is stable too.
    ASSERT_TRUE((*store)->Compact("t").ok());
    EXPECT_EQ(TableBytes((*store)->ScanTable("t", nullptr, nullptr)
                             .ValueOrDie()),
              bytes0);
  }
  // The restored order is durable, not an artifact of in-memory state.
  auto store = StorageEngine::Open(dir, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(TableBytes((*store)->ScanTable("t", nullptr, nullptr)
                           .ValueOrDie()),
            bytes0);
  EXPECT_TRUE((*store)->VerifyIndexes().ok());

  // New ingest after compaction appends past the group; order still holds.
  ASSERT_TRUE((*store)->AppendRows("t", MakeKeyedTable(300, 25)).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  auto scan = (*store)->ScanTable("t", nullptr, nullptr);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan.ValueOrDie().num_rows(), 365u);
}

TEST(CompactionTest, KillBetweenEveryStepRecoversExactBytes) {
  StorageOptions options;
  options.target_segment_rows = 40;
  const Table all = MakeKeyedTable(0, 150);
  const auto build = [&](const std::string& dir) {
    auto store = StorageEngine::Open(dir, options);
    EXPECT_TRUE(store.ok());
    EXPECT_TRUE((*store)->AppendRows("t", all).ok());
    EXPECT_TRUE((*store)->Flush().ok());
    EXPECT_EQ((*store)->SegmentCount("t").ValueOrDie(), 4u);
    return std::move(store.ValueOrDie());
  };

  // Enumerate the checkpoint sequence on a throwaway directory.
  std::vector<std::string> steps;
  std::vector<uint8_t> bytes0;
  {
    auto store = build(TestDir("compact_kill_probe"));
    bytes0 = TableBytes(store->ScanTable("t", nullptr, nullptr)
                            .ValueOrDie());
    CompactionHooks hooks;
    hooks.checkpoint = [&steps](const std::string& step) {
      steps.push_back(step);
      return Status::OK();
    };
    ASSERT_TRUE(store->Compact("t", hooks).ok());
    EXPECT_EQ(TableBytes(store->ScanTable("t", nullptr, nullptr)
                             .ValueOrDie()),
              bytes0);
  }
  // begin + 4 segments (each holding its indexes) + pre/post-commit + done.
  ASSERT_EQ(steps.size(), 8u);

  // Crash at every step: the process dies with no cleanup whatsoever, and
  // the next Open must land on exactly the old or the new epoch — same
  // bytes either way — with every stray file swept.
  for (size_t k = 0; k < steps.size(); ++k) {
    const std::string dir = TestDir("compact_kill_" + std::to_string(k));
    {
      auto store = build(dir);
      size_t fired = 0;
      CompactionHooks hooks;
      hooks.checkpoint = [&fired, k](const std::string&) {
        return fired++ == k ? Status::IOError("simulated crash")
                            : Status::OK();
      };
      (void)store->Compact("t", hooks);
    }
    auto store = StorageEngine::Open(dir, options);
    ASSERT_TRUE(store.ok())
        << "k=" << k << " (" << steps[k] << "): "
        << store.status().ToString();
    const std::string context = "crash at step " + steps[k];
    auto scan = (*store)->ScanTable("t", nullptr, nullptr);
    ASSERT_TRUE(scan.ok()) << context;
    EXPECT_EQ(TableBytes(scan.ValueOrDie()), bytes0) << context;
    EXPECT_TRUE((*store)->VerifyIndexes().ok()) << context;

    // Nothing dangles: on-disk segments are exactly the committed ones, each
    // holding its indexes, and no tmp file but the manifest's spare
    // survives recovery.
    uint64_t seg_files = 0;
    auto names = storage::ListDir(dir);
    ASSERT_TRUE(names.ok());
    for (const std::string& n : names.ValueOrDie()) {
      if (n != "MANIFEST.tmp") {
        EXPECT_EQ(n.find(".tmp"), std::string::npos) << context << ": " << n;
      }
      if (n.rfind("seg-", 0) == 0) ++seg_files;
    }
    EXPECT_EQ(seg_files, (*store)->SegmentCount("t").ValueOrDie()) << context;
    EXPECT_TRUE(IndexFiles(dir).empty()) << context;
    EXPECT_EQ((*store)->IndexCount("t").ValueOrDie(), 3 * seg_files)
        << context;

    // And the recovered store keeps working: a full compaction now lands.
    ASSERT_TRUE((*store)->Compact("t").ok()) << context;
    EXPECT_EQ(TableBytes((*store)->ScanTable("t", nullptr, nullptr)
                             .ValueOrDie()),
              bytes0)
        << context;
  }
}

TEST(CompactionTest, ScanFromPostCommitDoesNotWaitForFileDeletion) {
  // The replaced files are unlinked after the commit releases the table
  // lock, so a scan started from the post-commit checkpoint (after the
  // commit, before the unlinks) runs to the end instead of waiting for
  // the compaction, and it reads the new segments.
  StorageOptions options;
  options.target_segment_rows = 40;
  auto store = StorageEngine::Open(TestDir("compact_post_commit_scan"),
                                   options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AppendRows("t", MakeKeyedTable(0, 150)).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_EQ((*store)->SegmentCount("t").ValueOrDie(), 4u);
  const std::vector<uint8_t> bytes0 =
      TableBytes((*store)->ScanTable("t", nullptr, nullptr).ValueOrDie());

  StorageEngine* engine = store->get();
  bool scanned = false;
  std::vector<uint8_t> scan_bytes;
  // Outlives the hook: a scan still blocked when the hook gives up must
  // be joined after Compact returns, not inside it.
  std::future<Result<Table>> scan;
  CompactionHooks hooks;
  hooks.checkpoint = [&](const std::string& step) {
    if (step != "post-commit") return Status::OK();
    scan = std::async(std::launch::async, [engine] {
      return engine->ScanTable("t", nullptr, nullptr);
    });
    if (scan.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
      return Status::Internal("scan blocked behind the compaction commit");
    }
    auto result = scan.get();
    if (!result.ok()) return result.status();
    scan_bytes = TableBytes(result.ValueOrDie());
    scanned = true;
    return Status::OK();
  };
  const Status st = engine->Compact("t", hooks);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(scanned);
  EXPECT_EQ(scan_bytes, bytes0);
  EXPECT_EQ(engine->SegmentCount("t").ValueOrDie(), 4u);
  EXPECT_EQ(TableBytes(engine->ScanTable("t", nullptr, nullptr).ValueOrDie()),
            bytes0);
}

TEST(CompactionTest, ReservedColumnNamesRejectedAtAppend) {
  const std::string dir = TestDir("compact_reserved");
  auto store = StorageEngine::Open(dir);
  ASSERT_TRUE(store.ok());
  Schema schema({{"x", DataType::kInt64}, {"__mip_pos", DataType::kInt64}});
  auto t = Table::Make(
      schema, {Column::FromInts({1}), Column::FromInts({2})});
  ASSERT_TRUE(t.ok());
  auto st = (*store)->AppendRows("t", t.ValueOrDie());
  ASSERT_FALSE(st.ok());  // the hidden-column namespace is ours alone
  EXPECT_EQ((*store)->StorageTableNames().size(), 0u);
}

// RestoreGroupOrder places the surviving rows of a compacted group by their
// hidden positions. A partial group comes back in position order; a
// repeated or out-of-range position is a corrupt group, never a silent
// reorder.
TEST(CompactionTest, RestoreGroupOrderPlacesByPositionAndRejectsCorruption) {
  const Schema user({{"x", DataType::kInt64}});
  auto group = [&user](std::vector<int64_t> xs, std::vector<int64_t> pos) {
    return Table::Make(SchemaWithPos(user),
                       {Column::FromInts(std::move(xs)),
                        Column::FromInts(std::move(pos))})
        .ValueOrDie();
  };
  Table out = Table::Empty(user);
  ASSERT_TRUE(
      RestoreGroupOrder(group({30, 10, 20}, {7, 2, 5}), 4, 8, &out).ok());
  EXPECT_EQ(out.column(0).ints(), (std::vector<int64_t>{10, 20, 30}));

  for (const std::vector<int64_t>& pos :
       {std::vector<int64_t>{0, 1, 1}, std::vector<int64_t>{0, 1, 3},
        std::vector<int64_t>{-1, 0, 1}}) {
    Table sink = Table::Empty(user);
    const Status st = RestoreGroupOrder(group({1, 2, 3}, pos), 9, 3, &sink);
    EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
    EXPECT_NE(st.ToString().find("corrupt compaction group 9"),
              std::string::npos)
        << st.ToString();
  }
}

TEST(CompactionTest, BackgroundThreadCompactsAndPreservesBytes) {
  const std::string dir = TestDir("compact_background");
  StorageOptions options;
  options.target_segment_rows = 40;
  options.compact_min_segments = 2;
  options.background_compact_interval_ms = 5;
  auto store = StorageEngine::Open(dir, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AppendRows("t", MakeKeyedTable(0, 160)).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  const std::vector<uint8_t> bytes0 =
      TableBytes((*store)->ScanTable("t", nullptr, nullptr).ValueOrDie());

  (*store)->StartBackgroundCompaction();
  (*store)->StartBackgroundCompaction();  // idempotent
  for (int i = 0; i < 1000 && (*store)->Counters().compactions == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE((*store)->Counters().compactions, 1u);
  EXPECT_EQ(TableBytes((*store)->ScanTable("t", nullptr, nullptr)
                           .ValueOrDie()),
            bytes0);
  (*store)->StopBackgroundCompaction();
  (*store)->StopBackgroundCompaction();  // idempotent
}

// ---------------------------------------------------------------------------
// Access-path choice: EXPLAIN surface, byte parity, plan fingerprints
// ---------------------------------------------------------------------------

struct IndexDbFixture {
  std::unique_ptr<StorageEngine> store;
  std::unique_ptr<Database> db;
  int64_t present = 0;  // a key that exists (row 123's)

  /// 400 unsorted high-cardinality rows across 8 segments: zone maps prune
  /// nothing on `key`, indexes confine a point probe to one segment.
  static IndexDbFixture Make(const std::string& name) {
    IndexDbFixture fx;
    StorageOptions options;
    options.target_segment_rows = 50;
    auto store = StorageEngine::Open(TestDir(name), options);
    EXPECT_TRUE(store.ok());
    fx.store = std::move(store.ValueOrDie());
    const Table all = MakeKeyedTable(0, 400);
    fx.present = all.At(123, 0).int_value();
    EXPECT_TRUE(fx.store->AppendRows("t", all).ok());
    EXPECT_TRUE(fx.store->Flush().ok());
    EXPECT_EQ(fx.store->SegmentCount("t").ValueOrDie(), 8u);
    fx.db = std::make_unique<Database>("idxnode");
    EXPECT_TRUE(fx.db->AttachStorage(fx.store.get()).ok());
    return fx;
  }
};

TEST(IndexScanDatabaseTest, ExplainShowsIndexScanWithProbeCounts) {
  IndexDbFixture fx = IndexDbFixture::Make("db_idx_explain");
  const std::string sql = "SELECT key, val FROM t WHERE key = " +
                          std::to_string(fx.present);
  const std::string plan = ExplainText(fx.db.get(), sql);
  // The point query probes all 8 segments and decodes only the one holding
  // the key — strictly better than the zone path, so the optimizer flips
  // the scan to an IndexScan and says so.
  EXPECT_NE(plan.find("IndexScan"), std::string::npos) << plan;
  EXPECT_NE(plan.find("index: probes=8"), std::string::npos) << plan;
  EXPECT_NE(plan.find("segments:"), std::string::npos) << plan;

  // Ablation: with the rule off the same query renders a plain zone Scan.
  fx.db->optimizer_options().index_scan = false;
  const std::string zoned = ExplainText(fx.db.get(), sql);
  EXPECT_EQ(zoned.find("IndexScan"), std::string::npos) << zoned;
  fx.db->optimizer_options().index_scan = true;

  // An unselective predicate must NOT flip: the index cannot beat zone maps
  // when every segment holds candidates.
  const std::string wide =
      ExplainText(fx.db.get(), "SELECT key FROM t WHERE key >= 0");
  EXPECT_EQ(wide.find("IndexScan"), std::string::npos) << wide;
}

void ExpectSameScanStats(const engine::ScanStats& got,
                         const engine::ScanStats& want,
                         const std::string& context) {
  EXPECT_EQ(got.total, want.total) << context;
  EXPECT_EQ(got.scanned, want.scanned) << context;
  EXPECT_EQ(got.pruned, want.pruned) << context;
  EXPECT_EQ(got.index_probes, want.index_probes) << context;
  EXPECT_EQ(got.index_rows, want.index_rows) << context;
}

TEST(IndexScanDatabaseTest, IndexVsScanByteParityAcrossCorpusAndThreads) {
  IndexDbFixture fx = IndexDbFixture::Make("db_idx_parity");
  Database mem("memnode");
  auto full = fx.store->ScanTable("t", nullptr, nullptr);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(mem.PutTable("t", full.ValueOrDie()).ok());

  const std::string present = std::to_string(fx.present);
  std::vector<std::string> predicates;
  for (const std::string op : {"=", "<", "<=", ">", ">="}) {
    for (const std::string lit :
         {std::string("-1"), std::string("0"), present,
          std::string("500000"), std::string("1000003")}) {
      predicates.push_back("key " + op + " " + lit);
    }
    for (const std::string lit : {"-1.0", "0.0", "31.25", "124.0"}) {
      predicates.push_back("val " + op + " " + lit);
    }
  }
  predicates.push_back("grp = 'g3'");
  predicates.push_back("key >= " + present + " AND key <= " + present);
  predicates.push_back("key > 100000 AND key < 100100");
  predicates.push_back("key < 50000 OR key > 950000");
  predicates.push_back("val IS NULL");
  predicates.push_back("val IS NOT NULL AND key <= " + present);

  ThreadPool pool(8);
  engine::ExecContext parallel{&pool, 64};  // tiny morsels: force fan-out
  for (const std::string& pred : predicates) {
    // The previews the optimizer plans from must equal the scans they
    // predict, segment for segment and probe for probe.
    auto parsed = engine::ParseSql("SELECT * FROM t WHERE " + pred);
    ASSERT_TRUE(parsed.ok()) << pred;
    const engine::Expr* hint =
        std::get<engine::SelectStmt>(parsed.ValueOrDie()).where.get();
    engine::ScanStats zone_scan, index_scan;
    ASSERT_TRUE(fx.store->ScanTable("t", hint, &zone_scan).ok()) << pred;
    ASSERT_TRUE(fx.store->IndexScanTable("t", hint, &index_scan).ok()) << pred;
    auto zone_preview = fx.store->PrunePreview("t", hint);
    auto index_preview = fx.store->PreviewIndexScan("t", hint);
    ASSERT_TRUE(zone_preview.ok()) << pred;
    ASSERT_TRUE(index_preview.ok()) << pred;
    ExpectSameScanStats(zone_preview.ValueOrDie(), zone_scan, pred);
    ExpectSameScanStats(index_preview.ValueOrDie().stats, index_scan, pred);

    for (const std::string sql :
         {"SELECT key, val, grp FROM t WHERE " + pred,
          "SELECT count(*) AS n, sum(val) AS s FROM t WHERE " + pred}) {
      auto want = mem.ExecuteSql(sql);
      ASSERT_TRUE(want.ok()) << sql << ": " << want.status().ToString();
      for (const bool use_index : {true, false}) {
        fx.db->optimizer_options().index_scan = use_index;
        for (const bool use_pool : {false, true}) {
          fx.db->set_exec_context(use_pool ? &parallel
                                           : &engine::ExecContext::Serial());
          auto got = fx.db->ExecuteSql(sql);
          ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
          EXPECT_EQ(got.ValueOrDie().ToString(100000),
                    want.ValueOrDie().ToString(100000))
              << sql << " (index=" << use_index << " pool=" << use_pool
              << ")";
        }
      }
    }
  }
}

TEST(IndexScanDatabaseTest, FingerprintIgnoresAccessPathAndCompaction) {
  IndexDbFixture fx = IndexDbFixture::Make("db_idx_fingerprint");
  const std::string sql = "SELECT key, val FROM t WHERE key = " +
                          std::to_string(fx.present);
  auto plan_indexed = fx.db->TryPlanSelectSql(sql);
  ASSERT_TRUE(plan_indexed.ok());
  ASSERT_NE(plan_indexed.ValueOrDie(), nullptr);
  const uint64_t fp_indexed =
      engine::PlanFingerprint(*plan_indexed.ValueOrDie());

  // Same query with the access-path rule off: physically different plan
  // (Scan vs IndexScan), same fingerprint — flips between the two paths
  // must not shatter the gateway's result cache.
  fx.db->optimizer_options().index_scan = false;
  auto plan_zoned = fx.db->TryPlanSelectSql(sql);
  ASSERT_TRUE(plan_zoned.ok());
  EXPECT_EQ(engine::PlanFingerprint(*plan_zoned.ValueOrDie()), fp_indexed);
  fx.db->optimizer_options().index_scan = true;

  // Compaction reshapes segments (and thus probe/prune annotations) but the
  // canonical fingerprint — and the catalog version — stay put.
  const uint64_t version = fx.db->catalog_version();
  ASSERT_TRUE(fx.store->Compact("t").ok());
  EXPECT_EQ(fx.db->catalog_version(), version);
  auto plan_compacted = fx.db->TryPlanSelectSql(sql);
  ASSERT_TRUE(plan_compacted.ok());
  EXPECT_EQ(engine::PlanFingerprint(*plan_compacted.ValueOrDie()),
            fp_indexed);
}

// ---------------------------------------------------------------------------
// Storage counters (the gateway's "# storage" metrics section)
// ---------------------------------------------------------------------------

TEST(StorageCountersTest, CountersTrackFlushScanProbeCompactReplay) {
  const std::string dir = TestDir("counters");
  StorageOptions options;
  options.target_segment_rows = 50;
  {
    auto store = StorageEngine::Open(dir, options);
    ASSERT_TRUE(store.ok());
    const engine::StorageCounters zero = (*store)->Counters();
    EXPECT_EQ(zero.flushes, 0u);
    EXPECT_EQ(zero.wal_replays, 0u);
    ASSERT_TRUE((*store)->AppendRows("t", MakeKeyedTable(0, 250)).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    EXPECT_EQ((*store)->Counters().flushes, 1u);
    ASSERT_TRUE((*store)->AppendRows("t", MakeKeyedTable(250, 10)).ok());
    // Unflushed rows stay in the WAL for the reopen below.
  }
  auto opened = StorageEngine::Open(dir, options);
  ASSERT_TRUE(opened.ok());
  StorageEngine* store = opened.ValueOrDie().get();
  EXPECT_GE(store->Counters().wal_replays, 1u);

  // Previews are planning, not execution: they must not move the needle.
  const engine::ExprPtr filter =
      engine::Eq(engine::Col("key"), engine::LitInt(123456));
  auto preview = store->PreviewIndexScan("t", filter.get());
  ASSERT_TRUE(preview.ok()) << preview.status().ToString();
  EXPECT_EQ(preview.ValueOrDie().stats.index_probes, 5);
  auto zone_preview = store->PrunePreview("t", filter.get());
  ASSERT_TRUE(zone_preview.ok()) << zone_preview.status().ToString();
  EXPECT_EQ(zone_preview.ValueOrDie().total, 5);
  EXPECT_EQ(store->Counters().index_probes, 0u);
  EXPECT_EQ(store->Counters().index_hits, 0u);
  EXPECT_EQ(store->Counters().segments_scanned, 0u);
  EXPECT_EQ(store->Counters().segments_pruned, 0u);

  // Executing the index path bumps probes; decoded/skipped segments split
  // between scanned and pruned.
  auto scan = store->IndexScanTable("t", filter.get(), nullptr);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  const engine::StorageCounters after = store->Counters();
  EXPECT_EQ(after.index_probes, 5u);
  EXPECT_EQ(after.segments_scanned + after.segments_pruned, 5u);

  ASSERT_TRUE(store->Flush().ok());
  ASSERT_TRUE(store->Compact("t").ok());
  EXPECT_GE(store->Counters().compactions, 1u);
}

// ---------------------------------------------------------------------------
// Earlier formats: a v1 manifest is rejected; v2 and v3 manifests load with
// their index lists discarded; a directory of v1 segments scans by zone maps
// until a compaction rewrites it
// ---------------------------------------------------------------------------

TEST(ManifestCompatTest, V1RejectedAndIndexlessManifestScansByZoneMaps) {
  const std::string dir = TestDir("manifest_v1");
  StorageOptions options;
  options.target_segment_rows = 40;
  std::vector<uint8_t> bytes0;
  {
    auto store = StorageEngine::Open(dir, options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRows("t", MakeKeyedTable(0, 120)).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_EQ((*store)->IndexCount("t").ValueOrDie(), 9u);
    bytes0 = TableBytes((*store)->ScanTable("t", nullptr, nullptr)
                            .ValueOrDie());
  }
  auto loaded = storage::LoadManifest(dir + "/MANIFEST");
  ASSERT_TRUE(loaded.ok());
  storage::Manifest m = loaded.ValueOrDie();

  // A hand-built version-1 MANIFEST (no next_index_id, no per-segment group
  // or index list) is an unsupported version: Open fails with IOError.
  {
    BufferWriter w;
    w.WriteU32(storage::kManifestMagic);
    w.WriteU8(1);
    w.WriteU64(m.wal_id);
    w.WriteU64(m.next_segment_id);
    engine::PutVarint(&w, m.tables.size());
    for (const storage::ManifestTable& t : m.tables) {
      w.WriteString(t.name);
      engine::PutVarint(&w, t.schema.num_fields());
      for (const engine::Field& f : t.schema.fields()) {
        w.WriteString(f.name);
        w.WriteU8(static_cast<uint8_t>(f.type));
      }
      engine::PutVarint(&w, t.segments.size());
      for (const storage::ManifestSegment& s : t.segments) {
        engine::PutVarint(&w, s.id);
        engine::PutVarint(&w, s.rows);
      }
    }
    w.WriteU32(Crc32(w.bytes()));
    ASSERT_TRUE(storage::WriteFileAtomic(dir + "/MANIFEST", w.bytes()).ok());
    auto v1 = StorageEngine::Open(dir, options);
    ASSERT_FALSE(v1.ok());
    EXPECT_EQ(v1.status().code(), StatusCode::kIOError);
    EXPECT_NE(v1.status().message().find("unsupported version 1"),
              std::string::npos)
        << v1.status().ToString();
  }

  // A v2 MANIFEST listing an index file per (segment, column), as that
  // format did: the lists are parsed and discarded — the v4 manifest lists
  // no index, and the segments keep their own. An idx-*.mix left beside
  // them is an orphan. (That format unlinked a flushed WAL; a v2 manifest
  // replays unseeded, so the recycled one must go.)
  ASSERT_TRUE(
      storage::WriteFileAtomic(dir + "/MANIFEST", V2ManifestBytes(m)).ok());
  ASSERT_TRUE(storage::RemoveFile(WalName(dir, m.wal_id)).ok());
  ASSERT_TRUE(storage::WriteFileAtomic(dir + "/idx-4.mix", {1, 2, 3}).ok());
  auto store = StorageEngine::Open(dir, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(IndexFiles(dir).empty());
  EXPECT_EQ((*store)->IndexCount("t").ValueOrDie(), 9u);
  EXPECT_TRUE((*store)->VerifyIndexes().ok());
  EXPECT_EQ(TableBytes((*store)->ScanTable("t", nullptr, nullptr)
                           .ValueOrDie()),
            bytes0);
  auto index_scan = (*store)->IndexScanTable("t", nullptr, nullptr);
  ASSERT_TRUE(index_scan.ok());
  EXPECT_EQ(TableBytes(index_scan.ValueOrDie()), bytes0);

  // The next commit writes the index-free version 4.
  ASSERT_TRUE((*store)->Compact("t").ok());
  EXPECT_EQ(storage::ReadFileBytes(dir + "/MANIFEST").ValueOrDie()[4],
            storage::kManifestVersion);
  EXPECT_TRUE((*store)->VerifyIndexes().ok());
  EXPECT_EQ(TableBytes((*store)->ScanTable("t", nullptr, nullptr)
                           .ValueOrDie()),
            bytes0);
}

/// A directory the previous storage format wrote (tests/testdata, see its
/// README): MANIFEST v3 listing six idx-*.mix index files, two version-1
/// segments of MakeKeyedTable(0, 80), and a WAL holding
/// MakeKeyedTable(80, 20) unflushed. Copied, because Open sweeps it.
std::string CopyPreviousFormatStore(const std::string& name) {
  const std::string dir = TestDir(name);
  const std::string src = std::string(MIP_TESTDATA_DIR) + "/segment_v1_store";
  const std::vector<std::string> names = storage::ListDir(src).ValueOrDie();
  for (const std::string& n : names) {
    EXPECT_TRUE(storage::WriteFileAtomic(
                    dir + "/" + n,
                    storage::ReadFileBytes(src + "/" + n).ValueOrDie())
                    .ok());
  }
  return dir;
}

TEST(FormatUpgradeTest, PreviousFormatStoreScansByZoneMapsUntilCompacted) {
  const std::string dir = CopyPreviousFormatStore("upgrade_v1_segments");
  ASSERT_EQ(IndexFiles(dir).size(), 6u);
  const std::vector<uint8_t> want =
      ConcatBytes({MakeKeyedTable(0, 80), MakeKeyedTable(80, 20)});
  // Recorded from the previous format's own scan of this directory.
  ASSERT_EQ(want.size(), 2271u);
  ASSERT_EQ(Crc32(want), 0xF27105B5u);
  const auto query = [](StorageEngine* store, bool use_index) {
    Database db("upgrade");
    EXPECT_TRUE(db.AttachStorage(store).ok());
    db.optimizer_options().index_scan = use_index;
    auto r = db.ExecuteSql(
        "SELECT key, val, grp FROM t WHERE key >= 300000 AND key < 700000 "
        "AND grp = 'g3'");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? TableBytes(r.ValueOrDie()) : std::vector<uint8_t>{};
  };

  std::vector<uint8_t> filtered;
  {
    auto store = StorageEngine::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    // Every row exactly once, in order; the segments have no indexes and
    // the old index files are swept.
    EXPECT_EQ((*store)->SegmentCount("t").ValueOrDie(), 2u);
    EXPECT_EQ((*store)->MemtableRows("t").ValueOrDie(), 20u);
    EXPECT_EQ((*store)->IndexCount("t").ValueOrDie(), 0u);
    EXPECT_TRUE(IndexFiles(dir).empty());
    EXPECT_TRUE((*store)->VerifyIndexes().ok());
    EXPECT_EQ(ScanAll(**store, "t"), want);
    auto index_scan = (*store)->IndexScanTable("t", nullptr, nullptr);
    ASSERT_TRUE(index_scan.ok());
    EXPECT_EQ(TableBytes(index_scan.ValueOrDie()), want);
    filtered = query(store.ValueOrDie().get(), false);
    EXPECT_EQ(query(store.ValueOrDie().get(), true), filtered);

    // A compaction rewrites the two segments as one indexed segment.
    ASSERT_TRUE((*store)->Compact("t").ok());
    EXPECT_EQ(ScanAll(**store, "t"), want);
  }
  auto store = StorageEngine::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->SegmentCount("t").ValueOrDie(), 1u);
  EXPECT_EQ((*store)->IndexCount("t").ValueOrDie(), 3u);  // one per column
  EXPECT_TRUE((*store)->VerifyIndexes().ok());
  EXPECT_EQ(ScanAll(**store, "t"), want);
  EXPECT_EQ(query(store.ValueOrDie().get(), false), filtered);
  EXPECT_EQ(query(store.ValueOrDie().get(), true), filtered);
}

// ---------------------------------------------------------------------------
// Decode-into-output scans: byte identity with the per-segment composition,
// corruption through the store
// ---------------------------------------------------------------------------

/// All four types. `id` is a permutation of 0..1008 (so compaction really
/// re-sorts); with `nulls` every column has NULL rows, otherwise none does.
Table MakeMixedTable(int64_t start, int64_t count, bool nulls) {
  std::vector<int64_t> ids, ints;
  std::vector<double> dbls;
  std::vector<uint8_t> flags;
  std::vector<std::string> strs;
  for (int64_t i = start; i < start + count; ++i) {
    ids.push_back((i * 7919) % 1009);
    ints.push_back(i % 5 == 0 ? std::numeric_limits<int64_t>::min() : i * 3);
    dbls.push_back(i % 11 == 4 ? std::numeric_limits<double>::quiet_NaN()
                               : static_cast<double>(i) / 8.0 - 20.0);
    flags.push_back(static_cast<uint8_t>(i % 3 == 1));
    strs.push_back("v" + std::to_string(i % 13));
  }
  std::vector<Column> cols = {Column::FromInts(ids), Column::FromInts(ints),
                              Column::FromDoubles(dbls),
                              Column::FromBools(flags),
                              Column::FromStrings(strs)};
  if (nulls) {
    for (size_t c = 1; c < cols.size(); ++c) {
      Bitmap v(static_cast<size_t>(count), true);
      for (int64_t i = 0; i < count; ++i) {
        if ((start + i) % 7 == static_cast<int64_t>(c)) {
          v.Set(static_cast<size_t>(i), false);
        }
      }
      // Canonical placeholders under the NULLs, as every engine path keeps.
      Column canonical(cols[c].type());
      for (int64_t i = 0; i < count; ++i) {
        if (v.Get(static_cast<size_t>(i))) {
          EXPECT_TRUE(canonical.AppendValue(cols[c].ValueAt(i)).ok());
        } else {
          canonical.AppendNull();
        }
      }
      cols[c] = std::move(canonical);
    }
  }
  Schema schema({{"id", DataType::kInt64},
                 {"n", DataType::kInt64},
                 {"d", DataType::kFloat64},
                 {"b", DataType::kBool},
                 {"s", DataType::kString}});
  auto t = Table::Make(schema, std::move(cols));
  EXPECT_TRUE(t.ok());
  return t.ValueOrDie();
}

/// A scan as it was composed before segments decoded straight into the
/// output: every surviving segment read on its own with ReadSegment, each
/// compacted group concatenated, argsorted by its hidden position column
/// and stripped of it, then everything plus the memtable batches joined by
/// Table::Concat.
Table ReferenceScan(const std::string& dir, const std::string& name,
                    const Schema& schema,
                    const std::vector<PruneConjunct>& conjuncts,
                    const std::vector<Table>& memtable) {
  auto manifest = storage::LoadManifest(dir + "/MANIFEST");
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
  std::vector<Table> parts;
  const storage::ManifestTable* mt = manifest->FindTable(name);
  const std::vector<storage::ManifestSegment> segs =
      mt == nullptr ? std::vector<storage::ManifestSegment>{} : mt->segments;
  size_t i = 0;
  while (i < segs.size()) {
    size_t j = i + 1;
    while (segs[i].group != 0 && j < segs.size() &&
           segs[j].group == segs[i].group) {
      ++j;
    }
    std::vector<Table> group;
    for (size_t k = i; k < j; ++k) {
      const std::string path =
          dir + "/seg-" + std::to_string(segs[k].id) + ".mip";
      auto footer = storage::ReadSegmentFooter(path);
      EXPECT_TRUE(footer.ok()) << footer.status().ToString();
      if (!storage::SegmentCanMatch(footer.ValueOrDie(), conjuncts)) continue;
      auto seg = storage::ReadSegment(path);
      EXPECT_TRUE(seg.ok()) << seg.status().ToString();
      group.push_back(seg.ValueOrDie());
    }
    if (segs[i].group == 0 || group.empty()) {
      for (Table& t : group) parts.push_back(std::move(t));
    } else {
      const Table merged = Table::Concat(group).ValueOrDie();
      const Column& pos = merged.column(merged.num_columns() - 1);
      std::vector<int64_t> order(merged.num_rows());
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(), [&pos](int64_t a,
                                                          int64_t b) {
        return pos.IntAt(static_cast<size_t>(a)) <
               pos.IntAt(static_cast<size_t>(b));
      });
      const Table sorted = merged.Take(order);
      std::vector<Column> cols;
      for (size_t c = 0; c + 1 < sorted.num_columns(); ++c) {
        cols.push_back(sorted.column(c));
      }
      parts.push_back(Table::Make(schema, std::move(cols)).ValueOrDie());
    }
    i = j;
  }
  for (const Table& batch : memtable) parts.push_back(batch);
  if (parts.empty()) return Table::Empty(schema);
  return Table::Concat(parts).ValueOrDie();
}

std::vector<PruneConjunct> ConjunctsOf(const std::string& where) {
  auto parsed = engine::ParseSql("SELECT * FROM t WHERE " + where);
  EXPECT_TRUE(parsed.ok()) << where;
  return storage::ExtractPruneConjuncts(
      *std::get<engine::SelectStmt>(parsed.ValueOrDie()).where);
}

/// Scan bytes under `where` (empty = no hint) on the zone or index path.
std::vector<uint8_t> ScanBytes(const StorageEngine& store,
                               const std::string& where, bool use_index,
                               engine::ScanStats* stats = nullptr) {
  engine::ExprPtr hint;
  if (!where.empty()) {
    auto parsed = engine::ParseSql("SELECT * FROM t WHERE " + where);
    EXPECT_TRUE(parsed.ok()) << where;
    hint = std::move(std::get<engine::SelectStmt>(parsed.ValueOrDie()).where);
  }
  auto scan = use_index ? store.IndexScanTable("t", hint.get(), stats)
                        : store.ScanTable("t", hint.get(), stats);
  EXPECT_TRUE(scan.ok()) << where << ": " << scan.status().ToString();
  return scan.ok() ? TableBytes(scan.ValueOrDie()) : std::vector<uint8_t>{};
}

TEST(ScanIntoOutputTest, ByteIdenticalToPerSegmentConcatAcrossLayouts) {
  const std::string dir = TestDir("scan_into_output");
  StorageOptions options;
  options.target_segment_rows = 50;
  const Schema schema = MakeMixedTable(0, 1, false).schema();
  {
    auto store = StorageEngine::Open(dir, options);
    ASSERT_TRUE(store.ok());
    // Two NULL-free segments, two with NULLs, compacted into one group...
    ASSERT_TRUE((*store)->AppendRows("t", MakeMixedTable(0, 100, false)).ok());
    ASSERT_TRUE((*store)->AppendRows("t", MakeMixedTable(100, 100, true)).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    const std::vector<uint8_t> before = ScanBytes(**store, "", false);
    ASSERT_TRUE((*store)->Compact("t").ok());
    EXPECT_EQ(ScanBytes(**store, "", false), before);
    // ...then two plain segments after the group: one without NULLs, one
    // with them.
    ASSERT_TRUE((*store)->AppendRows("t", MakeMixedTable(200, 50, false)).ok());
    ASSERT_TRUE((*store)->AppendRows("t", MakeMixedTable(250, 50, true)).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_EQ((*store)->SegmentCount("t").ValueOrDie(), 6u);
  }

  // Non-canonical values under the NULL slots of the last segment: a scan
  // must still return canonical placeholders there, as Concat did.
  auto manifest = storage::LoadManifest(dir + "/MANIFEST");
  ASSERT_TRUE(manifest.ok());
  const std::string last_seg =
      dir + "/seg-" +
      std::to_string(manifest->FindTable("t")->segments.back().id) + ".mip";
  {
    Table dirty = storage::ReadSegment(last_seg).ValueOrDie();
    for (size_t c = 1; c < dirty.num_columns(); ++c) {
      Column& col = dirty.mutable_column(c);
      ASSERT_GT(col.null_count(), 0u);
      for (size_t r = 0; r < col.length(); ++r) {
        if (col.IsValid(r)) continue;
        switch (col.type()) {
          case DataType::kInt64:
            col.mutable_ints()[r] = 4242;
            break;
          case DataType::kFloat64:
            col.mutable_doubles()[r] = 2.5;
            break;
          case DataType::kBool:
            col.mutable_bools()[r] = 1;
            break;
          case DataType::kString:
            col.mutable_strings()[r] = "junk";
            break;
        }
      }
    }
    ASSERT_TRUE(storage::WriteSegment(last_seg, dirty).ok());
  }

  auto store = StorageEngine::Open(dir, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  // Plus a memtable batch with NULLs riding behind the segments.
  const std::vector<Table> memtable = {MakeMixedTable(300, 30, true)};
  ASSERT_TRUE((*store)->AppendRows("t", memtable[0]).ok());

  auto full = (*store)->ScanTable("t", nullptr, nullptr);
  ASSERT_TRUE(full.ok());
  for (size_t c = 1; c < full->num_columns(); ++c) {
    const Column& col = full->column(c);
    for (size_t r = 0; r < col.length(); ++r) {
      if (col.IsValid(r)) continue;
      switch (col.type()) {
        case DataType::kInt64:
          EXPECT_EQ(col.IntAt(r), 0) << "column " << c << " row " << r;
          break;
        case DataType::kFloat64:
          EXPECT_TRUE(std::isnan(col.DoubleAt(r)));
          break;
        case DataType::kBool:
          EXPECT_FALSE(col.BoolAt(r));
          break;
        case DataType::kString:
          EXPECT_EQ(col.StringAt(r), "");
          break;
      }
    }
  }

  // "id < 300" and "id >= 700" prune different segments of the compacted
  // group (its files are sorted by id); the plain segments span the whole
  // id range and survive. "s = 'v3'" prunes nothing.
  const std::vector<std::string> filters = {"", "id < 300", "id >= 700",
                                            "s = 'v3'"};
  std::vector<std::vector<uint8_t>> want;
  for (const std::string& where : filters) {
    const std::vector<PruneConjunct> conjuncts =
        where.empty() ? std::vector<PruneConjunct>{} : ConjunctsOf(where);
    want.push_back(
        TableBytes(ReferenceScan(dir, "t", schema, conjuncts, memtable)));
    engine::ScanStats zone;
    EXPECT_EQ(ScanBytes(**store, where, false, &zone), want.back()) << where;
    if (where == "id < 300" || where == "id >= 700") {
      EXPECT_GT(zone.pruned, 0) << where;
      EXPECT_LT(zone.pruned, 4) << where;  // part of the group survives
    }
    // A range on a never-NULL column: every zone survivor holds a match, so
    // the index path selects the same segments and must give the same bytes.
    if (where.rfind("id", 0) == 0 || where.empty()) {
      engine::ScanStats index;
      EXPECT_EQ(ScanBytes(**store, where, true, &index), want.back())
          << where;
      EXPECT_EQ(index.pruned, zone.pruned) << where;
    }
  }

  // The same bytes from 8 concurrent scanners.
  std::vector<std::vector<std::vector<uint8_t>>> got(8);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      for (const std::string& where : filters) {
        // Odd threads take the index path wherever it selects the same
        // segments as zone maps (every filter but the string one).
        const bool use_index = t % 2 == 1 && where.rfind("s", 0) != 0;
        got[t].push_back(ScanBytes(**store, where, use_index));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < got.size(); ++t) {
    ASSERT_EQ(got[t].size(), filters.size());
    for (size_t f = 0; f < filters.size(); ++f) {
      EXPECT_EQ(got[t][f], want[f]) << "thread " << t << " " << filters[f];
    }
  }
}

TEST(ScanIntoOutputTest, MemtableOnlyAndSegmentOnlyStores) {
  const Schema schema = MakeMixedTable(0, 1, false).schema();
  const std::vector<Table> batches = {MakeMixedTable(0, 40, true),
                                      MakeMixedTable(40, 40, false)};
  {
    const std::string dir = TestDir("scan_into_output_memtable");
    auto store = StorageEngine::Open(dir);
    ASSERT_TRUE(store.ok());
    for (const Table& b : batches) {
      ASSERT_TRUE((*store)->AppendRows("t", b).ok());
    }
    ASSERT_EQ((*store)->SegmentCount("t").ValueOrDie(), 0u);
    EXPECT_EQ(ScanBytes(**store, "", false),
              TableBytes(Table::Concat(batches).ValueOrDie()));
    EXPECT_EQ(ScanBytes(**store, "id < 100", true),
              TableBytes(Table::Concat(batches).ValueOrDie()));
  }
  {
    const std::string dir = TestDir("scan_into_output_segments");
    StorageOptions options;
    options.target_segment_rows = 30;
    auto store = StorageEngine::Open(dir, options);
    ASSERT_TRUE(store.ok());
    for (const Table& b : batches) {
      ASSERT_TRUE((*store)->AppendRows("t", b).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_EQ((*store)->MemtableRows("t").ValueOrDie(), 0u);
    const std::vector<uint8_t> want =
        TableBytes(ReferenceScan(dir, "t", schema, {}, {}));
    EXPECT_EQ(want, TableBytes(Table::Concat(batches).ValueOrDie()));
    EXPECT_EQ(ScanBytes(**store, "", false), want);
    EXPECT_EQ(ScanBytes(**store, "", true), want);
  }
}

TEST(ScanIntoOutputTest, EveryFlippedBlockByteAndTruncationIsTypedIOError) {
  const std::string dir = TestDir("scan_into_output_corrupt");
  StorageOptions options;
  options.target_segment_rows = 24;
  {
    auto store = StorageEngine::Open(dir, options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRows("t", MakeMixedTable(0, 48, true)).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  auto store = StorageEngine::Open(dir, options);
  ASSERT_TRUE(store.ok());
  const std::vector<uint8_t> want = ScanBytes(**store, "", false);

  auto manifest = storage::LoadManifest(dir + "/MANIFEST");
  ASSERT_TRUE(manifest.ok());
  const std::string seg =
      dir + "/seg-" +
      std::to_string(manifest->FindTable("t")->segments.back().id) + ".mip";
  const std::vector<uint8_t> good = storage::ReadFileBytes(seg).ValueOrDie();
  const SegmentFooter footer = storage::ReadSegmentFooter(seg).ValueOrDie();
  size_t blocks_end = storage::kFramedHeaderBytes;
  for (const storage::SegmentColumn& col : footer.columns) {
    blocks_end = std::max<size_t>(blocks_end, col.block.offset + col.block.length);
  }
  ASSERT_GT(blocks_end, storage::kFramedHeaderBytes);

  // The store cached the footer at Open; every scan re-reads the blocks.
  auto expect_io_error = [&store](const std::string& what) {
    for (const bool use_index : {false, true}) {
      auto scan = use_index ? (*store)->IndexScanTable("t", nullptr, nullptr)
                            : (*store)->ScanTable("t", nullptr, nullptr);
      ASSERT_FALSE(scan.ok()) << what << ": returned rows";
      EXPECT_EQ(scan.status().code(), StatusCode::kIOError)
          << what << ": " << scan.status().ToString();
    }
  };
  for (size_t i = storage::kFramedHeaderBytes; i < blocks_end; ++i) {
    FlipByte(seg, good, i, 0x01);
    expect_io_error("flip at byte " + std::to_string(i));
    FlipByte(seg, good, i, 0);
  }
  for (size_t n = blocks_end; n-- > 0;) {
    std::filesystem::resize_file(seg, n);
    expect_io_error("truncated to " + std::to_string(n) + " bytes");
  }
  PatchFile(seg, 0, good);
  EXPECT_EQ(ScanBytes(**store, "", false), want);
}

// ---------------------------------------------------------------------------
// Projected scans: only the requested columns' blocks are read and decoded
// ---------------------------------------------------------------------------

/// The pruning hint for `where` (null when empty).
engine::ExprPtr HintOf(const std::string& where) {
  if (where.empty()) return nullptr;
  auto parsed = engine::ParseSql("SELECT * FROM t WHERE " + where);
  EXPECT_TRUE(parsed.ok()) << where;
  return std::move(std::get<engine::SelectStmt>(parsed.ValueOrDie()).where);
}

/// `count` seeded column subsets of `names`: each non-empty, in shuffled
/// order, with every name's case flipped at random (storage matches names
/// case-insensitively).
std::vector<std::vector<std::string>> SeededSubsets(
    const std::vector<std::string>& names, uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<std::vector<std::string>> subsets;
  for (int k = 0; k < count; ++k) {
    std::vector<std::string> pick;
    for (const std::string& name : names) {
      if (rng.NextBounded(2) == 1) pick.push_back(name);
    }
    if (pick.empty()) pick.push_back(names[rng.NextBounded(names.size())]);
    for (size_t i = pick.size(); i > 1; --i) {
      std::swap(pick[i - 1], pick[rng.NextBounded(i)]);
    }
    for (std::string& name : pick) {
      if (rng.NextBounded(2) == 1) {
        for (char& ch : name) {
          ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
        }
      }
    }
    subsets.push_back(std::move(pick));
  }
  return subsets;
}

/// Projected Scan bytes, and the bytes of the full scan on the same path
/// with the columns selected afterwards (the default TableStorage::Scan).
struct ProjectedPair {
  std::vector<uint8_t> projected, selected;
  engine::ScanStats projected_stats, selected_stats;
};

ProjectedPair ScanBothWays(const StorageEngine& store, const std::string& where,
                           bool use_index,
                           const std::vector<std::string>& columns) {
  const engine::ExprPtr hint = HintOf(where);
  const engine::ScanSpec spec{columns, hint.get(), use_index};
  ProjectedPair out;
  auto projected = store.Scan("t", spec, &out.projected_stats);
  EXPECT_TRUE(projected.ok()) << projected.status().ToString();
  auto full = use_index ? store.IndexScanTable("t", hint.get(),
                                               &out.selected_stats)
                        : store.ScanTable("t", hint.get(), &out.selected_stats);
  EXPECT_TRUE(full.ok()) << full.status().ToString();
  if (!projected.ok() || !full.ok()) return out;
  auto selected = engine::SelectTableColumns(std::move(full).ValueOrDie(),
                                             columns);
  EXPECT_TRUE(selected.ok()) << selected.status().ToString();
  out.projected = TableBytes(projected.ValueOrDie());
  if (selected.ok()) out.selected = TableBytes(selected.ValueOrDie());
  return out;
}

TEST(ProjectedScanTest, EqualsSelectedFullScanAcrossLayoutsPathsAndThreads) {
  const std::string dir = TestDir("projected_scan");
  StorageOptions options;
  options.target_segment_rows = 50;
  auto store = StorageEngine::Open(dir, options);
  ASSERT_TRUE(store.ok());
  // A four-segment compacted group (sorted by id), two plain segments after
  // it, and a memtable batch, with NULLs in every layout.
  ASSERT_TRUE((*store)->AppendRows("t", MakeMixedTable(0, 100, false)).ok());
  ASSERT_TRUE((*store)->AppendRows("t", MakeMixedTable(100, 100, true)).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->Compact("t").ok());
  ASSERT_TRUE((*store)->AppendRows("t", MakeMixedTable(200, 50, false)).ok());
  ASSERT_TRUE((*store)->AppendRows("t", MakeMixedTable(250, 50, true)).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->AppendRows("t", MakeMixedTable(300, 30, true)).ok());
  ASSERT_EQ((*store)->SegmentCount("t").ValueOrDie(), 6u);
  ASSERT_EQ((*store)->MemtableRows("t").ValueOrDie(), 30u);

  const std::vector<std::vector<std::string>> subsets =
      SeededSubsets({"id", "n", "d", "b", "s"}, 0x5CA9, 24);
  // "id < 300" and "id >= 700" prune part of the compacted group, so
  // RestoreGroupOrder restores a partial group; "" keeps the whole group.
  // The index path runs where it selects the same segments as zone maps.
  struct Case {
    std::string where;
    bool use_index;
  };
  const std::vector<Case> cases = {{"", false},         {"", true},
                                   {"id < 300", false}, {"id < 300", true},
                                   {"id >= 700", false}, {"id >= 700", true},
                                   {"s = 'v3'", false}};
  for (const Case& c : cases) {
    for (const std::vector<std::string>& columns : subsets) {
      const ProjectedPair got =
          ScanBothWays(**store, c.where, c.use_index, columns);
      ASSERT_FALSE(got.projected.empty());
      EXPECT_EQ(got.projected, got.selected)
          << c.where << " index=" << c.use_index << " columns "
          << columns.size();
      EXPECT_EQ(got.projected_stats.scanned, got.selected_stats.scanned);
      EXPECT_EQ(got.projected_stats.pruned, got.selected_stats.pruned);
      if (c.where.rfind("id", 0) == 0) {
        EXPECT_GT(got.projected_stats.pruned, 0) << c.where;
        EXPECT_LT(got.projected_stats.pruned, 4) << c.where;
      }
    }
  }
  // The base-class default (full scan, then select) agrees too.
  const engine::ScanSpec spec{{"s", "ID"}, nullptr, false};
  EXPECT_EQ(TableBytes((*store)->Scan("t", spec, nullptr).ValueOrDie()),
            TableBytes(
                (*store)->engine::TableStorage::Scan("t", spec, nullptr)
                    .ValueOrDie()));
  // Empty columns means every column, in schema order.
  EXPECT_EQ(
      TableBytes((*store)->Scan("t", engine::ScanSpec{}, nullptr).ValueOrDie()),
      TableBytes((*store)->ScanTable("t", nullptr, nullptr).ValueOrDie()));
  // An unknown or repeated column fails, as SelectTableColumns does.
  EXPECT_FALSE((*store)->Scan("t", {{"id", "zz"}, nullptr, false}, nullptr).ok());
  EXPECT_FALSE((*store)->Scan("t", {{"id", "ID"}, nullptr, false}, nullptr).ok());

  // The same bytes from 8 concurrent scanners, each over every case.
  std::vector<std::vector<std::vector<uint8_t>>> want(cases.size());
  for (size_t k = 0; k < cases.size(); ++k) {
    for (const std::vector<std::string>& columns : subsets) {
      want[k].push_back(
          ScanBothWays(**store, cases[k].where, cases[k].use_index, columns)
              .selected);
    }
  }
  std::vector<int> mismatches(8, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = 0; k < cases.size(); ++k) {
        const engine::ExprPtr hint = HintOf(cases[k].where);
        for (size_t i = 0; i < subsets.size(); ++i) {
          const engine::ScanSpec spec{subsets[i], hint.get(),
                                      cases[k].use_index};
          auto got = (*store)->Scan("t", spec, nullptr);
          if (!got.ok() || TableBytes(got.ValueOrDie()) != want[k][i]) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < mismatches.size(); ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST(ProjectedScanTest, OnlyDecodedBlocksAreReadAndChecked) {
  const std::string dir = TestDir("projected_scan_corrupt");
  StorageOptions options;
  options.target_segment_rows = 48;
  {
    auto store = StorageEngine::Open(dir, options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRows("t", MakeMixedTable(0, 48, true)).ok());
    ASSERT_TRUE((*store)->AppendRows("t", MakeMixedTable(48, 48, true)).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    // The first two flushes become one two-segment compacted group (each
    // segment with a hidden position block); the third stays plain.
    ASSERT_TRUE((*store)->Compact("t").ok());
    ASSERT_TRUE((*store)->AppendRows("t", MakeMixedTable(96, 48, true)).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  auto store = StorageEngine::Open(dir, options);
  ASSERT_TRUE(store.ok());
  const std::vector<std::string> names = {"id", "n", "d", "b", "s"};
  auto scan = [&store](const std::vector<std::string>& columns,
                       bool use_index) {
    return (*store)->Scan("t", engine::ScanSpec{columns, nullptr, use_index},
                          nullptr);
  };
  std::vector<std::vector<uint8_t>> want;  // one column at a time
  for (const std::string& name : names) {
    want.push_back(TableBytes(scan({name}, false).ValueOrDie()));
  }

  auto manifest = storage::LoadManifest(dir + "/MANIFEST");
  ASSERT_TRUE(manifest.ok());
  const std::vector<storage::ManifestSegment>& segs =
      manifest->FindTable("t")->segments;
  ASSERT_EQ(segs.size(), 3u);
  ASSERT_NE(segs[0].group, 0u);
  ASSERT_EQ(segs[1].group, segs[0].group);
  ASSERT_EQ(segs[2].group, 0u);
  for (const storage::ManifestSegment& ms : segs) {
    const std::string path = dir + "/seg-" + std::to_string(ms.id) + ".mip";
    const std::vector<uint8_t> good = storage::ReadFileBytes(path).ValueOrDie();
    const SegmentFooter footer = storage::ReadSegmentFooter(path).ValueOrDie();
    for (const storage::SegmentColumn& col : footer.columns) {
      const size_t flip = col.block.offset + col.block.length / 2;
      FlipByte(path, good, flip, 0x01);
      const bool hidden = col.name == storage::kHiddenPosColumn;
      for (const bool use_index : {false, true}) {
        // The full scan decodes every block and rejects the flip.
        auto full = use_index ? (*store)->IndexScanTable("t", nullptr, nullptr)
                              : (*store)->ScanTable("t", nullptr, nullptr);
        ASSERT_FALSE(full.ok()) << col.name;
        EXPECT_EQ(full.status().code(), StatusCode::kIOError);
        for (size_t c = 0; c < names.size(); ++c) {
          auto one = scan({names[c]}, use_index);
          // A group decodes its position block for every projection.
          if (hidden || EqualsIgnoreCase(names[c], col.name)) {
            ASSERT_FALSE(one.ok()) << col.name << " flipped, read " << names[c];
            EXPECT_EQ(one.status().code(), StatusCode::kIOError);
            EXPECT_NE(one.status().message().find("corrupt segment '" + path +
                                                  "'"),
                      std::string::npos)
                << one.status().ToString();
          } else {
            ASSERT_TRUE(one.ok()) << col.name << " flipped, read " << names[c]
                                  << ": " << one.status().ToString();
            EXPECT_EQ(TableBytes(one.ValueOrDie()), want[c]);
          }
        }
      }
      FlipByte(path, good, flip, 0);
    }
    // A file cut off at its last column block: the earlier columns are still
    // read (by range, never past their own blocks), the last one is not.
    const storage::SegmentColumn* last = &footer.columns[0];
    for (const storage::SegmentColumn& col : footer.columns) {
      if (col.block.offset > last->block.offset) last = &col;
    }
    std::filesystem::resize_file(path, last->block.offset);
    for (size_t c = 0; c < names.size(); ++c) {
      auto one = scan({names[c]}, false);
      if (last->name == storage::kHiddenPosColumn ||
          EqualsIgnoreCase(names[c], last->name)) {
        ASSERT_FALSE(one.ok()) << names[c];
        EXPECT_EQ(one.status().code(), StatusCode::kIOError);
      } else {
        ASSERT_TRUE(one.ok()) << names[c] << ": " << one.status().ToString();
        EXPECT_EQ(TableBytes(one.ValueOrDie()), want[c]);
      }
    }
    PatchFile(path, 0, good);
  }
  for (size_t c = 0; c < names.size(); ++c) {
    EXPECT_EQ(TableBytes(scan({names[c]}, true).ValueOrDie()), want[c]);
  }
}

TEST(ProjectedScanTest, SegmentReadMapsColumnsByNameAndType) {
  const std::string dir = TestDir("projected_segment");
  const std::string path = dir + "/seg-0.mip";
  const Table table = MakeGnarlyTable();
  ASSERT_TRUE(storage::WriteSegment(path, table).ok());
  const SegmentFooter footer = storage::ReadSegmentFooter(path).ValueOrDie();

  Table out = Table::Empty(Schema({{"S", DataType::kString},
                                   {"i", DataType::kInt64}}));
  ASSERT_TRUE(storage::AppendSegmentData(path, footer, &out).ok());
  EXPECT_EQ(TableBytes(Table::Make(Schema({{"S", DataType::kString},
                                           {"i", DataType::kInt64}}),
                                   {table.column(3), table.column(0)})
                           .ValueOrDie()),
            TableBytes(out));

  for (const Field& missing : {Field{"i", DataType::kFloat64},
                               Field{"zz", DataType::kInt64}}) {
    Table bad = Table::Empty(Schema({missing}));
    const Status st = storage::AppendSegmentData(path, footer, &bad);
    ASSERT_FALSE(st.ok()) << missing.name;
    EXPECT_EQ(st.code(), StatusCode::kIOError);
    EXPECT_NE(st.message().find("corrupt segment"), std::string::npos)
        << st.ToString();
  }
}

}  // namespace
}  // namespace mip
