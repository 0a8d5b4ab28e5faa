// Disk-backed segment store: segment round-trip byte identity, zone-map
// pruning parity against the in-memory engine, LSM ingest + crash recovery
// (torn WAL tails, orphaned segments), hardened readers over corrupted
// files, EXPLAIN segment accounting, and typed kIOError propagation.
//
// PR 9 additions: ordered secondary indexes (probe-vs-brute-force parity,
// flip-every-byte / truncate-every-prefix corruption falls back to the scan
// path and never changes results), background compaction (order-preserving
// byte identity, kill-between-every-step crash recovery), the
// Scan-vs-IndexScan access-path rule (EXPLAIN surface, byte parity at 1 and
// 8 threads), storage counters, and manifest v1 back-compat.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/parallel.h"
#include "engine/database.h"
#include "engine/encoding.h"
#include "engine/exec_context.h"
#include "engine/expr.h"
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
using storage::IndexFooter;
using storage::KeyInterval;
using storage::ProbeIndex;
using storage::PruneConjunct;
using storage::ReadIndexFooter;
using storage::SegmentFooter;
using storage::StorageEngine;
using storage::StorageOptions;
using storage::VerifyIndex;
using storage::WriteIndex;

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

std::vector<std::string> IndexFiles(const std::string& dir) {
  std::vector<std::string> out;
  auto names = storage::ListDir(dir);
  EXPECT_TRUE(names.ok());
  for (const std::string& n : names.ValueOrDie()) {
    if (n.rfind("idx-", 0) == 0) out.push_back(dir + "/" + n);
  }
  return out;
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
  ASSERT_TRUE(storage::WriteSegment(path, MakeGnarlyTable()).ok());
  auto bytes = storage::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  const std::vector<uint8_t> good = bytes.ValueOrDie();
  // Every byte of the file sits under a magic, a version check, or a CRC:
  // no single-byte corruption may survive a full read.
  for (size_t i = 0; i < good.size(); ++i) {
    std::vector<uint8_t> bad = good;
    bad[i] ^= 0xFF;
    ASSERT_TRUE(storage::WriteFileAtomic(path, bad).ok());
    auto read = storage::ReadSegment(path);
    EXPECT_FALSE(read.ok()) << "flipped byte " << i << " went undetected";
    if (!read.ok()) {
      EXPECT_EQ(read.status().code(), StatusCode::kIOError)
          << read.status().ToString();
    }
  }
}

TEST(SegmentTest, EveryTruncationIsRejected) {
  const std::string dir = TestDir("seg_trunc");
  const std::string path = dir + "/seg-0.mip";
  ASSERT_TRUE(storage::WriteSegment(path, MakeGnarlyTable()).ok());
  auto bytes = storage::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  const std::vector<uint8_t> good = bytes.ValueOrDie();
  for (size_t len = 0; len < good.size(); ++len) {
    const std::vector<uint8_t> bad(good.begin(), good.begin() + len);
    ASSERT_TRUE(storage::WriteFileAtomic(path, bad).ok());
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

TEST(WalTest, TornTailTruncatesToCommittedPrefix) {
  const std::string dir = TestDir("wal_torn");
  const std::string path = dir + "/wal-0.log";
  const Table batch = MakeGnarlyTable();
  ASSERT_TRUE(storage::AppendWalRecord(path, "t", batch).ok());
  ASSERT_TRUE(storage::AppendWalRecord(path, "t", batch).ok());
  ASSERT_TRUE(storage::AppendWalRecord(path, "t", batch).ok());
  auto size = storage::FileSize(path);
  ASSERT_TRUE(size.ok());

  // Tear the last record mid-payload: replay keeps exactly two.
  ASSERT_TRUE(storage::TruncateFile(path, size.ValueOrDie() - 5).ok());
  auto replay = storage::ReplayWal(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay.ValueOrDie().torn);
  ASSERT_EQ(replay.ValueOrDie().records.size(), 2u);
  EXPECT_EQ(TableBytes(replay.ValueOrDie().records[1].rows),
            TableBytes(batch));
}

TEST(WalTest, GarbageTailIsTornNotFatal) {
  const std::string dir = TestDir("wal_garbage");
  const std::string path = dir + "/wal-0.log";
  ASSERT_TRUE(storage::AppendWalRecord(path, "t", MakeGnarlyTable()).ok());
  auto size = storage::FileSize(path);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(storage::AppendFileSync(path, {0xDE, 0xAD, 0xBE, 0xEF, 0x01,
                                             0x02, 0x03, 0x04, 0x05}).ok());
  auto replay = storage::ReplayWal(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.ValueOrDie().torn);
  EXPECT_EQ(replay.ValueOrDie().records.size(), 1u);
  EXPECT_EQ(replay.ValueOrDie().valid_bytes, size.ValueOrDie());
}

TEST(WalTest, MissingFileIsEmptyReplay) {
  auto replay = storage::ReplayWal(TestDir("wal_missing") + "/wal-0.log");
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.ValueOrDie().records.empty());
  EXPECT_FALSE(replay.ValueOrDie().torn);
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
  ASSERT_TRUE(storage::AppendFileSync(dir + "/wal-0.log",
                                      {0x40, 0x00, 0x00, 0x00, 0x99, 0x99,
                                       0x12, 0x34, 0x56}).ok());
  auto store = StorageEngine::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto scan = (*store)->ScanTable("events", nullptr, nullptr);
  ASSERT_TRUE(scan.ok());
  // Committed rows intact, torn suffix absent — and the tail was truncated,
  // so the next append extends a clean log.
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
  ASSERT_TRUE(storage::AppendFileSync(dir + "/wal-0.log", {9, 9, 9}).ok());
  ASSERT_TRUE(storage::AppendFileSync(dir + "/seg-7.mip.tmp", {1}).ok());
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
    bad[storage::kSegmentHeaderBytes + 2] ^= 0x01;
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

TEST(IndexTest, IntProbeMatchesBruteForceAcrossOpsAndLiterals) {
  const std::string dir = TestDir("idx_int_probe");
  const std::vector<int64_t> values = {5,  -3, 7,    7,  0,
                                       42, 7,  9000, -3, 13};
  Column col = Column::FromInts(values);
  Bitmap valid(values.size(), true);
  valid.Set(4, false);  // the NULL row must never count as a candidate
  ASSERT_TRUE(col.SetValidity(valid).ok());
  const std::string path = dir + "/idx-0.mix";
  auto wrote = WriteIndex(path, "key", col);
  ASSERT_TRUE(wrote.ok()) << wrote.status().ToString();
  auto footer = ReadIndexFooter(path);
  ASSERT_TRUE(footer.ok()) << footer.status().ToString();
  EXPECT_EQ(footer.ValueOrDie().num_entries, values.size() - 1);
  ASSERT_TRUE(VerifyIndex(path, footer.ValueOrDie()).ok());

  for (const engine::BinaryOp op : kCmpOps) {
    for (const int64_t lit : {-10, -3, 0, 7, 8, 42, 9001}) {
      const std::vector<PruneConjunct> conjuncts = {
          {"key", op, Value::Int(lit)}};
      const KeyInterval interval =
          BuildKeyInterval(DataType::kInt64, "key", conjuncts);
      ASSERT_TRUE(interval.restricts);
      auto probe = ProbeIndex(path, footer.ValueOrDie(), interval);
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
  const std::string path = dir + "/idx-0.mix";
  auto wrote = WriteIndex(path, "val", col);
  ASSERT_TRUE(wrote.ok()) << wrote.status().ToString();
  auto footer = ReadIndexFooter(path);
  ASSERT_TRUE(footer.ok());
  EXPECT_EQ(footer.ValueOrDie().nan_count, 2u);  // valid NaN cells only

  for (const engine::BinaryOp op : kCmpOps) {
    for (const double lit : {-1.0, -0.0, 0.0, 2.0, 100.0, 200.0}) {
      const std::vector<PruneConjunct> conjuncts = {
          {"val", op, Value::Double(lit)}};
      const KeyInterval interval =
          BuildKeyInterval(DataType::kFloat64, "val", conjuncts);
      ASSERT_TRUE(interval.restricts);
      auto probe = ProbeIndex(path, footer.ValueOrDie(), interval);
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
  const std::string path = dir + "/idx-0.mix";
  auto wrote = WriteIndex(path, "grp", col);
  ASSERT_TRUE(wrote.ok()) << wrote.status().ToString();
  auto footer = ReadIndexFooter(path);
  ASSERT_TRUE(footer.ok());

  for (const engine::BinaryOp op : kCmpOps) {
    for (const std::string lit : {"", "alpha", "m", "zzz"}) {
      const std::vector<PruneConjunct> conjuncts = {
          {"grp", op, Value::String(lit)}};
      const KeyInterval interval =
          BuildKeyInterval(DataType::kString, "grp", conjuncts);
      auto probe = ProbeIndex(path, footer.ValueOrDie(), interval);
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
  auto probe = ProbeIndex(path, footer.ValueOrDie(),
                          BuildKeyInterval(DataType::kString, "grp", range));
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe.ValueOrDie().candidates, 3u);  // "b", "alpha", "alpha"
}

TEST(IndexTest, ContradictionsAndUnusableConjuncts) {
  const std::string dir = TestDir("idx_interval_edges");
  Column col = Column::FromInts({1, 2, 3, 4, 5, 6, 7, 8});
  const std::string path = dir + "/idx-0.mix";
  ASSERT_TRUE(WriteIndex(path, "k", col).ok());
  auto footer = ReadIndexFooter(path);
  ASSERT_TRUE(footer.ok());

  // Contradictory bounds prove emptiness without reading any block.
  const std::vector<PruneConjunct> contradiction = {
      {"k", engine::BinaryOp::kGt, Value::Int(10)},
      {"k", engine::BinaryOp::kLt, Value::Int(5)}};
  const KeyInterval empty =
      BuildKeyInterval(DataType::kInt64, "k", contradiction);
  EXPECT_TRUE(empty.empty);
  auto probe = ProbeIndex(path, footer.ValueOrDie(), empty);
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
  const std::string path = dir + "/idx-0.mix";
  ASSERT_TRUE(WriteIndex(path, "k", Column::FromInts(values)).ok());
  auto bytes = storage::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  const std::vector<uint8_t> good = bytes.ValueOrDie();

  // Any single flipped bit lands in a region covered by a magic, a CRC, or
  // a validated bound — the full audit must reject every one of them.
  for (size_t pos = 0; pos < good.size(); ++pos) {
    std::vector<uint8_t> bad = good;
    bad[pos] ^= 0x01;
    ASSERT_TRUE(storage::WriteFileAtomic(path, bad).ok());
    auto footer = ReadIndexFooter(path);
    if (footer.ok()) {
      const Status audit = VerifyIndex(path, footer.ValueOrDie());
      ASSERT_FALSE(audit.ok()) << "undetected flip at byte " << pos;
      EXPECT_EQ(audit.code(), StatusCode::kIOError);
    } else {
      EXPECT_EQ(footer.status().code(), StatusCode::kIOError);
    }
  }

  // Every truncated prefix loses the trailer (or leaves one whose offsets
  // dangle): the footer read must fail typed, never crash or misread.
  for (size_t len = 0; len < good.size(); ++len) {
    ASSERT_TRUE(storage::WriteFileAtomic(
                    path, std::vector<uint8_t>(good.begin(),
                                               good.begin() + len))
                    .ok());
    auto footer = ReadIndexFooter(path);
    ASSERT_FALSE(footer.ok()) << "accepted truncation to " << len;
    EXPECT_EQ(footer.status().code(), StatusCode::kIOError);
  }

  ASSERT_TRUE(storage::WriteFileAtomic(path, good).ok());
  auto footer = ReadIndexFooter(path);
  ASSERT_TRUE(footer.ok());
  EXPECT_TRUE(VerifyIndex(path, footer.ValueOrDie()).ok());
}

// ---------------------------------------------------------------------------
// StorageEngine + indexes: boot builds, corruption falls back, never wrong
// ---------------------------------------------------------------------------

TEST(StoreIndexTest, FlushBuildsIndexesAndBootBuildsMissingOnes) {
  const std::string dir = TestDir("store_idx_boot");
  StorageOptions no_index;
  no_index.target_segment_rows = 50;
  no_index.auto_index = false;  // pre-index era: segments only
  const Table all = MakeKeyedTable(0, 250);
  std::vector<uint8_t> bytes0;
  {
    auto store = StorageEngine::Open(dir, no_index);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRows("t", all).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_EQ((*store)->SegmentCount("t").ValueOrDie(), 5u);
    EXPECT_EQ((*store)->IndexCount("t").ValueOrDie(), 0u);
    bytes0 = TableBytes((*store)->ScanTable("t", nullptr, nullptr)
                            .ValueOrDie());
  }
  // Reopen with indexing on: Open backfills every missing index and commits
  // one manifest — a pre-index data directory gains indexes on boot.
  StorageOptions indexed;
  indexed.target_segment_rows = 50;
  {
    auto store = StorageEngine::Open(dir, indexed);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->IndexCount("t").ValueOrDie(), 15u);  // 5 segs x 3 cols
    EXPECT_TRUE((*store)->VerifyIndexes().ok());
    EXPECT_EQ(TableBytes((*store)->ScanTable("t", nullptr, nullptr)
                             .ValueOrDie()),
              bytes0);
  }
  // Idempotent: the next boot finds nothing to build.
  auto store = StorageEngine::Open(dir, indexed);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->IndexCount("t").ValueOrDie(), 15u);
  EXPECT_TRUE((*store)->VerifyIndexes().ok());
}

/// Shared harness for the index-corruption sweeps: a 3-segment store
/// indexed on `key` only, plus reference answers computed while healthy.
struct CorruptionFixture {
  std::string dir;
  StorageOptions options;
  std::string want_present, want_absent;
  int64_t present = 0, absent = 0;

  static CorruptionFixture Make(const std::string& name) {
    CorruptionFixture fx;
    fx.dir = TestDir(name);
    fx.options.target_segment_rows = 40;
    fx.options.auto_index = false;
    fx.options.index_columns = {"key"};
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
    EXPECT_EQ((*store)->IndexCount("t").ValueOrDie(), 3u);
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
  for (const std::string& path : IndexFiles(fx.dir)) {
    auto bytes = storage::ReadFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    const std::vector<uint8_t> good = bytes.ValueOrDie();
    for (size_t pos = 0; pos < good.size(); ++pos) {
      std::vector<uint8_t> bad = good;
      bad[pos] ^= 0x01;
      ASSERT_TRUE(storage::WriteFileAtomic(path, bad).ok());
      fx.CheckFallback(path + " flip@" + std::to_string(pos));
    }
    ASSERT_TRUE(storage::WriteFileAtomic(path, good).ok());
  }
}

TEST(StoreIndexTest, EveryTruncatedIndexPrefixFallsBackToScan) {
  CorruptionFixture fx = CorruptionFixture::Make("store_idx_trunc");
  for (const std::string& path : IndexFiles(fx.dir)) {
    auto bytes = storage::ReadFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    const std::vector<uint8_t> good = bytes.ValueOrDie();
    for (size_t len = 0; len < good.size(); len += 7) {  // every 7th prefix
      ASSERT_TRUE(storage::WriteFileAtomic(
                      path, std::vector<uint8_t>(good.begin(),
                                                 good.begin() + len))
                      .ok());
      fx.CheckFallback(path + " trunc@" + std::to_string(len));
    }
    ASSERT_TRUE(storage::WriteFileAtomic(path, good).ok());
  }
}

TEST(StoreIndexTest, MissingIndexFileFallsBackAndFailsVerify) {
  CorruptionFixture fx = CorruptionFixture::Make("store_idx_missing");
  const std::vector<std::string> files = IndexFiles(fx.dir);
  ASSERT_EQ(files.size(), 3u);
  ASSERT_TRUE(storage::RemoveFile(files[1]).ok());
  fx.CheckFallback("missing " + files[1]);
  // The two intact indexes still load; only the missing one is invalid.
  auto store = StorageEngine::Open(fx.dir, fx.options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->IndexCount("t").ValueOrDie(), 2u);
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
  // begin + 4 x (segment + key/val/grp indexes) + pre/post-commit + done.
  ASSERT_EQ(steps.size(), 20u);

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

    // Nothing dangles: on-disk segments/indexes are exactly the committed
    // ones, and no tmp files survive recovery.
    uint64_t seg_files = 0;
    auto names = storage::ListDir(dir);
    ASSERT_TRUE(names.ok());
    for (const std::string& n : names.ValueOrDie()) {
      EXPECT_EQ(n.find(".tmp"), std::string::npos) << context << ": " << n;
      if (n.rfind("seg-", 0) == 0) ++seg_files;
    }
    EXPECT_EQ(seg_files, (*store)->SegmentCount("t").ValueOrDie()) << context;
    EXPECT_EQ(IndexFiles(dir).size(),
              (*store)->IndexCount("t").ValueOrDie())
        << context;

    // And the recovered store keeps working: a full compaction now lands.
    ASSERT_TRUE((*store)->Compact("t").ok()) << context;
    EXPECT_EQ(TableBytes((*store)->ScanTable("t", nullptr, nullptr)
                             .ValueOrDie()),
              bytes0)
        << context;
  }
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
  fx.db->set_index_scan(false);
  const std::string zoned = ExplainText(fx.db.get(), sql);
  EXPECT_EQ(zoned.find("IndexScan"), std::string::npos) << zoned;
  fx.db->set_index_scan(true);

  // An unselective predicate must NOT flip: the index cannot beat zone maps
  // when every segment holds candidates.
  const std::string wide =
      ExplainText(fx.db.get(), "SELECT key FROM t WHERE key >= 0");
  EXPECT_EQ(wide.find("IndexScan"), std::string::npos) << wide;

  // MIP_INDEX_SCAN=0 flips the constructor default (the bench ablation).
  ::setenv("MIP_INDEX_SCAN", "0", 1);
  Database ablated("ablated");
  EXPECT_FALSE(ablated.index_scan());
  ::unsetenv("MIP_INDEX_SCAN");
  EXPECT_TRUE(Database("fresh").index_scan());
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
    for (const std::string sql :
         {"SELECT key, val, grp FROM t WHERE " + pred,
          "SELECT count(*) AS n, sum(val) AS s FROM t WHERE " + pred}) {
      auto want = mem.ExecuteSql(sql);
      ASSERT_TRUE(want.ok()) << sql << ": " << want.status().ToString();
      for (const bool use_index : {true, false}) {
        fx.db->set_index_scan(use_index);
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
  fx.db->set_index_scan(false);
  auto plan_zoned = fx.db->TryPlanSelectSql(sql);
  ASSERT_TRUE(plan_zoned.ok());
  EXPECT_EQ(engine::PlanFingerprint(*plan_zoned.ValueOrDie()), fp_indexed);
  fx.db->set_index_scan(true);

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
  EXPECT_EQ(preview.ValueOrDie().probes, 5u);
  EXPECT_EQ(store->Counters().index_probes, 0u);
  EXPECT_EQ(store->Counters().segments_scanned, 0u);

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
// Manifest versions: v1 is rejected; a v2 manifest without indexes gains
// them on boot
// ---------------------------------------------------------------------------

TEST(ManifestCompatTest, V1RejectedAndIndexlessManifestGainsIndexesOnBoot) {
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

  // Commit a v2 MANIFEST whose segments list no indexes.
  std::vector<std::string> old_index_files;
  for (storage::ManifestTable& t : m.tables) {
    for (storage::ManifestSegment& s : t.segments) {
      for (const storage::ManifestIndex& idx : s.indexes) {
        old_index_files.push_back(dir + "/idx-" + std::to_string(idx.id) +
                                  ".mix");
      }
      s.indexes.clear();
    }
  }
  ASSERT_EQ(old_index_files.size(), 9u);
  for (const std::string& f : old_index_files) {
    ASSERT_TRUE(storage::FileExists(f)) << f;
  }
  ASSERT_TRUE(storage::SaveManifest(dir + "/MANIFEST", m).ok());

  // Open: the now-unreferenced idx files are swept as orphans, and the boot
  // backfill immediately rebuilds every index.
  auto store = StorageEngine::Open(dir, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (const std::string& f : old_index_files) {
    EXPECT_FALSE(storage::FileExists(f)) << f;
  }
  EXPECT_EQ((*store)->IndexCount("t").ValueOrDie(), 9u);
  EXPECT_TRUE((*store)->VerifyIndexes().ok());
  EXPECT_EQ(TableBytes((*store)->ScanTable("t", nullptr, nullptr)
                           .ValueOrDie()),
            bytes0);
}

}  // namespace
}  // namespace mip
