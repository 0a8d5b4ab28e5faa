// Experiments E17 + E18 — disk-backed segment store.
//
// E17: LSM ingest throughput and zone-map pruning on selective scans.
// A 2M-row table is ingested through the WAL'd append path (memtable budget
// far below the dataset, so everything lands in ~32 immutable segments on
// disk — the scan works a dataset well beyond its in-memory buffer). The
// bench then measures:
//   * ingest throughput (rows/s through WAL + memtable + flush);
//   * full vs projected scan: a 2-column aggregate over every row with all
//     four column blocks decoded (optimizer off) vs only its two (optimizer
//     on: storage reads just the projected blocks), p50 over reps, answers
//     and storage-level bytes compared;
//   * selective scans over one id-range, pruned (optimizer pushes the
//     predicate into the scan, zone maps skip non-overlapping segments)
//     vs unpruned (optimizer off: every segment read, filter on top).
//
// E18: ordered secondary indexes on an UNSORTED high-cardinality column.
// The same table carries a `key` column scattered by a Knuth-multiplier
// bijection, so every segment's zone range spans nearly the whole key space
// and zone maps prune nothing. The ordered per-segment indexes built at
// flush are the only way to skip work. Measured, at ~15x the 4 MiB memtable
// budget (well beyond RAM buffers):
//   * point and narrow-range queries with the IndexScan access path vs the
//     zone-map-only path (optimizer_options().index_scan = false ablation),
//     p50 over reps;
//   * byte-parity of both paths at 1 and 8 threads;
//   * EXPLAIN surfacing the chosen path with probe counts;
//   * the same queries after background-style compaction re-sorts the
//     table by `key` (sorted runs make narrow ranges cheap for both paths).
//
// Acceptance: E17 as before (identical results, >= 75% pruned, >= 2x p50)
// plus identical projected results;
// E18 adds byte-identical results across path/threads/compaction, EXPLAIN
// showing `IndexScan ... index: probes=`, and a >= 10x point-query p50
// speedup for the index path. Results go to BENCH_storage.json for CI.
//
// CRC32: every segment block read is CRC-checked, so the checksum's speed
// is part of the scan cost. The bench times mip::Crc32 (carry-less-multiply
// folding on a CPU with PCLMULQDQ, slice-by-8 elsewhere) and a bytewise
// one-table reference over one seeded 64 MiB buffer (median of kCrcReps)
// and reports both rates plus whether the two checksums agree; only the
// agreement is a gate.
//
// Decode: every projected column block a scan reads is then decoded. The
// bench encodes one 256Ki-value block per varint codec (XOR-double of
// N(20, 3) readings, delta-int of the scattered `key` column, dictionary
// string of the `site` column), times its decode (median of kDecodeReps)
// in MB/s of decoded values (8 bytes per number, the characters of a
// string), and checks each decode against the input and against a
// per-value GetVarint reference decode; only the agreement is a gate.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/histogram.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "engine/database.h"
#include "engine/encoding.h"
#include "engine/exec_context.h"
#include "engine/expr.h"
#include "engine/table.h"
#include "storage/io.h"
#include "storage/store.h"

namespace {

using mip::LatencyHistogram;
using mip::Rng;
using mip::Stopwatch;
using mip::engine::Column;
using mip::engine::DataType;
using mip::engine::Database;
using mip::engine::Schema;
using mip::engine::Table;

constexpr int64_t kRows = 2'000'000;
constexpr int64_t kBatchRows = 100'000;
constexpr uint64_t kSegmentRows = 64 * 1024;
constexpr int kSelectiveReps = 15;
constexpr int kIndexReps = 9;
constexpr size_t kCrcBytes = 64ull << 20;
constexpr int kCrcReps = 5;
constexpr size_t kDecodeValues = 256 * 1024;
constexpr int kDecodeReps = 7;

// Unsorted high-cardinality key: a Knuth-multiplier bijection scatters row
// position across the key space, so segment zone ranges all overlap and
// only the ordered index can localize a key.
int64_t KeyOf(int64_t i) { return (i * 2654435761LL) % 999999937LL; }

Table MakeBatch(int64_t start, int64_t count) {
  std::vector<int64_t> ids;
  std::vector<int64_t> keys;
  std::vector<double> vals;
  std::vector<std::string> sites;
  ids.reserve(count);
  keys.reserve(count);
  vals.reserve(count);
  sites.reserve(count);
  Rng rng(0xE17 + static_cast<uint64_t>(start));
  for (int64_t i = start; i < start + count; ++i) {
    ids.push_back(i);
    keys.push_back(KeyOf(i));
    vals.push_back(static_cast<double>(rng.NextBounded(100000)) * 0.01);
    sites.push_back("site_" + std::to_string(i % 7));
  }
  Schema schema({{"id", DataType::kInt64},
                 {"key", DataType::kInt64},
                 {"val", DataType::kFloat64},
                 {"site", DataType::kString}});
  return Table::Make(schema, {Column::FromInts(std::move(ids)),
                              Column::FromInts(std::move(keys)),
                              Column::FromDoubles(std::move(vals)),
                              Column::FromStrings(std::move(sites))})
      .ValueOrDie();
}

// The classic bytewise one-table CRC-32: the reference mip::Crc32 must equal.
uint32_t ReferenceCrc32(const uint8_t* data, size_t n) {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c = kTable[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// Median MB/s of `crc` over `buf`; `*sum` receives the checksum.
template <typename Fn>
double CrcMbPerS(const std::vector<uint8_t>& buf, Fn crc, uint32_t* sum) {
  std::vector<double> rates;
  for (int rep = 0; rep < kCrcReps; ++rep) {
    Stopwatch sw;
    *sum = crc(buf.data(), buf.size());
    const double s = std::max(sw.ElapsedSeconds(), 1e-9);
    rates.push_back(static_cast<double>(buf.size()) / 1e6 / s);
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

// Median MB/s of `decode` over `block`, counting `value_bytes` decoded
// bytes per pass; `*out` receives the last pass's values.
template <typename T>
double DecodeMbPerS(const std::vector<uint8_t>& block,
                    mip::Status (*decode)(mip::BufferReader*,
                                          std::vector<T>*),
                    size_t value_bytes, std::vector<T>* out) {
  std::vector<double> rates;
  for (int rep = 0; rep < kDecodeReps; ++rep) {
    out->clear();
    mip::BufferReader r(block);
    Stopwatch sw;
    const mip::Status st = decode(&r, out);
    const double s = std::max(sw.ElapsedSeconds(), 1e-9);
    if (!st.ok() || !r.AtEnd()) out->clear();
    rates.push_back(static_cast<double>(value_bytes) / 1e6 / s);
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

// The per-value reference decode of one varint-codec block: the header,
// the dictionary entries when `dict`, then one GetVarint per value handed
// to `step(v, entries)`. False on any malformed or trailing byte.
template <typename Step>
bool ReferenceDecode(const std::vector<uint8_t>& block, bool dict,
                     Step step) {
  mip::BufferReader r(block);
  auto codec = r.ReadU8();
  auto count = mip::engine::GetVarint(&r);
  if (!codec.ok() || !count.ok()) return false;
  std::vector<std::string> entries;
  if (dict) {
    auto n = mip::engine::GetVarint(&r);
    if (!n.ok()) return false;
    for (uint64_t i = 0; i < n.ValueOrDie(); ++i) {
      auto len = mip::engine::GetVarint(&r);
      if (!len.ok() || len.ValueOrDie() > r.Remaining()) return false;
      std::string e(len.ValueOrDie(), '\0');
      if (!r.ReadRawBytes(e.data(), e.size()).ok()) return false;
      entries.push_back(std::move(e));
    }
  }
  for (uint64_t i = 0; i < count.ValueOrDie(); ++i) {
    auto v = mip::engine::GetVarint(&r);
    if (!v.ok() || !step(v.ValueOrDie(), entries)) return false;
  }
  return r.AtEnd();
}

std::vector<uint8_t> TableBytes(const Table& table) {
  mip::BufferWriter w;
  mip::engine::SerializeTable(table, &w);
  return w.TakeBytes();
}

// Joins an EXPLAIN result's rows back into the rendered plan text.
std::string ExplainText(Database* db, const std::string& sql) {
  auto out = db->ExecuteSql("EXPLAIN " + sql);
  if (!out.ok()) return "";
  std::string text;
  for (size_t r = 0; r < out.ValueOrDie().num_rows(); ++r) {
    text += out.ValueOrDie().At(r, 0).string_value();
    text += '\n';
  }
  return text;
}

}  // namespace

int main() {
  std::printf("=== E17: disk segment store — LSM ingest + zone-map scans ===\n");
  std::printf("%lld rows, %llu-row segments, memtable budget 4 MiB\n\n",
              static_cast<long long>(kRows),
              static_cast<unsigned long long>(kSegmentRows));

  const std::string dir = "bench_storage_data";
  if (mip::storage::FileExists(dir)) {
    if (auto names = mip::storage::ListDir(dir); names.ok()) {
      for (const std::string& f : names.ValueOrDie()) {
        (void)mip::storage::RemoveFile(dir + "/" + f);
      }
    }
  }

  mip::storage::StorageOptions options;
  options.target_segment_rows = kSegmentRows;
  // E18: compaction re-sorts by the scattered key, turning the table into
  // one sorted run (flush segments stay unsorted until then).
  options.cluster_key = "key";
  auto opened = mip::storage::StorageEngine::Open(dir, options);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<mip::storage::StorageEngine> store =
      std::move(opened.ValueOrDie());

  // --- Ingest: WAL-first appends, auto-flushing past the memtable budget.
  Stopwatch ingest_sw;
  for (int64_t start = 0; start < kRows; start += kBatchRows) {
    auto st = store->AppendRows("events", MakeBatch(start, kBatchRows));
    if (!st.ok()) {
      std::fprintf(stderr, "append failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  if (auto st = store->Flush(); !st.ok()) {
    std::fprintf(stderr, "flush failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const double ingest_ms = ingest_sw.ElapsedMillis();
  const double ingest_rows_per_s = 1000.0 * kRows / ingest_ms;
  const uint64_t segments = store->SegmentCount("events").ValueOrDie();
  // Files a segment costs: everything in the directory but the manifest,
  // its spare and the WAL, per committed segment.
  uint64_t segment_files = 0;
  if (auto names = mip::storage::ListDir(dir); names.ok()) {
    for (const std::string& f : names.ValueOrDie()) {
      if (f != "MANIFEST" && f != "MANIFEST.tmp" && f.rfind("wal-", 0) != 0) {
        ++segment_files;
      }
    }
  }
  const double files_per_segment =
      segments > 0 ? static_cast<double>(segment_files) / segments : 0.0;
  std::printf("ingest: %lld rows in %.0f ms -> %.0f rows/s, %llu segments, "
              "%.2f files per segment\n",
              static_cast<long long>(kRows), ingest_ms, ingest_rows_per_s,
              static_cast<unsigned long long>(segments), files_per_segment);

  Database db("benchstore");
  if (auto st = db.AttachStorage(store.get()); !st.ok()) {
    std::fprintf(stderr, "attach failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // --- Full vs projected scan: a 2-column aggregate over every row. With
  // the optimizer off the scan reads and decodes all four column blocks of
  // every segment and the aggregate picks its two columns afterwards (the
  // beyond-buffer baseline); with it on, storage reads only the `id` and
  // `val` blocks. p50 over interleaved reps.
  const std::string projected_sql =
      "SELECT count(*) AS n, sum(val) AS s, max(id) AS hi FROM events";
  LatencyHistogram full_lat, projected_lat;
  std::string full_rows, projected_rows;
  for (int rep = 0; rep < kSelectiveReps; ++rep) {
    db.set_optimizer_enabled(false);
    Stopwatch full_sw;
    auto full = db.ExecuteSql(projected_sql);
    full_lat.Record(full_sw.ElapsedMillis());
    db.set_optimizer_enabled(true);
    Stopwatch projected_sw;
    auto projected = db.ExecuteSql(projected_sql);
    projected_lat.Record(projected_sw.ElapsedMillis());
    if (!full.ok() || !projected.ok()) {
      std::fprintf(stderr, "full/projected scan failed\n");
      return 1;
    }
    full_rows = full.ValueOrDie().ToString(10);
    projected_rows = projected.ValueOrDie().ToString(10);
    if (full_rows != projected_rows) break;
  }
  const double full_ms = full_lat.Quantile(0.5);
  const double projected_ms = projected_lat.Quantile(0.5);
  // The same projection at the storage layer, byte for byte: Scan against
  // the default TableStorage::Scan (full scan, then SelectTableColumns).
  const mip::engine::ScanSpec spec{{"id", "val"}, nullptr, false};
  auto projected_scan = store->Scan("events", spec, nullptr);
  auto selected_scan = store->mip::engine::TableStorage::Scan("events", spec,
                                                              nullptr);
  if (!projected_scan.ok() || !selected_scan.ok()) {
    std::fprintf(stderr, "storage projected scan failed\n");
    return 1;
  }
  const bool projected_identical =
      full_rows == projected_rows &&
      TableBytes(projected_scan.ValueOrDie()) ==
          TableBytes(selected_scan.ValueOrDie());
  std::printf("full scan (4 of 4 columns):      %s\n",
              full_lat.Summary().c_str());
  std::printf("projected scan (2 of 4 columns): %s\n",
              projected_lat.Summary().c_str());
  std::printf("projected results identical: %s\n",
              projected_identical ? "PASS" : "FAIL");

  // --- Selective scan: one ~64K-id slice out of 2M. Zone maps should skip
  // every segment whose id range misses the slice.
  const int64_t lo = kRows / 2;
  const int64_t hi = lo + static_cast<int64_t>(kSegmentRows);
  const std::string selective_sql =
      "SELECT count(*) AS n, sum(val) AS s FROM events WHERE id >= " +
      std::to_string(lo) + " AND id < " + std::to_string(hi);

  // Prune accounting for the exact pushed-down predicate.
  using mip::engine::Binary;
  using mip::engine::BinaryOp;
  using mip::engine::Col;
  using mip::engine::LitInt;
  auto prune_expr = mip::engine::And(
      Binary(BinaryOp::kGe, Col("id"), LitInt(lo)),
      Binary(BinaryOp::kLt, Col("id"), LitInt(hi)));
  const auto preview = store->PrunePreview("events", prune_expr.get());
  const int64_t pruned_segments = preview.ok() ? preview.ValueOrDie().pruned : 0;
  const int64_t total_segments = preview.ok() ? preview.ValueOrDie().total : 0;

  LatencyHistogram pruned_lat, unpruned_lat;
  std::string pruned_rows, unpruned_rows;
  for (int rep = 0; rep < kSelectiveReps; ++rep) {
    db.set_optimizer_enabled(true);
    Stopwatch sw1;
    auto r1 = db.ExecuteSql(selective_sql);
    pruned_lat.Record(sw1.ElapsedMillis());
    db.set_optimizer_enabled(false);  // no pushdown -> no prune hint
    Stopwatch sw2;
    auto r2 = db.ExecuteSql(selective_sql);
    unpruned_lat.Record(sw2.ElapsedMillis());
    if (!r1.ok() || !r2.ok()) {
      std::fprintf(stderr, "selective scan failed\n");
      return 1;
    }
    pruned_rows = r1.ValueOrDie().ToString(10);
    unpruned_rows = r2.ValueOrDie().ToString(10);
    if (pruned_rows != unpruned_rows) break;
  }

  const double p50_pruned = pruned_lat.Quantile(0.5);
  const double p50_unpruned = unpruned_lat.Quantile(0.5);
  const double speedup = p50_pruned > 0.0 ? p50_unpruned / p50_pruned : 0.0;
  const bool identical = pruned_rows == unpruned_rows;
  const bool pruned_enough =
      total_segments > 0 && pruned_segments * 4 >= total_segments * 3;
  const bool fast_enough = speedup >= 2.0;

  std::printf("selective (pruned):   %s\n", pruned_lat.Summary().c_str());
  std::printf("selective (unpruned): %s\n", unpruned_lat.Summary().c_str());
  std::printf("segments: pruned %lld / %lld\n",
              static_cast<long long>(pruned_segments),
              static_cast<long long>(total_segments));
  std::printf("\nresults identical:  %s\n", identical ? "PASS" : "FAIL");
  std::printf("pruning >= 75%%:     %s\n", pruned_enough ? "PASS" : "FAIL");
  std::printf("p50 speedup >= 2x:  %s (got %.1fx)\n",
              fast_enough ? "PASS" : "FAIL", speedup);

  const bool e17_pass =
      identical && pruned_enough && fast_enough && projected_identical;

  // =========================================================================
  // E18: ordered secondary indexes vs zone-map-only scans on `key`.
  // =========================================================================
  std::printf("\n=== E18: ordered indexes on an unsorted high-card key ===\n");
  db.set_optimizer_enabled(true);
  db.optimizer_options().index_scan = true;

  const int64_t point_key = KeyOf(1'234'567);
  const int64_t range_lo = 123'456'789;
  const int64_t range_hi = range_lo + 2'000;  // a handful of scattered rows
  const std::string point_sql =
      "SELECT count(*) AS n, sum(val) AS s FROM events WHERE key = " +
      std::to_string(point_key);
  const std::string range_sql =
      "SELECT count(*) AS n, sum(val) AS s FROM events WHERE key >= " +
      std::to_string(range_lo) + " AND key < " + std::to_string(range_hi);

  // The chosen access path must be visible in EXPLAIN, probe stats and all.
  const std::string explain = ExplainText(&db, point_sql);
  const bool explain_ok =
      explain.find("IndexScan") != std::string::npos &&
      explain.find("index: probes=") != std::string::npos;
  std::printf("%s", explain.c_str());

  // Byte parity: point + range, index path vs zone path, 1 vs 8 threads.
  mip::ThreadPool pool(8);
  const mip::engine::ExecContext parallel{
      &pool, mip::engine::ExecContext::kDefaultMorselSize};
  bool e18_identical = true;
  std::string point_ref, range_ref;
  for (const mip::engine::ExecContext* ctx :
       {&mip::engine::ExecContext::Serial(), &parallel}) {
    db.set_exec_context(ctx);
    for (bool use_index : {false, true}) {
      db.optimizer_options().index_scan = use_index;
      auto p = db.ExecuteSql(point_sql);
      auto r = db.ExecuteSql(range_sql);
      if (!p.ok() || !r.ok()) {
        std::fprintf(stderr, "e18 query failed\n");
        return 1;
      }
      const std::string ps = p.ValueOrDie().ToString(10);
      const std::string rs = r.ValueOrDie().ToString(10);
      if (point_ref.empty()) {
        point_ref = ps;
        range_ref = rs;
      } else if (ps != point_ref || rs != range_ref) {
        e18_identical = false;
      }
    }
  }
  db.set_exec_context(nullptr);

  // p50 latencies: index path vs zone-map-only ablation.
  auto measure = [&db](const std::string& sql, bool use_index,
                       LatencyHistogram* lat) {
    db.optimizer_options().index_scan = use_index;
    for (int rep = 0; rep < kIndexReps; ++rep) {
      Stopwatch sw;
      auto r = db.ExecuteSql(sql);
      lat->Record(sw.ElapsedMillis());
      if (!r.ok()) return false;
    }
    return true;
  };
  LatencyHistogram point_idx, point_zone, range_idx, range_zone;
  if (!measure(point_sql, true, &point_idx) ||
      !measure(point_sql, false, &point_zone) ||
      !measure(range_sql, true, &range_idx) ||
      !measure(range_sql, false, &range_zone)) {
    std::fprintf(stderr, "e18 latency sweep failed\n");
    return 1;
  }
  const double point_idx_p50 = point_idx.Quantile(0.5);
  const double point_zone_p50 = point_zone.Quantile(0.5);
  const double range_idx_p50 = range_idx.Quantile(0.5);
  const double range_zone_p50 = range_zone.Quantile(0.5);
  const double point_speedup =
      point_idx_p50 > 0.0 ? point_zone_p50 / point_idx_p50 : 0.0;
  const double range_speedup =
      range_idx_p50 > 0.0 ? range_zone_p50 / range_idx_p50 : 0.0;
  std::printf("point (index):  %s\n", point_idx.Summary().c_str());
  std::printf("point (zone):   %s\n", point_zone.Summary().c_str());
  std::printf("range (index):  %s\n", range_idx.Summary().c_str());
  std::printf("range (zone):   %s\n", range_zone.Summary().c_str());

  // Compaction: fold the flush segments into one run sorted by `key`,
  // then re-run the same queries — bytes must not move.
  Stopwatch compact_sw;
  if (auto st = store->Compact("events"); !st.ok()) {
    std::fprintf(stderr, "compact failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const double compact_ms = compact_sw.ElapsedMillis();
  const uint64_t segments_after =
      store->SegmentCount("events").ValueOrDie();
  LatencyHistogram point_post, range_post;
  db.set_exec_context(&mip::engine::ExecContext::Serial());
  for (bool use_index : {false, true}) {
    db.optimizer_options().index_scan = use_index;
    auto p = db.ExecuteSql(point_sql);
    auto r = db.ExecuteSql(range_sql);
    if (!p.ok() || !r.ok()) {
      std::fprintf(stderr, "post-compaction query failed\n");
      return 1;
    }
    if (p.ValueOrDie().ToString(10) != point_ref ||
        r.ValueOrDie().ToString(10) != range_ref) {
      e18_identical = false;
    }
  }
  db.set_exec_context(nullptr);
  db.optimizer_options().index_scan = true;
  if (!measure(point_sql, true, &point_post) ||
      !measure(range_sql, true, &range_post)) {
    std::fprintf(stderr, "post-compaction sweep failed\n");
    return 1;
  }
  const double point_post_p50 = point_post.Quantile(0.5);
  const double range_post_p50 = range_post.Quantile(0.5);
  std::printf("compaction: %.0f ms -> %llu segments (sorted by key)\n",
              compact_ms, static_cast<unsigned long long>(segments_after));
  std::printf("point (post-compact): %s\n", point_post.Summary().c_str());
  std::printf("range (post-compact): %s\n", range_post.Summary().c_str());

  const bool e18_fast = point_speedup >= 10.0;
  std::printf("\ne18 results identical:      %s\n",
              e18_identical ? "PASS" : "FAIL");
  std::printf("e18 EXPLAIN shows IndexScan: %s\n",
              explain_ok ? "PASS" : "FAIL");
  std::printf("e18 point p50 >= 10x:        %s (got %.1fx; range %.1fx)\n",
              e18_fast ? "PASS" : "FAIL", point_speedup, range_speedup);
  const bool e18_pass = e18_identical && explain_ok && e18_fast;

  // --- CRC32 throughput, mip::Crc32 vs the bytewise reference.
  std::printf("\n=== CRC32: mip::Crc32 vs bytewise reference ===\n");
  std::vector<uint8_t> crc_buf(kCrcBytes);
  Rng crc_rng(0xC3C32);
  for (size_t i = 0; i < crc_buf.size(); i += 8) {
    const uint64_t word = crc_rng.NextUint64();
    for (size_t b = 0; b < 8 && i + b < crc_buf.size(); ++b) {
      crc_buf[i + b] = static_cast<uint8_t>(word >> (8 * b));
    }
  }
  uint32_t crc_sum = 0, crc_ref_sum = 0;
  const double crc_mb_s = CrcMbPerS(
      crc_buf, [](const uint8_t* d, size_t n) { return mip::Crc32(d, n); },
      &crc_sum);
  const double crc_ref_mb_s = CrcMbPerS(crc_buf, ReferenceCrc32, &crc_ref_sum);
  const bool crc_matches = crc_sum == crc_ref_sum;
  std::printf("crc32: %.0f MB/s, reference %.0f MB/s over %zu MiB\n",
              crc_mb_s, crc_ref_mb_s, kCrcBytes >> 20);
  std::printf("crc32 matches reference: %s\n",
              crc_matches ? "PASS" : "FAIL");

  // --- Decode throughput of the three varint codecs.
  std::printf("\n=== Decode: one %zu-value block per varint codec ===\n",
              kDecodeValues);
  Rng dec_rng(0xDEC0DE);
  std::vector<double> dec_doubles;
  std::vector<int64_t> dec_ints;
  std::vector<std::string> dec_strings;
  size_t string_bytes = 0;
  for (size_t i = 0; i < kDecodeValues; ++i) {
    dec_doubles.push_back(dec_rng.NextGaussian(20.0, 3.0));
    dec_ints.push_back(KeyOf(static_cast<int64_t>(i)));
    dec_strings.push_back("site_" + std::to_string(i % 7));
    string_bytes += dec_strings.back().size();
  }
  mip::BufferWriter xor_w, delta_w, dict_w;
  bool decode_matches =
      mip::engine::EncodeDoubles(dec_doubles, &xor_w) ==
          mip::engine::Codec::kXorDouble &&
      mip::engine::EncodeInts(dec_ints, &delta_w) ==
          mip::engine::Codec::kDeltaVarint &&
      mip::engine::EncodeStrings(dec_strings, &dict_w) ==
          mip::engine::Codec::kDict;
  std::vector<double> got_doubles;
  std::vector<int64_t> got_ints;
  std::vector<std::string> got_strings;
  const double xor_mb_s =
      DecodeMbPerS<double>(xor_w.bytes(), &mip::engine::DecodeDoubles,
                           kDecodeValues * sizeof(double), &got_doubles);
  const double delta_mb_s =
      DecodeMbPerS<int64_t>(delta_w.bytes(), &mip::engine::DecodeInts,
                            kDecodeValues * sizeof(int64_t), &got_ints);
  const double dict_mb_s =
      DecodeMbPerS<std::string>(dict_w.bytes(), &mip::engine::DecodeStrings,
                                string_bytes, &got_strings);
  std::vector<uint64_t> ref_bits;
  std::vector<int64_t> ref_ints;
  std::vector<std::string> ref_strings;
  uint64_t prev = 0;
  decode_matches =
      decode_matches &&
      ReferenceDecode(xor_w.bytes(), false,
                      [&](uint64_t v, const std::vector<std::string>&) {
                        prev ^= v;
                        ref_bits.push_back(prev);
                        return true;
                      });
  prev = 0;
  decode_matches =
      decode_matches &&
      ReferenceDecode(delta_w.bytes(), false,
                      [&](uint64_t v, const std::vector<std::string>&) {
                        prev += static_cast<uint64_t>(
                            mip::engine::ZigZagDecode(v));
                        ref_ints.push_back(static_cast<int64_t>(prev));
                        return true;
                      });
  decode_matches =
      decode_matches &&
      ReferenceDecode(dict_w.bytes(), true,
                      [&](uint64_t v, const std::vector<std::string>& e) {
                        if (v >= e.size()) return false;
                        ref_strings.push_back(e[v]);
                        return true;
                      });
  std::vector<uint64_t> got_bits(got_doubles.size());
  std::vector<uint64_t> want_bits(dec_doubles.size());
  std::memcpy(got_bits.data(), got_doubles.data(),
              got_doubles.size() * sizeof(double));
  std::memcpy(want_bits.data(), dec_doubles.data(),
              dec_doubles.size() * sizeof(double));
  decode_matches = decode_matches && got_bits == ref_bits &&
                   got_bits == want_bits && got_ints == ref_ints &&
                   got_ints == dec_ints && got_strings == ref_strings &&
                   got_strings == dec_strings;
  std::printf("decode xor-double: %.0f MB/s (%zu B encoded)\n", xor_mb_s,
              xor_w.size());
  std::printf("decode delta-int:  %.0f MB/s (%zu B encoded)\n", delta_mb_s,
              delta_w.size());
  std::printf("decode dict-string: %.0f MB/s (%zu B encoded)\n", dict_mb_s,
              dict_w.size());
  std::printf("decode matches reference: %s\n",
              decode_matches ? "PASS" : "FAIL");

  const bool pass = e17_pass && e18_pass && crc_matches && decode_matches;
  if (std::FILE* f = std::fopen("BENCH_storage.json", "w")) {
    std::fprintf(
        f,
        "{\n"
        "  \"experiment\": \"E17+E18\",\n"
        "  \"rows\": %lld, \"segments\": %llu,\n"
        "  \"ingest_rows_per_s\": %.0f,\n"
        "  \"files_per_segment\": %.2f,\n"
        "  \"full_scan_ms\": %.2f,\n"
        "  \"projected_scan_ms\": %.2f,\n"
        "  \"projected_results_identical\": %s,\n"
        "  \"selective_pruned_p50_ms\": %.3f,\n"
        "  \"selective_unpruned_p50_ms\": %.3f,\n"
        "  \"speedup_p50\": %.2f,\n"
        "  \"segments_pruned\": %lld, \"segments_total\": %lld,\n"
        "  \"results_identical\": %s,\n"
        "  \"e18_point_index_p50_ms\": %.3f,\n"
        "  \"e18_point_zone_p50_ms\": %.3f,\n"
        "  \"e18_point_speedup\": %.2f,\n"
        "  \"e18_range_index_p50_ms\": %.3f,\n"
        "  \"e18_range_zone_p50_ms\": %.3f,\n"
        "  \"e18_range_speedup\": %.2f,\n"
        "  \"e18_compact_ms\": %.0f,\n"
        "  \"e18_segments_after_compact\": %llu,\n"
        "  \"e18_post_compact_point_p50_ms\": %.3f,\n"
        "  \"e18_post_compact_range_p50_ms\": %.3f,\n"
        "  \"e18_explain_shows_index_scan\": %s,\n"
        "  \"e18_results_identical\": %s,\n"
        "  \"e18_pass\": %s,\n"
        "  \"crc32_mb_s\": %.0f,\n"
        "  \"crc32_ref_mb_s\": %.0f,\n"
        "  \"crc32_matches_reference\": %s,\n"
        "  \"decode_xor_double_mb_s\": %.0f,\n"
        "  \"decode_delta_int_mb_s\": %.0f,\n"
        "  \"decode_dict_string_mb_s\": %.0f,\n"
        "  \"decode_matches_reference\": %s,\n"
        "  \"pass\": %s\n"
        "}\n",
        static_cast<long long>(kRows),
        static_cast<unsigned long long>(segments), ingest_rows_per_s,
        files_per_segment, full_ms,
        projected_ms, projected_identical ? "true" : "false", p50_pruned, p50_unpruned, speedup,
        static_cast<long long>(pruned_segments),
        static_cast<long long>(total_segments), identical ? "true" : "false",
        point_idx_p50, point_zone_p50, point_speedup, range_idx_p50,
        range_zone_p50, range_speedup, compact_ms,
        static_cast<unsigned long long>(segments_after), point_post_p50,
        range_post_p50, explain_ok ? "true" : "false",
        e18_identical ? "true" : "false", e18_pass ? "true" : "false",
        crc_mb_s, crc_ref_mb_s, crc_matches ? "true" : "false", xor_mb_s,
        delta_mb_s, dict_mb_s, decode_matches ? "true" : "false",
        pass ? "true" : "false");
    std::fclose(f);
    std::printf("wrote BENCH_storage.json\n");
  }
  return pass ? 0 : 1;
}
