#ifndef MIP_STORAGE_STORE_H_
#define MIP_STORAGE_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "engine/storage_iface.h"
#include "engine/table.h"
#include "storage/compaction.h"
#include "storage/index.h"
#include "storage/manifest.h"
#include "storage/segment.h"

namespace mip::storage {

struct StorageOptions {
  /// Memtable flush threshold, summed across tables (estimated in-memory
  /// bytes of WAL'd-but-unflushed rows).
  uint64_t memtable_budget_bytes = 4ull << 20;
  /// Rows per segment file; larger memtables flush into several segments,
  /// which is what gives zone maps something to prune.
  uint64_t target_segment_rows = 64 * 1024;

  /// Compaction clustering key: the column compacted segments are re-sorted
  /// by (sharpens zone maps / index block ranges). Empty = each table's
  /// first column.
  std::string cluster_key;
  /// Background compaction picks up a table once it has at least this many
  /// segments.
  uint64_t compact_min_segments = 8;
  /// Poll interval of the background compaction thread.
  uint64_t background_compact_interval_ms = 250;
};

/// \brief Disk-backed columnar table store with LSM-style ingest, ordered
/// secondary indexes, and background compaction.
///
/// Layout inside the data directory:
///   MANIFEST            committed root (manifest.h)
///   MANIFEST.tmp        the commit before last: the spare the next commit
///                       overwrites in place and swaps in (manifest.h)
///   seg-<id>.mip        immutable columnar segments, each holding the
///                       ordered index of every user column (segment.h,
///                       index.h)
///   wal-<id>.log        live WAL epoch, a recycled file (wal.h)
///
/// Append path: WAL record written at the epoch's tail and fsynced first,
/// then the batch joins the in-memory memtable; once the summed memtable
/// estimate exceeds the budget, the memtables flush. Flush() with every
/// memtable empty is a no-op. The destructor deliberately does NOT flush
/// — durability must come from the WAL alone, and the crash tests hold us
/// to that.
///
/// A flush frees no disk block. Its commit order: write the segments (new
/// files, one per segment, renamed onto unused names); swap the new
/// manifest in (spare rewritten in place, fsync, exchange, directory
/// fsync) — the commit point, which names the next WAL epoch and its salt;
/// rename the old WAL to the next epoch's name and fsync the directory.
/// Only compaction unlinks files: the segments it replaced, because that is
/// how their space comes back.
///
/// Recovery (Open): load + validate MANIFEST, validate every referenced
/// segment footer (hard error on mismatch — committed data), read each
/// segment's index directories (soft: a directory that fails its CRC, its
/// parse or its match against the footer loses only that index, and the
/// segment scans by zone maps for that column — an index is an
/// accelerator, losing one must never lose data or fail recovery), delete
/// orphan segments, index files of the previous storage format and *.tmp
/// leftovers other than the manifest's spare, rename a stale WAL to the
/// live name when a flush died before doing so and delete any other, then
/// replay the live WAL under the manifest's salt up to its first invalid
/// record, which sets the tail the next append writes at. Open never
/// builds an index: a segment written before indexes moved into segment
/// files (version 1) scans by zone maps until a compaction rewrites it,
/// with the same answers on either path.
///
/// Read path: one private routine, SelectSegmentsLocked, decides which
/// segments a read under a pruning hint decodes — zone maps first, then
/// (index path only) a probe of each surviving segment's ordered indexes,
/// skipping segments a probe proves empty — and returns that choice with
/// its ScanStats. Scan executes it (ScanTable and IndexScanTable are Scan
/// of every column on the zone and index paths); PrunePreview and
/// PreviewIndexScan return its stats for the optimizer, so a preview always
/// equals the scan it predicts. Only an executing scan bumps the lifetime
/// counters. Scan builds its output under the projected schema: each
/// selected segment reads and decodes only the blocks of the requested
/// columns (a compacted group's also its hidden position column), and
/// memtable batches contribute only those columns. Every scan restores the
/// original row order of compacted groups (see compaction.h), so results
/// are byte-identical across access paths, projections and compaction.
///
/// Thread-safe: scans take a shared lock for their entire read (segment
/// files are immutable; visibility flows through the in-memory
/// manifest epoch), appends/flushes/commits an exclusive one. Compactions
/// serialize among themselves and only take the exclusive lock to commit.
class StorageEngine : public engine::TableStorage {
 public:
  static Result<std::unique_ptr<StorageEngine>> Open(
      const std::string& dir, const StorageOptions& options = {});

  /// Stops the background compaction thread; does NOT flush (see above).
  ~StorageEngine() override;
  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  // engine::TableStorage:
  std::vector<std::string> StorageTableNames() const override;
  Result<engine::Schema> StorageTableSchema(
      const std::string& name) const override;
  /// Decodes only the column blocks `spec.columns` names (see "Read path").
  Result<engine::Table> Scan(const std::string& name,
                             const engine::ScanSpec& spec,
                             engine::ScanStats* stats) const override;
  Result<engine::Table> ScanTable(const std::string& name,
                                  const engine::Expr* prune_filter,
                                  engine::ScanStats* stats) const override;
  Status AppendRows(const std::string& name,
                    const engine::Table& rows) override;
  Result<engine::ScanStats> PrunePreview(
      const std::string& name,
      const engine::Expr* prune_filter) const override;
  Result<engine::Table> IndexScanTable(const std::string& name,
                                       const engine::Expr* prune_filter,
                                       engine::ScanStats* stats) const override;
  Result<engine::IndexPreview> PreviewIndexScan(
      const std::string& name,
      const engine::Expr* prune_filter) const override;
  /// Cost-model statistics from committed footer metadata (segment row
  /// counts + zone maps) plus the live memtable — no data blocks decoded.
  /// NDV is unknown (-1): footers carry no sketches.
  Result<engine::TableStats> StorageTableStats(
      const std::string& name) const override;
  engine::StorageCounters Counters() const override;

  /// Forces memtables into segments and commits a new manifest; a no-op
  /// when every memtable is empty.
  Status Flush();

  /// Merges `name`'s committed segments into one sorted compaction group
  /// (no-op below two segments). Scan results are unchanged; see
  /// compaction.h for the order-restoration and crash-safety story.
  /// `hooks.checkpoint` is a test seam simulating a crash between steps.
  Status Compact(const std::string& name, const CompactionHooks& hooks = {});
  /// Compacts every table that has at least `min_segments` segments
  /// (defaults to the configured threshold).
  Status CompactAll(uint64_t min_segments = 0);
  /// Starts/stops the periodic background compaction thread. Idempotent;
  /// the destructor stops it.
  void StartBackgroundCompaction();
  void StopBackgroundCompaction();

  /// Full audit of every index every segment lists (CRCs, sortedness, row
  /// ids), read from disk — the typed-kIOError surface for corruption that
  /// Open and the scan paths deliberately swallow by falling back.
  Status VerifyIndexes() const;

  const std::string& dir() const { return dir_; }
  /// Committed segment count for one table (tests / tooling).
  Result<uint64_t> SegmentCount(const std::string& name) const;
  /// Valid (loadable) index count across one table's segments.
  Result<uint64_t> IndexCount(const std::string& name) const;
  /// Rows sitting in the (WAL-backed) memtable for one table.
  Result<uint64_t> MemtableRows(const std::string& name) const;

 private:
  struct SegmentState {
    uint64_t id = 0;
    uint64_t group = 0;  // compaction group id, 0 = not compacted
    SegmentFooter footer;
    /// The indexes whose directories read back and matched the footer; a
    /// column without one scans by zone maps.
    std::vector<IndexDirectory> indexes;
  };
  struct TableState {
    engine::Schema schema;  // user schema (never contains hidden columns)
    std::vector<SegmentState> segments;
    std::vector<engine::Table> memtable;  // batches, ingest order
    uint64_t memtable_rows = 0;
  };

  StorageEngine(std::string dir, StorageOptions options)
      : dir_(std::move(dir)), options_(std::move(options)) {}

  std::string SegmentPath(uint64_t id) const;
  std::string WalPath(uint64_t id) const;
  std::string ManifestPath() const;

  Status RecoverLocked();
  Status FlushLocked();
  Status ApplyToMemtableLocked(const std::string& key,
                               const engine::Table& rows);
  /// Segment `id` with its validated `footer` and the indexes whose
  /// directories read back (see "Recovery").
  SegmentState LoadSegment(uint64_t id, uint64_t group,
                           SegmentFooter footer) const;
  static ManifestSegment DescribeSegment(const SegmentState& seg);
  /// Serializes the in-memory committed state under the given WAL epoch.
  Manifest BuildManifestLocked(uint64_t wal_id, uint32_t wal_salt) const;
  /// Which of a table's segments a read under `prune_filter` decodes, and
  /// the ScanStats that choice produces.
  struct SegmentSelection {
    std::vector<bool> decode;  ///< parallel to TableState::segments
    engine::ScanStats stats;
    int64_t zone_survivors = 0;  ///< segments zone maps alone keep
    uint64_t index_hits = 0;     ///< probes that found candidate rows
  };
  /// The one access-path decision (see "Read path" above): zone maps, then
  /// with `use_index` the ordered-index probes. Touches no counter. Caller
  /// holds the shared lock.
  SegmentSelection SelectSegmentsLocked(const TableState& state,
                                        const engine::Expr* prune_filter,
                                        bool use_index) const;
  /// The one segment walk shared by scans and compaction: appends the rows
  /// of the `decode`-selected `segs` to `*out` in visible order. `out`'s
  /// columns are any subset of the table's user columns, in any order; only
  /// their blocks are read. A plain segment decodes straight into `out`; a
  /// compacted group's selected segments decode those columns plus the
  /// hidden position column into one table, which RestoreGroupOrder gathers
  /// into `out`. Reads only immutable segment files; on error `*out` may
  /// hold a partial append.
  Status AppendSegmentRows(const std::vector<SegmentState>& segs,
                           const std::vector<bool>& decode,
                           engine::Table* out) const;
  /// Scan's body: appends the selected segments and the memtable into one
  /// reserved table of the projected schema, bumps the counters. Caller
  /// holds the shared lock.
  Result<engine::Table> ScanLocked(const TableState& state,
                                   const engine::ScanSpec& spec,
                                   engine::ScanStats* stats) const;
  void BackgroundCompactionLoop();

  const std::string dir_;
  const StorageOptions options_;

  mutable std::shared_mutex mu_;
  uint64_t wal_id_ = 0;
  uint32_t wal_salt_ = 0;  // seeds the live epoch's record CRCs (wal.h)
  uint64_t wal_tail_ = 0;  // offset of the live WAL's next record
  uint64_t next_segment_id_ = 0;
  uint64_t memtable_bytes_ = 0;  // estimate, summed across tables
  std::map<std::string, TableState> tables_;  // key: lower-cased name

  /// Serializes compactions against each other (NOT against scans/appends;
  /// those only contend on mu_ at the commit).
  std::mutex compact_mu_;

  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool bg_stop_ = false;
  std::thread bg_thread_;

  // Lifetime counters for /metrics (monotonic, in-memory).
  mutable std::atomic<uint64_t> ctr_segments_scanned_{0};
  mutable std::atomic<uint64_t> ctr_segments_pruned_{0};
  mutable std::atomic<uint64_t> ctr_index_probes_{0};
  mutable std::atomic<uint64_t> ctr_index_hits_{0};
  std::atomic<uint64_t> ctr_flushes_{0};
  std::atomic<uint64_t> ctr_compactions_{0};
  std::atomic<uint64_t> ctr_wal_replays_{0};
};

}  // namespace mip::storage

#endif  // MIP_STORAGE_STORE_H_
