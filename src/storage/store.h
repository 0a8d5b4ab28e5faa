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

  /// Build an ordered secondary index for every column at flush/compaction
  /// time. When false, only `index_columns` (if any) are indexed.
  bool auto_index = true;
  /// Explicit index columns (case-insensitive), used when !auto_index.
  std::vector<std::string> index_columns;
  /// At Open, build any index the manifest is missing (e.g. segments
  /// flushed under a narrower auto_index/index_columns setting). Indexes
  /// the manifest references but whose files fail validation are NOT
  /// rebuilt — they stay invalid so the scan fallback remains observable
  /// until the next flush/compaction rewrites them.
  bool build_missing_indexes = true;

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
///   seg-<id>.mip        immutable columnar segments (segment.h)
///   idx-<id>.mix        immutable ordered indexes, one per
///                       (segment, column) (index.h)
///   wal-<id>.log        live WAL epoch (wal.h)
///
/// Append path: WAL record fsynced first, then the batch joins the
/// in-memory memtable; once the summed memtable estimate exceeds the
/// budget, the memtables flush into segments (and their indexes) and a new
/// manifest commits atomically. The destructor deliberately does NOT flush
/// — durability must come from the WAL alone, and the crash tests hold us
/// to that.
///
/// Recovery (Open): load + validate MANIFEST, validate every referenced
/// segment footer (hard error on mismatch — committed data), load every
/// referenced index footer (soft: an unreadable index is marked invalid
/// and that segment falls back to the zone-map path — an index is an
/// accelerator, losing one must never lose data or fail recovery), delete
/// orphan segments / indexes / stale WALs / *.tmp leftovers, replay the
/// live WAL (truncating a torn tail), then build any indexes the manifest
/// never had (old-format directories gain indexes on boot).
///
/// Read path: ScanTable prunes with zone maps only; IndexScanTable
/// additionally probes each surviving segment's ordered indexes and skips
/// segments a probe proves empty. Both restore the original row order of
/// compacted groups (see compaction.h), so results are byte-identical to
/// each other and to the never-compacted store.
///
/// Thread-safe: scans take a shared lock for their entire read (segment
/// and index files are immutable; visibility flows through the in-memory
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

  /// Forces memtables into segments and commits a new manifest.
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

  /// Full audit of every valid index file (CRCs, sortedness, row ids);
  /// the typed-kIOError surface for corruption that the scan paths
  /// deliberately swallow by falling back.
  Status VerifyIndexes() const;

  const std::string& dir() const { return dir_; }
  /// Committed segment count for one table (tests / tooling).
  Result<uint64_t> SegmentCount(const std::string& name) const;
  /// Valid (loadable) index count across one table's segments.
  Result<uint64_t> IndexCount(const std::string& name) const;
  /// Rows sitting in the (WAL-backed) memtable for one table.
  Result<uint64_t> MemtableRows(const std::string& name) const;

 private:
  struct IndexState {
    uint64_t id = 0;
    std::string column;
    IndexFooter footer;
    /// False when the sidecar failed validation at Open — the segment then
    /// behaves as if this index did not exist.
    bool valid = false;
  };
  struct SegmentState {
    uint64_t id = 0;
    uint64_t group = 0;  // compaction group id, 0 = not compacted
    SegmentFooter footer;
    std::vector<IndexState> indexes;
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
  std::string IndexPath(uint64_t id) const;
  std::string WalPath(uint64_t id) const;
  std::string ManifestPath() const;

  Status RecoverLocked();
  Status FlushLocked();
  Status ApplyToMemtableLocked(const std::string& key,
                               const engine::Table& rows);
  /// Columns of `schema` that should carry indexes under the options.
  std::vector<std::string> IndexedColumns(const engine::Schema& schema) const;
  /// Builds the configured indexes over `data` (one segment's rows),
  /// assigning ids from `*next_index_id`.
  Status BuildSegmentIndexes(const engine::Table& data, uint64_t* next_index_id,
                             std::vector<IndexState>* out) const;
  /// Serializes the in-memory committed state (callers pass the wal/next
  /// ids the manifest should record).
  Manifest BuildManifestLocked(uint64_t wal_id) const;
  /// Builds indexes missing from the manifest (boot path for pre-index
  /// data directories); commits one manifest if anything was built.
  Status EnsureIndexesLocked();
  /// Shared scan body: zone-map pruning, optionally index probes, group
  /// order restoration. Caller holds the shared lock.
  Result<engine::Table> ScanLocked(const TableState& state,
                                   const engine::Expr* prune_filter,
                                   engine::ScanStats* stats,
                                   bool use_index) const;
  void BackgroundCompactionLoop();

  const std::string dir_;
  const StorageOptions options_;

  mutable std::shared_mutex mu_;
  uint64_t wal_id_ = 0;
  uint64_t next_segment_id_ = 0;
  uint64_t next_index_id_ = 0;
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
