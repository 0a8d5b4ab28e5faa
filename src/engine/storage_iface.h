#ifndef MIP_ENGINE_STORAGE_IFACE_H_
#define MIP_ENGINE_STORAGE_IFACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/stats.h"
#include "engine/table.h"

namespace mip::engine {

struct Expr;

/// \brief Per-scan segment accounting: how many on-disk segments a scan
/// touched vs skipped (zone maps, and on the index path also ordered-index
/// probes that proved a segment empty). `total == scanned + pruned`;
/// memtable rows are not segments and are never counted.
struct ScanStats {
  int64_t total = 0;
  int64_t scanned = 0;
  int64_t pruned = 0;
  /// Index accounting (IndexScan path only): segments probed through an
  /// ordered secondary index, and the total candidate rows those probes
  /// matched. Zero on the plain scan path.
  int64_t index_probes = 0;
  int64_t index_rows = 0;
};

/// \brief The storage layer's answer to "would an IndexScan beat the
/// zone-map scan here?" — computed from real (cheap, footer-guided) index
/// probes, so `stats.index_rows` is the exact candidate count at preview
/// time, not a guess. The optimizer turns `use_index` into a plan-node
/// choice and copies the numbers into EXPLAIN.
struct IndexPreview {
  bool use_index = false;
  /// Segment accounting the index path would produce (pruned counts both
  /// zone-map skips and index-proved-empty skips; index_probes/index_rows
  /// are the probes it would run and the candidate rows they match).
  ScanStats stats;
};

/// \brief What one scan reads. `columns` empty means every column, in
/// schema order; otherwise the result holds exactly these columns (matched
/// case-insensitively, named as in the table schema), in this order.
/// `prune_filter` (may be null) is the advisory pruning hint described at
/// TableStorage::ScanTable. `use_index` picks the IndexScanTable access
/// path. None of the three may change the rows a scan returns: a projected
/// scan equals SelectTableColumns of the full scan, byte for byte.
struct ScanSpec {
  std::vector<std::string> columns;
  const Expr* prune_filter = nullptr;
  bool use_index = false;
};

/// Keeps `columns` of `table`, in that order, moving them out rather than
/// copying. A name missing from `table` is an Internal error (a projection
/// the planner built from the table's own schema); a repeated name is
/// rejected by the Schema.
Result<Table> SelectTableColumns(Table table,
                                 const std::vector<std::string>& columns);

/// \brief Monotonic storage-layer counters for the /metrics surface:
/// lifetime totals since the store opened (in-memory, reset per process).
struct StorageCounters {
  uint64_t segments_scanned = 0;  ///< segments decoded by scans
  uint64_t segments_pruned = 0;   ///< segments skipped (zone map or index)
  uint64_t index_probes = 0;      ///< per-segment ordered-index probes
  uint64_t index_hits = 0;        ///< probes that found candidate rows
  uint64_t flushes = 0;           ///< memtable flushes committed
  uint64_t compactions = 0;       ///< background/explicit compactions
  uint64_t wal_replays = 0;       ///< WAL records replayed at Open
};

/// \brief Abstract view of a disk-resident table store, implemented by
/// storage::StorageEngine and injected into Database (the same
/// dependency-inverting shape as RemoteSite: the engine plans and
/// executes against the interface, the storage library depends on the
/// engine — never the reverse). The engine reads rows only through Scan;
/// ScanTable and IndexScanTable are the full-width scans it defaults to.
class TableStorage {
 public:
  virtual ~TableStorage() = default;

  /// Names of every disk-resident table (lower-cased catalog keys).
  virtual std::vector<std::string> StorageTableNames() const = 0;

  virtual Result<Schema> StorageTableSchema(const std::string& name) const = 0;

  /// The scan entry point the engine calls (the executor's Scan/IndexScan
  /// nodes, Database::GetTable). Returns the rows of ScanTable (or, with
  /// `spec.use_index`, IndexScanTable) restricted to `spec.columns`. The
  /// default runs that full scan and then SelectTableColumns; a store that
  /// can read columns separately overrides it to read only the requested
  /// ones (storage::StorageEngine decodes only their segment blocks).
  /// Decorators that do not override it take the default, full-decode path.
  virtual Result<Table> Scan(const std::string& name, const ScanSpec& spec,
                             ScanStats* stats) const;

  /// Materializes a table: committed segments in ingest order, then the
  /// WAL'd memtable rows. `prune_filter` (may be null) is advisory — the
  /// scan may use its conjuncts against per-segment zone maps to skip
  /// segments that provably match no rows, but must never change the
  /// result: the executor keeps the Filter node above the scan, so a scan
  /// that ignores the hint entirely is still correct. Fills `*stats` when
  /// non-null.
  virtual Result<Table> ScanTable(const std::string& name,
                                  const Expr* prune_filter,
                                  ScanStats* stats) const = 0;

  /// Durably appends rows (WAL first, then memtable; flush policy is the
  /// implementation's). Creates the table from the batch schema when it
  /// does not exist yet.
  virtual Status AppendRows(const std::string& name, const Table& rows) = 0;

  /// Zone-map prune accounting for EXPLAIN without reading any data
  /// blocks: exactly the skip decisions ScanTable would make right now.
  virtual Result<ScanStats> PrunePreview(const std::string& name,
                                         const Expr* prune_filter) const = 0;

  /// Like ScanTable, but additionally consults the per-segment ordered
  /// secondary indexes: a segment whose probe proves zero candidate rows is
  /// skipped without being decoded. Same superset contract as zone maps —
  /// the Filter above re-applies the predicate, so results are byte-
  /// identical to ScanTable for any filter.
  virtual Result<Table> IndexScanTable(const std::string& name,
                                       const Expr* prune_filter,
                                       ScanStats* stats) const = 0;

  /// Access-path preview for the optimizer: probes the ordered indexes
  /// under `prune_filter` (cheap, footer-guided) and reports whether the
  /// index path would decode strictly fewer segments than the zone-map
  /// path, with exactly the ScanStats IndexScanTable would fill right now.
  virtual Result<IndexPreview> PreviewIndexScan(
      const std::string& name, const Expr* prune_filter) const = 0;

  /// Table statistics for the cost model, assembled from footer metadata
  /// (row counts, zone-map min/max/null counts) without decoding any data
  /// blocks; NDV stays -1 (unknown) since footers carry no sketches.
  virtual Result<TableStats> StorageTableStats(
      const std::string& name) const = 0;

  /// Lifetime counters for the serving layer's /metrics page. Previews do
  /// not move them; only executing scans do.
  virtual StorageCounters Counters() const = 0;
};

}  // namespace mip::engine

#endif  // MIP_ENGINE_STORAGE_IFACE_H_
