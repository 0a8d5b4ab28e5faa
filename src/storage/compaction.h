#ifndef MIP_STORAGE_COMPACTION_H_
#define MIP_STORAGE_COMPACTION_H_

#include <functional>
#include <string>

#include "common/result.h"
#include "engine/table.h"

namespace mip::storage {

/// \brief Background segment compaction: merge a table's small flush
/// segments into one *sorted* group so zone maps become sharp (key-disjoint
/// segments) — without changing any visible scan result.
///
/// The re-sort is the whole point (clustering the data is what lets zone
/// maps prune), but scans must stay byte-identical to the pre-compaction
/// store at any thread count, and the gateway result cache must stay valid
/// (compaction must NOT look like a data change). The trick: every
/// compacted segment carries a hidden kHiddenPosColumn int column holding
/// each row's original position within the compaction group, and the
/// manifest marks the group's segments with a shared group id. Scans
/// restore the original order per group (an O(n) inverse permutation when
/// the whole group survives pruning, an argsort of the surviving positions
/// otherwise) and strip the hidden column — so SELECTs see exactly the
/// pre-compaction rows in the pre-compaction order, while the *files* are
/// globally sorted by the clustering key and partition the key space.
///
/// Crash safety needs no new WAL machinery: output segments, each holding
/// its indexes, are written first (orphans if we die), the manifest rewrite is
/// the single atomic commit point, and the input files become unreferenced
/// garbage the next Open sweeps. Kill anywhere and recovery sees either the
/// old epoch or the new one, never a mix.
///
/// Concurrency: inputs are read and outputs written WITHOUT blocking
/// readers (segment files are immutable; compactions are serialized among
/// themselves); only the commit takes the store's exclusive lock, which
/// also makes deleting the replaced files safe — scans hold the shared
/// lock for their entire read.

/// Hidden int64 column appended to compacted segments: the row's original
/// position within its compaction group. Never visible to scans; user
/// tables may not contain columns with the reserved "__mip_" prefix.
inline constexpr char kHiddenPosColumn[] = "__mip_pos";
inline constexpr char kReservedColumnPrefix[] = "__mip_";

/// True for a name with the reserved prefix (any case): such a column is
/// storage-internal and carries no index.
bool IsReservedColumn(const std::string& name);

/// \brief Test seams for kill-anywhere crash-recovery coverage. `checkpoint`
/// is called between every step of a compaction ("begin", "segment-<i>",
/// "pre-commit", "post-commit", "done"); returning a
/// non-OK status makes the compaction return immediately WITHOUT cleanup —
/// simulating a crash at that point (the test then reopens the directory
/// and checks recovery).
struct CompactionHooks {
  std::function<Status(const std::string& step)> checkpoint;
};

/// `schema` plus the hidden position column (what compacted segment files
/// store on disk).
engine::Schema SchemaWithPos(const engine::Schema& schema);

/// Stable-sorts `table` by `cluster_key` (a column of `table`; nulls first,
/// NaNs last among doubles, original order among ties) and appends the
/// hidden position column holding each output row's original row number.
/// The comparator only shapes zone maps — any deterministic total order is
/// correct, because scans restore the original order from the position
/// column.
Result<engine::Table> SortForCompaction(const engine::Table& table,
                                        const std::string& cluster_key);

/// Inverse of the re-sort for the read path: `group` holds the decoded
/// (surviving) rows of compaction group `group_id`, which has `group_rows`
/// rows over all its segments, including the hidden position column;
/// appends them to `*out` ordered by position with the column stripped, in
/// one gather, with no comparison sort. `out`'s columns are `group`'s minus
/// the hidden one, in order. A repeated position, or one outside
/// [0, group_rows), is an IOError naming the group.
Status RestoreGroupOrder(const engine::Table& group, uint64_t group_id,
                         uint64_t group_rows, engine::Table* out);

}  // namespace mip::storage

#endif  // MIP_STORAGE_COMPACTION_H_
