#ifndef MIP_STORAGE_INDEX_H_
#define MIP_STORAGE_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/column.h"
#include "engine/table.h"
#include "storage/segment.h"

namespace mip::storage {

/// \brief Immutable ordered secondary index: one sorted (key -> row-id) run
/// per (segment, column), stored as CRC-checked blocks of the segment file
/// itself (segment.h).
///
/// The index answers one question cheaply: "how many rows of this segment
/// could satisfy a key interval?" — the match-fraction estimate the
/// optimizer's access-path choice and the IndexScan executor both use to
/// decide which segments are worth decoding at all. Because segments have
/// no random-access decode (stream codecs), the win of an index is not
/// row-level gathers but *segment confinement*: a selective point predicate
/// on an unsorted high-cardinality column probes every segment in a couple
/// of directory-guided block reads and decodes only the segments that
/// actually hold candidates.
///
/// One index is a run of blocks the segment writer appends after the column
/// blocks, addressed from the segment footer by its directory block; all
/// integers little-endian:
///
///   -- entry blocks of up to kIndexBlockEntries (key, row-id) pairs,
///      globally sorted by (key, row-id); each block is independently
///      decodable (engine codecs) and CRC'd:
///     [block] keys     (EncodeInts / EncodeDoubles / EncodeStrings)
///     [block] row_ids  (EncodeInts)
///   -- NaN side list (kFloat64 only, present iff nan_count > 0):
///     [block] row_ids of NaN cells (EncodeInts)
///   -- directory block:
///     string  column        (indexed column name)
///     u8      type          (DataType)
///     varint  num_rows      (rows in the segment the index covers)
///     varint  num_entries   (indexed rows: non-null, non-NaN)
///     varint  nan_count
///     BlockRef      NaN block     (iff nan_count > 0)
///     varint  num_blocks, per block:
///       typed   first_key, last_key   (sparse top level)
///       varint  count
///       BlockRef
///
/// NULL rows are excluded: under this engine's semantics a NULL cell never
/// passes a comparison filter, so their absence can never drop a real
/// match. NaN rows (doubles) sit in the side list because they satisfy
/// =, <=, >= against ANY literal (cmp == 0 under the engine's kernels, see
/// segment.h) — a probe adds nan_count exactly when every conjunct on the
/// column is eq-like, mirroring SegmentCanMatch.
///
/// An index is soft where the segment is hard. Readers trust nothing (CRCs,
/// counts, offsets, sortedness); a bit-flipped directory or entry block
/// yields kIOError for that index alone, which the store treats as "no
/// index" — the segment falls back to the zone-map scan path, never to
/// wrong results — while the column blocks, footer, header and trailer
/// still decide whether the segment reads at all. Segments are immutable
/// and visibility flows through the manifest, so probes are latch-free.
inline constexpr uint64_t kIndexBlockEntries = 1024;
inline constexpr uint64_t kMaxIndexBlocks = 1u << 20;

/// Sparse top-level entry for one block: key range, row count, location.
struct IndexBlock {
  int64_t first_i = 0, last_i = 0;     // kInt64 / kBool (0/1)
  double first_d = 0.0, last_d = 0.0;  // kFloat64 (never NaN)
  std::string first_s, last_s;         // kString
  uint64_t count = 0;
  BlockRef ref;
};

struct IndexDirectory {
  std::string column;
  engine::DataType type = engine::DataType::kFloat64;
  uint64_t num_rows = 0;     // segment rows the index covers
  uint64_t num_entries = 0;  // indexed (non-null, non-NaN) rows
  uint64_t nan_count = 0;
  BlockRef nan_block;  // iff nan_count > 0
  std::vector<IndexBlock> blocks;
};

/// \brief Key interval a probe counts candidates in, derived from the
/// pruning conjuncts naming one column. Semantics mirror the engine's
/// comparison kernels exactly (numerics compared as doubles; NaN literals
/// and NaN cells compare "equal" to everything), so the candidate count is
/// always a superset of the rows the Filter above the scan will keep.
struct KeyInterval {
  /// At least one conjunct restricted the interval. False = probing is
  /// pointless (every indexed row is a candidate); the caller should treat
  /// the segment as zone-maps would.
  bool restricts = false;
  /// Provably no non-NaN row matches (contradictory bounds, or a NaN
  /// literal under < / >).
  bool empty = false;
  /// Whether NaN rows are candidates: true iff every usable conjunct on
  /// the column is eq-like (=, <=, >=).
  bool include_nan = true;

  // Numeric bounds (kBool/kInt64/kFloat64), in the double domain the
  // engine compares in. has_lo/has_hi false = unbounded on that side.
  bool has_lo = false, has_hi = false;
  bool lo_inclusive = true, hi_inclusive = true;
  double lo = 0.0, hi = 0.0;

  // String bounds (kString).
  std::string lo_s, hi_s;
};

/// Builds the probe interval for `column` from the conjuncts that name it
/// (case-insensitive). Conjuncts the index cannot evaluate exactly like the
/// engine (mixed-type literals) are ignored — dropping a conjunct only
/// widens the interval, keeping the count a superset.
KeyInterval BuildKeyInterval(engine::DataType type, const std::string& column,
                             const std::vector<PruneConjunct>& conjuncts);

/// Appends the index of one segment column to the segment `file` writes —
/// entry blocks, NaN block, directory block — and returns the directory
/// block's reference. `column_name` keys the directory; `column` holds at
/// most kMaxWireElements rows (WriteSegment's cap).
BlockRef AppendIndex(const std::string& column_name,
                     const engine::Column& column, FramedFileWriter* file);

/// Reads the directory of every index `footer` (the validated footer of the
/// segment at `path`) lists: one open, then per index one CRC-checked block
/// read, the parse (bounds and key order of its blocks) and a check of its
/// column, type and row count against the footer. One Result per
/// footer.indexes entry, in order; a failure is kIOError for that index
/// alone. Entry and NaN blocks are checked lazily, at probe time.
std::vector<Result<IndexDirectory>> ReadIndexDirectories(
    const std::string& path, const SegmentFooter& footer);

struct IndexProbe {
  uint64_t candidates = 0;   // rows that could satisfy the interval
  uint64_t blocks_read = 0;  // entry blocks decoded (probe cost)
};

/// Counts candidate rows in `interval`. Directory-level block ranges
/// resolve most blocks without IO; only blocks straddling an interval bound
/// are read (CRC-checked) from the segment at `path` and counted entry by
/// entry. Any corruption is kIOError — the caller falls back to the scan
/// path.
Result<IndexProbe> ProbeIndex(const std::string& path,
                              const IndexDirectory& directory,
                              const KeyInterval& interval);

/// Full audit of every index of the segment at `path`, whose validated
/// footer is `footer`: each directory read as ReadIndexDirectories does,
/// then every entry and NaN block read, CRC'd, decoded; global (key,
/// row-id) sortedness; row ids < num_rows; counts consistent with the
/// directory. The explicit check surfaces the typed kIOError that silent
/// probe-time fallback deliberately swallows.
Status VerifyIndex(const std::string& path, const SegmentFooter& footer);

}  // namespace mip::storage

#endif  // MIP_STORAGE_INDEX_H_
