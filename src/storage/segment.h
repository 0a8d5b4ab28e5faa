#ifndef MIP_STORAGE_SEGMENT_H_
#define MIP_STORAGE_SEGMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/expr.h"
#include "engine/table.h"
#include "storage/framed_file.h"

namespace mip::storage {

/// \brief Immutable, compressed, CRC-checked columnar segment files.
///
/// One segment holds one batch of rows for one table: its columns, encoded
/// with the engine's wire codecs (engine/encoding.h: dict / delta-varint /
/// RLE / XOR-double, smallest candidate wins), and an ordered secondary
/// index of every user column (index.h). One file is the unit a flush or a
/// compaction commits. The header, trailer, block references and CRC checks
/// are the shared framing of framed_file.h; layout, all integers
/// little-endian:
///
///   header           magic "MSG1", version 2
///   -- one block per column, schema order:
///     u8      has_validity
///     [block] validity  (EncodeValidity, present iff has_validity)
///     [block] data      (EncodeInts/Doubles/Bools/Strings by column type)
///   -- the index blocks of each user (non-reserved) column, schema order:
///     entry blocks, NaN block, directory block (index.h)
///   -- footer:
///     varint  num_rows
///     varint  num_cols
///     per column:
///       string  name
///       u8      type          (DataType)
///       zone map:
///         varint null_count
///         u8     has_range    (any non-null — and for doubles non-NaN — value)
///         u8     has_nan      (any non-null NaN; doubles only)
///         typed  min, max     (i64 pair / double pair / string pair;
///                              present iff has_range)
///       BlockRef      (the column block)
///     varint  num_indexes     (version 2 only)
///     per index, strictly increasing field:
///       varint  field         (ordinal into the columns above)
///       BlockRef      (the index's directory block)
///   trailer          footer magic "MSGF"
///
/// Version 1 — written before indexes moved into the segment — is the same
/// file with the footer ending after the columns: it has no indexes, and
/// the one parser reads it as such. Any other version is an IOError.
///
/// Readers trust nothing they decode: magics, versions, CRCs, counts,
/// offsets and lengths are all validated before any allocation or decode,
/// and the codec decoders underneath are fuzz-hardened — a truncated or
/// bit-flipped file yields a clean kIOError, never a crash or over-read.
/// Every column is its own CRC-checked block, so a projected read fetches
/// (one ranged read each) and checks only the blocks of the columns it
/// decodes; a corrupt block of a column it skips goes unnoticed by that
/// read and is caught by the next read that decodes it. Index blocks are
/// never read by a column decode: a corrupt one costs only its index
/// (index.h), never the segment.
///
/// NaN is excluded from double min/max on write and tracked as a separate
/// has_nan flag. The flag matters because of how this engine's comparison
/// kernels work: they compute cmp = (a<b) ? -1 : (a>b ? 1 : 0), so a NaN
/// operand yields cmp == 0 — a NaN cell therefore satisfies =, <= and >=
/// against ANY literal (and never satisfies < or >). SegmentCanMatch
/// mirrors those semantics exactly; pruning is only sound relative to the
/// engine it serves.
inline constexpr uint32_t kSegmentMagic = 0x3147534Du;   // "MSG1"
inline constexpr uint32_t kSegmentFooterMagic = 0x4647534Du;  // "MSGF"
inline constexpr uint8_t kSegmentVersion = 2;
inline constexpr uint64_t kMaxSegmentColumns = 4096;
inline constexpr FramedFormat kSegmentFormat{
    kSegmentMagic, kSegmentFooterMagic, kSegmentVersion, 1, "segment"};

/// Per-column min/max/null-count statistics.
struct ZoneMap {
  uint64_t null_count = 0;
  /// False when the column holds no non-null (for doubles: non-NaN) value
  /// in this segment.
  bool has_range = false;
  /// Any non-null NaN value (kFloat64 only). NaN rows satisfy =, <=, >=
  /// against every literal under this engine's comparison kernels.
  bool has_nan = false;
  int64_t min_i = 0, max_i = 0;        // kInt64 / kBool (0/1)
  double min_d = 0.0, max_d = 0.0;     // kFloat64, NaN excluded
  std::string min_s, max_s;            // kString
};

struct SegmentColumn {
  std::string name;
  engine::DataType type = engine::DataType::kFloat64;
  ZoneMap zone;
  BlockRef block;  // the column block
};

/// Where one column's ordered index lives in the segment.
struct SegmentIndex {
  uint64_t field = 0;  // ordinal into SegmentFooter::columns
  BlockRef directory;  // the index's directory block (index.h)
};

struct SegmentFooter {
  uint64_t num_rows = 0;
  std::vector<SegmentColumn> columns;
  std::vector<SegmentIndex> indexes;  // empty in a version-1 segment

  engine::Schema schema() const;
};

/// Computes the zone map of one column (NaN excluded for doubles).
ZoneMap ComputeZoneMap(const engine::Column& column);

/// Writes `table` as a segment file — its column blocks, then the index of
/// every user column (every column without the reserved "__mip_" prefix,
/// see compaction.h) — crash-atomically (tmp + fsync + rename). Returns the
/// footer that was persisted.
Result<SegmentFooter> WriteSegment(const std::string& path,
                                   const engine::Table& table);

/// Reads and validates only the footer (header magic, trailer, footer CRC,
/// bounds of every column and index directory block) — the cheap path
/// pruning and recovery use.
Result<SegmentFooter> ReadSegmentFooter(const std::string& path);

/// The one segment-decode routine. `footer` is the already validated footer
/// of the file at `path` (the in-memory copy the store caches for immutable
/// segments). Each column of `*out` — any subset of the footer's columns, in
/// any order — maps to the footer column of the same (case-insensitive) name
/// and type; a missing one is a kIOError. It then opens the file once,
/// checks the header, and for each mapped column reads just that block
/// (one pread), checks its CRC and appends its decoded rows straight to the
/// column of `*out`. Blocks of columns `out` lacks are never read. Every
/// decoded count must equal num_rows. Appended rows follow
/// Column::AdoptAppendedRows: NULL slots are canonicalized and a bitmap
/// appears only where a block carries one, so appending segments one after
/// another gives exactly the bytes of a Table::Concat of their individual
/// reads. On error `*out` may hold a partial append and must be discarded.
Status AppendSegmentData(const std::string& path, const SegmentFooter& footer,
                         engine::Table* out);

/// AppendSegmentData into an empty table with the footer's schema.
Result<engine::Table> ReadSegmentData(const std::string& path,
                                      const SegmentFooter& footer);

/// Footer validation plus ReadSegmentData.
Result<engine::Table> ReadSegment(const std::string& path);

/// \brief One zone-map-testable conjunct of a pruning hint:
/// `column <op> literal` with op in {=, <, <=, >, >=}.
struct PruneConjunct {
  std::string column;
  engine::BinaryOp op = engine::BinaryOp::kEq;
  engine::Value literal;
};

/// Splits an expression on AND and keeps the conjuncts of the form
/// `ColumnRef op Literal` (either side; swapped sides mirror the operator)
/// with op in {=, <, <=, >, >=} and a non-NULL literal. Everything else —
/// ORs, !=, IS NULL, function calls, column-to-column comparisons — is
/// dropped: a dropped conjunct is simply never used to prune, which keeps
/// the decision conservative (a kept Filter above the scan re-applies the
/// full predicate anyway).
std::vector<PruneConjunct> ExtractPruneConjuncts(const engine::Expr& expr);

/// True when some row of the segment *could* satisfy every conjunct —
/// the conservative zone-map test. False means provably zero matching rows
/// (the segment can be skipped). Conjuncts naming unknown columns or with
/// type-incompatible literals are ignored (treated as satisfiable).
bool SegmentCanMatch(const SegmentFooter& footer,
                     const std::vector<PruneConjunct>& conjuncts);

}  // namespace mip::storage

#endif  // MIP_STORAGE_SEGMENT_H_
