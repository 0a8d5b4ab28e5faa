#ifndef MIP_STORAGE_MANIFEST_H_
#define MIP_STORAGE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/table.h"

namespace mip::storage {

/// \brief The store's committed-state root: which segments (and their
/// ordered secondary indexes) belong to which table, which compaction
/// group each segment is part of, and which WAL epoch is live.
///
/// Written atomically (tmp + fsync + rename) on every flush or compaction;
/// the manifest on disk therefore always describes a consistent snapshot —
/// it is the single commit point for both. Layout (version 2):
///
///   u32 magic        "MMF1"
///   u8  version      2
///   u64 wal_id       live WAL epoch; recovery replays wal-<wal_id>.log
///   u64 next_segment_id
///   u64 next_index_id
///   varint num_tables, per table:
///     string name
///     varint num_fields, per field: string name, u8 type
///     varint num_segments, per segment:
///       varint id, varint rows
///       varint group      compaction group id; 0 = not compacted. Segments
///                         of one group are contiguous in the list and
///                         carry a hidden position column that lets scans
///                         restore the pre-compaction row order.
///       varint num_indexes, per index: varint id, string column
///   u32 crc32        of everything before it
///
/// Only version 2 loads; any other version byte is an IOError. A segment
/// whose index list is empty gets its indexes rebuilt on the next boot.
///
/// Segment/index files not referenced by the manifest and WAL files other
/// than wal-<wal_id>.log are orphans from an interrupted flush or
/// compaction; recovery deletes them.
inline constexpr uint32_t kManifestMagic = 0x31464D4Du;  // "MMF1"
inline constexpr uint8_t kManifestVersion = 2;
inline constexpr uint64_t kMaxManifestTables = 65536;
inline constexpr uint64_t kMaxManifestSegments = 1u << 24;
inline constexpr uint64_t kMaxManifestIndexes = 4096;  // per segment

struct ManifestIndex {
  uint64_t id = 0;
  std::string column;
};

struct ManifestSegment {
  uint64_t id = 0;
  uint64_t rows = 0;
  uint64_t group = 0;  // 0 = not part of a compaction group
  std::vector<ManifestIndex> indexes;
};

struct ManifestTable {
  std::string name;
  engine::Schema schema;
  std::vector<ManifestSegment> segments;
};

struct Manifest {
  uint64_t wal_id = 0;
  uint64_t next_segment_id = 0;
  uint64_t next_index_id = 0;
  std::vector<ManifestTable> tables;

  ManifestTable* FindTable(const std::string& name);
};

/// Serializes and writes crash-atomically.
Status SaveManifest(const std::string& path, const Manifest& manifest);

/// Reads and validates (magic, version, CRC, counts, duplicate names).
/// Any corruption is kIOError.
Result<Manifest> LoadManifest(const std::string& path);

}  // namespace mip::storage

#endif  // MIP_STORAGE_MANIFEST_H_
