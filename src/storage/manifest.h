#ifndef MIP_STORAGE_MANIFEST_H_
#define MIP_STORAGE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/table.h"

namespace mip::storage {

/// \brief The store's committed-state root: which segments belong to which
/// table, which compaction group each segment is part of, and which WAL
/// epoch is live. A segment file holds its own indexes (segment.h), so the
/// manifest names only segments.
///
/// The single commit point for both flush and compaction, and committed
/// without freeing a block. Two files take turns: `MANIFEST` and its spare
/// `MANIFEST.tmp`, which holds the commit before last. A commit overwrites
/// the spare in place (no O_TRUNC), fsyncs it, swaps the two names with
/// renameat2(RENAME_EXCHANGE), and fsyncs the directory; the manifest on
/// disk therefore always describes a consistent snapshot. The first commit
/// has no MANIFEST to swap with, and a filesystem that refuses the exchange
/// gets a rename over MANIFEST instead. Layout (version 4):
///
///   u32 magic        "MMF1"
///   u8  version      4
///   u32 length       byte count of the manifest, this header and the CRC
///                    included; the spare is rewritten in place, so bytes
///                    beyond `length` are an older, longer commit's tail
///   u64 wal_id       live WAL epoch; recovery replays wal-<wal_id>.log
///   u32 wal_salt     seed of the live epoch's WAL record CRCs (wal.h)
///   u64 next_segment_id
///   varint num_tables, per table:
///     string name
///     varint num_fields, per field: string name, u8 type
///     varint num_segments, per segment:
///       varint id, varint rows
///       varint group      compaction group id; 0 = not compacted. Segments
///                         of one group are contiguous in the list and
///                         carry a hidden position column that lets scans
///                         restore the pre-compaction row order.
///   u32 crc32        of the `length - 4` bytes before it
///
/// Older versions still load; the next commit writes version 4. Version 3
/// is version 4 plus the index files of the previous storage format: a u64
/// next_index_id after next_segment_id and, after each segment's group, a
/// varint count of (varint id, string column) entries. Version 2 is version
/// 3 without `length` and `wal_salt`, its CRC at the end of the file, and
/// loads with wal_salt 0 (an unseeded WAL). Their index fields are parsed
/// and discarded. Any other version byte is an IOError.
///
/// Segment files not referenced by the manifest, index files of the
/// previous format, and WAL files other than wal-<wal_id>.log are orphans;
/// recovery deletes them, except that it renames a stale WAL to the live
/// name when that name is missing (see store.h).
inline constexpr uint32_t kManifestMagic = 0x31464D4Du;  // "MMF1"
inline constexpr uint8_t kManifestVersion = 4;
inline constexpr uint64_t kMaxManifestTables = 65536;
inline constexpr uint64_t kMaxManifestSegments = 1u << 24;

struct ManifestSegment {
  uint64_t id = 0;
  uint64_t rows = 0;
  uint64_t group = 0;  // 0 = not part of a compaction group
};

struct ManifestTable {
  std::string name;
  engine::Schema schema;
  std::vector<ManifestSegment> segments;
};

struct Manifest {
  uint64_t wal_id = 0;
  uint32_t wal_salt = 0;  // 0 = unseeded WAL CRCs (a version-2 manifest)
  uint64_t next_segment_id = 0;
  std::vector<ManifestTable> tables;

  ManifestTable* FindTable(const std::string& name);
};

/// Serializes as version 4 and commits crash-atomically through the spare
/// `<path>.tmp` (see above).
Status SaveManifest(const std::string& path, const Manifest& manifest);

/// Reads and validates version 4, 3 or 2 (magic, version, length, CRC,
/// counts, duplicate names). Any corruption is kIOError.
Result<Manifest> LoadManifest(const std::string& path);

}  // namespace mip::storage

#endif  // MIP_STORAGE_MANIFEST_H_
