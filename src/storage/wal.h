#ifndef MIP_STORAGE_WAL_H_
#define MIP_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/table.h"

namespace mip::storage {

/// \brief Write-ahead log for the LSM ingest path.
///
/// One WAL file (`wal-<id>.log`) per manifest epoch. Records are written
/// and fsynced BEFORE the batch is applied to the memtable, so every
/// acknowledged append survives a crash. Record layout:
///
///   u32 length   payload byte count
///   u32 crc32    CRC-32 of the payload, seeded with the epoch's salt
///   payload:
///     u8     record type (1 = append)
///     string table name
///     bytes  SerializeTable(batch) — the fixed-width (v1) table layout
///
/// The file is recycled, not freed: a flush renames it to the next epoch's
/// name and the new epoch writes from offset 0 over the old records. Each
/// record goes in place at the epoch's tail offset (a positioned write, then
/// fsync), and the tail advances only once the fsync returns — so a failed
/// append's partial bytes are overwritten by the next append rather than
/// stranding it behind them.
///
/// Every epoch draws a fresh random salt, which the MANIFEST records, and
/// seeds its records' CRCs with it. Bytes an earlier epoch left beyond the
/// tail therefore never verify — not even a string cell a tenant crafted to
/// look like a record. Salt 0 is the classic unseeded CRC: the WAL of a
/// store that never committed a manifest, or of a version-2 manifest.
///
/// Replay walks records from offset 0 until the first one that fails any
/// check (short header, hostile length, CRC mismatch, undecodable payload).
/// That is the epoch's tail: what follows is a torn append that was never
/// acknowledged, or an earlier epoch's bytes. Replay leaves the file as it
/// is; the next append overwrites from the tail.
inline constexpr uint8_t kWalRecordAppend = 1;
inline constexpr uint32_t kMaxWalRecordBytes = 256u << 20;  // 256 MiB

struct WalRecord {
  std::string table_name;
  engine::Table rows;
};

struct WalReplay {
  std::vector<WalRecord> records;
  /// Byte length of the valid prefix: the offset the next record goes to.
  uint64_t valid_bytes = 0;
};

/// Writes one record at offset `*tail` of `path` (creating the file, and
/// fsyncing its directory, when absent), fsyncs, and advances `*tail` past
/// it. On failure `*tail` is unchanged.
Status AppendWalRecord(const std::string& path, uint32_t salt, uint64_t* tail,
                       const std::string& table_name,
                       const engine::Table& rows);

/// Replays the records of `path` that verify under `salt` (missing file =
/// empty replay). Never fails on what follows the valid prefix — that is
/// the expected crash or recycling artifact — but does fail with kIOError
/// on filesystem errors.
Result<WalReplay> ReplayWal(const std::string& path, uint32_t salt);

}  // namespace mip::storage

#endif  // MIP_STORAGE_WAL_H_
