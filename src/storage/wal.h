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
/// One WAL file (`wal-<id>.log`) per manifest epoch. Records are appended
/// and fsynced BEFORE the batch is applied to the memtable, so every
/// acknowledged append survives a crash. Record layout:
///
///   u32 length   payload byte count
///   u32 crc32    CRC-32 of the payload
///   payload:
///     u8     record type (1 = append)
///     string table name
///     bytes  SerializeTable(batch) — the fixed-width (v1) table layout
///
/// Replay walks records until EOF or the first record that fails any check
/// (short header, hostile length, CRC mismatch, undecodable payload). That
/// suffix is a torn tail from a mid-write crash: it was never acknowledged,
/// so recovery truncates it and keeps everything before it — committed rows
/// intact, uncommitted rows absent.
inline constexpr uint8_t kWalRecordAppend = 1;
inline constexpr uint32_t kMaxWalRecordBytes = 256u << 20;  // 256 MiB

struct WalRecord {
  std::string table_name;
  engine::Table rows;
};

struct WalReplay {
  std::vector<WalRecord> records;
  /// Byte length of the valid prefix; anything beyond is torn.
  uint64_t valid_bytes = 0;
  bool torn = false;
};

/// Appends one record and fsyncs. Creates the file when absent.
Status AppendWalRecord(const std::string& path,
                       const std::string& table_name,
                       const engine::Table& rows);

/// Replays a WAL file (missing file = empty replay). Never fails on a torn
/// tail — that is the expected crash artifact — but does fail with kIOError
/// on filesystem errors.
Result<WalReplay> ReplayWal(const std::string& path);

}  // namespace mip::storage

#endif  // MIP_STORAGE_WAL_H_
