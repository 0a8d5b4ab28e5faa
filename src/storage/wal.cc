#include "storage/wal.h"

#include "common/bytes.h"
#include "common/crc32.h"
#include "storage/io.h"

namespace mip::storage {

namespace {

/// Decodes one record's payload; any failure means the record is not part
/// of the epoch.
Result<WalRecord> ParsePayload(const std::vector<uint8_t>& payload) {
  BufferReader pr(payload);
  MIP_ASSIGN_OR_RETURN(uint8_t type, pr.ReadU8());
  if (type != kWalRecordAppend) {
    return Status::IOError("unknown WAL record type");
  }
  WalRecord record;
  MIP_ASSIGN_OR_RETURN(record.table_name, pr.ReadString());
  MIP_ASSIGN_OR_RETURN(std::vector<uint8_t> table_bytes, pr.ReadBytes());
  BufferReader tr(table_bytes);
  MIP_ASSIGN_OR_RETURN(record.rows, engine::DeserializeTable(&tr));
  if (!pr.AtEnd()) {
    return Status::IOError("trailing bytes in WAL payload");
  }
  return record;
}

}  // namespace

Status AppendWalRecord(const std::string& path, uint32_t salt, uint64_t* tail,
                       const std::string& table_name,
                       const engine::Table& rows) {
  BufferWriter payload;
  payload.WriteU8(kWalRecordAppend);
  payload.WriteString(table_name);
  BufferWriter table_bytes;
  engine::SerializeTable(rows, &table_bytes);
  payload.WriteBytes(table_bytes.bytes());
  const std::vector<uint8_t>& p = payload.bytes();
  if (p.size() > kMaxWalRecordBytes) {
    return Status::InvalidArgument("WAL record exceeds size cap");
  }
  BufferWriter record;
  record.Reserve(8 + p.size());
  record.WriteU32(static_cast<uint32_t>(p.size()));
  record.WriteU32(Crc32(p, salt));
  record.AppendRaw(p.data(), p.size());
  MIP_RETURN_NOT_OK(WriteFileAt(path, *tail, record.bytes()));
  *tail += record.bytes().size();
  return Status::OK();
}

Result<WalReplay> ReplayWal(const std::string& path, uint32_t salt) {
  WalReplay replay;
  if (!FileExists(path)) return replay;
  MIP_ASSIGN_OR_RETURN(uint64_t size, FileSize(path));
  MIP_ASSIGN_OR_RETURN(ReadOnlyFile file, ReadOnlyFile::Open(path));
  // Reads record by record, so the stale bytes of a recycled file past the
  // tail are never read beyond the first record header that fails.
  for (;;) {
    uint8_t header[8];
    MIP_ASSIGN_OR_RETURN(size_t got,
                         file.ReadAt(replay.valid_bytes, sizeof(header), header));
    if (got < sizeof(header)) break;
    BufferReader hr(header, sizeof(header));
    MIP_ASSIGN_OR_RETURN(uint32_t length, hr.ReadU32());
    MIP_ASSIGN_OR_RETURN(uint32_t crc, hr.ReadU32());
    if (length > kMaxWalRecordBytes ||
        length > size - replay.valid_bytes - sizeof(header)) {
      break;
    }
    std::vector<uint8_t> payload(length);
    MIP_ASSIGN_OR_RETURN(
        got, file.ReadAt(replay.valid_bytes + sizeof(header), length,
                         payload.data()));
    if (got < length || Crc32(payload, salt) != crc) break;
    Result<WalRecord> record = ParsePayload(payload);
    if (!record.ok()) break;
    replay.records.push_back(std::move(*record));
    replay.valid_bytes += sizeof(header) + length;
  }
  return replay;
}

}  // namespace mip::storage
