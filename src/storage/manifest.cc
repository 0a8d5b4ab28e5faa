#include "storage/manifest.h"

#include <cstring>

#include "common/bytes.h"
#include "common/crc32.h"
#include "engine/encoding.h"
#include "storage/io.h"

namespace mip::storage {

using engine::GetVarint;
using engine::PutVarint;

ManifestTable* Manifest::FindTable(const std::string& name) {
  for (ManifestTable& t : tables) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

namespace {

/// Byte offset of the `length` field (version 3 and later).
constexpr size_t kLengthOffset = 5;

}  // namespace

Status SaveManifest(const std::string& path, const Manifest& manifest) {
  BufferWriter w;
  w.WriteU32(kManifestMagic);
  w.WriteU8(kManifestVersion);
  w.WriteU32(0);  // length, patched below
  w.WriteU64(manifest.wal_id);
  w.WriteU32(manifest.wal_salt);
  w.WriteU64(manifest.next_segment_id);
  PutVarint(&w, manifest.tables.size());
  for (const ManifestTable& t : manifest.tables) {
    w.WriteString(t.name);
    PutVarint(&w, t.schema.num_fields());
    for (const engine::Field& f : t.schema.fields()) {
      w.WriteString(f.name);
      w.WriteU8(static_cast<uint8_t>(f.type));
    }
    PutVarint(&w, t.segments.size());
    for (const ManifestSegment& s : t.segments) {
      PutVarint(&w, s.id);
      PutVarint(&w, s.rows);
      PutVarint(&w, s.group);
    }
  }
  std::vector<uint8_t> bytes = w.TakeBytes();
  const uint32_t length = static_cast<uint32_t>(bytes.size() + 4);
  std::memcpy(bytes.data() + kLengthOffset, &length, sizeof(length));
  const uint32_t crc = Crc32(bytes);
  const auto* crc_bytes = reinterpret_cast<const uint8_t*>(&crc);
  bytes.insert(bytes.end(), crc_bytes, crc_bytes + sizeof(crc));
  const std::string spare = path + ".tmp";
  MIP_RETURN_NOT_OK(WriteFileAt(spare, 0, bytes));
  return ExchangeFiles(spare, path);
}

Result<Manifest> LoadManifest(const std::string& path) {
  MIP_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(path));
  if (bytes.size() < 8) {
    return Status::IOError("manifest '" + path + "' too short");
  }
  // Version 3 and later state their length (a stale tail may follow);
  // version 2 ends at the end of the file. Version and magic are checked
  // under the CRC below.
  size_t length = bytes.size();
  if (bytes[4] >= 3) {
    uint32_t stated = 0;
    if (bytes.size() >= kLengthOffset + sizeof(stated)) {
      std::memcpy(&stated, bytes.data() + kLengthOffset, sizeof(stated));
    }
    if (stated < kLengthOffset + sizeof(stated) + 4 || stated > bytes.size()) {
      return Status::IOError("manifest '" + path + "' bad length");
    }
    length = stated;
  }
  // CRC covers everything before the trailing u32.
  const std::vector<uint8_t> body(bytes.begin(), bytes.begin() + length - 4);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + length - 4, sizeof(stored_crc));
  if (Crc32(body) != stored_crc) {
    return Status::IOError("manifest '" + path + "' CRC mismatch");
  }

  BufferReader r(body);
  MIP_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kManifestMagic) {
    return Status::IOError("manifest '" + path + "' bad magic");
  }
  MIP_ASSIGN_OR_RETURN(uint8_t version, r.ReadU8());
  if (version < 2 || version > kManifestVersion) {
    return Status::IOError("manifest '" + path + "' unsupported version " +
                           std::to_string(version));
  }
  Manifest m;
  if (version >= 3) {
    MIP_RETURN_NOT_OK(r.ReadU32().status());  // length, checked above
  }
  MIP_ASSIGN_OR_RETURN(m.wal_id, r.ReadU64());
  if (version >= 3) {
    MIP_ASSIGN_OR_RETURN(m.wal_salt, r.ReadU32());
  }
  MIP_ASSIGN_OR_RETURN(m.next_segment_id, r.ReadU64());
  // Versions 2 and 3 list the previous format's index files; their fields
  // are parsed and discarded.
  const bool index_lists = version < 4;
  if (index_lists) {
    MIP_RETURN_NOT_OK(r.ReadU64().status());  // next_index_id
  }
  MIP_ASSIGN_OR_RETURN(uint64_t num_tables, GetVarint(&r));
  if (num_tables > kMaxManifestTables) {
    return Status::IOError("manifest '" + path + "' hostile table count");
  }
  for (uint64_t i = 0; i < num_tables; ++i) {
    ManifestTable t;
    MIP_ASSIGN_OR_RETURN(t.name, r.ReadString());
    if (m.FindTable(t.name) != nullptr) {
      return Status::IOError("manifest '" + path + "' duplicate table '" +
                             t.name + "'");
    }
    MIP_ASSIGN_OR_RETURN(uint64_t num_fields, GetVarint(&r));
    if (num_fields > kMaxManifestTables) {
      return Status::IOError("manifest '" + path + "' hostile field count");
    }
    for (uint64_t f = 0; f < num_fields; ++f) {
      engine::Field field;
      MIP_ASSIGN_OR_RETURN(field.name, r.ReadString());
      MIP_ASSIGN_OR_RETURN(uint8_t type_byte, r.ReadU8());
      if (type_byte > static_cast<uint8_t>(engine::DataType::kString)) {
        return Status::IOError("manifest '" + path + "' bad field type");
      }
      field.type = static_cast<engine::DataType>(type_byte);
      MIP_RETURN_NOT_OK(t.schema.AddField(std::move(field)));
    }
    MIP_ASSIGN_OR_RETURN(uint64_t num_segments, GetVarint(&r));
    if (num_segments > kMaxManifestSegments) {
      return Status::IOError("manifest '" + path + "' hostile segment count");
    }
    for (uint64_t s = 0; s < num_segments; ++s) {
      ManifestSegment seg;
      MIP_ASSIGN_OR_RETURN(seg.id, GetVarint(&r));
      MIP_ASSIGN_OR_RETURN(seg.rows, GetVarint(&r));
      if (seg.id >= m.next_segment_id) {
        return Status::IOError("manifest '" + path +
                               "' segment id beyond next_segment_id");
      }
      MIP_ASSIGN_OR_RETURN(seg.group, GetVarint(&r));
      // Each entry takes at least two bytes, so a hostile count runs out
      // of manifest long before it costs anything.
      uint64_t num_indexes = 0;
      if (index_lists) {
        MIP_ASSIGN_OR_RETURN(num_indexes, GetVarint(&r));
      }
      for (uint64_t x = 0; x < num_indexes; ++x) {
        MIP_RETURN_NOT_OK(GetVarint(&r).status());  // index file id
        MIP_RETURN_NOT_OK(r.ReadString().status());  // column
      }
      t.segments.push_back(std::move(seg));
    }
    m.tables.push_back(std::move(t));
  }
  if (!r.AtEnd()) {
    return Status::IOError("manifest '" + path + "' trailing bytes");
  }
  return m;
}

}  // namespace mip::storage
