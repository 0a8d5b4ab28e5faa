#include "storage/manifest.h"

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

Status SaveManifest(const std::string& path, const Manifest& manifest) {
  BufferWriter w;
  w.WriteU32(kManifestMagic);
  w.WriteU8(kManifestVersion);
  w.WriteU64(manifest.wal_id);
  w.WriteU64(manifest.next_segment_id);
  w.WriteU64(manifest.next_index_id);
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
      PutVarint(&w, s.indexes.size());
      for (const ManifestIndex& idx : s.indexes) {
        PutVarint(&w, idx.id);
        w.WriteString(idx.column);
      }
    }
  }
  w.WriteU32(Crc32(w.bytes()));
  return WriteFileAtomic(path, w.bytes());
}

Result<Manifest> LoadManifest(const std::string& path) {
  MIP_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(path));
  if (bytes.size() < 8) {
    return Status::IOError("manifest '" + path + "' too short");
  }
  // CRC covers everything before the trailing u32.
  const std::vector<uint8_t> body(bytes.begin(), bytes.end() - 4);
  BufferReader tail(bytes);
  std::vector<uint8_t> skip(bytes.size() - 4);
  MIP_RETURN_NOT_OK(tail.ReadRawBytes(skip.data(), skip.size()));
  MIP_ASSIGN_OR_RETURN(uint32_t stored_crc, tail.ReadU32());
  if (Crc32(body) != stored_crc) {
    return Status::IOError("manifest '" + path + "' CRC mismatch");
  }

  BufferReader r(body);
  MIP_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kManifestMagic) {
    return Status::IOError("manifest '" + path + "' bad magic");
  }
  MIP_ASSIGN_OR_RETURN(uint8_t version, r.ReadU8());
  if (version != kManifestVersion) {
    return Status::IOError("manifest '" + path + "' unsupported version " +
                           std::to_string(version));
  }
  Manifest m;
  MIP_ASSIGN_OR_RETURN(m.wal_id, r.ReadU64());
  MIP_ASSIGN_OR_RETURN(m.next_segment_id, r.ReadU64());
  MIP_ASSIGN_OR_RETURN(m.next_index_id, r.ReadU64());
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
      MIP_ASSIGN_OR_RETURN(uint64_t num_indexes, GetVarint(&r));
      if (num_indexes > kMaxManifestIndexes) {
        return Status::IOError("manifest '" + path + "' hostile index count");
      }
      for (uint64_t x = 0; x < num_indexes; ++x) {
        ManifestIndex idx;
        MIP_ASSIGN_OR_RETURN(idx.id, GetVarint(&r));
        MIP_ASSIGN_OR_RETURN(idx.column, r.ReadString());
        if (idx.id >= m.next_index_id) {
          return Status::IOError("manifest '" + path +
                                 "' index id beyond next_index_id");
        }
        seg.indexes.push_back(std::move(idx));
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
