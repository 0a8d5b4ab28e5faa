#include "federation/transfer.h"

#include "engine/encoding.h"

namespace mip::federation {

Result<std::string> TransferData::GetString(const std::string& key) const {
  auto it = strings_.find(key);
  if (it == strings_.end()) {
    return Status::NotFound("transfer has no string '" + key + "'");
  }
  return it->second;
}

Result<std::vector<std::string>> TransferData::GetStringList(
    const std::string& key) const {
  auto it = string_lists_.find(key);
  if (it == string_lists_.end()) {
    return Status::NotFound("transfer has no string list '" + key + "'");
  }
  return it->second;
}

std::vector<std::string> TransferData::GetStringListOrEmpty(
    const std::string& key) const {
  auto it = string_lists_.find(key);
  return it == string_lists_.end() ? std::vector<std::string>{} : it->second;
}

Result<double> TransferData::GetScalar(const std::string& key) const {
  auto it = scalars_.find(key);
  if (it == scalars_.end()) {
    return Status::NotFound("transfer has no scalar '" + key + "'");
  }
  return it->second;
}

Result<std::vector<double>> TransferData::GetVector(
    const std::string& key) const {
  auto it = vectors_.find(key);
  if (it == vectors_.end()) {
    return Status::NotFound("transfer has no vector '" + key + "'");
  }
  return it->second;
}

Result<stats::Matrix> TransferData::GetMatrix(const std::string& key) const {
  auto it = matrices_.find(key);
  if (it == matrices_.end()) {
    return Status::NotFound("transfer has no matrix '" + key + "'");
  }
  return it->second;
}

Result<engine::Table> TransferData::GetTable(const std::string& key) const {
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    return Status::NotFound("transfer has no table '" + key + "'");
  }
  return it->second;
}

namespace {

/// One section of either layout: u32 entry count, then each key
/// (u32+bytes) followed by its value.
template <typename Map, typename WriteValue>
void WriteSection(const Map& section, BufferWriter* w,
                  WriteValue write_value) {
  w->WriteU32(static_cast<uint32_t>(section.size()));
  for (const auto& [k, v] : section) {
    w->WriteString(k);
    write_value(v);
  }
}

template <typename Map, typename ReadValue>
Status ReadSection(BufferReader* r, Map* section, ReadValue read_value) {
  MIP_ASSIGN_OR_RETURN(uint32_t n, r->ReadU32());
  for (uint32_t i = 0; i < n; ++i) {
    MIP_ASSIGN_OR_RETURN(std::string k, r->ReadString());
    MIP_ASSIGN_OR_RETURN((*section)[k], read_value());
  }
  return Status::OK();
}

}  // namespace

void TransferData::WriteSections(bool compressed, BufferWriter* w) const {
  if (compressed) {
    w->WriteU32(kTransferWireMagic);
    w->WriteU8(kTransferWireVersion);
  }
  auto write_doubles = [compressed, w](const std::vector<double>& v) {
    if (compressed) {
      engine::EncodeDoubles(v, w);
    } else {
      w->WriteVector(v);
    }
  };
  WriteSection(strings_, w, [w](const std::string& v) { w->WriteString(v); });
  WriteSection(string_lists_, w, [w](const std::vector<std::string>& v) {
    w->WriteU32(static_cast<uint32_t>(v.size()));
    for (const std::string& s : v) w->WriteString(s);
  });
  WriteSection(scalars_, w, [w](double v) { w->WriteDouble(v); });
  WriteSection(vectors_, w, write_doubles);
  WriteSection(matrices_, w, [w, &write_doubles](const stats::Matrix& m) {
    w->WriteU32(static_cast<uint32_t>(m.rows()));
    w->WriteU32(static_cast<uint32_t>(m.cols()));
    write_doubles(m.Flatten());
  });
  WriteSection(tables_, w, [compressed, w](const engine::Table& t) {
    if (compressed) {
      engine::SerializeTableForWire(t, w);
    } else {
      engine::SerializeTable(t, w);
    }
  });
}

void TransferData::Serialize(BufferWriter* w) const {
  WriteSections(/*compressed=*/false, w);
}

void TransferData::SerializeForWire(BufferWriter* w) const {
  // Compressed (v2) container: strings / string lists / scalars keep the v1
  // encoding (they are small and key-dominated); vectors, matrices and
  // tables go through the columnar codec blocks. Committed only when the
  // measured size beats v1, so bytes_wire <= bytes_raw always holds.
  BufferWriter scratch;
  WriteSections(/*compressed=*/true, &scratch);
  if (scratch.size() < RawSerializedBytes()) {
    w->AppendRaw(scratch.bytes().data(), scratch.size());
  } else {
    Serialize(w);
  }
}

Result<TransferData> TransferData::Deserialize(BufferReader* r) {
  Result<uint32_t> sniff = r->PeekU32();
  const bool compressed = sniff.ok() && *sniff == kTransferWireMagic;
  if (compressed) {
    MIP_RETURN_NOT_OK(r->ReadU32().status());
    MIP_ASSIGN_OR_RETURN(uint8_t version, r->ReadU8());
    if (version != kTransferWireVersion) {
      return Status::IOError("unsupported compressed transfer version " +
                             std::to_string(version));
    }
  }
  auto read_doubles = [compressed, r] {
    return compressed ? engine::DecodeDoubles(r) : r->ReadVector<double>();
  };
  TransferData out;
  MIP_RETURN_NOT_OK(
      ReadSection(r, &out.strings_, [r] { return r->ReadString(); }));
  MIP_RETURN_NOT_OK(ReadSection(
      r, &out.string_lists_, [r]() -> Result<std::vector<std::string>> {
        MIP_ASSIGN_OR_RETURN(uint32_t len, r->ReadU32());
        // Each string needs at least its 4-byte length prefix; reject
        // counts the remaining bytes cannot possibly hold before allocating.
        if (static_cast<size_t>(len) > r->Remaining() / sizeof(uint32_t)) {
          return Status::IOError("truncated buffer while deserializing");
        }
        std::vector<std::string> v(len);
        for (std::string& s : v) {
          MIP_ASSIGN_OR_RETURN(s, r->ReadString());
        }
        return v;
      }));
  MIP_RETURN_NOT_OK(
      ReadSection(r, &out.scalars_, [r] { return r->ReadDouble(); }));
  MIP_RETURN_NOT_OK(ReadSection(r, &out.vectors_, read_doubles));
  MIP_RETURN_NOT_OK(ReadSection(
      r, &out.matrices_, [r, &read_doubles]() -> Result<stats::Matrix> {
        MIP_ASSIGN_OR_RETURN(uint32_t rows, r->ReadU32());
        MIP_ASSIGN_OR_RETURN(uint32_t cols, r->ReadU32());
        MIP_ASSIGN_OR_RETURN(std::vector<double> flat, read_doubles());
        return stats::Matrix::FromFlat(rows, cols, std::move(flat));
      }));
  MIP_RETURN_NOT_OK(ReadSection(
      r, &out.tables_, [r] { return engine::DeserializeTable(r); }));
  return out;
}

size_t TransferData::SerializedBytes() const { return RawSerializedBytes(); }

size_t TransferData::RawSerializedBytes() const {
  BufferWriter counter = BufferWriter::Counter();
  Serialize(&counter);
  return counter.size();
}

Result<TransferData> TransferData::SumMerge(
    const std::vector<TransferData>& parts) {
  if (parts.empty()) {
    return Status::InvalidArgument("SumMerge over zero transfers");
  }
  TransferData out = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) {
    const TransferData& p = parts[i];
    if (p.scalars_.size() != out.scalars_.size() ||
        p.vectors_.size() != out.vectors_.size() ||
        p.matrices_.size() != out.matrices_.size()) {
      return Status::InvalidArgument(
          "transfer shapes differ across workers; cannot merge");
    }
    for (auto& [k, v] : out.scalars_) {
      MIP_ASSIGN_OR_RETURN(double other, p.GetScalar(k));
      v += other;
    }
    for (auto& [k, v] : out.vectors_) {
      MIP_ASSIGN_OR_RETURN(std::vector<double> other, p.GetVector(k));
      if (other.size() != v.size()) {
        return Status::InvalidArgument("vector '" + k +
                                       "' length differs across workers");
      }
      for (size_t j = 0; j < v.size(); ++j) v[j] += other[j];
    }
    for (auto& [k, m] : out.matrices_) {
      MIP_ASSIGN_OR_RETURN(stats::Matrix other, p.GetMatrix(k));
      MIP_RETURN_NOT_OK(m.AddInPlace(other));
    }
    for (const auto& [k, t] : p.tables_) {
      auto it = out.tables_.find(k);
      if (it == out.tables_.end()) {
        out.tables_[k] = t;
      } else {
        MIP_ASSIGN_OR_RETURN(engine::Table merged,
                             engine::Table::Concat({it->second, t}));
        it->second = std::move(merged);
      }
    }
  }
  return out;
}

std::vector<double> TransferData::FlattenNumeric() const {
  std::vector<double> flat;
  for (const auto& [k, v] : scalars_) flat.push_back(v);
  for (const auto& [k, v] : vectors_) {
    flat.insert(flat.end(), v.begin(), v.end());
  }
  for (const auto& [k, m] : matrices_) {
    const std::vector<double> f = m.Flatten();
    flat.insert(flat.end(), f.begin(), f.end());
  }
  return flat;
}

Result<TransferData> TransferData::UnflattenNumeric(
    const std::vector<double>& flat) const {
  TransferData out;
  size_t pos = 0;
  for (const auto& [k, v] : scalars_) {
    (void)v;
    if (pos >= flat.size()) return Status::OutOfRange("flat vector too short");
    out.scalars_[k] = flat[pos++];
  }
  for (const auto& [k, v] : vectors_) {
    if (pos + v.size() > flat.size()) {
      return Status::OutOfRange("flat vector too short");
    }
    out.vectors_[k] =
        std::vector<double>(flat.begin() + static_cast<long>(pos),
                            flat.begin() + static_cast<long>(pos + v.size()));
    pos += v.size();
  }
  for (const auto& [k, m] : matrices_) {
    const size_t n = m.rows() * m.cols();
    if (pos + n > flat.size()) {
      return Status::OutOfRange("flat vector too short");
    }
    std::vector<double> data(flat.begin() + static_cast<long>(pos),
                             flat.begin() + static_cast<long>(pos + n));
    MIP_ASSIGN_OR_RETURN(
        stats::Matrix mat,
        stats::Matrix::FromFlat(m.rows(), m.cols(), std::move(data)));
    out.matrices_[k] = std::move(mat);
    pos += n;
  }
  if (pos != flat.size()) {
    return Status::InvalidArgument("flat vector length mismatch");
  }
  return out;
}

}  // namespace mip::federation
