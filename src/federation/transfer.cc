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

void TransferData::Serialize(BufferWriter* w) const {
  w->WriteU32(static_cast<uint32_t>(strings_.size()));
  for (const auto& [k, v] : strings_) {
    w->WriteString(k);
    w->WriteString(v);
  }
  w->WriteU32(static_cast<uint32_t>(string_lists_.size()));
  for (const auto& [k, v] : string_lists_) {
    w->WriteString(k);
    w->WriteU32(static_cast<uint32_t>(v.size()));
    for (const std::string& s : v) w->WriteString(s);
  }
  w->WriteU32(static_cast<uint32_t>(scalars_.size()));
  for (const auto& [k, v] : scalars_) {
    w->WriteString(k);
    w->WriteDouble(v);
  }
  w->WriteU32(static_cast<uint32_t>(vectors_.size()));
  for (const auto& [k, v] : vectors_) {
    w->WriteString(k);
    w->WriteDoubleVector(v);
  }
  w->WriteU32(static_cast<uint32_t>(matrices_.size()));
  for (const auto& [k, m] : matrices_) {
    w->WriteString(k);
    w->WriteU32(static_cast<uint32_t>(m.rows()));
    w->WriteU32(static_cast<uint32_t>(m.cols()));
    w->WriteDoubleVector(m.Flatten());
  }
  w->WriteU32(static_cast<uint32_t>(tables_.size()));
  for (const auto& [k, t] : tables_) {
    w->WriteString(k);
    engine::SerializeTable(t, w);
  }
}

void TransferData::SerializeForWire(BufferWriter* w) const {
  // Compressed (v2) container: strings / string lists / scalars keep the v1
  // encoding (they are small and key-dominated); vectors, matrices and
  // tables go through the columnar codec blocks. Committed only when the
  // measured size beats v1, so bytes_wire <= bytes_raw always holds.
  BufferWriter scratch;
  scratch.WriteU32(kTransferWireMagic);
  scratch.WriteU8(kTransferWireVersion);
  scratch.WriteU32(static_cast<uint32_t>(strings_.size()));
  for (const auto& [k, v] : strings_) {
    scratch.WriteString(k);
    scratch.WriteString(v);
  }
  scratch.WriteU32(static_cast<uint32_t>(string_lists_.size()));
  for (const auto& [k, v] : string_lists_) {
    scratch.WriteString(k);
    scratch.WriteU32(static_cast<uint32_t>(v.size()));
    for (const std::string& s : v) scratch.WriteString(s);
  }
  scratch.WriteU32(static_cast<uint32_t>(scalars_.size()));
  for (const auto& [k, v] : scalars_) {
    scratch.WriteString(k);
    scratch.WriteDouble(v);
  }
  scratch.WriteU32(static_cast<uint32_t>(vectors_.size()));
  for (const auto& [k, v] : vectors_) {
    scratch.WriteString(k);
    engine::EncodeDoubles(v, &scratch);
  }
  scratch.WriteU32(static_cast<uint32_t>(matrices_.size()));
  for (const auto& [k, m] : matrices_) {
    scratch.WriteString(k);
    scratch.WriteU32(static_cast<uint32_t>(m.rows()));
    scratch.WriteU32(static_cast<uint32_t>(m.cols()));
    engine::EncodeDoubles(m.Flatten(), &scratch);
  }
  scratch.WriteU32(static_cast<uint32_t>(tables_.size()));
  for (const auto& [k, t] : tables_) {
    scratch.WriteString(k);
    engine::SerializeTableForWire(t, &scratch);
  }
  if (scratch.size() < RawSerializedBytes()) {
    w->AppendRaw(scratch.bytes().data(), scratch.size());
  } else {
    Serialize(w);
  }
}

Result<TransferData> TransferData::Deserialize(BufferReader* r) {
  {
    Result<uint32_t> sniff = r->PeekU32();
    if (sniff.ok() && sniff.ValueOrDie() == kTransferWireMagic) {
      MIP_ASSIGN_OR_RETURN(uint32_t magic, r->ReadU32());
      (void)magic;
      MIP_ASSIGN_OR_RETURN(uint8_t version, r->ReadU8());
      if (version != kTransferWireVersion) {
        return Status::IOError("unsupported compressed transfer version " +
                               std::to_string(version));
      }
      TransferData out;
      MIP_ASSIGN_OR_RETURN(uint32_t n_strings, r->ReadU32());
      for (uint32_t i = 0; i < n_strings; ++i) {
        MIP_ASSIGN_OR_RETURN(std::string k, r->ReadString());
        MIP_ASSIGN_OR_RETURN(std::string v, r->ReadString());
        out.strings_[k] = std::move(v);
      }
      MIP_ASSIGN_OR_RETURN(uint32_t n_lists, r->ReadU32());
      for (uint32_t i = 0; i < n_lists; ++i) {
        MIP_ASSIGN_OR_RETURN(std::string k, r->ReadString());
        MIP_ASSIGN_OR_RETURN(uint32_t len, r->ReadU32());
        if (static_cast<size_t>(len) > r->Remaining() / sizeof(uint32_t)) {
          return Status::IOError("truncated buffer while deserializing");
        }
        std::vector<std::string> v(len);
        for (uint32_t j = 0; j < len; ++j) {
          MIP_ASSIGN_OR_RETURN(v[j], r->ReadString());
        }
        out.string_lists_[k] = std::move(v);
      }
      MIP_ASSIGN_OR_RETURN(uint32_t n_scalars, r->ReadU32());
      for (uint32_t i = 0; i < n_scalars; ++i) {
        MIP_ASSIGN_OR_RETURN(std::string k, r->ReadString());
        MIP_ASSIGN_OR_RETURN(double v, r->ReadDouble());
        out.scalars_[k] = v;
      }
      MIP_ASSIGN_OR_RETURN(uint32_t n_vectors, r->ReadU32());
      for (uint32_t i = 0; i < n_vectors; ++i) {
        MIP_ASSIGN_OR_RETURN(std::string k, r->ReadString());
        MIP_ASSIGN_OR_RETURN(std::vector<double> v,
                             engine::DecodeDoubles(r));
        out.vectors_[k] = std::move(v);
      }
      MIP_ASSIGN_OR_RETURN(uint32_t n_matrices, r->ReadU32());
      for (uint32_t i = 0; i < n_matrices; ++i) {
        MIP_ASSIGN_OR_RETURN(std::string k, r->ReadString());
        MIP_ASSIGN_OR_RETURN(uint32_t rows, r->ReadU32());
        MIP_ASSIGN_OR_RETURN(uint32_t cols, r->ReadU32());
        MIP_ASSIGN_OR_RETURN(std::vector<double> flat,
                             engine::DecodeDoubles(r));
        MIP_ASSIGN_OR_RETURN(
            stats::Matrix m,
            stats::Matrix::FromFlat(rows, cols, std::move(flat)));
        out.matrices_[k] = std::move(m);
      }
      MIP_ASSIGN_OR_RETURN(uint32_t n_tables, r->ReadU32());
      for (uint32_t i = 0; i < n_tables; ++i) {
        MIP_ASSIGN_OR_RETURN(std::string k, r->ReadString());
        MIP_ASSIGN_OR_RETURN(engine::Table t, engine::DeserializeTable(r));
        out.tables_[k] = std::move(t);
      }
      return out;
    }
  }
  TransferData out;
  MIP_ASSIGN_OR_RETURN(uint32_t n_strings, r->ReadU32());
  for (uint32_t i = 0; i < n_strings; ++i) {
    MIP_ASSIGN_OR_RETURN(std::string k, r->ReadString());
    MIP_ASSIGN_OR_RETURN(std::string v, r->ReadString());
    out.strings_[k] = std::move(v);
  }
  MIP_ASSIGN_OR_RETURN(uint32_t n_lists, r->ReadU32());
  for (uint32_t i = 0; i < n_lists; ++i) {
    MIP_ASSIGN_OR_RETURN(std::string k, r->ReadString());
    MIP_ASSIGN_OR_RETURN(uint32_t len, r->ReadU32());
    // Each string needs at least its 4-byte length prefix; reject counts the
    // remaining bytes cannot possibly hold before allocating.
    if (static_cast<size_t>(len) > r->Remaining() / sizeof(uint32_t)) {
      return Status::IOError("truncated buffer while deserializing");
    }
    std::vector<std::string> v(len);
    for (uint32_t j = 0; j < len; ++j) {
      MIP_ASSIGN_OR_RETURN(v[j], r->ReadString());
    }
    out.string_lists_[k] = std::move(v);
  }
  MIP_ASSIGN_OR_RETURN(uint32_t n_scalars, r->ReadU32());
  for (uint32_t i = 0; i < n_scalars; ++i) {
    MIP_ASSIGN_OR_RETURN(std::string k, r->ReadString());
    MIP_ASSIGN_OR_RETURN(double v, r->ReadDouble());
    out.scalars_[k] = v;
  }
  MIP_ASSIGN_OR_RETURN(uint32_t n_vectors, r->ReadU32());
  for (uint32_t i = 0; i < n_vectors; ++i) {
    MIP_ASSIGN_OR_RETURN(std::string k, r->ReadString());
    MIP_ASSIGN_OR_RETURN(std::vector<double> v, r->ReadDoubleVector());
    out.vectors_[k] = std::move(v);
  }
  MIP_ASSIGN_OR_RETURN(uint32_t n_matrices, r->ReadU32());
  for (uint32_t i = 0; i < n_matrices; ++i) {
    MIP_ASSIGN_OR_RETURN(std::string k, r->ReadString());
    MIP_ASSIGN_OR_RETURN(uint32_t rows, r->ReadU32());
    MIP_ASSIGN_OR_RETURN(uint32_t cols, r->ReadU32());
    MIP_ASSIGN_OR_RETURN(std::vector<double> flat, r->ReadDoubleVector());
    MIP_ASSIGN_OR_RETURN(stats::Matrix m,
                         stats::Matrix::FromFlat(rows, cols, std::move(flat)));
    out.matrices_[k] = std::move(m);
  }
  MIP_ASSIGN_OR_RETURN(uint32_t n_tables, r->ReadU32());
  for (uint32_t i = 0; i < n_tables; ++i) {
    MIP_ASSIGN_OR_RETURN(std::string k, r->ReadString());
    MIP_ASSIGN_OR_RETURN(engine::Table t, engine::DeserializeTable(r));
    out.tables_[k] = std::move(t);
  }
  return out;
}

size_t TransferData::SerializedBytes() const {
  BufferWriter w;
  Serialize(&w);
  return w.size();
}

size_t TransferData::RawSerializedBytes() const {
  auto keyed = [](const std::string& k) { return sizeof(uint32_t) + k.size(); };
  size_t total = 6 * sizeof(uint32_t);  // the six section counts
  for (const auto& [k, v] : strings_) {
    total += keyed(k) + sizeof(uint32_t) + v.size();
  }
  for (const auto& [k, v] : string_lists_) {
    total += keyed(k) + sizeof(uint32_t);
    for (const std::string& s : v) total += sizeof(uint32_t) + s.size();
  }
  for (const auto& [k, v] : scalars_) {
    (void)v;
    total += keyed(k) + sizeof(double);
  }
  for (const auto& [k, v] : vectors_) {
    total += keyed(k) + sizeof(uint32_t) + v.size() * sizeof(double);
  }
  for (const auto& [k, m] : matrices_) {
    total += keyed(k) + 3 * sizeof(uint32_t) +
             m.rows() * m.cols() * sizeof(double);
  }
  for (const auto& [k, t] : tables_) {
    total += keyed(k) + engine::RawTableWireBytes(t);
  }
  return total;
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
