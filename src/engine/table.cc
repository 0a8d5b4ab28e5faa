#include "engine/table.h"

#include <sstream>

#include "common/string_util.h"
#include "engine/encoding.h"

namespace mip::engine {

int Schema::FieldIndex(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (EqualsIgnoreCase(fields_[i].name, name)) return static_cast<int>(i);
  }
  return -1;
}

Status Schema::AddField(Field field) {
  if (FieldIndex(field.name) >= 0) {
    return Status::AlreadyExists("duplicate field '" + field.name + "'");
  }
  fields_.push_back(std::move(field));
  return Status::OK();
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields_[i].name;
    out += " ";
    out += DataTypeName(fields_[i].type);
  }
  out += ")";
  return out;
}

Result<Table> Table::Make(Schema schema, std::vector<Column> columns) {
  if (schema.num_fields() != columns.size()) {
    return Status::InvalidArgument("schema/column count mismatch");
  }
  size_t rows = columns.empty() ? 0 : columns[0].length();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].type() != schema.field(i).type) {
      return Status::TypeError("column " + std::to_string(i) +
                               " type does not match schema field '" +
                               schema.field(i).name + "'");
    }
    if (columns[i].length() != rows) {
      return Status::InvalidArgument("column lengths differ");
    }
  }
  Table t;
  t.schema_ = std::move(schema);
  t.columns_ = std::move(columns);
  t.num_rows_ = rows;
  return t;
}

Table Table::Empty(Schema schema) {
  Table t;
  for (const Field& f : schema.fields()) t.columns_.emplace_back(f.type);
  t.schema_ = std::move(schema);
  return t;
}

Result<const Column*> Table::ColumnByName(const std::string& name) const {
  const int idx = schema_.FieldIndex(name);
  if (idx < 0) return Status::NotFound("no column named '" + name + "'");
  return &columns_[static_cast<size_t>(idx)];
}

Status Table::AppendRow(const std::vector<Value>& row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument("row width mismatch");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    MIP_RETURN_NOT_OK(columns_[i].AppendValue(row[i]));
  }
  ++num_rows_;
  return Status::OK();
}

Table Table::Take(const std::vector<int64_t>& indices) const {
  Table t;
  t.schema_ = schema_;
  for (const Column& c : columns_) t.columns_.push_back(c.Take(indices));
  t.num_rows_ = indices.size();
  return t;
}

Table Table::Slice(size_t offset, size_t count) const {
  std::vector<int64_t> idx;
  for (size_t i = offset; i < offset + count && i < num_rows_; ++i) {
    idx.push_back(static_cast<int64_t>(i));
  }
  return Take(idx);
}

Result<Table> Table::Concat(const std::vector<Table>& parts) {
  if (parts.empty()) return Status::InvalidArgument("Concat of zero tables");
  Table out = Table::Empty(parts[0].schema());
  size_t total_rows = 0;
  for (const Table& part : parts) {
    if (part.num_columns() != out.num_columns()) {
      return Status::TypeError("Concat schema mismatch (column count)");
    }
    for (size_t c = 0; c < part.num_columns(); ++c) {
      if (part.column(c).type() != out.column(c).type()) {
        return Status::TypeError("Concat schema mismatch (column type)");
      }
    }
    total_rows += part.num_rows();
  }
  // Columnar concatenation: one reserve + typed bulk copies per column,
  // instead of boxing every cell into a Value row (the merge-table hot path).
  for (size_t c = 0; c < out.num_columns(); ++c) {
    out.columns_[c].Reserve(total_rows);
    for (const Table& part : parts) {
      out.columns_[c].AppendFrom(part.column(c));
    }
  }
  out.num_rows_ = total_rows;
  return out;
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream os;
  for (size_t i = 0; i < schema_.num_fields(); ++i) {
    if (i > 0) os << " | ";
    os << schema_.field(i).name;
  }
  os << "\n";
  const size_t rows = std::min(num_rows_, max_rows);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) os << " | ";
      os << At(r, c).ToString();
    }
    os << "\n";
  }
  if (num_rows_ > rows) {
    os << "... (" << num_rows_ - rows << " more rows)\n";
  }
  return os.str();
}

size_t RawTableWireBytes(const Table& table) {
  size_t total = sizeof(uint32_t) + sizeof(uint64_t);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Field& f = table.schema().field(c);
    const Column& col = table.column(c);
    total += sizeof(uint32_t) + f.name.size() + 1 /*type*/ + 1 /*validity?*/;
    if (col.has_validity()) {
      total += sizeof(uint32_t) +
               col.validity().words().size() * sizeof(uint64_t);
    }
    switch (f.type) {
      case DataType::kBool:
        total += sizeof(uint32_t) + col.bools().size();
        break;
      case DataType::kInt64:
        total += sizeof(uint32_t) + col.ints().size() * sizeof(int64_t);
        break;
      case DataType::kFloat64:
        total += sizeof(uint32_t) + col.doubles().size() * sizeof(double);
        break;
      case DataType::kString:
        total += sizeof(uint32_t);
        for (const std::string& s : col.strings()) {
          total += sizeof(uint32_t) + s.size();
        }
        break;
    }
  }
  return total;
}

void SerializeTable(const Table& table, BufferWriter* w) {
  w->Reserve(RawTableWireBytes(table));
  w->WriteU32(static_cast<uint32_t>(table.num_columns()));
  w->WriteU64(table.num_rows());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Field& f = table.schema().field(c);
    w->WriteString(f.name);
    w->WriteU8(static_cast<uint8_t>(f.type));
    const Column& col = table.column(c);
    w->WriteBool(col.has_validity());
    if (col.has_validity()) {
      std::vector<uint64_t> words = col.validity().words();
      w->WriteU64Vector(words);
    }
    switch (f.type) {
      case DataType::kBool: {
        w->WriteU32(static_cast<uint32_t>(col.bools().size()));
        w->AppendRaw(col.bools().data(), col.bools().size());
        break;
      }
      case DataType::kInt64:
        w->WriteI64Vector(col.ints());
        break;
      case DataType::kFloat64:
        w->WriteDoubleVector(col.doubles());
        break;
      case DataType::kString: {
        w->WriteU32(static_cast<uint32_t>(col.strings().size()));
        for (const std::string& s : col.strings()) w->WriteString(s);
        break;
      }
    }
  }
}

namespace {

/// Compressed (v2) layout:
///
///   u32     kTableWireMagic
///   u8      kTableWireVersion
///   varint  num_cols
///   varint  num_rows
///   per column:
///     u32+bytes  field name (BufferWriter::WriteString)
///     u8         DataType
///     u8         has_validity
///     [codec block]  validity (when present)
///     codec block    column data
void SerializeTableV2(const Table& table, BufferWriter* w) {
  w->WriteU32(kTableWireMagic);
  w->WriteU8(kTableWireVersion);
  PutVarint(w, table.num_columns());
  PutVarint(w, table.num_rows());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Field& f = table.schema().field(c);
    const Column& col = table.column(c);
    w->WriteString(f.name);
    w->WriteU8(static_cast<uint8_t>(f.type));
    w->WriteBool(col.has_validity());
    if (col.has_validity()) EncodeValidity(col.validity(), w);
    switch (f.type) {
      case DataType::kBool:
        EncodeBools(col.bools(), w);
        break;
      case DataType::kInt64:
        EncodeInts(col.ints(), w);
        break;
      case DataType::kFloat64:
        EncodeDoubles(col.doubles(), w);
        break;
      case DataType::kString:
        EncodeStrings(col.strings(), w);
        break;
    }
  }
}

Result<Table> DeserializeTableV2(BufferReader* r) {
  MIP_ASSIGN_OR_RETURN(uint32_t magic, r->ReadU32());
  if (magic != kTableWireMagic) {
    return Status::IOError("compressed table magic mismatch");
  }
  MIP_ASSIGN_OR_RETURN(uint8_t version, r->ReadU8());
  if (version != kTableWireVersion) {
    return Status::IOError("unsupported compressed table version " +
                           std::to_string(version));
  }
  MIP_ASSIGN_OR_RETURN(uint64_t num_cols, GetVarint(r));
  MIP_ASSIGN_OR_RETURN(uint64_t num_rows, GetVarint(r));
  // Every column costs at least its name prefix; reject impossible counts
  // before looping (the loop itself re-checks every read).
  if (num_cols > r->Remaining()) {
    return Status::IOError("truncated buffer while deserializing");
  }
  if (num_rows > kMaxWireElements) {
    return Status::IOError("compressed table row count exceeds the limit");
  }
  Schema schema;
  std::vector<Column> columns;
  for (uint64_t c = 0; c < num_cols; ++c) {
    MIP_ASSIGN_OR_RETURN(std::string name, r->ReadString());
    MIP_ASSIGN_OR_RETURN(uint8_t type_byte, r->ReadU8());
    if (type_byte > static_cast<uint8_t>(DataType::kString)) {
      return Status::IOError("table wire format has unknown column type " +
                             std::to_string(type_byte));
    }
    const DataType type = static_cast<DataType>(type_byte);
    MIP_RETURN_NOT_OK(schema.AddField(Field{name, type}));
    MIP_ASSIGN_OR_RETURN(bool has_validity, r->ReadBool());
    Bitmap validity;
    if (has_validity) {
      MIP_ASSIGN_OR_RETURN(validity, DecodeValidity(r));
      if (validity.length() != num_rows) {
        return Status::IOError("validity length does not match row count");
      }
    }
    Column col(type);
    size_t decoded = 0;
    switch (type) {
      case DataType::kBool: {
        MIP_ASSIGN_OR_RETURN(std::vector<uint8_t> vals, DecodeBools(r));
        decoded = vals.size();
        col = Column::FromBools(std::move(vals));
        break;
      }
      case DataType::kInt64: {
        MIP_ASSIGN_OR_RETURN(std::vector<int64_t> vals, DecodeInts(r));
        decoded = vals.size();
        col = Column::FromInts(std::move(vals));
        break;
      }
      case DataType::kFloat64: {
        MIP_ASSIGN_OR_RETURN(std::vector<double> vals, DecodeDoubles(r));
        decoded = vals.size();
        col = Column::FromDoubles(std::move(vals));
        break;
      }
      case DataType::kString: {
        MIP_ASSIGN_OR_RETURN(std::vector<std::string> vals, DecodeStrings(r));
        decoded = vals.size();
        col = Column::FromStrings(std::move(vals));
        break;
      }
    }
    if (decoded != num_rows) {
      return Status::IOError("column length does not match row count");
    }
    if (has_validity) MIP_RETURN_NOT_OK(col.SetValidity(std::move(validity)));
    columns.push_back(std::move(col));
  }
  return Table::Make(std::move(schema), std::move(columns));
}

}  // namespace

void SerializeTableForWire(const Table& table, BufferWriter* w) {
  // Measured, not guessed: commit the compressed layout only when it beats
  // the fixed-width one, so bytes_wire <= bytes_raw holds unconditionally.
  const size_t raw_bytes = RawTableWireBytes(table);
  BufferWriter scratch;
  SerializeTableV2(table, &scratch);
  if (scratch.size() < raw_bytes) {
    w->AppendRaw(scratch.bytes().data(), scratch.size());
  } else {
    SerializeTable(table, w);
  }
}

Result<Table> DeserializeTable(BufferReader* r) {
  Result<uint32_t> sniff = r->PeekU32();
  if (sniff.ok() && sniff.ValueOrDie() == kTableWireMagic) {
    return DeserializeTableV2(r);
  }
  MIP_ASSIGN_OR_RETURN(uint32_t num_cols, r->ReadU32());
  MIP_ASSIGN_OR_RETURN(uint64_t num_rows, r->ReadU64());
  Schema schema;
  std::vector<Column> columns;
  for (uint32_t c = 0; c < num_cols; ++c) {
    MIP_ASSIGN_OR_RETURN(std::string name, r->ReadString());
    MIP_ASSIGN_OR_RETURN(uint8_t type_byte, r->ReadU8());
    if (type_byte > static_cast<uint8_t>(DataType::kString)) {
      return Status::IOError("table wire format has unknown column type " +
                             std::to_string(type_byte));
    }
    const DataType type = static_cast<DataType>(type_byte);
    MIP_RETURN_NOT_OK(schema.AddField(Field{name, type}));
    MIP_ASSIGN_OR_RETURN(bool has_validity, r->ReadBool());
    Bitmap validity;
    if (has_validity) {
      MIP_ASSIGN_OR_RETURN(std::vector<uint64_t> words, r->ReadU64Vector());
      if (words.size() * 64 < num_rows) {
        return Status::IOError("table validity bitmap shorter than row count");
      }
      validity = Bitmap(num_rows, true);
      for (size_t i = 0; i < num_rows; ++i) {
        const bool bit = (words[i >> 6] >> (i & 63)) & 1ull;
        validity.Set(i, bit);
      }
    }
    Column col(type);
    switch (type) {
      case DataType::kBool: {
        MIP_ASSIGN_OR_RETURN(uint32_t n, r->ReadU32());
        if (n > r->Remaining()) {
          return Status::IOError("truncated buffer while deserializing");
        }
        std::vector<uint8_t> vals(n);
        for (uint32_t i = 0; i < n; ++i) {
          MIP_ASSIGN_OR_RETURN(vals[i], r->ReadU8());
        }
        col = Column::FromBools(std::move(vals));
        break;
      }
      case DataType::kInt64: {
        MIP_ASSIGN_OR_RETURN(std::vector<int64_t> vals, r->ReadI64Vector());
        col = Column::FromInts(std::move(vals));
        break;
      }
      case DataType::kFloat64: {
        MIP_ASSIGN_OR_RETURN(std::vector<double> vals, r->ReadDoubleVector());
        col = Column::FromDoubles(std::move(vals));
        break;
      }
      case DataType::kString: {
        MIP_ASSIGN_OR_RETURN(uint32_t n, r->ReadU32());
        if (static_cast<size_t>(n) > r->Remaining() / sizeof(uint32_t)) {
          return Status::IOError("truncated buffer while deserializing");
        }
        std::vector<std::string> vals(n);
        for (uint32_t i = 0; i < n; ++i) {
          MIP_ASSIGN_OR_RETURN(vals[i], r->ReadString());
        }
        col = Column::FromStrings(std::move(vals));
        break;
      }
    }
    if (has_validity) MIP_RETURN_NOT_OK(col.SetValidity(std::move(validity)));
    columns.push_back(std::move(col));
  }
  return Table::Make(std::move(schema), std::move(columns));
}

}  // namespace mip::engine
