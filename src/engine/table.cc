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

void Table::Reserve(size_t rows) {
  for (Column& c : columns_) c.Reserve(rows);
}

Status Table::Append(const Table& part) {
  if (part.num_columns() != num_columns()) {
    return Status::TypeError("Concat schema mismatch (column count)");
  }
  for (size_t c = 0; c < num_columns(); ++c) {
    if (part.column(c).type() != columns_[c].type()) {
      return Status::TypeError("Concat schema mismatch (column type)");
    }
  }
  // Columnar append: typed bulk copies per column instead of boxing every
  // cell into a Value row (the merge-table hot path).
  for (size_t c = 0; c < num_columns(); ++c) {
    columns_[c].AppendFrom(part.column(c));
  }
  num_rows_ += part.num_rows();
  return Status::OK();
}

Status Table::SyncRowCount() {
  const size_t rows = columns_.empty() ? 0 : columns_[0].length();
  for (const Column& c : columns_) {
    if (c.length() != rows) {
      return Status::Internal("column lengths differ after an append");
    }
  }
  num_rows_ = rows;
  return Status::OK();
}

Result<Table> Table::Concat(const std::vector<Table>& parts) {
  if (parts.empty()) return Status::InvalidArgument("Concat of zero tables");
  Table out = Table::Empty(parts[0].schema());
  size_t total_rows = 0;
  for (const Table& part : parts) total_rows += part.num_rows();
  out.Reserve(total_rows);
  for (const Table& part : parts) MIP_RETURN_NOT_OK(out.Append(part));
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

namespace {

/// The fixed-width (v1) column body: u8 has_validity, the validity words
/// (u32 count + u64s) when present, then the values as u32 count +
/// fixed-width elements, or for strings u32 count + u32-prefixed bytes each.
void WriteFixedWidthColumn(const Column& col, BufferWriter* w) {
  w->WriteBool(col.has_validity());
  if (col.has_validity()) w->WriteVector(col.validity().words());
  switch (col.type()) {
    case DataType::kBool:
      w->WriteVector(col.bools());
      break;
    case DataType::kInt64:
      w->WriteVector(col.ints());
      break;
    case DataType::kFloat64:
      w->WriteVector(col.doubles());
      break;
    case DataType::kString:
      w->WriteU32(static_cast<uint32_t>(col.strings().size()));
      for (const std::string& s : col.strings()) w->WriteString(s);
      break;
  }
}

/// Reads a WriteFixedWidthColumn body into the fresh `col` the way
/// DecodeColumn reads an EncodeColumn body: values into the typed storage,
/// validity bits returned.
Result<Bitmap> ReadFixedWidthColumn(BufferReader* r, uint64_t num_rows,
                                    Column* col) {
  MIP_ASSIGN_OR_RETURN(bool has_validity, r->ReadBool());
  Bitmap validity;
  if (has_validity) {
    MIP_ASSIGN_OR_RETURN(std::vector<uint64_t> words,
                         r->ReadVector<uint64_t>());
    if (words.size() * 64 < num_rows) {
      return Status::IOError("table validity bitmap shorter than row count");
    }
    validity = Bitmap(num_rows, true);
    for (size_t i = 0; i < num_rows; ++i) {
      if (((words[i >> 6] >> (i & 63)) & 1ull) == 0) validity.Set(i, false);
    }
  }
  switch (col->type()) {
    case DataType::kBool: {
      MIP_ASSIGN_OR_RETURN(col->mutable_bools(), r->ReadVector<uint8_t>());
      break;
    }
    case DataType::kInt64: {
      MIP_ASSIGN_OR_RETURN(col->mutable_ints(), r->ReadVector<int64_t>());
      break;
    }
    case DataType::kFloat64: {
      MIP_ASSIGN_OR_RETURN(col->mutable_doubles(), r->ReadVector<double>());
      break;
    }
    case DataType::kString: {
      MIP_ASSIGN_OR_RETURN(uint32_t n, r->ReadU32());
      if (static_cast<size_t>(n) > r->Remaining() / sizeof(uint32_t)) {
        return Status::IOError("truncated buffer while deserializing");
      }
      std::vector<std::string>& vals = col->mutable_strings();
      vals.resize(n);
      for (std::string& s : vals) {
        MIP_ASSIGN_OR_RETURN(s, r->ReadString());
      }
      break;
    }
  }
  return validity;
}

/// The one walk behind every table writer. The layouts differ in the
/// header and the column body only:
///
///   v1 (fixed width)               v2 (compressed)
///   u32  num_cols                  u32 kTableWireMagic, u8 version
///   u64  num_rows                  varint num_cols, varint num_rows
///   per column: u32+bytes name, u8 DataType, then the body:
///   WriteFixedWidthColumn          EncodeColumn (encoding.h)
void WriteTable(const Table& table, bool compressed, BufferWriter* w) {
  if (compressed) {
    w->WriteU32(kTableWireMagic);
    w->WriteU8(kTableWireVersion);
    PutVarint(w, table.num_columns());
    PutVarint(w, table.num_rows());
  } else {
    w->WriteU32(static_cast<uint32_t>(table.num_columns()));
    w->WriteU64(table.num_rows());
  }
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Field& f = table.schema().field(c);
    w->WriteString(f.name);
    w->WriteU8(static_cast<uint8_t>(f.type));
    if (compressed) {
      EncodeColumn(table.column(c), w);
    } else {
      WriteFixedWidthColumn(table.column(c), w);
    }
  }
}

}  // namespace

size_t RawTableWireBytes(const Table& table) {
  BufferWriter counter = BufferWriter::Counter();
  WriteTable(table, /*compressed=*/false, &counter);
  return counter.size();
}

void SerializeTable(const Table& table, BufferWriter* w) {
  w->Reserve(RawTableWireBytes(table));
  WriteTable(table, /*compressed=*/false, w);
}

void SerializeTableForWire(const Table& table, BufferWriter* w) {
  // Measured, not guessed: commit the compressed layout only when it beats
  // the fixed-width one, so bytes_wire <= bytes_raw holds unconditionally.
  const size_t raw_bytes = RawTableWireBytes(table);
  BufferWriter scratch;
  WriteTable(table, /*compressed=*/true, &scratch);
  if (scratch.size() < raw_bytes) {
    w->AppendRaw(scratch.bytes().data(), scratch.size());
  } else {
    w->Reserve(raw_bytes);
    WriteTable(table, /*compressed=*/false, w);
  }
}

Result<Table> DeserializeTable(BufferReader* r) {
  Result<uint32_t> sniff = r->PeekU32();
  const bool compressed = sniff.ok() && *sniff == kTableWireMagic;
  uint64_t num_cols = 0;
  uint64_t num_rows = 0;
  if (compressed) {
    MIP_RETURN_NOT_OK(r->ReadU32().status());
    MIP_ASSIGN_OR_RETURN(uint8_t version, r->ReadU8());
    if (version != kTableWireVersion) {
      return Status::IOError("unsupported compressed table version " +
                             std::to_string(version));
    }
    MIP_ASSIGN_OR_RETURN(num_cols, GetVarint(r));
    MIP_ASSIGN_OR_RETURN(num_rows, GetVarint(r));
    if (num_rows > kMaxWireElements) {
      return Status::IOError("compressed table row count exceeds the limit");
    }
  } else {
    MIP_ASSIGN_OR_RETURN(num_cols, r->ReadU32());
    MIP_ASSIGN_OR_RETURN(num_rows, r->ReadU64());
  }
  // Every column costs at least its name prefix; reject impossible counts
  // before looping (the loop itself re-checks every read).
  if (num_cols > r->Remaining()) {
    return Status::IOError("truncated buffer while deserializing");
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
    Column col(type);
    MIP_ASSIGN_OR_RETURN(Bitmap validity,
                         compressed ? DecodeColumn(r, num_rows, &col)
                                    : ReadFixedWidthColumn(r, num_rows, &col));
    // SetValidity rather than AdoptAppendedRows(validity): a decoded table
    // keeps what its sender stored under its NULLs, so decoding and
    // re-encoding reproduces the sender's bytes.
    col.AdoptAppendedRows(Bitmap());
    if (col.length() != num_rows) {
      return Status::IOError("column length does not match row count");
    }
    if (validity.length() > 0) {
      MIP_RETURN_NOT_OK(col.SetValidity(std::move(validity)));
    }
    columns.push_back(std::move(col));
  }
  return Table::Make(std::move(schema), std::move(columns));
}

}  // namespace mip::engine
