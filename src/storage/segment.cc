#include "storage/segment.h"

#include <cmath>

#include "common/bytes.h"
#include "common/string_util.h"
#include "engine/encoding.h"

namespace mip::storage {

using engine::Column;
using engine::DataType;
using engine::Expr;
using engine::GetVarint;
using engine::kMaxWireElements;
using engine::PutVarint;
using engine::Schema;
using engine::Table;
using engine::Value;

namespace {

constexpr FramedFormat kFormat{kSegmentMagic, kSegmentFooterMagic,
                               kSegmentVersion, "segment"};

Status Corrupt(const std::string& path, const std::string& why) {
  return kFormat.Corrupt(path, why);
}

/// Widens the zone's [*min, *max] range to cover `v`.
template <typename T>
void Widen(ZoneMap* zone, T* min, T* max, const T& v) {
  if (!zone->has_range) {
    *min = *max = v;
    zone->has_range = true;
  } else {
    if (v < *min) *min = v;
    if (v > *max) *max = v;
  }
}

}  // namespace

Schema SegmentFooter::schema() const {
  Schema schema;
  for (const SegmentColumn& col : columns) {
    // Duplicate names were rejected at footer-parse time; ignore here.
    (void)schema.AddField(engine::Field{col.name, col.type});
  }
  return schema;
}

ZoneMap ComputeZoneMap(const Column& column) {
  ZoneMap zone;
  zone.null_count = column.null_count();
  for (size_t i = 0; i < column.length(); ++i) {
    if (!column.IsValid(i)) continue;
    switch (column.type()) {
      case DataType::kBool:
        Widen<int64_t>(&zone, &zone.min_i, &zone.max_i,
                       column.BoolAt(i) ? 1 : 0);
        break;
      case DataType::kInt64:
        Widen(&zone, &zone.min_i, &zone.max_i, column.IntAt(i));
        break;
      case DataType::kFloat64: {
        const double v = column.DoubleAt(i);
        if (std::isnan(v)) {
          zone.has_nan = true;
        } else {
          Widen(&zone, &zone.min_d, &zone.max_d, v);
        }
        break;
      }
      case DataType::kString:
        Widen(&zone, &zone.min_s, &zone.max_s, column.StringAt(i));
        break;
    }
  }
  return zone;
}

namespace {

void WriteZoneMap(const SegmentColumn& col, BufferWriter* w) {
  const ZoneMap& z = col.zone;
  PutVarint(w, z.null_count);
  w->WriteU8(z.has_range ? 1 : 0);
  w->WriteU8(z.has_nan ? 1 : 0);
  if (!z.has_range) return;
  switch (col.type) {
    case DataType::kBool:
    case DataType::kInt64:
      w->WriteI64(z.min_i);
      w->WriteI64(z.max_i);
      break;
    case DataType::kFloat64:
      w->WriteDouble(z.min_d);
      w->WriteDouble(z.max_d);
      break;
    case DataType::kString:
      w->WriteString(z.min_s);
      w->WriteString(z.max_s);
      break;
  }
}

Status ReadZoneMap(BufferReader* r, SegmentColumn* col) {
  ZoneMap& z = col->zone;
  MIP_ASSIGN_OR_RETURN(z.null_count, GetVarint(r));
  MIP_ASSIGN_OR_RETURN(uint8_t has_range, r->ReadU8());
  MIP_ASSIGN_OR_RETURN(uint8_t has_nan, r->ReadU8());
  if (has_range > 1 || has_nan > 1) {
    return Status::IOError("bad zone-map flag byte");
  }
  z.has_range = has_range == 1;
  z.has_nan = has_nan == 1;
  if (!z.has_range) return Status::OK();
  switch (col->type) {
    case DataType::kBool:
    case DataType::kInt64: {
      MIP_ASSIGN_OR_RETURN(z.min_i, r->ReadI64());
      MIP_ASSIGN_OR_RETURN(z.max_i, r->ReadI64());
      break;
    }
    case DataType::kFloat64: {
      MIP_ASSIGN_OR_RETURN(z.min_d, r->ReadDouble());
      MIP_ASSIGN_OR_RETURN(z.max_d, r->ReadDouble());
      break;
    }
    case DataType::kString: {
      MIP_ASSIGN_OR_RETURN(z.min_s, r->ReadString());
      MIP_ASSIGN_OR_RETURN(z.max_s, r->ReadString());
      break;
    }
  }
  return Status::OK();
}

/// Parses + validates the footer contents; every column block must lie
/// before the footer.
Result<SegmentFooter> ParseFooter(const std::string& path,
                                  const FramedFooter& framed) {
  BufferReader r(framed.bytes);
  SegmentFooter footer;
  MIP_ASSIGN_OR_RETURN(footer.num_rows, GetVarint(&r));
  if (footer.num_rows > kMaxWireElements) {
    return Corrupt(path, "row count " + std::to_string(footer.num_rows) +
                             " exceeds cap");
  }
  MIP_ASSIGN_OR_RETURN(uint64_t num_cols, GetVarint(&r));
  if (num_cols > kMaxSegmentColumns) {
    return Corrupt(path, "column count " + std::to_string(num_cols) +
                             " exceeds cap");
  }
  Schema dup_check;
  for (uint64_t i = 0; i < num_cols; ++i) {
    SegmentColumn col;
    MIP_ASSIGN_OR_RETURN(col.name, r.ReadString());
    MIP_ASSIGN_OR_RETURN(uint8_t type_byte, r.ReadU8());
    if (type_byte > static_cast<uint8_t>(DataType::kString)) {
      return Corrupt(path, "bad column type byte");
    }
    col.type = static_cast<DataType>(type_byte);
    MIP_RETURN_NOT_OK(ReadZoneMap(&r, &col));
    MIP_ASSIGN_OR_RETURN(col.block, kFormat.GetBlockRef(path, framed.start,
                                                        "column block", &r));
    if (col.zone.null_count > footer.num_rows) {
      return Corrupt(path, "null count exceeds row count");
    }
    if (!dup_check.AddField(engine::Field{col.name, col.type}).ok()) {
      return Corrupt(path, "duplicate column name '" + col.name + "'");
    }
    footer.columns.push_back(std::move(col));
  }
  if (!r.AtEnd()) return Corrupt(path, "trailing bytes after footer");
  return footer;
}

/// Decodes one column block (an engine::EncodeColumn body of `num_rows`
/// rows) by appending to `col`, whose type already matched the footer.
Status AppendColumnBlock(const std::string& path, const uint8_t* block,
                         size_t length, uint64_t num_rows, Column* col) {
  BufferReader r(block, length);
  Result<engine::Bitmap> validity = engine::DecodeColumn(&r, num_rows, col);
  if (!validity.ok()) return Corrupt(path, validity.status().message());
  if (!r.AtEnd()) return Corrupt(path, "trailing bytes in column block");
  col->AdoptAppendedRows(*validity);
  return Status::OK();
}

}  // namespace

Result<SegmentFooter> WriteSegment(const std::string& path,
                                   const Table& table) {
  if (table.num_rows() > kMaxWireElements) {
    return Status::InvalidArgument("segment batch exceeds row cap");
  }
  FramedFileWriter file(kFormat);
  SegmentFooter footer;
  footer.num_rows = table.num_rows();
  for (size_t i = 0; i < table.num_columns(); ++i) {
    const Column& column = table.column(i);
    BufferWriter block;
    engine::EncodeColumn(column, &block);
    SegmentColumn col;
    col.name = table.schema().field(i).name;
    col.type = column.type();
    col.zone = ComputeZoneMap(column);
    col.block = file.AppendBlock(block.bytes());
    footer.columns.push_back(std::move(col));
  }

  BufferWriter f;
  PutVarint(&f, footer.num_rows);
  PutVarint(&f, footer.columns.size());
  for (const SegmentColumn& col : footer.columns) {
    f.WriteString(col.name);
    f.WriteU8(static_cast<uint8_t>(col.type));
    WriteZoneMap(col, &f);
    PutBlockRef(col.block, &f);
  }
  MIP_RETURN_NOT_OK(file.Finish(path, f.bytes()));
  return footer;
}

Result<SegmentFooter> ReadSegmentFooter(const std::string& path) {
  MIP_ASSIGN_OR_RETURN(FramedFooter framed, kFormat.ReadFooter(path));
  return ParseFooter(path, framed);
}

Status AppendSegmentData(const std::string& path, const SegmentFooter& footer,
                         Table* out) {
  const Schema& schema = out->schema();
  bool columns_match = footer.columns.size() == schema.num_fields();
  for (size_t c = 0; columns_match && c < footer.columns.size(); ++c) {
    columns_match = footer.columns[c].type == schema.field(c).type &&
                    EqualsIgnoreCase(footer.columns[c].name,
                                     schema.field(c).name);
  }
  if (!columns_match) {
    return Corrupt(path, "columns do not match the table schema " +
                             schema.ToString());
  }
  MIP_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, kFormat.ReadFile(path));
  for (size_t c = 0; c < footer.columns.size(); ++c) {
    const SegmentColumn& meta = footer.columns[c];
    MIP_RETURN_NOT_OK(kFormat.CheckBlock(path, bytes, meta.block,
                                         "column '" + meta.name + "' block"));
    MIP_RETURN_NOT_OK(AppendColumnBlock(
        path, bytes.data() + meta.block.offset,
        static_cast<size_t>(meta.block.length), footer.num_rows,
        &out->mutable_column(c)));
  }
  return out->SyncRowCount();
}

Result<engine::Table> ReadSegmentData(const std::string& path,
                                      const SegmentFooter& footer) {
  Table out = Table::Empty(footer.schema());
  out.Reserve(static_cast<size_t>(footer.num_rows));
  MIP_RETURN_NOT_OK(AppendSegmentData(path, footer, &out));
  return out;
}

Result<engine::Table> ReadSegment(const std::string& path) {
  MIP_ASSIGN_OR_RETURN(SegmentFooter footer, ReadSegmentFooter(path));
  return ReadSegmentData(path, footer);
}

// --- Zone-map pruning -------------------------------------------------------

namespace {

bool IsComparisonOp(engine::BinaryOp op) {
  switch (op) {
    case engine::BinaryOp::kEq:
    case engine::BinaryOp::kLt:
    case engine::BinaryOp::kLe:
    case engine::BinaryOp::kGt:
    case engine::BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

engine::BinaryOp MirrorOp(engine::BinaryOp op) {
  switch (op) {
    case engine::BinaryOp::kLt:
      return engine::BinaryOp::kGt;
    case engine::BinaryOp::kLe:
      return engine::BinaryOp::kGe;
    case engine::BinaryOp::kGt:
      return engine::BinaryOp::kLt;
    case engine::BinaryOp::kGe:
      return engine::BinaryOp::kLe;
    default:
      return op;  // kEq is symmetric
  }
}

void CollectConjuncts(const Expr& e, std::vector<PruneConjunct>* out) {
  if (e.kind != engine::ExprKind::kBinary) return;
  if (e.binary_op == engine::BinaryOp::kAnd) {
    for (const auto& a : e.args) CollectConjuncts(*a, out);
    return;
  }
  if (!IsComparisonOp(e.binary_op) || e.args.size() != 2) return;
  const Expr& l = *e.args[0];
  const Expr& r = *e.args[1];
  if (l.kind == engine::ExprKind::kColumnRef &&
      r.kind == engine::ExprKind::kLiteral && !r.literal.is_null()) {
    out->push_back({l.column_name, e.binary_op, r.literal});
  } else if (r.kind == engine::ExprKind::kColumnRef &&
             l.kind == engine::ExprKind::kLiteral && !l.literal.is_null()) {
    out->push_back({r.column_name, MirrorOp(e.binary_op), l.literal});
  }
}

/// Interval feasibility of `exists x in [min,max] : x op v` for a totally
/// ordered domain. Exact at the bounds: e.g. for kLt, min < v iff x=min is
/// a witness.
template <typename T>
bool RangeFeasible(const T& min, const T& max, const T& v,
                   engine::BinaryOp op) {
  switch (op) {
    case engine::BinaryOp::kEq:
      return !(v < min) && !(max < v);
    case engine::BinaryOp::kLt:
      return min < v;
    case engine::BinaryOp::kLe:
      return !(v < min);
    case engine::BinaryOp::kGt:
      return v < max;
    case engine::BinaryOp::kGe:
      return !(max < v);
    default:
      return true;
  }
}

/// Could any row of this segment column satisfy the conjunct, under the
/// engine's comparison semantics (numerics compared as doubles; NaN on
/// either side compares "equal", satisfying =, <=, >=)?
bool ConjunctFeasible(const SegmentColumn& col, uint64_t num_rows,
                      const PruneConjunct& c) {
  const ZoneMap& z = col.zone;
  const Value& lit = c.literal;
  if (z.null_count >= num_rows) return false;  // all NULL: nothing matches

  if (col.type == DataType::kString) {
    if (lit.kind() != Value::Kind::kString) return true;  // mixed: keep
    if (!z.has_range) return false;
    return RangeFeasible(z.min_s, z.max_s, lit.string_value(), c.op);
  }

  // Numeric column. Only numeric literals prune; a string literal routes
  // the engine through its string comparison path — keep conservatively.
  if (lit.kind() == Value::Kind::kString) return true;
  const double v = lit.AsDouble();
  const bool eq_like = c.op == engine::BinaryOp::kEq ||
                       c.op == engine::BinaryOp::kLe ||
                       c.op == engine::BinaryOp::kGe;
  if (std::isnan(v)) {
    // cmp(x, NaN) == 0 for every x: =, <=, >= match every non-null row;
    // <, > match none.
    return eq_like;
  }
  if (z.has_nan && eq_like) return true;  // a NaN cell matches any v
  if (!z.has_range) return false;
  double lo = 0.0, hi = 0.0;
  switch (col.type) {
    case DataType::kBool:
    case DataType::kInt64:
      // The engine compares cells as doubles; casting the exact integer
      // bounds is monotonic, so the double interval still contains every
      // converted cell value — the test stays conservative.
      lo = static_cast<double>(z.min_i);
      hi = static_cast<double>(z.max_i);
      break;
    default:
      lo = z.min_d;
      hi = z.max_d;
      break;
  }
  return RangeFeasible(lo, hi, v, c.op);
}

}  // namespace

std::vector<PruneConjunct> ExtractPruneConjuncts(const Expr& expr) {
  std::vector<PruneConjunct> out;
  CollectConjuncts(expr, &out);
  return out;
}

bool SegmentCanMatch(const SegmentFooter& footer,
                     const std::vector<PruneConjunct>& conjuncts) {
  if (footer.num_rows == 0) return false;  // empty segment: nothing to scan
  for (const PruneConjunct& c : conjuncts) {
    const SegmentColumn* col = nullptr;
    for (const SegmentColumn& candidate : footer.columns) {
      if (EqualsIgnoreCase(candidate.name, c.column)) {
        col = &candidate;
        break;
      }
    }
    if (col == nullptr) continue;  // unknown column: never prune on it
    if (!ConjunctFeasible(*col, footer.num_rows, c)) return false;
  }
  return true;
}

}  // namespace mip::storage
