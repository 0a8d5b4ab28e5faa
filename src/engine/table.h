#ifndef MIP_ENGINE_TABLE_H_
#define MIP_ENGINE_TABLE_H_

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "engine/column.h"
#include "engine/type.h"
#include "engine/value.h"

namespace mip::engine {

/// \brief A named, typed column slot in a schema.
struct Field {
  std::string name;
  DataType type = DataType::kFloat64;
};

/// \brief Ordered list of fields; the engine resolves column references
/// against a Schema at bind time.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the (case-insensitively matched) field, or -1.
  int FieldIndex(const std::string& name) const;

  /// Adds a field; duplicate names are an error.
  Status AddField(Field field);

  std::string ToString() const;

 private:
  std::vector<Field> fields_;
};

/// \brief Immutable-ish columnar table: a schema plus one Column per field.
///
/// Tables are value types (cheap enough at MIP scales); the federation layer
/// serializes them with SerializeTable/DeserializeTable when results cross a
/// node boundary.
class Table {
 public:
  Table() = default;

  /// Validates schema/columns agreement (count, types, equal lengths).
  static Result<Table> Make(Schema schema, std::vector<Column> columns);

  /// Empty table with the given schema (for appending rows).
  static Table Empty(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }
  Column& mutable_column(size_t i) { return columns_[i]; }

  /// Column lookup by field name.
  Result<const Column*> ColumnByName(const std::string& name) const;

  /// Appends a row of boxed values (one per field).
  Status AppendRow(const std::vector<Value>& row);

  /// Gathers rows by index into a new table.
  Table Take(const std::vector<int64_t>& indices) const;

  /// Contiguous row range.
  Table Slice(size_t offset, size_t count) const;

  /// Reserves room for `rows` rows in every column.
  void Reserve(size_t rows);

  /// Appends every row of `part` (same column count and types; names are
  /// not checked) via Column::AppendFrom.
  Status Append(const Table& part);

  /// Re-reads num_rows() after rows were appended column by column through
  /// mutable_column() (Column::AppendTake / AdoptAppendedRows). Every
  /// column must then have the same length.
  Status SyncRowCount();

  /// Vertical concatenation; schemas must match exactly.
  static Result<Table> Concat(const std::vector<Table>& parts);

  /// Pretty-printer (first `max_rows` rows).
  std::string ToString(size_t max_rows = 20) const;

  /// Value at (row, col).
  Value At(size_t row, size_t col) const { return columns_[col].ValueAt(row); }

 private:
  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

/// Serializes a table into `w` (schema + column data + validity) in the
/// fixed-width (v1) layout: the per-input fallback of SerializeTableForWire,
/// and the layout the WAL records.
void SerializeTable(const Table& table, BufferWriter* w);

/// Magic prefix of the compressed (v2) table layout. v1 starts with a u32
/// column count — far below this value — so DeserializeTable can sniff the
/// format from the first four bytes.
inline constexpr uint32_t kTableWireMagic = 0x32425443u;  // "CTB2"
inline constexpr uint8_t kTableWireVersion = 2;

/// The serializer for every table that crosses the wire: columns go through
/// the engine::Codec blocks (encoding.h) inside a magic-tagged v2 container
/// — but only if the v2 bytes actually come out smaller than v1; otherwise
/// the v1 layout is written.
void SerializeTableForWire(const Table& table, BufferWriter* w);

/// Inverse of SerializeTable and SerializeTableForWire: accepts both the v1
/// and the v2 layout.
Result<Table> DeserializeTable(BufferReader* r);

/// Exact byte size the v1 (uncompressed) layout would produce for `table`:
/// the v1 walk run into a byte-counting sink, which copies and encodes
/// nothing — the "raw" side of the bytes_raw/bytes_wire compression ledger,
/// and the Reserve() hint for SerializeTable.
size_t RawTableWireBytes(const Table& table);

}  // namespace mip::engine

#endif  // MIP_ENGINE_TABLE_H_
