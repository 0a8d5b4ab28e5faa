#ifndef MIP_ENGINE_COLUMN_H_
#define MIP_ENGINE_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/bitmap.h"
#include "engine/type.h"
#include "engine/value.h"

namespace mip::engine {

/// \brief A typed, nullable, contiguous column of values.
///
/// Storage is a dense typed vector plus an optional validity bitmap. A column
/// with no nulls carries no bitmap (`has_validity() == false`), so vectorized
/// kernels can run branch-free over raw arrays — the layout property the MIP
/// paper leans on for in-database analytics performance.
class Column {
 public:
  explicit Column(DataType type = DataType::kFloat64) : type_(type) {}

  /// Builds an all-valid column from raw doubles.
  static Column FromDoubles(std::vector<double> values);
  /// Builds an all-valid column from raw int64s.
  static Column FromInts(std::vector<int64_t> values);
  /// Builds an all-valid column from raw bools.
  static Column FromBools(std::vector<uint8_t> values);
  /// Builds an all-valid column from strings.
  static Column FromStrings(std::vector<std::string> values);

  DataType type() const { return type_; }
  size_t length() const { return length_; }

  bool has_validity() const { return validity_.length() > 0; }
  bool IsValid(size_t i) const {
    return !has_validity() || validity_.Get(i);
  }
  /// Number of null entries.
  size_t null_count() const {
    return has_validity() ? length_ - validity_.CountSet() : 0;
  }

  // --- Typed element access (caller must respect type()). ---
  int64_t IntAt(size_t i) const { return ints_[i]; }
  double DoubleAt(size_t i) const { return doubles_[i]; }
  bool BoolAt(size_t i) const { return bools_[i] != 0; }
  const std::string& StringAt(size_t i) const { return strings_[i]; }

  /// Numeric view of element i (bool -> 0/1, int -> double); NaN for nulls
  /// and strings.
  double AsDoubleAt(size_t i) const;

  /// Boxed view of element i.
  Value ValueAt(size_t i) const;

  // --- Appending (builder-style use). ---
  void AppendNull();
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendBool(bool v);
  void AppendString(std::string v);
  /// Appends a boxed value, coercing numerics to the column type.
  Status AppendValue(const Value& v);

  /// Reserves capacity in the underlying typed vector.
  void Reserve(size_t n);

  /// Appends every row of `other` (same type; Table::Concat validates) via
  /// typed bulk copies — the unboxed path behind merge-table concatenation.
  void AppendFrom(const Column& other);

  /// Appends the rows of `source` (same type) at `indices`, in that order.
  /// The appended rows get a bitmap only if one of them is null.
  void AppendTake(const Column& source, const std::vector<int64_t>& indices);

  /// Adopts as rows of this column the elements its typed storage vector
  /// holds beyond length(), e.g. ones a codec decoded straight into
  /// mutable_ints(). `validity` holds their validity bits, or is
  /// empty when every one is valid; its length must otherwise equal the
  /// adopted count. Null slots are canonicalized (NaN / 0 / "") and the
  /// column bitmap appears only once some appended row carries one — the
  /// same rules every append above follows.
  void AdoptAppendedRows(const Bitmap& validity);

  /// Gathers rows by index.
  Column Take(const std::vector<int64_t>& indices) const;

  /// Contiguous sub-range [offset, offset + count).
  Column Slice(size_t offset, size_t count) const;

  /// Raw storage (kernels only; type must match).
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<uint8_t>& bools() const { return bools_; }
  const std::vector<std::string>& strings() const { return strings_; }
  std::vector<double>& mutable_doubles() { return doubles_; }
  std::vector<int64_t>& mutable_ints() { return ints_; }
  std::vector<uint8_t>& mutable_bools() { return bools_; }
  std::vector<std::string>& mutable_strings() { return strings_; }

  /// Installs a validity bitmap (length must equal column length).
  Status SetValidity(Bitmap validity);
  const Bitmap& validity() const { return validity_; }

  /// Dense vector of the non-null numeric values (drops nulls) — the common
  /// hand-off from engine storage to the stats substrate.
  std::vector<double> NonNullDoubles() const;

 private:
  void EnsureValidity();

  DataType type_;
  size_t length_ = 0;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint8_t> bools_;
  std::vector<std::string> strings_;
  Bitmap validity_;  // empty => all valid
};

}  // namespace mip::engine

#endif  // MIP_ENGINE_COLUMN_H_
