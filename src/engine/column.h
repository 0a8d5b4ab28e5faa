#ifndef MIP_ENGINE_COLUMN_H_
#define MIP_ENGINE_COLUMN_H_

#include <atomic>
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
///
/// The vectors and the bitmap live in one reference-counted buffer that
/// copies share: copying a Column (and so a Table) copies a pointer, not the
/// rows. Every mutator first takes a private copy of a shared buffer (copy
/// on write), so a mutation never shows through another copy. A reference
/// returned by a mutable_*() accessor is good until the column is next
/// copied. Copies may be read on many threads at once; each copy is mutated
/// by one thread at a time.
class Column {
 public:
  explicit Column(DataType type = DataType::kFloat64);
  Column(const Column& other) noexcept;
  Column(Column&& other) noexcept;
  Column& operator=(Column other) noexcept;
  ~Column();

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

  bool has_validity() const { return buf_->validity.length() > 0; }
  bool IsValid(size_t i) const {
    return !has_validity() || buf_->validity.Get(i);
  }
  /// Number of null entries.
  size_t null_count() const {
    return has_validity() ? length_ - buf_->validity.CountSet() : 0;
  }

  // --- Typed element access (caller must respect type()). ---
  int64_t IntAt(size_t i) const { return buf_->ints[i]; }
  double DoubleAt(size_t i) const { return buf_->doubles[i]; }
  bool BoolAt(size_t i) const { return buf_->bools[i] != 0; }
  const std::string& StringAt(size_t i) const { return buf_->strings[i]; }

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
  const std::vector<double>& doubles() const { return buf_->doubles; }
  const std::vector<int64_t>& ints() const { return buf_->ints; }
  const std::vector<uint8_t>& bools() const { return buf_->bools; }
  const std::vector<std::string>& strings() const { return buf_->strings; }
  std::vector<double>& mutable_doubles() { return Mut().doubles; }
  std::vector<int64_t>& mutable_ints() { return Mut().ints; }
  std::vector<uint8_t>& mutable_bools() { return Mut().bools; }
  std::vector<std::string>& mutable_strings() { return Mut().strings; }

  /// Installs a validity bitmap (length must equal column length).
  Status SetValidity(Bitmap validity);
  const Bitmap& validity() const { return buf_->validity; }


  /// Dense vector of the non-null numeric values (drops nulls) — the common
  /// hand-off from engine storage to the stats substrate.
  std::vector<double> NonNullDoubles() const;

 private:
  /// The shared storage. Only the vector of the column's type is used.
  struct Buffer {
    std::atomic<uint32_t> refs{1};
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<uint8_t> bools;
    std::vector<std::string> strings;
    Bitmap validity;  // empty => all valid
  };

  /// The buffer, made private to this column first if it is shared.
  Buffer& Mut();
  void EnsureValidity();
  static Buffer* Retain(Buffer* b);
  static void Release(Buffer* b);

  DataType type_;
  size_t length_ = 0;
  Buffer* buf_;  // never null
};

}  // namespace mip::engine

#endif  // MIP_ENGINE_COLUMN_H_
