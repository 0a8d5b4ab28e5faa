#include "engine/column.h"

#include <bit>
#include <cmath>
#include <limits>
#include <utility>

namespace mip::engine {

// Reference counting. The uniqueness test in Mut() loads the count with the
// (sequentially consistent) ordering every Release() writes it with, so all
// reads another copy made of a buffer happen before this copy writes it in
// place.
Column::Buffer* Column::Retain(Buffer* b) {
  b->refs.fetch_add(1);
  return b;
}

void Column::Release(Buffer* b) {
  if (b->refs.fetch_sub(1) == 1) delete b;
}

// Fresh and moved-from columns hold one process-wide empty buffer. It keeps
// a reference of its own that is never dropped, so it always looks shared
// and the first mutation of such a column allocates.
Column::Column(DataType type) : type_(type) {
  static Buffer* const empty = new Buffer();
  buf_ = Retain(empty);
}

Column::Column(const Column& other) noexcept
    : type_(other.type_), length_(other.length_), buf_(Retain(other.buf_)) {}

Column::Column(Column&& other) noexcept : Column(other.type_) {
  std::swap(length_, other.length_);
  std::swap(buf_, other.buf_);
}

// Copy and move assignment both: `other` arrives as a copy or a move.
Column& Column::operator=(Column other) noexcept {
  std::swap(type_, other.type_);
  std::swap(length_, other.length_);
  std::swap(buf_, other.buf_);
  return *this;
}

Column::~Column() { Release(buf_); }

Column::Buffer& Column::Mut() {
  if (buf_->refs.load() != 1) {
    Buffer* copy = new Buffer();
    copy->ints = buf_->ints;
    copy->doubles = buf_->doubles;
    copy->bools = buf_->bools;
    copy->strings = buf_->strings;
    copy->validity = buf_->validity;
    Release(buf_);
    buf_ = copy;
  }
  return *buf_;
}

Column Column::FromDoubles(std::vector<double> values) {
  Column c(DataType::kFloat64);
  c.length_ = values.size();
  c.Mut().doubles = std::move(values);
  return c;
}

Column Column::FromInts(std::vector<int64_t> values) {
  Column c(DataType::kInt64);
  c.length_ = values.size();
  c.Mut().ints = std::move(values);
  return c;
}

Column Column::FromBools(std::vector<uint8_t> values) {
  Column c(DataType::kBool);
  c.length_ = values.size();
  c.Mut().bools = std::move(values);
  return c;
}

Column Column::FromStrings(std::vector<std::string> values) {
  Column c(DataType::kString);
  c.length_ = values.size();
  c.Mut().strings = std::move(values);
  return c;
}

double Column::AsDoubleAt(size_t i) const {
  if (!IsValid(i)) return std::numeric_limits<double>::quiet_NaN();
  switch (type_) {
    case DataType::kBool:
      return buf_->bools[i] ? 1.0 : 0.0;
    case DataType::kInt64:
      return static_cast<double>(buf_->ints[i]);
    case DataType::kFloat64:
      return buf_->doubles[i];
    case DataType::kString:
      return std::numeric_limits<double>::quiet_NaN();
  }
  return std::numeric_limits<double>::quiet_NaN();
}

Value Column::ValueAt(size_t i) const {
  if (!IsValid(i)) return Value::Null();
  switch (type_) {
    case DataType::kBool:
      return Value::Bool(buf_->bools[i] != 0);
    case DataType::kInt64:
      return Value::Int(buf_->ints[i]);
    case DataType::kFloat64:
      return Value::Double(buf_->doubles[i]);
    case DataType::kString:
      return Value::String(buf_->strings[i]);
  }
  return Value::Null();
}

void Column::EnsureValidity() {
  if (!has_validity()) Mut().validity = Bitmap(length_, true);
}

void Column::AppendNull() {
  EnsureValidity();
  Buffer& b = Mut();
  switch (type_) {
    case DataType::kBool:
      b.bools.push_back(0);
      break;
    case DataType::kInt64:
      b.ints.push_back(0);
      break;
    case DataType::kFloat64:
      b.doubles.push_back(std::numeric_limits<double>::quiet_NaN());
      break;
    case DataType::kString:
      b.strings.emplace_back();
      break;
  }
  b.validity.Append(false);
  ++length_;
}

void Column::AppendInt(int64_t v) {
  Buffer& b = Mut();
  b.ints.push_back(v);
  if (has_validity()) b.validity.Append(true);
  ++length_;
}

void Column::AppendDouble(double v) {
  Buffer& b = Mut();
  b.doubles.push_back(v);
  if (has_validity()) b.validity.Append(true);
  ++length_;
}

void Column::AppendBool(bool v) {
  Buffer& b = Mut();
  b.bools.push_back(v ? 1 : 0);
  if (has_validity()) b.validity.Append(true);
  ++length_;
}

void Column::AppendString(std::string v) {
  Buffer& b = Mut();
  b.strings.push_back(std::move(v));
  if (has_validity()) b.validity.Append(true);
  ++length_;
}

Status Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case DataType::kBool:
      AppendBool(v.AsBool());
      return Status::OK();
    case DataType::kInt64:
      if (v.kind() == Value::Kind::kString) {
        return Status::TypeError("cannot append string to bigint column");
      }
      AppendInt(v.AsInt());
      return Status::OK();
    case DataType::kFloat64:
      if (v.kind() == Value::Kind::kString) {
        return Status::TypeError("cannot append string to double column");
      }
      AppendDouble(v.AsDouble());
      return Status::OK();
    case DataType::kString:
      if (v.kind() != Value::Kind::kString) {
        AppendString(v.ToString());
      } else {
        AppendString(v.string_value());
      }
      return Status::OK();
  }
  return Status::Internal("unknown column type");
}

void Column::Reserve(size_t n) {
  Buffer& b = Mut();
  switch (type_) {
    case DataType::kBool:
      b.bools.reserve(n);
      break;
    case DataType::kInt64:
      b.ints.reserve(n);
      break;
    case DataType::kFloat64:
      b.doubles.reserve(n);
      break;
    case DataType::kString:
      b.strings.reserve(n);
      break;
  }
}

void Column::AppendFrom(const Column& other) {
  // `other` may be this column or share its buffer: hold a reference to its
  // rows (and read only its first length() of them) while Mut() detaches.
  const Column src = other;
  const Buffer& o = *src.buf_;
  const size_t n = src.length_;
  Buffer& b = Mut();
  auto append = [n](auto& dst, const auto& from) {
    dst.insert(dst.end(), from.begin(), from.begin() + n);
  };
  switch (type_) {
    case DataType::kBool:
      append(b.bools, o.bools);
      break;
    case DataType::kInt64:
      append(b.ints, o.ints);
      break;
    case DataType::kFloat64:
      append(b.doubles, o.doubles);
      break;
    case DataType::kString:
      append(b.strings, o.strings);
      break;
  }
  AdoptAppendedRows(o.validity);
}

void Column::AppendTake(const Column& source,
                        const std::vector<int64_t>& indices) {
  // Typed gather, no per-cell Value boxing; AdoptAppendedRows canonicalizes
  // the null slots afterwards.
  // `source` may share this column's buffer; the local copy keeps its rows
  // alive while Mut() detaches.
  const Column src_col = source;
  const Buffer& src = *src_col.buf_;
  Buffer& b = Mut();
  auto gather = [&indices](auto& dst, const auto& from) {
    for (int64_t i : indices) dst.push_back(from[static_cast<size_t>(i)]);
  };
  switch (type_) {
    case DataType::kBool:
      gather(b.bools, src.bools);
      break;
    case DataType::kInt64:
      gather(b.ints, src.ints);
      break;
    case DataType::kFloat64:
      gather(b.doubles, src.doubles);
      break;
    case DataType::kString:
      gather(b.strings, src.strings);
      break;
  }
  // The gathered rows carry a bitmap only if one of them is null.
  Bitmap taken;
  if (src_col.has_validity()) {
    Bitmap bits(indices.size(), true);
    bool any_null = false;
    for (size_t k = 0; k < indices.size(); ++k) {
      if (!src.validity.Get(static_cast<size_t>(indices[k]))) {
        bits.Set(k, false);
        any_null = true;
      }
    }
    if (any_null) taken = std::move(bits);
  }
  AdoptAppendedRows(taken);
}

void Column::AdoptAppendedRows(const Bitmap& validity) {
  const size_t base = length_;
  Buffer& b = Mut();
  size_t stored = 0;
  switch (type_) {
    case DataType::kBool:
      stored = b.bools.size();
      break;
    case DataType::kInt64:
      stored = b.ints.size();
      break;
    case DataType::kFloat64:
      stored = b.doubles.size();
      break;
    case DataType::kString:
      stored = b.strings.size();
      break;
  }
  const size_t n = stored - base;
  // The bitmap stays absent until an actual null arrives (the branch-free
  // fast-path invariant): materialize only when either side carries one.
  if (validity.length() > 0) {
    // Null storage slots are re-canonicalized (NaN / 0 / ""), exactly what
    // the boxed AppendNull path writes, so serialized bytes never depend on
    // what a source held under its nulls. The null bits are walked a word
    // at a time; bits past the bitmap's length are zero, so only the last
    // word needs a mask.
    const std::vector<uint64_t>& words = validity.words();
    for (size_t w = 0; w < words.size(); ++w) {
      uint64_t nulls = ~words[w];
      if (w + 1 == words.size() && n % 64 != 0) {
        nulls &= (1ull << (n % 64)) - 1;
      }
      for (; nulls != 0; nulls &= nulls - 1) {
        const size_t i =
            base + w * 64 + static_cast<size_t>(std::countr_zero(nulls));
        switch (type_) {
          case DataType::kBool:
            b.bools[i] = 0;
            break;
          case DataType::kInt64:
            b.ints[i] = 0;
            break;
          case DataType::kFloat64:
            b.doubles[i] = std::numeric_limits<double>::quiet_NaN();
            break;
          case DataType::kString:
            b.strings[i].clear();
            break;
        }
      }
    }
    EnsureValidity();  // length_ is still the pre-append length here
    b.validity.AppendBits(validity);
  } else if (has_validity()) {
    b.validity.AppendBits(Bitmap(n, true));
  }
  length_ = stored;
}

Column Column::Take(const std::vector<int64_t>& indices) const {
  Column out(type_);
  out.Reserve(indices.size());
  out.AppendTake(*this, indices);
  return out;
}

Column Column::Slice(size_t offset, size_t count) const {
  std::vector<int64_t> idx;
  idx.reserve(count);
  for (size_t i = offset; i < offset + count && i < length_; ++i) {
    idx.push_back(static_cast<int64_t>(i));
  }
  return Take(idx);
}

Status Column::SetValidity(Bitmap validity) {
  if (validity.length() != length_) {
    return Status::InvalidArgument("validity length mismatch");
  }
  Mut().validity = std::move(validity);
  return Status::OK();
}

std::vector<double> Column::NonNullDoubles() const {
  std::vector<double> out;
  out.reserve(length_);
  for (size_t i = 0; i < length_; ++i) {
    if (!IsValid(i)) continue;
    const double v = AsDoubleAt(i);
    if (!std::isnan(v)) out.push_back(v);
  }
  return out;
}

}  // namespace mip::engine
