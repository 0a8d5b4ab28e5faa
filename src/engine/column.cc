#include "engine/column.h"

#include <bit>
#include <cmath>
#include <limits>

namespace mip::engine {

Column Column::FromDoubles(std::vector<double> values) {
  Column c(DataType::kFloat64);
  c.length_ = values.size();
  c.doubles_ = std::move(values);
  return c;
}

Column Column::FromInts(std::vector<int64_t> values) {
  Column c(DataType::kInt64);
  c.length_ = values.size();
  c.ints_ = std::move(values);
  return c;
}

Column Column::FromBools(std::vector<uint8_t> values) {
  Column c(DataType::kBool);
  c.length_ = values.size();
  c.bools_ = std::move(values);
  return c;
}

Column Column::FromStrings(std::vector<std::string> values) {
  Column c(DataType::kString);
  c.length_ = values.size();
  c.strings_ = std::move(values);
  return c;
}

double Column::AsDoubleAt(size_t i) const {
  if (!IsValid(i)) return std::numeric_limits<double>::quiet_NaN();
  switch (type_) {
    case DataType::kBool:
      return bools_[i] ? 1.0 : 0.0;
    case DataType::kInt64:
      return static_cast<double>(ints_[i]);
    case DataType::kFloat64:
      return doubles_[i];
    case DataType::kString:
      return std::numeric_limits<double>::quiet_NaN();
  }
  return std::numeric_limits<double>::quiet_NaN();
}

Value Column::ValueAt(size_t i) const {
  if (!IsValid(i)) return Value::Null();
  switch (type_) {
    case DataType::kBool:
      return Value::Bool(bools_[i] != 0);
    case DataType::kInt64:
      return Value::Int(ints_[i]);
    case DataType::kFloat64:
      return Value::Double(doubles_[i]);
    case DataType::kString:
      return Value::String(strings_[i]);
  }
  return Value::Null();
}

void Column::EnsureValidity() {
  if (!has_validity()) validity_ = Bitmap(length_, true);
}

void Column::AppendNull() {
  EnsureValidity();
  switch (type_) {
    case DataType::kBool:
      bools_.push_back(0);
      break;
    case DataType::kInt64:
      ints_.push_back(0);
      break;
    case DataType::kFloat64:
      doubles_.push_back(std::numeric_limits<double>::quiet_NaN());
      break;
    case DataType::kString:
      strings_.emplace_back();
      break;
  }
  validity_.Append(false);
  ++length_;
}

void Column::AppendInt(int64_t v) {
  ints_.push_back(v);
  if (has_validity()) validity_.Append(true);
  ++length_;
}

void Column::AppendDouble(double v) {
  doubles_.push_back(v);
  if (has_validity()) validity_.Append(true);
  ++length_;
}

void Column::AppendBool(bool v) {
  bools_.push_back(v ? 1 : 0);
  if (has_validity()) validity_.Append(true);
  ++length_;
}

void Column::AppendString(std::string v) {
  strings_.push_back(std::move(v));
  if (has_validity()) validity_.Append(true);
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
  switch (type_) {
    case DataType::kBool:
      bools_.reserve(n);
      break;
    case DataType::kInt64:
      ints_.reserve(n);
      break;
    case DataType::kFloat64:
      doubles_.reserve(n);
      break;
    case DataType::kString:
      strings_.reserve(n);
      break;
  }
}

void Column::AppendFrom(const Column& other) {
  switch (type_) {
    case DataType::kBool:
      bools_.insert(bools_.end(), other.bools_.begin(), other.bools_.end());
      break;
    case DataType::kInt64:
      ints_.insert(ints_.end(), other.ints_.begin(), other.ints_.end());
      break;
    case DataType::kFloat64:
      doubles_.insert(doubles_.end(), other.doubles_.begin(),
                      other.doubles_.end());
      break;
    case DataType::kString:
      strings_.insert(strings_.end(), other.strings_.begin(),
                      other.strings_.end());
      break;
  }
  AdoptAppendedRows(other.validity_);
}

void Column::AppendTake(const Column& source,
                        const std::vector<int64_t>& indices) {
  // Typed gather, no per-cell Value boxing; AdoptAppendedRows canonicalizes
  // the null slots afterwards.
  auto gather = [&indices](auto& dst, const auto& src) {
    for (int64_t i : indices) dst.push_back(src[static_cast<size_t>(i)]);
  };
  switch (type_) {
    case DataType::kBool:
      gather(bools_, source.bools_);
      break;
    case DataType::kInt64:
      gather(ints_, source.ints_);
      break;
    case DataType::kFloat64:
      gather(doubles_, source.doubles_);
      break;
    case DataType::kString:
      gather(strings_, source.strings_);
      break;
  }
  // The gathered rows carry a bitmap only if one of them is null.
  Bitmap taken;
  if (source.has_validity()) {
    Bitmap bits(indices.size(), true);
    bool any_null = false;
    for (size_t k = 0; k < indices.size(); ++k) {
      if (!source.validity_.Get(static_cast<size_t>(indices[k]))) {
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
  size_t stored = 0;
  switch (type_) {
    case DataType::kBool:
      stored = bools_.size();
      break;
    case DataType::kInt64:
      stored = ints_.size();
      break;
    case DataType::kFloat64:
      stored = doubles_.size();
      break;
    case DataType::kString:
      stored = strings_.size();
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
            bools_[i] = 0;
            break;
          case DataType::kInt64:
            ints_[i] = 0;
            break;
          case DataType::kFloat64:
            doubles_[i] = std::numeric_limits<double>::quiet_NaN();
            break;
          case DataType::kString:
            strings_[i].clear();
            break;
        }
      }
    }
    EnsureValidity();  // length_ is still the pre-append length here
    validity_.AppendBits(validity);
  } else if (has_validity()) {
    validity_.AppendBits(Bitmap(n, true));
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
  validity_ = std::move(validity);
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
