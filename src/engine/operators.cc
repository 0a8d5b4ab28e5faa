#include "engine/operators.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "engine/vectorized.h"

namespace mip::engine {

namespace {

/// Partial state for one aggregate output.
///
/// Aggregation is morsel-parallel: each morsel streams its rows into a
/// private AggState (Accumulate), then the per-morsel partials are merged
/// (Merge) in morsel order. Morsel boundaries depend only on
/// ExecContext::morsel_size, so the merge tree — and therefore every last
/// bit of the result — is identical at any thread count.
///
/// Each function's accumulator touches only the fields its Finish and
/// Merge read: COUNT `count`; SUM `count` and `sum`; MIN/MAX `count` and
/// one extreme; AVG/VAR/STDDEV `count`, `mean` and `m2` (Welford);
/// COUNT(DISTINCT) `count` and `distinct`.
struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double m2 = 0.0;
  // Numeric extremes through the double view; min_value/max_value box the
  // row that set them (the only home of string extremes).
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  Value min_value;
  Value max_value;
  // Only populated for COUNT(DISTINCT): the typed keys (AppendKeyBytes) of
  // the distinct values seen.
  std::unordered_set<std::string> distinct;

  /// Merges `o` into this state, where `o` accumulated a later row range.
  /// Must be applied in morsel order: min/max ties and the variance combine
  /// assume `this` precedes `o`.
  void Merge(const AggState& o) {
    if (o.count == 0) return;
    if (count == 0) {
      *this = o;
      return;
    }
    distinct.insert(o.distinct.begin(), o.distinct.end());
    // Strict comparisons: on ties the earlier morsel wins, matching the
    // serial stream's first-occurrence behavior.
    if (IsString(o.min_value)
            ? min_value.is_null() ||
                  o.min_value.string_value() < min_value.string_value()
            : o.min < min) {
      min = o.min;
      min_value = o.min_value;
    }
    if (IsString(o.max_value)
            ? max_value.is_null() ||
                  o.max_value.string_value() > max_value.string_value()
            : o.max > max) {
      max = o.max;
      max_value = o.max_value;
    }
    // Chan et al. pairwise combine of (count, mean, m2).
    const double na = static_cast<double>(count);
    const double nb = static_cast<double>(o.count);
    const double nt = na + nb;
    const double delta = o.mean - mean;
    mean += delta * (nb / nt);
    m2 += o.m2 + delta * delta * na * (nb / nt);
    sum += o.sum;
    count += o.count;
  }

  Value Finish(AggFunc func, int64_t group_rows) const {
    switch (func) {
      case AggFunc::kCountStar:
        return Value::Int(group_rows);
      case AggFunc::kCount:
        return Value::Int(count);
      case AggFunc::kCountDistinct:
        return Value::Int(static_cast<int64_t>(distinct.size()));
      case AggFunc::kSum:
        return count > 0 ? CanonicalDouble(sum) : Value::Null();
      case AggFunc::kAvg:
        return count > 0 ? CanonicalDouble(mean) : Value::Null();
      case AggFunc::kMin:
        return min_value;
      case AggFunc::kMax:
        return max_value;
      case AggFunc::kVarSamp:
        return count > 1
                   ? CanonicalDouble(m2 / static_cast<double>(count - 1))
                   : Value::Null();
      case AggFunc::kStddevSamp:
        return count > 1
                   ? CanonicalDouble(
                         std::sqrt(m2 / static_cast<double>(count - 1)))
                   : Value::Null();
    }
    return Value::Null();
  }

 private:
  /// `v` with every NaN folded into one quiet NaN: which NaN survives an
  /// add of +inf, -inf and a stored NaN is up to code generation.
  static Value CanonicalDouble(double v) {
    return Value::Double(std::isnan(v) ? std::numeric_limits<double>::quiet_NaN()
                                       : v);
  }
  static bool IsString(const Value& v) {
    return v.kind() == Value::Kind::kString;
  }
};

/// Normalized numeric key bits: -0.0 folds into +0.0 and every NaN into
/// one NaN, so values the comparison kernels call equal hash equal.
uint64_t NumericKeyBits(double v) {
  if (v == 0.0) v = 0.0;
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Grouping key bits of valid row `r` of a numeric column: int64 and bool
/// values exactly, doubles through NumericKeyBits.
uint64_t NumericCellBits(const Column& col, size_t r) {
  switch (col.type()) {
    case DataType::kFloat64:
      return NumericKeyBits(col.DoubleAt(r));
    case DataType::kInt64:
      return static_cast<uint64_t>(col.IntAt(r));
    default:
      return col.BoolAt(r) ? 1 : 0;
  }
}

/// Appends the typed key of row `r` of `col`: a null/valid byte, then 8
/// bytes of NumericCellBits or a u64 length and the string bytes. Keys of
/// one column list are equal iff every cell is equal as a grouping key.
void AppendKeyBytes(const Column& col, size_t r, std::string* key) {
  if (!col.IsValid(r)) {
    key->push_back('\0');
    return;
  }
  key->push_back('\1');
  if (col.type() == DataType::kString) {
    const std::string& s = col.StringAt(r);
    const uint64_t len = s.size();
    key->append(reinterpret_cast<const char*>(&len), sizeof(len));
    key->append(s);
    return;
  }
  const uint64_t bits = NumericCellBits(col, r);
  key->append(reinterpret_cast<const char*>(&bits), sizeof(bits));
}

/// Calls `fn(r)` for every valid row r of [begin, end) of `col`, in row
/// order.
template <typename Fn>
inline void ForEachValid(const Column& col, size_t begin, size_t end, Fn fn) {
  if (!col.has_validity()) {
    for (size_t r = begin; r < end; ++r) fn(r);
    return;
  }
  const Bitmap& valid = col.validity();
  for (size_t r = begin; r < end; ++r) {
    if (valid.Get(r)) fn(r);
  }
}

/// The numeric accumulators over one column view: `x_at(r)` is row r's
/// double view (bool 0/1, int64 converted), `box_at(r)` its typed Value,
/// built only when the row becomes an extreme. NaN never compares below
/// or above an extreme, so it never becomes one, and an int64 compares
/// through its double view, so beyond 2^53 the first occurrence of a tied
/// double wins.
template <typename StateAt, typename XAt, typename BoxAt>
void AccumulateNumeric(const Column& col, AggFunc func, size_t begin,
                       size_t end, StateAt state_at, XAt x_at, BoxAt box_at) {
  switch (func) {
    case AggFunc::kSum:
      ForEachValid(col, begin, end, [&](size_t r) {
        AggState* s = state_at(r);
        ++s->count;
        s->sum += x_at(r);
      });
      return;
    case AggFunc::kMin:
      ForEachValid(col, begin, end, [&](size_t r) {
        AggState* s = state_at(r);
        ++s->count;
        const double x = x_at(r);
        if (x < s->min) {
          s->min = x;
          s->min_value = box_at(r);
        }
      });
      return;
    case AggFunc::kMax:
      ForEachValid(col, begin, end, [&](size_t r) {
        AggState* s = state_at(r);
        ++s->count;
        const double x = x_at(r);
        if (x > s->max) {
          s->max = x;
          s->max_value = box_at(r);
        }
      });
      return;
    default:  // AVG, VAR_SAMP, STDDEV_SAMP: Welford's update
      ForEachValid(col, begin, end, [&](size_t r) {
        AggState* s = state_at(r);
        ++s->count;
        const double x = x_at(r);
        const double delta = x - s->mean;
        s->mean += delta / static_cast<double>(s->count);
        s->m2 += delta * (x - s->mean);
      });
      return;
  }
}

/// Streams the valid rows [begin, end) of `col` into the states
/// `state_at(r)` names, each in row order, through one loop chosen by
/// `func` and the column type.
template <typename StateAt>
void Accumulate(const Column& col, AggFunc func, size_t begin, size_t end,
                StateAt state_at) {
  switch (func) {
    case AggFunc::kCountStar:  // counted from the group's rows
      return;
    case AggFunc::kCount:
      ForEachValid(col, begin, end, [&](size_t r) { ++state_at(r)->count; });
      return;
    case AggFunc::kCountDistinct:
      ForEachValid(col, begin, end, [&](size_t r) {
        std::string key;
        AppendKeyBytes(col, r, &key);
        AggState* s = state_at(r);
        ++s->count;
        s->distinct.insert(std::move(key));
      });
      return;
    default:
      break;
  }
  switch (col.type()) {
    case DataType::kFloat64: {
      const double* v = col.doubles().data();
      AccumulateNumeric(
          col, func, begin, end, state_at, [v](size_t r) { return v[r]; },
          [v](size_t r) { return Value::Double(v[r]); });
      return;
    }
    case DataType::kInt64: {
      const int64_t* v = col.ints().data();
      AccumulateNumeric(
          col, func, begin, end, state_at,
          [v](size_t r) { return static_cast<double>(v[r]); },
          [v](size_t r) { return Value::Int(v[r]); });
      return;
    }
    case DataType::kBool: {
      const uint8_t* v = col.bools().data();
      AccumulateNumeric(
          col, func, begin, end, state_at,
          [v](size_t r) { return v[r] != 0 ? 1.0 : 0.0; },
          [v](size_t r) { return Value::Bool(v[r] != 0); });
      return;
    }
    case DataType::kString:
      break;
  }
  // Strings: MIN/MAX compare the bytes; every other function only counts.
  const std::vector<std::string>& v = col.strings();
  switch (func) {
    case AggFunc::kMin:
      ForEachValid(col, begin, end, [&](size_t r) {
        AggState* s = state_at(r);
        ++s->count;
        const std::string_view x = v[r];
        if (s->min_value.is_null() ||
            x < std::string_view(s->min_value.string_value())) {
          s->min_value = Value::String(v[r]);
        }
      });
      return;
    case AggFunc::kMax:
      ForEachValid(col, begin, end, [&](size_t r) {
        AggState* s = state_at(r);
        ++s->count;
        const std::string_view x = v[r];
        if (s->max_value.is_null() ||
            x > std::string_view(s->max_value.string_value())) {
          s->max_value = Value::String(v[r]);
        }
      });
      return;
    default:
      ForEachValid(col, begin, end, [&](size_t r) { ++state_at(r)->count; });
      return;
  }
}

DataType AggOutputType(const AggregateSpec& spec) {
  switch (spec.func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
    case AggFunc::kCountDistinct:
      return DataType::kInt64;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return spec.arg != nullptr ? spec.arg->result_type
                                 : DataType::kFloat64;
    default:
      return DataType::kFloat64;
  }
}

/// One group of a hash grouping: its first row, its row count and one
/// state per aggregate.
struct Group {
  size_t first_row = 0;
  int64_t rows = 0;
  std::vector<AggState> states;
};

/// Hash grouping of rows [0, n) by `key_at(r)`. Each morsel builds a
/// private table in first-seen order, then calls `add(&groups, group_of,
/// begin, end)` once, where group_of[r - begin] indexes row r's group in
/// that morsel's `groups`. The tables merge in morsel order. A key's first
/// insertion comes from the lowest morsel containing it, and morsels scan
/// disjoint ascending row ranges, so the group order, every first_row and
/// every state (each morsel adds its rows in row order; partial states
/// merge in morsel order) equal the serial whole-table scan's at any
/// thread count.
template <typename KeyAt, typename AddFn>
std::vector<Group> HashGroups(size_t n, size_t num_states,
                              const ExecContext& ctx, KeyAt key_at,
                              AddFn add) {
  using Key = decltype(key_at(size_t{0}));
  struct Partial {
    std::unordered_map<Key, size_t> index;
    std::vector<Key> keys;
    std::vector<Group> groups;
  };
  std::vector<Partial> parts(ctx.NumMorsels(n));
  ctx.ForEachMorsel(n, [&](size_t morsel, size_t begin, size_t end) {
    Partial& part = parts[morsel];
    std::vector<size_t> group_of(end - begin);
    for (size_t r = begin; r < end; ++r) {
      Key key = key_at(r);
      auto [it, inserted] = part.index.try_emplace(key, part.groups.size());
      if (inserted) {
        part.keys.push_back(std::move(key));
        Group g;
        g.first_row = r;
        g.states.resize(num_states);
        part.groups.push_back(std::move(g));
      }
      ++part.groups[it->second].rows;
      group_of[r - begin] = it->second;
    }
    add(&part.groups, group_of.data(), begin, end);
  });
  std::unordered_map<Key, size_t> index;
  std::vector<Group> groups;
  for (Partial& part : parts) {
    for (size_t gi = 0; gi < part.groups.size(); ++gi) {
      auto [it, inserted] =
          index.try_emplace(std::move(part.keys[gi]), groups.size());
      if (inserted) {
        groups.push_back(std::move(part.groups[gi]));
        continue;
      }
      Group& g = groups[it->second];
      const Group& pg = part.groups[gi];
      g.rows += pg.rows;
      for (size_t i = 0; i < num_states; ++i) {
        g.states[i].Merge(pg.states[i]);
      }
    }
  }
  return groups;
}

/// Groups the rows of `key_cols` (equal length) by their typed key: one
/// string column hashes its bytes, one numeric column its NumericCellBits,
/// and several columns their packed AppendKeyBytes. NULL is a key of its
/// own, distinct from every value.
template <typename AddFn>
std::vector<Group> GroupRows(const std::vector<Column>& key_cols, size_t n,
                             size_t num_states, const ExecContext& ctx,
                             AddFn add) {
  if (key_cols.size() == 1 && key_cols[0].type() == DataType::kString) {
    const Column& c = key_cols[0];
    auto key_at = [&c](size_t r) -> std::optional<std::string_view> {
      if (!c.IsValid(r)) return std::nullopt;
      return std::string_view(c.StringAt(r));
    };
    return HashGroups(n, num_states, ctx, key_at, add);
  }
  if (key_cols.size() == 1) {
    const Column& c = key_cols[0];
    auto key_at = [&c](size_t r) -> std::optional<uint64_t> {
      if (!c.IsValid(r)) return std::nullopt;
      return NumericCellBits(c, r);
    };
    return HashGroups(n, num_states, ctx, key_at, add);
  }
  auto key_at = [&key_cols](size_t r) {
    std::string key;
    for (const Column& c : key_cols) AppendKeyBytes(c, r, &key);
    return key;
  };
  return HashGroups(n, num_states, ctx, key_at, add);
}

}  // namespace

Result<Table> Filter(const Table& table, const Expr& predicate,
                     const FunctionRegistry* registry,
                     const ExecContext* exec) {
  MIP_ASSIGN_OR_RETURN(std::vector<int64_t> sel,
                       EvalPredicate(predicate, table, registry, exec));
  return table.Take(sel);
}

Result<Table> Project(const Table& table, const std::vector<ExprPtr>& exprs,
                      const std::vector<std::string>& names,
                      const FunctionRegistry* registry,
                      const ExecContext* exec) {
  if (exprs.size() != names.size()) {
    return Status::InvalidArgument("project exprs/names size mismatch");
  }
  Schema schema;
  std::vector<Column> columns;
  for (size_t i = 0; i < exprs.size(); ++i) {
    MIP_ASSIGN_OR_RETURN(Column col,
                         EvalVectorized(*exprs[i], table, registry, exec));
    MIP_RETURN_NOT_OK(schema.AddField(Field{names[i], col.type()}));
    columns.push_back(std::move(col));
  }
  return Table::Make(std::move(schema), std::move(columns));
}

Result<Table> AggregateAll(const Table& table,
                           const std::vector<AggregateSpec>& aggs,
                           const FunctionRegistry* registry,
                           const ExecContext* exec) {
  const ExecContext& ctx = ExecContext::Resolve(exec);
  std::vector<Column> arg_cols;
  arg_cols.reserve(aggs.size());
  for (const AggregateSpec& a : aggs) {
    if (a.arg != nullptr) {
      MIP_ASSIGN_OR_RETURN(Column c,
                           EvalVectorized(*a.arg, table, registry, &ctx));
      arg_cols.push_back(std::move(c));
    } else {
      arg_cols.emplace_back(DataType::kFloat64);
    }
  }
  const size_t n = table.num_rows();
  // Per-morsel partial states, merged in morsel order below.
  std::vector<std::vector<AggState>> partials(
      ctx.NumMorsels(n), std::vector<AggState>(aggs.size()));
  ctx.ForEachMorsel(n, [&](size_t morsel, size_t begin, size_t end) {
    std::vector<AggState>& local = partials[morsel];
    for (size_t i = 0; i < aggs.size(); ++i) {
      if (aggs[i].arg == nullptr) continue;
      AggState* state = &local[i];
      Accumulate(arg_cols[i], aggs[i].func, begin, end,
                 [state](size_t) { return state; });
    }
  });
  std::vector<AggState> states(aggs.size());
  for (const std::vector<AggState>& local : partials) {
    for (size_t i = 0; i < aggs.size(); ++i) {
      states[i].Merge(local[i]);
    }
  }
  Schema schema;
  std::vector<Column> columns;
  for (size_t i = 0; i < aggs.size(); ++i) {
    const DataType type = AggOutputType(aggs[i]);
    MIP_RETURN_NOT_OK(schema.AddField(Field{aggs[i].output_name, type}));
    Column col(type);
    MIP_RETURN_NOT_OK(col.AppendValue(states[i].Finish(
        aggs[i].func, static_cast<int64_t>(table.num_rows()))));
    columns.push_back(std::move(col));
  }
  return Table::Make(std::move(schema), std::move(columns));
}

Result<Table> GroupByAggregate(const Table& table,
                               const std::vector<ExprPtr>& keys,
                               const std::vector<std::string>& key_names,
                               const std::vector<AggregateSpec>& aggs,
                               const FunctionRegistry* registry,
                               const ExecContext* exec) {
  if (keys.empty()) return AggregateAll(table, aggs, registry, exec);
  if (keys.size() != key_names.size()) {
    return Status::InvalidArgument("group keys/names size mismatch");
  }
  const ExecContext& ctx = ExecContext::Resolve(exec);

  std::vector<Column> key_cols;
  for (const ExprPtr& k : keys) {
    MIP_ASSIGN_OR_RETURN(Column c, EvalVectorized(*k, table, registry, &ctx));
    key_cols.push_back(std::move(c));
  }
  std::vector<Column> arg_cols;
  for (const AggregateSpec& a : aggs) {
    if (a.arg != nullptr) {
      MIP_ASSIGN_OR_RETURN(Column c,
                           EvalVectorized(*a.arg, table, registry, &ctx));
      arg_cols.push_back(std::move(c));
    } else {
      arg_cols.emplace_back(DataType::kFloat64);
    }
  }

  const std::vector<Group> groups = GroupRows(
      key_cols, table.num_rows(), aggs.size(), ctx,
      [&](std::vector<Group>* part, const size_t* group_of, size_t begin,
          size_t end) {
        Group* g = part->data();
        for (size_t i = 0; i < aggs.size(); ++i) {
          if (aggs[i].arg == nullptr) continue;
          Accumulate(arg_cols[i], aggs[i].func, begin, end,
                     [g, group_of, begin, i](size_t r) {
                       return &g[group_of[r - begin]].states[i];
                     });
        }
      });

  Schema schema;
  std::vector<Column> out_cols;
  for (size_t i = 0; i < keys.size(); ++i) {
    MIP_RETURN_NOT_OK(
        schema.AddField(Field{key_names[i], key_cols[i].type()}));
    Column col(key_cols[i].type());
    for (const Group& g : groups) {
      MIP_RETURN_NOT_OK(col.AppendValue(key_cols[i].ValueAt(g.first_row)));
    }
    out_cols.push_back(std::move(col));
  }
  for (size_t i = 0; i < aggs.size(); ++i) {
    const DataType type = AggOutputType(aggs[i]);
    MIP_RETURN_NOT_OK(schema.AddField(Field{aggs[i].output_name, type}));
    Column col(type);
    for (const Group& g : groups) {
      MIP_RETURN_NOT_OK(
          col.AppendValue(g.states[i].Finish(aggs[i].func, g.rows)));
    }
    out_cols.push_back(std::move(col));
  }
  return Table::Make(std::move(schema), std::move(out_cols));
}

Table Distinct(const Table& table) {
  std::vector<Column> cols;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    cols.push_back(table.column(c));
  }
  const std::vector<Group> groups =
      GroupRows(cols, table.num_rows(), /*num_states=*/0,
                ExecContext::Serial(),
                [](std::vector<Group>*, const size_t*, size_t, size_t) {});
  std::vector<int64_t> keep;
  keep.reserve(groups.size());
  for (const Group& g : groups) {
    keep.push_back(static_cast<int64_t>(g.first_row));
  }
  return table.Take(keep);
}

Result<Table> SortBy(const Table& table, const std::vector<std::string>& keys,
                     const std::vector<bool>& ascending) {
  if (keys.size() != ascending.size()) {
    return Status::InvalidArgument("sort keys/direction size mismatch");
  }
  std::vector<const Column*> cols;
  for (const std::string& k : keys) {
    MIP_ASSIGN_OR_RETURN(const Column* c, table.ColumnByName(k));
    cols.push_back(c);
  }
  std::vector<int64_t> idx(table.num_rows());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int64_t>(i);

  auto compare_rows = [&](int64_t a, int64_t b) {
    for (size_t k = 0; k < cols.size(); ++k) {
      const Column& c = *cols[k];
      const bool av = c.IsValid(static_cast<size_t>(a));
      const bool bv = c.IsValid(static_cast<size_t>(b));
      if (!av && !bv) continue;
      if (!av) return false;  // NULLs last
      if (!bv) return true;
      int cmp = 0;
      if (c.type() == DataType::kString) {
        cmp = c.StringAt(static_cast<size_t>(a))
                  .compare(c.StringAt(static_cast<size_t>(b)));
      } else {
        const double x = c.AsDoubleAt(static_cast<size_t>(a));
        const double y = c.AsDoubleAt(static_cast<size_t>(b));
        cmp = x < y ? -1 : (x > y ? 1 : 0);
      }
      if (cmp != 0) return ascending[k] ? cmp < 0 : cmp > 0;
    }
    return false;
  };
  std::stable_sort(idx.begin(), idx.end(), compare_rows);
  return table.Take(idx);
}

namespace {

/// Typed gather with -1 => NULL (the left-join null-extension path; plain
/// Column::Take cannot express a missing row).
Column TakeWithNulls(const Column& col, const std::vector<int64_t>& idx) {
  Column out(col.type());
  out.Reserve(idx.size());
  for (int64_t i : idx) {
    if (i < 0 || !col.IsValid(static_cast<size_t>(i))) {
      out.AppendNull();
      continue;
    }
    const size_t r = static_cast<size_t>(i);
    switch (col.type()) {
      case DataType::kBool:
        out.AppendBool(col.BoolAt(r));
        break;
      case DataType::kInt64:
        out.AppendInt(col.IntAt(r));
        break;
      case DataType::kFloat64:
        out.AppendDouble(col.DoubleAt(r));
        break;
      case DataType::kString:
        out.AppendString(col.StringAt(r));
        break;
    }
  }
  return out;
}

}  // namespace

Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::string& left_key,
                       const std::string& right_key, JoinType type,
                       const ExecContext* exec) {
  MIP_ASSIGN_OR_RETURN(const Column* lkey, left.ColumnByName(left_key));
  MIP_ASSIGN_OR_RETURN(const Column* rkey, right.ColumnByName(right_key));
  const ExecContext& ctx = ExecContext::Resolve(exec);

  // Key semantics mirror the engine's comparison kernels: NULL keys never
  // match; two string keys compare as strings; numeric keys (bool/int/
  // double) compare through the double view, so 5 joins 5.0; a NaN key —
  // including every cell of a string column probed against a numeric one —
  // matches nothing. Build runs serially over the right side in row order,
  // so per-key match lists carry build-insertion order.
  const bool string_keys =
      lkey->type() == DataType::kString && rkey->type() == DataType::kString;
  const bool numeric_keys =
      lkey->type() != DataType::kString && rkey->type() != DataType::kString;
  std::unordered_map<std::string, std::vector<int64_t>> string_build;
  std::unordered_map<uint64_t, std::vector<int64_t>> numeric_build;
  if (string_keys) {
    string_build.reserve(right.num_rows());
    for (size_t r = 0; r < right.num_rows(); ++r) {
      if (!rkey->IsValid(r)) continue;
      string_build[rkey->StringAt(r)].push_back(static_cast<int64_t>(r));
    }
  } else if (numeric_keys) {
    numeric_build.reserve(right.num_rows());
    for (size_t r = 0; r < right.num_rows(); ++r) {
      if (!rkey->IsValid(r)) continue;
      const double v = rkey->AsDoubleAt(r);
      if (std::isnan(v)) continue;
      numeric_build[NumericKeyBits(v)].push_back(static_cast<int64_t>(r));
    }
  }
  // Mixed string/numeric keys build nothing: no probe can match.

  // Probe phase: morsel-parallel over the left side into per-morsel index
  // pairs, concatenated in morsel order — byte-identical to the serial
  // probe at any thread count (the determinism contract every vectorized
  // operator in this engine keeps).
  const size_t n = left.num_rows();
  const size_t num_morsels = ctx.NumMorsels(n);
  std::vector<std::vector<int64_t>> l_parts(num_morsels);
  std::vector<std::vector<int64_t>> r_parts(num_morsels);
  ctx.ForEachMorsel(n, [&](size_t morsel, size_t begin, size_t end) {
    std::vector<int64_t>& li = l_parts[morsel];
    std::vector<int64_t>& ri = r_parts[morsel];
    for (size_t l = begin; l < end; ++l) {
      const std::vector<int64_t>* matches = nullptr;
      if (lkey->IsValid(l)) {
        if (string_keys) {
          auto it = string_build.find(lkey->StringAt(l));
          if (it != string_build.end()) matches = &it->second;
        } else if (numeric_keys) {
          const double v = lkey->AsDoubleAt(l);
          if (!std::isnan(v)) {
            auto it = numeric_build.find(NumericKeyBits(v));
            if (it != numeric_build.end()) matches = &it->second;
          }
        }
      }
      if (matches != nullptr) {
        for (int64_t r : *matches) {
          li.push_back(static_cast<int64_t>(l));
          ri.push_back(r);
        }
      } else if (type == JoinType::kLeft) {
        li.push_back(static_cast<int64_t>(l));
        ri.push_back(-1);  // null-extended
      }
    }
  });
  size_t total = 0;
  for (const auto& part : l_parts) total += part.size();
  std::vector<int64_t> left_idx;
  std::vector<int64_t> right_idx;
  left_idx.reserve(total);
  right_idx.reserve(total);
  for (size_t m = 0; m < num_morsels; ++m) {
    left_idx.insert(left_idx.end(), l_parts[m].begin(), l_parts[m].end());
    right_idx.insert(right_idx.end(), r_parts[m].begin(), r_parts[m].end());
  }

  Schema schema;
  std::vector<Column> columns;
  for (size_t c = 0; c < left.num_columns(); ++c) {
    MIP_RETURN_NOT_OK(schema.AddField(left.schema().field(c)));
    columns.push_back(left.column(c).Take(left_idx));
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    Field f = right.schema().field(c);
    if (schema.FieldIndex(f.name) >= 0) f.name += "_r";
    MIP_RETURN_NOT_OK(schema.AddField(f));
    columns.push_back(TakeWithNulls(right.column(c), right_idx));
  }
  return Table::Make(std::move(schema), std::move(columns));
}

Table Limit(const Table& table, size_t limit, size_t offset) {
  return table.Slice(offset, limit);
}

}  // namespace mip::engine
