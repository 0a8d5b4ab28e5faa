#include "engine/vectorized.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/string_util.h"
#include "engine/function_registry.h"
#include "engine/row_interpreter.h"

namespace mip::engine {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Morsel-parallel range loop: body(begin, end) over [0, n). Bodies write
/// disjoint index ranges, so any thread count gives identical results.
void MorselLoop(const ExecContext& exec, size_t n,
                const std::function<void(size_t, size_t)>& body) {
  exec.ForEachMorsel(n, [&body](size_t, size_t begin, size_t end) {
    body(begin, end);
  });
}

// Dense double view of a column: values where valid, NaN elsewhere. One
// typed pass per column type (not a per-element type switch), then a
// word-level validity pass — see bench_engine's DenseDoubles micro-bench.
std::vector<double> DenseDoublesImpl(const Column& col,
                                     const ExecContext& exec) {
  const size_t n = col.length();
  std::vector<double> out(n);
  switch (col.type()) {
    case DataType::kFloat64: {
      const double* src = col.doubles().data();
      MorselLoop(exec, n, [&](size_t b, size_t e) {
        std::copy(src + b, src + e, out.data() + b);
      });
      break;
    }
    case DataType::kInt64: {
      const int64_t* src = col.ints().data();
      MorselLoop(exec, n, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) out[i] = static_cast<double>(src[i]);
      });
      break;
    }
    case DataType::kBool: {
      const uint8_t* src = col.bools().data();
      MorselLoop(exec, n, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) out[i] = src[i] ? 1.0 : 0.0;
      });
      break;
    }
    case DataType::kString:
      std::fill(out.begin(), out.end(), kNaN);
      return out;  // validity is irrelevant: strings are NaN either way
  }
  if (col.has_validity()) {
    const uint64_t* words = col.validity().words().data();
    MorselLoop(exec, n, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) {
        if (((words[i >> 6] >> (i & 63)) & 1ull) == 0) out[i] = kNaN;
      }
    });
  }
  return out;
}

/// Zeroes the entries of `values` at the null rows of `col`.
void ZeroNullRows(const Column& col, const ExecContext& exec,
                  std::vector<uint8_t>* values) {
  if (!col.has_validity()) return;
  const uint64_t* words = col.validity().words().data();
  uint8_t* out = values->data();
  MorselLoop(exec, values->size(), [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      out[i] &= static_cast<uint8_t>((words[i >> 6] >> (i & 63)) & 1ull);
    }
  });
}

// Dense validity view (1 = valid), expanded from the packed bitmap words.
std::vector<uint8_t> DenseValidity(const Column& col,
                                   const ExecContext& exec) {
  std::vector<uint8_t> out(col.length(), 1);
  ZeroNullRows(col, exec, &out);
  return out;
}

/// Attaches the validity of dense flags `valid` (1 = valid) to `out`, as a
/// bitmap only if some flag is 0.
Column WithValidity(Column out, const std::vector<uint8_t>& valid) {
  if (std::find(valid.begin(), valid.end(), 0) == valid.end()) return out;
  Bitmap bm(valid.size(), true);
  for (size_t i = 0; i < valid.size(); ++i) {
    if (!valid[i]) bm.Set(i, false);
  }
  (void)out.SetValidity(std::move(bm));
  return out;
}

Column MakeDoubleColumn(std::vector<double> values,
                        const std::vector<uint8_t>& valid) {
  return WithValidity(Column::FromDoubles(std::move(values)), valid);
}

Column MakeIntColumn(std::vector<int64_t> values,
                     const std::vector<uint8_t>& valid) {
  return WithValidity(Column::FromInts(std::move(values)), valid);
}

Column MakeBoolColumn(std::vector<uint8_t> values,
                      const std::vector<uint8_t>& valid) {
  return WithValidity(Column::FromBools(std::move(values)), valid);
}

Column BroadcastLiteral(const Value& v, size_t n) {
  switch (v.kind()) {
    case Value::Kind::kNull: {
      Column c(DataType::kFloat64);
      for (size_t i = 0; i < n; ++i) c.AppendNull();
      return c;
    }
    case Value::Kind::kBool:
      return Column::FromBools(
          std::vector<uint8_t>(n, v.bool_value() ? 1 : 0));
    case Value::Kind::kInt:
      return Column::FromInts(std::vector<int64_t>(n, v.int_value()));
    case Value::Kind::kDouble:
      return Column::FromDoubles(std::vector<double>(n, v.double_value()));
    case Value::Kind::kString:
      return Column::FromStrings(
          std::vector<std::string>(n, v.string_value()));
  }
  return Column(DataType::kFloat64);
}

Result<Column> EvalArithmetic(const Expr& expr, const Column& l,
                              const Column& r, const ExecContext& exec) {
  const size_t n = l.length();
  std::vector<uint8_t> valid(n, 1);
  const std::vector<uint8_t> lv = DenseValidity(l, exec);
  const std::vector<uint8_t> rv = DenseValidity(r, exec);
  MorselLoop(exec, n, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) valid[i] = lv[i] & rv[i];
  });

  if (expr.result_type == DataType::kInt64 &&
      expr.binary_op != BinaryOp::kDiv) {
    std::vector<int64_t> a(n), b(n);
    MorselLoop(exec, n, [&](size_t mb, size_t me) {
      for (size_t i = mb; i < me; ++i) {
        a[i] = l.type() == DataType::kInt64
                   ? l.IntAt(i)
                   : static_cast<int64_t>(l.AsDoubleAt(i));
        b[i] = r.type() == DataType::kInt64
                   ? r.IntAt(i)
                   : static_cast<int64_t>(r.AsDoubleAt(i));
      }
    });
    std::vector<int64_t> out(n);
    switch (expr.binary_op) {
      case BinaryOp::kAdd:
        MorselLoop(exec, n, [&](size_t mb, size_t me) {
          for (size_t i = mb; i < me; ++i) out[i] = a[i] + b[i];
        });
        break;
      case BinaryOp::kSub:
        MorselLoop(exec, n, [&](size_t mb, size_t me) {
          for (size_t i = mb; i < me; ++i) out[i] = a[i] - b[i];
        });
        break;
      case BinaryOp::kMul:
        MorselLoop(exec, n, [&](size_t mb, size_t me) {
          for (size_t i = mb; i < me; ++i) out[i] = a[i] * b[i];
        });
        break;
      case BinaryOp::kMod:
        MorselLoop(exec, n, [&](size_t mb, size_t me) {
          for (size_t i = mb; i < me; ++i) {
            if (b[i] == 0) {
              valid[i] = 0;
              out[i] = 0;
            } else {
              out[i] = a[i] % b[i];
            }
          }
        });
        break;
      default:
        return Status::Internal("bad int arithmetic op");
    }
    return MakeIntColumn(std::move(out), valid);
  }

  const std::vector<double> a = DenseDoublesImpl(l, exec);
  const std::vector<double> b = DenseDoublesImpl(r, exec);
  std::vector<double> out(n);
  switch (expr.binary_op) {
    case BinaryOp::kAdd:
      MorselLoop(exec, n, [&](size_t mb, size_t me) {
        for (size_t i = mb; i < me; ++i) out[i] = a[i] + b[i];
      });
      break;
    case BinaryOp::kSub:
      MorselLoop(exec, n, [&](size_t mb, size_t me) {
        for (size_t i = mb; i < me; ++i) out[i] = a[i] - b[i];
      });
      break;
    case BinaryOp::kMul:
      MorselLoop(exec, n, [&](size_t mb, size_t me) {
        for (size_t i = mb; i < me; ++i) out[i] = a[i] * b[i];
      });
      break;
    case BinaryOp::kDiv:
      MorselLoop(exec, n, [&](size_t mb, size_t me) {
        for (size_t i = mb; i < me; ++i) {
          if (b[i] == 0.0) {
            valid[i] = 0;
            out[i] = 0.0;
          } else {
            out[i] = a[i] / b[i];
          }
        }
      });
      break;
    case BinaryOp::kMod:
      MorselLoop(exec, n, [&](size_t mb, size_t me) {
        for (size_t i = mb; i < me; ++i) out[i] = std::fmod(a[i], b[i]);
      });
      break;
    default:
      return Status::Internal("bad arithmetic op");
  }
  return MakeDoubleColumn(std::move(out), valid);
}

/// Calls `body(truth)` with the truth function of comparison `op`. `truth`
/// takes lt = (a < b) and gt = (a > b) and returns 1 or 0, so every
/// operator keeps the three-way contract cmp = lt ? -1 : gt ? 1 : 0: a NaN
/// operand gives cmp == 0 (equal, <= and >= hold; <, >, <> do not).
template <typename Body>
Status WithComparison(BinaryOp op, Body body) {
  switch (op) {
    case BinaryOp::kEq:
      body([](bool lt, bool gt) -> uint8_t { return !(lt | gt); });
      return Status::OK();
    case BinaryOp::kNe:
      body([](bool lt, bool gt) -> uint8_t { return lt | gt; });
      return Status::OK();
    case BinaryOp::kLt:
      body([](bool lt, bool) -> uint8_t { return lt; });
      return Status::OK();
    case BinaryOp::kLe:
      body([](bool, bool gt) -> uint8_t { return !gt; });
      return Status::OK();
    case BinaryOp::kGt:
      body([](bool, bool gt) -> uint8_t { return gt; });
      return Status::OK();
    case BinaryOp::kGe:
      body([](bool lt, bool) -> uint8_t { return !lt; });
      return Status::OK();
    default:
      return Status::Internal("bad comparison op");
  }
}

/// `b op a` as `a Mirror(op) b`.
BinaryOp Mirror(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;
  }
}

/// Bool column of 0/1 `values` with the nulls of `like`: null rows are
/// zeroed, and a bitmap is attached only if some row is null.
Column BoolsWithNullsOf(std::vector<uint8_t> values, const Column& like,
                        const ExecContext& exec) {
  if (like.null_count() == 0) return Column::FromBools(std::move(values));
  ZeroNullRows(like, exec, &values);
  Column out = Column::FromBools(std::move(values));
  (void)out.SetValidity(like.validity());
  return out;
}

/// `col op literal` against the scalar, without broadcasting it: one
/// branch-free loop per operator and column type. Numeric columns compare
/// through double (int64 included), like the column-column kernel. Returns
/// an empty result when the operand types have no scalar kernel.
Result<std::optional<Column>> CompareWithScalar(const Column& col,
                                                const Value& lit, BinaryOp op,
                                                const ExecContext& exec) {
  const size_t n = col.length();
  std::vector<uint8_t> out(n);
  if (col.type() == DataType::kString) {
    if (lit.kind() != Value::Kind::kString) return std::optional<Column>();
    const std::string& s = lit.string_value();
    const std::string* src = col.strings().data();
    MIP_RETURN_NOT_OK(WithComparison(op, [&](auto truth) {
      MorselLoop(exec, n, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
          const int c = src[i].compare(s);
          out[i] = truth(c < 0, c > 0);
        }
      });
    }));
    return std::optional<Column>(BoolsWithNullsOf(std::move(out), col, exec));
  }
  if (lit.kind() != Value::Kind::kInt && lit.kind() != Value::Kind::kDouble &&
      lit.kind() != Value::Kind::kBool) {
    return std::optional<Column>();
  }
  const double s = lit.AsDouble();
  MIP_RETURN_NOT_OK(WithComparison(op, [&](auto truth) {
    auto run = [&](const auto* src, auto as_double) {
      MorselLoop(exec, n, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
          const double a = as_double(src[i]);
          out[i] = truth(a < s, a > s);
        }
      });
    };
    switch (col.type()) {
      case DataType::kFloat64:
        run(col.doubles().data(), [](double v) { return v; });
        break;
      case DataType::kInt64:
        run(col.ints().data(),
            [](int64_t v) { return static_cast<double>(v); });
        break;
      default:
        run(col.bools().data(), [](uint8_t v) { return v ? 1.0 : 0.0; });
        break;
    }
  }));
  return std::optional<Column>(BoolsWithNullsOf(std::move(out), col, exec));
}

Result<Column> EvalComparison(const Expr& expr, const Column& l,
                              const Column& r, const ExecContext& exec) {
  const size_t n = l.length();
  std::vector<uint8_t> out(n, 0);
  std::vector<uint8_t> valid(n, 1);
  const std::vector<uint8_t> lv = DenseValidity(l, exec);
  const std::vector<uint8_t> rv = DenseValidity(r, exec);
  const bool strings =
      l.type() == DataType::kString || r.type() == DataType::kString;
  MIP_RETURN_NOT_OK(WithComparison(expr.binary_op, [&](auto truth) {
    MorselLoop(exec, n, [&](size_t mb, size_t me) {
      for (size_t i = mb; i < me; ++i) {
        if (!(lv[i] & rv[i])) {
          valid[i] = 0;
          continue;
        }
        if (strings) {
          const int c = l.StringAt(i).compare(r.StringAt(i));
          out[i] = truth(c < 0, c > 0);
        } else {
          const double a = l.AsDoubleAt(i);
          const double b = r.AsDoubleAt(i);
          out[i] = truth(a < b, a > b);
        }
      }
    });
  }));
  return MakeBoolColumn(std::move(out), valid);
}

/// Truth value of every row — what Value::AsBool gives for the boxed
/// value (a NaN is true) — and 0 where the row is null.
std::vector<uint8_t> TruthValues(const Column& col, const ExecContext& exec) {
  const size_t n = col.length();
  std::vector<uint8_t> out(n);
  auto run = [&](const auto* src, auto truth) {
    MorselLoop(exec, n, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) out[i] = truth(src[i]);
    });
  };
  switch (col.type()) {
    case DataType::kBool:
      run(col.bools().data(), [](uint8_t v) -> uint8_t { return v != 0; });
      break;
    case DataType::kInt64:
      run(col.ints().data(), [](int64_t v) -> uint8_t { return v != 0; });
      break;
    case DataType::kFloat64:
      run(col.doubles().data(), [](double v) -> uint8_t { return v != 0.0; });
      break;
    case DataType::kString:
      run(col.strings().data(),
          [](const std::string& v) -> uint8_t { return !v.empty(); });
      break;
  }
  ZeroNullRows(col, exec, &out);
  return out;
}

/// Three-valued AND/OR over typed truth values. Two bool columns without
/// nulls take the bytewise path; otherwise, with lb/rb the truth values
/// (0 where null), AND is true iff lb & rb and known iff both sides are
/// or either is a known false; OR is true iff lb | rb and known iff both
/// sides are or either is true.
Column EvalLogical(const Expr& expr, const Column& l, const Column& r,
                   const ExecContext& exec) {
  const size_t n = l.length();
  const bool is_and = expr.binary_op == BinaryOp::kAnd;
  std::vector<uint8_t> out(n);
  if (l.type() == DataType::kBool && r.type() == DataType::kBool &&
      !l.has_validity() && !r.has_validity()) {
    const uint8_t* a = l.bools().data();
    const uint8_t* b = r.bools().data();
    MorselLoop(exec, n, [&](size_t mb, size_t me) {
      if (is_and) {
        for (size_t i = mb; i < me; ++i) out[i] = (a[i] != 0) & (b[i] != 0);
      } else {
        for (size_t i = mb; i < me; ++i) out[i] = (a[i] != 0) | (b[i] != 0);
      }
    });
    return Column::FromBools(std::move(out));
  }
  const std::vector<uint8_t> lv = DenseValidity(l, exec);
  const std::vector<uint8_t> rv = DenseValidity(r, exec);
  const std::vector<uint8_t> lb = TruthValues(l, exec);
  const std::vector<uint8_t> rb = TruthValues(r, exec);
  std::vector<uint8_t> valid(n);
  MorselLoop(exec, n, [&](size_t mb, size_t me) {
    for (size_t i = mb; i < me; ++i) {
      const uint8_t both = lv[i] & rv[i];
      if (is_and) {
        out[i] = lb[i] & rb[i];
        valid[i] = both | (lv[i] & !lb[i]) | (rv[i] & !rb[i]);
      } else {
        out[i] = lb[i] | rb[i];
        valid[i] = both | lb[i] | rb[i];
      }
    }
  });
  return MakeBoolColumn(std::move(out), valid);
}

using UnaryMathFn = double (*)(double);

Result<Column> EvalBuiltinMath(const std::string& lower,
                               const std::vector<Column>& argv,
                               const ExecContext& exec) {
  const Column& a = argv[0];
  const size_t n = a.length();
  std::vector<double> x = DenseDoublesImpl(a, exec);
  std::vector<uint8_t> valid = DenseValidity(a, exec);
  std::vector<double> out(n);

  UnaryMathFn fn = nullptr;
  if (lower == "abs") fn = [](double v) { return std::fabs(v); };
  else if (lower == "sqrt") fn = [](double v) { return std::sqrt(v); };
  else if (lower == "ln" || lower == "log") fn = [](double v) { return std::log(v); };
  else if (lower == "exp") fn = [](double v) { return std::exp(v); };
  else if (lower == "floor") fn = [](double v) { return std::floor(v); };
  else if (lower == "ceil") fn = [](double v) { return std::ceil(v); };
  else if (lower == "round") fn = [](double v) { return std::round(v); };
  else if (lower == "sign") fn = [](double v) { return v > 0 ? 1.0 : (v < 0 ? -1.0 : 0.0); };

  if (fn != nullptr) {
    MorselLoop(exec, n, [&](size_t mb, size_t me) {
      for (size_t i = mb; i < me; ++i) out[i] = fn(x[i]);
    });
    return MakeDoubleColumn(std::move(out), valid);
  }
  if (lower == "pow") {
    const std::vector<double> y = DenseDoublesImpl(argv[1], exec);
    const std::vector<uint8_t> yv = DenseValidity(argv[1], exec);
    MorselLoop(exec, n, [&](size_t mb, size_t me) {
      for (size_t i = mb; i < me; ++i) {
        valid[i] &= yv[i];
        out[i] = std::pow(x[i], y[i]);
      }
    });
    return MakeDoubleColumn(std::move(out), valid);
  }
  return Status::NotFound("unknown vectorized builtin '" + lower + "'");
}

}  // namespace

std::vector<double> DenseDoubles(const Column& col, const ExecContext* exec) {
  return DenseDoublesImpl(col, ExecContext::Resolve(exec));
}

Result<Column> EvalVectorized(const Expr& expr, const Table& table,
                              const FunctionRegistry* registry,
                              const ExecContext* exec) {
  const ExecContext& ctx = ExecContext::Resolve(exec);
  const size_t n = table.num_rows();
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return BroadcastLiteral(expr.literal, n);
    case ExprKind::kColumnRef:
      if (expr.bound_index < 0) {
        return Status::Internal("unbound column '" + expr.column_name + "'");
      }
      return table.column(static_cast<size_t>(expr.bound_index));
    case ExprKind::kUnary: {
      MIP_ASSIGN_OR_RETURN(
          Column a, EvalVectorized(*expr.args[0], table, registry, &ctx));
      switch (expr.unary_op) {
        case UnaryOp::kNeg: {
          std::vector<uint8_t> valid = DenseValidity(a, ctx);
          if (expr.result_type == DataType::kInt64) {
            std::vector<int64_t> out(n);
            MorselLoop(ctx, n, [&](size_t mb, size_t me) {
              for (size_t i = mb; i < me; ++i) out[i] = -a.IntAt(i);
            });
            return MakeIntColumn(std::move(out), valid);
          }
          std::vector<double> out = DenseDoublesImpl(a, ctx);
          MorselLoop(ctx, n, [&](size_t mb, size_t me) {
            for (size_t i = mb; i < me; ++i) out[i] = -out[i];
          });
          return MakeDoubleColumn(std::move(out), valid);
        }
        case UnaryOp::kNot: {
          // A null row stores 1, the negation of a null's false truth.
          std::vector<uint8_t> out = TruthValues(a, ctx);
          MorselLoop(ctx, n, [&](size_t mb, size_t me) {
            for (size_t i = mb; i < me; ++i) out[i] ^= 1;
          });
          return MakeBoolColumn(std::move(out), DenseValidity(a, ctx));
        }
        case UnaryOp::kIsNull: {
          std::vector<uint8_t> out(n, 0);
          MorselLoop(ctx, n, [&](size_t mb, size_t me) {
            for (size_t i = mb; i < me; ++i) out[i] = a.IsValid(i) ? 0 : 1;
          });
          return Column::FromBools(std::move(out));
        }
        case UnaryOp::kIsNotNull: {
          std::vector<uint8_t> out(n, 0);
          MorselLoop(ctx, n, [&](size_t mb, size_t me) {
            for (size_t i = mb; i < me; ++i) out[i] = a.IsValid(i) ? 1 : 0;
          });
          return Column::FromBools(std::move(out));
        }
      }
      return Status::Internal("bad unary op");
    }
    case ExprKind::kBinary: {
      const BinaryOp op = expr.binary_op;
      const bool arithmetic = op == BinaryOp::kAdd || op == BinaryOp::kSub ||
                              op == BinaryOp::kMul || op == BinaryOp::kDiv ||
                              op == BinaryOp::kMod;
      const bool logical = op == BinaryOp::kAnd || op == BinaryOp::kOr;
      // A comparison with a non-null literal on one side runs against the
      // scalar.
      const Expr& lhs = *expr.args[0];
      const Expr& rhs = *expr.args[1];
      const bool lit_l = lhs.kind == ExprKind::kLiteral && !lhs.literal.is_null();
      const bool lit_r = rhs.kind == ExprKind::kLiteral && !rhs.literal.is_null();
      if (!arithmetic && !logical && lit_l != lit_r) {
        const Expr& other = lit_r ? lhs : rhs;
        MIP_ASSIGN_OR_RETURN(Column c,
                             EvalVectorized(other, table, registry, &ctx));
        MIP_ASSIGN_OR_RETURN(
            std::optional<Column> out,
            CompareWithScalar(c, lit_r ? rhs.literal : lhs.literal,
                              lit_r ? op : Mirror(op), ctx));
        if (out.has_value()) return std::move(*out);
      }
      MIP_ASSIGN_OR_RETURN(Column l,
                           EvalVectorized(lhs, table, registry, &ctx));
      MIP_ASSIGN_OR_RETURN(Column r,
                           EvalVectorized(rhs, table, registry, &ctx));
      if (arithmetic) return EvalArithmetic(expr, l, r, ctx);
      if (logical) return EvalLogical(expr, l, r, ctx);
      return EvalComparison(expr, l, r, ctx);
    }
    case ExprKind::kCall: {
      const std::string lower = ToLower(expr.func_name);
      std::vector<Column> argv;
      argv.reserve(expr.args.size());
      for (const auto& a : expr.args) {
        MIP_ASSIGN_OR_RETURN(Column c,
                             EvalVectorized(*a, table, registry, &ctx));
        argv.push_back(std::move(c));
      }
      // Generic variadic/string builtins and registered UDFs fall back to a
      // serial row loop over the already-evaluated argument columns (UDFs
      // give no thread-safety guarantee; Column appends are sequential).
      const bool generic = lower == "coalesce" || lower == "least" ||
                           lower == "greatest" || lower == "like" ||
                           StartsWith(lower, "cast_") ||
                           (registry != nullptr &&
                            registry->FindScalar(lower) != nullptr);
      if (!generic) return EvalBuiltinMath(lower, argv, ctx);

      Column out(expr.result_type);
      std::vector<Value> row_args(argv.size());
      const auto* udf =
          registry != nullptr ? registry->FindScalar(lower) : nullptr;
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < argv.size(); ++j) {
          row_args[j] = argv[j].ValueAt(i);
        }
        Value v;
        if (udf != nullptr) {
          v = udf->fn(row_args);
        } else {
          MIP_ASSIGN_OR_RETURN(v, EvalScalarBuiltin(lower, row_args));
        }
        MIP_RETURN_NOT_OK(out.AppendValue(v));
      }
      return out;
    }
    case ExprKind::kAggregate:
      return Status::ExecutionError("aggregate in scalar vectorized context");
    case ExprKind::kStar:
      return Status::ExecutionError("'*' outside COUNT(*)");
    case ExprKind::kCase: {
      // Evaluate all conditions and branches column-wise, then select
      // (serial: the select loop appends boxed values).
      std::vector<Column> evaluated;
      evaluated.reserve(expr.args.size());
      for (const auto& a : expr.args) {
        MIP_ASSIGN_OR_RETURN(Column c,
                             EvalVectorized(*a, table, registry, &ctx));
        evaluated.push_back(std::move(c));
      }
      Column out(expr.result_type);
      for (size_t r = 0; r < n; ++r) {
        Value v;  // NULL when nothing matches and no ELSE
        bool matched = false;
        size_t i = 0;
        for (; i + 1 < evaluated.size(); i += 2) {
          if (evaluated[i].IsValid(r) &&
              evaluated[i].ValueAt(r).AsBool()) {
            v = evaluated[i + 1].ValueAt(r);
            matched = true;
            break;
          }
        }
        if (!matched && i < evaluated.size()) {
          v = evaluated[i].ValueAt(r);
        }
        MIP_RETURN_NOT_OK(out.AppendValue(v));
      }
      return out;
    }
  }
  return Status::Internal("bad expression kind");
}

Result<std::vector<int64_t>> EvalPredicate(const Expr& expr,
                                           const Table& table,
                                           const FunctionRegistry* registry,
                                           const ExecContext* exec) {
  const ExecContext& ctx = ExecContext::Resolve(exec);
  MIP_ASSIGN_OR_RETURN(Column pred,
                       EvalVectorized(expr, table, registry, &ctx));
  const size_t n = pred.length();
  const std::vector<uint8_t> hit = TruthValues(pred, ctx);
  // Per-morsel selection vectors concatenated in morsel order == the serial
  // scan's output at any thread count. Each row index is written
  // unconditionally and kept by advancing the cursor by its 0/1 hit.
  std::vector<std::vector<int64_t>> parts(ctx.NumMorsels(n));
  ctx.ForEachMorsel(n, [&](size_t morsel, size_t begin, size_t end) {
    std::vector<int64_t>& out = parts[morsel];
    out.resize(end - begin);
    size_t k = 0;
    for (size_t i = begin; i < end; ++i) {
      out[k] = static_cast<int64_t>(i);
      k += hit[i];
    }
    out.resize(k);
  });
  std::vector<int64_t> sel;
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  sel.reserve(total);
  for (const auto& p : parts) sel.insert(sel.end(), p.begin(), p.end());
  return sel;
}

}  // namespace mip::engine
