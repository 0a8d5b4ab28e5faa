#ifndef MIP_ENGINE_VECTORIZED_H_
#define MIP_ENGINE_VECTORIZED_H_

#include "common/result.h"
#include "engine/exec_context.h"
#include "engine/expr.h"
#include "engine/table.h"

namespace mip::engine {

class FunctionRegistry;

/// \brief Column-at-a-time expression evaluation.
///
/// Each operator node materializes a full intermediate column and applies a
/// tight loop over raw arrays — the execution model of columnar engines like
/// the one MIP deploys on each Worker. A comparison with a literal operand
/// runs against the scalar instead of a broadcast column. Fast for analytics; intermediates are
/// full-column sized (the JIT-fused VectorProgram removes that memory
/// traffic, see engine/vector_program.h).
///
/// The numeric kernels dispatch per-morsel on `exec` (nullptr resolves to
/// ExecContext::Default()); the string/UDF/CASE fallback paths stay serial.
/// Results are identical at any thread count — elementwise kernels write
/// disjoint index ranges.
///
/// The expression must have been bound with BindExpr against the table's
/// schema.
Result<Column> EvalVectorized(const Expr& expr, const Table& table,
                              const FunctionRegistry* registry = nullptr,
                              const ExecContext* exec = nullptr);

/// \brief Dense double view of a column: values where valid, NaN for nulls
/// and strings. One typed pass per column type plus a word-level validity
/// expansion — the kernels' conversion fast path (vs. the per-element
/// AsDoubleAt type switch; see bench_engine's DenseDoubles micro-bench).
std::vector<double> DenseDoubles(const Column& col,
                                 const ExecContext* exec = nullptr);

/// \brief Evaluates a predicate expression to a selection vector: indices of
/// rows where the predicate is non-null and true. Rows are scanned per-morsel
/// and the per-morsel selections are concatenated in morsel order, so the
/// result equals the serial scan's at any thread count.
Result<std::vector<int64_t>> EvalPredicate(
    const Expr& expr, const Table& table,
    const FunctionRegistry* registry = nullptr,
    const ExecContext* exec = nullptr);

}  // namespace mip::engine

#endif  // MIP_ENGINE_VECTORIZED_H_
