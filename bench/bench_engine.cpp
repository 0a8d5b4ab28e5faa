// Experiments E6 + E13 — the Worker-engine execution claim of §2:
// in-database analytics with vectorization and JIT compilation (E6, the
// three execution engines compared on analytics expressions, plus the SQL
// path a Worker serves) and morsel-driven intra-query parallelism (E13,
// threads sweep over the relational kernels plus the DenseDoubles
// conversion micro-bench).

#include <benchmark/benchmark.h>

#include <memory>

#include "common/parallel.h"
#include "common/rng.h"
#include "engine/database.h"
#include "engine/exec_context.h"
#include "engine/expr.h"
#include "engine/operators.h"
#include "engine/row_interpreter.h"
#include "engine/sql_parser.h"
#include "engine/table.h"
#include "engine/vector_program.h"
#include "engine/vectorized.h"

namespace {

using mip::engine::AggFunc;
using mip::engine::AggregateSpec;
using mip::engine::Column;
using mip::engine::DataType;
using mip::engine::ExecContext;
using mip::engine::Expr;
using mip::engine::ExprPtr;
using mip::engine::Schema;
using mip::engine::Table;

/// Pool + context for a threads=N benchmark arg; threads<=1 means no pool
/// (pure serial morsel loop).
struct BenchExec {
  explicit BenchExec(int threads) {
    if (threads > 1) pool = std::make_unique<mip::ThreadPool>(threads);
    ctx.pool = pool.get();
  }
  std::unique_ptr<mip::ThreadPool> pool;
  ExecContext ctx;
};

Table MakeTable(size_t rows) {
  mip::Rng rng(7);
  std::vector<double> a(rows), b(rows), c(rows);
  for (size_t i = 0; i < rows; ++i) {
    a[i] = rng.NextGaussian();
    b[i] = rng.NextUniform(0.5, 2.0);
    c[i] = rng.NextGaussian(10, 3);
  }
  Schema schema;
  (void)schema.AddField({"a", DataType::kFloat64});
  (void)schema.AddField({"b", DataType::kFloat64});
  (void)schema.AddField({"c", DataType::kFloat64});
  return *Table::Make(schema, {Column::FromDoubles(a),
                               Column::FromDoubles(b),
                               Column::FromDoubles(c)});
}

// The analytics expression: an 11-operator pipeline typical of a
// standardization + score computation.
constexpr char kExpr[] =
    "sqrt(abs(a * b)) + exp(a / 10) - (c - 10) / (b + 0.5)";

ExprPtr BoundExpr(const Table& table) {
  ExprPtr e = *mip::engine::ParseExpression(kExpr);
  (void)mip::engine::BindExpr(e.get(), table.schema());
  return e;
}

void BM_RowInterpreter(benchmark::State& state) {
  const Table table = MakeTable(static_cast<size_t>(state.range(0)));
  ExprPtr expr = BoundExpr(table);
  for (auto _ : state) {
    double sink = 0;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      sink += (*mip::engine::EvalRow(*expr, table, r)).AsDouble();
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Vectorized(benchmark::State& state) {
  const Table table = MakeTable(static_cast<size_t>(state.range(0)));
  ExprPtr expr = BoundExpr(table);
  for (auto _ : state) {
    auto col = *mip::engine::EvalVectorized(*expr, table);
    benchmark::DoNotOptimize(col);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_JitFused(benchmark::State& state) {
  const Table table = MakeTable(static_cast<size_t>(state.range(0)));
  ExprPtr expr = BoundExpr(table);
  const auto program = *mip::engine::VectorProgram::Compile(*expr,
                                                            table.schema());
  for (auto _ : state) {
    auto col = *program.Execute(table);
    benchmark::DoNotOptimize(col);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_JitCompileOnly(benchmark::State& state) {
  const Table table = MakeTable(16);
  ExprPtr expr = BoundExpr(table);
  for (auto _ : state) {
    auto program = *mip::engine::VectorProgram::Compile(*expr,
                                                        table.schema());
    benchmark::DoNotOptimize(program);
  }
}

// Ablation: batch (vector register) size. Too small = interpretation
// overhead per batch; too large = intermediates fall out of L1/L2 and the
// JIT path degenerates toward full-column vectorized execution.
void BM_JitBatchSize(benchmark::State& state) {
  const Table table = MakeTable(1 << 20);
  ExprPtr expr = BoundExpr(table);
  const auto program = *mip::engine::VectorProgram::Compile(*expr,
                                                            table.schema());
  mip::engine::VectorProgram::ExecOptions options;
  options.batch_size = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto col = *program.Execute(table, options);
    benchmark::DoNotOptimize(col);
  }
  state.SetItemsProcessed(state.iterations() * (1 << 20));
}

// Ablation: intra-query parallelism (meaningful on multi-core hosts; on a
// single-core container the thread variants only show the spawn overhead).
void BM_JitThreads(benchmark::State& state) {
  const Table table = MakeTable(1 << 21);
  ExprPtr expr = BoundExpr(table);
  const auto program = *mip::engine::VectorProgram::Compile(*expr,
                                                            table.schema());
  BenchExec exec(static_cast<int>(state.range(0)));
  mip::engine::VectorProgram::ExecOptions options;
  options.exec = &exec.ctx;
  for (auto _ : state) {
    auto col = *program.Execute(table, options);
    benchmark::DoNotOptimize(col);
  }
  state.SetItemsProcessed(state.iterations() * (1 << 21));
}

// The SQL path: the statements a Worker runs for perfbench's fed_sql panel
// and fetch classes, through Database::ExecuteSql on one in-memory
// 100k-row table (scan, BETWEEN filter, group-by or projection).
constexpr size_t kSqlRows = 100000;

mip::engine::Database* SqlDatabase() {
  static mip::engine::Database* db = [] {
    mip::Rng rng(5);
    const char* diags[] = {"AD", "MCI", "CN", "FTD"};
    Column id(DataType::kInt64), age(DataType::kInt64), year(DataType::kInt64),
        diag(DataType::kString), mmse(DataType::kFloat64);
    std::vector<Column> volumes(4, Column(DataType::kFloat64));
    for (size_t i = 0; i < kSqlRows; ++i) {
      id.AppendInt(static_cast<int64_t>(i));
      age.AppendInt(18 + static_cast<int64_t>(rng.NextBounded(73)));
      year.AppendInt(2000 + static_cast<int64_t>(rng.NextBounded(25)));
      diag.AppendString(diags[rng.NextBounded(4)]);
      if (rng.NextBounded(20) == 0) {
        mmse.AppendNull();
      } else {
        mmse.AppendDouble(rng.NextUniform(0.0, 30.0));
      }
      for (Column& v : volumes) v.AppendDouble(rng.NextGaussian(3.5, 0.5));
    }
    Schema schema;
    for (const char* name : {"patient_id", "age", "year"}) {
      (void)schema.AddField({name, DataType::kInt64});
    }
    (void)schema.AddField({"diag", DataType::kString});
    (void)schema.AddField({"mmse", DataType::kFloat64});
    std::vector<Column> columns = {id, age, year, diag, mmse};
    for (size_t v = 0; v < volumes.size(); ++v) {
      (void)schema.AddField({"vol" + std::to_string(v), DataType::kFloat64});
      columns.push_back(volumes[v]);
    }
    auto* out = new mip::engine::Database("bench");
    (void)out->PutTable("visits",
                        *Table::Make(std::move(schema), std::move(columns)));
    return out;
  }();
  return db;
}

// Arg 0: the panel (4-conjunct BETWEEN filter + GROUP BY on a string key
// with six aggregates); arg 1: the 4-id fetch.
void BM_SqlPath(benchmark::State& state) {
  const char* sql =
      state.range(0) == 0
          ? "SELECT diag, COUNT(*) AS n, AVG(mmse) AS mmse_avg, AVG(vol0) AS "
            "v1, SUM(vol1) AS v2, MIN(age) AS age_min, MAX(age) AS age_max "
            "FROM visits WHERE age BETWEEN 40 AND 64 AND year BETWEEN 2004 "
            "AND 2015 GROUP BY diag"
          : "SELECT patient_id, age, mmse FROM visits WHERE patient_id "
            "BETWEEN 50000 AND 50003";
  mip::engine::Database* db = SqlDatabase();
  for (auto _ : state) {
    auto out = db->ExecuteSql(sql);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * kSqlRows);
}

// --- Experiment E13: morsel-driven parallel aggregation ------------------
// Threads sweep over the hot relational operators. Morsel boundaries depend
// only on morsel_size, so every arg produces byte-identical tables; the
// sweep measures wall-clock only.

constexpr size_t kAggRows = 1 << 21;  // 2M rows, ≥ the 1M floor in E13.

/// Grouping benchmark table: g = i % 64 (int64 key), v dense double,
/// w double with every 16th row NULL (exercises validity handling).
Table MakeGroupTable(size_t rows) {
  mip::Rng rng(11);
  std::vector<int64_t> g(rows);
  std::vector<double> v(rows);
  Column w(DataType::kFloat64);
  w.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    g[i] = static_cast<int64_t>(i % 64);
    v[i] = rng.NextGaussian(5, 2);
    if (i % 16 == 3) {
      w.AppendNull();
    } else {
      w.AppendDouble(rng.NextUniform(0.0, 100.0));
    }
  }
  Schema schema;
  (void)schema.AddField({"g", DataType::kInt64});
  (void)schema.AddField({"v", DataType::kFloat64});
  (void)schema.AddField({"w", DataType::kFloat64});
  return *Table::Make(schema, {Column::FromInts(std::move(g)),
                               Column::FromDoubles(std::move(v)),
                               std::move(w)});
}

std::vector<AggregateSpec> AggSpecs(const Table& table) {
  auto bound = [&](const char* name) {
    ExprPtr e = mip::engine::Col(name);
    (void)mip::engine::BindExpr(e.get(), table.schema());
    return e;
  };
  std::vector<AggregateSpec> aggs;
  aggs.push_back({AggFunc::kSum, bound("v"), "sum_v"});
  aggs.push_back({AggFunc::kAvg, bound("w"), "avg_w"});
  aggs.push_back({AggFunc::kMin, bound("v"), "min_v"});
  aggs.push_back({AggFunc::kMax, bound("w"), "max_w"});
  aggs.push_back({AggFunc::kStddevSamp, bound("v"), "sd_v"});
  return aggs;
}

void BM_AggregateThreads(benchmark::State& state) {
  const Table table = MakeGroupTable(kAggRows);
  const std::vector<AggregateSpec> aggs = AggSpecs(table);
  BenchExec exec(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto out = *mip::engine::AggregateAll(table, aggs, nullptr, &exec.ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * kAggRows);
}

void BM_GroupByThreads(benchmark::State& state) {
  const Table table = MakeGroupTable(kAggRows);
  const std::vector<AggregateSpec> aggs = AggSpecs(table);
  ExprPtr key = mip::engine::Col("g");
  (void)mip::engine::BindExpr(key.get(), table.schema());
  BenchExec exec(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto out = *mip::engine::GroupByAggregate(table, {key}, {"g"}, aggs,
                                              nullptr, &exec.ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * kAggRows);
}

void BM_FilterThreads(benchmark::State& state) {
  const Table table = MakeGroupTable(kAggRows);
  ExprPtr pred = *mip::engine::ParseExpression("v > 5 and w < 80");
  (void)mip::engine::BindExpr(pred.get(), table.schema());
  BenchExec exec(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto out = *mip::engine::Filter(table, *pred, nullptr, &exec.ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * kAggRows);
}

// --- DenseDoubles conversion micro-bench ---------------------------------
// The boxed reference path (per-element AsDoubleAt: validity probe + type
// switch per value) vs the typed fast path (one typed pass + word-level
// validity expansion) that the vectorized kernels now use.

void BM_DenseDoublesBoxed(benchmark::State& state) {
  const Table table = MakeGroupTable(static_cast<size_t>(state.range(0)));
  const Column& col = table.column(2);  // nullable double
  for (auto _ : state) {
    std::vector<double> out(col.length());
    for (size_t i = 0; i < col.length(); ++i) out[i] = col.AsDoubleAt(i);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_DenseDoublesTyped(benchmark::State& state) {
  const Table table = MakeGroupTable(static_cast<size_t>(state.range(0)));
  const Column& col = table.column(2);
  for (auto _ : state) {
    auto out = mip::engine::DenseDoubles(col);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_DenseDoublesBoxedInt(benchmark::State& state) {
  const Table table = MakeGroupTable(static_cast<size_t>(state.range(0)));
  const Column& col = table.column(0);  // all-valid int64
  for (auto _ : state) {
    std::vector<double> out(col.length());
    for (size_t i = 0; i < col.length(); ++i) out[i] = col.AsDoubleAt(i);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_DenseDoublesTypedInt(benchmark::State& state) {
  const Table table = MakeGroupTable(static_cast<size_t>(state.range(0)));
  const Column& col = table.column(0);
  for (auto _ : state) {
    auto out = mip::engine::DenseDoubles(col);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

// Filter pushdown comparison: predicate evaluation to a selection vector.
void BM_FilterPredicate(benchmark::State& state) {
  const Table table = MakeTable(static_cast<size_t>(state.range(0)));
  ExprPtr pred = *mip::engine::ParseExpression("a > 0 and c < 12");
  (void)mip::engine::BindExpr(pred.get(), table.schema());
  for (auto _ : state) {
    auto sel = *mip::engine::EvalPredicate(*pred, table);
    benchmark::DoNotOptimize(sel);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

}  // namespace

BENCHMARK(BM_RowInterpreter)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK(BM_Vectorized)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK(BM_JitFused)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK(BM_JitCompileOnly);
BENCHMARK(BM_SqlPath)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JitBatchSize)->Arg(64)->Arg(512)->Arg(2048)->Arg(16384)
    ->Arg(1 << 20);
BENCHMARK(BM_JitThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_FilterPredicate)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK(BM_AggregateThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_GroupByThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_FilterThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_DenseDoublesBoxed)->Arg(1 << 20);
BENCHMARK(BM_DenseDoublesTyped)->Arg(1 << 20);
BENCHMARK(BM_DenseDoublesBoxedInt)->Arg(1 << 20);
BENCHMARK(BM_DenseDoublesTypedInt)->Arg(1 << 20);

BENCHMARK_MAIN();
