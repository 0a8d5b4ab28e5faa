#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "common/parallel.h"
#include "common/rng.h"
#include "engine/exec_context.h"
#include "engine/expr.h"
#include "engine/row_interpreter.h"
#include "engine/sql_parser.h"
#include "engine/table.h"
#include "engine/vector_program.h"
#include "engine/vectorized.h"

namespace mip::engine {
namespace {

// Builds a random numeric table (two double columns with nulls, one int
// column).
Table RandomTable(uint64_t seed, size_t rows) {
  mip::Rng rng(seed);
  Column a(DataType::kFloat64);
  Column b(DataType::kFloat64);
  Column k(DataType::kInt64);
  for (size_t i = 0; i < rows; ++i) {
    if (rng.NextDouble() < 0.08) {
      a.AppendNull();
    } else {
      a.AppendDouble(rng.NextGaussian(0, 10));
    }
    if (rng.NextDouble() < 0.08) {
      b.AppendNull();
    } else {
      b.AppendDouble(rng.NextUniform(-5, 5));
    }
    k.AppendInt(static_cast<int64_t>(rng.NextBounded(7)));
  }
  Schema schema;
  EXPECT_TRUE(schema.AddField({"a", DataType::kFloat64}).ok());
  EXPECT_TRUE(schema.AddField({"b", DataType::kFloat64}).ok());
  EXPECT_TRUE(schema.AddField({"k", DataType::kInt64}).ok());
  return *Table::Make(schema, {a, b, k});
}

// Expressions covering arithmetic, comparisons, logic, math builtins and
// null handling — the surface all three execution engines must agree on.
const char* kExpressions[] = {
    "a + b",
    "a - 2 * b",
    "a * b + a / (b + 10)",
    "abs(a) + sqrt(abs(b))",
    "exp(b / 10) - 1",
    "a > b",
    "a + 1 <= b * 2",
    "(a > 0) and (b > 0)",
    "(a > 0) or (b > 0)",
    "not (a > b)",
    "a is null",
    "a is not null",
    "pow(a / 10, 2) + pow(b / 10, 2)",
    "-a",
    "(a > 0) and (a is not null)",
    "a / 0",
    "k + 1",
    "k * 2 - a",
    "floor(a) + ceil(b)",
    "sign(a) * round(b)",
};

class ExecutionEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ExecutionEquivalence, RowVectorizedAndJitAgree) {
  const int expr_idx = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());
  Table table = RandomTable(static_cast<uint64_t>(seed) * 7919 + 13, 500);

  ExprPtr expr = *ParseExpression(kExpressions[expr_idx]);
  ASSERT_TRUE(BindExpr(expr.get(), table.schema()).ok())
      << kExpressions[expr_idx];

  // Reference: row-at-a-time interpreter.
  std::vector<Value> reference(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    reference[r] = *EvalRow(*expr, table, r);
  }

  // Column-at-a-time.
  Column vectorized = *EvalVectorized(*expr, table);
  ASSERT_EQ(vectorized.length(), table.num_rows());

  // JIT-fused.
  VectorProgram program = *VectorProgram::Compile(*expr, table.schema());
  Column jit = *program.Execute(table);
  ASSERT_EQ(jit.length(), table.num_rows());

  for (size_t r = 0; r < table.num_rows(); ++r) {
    const Value& ref = reference[r];
    const Value vec = vectorized.ValueAt(r);
    const Value jv = jit.ValueAt(r);
    if (ref.is_null()) {
      EXPECT_TRUE(vec.is_null())
          << kExpressions[expr_idx] << " row " << r << " vectorized";
      EXPECT_TRUE(jv.is_null())
          << kExpressions[expr_idx] << " row " << r << " jit";
      continue;
    }
    ASSERT_FALSE(vec.is_null()) << kExpressions[expr_idx] << " row " << r;
    ASSERT_FALSE(jv.is_null()) << kExpressions[expr_idx] << " row " << r;
    const double rd = ref.AsDouble();
    if (std::isnan(rd)) {
      // NaN arithmetic results (e.g. fmod) may surface as NULL in the JIT
      // path; treat NaN/NULL as equivalent "undefined".
      continue;
    }
    EXPECT_NEAR(vec.AsDouble(), rd, 1e-9)
        << kExpressions[expr_idx] << " row " << r << " vectorized";
    EXPECT_NEAR(jv.AsDouble(), rd, 1e-9)
        << kExpressions[expr_idx] << " row " << r << " jit";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllExprsAndSeeds, ExecutionEquivalence,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(std::size(kExpressions))),
        ::testing::Range(0, 3)));

TEST(VectorProgramTest, CompileRejectsStrings) {
  Schema schema;
  ASSERT_TRUE(schema.AddField({"s", DataType::kString}).ok());
  ExprPtr expr = Col("s");
  ASSERT_TRUE(BindExpr(expr.get(), schema).ok());
  EXPECT_FALSE(VectorProgram::Compile(*expr, schema).ok());
}

TEST(VectorProgramTest, CompileRejectsUnknownCalls) {
  Schema schema;
  ASSERT_TRUE(schema.AddField({"a", DataType::kFloat64}).ok());
  ExprPtr expr = Call("coalesce", {Col("a"), LitDouble(0)});
  ASSERT_TRUE(BindExpr(expr.get(), schema).ok());
  EXPECT_FALSE(VectorProgram::Compile(*expr, schema).ok());
}

TEST(VectorProgramTest, RegisterReuseKeepsProgramSmall) {
  Schema schema;
  ASSERT_TRUE(schema.AddField({"a", DataType::kFloat64}).ok());
  // ((((a+1)+1)+1)+1): registers must be reused, not grow linearly.
  ExprPtr expr = Col("a");
  for (int i = 0; i < 16; ++i) expr = Add(expr, LitDouble(1));
  ASSERT_TRUE(BindExpr(expr.get(), schema).ok());
  VectorProgram p = *VectorProgram::Compile(*expr, schema);
  EXPECT_LE(p.num_registers(), 3);
  EXPECT_EQ(p.num_instructions(), 1u + 16u * 2u);
}

TEST(VectorProgramTest, DisassembleMentionsOps) {
  Schema schema;
  ASSERT_TRUE(schema.AddField({"a", DataType::kFloat64}).ok());
  ExprPtr expr = Mul(Add(Col("a"), LitDouble(1)), Col("a"));
  ASSERT_TRUE(BindExpr(expr.get(), schema).ok());
  VectorProgram p = *VectorProgram::Compile(*expr, schema);
  const std::string listing = p.Disassemble();
  EXPECT_NE(listing.find("load_col"), std::string::npos);
  EXPECT_NE(listing.find("mul"), std::string::npos);
}

TEST(VectorProgramTest, HandlesTablesSmallerAndLargerThanBatch) {
  for (size_t rows : {1u, 7u, 2047u, 2048u, 2049u, 6000u}) {
    Table t = RandomTable(rows, rows);
    ExprPtr expr = *ParseExpression("a * 2 + b");
    ASSERT_TRUE(BindExpr(expr.get(), t.schema()).ok());
    VectorProgram p = *VectorProgram::Compile(*expr, t.schema());
    Column out = *p.Execute(t);
    ASSERT_EQ(out.length(), rows);
    Column ref = *EvalVectorized(*expr, t);
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(out.IsValid(r), ref.IsValid(r));
      if (out.IsValid(r)) {
        EXPECT_NEAR(out.AsDoubleAt(r), ref.AsDoubleAt(r), 1e-9);
      }
    }
  }
}

TEST(PredicateTest, SelectionVectorMatchesFilterSemantics) {
  Table t = RandomTable(99, 300);
  ExprPtr pred = *ParseExpression("a > 0 and b < 2");
  ASSERT_TRUE(BindExpr(pred.get(), t.schema()).ok());
  std::vector<int64_t> sel = *EvalPredicate(*pred, t);
  for (int64_t idx : sel) {
    const size_t r = static_cast<size_t>(idx);
    ASSERT_TRUE(t.column(0).IsValid(r));
    ASSERT_TRUE(t.column(1).IsValid(r));
    EXPECT_GT(t.column(0).DoubleAt(r), 0.0);
    EXPECT_LT(t.column(1).DoubleAt(r), 2.0);
  }
}


TEST(VectorProgramTest, ParallelAndBatchVariantsMatchSerial) {
  Table t = RandomTable(123, 50000);
  ExprPtr expr = *ParseExpression(
      "case when a > 0 then sqrt(a) * b else b / 2 end + k");
  ASSERT_TRUE(BindExpr(expr.get(), t.schema()).ok());
  VectorProgram p = *VectorProgram::Compile(*expr, t.schema());
  Column serial = *p.Execute(t);
  for (int threads : {2, 4, 8}) {
    mip::ThreadPool pool(threads);
    ExecContext parallel_ctx;
    parallel_ctx.pool = &pool;
    parallel_ctx.morsel_size = 8192;  // force several morsels over 50k rows
    for (size_t batch : {64u, 1024u, 2048u, 8192u}) {
      VectorProgram::ExecOptions options;
      options.exec = &parallel_ctx;
      options.batch_size = batch;
      Column out = *p.Execute(t, options);
      ASSERT_EQ(out.length(), serial.length());
      for (size_t r = 0; r < out.length(); ++r) {
        ASSERT_EQ(out.IsValid(r), serial.IsValid(r))
            << threads << "t/" << batch << "b row " << r;
        if (out.IsValid(r)) {
          ASSERT_DOUBLE_EQ(out.AsDoubleAt(r), serial.AsDoubleAt(r))
              << threads << "t/" << batch << "b row " << r;
        }
      }
    }
  }
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  mip::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100000);
  pool.ParallelFor(hits.size(), 1024, [&hits](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) ++hits[i];
  });
  for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1) << i;
  // Degenerate cases.
  pool.ParallelFor(0, 4, [](size_t, size_t) { FAIL(); });
  int whole_calls = 0;
  pool.ParallelFor(10, 0, [&whole_calls](size_t b, size_t e) {
    ++whole_calls;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 10u);
  });
  EXPECT_EQ(whole_calls, 1);  // grain 0 => one inline chunk
  whole_calls = 0;
  pool.ParallelFor(10, 16, [&whole_calls](size_t b, size_t e) {
    ++whole_calls;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 10u);
  });
  EXPECT_EQ(whole_calls, 1);  // grain >= n runs inline
}

TEST(ParallelForTest, PropagatesBodyException) {
  mip::ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100000, 64,
                       [](size_t b, size_t) {
                         if (b >= 50000) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<int> chunks{0};
  pool.ParallelFor(1000, 10, [&chunks](size_t, size_t) { ++chunks; });
  EXPECT_EQ(chunks.load(), 100);
}

TEST(ParallelForTest, NestedCallsDoNotDeadlock) {
  // Every task of a 2-thread pool runs a nested ParallelFor on the same
  // pool; caller participation guarantees progress even with zero free
  // pool threads.
  mip::ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(8, 1, [&pool, &total](size_t, size_t) {
    pool.ParallelFor(1000, 10, [&total](size_t b, size_t e) {
      total += static_cast<int>(e - b);
    });
  });
  EXPECT_EQ(total.load(), 8000);
}

TEST(ExecContextForkTest, ForkedChildCanUseTheDefaultPool) {
  // A forked child inherits the default pool object but none of its
  // threads, and the pool's lock or condition variable may be mid-use at
  // the fork. Fork repeatedly while another thread keeps the pool busy;
  // every child must still run ParallelFor on ExecContext::Default().
  ThreadPool* pool = ExecContext::Default().pool;
  if (pool == nullptr) GTEST_SKIP() << "the default context is serial";
  std::atomic<bool> stop{false};
  std::thread busy([pool, &stop] {
    while (!stop.load()) pool->ParallelFor(64, 1, [](size_t, size_t) {});
  });
  int hung = 0, failed = 0;
  for (int child = 0; child < 20; ++child) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      std::atomic<size_t> covered{0};
      for (int round = 0; round < 50; ++round) {
        ExecContext::Default().pool->ParallelFor(
            64, 1, [&covered](size_t b, size_t e) { covered += e - b; });
      }
      _exit(covered.load() == 50 * 64 ? 0 : 1);
    }
    int status = 0;
    pid_t done = 0;
    for (int waited_ms = 0; waited_ms < 5000 && done == 0; waited_ms += 1) {
      done = waitpid(pid, &status, WNOHANG);
      if (done == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (done == 0) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      ++hung;
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      ++failed;
    }
  }
  stop.store(true);
  busy.join();
  EXPECT_EQ(hung, 0) << "forked children hung on the default pool";
  EXPECT_EQ(failed, 0);
}

}  // namespace
}  // namespace mip::engine
