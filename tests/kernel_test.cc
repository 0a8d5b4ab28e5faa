// Differential tests of the typed SQL kernels. Seeded predicate trees run
// through the vectorized evaluator and the row interpreter (the semantic
// reference), hash group-by, DISTINCT and COUNT(DISTINCT) run against a
// text-key reference, and every aggregate function runs against the
// per-row streaming state the engine used before its per-function
// accumulators; both references live only in this file. The tables hold the
// awkward cells: NULLs, NaN, -0.0, int64 values above 2^53 and strings.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "engine/database.h"
#include "engine/exec_context.h"
#include "engine/expr.h"
#include "engine/operators.h"
#include "engine/row_interpreter.h"
#include "engine/sql_parser.h"
#include "engine/table.h"
#include "engine/vectorized.h"
#include "federation/master.h"
#include "federation/worker.h"
#include "net/tcp_transport.h"

namespace mip {
namespace {

using engine::AggFunc;
using engine::AggregateSpec;
using engine::BinaryOp;
using engine::Column;
using engine::DataType;
using engine::Database;
using engine::ExecContext;
using engine::Expr;
using engine::ExprPtr;
using engine::Schema;
using engine::Table;
using engine::UnaryOp;
using engine::Value;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr int64_t k2p53 = int64_t{1} << 53;

std::vector<uint8_t> Bytes(const Table& t) {
  BufferWriter w;
  engine::SerializeTable(t, &w);
  return w.TakeBytes();
}

// Columns: i/d/b/s nullable (int64 / double / bool / string), j/e/c the
// same without NULLs (the kernels' no-validity paths).
Table KernelTable(uint64_t seed, size_t rows) {
  Rng rng(seed);
  const int64_t ints[] = {0,         1,           -1,          7,
                          k2p53,     k2p53 + 1,   -k2p53 - 1,  int64_t{1} << 62,
                          k2p53 - 1, 123456789};
  const double doubles[] = {0.0,  -0.0, kNaN,     1.5,      -2.25,   7.0,
                            1e300, 9007199254740992.0, 1.0000001, 1.0000002};
  const char* strings[] = {"", "a", "ab", "b", "AD", "CN", "MCI"};
  Column i(DataType::kInt64), d(DataType::kFloat64), b(DataType::kBool),
      s(DataType::kString), j(DataType::kInt64), e(DataType::kFloat64),
      c(DataType::kBool);
  for (size_t r = 0; r < rows; ++r) {
    auto null = [&rng] { return rng.NextBounded(8) == 0; };
    if (null()) i.AppendNull(); else i.AppendInt(ints[rng.NextBounded(10)]);
    if (null()) d.AppendNull(); else d.AppendDouble(doubles[rng.NextBounded(10)]);
    if (null()) b.AppendNull(); else b.AppendBool(rng.NextBounded(2) == 1);
    if (null()) s.AppendNull(); else s.AppendString(strings[rng.NextBounded(7)]);
    j.AppendInt(ints[rng.NextBounded(10)]);
    e.AppendDouble(doubles[rng.NextBounded(10)]);
    c.AppendBool(rng.NextBounded(2) == 1);
  }
  Schema schema;
  for (const auto& [name, type] :
       std::vector<std::pair<std::string, DataType>>{
           {"i", DataType::kInt64},   {"d", DataType::kFloat64},
           {"b", DataType::kBool},    {"s", DataType::kString},
           {"j", DataType::kInt64},   {"e", DataType::kFloat64},
           {"c", DataType::kBool}}) {
    EXPECT_TRUE(schema.AddField({name, type}).ok());
  }
  return *Table::Make(std::move(schema), {i, d, b, s, j, e, c});
}

// --- Predicate kernels against the row interpreter -------------------------

ExprPtr NumericLiteral(Rng* rng) {
  switch (rng->NextBounded(4)) {
    case 0: {
      const int64_t v[] = {0, 1, 7, k2p53, k2p53 + 1, -k2p53 - 1, -1};
      return engine::Lit(Value::Int(v[rng->NextBounded(7)]));
    }
    case 1: {
      const double v[] = {0.0, -0.0, kNaN, 1.5, -2.25, 9007199254740992.0};
      return engine::Lit(Value::Double(v[rng->NextBounded(6)]));
    }
    case 2:
      return engine::Lit(Value::Bool(rng->NextBounded(2) == 1));
    default:
      return engine::Lit(Value::Double(rng->NextUniform(-3.0, 8.0)));
  }
}

ExprPtr RandomPredicate(Rng* rng, int depth) {
  const char* numeric[] = {"i", "d", "b", "j", "e", "c"};
  const BinaryOp cmps[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                           BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
  const BinaryOp cmp = cmps[rng->NextBounded(6)];
  const uint64_t kind = depth == 0 ? rng->NextBounded(6)
                                   : 6 + rng->NextBounded(3);
  switch (kind) {
    case 0:  // column op literal
      return engine::Binary(cmp, engine::Col(numeric[rng->NextBounded(6)]),
                            NumericLiteral(rng));
    case 1:  // literal op column
      return engine::Binary(cmp, NumericLiteral(rng),
                            engine::Col(numeric[rng->NextBounded(6)]));
    case 2:  // column op column
      return engine::Binary(cmp, engine::Col(numeric[rng->NextBounded(6)]),
                            engine::Col(numeric[rng->NextBounded(6)]));
    case 3: {  // string column against a string literal, either side
      const char* lits[] = {"", "a", "AD", "b", "zz"};
      ExprPtr lit = engine::LitString(lits[rng->NextBounded(5)]);
      return rng->NextBounded(2) == 0 ? engine::Binary(cmp, engine::Col("s"), lit)
                                      : engine::Binary(cmp, lit, engine::Col("s"));
    }
    case 4: {
      const char* all[] = {"i", "d", "b", "s", "j", "e", "c"};
      return engine::Unary(rng->NextBounded(2) == 0 ? UnaryOp::kIsNull
                                                    : UnaryOp::kIsNotNull,
                           engine::Col(all[rng->NextBounded(7)]));
    }
    case 5: {  // a bare column, read for its truth value
      const char* all[] = {"i", "d", "b", "s", "j", "e", "c"};
      return engine::Col(all[rng->NextBounded(7)]);
    }
    case 6:
      return engine::And(RandomPredicate(rng, depth - 1),
                         RandomPredicate(rng, depth - 1));
    case 7:
      return engine::Or(RandomPredicate(rng, depth - 1),
                        RandomPredicate(rng, depth - 1));
    default:
      return engine::Unary(UnaryOp::kNot, RandomPredicate(rng, depth - 1));
  }
}

TEST(PredicateKernelTest, MatchesRowInterpreterAtAnyThreadCountAndMorselSize) {
  const Table table = KernelTable(41, 700);
  ThreadPool pool(4);
  ExecContext serial;
  ExecContext small_serial;
  small_serial.morsel_size = 64;
  ExecContext small_parallel;
  small_parallel.pool = &pool;
  small_parallel.morsel_size = 64;
  ExecContext large_parallel;
  large_parallel.pool = &pool;
  large_parallel.morsel_size = 256;
  const ExecContext* contexts[] = {&serial, &small_serial, &small_parallel,
                                   &large_parallel};

  Rng rng(2024);
  for (int t = 0; t < 400; ++t) {
    ExprPtr pred = RandomPredicate(&rng, static_cast<int>(rng.NextBounded(4)));
    ASSERT_TRUE(engine::BindExpr(pred.get(), table.schema()).ok())
        << pred->ToString();
    std::vector<int64_t> expected;
    std::vector<Value> oracle(table.num_rows());
    for (size_t r = 0; r < table.num_rows(); ++r) {
      Result<Value> v = engine::EvalRow(*pred, table, r);
      ASSERT_TRUE(v.ok()) << v.status().ToString();
      oracle[r] = *v;
      if (!v->is_null() && v->AsBool()) {
        expected.push_back(static_cast<int64_t>(r));
      }
    }
    for (const ExecContext* ctx : contexts) {
      Result<Column> col = engine::EvalVectorized(*pred, table, nullptr, ctx);
      ASSERT_TRUE(col.ok()) << col.status().ToString();
      for (size_t r = 0; r < table.num_rows(); ++r) {
        ASSERT_EQ(col->IsValid(r), !oracle[r].is_null())
            << pred->ToString() << " row " << r;
        if (col->IsValid(r)) {
          ASSERT_EQ(col->ValueAt(r).AsBool(), oracle[r].AsBool())
              << pred->ToString() << " row " << r;
        }
      }
      Result<std::vector<int64_t>> sel =
          engine::EvalPredicate(*pred, table, nullptr, ctx);
      ASSERT_TRUE(sel.ok());
      ASSERT_EQ(*sel, expected) << pred->ToString();
    }
  }
}

// A literal on either side of a comparison is the same comparison mirrored,
// including for NaN (which compares equal to everything, as cmp == 0).
TEST(PredicateKernelTest, LiteralOnEitherSideKeepsTheNaNTruthTable) {
  const Table table = *Table::Make(
      Schema({{"x", DataType::kFloat64}}),
      {Column::FromDoubles({kNaN, -0.0, 0.0, 1.0, -1.0})});
  struct Case {
    const char* sql;
    std::vector<int64_t> rows;
  };
  const Case cases[] = {
      {"x = 0", {0, 1, 2}},   {"0 = x", {0, 1, 2}},  {"x <> 0", {3, 4}},
      {"x < 0", {4}},         {"0 > x", {4}},        {"x <= 0", {0, 1, 2, 4}},
      {"0 >= x", {0, 1, 2, 4}}, {"x >= 1", {0, 3}},  {"1 <= x", {0, 3}},
      {"x > -1", {1, 2, 3}},  {"-1 < x", {1, 2, 3}},
  };
  for (const Case& c : cases) {
    ExprPtr e = *engine::ParseExpression(c.sql);
    ASSERT_TRUE(engine::BindExpr(e.get(), table.schema()).ok());
    EXPECT_EQ(*engine::EvalPredicate(*e, table), c.rows) << c.sql;
  }
}

// int64 values compare through double, like the column-column kernel: 2^53
// and 2^53 + 1 are the same double.
TEST(PredicateKernelTest, IntegersCompareThroughDouble) {
  const Table table = *Table::Make(
      Schema({{"k", DataType::kInt64}}),
      {Column::FromInts({k2p53, k2p53 + 1, k2p53 + 2})});
  ExprPtr e = engine::Binary(BinaryOp::kEq, engine::Col("k"),
                             engine::Lit(Value::Int(k2p53 + 1)));
  ASSERT_TRUE(engine::BindExpr(e.get(), table.schema()).ok());
  EXPECT_EQ(*engine::EvalPredicate(*e, table), (std::vector<int64_t>{0, 1}));
}

// --- Group-by keys against a text-key reference -----------------------------

// Exact text of a grouping cell: NULL is its own key, doubles print as hex
// floats with -0.0 folded into 0.0 and every NaN one key.
std::string RefCell(const Column& c, size_t r) {
  if (!c.IsValid(r)) return "null";
  switch (c.type()) {
    case DataType::kInt64:
      return "i" + std::to_string(c.IntAt(r));
    case DataType::kBool:
      return c.BoolAt(r) ? "true" : "false";
    case DataType::kFloat64: {
      double v = c.DoubleAt(r);
      if (std::isnan(v)) return "nan";
      if (v == 0.0) v = 0.0;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%a", v);
      return buf;
    }
    case DataType::kString:
      return "s" + std::to_string(c.StringAt(r).size()) + ":" + c.StringAt(r);
  }
  return "?";
}

struct RefGroup {
  size_t first_row = 0;
  int64_t rows = 0;
  std::set<std::string> distinct;
  int64_t summed = 0;
  double sum = 0.0;
};

// First-seen grouping of `table` by `keys`, with COUNT(*), COUNT(DISTINCT
// v) and SUM(w) per group (the sum in row order).
std::vector<RefGroup> RefGroupBy(const Table& table,
                                 const std::vector<std::string>& keys,
                                 const std::string& v, const std::string& w) {
  std::map<std::string, size_t> index;
  std::vector<RefGroup> groups;
  const Column& vc = **table.ColumnByName(v);
  const Column& wc = **table.ColumnByName(w);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::string key;
    for (const std::string& k : keys) {
      key += RefCell(**table.ColumnByName(k), r) + "|";
    }
    auto [it, inserted] = index.emplace(key, groups.size());
    if (inserted) {
      groups.emplace_back();
      groups.back().first_row = r;
    }
    RefGroup& g = groups[it->second];
    ++g.rows;
    if (vc.IsValid(r)) g.distinct.insert(RefCell(vc, r));
    if (wc.IsValid(r)) {
      ++g.summed;
      g.sum += wc.AsDoubleAt(r);
    }
  }
  return groups;
}

bool SameBits(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  if (a.kind() != Value::Kind::kDouble) return a.ToString() == b.ToString();
  const double x = a.double_value(), y = b.double_value();
  return std::memcmp(&x, &y, sizeof(x)) == 0;
}

TEST(GroupKeyTest, GroupByMatchesTextKeyReference) {
  const Table table = KernelTable(7, 900);
  ThreadPool pool(4);
  ExecContext serial;
  ExecContext parallel;
  parallel.pool = &pool;
  parallel.morsel_size = 100;
  ExecContext small_serial;
  small_serial.morsel_size = 100;
  const std::vector<std::vector<std::string>> key_sets = {
      {"s"}, {"i"}, {"d"}, {"b"}, {"e"}, {"d", "s"}, {"i", "b"},
      {"s", "d", "c"}};
  for (const std::vector<std::string>& keys : key_sets) {
    SCOPED_TRACE(keys.size() == 1 ? keys[0] : keys[0] + "," + keys[1]);
    std::vector<ExprPtr> key_exprs;
    for (const std::string& k : keys) {
      key_exprs.push_back(engine::Col(k));
      ASSERT_TRUE(engine::BindExpr(key_exprs.back().get(), table.schema()).ok());
    }
    std::vector<AggregateSpec> aggs = {
        {AggFunc::kCountStar, nullptr, "n"},
        {AggFunc::kCountDistinct, engine::Col("d"), "nd"},
        {AggFunc::kSum, engine::Col("e"), "sum_e"}};
    for (AggregateSpec& a : aggs) {
      if (a.arg != nullptr) {
        ASSERT_TRUE(engine::BindExpr(a.arg.get(), table.schema()).ok());
      }
    }
    // One morsel: every sum adds its rows in row order, like the reference.
    Result<Table> got = engine::GroupByAggregate(table, key_exprs, keys, aggs,
                                                 nullptr, &serial);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const std::vector<RefGroup> ref = RefGroupBy(table, keys, "d", "e");
    ASSERT_EQ(got->num_rows(), ref.size());
    for (size_t g = 0; g < ref.size(); ++g) {
      for (size_t k = 0; k < keys.size(); ++k) {
        EXPECT_TRUE(SameBits(got->At(g, k),
                             table.At(ref[g].first_row,
                                      static_cast<size_t>(
                                          table.schema().FieldIndex(keys[k])))))
            << "group " << g;
      }
      EXPECT_EQ(got->At(g, keys.size()).int_value(), ref[g].rows);
      EXPECT_EQ(got->At(g, keys.size() + 1).int_value(),
                static_cast<int64_t>(ref[g].distinct.size()));
      const Value sum = got->At(g, keys.size() + 2);
      if (ref[g].summed == 0) {
        EXPECT_TRUE(sum.is_null());
      } else {
        EXPECT_TRUE(SameBits(sum, Value::Double(ref[g].sum))) << "group " << g;
      }
    }
    // Many morsels: the same bytes on 1 thread and on 4.
    Result<Table> one = engine::GroupByAggregate(table, key_exprs, keys, aggs,
                                                 nullptr, &small_serial);
    Result<Table> four = engine::GroupByAggregate(table, key_exprs, keys,
                                                  aggs, nullptr, &parallel);
    ASSERT_TRUE(one.ok() && four.ok());
    EXPECT_EQ(Bytes(*one), Bytes(*four));
    ASSERT_EQ(one->num_rows(), ref.size());
    for (size_t g = 0; g < ref.size(); ++g) {
      EXPECT_EQ(one->At(g, keys.size()).int_value(), ref[g].rows);
    }
  }
}

TEST(GroupKeyTest, DistinctKeepsFirstOccurrenceOfEachTypedKey) {
  const Table table = KernelTable(13, 600);
  for (const std::vector<std::string>& cols :
       std::vector<std::vector<std::string>>{
           {"d"}, {"s"}, {"i"}, {"d", "b"}, {"s", "i", "c"}}) {
    Schema schema;
    std::vector<Column> columns;
    for (const std::string& name : cols) {
      const int idx = table.schema().FieldIndex(name);
      ASSERT_TRUE(
          schema.AddField(table.schema().field(static_cast<size_t>(idx))).ok());
      columns.push_back(table.column(static_cast<size_t>(idx)));
    }
    const Table sub = *Table::Make(std::move(schema), std::move(columns));
    const std::vector<RefGroup> ref = RefGroupBy(sub, cols, cols[0], cols[0]);
    std::vector<int64_t> first_rows;
    for (const RefGroup& g : ref) {
      first_rows.push_back(static_cast<int64_t>(g.first_row));
    }
    EXPECT_EQ(Bytes(engine::Distinct(sub)), Bytes(sub.Take(first_rows)));
  }
}

// --- Double-valued keys: the regression ------------------------------------

// Six keys that agree pairwise to 6 significant digits, plus 0.0 and -0.0:
// five groups, with the zeros folded into one.
const double kDoubleKeys[] = {1.0000001, 1.0000002, 0.0,
                              -0.0,      123456789, 123456700};

Table DoubleKeyShard(size_t begin, size_t end) {
  Column x(DataType::kFloat64);
  Column w(DataType::kInt64);
  for (size_t i = begin; i < end; ++i) {
    x.AppendDouble(kDoubleKeys[i]);
    w.AppendInt(static_cast<int64_t>(i));
  }
  return *Table::Make(
      Schema({{"x", DataType::kFloat64}, {"w", DataType::kInt64}}),
      {std::move(x), std::move(w)});
}

void ExpectFiveDoubleKeys(Database* db, const std::string& table) {
  Result<Table> groups = db->ExecuteSql("SELECT x, COUNT(*) AS n FROM " +
                                        table + " GROUP BY x");
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  EXPECT_EQ(groups->num_rows(), 5u);
  Result<Table> distinct = db->ExecuteSql("SELECT DISTINCT x FROM " + table);
  ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
  EXPECT_EQ(distinct->num_rows(), 5u);
  Result<Table> count = db->ExecuteSql(
      "SELECT COUNT(DISTINCT x) AS n FROM " + table);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->At(0, 0).int_value(), 5);
}

TEST(DoubleKeyTest, GroupByDistinctAndCountDistinctKeepExactDoubles) {
  Database db("local");
  ASSERT_TRUE(db.PutTable("t", DoubleKeyShard(0, 6)).ok());
  ExpectFiveDoubleKeys(&db, "t");
  // The folded group reports its first-seen zero.
  Result<Table> zero = db.ExecuteSql(
      "SELECT x, COUNT(*) AS n FROM t WHERE x = 0 GROUP BY x");
  ASSERT_TRUE(zero.ok());
  ASSERT_EQ(zero->num_rows(), 1u);
  EXPECT_FALSE(std::signbit(zero->At(0, 0).double_value()));
  EXPECT_EQ(zero->At(0, 1).int_value(), 2);
}

TEST(DoubleKeyTest, FederatedOverBusAndTcp) {
  // Two sites, with 0.0 on one and -0.0 on the other.
  federation::MasterNode bus_master;
  ASSERT_TRUE(bus_master.AddWorker("a").ok());
  ASSERT_TRUE(bus_master.AddWorker("b").ok());
  ASSERT_TRUE(bus_master.LoadDataset("a", "keys", DoubleKeyShard(0, 3)).ok());
  ASSERT_TRUE(bus_master.LoadDataset("b", "keys", DoubleKeyShard(3, 6)).ok());
  const std::string view = *bus_master.CreateFederatedView("keys");
  ExpectFiveDoubleKeys(&bus_master.local_db(), view);

  auto functions = std::make_shared<federation::LocalFunctionRegistry>();
  federation::WorkerNode a("a", functions, 1);
  federation::WorkerNode b("b", functions, 2);
  ASSERT_TRUE(a.LoadDataset("keys", DoubleKeyShard(0, 3)).ok());
  ASSERT_TRUE(b.LoadDataset("keys", DoubleKeyShard(3, 6)).ok());
  net::TcpTransport server_a, server_b;
  ASSERT_TRUE(a.AttachToBus(&server_a).ok());
  ASSERT_TRUE(b.AttachToBus(&server_b).ok());
  ASSERT_TRUE(server_a.Listen(0).ok());
  ASSERT_TRUE(server_b.Listen(0).ok());
  net::TcpTransport client;
  client.AddPeer("a", "127.0.0.1", server_a.port());
  client.AddPeer("b", "127.0.0.1", server_b.port());
  federation::MasterNode tcp_master;
  tcp_master.set_transport(&client);
  ASSERT_TRUE(tcp_master.AddRemoteWorker("a", {"keys"}).ok());
  ASSERT_TRUE(tcp_master.AddRemoteWorker("b", {"keys"}).ok());
  ExpectFiveDoubleKeys(&tcp_master.local_db(),
                       *tcp_master.CreateFederatedView("keys"));
  EXPECT_GT(client.stats().bytes, 0u);
  client.Shutdown();
  server_a.Shutdown();
  server_b.Shutdown();
}


// --- Aggregate accumulators against the per-row streaming oracle ----------

// The per-row aggregate state the engine used before its per-function
// accumulators, kept verbatim (COUNT(DISTINCT) keys are RefCell text) as
// the oracle every output cell must equal bit for bit.
struct OracleState {
  int64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double m2 = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  Value min_value;
  Value max_value;
  std::set<std::string> distinct;

  void Add(const Value& v) {
    if (v.is_null()) return;
    ++count;
    if (v.kind() == Value::Kind::kString) {
      if (min_value.is_null() ||
          v.string_value() < min_value.string_value()) {
        min_value = v;
      }
      if (max_value.is_null() ||
          v.string_value() > max_value.string_value()) {
        max_value = v;
      }
      return;
    }
    AddNumeric(v.AsDouble(), v);
  }
  void AddDouble(double x) { ++count; AddNumeric(x, Value::Double(x)); }
  void AddInt(int64_t v) {
    ++count;
    AddNumeric(static_cast<double>(v), Value::Int(v));
  }
  void AddDistinct(std::string key) {
    ++count;
    distinct.insert(std::move(key));
  }

  void Merge(const OracleState& o) {
    if (o.count == 0) return;
    if (count == 0) {
      *this = o;
      return;
    }
    distinct.insert(o.distinct.begin(), o.distinct.end());
    if (!o.min_value.is_null() &&
        o.min_value.kind() == Value::Kind::kString) {
      if (min_value.is_null() ||
          o.min_value.string_value() < min_value.string_value()) {
        min_value = o.min_value;
      }
      if (max_value.is_null() ||
          o.max_value.string_value() > max_value.string_value()) {
        max_value = o.max_value;
      }
    } else {
      if (o.min < min) {
        min = o.min;
        min_value = o.min_value;
      }
      if (o.max > max) {
        max = o.max;
        max_value = o.max_value;
      }
    }
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
        return count > 0 ? Value::Double(sum) : Value::Null();
      case AggFunc::kAvg:
        return count > 0 ? Value::Double(mean) : Value::Null();
      case AggFunc::kMin:
        return min_value;
      case AggFunc::kMax:
        return max_value;
      case AggFunc::kVarSamp:
        return count > 1 ? Value::Double(m2 / static_cast<double>(count - 1))
                         : Value::Null();
      case AggFunc::kStddevSamp:
        return count > 1 ? Value::Double(std::sqrt(
                               m2 / static_cast<double>(count - 1)))
                         : Value::Null();
    }
    return Value::Null();
  }

 private:
  void AddNumeric(double x, const Value& v) {
    sum += x;
    const double delta = x - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (x - mean);
    if (x < min) {
      min = x;
      min_value = v;
    }
    if (x > max) {
      max = x;
      max_value = v;
    }
  }
};

void OracleAddRow(const Column& col, size_t r, AggFunc func,
                  OracleState* state) {
  if (!col.IsValid(r)) return;
  if (func == AggFunc::kCountDistinct) {
    state->AddDistinct(RefCell(col, r));
    return;
  }
  switch (col.type()) {
    case DataType::kFloat64:
      state->AddDouble(col.DoubleAt(r));
      return;
    case DataType::kInt64:
      state->AddInt(col.IntAt(r));
      return;
    default:
      state->Add(col.ValueAt(r));
      return;
  }
}

// The oracle's output rows: groups in first-seen order (RefCell keys,
// which the GroupKeyTest above pins to the engine's typed keys), the key
// cells of each group's first row, then one cell per aggregate. Each
// group's state per morsel streams that morsel's rows in row order, and
// the partials merge in morsel order — the engine's documented merge tree.
std::vector<std::vector<Value>> OracleAggregate(
    const Table& table, const std::vector<std::string>& keys,
    const std::vector<std::pair<AggFunc, std::string>>& aggs,
    size_t morsel_size) {
  const size_t n = table.num_rows();
  std::vector<const Column*> key_cols;
  for (const std::string& k : keys) key_cols.push_back(*table.ColumnByName(k));
  std::vector<const Column*> arg_cols;
  for (const auto& a : aggs) {
    arg_cols.push_back(a.second.empty() ? nullptr
                                        : *table.ColumnByName(a.second));
  }
  struct OracleGroup {
    size_t first_row = 0;
    int64_t rows = 0;
    std::vector<OracleState> states;   // merged over finished morsels
    std::vector<OracleState> partial;  // the current morsel's
  };
  std::map<std::string, size_t> index;
  std::vector<OracleGroup> groups;
  auto flush_partials = [&] {
    for (OracleGroup& g : groups) {
      for (size_t i = 0; i < aggs.size(); ++i) {
        g.states[i].Merge(g.partial[i]);
        g.partial[i] = OracleState();
      }
    }
  };
  for (size_t r = 0; r < n; ++r) {
    if (r > 0 && r % morsel_size == 0) flush_partials();
    std::string key;
    for (const Column* c : key_cols) key += RefCell(*c, r) + "|";
    auto [it, inserted] = index.emplace(key, groups.size());
    if (inserted) {
      OracleGroup g;
      g.first_row = r;
      g.states.resize(aggs.size());
      g.partial.resize(aggs.size());
      groups.push_back(std::move(g));
    }
    OracleGroup& g = groups[it->second];
    ++g.rows;
    for (size_t i = 0; i < aggs.size(); ++i) {
      if (arg_cols[i] != nullptr) {
        OracleAddRow(*arg_cols[i], r, aggs[i].first, &g.partial[i]);
      }
    }
  }
  flush_partials();
  if (keys.empty() && groups.empty()) {  // an empty table still has a row
    groups.push_back(OracleGroup{0, 0, std::vector<OracleState>(aggs.size()),
                                 {}});
  }
  std::vector<std::vector<Value>> out;
  for (const OracleGroup& g : groups) {
    std::vector<Value> row;
    for (const Column* c : key_cols) row.push_back(c->ValueAt(g.first_row));
    for (size_t i = 0; i < aggs.size(); ++i) {
      row.push_back(g.states[i].Finish(aggs[i].first, g.rows));
    }
    out.push_back(std::move(row));
  }
  return out;
}

// Columns for the accumulators: `g` a 7-value int key whose group 5 holds
// only NaN in `d` and group 6 only +inf (MIN of +inf alone is NULL, as it
// always was), `k` a string key, `d` doubles with NaN, +-0.0 and +-inf,
// `i` int64 at +-2^53+-1 and the extremes, `b` bools, `s` strings, the
// same four as no-null `e`/`j`/`c`/`t`, and `z`/`y` all NULL.
Table AccumulatorTable(uint64_t seed, size_t rows) {
  Rng rng(seed);
  const double kInf = std::numeric_limits<double>::infinity();
  const double doubles[] = {0.0,  -0.0,  kNaN, kInf, -kInf, 1.5,
                            -2.25, 1e300, 9007199254740992.0, 1.0000001};
  const int64_t ints[] = {0,
                          -1,
                          7,
                          k2p53 - 1,
                          k2p53,
                          k2p53 + 1,
                          -k2p53 - 1,
                          -k2p53 + 1,
                          std::numeric_limits<int64_t>::max(),
                          std::numeric_limits<int64_t>::min()};
  const char* strings[] = {"", "a", "ab", "b", "AD", "CN", "MCI"};
  Column g(DataType::kInt64), k(DataType::kString), d(DataType::kFloat64),
      i(DataType::kInt64), b(DataType::kBool), s(DataType::kString),
      e(DataType::kFloat64), j(DataType::kInt64), c(DataType::kBool),
      t(DataType::kString), z(DataType::kFloat64), y(DataType::kString);
  for (size_t r = 0; r < rows; ++r) {
    auto null = [&rng] { return rng.NextBounded(6) == 0; };
    const int64_t key = static_cast<int64_t>(rng.NextBounded(7));
    g.AppendInt(key);
    k.AppendString(strings[rng.NextBounded(3)]);
    const double dv = key == 5   ? kNaN
                      : key == 6 ? kInf
                                 : doubles[rng.NextBounded(10)];
    if (null()) d.AppendNull(); else d.AppendDouble(dv);
    if (null()) i.AppendNull(); else i.AppendInt(ints[rng.NextBounded(10)]);
    if (null()) b.AppendNull(); else b.AppendBool(rng.NextBounded(2) == 1);
    if (null()) s.AppendNull(); else s.AppendString(strings[rng.NextBounded(7)]);
    e.AppendDouble(key == 5 ? kNaN : doubles[rng.NextBounded(10)]);
    j.AppendInt(ints[rng.NextBounded(10)]);
    c.AppendBool(rng.NextBounded(2) == 1);
    t.AppendString(strings[rng.NextBounded(7)]);
    z.AppendNull();
    y.AppendNull();
  }
  Schema schema;
  for (const auto& [name, type] :
       std::vector<std::pair<std::string, DataType>>{
           {"g", DataType::kInt64},   {"k", DataType::kString},
           {"d", DataType::kFloat64}, {"i", DataType::kInt64},
           {"b", DataType::kBool},    {"s", DataType::kString},
           {"e", DataType::kFloat64}, {"j", DataType::kInt64},
           {"c", DataType::kBool},    {"t", DataType::kString},
           {"z", DataType::kFloat64}, {"y", DataType::kString}}) {
    EXPECT_TRUE(schema.AddField({name, type}).ok());
  }
  return *Table::Make(std::move(schema), {g, k, d, i, b, s, e, j, c, t, z, y});
}

// SameBits, except that any two NaNs match. Which NaN a sum yields once
// +inf + -inf meets a stored NaN is whichever operand the compiler puts
// first in a commutative add: the oracle below gives nan at -O2 and -nan
// at -O3. No C++ source pins that bit, so the oracle pins NaN-ness only.
bool SameCell(const Value& a, const Value& b) {
  if (a.kind() == Value::Kind::kDouble && b.kind() == Value::Kind::kDouble &&
      std::isnan(a.double_value()) && std::isnan(b.double_value())) {
    return true;
  }
  return SameBits(a, b);
}

TEST(AccumulatorTest, EveryFunctionMatchesPerRowOracleBitForBit) {
  const Table table = AccumulatorTable(2027, 500);
  const AggFunc funcs[] = {AggFunc::kCount,  AggFunc::kCountDistinct,
                           AggFunc::kSum,    AggFunc::kAvg,
                           AggFunc::kMin,    AggFunc::kMax,
                           AggFunc::kVarSamp, AggFunc::kStddevSamp};
  std::vector<std::pair<AggFunc, std::string>> agg_list = {
      {AggFunc::kCountStar, ""}};
  for (const char* col : {"d", "i", "b", "s", "e", "j", "c", "t", "z", "y"}) {
    for (AggFunc f : funcs) agg_list.emplace_back(f, col);
  }
  std::vector<AggregateSpec> aggs;
  for (size_t a = 0; a < agg_list.size(); ++a) {
    AggregateSpec spec;
    spec.func = agg_list[a].first;
    spec.output_name = "a" + std::to_string(a);
    if (!agg_list[a].second.empty()) {
      spec.arg = engine::Col(agg_list[a].second);
      EXPECT_TRUE(engine::BindExpr(spec.arg.get(), table.schema()).ok());
    }
    aggs.push_back(std::move(spec));
  }
  ThreadPool pool(8);
  for (const std::vector<std::string>& keys :
       std::vector<std::vector<std::string>>{{}, {"g"}, {"k"}, {"g", "b"}}) {
    std::vector<ExprPtr> key_exprs;
    for (const std::string& key : keys) {
      key_exprs.push_back(engine::Col(key));
      ASSERT_TRUE(engine::BindExpr(key_exprs.back().get(), table.schema()).ok());
    }
    for (size_t morsel : {size_t{1}, size_t{7}, size_t{65536}}) {
      const std::vector<std::vector<Value>> want =
          OracleAggregate(table, keys, agg_list, morsel);
      for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &pool}) {
        SCOPED_TRACE("keys " + std::to_string(keys.size()) + " morsel " +
                     std::to_string(morsel) +
                     (threads != nullptr ? " 8 threads" : " 1 thread"));
        ExecContext ctx;
        ctx.pool = threads;
        ctx.morsel_size = morsel;
        Result<Table> got = engine::GroupByAggregate(table, key_exprs, keys,
                                                     aggs, nullptr, &ctx);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(got->num_rows(), want.size());
        size_t mismatches = 0;
        for (size_t row = 0; row < want.size(); ++row) {
          ASSERT_EQ(got->num_columns(), want[row].size());
          for (size_t col = 0; col < want[row].size(); ++col) {
            const Value cell = got->At(row, col);
            if (!SameCell(cell, want[row][col])) {
              ADD_FAILURE() << "row " << row << " column "
                            << got->schema().field(col).name << " got "
                            << cell.ToString() << " want "
                            << want[row][col].ToString();
              if (++mismatches >= 10) return;
            }
          }
        }
      }
    }
  }
}

TEST(AccumulatorTest, EmptyTableAggregatesLikeTheOracle) {
  const Table table = AccumulatorTable(5, 0);
  std::vector<std::pair<AggFunc, std::string>> agg_list = {
      {AggFunc::kCountStar, ""}, {AggFunc::kCount, "d"},
      {AggFunc::kSum, "i"},      {AggFunc::kMin, "s"},
      {AggFunc::kMax, "b"},      {AggFunc::kVarSamp, "e"}};
  std::vector<AggregateSpec> aggs;
  for (size_t a = 0; a < agg_list.size(); ++a) {
    AggregateSpec spec;
    spec.func = agg_list[a].first;
    spec.output_name = "a" + std::to_string(a);
    if (!agg_list[a].second.empty()) {
      spec.arg = engine::Col(agg_list[a].second);
      EXPECT_TRUE(engine::BindExpr(spec.arg.get(), table.schema()).ok());
    }
    aggs.push_back(std::move(spec));
  }
  Result<Table> got = engine::AggregateAll(table, aggs);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const std::vector<std::vector<Value>> want =
      OracleAggregate(table, {}, agg_list, ExecContext::kDefaultMorselSize);
  ASSERT_EQ(got->num_rows(), 1u);
  for (size_t col = 0; col < want[0].size(); ++col) {
    EXPECT_TRUE(SameCell(got->At(0, col), want[0][col])) << "column " << col;
  }
}

TEST(AccumulatorTest, NaNResultsAreOneCanonicalQuietNaN) {
  // +inf + -inf makes the negative default NaN; which NaN survives its add
  // with a stored NaN is up to code generation. Finish folds every NaN
  // result into one quiet NaN, so the answer bytes are pinned.
  const Value canonical = Value::Double(kNaN);
  const double inf = std::numeric_limits<double>::infinity();
  const double values[] = {inf, -inf, kNaN};
  std::vector<int> order = {0, 1, 2};
  const AggFunc funcs[] = {AggFunc::kSum, AggFunc::kAvg, AggFunc::kVarSamp,
                           AggFunc::kStddevSamp};
  ThreadPool pool(8);
  int orders = 0;
  do {
    ++orders;
    Schema schema;
    ASSERT_TRUE(schema.AddField({"g", DataType::kInt64}).ok());
    ASSERT_TRUE(schema.AddField({"d", DataType::kFloat64}).ok());
    const Table table = *Table::Make(
        std::move(schema),
        {Column::FromInts({1, 1, 1}),
         Column::FromDoubles({values[order[0]], values[order[1]],
                              values[order[2]]})});
    std::vector<AggregateSpec> aggs;
    for (AggFunc f : funcs) {
      AggregateSpec spec;
      spec.func = f;
      spec.output_name = "a" + std::to_string(aggs.size());
      spec.arg = engine::Col("d");
      ASSERT_TRUE(engine::BindExpr(spec.arg.get(), table.schema()).ok());
      aggs.push_back(std::move(spec));
    }
    for (const std::vector<std::string>& keys :
         std::vector<std::vector<std::string>>{{}, {"g"}}) {
      std::vector<ExprPtr> key_exprs;
      for (const std::string& key : keys) {
        key_exprs.push_back(engine::Col(key));
        ASSERT_TRUE(
            engine::BindExpr(key_exprs.back().get(), table.schema()).ok());
      }
      for (size_t morsel : {size_t{1}, size_t{7}}) {
        for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &pool}) {
          SCOPED_TRACE("order " + std::to_string(orders) + " keys " +
                       std::to_string(keys.size()) + " morsel " +
                       std::to_string(morsel) +
                       (threads != nullptr ? " 8 threads" : " 1 thread"));
          ExecContext ctx;
          ctx.pool = threads;
          ctx.morsel_size = morsel;
          Result<Table> got = engine::GroupByAggregate(table, key_exprs, keys,
                                                       aggs, nullptr, &ctx);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_EQ(got->num_rows(), 1u);
          for (size_t a = 0; a < aggs.size(); ++a) {
            const Value cell = got->At(0, keys.size() + a);
            EXPECT_TRUE(SameBits(cell, canonical))
                << "aggregate " << a << " gave " << cell.ToString();
          }
        }
      }
    }
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(orders, 6);
}

}  // namespace
}  // namespace mip
