#include <gtest/gtest.h>

#include <cmath>

#include "engine/bitmap.h"
#include "engine/column.h"
#include "engine/expr.h"
#include "engine/operators.h"
#include "engine/table.h"
#include "engine/value.h"

namespace mip::engine {
namespace {

TEST(ValueTest, KindsAndCoercions) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(7).AsDouble(), 7.0);
  EXPECT_EQ(Value::Double(2.5).AsInt(), 2);
  EXPECT_EQ(Value::Bool(true).AsDouble(), 1.0);
  EXPECT_TRUE(std::isnan(Value::Null().AsDouble()));
  EXPECT_FALSE(Value::Null().AsBool());
  EXPECT_TRUE(Value::String("x").AsBool());
  EXPECT_FALSE(Value::String("").AsBool());
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(-3).ToString(), "-3");
  EXPECT_EQ(Value::String("hi").ToSqlString(), "'hi'");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
}

TEST(ValueTest, Equality) {
  EXPECT_TRUE(Value::Int(3).Equals(Value::Double(3.0)));
  EXPECT_FALSE(Value::Int(3).Equals(Value::Double(3.5)));
  EXPECT_TRUE(Value::Null().Equals(Value::Null()));
  EXPECT_FALSE(Value::Null().Equals(Value::Int(0)));
  EXPECT_TRUE(Value::String("a").Equals(Value::String("a")));
}

TEST(BitmapTest, SetGetCount) {
  Bitmap bm(130, true);
  EXPECT_EQ(bm.CountSet(), 130u);
  EXPECT_TRUE(bm.AllSet());
  bm.Set(0, false);
  bm.Set(64, false);
  bm.Set(129, false);
  EXPECT_EQ(bm.CountSet(), 127u);
  EXPECT_FALSE(bm.Get(64));
  EXPECT_TRUE(bm.Get(65));
}

TEST(BitmapTest, AppendAndAnd) {
  Bitmap a;
  Bitmap b;
  for (int i = 0; i < 70; ++i) {
    a.Append(i % 2 == 0);
    b.Append(i % 3 == 0);
  }
  Bitmap c = Bitmap::And(a, b);
  for (int i = 0; i < 70; ++i) {
    EXPECT_EQ(c.Get(i), i % 6 == 0) << i;
  }
}

TEST(BitmapTest, AppendBitsMatchesBitByBitAtEveryAlignment) {
  for (size_t head = 0; head < 130; head += 7) {
    for (size_t tail = 0; tail < 200; tail += 13) {
      Bitmap bulk(head, true);
      Bitmap other;
      for (size_t i = 0; i < tail; ++i) other.Append(i % 5 != 2);
      Bitmap want = bulk;
      for (size_t i = 0; i < tail; ++i) want.Append(other.Get(i));
      bulk.AppendBits(other);
      ASSERT_EQ(bulk.length(), want.length());
      EXPECT_EQ(bulk.words(), want.words()) << head << "+" << tail;
      EXPECT_EQ(bulk.CountSet(), want.CountSet());
    }
  }
}

TEST(ColumnTest, TypedAppendAndAccess) {
  Column c(DataType::kFloat64);
  c.AppendDouble(1.5);
  c.AppendNull();
  c.AppendDouble(-2.0);
  EXPECT_EQ(c.length(), 3u);
  EXPECT_EQ(c.null_count(), 1u);
  EXPECT_TRUE(c.IsValid(0));
  EXPECT_FALSE(c.IsValid(1));
  EXPECT_EQ(c.DoubleAt(0), 1.5);
  EXPECT_TRUE(std::isnan(c.AsDoubleAt(1)));
  EXPECT_TRUE(c.ValueAt(1).is_null());
}

TEST(ColumnTest, NoValidityUntilFirstNull) {
  Column c(DataType::kInt64);
  c.AppendInt(1);
  c.AppendInt(2);
  EXPECT_FALSE(c.has_validity());
  c.AppendNull();
  EXPECT_TRUE(c.has_validity());
  EXPECT_TRUE(c.IsValid(0));
  EXPECT_FALSE(c.IsValid(2));
}

TEST(ColumnTest, TakeAndSlice) {
  Column c = Column::FromInts({10, 20, 30, 40});
  Column t = c.Take({3, 1});
  EXPECT_EQ(t.length(), 2u);
  EXPECT_EQ(t.IntAt(0), 40);
  EXPECT_EQ(t.IntAt(1), 20);
  Column s = c.Slice(1, 2);
  EXPECT_EQ(s.IntAt(0), 20);
  EXPECT_EQ(s.IntAt(1), 30);
}

TEST(ColumnTest, AppendValueTypeChecks) {
  Column c(DataType::kInt64);
  EXPECT_TRUE(c.AppendValue(Value::Int(1)).ok());
  EXPECT_TRUE(c.AppendValue(Value::Double(2.9)).ok());  // truncates
  EXPECT_EQ(c.IntAt(1), 2);
  EXPECT_FALSE(c.AppendValue(Value::String("x")).ok());
}

TEST(ColumnTest, NonNullDoubles) {
  Column c(DataType::kFloat64);
  c.AppendDouble(1.0);
  c.AppendNull();
  c.AppendDouble(3.0);
  EXPECT_EQ(c.NonNullDoubles(), (std::vector<double>{1.0, 3.0}));
}

Table MakeTestTable() {
  Schema schema;
  EXPECT_TRUE(schema.AddField({"id", DataType::kInt64}).ok());
  EXPECT_TRUE(schema.AddField({"value", DataType::kFloat64}).ok());
  EXPECT_TRUE(schema.AddField({"group", DataType::kString}).ok());
  Table t = Table::Empty(schema);
  EXPECT_TRUE(t.AppendRow({Value::Int(1), Value::Double(10), Value::String("a")}).ok());
  EXPECT_TRUE(t.AppendRow({Value::Int(2), Value::Double(20), Value::String("b")}).ok());
  EXPECT_TRUE(t.AppendRow({Value::Int(3), Value::Null(), Value::String("a")}).ok());
  EXPECT_TRUE(t.AppendRow({Value::Int(4), Value::Double(40), Value::String("b")}).ok());
  return t;
}

TEST(TableTest, SchemaLookup) {
  Table t = MakeTestTable();
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.schema().FieldIndex("VALUE"), 1);  // case-insensitive
  EXPECT_EQ(t.schema().FieldIndex("nope"), -1);
  EXPECT_TRUE(t.ColumnByName("group").ok());
  EXPECT_FALSE(t.ColumnByName("nope").ok());
}

TEST(TableTest, MakeValidation) {
  Schema schema;
  ASSERT_TRUE(schema.AddField({"a", DataType::kInt64}).ok());
  EXPECT_FALSE(Table::Make(schema, {}).ok());  // column count mismatch
  EXPECT_FALSE(
      Table::Make(schema, {Column(DataType::kFloat64)}).ok());  // type
  EXPECT_TRUE(Table::Make(schema, {Column::FromInts({1, 2})}).ok());
}

TEST(TableTest, DuplicateFieldRejected) {
  Schema schema;
  EXPECT_TRUE(schema.AddField({"x", DataType::kInt64}).ok());
  EXPECT_FALSE(schema.AddField({"X", DataType::kFloat64}).ok());
}

TEST(TableTest, ConcatChecksSchema) {
  Table a = MakeTestTable();
  Table b = MakeTestTable();
  Table c = *Table::Concat({a, b});
  EXPECT_EQ(c.num_rows(), 8u);
  Schema other;
  ASSERT_TRUE(other.AddField({"id", DataType::kFloat64}).ok());
  Table bad = Table::Empty(other);
  EXPECT_FALSE(Table::Concat({a, bad}).ok());
}

TEST(TableTest, SerializationRoundTrip) {
  Table t = MakeTestTable();
  BufferWriter w;
  SerializeTable(t, &w);
  BufferReader r(w.bytes());
  Table back = *DeserializeTable(&r);
  ASSERT_EQ(back.num_rows(), t.num_rows());
  ASSERT_EQ(back.num_columns(), t.num_columns());
  for (size_t row = 0; row < t.num_rows(); ++row) {
    for (size_t col = 0; col < t.num_columns(); ++col) {
      EXPECT_TRUE(back.At(row, col).Equals(t.At(row, col)))
          << "row " << row << " col " << col;
    }
  }
}

TEST(ExprTest, BindResolvesTypes) {
  Table t = MakeTestTable();
  ExprPtr e = Add(Col("id"), Col("value"));
  ASSERT_TRUE(BindExpr(e.get(), t.schema()).ok());
  EXPECT_EQ(e->result_type, DataType::kFloat64);

  ExprPtr cmp = Gt(Col("value"), LitDouble(15.0));
  ASSERT_TRUE(BindExpr(cmp.get(), t.schema()).ok());
  EXPECT_EQ(cmp->result_type, DataType::kBool);

  ExprPtr ints = Mul(Col("id"), LitInt(2));
  ASSERT_TRUE(BindExpr(ints.get(), t.schema()).ok());
  EXPECT_EQ(ints->result_type, DataType::kInt64);
}

TEST(ExprTest, BindErrors) {
  Table t = MakeTestTable();
  ExprPtr unknown = Col("missing");
  EXPECT_FALSE(BindExpr(unknown.get(), t.schema()).ok());
  ExprPtr bad_arith = Add(Col("group"), LitInt(1));
  EXPECT_FALSE(BindExpr(bad_arith.get(), t.schema()).ok());
  ExprPtr bad_cmp = Eq(Col("group"), LitInt(1));
  EXPECT_FALSE(BindExpr(bad_cmp.get(), t.schema()).ok());
  ExprPtr bad_fn = Call("nosuchfn", {Col("id")});
  EXPECT_FALSE(BindExpr(bad_fn.get(), t.schema()).ok());
  ExprPtr bad_arity = Call("sqrt", {Col("id"), Col("id")});
  EXPECT_FALSE(BindExpr(bad_arity.get(), t.schema()).ok());
}

TEST(ExprTest, ToStringCanonicalForm) {
  ExprPtr e = Add(Col("A"), Mul(LitInt(2), Col("b")));
  EXPECT_EQ(e->ToString(), "(a + (2 * b))");
  EXPECT_TRUE(Aggregate(AggFunc::kSum, Col("x"))->ContainsAggregate());
  EXPECT_FALSE(e->ContainsAggregate());
}

TEST(OperatorsTest, FilterKeepsTrueRows) {
  Table t = MakeTestTable();
  ExprPtr pred = Gt(Col("value"), LitDouble(15.0));
  ASSERT_TRUE(BindExpr(pred.get(), t.schema()).ok());
  Table out = *Filter(t, *pred);
  // Row with NULL value is dropped (NULL predicate is not true).
  EXPECT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.At(0, 0).int_value(), 2);
  EXPECT_EQ(out.At(1, 0).int_value(), 4);
}

TEST(OperatorsTest, ProjectComputesExpressions) {
  Table t = MakeTestTable();
  ExprPtr doubled = Mul(Col("value"), LitDouble(2.0));
  ASSERT_TRUE(BindExpr(doubled.get(), t.schema()).ok());
  Table out = *Project(t, {doubled}, {"twice"});
  EXPECT_EQ(out.schema().field(0).name, "twice");
  EXPECT_EQ(out.At(0, 0).AsDouble(), 20.0);
  EXPECT_TRUE(out.At(2, 0).is_null());  // NULL propagates
}

TEST(OperatorsTest, AggregateAllIgnoresNulls) {
  Table t = MakeTestTable();
  AggregateSpec count_spec{AggFunc::kCount, Col("value"), "cnt"};
  AggregateSpec sum_spec{AggFunc::kSum, Col("value"), "total"};
  AggregateSpec star{AggFunc::kCountStar, nullptr, "rows"};
  ASSERT_TRUE(BindExpr(count_spec.arg.get(), t.schema()).ok());
  ASSERT_TRUE(BindExpr(sum_spec.arg.get(), t.schema()).ok());
  Table out = *AggregateAll(t, {count_spec, sum_spec, star});
  EXPECT_EQ(out.At(0, 0).int_value(), 3);   // count skips NULL
  EXPECT_EQ(out.At(0, 1).AsDouble(), 70.0);
  EXPECT_EQ(out.At(0, 2).int_value(), 4);   // count(*) counts all rows
}

TEST(OperatorsTest, GroupByAggregate) {
  Table t = MakeTestTable();
  ExprPtr key = Col("group");
  ASSERT_TRUE(BindExpr(key.get(), t.schema()).ok());
  AggregateSpec avg_spec{AggFunc::kAvg, Col("value"), "mean_v"};
  ASSERT_TRUE(BindExpr(avg_spec.arg.get(), t.schema()).ok());
  Table out = *GroupByAggregate(t, {key}, {"grp"}, {avg_spec});
  ASSERT_EQ(out.num_rows(), 2u);
  // Groups appear in first-seen order: a then b.
  EXPECT_EQ(out.At(0, 0).string_value(), "a");
  EXPECT_EQ(out.At(0, 1).AsDouble(), 10.0);  // NULL skipped
  EXPECT_EQ(out.At(1, 0).string_value(), "b");
  EXPECT_EQ(out.At(1, 1).AsDouble(), 30.0);
}

TEST(OperatorsTest, MinMaxVarStddev) {
  Table t = MakeTestTable();
  AggregateSpec min_spec{AggFunc::kMin, Col("value"), "lo"};
  AggregateSpec max_spec{AggFunc::kMax, Col("value"), "hi"};
  AggregateSpec var_spec{AggFunc::kVarSamp, Col("value"), "var"};
  AggregateSpec sd_spec{AggFunc::kStddevSamp, Col("value"), "sd"};
  for (auto* s : {&min_spec, &max_spec, &var_spec, &sd_spec}) {
    ASSERT_TRUE(BindExpr(s->arg.get(), t.schema()).ok());
  }
  Table out = *AggregateAll(t, {min_spec, max_spec, var_spec, sd_spec});
  EXPECT_EQ(out.At(0, 0).AsDouble(), 10.0);
  EXPECT_EQ(out.At(0, 1).AsDouble(), 40.0);
  EXPECT_NEAR(out.At(0, 2).AsDouble(), 233.3333333, 1e-6);
  EXPECT_NEAR(out.At(0, 3).AsDouble(), std::sqrt(233.3333333), 1e-6);
}

TEST(OperatorsTest, SortByWithNullsLast) {
  Table t = MakeTestTable();
  Table out = *SortBy(t, {"value"}, {false});  // descending
  EXPECT_EQ(out.At(0, 1).AsDouble(), 40.0);
  EXPECT_EQ(out.At(1, 1).AsDouble(), 20.0);
  EXPECT_EQ(out.At(2, 1).AsDouble(), 10.0);
  EXPECT_TRUE(out.At(3, 1).is_null());  // NULL last regardless of direction
}

TEST(OperatorsTest, HashJoinInnerAndLeft) {
  Table left = MakeTestTable();
  Schema rs;
  ASSERT_TRUE(rs.AddField({"gid", DataType::kString}).ok());
  ASSERT_TRUE(rs.AddField({"label", DataType::kString}).ok());
  Table right = Table::Empty(rs);
  ASSERT_TRUE(right.AppendRow({Value::String("a"), Value::String("alpha")}).ok());

  Table inner = *HashJoin(left, right, "group", "gid", JoinType::kInner);
  EXPECT_EQ(inner.num_rows(), 2u);  // two "a" rows
  EXPECT_EQ(inner.At(0, 4).string_value(), "alpha");

  Table louter = *HashJoin(left, right, "group", "gid", JoinType::kLeft);
  EXPECT_EQ(louter.num_rows(), 4u);
  // "b" rows have NULL right side.
  bool found_null = false;
  for (size_t r = 0; r < louter.num_rows(); ++r) {
    if (louter.At(r, 2).string_value() == "b") {
      EXPECT_TRUE(louter.At(r, 4).is_null());
      found_null = true;
    }
  }
  EXPECT_TRUE(found_null);
}

TEST(OperatorsTest, LimitAndOffset) {
  Table t = MakeTestTable();
  EXPECT_EQ(Limit(t, 2).num_rows(), 2u);
  EXPECT_EQ(Limit(t, 10).num_rows(), 4u);
  Table page = Limit(t, 2, 3);
  EXPECT_EQ(page.num_rows(), 1u);
  EXPECT_EQ(page.At(0, 0).int_value(), 4);
}

}  // namespace
}  // namespace mip::engine
