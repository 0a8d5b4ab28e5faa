#include <gtest/gtest.h>

#include <cmath>

#include "engine/database.h"
#include "engine/sql_lexer.h"
#include "engine/sql_parser.h"
#include "database_site.h"

namespace mip::engine {
namespace {

TEST(LexerTest, TokenKinds) {
  auto tokens = *LexSql("SELECT x1, 'it''s' FROM t WHERE a >= 3.5e2 -- end");
  ASSERT_GE(tokens.size(), 9u);
  EXPECT_TRUE(tokens[0].IsKeyword("select"));
  EXPECT_EQ(tokens[1].text, "x1");
  EXPECT_TRUE(tokens[2].IsSymbol(","));
  EXPECT_EQ(tokens[3].type, TokenType::kString);
  EXPECT_EQ(tokens[3].text, "it's");
  EXPECT_TRUE(tokens[4].IsKeyword("from"));
  EXPECT_TRUE(tokens[8].IsSymbol(">="));
  EXPECT_EQ(tokens[9].type, TokenType::kFloat);
  EXPECT_EQ(tokens.back().type, TokenType::kEnd);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(LexSql("SELECT 'unterminated").ok());
  EXPECT_FALSE(LexSql("SELECT #").ok());
}

TEST(ParserTest, SelectStructure) {
  SqlStatement stmt = *ParseSql(
      "SELECT g, avg(v) AS mean_v FROM t WHERE v > 0 GROUP BY g "
      "HAVING count(*) > 2 ORDER BY mean_v DESC LIMIT 5");
  auto* select = std::get_if<SelectStmt>(&stmt);
  ASSERT_NE(select, nullptr);
  EXPECT_EQ(select->items.size(), 2u);
  EXPECT_EQ(select->items[1].alias, "mean_v");
  EXPECT_NE(select->where, nullptr);
  EXPECT_EQ(select->group_by.size(), 1u);
  EXPECT_NE(select->having, nullptr);
  ASSERT_EQ(select->order_by.size(), 1u);
  EXPECT_FALSE(select->order_by[0].ascending);
  EXPECT_EQ(select->limit, 5);
}

TEST(ParserTest, OperatorPrecedence) {
  ExprPtr e = *ParseExpression("1 + 2 * 3 < 10 and not false");
  // ((1 + (2 * 3)) < 10) and (not false)
  EXPECT_EQ(e->ToString(), "(((1 + (2 * 3)) < 10) and (not false))");
}

TEST(ParserTest, IsNullAndUnaryMinus) {
  EXPECT_EQ((*ParseExpression("x is null"))->ToString(), "(x is null)");
  EXPECT_EQ((*ParseExpression("x is not null"))->ToString(),
            "(x is not null)");
  EXPECT_EQ((*ParseExpression("-3"))->ToString(), "-3");  // folded literal
  EXPECT_EQ((*ParseExpression("-x"))->ToString(), "(-x)");
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseSql("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM").ok());
  EXPECT_FALSE(ParseSql("FOO BAR").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM t extra").ok());
  EXPECT_FALSE(ParseExpression("1 +").ok());
  EXPECT_FALSE(ParseExpression("(1").ok());
}

TEST(ParserTest, CreateInsertDrop) {
  SqlStatement create = *ParseSql(
      "CREATE TABLE pat (id bigint, vol double, dx varchar(16))");
  auto* ct = std::get_if<CreateTableStmt>(&create);
  ASSERT_NE(ct, nullptr);
  EXPECT_EQ(ct->fields.size(), 3u);
  EXPECT_EQ(ct->fields[1].type, DataType::kFloat64);
  EXPECT_EQ(ct->fields[2].type, DataType::kString);

  SqlStatement insert =
      *ParseSql("INSERT INTO pat VALUES (1, -2.5, 'AD'), (2, NULL, 'CN')");
  auto* is = std::get_if<InsertStmt>(&insert);
  ASSERT_NE(is, nullptr);
  EXPECT_EQ(is->rows.size(), 2u);
  EXPECT_EQ(is->rows[0][1].AsDouble(), -2.5);
  EXPECT_TRUE(is->rows[1][1].is_null());

  EXPECT_TRUE(ParseSql("DROP TABLE pat").ok());
}

TEST(ParserTest, RemoteAndMergeTables) {
  SqlStatement remote =
      *ParseSql("CREATE REMOTE TABLE edsd_lille ON 'lille' AS edsd");
  auto* rt = std::get_if<CreateRemoteTableStmt>(&remote);
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->location, "lille");
  EXPECT_EQ(rt->remote_name, "edsd");

  SqlStatement merge = *ParseSql("CREATE MERGE TABLE all_edsd (a, b, c)");
  auto* mt = std::get_if<CreateMergeTableStmt>(&merge);
  ASSERT_NE(mt, nullptr);
  EXPECT_EQ(mt->parts.size(), 3u);
}

class DatabaseSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteSql("CREATE TABLE p (id bigint, vol double, "
                               "dx varchar, age double)").ok());
    ASSERT_TRUE(db_.ExecuteSql(
        "INSERT INTO p VALUES "
        "(1, 3.1, 'CN', 70), (2, 2.2, 'AD', 75), (3, 2.9, 'MCI', 68), "
        "(4, 1.9, 'AD', 80), (5, NULL, 'CN', 66), (6, 3.4, 'CN', 72)").ok());
  }
  Database db_{"test"};
};

TEST_F(DatabaseSqlTest, SelectStar) {
  Table out = *db_.ExecuteSql("SELECT * FROM p");
  EXPECT_EQ(out.num_rows(), 6u);
  EXPECT_EQ(out.num_columns(), 4u);
}

TEST_F(DatabaseSqlTest, WhereAndProjection) {
  Table out = *db_.ExecuteSql(
      "SELECT id, vol * 1000 AS vol_mm3 FROM p WHERE dx = 'AD'");
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.schema().field(1).name, "vol_mm3");
  EXPECT_EQ(out.At(0, 1).AsDouble(), 2200.0);
}

TEST_F(DatabaseSqlTest, GroupByWithHavingAndOrder) {
  Table out = *db_.ExecuteSql(
      "SELECT dx, count(*) AS n, avg(vol) AS mean_vol FROM p "
      "GROUP BY dx HAVING count(*) >= 2 ORDER BY dx");
  ASSERT_EQ(out.num_rows(), 2u);  // AD and CN (MCI has 1 row)
  EXPECT_EQ(out.At(0, 0).string_value(), "AD");
  EXPECT_EQ(out.At(0, 1).int_value(), 2);
  EXPECT_NEAR(out.At(0, 2).AsDouble(), 2.05, 1e-9);
  EXPECT_EQ(out.At(1, 0).string_value(), "CN");
  EXPECT_NEAR(out.At(1, 2).AsDouble(), 3.25, 1e-9);  // NULL vol skipped
}

TEST_F(DatabaseSqlTest, ArithmeticOverAggregates) {
  Table out = *db_.ExecuteSql(
      "SELECT sum(vol) / count(vol) AS manual_avg, avg(vol) AS direct "
      "FROM p");
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_NEAR(out.At(0, 0).AsDouble(), out.At(0, 1).AsDouble(), 1e-12);
}

TEST_F(DatabaseSqlTest, AggregatesWithWhere) {
  Table out = *db_.ExecuteSql(
      "SELECT min(age) AS lo, max(age) AS hi, stddev(age) AS sd FROM p "
      "WHERE dx <> 'AD'");
  EXPECT_EQ(out.At(0, 0).AsDouble(), 66.0);
  EXPECT_EQ(out.At(0, 1).AsDouble(), 72.0);
}

TEST_F(DatabaseSqlTest, NullSemantics) {
  // NULL never satisfies comparisons.
  Table lt = *db_.ExecuteSql("SELECT id FROM p WHERE vol < 100");
  EXPECT_EQ(lt.num_rows(), 5u);
  Table isnull = *db_.ExecuteSql("SELECT id FROM p WHERE vol IS NULL");
  ASSERT_EQ(isnull.num_rows(), 1u);
  EXPECT_EQ(isnull.At(0, 0).int_value(), 5);
  // Division by zero -> NULL, coalesce replaces it.
  Table dz = *db_.ExecuteSql(
      "SELECT coalesce(vol / 0, -1) AS d FROM p WHERE id = 1");
  EXPECT_EQ(dz.At(0, 0).AsDouble(), -1.0);
}

TEST_F(DatabaseSqlTest, Join) {
  ASSERT_TRUE(db_.ExecuteSql("CREATE TABLE dxinfo (dx varchar, sev bigint)")
                  .ok());
  ASSERT_TRUE(db_.ExecuteSql(
      "INSERT INTO dxinfo VALUES ('CN', 0), ('MCI', 1), ('AD', 2)").ok());
  Table out = *db_.ExecuteSql(
      "SELECT id, sev FROM p JOIN dxinfo ON p.dx = dxinfo.dx "
      "ORDER BY id");
  ASSERT_EQ(out.num_rows(), 6u);
  EXPECT_EQ(out.At(1, 1).int_value(), 2);  // id 2 is AD
}

TEST_F(DatabaseSqlTest, DdlErrors) {
  EXPECT_FALSE(db_.ExecuteSql("CREATE TABLE p (x bigint)").ok());  // exists
  EXPECT_FALSE(db_.ExecuteSql("DROP TABLE nope").ok());
  EXPECT_FALSE(db_.ExecuteSql("SELECT * FROM nope").ok());
  EXPECT_FALSE(db_.ExecuteSql("INSERT INTO p VALUES (1)").ok());  // width
  EXPECT_FALSE(db_.ExecuteSql("SELECT nosuchcol FROM p").ok());
}

TEST_F(DatabaseSqlTest, GroupBySelectItemValidation) {
  // Non-aggregate select item that is not a group key is an error.
  EXPECT_FALSE(db_.ExecuteSql(
      "SELECT age, count(*) AS n FROM p GROUP BY dx").ok());
}

TEST_F(DatabaseSqlTest, MergeTablesConcatenateParts) {
  ASSERT_TRUE(db_.ExecuteSql("CREATE TABLE p2 (id bigint, vol double, "
                             "dx varchar, age double)").ok());
  ASSERT_TRUE(db_.ExecuteSql(
      "INSERT INTO p2 VALUES (7, 2.0, 'AD', 81)").ok());
  ASSERT_TRUE(db_.ExecuteSql("CREATE MERGE TABLE allp (p, p2)").ok());
  Table out = *db_.ExecuteSql("SELECT count(*) AS n FROM allp");
  EXPECT_EQ(out.At(0, 0).int_value(), 7);
  // Merge tables reject INSERT.
  EXPECT_FALSE(db_.ExecuteSql("INSERT INTO allp VALUES (9, 1, 'x', 1)").ok());
}

TEST_F(DatabaseSqlTest, RemoteTableNeedsFetcher) {
  ASSERT_TRUE(
      db_.ExecuteSql("CREATE REMOTE TABLE rem ON 'other' AS p").ok());
  EXPECT_FALSE(db_.ExecuteSql("SELECT * FROM rem").ok());  // no site
  // Install a remote site that serves from a second database.
  Database other("other");
  ASSERT_TRUE(other.ExecuteSql("CREATE TABLE p (a bigint)").ok());
  ASSERT_TRUE(other.ExecuteSql("INSERT INTO p VALUES (1), (2)").ok());
  DatabaseSite site(&other);
  db_.set_remote_site(&site);
  Table out = *db_.ExecuteSql("SELECT count(*) AS n FROM rem");
  EXPECT_EQ(out.At(0, 0).int_value(), 2);
  ASSERT_FALSE(site.locations.empty());
  for (const std::string& loc : site.locations) EXPECT_EQ(loc, "other");
  db_.set_remote_site(nullptr);
}


TEST_F(DatabaseSqlTest, GroupByExpressionKey) {
  Table out = *db_.ExecuteSql(
      "SELECT round(age / 10) AS decade, count(*) AS n FROM p "
      "GROUP BY round(age / 10) ORDER BY decade");
  ASSERT_EQ(out.num_rows(), 2u);  // decades 7 and 8
  EXPECT_EQ(out.At(0, 0).AsDouble(), 7.0);
  EXPECT_EQ(out.At(0, 1).int_value(), 4);  // 70, 68, 66, 72
  EXPECT_EQ(out.At(1, 0).AsDouble(), 8.0);
  EXPECT_EQ(out.At(1, 1).int_value(), 2);  // 75 (rounds up), 80
}

TEST_F(DatabaseSqlTest, JoinThenAggregate) {
  ASSERT_TRUE(db_.ExecuteSql("CREATE TABLE sev (dx varchar, rank bigint)")
                  .ok());
  ASSERT_TRUE(db_.ExecuteSql(
      "INSERT INTO sev VALUES ('CN', 0), ('MCI', 1), ('AD', 2)").ok());
  Table out = *db_.ExecuteSql(
      "SELECT rank, avg(vol) AS mean_vol FROM p JOIN sev ON p.dx = sev.dx "
      "GROUP BY rank ORDER BY rank");
  ASSERT_EQ(out.num_rows(), 3u);
  // AD (rank 2) has the smallest volumes.
  EXPECT_GT(out.At(0, 1).AsDouble(), out.At(2, 1).AsDouble());
}

TEST_F(DatabaseSqlTest, JoinWithWhereAndProjection) {
  ASSERT_TRUE(db_.ExecuteSql("CREATE TABLE extra (id bigint, note varchar)")
                  .ok());
  ASSERT_TRUE(db_.ExecuteSql(
      "INSERT INTO extra VALUES (1, 'first'), (4, 'fourth')").ok());
  Table out = *db_.ExecuteSql(
      "SELECT p.id, note FROM p JOIN extra ON p.id = extra.id "
      "WHERE age > 60 ORDER BY id");
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.At(1, 1).string_value(), "fourth");
}

TEST_F(DatabaseSqlTest, OrderByMultipleKeys) {
  Table out = *db_.ExecuteSql(
      "SELECT dx, age FROM p ORDER BY dx ASC, age DESC");
  EXPECT_EQ(out.At(0, 0).string_value(), "AD");
  EXPECT_EQ(out.At(0, 1).AsDouble(), 80.0);
  EXPECT_EQ(out.At(1, 1).AsDouble(), 75.0);
}

TEST_F(DatabaseSqlTest, BuiltinFunctions) {
  Table out = *db_.ExecuteSql(
      "SELECT abs(-2) AS a, sqrt(vol) AS s, pow(2, 10) AS p2, "
      "round(age / 10) AS decade FROM p WHERE id = 2");
  EXPECT_EQ(out.At(0, 0).AsDouble(), 2.0);
  EXPECT_NEAR(out.At(0, 1).AsDouble(), std::sqrt(2.2), 1e-12);
  EXPECT_EQ(out.At(0, 2).AsDouble(), 1024.0);
  EXPECT_EQ(out.At(0, 3).AsDouble(), 8.0);
}

}  // namespace
}  // namespace mip::engine
