// Merge-table aggregate pushdown: correctness (pushdown == pull for every
// decomposable aggregate, grouped and ungrouped) and the traffic win over
// remote links.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "engine/database.h"
#include "federation/master.h"

namespace mip::engine {
namespace {

class PushdownTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mip::Rng rng(77);
    for (const char* part : {"p1", "p2", "p3"}) {
      ASSERT_TRUE(db_.ExecuteSql(std::string("CREATE TABLE ") + part +
                                 " (g varchar, x double, k bigint)")
                      .ok());
      for (int i = 0; i < 50; ++i) {
        const char* g = i % 3 == 0 ? "a" : (i % 3 == 1 ? "b" : "c");
        char sql[128];
        std::snprintf(sql, sizeof(sql),
                      "INSERT INTO %s VALUES ('%s', %.6f, %d)", part, g,
                      rng.NextGaussian(), i % 7);
        ASSERT_TRUE(db_.ExecuteSql(sql).ok());
      }
    }
    ASSERT_TRUE(db_.ExecuteSql("CREATE MERGE TABLE m (p1, p2, p3)").ok());
  }

  // Runs the query with pushdown on and off and asserts identical results.
  void ExpectSame(const std::string& sql) {
    db_.optimizer_options().merge_aggregate_pushdown = true;
    Result<Table> pushed = db_.ExecuteSql(sql);
    ASSERT_TRUE(pushed.ok()) << sql << ": " << pushed.status().ToString();
    db_.optimizer_options().merge_aggregate_pushdown = false;
    Result<Table> pulled = db_.ExecuteSql(sql);
    ASSERT_TRUE(pulled.ok()) << sql;
    db_.optimizer_options().merge_aggregate_pushdown = true;

    const Table& a = pushed.ValueOrDie();
    const Table& b = pulled.ValueOrDie();
    ASSERT_EQ(a.num_rows(), b.num_rows()) << sql;
    ASSERT_EQ(a.num_columns(), b.num_columns()) << sql;
    for (size_t r = 0; r < a.num_rows(); ++r) {
      for (size_t c = 0; c < a.num_columns(); ++c) {
        const Value va = a.At(r, c);
        const Value vb = b.At(r, c);
        if (va.is_null() || vb.is_null()) {
          EXPECT_EQ(va.is_null(), vb.is_null()) << sql << " @" << r << "," << c;
          continue;
        }
        if (va.kind() == Value::Kind::kString) {
          EXPECT_EQ(va.string_value(), vb.string_value()) << sql;
        } else {
          EXPECT_NEAR(va.AsDouble(), vb.AsDouble(),
                      1e-9 * (1.0 + std::fabs(vb.AsDouble())))
              << sql << " @" << r << "," << c;
        }
      }
    }
  }

  Database db_{"pushdown"};
};

TEST_F(PushdownTest, UngroupedAggregates) {
  ExpectSame("SELECT count(*) AS n, sum(x) AS s, min(x) AS lo, "
             "max(x) AS hi FROM m");
  ExpectSame("SELECT avg(x) AS mean FROM m");
  ExpectSame("SELECT var_samp(x) AS v, stddev(x) AS sd FROM m");
  ExpectSame("SELECT count(x) AS n FROM m WHERE x > 0");
}

TEST_F(PushdownTest, GroupedAggregates) {
  ExpectSame("SELECT g, count(*) AS n, avg(x) AS mean FROM m GROUP BY g "
             "ORDER BY g");
  ExpectSame("SELECT k, sum(x) AS s, stddev(x) AS sd FROM m GROUP BY k "
             "ORDER BY k");
  ExpectSame("SELECT g, min(x) AS lo, max(x) AS hi FROM m "
             "WHERE k < 5 GROUP BY g ORDER BY g");
}

TEST_F(PushdownTest, HavingAndArithmeticOverAggregates) {
  ExpectSame("SELECT g, count(*) AS n FROM m GROUP BY g "
             "HAVING count(*) > 10 ORDER BY g");
  ExpectSame("SELECT g, sum(x) / count(x) AS manual_avg, avg(x) AS direct "
             "FROM m GROUP BY g ORDER BY g");
}

TEST_F(PushdownTest, CountDistinctFallsBackCorrectly) {
  // Not decomposable: must fall back to materialization and still be right.
  ExpectSame("SELECT count(distinct g) AS kinds FROM m");
  ExpectSame("SELECT g, count(distinct k) AS kk FROM m GROUP BY g "
             "ORDER BY g");
}

TEST_F(PushdownTest, NonMergeSourcesUnaffected) {
  ExpectSame("SELECT count(*) AS n, avg(x) AS mean FROM p1");
}


TEST_F(PushdownTest, ExpressionGroupKeysPushDown) {
  // GROUP BY on a computed expression must round-trip through the
  // generated partial-aggregate SQL.
  ExpectSame("SELECT k % 2, count(*) AS n, avg(x) AS m FROM m "
             "GROUP BY k % 2");
  ExpectSame("SELECT CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END, "
             "count(*) AS n FROM m "
             "GROUP BY CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END");
}

TEST_F(PushdownTest, NestedMergeTables) {
  // A merge of merges: pushdown recurses through the inner view.
  ASSERT_TRUE(db_.ExecuteSql("CREATE MERGE TABLE m12 (p1, p2)").ok());
  ASSERT_TRUE(db_.ExecuteSql("CREATE MERGE TABLE outer_m (m12, p3)").ok());
  db_.optimizer_options().merge_aggregate_pushdown = true;
  Table nested = *db_.ExecuteSql("SELECT count(*) AS n, sum(x) AS s "
                                 "FROM outer_m");
  Table direct = *db_.ExecuteSql("SELECT count(*) AS n, sum(x) AS s FROM m");
  EXPECT_EQ(nested.At(0, 0).int_value(), direct.At(0, 0).int_value());
  EXPECT_NEAR(nested.At(0, 1).AsDouble(), direct.At(0, 1).AsDouble(), 1e-9);
}

TEST(PushdownFederationTest, PushdownShrinksBusTraffic) {
  federation::MasterNode master;
  mip::Rng rng(99);
  for (const std::string id : {"w1", "w2"}) {
    ASSERT_TRUE(master.AddWorker(id).ok());
    Schema schema;
    ASSERT_TRUE(schema.AddField({"x", DataType::kFloat64}).ok());
    Table t = Table::Empty(schema);
    for (int i = 0; i < 5000; ++i) {
      ASSERT_TRUE(t.AppendRow({Value::Double(rng.NextGaussian())}).ok());
    }
    ASSERT_TRUE(master.LoadDataset(id, "d", std::move(t)).ok());
  }
  std::string view = *master.CreateFederatedView("d");
  const std::string sql =
      "SELECT count(*) AS n, sum(x) AS s FROM " + view;

  master.local_db().optimizer_options().merge_aggregate_pushdown = false;
  master.bus().ResetStats();
  Table pulled = *master.local_db().ExecuteSql(sql);
  const uint64_t pull_bytes = master.bus().stats().bytes;

  master.local_db().optimizer_options().merge_aggregate_pushdown = true;
  master.bus().ResetStats();
  Table pushed = *master.local_db().ExecuteSql(sql);
  const uint64_t push_bytes = master.bus().stats().bytes;

  EXPECT_EQ(pulled.At(0, 0).int_value(), 10000);
  EXPECT_EQ(pushed.At(0, 0).int_value(), 10000);
  EXPECT_NEAR(pulled.At(0, 1).AsDouble(), pushed.At(0, 1).AsDouble(), 1e-9);
  // The partial aggregate is tiny; the pulled relations are ~80 kB.
  EXPECT_GT(pull_bytes, 50u * push_bytes);
}

}  // namespace
}  // namespace mip::engine
