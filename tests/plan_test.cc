// Plan layer: golden EXPLAIN renderings, optimizer-on vs optimizer-off byte
// parity over a generated query corpus (serial and 8-thread), the
// COUNT(DISTINCT)-over-merge regression, and the wire-byte win of federated
// scan pushdown.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "engine/database.h"
#include "engine/exec_context.h"
#include "engine/table.h"
#include "federation/master.h"
#include "database_site.h"

namespace mip::engine {
namespace {

std::vector<uint8_t> Bytes(const Table& t) {
  BufferWriter w;
  SerializeTable(t, &w);
  return w.TakeBytes();
}

// Joins the rows of an EXPLAIN result back into the rendered plan text.
std::string ExplainText(Database* db, const std::string& sql) {
  Result<Table> out = db->ExecuteSql("EXPLAIN " + sql);
  EXPECT_TRUE(out.ok()) << sql << ": " << out.status().ToString();
  if (!out.ok()) return "";
  EXPECT_EQ(out->num_columns(), 1u);
  EXPECT_EQ(out->schema().field(0).name, "plan");
  std::string text;
  for (size_t r = 0; r < out->num_rows(); ++r) {
    text += out->At(r, 0).string_value();
    text += '\n';
  }
  return text;
}

class PlanTest : public ::testing::Test {
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
    ASSERT_TRUE(
        db_.ExecuteSql("CREATE TABLE dim (k bigint, label varchar)").ok());
    ASSERT_TRUE(db_.ExecuteSql("INSERT INTO dim VALUES (0, 'zero'), "
                               "(1, 'one'), (2, 'two'), (3, 'three')")
                    .ok());
  }

  Database db_{"plandb"};
};

TEST_F(PlanTest, GoldenFilterAndLimitPushThroughMerge) {
  EXPECT_EQ(ExplainText(&db_, "SELECT x FROM m WHERE k = 1 LIMIT 3"),
            "Limit 3\n"
            "  Project x\n"
            "    MergeUnion m\n"
            "      Filter (k = 1)\n"
            "        Scan p1\n"
            "      Filter (k = 1)\n"
            "        Scan p2\n"
            "      Filter (k = 1)\n"
            "        Scan p3\n");
}

TEST_F(PlanTest, GoldenJoin) {
  // The WHERE conjunct sinks into the left input (the Filter above stays —
  // pushes are individually sound, never load-bearing), and the cost model
  // annotates its cardinality estimates: 50 rows * 1/3 for x > 0, 4 dim
  // rows, 16.7 * 4 / max-NDV(k) = 7 for the join output.
  EXPECT_EQ(ExplainText(&db_, "SELECT g, x, label FROM p1 JOIN dim "
                              "ON p1.k = dim.k WHERE x > 0"),
            "Project g, x, label\n"
            "  Filter (x > 0)\n"
            "    Join INNER on k = k est: left=17 right=4 out=10\n"
            "      Filter (x > 0)\n"
            "        Scan p1\n"
            "      Scan dim\n");
}

TEST_F(PlanTest, GoldenMultiWayJoinFoldsLeftDeep) {
  // `a JOIN b ON .. JOIN c ON ..` parses as Join(Join(a, b), c); each Join
  // carries its own estimates.
  EXPECT_EQ(ExplainText(&db_, "SELECT label FROM p1 JOIN p2 ON p1.k = p2.k "
                              "JOIN dim ON p1.k = dim.k"),
            "Project label\n"
            "  Join INNER on k = k est: left=357 right=4 out=357\n"
            "    Join INNER on k = k est: left=50 right=50 out=357\n"
            "      Scan p1\n"
            "      Scan p2\n"
            "    Scan dim\n");
}

TEST_F(PlanTest, GoldenHavingAndOrderByLowering) {
  // HAVING lowers onto a Filter above the aggregate (over the hidden __agg
  // slot), ORDER BY ... DESC onto the existing Sort node above the final
  // projection — no new plan kinds.
  EXPECT_EQ(ExplainText(&db_, "SELECT g, count(*) AS n FROM p1 GROUP BY g "
                              "HAVING count(*) > 10 ORDER BY g DESC"),
            "Sort g DESC\n"
            "  Project __key0 AS g, __agg0 AS n\n"
            "    Filter (__agg0 > 10)\n"
            "      Aggregate keys=[g AS __key0] aggs=[count(*) AS __agg0]\n"
            "        Scan p1 cols=[g]\n");
}

TEST_F(PlanTest, JoinFingerprintStableAcrossCostModelAndStrategy) {
  // Strategy, estimates and costs are physical annotations: the canonical
  // rendering omits them, so flipping the cost model or forcing a strategy
  // never changes the fingerprint — a strategy flip must not fracture the
  // gateway result cache.
  const std::string sql =
      "SELECT g, x, label FROM p1 JOIN dim ON p1.k = dim.k WHERE x > 0";
  auto fingerprint = [&](int force, bool cost_model) {
    db_.optimizer_options().cost_model = cost_model;
    db_.optimizer_options().force_join_strategy = force;
    Result<PlanPtr> plan = db_.TryPlanSelectSql(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? PlanFingerprint(**plan) : 0;
  };
  const uint64_t base = fingerprint(-1, true);
  EXPECT_EQ(base, fingerprint(-1, false));
  EXPECT_EQ(base,
            fingerprint(static_cast<int>(JoinStrategy::kBroadcast), true));
  EXPECT_EQ(base,
            fingerprint(static_cast<int>(JoinStrategy::kCollect), true));
  db_.optimizer_options().force_join_strategy = -1;
  db_.optimizer_options().cost_model = true;
}

TEST_F(PlanTest, GoldenProjectionPruningAndEarlySort) {
  // ORDER BY resolves in the input, so the sort runs before the projection;
  // the scan is pruned to the referenced columns.
  EXPECT_EQ(ExplainText(&db_, "SELECT g FROM p1 WHERE x > 1 ORDER BY g"),
            "Project g\n"
            "  Sort g ASC\n"
            "    Filter (x > 1)\n"
            "      Scan p1 cols=[g, x]\n");
}

TEST_F(PlanTest, GoldenCountStarScansOneColumn) {
  // A scan that needs rows but no values keeps the table's first field
  // rather than every column, on a base table and under the merge-aggregate
  // decomposition alike.
  EXPECT_EQ(ExplainText(&db_, "SELECT count(*) AS n FROM p1"),
            "Project __agg0 AS n\n"
            "  Aggregate aggs=[count(*) AS __agg0]\n"
            "    Scan p1 cols=[g]\n");
  EXPECT_EQ(ExplainText(&db_, "SELECT count(*) AS n FROM m"),
            "Project __agg0 AS n\n"
            "  Project cast_bigint(__p0_ca) AS __agg0\n"
            "    Aggregate aggs=[sum(__p0_a) AS __p0_ca]\n"
            "      MergeUnion m\n"
            "        Project __agg0 AS __p0_a\n"
            "          Aggregate aggs=[count(*) AS __agg0]\n"
            "            Scan p1 cols=[g]\n"
            "        Project __agg0 AS __p0_a\n"
            "          Aggregate aggs=[count(*) AS __agg0]\n"
            "            Scan p2 cols=[g]\n"
            "        Project __agg0 AS __p0_a\n"
            "          Aggregate aggs=[count(*) AS __agg0]\n"
            "            Scan p3 cols=[g]\n");
  for (const char* sql : {"SELECT count(*) AS n FROM p1",
                          "SELECT count(*) AS n FROM m",
                          "SELECT 1 AS one FROM p2 LIMIT 2"}) {
    Result<Table> on = db_.ExecuteSql(sql);
    ASSERT_TRUE(on.ok()) << on.status().ToString();
    db_.set_optimizer_enabled(false);
    Result<Table> off = db_.ExecuteSql(sql);
    db_.set_optimizer_enabled(true);
    ASSERT_TRUE(off.ok()) << off.status().ToString();
    EXPECT_EQ(Bytes(*on), Bytes(*off)) << sql;
  }
}

TEST_F(PlanTest, GoldenMergeAggregateDecomposition) {
  EXPECT_EQ(
      ExplainText(&db_, "SELECT g, avg(x) AS mean FROM m WHERE k < 5 "
                        "GROUP BY g ORDER BY g LIMIT 2"),
      "Limit 2\n"
      "  Sort g ASC\n"
      "    Project __key0 AS g, __agg0 AS mean\n"
      "      Project __key0 AS __key0, (__p0_ca / __p0_cb) AS __agg0\n"
      "        Aggregate keys=[__key0 AS __key0] "
      "aggs=[sum(__p0_a) AS __p0_ca, sum(__p0_b) AS __p0_cb]\n"
      "          MergeUnion m\n"
      "            Project __key0 AS __key0, __agg0 AS __p0_a, "
      "__agg1 AS __p0_b\n"
      "              Aggregate keys=[g AS __key0] "
      "aggs=[sum(x) AS __agg0, count(x) AS __agg1]\n"
      "                Filter (k < 5)\n"
      "                  Scan p1\n"
      "            Project __key0 AS __key0, __agg0 AS __p0_a, "
      "__agg1 AS __p0_b\n"
      "              Aggregate keys=[g AS __key0] "
      "aggs=[sum(x) AS __agg0, count(x) AS __agg1]\n"
      "                Filter (k < 5)\n"
      "                  Scan p2\n"
      "            Project __key0 AS __key0, __agg0 AS __p0_a, "
      "__agg1 AS __p0_b\n"
      "              Aggregate keys=[g AS __key0] "
      "aggs=[sum(x) AS __agg0, count(x) AS __agg1]\n"
      "                Filter (k < 5)\n"
      "                  Scan p3\n");
}

TEST_F(PlanTest, CountDistinctOverMergeBypassesDecomposition) {
  // Regression for the latent null-expression bug in the legacy pushdown's
  // final projection: COUNT(DISTINCT) must bypass the merge-aggregate rule
  // entirely (it does not decompose), with pushdown left enabled.
  ASSERT_TRUE(db_.optimizer_options().merge_aggregate_pushdown);
  EXPECT_EQ(ExplainText(&db_, "SELECT count(distinct g) AS kinds FROM m"),
            "Project __agg0 AS kinds\n"
            "  Aggregate aggs=[count(distinct g) AS __agg0]\n"
            "    MergeUnion m\n"
            "      Scan p1 cols=[g]\n"
            "      Scan p2 cols=[g]\n"
            "      Scan p3 cols=[g]\n");

  Result<Table> on = db_.ExecuteSql("SELECT count(distinct g) AS kinds, "
                                    "count(distinct k) AS kk FROM m");
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_EQ(on->At(0, 0).int_value(), 3);
  EXPECT_EQ(on->At(0, 1).int_value(), 7);

  // Grouped variant, against the optimizer-off plan, byte-for-byte.
  const std::string sql =
      "SELECT g, count(distinct k) AS kk FROM m GROUP BY g ORDER BY g";
  Result<Table> grouped_on = db_.ExecuteSql(sql);
  ASSERT_TRUE(grouped_on.ok()) << grouped_on.status().ToString();
  db_.set_optimizer_enabled(false);
  Result<Table> grouped_off = db_.ExecuteSql(sql);
  db_.set_optimizer_enabled(true);
  ASSERT_TRUE(grouped_off.ok());
  EXPECT_EQ(Bytes(*grouped_on), Bytes(*grouped_off));
}

TEST_F(PlanTest, OptimizerParityOverGeneratedCorpus) {
  // Every rule except the merge-aggregate decomposition is bit-exact, so the
  // optimized plan must produce byte-identical tables. The merge-aggregate
  // rule is excluded here (it reassociates float sums; pushdown_test pins
  // its near-equality) by disabling aggregate pushdown for the corpus.
  db_.optimizer_options().merge_aggregate_pushdown = false;

  std::vector<std::string> corpus;
  const std::vector<std::string> sources = {"m", "p1"};
  const std::vector<std::string> selects = {
      "*", "g, x", "x + k AS xk", "DISTINCT g"};
  const std::vector<std::string> wheres = {
      "", " WHERE x > 0", " WHERE k % 2 = 0 AND x < 1"};
  const std::vector<std::string> tails = {
      "", " ORDER BY g LIMIT 7", " LIMIT 5"};
  for (const std::string& src : sources) {
    for (const std::string& sel : selects) {
      for (const std::string& where : wheres) {
        for (const std::string& tail : tails) {
          corpus.push_back("SELECT " + sel + " FROM " + src + where + tail);
        }
      }
    }
  }
  const std::vector<std::string> aggs = {
      "g, count(*) AS n", "k, sum(x) AS s, avg(x) AS mean",
      "g, min(x) AS lo, stddev(x) AS sd"};
  for (const std::string& src : sources) {
    for (const std::string& sel : aggs) {
      for (const std::string& where : wheres) {
        const std::string key = sel.substr(0, 1);
        corpus.push_back("SELECT " + sel + " FROM " + src + where +
                         " GROUP BY " + key + " ORDER BY " + key);
      }
    }
  }
  corpus.push_back("SELECT g, label FROM p1 JOIN dim ON p1.k = dim.k "
                   "WHERE x > 0 ORDER BY g LIMIT 9");
  corpus.push_back("SELECT count(*) AS n FROM m HAVING count(*) > 0");

  ThreadPool pool(8);
  ExecContext parallel_ctx;
  parallel_ctx.pool = &pool;
  parallel_ctx.morsel_size = 32;  // many morsels over 150 rows
  ExecContext serial_ctx;
  serial_ctx.morsel_size = 32;

  for (const ExecContext* ctx : {&serial_ctx, &parallel_ctx}) {
    db_.set_exec_context(ctx);
    for (const std::string& sql : corpus) {
      db_.set_optimizer_enabled(true);
      Result<Table> on = db_.ExecuteSql(sql);
      ASSERT_TRUE(on.ok()) << sql << ": " << on.status().ToString();
      db_.set_optimizer_enabled(false);
      Result<Table> off = db_.ExecuteSql(sql);
      ASSERT_TRUE(off.ok()) << sql << ": " << off.status().ToString();
      EXPECT_EQ(Bytes(*on), Bytes(*off))
          << sql << " (threads=" << (ctx->pool != nullptr ? 8 : 1) << ")";
    }
  }
  db_.set_optimizer_enabled(true);
}

class PlanRemoteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(remote_.ExecuteSql("CREATE TABLE d (g varchar, x double, "
                                   "k bigint)")
                    .ok());
    ASSERT_TRUE(remote_.ExecuteSql("INSERT INTO d VALUES ('a', 1.0, 1), "
                                   "('b', 2.0, 2), ('c', 3.0, 1)")
                    .ok());
    master_.set_remote_site(&site_);
    ASSERT_TRUE(master_.ExecuteSql("CREATE REMOTE TABLE rd ON 'w1' AS d")
                    .ok());
    ASSERT_TRUE(master_.ExecuteSql("CREATE TABLE lp (g varchar, x double, "
                                   "k bigint)")
                    .ok());
    ASSERT_TRUE(master_.ExecuteSql("INSERT INTO lp VALUES ('d', 4.0, 1)")
                    .ok());
    ASSERT_TRUE(master_.ExecuteSql("CREATE MERGE TABLE fm (rd, lp)").ok());
  }

  Database remote_{"workerdb"};
  DatabaseSite site_{&remote_};
  Database master_{"masterdb"};
};

TEST_F(PlanRemoteTest, GoldenRemoteCountStarFetchesOneColumn) {
  // An unpushed remote scan under COUNT(*) ships the first column, not
  // SELECT *.
  EXPECT_EQ(ExplainText(&master_, "SELECT count(*) AS n FROM rd"),
            "Project __agg0 AS n\n"
            "  Aggregate aggs=[count(*) AS __agg0]\n"
            "    RemoteScan rd on w1 remote=d cols=[g]\n");
  Result<Table> out = master_.ExecuteSql("SELECT count(*) AS n FROM rd");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->At(0, 0).int_value(), 3);
}

TEST_F(PlanRemoteTest, GoldenRemoteScanCarriesFilterColumnsAndLimit) {
  EXPECT_EQ(
      ExplainText(&master_,
                  "SELECT x, g FROM rd WHERE k = 1 AND x > 0.5 LIMIT 4"),
      "Limit 4\n"
      "  Project x, g\n"
      "    RemoteScan rd on w1 remote=d cols=[x, g] "
      "filter=((k = 1) and (x > 0.5)) limit=4\n");

  Result<Table> out =
      master_.ExecuteSql("SELECT x, g FROM rd WHERE k = 1 AND x > 0.5 "
                         "LIMIT 4");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->num_rows(), 2u);
  EXPECT_EQ(out->At(0, 0).AsDouble(), 1.0);
  EXPECT_EQ(out->At(1, 0).AsDouble(), 3.0);
}

TEST_F(PlanRemoteTest, GoldenFederatedMergeFilterPushdown) {
  EXPECT_EQ(ExplainText(&master_, "SELECT x FROM fm WHERE k = 1"),
            "Project x\n"
            "  MergeUnion fm\n"
            "    RemoteScan rd on w1 remote=d filter=(k = 1)\n"
            "    Filter (k = 1)\n"
            "      Scan lp\n");
  Result<Table> out = master_.ExecuteSql("SELECT x FROM fm WHERE k = 1");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 3u);
}

TEST_F(PlanRemoteTest, GoldenMergeAggregatePartialsShipAsSql) {
  EXPECT_EQ(
      ExplainText(&master_, "SELECT g, sum(x) AS s FROM fm GROUP BY g"),
      "Project __key0 AS g, __agg0 AS s\n"
      "  Project __key0 AS __key0, __p0_ca AS __agg0\n"
      "    Aggregate keys=[__key0 AS __key0] aggs=[sum(__p0_a) AS __p0_ca]\n"
      "      MergeUnion fm\n"
      "        RemoteScan rd on w1 remote=d "
      "sql=[SELECT g AS __key0, sum(x) AS __p0_a FROM d GROUP BY g]\n"
      "        Project __key0 AS __key0, __agg0 AS __p0_a\n"
      "          Aggregate keys=[g AS __key0] aggs=[sum(x) AS __agg0]\n"
      "            Scan lp cols=[g, x]\n");
}

TEST_F(PlanRemoteTest, GoldenJoinDerivedKeyFilterReachesBothSides) {
  // `rd.k = cohort.pid AND k = 1` implies `pid = 1` on every surviving row,
  // so the equality reaches BOTH inputs: the remote scan ships it as its
  // filter and the local side is filtered before the build. The original
  // Filter stays above (pushes are individually sound, never load-bearing).
  ASSERT_TRUE(
      master_.ExecuteSql("CREATE TABLE cohort (pid bigint, label varchar)")
          .ok());
  ASSERT_TRUE(master_
                  .ExecuteSql("INSERT INTO cohort VALUES (1, 'case'), "
                              "(2, 'control')")
                  .ok());
  const std::string sql =
      "SELECT label FROM rd JOIN cohort ON k = pid WHERE k = 1";
  EXPECT_EQ(ExplainText(&master_, sql),
            "Project label\n"
            "  Filter (k = 1)\n"
            "    Join INNER on k = pid\n"
            "      RemoteScan rd on w1 remote=d filter=(k = 1)\n"
            "      Filter (pid = 1)\n"
            "        Scan cohort\n");
  Result<Table> on = master_.ExecuteSql(sql);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  master_.set_optimizer_enabled(false);
  Result<Table> off = master_.ExecuteSql(sql);
  master_.set_optimizer_enabled(true);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_EQ(Bytes(*on), Bytes(*off));
}

TEST_F(PlanRemoteTest, OptimizerParityAcrossTheWire) {
  // Pushed-down remote SQL must select exactly the rows/columns a local
  // evaluation would: byte parity for filtered, pruned, limited queries.
  const std::vector<std::string> corpus = {
      "SELECT x FROM fm WHERE k = 1",
      "SELECT g, x FROM rd WHERE x > 1.5",
      "SELECT x FROM rd LIMIT 2",
      "SELECT g FROM fm WHERE g <> 'b' ORDER BY g",
  };
  for (const std::string& sql : corpus) {
    master_.set_optimizer_enabled(true);
    Result<Table> on = master_.ExecuteSql(sql);
    ASSERT_TRUE(on.ok()) << sql << ": " << on.status().ToString();
    master_.set_optimizer_enabled(false);
    Result<Table> off = master_.ExecuteSql(sql);
    ASSERT_TRUE(off.ok()) << sql;
    master_.set_optimizer_enabled(true);
    EXPECT_EQ(Bytes(*on), Bytes(*off)) << sql;
  }
}

TEST(PlanFederationTest, ScanPushdownShrinksWireBytes) {
  // A ~1%-selective filter over a federated merge view: with the optimizer
  // on, only matching rows (in one pruned column) cross the bus; off, both
  // relations are fetched whole. E15 measures the same effect at bench
  // scale; this pins the >=5x floor.
  federation::MasterNode master;
  mip::Rng rng(99);
  for (const std::string id : {"w1", "w2"}) {
    ASSERT_TRUE(master.AddWorker(id).ok());
    Schema schema;
    ASSERT_TRUE(schema.AddField({"x", DataType::kFloat64}).ok());
    ASSERT_TRUE(schema.AddField({"k", DataType::kInt64}).ok());
    Table t = Table::Empty(schema);
    for (int i = 0; i < 5000; ++i) {
      ASSERT_TRUE(t.AppendRow({Value::Double(rng.NextGaussian()),
                               Value::Int(static_cast<int64_t>(
                                   rng.NextBounded(100)))})
                      .ok());
    }
    ASSERT_TRUE(master.LoadDataset(id, "d", std::move(t)).ok());
  }
  std::string view = *master.CreateFederatedView("d");
  const std::string sql = "SELECT x FROM " + view + " WHERE k = 3";

  // The planner's EXPLAIN shows every remote part scanning with the filter
  // pushed into it (and only the needed column fetched).
  Result<Table> plan = master.local_db().ExecuteSql("EXPLAIN " + sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  bool saw_pushed_remote_scan = false;
  for (size_t r = 0; r < plan->num_rows(); ++r) {
    const std::string line = plan->At(r, 0).string_value();
    if (line.find("RemoteScan") != std::string::npos) {
      EXPECT_NE(line.find("filter=(k = 3)"), std::string::npos) << line;
      EXPECT_NE(line.find("cols=[x]"), std::string::npos) << line;
      saw_pushed_remote_scan = true;
    }
  }
  EXPECT_TRUE(saw_pushed_remote_scan);

  master.local_db().set_optimizer_enabled(false);
  master.bus().ResetStats();
  Result<Table> pulled = master.local_db().ExecuteSql(sql);
  ASSERT_TRUE(pulled.ok()) << pulled.status().ToString();
  const uint64_t pull_wire = master.bus().stats().bytes_wire;

  master.local_db().set_optimizer_enabled(true);
  master.bus().ResetStats();
  Result<Table> pushed = master.local_db().ExecuteSql(sql);
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  const uint64_t push_wire = master.bus().stats().bytes_wire;

  EXPECT_EQ(Bytes(*pulled), Bytes(*pushed));
  EXPECT_GT(pulled->num_rows(), 0u);
  EXPECT_GE(pull_wire, 5u * push_wire)
      << "pull=" << pull_wire << " push=" << push_wire;
}

}  // namespace
}  // namespace mip::engine
