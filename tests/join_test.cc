// Join layer: the vectorized hash join diffed against a naive nested-loop
// reference over a corpus of edge cases (NULL keys, duplicate keys, empty
// sides, string/int/mixed keys) at 1 and 8 threads; distributed broadcast
// vs collect strategies byte-identical over the in-process bus and real
// TCP; concurrent broadcast joins leaving the worker's catalog and stats
// cache untouched; the get_stats wire round trip and its cache; HLL NDV
// accuracy; the join counters surfacing in the gateway metrics text; and
// merge parts run concurrently giving the serial bytes and pushed SQL.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "engine/database.h"
#include "engine/exec_context.h"
#include "engine/operators.h"
#include "engine/stats.h"
#include "engine/table.h"
#include "federation/gateway.h"
#include "federation/master.h"
#include "federation/worker.h"
#include "net/tcp_transport.h"
#include "storage/io.h"
#include "storage/store.h"

namespace mip {
namespace {

using engine::Column;
using engine::DataType;
using engine::Database;
using engine::ExecContext;
using engine::Field;
using engine::JoinType;
using engine::Schema;
using engine::Table;
using engine::Value;

std::vector<uint8_t> Bytes(const Table& t) {
  BufferWriter w;
  engine::SerializeTable(t, &w);
  return w.TakeBytes();
}

// Reference implementation: a naive nested loop with the engine's key
// semantics spelled out longhand. Probe order is left-row order; matches
// come in right-row order (the hash join's build-insertion order), so the
// reference is byte-comparable against HashJoin, not just set-comparable.
Result<Table> NestedLoopJoin(const Table& left, const Table& right,
                             const std::string& left_key,
                             const std::string& right_key, JoinType type) {
  MIP_ASSIGN_OR_RETURN(const Column* lkey, left.ColumnByName(left_key));
  MIP_ASSIGN_OR_RETURN(const Column* rkey, right.ColumnByName(right_key));
  Schema schema;
  for (size_t c = 0; c < left.num_columns(); ++c) {
    MIP_RETURN_NOT_OK(schema.AddField(left.schema().field(c)));
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    Field f = right.schema().field(c);
    if (schema.FieldIndex(f.name) >= 0) f.name += "_r";
    MIP_RETURN_NOT_OK(schema.AddField(f));
  }
  const bool string_keys = lkey->type() == DataType::kString &&
                           rkey->type() == DataType::kString;
  const bool numeric_keys = lkey->type() != DataType::kString &&
                            rkey->type() != DataType::kString;
  auto match = [&](size_t l, size_t r) {
    if (!lkey->IsValid(l) || !rkey->IsValid(r)) return false;
    if (string_keys) return lkey->StringAt(l) == rkey->StringAt(r);
    if (!numeric_keys) return false;  // string vs numeric: never equal
    const double a = lkey->AsDoubleAt(l);
    const double b = rkey->AsDoubleAt(r);
    return !std::isnan(a) && !std::isnan(b) && a == b;
  };
  Table out = Table::Empty(std::move(schema));
  std::vector<Value> row(left.num_columns() + right.num_columns());
  for (size_t l = 0; l < left.num_rows(); ++l) {
    bool matched = false;
    for (size_t r = 0; r < right.num_rows(); ++r) {
      if (!match(l, r)) continue;
      matched = true;
      for (size_t c = 0; c < left.num_columns(); ++c) row[c] = left.At(l, c);
      for (size_t c = 0; c < right.num_columns(); ++c) {
        row[left.num_columns() + c] = right.At(r, c);
      }
      MIP_RETURN_NOT_OK(out.AppendRow(row));
    }
    if (!matched && type == JoinType::kLeft) {
      for (size_t c = 0; c < left.num_columns(); ++c) row[c] = left.At(l, c);
      for (size_t c = 0; c < right.num_columns(); ++c) {
        row[left.num_columns() + c] = Value::Null();
      }
      MIP_RETURN_NOT_OK(out.AppendRow(row));
    }
  }
  return out;
}

Table MakeTable(const std::vector<Field>& fields,
                const std::vector<std::vector<Value>>& rows) {
  Schema schema;
  for (const Field& f : fields) EXPECT_TRUE(schema.AddField(f).ok());
  Table t = Table::Empty(std::move(schema));
  for (const auto& row : rows) EXPECT_TRUE(t.AppendRow(row).ok());
  return t;
}

TEST(JoinCorpusTest, HashJoinMatchesNestedLoopReference) {
  const Value N = Value::Null();
  // Duplicate keys on both sides, NULL keys on both sides, an unmatched key
  // on each side, and an int-vs-double key pair (5 joins 5.0).
  const Table l_int = MakeTable(
      {{"k", DataType::kInt64}, {"lv", DataType::kString}},
      {{Value::Int(1), Value::String("a")},
       {Value::Int(2), Value::String("b")},
       {Value::Int(2), Value::String("c")},
       {N, Value::String("null1")},
       {Value::Int(5), Value::String("d")},
       {Value::Int(7), Value::String("lonely")},
       {Value::Int(2), Value::String("e")},
       {N, Value::String("null2")},
       {Value::Int(0), Value::String("f")}});
  const Table r_num = MakeTable(
      {{"k", DataType::kFloat64}, {"rv", DataType::kFloat64}},
      {{Value::Double(2.0), Value::Double(20.0)},
       {Value::Double(2.0), Value::Double(21.0)},
       {N, Value::Double(-1.0)},
       {Value::Double(1.0), Value::Double(10.0)},
       {Value::Double(9.0), Value::Double(90.0)},
       {Value::Double(5.0), Value::Double(50.0)},
       {Value::Double(0.0), Value::Double(0.5)}});
  const Table l_str = MakeTable(
      {{"k", DataType::kString}, {"lv", DataType::kInt64}},
      {{Value::String("x"), Value::Int(1)},
       {Value::String(""), Value::Int(2)},
       {N, Value::Int(3)},
       {Value::String("y"), Value::Int(4)},
       {Value::String("x"), Value::Int(5)},
       {Value::String("z"), Value::Int(6)}});
  const Table r_str = MakeTable(
      {{"k", DataType::kString}, {"rv", DataType::kString}},
      {{Value::String("y"), Value::String("Y1")},
       {Value::String("x"), Value::String("X1")},
       {N, Value::String("NULLROW")},
       {Value::String("x"), Value::String("X2")},
       {Value::String(""), Value::String("EMPTY")}});
  const Table empty_int =
      MakeTable({{"k", DataType::kInt64}, {"rv", DataType::kFloat64}}, {});
  const Table empty_str =
      MakeTable({{"k", DataType::kString}, {"rv", DataType::kString}}, {});

  // Randomized bulk case: small key domain (heavy duplication), ~10% NULLs.
  Rng rng(4242);
  std::vector<std::vector<Value>> l_rows, r_rows;
  for (int i = 0; i < 200; ++i) {
    const bool lnull = rng.NextUint64() % 10 == 0;
    l_rows.push_back({lnull ? N : Value::Int(rng.NextUint64() % 17),
                      Value::String("L" + std::to_string(i))});
    const bool rnull = rng.NextUint64() % 10 == 0;
    r_rows.push_back({rnull ? N : Value::Int(rng.NextUint64() % 17),
                      Value::Double(static_cast<double>(i))});
  }
  const Table l_bulk = MakeTable(
      {{"k", DataType::kInt64}, {"lv", DataType::kString}}, l_rows);
  const Table r_bulk = MakeTable(
      {{"k", DataType::kInt64}, {"rv", DataType::kFloat64}}, r_rows);

  struct Case {
    const char* name;
    const Table* left;
    const Table* right;
  };
  const std::vector<Case> cases = {
      {"int_x_double", &l_int, &r_num},
      {"double_x_int (swapped)", &r_num, &l_int},
      {"string_x_string", &l_str, &r_str},
      {"string_x_int (type mismatch, no matches)", &l_str, &r_bulk},
      {"empty_right", &l_int, &empty_int},
      {"empty_left", &empty_int, &r_num},
      {"empty_both", &empty_str, &empty_str},
      {"bulk_duplicates", &l_bulk, &r_bulk},
  };

  ThreadPool pool(8);
  ExecContext parallel_ctx;
  parallel_ctx.pool = &pool;
  parallel_ctx.morsel_size = 3;  // many morsels even over the tiny tables
  ExecContext serial_ctx;
  serial_ctx.morsel_size = 3;

  for (const Case& c : cases) {
    for (const JoinType type : {JoinType::kInner, JoinType::kLeft}) {
      Result<Table> expected =
          NestedLoopJoin(*c.left, *c.right, "k", "k", type);
      ASSERT_TRUE(expected.ok()) << c.name << ": "
                                 << expected.status().ToString();
      for (const ExecContext* ctx : {&serial_ctx, &parallel_ctx}) {
        Result<Table> got =
            engine::HashJoin(*c.left, *c.right, "k", "k", type, ctx);
        ASSERT_TRUE(got.ok()) << c.name << ": " << got.status().ToString();
        EXPECT_EQ(Bytes(*got), Bytes(*expected))
            << c.name << " type=" << (type == JoinType::kInner ? "inner"
                                                               : "left")
            << " threads=" << (ctx->pool != nullptr ? 8 : 1);
      }
    }
  }
}

TEST(JoinStatsTest, HllNdvEstimateWithinTolerance) {
  Schema schema;
  ASSERT_TRUE(schema.AddField({"v", DataType::kInt64}).ok());
  Table t = Table::Empty(std::move(schema));
  // 5000 distinct values, each appearing twice: NDV must track distincts,
  // not rows.
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int(i)}).ok());
    ASSERT_TRUE(t.AppendRow({Value::Int(i)}).ok());
  }
  const engine::TableStats stats = engine::ComputeTableStats(t);
  EXPECT_EQ(stats.row_count, 10000);
  ASSERT_EQ(stats.columns.size(), 1u);
  const int64_t ndv = stats.columns[0].ndv;
  // 1024 registers give ~3.2% standard error; 10% is a safe deterministic
  // bound (the sketch hash is fixed, so this never flakes).
  EXPECT_GT(ndv, 4500);
  EXPECT_LT(ndv, 5500);
}

// Three workers each hold a shard of `visits`; the master holds a small
// `cohort`. The federated view merges the remote shards, so a cohort join
// exercises MergeUnion-over-RemoteScan against a local build side — the
// exact shape the broadcast/collect strategy choice targets.
class DistributedJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2026);
    for (const std::string id : {"w1", "w2", "w3"}) {
      ASSERT_TRUE(master_.AddWorker(id).ok());
      Schema schema;
      ASSERT_TRUE(schema.AddField({"patient_id", DataType::kInt64}).ok());
      ASSERT_TRUE(schema.AddField({"dur", DataType::kFloat64}).ok());
      Table t = Table::Empty(std::move(schema));
      for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE(t.AppendRow({Value::Int(rng.NextUint64() % 200),
                                 Value::Double(rng.NextGaussian())})
                        .ok());
      }
      ASSERT_TRUE(master_.LoadDataset(id, "visits", std::move(t)).ok());
    }
    view_ = *master_.CreateFederatedView("visits");
    ASSERT_TRUE(master_.local_db()
                    .ExecuteSql("CREATE TABLE cohort (patient_id bigint, "
                                "label varchar)")
                    .ok());
    ASSERT_TRUE(master_.local_db()
                    .ExecuteSql("INSERT INTO cohort VALUES (3, 'case'), "
                                "(17, 'case'), (42, 'control'), "
                                "(99, 'control'), (140, 'case'), "
                                "(199, 'control'), (1000, 'nohit')")
                    .ok());
    join_sql_ = "SELECT label, dur FROM " + view_ + " JOIN cohort ON " +
                view_ + ".patient_id = cohort.patient_id";
  }

  federation::MasterNode master_;
  std::string view_;
  std::string join_sql_;
};

TEST_F(DistributedJoinTest, StrategiesAreByteIdenticalAtAnyThreadCount) {
  Database& db = master_.local_db();
  db.optimizer_options().force_join_strategy = -1;
  db.set_optimizer_enabled(false);
  Result<Table> reference = db.ExecuteSql(join_sql_);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_GT(reference->num_rows(), 0u);
  db.set_optimizer_enabled(true);

  ThreadPool pool(8);
  ExecContext parallel_ctx;
  parallel_ctx.pool = &pool;
  parallel_ctx.morsel_size = 32;
  ExecContext serial_ctx;

  for (const ExecContext* ctx : {&serial_ctx, &parallel_ctx}) {
    db.set_exec_context(ctx);
    // kCollect=0, kBroadcast=1, -1 = let the cost model pick.
    for (const int force : {-1, 0, 1}) {
      db.optimizer_options().force_join_strategy = force;
      Result<Table> got = db.ExecuteSql(join_sql_);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(Bytes(*got), Bytes(*reference))
          << "force=" << force
          << " threads=" << (ctx->pool != nullptr ? 8 : 1);
    }
  }
  db.set_exec_context(nullptr);
  db.optimizer_options().force_join_strategy = -1;
}

TEST_F(DistributedJoinTest, BroadcastShipsFewerBytesThanCollect) {
  Database& db = master_.local_db();
  // Warm the schema/stats caches so the measured runs carry only data.
  ASSERT_TRUE(db.ExecuteSql(join_sql_).ok());

  // collect: fetch all 900 visit rows
  db.optimizer_options().force_join_strategy = 0;
  master_.bus().ResetStats();
  ASSERT_TRUE(db.ExecuteSql(join_sql_).ok());
  const uint64_t collect_bytes = master_.bus().stats().bytes;

  // broadcast: ship 7 cohort rows out
  db.optimizer_options().force_join_strategy = 1;
  master_.bus().ResetStats();
  ASSERT_TRUE(db.ExecuteSql(join_sql_).ok());
  const uint64_t broadcast_bytes = master_.bus().stats().bytes;
  db.optimizer_options().force_join_strategy = -1;

  // ~35 joined rows come back instead of 900 shard rows; the win must be
  // large, not marginal.
  EXPECT_LT(broadcast_bytes * 2, collect_bytes)
      << "broadcast=" << broadcast_bytes << " collect=" << collect_bytes;
}

TEST_F(DistributedJoinTest, CostModelPicksBroadcastForSmallBuildSide) {
  Database& db = master_.local_db();
  db.optimizer_options().force_join_strategy = -1;
  db.optimizer_options().cost_model = true;
  Result<Table> explain = db.ExecuteSql("EXPLAIN " + join_sql_);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  std::string text;
  for (size_t r = 0; r < explain->num_rows(); ++r) {
    text += explain->At(r, 0).string_value();
    text += '\n';
  }
  // 7 cohort rows against 900 remote rows: shipping the cohort is cheaper
  // than collecting the shards, and the rendering says so.
  EXPECT_NE(text.find("strategy=broadcast"), std::string::npos) << text;
  EXPECT_NE(text.find("cost: broadcast="), std::string::npos) << text;

  // The ablation: with the model off the plan keeps the collect default and
  // renders no costs, yet the fingerprint (canonical rendering) is shared —
  // covered by plan_test's fingerprint stability test.
  db.optimizer_options().cost_model = false;
  Result<Table> off = db.ExecuteSql("EXPLAIN " + join_sql_);
  ASSERT_TRUE(off.ok());
  std::string off_text;
  for (size_t r = 0; r < off->num_rows(); ++r) {
    off_text += off->At(r, 0).string_value();
    off_text += '\n';
  }
  EXPECT_EQ(off_text.find("strategy=broadcast"), std::string::npos)
      << off_text;
  EXPECT_EQ(off_text.find("cost:"), std::string::npos) << off_text;
  db.optimizer_options().cost_model = true;
}

TEST_F(DistributedJoinTest, RemoteStatsRoundTripAndCaching) {
  Database& db = master_.local_db();
  // The merged view's stats come from per-shard get_stats probes: exact row
  // counts sum; NDV is an upper-bound merge capped by the row count.
  Result<engine::TableStats> stats = db.GetTableStats(view_);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->row_count, 900);
  const engine::ColumnStats* pid = stats->FindColumn("patient_id");
  ASSERT_NE(pid, nullptr);
  EXPECT_GT(pid->ndv, 150);  // ~200 distinct patients across shards
  ASSERT_TRUE(pid->has_range);
  EXPECT_GE(pid->min_value, 0.0);
  EXPECT_LE(pid->max_value, 199.0);

  // Second fetch is served from the stats cache: no new bus traffic.
  master_.bus().ResetStats();
  ASSERT_TRUE(db.GetTableStats(view_).ok());
  EXPECT_EQ(master_.bus().stats().messages, 0u);

  // Any catalog mutation bumps the version and invalidates the cache, so
  // the next fetch goes back over the wire.
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE poke (x bigint)").ok());
  master_.bus().ResetStats();
  ASSERT_TRUE(db.GetTableStats(view_).ok());
  EXPECT_GT(master_.bus().stats().messages, 0u);
}

TEST_F(DistributedJoinTest, JoinCountersSurfaceInGatewayMetrics) {
  Database& db = master_.local_db();
  db.optimizer_options().force_join_strategy = -1;
  ASSERT_TRUE(db.ExecuteSql(join_sql_).ok());
  federation::Gateway gateway(&db, federation::GatewayOptions{});
  const std::string metrics = gateway.MetricsText();
  EXPECT_NE(metrics.find("# joins\n"), std::string::npos);
  EXPECT_NE(metrics.find("joins_planned "), std::string::npos);
  EXPECT_EQ(metrics.find("joins_planned 0\n"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("join_build_rows "), std::string::npos);
  EXPECT_EQ(metrics.find("join_build_rows 0\n"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("join_probe_rows "), std::string::npos);
}

/// Forwards every TableStorage call to a real store and counts the
/// StorageTableStats calls — how often the worker profiles a disk table.
class StatsCountingStorage : public engine::TableStorage {
 public:
  explicit StatsCountingStorage(engine::TableStorage* inner) : inner_(inner) {}

  std::vector<std::string> StorageTableNames() const override {
    return inner_->StorageTableNames();
  }
  Result<Schema> StorageTableSchema(const std::string& name) const override {
    return inner_->StorageTableSchema(name);
  }
  Result<Table> Scan(const std::string& name, const engine::ScanSpec& spec,
                     engine::ScanStats* stats) const override {
    return inner_->Scan(name, spec, stats);
  }
  Result<Table> ScanTable(const std::string& name,
                          const engine::Expr* prune_filter,
                          engine::ScanStats* stats) const override {
    return inner_->ScanTable(name, prune_filter, stats);
  }
  Status AppendRows(const std::string& name, const Table& rows) override {
    return inner_->AppendRows(name, rows);
  }
  Result<engine::ScanStats> PrunePreview(
      const std::string& name,
      const engine::Expr* prune_filter) const override {
    return inner_->PrunePreview(name, prune_filter);
  }
  Result<Table> IndexScanTable(const std::string& name,
                               const engine::Expr* prune_filter,
                               engine::ScanStats* stats) const override {
    return inner_->IndexScanTable(name, prune_filter, stats);
  }
  Result<engine::IndexPreview> PreviewIndexScan(
      const std::string& name,
      const engine::Expr* prune_filter) const override {
    return inner_->PreviewIndexScan(name, prune_filter);
  }
  Result<engine::TableStats> StorageTableStats(
      const std::string& name) const override {
    stats_calls.fetch_add(1);
    return inner_->StorageTableStats(name);
  }
  engine::StorageCounters Counters() const override {
    return inner_->Counters();
  }

  mutable std::atomic<int> stats_calls{0};

 private:
  engine::TableStorage* inner_;
};

// Many broadcast joins from several client threads against one worker: the
// build side binds for one statement only, so the worker's catalog version
// never moves, the stats it cached for the probe table stay valid, and
// every answer is byte-identical to the forced-collect plan.
TEST(BroadcastWorkerCatalogTest, ConcurrentBroadcastJoinsLeaveCatalogAlone) {
  const std::string dir = ::testing::TempDir() + "mip_join_bcast_catalog";
  ASSERT_TRUE(storage::EnsureDir(dir).ok());
  if (auto names = storage::ListDir(dir); names.ok()) {
    for (const std::string& f : names.ValueOrDie()) {
      ASSERT_TRUE(storage::RemoveFile(dir + "/" + f).ok());
    }
  }
  auto store = storage::StorageEngine::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  Rng rng(77);
  Schema schema;
  ASSERT_TRUE(schema.AddField({"patient_id", DataType::kInt64}).ok());
  ASSERT_TRUE(schema.AddField({"dur", DataType::kFloat64}).ok());
  Table visits = Table::Empty(std::move(schema));
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(visits.AppendRow({Value::Int(rng.NextUint64() % 120),
                                  Value::Double(rng.NextGaussian())})
                    .ok());
  }
  ASSERT_TRUE((*store)->AppendRows("visits", visits).ok());
  StatsCountingStorage counting(store->get());

  federation::MessageBus bus;
  bus.set_keep_log(true);
  federation::WorkerNode worker(
      "w1", std::make_shared<federation::LocalFunctionRegistry>(), 7);
  ASSERT_TRUE(worker.AttachDiskStorage(&counting).ok());
  ASSERT_TRUE(worker.AttachToBus(&bus).ok());
  federation::MasterNode master;
  master.set_transport(&bus);
  ASSERT_TRUE(master.AddRemoteWorker("w1", {"visits"}).ok());
  ASSERT_TRUE(master.CreateFederatedView("visits").ok());
  Database& db = master.local_db();
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE cohort (patient_id bigint, "
                            "label varchar)")
                  .ok());
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO cohort VALUES (4, 'case'), "
                            "(18, 'control'), (63, 'case'), (200, 'none')")
                  .ok());
  const std::string sql =
      "SELECT label, dur FROM visits_federated JOIN cohort "
      "ON visits_federated.patient_id = cohort.patient_id";

  db.optimizer_options().force_join_strategy = 0;  // collect
  Result<Table> collect = db.ExecuteSql(sql);
  ASSERT_TRUE(collect.ok()) << collect.status().ToString();
  ASSERT_GT(collect->num_rows(), 0u);
  const std::vector<uint8_t> expected = Bytes(*collect);

  // Warm the worker's stats cache for the probe table, as a get_stats
  // probe from the master's cost model would.
  ASSERT_TRUE(worker.db().GetTableStats("visits").ok());
  const int profiles = counting.stats_calls.load();
  ASSERT_GT(profiles, 0);
  const uint64_t version = worker.db().catalog_version();
  const std::vector<std::string> tables = worker.db().TableNames();

  ThreadPool pool(8);
  ExecContext parallel_ctx;
  parallel_ctx.pool = &pool;
  parallel_ctx.morsel_size = 32;
  ExecContext serial_ctx;
  db.optimizer_options().force_join_strategy = 1;  // broadcast
  constexpr int kClients = 4;
  constexpr int kJoinsPerClient = 8;
  for (const ExecContext* ctx : {&serial_ctx, &parallel_ctx}) {
    db.set_exec_context(ctx);
    worker.db().set_exec_context(ctx);
    bus.ClearLog();
    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        for (int j = 0; j < kJoinsPerClient; ++j) {
          Result<Table> got = db.ExecuteSql(sql);
          if (!got.ok() || Bytes(*got) != expected) mismatches.fetch_add(1);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const int threads = ctx->pool != nullptr ? 8 : 1;
    EXPECT_EQ(mismatches.load(), 0) << "threads=" << threads;
    int bound_calls = 0;
    for (const auto& entry : bus.log()) {
      bound_calls += entry.type == "run_sql_bound" ? 1 : 0;
    }
    EXPECT_EQ(bound_calls, kClients * kJoinsPerClient)
        << "threads=" << threads;
  }
  db.set_exec_context(nullptr);
  worker.db().set_exec_context(nullptr);

  EXPECT_EQ(worker.db().catalog_version(), version);
  EXPECT_EQ(worker.db().TableNames(), tables);
  ASSERT_TRUE(worker.db().GetTableStats("visits").ok());
  EXPECT_EQ(counting.stats_calls.load(), profiles)
      << "the worker re-profiled the probe table";
}

// Records every pushed broadcast join per location: its SQL text with the
// temp name masked, and the temp name's number.
class BoundSqlRecorder : public engine::RemoteSite {
 public:
  struct Push {
    std::string masked_sql;
    uint64_t temp_number = 0;
    /// Runs compare by text only: the temp-name counter is process-wide,
    /// so the numbers of a second run start where the first stopped.
    bool operator==(const Push& o) const { return masked_sql == o.masked_sql; }
  };

  explicit BoundSqlRecorder(engine::RemoteSite* inner) : inner_(inner) {}

  Result<Table> Call(const std::string& location,
                     const engine::RemoteRequest& request) override {
    if (request.kind == engine::RemoteKind::kRunSqlBound) {
      Push push;
      push.masked_sql = request.sql;
      const size_t at = push.masked_sql.find(request.temp_name);
      if (at != std::string::npos) {
        push.masked_sql.replace(at, request.temp_name.size(), "<temp>");
      }
      push.temp_number =
          std::stoull(request.temp_name.substr(sizeof("__bcast") - 1));
      std::lock_guard<std::mutex> lock(mu_);
      pushes_[location].push_back(push);
    }
    return inner_->Call(location, request);
  }

  std::map<std::string, std::vector<Push>> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(pushes_, {});
  }

 private:
  engine::RemoteSite* inner_;
  std::mutex mu_;
  std::map<std::string, std::vector<Push>> pushes_;
};

// Eight remote parts run concurrently on an 8-thread pool and one after
// another under ExecContext::Serial(): a pushed-filter scan, a
// merge-aggregate GROUP BY, and a forced broadcast and a forced collect
// join give byte-identical tables, and each part ships the same broadcast
// SQL (temp names drawn in part order before dispatch) in both modes.
TEST(ParallelPartsTest, ParallelPartsMatchSerialByteForByte) {
  federation::MasterNode master;
  Rng rng(418);
  std::vector<std::string> sites;
  for (int w = 0; w < 8; ++w) {
    const std::string id = "p" + std::to_string(w);
    sites.push_back(id);
    ASSERT_TRUE(master.AddWorker(id).ok());
    Schema schema;
    ASSERT_TRUE(schema.AddField({"patient_id", DataType::kInt64}).ok());
    ASSERT_TRUE(schema.AddField({"dur", DataType::kFloat64}).ok());
    Table t = Table::Empty(std::move(schema));
    for (int i = 0; i < 120; ++i) {
      ASSERT_TRUE(t.AppendRow({Value::Int(rng.NextUint64() % 60),
                               Value::Double(rng.NextGaussian())})
                      .ok());
    }
    ASSERT_TRUE(master.LoadDataset(id, "visits", std::move(t)).ok());
  }
  const std::string view = *master.CreateFederatedView("visits");
  Database& db = master.local_db();
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE cohort (patient_id bigint, "
                            "label varchar)")
                  .ok());
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO cohort VALUES (3, 'case'), "
                            "(17, 'control'), (42, 'case'), (59, 'control')")
                  .ok());
  BoundSqlRecorder recorder(&master);
  db.set_remote_site(&recorder);

  const std::string join_sql = "SELECT label, dur FROM " + view +
                               " JOIN cohort ON " + view +
                               ".patient_id = cohort.patient_id";
  struct Case {
    std::string sql;
    int force_join;  // -1 = no join in the query
  };
  const std::vector<Case> cases = {
      {"SELECT patient_id, dur FROM " + view + " WHERE dur > 0.5", -1},
      {"SELECT patient_id, count(*) AS n, sum(dur) AS s FROM " + view +
           " GROUP BY patient_id",
       -1},
      {join_sql, 1},
      {join_sql, 0},
  };
  Result<Table> explain = db.ExecuteSql("EXPLAIN " + cases[1].sql);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  size_t partials = 0;
  for (size_t r = 0; r < explain->num_rows(); ++r) {
    const std::string line = explain->At(r, 0).string_value();
    partials += line.find("GROUP BY patient_id]") != std::string::npos;
  }
  EXPECT_EQ(partials, sites.size())
      << "the GROUP BY must ship as per-part partial aggregates";

  ThreadPool pool(8);
  ExecContext parallel_ctx;
  parallel_ctx.pool = &pool;
  for (const Case& c : cases) {
    db.optimizer_options().force_join_strategy = c.force_join;
    std::vector<std::vector<uint8_t>> bytes;
    std::vector<std::map<std::string, std::vector<BoundSqlRecorder::Push>>>
        pushed;
    for (const ExecContext* ctx : {&ExecContext::Serial(),
                                   static_cast<const ExecContext*>(
                                       &parallel_ctx)}) {
      db.set_exec_context(ctx);
      Result<Table> got = db.ExecuteSql(c.sql);
      ASSERT_TRUE(got.ok()) << c.sql << ": " << got.status().ToString();
      ASSERT_GT(got->num_rows(), 0u) << c.sql;
      bytes.push_back(Bytes(*got));
      pushed.push_back(recorder.Take());
    }
    EXPECT_EQ(bytes[0], bytes[1]) << c.sql << " force=" << c.force_join;
    EXPECT_EQ(pushed[0], pushed[1]) << c.sql << " force=" << c.force_join;
    if (c.force_join != 1) {
      EXPECT_TRUE(pushed[1].empty()) << c.sql;
      continue;
    }
    // Part i binds the i-th temp name drawn, in both modes.
    for (const auto& mode : pushed) {
      ASSERT_EQ(mode.size(), sites.size());
      const uint64_t first = mode.at(sites[0]).at(0).temp_number;
      for (size_t i = 0; i < sites.size(); ++i) {
        ASSERT_EQ(mode.at(sites[i]).size(), 1u) << sites[i];
        EXPECT_EQ(mode.at(sites[i])[0].temp_number, first + i) << sites[i];
      }
    }
  }
  db.set_exec_context(nullptr);
  db.optimizer_options().force_join_strategy = -1;
  db.set_remote_site(&master);
}

// The same shards and cohort, but the worker answers over a real loopback
// TCP socket: strategy results must match the in-process bus byte for byte
// (the transport must not perturb join bytes, and run_sql_bound must work
// through the framed wire protocol, not just direct dispatch).
TEST(DistributedJoinTcpTest, StrategiesMatchBusResultsOverTcp) {
  auto make_shard = [](uint64_t seed) {
    Rng rng(seed);
    Schema schema;
    EXPECT_TRUE(schema.AddField({"patient_id", DataType::kInt64}).ok());
    EXPECT_TRUE(schema.AddField({"dur", DataType::kFloat64}).ok());
    Table t = Table::Empty(std::move(schema));
    for (int i = 0; i < 150; ++i) {
      EXPECT_TRUE(t.AppendRow({Value::Int(rng.NextUint64() % 80),
                               Value::Double(rng.NextGaussian())})
                      .ok());
    }
    return t;
  };
  auto setup_master = [](federation::MasterNode* master) {
    ASSERT_TRUE(master->local_db()
                    .ExecuteSql("CREATE TABLE cohort (patient_id bigint, "
                                "label varchar)")
                    .ok());
    ASSERT_TRUE(master->local_db()
                    .ExecuteSql("INSERT INTO cohort VALUES (5, 'case'), "
                                "(31, 'control'), (77, 'case')")
                    .ok());
  };
  const std::string sql =
      "SELECT label, dur FROM visits_federated JOIN cohort "
      "ON visits_federated.patient_id = cohort.patient_id";

  // Reference run over the in-process bus.
  federation::MasterNode bus_master;
  ASSERT_TRUE(bus_master.AddWorker("t1").ok());
  ASSERT_TRUE(bus_master.LoadDataset("t1", "visits", make_shard(99)).ok());
  ASSERT_TRUE(bus_master.CreateFederatedView("visits").ok());
  setup_master(&bus_master);
  std::vector<std::vector<uint8_t>> bus_bytes;
  for (const int force : {0, 1}) {
    bus_master.local_db().optimizer_options().force_join_strategy = force;
    Result<Table> got = bus_master.local_db().ExecuteSql(sql);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_GT(got->num_rows(), 0u);
    bus_bytes.push_back(Bytes(*got));
  }

  // The same worker data behind a listening TCP transport.
  auto functions = std::make_shared<federation::LocalFunctionRegistry>();
  federation::WorkerNode worker("t1", functions, 7);
  ASSERT_TRUE(worker.LoadDataset("visits", make_shard(99)).ok());
  net::TcpTransport server;
  ASSERT_TRUE(worker.AttachToBus(&server).ok());
  ASSERT_TRUE(server.Listen(0).ok());
  net::TcpTransport client;
  client.AddPeer("t1", "127.0.0.1", server.port());

  federation::MasterNode tcp_master;
  tcp_master.set_transport(&client);
  ASSERT_TRUE(tcp_master.AddRemoteWorker("t1", {"visits"}).ok());
  ASSERT_TRUE(tcp_master.CreateFederatedView("visits").ok());
  setup_master(&tcp_master);
  for (size_t i = 0; i < 2; ++i) {
    tcp_master.local_db().optimizer_options().force_join_strategy =
        static_cast<int>(i);
    Result<Table> got = tcp_master.local_db().ExecuteSql(sql);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(Bytes(*got), bus_bytes[i]) << "force=" << i;
  }
  EXPECT_GT(client.stats().bytes, 0u);
  client.Shutdown();
  server.Shutdown();
}

}  // namespace
}  // namespace mip
