// Gateway result cache semantics: hits on semantically identical SQL,
// misses on different plans, implicit invalidation through the catalog
// version, LRU eviction order, single-flight computation, the typed BUSY
// admission path, and SELECTs overlapping under the shared catalog lock.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "engine/database.h"
#include "engine/remote_site.h"
#include "engine/table.h"
#include "federation/gateway.h"
#include "storage/io.h"
#include "storage/store.h"

namespace mip {
namespace {

using engine::Database;
using engine::Table;
using federation::Gateway;
using federation::GatewayOptions;
using federation::ResultCache;

net::Envelope SqlEnvelope(const std::string& sql,
                          const std::string& tenant = "alice") {
  BufferWriter writer;
  writer.WriteString(sql);
  return net::Envelope{tenant, "gateway", "run_sql", "", writer.TakeBytes()};
}

Result<Table> DecodeReply(const Result<std::vector<uint8_t>>& reply) {
  MIP_RETURN_NOT_OK(reply.status());
  BufferReader reader(reply.ValueOrDie());
  return engine::DeserializeTable(&reader);
}

class GatewayCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>("serve");
    ASSERT_TRUE(db_->ExecuteSql("CREATE TABLE t (x double)").ok());
    ASSERT_TRUE(
        db_->ExecuteSql("INSERT INTO t VALUES (1), (2), (3)").ok());
  }

  std::unique_ptr<Database> db_;
};

TEST_F(GatewayCacheTest, HitOnSemanticallyIdenticalSql) {
  Gateway gateway(db_.get());
  // Different spellings, same optimized plan -> one computation, one hit.
  auto first = DecodeReply(
      gateway.Handle(SqlEnvelope("SELECT x FROM t WHERE x > 1")));
  auto second = DecodeReply(
      gateway.Handle(SqlEnvelope("select   x from t where x > 1")));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first.ValueOrDie().ToString(100),
            second.ValueOrDie().ToString(100));
  const ResultCache::Stats stats = gateway.cache().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST_F(GatewayCacheTest, MissOnSemanticallyDifferentSql) {
  Gateway gateway(db_.get());
  ASSERT_TRUE(
      gateway.Handle(SqlEnvelope("SELECT x FROM t WHERE x > 1")).ok());
  ASSERT_TRUE(
      gateway.Handle(SqlEnvelope("SELECT x FROM t WHERE x > 2")).ok());
  ASSERT_TRUE(gateway.Handle(SqlEnvelope("SELECT x FROM t")).ok());
  const ResultCache::Stats stats = gateway.cache().stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST_F(GatewayCacheTest, DdlAndDmlInvalidateThroughCatalogVersion) {
  Gateway gateway(db_.get());
  const std::string sql = "SELECT count(*) AS n FROM t";
  auto before = DecodeReply(gateway.Handle(SqlEnvelope(sql)));
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.ValueOrDie().At(0, 0).int_value(), 3);

  // A write through the gateway bumps the catalog version: the cached entry
  // stops matching (no explicit invalidation anywhere).
  ASSERT_TRUE(
      gateway.Handle(SqlEnvelope("INSERT INTO t VALUES (4)")).ok());
  auto after = DecodeReply(gateway.Handle(SqlEnvelope(sql)));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.ValueOrDie().At(0, 0).int_value(), 4);

  const ResultCache::Stats stats = gateway.cache().stats();
  EXPECT_EQ(stats.misses, 2u);  // recomputed after the write
  EXPECT_EQ(stats.hits, 0u);
}

TEST_F(GatewayCacheTest, CapacityEvictsLeastRecentlyUsed) {
  GatewayOptions options;
  options.cache_capacity = 2;
  Gateway gateway(db_.get(), options);
  const std::string a = "SELECT x FROM t WHERE x > 0";
  const std::string b = "SELECT x FROM t WHERE x > 1";
  const std::string c = "SELECT x FROM t WHERE x > 2";

  ASSERT_TRUE(gateway.Handle(SqlEnvelope(a)).ok());  // miss, cache {A}
  ASSERT_TRUE(gateway.Handle(SqlEnvelope(b)).ok());  // miss, cache {B,A}
  ASSERT_TRUE(gateway.Handle(SqlEnvelope(a)).ok());  // hit, order {A,B}
  ASSERT_TRUE(gateway.Handle(SqlEnvelope(c)).ok());  // miss, evicts B
  ASSERT_TRUE(gateway.Handle(SqlEnvelope(a)).ok());  // hit: A survived
  ASSERT_TRUE(gateway.Handle(SqlEnvelope(b)).ok());  // miss: B was the victim

  const ResultCache::Stats stats = gateway.cache().stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(gateway.cache().size(), 2u);
}

TEST_F(GatewayCacheTest, CacheDisabledAlwaysRecomputes) {
  GatewayOptions options;
  options.cache_capacity = 0;
  Gateway gateway(db_.get(), options);
  const std::string sql = "SELECT x FROM t WHERE x > 1";
  ASSERT_TRUE(gateway.Handle(SqlEnvelope(sql)).ok());
  ASSERT_TRUE(gateway.Handle(SqlEnvelope(sql)).ok());
  const ResultCache::Stats stats = gateway.cache().stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);  // the cache is never consulted
}

TEST_F(GatewayCacheTest, ZeroCapacityShedsAdmissionWithTypedBusy) {
  GatewayOptions options;
  options.max_in_flight = 0;  // everything sheds: the deterministic BUSY path
  Gateway gateway(db_.get(), options);
  auto reply = gateway.Handle(SqlEnvelope("SELECT x FROM t"));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(reply.status().ToString().find("BUSY"), std::string::npos);
  EXPECT_EQ(gateway.stats().shed_capacity, 1u);
}

TEST_F(GatewayCacheTest, TenantQuotaShedsIndependently) {
  GatewayOptions options;
  options.per_tenant_in_flight = 0;  // every tenant over quota immediately
  Gateway gateway(db_.get(), options);
  auto reply = gateway.Handle(SqlEnvelope("SELECT x FROM t", "bob"));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(reply.status().ToString().find("bob"), std::string::npos);
  EXPECT_EQ(gateway.stats().shed_quota, 1u);
}

TEST_F(GatewayCacheTest, MetricsTextExposesCountersAndQuantiles) {
  Gateway gateway(db_.get());
  ASSERT_TRUE(
      gateway.Handle(SqlEnvelope("SELECT x FROM t", "alice")).ok());
  ASSERT_TRUE(
      gateway.Handle(SqlEnvelope("SELECT x FROM t", "alice")).ok());
  auto metrics = gateway.Handle(
      net::Envelope{"alice", "gateway", "metrics", "", {}});
  ASSERT_TRUE(metrics.ok());
  const std::string text(metrics.ValueOrDie().begin(),
                         metrics.ValueOrDie().end());
  EXPECT_NE(text.find("gateway_admitted 2"), std::string::npos);
  EXPECT_NE(text.find("cache_hits 1"), std::string::npos);
  EXPECT_NE(text.find("tenant{id=\"alice\"}"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
}

/// A RemoteSite served by a second Database whose run_sql blocks on a latch
/// while armed; get_schema answers at once so planning never blocks.
/// get_stats is NotImplemented (the cost model stays blind).
class LatchedSite : public engine::RemoteSite {
 public:
  explicit LatchedSite(Database* db) : db_(db) {}

  Result<Table> Call(const std::string& location,
                     const engine::RemoteRequest& request) override {
    (void)location;
    switch (request.kind) {
      case engine::RemoteKind::kGetSchema: {
        MIP_ASSIGN_OR_RETURN(engine::Schema schema,
                             db_->GetSchema(request.table_name));
        return Table::Empty(std::move(schema));
      }
      case engine::RemoteKind::kRunSql: {
        std::unique_lock<std::mutex> lock(mu_);
        blocked_ += 1;
        cv_.notify_all();
        cv_.wait(lock, [&] { return !armed_; });
        return db_->ExecuteSql(request.sql);
      }
      default:
        return Status::NotImplemented("not served by LatchedSite");
    }
  }

  /// Waits until a run_sql call is parked on the latch.
  bool WaitBlocked(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return blocked_ > 0; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
    cv_.notify_all();
  }

 private:
  Database* db_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = true;
  int blocked_ = 0;
};

TEST_F(GatewayCacheTest, SelectsOverlapAndDdlWaitsForInFlightSelect) {
  Database hospital("hospital");
  ASSERT_TRUE(hospital.ExecuteSql("CREATE TABLE v (y double)").ok());
  ASSERT_TRUE(hospital.ExecuteSql("INSERT INTO v VALUES (5), (6)").ok());
  LatchedSite site(&hospital);
  db_->set_remote_site(&site);
  ASSERT_TRUE(db_->ExecuteSql("CREATE REMOTE TABLE rv ON 'h' AS v").ok());
  Gateway gateway(db_.get());

  const std::string count_sql = "SELECT count(*) AS n FROM t";
  auto warm = DecodeReply(gateway.Handle(SqlEnvelope(count_sql)));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ(warm->At(0, 0).int_value(), 3);

  auto run = [&gateway](std::string sql) {
    return std::async(std::launch::async, [&gateway, sql] {
      return DecodeReply(gateway.Handle(SqlEnvelope(sql)));
    });
  };
  std::future<Result<Table>> a, hit, fresh, write;
  // Declared after the futures, so it is destroyed first: every exit path
  // releases the latch before a future's destructor waits on its request.
  struct ReleaseOnExit {
    LatchedSite* site;
    ~ReleaseOnExit() { site->Release(); }
  } release{&site};

  // Request A parks inside the remote round trip, holding the catalog
  // lock shared for the whole execution.
  a = run("SELECT y FROM rv WHERE y > 5");
  ASSERT_TRUE(site.WaitBlocked(std::chrono::seconds(10)));

  // While A is in flight: a cache hit and a fresh local SELECT complete.
  const auto timeout = std::chrono::seconds(5);
  hit = run(count_sql);
  ASSERT_EQ(hit.wait_for(timeout), std::future_status::ready)
      << "cache hit waited for an unrelated in-flight SELECT";
  fresh = run("SELECT x FROM t WHERE x > 2");
  ASSERT_EQ(fresh.wait_for(timeout), std::future_status::ready)
      << "fresh SELECT waited for an unrelated in-flight SELECT";
  auto hit_table = hit.get();
  ASSERT_TRUE(hit_table.ok()) << hit_table.status().ToString();
  EXPECT_EQ(hit_table->At(0, 0).int_value(), 3);
  auto fresh_table = fresh.get();
  ASSERT_TRUE(fresh_table.ok()) << fresh_table.status().ToString();
  EXPECT_EQ(fresh_table->num_rows(), 1u);

  // A write must wait for A's shared section to end.
  write = run("INSERT INTO t VALUES (4)");
  EXPECT_EQ(write.wait_for(std::chrono::milliseconds(200)),
            std::future_status::timeout)
      << "DDL/DML ran while a SELECT was executing";
  site.Release();
  auto a_table = a.get();
  ASSERT_TRUE(a_table.ok()) << a_table.status().ToString();
  EXPECT_EQ(a_table->num_rows(), 1u);
  ASSERT_TRUE(write.get().ok());

  // The write moved the catalog version: the cached count is not reused.
  auto after = DecodeReply(gateway.Handle(SqlEnvelope(count_sql)));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->At(0, 0).int_value(), 4);
  const ResultCache::Stats stats = gateway.cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);  // warm, A, fresh, count after the write
}

// --- ResultCache unit tests: single-flight ---------------------------------

TEST(ResultCacheTest, SingleFlightComputesOnceAcrossConcurrentCallers) {
  ResultCache cache(8);
  const ResultCache::Key key{42, 1};
  std::atomic<int> computes{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto result = cache.GetOrCompute(key, [&]() -> Result<Table> {
        computes.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return Table();
      });
      if (!result.ok()) failures.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(computes.load(), 1);
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.coalesced + stats.hits,
            static_cast<uint64_t>(kThreads - 1));
}

TEST(ResultCacheTest, FailedLeaderDoesNotPoisonTheKey) {
  ResultCache cache(8);
  const ResultCache::Key key{7, 1};
  std::atomic<int> computes{0};
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0}, error_count{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto result = cache.GetOrCompute(key, [&]() -> Result<Table> {
        const int n = computes.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (n == 0) return Status::Unavailable("first leader dies");
        return Table();
      });
      (result.ok() ? ok_count : error_count).fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  // Exactly the failing leader observes the failure; every waiter retries
  // into a successful leader (or a cached entry).
  EXPECT_EQ(error_count.load(), 1);
  EXPECT_EQ(ok_count.load(), kThreads - 1);
  // The key works afterwards — no poisoning.
  auto again = cache.GetOrCompute(
      key, [&]() -> Result<Table> { return Table(); });
  EXPECT_TRUE(again.ok());
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(GatewayDiskTest, DiskIngestInvalidatesCachedResults) {
  // A gateway serving a disk-backed table must never return stale cached
  // rows across an LSM ingest: IngestDisk bumps the catalog version, so
  // the (fingerprint, version) cache key stops matching.
  const std::string dir = ::testing::TempDir() + "mip_cache_disk";
  ASSERT_TRUE(storage::EnsureDir(dir).ok());
  if (auto names = storage::ListDir(dir); names.ok()) {
    for (const std::string& f : names.ValueOrDie()) {
      ASSERT_TRUE(storage::RemoveFile(dir + "/" + f).ok());
    }
  }
  auto store = storage::StorageEngine::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  engine::Schema schema({{"x", engine::DataType::kFloat64}});
  auto batch = Table::Make(
      schema, {engine::Column::FromDoubles({1.0, 2.0, 3.0})});
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE((*store)->AppendRows("readings", batch.ValueOrDie()).ok());

  Database db("diskserve");
  ASSERT_TRUE(db.AttachStorage(store.ValueOrDie().get()).ok());
  Gateway gateway(&db);
  const std::string sql = "SELECT count(*) AS n FROM readings";
  auto before = DecodeReply(gateway.Handle(SqlEnvelope(sql)));
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before.ValueOrDie().At(0, 0).int_value(), 3);

  // Out-of-band ingest (a loader process, not SQL through the gateway).
  ASSERT_TRUE(db.IngestDisk("readings", batch.ValueOrDie()).ok());

  auto after = DecodeReply(gateway.Handle(SqlEnvelope(sql)));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.ValueOrDie().At(0, 0).int_value(), 6);
  const ResultCache::Stats stats = gateway.cache().stats();
  EXPECT_EQ(stats.misses, 2u);  // recomputed, not served stale
  EXPECT_EQ(stats.hits, 0u);
}

TEST(GatewayDiskTest, CompactionDoesNotInvalidateCachedResults) {
  // Compaction rearranges bytes on disk without changing a single visible
  // row, so it must NOT bump the catalog version: cached results stay hot
  // across it (and across the Scan -> IndexScan access-path flip the new
  // segment layout may cause, because plan fingerprints are canonical).
  const std::string dir = ::testing::TempDir() + "mip_cache_compact";
  ASSERT_TRUE(storage::EnsureDir(dir).ok());
  if (auto names = storage::ListDir(dir); names.ok()) {
    for (const std::string& f : names.ValueOrDie()) {
      ASSERT_TRUE(storage::RemoveFile(dir + "/" + f).ok());
    }
  }
  storage::StorageOptions options;
  options.target_segment_rows = 40;
  auto store = storage::StorageEngine::Open(dir, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  engine::Schema schema({{"x", engine::DataType::kFloat64}});
  std::vector<double> xs;
  for (int i = 1; i <= 120; ++i) xs.push_back(static_cast<double>(i));
  auto batch = Table::Make(schema, {engine::Column::FromDoubles(xs)});
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE((*store)->AppendRows("readings", batch.ValueOrDie()).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_EQ((*store)->SegmentCount("readings").ValueOrDie(), 3u);

  Database db("diskserve");
  ASSERT_TRUE(db.AttachStorage(store.ValueOrDie().get()).ok());
  Gateway gateway(&db);
  const std::string sql = "SELECT count(*) AS n FROM readings WHERE x > 50";
  auto before = gateway.Handle(SqlEnvelope(sql));
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  auto decoded = DecodeReply(before);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.ValueOrDie().At(0, 0).int_value(), 70);

  const uint64_t version = db.catalog_version();
  ASSERT_TRUE((*store)->Compact("readings").ok());
  EXPECT_EQ(db.catalog_version(), version);

  // Same question after compaction: served from cache (hit, no recompute),
  // byte-for-byte the same reply.
  auto after = gateway.Handle(SqlEnvelope(sql));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.ValueOrDie(), before.ValueOrDie());
  const ResultCache::Stats stats = gateway.cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // Fresh questions against the compacted layout still answer correctly.
  auto fresh = DecodeReply(gateway.Handle(
      SqlEnvelope("SELECT count(*) AS n FROM readings WHERE x <= 50")));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh.ValueOrDie().At(0, 0).int_value(), 50);
}

TEST(GatewayDiskTest, MetricsExposeStorageCounters) {
  // The "# storage" /metrics section: lifetime flush/compaction/scan/index
  // counters from the attached store, absent when no storage is attached.
  const std::string dir = ::testing::TempDir() + "mip_cache_metrics";
  ASSERT_TRUE(storage::EnsureDir(dir).ok());
  if (auto names = storage::ListDir(dir); names.ok()) {
    for (const std::string& f : names.ValueOrDie()) {
      ASSERT_TRUE(storage::RemoveFile(dir + "/" + f).ok());
    }
  }
  storage::StorageOptions options;
  options.target_segment_rows = 40;
  auto store = storage::StorageEngine::Open(dir, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  engine::Schema schema({{"x", engine::DataType::kFloat64}});
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(static_cast<double>(i % 37));
  auto batch = Table::Make(schema, {engine::Column::FromDoubles(xs)});
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE((*store)->AppendRows("readings", batch.ValueOrDie()).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->Compact("readings").ok());

  Database db("metricsnode");
  ASSERT_TRUE(db.AttachStorage(store.ValueOrDie().get()).ok());
  Gateway gateway(&db);
  ASSERT_TRUE(
      gateway.Handle(SqlEnvelope("SELECT x FROM readings WHERE x > 30"))
          .ok());
  const std::string text = gateway.MetricsText();
  EXPECT_NE(text.find("# storage"), std::string::npos) << text;
  EXPECT_NE(text.find("storage_flushes 1"), std::string::npos) << text;
  EXPECT_NE(text.find("storage_compactions 1"), std::string::npos) << text;
  EXPECT_NE(text.find("storage_segments_scanned"), std::string::npos);
  EXPECT_NE(text.find("storage_index_probes"), std::string::npos);
  EXPECT_NE(text.find("storage_wal_replays"), std::string::npos);

  // No storage attached -> no storage section.
  Database bare("bare");
  Gateway plain(&bare);
  EXPECT_EQ(plain.MetricsText().find("# storage"), std::string::npos);
}

}  // namespace
}  // namespace mip
