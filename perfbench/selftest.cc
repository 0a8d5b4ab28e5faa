// Self-tests of the benchmark: decorators are pass-through, the oracle
// catches a wrong answer, seeds are deterministic, and a small federation
// answers every operation of a second seed correctly (traced and untraced).

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "common/bytes.h"
#include "engine/database.h"
#include "federation/worker.h"

namespace perfbench {

namespace {

using mip::engine::Column;
using mip::engine::DataType;

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

std::vector<uint8_t> Bytes(const Table& t) {
  mip::BufferWriter w;
  mip::engine::SerializeTable(t, &w);
  return w.TakeBytes();
}

Table Small(int64_t rows) {
  std::vector<int64_t> k(rows);
  std::vector<double> x(rows);
  std::vector<std::string> g(rows);
  for (int64_t i = 0; i < rows; ++i) {
    k[i] = (i * 7919) % 1000;
    x[i] = 0.5 * static_cast<double>(i);
    g[i] = i % 3 == 0 ? "a" : "b";
  }
  mip::engine::Schema schema;
  (void)schema.AddField({"k", DataType::kInt64});
  (void)schema.AddField({"x", DataType::kFloat64});
  (void)schema.AddField({"g", DataType::kString});
  return Table::Make(schema, {Column::FromInts(k), Column::FromDoubles(x),
                              Column::FromStrings(g)})
      .ValueOrDie();
}

Scale TinyScale() {
  Scale s;
  s.visits_per_site = 4000;
  s.patients_per_site = 1000;
  s.cohort_sizes = {4, 64, 512};
  s.records_per_site = 20000;
  s.ingest_batch_rows = 5000;
  s.write_rows = 500;
  s.study_patients_per_site = 400;
  return s;
}

void TestTransportPassThrough() {
  std::printf("transport decorator is pass-through\n");
  Tracer tracer;
  auto functions = std::make_shared<mip::federation::LocalFunctionRegistry>();
  mip::federation::WorkerNode plain("plain", functions, 1);
  mip::federation::WorkerNode traced("traced", functions, 1);
  (void)plain.LoadDataset("t", Small(3000));
  (void)traced.LoadDataset("t", Small(3000));
  mip::net::TcpTransport plain_listener, traced_listener, client;
  TracingTransport traced_server(&traced_listener, &tracer);
  TracingTransport traced_client(&client, &tracer);
  Check(plain_listener.Listen(0).ok() && traced_listener.Listen(0).ok(), "listen");
  (void)plain.AttachToBus(&plain_listener);
  (void)traced.AttachToBus(&traced_server);
  client.AddPeer("plain", "127.0.0.1", plain_listener.port());
  client.AddPeer("traced", "127.0.0.1", traced_listener.port());
  for (const char* sql : {"SELECT g, SUM(x) AS s FROM t GROUP BY g",
                          "SELECT k, x FROM t WHERE k < 40"}) {
    mip::BufferWriter w;
    w.WriteString(sql);
    const std::vector<uint8_t> payload = w.TakeBytes();
    auto direct = client.Send({"c", "plain", "run_sql", "", payload});
    auto wrapped_server = client.Send({"c", "traced", "run_sql", "", payload});
    auto wrapped_client = traced_client.Send({"c", "plain", "run_sql", "", payload});
    Check(direct.ok() && wrapped_server.ok() && wrapped_client.ok() &&
              *direct == *wrapped_server && *direct == *wrapped_client,
          std::string("identical reply bytes: ") + sql);
  }
  Check(traced_client.stats().bytes == client.stats().bytes &&
            traced_client.SupportsCodecs("plain") == client.SupportsCodecs("plain"),
        "stats and codec negotiation forward");
  const std::vector<Span> spans = tracer.Take();
  Check(spans.size() == 4, "one remote span per wrapped send, one worker span per wrapped handler");
  client.Shutdown();
  plain_listener.Shutdown();
  traced_listener.Shutdown();
}

void TestStoragePassThrough(const std::string& dir) {
  std::printf("storage decorator is pass-through\n");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto store = mip::storage::StorageEngine::Open(dir);
  Check(store.ok(), "open store");
  if (!store.ok()) return;
  Tracer tracer;
  TracingStorage traced(store->get(), &tracer);
  Check(traced.AppendRows("t", Small(20000)).ok(), "append through decorator");
  Check((*store)->Flush().ok(), "flush");
  mip::engine::Database direct_db("direct");
  mip::engine::Database traced_db("traced");
  (void)direct_db.AttachStorage(store->get());
  (void)traced_db.AttachStorage(&traced);
  for (const char* sql : {"SELECT k, x FROM t WHERE k = 17",
                          "SELECT g, COUNT(*) AS n FROM t GROUP BY g"}) {
    auto a = direct_db.ExecuteSql(sql);
    auto b = traced_db.ExecuteSql(sql);
    Check(a.ok() && b.ok() && Bytes(*a) == Bytes(*b),
          std::string("identical scan results: ") + sql);
  }
  bool stats_match = true;
  for (bool index : {false, true}) {
    mip::engine::ScanStats sa, sb;
    auto a = index ? (*store)->IndexScanTable("t", nullptr, &sa)
                   : (*store)->ScanTable("t", nullptr, &sa);
    auto b = index ? traced.IndexScanTable("t", nullptr, &sb)
                   : traced.ScanTable("t", nullptr, &sb);
    stats_match = stats_match && a.ok() && b.ok() && Bytes(*a) == Bytes(*b) &&
                  sa.scanned == sb.scanned && sa.pruned == sb.pruned;
  }
  Check(stats_match, "scan tables and ScanStats identical on both paths");
  Check(!tracer.Take().empty(), "storage spans recorded");
  store->reset();
  std::filesystem::remove_all(dir);
}

void TestGatewayPassThrough(const std::string& dir) {
  std::printf("gateway wrapper and traced federation are pass-through\n");
  std::vector<std::vector<uint8_t>> replies[2];
  for (int traced = 0; traced < 2; ++traced) {
    Tracer tracer;
    SqlFederation::Options options;
    options.dataset = "t";
    options.on_disk = traced == 1;  // also covers the disk path
    options.data_root = dir;
    options.tracer = traced == 1 ? &tracer : nullptr;
    std::vector<std::vector<Table>> sites(kSites, {Small(2000)});
    auto fed = SqlFederation::Start(options, std::move(sites), {});
    Check(fed.ok(), traced ? "traced federation up" : "plain federation up");
    if (!fed.ok()) return;
    for (const char* sql : {"SELECT g, COUNT(*) AS n, SUM(x) AS s FROM t_federated GROUP BY g ORDER BY g",
                            "SELECT k, x FROM t_federated WHERE k = 5 ORDER BY x"}) {
      auto reply = (*fed)->Query("selftest", sql);
      replies[traced].push_back(reply.ok() ? Bytes(*reply) : std::vector<uint8_t>());
    }
  }
  Check(replies[0] == replies[1] && !replies[0].empty() && !replies[0][0].empty(),
        "identical gateway replies with and without tracing");
  std::filesystem::remove_all(dir);
}

void TestOracleFlagsWrongValue() {
  std::printf("oracle flags a wrong expected value\n");
  const Table good = Small(50);
  Check(CompareTables(good, good.Slice(0, 50)).empty(), "identical tables match");
  std::vector<double> x = good.column(1).doubles();
  x[17] += 1e-3;
  Table bad = Table::Make(good.schema(), {good.column(0), Column::FromDoubles(x),
                                          good.column(2)})
                  .ValueOrDie();
  Check(!CompareTables(good, bad).empty(), "perturbed float is flagged");
  Check(!CompareTables(good, good.Slice(0, 49)).empty(), "missing row is flagged");
  Check(!CompareResultText("beta = 1.2500 (p 0.03)", "beta = 1.2600 (p 0.03)", 1e-3).empty(),
        "perturbed experiment number is flagged");
  Check(CompareResultText("beta = 1.2500", "beta = 1.2500", 1e-3).empty(),
        "identical experiment text matches");
}

bool SameOps(const OpPlan& a, const OpPlan& b) {
  if (a.timed.size() != b.timed.size() || a.warmup.size() != b.warmup.size()) return false;
  for (size_t i = 0; i < a.timed.size(); ++i) {
    const Op& x = a.timed[i];
    const Op& y = b.timed[i];
    if (x.client != y.client || x.cls != y.cls || x.sql != y.sql || x.site != y.site ||
        x.first_id != y.first_id || x.spec != y.spec || x.secure != y.secure) {
      return false;
    }
  }
  return true;
}

void TestSeedDeterminism() {
  std::printf("a seed always yields the same operation list\n");
  for (const char* workload : {"fed_sql", "disk_mixed", "study"}) {
    RunConfig c;
    c.workload = workload;
    c.seed = 7;
    auto a = MakeOpPlan(c);
    auto b = MakeOpPlan(c);
    c.seed = 8;
    auto other = MakeOpPlan(c);
    // The study's experiments are fixed; its seed draws the cohorts.
    const bool differs = std::string(workload) == "study" || !SameOps(*a, *other);
    Check(a.ok() && b.ok() && other.ok() && SameOps(*a, *b) && differs,
          std::string(workload) + ": same seed same list, new seed new inputs");
  }
}

void TestSecondSeedRuns(const std::string& dir) {
  std::printf("a second seed answers every operation correctly (small scale, traced)\n");
  for (const char* workload : {"fed_sql", "disk_mixed", "study"}) {
    RunConfig c;
    c.workload = workload;
    c.seed = 2;
    c.seconds = 1;
    c.trace = true;
    c.scale = TinyScale();
    c.work_dir = dir;
    auto out = RunWorkload(c);
    if (out.ok()) {
      for (const std::string& line : out->notes) std::printf("    %s\n", line.c_str());
    }
    Check(out.ok() && out->correct && out->failed == 0 && out->attempted > 0,
          std::string(workload) + (out.ok() ? "" : ": " + out.status().ToString()));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace

int RunSelfTests() {
  const std::string dir = ".bench_build/data/selftest-" + std::to_string(getpid());
  TestTransportPassThrough();
  TestStoragePassThrough(dir + "/store");
  TestGatewayPassThrough(dir + "/gateway");
  TestOracleFlagsWrongValue();
  TestSeedDeterminism();
  TestSecondSeedRuns(dir + "/runs");
  std::filesystem::remove_all(dir);
  return g_failures;
}

}  // namespace perfbench
