// Failure injection and adversarial-input robustness: malformed SQL never
// crashes the engine, failing endpoints surface as Status (not aborts),
// inconsistent federations produce clean errors, and serialized payloads
// from hostile peers are rejected bounds-checked.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "algorithms/linear_regression.h"
#include "common/rng.h"
#include "engine/database.h"
#include "engine/remote_site.h"
#include "engine/sql_parser.h"
#include "federation/fault.h"
#include "federation/master.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/tcp_transport.h"
#include "smpc/cluster.h"

namespace mip {
namespace {

using engine::Database;
using engine::Table;

// --- Parser fuzz: random token soup must error, never crash --------------

TEST(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  static const char* kTokens[] = {
      "SELECT", "FROM",  "WHERE", "GROUP",  "BY",    "HAVING", "ORDER",
      "LIMIT",  "JOIN",  "ON",    "CASE",   "WHEN",  "THEN",   "ELSE",
      "END",    "AND",   "OR",    "NOT",    "IN",    "BETWEEN", "LIKE",
      "CAST",   "AS",    "NULL",  "count",  "sum",   "avg",    "x",
      "y",      "t",     "(",     ")",      ",",     "*",      "+",
      "-",      "/",     "=",     "<",      ">",     "<=",     ">=",
      "<>",     "1",     "2.5",   "'s'",    ".",     ";",      "%",
  };
  Rng rng(20240707);
  int parsed_ok = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string sql;
    const int len = 1 + static_cast<int>(rng.NextBounded(24));
    for (int i = 0; i < len; ++i) {
      sql += kTokens[rng.NextBounded(std::size(kTokens))];
      sql += " ";
    }
    Result<engine::SqlStatement> result = engine::ParseSql(sql);
    if (result.ok()) ++parsed_ok;  // rare but legitimate
  }
  // The point is reaching here without UB; a few random strings do parse.
  SUCCEED() << parsed_ok << " of 3000 random strings parsed";
}

TEST(ParserFuzzTest, DeeplyNestedExpressionsAreHandled) {
  std::string expr = "1";
  for (int i = 0; i < 200; ++i) expr = "(" + expr + " + 1)";
  Result<engine::ExprPtr> parsed = engine::ParseExpression(expr);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.ValueOrDie()->ContainsAggregate() == false);
}

// --- Engine execution never crashes on weird-but-valid input -------------

TEST(EngineRobustnessTest, ExtremeValuesFlowThrough) {
  Database db("edge");
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE e (x double)").ok());
  ASSERT_TRUE(db.ExecuteSql(
      "INSERT INTO e VALUES (1e308), (-1e308), (1e-308), (0), (NULL)").ok());
  Table out = *db.ExecuteSql(
      "SELECT sum(x) AS s, max(abs(x)) AS m, count(*) AS n FROM e");
  EXPECT_EQ(out.At(0, 2).int_value(), 5);
  // Overflowing arithmetic produces inf, not UB.
  Table inf = *db.ExecuteSql("SELECT x * 10 AS big FROM e WHERE x > 1e307");
  EXPECT_TRUE(std::isinf(inf.At(0, 0).AsDouble()));
}

TEST(EngineRobustnessTest, EmptyTablesEverywhere) {
  Database db("empty");
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE e (x double, g varchar)").ok());
  Table agg = *db.ExecuteSql(
      "SELECT count(*) AS n, sum(x) AS s, avg(x) AS m FROM e");
  EXPECT_EQ(agg.At(0, 0).int_value(), 0);
  EXPECT_TRUE(agg.At(0, 1).is_null());
  EXPECT_TRUE(agg.At(0, 2).is_null());
  Table grouped = *db.ExecuteSql(
      "SELECT g, count(*) AS n FROM e GROUP BY g");
  EXPECT_EQ(grouped.num_rows(), 0u);
  Table filtered = *db.ExecuteSql("SELECT * FROM e WHERE x > 0 LIMIT 5");
  EXPECT_EQ(filtered.num_rows(), 0u);
}

// --- Federation failure paths ---------------------------------------------

TEST(FederationRobustnessTest, FailingWorkerEndpointSurfacesAsStatus) {
  federation::MessageBus bus;
  ASSERT_TRUE(bus.RegisterEndpoint(
                   "broken",
                   [](const federation::Envelope&)
                       -> Result<std::vector<uint8_t>> {
                     return Status::ExecutionError("disk on fire");
                   })
                  .ok());
  federation::Envelope env{"master", "broken", "local_run", "j", {}};
  Result<std::vector<uint8_t>> reply = bus.Send(env);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kExecutionError);
}

TEST(FederationRobustnessTest, LocalStepErrorAbortsTheAlgorithmCleanly) {
  federation::MasterNode master;
  ASSERT_TRUE(master.AddWorker("w1").ok());
  ASSERT_TRUE(master.AddWorker("w2").ok());
  engine::Schema schema;
  ASSERT_TRUE(schema.AddField({"x", engine::DataType::kFloat64}).ok());
  ASSERT_TRUE(schema.AddField({"y", engine::DataType::kFloat64}).ok());
  Table t = Table::Empty(schema);
  ASSERT_TRUE(t.AppendRow({engine::Value::Double(1),
                           engine::Value::Double(2)}).ok());
  // Only w1 holds the dataset columns the algorithm needs; w2's copy lacks
  // the target column -> its local step must fail, and the whole run must
  // return that failure (no partial/garbage result).
  ASSERT_TRUE(master.LoadDataset("w1", "d", t).ok());
  engine::Schema bad;
  ASSERT_TRUE(bad.AddField({"x", engine::DataType::kFloat64}).ok());
  ASSERT_TRUE(master.LoadDataset("w2", "d", Table::Empty(bad)).ok());

  algorithms::LinearRegressionSpec spec;
  spec.datasets = {"d"};
  spec.covariates = {"x"};
  spec.target = "y";
  federation::FederationSession session = *master.StartSession({"d"});
  Result<algorithms::LinearRegressionResult> result =
      algorithms::RunLinearRegression(&session, spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(FederationRobustnessTest, ShapeMismatchAcrossWorkersIsAnError) {
  federation::MasterNode master;
  ASSERT_TRUE(master.AddWorker("a").ok());
  ASSERT_TRUE(master.AddWorker("b").ok());
  engine::Schema schema;
  ASSERT_TRUE(schema.AddField({"x", engine::DataType::kFloat64}).ok());
  ASSERT_TRUE(master.LoadDataset("a", "d", Table::Empty(schema)).ok());
  ASSERT_TRUE(master.LoadDataset("b", "d", Table::Empty(schema)).ok());
  // A step whose transfer shape depends on the worker id — the Master's
  // merge must reject it rather than silently mis-sum.
  ASSERT_TRUE(master.functions()
                  ->Register("lopsided",
                             [](federation::WorkerContext& ctx,
                                const federation::TransferData&)
                                 -> Result<federation::TransferData> {
                               federation::TransferData out;
                               if (ctx.worker_id() == "a") {
                                 out.PutVector("v", {1, 2, 3});
                               } else {
                                 out.PutVector("v", {1});
                               }
                               return out;
                             })
                  .ok());
  federation::FederationSession session = *master.StartSession({"d"});
  Result<federation::TransferData> merged = session.LocalRunAndAggregate(
      "lopsided", federation::TransferData(),
      federation::AggregationMode::kPlain);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
}

// --- Fault injection: retries, quorum, graceful degradation ---------------

namespace {

// Three workers, each holding one row of dataset "d" with x = worker index
// + 1, plus a "sum_x" local step registered on the shared registry.
void SetupThreeWorkerFederation(federation::MasterNode* master) {
  for (int w = 0; w < 3; ++w) {
    const std::string id = "w" + std::to_string(w);
    ASSERT_TRUE(master->AddWorker(id).ok());
    engine::Schema schema;
    ASSERT_TRUE(schema.AddField({"x", engine::DataType::kFloat64}).ok());
    Table t = Table::Empty(schema);
    ASSERT_TRUE(t.AppendRow({engine::Value::Double(w + 1)}).ok());
    ASSERT_TRUE(master->LoadDataset(id, "d", std::move(t)).ok());
  }
  ASSERT_TRUE(
      master->functions()
          ->Register("sum_x",
                     [](federation::WorkerContext& ctx,
                        const federation::TransferData&)
                         -> Result<federation::TransferData> {
                       MIP_ASSIGN_OR_RETURN(Table t, ctx.db().GetTable("d"));
                       federation::TransferData out;
                       out.PutScalar("sum", t.At(0, 0).AsDouble());
                       out.PutScalar("n", 1.0);
                       return out;
                     })
          .ok());
}

}  // namespace

TEST(FaultInjectionTest, WorkerFailingTwiceIsRetriedAndIncluded) {
  federation::MasterNode master;
  SetupThreeWorkerFederation(&master);
  federation::FaultInjector injector(/*seed=*/1);
  federation::FaultSpec flaky;
  flaky.fail_first_n = 2;  // down twice, then recovers
  injector.SetEndpointFault("w1", flaky);
  master.bus().set_fault_injector(&injector);

  federation::FederationSession session = *master.StartSession({"d"});
  federation::FanoutPolicy policy;
  policy.max_attempts = 3;
  policy.retry_backoff_ms = 0.1;
  session.set_fanout_policy(policy);

  federation::TransferData agg = *session.LocalRunAndAggregate(
      "sum_x", federation::TransferData(),
      federation::AggregationMode::kPlain);
  EXPECT_EQ(*agg.GetScalar("sum"), 6.0);  // 1+2+3: nobody excluded
  EXPECT_EQ(*agg.GetScalar("n"), 3.0);
  EXPECT_TRUE(session.excluded_workers().empty());
  for (const federation::WorkerRunReport& r : session.last_reports()) {
    EXPECT_TRUE(r.status.ok());
    EXPECT_EQ(r.attempts, r.worker_id == "w1" ? 3 : 1);
  }
  master.bus().set_fault_injector(nullptr);
}

TEST(FaultInjectionTest, PersistentlyFailingWorkerIsExcludedOnceQuorumMet) {
  federation::MasterNode master;
  SetupThreeWorkerFederation(&master);
  federation::FaultInjector injector(/*seed=*/2);
  federation::FaultSpec dead;
  dead.fail_first_n = 1 << 20;  // never recovers
  injector.SetEndpointFault("w2", dead);
  master.bus().set_fault_injector(&injector);

  federation::FederationSession session = *master.StartSession({"d"});
  federation::FanoutPolicy policy;
  policy.max_attempts = 2;
  policy.retry_backoff_ms = 0.1;
  policy.min_workers = 2;
  session.set_fanout_policy(policy);

  federation::TransferData agg = *session.LocalRunAndAggregate(
      "sum_x", federation::TransferData(),
      federation::AggregationMode::kPlain);
  EXPECT_EQ(*agg.GetScalar("sum"), 3.0);  // w0 + w1 only
  ASSERT_EQ(session.excluded_workers().size(), 1u);
  EXPECT_EQ(session.excluded_workers()[0], "w2");
  ASSERT_EQ(session.ExcludedDatasets().size(), 1u);
  EXPECT_EQ(session.ExcludedDatasets()[0], "d");
  ASSERT_EQ(session.active_workers().size(), 2u);

  // Subsequent steps run against the surviving cohort without touching the
  // dead site again.
  const int deliveries_before = injector.DeliveriesOn("*->w2");
  federation::TransferData again = *session.LocalRunAndAggregate(
      "sum_x", federation::TransferData(),
      federation::AggregationMode::kPlain);
  EXPECT_EQ(*again.GetScalar("sum"), 3.0);
  EXPECT_EQ(injector.DeliveriesOn("*->w2"), deliveries_before);
  master.bus().set_fault_injector(nullptr);
}

TEST(FaultInjectionTest, BelowQuorumSessionReturnsCleanErrorNotPartial) {
  federation::MasterNode master;
  SetupThreeWorkerFederation(&master);
  federation::FaultInjector injector(/*seed=*/3);
  federation::FaultSpec dead;
  dead.fail_first_n = 1 << 20;
  injector.SetEndpointFault("w1", dead);
  injector.SetEndpointFault("w2", dead);
  master.bus().set_fault_injector(&injector);

  federation::FederationSession session = *master.StartSession({"d"});
  federation::FanoutPolicy policy;
  policy.max_attempts = 2;
  policy.retry_backoff_ms = 0.1;
  policy.min_workers = 2;  // only w0 can answer -> below quorum
  session.set_fanout_policy(policy);

  Result<federation::TransferData> result = session.LocalRunAndAggregate(
      "sum_x", federation::TransferData(),
      federation::AggregationMode::kPlain);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("quorum"), std::string::npos);
  // A failed step excludes nobody: the cohort is intact for a later retry
  // once the sites recover.
  EXPECT_TRUE(session.excluded_workers().empty());
  EXPECT_EQ(session.active_workers().size(), 3u);
  master.bus().set_fault_injector(nullptr);
}

TEST(FaultInjectionTest, StrictModeStillFailsFastWithoutQuorum) {
  federation::MasterNode master;
  SetupThreeWorkerFederation(&master);
  federation::FaultInjector injector(/*seed=*/4);
  federation::FaultSpec dead;
  dead.fail_first_n = 1 << 20;
  injector.SetEndpointFault("w1", dead);
  master.bus().set_fault_injector(&injector);

  // Default policy: min_workers = 0 -> every worker required.
  federation::FederationSession session = *master.StartSession({"d"});
  Result<std::vector<federation::TransferData>> result =
      session.LocalRun("sum_x", federation::TransferData());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  master.bus().set_fault_injector(nullptr);
}

TEST(FaultInjectionTest, SlowWorkerTimesOutAndIsExcludedUnderQuorum) {
  federation::MasterNode master;
  SetupThreeWorkerFederation(&master);
  federation::FaultInjector injector(/*seed=*/5);
  federation::FaultSpec slow;
  // Margins sized for loaded CI machines: the slow worker overshoots the
  // deadline 5x, while healthy workers (no injected delay, in-process bus)
  // have the full 50ms before a spurious timeout would break quorum.
  slow.delay_ms = 250.0;
  injector.SetEndpointFault("w0", slow);
  master.bus().set_fault_injector(&injector);

  federation::FederationSession session = *master.StartSession({"d"});
  federation::FanoutPolicy policy;
  policy.max_attempts = 2;
  policy.retry_backoff_ms = 0.1;
  policy.worker_timeout_ms = 50.0;
  policy.min_workers = 2;
  session.set_fanout_policy(policy);

  federation::TransferData agg = *session.LocalRunAndAggregate(
      "sum_x", federation::TransferData(),
      federation::AggregationMode::kPlain);
  EXPECT_EQ(*agg.GetScalar("sum"), 5.0);  // 2 + 3; w0 timed out
  ASSERT_EQ(session.excluded_workers().size(), 1u);
  EXPECT_EQ(session.excluded_workers()[0], "w0");
  master.bus().set_fault_injector(nullptr);
}

// --- Serving layer: slow-loris defense -------------------------------------

TEST(ServingRobustnessTest, SlowLorisClientEvictedWithoutCollateral) {
  net::TcpTransportOptions options;
  options.read_deadline_ms = 80.0;  // stall budget for a started frame
  net::TcpTransport server(options);
  ASSERT_TRUE(server
                  .RegisterEndpoint(
                      "svc",
                      [](const net::Envelope& e)
                          -> Result<std::vector<uint8_t>> {
                        return e.payload;
                      })
                  .ok());
  ASSERT_TRUE(server.Listen(0).ok());

  // The attacker: a seeded trickle feeding one byte of a valid frame at a
  // time, never completing it — the classic slow-loris hold.
  auto loris = net::Socket::ConnectTcp("127.0.0.1", server.port(), 2000.0);
  ASSERT_TRUE(loris.ok());
  net::Socket attacker = loris.MoveValueUnsafe();
  net::Envelope request{"loris", "svc", "echo", "",
                        std::vector<uint8_t>(128, 0xAB)};
  BufferWriter writer;
  net::EncodeFrame(net::EncodeEnvelopePayload(request), &writer);
  const std::vector<uint8_t> frame = writer.TakeBytes();

  Rng rng(20260809);
  bool evicted = false;
  size_t sent = 0;
  // Trickle for up to ~2s; the server must cut us off near the 80ms budget
  // (detected as a send failing or the read side reporting EOF).
  for (int step = 0; step < 200 && !evicted; ++step) {
    const size_t chunk = 1 + rng.NextBounded(2);  // 1-2 byte trickle
    if (sent + chunk < frame.size()) {  // never finish the frame
      if (!attacker.SendAll(frame.data() + sent, chunk, 100.0).ok()) {
        evicted = true;
        break;
      }
      sent += chunk;
    }
    uint8_t byte = 0;
    auto r = attacker.TryRecv(&byte, 1);
    if (!r.ok() && r.status().code() == StatusCode::kIOError) {
      evicted = true;  // server closed the connection
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Healthy clients during and after the attack are untouched.
  net::TcpTransport client;
  client.AddPeer("svc", "127.0.0.1", server.port());
  for (int i = 0; i < 3; ++i) {
    auto reply = client.Send(net::Envelope{
        "good", "svc", "echo", "", std::vector<uint8_t>{1, 2, 3}});
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply.ValueOrDie(), (std::vector<uint8_t>{1, 2, 3}));
  }

  EXPECT_TRUE(evicted) << "slow-loris connection was never cut off";
  EXPECT_GE(server.server_stats().evicted_deadline, 1u);
  client.Shutdown();
  server.Shutdown();
}

// --- Hostile engine requests ----------------------------------------------

/// Sends one engine request to the worker and checks the reply contract: a
/// non-OK status carrying a typed code, or a reply that decodes as a table.
void ExpectTypedErrorOrTable(federation::MessageBus* bus,
                             const std::string& type,
                             std::vector<uint8_t> payload) {
  Result<std::vector<uint8_t>> reply = bus->Send(
      federation::Envelope{"master", "w", type, "", std::move(payload)});
  if (!reply.ok()) {
    EXPECT_NE(reply.status().code(), StatusCode::kOk);
    EXPECT_NE(reply.status().code(), StatusCode::kInternal)
        << type << ": " << reply.status().ToString();
    return;
  }
  BufferReader reader(reply.ValueOrDie());
  EXPECT_TRUE(engine::DeserializeTable(&reader).ok()) << type;
}

TEST(RemoteRequestFuzzTest, TruncatedAndFlippedPayloadsNeverCrashTheWorker) {
  federation::MessageBus bus;
  federation::WorkerNode worker(
      "w", std::make_shared<federation::LocalFunctionRegistry>(), 7);
  ASSERT_TRUE(worker.AttachToBus(&bus).ok());
  engine::Database scratch("scratch");
  ASSERT_TRUE(scratch.ExecuteSql("CREATE TABLE d (k bigint, g varchar, "
                                 "x double)").ok());
  ASSERT_TRUE(scratch.ExecuteSql("INSERT INTO d VALUES (1, 'a', 0.5), "
                                 "(2, 'b', 1.5), (3, 'a', NULL), "
                                 "(2, 'c', -4.0)").ok());
  ASSERT_TRUE(scratch.ExecuteSql("CREATE TABLE cohort (pid bigint, "
                                 "label varchar)").ok());
  ASSERT_TRUE(scratch.ExecuteSql("INSERT INTO cohort VALUES (2, 'case'), "
                                 "(3, 'control')").ok());
  ASSERT_TRUE(worker.LoadDataset("d", *scratch.GetTable("d")).ok());
  const Table bound = *scratch.GetTable("cohort");

  std::vector<engine::RemoteRequest> requests(5);
  requests[0].sql = "SELECT g, sum(x) AS s FROM d WHERE k > 1 GROUP BY g";
  for (int i : {1, 2}) {
    requests[i].kind = engine::RemoteKind::kRunSqlBound;
    requests[i].temp_name = "__bcast1";
    requests[i].sql = "SELECT * FROM d JOIN __bcast1 ON k = pid";
    requests[i].bound = &bound;
  }
  requests[3].kind = engine::RemoteKind::kGetSchema;
  requests[3].table_name = "d";
  requests[4].kind = engine::RemoteKind::kGetStats;
  requests[4].table_name = "d";

  // Request 1 ships the build side as the wire serializer writes it (the v2
  // container: its header alone is smaller than the fixed-width one, so no
  // table falls back by itself). Request 2 hand-builds the fixed-width
  // layout, the serializer's per-input fallback, which the worker decodes
  // too. The sweeps below therefore cover both layouts.
  const size_t fixed_width_bound = 2 * sizeof(uint32_t) +
                                   requests[1].temp_name.size() +
                                   requests[1].sql.size() +
                                   engine::RawTableWireBytes(bound);
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::string type = engine::RemoteKindName(requests[i].kind);
    BufferWriter writer;
    if (i == 2) {
      writer.WriteString(requests[i].temp_name);
      writer.WriteString(requests[i].sql);
      engine::SerializeTable(bound, &writer);
    } else {
      engine::EncodeRemoteRequest(requests[i], &writer);
    }
    const std::vector<uint8_t> valid = writer.TakeBytes();
    if (i == 1) EXPECT_LT(valid.size(), fixed_width_bound);
    if (i == 2) EXPECT_EQ(valid.size(), fixed_width_bound);
    Result<std::vector<uint8_t>> ok =
        bus.Send(federation::Envelope{"master", "w", type, "", valid});
    ASSERT_TRUE(ok.ok()) << type << ": " << ok.status().ToString();

    for (size_t len = 0; len < valid.size(); ++len) {
      ExpectTypedErrorOrTable(
          &bus, type, std::vector<uint8_t>(valid.begin(), valid.begin() + len));
    }
    for (size_t pos = 0; pos < valid.size(); ++pos) {
      std::vector<uint8_t> flipped = valid;
      flipped[pos] ^= 0xFF;
      ExpectTypedErrorOrTable(&bus, type, std::move(flipped));
    }
  }
  // No hostile request may leave a temp table behind or touch the data.
  EXPECT_EQ(worker.db().TableNames(), std::vector<std::string>{"d"});
  EXPECT_EQ(worker.db().GetTable("d")->num_rows(), 4u);

  // The retired whole-table fetch and unknown types are rejected outright.
  BufferWriter name;
  name.WriteString("d");
  for (const char* type : {"fetch_table", "no_such_type"}) {
    Result<std::vector<uint8_t>> reply =
        bus.Send(federation::Envelope{"master", "w", type, "", name.bytes()});
    ASSERT_FALSE(reply.ok()) << type;
    EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument) << type;
  }
}

// --- SMPC robustness -------------------------------------------------------

TEST(SmpcRobustnessTest, MismatchedContributionLengthsRejected) {
  smpc::SmpcCluster cluster(smpc::SmpcConfig{});
  ASSERT_TRUE(cluster.ImportShares("j", {1.0, 2.0}).ok());
  ASSERT_TRUE(cluster.ImportShares("j", {1.0}).ok());
  EXPECT_FALSE(cluster.Compute("j", smpc::SmpcOp::kSum).ok());
  // Union tolerates different lengths by design.
  ASSERT_TRUE(cluster.ImportShares("u", {1.0, 2.0}).ok());
  ASSERT_TRUE(cluster.ImportShares("u", {3.0}).ok());
  EXPECT_TRUE(cluster.Compute("u", smpc::SmpcOp::kUnion).ok());
}

TEST(SmpcRobustnessTest, NonFiniteInputsRejectedAtImport) {
  smpc::SmpcCluster cluster(smpc::SmpcConfig{});
  EXPECT_FALSE(cluster.ImportShares("j", {1.0, std::nan("")}).ok());
  EXPECT_FALSE(cluster.ImportShares("j", {INFINITY}).ok());
  // The failed imports must not leave partial contributions behind.
  EXPECT_EQ(cluster.NumContributions("j"), 0u);
}

TEST(SmpcRobustnessTest, OverflowingMagnitudeRejectedNotWrapped) {
  smpc::SmpcConfig config;
  config.frac_bits = 40;  // tiny headroom on purpose
  smpc::SmpcCluster cluster(config);
  const double too_big = 1e7;
  Result<std::vector<double>>* unused = nullptr;
  (void)unused;
  Status st = cluster.ImportShares("j", {too_big});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace mip
