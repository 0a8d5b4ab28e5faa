// Concurrent federated fan-out: with random per-link delays injected, the
// concurrent dispatch path must produce byte-identical aggregates to the
// sequential path, the traffic log must contain every envelope exactly
// once, and NetworkStats accounting must neither lose nor double-count
// under concurrency; a worker dataset reload never races the SQL it serves;
// the parts of a federated SELECT overlap and fail in part order; the
// bytes the master sends for a step, a secure step and a broadcast join
// are pinned.
// Run under TSan in CI (ci/run_tests.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "engine/exec_context.h"
#include "engine/remote_site.h"
#include "federation/bus.h"
#include "federation/fault.h"
#include "federation/master.h"
#include "federation/training.h"
#include "federation/transfer.h"
#include "federation/worker.h"

namespace mip::federation {
namespace {

using engine::DataType;
using engine::Schema;
using engine::Table;
using engine::Value;

std::vector<uint8_t> SerializeTransfer(const TransferData& t) {
  BufferWriter w;
  t.Serialize(&w);
  return w.TakeBytes();
}

// N workers, worker w holding rows {w*10 + 1, w*10 + 2, w*10 + 3} of
// dataset "numbers", plus a "sum_x" local step.
class ConcurrencyFixture : public ::testing::Test {
 protected:
  static constexpr int kWorkers = 8;

  void SetUp() override {
    for (int w = 0; w < kWorkers; ++w) {
      const std::string id = "h" + std::to_string(w);
      ASSERT_TRUE(master_.AddWorker(id).ok());
      Schema schema;
      ASSERT_TRUE(schema.AddField({"x", DataType::kFloat64}).ok());
      Table t = Table::Empty(schema);
      for (int r = 1; r <= 3; ++r) {
        ASSERT_TRUE(t.AppendRow({Value::Double(w * 10 + r)}).ok());
      }
      ASSERT_TRUE(master_.LoadDataset(id, "numbers", std::move(t)).ok());
    }
    ASSERT_TRUE(
        master_.functions()
            ->Register(
                "sum_x",
                [](WorkerContext& ctx,
                   const TransferData&) -> Result<TransferData> {
                  MIP_ASSIGN_OR_RETURN(Table t, ctx.db().GetTable("numbers"));
                  MIP_ASSIGN_OR_RETURN(const engine::Column* col,
                                       t.ColumnByName("x"));
                  double sum = 0, n = 0;
                  for (size_t r = 0; r < col->length(); ++r) {
                    sum += col->DoubleAt(r);
                    n += 1;
                  }
                  TransferData out;
                  out.PutScalar("sum", sum);
                  out.PutScalar("n", n);
                  return out;
                })
            .ok());
  }

  // Random-but-deterministic per-link delay on every master->worker link.
  void InjectRandomDelays(FaultInjector* injector) {
    for (int w = 0; w < kWorkers; ++w) {
      FaultSpec spec;
      spec.delay_ms = 0.5;
      spec.jitter_ms = 2.0;
      injector->SetLinkFault("master", "h" + std::to_string(w), spec);
    }
  }

  FanoutPolicy Sequential() {
    FanoutPolicy p;
    p.max_concurrency = 1;
    return p;
  }

  MasterNode master_;
};

TEST_F(ConcurrencyFixture, ConcurrentAggregateIsByteIdenticalToSequential) {
  FaultInjector injector(/*seed=*/42);
  InjectRandomDelays(&injector);
  master_.bus().set_fault_hook(&injector);

  FederationSession seq = *master_.StartSession({"numbers"});
  seq.set_fanout_policy(Sequential());
  TransferData seq_agg = *seq.LocalRunAndAggregate(
      "sum_x", TransferData(), AggregationMode::kPlain);

  FederationSession conc = *master_.StartSession({"numbers"});
  TransferData conc_agg = *conc.LocalRunAndAggregate(
      "sum_x", TransferData(), AggregationMode::kPlain);

  EXPECT_EQ(SerializeTransfer(seq_agg), SerializeTransfer(conc_agg));
  // 8 workers x (1+2+3 + w*30): 36*... sanity-check the actual value too.
  double expected = 0;
  for (int w = 0; w < kWorkers; ++w) expected += 3 * (w * 10) + 6;
  EXPECT_EQ(*conc_agg.GetScalar("sum"), expected);
  EXPECT_EQ(*conc_agg.GetScalar("n"), 3.0 * kWorkers);
  master_.bus().set_fault_hook(nullptr);
}

TEST_F(ConcurrencyFixture, ConcurrentPerWorkerResultsPreserveWorkerOrder) {
  FaultInjector injector(/*seed=*/7);
  InjectRandomDelays(&injector);
  master_.bus().set_fault_hook(&injector);

  FederationSession seq = *master_.StartSession({"numbers"});
  seq.set_fanout_policy(Sequential());
  std::vector<TransferData> seq_parts =
      *seq.LocalRun("sum_x", TransferData());

  FederationSession conc = *master_.StartSession({"numbers"});
  std::vector<TransferData> conc_parts =
      *conc.LocalRun("sum_x", TransferData());

  ASSERT_EQ(seq_parts.size(), conc_parts.size());
  for (size_t i = 0; i < seq_parts.size(); ++i) {
    EXPECT_EQ(SerializeTransfer(seq_parts[i]),
              SerializeTransfer(conc_parts[i]))
        << "worker slot " << i;
  }
  master_.bus().set_fault_hook(nullptr);
}

TEST_F(ConcurrencyFixture, SecureAggregateMatchesSequentialUnderDelays) {
  FaultInjector injector(/*seed=*/11);
  InjectRandomDelays(&injector);
  master_.bus().set_fault_hook(&injector);

  FederationSession seq = *master_.StartSession({"numbers"});
  seq.set_fanout_policy(Sequential());
  TransferData seq_agg = *seq.LocalRunAndAggregate(
      "sum_x", TransferData(), AggregationMode::kSecure);

  FederationSession conc = *master_.StartSession({"numbers"});
  TransferData conc_agg = *conc.LocalRunAndAggregate(
      "sum_x", TransferData(), AggregationMode::kSecure);

  // Fixed-point modular sums are order-independent, so even the secure
  // path is byte-identical between dispatch modes.
  EXPECT_EQ(SerializeTransfer(seq_agg), SerializeTransfer(conc_agg));
  master_.bus().set_fault_hook(nullptr);
}

TEST_F(ConcurrencyFixture, TrafficLogContainsEveryEnvelopeExactlyOnce) {
  FaultInjector injector(/*seed=*/3);
  InjectRandomDelays(&injector);
  master_.bus().set_fault_hook(&injector);
  master_.bus().set_keep_log(true);
  master_.bus().ClearLog();

  FederationSession session = *master_.StartSession({"numbers"});
  ASSERT_TRUE(session.LocalRun("sum_x", TransferData()).ok());

  std::map<std::string, int> local_runs_per_worker;
  for (const MessageBus::LogEntry& e : master_.bus().log()) {
    ASSERT_EQ(e.type, "local_run");
    ASSERT_EQ(e.from, "master");
    local_runs_per_worker[e.to] += 1;
    EXPECT_GT(e.request_bytes, 0u);
    EXPECT_GT(e.reply_bytes, 0u);
  }
  EXPECT_EQ(local_runs_per_worker.size(), static_cast<size_t>(kWorkers));
  for (const auto& [wid, count] : local_runs_per_worker) {
    EXPECT_EQ(count, 1) << "worker " << wid;
  }
  master_.bus().set_keep_log(false);
  master_.bus().set_fault_hook(nullptr);
}

// Property: total NetworkStats under concurrent dispatch equal the sum of
// per-link stats from a sequential run of the same step — no lost or
// double-counted accounting.
TEST_F(ConcurrencyFixture, ConcurrentStatsEqualSumOfSequentialLinkStats) {
  master_.bus().ResetStats();
  FederationSession seq = *master_.StartSession({"numbers"});
  seq.set_fanout_policy(Sequential());
  ASSERT_TRUE(seq.LocalRun("sum_x", TransferData()).ok());
  const std::map<std::string, NetworkStats> seq_links =
      master_.bus().link_stats();
  NetworkStats seq_sum;
  for (const auto& [link, s] : seq_links) {
    seq_sum.messages += s.messages;
    seq_sum.bytes += s.bytes;
  }
  const NetworkStats seq_total = master_.bus().stats();
  EXPECT_EQ(seq_sum.messages, seq_total.messages);
  EXPECT_EQ(seq_sum.bytes, seq_total.bytes);

  master_.bus().ResetStats();
  FederationSession conc = *master_.StartSession({"numbers"});
  ASSERT_TRUE(conc.LocalRun("sum_x", TransferData()).ok());
  const NetworkStats conc_total = master_.bus().stats();
  const std::map<std::string, NetworkStats> conc_links =
      master_.bus().link_stats();

  EXPECT_EQ(conc_total.messages, seq_total.messages);
  EXPECT_EQ(conc_total.bytes, seq_total.bytes);
  ASSERT_EQ(conc_links.size(), seq_links.size());
  for (const auto& [link, s] : seq_links) {
    auto it = conc_links.find(link);
    ASSERT_NE(it, conc_links.end()) << link;
    EXPECT_EQ(it->second.messages, s.messages) << link;
    EXPECT_EQ(it->second.bytes, s.bytes) << link;
  }
}

TEST_F(ConcurrencyFixture, FaultInjectionIsDeterministicAcrossRuns) {
  auto run_once = [this](uint64_t seed) {
    FaultInjector injector(seed);
    FaultSpec spec;
    spec.drop_rate = 0.4;
    for (int w = 0; w < kWorkers; ++w) {
      injector.SetLinkFault("master", "h" + std::to_string(w), spec);
    }
    master_.bus().set_fault_hook(&injector);
    FederationSession session = *master_.StartSession({"numbers"});
    FanoutPolicy policy;
    policy.max_attempts = 4;
    policy.retry_backoff_ms = 0.0;
    policy.min_workers = 1;
    session.set_fanout_policy(policy);
    (void)session.LocalRun("sum_x", TransferData());
    master_.bus().set_fault_hook(nullptr);
    std::vector<int> attempts;
    for (const WorkerRunReport& r : session.last_reports()) {
      attempts.push_back(r.attempts);
    }
    return attempts;
  };
  const std::vector<int> first = run_once(123);
  const std::vector<int> second = run_once(123);
  EXPECT_EQ(first, second);
  // ... and a different seed gives a different (still valid) pattern in
  // general; do not assert inequality (it may coincide), only shape.
  EXPECT_EQ(run_once(456).size(), first.size());
}

// Raw-bus stress: many threads hammer the locked bus; totals must be exact
// and the per-link breakdown must sum to the totals.
TEST(MessageBusConcurrencyTest, ConcurrentSendsNeverLoseOrDoubleCount) {
  MessageBus bus;
  constexpr int kEndpoints = 4;
  constexpr int kSenders = 8;
  constexpr int kMessagesEach = 200;
  std::atomic<int> handled{0};
  for (int e = 0; e < kEndpoints; ++e) {
    ASSERT_TRUE(bus.RegisterEndpoint("node" + std::to_string(e),
                                     [&handled](const Envelope& env)
                                         -> Result<std::vector<uint8_t>> {
                                       handled.fetch_add(1);
                                       return env.payload;  // echo
                                     })
                    .ok());
  }
  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&bus, s] {
      for (int m = 0; m < kMessagesEach; ++m) {
        Envelope env{"sender" + std::to_string(s),
                     "node" + std::to_string(m % kEndpoints), "ping", "job",
                     std::vector<uint8_t>{1, 2, 3, 4, 5}};
        ASSERT_TRUE(bus.Send(std::move(env)).ok());
      }
    });
  }
  for (std::thread& t : senders) t.join();

  const int total_sends = kSenders * kMessagesEach;
  EXPECT_EQ(handled.load(), total_sends);
  const NetworkStats stats = bus.stats();
  EXPECT_EQ(stats.messages, static_cast<uint64_t>(2 * total_sends));
  EXPECT_EQ(stats.bytes, static_cast<uint64_t>(2 * total_sends * 5));
  NetworkStats link_sum;
  for (const auto& [link, s] : bus.link_stats()) {
    link_sum.messages += s.messages;
    link_sum.bytes += s.bytes;
  }
  EXPECT_EQ(link_sum.messages, stats.messages);
  EXPECT_EQ(link_sum.bytes, stats.bytes);
}

// `rows` rows of one double column x, every cell equal to `x`.
Table ConstantTable(double x, int rows) {
  Schema schema;
  EXPECT_TRUE(schema.AddField({"x", DataType::kFloat64}).ok());
  Table t = Table::Empty(schema);
  for (int r = 0; r < rows; ++r) {
    EXPECT_TRUE(t.AppendRow({Value::Double(x)}).ok());
  }
  return t;
}

// A dataset reload takes the worker's catalog lock exclusively, so it never
// races the run_sql SELECTs the worker serves meanwhile: every answer is
// entirely the old data or entirely the new one, never a mix.
TEST(WorkerReloadTest, ReloadDuringSelectsAnswersOldOrNewNeverAMix) {
  MasterNode master;
  ASSERT_TRUE(master.AddWorker("h0").ok());
  ASSERT_TRUE(master.LoadDataset("h0", "d", ConstantTable(1.0, 200)).ok());

  engine::RemoteRequest request;
  request.sql = "SELECT count(*) AS n, sum(x) AS s FROM d";
  BufferWriter writer;
  engine::EncodeRemoteRequest(request, &writer);
  const std::vector<uint8_t> payload = writer.TakeBytes();

  std::atomic<bool> stop{false};
  std::atomic<int> answers{0}, bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto reply =
            master.bus().Send(Envelope{"master", "h0", "run_sql", "", payload});
        if (!reply.ok()) {
          bad.fetch_add(1);
          continue;
        }
        BufferReader reader(reply.ValueOrDie());
        auto table = engine::DeserializeTable(&reader);
        if (!table.ok()) {
          bad.fetch_add(1);
          continue;
        }
        const int64_t n = table->At(0, 0).int_value();
        const double sum = table->At(0, 1).double_value();
        const bool old_data = n == 200 && sum == 200.0;
        const bool new_data = n == 300 && sum == 900.0;
        if (!old_data && !new_data) bad.fetch_add(1);
        answers.fetch_add(1);
      }
    });
  }
  // Keep reloading until the readers have overlapped plenty of reloads.
  for (int i = 0; i < 100 || answers.load() < 100; ++i) {
    ASSERT_TRUE(master
                    .LoadDataset("h0", "d",
                                 i % 2 == 0 ? ConstantTable(3.0, 300)
                                            : ConstantTable(1.0, 200))
                    .ok());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(answers.load(), 0);
  EXPECT_EQ(bad.load(), 0);
}

// LocalRunSecureOp calls each worker's step in process, not over the bus.
// The step still holds the worker's catalog lock, so a reload never races
// the table reads of the step: every answer is the old max or the new one.
TEST(WorkerReloadTest, ReloadDuringSecureOpNeverRacesTheStep) {
  MasterNode master;
  ASSERT_TRUE(master.AddWorker("h0").ok());
  ASSERT_TRUE(master.LoadDataset("h0", "d", ConstantTable(1.0, 200)).ok());
  ASSERT_TRUE(master.functions()
                  ->Register("max_x",
                             [](WorkerContext& ctx, const TransferData&)
                                 -> Result<TransferData> {
                               MIP_ASSIGN_OR_RETURN(Table t,
                                                    ctx.db().GetTable("d"));
                               MIP_ASSIGN_OR_RETURN(const engine::Column* col,
                                                    t.ColumnByName("x"));
                               double best = 0.0;
                               for (double v : col->NonNullDoubles()) {
                                 best = std::max(best, v);
                               }
                               TransferData out;
                               out.PutVector("vals", {best});
                               return out;
                             })
                  .ok());
  FederationSession session = *master.StartSession({"d"});

  std::atomic<bool> stop{false};
  std::atomic<int> answers{0}, bad{0};
  std::thread runner([&] {
    while (!stop.load()) {
      auto maxs = session.LocalRunSecureOp("max_x", TransferData(), "vals",
                                           smpc::SmpcOp::kMax);
      const bool ok = maxs.ok() && maxs->size() == 1 &&
                      (std::abs((*maxs)[0] - 1.0) < 1e-4 ||
                       std::abs((*maxs)[0] - 3.0) < 1e-4);
      if (!ok) bad.fetch_add(1);
      answers.fetch_add(1);
    }
  });
  for (int i = 0; i < 100 || answers.load() < 50; ++i) {
    ASSERT_TRUE(master
                    .LoadDataset("h0", "d",
                                 ConstantTable(i % 2 == 0 ? 3.0 : 1.0,
                                               i % 2 == 0 ? 300 : 200))
                    .ok());
  }
  stop.store(true);
  runner.join();
  EXPECT_GT(answers.load(), 0);
  EXPECT_EQ(bad.load(), 0);
}

// The parts of a federated SELECT run concurrently on the master's exec
// pool: with a 40 ms delay on every master->worker link, four parts finish
// in about one delay instead of four. Serial() keeps the one-after-another
// order. A failing part fails the query with the first failure in part
// order, whichever part finishes first.
class ParallelPartsFixture : public ::testing::Test {
 protected:
  static constexpr int kSites = 4;
  static constexpr double kDelayMs = 40.0;

  void SetUp() override {
    for (int w = 1; w <= kSites; ++w) {
      const std::string id = "h" + std::to_string(w);
      ASSERT_TRUE(master_.AddWorker(id).ok());
      Schema schema;
      ASSERT_TRUE(schema.AddField({"x", DataType::kFloat64}).ok());
      Table t = Table::Empty(schema);
      for (int r = 0; r < w; ++r) {
        ASSERT_TRUE(t.AppendRow({Value::Double(r)}).ok());
      }
      ASSERT_TRUE(master_.LoadDataset(id, "numbers", std::move(t)).ok());
    }
    sql_ = "SELECT count(*) AS n FROM " +
           *master_.CreateFederatedView("numbers");
    // Warm the planner's schema/stats caches so timed runs only execute.
    ASSERT_TRUE(master_.local_db().ExecuteSql(sql_).ok());
    pool_ = std::make_unique<ThreadPool>(8);
    parallel_.pool = pool_.get();
  }

  void TearDown() override {
    master_.bus().set_fault_hook(nullptr);
    master_.local_db().set_exec_context(nullptr);
  }

  void SetLinkFaults(FaultInjector* injector, FaultSpec spec,
                     const std::vector<int>& sites) {
    for (int w : sites) {
      injector->SetLinkFault("master", "h" + std::to_string(w), spec);
    }
  }

  MasterNode master_;
  std::string sql_;
  std::unique_ptr<ThreadPool> pool_;
  engine::ExecContext parallel_;
};

TEST_F(ParallelPartsFixture, PartsOverlapOnTheExecPool) {
  FaultInjector injector(/*seed=*/5);
  FaultSpec delay;
  delay.delay_ms = kDelayMs;
  SetLinkFaults(&injector, delay, {1, 2, 3, 4});
  master_.bus().set_fault_hook(&injector);

  auto timed_count = [this](const engine::ExecContext* ctx) {
    master_.local_db().set_exec_context(ctx);
    const auto start = std::chrono::steady_clock::now();
    Result<Table> got = master_.local_db().ExecuteSql(sql_);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (got.ok()) {
      EXPECT_EQ(got->At(0, 0).int_value(), 1 + 2 + 3 + 4);
    }
    return ms;
  };
  const double parallel_ms = timed_count(&parallel_);
  const double serial_ms = timed_count(&engine::ExecContext::Serial());
  EXPECT_LT(parallel_ms, 2.5 * kDelayMs);
  EXPECT_GE(serial_ms, kSites * kDelayMs);
}

TEST_F(ParallelPartsFixture, FirstFailureInPartOrderWins) {
  std::vector<std::string> errors;
  for (const engine::ExecContext* ctx :
       {&engine::ExecContext::Serial(),
        static_cast<const engine::ExecContext*>(&parallel_)}) {
    // h3 fails at once; h1 fails only after a delay, so in parallel the
    // later part's error arrives first.
    FaultInjector injector(/*seed=*/9);
    FaultSpec fail_late;
    fail_late.fail_first_n = 1;
    fail_late.delay_ms = kDelayMs;
    FaultSpec fail_now;
    fail_now.fail_first_n = 1;
    SetLinkFaults(&injector, fail_late, {1});
    SetLinkFaults(&injector, fail_now, {3});
    master_.bus().set_fault_hook(&injector);
    master_.local_db().set_exec_context(ctx);
    Result<Table> got = master_.local_db().ExecuteSql(sql_);
    master_.bus().set_fault_hook(nullptr);
    ASSERT_FALSE(got.ok());
    errors.push_back(got.status().ToString());
    EXPECT_NE(errors.back().find("master->h1"), std::string::npos)
        << errors.back();
  }
  EXPECT_EQ(errors[0], errors[1]);
}

// Pins every byte the master puts on the bus for one plain step with a
// retry, one secure step and one broadcast-join SELECT: the sorted traffic
// log, each link's ledger and each worker's attempt count. The dispatch
// code may be restructured freely; these figures may not move.
class PinnedTrafficTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int w = 0; w < 3; ++w) {
      const std::string id = "h" + std::to_string(w);
      ASSERT_TRUE(master_.AddWorker(id).ok());
      Schema schema;
      ASSERT_TRUE(schema.AddField({"id", DataType::kInt64}).ok());
      ASSERT_TRUE(schema.AddField({"x", DataType::kFloat64}).ok());
      Table t = Table::Empty(schema);
      for (int r = 0; r < 4 + w; ++r) {
        ASSERT_TRUE(
            t.AppendRow({Value::Int(w * 4 + r), Value::Double(0.5 * r + w)})
                .ok());
      }
      ASSERT_TRUE(master_.LoadDataset(id, "t", std::move(t)).ok());
    }
    ASSERT_TRUE(
        master_.functions()
            ->Register("moments",
                       [](WorkerContext& ctx,
                          const TransferData&) -> Result<TransferData> {
                         MIP_ASSIGN_OR_RETURN(Table t, ctx.db().GetTable("t"));
                         MIP_ASSIGN_OR_RETURN(const engine::Column* col,
                                              t.ColumnByName("x"));
                         double sum = 0, sumsq = 0;
                         for (double v : col->NonNullDoubles()) {
                           sum += v;
                           sumsq += v * v;
                         }
                         TransferData out;
                         out.PutScalar("n", static_cast<double>(t.num_rows()));
                         out.PutVector("moments", {sum, sumsq});
                         return out;
                       })
            .ok());
    master_.bus().set_keep_log(true);
  }

  void TearDown() override {
    master_.bus().set_fault_hook(nullptr);
    master_.bus().set_keep_log(false);
  }

  void ResetTraffic() {
    master_.bus().ResetStats();
    master_.bus().ClearLog();
  }

  // Sorted, because concurrent dispatch appends in completion order.
  std::string Log() {
    std::vector<std::string> lines;
    for (const MessageBus::LogEntry& e : master_.bus().log()) {
      lines.push_back(e.from + "->" + e.to + " " + e.type + " " +
                      std::to_string(e.request_bytes) + "/" +
                      std::to_string(e.reply_bytes));
    }
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const std::string& line : lines) out += line + "\n";
    return out;
  }

  std::string Links() {
    std::string out;
    for (const auto& [link, s] : master_.bus().link_stats()) {
      // The codec ledger never reports a payload grown by its codecs.
      EXPECT_LE(s.bytes_wire, s.bytes_raw) << link;
      out += link + " " + std::to_string(s.messages) + " " +
             std::to_string(s.bytes) + " " + std::to_string(s.bytes_raw) +
             " " + std::to_string(s.bytes_wire) + "\n";
    }
    return out;
  }

  static std::vector<int> Attempts(const FederationSession& session) {
    std::vector<int> out;
    for (const WorkerRunReport& r : session.last_reports()) {
      out.push_back(r.attempts);
    }
    return out;
  }

  MasterNode master_;
};

TEST_F(PinnedTrafficTest, PlainStepWithOneRetry) {
  FaultInjector injector(/*seed=*/1);
  FaultSpec fail_once;
  fail_once.fail_first_n = 1;
  injector.SetLinkFault("master", "h1", fail_once);
  master_.bus().set_fault_hook(&injector);
  FederationSession session = *master_.StartSession({"t"});
  FanoutPolicy policy;
  policy.retry_backoff_ms = 0.0;
  session.set_fanout_policy(policy);
  ResetTraffic();
  ASSERT_TRUE(session
                  .LocalRunAndAggregate("moments", TransferData(),
                                        AggregationMode::kPlain)
                  .ok());
  EXPECT_EQ(Log(),
            "master->h0 local_run 39/68\n"
            "master->h1 local_run 39/68\n"
            "master->h2 local_run 39/68\n");
  EXPECT_EQ(Links(),
            "h0->master 1 68 68 68\n"
            "h1->master 1 68 68 68\n"
            "h2->master 1 68 68 68\n"
            "master->h0 1 39 39 39\n"
            "master->h1 2 78 39 39\n"
            "master->h2 1 39 39 39\n");
  EXPECT_EQ(Attempts(session), (std::vector<int>{1, 2, 1}));
}

TEST_F(PinnedTrafficTest, SecureStep) {
  FederationSession session = *master_.StartSession({"t"});
  ResetTraffic();
  ASSERT_TRUE(session
                  .LocalRunAndAggregate("moments", TransferData(),
                                        AggregationMode::kSecure)
                  .ok());
  EXPECT_EQ(Log(),
            "master->h0 local_run_secure 59/57\n"
            "master->h1 local_run_secure 59/57\n"
            "master->h2 local_run_secure 59/57\n");
  EXPECT_EQ(Links(),
            "h0->master 1 57 68 57\n"
            "h1->master 1 57 68 57\n"
            "h2->master 1 57 68 57\n"
            "master->h0 1 59 59 59\n"
            "master->h1 1 59 59 59\n"
            "master->h2 1 59 59 59\n");
  EXPECT_EQ(Attempts(session), (std::vector<int>{1, 1, 1}));
}

TEST_F(PinnedTrafficTest, BroadcastJoinSelect) {
  engine::Database& db = master_.local_db();
  const std::string view = *master_.CreateFederatedView("t");
  ASSERT_TRUE(
      db.ExecuteSql("CREATE TABLE cohort (id bigint, tag varchar)").ok());
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO cohort VALUES (1, 'a'), (6, 'b'), "
                            "(9, 'a'), (13, 'c')")
                  .ok());
  db.optimizer_options().force_join_strategy = 1;  // broadcast
  ResetTraffic();
  Result<Table> got =
      db.ExecuteSql("SELECT tag, x FROM " + view + " JOIN cohort ON " + view +
                    ".id = cohort.id");
  db.optimizer_options().force_join_strategy = -1;
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->num_rows(), 4u);
  EXPECT_EQ(Log(),
            "master->h0 get_schema 5/26\n"
            "master->h0 get_stats 5/137\n"
            "master->h0 run_sql_bound 96/61\n"
            "master->h1 get_stats 5/151\n"
            "master->h1 run_sql_bound 96/61\n"
            "master->h2 get_stats 5/151\n"
            "master->h2 run_sql_bound 96/73\n");
  EXPECT_EQ(Links(),
            "h0->master 3 224 344 224\n"
            "h1->master 2 212 309 212\n"
            "h2->master 2 224 338 224\n"
            "master->h0 3 106 145 96\n"
            "master->h1 2 101 145 96\n"
            "master->h2 2 101 145 96\n");
}

TEST(ThreadPoolTest, RunsEveryTaskAndDrainsOnDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    for (int i = 0; i < 1000; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor drains + joins
  EXPECT_EQ(ran.load(), 1000);
}

TEST_F(ConcurrencyFixture, ConcurrentTrainingMatchesSequentialTraining) {
  ASSERT_TRUE(master_.functions()
                  ->Register("grad1d",
                             [](WorkerContext& ctx, const TransferData& args)
                                 -> Result<TransferData> {
                               MIP_ASSIGN_OR_RETURN(std::vector<double> w,
                                                    args.GetVector("weights"));
                               MIP_ASSIGN_OR_RETURN(
                                   Table t, ctx.db().GetTable("numbers"));
                               double grad = 0, loss = 0, n = 0;
                               for (size_t r = 0; r < t.num_rows(); ++r) {
                                 const double x = t.At(r, 0).AsDouble();
                                 const double err = w[0] * x - x;  // target 1
                                 grad += 2 * err * x;
                                 loss += err * err;
                                 n += 1;
                               }
                               TransferData out;
                               out.PutVector("grad", {grad});
                               out.PutScalar("loss", loss);
                               out.PutScalar("n", n);
                               return out;
                             })
                  .ok());
  TrainingConfig config;
  config.rounds = 5;
  config.learning_rate = 1e-4;

  FederatedTrainer seq_trainer(&master_, config);
  FederationSession seq = *master_.StartSession({"numbers"});
  FanoutPolicy sequential;
  sequential.max_concurrency = 1;
  seq.set_fanout_policy(sequential);
  TrainingResult seq_result = *seq_trainer.Train(&seq, "grad1d", 1);

  FederatedTrainer conc_trainer(&master_, config);
  FederationSession conc = *master_.StartSession({"numbers"});
  TrainingResult conc_result = *conc_trainer.Train(&conc, "grad1d", 1);

  ASSERT_EQ(seq_result.weights.size(), conc_result.weights.size());
  EXPECT_EQ(seq_result.weights[0], conc_result.weights[0]);  // bit-exact
  ASSERT_EQ(seq_result.history.size(), conc_result.history.size());
  for (size_t r = 0; r < seq_result.history.size(); ++r) {
    EXPECT_EQ(seq_result.history[r].loss, conc_result.history[r].loss);
    EXPECT_EQ(conc_result.history[r].active_workers,
              static_cast<size_t>(kWorkers));
  }
}

}  // namespace
}  // namespace mip::federation
