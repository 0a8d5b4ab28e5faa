// Experiment E11 — concurrent federated fan-out vs sequential dispatch.
// Simulates an 8-hospital cohort with per-link delivery latency (the
// FaultInjector's delay model) and measures wall-clock per local-run step
// and per training round for both dispatch modes, plus degraded-mode
// behavior when one site is down. The paper's platform federates 40+
// hospitals; sequential dispatch scales wall-clock linearly with cohort
// size, concurrent dispatch with the slowest link.
//
// Experiment E12 — transport overhead: the same aggregation step over the
// in-process MessageBus vs real TCP sockets on loopback, with the network
// cost reported both ways: the simulated link model (messages x latency +
// bytes / bandwidth) next to the measured wall clock of the same traffic.

#include <cmath>
#include <cstdio>
#include <memory>

#include "common/stopwatch.h"
#include "engine/table.h"
#include "federation/fault.h"
#include "federation/master.h"
#include "federation/training.h"
#include "federation/worker_steps.h"
#include "net/tcp_transport.h"

namespace {

using mip::engine::DataType;
using mip::engine::Schema;
using mip::engine::Table;
using mip::engine::Value;
using mip::federation::TransferData;
using mip::federation::WorkerContext;

constexpr int kWorkers = 8;
constexpr double kLinkDelayMs = 10.0;
constexpr int kSteps = 10;
// Simulated inter-hospital link for the modelled column of the network
// report: 5 ms per message plus bytes over 100 Mbit/s.
constexpr double kModelLatencyMs = 5.0;
constexpr double kModelBandwidthMbps = 100.0;

void Setup(mip::federation::MasterNode* master) {
  for (int w = 0; w < kWorkers; ++w) {
    const std::string id = "h" + std::to_string(w);
    (void)master->AddWorker(id);
    Schema schema;
    (void)schema.AddField({"x", DataType::kFloat64});
    Table t = Table::Empty(schema);
    for (int r = 0; r < 100; ++r) {
      (void)t.AppendRow({Value::Double(w + r * 0.01)});
    }
    (void)master->LoadDataset(id, "cohort", std::move(t));
  }
  (void)master->functions()->Register(
      "stats",
      [](WorkerContext& ctx,
         const TransferData&) -> mip::Result<TransferData> {
        MIP_ASSIGN_OR_RETURN(Table t, ctx.db().GetTable("cohort"));
        double sum = 0, sum_sq = 0, n = 0;
        for (size_t r = 0; r < t.num_rows(); ++r) {
          const double x = t.At(r, 0).AsDouble();
          sum += x;
          sum_sq += x * x;
          n += 1;
        }
        TransferData out;
        out.PutScalar("sum", sum);
        out.PutScalar("sum_sq", sum_sq);
        out.PutScalar("n", n);
        return out;
      });
}

double RunSteps(mip::federation::MasterNode* master,
                const mip::federation::FanoutPolicy& policy) {
  auto session = master->StartSession({"cohort"});
  session.ValueOrDie().set_fanout_policy(policy);
  mip::Stopwatch sw;
  for (int s = 0; s < kSteps; ++s) {
    auto agg = session.ValueOrDie().LocalRunAndAggregate(
        "stats", TransferData(), mip::federation::AggregationMode::kPlain);
    if (!agg.ok()) {
      std::printf("step failed: %s\n", agg.status().ToString().c_str());
      return -1;
    }
  }
  return sw.ElapsedMillis() / kSteps;
}

/// Prints one transport's ledger with the simulated link model next to the
/// measured wall clock for the same traffic.
void PrintNetworkReport(const char* label,
                        const mip::net::NetworkStats& stats) {
  std::printf(
      "%-14s %8llu msgs %10llu bytes | simulated %8.1f ms | measured "
      "%8.1f ms (%.3f ms/rtt over %llu rtts)\n",
      label, static_cast<unsigned long long>(stats.messages),
      static_cast<unsigned long long>(stats.bytes),
      stats.SimulatedSeconds(kModelLatencyMs, kModelBandwidthMbps) * 1e3,
      stats.wall_ms,
      stats.MeanRoundTripMs(),
      static_cast<unsigned long long>(stats.round_trips));
}

/// E12: time `kSteps` stats.moments aggregation steps on an already wired
/// master (bus-backed or TCP-backed).
double RunMomentsSteps(mip::federation::MasterNode* master) {
  auto session = master->StartSession({"cohort"});
  if (!session.ok()) {
    std::printf("session failed: %s\n", session.status().ToString().c_str());
    return -1;
  }
  TransferData args;
  args.PutString("dataset", "cohort");
  args.PutString("column", "y");
  mip::Stopwatch sw;
  for (int s = 0; s < kSteps; ++s) {
    auto agg = session.ValueOrDie().LocalRunAndAggregate(
        "stats.moments", args, mip::federation::AggregationMode::kPlain);
    if (!agg.ok()) {
      std::printf("step failed: %s\n", agg.status().ToString().c_str());
      return -1;
    }
  }
  return sw.ElapsedMillis() / kSteps;
}

}  // namespace

int main() {
  std::printf("=== E11: concurrent fan-out vs sequential dispatch ===\n");
  std::printf("%d workers, %.0f ms injected per-link delay, %d steps\n\n",
              kWorkers, kLinkDelayMs, kSteps);

  mip::federation::MasterNode master;
  Setup(&master);
  mip::federation::FaultInjector injector(20240807);
  mip::federation::FaultSpec link;
  link.delay_ms = kLinkDelayMs;
  link.jitter_ms = 2.0;
  for (int w = 0; w < kWorkers; ++w) {
    injector.SetEndpointFault("h" + std::to_string(w), link);
  }
  master.bus().set_fault_hook(&injector);

  mip::federation::FanoutPolicy sequential;
  sequential.max_concurrency = 1;
  mip::federation::FanoutPolicy concurrent;  // defaults: all lanes open

  const double seq_ms = RunSteps(&master, sequential);
  const double conc_ms = RunSteps(&master, concurrent);
  std::printf("sequential dispatch: %8.1f ms/step\n", seq_ms);
  std::printf("concurrent dispatch: %8.1f ms/step\n", conc_ms);
  std::printf("speedup:             %8.2fx (ideal %dx: wall-clock bound by "
              "slowest link)\n\n",
              seq_ms / conc_ms, kWorkers);

  // Network ledger for everything E11 sent, model vs reality: the simulated
  // column is the modelled latency/bandwidth formula over the message and
  // byte counts, the measured column is the wall clock of the handler round
  // trips themselves (fault-injected transit delay is not the handler's).
  std::printf("network cost, simulated model vs measured wall clock:\n");
  PrintNetworkReport("bus (E11)", master.bus().stats());
  std::printf("\n");

  // Degraded mode: one site down; quorum keeps the session alive.
  mip::federation::FaultSpec dead;
  dead.fail_first_n = 1 << 20;
  injector.SetEndpointFault("h3", dead);
  mip::federation::FanoutPolicy degraded;
  degraded.max_attempts = 2;
  degraded.retry_backoff_ms = 1.0;
  degraded.min_workers = kWorkers - 1;
  auto session = master.StartSession({"cohort"});
  session.ValueOrDie().set_fanout_policy(degraded);
  mip::Stopwatch sw;
  auto agg = session.ValueOrDie().LocalRunAndAggregate(
      "stats", TransferData(), mip::federation::AggregationMode::kPlain);
  std::printf("degraded cohort (1 of %d sites down, quorum %d): %s in "
              "%.1f ms, %zu excluded\n",
              kWorkers, kWorkers - 1,
              agg.ok() ? "completed" : agg.status().ToString().c_str(),
              sw.ElapsedMillis(),
              session.ValueOrDie().excluded_workers().size());

  // -------------------------------------------------------------------
  // E12: the same aggregation over the in-process bus vs real TCP
  // sockets on loopback — the cost of crossing a process boundary.
  std::printf("\n=== E12: transport overhead — in-process bus vs TCP "
              "loopback ===\n");
  auto functions = std::make_shared<mip::federation::LocalFunctionRegistry>();
  (void)mip::federation::RegisterPortableSteps(functions.get());
  constexpr size_t kRows = 200;
  const std::vector<double> true_weights = {1.5, -2.0};

  // Bus-backed federation (no injected faults: raw transport overhead).
  mip::federation::MasterNode bus_master;
  (void)mip::federation::RegisterPortableSteps(
      bus_master.functions().get());
  for (int w = 0; w < kWorkers; ++w) {
    const std::string id = "h" + std::to_string(w);
    (void)bus_master.AddWorker(id);
    (void)bus_master.LoadDataset(
        id, "cohort",
        mip::federation::MakeSyntheticLinregTable(1000 + w, kRows,
                                                  true_weights, 0.1));
  }
  const double bus_ms = RunMomentsSteps(&bus_master);

  // TCP-backed federation: the same workers behind a listening transport,
  // the master dialing them over loopback sockets.
  mip::net::TcpTransport server;
  std::vector<std::unique_ptr<mip::federation::WorkerNode>> tcp_workers;
  mip::federation::MasterNode tcp_master;
  mip::net::TcpTransport client;
  bool tcp_up = server.Listen(0).ok();
  for (int w = 0; tcp_up && w < kWorkers; ++w) {
    const std::string id = "h" + std::to_string(w);
    auto worker = std::make_unique<mip::federation::WorkerNode>(
        id, functions, 1000 + w);
    tcp_up = tcp_up &&
             worker
                 ->LoadDataset("cohort",
                               mip::federation::MakeSyntheticLinregTable(
                                   1000 + w, kRows, true_weights, 0.1))
                 .ok() &&
             worker->AttachToBus(&server).ok();
    client.AddPeer(id, "127.0.0.1", server.port());
    tcp_up = tcp_up && tcp_master.AddRemoteWorker(id, {"cohort"}).ok();
    tcp_workers.push_back(std::move(worker));
  }
  tcp_master.set_transport(&client);
  const double tcp_ms = tcp_up ? RunMomentsSteps(&tcp_master) : -1;

  std::printf("%d workers, %zu rows each, %d stats.moments steps\n\n",
              kWorkers, kRows, kSteps);
  std::printf("in-process bus:  %8.2f ms/step\n", bus_ms);
  std::printf("tcp loopback:    %8.2f ms/step (%.2fx the bus)\n\n",
              tcp_ms, bus_ms > 0 ? tcp_ms / bus_ms : 0.0);
  PrintNetworkReport("bus (E12)", bus_master.bus().stats());
  PrintNetworkReport("tcp (E12)", client.stats());
  client.Shutdown();
  server.Shutdown();

  std::printf("\nShape vs paper: sequential wall-clock grows linearly with "
              "cohort size;\nconcurrent dispatch stays flat at the slowest "
              "link, and a failed hospital\ncosts one retry budget instead "
              "of the whole study. Crossing the process\nboundary adds "
              "framing + syscall overhead per round trip — the deployment "
              "tax\nthe simulated link model abstracts away.\n");
  return seq_ms / conc_ms >= 2.0 && bus_ms > 0 && tcp_ms > 0 ? 0 : 1;
}
