// Cross-process federation test: spawns three real `mip_worker` daemons,
// points a MasterNode at them through a TcpTransport, and checks that a
// federated linear-regression run over sockets produces *byte-identical*
// results to the same run over the in-process MessageBus (the acceptance
// criterion for the transport layer: the delivery mechanism must not leak
// into the numerics).
//
// The daemon binary path is injected at compile time via MIP_WORKER_BIN.

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "engine/table.h"
#include "federation/master.h"
#include "federation/training.h"
#include "federation/worker_steps.h"
#include "net/tcp_transport.h"

namespace mip {
namespace {

using federation::FederatedTrainer;
using federation::MasterNode;
using federation::TrainingConfig;
using federation::TrainingResult;
using federation::TransferData;

constexpr int kWorkers = 3;
constexpr size_t kRows = 120;
constexpr uint64_t kBaseSeed = 2024;
const std::vector<double> kTrueWeights = {1.5, -2.0, 0.8};
constexpr double kNoise = 0.1;

std::string WorkerId(int i) { return "hospital_" + std::to_string(i); }
uint64_t WorkerSeed(int i) { return kBaseSeed + static_cast<uint64_t>(i); }

/// One spawned mip_worker daemon. Lifetime is owned by its stdin pipe:
/// closing it makes the daemon exit cleanly.
struct WorkerProcess {
  pid_t pid = -1;
  int stdin_fd = -1;   // write end; close -> daemon exits
  FILE* stdout_f = nullptr;
  int port = 0;

  void Terminate() {
    if (stdin_fd >= 0) {
      close(stdin_fd);
      stdin_fd = -1;
    }
    if (pid > 0) {
      int status = 0;
      waitpid(pid, &status, 0);
      pid = -1;
    }
    if (stdout_f != nullptr) {
      fclose(stdout_f);
      stdout_f = nullptr;
    }
  }
};

bool SpawnWorker(int index, WorkerProcess* out) {
  // CLOEXEC so later-spawned siblings don't inherit these pipe ends — a
  // stray write-end copy would keep a daemon's stdin open forever and
  // Terminate() would deadlock in waitpid.
  int to_child[2];   // parent writes -> child stdin
  int from_child[2]; // child stdout -> parent reads
  if (pipe2(to_child, O_CLOEXEC) != 0 || pipe2(from_child, O_CLOEXEC) != 0) {
    return false;
  }

  std::string weights_csv;
  for (size_t j = 0; j < kTrueWeights.size(); ++j) {
    if (j > 0) weights_csv += ",";
    weights_csv += std::to_string(kTrueWeights[j]);
  }
  const std::string id_flag = "--id=" + WorkerId(index);
  const std::string seed_flag = "--seed=" + std::to_string(WorkerSeed(index));
  const std::string rows_flag = "--rows=" + std::to_string(kRows);
  const std::string weights_flag = "--weights=" + weights_csv;
  const std::string noise_flag = "--noise=" + std::to_string(kNoise);

  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // Child: wire the pipes to stdin/stdout and exec the daemon.
    dup2(to_child[0], STDIN_FILENO);
    dup2(from_child[1], STDOUT_FILENO);
    close(to_child[0]);
    close(to_child[1]);
    close(from_child[0]);
    close(from_child[1]);
    execl(MIP_WORKER_BIN, MIP_WORKER_BIN, id_flag.c_str(), "--port=0",
          "--dataset=linreg", rows_flag.c_str(), seed_flag.c_str(),
          weights_flag.c_str(), noise_flag.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }

  close(to_child[0]);
  close(from_child[1]);
  out->pid = pid;
  out->stdin_fd = to_child[1];
  out->stdout_f = fdopen(from_child[0], "r");
  if (out->stdout_f == nullptr) return false;

  // The daemon prints exactly one READY line once it is listening.
  char line[256];
  if (std::fgets(line, sizeof(line), out->stdout_f) == nullptr) return false;
  int port = 0;
  const char* marker = std::strstr(line, "port=");
  if (marker == nullptr || std::sscanf(marker, "port=%d", &port) != 1 ||
      port <= 0) {
    return false;
  }
  out->port = port;
  return true;
}

TrainingConfig FixedTrainingConfig() {
  TrainingConfig config;
  config.rounds = 12;
  config.learning_rate = 0.002;
  config.privacy = federation::TrainingPrivacy::kNone;
  config.seed = 77;
  return config;
}

/// Baseline: the whole federation in one address space over the MessageBus.
Result<TrainingResult> TrainInProcess() {
  MasterNode master;
  MIP_RETURN_NOT_OK(
      federation::RegisterPortableSteps(master.functions().get()));
  for (int i = 0; i < kWorkers; ++i) {
    MIP_ASSIGN_OR_RETURN(auto* worker, master.AddWorker(WorkerId(i)));
    (void)worker;
    MIP_RETURN_NOT_OK(master.LoadDataset(
        WorkerId(i), "linreg",
        federation::MakeSyntheticLinregTable(WorkerSeed(i), kRows,
                                             kTrueWeights, kNoise)));
  }
  MIP_ASSIGN_OR_RETURN(auto session, master.StartSession({"linreg"}));
  FederatedTrainer trainer(&master, FixedTrainingConfig());
  return trainer.Train(&session, "linreg.grad",
                       static_cast<int>(kTrueWeights.size()));
}

/// stats.moments of column y: the aggregate the plain fan-out tests run.
TransferData MomentsArgs() {
  TransferData args;
  args.PutString("dataset", "linreg");
  args.PutString("column", "y");
  return args;
}

/// In-process reference for stats.moments over the same synthetic cohort.
Result<TransferData> MomentsInProcess() {
  MasterNode local;
  MIP_RETURN_NOT_OK(
      federation::RegisterPortableSteps(local.functions().get()));
  for (int i = 0; i < kWorkers; ++i) {
    MIP_RETURN_NOT_OK(local.AddWorker(WorkerId(i)).status());
    MIP_RETURN_NOT_OK(local.LoadDataset(
        WorkerId(i), "linreg",
        federation::MakeSyntheticLinregTable(WorkerSeed(i), kRows,
                                             kTrueWeights, kNoise)));
  }
  MIP_ASSIGN_OR_RETURN(auto session, local.StartSession({"linreg"}));
  return session.LocalRunAndAggregate("stats.moments", MomentsArgs(),
                                      federation::AggregationMode::kPlain);
}

/// Byte equality of the moments scalars, the plain fan-out tests' check.
void ExpectSameMoments(const TransferData& a, const TransferData& b) {
  for (const char* key : {"sum", "sum_sq", "n"}) {
    auto av = a.GetScalar(key);
    auto bv = b.GetScalar(key);
    ASSERT_TRUE(av.ok() && bv.ok()) << key;
    const double x = av.ValueOrDie(), y = bv.ValueOrDie();
    EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0) << key;
  }
}

class NetProcessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workers_.resize(kWorkers);
    for (int i = 0; i < kWorkers; ++i) {
      ASSERT_TRUE(SpawnWorker(i, &workers_[i]))
          << "failed to spawn mip_worker " << i;
    }
  }
  void TearDown() override {
    for (auto& w : workers_) w.Terminate();
  }

  std::vector<WorkerProcess> workers_;
};

TEST_F(NetProcessTest, TcpTrainingByteIdenticalToInProcess) {
  // Run 1: everything in this process over the bus.
  auto in_process = TrainInProcess();
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
  const std::vector<double>& bus_weights = in_process.ValueOrDie().weights;
  ASSERT_EQ(bus_weights.size(), kTrueWeights.size());

  // Run 2: same training, but every worker is its own OS process.
  MasterNode master;
  net::TcpTransport transport;
  for (int i = 0; i < kWorkers; ++i) {
    transport.AddPeer(WorkerId(i), "127.0.0.1", workers_[i].port);
    ASSERT_TRUE(master.AddRemoteWorker(WorkerId(i), {"linreg"}).ok());
  }
  master.set_transport(&transport);

  auto session = master.StartSession({"linreg"});
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_EQ(session.ValueOrDie().num_workers(), static_cast<size_t>(kWorkers));

  FederatedTrainer trainer(&master, FixedTrainingConfig());
  auto tcp_result =
      trainer.Train(&session.ValueOrDie(), "linreg.grad",
                    static_cast<int>(kTrueWeights.size()));
  ASSERT_TRUE(tcp_result.ok()) << tcp_result.status().ToString();
  const std::vector<double>& tcp_weights = tcp_result.ValueOrDie().weights;

  // Byte-identical: the transport must not perturb the numerics at all.
  ASSERT_EQ(tcp_weights.size(), bus_weights.size());
  EXPECT_EQ(std::memcmp(tcp_weights.data(), bus_weights.data(),
                        bus_weights.size() * sizeof(double)),
            0)
      << "TCP and in-process training diverged";

  // The transport measured real traffic: bytes, messages and wall clock.
  const net::NetworkStats stats = transport.stats();
  EXPECT_GT(stats.messages, 0u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_GT(stats.round_trips, 0u);
  EXPECT_GT(stats.wall_ms, 0.0);

  transport.Shutdown();
}

TEST_F(NetProcessTest, PlainAggregateMatchesInProcess) {
  auto local_agg = MomentsInProcess();
  ASSERT_TRUE(local_agg.ok()) << local_agg.status().ToString();

  // The same aggregate computed by the three daemons.
  MasterNode master;
  net::TcpTransport transport;
  for (int i = 0; i < kWorkers; ++i) {
    transport.AddPeer(WorkerId(i), "127.0.0.1", workers_[i].port);
    ASSERT_TRUE(master.AddRemoteWorker(WorkerId(i), {"linreg"}).ok());
  }
  master.set_transport(&transport);
  auto session = master.StartSession({"linreg"});
  ASSERT_TRUE(session.ok());
  auto remote_agg = session.ValueOrDie().LocalRunAndAggregate(
      "stats.moments", MomentsArgs(), federation::AggregationMode::kPlain);
  ASSERT_TRUE(remote_agg.ok()) << remote_agg.status().ToString();
  ExpectSameMoments(local_agg.ValueOrDie(), remote_agg.ValueOrDie());
  transport.Shutdown();
}

TEST_F(NetProcessTest, CodecTrafficMatchesInProcessAndIsMetered) {
  // Every request and reply goes through the wire serializers. Compression
  // is a transport concern only: the numerics stay byte-identical to the
  // in-process run, and the per-link ledger records what the codecs saved.
  auto local_agg = MomentsInProcess();
  ASSERT_TRUE(local_agg.ok()) << local_agg.status().ToString();

  net::TcpTransport client;
  MasterNode master;
  for (int i = 0; i < kWorkers; ++i) {
    client.AddPeer(WorkerId(i), "127.0.0.1", workers_[i].port);
    ASSERT_TRUE(master.AddRemoteWorker(WorkerId(i), {"linreg"}).ok());
  }
  master.set_transport(&client);
  auto session = master.StartSession({"linreg"});
  ASSERT_TRUE(session.ok());
  auto agg = session.ValueOrDie().LocalRunAndAggregate(
      "stats.moments", MomentsArgs(), federation::AggregationMode::kPlain);
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  ExpectSameMoments(local_agg.ValueOrDie(), agg.ValueOrDie());

  // The ledger is populated and the wire side never exceeds the raw side
  // (the measured fallback guarantees <=).
  const net::NetworkStats stats = client.stats();
  EXPECT_GT(stats.bytes_raw, 0u);
  EXPECT_GT(stats.bytes_wire, 0u);
  EXPECT_LE(stats.bytes_wire, stats.bytes_raw);
  EXPECT_GE(stats.CompressionRatio(), 1.0);
  client.Shutdown();
}

TEST_F(NetProcessTest, WorkerSurvivesBenignSignalsAndExitsCleanOnEof) {
  // Regression: a signal interrupting the daemon's blocking stdin read made
  // fgets return null, which the old loop mistook for EOF — the worker
  // silently exited mid-session. Poke the daemon repeatedly, prove it still
  // serves, then prove a real EOF still stops it cleanly.
  WorkerProcess& w = workers_[0];
  for (int k = 0; k < 3; ++k) {
    ASSERT_EQ(kill(w.pid, SIGUSR1), 0);
    usleep(20 * 1000);  // let the signal land while fgets is blocking
  }

  net::TcpTransport transport;
  transport.AddPeer(WorkerId(0), "127.0.0.1", w.port);
  BufferWriter writer;
  writer.WriteString("SELECT y FROM linreg LIMIT 5");
  auto reply = transport.Send(net::Envelope{"master", WorkerId(0), "run_sql",
                                            "", writer.TakeBytes()});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  BufferReader reader(reply.ValueOrDie());
  auto table = engine::DeserializeTable(&reader);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table.ValueOrDie().num_rows(), 5u);
  transport.Shutdown();

  // True EOF: the daemon must exit on its own with status 0.
  close(w.stdin_fd);
  w.stdin_fd = -1;
  int status = 0;
  ASSERT_EQ(waitpid(w.pid, &status, 0), w.pid);
  w.pid = -1;
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace mip
