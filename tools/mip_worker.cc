// mip_worker: a MIP federation Worker running as its own OS process.
//
// Binds a TCP transport, registers the portable local computation steps and
// serves "local_run" plus the engine's "run_sql" / "run_sql_bound" /
// "get_schema" / "get_stats" requests from a remote Master. The paper's
// deployment runs Master, Workers and the SMPC front end as separate
// services; this daemon is that Worker service.
//
//   ./build/tools/mip_worker --id=hospital_0 --port=0 --dataset=linreg
//       --rows=200 --seed=11 --weights=1.5,-2.0,0.8
//
// On success it prints one line to stdout:
//
//   MIP_WORKER READY id=<id> port=<port>
//
// and then serves until stdin reaches EOF (so a parent process — or a shell
// pipe — owns its lifetime: closing the pipe stops the worker cleanly).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"
#include "federation/worker.h"
#include "federation/worker_steps.h"
#include "flags.h"
#include "net/tcp_transport.h"
#include "serve_until_eof.h"
#include "storage/store.h"

namespace {

using mip::Status;
using mip::tools::ParseFlag;
using mip::tools::ParseNumber;

struct WorkerFlags {
  std::string id = "worker";
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral
  std::string dataset = "linreg";
  size_t rows = 200;
  uint64_t seed = 1;
  std::vector<double> weights = {1.5, -2.0, 0.8};
  double noise = 0.1;
  /// Evict connections stuck mid-frame after this budget (0 = never).
  double read_deadline_ms = 0.0;
  /// When set, the dataset lives in a disk-backed segment store under this
  /// directory instead of RAM: first boot ingests the synthetic table and
  /// flushes it to segments; every restart serves those same bytes back,
  /// regardless of --seed/--rows (which only shape the first ingest).
  std::string data_dir;
};

Status ParseWeights(const std::string& csv, std::vector<double>* out) {
  out->clear();
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    MIP_RETURN_NOT_OK(ParseNumber("--weights", csv.substr(pos, comma - pos),
                                  &out->emplace_back()));
    pos = comma + 1;
  }
  return Status::OK();
}

Status ParseFlags(int argc, char** argv, WorkerFlags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (ParseFlag(arg, "id", &v)) {
      flags->id = v;
    } else if (ParseFlag(arg, "host", &v)) {
      flags->host = v;
    } else if (ParseFlag(arg, "port", &v)) {
      MIP_RETURN_NOT_OK(ParseNumber("--port", v, &flags->port));
    } else if (ParseFlag(arg, "dataset", &v)) {
      flags->dataset = v;
    } else if (ParseFlag(arg, "rows", &v)) {
      MIP_RETURN_NOT_OK(ParseNumber("--rows", v, &flags->rows));
    } else if (ParseFlag(arg, "seed", &v)) {
      MIP_RETURN_NOT_OK(ParseNumber("--seed", v, &flags->seed));
    } else if (ParseFlag(arg, "weights", &v)) {
      MIP_RETURN_NOT_OK(ParseWeights(v, &flags->weights));
    } else if (ParseFlag(arg, "noise", &v)) {
      MIP_RETURN_NOT_OK(ParseNumber("--noise", v, &flags->noise));
    } else if (ParseFlag(arg, "read-deadline-ms", &v)) {
      MIP_RETURN_NOT_OK(
          ParseNumber("--read-deadline-ms", v, &flags->read_deadline_ms));
    } else if (ParseFlag(arg, "data-dir", &v)) {
      flags->data_dir = v;
    } else {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  if (flags->weights.empty()) {
    return Status::InvalidArgument("--weights must name at least one feature");
  }
  return Status::OK();
}

Status Run(const WorkerFlags& flags) {
  auto functions = std::make_shared<mip::federation::LocalFunctionRegistry>();
  MIP_RETURN_NOT_OK(mip::federation::RegisterPortableSteps(functions.get()));

  mip::federation::WorkerNode worker(flags.id, functions, flags.seed);
  std::unique_ptr<mip::storage::StorageEngine> store;
  if (!flags.data_dir.empty()) {
    MIP_ASSIGN_OR_RETURN(store,
                         mip::storage::StorageEngine::Open(flags.data_dir));
    bool have_dataset = false;
    for (const std::string& name : store->StorageTableNames()) {
      if (name == mip::ToLower(flags.dataset)) have_dataset = true;
    }
    if (!have_dataset) {
      // First boot: seed the store, flush to segments so restarts serve
      // the identical persisted bytes.
      MIP_RETURN_NOT_OK(store->AppendRows(
          flags.dataset,
          mip::federation::MakeSyntheticLinregTable(flags.seed, flags.rows,
                                                    flags.weights,
                                                    flags.noise)));
      MIP_RETURN_NOT_OK(store->Flush());
    }
    MIP_RETURN_NOT_OK(worker.AttachDiskStorage(store.get()));
    // From here the background thread folds small flush segments into
    // sorted, indexed groups.
    store->StartBackgroundCompaction();
  } else {
    MIP_RETURN_NOT_OK(worker.LoadDataset(
        flags.dataset,
        mip::federation::MakeSyntheticLinregTable(flags.seed, flags.rows,
                                                  flags.weights,
                                                  flags.noise)));
  }

  mip::net::TcpTransportOptions options;
  options.server.bind_host = flags.host;
  options.server.read_deadline_ms = flags.read_deadline_ms;
  mip::net::TcpTransport transport(options);
  MIP_RETURN_NOT_OK(transport.Listen(flags.port));
  MIP_RETURN_NOT_OK(worker.AttachToBus(&transport));

  std::printf("MIP_WORKER READY id=%s port=%d\n", flags.id.c_str(),
              transport.port());
  std::fflush(stdout);

  // Serve until the parent closes our stdin (or sends "quit"); transient
  // signals must not take the daemon down (see serve_until_eof.h).
  mip::tools::InstallBenignSignalHandler();
  mip::tools::ServeUntilStdinEof();
  transport.Shutdown();
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  WorkerFlags flags;
  Status st = ParseFlags(argc, argv, &flags);
  if (st.ok()) st = Run(flags);
  if (!st.ok()) {
    std::fprintf(stderr, "mip_worker failed: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
