// mip_gateway: the multi-tenant SQL serving front end as its own OS process.
//
// Dials a set of mip_worker daemons, builds a federated merge view over
// their shared dataset on the Master's local engine, and serves "run_sql" /
// "metrics" requests from many concurrent clients through a
// federation::Gateway (admission control, per-tenant quotas, result cache).
//
//   ./build/tools/mip_gateway --port=0 --dataset=linreg \
//       --worker=hospital_0:127.0.0.1:9101 --worker=hospital_1:127.0.0.1:9102
//
// On success it prints one line to stdout:
//
//   MIP_GATEWAY READY id=<id> port=<port> view=<merge table or local>
//
// and then serves until stdin reaches EOF (same lifetime contract as
// mip_worker: the parent owns the pipe). With no --worker flags the gateway
// serves the Master's local engine alone — useful for single-node smoke
// tests.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "federation/gateway.h"
#include "federation/master.h"
#include "flags.h"
#include "net/tcp_transport.h"
#include "serve_until_eof.h"
#include "storage/store.h"

namespace {

using mip::Status;
using mip::tools::ParseFlag;
using mip::tools::ParseNumber;

struct WorkerAddr {
  std::string id;
  std::string host;
  int port = 0;
};

struct GatewayFlags {
  std::string id = "gateway";
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral
  std::string dataset = "linreg";
  std::vector<WorkerAddr> workers;
  size_t max_in_flight = 64;
  size_t per_tenant = 16;
  size_t cache_capacity = 128;  // 0 = no result cache
  int serve_threads = 4;
  double read_deadline_ms = 0.0;
  /// When set, attaches a disk-backed segment store under this directory
  /// to the Master's local engine: its tables become queryable (and
  /// INSERT-able) alongside the federated view, and survive restarts.
  std::string data_dir;
};

Status ParseWorker(const std::string& spec, WorkerAddr* out) {
  const size_t c1 = spec.find(':');
  const size_t c2 = spec.rfind(':');
  if (c1 == std::string::npos || c2 == c1) {
    return Status::InvalidArgument("--worker wants id:host:port, got '" +
                                   spec + "'");
  }
  out->id = spec.substr(0, c1);
  out->host = spec.substr(c1 + 1, c2 - c1 - 1);
  MIP_RETURN_NOT_OK(ParseNumber("--worker port", spec.substr(c2 + 1),
                                &out->port));
  if (out->id.empty() || out->host.empty() || out->port <= 0) {
    return Status::InvalidArgument("--worker wants id:host:port, got '" +
                                   spec + "'");
  }
  return Status::OK();
}

Status ParseFlags(int argc, char** argv, GatewayFlags* flags) {
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
    } else if (ParseFlag(arg, "worker", &v)) {
      WorkerAddr w;
      MIP_RETURN_NOT_OK(ParseWorker(v, &w));
      flags->workers.push_back(w);
    } else if (ParseFlag(arg, "max-in-flight", &v)) {
      MIP_RETURN_NOT_OK(
          ParseNumber("--max-in-flight", v, &flags->max_in_flight));
    } else if (ParseFlag(arg, "per-tenant", &v)) {
      MIP_RETURN_NOT_OK(ParseNumber("--per-tenant", v, &flags->per_tenant));
    } else if (ParseFlag(arg, "cache-capacity", &v)) {
      MIP_RETURN_NOT_OK(
          ParseNumber("--cache-capacity", v, &flags->cache_capacity));
    } else if (ParseFlag(arg, "serve-threads", &v)) {
      MIP_RETURN_NOT_OK(
          ParseNumber("--serve-threads", v, &flags->serve_threads));
    } else if (ParseFlag(arg, "read-deadline-ms", &v)) {
      MIP_RETURN_NOT_OK(
          ParseNumber("--read-deadline-ms", v, &flags->read_deadline_ms));
    } else if (ParseFlag(arg, "data-dir", &v)) {
      flags->data_dir = v;
    } else {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  return Status::OK();
}

Status Run(const GatewayFlags& flags) {
  // One transport plays both roles: server for the tenants dialing us,
  // client for the Master's remote-table traffic toward the workers.
  mip::net::TcpTransportOptions options;
  options.bind_host = flags.host;
  options.serve_threads = flags.serve_threads;
  options.read_deadline_ms = flags.read_deadline_ms;
  mip::net::TcpTransport transport(options);
  MIP_RETURN_NOT_OK(transport.Listen(flags.port));

  mip::federation::MasterNode master;
  master.set_transport(&transport);
  for (const WorkerAddr& w : flags.workers) {
    transport.AddPeer(w.id, w.host, w.port);
    MIP_RETURN_NOT_OK(master.AddRemoteWorker(w.id, {flags.dataset}));
  }
  std::string view = "local";
  if (!flags.workers.empty()) {
    MIP_ASSIGN_OR_RETURN(view, master.CreateFederatedView(flags.dataset));
  }

  std::unique_ptr<mip::storage::StorageEngine> store;
  if (!flags.data_dir.empty()) {
    // Open builds any ordered index the manifest is missing, so even a
    // pre-index data directory boots fully indexed; the background thread
    // then keeps flush segments folded into sorted compaction groups.
    MIP_ASSIGN_OR_RETURN(store,
                         mip::storage::StorageEngine::Open(flags.data_dir));
    MIP_RETURN_NOT_OK(master.local_db().AttachStorage(store.get()));
    store->StartBackgroundCompaction();
  }

  mip::federation::GatewayOptions gw_options;
  gw_options.node_id = flags.id;
  gw_options.max_in_flight = flags.max_in_flight;
  gw_options.per_tenant_in_flight = flags.per_tenant;
  gw_options.cache_capacity = flags.cache_capacity;
  mip::federation::Gateway gateway(&master.local_db(), gw_options);
  gateway.set_link_source(&transport);
  gateway.set_smpc_source(&master.smpc());
  MIP_RETURN_NOT_OK(gateway.Attach(&transport));

  std::printf("MIP_GATEWAY READY id=%s port=%d view=%s\n", flags.id.c_str(),
              transport.port(), view.c_str());
  std::fflush(stdout);

  mip::tools::InstallBenignSignalHandler();
  mip::tools::ServeUntilStdinEof();
  transport.Shutdown();
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  GatewayFlags flags;
  Status st = ParseFlags(argc, argv, &flags);
  if (st.ok()) st = Run(flags);
  if (!st.ok()) {
    std::fprintf(stderr, "mip_gateway failed: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
