// mip_query: load-generating SQL client for a mip_gateway (or mip_worker).
//
// Sends "run_sql" envelopes over TCP and prints every result table as
// deterministic text, in request order regardless of --concurrency — so the
// CI smoke can diff a 50-way concurrent run byte-for-byte against a serial
// one.
//
//   ./build/tools/mip_query --port=9100 --sql="SELECT * FROM t" --repeat=3
//   printf 'SELECT 1\nSELECT 2\n' | ./build/tools/mip_query --port=9100
//
// Each request prints a "== <sql>" header followed by the table (all rows).
// A typed BUSY reply (kResourceExhausted) is retried with exponential
// backoff up to --busy-retries — the cooperative client behavior the
// gateway's load shedding is designed for. --metrics fetches the gateway's
// metrics text instead of running SQL.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/parallel.h"
#include "common/status.h"
#include "engine/table.h"
#include "net/tcp_transport.h"

namespace {

using mip::Result;
using mip::Status;

struct QueryFlags {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string to = "gateway";  ///< endpoint id (use the worker id for workers)
  std::string tenant = "client";
  std::vector<std::string> sqls;
  int repeat = 1;       ///< repetitions of the whole SQL list
  int concurrency = 1;  ///< worker threads issuing requests
  int busy_retries = 8;
  double timeout_ms = 30000.0;
  bool metrics = false;
};

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

Status ParseFlags(int argc, char** argv, QueryFlags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (ParseFlag(arg, "host", &v)) {
      flags->host = v;
    } else if (ParseFlag(arg, "port", &v)) {
      flags->port = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "to", &v)) {
      flags->to = v;
    } else if (ParseFlag(arg, "tenant", &v)) {
      flags->tenant = v;
    } else if (ParseFlag(arg, "sql", &v)) {
      flags->sqls.push_back(v);
    } else if (ParseFlag(arg, "repeat", &v)) {
      flags->repeat = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "concurrency", &v)) {
      flags->concurrency = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "busy-retries", &v)) {
      flags->busy_retries = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "timeout-ms", &v)) {
      flags->timeout_ms = std::atof(v.c_str());
    } else if (arg == "--metrics") {
      flags->metrics = true;
    } else {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  if (flags->port <= 0) {
    return Status::InvalidArgument("--port is required");
  }
  if (flags->repeat < 1 || flags->concurrency < 1) {
    return Status::InvalidArgument("--repeat/--concurrency must be >= 1");
  }
  return Status::OK();
}

// One request with cooperative backoff on typed BUSY replies.
Result<std::string> RunOne(mip::net::TcpTransport* transport,
                           const QueryFlags& flags, const std::string& sql) {
  double backoff_ms = 1.0;
  for (int attempt = 0;; ++attempt) {
    mip::BufferWriter writer;
    writer.WriteString(sql);
    mip::net::Envelope envelope{flags.tenant, flags.to, "run_sql", "",
                                writer.TakeBytes()};
    envelope.deadline_ms = flags.timeout_ms;
    Result<std::vector<uint8_t>> reply = transport->Send(std::move(envelope));
    if (!reply.ok() &&
        reply.status().code() == mip::StatusCode::kResourceExhausted &&
        attempt < flags.busy_retries) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          backoff_ms));
      backoff_ms *= 2.0;
      continue;
    }
    MIP_RETURN_NOT_OK(reply.status());
    mip::BufferReader reader(reply.ValueOrDie());
    MIP_ASSIGN_OR_RETURN(mip::engine::Table table,
                         mip::engine::DeserializeTable(&reader));
    return table.ToString(table.num_rows() + 1);
  }
}

Status Run(const QueryFlags& flags) {
  mip::net::TcpTransportOptions options;
  options.io_timeout_ms = flags.timeout_ms;
  // Client only: no Listen(). Concurrent sends open distinct connections.
  options.max_idle_per_peer = static_cast<size_t>(flags.concurrency);
  mip::net::TcpTransport transport(options);
  transport.AddPeer(flags.to, flags.host, flags.port);

  if (flags.metrics) {
    mip::net::Envelope envelope{flags.tenant, flags.to, "metrics", "", {}};
    envelope.deadline_ms = flags.timeout_ms;
    MIP_ASSIGN_OR_RETURN(std::vector<uint8_t> reply,
                         transport.Send(std::move(envelope)));
    std::fwrite(reply.data(), 1, reply.size(), stdout);
    return Status::OK();
  }

  std::vector<std::string> sqls = flags.sqls;
  if (sqls.empty()) {
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), stdin) != nullptr) {
      std::string line(buf);
      while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
        line.pop_back();
      }
      if (!line.empty()) sqls.push_back(line);
    }
  }
  if (sqls.empty()) {
    return Status::InvalidArgument("no SQL: pass --sql=... or pipe lines in");
  }

  std::vector<std::string> requests;
  requests.reserve(sqls.size() * static_cast<size_t>(flags.repeat));
  for (int r = 0; r < flags.repeat; ++r) {
    for (const std::string& sql : sqls) requests.push_back(sql);
  }

  // Issue concurrently, print in request order: output is a pure function
  // of the request list, never of scheduling.
  std::vector<std::string> outputs(requests.size());
  std::vector<Status> statuses(requests.size(), Status::OK());
  {
    mip::ThreadPool pool(flags.concurrency);
    pool.ParallelFor(requests.size(), 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        Result<std::string> text = RunOne(&transport, flags, requests[i]);
        if (text.ok()) {
          outputs[i] = text.MoveValueUnsafe();
        } else {
          statuses[i] = text.status();
        }
      }
    });
  }

  Status first_error = Status::OK();
  for (size_t i = 0; i < requests.size(); ++i) {
    std::printf("== %s\n", requests[i].c_str());
    if (statuses[i].ok()) {
      std::fputs(outputs[i].c_str(), stdout);
    } else {
      std::printf("ERROR %s\n", statuses[i].ToString().c_str());
      if (first_error.ok()) first_error = statuses[i];
    }
  }
  std::fflush(stdout);
  return first_error;
}

}  // namespace

int main(int argc, char** argv) {
  QueryFlags flags;
  Status st = ParseFlags(argc, argv, &flags);
  if (st.ok()) st = Run(flags);
  if (!st.ok()) {
    std::fprintf(stderr, "mip_query failed: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
