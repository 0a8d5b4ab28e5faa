// Shared declarations of the MIP repository benchmark (see README.md).
//
// The benchmark hosts a whole 4-hospital federation in one process, drives a
// seeded operation list through the system's public entry points, checks
// every answer against an independent oracle and prints end-to-end metrics
// (untraced runs) or per-layer metrics (traced runs) as one JSON line.

#ifndef MIP_PERFBENCH_BENCH_H_
#define MIP_PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/storage_iface.h"
#include "engine/table.h"
#include "federation/gateway.h"
#include "federation/master.h"
#include "net/tcp_transport.h"
#include "net/transport.h"
#include "platform/experiment.h"
#include "storage/store.h"

namespace perfbench {

using mip::Result;
using mip::Status;
using mip::engine::Table;

/// Milliseconds on the steady clock since the first call in this process.
double NowMs();

/// Median / quantile by linear interpolation over a copy of `values`;
/// 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// --- Tracing ---------------------------------------------------------------

/// One timed call at a layer boundary. Spans of one benchmark operation
/// share `op`; `key` pairs a master-side remote span with the worker-side
/// span that served it.
struct Span {
  uint64_t op = 0;
  std::string name;  ///< "gateway.handle", "remote.run_sql", "worker.run_sql",
                     ///< "storage.scan", "storage.index_scan", ...
  double start_ms = 0.0;
  double end_ms = 0.0;
  uint64_t key = 0;
  bool ok = true;
  mip::engine::ScanStats scan;  ///< storage scan spans only
  int64_t rows_out = 0;         ///< storage scan spans only

  double duration_ms() const { return end_ms - start_ms; }
};

/// In-memory span buffer. Operation ids reach a span through the calling
/// thread (ScopedOp), through the remote-call registry (a worker handler
/// looks up the request it serves), or through the fallback id that
/// single-client workloads set per operation.
class Tracer {
 public:
  void Record(Span span);
  std::vector<Span> Take();

  /// The operation id of the calling thread, else the fallback id.
  uint64_t CurrentOp() const;
  void set_fallback_op(uint64_t op) { fallback_op_.store(op); }

  void BeginCall(uint64_t key, uint64_t op);
  void EndCall(uint64_t key);
  uint64_t LookupCall(uint64_t key) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<uint64_t, uint64_t> calls_;  ///< in-flight request key -> op
  std::atomic<uint64_t> fallback_op_{0};
};

/// Sets the calling thread's operation id for its lifetime.
class ScopedOp {
 public:
  explicit ScopedOp(uint64_t op);
  ~ScopedOp();
  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

 private:
  uint64_t previous_;
};

/// FNV-1a over the routing fields and payload of a request.
uint64_t RequestKey(const mip::net::Envelope& envelope);

/// Transport decorator: times every Send by envelope type ("remote.<type>")
/// and every handler registered through it ("worker.<type>"). Every other
/// virtual forwards, so traced runs ship exactly the bytes untraced runs do.
class TracingTransport : public mip::net::Transport {
 public:
  TracingTransport(mip::net::Transport* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  Status RegisterEndpoint(const std::string& node_id,
                          Handler handler) override;
  Result<std::vector<uint8_t>> Send(mip::net::Envelope envelope) override;
  mip::net::NetworkStats stats() const override { return inner_->stats(); }
  std::map<std::string, mip::net::NetworkStats> link_stats() const override {
    return inner_->link_stats();
  }
  void ResetStats() override { inner_->ResetStats(); }
  std::map<std::string, mip::LatencyHistogram> link_histograms()
      const override {
    return inner_->link_histograms();
  }
  void set_fault_hook(mip::net::FaultHook* hook) override {
    inner_->set_fault_hook(hook);
  }
  bool SupportsCodecs(const std::string& peer_id) override {
    return inner_->SupportsCodecs(peer_id);
  }
  void MeterCodec(const std::string& from, const std::string& to,
                  uint64_t raw_bytes, uint64_t wire_bytes) override {
    inner_->MeterCodec(from, to, raw_bytes, wire_bytes);
  }

 private:
  mip::net::Transport* inner_;
  Tracer* tracer_;
};

/// TableStorage decorator: times scans ("storage.scan" /
/// "storage.index_scan", with their ScanStats and output rows) and appends
/// ("storage.append"); everything else forwards.
class TracingStorage : public mip::engine::TableStorage {
 public:
  TracingStorage(mip::engine::TableStorage* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::vector<std::string> StorageTableNames() const override {
    return inner_->StorageTableNames();
  }
  Result<mip::engine::Schema> StorageTableSchema(
      const std::string& name) const override {
    return inner_->StorageTableSchema(name);
  }
  Result<Table> ScanTable(const std::string& name,
                          const mip::engine::Expr* prune_filter,
                          mip::engine::ScanStats* stats) const override;
  Status AppendRows(const std::string& name, const Table& rows) override;
  Result<mip::engine::ScanStats> PrunePreview(
      const std::string& name,
      const mip::engine::Expr* prune_filter) const override {
    return inner_->PrunePreview(name, prune_filter);
  }
  Result<Table> IndexScanTable(const std::string& name,
                               const mip::engine::Expr* prune_filter,
                               mip::engine::ScanStats* stats) const override;
  Result<mip::engine::IndexPreview> PreviewIndexScan(
      const std::string& name,
      const mip::engine::Expr* prune_filter) const override {
    return inner_->PreviewIndexScan(name, prune_filter);
  }
  Result<mip::engine::TableStats> StorageTableStats(
      const std::string& name) const override {
    return inner_->StorageTableStats(name);
  }
  mip::engine::StorageCounters Counters() const override {
    return inner_->Counters();
  }

 private:
  Result<Table> TimedScan(const char* span_name, bool use_index,
                          const std::string& name,
                          const mip::engine::Expr* prune_filter,
                          mip::engine::ScanStats* stats) const;

  mip::engine::TableStorage* inner_;
  Tracer* tracer_;
};

// --- Federations -----------------------------------------------------------

/// Names shared by the generators, the federation and the oracle.
inline constexpr int kSites = 4;
std::string SiteId(int site);

/// A federation reached over TCP: kSites WorkerNodes, each on its own
/// loopback listener (as mip_worker runs them), and a MasterNode plus
/// Gateway on another listener (as mip_gateway runs them). The benchmark's
/// clients talk to the gateway through their own client transport.
class SqlFederation {
 public:
  struct Options {
    std::string dataset;  ///< table name on every worker
    bool on_disk = false;  ///< serve from a StorageEngine per site
    std::string data_root;  ///< parent directory of the site stores
    Tracer* tracer = nullptr;  ///< non-null = traced run
  };

  /// Loads each site's batches (`sites[i]`: concatenated in memory, or
  /// ingested one AppendRows call each on disk) and `gateway_tables`
  /// (registered on the gateway's local engine), then brings every listener
  /// up.
  static Result<std::unique_ptr<SqlFederation>> Start(
      const Options& options, std::vector<std::vector<Table>> sites,
      std::vector<std::pair<std::string, Table>> gateway_tables);
  ~SqlFederation();
  SqlFederation(const SqlFederation&) = delete;
  SqlFederation& operator=(const SqlFederation&) = delete;

  /// Runs `sql` through the gateway as tenant `client`.
  Result<Table> Query(const std::string& client, const std::string& sql);
  /// Appends rows to one site's store (disk federations).
  Status Append(int site, const Table& rows);
  /// Blocks until no site has a compaction pending (disk federations).
  void WaitForCompactionIdle();

  /// Request plus reply bytes over every transport.
  uint64_t WireBytes() const;
  mip::net::NetworkStats MasterLinkTotals() const;
  mip::federation::Gateway::Stats GatewayStats() const;
  mip::federation::ResultCache::Stats CacheStats() const;
  mip::engine::StorageCounters StorageTotals() const;
  /// Bytes of every file under the site stores.
  uint64_t DiskBytes() const;
  /// Plans `sql` on the gateway's engine (call only with no traffic).
  Status PlanOnly(const std::string& sql);
  mip::engine::Database& gateway_db() { return master_->local_db(); }

 private:
  struct Site {
    std::unique_ptr<mip::storage::StorageEngine> store;
    std::unique_ptr<TracingStorage> traced_store;
    std::unique_ptr<mip::federation::WorkerNode> worker;
    std::unique_ptr<mip::net::TcpTransport> listener;
    std::unique_ptr<TracingTransport> traced_listener;
  };
  SqlFederation() = default;
  void Shutdown();

  Options options_;
  std::vector<Site> sites_;
  std::unique_ptr<mip::net::TcpTransport> master_net_;
  std::unique_ptr<TracingTransport> traced_master_net_;
  std::unique_ptr<mip::federation::MasterNode> master_;
  std::unique_ptr<mip::federation::Gateway> gateway_;
  std::unique_ptr<mip::net::TcpTransport> gateway_listener_;
  std::unique_ptr<mip::net::TcpTransport> client_net_;
};

/// The algorithm federation: kSites in-process WorkerNodes on the master's
/// MessageBus (MasterNode::AddWorker), sharing its SMPC cluster, driven
/// through ExperimentManager.
class StudyFederation {
 public:
  static Result<std::unique_ptr<StudyFederation>> Start(
      const std::string& dataset, std::vector<Table> site_tables,
      Tracer* tracer);
  ~StudyFederation();
  StudyFederation(const StudyFederation&) = delete;
  StudyFederation& operator=(const StudyFederation&) = delete;

  /// Submits one experiment; returns its record (completed or failed).
  Result<mip::platform::ExperimentRecord> Run(
      const mip::platform::ExperimentSpec& spec);
  /// Traffic totals of the bus (request plus reply bytes, codec ledger).
  mip::net::NetworkStats BusStats() const;
  mip::smpc::SmpcCluster& smpc() { return master_->smpc(); }

 private:
  StudyFederation() = default;

  std::unique_ptr<mip::federation::MasterNode> master_;
  std::unique_ptr<TracingTransport> traced_bus_;
  std::unique_ptr<mip::platform::ExperimentManager> manager_;
};

// --- Oracle ----------------------------------------------------------------

/// Order-insensitive comparison of a reply with the expected table: same
/// columns and row count, equal non-float cells, float cells within a
/// relative 1e-9 (merge-aggregate pushdown reassociates float sums).
/// Returns an empty string on a match, else what differed.
std::string CompareTables(const Table& expected, const Table& actual);

/// Compares two rendered experiment results: identical text between
/// numbers, numbers within `tolerance` (absolute or relative).
std::string CompareResultText(const std::string& expected,
                              const std::string& actual, double tolerance);

/// Serial in-memory engine with the optimizer off: the answer key.
class SqlOracle {
 public:
  SqlOracle();
  Status Put(const std::string& name, Table table);
  /// Appends `rows` to table `name` (replacing it with the concatenation).
  Status Append(const std::string& name, const Table& rows);
  /// Answers SELECTs against the current tables, one query per thread at a
  /// time on up to `threads` threads (each query runs serially); answers
  /// come back in the order of `sqls`.
  std::vector<Result<Table>> RunMany(const std::vector<std::string>& sqls,
                                     int threads);

 private:
  std::unique_ptr<mip::engine::Database> db_;
};

// --- Workloads -------------------------------------------------------------

/// Data sizes of one run; the self-test shrinks them.
struct Scale {
  int64_t visits_per_site = 100000;
  int64_t patients_per_site = 25000;
  std::vector<int64_t> cohort_sizes = {16, 512, 32768};
  int64_t records_per_site = 250000;
  int64_t ingest_batch_rows = 25000;
  int64_t write_rows = 2000;
  int64_t study_patients_per_site = 20000;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  int setups = 5;  ///< set-ups measured for setup_s (the last one runs)
  Scale scale;
  std::string work_dir = ".bench_build/data";
};

/// One benchmark operation.
struct Op {
  int client = 0;
  std::string cls;  ///< class label for the per-class breakdown
  std::string sql;  ///< SQL operations
  int site = -1;  ///< disk writes: target site
  int64_t first_id = 0;  ///< disk writes: first row id of the batch
  int spec = -1;  ///< study: index into the spec pool
  bool secure = false;  ///< study: kSecure
};

/// The seeded inputs of one run: data generators live in workloads.cc; the
/// operation lists are here so the self-test can compare them.
struct OpPlan {
  int clients = 1;
  std::vector<Op> warmup;
  std::vector<Op> timed;
  std::vector<mip::platform::ExperimentSpec> specs;  ///< study only
};
Result<OpPlan> MakeOpPlan(const RunConfig& config);

/// Metric name -> (value, unit).
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

struct RunOutcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = false;
  Metrics metrics;
  std::vector<std::string> notes;  ///< human-readable lines printed first
};

Result<RunOutcome> RunWorkload(const RunConfig& config);

/// Self-tests of the benchmark itself; returns the number of failures.
int RunSelfTests();

}  // namespace perfbench

#endif  // MIP_PERFBENCH_BENCH_H_
