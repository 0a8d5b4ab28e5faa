#ifndef MIP_FEDERATION_WORKER_H_
#define MIP_FEDERATION_WORKER_H_

#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "engine/database.h"
#include "federation/bus.h"
#include "federation/transfer.h"
#include "smpc/cluster.h"

namespace mip::federation {

class WorkerNode;

/// \brief Execution context handed to a local computation step running on a
/// Worker: the in-database engine, per-job persistent state (the "pointer to
/// the actual data" of the paper — local results stay on the worker, indexed
/// by job id), and a deterministic RNG.
class WorkerContext {
 public:
  WorkerContext(WorkerNode* worker, std::string job_id)
      : worker_(worker), job_id_(std::move(job_id)) {}

  engine::Database& db();
  /// Per-job state surviving across steps of one algorithm execution.
  TransferData& state();
  Rng& rng();
  const std::string& worker_id() const;
  const std::string& job_id() const { return job_id_; }

  /// Datasets hosted on this worker (CDE-harmonized table names).
  const std::vector<std::string>& datasets() const;

  /// Execution context for the worker's local compute: the engine database's
  /// context when one was installed, ExecContext::Default() otherwise.
  /// Algorithm steps use this to morsel-parallelize their sufficient-
  /// statistics loops with the same determinism guarantee as the engine.
  const engine::ExecContext& exec();

 private:
  WorkerNode* worker_;
  std::string job_id_;
};

/// \brief A local computation step: procedural code the algorithm developer
/// writes, shipped to workers and executed next to the data.
using LocalFn =
    std::function<Result<TransferData>(WorkerContext&, const TransferData&)>;

/// \brief Registry of local computation steps, shared by all workers of a
/// federation (MIP ships the same algorithm code to every node).
class LocalFunctionRegistry {
 public:
  Status Register(const std::string& name, LocalFn fn);
  Result<const LocalFn*> Find(const std::string& name) const;
  bool Has(const std::string& name) const { return fns_.count(name) > 0; }
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, LocalFn> fns_;
};

/// \brief A Worker node: hosts sensitive hospital data inside its own
/// Database and executes local computation steps against it. Results leave
/// the node only as aggregates (plain path) or as secret shares imported
/// into the SMPC cluster (secure path).
class WorkerNode {
 public:
  WorkerNode(std::string id, std::shared_ptr<LocalFunctionRegistry> functions,
             uint64_t seed);

  const std::string& id() const { return id_; }
  engine::Database& db() { return db_; }
  Rng& rng() { return rng_; }

  /// Loads a harmonized dataset into the worker's engine under
  /// `dataset_name`.
  Status LoadDataset(const std::string& dataset_name, engine::Table data);
  const std::vector<std::string>& datasets() const { return datasets_; }
  bool HasDataset(const std::string& dataset_name) const;

  /// Attaches a disk-backed table store (storage::StorageEngine) to the
  /// worker's database and advertises every disk table as a hosted dataset
  /// — the persistent alternative to LoadDataset. The storage must outlive
  /// the worker.
  Status AttachDiskStorage(engine::TableStorage* storage);

  /// Registers this worker's request handler on a transport (the in-process
  /// bus, or a listening TcpTransport when the worker runs as its own
  /// process). Message types: "local_run" (returns the transfer),
  /// "local_run_secure" (imports the transfer into the SMPC cluster; only
  /// the shape goes back over the wire), and the four engine::RemoteKind
  /// requests a Master's engine sends (see ServeRemote). Any other type is
  /// InvalidArgument.
  Status AttachToBus(net::Transport* transport);

  /// Wires the worker to the SMPC cluster for secure imports.
  void SetSmpcCluster(smpc::SmpcCluster* cluster) { smpc_ = cluster; }

  /// Executes a registered local step directly (in-process path; the bus
  /// handler funnels here).
  Result<TransferData> RunLocal(const std::string& func,
                                const std::string& job_id,
                                const TransferData& args);

  TransferData& JobState(const std::string& job_id) {
    return job_state_[job_id];
  }
  void ClearJobState(const std::string& job_id) { job_state_.erase(job_id); }

 private:
  Result<std::vector<uint8_t>> HandleEnvelope(const Envelope& envelope);

  /// Serves one decoded engine request against this worker's database:
  /// "run_sql" (REMOTE-table scans and every pushdown), "run_sql_bound"
  /// (broadcast joins: runs the SELECT with `bound` visible under the temp
  /// name for that statement only), "get_schema" / "get_stats" (planner
  /// probes without materializing). Probes, read-only SQL and
  /// run_sql_bound share db_mu_; other run_sql statements take it
  /// exclusively.
  Result<engine::Table> ServeRemote(const engine::RemoteRequest& request,
                                    const engine::Table& bound);

  std::string id_;
  /// Transports run handlers concurrently (the Master fans out from a
  /// thread pool). Everything that changes db_ or datasets_ — LoadDataset,
  /// AttachDiskStorage, run_sql DDL/DML — takes this exclusively; serving
  /// reads (probes, SELECTs, run_sql_bound, local steps) shares it.
  std::shared_mutex db_mu_;
  engine::Database db_;
  std::shared_ptr<LocalFunctionRegistry> functions_;
  Rng rng_;
  std::vector<std::string> datasets_;
  std::map<std::string, TransferData> job_state_;
  smpc::SmpcCluster* smpc_ = nullptr;
};

}  // namespace mip::federation

#endif  // MIP_FEDERATION_WORKER_H_
