#include "federation/worker.h"

#include <mutex>
#include <utility>

#include "engine/sql_parser.h"
#include "engine/stats.h"

namespace mip::federation {

engine::Database& WorkerContext::db() { return worker_->db(); }
TransferData& WorkerContext::state() { return worker_->JobState(job_id_); }
Rng& WorkerContext::rng() { return worker_->rng(); }
const std::string& WorkerContext::worker_id() const { return worker_->id(); }
const engine::ExecContext& WorkerContext::exec() {
  return engine::ExecContext::Resolve(worker_->db().exec_context());
}
const std::vector<std::string>& WorkerContext::datasets() const {
  return worker_->datasets();
}

Status LocalFunctionRegistry::Register(const std::string& name, LocalFn fn) {
  if (fns_.count(name) > 0) {
    return Status::AlreadyExists("local function '" + name +
                                 "' already registered");
  }
  fns_.emplace(name, std::move(fn));
  return Status::OK();
}

Result<const LocalFn*> LocalFunctionRegistry::Find(
    const std::string& name) const {
  auto it = fns_.find(name);
  if (it == fns_.end()) {
    return Status::NotFound("no local function '" + name + "'");
  }
  return &it->second;
}

std::vector<std::string> LocalFunctionRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(fns_.size());
  for (const auto& [k, v] : fns_) names.push_back(k);
  return names;
}

WorkerNode::WorkerNode(std::string id,
                       std::shared_ptr<LocalFunctionRegistry> functions,
                       uint64_t seed)
    : id_(std::move(id)),
      db_("db_" + id_),
      functions_(std::move(functions)),
      rng_(seed) {}

Status WorkerNode::LoadDataset(const std::string& dataset_name,
                               engine::Table data) {
  std::unique_lock<std::shared_mutex> lock(db_mu_);
  MIP_RETURN_NOT_OK(db_.PutTable(dataset_name, std::move(data)));
  if (!HasDataset(dataset_name)) datasets_.push_back(dataset_name);
  return Status::OK();
}

Status WorkerNode::AttachDiskStorage(engine::TableStorage* storage) {
  std::unique_lock<std::shared_mutex> lock(db_mu_);
  MIP_RETURN_NOT_OK(db_.AttachStorage(storage));
  for (const std::string& name : storage->StorageTableNames()) {
    if (!HasDataset(name)) datasets_.push_back(name);
  }
  return Status::OK();
}

bool WorkerNode::HasDataset(const std::string& dataset_name) const {
  for (const std::string& d : datasets_) {
    if (d == dataset_name) return true;
  }
  return false;
}

Result<TransferData> WorkerNode::RunLocal(const std::string& func,
                                          const std::string& job_id,
                                          const TransferData& args) {
  MIP_ASSIGN_OR_RETURN(const LocalFn* fn, functions_->Find(func));
  WorkerContext ctx(this, job_id);
  return (*fn)(ctx, args);
}

Status WorkerNode::AttachToBus(net::Transport* transport) {
  return transport->RegisterEndpoint(
      id_, [this](const Envelope& e) { return HandleEnvelope(e); });
}

Result<std::vector<uint8_t>> WorkerNode::HandleEnvelope(
    const Envelope& envelope) {
  BufferReader reader(envelope.payload);
  if (envelope.type == "local_run" || envelope.type == "local_run_secure") {
    std::shared_lock<std::shared_mutex> lock(db_mu_);
    MIP_ASSIGN_OR_RETURN(std::string func, reader.ReadString());
    MIP_ASSIGN_OR_RETURN(std::string smpc_job, reader.ReadString());
    MIP_ASSIGN_OR_RETURN(TransferData args,
                         TransferData::Deserialize(&reader));
    MIP_ASSIGN_OR_RETURN(TransferData result,
                         RunLocal(func, envelope.job_id, args));
    BufferWriter writer;
    if (envelope.type == "local_run_secure") {
      if (smpc_ == nullptr) {
        return Status::ExecutionError("worker " + id_ +
                                      " has no SMPC cluster attached");
      }
      if (result.HasTables()) {
        return Status::SecurityError(
            "table payloads cannot ride the secure aggregation path");
      }
      // The actual values go to the SMPC cluster as secret shares; only the
      // SHAPE (keys + zeroed numerics) crosses the bus back to the Master.
      MIP_RETURN_NOT_OK(smpc_->ImportShares(smpc_job,
                                            result.FlattenNumeric()));
      const std::vector<double> zeros(result.FlattenNumeric().size(), 0.0);
      MIP_ASSIGN_OR_RETURN(TransferData shape,
                           result.UnflattenNumeric(zeros));
      shape.SerializeForWire(&writer);
      return writer.TakeBytes();
    }
    result.SerializeForWire(&writer);
    return writer.TakeBytes();
  }
  engine::Table bound;
  MIP_ASSIGN_OR_RETURN(
      engine::RemoteRequest request,
      engine::DecodeRemoteRequest(envelope.type, &reader, &bound));
  MIP_ASSIGN_OR_RETURN(engine::Table table, ServeRemote(request, bound));
  BufferWriter writer;
  engine::SerializeTableForWire(table, &writer);
  return writer.TakeBytes();
}

Result<engine::Table> WorkerNode::ServeRemote(
    const engine::RemoteRequest& request, const engine::Table& bound) {
  switch (request.kind) {
    case engine::RemoteKind::kGetSchema: {
      // Schema-only probe: a zero-row table lets the Master's planner prune
      // remote projections without ever materializing the relation.
      std::shared_lock<std::shared_mutex> lock(db_mu_);
      MIP_ASSIGN_OR_RETURN(engine::Schema schema,
                           db_.GetSchema(request.table_name));
      return engine::Table::Empty(std::move(schema));
    }
    case engine::RemoteKind::kGetStats: {
      // Statistics-only probe, the get_schema of the cost model: row count
      // plus per-column NDV/null/range stats, never the relation itself.
      std::shared_lock<std::shared_mutex> lock(db_mu_);
      MIP_ASSIGN_OR_RETURN(engine::TableStats stats,
                           db_.GetTableStats(request.table_name));
      return engine::StatsToTable(stats);
    }
    case engine::RemoteKind::kRunSql: {
      // Remote query execution: REMOTE-table scans and every pushdown
      // (filters, projections, limits, partial aggregates) ship as SQL.
      std::shared_lock<std::shared_mutex> shared(db_mu_, std::defer_lock);
      std::unique_lock<std::shared_mutex> exclusive(db_mu_, std::defer_lock);
      if (engine::IsReadOnlySql(request.sql)) {
        shared.lock();
      } else {
        exclusive.lock();
      }
      return db_.ExecuteSql(request.sql);
    }
    case engine::RemoteKind::kRunSqlBound: {
      // Broadcast-join transport: the Master ships a small build side, the
      // join runs here next to the data, only joined rows go back. The
      // build side is bound for this one statement only, so the request
      // registers nothing and shares the lock like any other read.
      std::shared_lock<std::shared_mutex> lock(db_mu_);
      return db_.ExecuteBoundSelect(request.sql, request.temp_name, bound);
    }
  }
  return Status::Internal("bad remote request kind");
}

}  // namespace mip::federation
