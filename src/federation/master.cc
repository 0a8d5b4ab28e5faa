#include "federation/master.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>
#include <thread>

#include "common/stopwatch.h"

namespace mip::federation {

namespace {

/// Only delivery-level failures are worth retrying; algorithm and
/// serialization errors are deterministic and would fail again.
bool IsTransient(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kIOError;
}

}  // namespace

Result<std::vector<TransferData>> FederationSession::FanOutLocalRun(
    const char* msg_type, const std::string& func, const std::string& smpc_job,
    const TransferData& args, bool enforce_timeout) {
  const std::vector<std::string> ids = active_worker_ids_;
  const size_t n = ids.size();
  if (n == 0) {
    return Status::Unavailable("session " + job_id_ +
                               " has no active workers left");
  }

  const FanoutPolicy policy = fanout_;
  net::Transport* transport = master_->transport_;

  // Serialize the request once and share it across the fan-out.
  BufferWriter writer;
  writer.WriteString(func);
  writer.WriteString(smpc_job);
  args.SerializeForWire(&writer);
  const std::vector<uint8_t> payload = writer.TakeBytes();
  // Fixed-width request size, for the per-link compression ledger.
  const size_t raw_request_bytes = sizeof(uint32_t) + func.size() +
                                   sizeof(uint32_t) + smpc_job.size() +
                                   args.RawSerializedBytes();

  struct Slot {
    Status status = Status::Unavailable("not attempted");
    std::optional<TransferData> value;
    int attempts = 0;
    double elapsed_ms = 0.0;
  };
  std::vector<Slot> slots(n);

  // One call = one worker's full dispatch: attempts, backoff, deadline.
  // Writes only its own slot; all sharing goes through the locked bus.
  auto run_one = [&](size_t i) {
    Slot& slot = slots[i];
    Stopwatch total;
    const int max_attempts = std::max(1, policy.max_attempts);
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
      slot.attempts = attempt;
      Stopwatch rtt;
      Envelope envelope{"master", ids[i], msg_type, job_id_, payload};
      // Hard deadline for transports that can enforce one at the socket
      // (TCP); the cooperative post-hoc check below covers the in-process
      // bus, which cannot preempt a running handler.
      if (enforce_timeout && policy.worker_timeout_ms > 0) {
        envelope.deadline_ms = policy.worker_timeout_ms;
      }
      Result<std::vector<uint8_t>> reply = transport->Send(std::move(envelope));
      if (reply.ok()) {
        if (enforce_timeout && policy.worker_timeout_ms > 0 &&
            rtt.ElapsedMillis() > policy.worker_timeout_ms) {
          slot.status = Status::Unavailable(
              "worker '" + ids[i] + "' exceeded the " +
              std::to_string(policy.worker_timeout_ms) + " ms step deadline");
        } else {
          BufferReader reader(reply.ValueOrDie());
          Result<TransferData> parsed = TransferData::Deserialize(&reader);
          if (parsed.ok()) {
            // Compression ledger for both directions of this round trip:
            // raw-equivalent sizes are computed analytically, never by
            // re-serializing.
            transport->MeterCodec("master", ids[i], raw_request_bytes,
                                  payload.size());
            transport->MeterCodec(
                ids[i], "master",
                parsed.ValueOrDie().RawSerializedBytes(),
                reply.ValueOrDie().size());
            slot.value = std::move(parsed).MoveValueUnsafe();
            slot.status = Status::OK();
          } else {
            slot.status = parsed.status();
          }
          break;
        }
      } else {
        slot.status = reply.status();
      }
      if (attempt == max_attempts || !IsTransient(slot.status.code())) break;
      if (policy.retry_backoff_ms > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            policy.retry_backoff_ms * static_cast<double>(1 << (attempt - 1))));
      }
    }
    slot.elapsed_ms = total.ElapsedMillis();
  };

  const int lanes =
      policy.max_concurrency > 0
          ? std::min<int>(policy.max_concurrency, static_cast<int>(n))
          : static_cast<int>(n);
  if (lanes <= 1) {
    // Sequential dispatch in worker order — the legacy path and the
    // determinism baseline the concurrency tests compare against.
    for (size_t i = 0; i < n; ++i) run_one(i);
  } else {
    // Strided assignment over `lanes` ParallelFor chunks (grain 1), chunk t
    // owning workers t, t+lanes, ... — honors max_concurrency (at most
    // `lanes` chunks run at once) with the same work-distribution idiom the
    // engine's morsel dispatch uses.
    master_->pool().ParallelFor(
        static_cast<size_t>(lanes), 1, [&](size_t begin, size_t end) {
          for (size_t t = begin; t < end; ++t) {
            for (size_t i = t; i < n; i += static_cast<size_t>(lanes)) {
              run_one(i);
            }
          }
        });
  }

  last_reports_.clear();
  last_reports_.reserve(n);
  size_t successes = 0;
  for (size_t i = 0; i < n; ++i) {
    WorkerRunReport report{ids[i], slots[i].status, slots[i].attempts,
                           slots[i].elapsed_ms};
    auto [it, inserted] = cumulative_.try_emplace(ids[i], report);
    if (!inserted) {
      it->second.status = report.status;
      it->second.attempts += report.attempts;
      it->second.elapsed_ms += report.elapsed_ms;
    }
    last_reports_.push_back(std::move(report));
    if (slots[i].status.ok()) ++successes;
  }

  if (policy.min_workers == 0) {
    // Strict mode: the first failure (in worker order) fails the step.
    for (const Slot& slot : slots) {
      if (!slot.status.ok()) return slot.status;
    }
  } else if (successes < policy.min_workers) {
    std::string detail;
    for (size_t i = 0; i < n; ++i) {
      if (slots[i].status.ok()) continue;
      if (!detail.empty()) detail += "; ";
      detail += ids[i] + ": " + slots[i].status.ToString();
    }
    return Status::Unavailable(
        "quorum not met: " + std::to_string(successes) + " of " +
        std::to_string(n) + " workers succeeded (min_workers=" +
        std::to_string(policy.min_workers) + ") [" + detail + "]");
  }

  std::vector<TransferData> results;
  results.reserve(successes);
  std::vector<std::string> survivors;
  survivors.reserve(successes);
  for (size_t i = 0; i < n; ++i) {
    if (slots[i].status.ok()) {
      results.push_back(std::move(*slots[i].value));
      survivors.push_back(ids[i]);
    } else {
      excluded_workers_.push_back(ids[i]);
    }
  }
  // Degrade to the surviving cohort for the remaining steps so multi-step
  // algorithms keep a consistent worker set.
  active_worker_ids_ = std::move(survivors);
  return results;
}

std::vector<std::string> FederationSession::ExcludedDatasets() const {
  std::set<std::string> session_scope(datasets_.begin(), datasets_.end());
  std::set<std::string> seen;
  std::vector<std::string> out;
  for (const std::string& wid : excluded_workers_) {
    const std::vector<std::string>* worker_datasets = nullptr;
    if (WorkerNode* worker = master_->GetWorker(wid); worker != nullptr) {
      worker_datasets = &worker->datasets();
    } else if (auto it = master_->remote_workers_.find(wid);
               it != master_->remote_workers_.end()) {
      worker_datasets = &it->second.datasets;
    } else {
      continue;
    }
    for (const std::string& ds : *worker_datasets) {
      if (!session_scope.empty() && session_scope.count(ds) == 0) continue;
      if (seen.insert(ds).second) out.push_back(ds);
    }
  }
  return out;
}

std::vector<WorkerRunReport> FederationSession::CumulativeReports() const {
  std::vector<WorkerRunReport> out;
  out.reserve(worker_ids_.size());
  for (const std::string& wid : worker_ids_) {
    auto it = cumulative_.find(wid);
    if (it != cumulative_.end()) out.push_back(it->second);
  }
  return out;
}

Result<std::vector<TransferData>> FederationSession::LocalRun(
    const std::string& func, const TransferData& args) {
  // No SMPC job on the plain path.
  return FanOutLocalRun("local_run", func, "", args,
                        /*enforce_timeout=*/true);
}

Result<TransferData> FederationSession::LocalRunAndAggregate(
    const std::string& func, const TransferData& args, AggregationMode mode,
    const smpc::NoiseSpec& noise) {
  if (mode == AggregationMode::kPlain) {
    MIP_ASSIGN_OR_RETURN(std::vector<TransferData> parts,
                         LocalRun(func, args));
    return TransferData::SumMerge(parts);
  }
  // Secure path: each worker imports its transfer into the SMPC cluster;
  // only shapes travel on the bus. The step deadline is not enforced here:
  // once a (late) reply arrives the shares are already in the cluster, and
  // excluding the worker afterwards would corrupt the aggregate.
  const std::string smpc_job = NextSmpcJobId();
  // Large share vectors batch-process on the fan-out pool (morsel
  // parallelism never changes the shares — deterministic chunking).
  master_->smpc_.set_pool(&master_->pool());
  MIP_ASSIGN_OR_RETURN(
      std::vector<TransferData> shapes,
      FanOutLocalRun("local_run_secure", func, smpc_job, args,
                     /*enforce_timeout=*/false));
  if (shapes.empty()) {
    return Status::ExecutionError("no workers in session");
  }
  MIP_RETURN_NOT_OK(
      master_->smpc_.Compute(smpc_job, smpc::SmpcOp::kSum, noise));
  MIP_ASSIGN_OR_RETURN(std::vector<double> flat,
                       master_->smpc_.GetResult(smpc_job));
  return shapes[0].UnflattenNumeric(flat);
}

Result<std::vector<double>> FederationSession::LocalRunSecureOp(
    const std::string& func, const TransferData& args,
    const std::string& vector_key, smpc::SmpcOp op) {
  // Deliberately sequential: kUnion concatenates contributions, so import
  // order is part of the result and must stay deterministic.
  const std::string smpc_job = NextSmpcJobId();
  master_->smpc_.set_pool(&master_->pool());
  for (const std::string& wid : active_worker_ids_) {
    // Run plainly on the worker but import only the requested vector.
    WorkerNode* worker = master_->GetWorker(wid);
    if (worker == nullptr) return Status::NotFound("worker " + wid);
    MIP_ASSIGN_OR_RETURN(TransferData result,
                         worker->RunLocal(func, job_id_, args));
    MIP_ASSIGN_OR_RETURN(std::vector<double> vec,
                         result.GetVector(vector_key));
    MIP_RETURN_NOT_OK(master_->smpc_.ImportShares(smpc_job, vec));
  }
  MIP_RETURN_NOT_OK(master_->smpc_.Compute(smpc_job, op));
  return master_->smpc_.GetResult(smpc_job);
}

MasterNode::MasterNode(MasterConfig config)
    : config_(config),
      smpc_(config.smpc),
      local_db_("master_db"),
      functions_(std::make_shared<LocalFunctionRegistry>()),
      rng_(config.seed) {
  local_db_.set_remote_site(this);
}

Result<engine::Table> MasterNode::Call(const std::string& location,
                                       const engine::RemoteRequest& request) {
  const bool bound = request.kind == engine::RemoteKind::kRunSqlBound;
  BufferWriter writer;
  engine::EncodeRemoteRequest(request, &writer);
  std::vector<uint8_t> payload = writer.TakeBytes();
  const uint64_t request_bytes = payload.size();
  Envelope envelope{"master", location, engine::RemoteKindName(request.kind),
                    "", std::move(payload)};
  MIP_ASSIGN_OR_RETURN(std::vector<uint8_t> reply,
                       transport_->Send(std::move(envelope)));
  if (bound) {
    transport_->MeterCodec("master", location,
                           engine::RawTableWireBytes(*request.bound),
                           request_bytes);
  }
  BufferReader reader(reply);
  MIP_ASSIGN_OR_RETURN(engine::Table table, engine::DeserializeTable(&reader));
  transport_->MeterCodec(location, "master", engine::RawTableWireBytes(table),
                         reply.size());
  return table;
}

ThreadPool& MasterNode::pool() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_ == nullptr) {
    // Fan-out tasks are latency-bound (they wait on simulated links), so
    // size the pool well past the core count and for the current cohort.
    const int threads = std::max(
        {HardwareThreads(), static_cast<int>(workers_.size()), 16});
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  return *pool_;
}

Result<WorkerNode*> MasterNode::AddWorker(const std::string& worker_id) {
  for (const auto& w : workers_) {
    if (w->id() == worker_id) {
      return Status::AlreadyExists("worker '" + worker_id + "' exists");
    }
  }
  if (remote_workers_.count(worker_id) > 0) {
    return Status::AlreadyExists("worker '" + worker_id +
                                 "' exists as a remote endpoint");
  }
  auto worker = std::make_unique<WorkerNode>(worker_id, functions_,
                                             rng_.NextUint64());
  MIP_RETURN_NOT_OK(worker->AttachToBus(&bus_));
  worker->SetSmpcCluster(&smpc_);
  workers_.push_back(std::move(worker));
  return workers_.back().get();
}

Status MasterNode::AddRemoteWorker(const std::string& worker_id,
                                   const std::vector<std::string>& datasets) {
  if (GetWorker(worker_id) != nullptr ||
      remote_workers_.count(worker_id) > 0) {
    return Status::AlreadyExists("worker '" + worker_id + "' exists");
  }
  remote_workers_.emplace(worker_id, RemoteEndpoint{worker_id, datasets});
  for (const std::string& ds : datasets) {
    auto& holders = catalog_[ds];
    bool present = false;
    for (const std::string& h : holders) present = present || h == worker_id;
    if (!present) holders.push_back(worker_id);
  }
  return Status::OK();
}

WorkerNode* MasterNode::GetWorker(const std::string& worker_id) {
  for (const auto& w : workers_) {
    if (w->id() == worker_id) return w.get();
  }
  return nullptr;
}

Status MasterNode::LoadDataset(const std::string& worker_id,
                               const std::string& dataset_name,
                               engine::Table data) {
  WorkerNode* worker = GetWorker(worker_id);
  if (worker == nullptr) {
    return Status::NotFound("no worker '" + worker_id + "'");
  }
  MIP_RETURN_NOT_OK(worker->LoadDataset(dataset_name, std::move(data)));
  auto& holders = catalog_[dataset_name];
  for (const std::string& h : holders) {
    if (h == worker_id) return Status::OK();
  }
  holders.push_back(worker_id);
  return Status::OK();
}

std::vector<std::string> MasterNode::WorkersWithDatasets(
    const std::vector<std::string>& datasets) const {
  if (datasets.empty()) {
    std::vector<std::string> all;
    for (const auto& w : workers_) all.push_back(w->id());
    for (const auto& [id, endpoint] : remote_workers_) all.push_back(id);
    return all;
  }
  std::set<std::string> seen;
  std::vector<std::string> out;
  for (const std::string& ds : datasets) {
    auto it = catalog_.find(ds);
    if (it == catalog_.end()) continue;
    for (const std::string& wid : it->second) {
      if (seen.insert(wid).second) out.push_back(wid);
    }
  }
  return out;
}

Result<FederationSession> MasterNode::StartSession(
    const std::vector<std::string>& datasets) {
  std::vector<std::string> workers = WorkersWithDatasets(datasets);
  if (workers.empty()) {
    return Status::NotFound("no workers hold the requested datasets");
  }
  const std::string job_id =
      "job-" + std::to_string(++job_counter_) + "-" +
      std::to_string(rng_.NextUint64() & 0xFFFFFFull);
  return FederationSession(this, job_id, std::move(workers), datasets,
                           config_.fanout);
}

Result<std::string> MasterNode::CreateFederatedView(
    const std::string& dataset_name) {
  auto it = catalog_.find(dataset_name);
  if (it == catalog_.end()) {
    return Status::NotFound("dataset '" + dataset_name +
                            "' not in the catalog");
  }
  std::vector<std::string> part_names;
  for (const std::string& wid : it->second) {
    const std::string part = dataset_name + "_" + wid;
    if (!local_db_.HasTable(part)) {
      MIP_ASSIGN_OR_RETURN(
          engine::Table ignored,
          local_db_.ExecuteSql("CREATE REMOTE TABLE " + part + " ON '" + wid +
                               "' AS " + dataset_name));
      (void)ignored;
    }
    part_names.push_back(part);
  }
  const std::string merge_name = dataset_name + "_federated";
  if (!local_db_.HasTable(merge_name)) {
    std::string sql = "CREATE MERGE TABLE " + merge_name + " (";
    for (size_t i = 0; i < part_names.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += part_names[i];
    }
    sql += ")";
    MIP_ASSIGN_OR_RETURN(engine::Table ignored, local_db_.ExecuteSql(sql));
    (void)ignored;
  }
  return merge_name;
}

}  // namespace mip::federation
