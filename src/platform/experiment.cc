#include "platform/experiment.h"

#include <cstdlib>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "engine/remote_site.h"
#include "engine/stats.h"

namespace mip::platform {

std::string ExperimentSpec::GetParam(const std::string& key,
                                     const std::string& default_value) const {
  auto it = params.find(key);
  return it == params.end() ? default_value : it->second;
}

double ExperimentSpec::GetNumericParam(const std::string& key,
                                       double default_value) const {
  auto it = params.find(key);
  if (it == params.end()) return default_value;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  return end == it->second.c_str() ? default_value : v;
}

std::vector<std::string> ExperimentSpec::GetListParam(
    const std::string& key) const {
  auto it = list_params.find(key);
  return it == list_params.end() ? std::vector<std::string>{} : it->second;
}

Result<std::string> ExperimentSpec::RequireParam(const std::string& key) const {
  auto it = params.find(key);
  if (it == params.end() || it->second.empty()) {
    return Status::InvalidArgument("experiment parameter '" + key +
                                   "' is required");
  }
  return it->second;
}

Result<std::vector<std::string>> ExperimentSpec::RequireListParam(
    const std::string& key) const {
  auto it = list_params.find(key);
  if (it == list_params.end() || it->second.empty()) {
    return Status::InvalidArgument("experiment list parameter '" + key +
                                   "' is required");
  }
  return it->second;
}

const char* ExperimentStatusName(ExperimentStatus status) {
  switch (status) {
    case ExperimentStatus::kPending:
      return "pending";
    case ExperimentStatus::kRunning:
      return "running";
    case ExperimentStatus::kCompleted:
      return "completed";
    case ExperimentStatus::kFailed:
      return "failed";
  }
  return "?";
}

Status AlgorithmRegistry::Register(const std::string& name, Runner runner) {
  const std::string key = ToLower(name);
  if (runners_.count(key) > 0) {
    return Status::AlreadyExists("algorithm '" + name +
                                 "' already registered");
  }
  runners_.emplace(key, std::move(runner));
  return Status::OK();
}

bool AlgorithmRegistry::Has(const std::string& name) const {
  return runners_.count(ToLower(name)) > 0;
}

Result<const AlgorithmRegistry::Runner*> AlgorithmRegistry::Find(
    const std::string& name) const {
  auto it = runners_.find(ToLower(name));
  if (it == runners_.end()) {
    return Status::NotFound("no algorithm named '" + name +
                            "' in the registry");
  }
  return &it->second;
}

std::vector<std::string> AlgorithmRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(runners_.size());
  for (const auto& [k, v] : runners_) names.push_back(k);
  return names;
}

ExperimentManager::ExperimentManager(federation::MasterNode* master)
    : master_(master) {
  (void)RegisterBuiltinAlgorithms(&registry_);
}

Result<std::string> ExperimentManager::Submit(const ExperimentSpec& spec) {
  MIP_ASSIGN_OR_RETURN(const AlgorithmRegistry::Runner* runner,
                       registry_.Find(spec.algorithm));
  ExperimentRecord record;
  record.id = "exp-" + std::to_string(++counter_);
  record.spec = spec;
  record.status = ExperimentStatus::kRunning;

  Stopwatch sw;
  Result<federation::FederationSession> session =
      master_->StartSession(spec.datasets);
  if (!session.ok()) {
    record.status = ExperimentStatus::kFailed;
    record.error = session.status().ToString();
    record.runtime_ms = sw.ElapsedMillis();
    records_.push_back(record);
    return record.id;
  }
  session.ValueOrDie().set_fanout_policy(spec.fanout);
  Result<std::string> result = (*runner)(&session.ValueOrDie(), spec);
  record.runtime_ms = sw.ElapsedMillis();
  record.worker_reports = session.ValueOrDie().CumulativeReports();
  record.excluded_workers = session.ValueOrDie().excluded_workers();
  record.excluded_datasets = session.ValueOrDie().ExcludedDatasets();
  if (result.ok()) {
    record.status = ExperimentStatus::kCompleted;
    record.result = result.ValueOrDie();
  } else {
    record.status = ExperimentStatus::kFailed;
    record.error = result.status().ToString();
  }
  records_.push_back(std::move(record));
  return records_.back().id;
}

Result<ExperimentRecord> ExperimentManager::Get(
    const std::string& experiment_id) const {
  for (const ExperimentRecord& r : records_) {
    if (r.id == experiment_id) return r;
  }
  return Status::NotFound("no experiment '" + experiment_id + "'");
}

std::vector<ExperimentRecord> ExperimentManager::List() const {
  return records_;
}

Result<std::vector<ExperimentRecord>> ExperimentManager::RunWorkflow(
    const WorkflowSpec& spec) {
  if (spec.steps.empty()) {
    return Status::InvalidArgument("workflow '" + spec.name +
                                   "' has no steps");
  }
  // Validate every algorithm name up front so a typo in step 5 does not
  // burn steps 1-4.
  for (const ExperimentSpec& step : spec.steps) {
    MIP_RETURN_NOT_OK(registry_.Find(step.algorithm).status());
  }
  std::vector<ExperimentRecord> records;
  for (const ExperimentSpec& step : spec.steps) {
    MIP_ASSIGN_OR_RETURN(std::string id, Submit(step));
    MIP_ASSIGN_OR_RETURN(ExperimentRecord record, Get(id));
    const bool failed = record.status == ExperimentStatus::kFailed;
    records.push_back(std::move(record));
    if (failed && spec.stop_on_failure) break;
  }
  return records;
}

Result<DataCatalogue> DataCatalogue::Build(federation::MasterNode* master) {
  DataCatalogue catalogue;
  std::map<std::string, DatasetInfo> by_name;
  // Every worker, in-process or remote, is probed the way the engine's
  // planner probes a REMOTE table: get_stats for the row count, get_schema
  // for the variables. Neither ships a row.
  auto add_worker = [&](const std::string& wid,
                        const std::vector<std::string>& datasets) -> Status {
    for (const std::string& dataset : datasets) {
      engine::RemoteRequest request;
      request.kind = engine::RemoteKind::kGetStats;
      request.table_name = dataset;
      MIP_ASSIGN_OR_RETURN(engine::Table stats_table,
                           master->Call(wid, request));
      MIP_ASSIGN_OR_RETURN(engine::TableStats stats,
                           engine::StatsFromTable(stats_table));
      DatasetInfo& info = by_name[dataset];
      info.name = dataset;
      info.workers.push_back(wid);
      info.total_rows += stats.row_count;
      if (info.schema.empty()) {
        request.kind = engine::RemoteKind::kGetSchema;
        MIP_ASSIGN_OR_RETURN(engine::Table probe, master->Call(wid, request));
        info.schema = probe.schema().fields();
      }
    }
    return Status::OK();
  };
  for (const std::string& wid : master->WorkersWithDatasets({})) {
    if (federation::WorkerNode* worker = master->GetWorker(wid)) {
      MIP_RETURN_NOT_OK(add_worker(wid, worker->datasets()));
    } else {
      MIP_RETURN_NOT_OK(
          add_worker(wid, master->remote_workers().at(wid).datasets));
    }
  }
  for (auto& [name, info] : by_name) {
    catalogue.datasets_.push_back(std::move(info));
  }
  return catalogue;
}

Result<const DataCatalogue::DatasetInfo*> DataCatalogue::Find(
    const std::string& dataset) const {
  for (const DatasetInfo& info : datasets_) {
    if (EqualsIgnoreCase(info.name, dataset)) return &info;
  }
  return Status::NotFound("dataset '" + dataset + "' not in the catalogue");
}

std::string DataCatalogue::ToString() const {
  std::string out = "Data Catalogue\n";
  for (const DatasetInfo& info : datasets_) {
    out += "  " + info.name + ": " + std::to_string(info.total_rows) +
           " rows across " + std::to_string(info.workers.size()) +
           " site(s) [" + Join(info.workers, ", ") + "], variables:";
    for (const engine::Field& f : info.schema) {
      out += " " + f.name;
    }
    out += "\n";
  }
  return out;
}

}  // namespace mip::platform
