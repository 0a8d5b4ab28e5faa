#ifndef MIP_PLATFORM_EXPERIMENT_H_
#define MIP_PLATFORM_EXPERIMENT_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "federation/master.h"

namespace mip::platform {

/// \brief What the UI's "Create Experiment" screen submits: an algorithm
/// from the available-algorithms panel, the dataset selection, the variable
/// model and the algorithm parameters (paper Figure 3, right-hand panels).
struct ExperimentSpec {
  std::string algorithm;  ///< registry name, e.g. "linear_regression"
  std::vector<std::string> datasets;
  /// Scalar/string parameters ("k" = "3", "target" = "y", ...).
  std::map<std::string, std::string> params;
  /// List parameters ("variables", "covariates", "levels", ...).
  std::map<std::string, std::vector<std::string>> list_params;
  federation::AggregationMode mode = federation::AggregationMode::kPlain;
  /// Dispatch/failure policy for the experiment's session.
  federation::FanoutPolicy fanout;

  // -- typed accessors with defaults -------------------------------------
  std::string GetParam(const std::string& key,
                       const std::string& default_value = "") const;
  double GetNumericParam(const std::string& key, double default_value) const;
  std::vector<std::string> GetListParam(const std::string& key) const;
  /// Error if the (list) parameter is absent/empty.
  Result<std::string> RequireParam(const std::string& key) const;
  Result<std::vector<std::string>> RequireListParam(
      const std::string& key) const;
};

/// Lifecycle of a submitted experiment (the dashboard shows "Your
/// experiment is currently running" until results arrive).
enum class ExperimentStatus { kPending, kRunning, kCompleted, kFailed };

const char* ExperimentStatusName(ExperimentStatus status);

/// \brief One entry of "My Experiments".
struct ExperimentRecord {
  std::string id;
  ExperimentSpec spec;
  ExperimentStatus status = ExperimentStatus::kPending;
  std::string result;  ///< rendered result text when completed
  std::string error;   ///< failure reason when failed
  double runtime_ms = 0.0;
  /// Per-worker totals over the whole experiment (attempts, wall time,
  /// final status) — the dashboard's per-hospital timing panel.
  std::vector<federation::WorkerRunReport> worker_reports;
  /// Hospitals the quorum policy excluded, and the session datasets that
  /// lost a replica as a result.
  std::vector<std::string> excluded_workers;
  std::vector<std::string> excluded_datasets;
};

/// \brief Maps algorithm names to runnable entry points. MIP registers its
/// built-in catalog (RegisterBuiltinAlgorithms); deployments can add their
/// own.
class AlgorithmRegistry {
 public:
  /// Runs the algorithm over an open session and renders its result.
  using Runner = std::function<Result<std::string>(
      federation::FederationSession*, const ExperimentSpec&)>;

  Status Register(const std::string& name, Runner runner);
  bool Has(const std::string& name) const;
  Result<const Runner*> Find(const std::string& name) const;
  /// The "Available Algorithms" panel.
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, Runner> runners_;
};

/// Registers the full built-in catalog (descriptive, pearson, t-tests,
/// ANOVAs, regressions + CV, k-means, PCA, naive bayes + CV, ID3, CART,
/// Kaplan-Meier, calibration belt, histogram).
Status RegisterBuiltinAlgorithms(AlgorithmRegistry* registry);

/// \brief The experiment front end: submission, status tracking and the
/// "My Experiments" history, on top of a MasterNode.
class ExperimentManager {
 public:
  explicit ExperimentManager(federation::MasterNode* master);

  AlgorithmRegistry* registry() { return &registry_; }

  /// Validates and executes the experiment (synchronously in this
  /// in-process build; status transitions and the async retrieval-by-id
  /// surface mirror the deployed platform). Returns the experiment id.
  Result<std::string> Submit(const ExperimentSpec& spec);

  Result<ExperimentRecord> Get(const std::string& experiment_id) const;
  /// All experiments, newest last.
  std::vector<ExperimentRecord> List() const;

  /// \brief The dashboard's "Workflow" tab: a named sequence of experiment
  /// steps run in order (MIP composes algorithm runs into workflows).
  struct WorkflowSpec {
    std::string name;
    std::vector<ExperimentSpec> steps;
    /// When true (default) a failed step aborts the remaining steps.
    bool stop_on_failure = true;
  };

  /// Runs every step and returns their records (in order). A failed step
  /// never fails the workflow call itself — inspect the records.
  Result<std::vector<ExperimentRecord>> RunWorkflow(const WorkflowSpec& spec);

 private:
  federation::MasterNode* master_;
  AlgorithmRegistry registry_;
  std::vector<ExperimentRecord> records_;
  int64_t counter_ = 0;
};

/// \brief The "Data Catalogue" tab: which datasets exist, where they live,
/// their harmonized schema and caseload. Built from the federation's
/// catalog by asking each worker for aggregate metadata only.
class DataCatalogue {
 public:
  struct DatasetInfo {
    std::string name;
    std::vector<std::string> workers;
    int64_t total_rows = 0;
    std::vector<engine::Field> schema;
  };

  static Result<DataCatalogue> Build(federation::MasterNode* master);

  const std::vector<DatasetInfo>& datasets() const { return datasets_; }
  Result<const DatasetInfo*> Find(const std::string& dataset) const;
  std::string ToString() const;

 private:
  std::vector<DatasetInfo> datasets_;
};

}  // namespace mip::platform

#endif  // MIP_PLATFORM_EXPERIMENT_H_
