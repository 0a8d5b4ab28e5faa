#include <gtest/gtest.h>

#include "algorithms/histogram.h"
#include "data/synthetic.h"
#include "federation/fault.h"
#include "federation/master.h"
#include "federation/worker_steps.h"
#include "platform/experiment.h"

namespace mip::platform {
namespace {

using federation::MasterNode;

class PlatformTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(data::SetupAlzheimerFederation(&master_).ok());
    manager_ = std::make_unique<ExperimentManager>(&master_);
  }

  static std::vector<std::string> Datasets() {
    return {"edsd_brescia", "edsd_lausanne", "edsd_lille", "adni"};
  }

  MasterNode master_;
  std::unique_ptr<ExperimentManager> manager_;
};

TEST_F(PlatformTest, AvailableAlgorithmsPanelHasFullCatalog) {
  const std::vector<std::string> names = manager_->registry()->Names();
  EXPECT_GE(names.size(), 19u);
  for (const char* expected :
       {"descriptive", "kmeans", "linear_regression", "logistic_regression",
        "anova_oneway", "anova_twoway", "cart", "id3", "kaplan_meier",
        "calibration_belt", "naive_bayes", "naive_bayes_cv", "pca",
        "pearson_correlation", "ttest_independent", "ttest_onesample",
        "ttest_paired", "histogram", "linear_regression_cv",
        "logistic_regression_cv"}) {
    EXPECT_TRUE(manager_->registry()->Has(expected)) << expected;
  }
}

TEST_F(PlatformTest, SubmitRunsAndRecordsExperiment) {
  ExperimentSpec spec;
  spec.algorithm = "linear_regression";
  spec.datasets = Datasets();
  spec.list_params["covariates"] = {"age", "p_tau"};
  spec.params["target"] = "left_hippocampus";
  auto id = manager_->Submit(spec);
  ASSERT_TRUE(id.ok());
  ExperimentRecord record = *manager_->Get(*id);
  EXPECT_EQ(record.status, ExperimentStatus::kCompleted);
  EXPECT_NE(record.result.find("Linear regression"), std::string::npos);
  EXPECT_GT(record.runtime_ms, 0.0);
  EXPECT_EQ(manager_->List().size(), 1u);
}

TEST_F(PlatformTest, KMeansExperimentMirrorsDashboardParams) {
  // The dashboard's k-means panel: k, iterations_max_number.
  ExperimentSpec spec;
  spec.algorithm = "kmeans";
  spec.datasets = Datasets();
  spec.list_params["variables"] = {"abeta42", "p_tau"};
  spec.params["k"] = "3";
  spec.params["iterations_max_number"] = "50";
  spec.params["standardize"] = "true";
  auto id = manager_->Submit(spec);
  ASSERT_TRUE(id.ok());
  ExperimentRecord record = *manager_->Get(*id);
  EXPECT_EQ(record.status, ExperimentStatus::kCompleted);
  EXPECT_NE(record.result.find("3 clusters"), std::string::npos);
}

TEST_F(PlatformTest, UnknownAlgorithmRejectedAtSubmit) {
  ExperimentSpec spec;
  spec.algorithm = "quantum_teleportation";
  spec.datasets = Datasets();
  EXPECT_FALSE(manager_->Submit(spec).ok());
  EXPECT_TRUE(manager_->List().empty());
}

TEST_F(PlatformTest, MissingParameterFailsTheExperimentNotTheManager) {
  ExperimentSpec spec;
  spec.algorithm = "linear_regression";
  spec.datasets = Datasets();
  // no covariates/target
  auto id = manager_->Submit(spec);
  ASSERT_TRUE(id.ok());  // submission works; the run fails
  ExperimentRecord record = *manager_->Get(*id);
  EXPECT_EQ(record.status, ExperimentStatus::kFailed);
  EXPECT_NE(record.error.find("covariates"), std::string::npos);
}

TEST_F(PlatformTest, BadDatasetSelectionFails) {
  ExperimentSpec spec;
  spec.algorithm = "pca";
  spec.datasets = {"nonexistent_dataset"};
  spec.list_params["variables"] = {"age"};
  auto id = manager_->Submit(spec);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ((*manager_->Get(*id)).status, ExperimentStatus::kFailed);
}

TEST_F(PlatformTest, SecureModeFlowsThroughTheSpec) {
  ExperimentSpec spec;
  spec.algorithm = "pearson_correlation";
  spec.datasets = Datasets();
  spec.list_params["variables"] = {"abeta42", "p_tau"};
  spec.mode = federation::AggregationMode::kSecure;
  auto id = manager_->Submit(spec);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ((*manager_->Get(*id)).status, ExperimentStatus::kCompleted);
  EXPECT_GT(master_.smpc().stats().bytes_transferred, 0u);
}

TEST_F(PlatformTest, SpecFanoutQuorumExcludesAFaultedHospital) {
  // Every delivery to lille fails: the spec's fan-out policy is the only
  // thing deciding whether the experiment survives it.
  federation::FaultInjector injector;
  federation::FaultSpec down;
  down.fail_first_n = 1 << 20;
  injector.SetEndpointFault("lille", down);
  master_.bus().set_fault_hook(&injector);

  ExperimentSpec spec;
  spec.algorithm = "linear_regression";
  spec.datasets = Datasets();
  spec.list_params["covariates"] = {"age", "p_tau"};
  spec.params["target"] = "left_hippocampus";
  spec.fanout.max_attempts = 2;
  spec.fanout.retry_backoff_ms = 0.0;

  // Strict policy (min_workers = 0): the outage fails the experiment.
  auto strict_id = manager_->Submit(spec);
  ASSERT_TRUE(strict_id.ok());
  ExperimentRecord strict = *manager_->Get(*strict_id);
  EXPECT_EQ(strict.status, ExperimentStatus::kFailed);
  EXPECT_TRUE(strict.excluded_workers.empty());

  // Quorum of 3 of 4: the experiment completes without lille and says so.
  spec.fanout.min_workers = 3;
  auto id = manager_->Submit(spec);
  ASSERT_TRUE(id.ok());
  ExperimentRecord record = *manager_->Get(*id);
  master_.bus().set_fault_hook(nullptr);
  EXPECT_EQ(record.status, ExperimentStatus::kCompleted) << record.error;
  EXPECT_NE(record.result.find("Linear regression"), std::string::npos);
  EXPECT_EQ(record.excluded_workers, std::vector<std::string>{"lille"});
  EXPECT_EQ(record.excluded_datasets,
            std::vector<std::string>{"edsd_lille"});
  for (const federation::WorkerRunReport& report : record.worker_reports) {
    EXPECT_EQ(report.status.ok(), report.worker_id != "lille")
        << report.worker_id;
  }
}

TEST_F(PlatformTest, MyExperimentsKeepsHistoryInOrder) {
  ExperimentSpec a;
  a.algorithm = "ttest_onesample";
  a.datasets = Datasets();
  a.params["variable"] = "mmse";
  a.params["mu0"] = "24";
  ExperimentSpec b = a;
  b.params["mu0"] = "10";
  ASSERT_TRUE(manager_->Submit(a).ok());
  ASSERT_TRUE(manager_->Submit(b).ok());
  const auto list = manager_->List();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].spec.params.at("mu0"), "24");
  EXPECT_EQ(list[1].spec.params.at("mu0"), "10");
  EXPECT_FALSE(manager_->Get("exp-999").ok());
}

TEST_F(PlatformTest, DataCatalogueListsFederatedDatasets) {
  DataCatalogue catalogue = *DataCatalogue::Build(&master_);
  EXPECT_EQ(catalogue.datasets().size(), 4u);
  const auto* brescia = *catalogue.Find("edsd_brescia");
  EXPECT_EQ(brescia->total_rows, 1960);
  EXPECT_EQ(brescia->workers.size(), 1u);
  EXPECT_FALSE(brescia->schema.empty());
  EXPECT_FALSE(catalogue.Find("nope").ok());
  EXPECT_NE(catalogue.ToString().find("edsd_lille"), std::string::npos);
}

TEST(DataCatalogueTest, CountsRowsOnRemoteWorkersToo) {
  // A worker the Master reaches only through its transport, as it reaches
  // an mip_worker daemon: registered with AddRemoteWorker, not AddWorker.
  federation::WorkerNode remote(
      "remote_site", std::make_shared<federation::LocalFunctionRegistry>(),
      5);
  MasterNode master;
  const std::vector<double> weights = {1.0, -0.5};
  ASSERT_TRUE(master.AddWorker("local_site").ok());
  ASSERT_TRUE(master.LoadDataset(
      "local_site", "cohort",
      federation::MakeSyntheticLinregTable(1, 40, weights, 0.1)).ok());
  ASSERT_TRUE(remote.LoadDataset(
      "cohort", federation::MakeSyntheticLinregTable(2, 25, weights, 0.1)).ok());
  ASSERT_TRUE(remote.LoadDataset(
      "remote_only",
      federation::MakeSyntheticLinregTable(3, 7, weights, 0.1)).ok());
  ASSERT_TRUE(remote.AttachToBus(&master.bus()).ok());
  ASSERT_TRUE(
      master.AddRemoteWorker("remote_site", {"cohort", "remote_only"}).ok());

  auto catalogue = DataCatalogue::Build(&master);
  ASSERT_TRUE(catalogue.ok()) << catalogue.status().ToString();
  ASSERT_EQ(catalogue->datasets().size(), 2u);
  const auto* cohort = *catalogue->Find("cohort");
  EXPECT_EQ(cohort->total_rows, 65);
  EXPECT_EQ(cohort->workers,
            (std::vector<std::string>{"local_site", "remote_site"}));
  const auto* remote_only = *catalogue->Find("remote_only");
  EXPECT_EQ(remote_only->total_rows, 7);
  EXPECT_EQ(remote_only->workers, std::vector<std::string>{"remote_site"});
  EXPECT_EQ(remote_only->schema.size(), cohort->schema.size());
  EXPECT_FALSE(remote_only->schema.empty());
}

TEST_F(PlatformTest, WorkflowRunsStepsInOrder) {
  ExperimentManager::WorkflowSpec workflow;
  workflow.name = "screening";
  ExperimentSpec descriptive;
  descriptive.algorithm = "descriptive";
  descriptive.datasets = Datasets();
  descriptive.list_params["variables"] = {"p_tau"};
  ExperimentSpec regression;
  regression.algorithm = "linear_regression";
  regression.datasets = Datasets();
  regression.list_params["covariates"] = {"p_tau"};
  regression.params["target"] = "left_hippocampus";
  workflow.steps = {descriptive, regression};

  auto records = manager_->RunWorkflow(workflow);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.ValueOrDie().size(), 2u);
  EXPECT_EQ(records.ValueOrDie()[0].spec.algorithm, "descriptive");
  EXPECT_EQ(records.ValueOrDie()[1].status, ExperimentStatus::kCompleted);
  // The workflow's runs land in My Experiments too.
  EXPECT_EQ(manager_->List().size(), 2u);
}

TEST_F(PlatformTest, WorkflowStopsOnFailureByDefault) {
  ExperimentManager::WorkflowSpec workflow;
  workflow.name = "broken";
  ExperimentSpec bad;
  bad.algorithm = "linear_regression";  // missing params -> fails
  bad.datasets = Datasets();
  ExperimentSpec never_runs;
  never_runs.algorithm = "pca";
  never_runs.datasets = Datasets();
  never_runs.list_params["variables"] = {"age"};
  workflow.steps = {bad, never_runs};

  auto records = manager_->RunWorkflow(workflow);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.ValueOrDie().size(), 1u);  // aborted after the failure
  EXPECT_EQ(records.ValueOrDie()[0].status, ExperimentStatus::kFailed);

  workflow.stop_on_failure = false;
  auto all = manager_->RunWorkflow(workflow);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.ValueOrDie().size(), 2u);
  EXPECT_EQ(all.ValueOrDie()[1].status, ExperimentStatus::kCompleted);
}

TEST_F(PlatformTest, WorkflowValidatesAlgorithmNamesUpFront) {
  ExperimentManager::WorkflowSpec workflow;
  workflow.name = "typo";
  ExperimentSpec ok_step;
  ok_step.algorithm = "pca";
  ok_step.datasets = Datasets();
  ok_step.list_params["variables"] = {"age"};
  ExperimentSpec typo;
  typo.algorithm = "pcaa";
  workflow.steps = {ok_step, typo};
  EXPECT_FALSE(manager_->RunWorkflow(workflow).ok());
  EXPECT_TRUE(manager_->List().empty());  // nothing ran
  workflow.steps.clear();
  EXPECT_FALSE(manager_->RunWorkflow(workflow).ok());
}

// --- Histogram + disclosure control -----------------------------------------

TEST_F(PlatformTest, NumericHistogramCountsEverything) {
  algorithms::HistogramSpec spec;
  spec.datasets = Datasets();
  spec.variable = "mmse";
  spec.bins = 8;
  spec.privacy_threshold = 0;
  auto session = master_.StartSession(Datasets());
  auto r = algorithms::RunHistogram(&session.ValueOrDie(), spec);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().bins.size(), 8u);
  int64_t total = 0;
  for (const auto& bin : r.ValueOrDie().bins) total += bin.count;
  EXPECT_GT(total, 4500);
  EXPECT_EQ(total, r.ValueOrDie().total);
}

TEST_F(PlatformTest, NominalHistogramDiscoversLevels) {
  algorithms::HistogramSpec spec;
  spec.datasets = Datasets();
  spec.variable = "diagnosis";
  spec.nominal = true;
  spec.privacy_threshold = 0;
  auto session = master_.StartSession(Datasets());
  auto r = algorithms::RunHistogram(&session.ValueOrDie(), spec);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().bins.size(), 3u);  // CN / MCI / AD
}

TEST_F(PlatformTest, SmallCellsAreSuppressed) {
  // A rare category present in only a handful of patients must be withheld.
  MasterNode small;
  ASSERT_TRUE(small.AddWorker("w").ok());
  engine::Schema schema;
  ASSERT_TRUE(schema.AddField({"grp", engine::DataType::kString}).ok());
  engine::Table t = engine::Table::Empty(schema);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.AppendRow({engine::Value::String("common")}).ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(t.AppendRow({engine::Value::String("rare")}).ok());
  }
  ASSERT_TRUE(small.LoadDataset("w", "d", std::move(t)).ok());
  algorithms::HistogramSpec spec;
  spec.datasets = {"d"};
  spec.variable = "grp";
  spec.nominal = true;
  spec.privacy_threshold = 10;
  auto session = small.StartSession({"d"});
  auto r = algorithms::RunHistogram(&session.ValueOrDie(), spec);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().suppressed_bins, 1);
  for (const auto& bin : r.ValueOrDie().bins) {
    if (bin.label == "rare") {
      EXPECT_TRUE(bin.suppressed);
      EXPECT_EQ(bin.count, 0);
    } else {
      EXPECT_EQ(bin.count, 100);
    }
  }
  // The rendered panel marks the withheld cell.
  EXPECT_NE(r.ValueOrDie().ToString().find("<suppressed>"),
            std::string::npos);
}

TEST_F(PlatformTest, SecureHistogramWithFixedLevels) {
  algorithms::HistogramSpec spec;
  spec.datasets = Datasets();
  spec.variable = "diagnosis";
  spec.nominal = true;
  spec.levels = {"CN", "MCI", "AD"};
  spec.privacy_threshold = 0;
  spec.mode = federation::AggregationMode::kSecure;
  auto session = master_.StartSession(Datasets());
  auto r = algorithms::RunHistogram(&session.ValueOrDie(), spec);
  ASSERT_TRUE(r.ok());
  int64_t total = 0;
  for (const auto& bin : r.ValueOrDie().bins) total += bin.count;
  EXPECT_EQ(total, 5161);

  // Without levels the secure path is rejected.
  spec.levels.clear();
  auto s2 = master_.StartSession(Datasets());
  EXPECT_FALSE(algorithms::RunHistogram(&s2.ValueOrDie(), spec).ok());
}

}  // namespace
}  // namespace mip::platform
