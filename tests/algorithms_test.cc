#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>

#include "algorithms/anova.h"
#include "algorithms/calibration_belt.h"
#include "algorithms/common.h"
#include "algorithms/decision_tree.h"
#include "algorithms/descriptive.h"
#include "algorithms/kaplan_meier.h"
#include "algorithms/kmeans.h"
#include "algorithms/linear_regression.h"
#include "algorithms/logistic_regression.h"
#include "algorithms/naive_bayes.h"
#include "algorithms/pca.h"
#include "algorithms/pearson.h"
#include "algorithms/ttest.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "federation/master.h"

namespace mip::algorithms {
namespace {

using engine::DataType;
using engine::Schema;
using engine::Table;
using engine::Value;
using federation::AggregationMode;
using federation::FederationSession;
using federation::MasterNode;

// Shared fixture: a 3-hospital federation holding a synthetic regression /
// classification dataset split across sites, plus a pooled copy on a
// single-worker federation for equivalence checks.
class AlgorithmsFixture : public ::testing::Test {
 protected:
  static constexpr int kRowsPerSite = 160;

  void SetUp() override {
    Rng rng(20240101);
    Schema schema;
    ASSERT_TRUE(schema.AddField({"x1", DataType::kFloat64}).ok());
    ASSERT_TRUE(schema.AddField({"x2", DataType::kFloat64}).ok());
    ASSERT_TRUE(schema.AddField({"y", DataType::kFloat64}).ok());
    ASSERT_TRUE(schema.AddField({"ybin", DataType::kFloat64}).ok());
    ASSERT_TRUE(schema.AddField({"grp", DataType::kString}).ok());

    Table pooled = Table::Empty(schema);
    for (const std::string site : {"s1", "s2", "s3"}) {
      ASSERT_TRUE(fed_.AddWorker(site).ok());
      Table local = Table::Empty(schema);
      for (int i = 0; i < kRowsPerSite; ++i) {
        const double x1 = rng.NextGaussian(0, 2);
        const double x2 = rng.NextGaussian(1, 1.5);
        // y = 3 + 2 x1 - 1.5 x2 + noise.
        const double y = 3.0 + 2.0 * x1 - 1.5 * x2 + rng.NextGaussian(0, 1);
        const double z = 0.8 * x1 - 0.5 * x2;
        const double ybin =
            rng.NextDouble() < 1.0 / (1.0 + std::exp(-z)) ? 1.0 : 0.0;
        const std::string grp =
            ybin > 0.5 ? "case" : (rng.NextDouble() < 0.5 ? "ctl_a" : "ctl_b");
        std::vector<Value> row = {Value::Double(x1), Value::Double(x2),
                                  Value::Double(y), Value::Double(ybin),
                                  Value::String(grp)};
        ASSERT_TRUE(local.AppendRow(row).ok());
        ASSERT_TRUE(pooled.AppendRow(row).ok());
      }
      ASSERT_TRUE(fed_.LoadDataset(site, "study", std::move(local)).ok());
    }
    ASSERT_TRUE(central_.AddWorker("single").ok());
    ASSERT_TRUE(central_.LoadDataset("single", "study", std::move(pooled))
                    .ok());
  }

  FederationSession FedSession() { return *fed_.StartSession({"study"}); }
  FederationSession CentralSession() {
    return *central_.StartSession({"study"});
  }

  MasterNode fed_;
  MasterNode central_;
};

// --- Complete-case gather ----------------------------------------------------

// A row-at-a-time gather, the oracle for GatherData: per row, every numeric
// variable through AsDoubleAt (NaN = missing), every categorical variable
// through IsValid, and the kept rows' categories as ValueAt(r).ToString().
Result<LocalData> RowAtATimeGather(
    federation::WorkerContext& ctx, const std::vector<std::string>& datasets,
    const std::vector<std::string>& numeric_vars,
    const std::vector<std::string>& categorical_vars) {
  LocalData out;
  std::vector<std::vector<double>> numeric_rows;
  out.categorical.resize(categorical_vars.size());
  for (const std::string& ds : datasets) {
    MIP_ASSIGN_OR_RETURN(Table table, ctx.db().GetTable(ds));
    std::vector<const engine::Column*> num_cols;
    for (const std::string& v : numeric_vars) {
      MIP_ASSIGN_OR_RETURN(const engine::Column* c, table.ColumnByName(v));
      num_cols.push_back(c);
    }
    std::vector<const engine::Column*> cat_cols;
    for (const std::string& v : categorical_vars) {
      MIP_ASSIGN_OR_RETURN(const engine::Column* c, table.ColumnByName(v));
      cat_cols.push_back(c);
    }
    for (size_t r = 0; r < table.num_rows(); ++r) {
      bool complete = true;
      std::vector<double> row(num_cols.size());
      for (size_t j = 0; j < num_cols.size() && complete; ++j) {
        row[j] = num_cols[j]->AsDoubleAt(r);
        complete = !std::isnan(row[j]);
      }
      for (size_t j = 0; j < cat_cols.size() && complete; ++j) {
        complete = cat_cols[j]->IsValid(r);
      }
      if (!complete) continue;
      numeric_rows.push_back(std::move(row));
      for (size_t j = 0; j < cat_cols.size(); ++j) {
        out.categorical[j].push_back(cat_cols[j]->ValueAt(r).ToString());
      }
    }
  }
  out.num_rows = numeric_rows.size();
  out.numeric = stats::Matrix(out.num_rows, numeric_vars.size());
  for (size_t r = 0; r < out.num_rows; ++r) {
    for (size_t c = 0; c < numeric_vars.size(); ++c) {
      out.numeric(r, c) = numeric_rows[r][c];
    }
  }
  return out;
}

// One worker hosting two seeded mixed-type datasets with NULLs in every
// column and valid NaNs in the DOUBLE ones, an empty table and a table in
// which no row is complete.
class GatherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto worker = master_.AddWorker("h0");
    ASSERT_TRUE(worker.ok());
    worker_ = *worker;
    Rng rng(77);
    for (const char* name : {"a", "b"}) {
      Table t = Table::Empty(MixedSchema());
      for (int r = 0; r < 300; ++r) {
        auto maybe = [&rng](Value v) {
          return rng.NextDouble() < 0.08 ? Value::Null() : v;
        };
        const double d = rng.NextDouble() < 0.05
                             ? std::nan("")
                             : std::round(rng.NextGaussian(0, 3) * 4) / 4;
        ASSERT_TRUE(
            t.AppendRow({maybe(Value::Double(d)),
                         maybe(Value::Int(static_cast<int64_t>(
                             rng.NextDouble() * 7) - 3)),
                         maybe(Value::Bool(rng.NextDouble() < 0.5)),
                         maybe(Value::String(rng.NextDouble() < 0.5 ? "AD"
                                                                     : "CN")),
                         Value::Double(rng.NextGaussian(5, 1))})
                .ok());
      }
      ASSERT_TRUE(master_.LoadDataset("h0", name, std::move(t)).ok());
    }
    ASSERT_TRUE(
        master_.LoadDataset("h0", "empty", Table::Empty(MixedSchema())).ok());
    Table none = Table::Empty(MixedSchema());
    for (int r = 0; r < 70; ++r) {
      ASSERT_TRUE(none.AppendRow({r % 2 == 0 ? Value::Null()
                                             : Value::Double(std::nan("")),
                                  Value::Int(r), Value::Bool(true),
                                  Value::String("x"), Value::Double(r)})
                      .ok());
    }
    ASSERT_TRUE(master_.LoadDataset("h0", "none", std::move(none)).ok());
  }

  static Schema MixedSchema() {
    Schema schema;
    EXPECT_TRUE(schema.AddField({"d", DataType::kFloat64}).ok());
    EXPECT_TRUE(schema.AddField({"i", DataType::kInt64}).ok());
    EXPECT_TRUE(schema.AddField({"b", DataType::kBool}).ok());
    EXPECT_TRUE(schema.AddField({"s", DataType::kString}).ok());
    EXPECT_TRUE(schema.AddField({"e", DataType::kFloat64}).ok());
    return schema;
  }

  // Gathers with both implementations and requires the same rows, bit for
  // bit, in the same order; returns the number of rows kept.
  size_t ExpectSameGather(const std::vector<std::string>& datasets,
                          const std::vector<std::string>& numeric_vars,
                          const std::vector<std::string>& categorical_vars) {
    federation::WorkerContext ctx(worker_, "job");
    Result<LocalData> got =
        GatherData(ctx, datasets, numeric_vars, categorical_vars);
    Result<LocalData> want =
        RowAtATimeGather(ctx, datasets, numeric_vars, categorical_vars);
    EXPECT_EQ(got.ok(), want.ok());
    if (!got.ok() || !want.ok()) return 0;
    EXPECT_EQ(got->num_rows, want->num_rows);
    EXPECT_EQ(got->numeric.rows(), want->numeric.rows());
    EXPECT_EQ(got->numeric.cols(), want->numeric.cols());
    if (got->numeric.size() == want->numeric.size() &&
        got->numeric.size() > 0) {
      EXPECT_EQ(std::memcmp(got->numeric.data(), want->numeric.data(),
                            got->numeric.size() * sizeof(double)),
                0);
    }
    EXPECT_EQ(got->categorical, want->categorical);
    return got->num_rows;
  }

  MasterNode master_;
  federation::WorkerNode* worker_ = nullptr;
};

TEST_F(GatherTest, MatchesRowAtATimeGatherOverMixedTypes) {
  const std::vector<std::string> two = {"a", "b"};
  // Every numeric type with NULLs and valid NaNs, as numeric variables.
  const size_t kept = ExpectSameGather(two, {"d", "i", "b", "e"}, {});
  EXPECT_GT(kept, 300u);
  EXPECT_LT(kept, 600u);
  // Every type as a categorical variable.
  EXPECT_GT(ExpectSameGather(two, {"e"}, {"s", "i", "b", "d"}), 0u);
  EXPECT_GT(ExpectSameGather(two, {}, {"d"}), 0u);
  EXPECT_GT(ExpectSameGather({"b", "a"}, {"i", "d"}, {"s"}), 0u);
  // A STRING column used as a numeric variable drops every row.
  EXPECT_EQ(ExpectSameGather(two, {"e", "s"}, {"i"}), 0u);
  // No variables: every row is complete.
  EXPECT_EQ(ExpectSameGather(two, {}, {}), 600u);
}

TEST_F(GatherTest, EmptyAndAllIncompleteTablesContributeNoRows) {
  EXPECT_EQ(ExpectSameGather({"empty"}, {"d", "e"}, {"s"}), 0u);
  EXPECT_EQ(ExpectSameGather({"none"}, {"d", "e"}, {"s"}), 0u);
  EXPECT_EQ(ExpectSameGather({"none"}, {"i", "e"}, {"s"}), 70u);
  const size_t a = ExpectSameGather({"a"}, {"d", "i"}, {"b"});
  EXPECT_EQ(ExpectSameGather({"empty", "a", "none"}, {"d", "i"}, {"b"}), a);
  EXPECT_EQ(ExpectSameGather({}, {"d", "i"}, {"b"}), 0u);
}

TEST_F(GatherTest, MissingVariableOrDatasetFailsLikeTheRowGather) {
  federation::WorkerContext ctx(worker_, "job");
  EXPECT_FALSE(GatherData(ctx, {"a"}, {"nope"}, {}).ok());
  EXPECT_FALSE(GatherData(ctx, {"a"}, {"d"}, {"nope"}).ok());
  EXPECT_FALSE(GatherData(ctx, {"a", "nope"}, {"d"}, {}).ok());
  ExpectSameGather({"a"}, {"nope"}, {});
}

// --- Descriptive (E1) --------------------------------------------------------

TEST_F(AlgorithmsFixture, DescriptiveFederatedMatchesPooled) {
  DescriptiveSpec spec;
  spec.datasets = {"study"};
  spec.variables = {"x1", "x2", "y"};
  FederationSession fed = FedSession();
  FederationSession central = CentralSession();
  DescriptiveResult dist = *RunDescriptive(&fed, spec);
  DescriptiveResult pooled = *RunDescriptive(&central, spec);
  ASSERT_EQ(dist.federated.size(), 3u);
  for (size_t v = 0; v < 3; ++v) {
    EXPECT_EQ(dist.federated[v].datapoints, pooled.federated[v].datapoints);
    EXPECT_NEAR(dist.federated[v].mean, pooled.federated[v].mean, 1e-9);
    EXPECT_NEAR(dist.federated[v].se, pooled.federated[v].se, 1e-9);
    EXPECT_NEAR(dist.federated[v].min, pooled.federated[v].min, 1e-9);
    EXPECT_NEAR(dist.federated[v].max, pooled.federated[v].max, 1e-9);
  }
  // Per-dataset rows carry exact quartiles when the dataset lives on one
  // worker (the pooled single-site federation).
  ASSERT_FALSE(pooled.per_dataset.empty());
  for (const auto& row : pooled.per_dataset) {
    EXPECT_LE(row.q1, row.q2);
    EXPECT_LE(row.q2, row.q3);
    EXPECT_GE(row.q1, row.min);
    EXPECT_LE(row.q3, row.max);
  }
  // Multi-worker datasets still merge counts/extrema exactly.
  ASSERT_FALSE(dist.per_dataset.empty());
  for (size_t v = 0; v < 3; ++v) {
    EXPECT_EQ(dist.per_dataset[v].datapoints,
              pooled.per_dataset[v].datapoints);
    EXPECT_NEAR(dist.per_dataset[v].min, pooled.per_dataset[v].min, 1e-9);
  }
}

TEST_F(AlgorithmsFixture, DescriptiveSecureMatchesPlainWithinFixedPoint) {
  DescriptiveSpec plain;
  plain.datasets = {"study"};
  plain.variables = {"x1", "y"};
  DescriptiveSpec secure = plain;
  secure.mode = AggregationMode::kSecure;
  FederationSession s1 = FedSession();
  FederationSession s2 = FedSession();
  DescriptiveResult p = *RunDescriptive(&s1, plain);
  DescriptiveResult s = *RunDescriptive(&s2, secure);
  for (size_t v = 0; v < 2; ++v) {
    EXPECT_EQ(p.federated[v].datapoints, s.federated[v].datapoints);
    EXPECT_NEAR(p.federated[v].mean, s.federated[v].mean, 1e-3);
    EXPECT_NEAR(p.federated[v].min, s.federated[v].min, 1e-3);
    EXPECT_NEAR(p.federated[v].max, s.federated[v].max, 1e-3);
  }
}

// --- Linear regression (E2, Figure 2) ---------------------------------------

TEST_F(AlgorithmsFixture, LinearRegressionRecoversCoefficients) {
  LinearRegressionSpec spec;
  spec.datasets = {"study"};
  spec.covariates = {"x1", "x2"};
  spec.target = "y";
  FederationSession session = FedSession();
  LinearRegressionResult r = *RunLinearRegression(&session, spec);
  ASSERT_EQ(r.coefficients.size(), 3u);
  EXPECT_NEAR(r.coefficients[0].estimate, 3.0, 0.2);   // intercept
  EXPECT_NEAR(r.coefficients[1].estimate, 2.0, 0.1);   // x1
  EXPECT_NEAR(r.coefficients[2].estimate, -1.5, 0.1);  // x2
  EXPECT_GT(r.r_squared, 0.8);
  EXPECT_LT(r.coefficients[1].p_value, 1e-6);
  EXPECT_LT(r.f_p_value, 1e-6);
  EXPECT_EQ(r.n, 3 * kRowsPerSite);
}

TEST_F(AlgorithmsFixture, LinearRegressionFederatedEqualsPooled) {
  LinearRegressionSpec spec;
  spec.datasets = {"study"};
  spec.covariates = {"x1", "x2"};
  spec.target = "y";
  FederationSession fed = FedSession();
  FederationSession central = CentralSession();
  LinearRegressionResult distributed = *RunLinearRegression(&fed, spec);
  LinearRegressionResult pooled = *RunLinearRegression(&central, spec);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(distributed.coefficients[i].estimate,
                pooled.coefficients[i].estimate, 1e-9);
    EXPECT_NEAR(distributed.coefficients[i].std_error,
                pooled.coefficients[i].std_error, 1e-9);
  }
  EXPECT_NEAR(distributed.r_squared, pooled.r_squared, 1e-9);
}

TEST_F(AlgorithmsFixture, LinearRegressionSecureMatchesPlain) {
  LinearRegressionSpec spec;
  spec.datasets = {"study"};
  spec.covariates = {"x1", "x2"};
  spec.target = "y";
  FederationSession s1 = FedSession();
  LinearRegressionResult plain = *RunLinearRegression(&s1, spec);
  spec.mode = AggregationMode::kSecure;
  FederationSession s2 = FedSession();
  LinearRegressionResult secure = *RunLinearRegression(&s2, spec);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(plain.coefficients[i].estimate,
                secure.coefficients[i].estimate, 1e-3);
  }
}

TEST_F(AlgorithmsFixture, LinearRegressionCvReportsReasonableError) {
  LinearRegressionSpec spec;
  spec.datasets = {"study"};
  spec.covariates = {"x1", "x2"};
  spec.target = "y";
  FederationSession session = FedSession();
  LinearRegressionCvResult cv = *RunLinearRegressionCv(&session, spec, 5);
  EXPECT_EQ(cv.folds, 5);
  EXPECT_EQ(cv.rmse_per_fold.size(), 5u);
  // Noise sd is 1.0; held-out RMSE should sit near it.
  EXPECT_NEAR(cv.mean_rmse, 1.0, 0.25);
  EXPECT_LT(cv.mean_mae, cv.mean_rmse);
}

TEST_F(AlgorithmsFixture, LinearRegressionDegenerateErrors) {
  LinearRegressionSpec spec;
  spec.datasets = {"study"};
  spec.covariates = {"x1", "x1"};  // duplicate column -> singular X'X
  spec.target = "y";
  FederationSession session = FedSession();
  EXPECT_FALSE(RunLinearRegression(&session, spec).ok());
}

// --- Logistic regression -----------------------------------------------------

TEST_F(AlgorithmsFixture, LogisticRegressionRecoversSignal) {
  LogisticRegressionSpec spec;
  spec.datasets = {"study"};
  spec.covariates = {"x1", "x2"};
  spec.target = "ybin";
  FederationSession session = FedSession();
  LogisticRegressionResult r = *RunLogisticRegression(&session, spec);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.coefficients[1].estimate, 0.8, 0.3);
  EXPECT_NEAR(r.coefficients[2].estimate, -0.5, 0.3);
  EXPECT_GT(r.accuracy, 0.6);
  EXPECT_GT(r.pseudo_r_squared, 0.05);
  EXPECT_LT(r.log_likelihood, 0.0);
}

TEST_F(AlgorithmsFixture, LogisticRegressionFederatedEqualsPooled) {
  LogisticRegressionSpec spec;
  spec.datasets = {"study"};
  spec.covariates = {"x1", "x2"};
  spec.target = "ybin";
  FederationSession fed = FedSession();
  FederationSession central = CentralSession();
  LogisticRegressionResult a = *RunLogisticRegression(&fed, spec);
  LogisticRegressionResult b = *RunLogisticRegression(&central, spec);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(a.coefficients[i].estimate, b.coefficients[i].estimate, 1e-6);
  }
  EXPECT_NEAR(a.log_likelihood, b.log_likelihood, 1e-6);
}

TEST_F(AlgorithmsFixture, LogisticRegressionWithCategoricalTarget) {
  LogisticRegressionSpec spec;
  spec.datasets = {"study"};
  spec.covariates = {"x1"};
  spec.target = "grp";
  spec.positive_class = "case";
  FederationSession session = FedSession();
  LogisticRegressionResult r = *RunLogisticRegression(&session, spec);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.coefficients[1].estimate, 0.0);  // x1 raises case odds
}

TEST_F(AlgorithmsFixture, LogisticRegressionCv) {
  LogisticRegressionSpec spec;
  spec.datasets = {"study"};
  spec.covariates = {"x1", "x2"};
  spec.target = "ybin";
  FederationSession session = FedSession();
  LogisticRegressionCvResult cv = *RunLogisticRegressionCv(&session, spec, 4);
  EXPECT_EQ(cv.accuracy_per_fold.size(), 4u);
  EXPECT_GT(cv.mean_accuracy, 0.6);
  EXPECT_EQ(cv.true_positive + cv.true_negative + cv.false_positive +
                cv.false_negative,
            3 * kRowsPerSite);
}

// --- k-means (E3) ------------------------------------------------------------

TEST_F(AlgorithmsFixture, KMeansFindsPlantedClusters) {
  // Build a dedicated 2-worker federation with 3 well-separated clusters.
  MasterNode m;
  Rng rng(5150);
  Schema schema;
  ASSERT_TRUE(schema.AddField({"a", DataType::kFloat64}).ok());
  ASSERT_TRUE(schema.AddField({"b", DataType::kFloat64}).ok());
  const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  for (const std::string site : {"w1", "w2"}) {
    ASSERT_TRUE(m.AddWorker(site).ok());
    Table t = Table::Empty(schema);
    for (int i = 0; i < 300; ++i) {
      const int c = static_cast<int>(rng.NextBounded(3));
      ASSERT_TRUE(
          t.AppendRow({Value::Double(centers[c][0] + rng.NextGaussian()),
                       Value::Double(centers[c][1] + rng.NextGaussian())})
              .ok());
    }
    ASSERT_TRUE(m.LoadDataset(site, "pts", std::move(t)).ok());
  }
  KMeansSpec spec;
  spec.datasets = {"pts"};
  spec.variables = {"a", "b"};
  spec.k = 3;
  spec.seed = 99;
  FederationSession session = *m.StartSession({"pts"});
  KMeansResult r = *RunKMeans(&session, spec);
  EXPECT_TRUE(r.converged);
  // Every planted center has a recovered centroid within 1.0.
  for (const auto& center : centers) {
    double best = 1e300;
    for (size_t c = 0; c < r.centroids.rows(); ++c) {
      best = std::min(best, std::hypot(r.centroids(c, 0) - center[0],
                                       r.centroids(c, 1) - center[1]));
    }
    EXPECT_LT(best, 1.0);
  }
  int64_t total = 0;
  for (int64_t n : r.cluster_sizes) total += n;
  EXPECT_EQ(total, 600);
  EXPECT_GT(r.inertia, 0.0);
}

TEST_F(AlgorithmsFixture, KMeansSecureMatchesPlain) {
  KMeansSpec spec;
  spec.datasets = {"study"};
  spec.variables = {"x1", "x2"};
  spec.k = 2;
  spec.seed = 7;
  FederationSession s1 = FedSession();
  KMeansResult plain = *RunKMeans(&s1, spec);
  spec.mode = AggregationMode::kSecure;
  FederationSession s2 = FedSession();
  KMeansResult secure = *RunKMeans(&s2, spec);
  EXPECT_LT(plain.centroids.MaxAbsDiff(secure.centroids), 0.05);
}

// --- PCA ----------------------------------------------------------------------

TEST_F(AlgorithmsFixture, PcaCorrelationEigenvaluesSumToDimension) {
  PcaSpec spec;
  spec.datasets = {"study"};
  spec.variables = {"x1", "x2", "y"};
  FederationSession session = FedSession();
  PcaResult r = *RunPca(&session, spec);
  double total = 0;
  for (double v : r.eigenvalues) total += v;
  EXPECT_NEAR(total, 3.0, 1e-9);  // trace of a correlation matrix
  EXPECT_GE(r.eigenvalues[0], r.eigenvalues[1]);
  double ratio_total = 0;
  for (double v : r.explained_ratio) ratio_total += v;
  EXPECT_NEAR(ratio_total, 1.0, 1e-9);
  // y is driven by x1/x2: the first PC dominates.
  EXPECT_GT(r.explained_ratio[0], 0.4);
}

TEST_F(AlgorithmsFixture, PcaFederatedEqualsPooled) {
  PcaSpec spec;
  spec.datasets = {"study"};
  spec.variables = {"x1", "x2", "y"};
  FederationSession fed = FedSession();
  FederationSession central = CentralSession();
  PcaResult a = *RunPca(&fed, spec);
  PcaResult b = *RunPca(&central, spec);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(a.eigenvalues[i], b.eigenvalues[i], 1e-9);
    EXPECT_NEAR(a.means[i], b.means[i], 1e-9);
  }
}

// --- Pearson ------------------------------------------------------------------

TEST_F(AlgorithmsFixture, PearsonMatchesDirectComputation) {
  PearsonSpec spec;
  spec.datasets = {"study"};
  spec.variables = {"x1", "y", "x2"};
  FederationSession session = FedSession();
  PearsonResult r = *RunPearson(&session, spec);
  // x1 strongly positively correlated with y by construction.
  const double r_x1y = *r.Correlation("x1", "y");
  EXPECT_GT(r_x1y, 0.7);
  const double r_x2y = *r.Correlation("x2", "y");
  EXPECT_LT(r_x2y, -0.3);
  EXPECT_NEAR(*r.Correlation("x1", "x1"), 1.0, 1e-12);
  // Symmetry.
  EXPECT_NEAR(*r.Correlation("y", "x1"), r_x1y, 1e-12);
  EXPECT_LT(r.p_values(0, 1), 1e-10);
  EXPECT_FALSE(r.Correlation("x1", "nope").ok());
}

// --- t-tests ------------------------------------------------------------------

TEST_F(AlgorithmsFixture, TTestOneSample) {
  TTestOneSampleSpec spec;
  spec.datasets = {"study"};
  spec.variable = "x2";  // mean 1 by construction
  spec.mu0 = 1.0;
  FederationSession s1 = FedSession();
  TTestResult at_mean = *RunTTestOneSample(&s1, spec);
  EXPECT_GT(at_mean.p_value, 0.01);  // cannot reject the true mean
  EXPECT_LT(at_mean.ci_low, 0.1);
  EXPECT_GT(at_mean.ci_high, -0.1);

  spec.mu0 = 0.0;
  FederationSession s2 = FedSession();
  TTestResult off_mean = *RunTTestOneSample(&s2, spec);
  EXPECT_LT(off_mean.p_value, 1e-6);  // strongly rejects mu0 = 0
  EXPECT_NEAR(off_mean.mean_difference, 1.0, 0.25);
}

TEST_F(AlgorithmsFixture, TTestIndependentSeparatesGroups) {
  TTestIndependentSpec spec;
  spec.datasets = {"study"};
  spec.variable = "x1";
  spec.group_variable = "grp";
  spec.group_a = "case";
  spec.group_b = "ctl_a";
  FederationSession session = FedSession();
  TTestResult welch = *RunTTestIndependent(&session, spec);
  // Cases have higher x1 by construction of ybin.
  EXPECT_GT(welch.mean_difference, 0.5);
  EXPECT_LT(welch.p_value, 1e-4);
  EXPECT_GT(welch.n1, 50);
  EXPECT_GT(welch.n2, 50);

  spec.pooled = true;
  FederationSession s2 = FedSession();
  TTestResult pooled = *RunTTestIndependent(&s2, spec);
  EXPECT_NEAR(pooled.degrees_of_freedom,
              static_cast<double>(welch.n1 + welch.n2 - 2), 1e-9);
}

TEST_F(AlgorithmsFixture, TTestPaired) {
  TTestPairedSpec spec;
  spec.datasets = {"study"};
  spec.variable_a = "y";
  spec.variable_b = "x1";
  FederationSession session = FedSession();
  TTestResult r = *RunTTestPaired(&session, spec);
  // E[y - x1] = 3 + x1 - 1.5 x2 ... nonzero; just check internal coherence.
  EXPECT_GT(std::fabs(r.t_statistic), 2.0);
  EXPECT_EQ(r.n1, 3 * kRowsPerSite);
  EXPECT_LT(r.ci_low, r.mean_difference);
  EXPECT_GT(r.ci_high, r.mean_difference);
}

// --- ANOVA --------------------------------------------------------------------

TEST_F(AlgorithmsFixture, AnovaOneWayDetectsGroupEffect) {
  AnovaOneWaySpec spec;
  spec.datasets = {"study"};
  spec.outcome = "x1";
  spec.factor = "grp";
  FederationSession session = FedSession();
  AnovaOneWayResult r = *RunAnovaOneWay(&session, spec);
  EXPECT_EQ(r.levels.size(), 3u);
  EXPECT_LT(r.p_value, 1e-4);  // case group differs on x1
  EXPECT_GT(r.f_statistic, 5.0);
  EXPECT_NEAR(r.df_between, 2.0, 1e-12);
}

TEST_F(AlgorithmsFixture, AnovaOneWayFixedLevelsMatchesDiscovered) {
  AnovaOneWaySpec discovered;
  discovered.datasets = {"study"};
  discovered.outcome = "x1";
  discovered.factor = "grp";
  FederationSession s1 = FedSession();
  AnovaOneWayResult a = *RunAnovaOneWay(&s1, discovered);

  AnovaOneWaySpec fixed = discovered;
  fixed.levels = {"case", "ctl_a", "ctl_b"};
  FederationSession s2 = FedSession();
  AnovaOneWayResult b = *RunAnovaOneWay(&s2, fixed);
  EXPECT_NEAR(a.f_statistic, b.f_statistic, 1e-9);

  // Secure mode requires levels.
  AnovaOneWaySpec secure = discovered;
  secure.mode = AggregationMode::kSecure;
  FederationSession s3 = FedSession();
  EXPECT_FALSE(RunAnovaOneWay(&s3, secure).ok());
  secure.levels = fixed.levels;
  FederationSession s4 = FedSession();
  AnovaOneWayResult c = *RunAnovaOneWay(&s4, secure);
  EXPECT_NEAR(c.f_statistic, a.f_statistic, 0.1);
}

TEST(AnovaTwoWayTest, DetectsMainEffectsAndInteraction) {
  MasterNode m;
  Rng rng(31);
  Schema schema;
  ASSERT_TRUE(schema.AddField({"out", DataType::kFloat64}).ok());
  ASSERT_TRUE(schema.AddField({"fa", DataType::kString}).ok());
  ASSERT_TRUE(schema.AddField({"fb", DataType::kString}).ok());
  for (const std::string site : {"w1", "w2"}) {
    ASSERT_TRUE(m.AddWorker(site).ok());
    Table t = Table::Empty(schema);
    for (int i = 0; i < 400; ++i) {
      const bool a = rng.NextDouble() < 0.5;
      const bool b = rng.NextDouble() < 0.5;
      // Effects: A +2, B +1, interaction +3 only when both.
      const double y = (a ? 2 : 0) + (b ? 1 : 0) + (a && b ? 3 : 0) +
                       rng.NextGaussian();
      ASSERT_TRUE(t.AppendRow({Value::Double(y),
                               Value::String(a ? "a1" : "a0"),
                               Value::String(b ? "b1" : "b0")}).ok());
    }
    ASSERT_TRUE(m.LoadDataset(site, "d", std::move(t)).ok());
  }
  AnovaTwoWaySpec spec;
  spec.datasets = {"d"};
  spec.outcome = "out";
  spec.factor_a = "fa";
  spec.factor_b = "fb";
  spec.levels_a = {"a0", "a1"};
  spec.levels_b = {"b0", "b1"};
  federation::FederationSession session = *m.StartSession({"d"});
  AnovaTwoWayResult r = *RunAnovaTwoWay(&session, spec);
  EXPECT_LT(r.effect_a.p_value, 1e-6);
  EXPECT_LT(r.effect_b.p_value, 1e-6);
  EXPECT_LT(r.interaction.p_value, 1e-6);
  EXPECT_GT(r.effect_a.f_statistic, r.effect_b.f_statistic);
}

// --- Naive Bayes --------------------------------------------------------------

TEST_F(AlgorithmsFixture, NaiveBayesLearnsAndPredicts) {
  NaiveBayesSpec spec;
  spec.datasets = {"study"};
  spec.numeric_features = {"x1", "x2"};
  spec.target = "grp";
  FederationSession session = FedSession();
  NaiveBayesModel model = *RunNaiveBayes(&session, spec);
  EXPECT_EQ(model.classes.size(), 3u);
  double prior_total = 0;
  for (double p : model.priors) prior_total += p;
  EXPECT_NEAR(prior_total, 1.0, 1e-9);
  // A very high x1 should look like a "case".
  EXPECT_EQ(*model.Predict({4.0, 1.0}, {}), "case");
}

TEST_F(AlgorithmsFixture, NaiveBayesWithCategoricalFeature) {
  NaiveBayesSpec spec;
  spec.datasets = {"study"};
  spec.numeric_features = {"x1"};
  spec.categorical_features = {"grp"};
  spec.target = "grp";  // degenerate but exercises the counting path
  FederationSession session = FedSession();
  NaiveBayesModel model = *RunNaiveBayes(&session, spec);
  // grp predicts itself perfectly through the categorical likelihood.
  EXPECT_EQ(*model.Predict({0.0}, {"case"}), "case");
  EXPECT_EQ(*model.Predict({0.0}, {"ctl_b"}), "ctl_b");
}

TEST_F(AlgorithmsFixture, NaiveBayesCvAccuracyBeatsChance) {
  NaiveBayesSpec spec;
  spec.datasets = {"study"};
  spec.numeric_features = {"x1", "x2"};
  spec.target = "ybin";  // numeric 0/1 treated as categorical labels
  FederationSession session = FedSession();
  NaiveBayesCvResult cv = *RunNaiveBayesCv(&session, spec, 4);
  EXPECT_EQ(cv.accuracy_per_fold.size(), 4u);
  EXPECT_GT(cv.mean_accuracy, 0.55);
}

// --- Decision trees ------------------------------------------------------------

TEST(Id3Test, LearnsASimpleRule) {
  MasterNode m;
  Rng rng(41);
  Schema schema;
  ASSERT_TRUE(schema.AddField({"color", DataType::kString}).ok());
  ASSERT_TRUE(schema.AddField({"size", DataType::kString}).ok());
  ASSERT_TRUE(schema.AddField({"label", DataType::kString}).ok());
  for (const std::string site : {"w1", "w2"}) {
    ASSERT_TRUE(m.AddWorker(site).ok());
    Table t = Table::Empty(schema);
    for (int i = 0; i < 200; ++i) {
      const bool red = rng.NextDouble() < 0.5;
      const bool big = rng.NextDouble() < 0.5;
      // label = yes iff red (size is irrelevant noise).
      ASSERT_TRUE(t.AppendRow({Value::String(red ? "red" : "blue"),
                               Value::String(big ? "big" : "small"),
                               Value::String(red ? "yes" : "no")}).ok());
    }
    ASSERT_TRUE(m.LoadDataset(site, "d", std::move(t)).ok());
  }
  Id3Spec spec;
  spec.datasets = {"d"};
  spec.features = {"size", "color"};
  spec.target = "label";
  federation::FederationSession session = *m.StartSession({"d"});
  DecisionTreeResult r = std::move(RunId3(&session, spec)).MoveValueUnsafe();
  ASSERT_FALSE(r.root->is_leaf);
  EXPECT_EQ(r.root->split_feature, "color");  // the informative feature
  for (const auto& child : r.root->children) {
    EXPECT_TRUE(child->is_leaf);
    EXPECT_NEAR(child->impurity, 0.0, 1e-9);
  }
}

TEST(CartTest, LearnsAThresholdRule) {
  MasterNode m;
  Rng rng(43);
  Schema schema;
  ASSERT_TRUE(schema.AddField({"v", DataType::kFloat64}).ok());
  ASSERT_TRUE(schema.AddField({"noise", DataType::kFloat64}).ok());
  ASSERT_TRUE(schema.AddField({"label", DataType::kString}).ok());
  for (const std::string site : {"w1", "w2"}) {
    ASSERT_TRUE(m.AddWorker(site).ok());
    Table t = Table::Empty(schema);
    for (int i = 0; i < 300; ++i) {
      const double v = rng.NextUniform(0, 10);
      ASSERT_TRUE(t.AppendRow({Value::Double(v),
                               Value::Double(rng.NextGaussian()),
                               Value::String(v > 5.0 ? "hi" : "lo")}).ok());
    }
    ASSERT_TRUE(m.LoadDataset(site, "d", std::move(t)).ok());
  }
  CartSpec spec;
  spec.datasets = {"d"};
  spec.features = {"noise", "v"};
  spec.target = "label";
  spec.candidate_thresholds = 19;
  federation::FederationSession session = *m.StartSession({"d"});
  DecisionTreeResult r = std::move(RunCart(&session, spec)).MoveValueUnsafe();
  ASSERT_FALSE(r.root->is_leaf);
  EXPECT_EQ(r.root->split_feature, "v");
  EXPECT_NEAR(r.root->threshold, 5.0, 0.6);
  EXPECT_GE(r.nodes, 3);
}

// --- Kaplan-Meier ---------------------------------------------------------------

TEST(KaplanMeierTest, CurveMatchesHandComputedExample) {
  // Classic worked example: times 1,2,3 with events/censorings.
  MasterNode m;
  Schema schema;
  ASSERT_TRUE(schema.AddField({"t", DataType::kFloat64}).ok());
  ASSERT_TRUE(schema.AddField({"e", DataType::kFloat64}).ok());
  ASSERT_TRUE(m.AddWorker("w1").ok());
  ASSERT_TRUE(m.AddWorker("w2").ok());
  // Worker 1: events at t=1 (x2), censor at t=2.
  Table t1 = Table::Empty(schema);
  ASSERT_TRUE(t1.AppendRow({Value::Double(1), Value::Double(1)}).ok());
  ASSERT_TRUE(t1.AppendRow({Value::Double(1), Value::Double(1)}).ok());
  ASSERT_TRUE(t1.AppendRow({Value::Double(2), Value::Double(0)}).ok());
  // Worker 2: event at t=3, censor at t=3.
  Table t2 = Table::Empty(schema);
  ASSERT_TRUE(t2.AppendRow({Value::Double(3), Value::Double(1)}).ok());
  ASSERT_TRUE(t2.AppendRow({Value::Double(3), Value::Double(0)}).ok());
  ASSERT_TRUE(m.LoadDataset("w1", "surv", std::move(t1)).ok());
  ASSERT_TRUE(m.LoadDataset("w2", "surv", std::move(t2)).ok());

  KaplanMeierSpec spec;
  spec.datasets = {"surv"};
  spec.time_variable = "t";
  spec.event_variable = "e";
  federation::FederationSession session = *m.StartSession({"surv"});
  KaplanMeierResult r = *RunKaplanMeier(&session, spec);
  ASSERT_EQ(r.curves.size(), 1u);
  const auto& pts = r.curves[0].points;
  ASSERT_EQ(pts.size(), 3u);
  // t=1: 5 at risk, 2 events -> S = 3/5.
  EXPECT_EQ(pts[0].at_risk, 5);
  EXPECT_NEAR(pts[0].survival, 0.6, 1e-12);
  // t=2: censoring only -> S unchanged.
  EXPECT_NEAR(pts[1].survival, 0.6, 1e-12);
  // t=3: 2 at risk, 1 event -> S = 0.6 * 1/2 = 0.3.
  EXPECT_EQ(pts[2].at_risk, 2);
  EXPECT_NEAR(pts[2].survival, 0.3, 1e-12);
  EXPECT_NEAR(r.curves[0].median_survival_time, 3.0, 1e-12);
  // CI sanity.
  for (const auto& p : pts) {
    EXPECT_LE(p.ci_low, p.survival + 1e-12);
    EXPECT_GE(p.ci_high, p.survival - 1e-12);
  }
}

TEST(KaplanMeierTest, GroupedCurvesSeparateByHazard) {
  MasterNode m;
  ASSERT_TRUE(data::SetupAlzheimerFederation(&m).ok());
  KaplanMeierSpec spec;
  spec.datasets = {"edsd_brescia", "edsd_lausanne", "edsd_lille", "adni"};
  spec.time_variable = "followup_months";
  spec.event_variable = "event";
  spec.group_variable = "diagnosis";
  federation::FederationSession session = *m.StartSession(spec.datasets);
  KaplanMeierResult r = *RunKaplanMeier(&session, spec);
  ASSERT_EQ(r.curves.size(), 3u);  // CN, MCI, AD
  std::map<std::string, double> survival_at_end;
  for (const auto& curve : r.curves) {
    survival_at_end[curve.group] = curve.points.back().survival;
  }
  // Higher severity -> lower survival (generator hazard rises with dx).
  EXPECT_GT(survival_at_end["CN"], survival_at_end["MCI"]);
  EXPECT_GT(survival_at_end["MCI"], survival_at_end["AD"]);
  // The hazard difference is large; the log-rank test must scream.
  EXPECT_GT(r.log_rank_chi2, 100.0);
  EXPECT_NEAR(r.log_rank_df, 2.0, 1e-12);
  EXPECT_LT(r.log_rank_p, 1e-10);
}

TEST(KaplanMeierTest, LogRankAcceptsEqualHazards) {
  // Two groups drawn from the SAME survival distribution: the log-rank
  // p-value should not reject at any aggressive level.
  MasterNode m;
  Rng rng(2026);
  Schema schema;
  ASSERT_TRUE(schema.AddField({"t", DataType::kFloat64}).ok());
  ASSERT_TRUE(schema.AddField({"e", DataType::kFloat64}).ok());
  ASSERT_TRUE(schema.AddField({"g", DataType::kString}).ok());
  ASSERT_TRUE(m.AddWorker("w").ok());
  Table t = Table::Empty(schema);
  for (int i = 0; i < 2000; ++i) {
    const double time = rng.NextExponential(0.05);
    const bool event = time <= 40.0;
    ASSERT_TRUE(t.AppendRow({Value::Double(std::min(time, 40.0)),
                             Value::Double(event ? 1.0 : 0.0),
                             Value::String(i % 2 == 0 ? "a" : "b")}).ok());
  }
  ASSERT_TRUE(m.LoadDataset("w", "surv", std::move(t)).ok());
  KaplanMeierSpec spec;
  spec.datasets = {"surv"};
  spec.time_variable = "t";
  spec.event_variable = "e";
  spec.group_variable = "g";
  federation::FederationSession session = *m.StartSession({"surv"});
  KaplanMeierResult r = *RunKaplanMeier(&session, spec);
  EXPECT_GT(r.log_rank_p, 0.001);
}

// --- Calibration belt -----------------------------------------------------------

TEST(CalibrationBeltTest, WellCalibratedModelCoversDiagonal) {
  MasterNode m;
  ASSERT_TRUE(m.AddWorker("w1").ok());
  ASSERT_TRUE(m.AddWorker("w2").ok());
  ASSERT_TRUE(m.LoadDataset("w1", "risk",
                            *data::GenerateRiskCohort(2500, 1, 0.0)).ok());
  ASSERT_TRUE(m.LoadDataset("w2", "risk",
                            *data::GenerateRiskCohort(2500, 2, 0.0)).ok());
  CalibrationBeltSpec spec;
  spec.datasets = {"risk"};
  spec.probability_variable = "predicted_prob";
  spec.outcome_variable = "outcome";
  federation::FederationSession session = *m.StartSession({"risk"});
  CalibrationBeltResult r = *RunCalibrationBelt(&session, spec);
  EXPECT_TRUE(r.covers_diagonal_95);
  EXPECT_EQ(r.n, 5000);
  ASSERT_FALSE(r.belt.empty());
  for (const auto& p : r.belt) {
    EXPECT_LE(p.ci95_low, p.ci80_low + 1e-12);
    EXPECT_GE(p.ci95_high, p.ci80_high - 1e-12);
  }
}

TEST(CalibrationBeltTest, MiscalibratedModelIsFlagged) {
  MasterNode m;
  ASSERT_TRUE(m.AddWorker("w1").ok());
  ASSERT_TRUE(m.LoadDataset("w1", "risk",
                            *data::GenerateRiskCohort(4000, 3, 0.8)).ok());
  CalibrationBeltSpec spec;
  spec.datasets = {"risk"};
  spec.probability_variable = "predicted_prob";
  spec.outcome_variable = "outcome";
  federation::FederationSession session = *m.StartSession({"risk"});
  CalibrationBeltResult r = *RunCalibrationBelt(&session, spec);
  EXPECT_FALSE(r.covers_diagonal_95);
}

}  // namespace
}  // namespace mip::algorithms
