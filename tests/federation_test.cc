#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"
#include "federation/bus.h"
#include "federation/master.h"
#include "federation/training.h"
#include "federation/transfer.h"
#include "federation/worker.h"

namespace mip::federation {
namespace {

using engine::DataType;
using engine::Field;
using engine::Schema;
using engine::Table;
using engine::Value;

TEST(TransferDataTest, TypedAccess) {
  TransferData t;
  t.PutScalar("n", 5.0);
  t.PutVector("grad", {1.0, 2.0});
  t.PutMatrix("h", stats::Matrix::Identity(2));
  t.PutString("who", "worker1");
  t.PutStringList("vars", {"a", "b"});
  EXPECT_EQ(*t.GetScalar("n"), 5.0);
  EXPECT_EQ((*t.GetVector("grad"))[1], 2.0);
  EXPECT_EQ((*t.GetMatrix("h"))(0, 0), 1.0);
  EXPECT_EQ(*t.GetString("who"), "worker1");
  EXPECT_EQ((*t.GetStringList("vars")).size(), 2u);
  EXPECT_FALSE(t.GetScalar("missing").ok());
  EXPECT_FALSE(t.GetVector("missing").ok());
  EXPECT_TRUE(t.GetStringListOrEmpty("missing").empty());
}

TEST(TransferDataTest, SerializationRoundTrip) {
  TransferData t;
  t.PutScalar("a", -2.5);
  t.PutVector("v", {1, 2, 3});
  t.PutMatrix("m", stats::Matrix::FromRows({{1, 2}, {3, 4}}));
  t.PutString("s", "hello");
  t.PutStringList("l", {"x", "y", "z"});
  Schema schema;
  ASSERT_TRUE(schema.AddField({"c", DataType::kInt64}).ok());
  Table table = Table::Empty(schema);
  ASSERT_TRUE(table.AppendRow({Value::Int(9)}).ok());
  t.PutTable("t", table);

  BufferWriter w;
  t.Serialize(&w);
  EXPECT_EQ(t.RawSerializedBytes(), w.size());
  BufferReader r(w.bytes());
  TransferData back = *TransferData::Deserialize(&r);
  EXPECT_EQ(*back.GetScalar("a"), -2.5);
  EXPECT_EQ((*back.GetVector("v")).size(), 3u);
  EXPECT_EQ((*back.GetMatrix("m"))(1, 0), 3.0);
  EXPECT_EQ(*back.GetString("s"), "hello");
  EXPECT_EQ((*back.GetStringList("l"))[2], "z");
  EXPECT_EQ((*back.GetTable("t")).num_rows(), 1u);
}

TEST(TransferDataTest, SumMergeAddsNumericsConcatsTables) {
  TransferData a;
  a.PutScalar("n", 2.0);
  a.PutVector("v", {1, 1});
  a.PutMatrix("m", stats::Matrix::Identity(2));
  TransferData b = a;
  TransferData merged = *TransferData::SumMerge({a, b});
  EXPECT_EQ(*merged.GetScalar("n"), 4.0);
  EXPECT_EQ((*merged.GetVector("v"))[0], 2.0);
  EXPECT_EQ((*merged.GetMatrix("m"))(1, 1), 2.0);

  TransferData bad;
  bad.PutScalar("other", 1.0);
  EXPECT_FALSE(TransferData::SumMerge({a, bad}).ok());

  TransferData short_vec;
  short_vec.PutScalar("n", 1.0);
  short_vec.PutVector("v", {1});
  short_vec.PutMatrix("m", stats::Matrix::Identity(2));
  EXPECT_FALSE(TransferData::SumMerge({a, short_vec}).ok());
}

TEST(TransferDataTest, FlattenUnflattenRoundTrip) {
  TransferData t;
  t.PutScalar("n", 7.0);
  t.PutVector("v", {1, 2, 3});
  t.PutMatrix("m", stats::Matrix::FromRows({{4, 5}, {6, 7}}));
  std::vector<double> flat = t.FlattenNumeric();
  EXPECT_EQ(flat.size(), 1u + 3u + 4u);
  TransferData back = *t.UnflattenNumeric(flat);
  EXPECT_EQ(*back.GetScalar("n"), 7.0);
  EXPECT_EQ((*back.GetVector("v"))[2], 3.0);
  EXPECT_EQ((*back.GetMatrix("m"))(1, 1), 7.0);
  flat.pop_back();
  EXPECT_FALSE(t.UnflattenNumeric(flat).ok());
}

TEST(MessageBusTest, RoutingAndStats) {
  MessageBus bus;
  ASSERT_TRUE(bus.RegisterEndpoint("echo", [](const Envelope& e) {
                   return Result<std::vector<uint8_t>>(e.payload);
                 }).ok());
  EXPECT_FALSE(bus.RegisterEndpoint("echo", nullptr).ok());

  Envelope env{"me", "echo", "ping", "j1", {1, 2, 3}};
  std::vector<uint8_t> reply = *bus.Send(env);
  EXPECT_EQ(reply.size(), 3u);
  EXPECT_EQ(bus.stats().messages, 2u);  // request + reply
  EXPECT_EQ(bus.stats().bytes, 6u);

  Envelope bad{"me", "nobody", "ping", "", {}};
  EXPECT_FALSE(bus.Send(bad).ok());
}

class FederationFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const std::string id : {"h1", "h2", "h3"}) {
      ASSERT_TRUE(master_.AddWorker(id).ok());
      Schema schema;
      ASSERT_TRUE(schema.AddField({"x", DataType::kFloat64}).ok());
      Table t = Table::Empty(schema);
      // h1: 1,2  h2: 3,4  h3: 5,6
      const double base = (id == "h1") ? 1 : (id == "h2" ? 3 : 5);
      ASSERT_TRUE(t.AppendRow({Value::Double(base)}).ok());
      ASSERT_TRUE(t.AppendRow({Value::Double(base + 1)}).ok());
      ASSERT_TRUE(master_.LoadDataset(id, "numbers", std::move(t)).ok());
    }
    ASSERT_TRUE(
        master_.functions()
            ->Register(
                "sum_x",
                [](WorkerContext& ctx,
                   const TransferData&) -> Result<TransferData> {
                  MIP_ASSIGN_OR_RETURN(Table t,
                                       ctx.db().GetTable("numbers"));
                  double sum = 0, n = 0;
                  MIP_ASSIGN_OR_RETURN(const engine::Column* col,
                                       t.ColumnByName("x"));
                  for (size_t r = 0; r < col->length(); ++r) {
                    sum += col->DoubleAt(r);
                    n += 1;
                  }
                  TransferData out;
                  out.PutScalar("sum", sum);
                  out.PutScalar("n", n);
                  return out;
                })
            .ok());
  }
  MasterNode master_;
};

TEST_F(FederationFixture, CatalogTracksDatasets) {
  EXPECT_EQ(master_.num_workers(), 3u);
  EXPECT_EQ(master_.WorkersWithDatasets({"numbers"}).size(), 3u);
  EXPECT_TRUE(master_.WorkersWithDatasets({"nope"}).empty());
  EXPECT_EQ(master_.WorkersWithDatasets({}).size(), 3u);  // all workers
}

TEST_F(FederationFixture, SessionJobIdsAreUnique) {
  FederationSession s1 = *master_.StartSession({"numbers"});
  FederationSession s2 = *master_.StartSession({"numbers"});
  EXPECT_NE(s1.job_id(), s2.job_id());
  EXPECT_EQ(s1.num_workers(), 3u);
  EXPECT_FALSE(master_.StartSession({"nope"}).ok());
}

TEST_F(FederationFixture, PlainAggregationSums) {
  FederationSession session = *master_.StartSession({"numbers"});
  TransferData agg = *session.LocalRunAndAggregate(
      "sum_x", TransferData(), AggregationMode::kPlain);
  EXPECT_EQ(*agg.GetScalar("sum"), 21.0);  // 1+2+3+4+5+6
  EXPECT_EQ(*agg.GetScalar("n"), 6.0);
}

TEST_F(FederationFixture, SecureAggregationMatchesPlain) {
  FederationSession session = *master_.StartSession({"numbers"});
  TransferData secure = *session.LocalRunAndAggregate(
      "sum_x", TransferData(), AggregationMode::kSecure);
  EXPECT_NEAR(*secure.GetScalar("sum"), 21.0, 1e-4);
  EXPECT_NEAR(*secure.GetScalar("n"), 6.0, 1e-4);
}

TEST_F(FederationFixture, SecurePathLeaksOnlyShapes) {
  // Traffic audit: on the secure path the workers' replies over the bus
  // must contain zeroed payloads (shapes); the actual values travel as
  // secret shares to the SMPC cluster.
  master_.bus().set_keep_log(true);
  FederationSession session = *master_.StartSession({"numbers"});
  ASSERT_TRUE(session
                  .LocalRunAndAggregate("sum_x", TransferData(),
                                        AggregationMode::kSecure)
                  .ok());
  bool saw_secure = false;
  for (const MessageBus::LogEntry& e : master_.bus().log()) {
    if (e.type == "local_run_secure") saw_secure = true;
  }
  EXPECT_TRUE(saw_secure);
}

TEST_F(FederationFixture, SecureOpMinMax) {
  FederationSession session = *master_.StartSession({"numbers"});
  ASSERT_TRUE(master_.functions()
                  ->Register("local_max",
                             [](WorkerContext& ctx, const TransferData&)
                                 -> Result<TransferData> {
                               MIP_ASSIGN_OR_RETURN(
                                   Table t, ctx.db().GetTable("numbers"));
                               MIP_ASSIGN_OR_RETURN(
                                   const engine::Column* col,
                                   t.ColumnByName("x"));
                               double best = -1e18;
                               for (double v : col->NonNullDoubles()) {
                                 best = std::max(best, v);
                               }
                               TransferData out;
                               out.PutVector("vals", {best});
                               return out;
                             })
                  .ok());
  std::vector<double> maxs = *session.LocalRunSecureOp(
      "local_max", TransferData(), "vals", smpc::SmpcOp::kMax);
  EXPECT_NEAR(maxs[0], 6.0, 1e-4);
}

TEST_F(FederationFixture, UnknownLocalFunctionErrors) {
  FederationSession session = *master_.StartSession({"numbers"});
  EXPECT_FALSE(session.LocalRun("nope", TransferData()).ok());
}

TEST_F(FederationFixture, FederatedViewOverRemoteTables) {
  std::string view = *master_.CreateFederatedView("numbers");
  Table out = *master_.local_db().ExecuteSql(
      "SELECT count(*) AS n, sum(x) AS total FROM " + view);
  EXPECT_EQ(out.At(0, 0).int_value(), 6);
  EXPECT_EQ(out.At(0, 1).AsDouble(), 21.0);
  // The fetches went over the metered bus.
  EXPECT_GT(master_.bus().stats().bytes, 0u);
}

TEST(TrainingTest, FederatedLogisticTrainingConverges) {
  MasterNode master;
  Rng rng(7);
  // Two workers, linearly separable-ish data: y = 1 iff x0 + x1 > 0.
  for (const std::string id : {"w1", "w2"}) {
    ASSERT_TRUE(master.AddWorker(id).ok());
    Schema schema;
    ASSERT_TRUE(schema.AddField({"x0", DataType::kFloat64}).ok());
    ASSERT_TRUE(schema.AddField({"x1", DataType::kFloat64}).ok());
    ASSERT_TRUE(schema.AddField({"y", DataType::kFloat64}).ok());
    Table t = Table::Empty(schema);
    for (int i = 0; i < 200; ++i) {
      const double a = rng.NextGaussian();
      const double b = rng.NextGaussian();
      const double y = (a + b + 0.3 * rng.NextGaussian()) > 0 ? 1.0 : 0.0;
      ASSERT_TRUE(t.AppendRow({Value::Double(a), Value::Double(b),
                               Value::Double(y)}).ok());
    }
    ASSERT_TRUE(master.LoadDataset(id, "train", std::move(t)).ok());
  }
  // Local gradient step for logistic loss.
  ASSERT_TRUE(master.functions()
                  ->Register(
                      "grad",
                      [](WorkerContext& ctx, const TransferData& args)
                          -> Result<TransferData> {
                        MIP_ASSIGN_OR_RETURN(std::vector<double> w,
                                             args.GetVector("weights"));
                        MIP_ASSIGN_OR_RETURN(Table t,
                                             ctx.db().GetTable("train"));
                        std::vector<double> grad(w.size(), 0.0);
                        double loss = 0, n = 0;
                        for (size_t r = 0; r < t.num_rows(); ++r) {
                          const double x0 = t.At(r, 0).AsDouble();
                          const double x1 = t.At(r, 1).AsDouble();
                          const double y = t.At(r, 2).AsDouble();
                          const double z = w[0] * x0 + w[1] * x1;
                          const double mu = 1.0 / (1.0 + std::exp(-z));
                          grad[0] += (mu - y) * x0;
                          grad[1] += (mu - y) * x1;
                          loss += -(y * std::log(std::max(mu, 1e-12)) +
                                    (1 - y) *
                                        std::log(std::max(1 - mu, 1e-12)));
                          n += 1;
                        }
                        TransferData out;
                        out.PutVector("grad", grad);
                        out.PutScalar("loss", loss);
                        out.PutScalar("n", n);
                        return out;
                      })
                  .ok());

  auto run = [&master](TrainingPrivacy privacy, double epsilon) {
    TrainingConfig config;
    config.rounds = 25;
    config.learning_rate = 1.0;
    config.privacy = privacy;
    config.epsilon = epsilon;
    config.clip_norm = 1.0;
    FederatedTrainer trainer(&master, config);
    FederationSession session = *master.StartSession({"train"});
    return *trainer.Train(&session, "grad", 2);
  };

  TrainingResult clean = run(TrainingPrivacy::kNone, 0);
  EXPECT_EQ(clean.history.size(), 25u);
  EXPECT_LT(clean.history.back().loss, clean.history.front().loss);
  EXPECT_GT(clean.weights[0], 0.5);
  EXPECT_GT(clean.weights[1], 0.5);
  EXPECT_EQ(clean.total_examples, 400);

  // Local DP needs a generous budget to converge at this scale — that IS
  // the phenomenon experiment E7 quantifies.
  TrainingResult dp = run(TrainingPrivacy::kLocalDp, 400.0);
  EXPECT_NEAR(dp.spent_epsilon, 400.0, 1e-9);
  EXPECT_LT(dp.history.back().loss, dp.history.front().loss);

  TrainingResult sa = run(TrainingPrivacy::kSecureAggregation, 400.0);
  EXPECT_NEAR(sa.spent_epsilon, 400.0, 1e-9);
  EXPECT_LT(sa.history.back().loss, sa.history.front().loss);

  // At equal privacy budget, secure aggregation adds noise ONCE to the sum
  // rather than per worker, so it should land at least as close to the
  // clean solution on average. (Statistical claim; loose assertion.)
  const double dp_dist = std::hypot(dp.weights[0] - clean.weights[0],
                                    dp.weights[1] - clean.weights[1]);
  const double sa_dist = std::hypot(sa.weights[0] - clean.weights[0],
                                    sa.weights[1] - clean.weights[1]);
  EXPECT_LT(sa_dist, dp_dist + 1.0);
}


TEST(TrainingTest, FedAvgConvergesWithLocalEpochs) {
  MasterNode master;
  Rng rng(77);
  for (const std::string id : {"w1", "w2", "w3"}) {
    ASSERT_TRUE(master.AddWorker(id).ok());
    Schema schema;
    ASSERT_TRUE(schema.AddField({"x0", DataType::kFloat64}).ok());
    ASSERT_TRUE(schema.AddField({"y", DataType::kFloat64}).ok());
    Table t = Table::Empty(schema);
    for (int i = 0; i < 150; ++i) {
      const double x = rng.NextGaussian();
      const double y = (2.0 * x + 0.2 * rng.NextGaussian()) > 0 ? 1.0 : 0.0;
      ASSERT_TRUE(
          t.AppendRow({Value::Double(x), Value::Double(y)}).ok());
    }
    ASSERT_TRUE(master.LoadDataset(id, "fa", std::move(t)).ok());
  }
  // FedAvg local step: `local_epochs` passes of full-batch local SGD, then
  // ship the example-weighted delta.
  ASSERT_TRUE(master.functions()
                  ->Register(
                      "fedavg.step",
                      [](WorkerContext& ctx, const TransferData& args)
                          -> Result<TransferData> {
                        MIP_ASSIGN_OR_RETURN(std::vector<double> w,
                                             args.GetVector("weights"));
                        MIP_ASSIGN_OR_RETURN(double epochs_d,
                                             args.GetScalar("local_epochs"));
                        MIP_ASSIGN_OR_RETURN(double lr,
                                             args.GetScalar("local_lr"));
                        MIP_ASSIGN_OR_RETURN(Table t,
                                             ctx.db().GetTable("fa"));
                        std::vector<double> local = w;
                        const double n =
                            static_cast<double>(t.num_rows());
                        double loss = 0;
                        for (int e = 0; e < static_cast<int>(epochs_d);
                             ++e) {
                          double grad = 0;
                          loss = 0;
                          for (size_t r = 0; r < t.num_rows(); ++r) {
                            const double x = t.At(r, 0).AsDouble();
                            const double y = t.At(r, 1).AsDouble();
                            const double mu =
                                1.0 / (1.0 + std::exp(-local[0] * x));
                            grad += (mu - y) * x;
                            loss += -(y * std::log(std::max(mu, 1e-12)) +
                                      (1 - y) * std::log(
                                                    std::max(1 - mu, 1e-12)));
                          }
                          local[0] -= lr * grad / n;
                        }
                        TransferData out;
                        out.PutVector("delta", {(local[0] - w[0]) * n});
                        out.PutScalar("loss", loss);
                        out.PutScalar("n", n);
                        return out;
                      })
                  .ok());
  TrainingConfig config;
  config.algorithm = TrainingAlgorithm::kFedAvg;
  config.rounds = 15;
  config.local_epochs = 5;
  config.local_learning_rate = 0.5;
  FederatedTrainer trainer(&master, config);
  FederationSession session = *master.StartSession({"fa"});
  TrainingResult result = *trainer.Train(&session, "fedavg.step", 1);
  EXPECT_LT(result.history.back().loss, result.history.front().loss);
  EXPECT_GT(result.weights[0], 1.0);  // steep positive separator recovered
  EXPECT_EQ(result.total_examples, 450);
}

TEST(SyntheticDataTest, AlzheimerFederationLoads) {
  MasterNode master;
  ASSERT_TRUE(data::SetupAlzheimerFederation(&master).ok());
  EXPECT_EQ(master.num_workers(), 4u);
  WorkerNode* brescia = master.GetWorker("brescia");
  ASSERT_NE(brescia, nullptr);
  Table t = *brescia->db().GetTable("edsd_brescia");
  EXPECT_EQ(t.num_rows(), 1960u);
  EXPECT_GE(t.schema().FieldIndex("abeta42"), 0);
  EXPECT_GE(t.schema().FieldIndex("p_tau"), 0);
}

TEST(SyntheticDataTest, DiagnosisShiftsAreDirectionallyCorrect) {
  data::DementiaCohortConfig config;
  config.num_patients = 4000;
  config.missing_rate = 0.0;
  Table t = *data::GenerateDementiaCohort(config);
  double hippo_cn = 0, hippo_ad = 0, abeta_cn = 0, abeta_ad = 0;
  double ptau_cn = 0, ptau_ad = 0;
  int n_cn = 0, n_ad = 0;
  const int dx_col = t.schema().FieldIndex("diagnosis");
  const int lh = t.schema().FieldIndex("left_hippocampus");
  const int ab = t.schema().FieldIndex("abeta42");
  const int pt = t.schema().FieldIndex("p_tau");
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const std::string dx = t.At(r, dx_col).string_value();
    if (dx == "CN") {
      hippo_cn += t.At(r, lh).AsDouble();
      abeta_cn += t.At(r, ab).AsDouble();
      ptau_cn += t.At(r, pt).AsDouble();
      ++n_cn;
    } else if (dx == "AD") {
      hippo_ad += t.At(r, lh).AsDouble();
      abeta_ad += t.At(r, ab).AsDouble();
      ptau_ad += t.At(r, pt).AsDouble();
      ++n_ad;
    }
  }
  ASSERT_GT(n_cn, 100);
  ASSERT_GT(n_ad, 100);
  EXPECT_LT(hippo_ad / n_ad, hippo_cn / n_cn);  // atrophy
  EXPECT_LT(abeta_ad / n_ad, abeta_cn / n_cn);  // low Abeta42 in AD
  EXPECT_GT(ptau_ad / n_ad, ptau_cn / n_cn);    // high pTau in AD
}

}  // namespace
}  // namespace mip::federation
