#include <gtest/gtest.h>

#include <cmath>

#include "common/bytes.h"
#include "common/rng.h"
#include "engine/encoding.h"
#include "smpc/cluster.h"
#include "smpc/field.h"
#include "smpc/fixed_point.h"
#include "smpc/noise.h"
#include "smpc/shamir.h"
#include "smpc/spdz.h"
#include "smpc/wire.h"

namespace mip::smpc {
namespace {

// --- Field arithmetic -------------------------------------------------------

TEST(FieldTest, BasicIdentities) {
  EXPECT_EQ(Field::Add(Field::kPrime - 1, 1), 0u);
  EXPECT_EQ(Field::Sub(0, 1), Field::kPrime - 1);
  EXPECT_EQ(Field::Neg(0), 0u);
  EXPECT_EQ(Field::Add(5, Field::Neg(5)), 0u);
  EXPECT_EQ(Field::Mul(0, 12345), 0u);
  EXPECT_EQ(Field::Mul(1, 12345), 12345u);
  EXPECT_EQ(Field::Reduce(Field::kPrime), 0u);
}

TEST(FieldTest, PowAndFermat) {
  // 2^61 ≡ 1 (mod 2^61 - 1).
  EXPECT_EQ(Field::Pow(2, 61), 1u);
  // Fermat: a^(p-1) = 1 for a != 0.
  EXPECT_EQ(Field::Pow(123456789, Field::kPrime - 1), 1u);
}

class FieldProperty : public ::testing::TestWithParam<int> {};

TEST_P(FieldProperty, RingAxiomsOnRandomElements) {
  Rng rng(777 + GetParam());
  const uint64_t a = Field::Random(&rng);
  const uint64_t b = Field::Random(&rng);
  const uint64_t c = Field::Random(&rng);
  // Commutativity / associativity / distributivity.
  EXPECT_EQ(Field::Add(a, b), Field::Add(b, a));
  EXPECT_EQ(Field::Mul(a, b), Field::Mul(b, a));
  EXPECT_EQ(Field::Add(Field::Add(a, b), c), Field::Add(a, Field::Add(b, c)));
  EXPECT_EQ(Field::Mul(Field::Mul(a, b), c), Field::Mul(a, Field::Mul(b, c)));
  EXPECT_EQ(Field::Mul(a, Field::Add(b, c)),
            Field::Add(Field::Mul(a, b), Field::Mul(a, c)));
  // Subtraction inverts addition.
  EXPECT_EQ(Field::Sub(Field::Add(a, b), b), a);
  // Inverse (a != 0 with overwhelming probability).
  if (a != 0) {
    EXPECT_EQ(Field::Mul(a, Field::Inv(a)), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FieldProperty, ::testing::Range(0, 25));

// --- Fixed point -------------------------------------------------------------

TEST(FixedPointTest, RoundTripValues) {
  FixedPointCodec codec(20);
  for (double x : {0.0, 1.0, -1.0, 3.14159, -2718.28, 1e6, -1e6, 0.0000123}) {
    const double back = codec.Decode(*codec.Encode(x));
    EXPECT_NEAR(back, x, 1.0 / codec.scale() + std::fabs(x) * 1e-12) << x;
  }
}

TEST(FixedPointTest, RejectsOverflowAndNonFinite) {
  FixedPointCodec codec(20);
  EXPECT_FALSE(codec.Encode(codec.MaxMagnitude() * 2).ok());
  EXPECT_FALSE(codec.Encode(std::nan("")).ok());
  EXPECT_FALSE(codec.Encode(INFINITY).ok());
  EXPECT_TRUE(codec.Encode(codec.MaxMagnitude() * 0.5).ok());
}

TEST(FixedPointTest, AdditiveHomomorphism) {
  FixedPointCodec codec(16);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.NextUniform(-1000, 1000);
    const double y = rng.NextUniform(-1000, 1000);
    const uint64_t ex = *codec.Encode(x);
    const uint64_t ey = *codec.Encode(y);
    EXPECT_NEAR(codec.Decode(Field::Add(ex, ey)), x + y,
                2.0 / codec.scale());
  }
}

TEST(FixedPointTest, ProductScale) {
  FixedPointCodec codec(16);
  const double x = 12.5, y = -3.25;
  const uint64_t prod = Field::Mul(*codec.Encode(x), *codec.Encode(y));
  EXPECT_NEAR(codec.Decode(prod, 2), x * y, 1e-3);
}

// --- SPDZ --------------------------------------------------------------------

TEST(SpdzTest, ShareAndOpen) {
  SpdzDealer dealer(3, 42);
  const uint64_t secret = 123456789;
  std::vector<SpdzShare> shares = dealer.ShareValue(secret);
  EXPECT_EQ(*Spdz::Open(shares, dealer.alpha_shares()), secret);
}

TEST(SpdzTest, SharesLookRandom) {
  SpdzDealer dealer(3, 42);
  std::vector<SpdzShare> s1 = dealer.ShareValue(5);
  std::vector<SpdzShare> s2 = dealer.ShareValue(5);
  // Two sharings of the same secret must differ (fresh randomness).
  EXPECT_NE(s1[0].value, s2[0].value);
}

TEST(SpdzTest, TamperedValueAborts) {
  SpdzDealer dealer(3, 42);
  std::vector<SpdzShare> shares = dealer.ShareValue(999);
  shares[1].value = Field::Add(shares[1].value, 1);  // malicious node
  Result<uint64_t> opened = Spdz::Open(shares, dealer.alpha_shares());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kSecurityError);
}

TEST(SpdzTest, TamperedMacAborts) {
  SpdzDealer dealer(4, 43);
  std::vector<SpdzShare> shares = dealer.ShareValue(7);
  shares[0].mac = Field::Add(shares[0].mac, 5);
  EXPECT_FALSE(Spdz::Open(shares, dealer.alpha_shares()).ok());
}

TEST(SpdzTest, LinearOpsPreserveMacs) {
  SpdzDealer dealer(3, 44);
  std::vector<SpdzShare> x = dealer.ShareValue(100);
  std::vector<SpdzShare> y = dealer.ShareValue(23);
  std::vector<SpdzShare> z(3);
  for (int p = 0; p < 3; ++p) {
    z[p] = Spdz::Add(x[p], y[p]);
    z[p] = Spdz::MulPublic(z[p], 3);
    z[p] = Spdz::AddPublic(z[p], 10, p, dealer.alpha_shares()[p]);
    z[p] = Spdz::Sub(z[p], y[p]);
  }
  // (100 + 23) * 3 + 10 - 23 = 356.
  EXPECT_EQ(*Spdz::Open(z, dealer.alpha_shares()), 356u);
}

TEST(SpdzTest, BeaverMultiplication) {
  SpdzDealer dealer(3, 45);
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const uint64_t a = rng.NextBounded(1u << 30);
    const uint64_t b = rng.NextBounded(1u << 30);
    std::vector<SpdzShare> xs = dealer.ShareValue(a);
    std::vector<SpdzShare> ys = dealer.ShareValue(b);
    std::vector<SpdzShare> zs =
        *Spdz::Multiply(xs, ys, dealer.MakeTriple(), dealer.alpha_shares());
    EXPECT_EQ(*Spdz::Open(zs, dealer.alpha_shares()), Field::Mul(a, b));
  }
}

TEST(SpdzTest, TriplePoolOfflineOnlineAccounting) {
  SpdzDealer dealer(3, 46);
  dealer.PrecomputeTriples(5);
  EXPECT_EQ(dealer.pool_size(), 5u);
  for (int i = 0; i < 7; ++i) dealer.TakeTriple();
  EXPECT_EQ(dealer.pool_size(), 0u);
  EXPECT_EQ(dealer.triples_precomputed(), 5u);
  EXPECT_EQ(dealer.triples_generated_online(), 2u);
}

// --- Shamir ------------------------------------------------------------------

TEST(ShamirTest, ReconstructFromAllParties) {
  ShamirScheme scheme(1, 4);
  Rng rng(12);
  const uint64_t secret = 987654321;
  std::vector<uint64_t> shares = scheme.Share(secret, &rng);
  std::vector<std::vector<uint64_t>> vecs(4, std::vector<uint64_t>(1));
  for (int p = 0; p < 4; ++p) vecs[p][0] = shares[p];
  EXPECT_EQ((*scheme.ReconstructVector(vecs))[0], secret);
}

TEST(ShamirTest, AnySubsetOfSizeTPlus1Reconstructs) {
  ShamirScheme scheme(2, 5);
  Rng rng(13);
  const uint64_t secret = 31415926;
  std::vector<uint64_t> shares = scheme.Share(secret, &rng);
  // All 3-subsets of 5 parties.
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) {
      for (int k = j + 1; k < 5; ++k) {
        std::vector<std::pair<int, uint64_t>> subset = {
            {i, shares[i]}, {j, shares[j]}, {k, shares[k]}};
        EXPECT_EQ(*scheme.Reconstruct(subset), secret);
      }
    }
  }
}

TEST(ShamirTest, TooFewSharesRejected) {
  ShamirScheme scheme(2, 5);
  Rng rng(14);
  std::vector<uint64_t> shares = scheme.Share(42, &rng);
  std::vector<std::pair<int, uint64_t>> subset = {{0, shares[0]},
                                                  {1, shares[1]}};
  Result<uint64_t> r = scheme.Reconstruct(subset);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kSecurityError);
}

TEST(ShamirTest, DuplicatePartyRejected) {
  ShamirScheme scheme(1, 3);
  Rng rng(15);
  std::vector<uint64_t> shares = scheme.Share(7, &rng);
  EXPECT_FALSE(
      scheme.Reconstruct({{0, shares[0]}, {0, shares[0]}}).ok());
}

TEST(ShamirTest, SharesOfSameSecretDiffer) {
  ShamirScheme scheme(1, 3);
  Rng rng(16);
  EXPECT_NE(scheme.Share(5, &rng)[0], scheme.Share(5, &rng)[0]);
}

TEST(ShamirTest, AdditiveHomomorphism) {
  ShamirScheme scheme(1, 3);
  Rng rng(17);
  std::vector<uint64_t> a = scheme.Share(1000, &rng);
  std::vector<uint64_t> b = scheme.Share(234, &rng);
  std::vector<std::vector<uint64_t>> sum(3, std::vector<uint64_t>(1));
  for (int p = 0; p < 3; ++p) sum[p][0] = Field::Add(a[p], b[p]);
  EXPECT_EQ((*scheme.ReconstructVector(sum))[0], 1234u);
}

TEST(ShamirTest, MultiplyReshare) {
  ShamirScheme scheme(1, 4);  // 2t < n required
  Rng rng(18);
  std::vector<std::vector<uint64_t>> x(4, std::vector<uint64_t>(2));
  std::vector<std::vector<uint64_t>> y(4, std::vector<uint64_t>(2));
  auto sx0 = scheme.Share(20, &rng);
  auto sx1 = scheme.Share(7, &rng);
  auto sy0 = scheme.Share(5, &rng);
  auto sy1 = scheme.Share(11, &rng);
  for (int p = 0; p < 4; ++p) {
    x[p] = {sx0[p], sx1[p]};
    y[p] = {sy0[p], sy1[p]};
  }
  auto z = *scheme.MultiplyReshare(x, y, &rng);
  std::vector<uint64_t> opened = *scheme.ReconstructVector(z);
  EXPECT_EQ(opened[0], 100u);
  EXPECT_EQ(opened[1], 77u);
}

TEST(ShamirTest, MultiplyNeedsLowDegree) {
  ShamirScheme scheme(1, 3);  // 2t = 2 >= n-1... 2t < n fails (2 < 3 ok)
  // With t=1, n=3: 2t=2 < 3 holds, so multiplication works.
  Rng rng(19);
  std::vector<std::vector<uint64_t>> x(3, std::vector<uint64_t>(1));
  std::vector<std::vector<uint64_t>> y(3, std::vector<uint64_t>(1));
  auto sx = scheme.Share(6, &rng);
  auto sy = scheme.Share(7, &rng);
  for (int p = 0; p < 3; ++p) {
    x[p][0] = sx[p];
    y[p][0] = sy[p];
  }
  EXPECT_EQ((*scheme.ReconstructVector(*scheme.MultiplyReshare(x, y, &rng)))[0],
            42u);
  // t=2, n=4: 2t = 4 >= 4 -> refused.
  ShamirScheme tight(2, 4);
  std::vector<std::vector<uint64_t>> a(4, std::vector<uint64_t>(1, 1));
  EXPECT_FALSE(tight.MultiplyReshare(a, a, &rng).ok());
}

// --- Distributed noise -------------------------------------------------------

TEST(NoiseTest, DistributedGaussianHasTargetVariance) {
  Rng rng(20);
  NoiseSpec spec;
  spec.kind = NoiseSpec::Kind::kGaussian;
  spec.param = 2.0;
  const int nodes = 5;
  double sum = 0, sumsq = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    double total = 0;
    for (int k = 0; k < nodes; ++k) {
      total += SamplePartialNoise(spec, nodes, &rng);
    }
    sum += total;
    sumsq += total * total;
  }
  EXPECT_NEAR(sum / trials, 0.0, 0.05);
  EXPECT_NEAR(sumsq / trials, 4.0, 0.15);
}

TEST(NoiseTest, DistributedLaplaceHasTargetVariance) {
  Rng rng(21);
  NoiseSpec spec;
  spec.kind = NoiseSpec::Kind::kLaplace;
  spec.param = 1.5;  // Var = 2 b^2 = 4.5
  const int nodes = 4;
  double sum = 0, sumsq = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    double total = 0;
    for (int k = 0; k < nodes; ++k) {
      total += SamplePartialNoise(spec, nodes, &rng);
    }
    sum += total;
    sumsq += total * total;
  }
  EXPECT_NEAR(sum / trials, 0.0, 0.05);
  EXPECT_NEAR(sumsq / trials, 4.5, 0.25);
}

// --- Cluster -----------------------------------------------------------------

class ClusterBothSchemes : public ::testing::TestWithParam<SmpcScheme> {
 protected:
  SmpcConfig Config() const {
    SmpcConfig config;
    config.scheme = GetParam();
    config.num_nodes = 4;
    config.threshold = 1;
    return config;
  }
};

TEST_P(ClusterBothSchemes, SecureSumMatchesPlaintext) {
  SmpcCluster cluster(Config());
  ASSERT_TRUE(cluster.ImportShares("job", {1.5, -2.0, 3.25}).ok());
  ASSERT_TRUE(cluster.ImportShares("job", {0.5, 10.0, -1.25}).ok());
  ASSERT_TRUE(cluster.ImportShares("job", {1.0, 1.0, 1.0}).ok());
  EXPECT_EQ(cluster.NumContributions("job"), 3u);
  ASSERT_TRUE(cluster.Compute("job", SmpcOp::kSum).ok());
  std::vector<double> result = *cluster.GetResult("job");
  ASSERT_EQ(result.size(), 3u);
  EXPECT_NEAR(result[0], 3.0, 1e-4);
  EXPECT_NEAR(result[1], 9.0, 1e-4);
  EXPECT_NEAR(result[2], 3.0, 1e-4);
}

TEST_P(ClusterBothSchemes, SecureProductMatchesPlaintext) {
  SmpcCluster cluster(Config());
  ASSERT_TRUE(cluster.ImportShares("job", {2.0, -3.0}).ok());
  ASSERT_TRUE(cluster.ImportShares("job", {4.0, 0.5}).ok());
  ASSERT_TRUE(cluster.Compute("job", SmpcOp::kProduct).ok());
  std::vector<double> result = *cluster.GetResult("job");
  EXPECT_NEAR(result[0], 8.0, 1e-3);
  EXPECT_NEAR(result[1], -1.5, 1e-3);
}

TEST_P(ClusterBothSchemes, SecureMinMax) {
  SmpcCluster cluster(Config());
  ASSERT_TRUE(cluster.ImportShares("lo", {5.0, -2.0, 7.0}).ok());
  ASSERT_TRUE(cluster.ImportShares("lo", {3.0, 4.0, 9.0}).ok());
  ASSERT_TRUE(cluster.ImportShares("lo", {6.0, -8.0, 8.0}).ok());
  ASSERT_TRUE(cluster.Compute("lo", SmpcOp::kMin).ok());
  std::vector<double> mins = *cluster.GetResult("lo");
  EXPECT_NEAR(mins[0], 3.0, 1e-4);
  EXPECT_NEAR(mins[1], -8.0, 1e-4);
  EXPECT_NEAR(mins[2], 7.0, 1e-4);

  ASSERT_TRUE(cluster.ImportShares("hi", {5.0, -2.0, 7.0}).ok());
  ASSERT_TRUE(cluster.ImportShares("hi", {3.0, 4.0, 9.0}).ok());
  ASSERT_TRUE(cluster.Compute("hi", SmpcOp::kMax).ok());
  std::vector<double> maxs = *cluster.GetResult("hi");
  EXPECT_NEAR(maxs[0], 5.0, 1e-4);
  EXPECT_NEAR(maxs[1], 4.0, 1e-4);
  EXPECT_NEAR(maxs[2], 9.0, 1e-4);
}

TEST_P(ClusterBothSchemes, SecureUnionConcatenates) {
  SmpcCluster cluster(Config());
  ASSERT_TRUE(cluster.ImportShares("u", {1.0, 2.0}).ok());
  ASSERT_TRUE(cluster.ImportShares("u", {3.0}).ok());
  ASSERT_TRUE(cluster.Compute("u", SmpcOp::kUnion).ok());
  std::vector<double> result = *cluster.GetResult("u");
  ASSERT_EQ(result.size(), 3u);
  EXPECT_NEAR(result[0], 1.0, 1e-4);
  EXPECT_NEAR(result[1], 2.0, 1e-4);
  EXPECT_NEAR(result[2], 3.0, 1e-4);
}

TEST_P(ClusterBothSchemes, AsyncRetrievalByJobId) {
  SmpcCluster cluster(Config());
  EXPECT_FALSE(cluster.GetResult("nope").ok());
  ASSERT_TRUE(cluster.ImportShares("a", {1.0}).ok());
  ASSERT_TRUE(cluster.ImportShares("b", {2.0}).ok());
  ASSERT_TRUE(cluster.Compute("a", SmpcOp::kSum).ok());
  ASSERT_TRUE(cluster.Compute("b", SmpcOp::kSum).ok());
  EXPECT_NEAR((*cluster.GetResult("b"))[0], 2.0, 1e-4);
  EXPECT_NEAR((*cluster.GetResult("a"))[0], 1.0, 1e-4);
}

TEST_P(ClusterBothSchemes, NoiseInjectionPerturbsResult) {
  SmpcCluster cluster(Config());
  NoiseSpec noise;
  noise.kind = NoiseSpec::Kind::kGaussian;
  noise.param = 1.0;
  double sum_err = 0, sumsq_err = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    const std::string job = "n" + std::to_string(i);
    ASSERT_TRUE(cluster.ImportShares(job, {100.0}).ok());
    ASSERT_TRUE(cluster.Compute(job, SmpcOp::kSum, noise).ok());
    const double err = (*cluster.GetResult(job))[0] - 100.0;
    sum_err += err;
    sumsq_err += err * err;
  }
  EXPECT_NEAR(sum_err / trials, 0.0, 0.3);
  EXPECT_NEAR(sumsq_err / trials, 1.0, 0.45);
}

TEST_P(ClusterBothSchemes, CostStatsAccumulate) {
  SmpcCluster cluster(Config());
  ASSERT_TRUE(cluster.ImportShares("j", std::vector<double>(100, 1.0)).ok());
  ASSERT_TRUE(cluster.Compute("j", SmpcOp::kSum).ok());
  EXPECT_GT(cluster.stats().bytes_transferred, 0u);
  EXPECT_GT(cluster.stats().rounds, 0u);
  EXPECT_GT(cluster.stats().SimulatedNetworkSeconds(cluster.config()), 0.0);
  cluster.ResetStats();
  EXPECT_EQ(cluster.stats().bytes_transferred, 0u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, ClusterBothSchemes,
                         ::testing::Values(SmpcScheme::kFullThreshold,
                                           SmpcScheme::kShamir));

TEST(ClusterSecurityTest, FullThresholdDetectsTampering) {
  SmpcConfig config;
  config.scheme = SmpcScheme::kFullThreshold;
  config.num_nodes = 3;
  SmpcCluster cluster(config);
  ASSERT_TRUE(cluster.ImportShares("j", {10.0, 20.0}).ok());
  ASSERT_TRUE(cluster.TamperWithShare(1, "j", 0, 0, 12345).ok());
  Status st = cluster.Compute("j", SmpcOp::kSum);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kSecurityError);  // abort, as promised
}

TEST(ClusterSecurityTest, ShamirSilentlyAcceptsTampering) {
  // The honest-but-curious scheme does NOT detect an active adversary:
  // the computation "succeeds" with a wrong result — the exact trade-off
  // the paper describes between the two security modes.
  SmpcConfig config;
  config.scheme = SmpcScheme::kShamir;
  config.num_nodes = 4;
  config.threshold = 1;
  SmpcCluster cluster(config);
  ASSERT_TRUE(cluster.ImportShares("j", {10.0}).ok());
  ASSERT_TRUE(cluster.TamperWithShare(0, "j", 0, 0, 999999).ok());
  ASSERT_TRUE(cluster.Compute("j", SmpcOp::kSum).ok());  // no abort!
  EXPECT_GT(std::fabs((*cluster.GetResult("j"))[0] - 10.0), 1e-6);
}

TEST(ClusterTest, FtBytesExceedShamirBytes) {
  // MACs double the per-element payload: the full-threshold mode must move
  // more bytes for the same job — half of the paper's "FT slow, Shamir
  // fast" claim (E4 benchmarks the full picture).
  const std::vector<double> data(1000, 1.0);
  SmpcConfig ft;
  ft.scheme = SmpcScheme::kFullThreshold;
  SmpcCluster ft_cluster(ft);
  ASSERT_TRUE(ft_cluster.ImportShares("j", data).ok());
  ASSERT_TRUE(ft_cluster.Compute("j", SmpcOp::kSum).ok());

  SmpcConfig sh;
  sh.scheme = SmpcScheme::kShamir;
  SmpcCluster sh_cluster(sh);
  ASSERT_TRUE(sh_cluster.ImportShares("j", data).ok());
  ASSERT_TRUE(sh_cluster.Compute("j", SmpcOp::kSum).ok());

  EXPECT_GT(ft_cluster.stats().bytes_transferred,
            sh_cluster.stats().bytes_transferred);
}

TEST(ClusterTest, OfflinePrecomputationSpeedsOnlineProducts) {
  SmpcConfig config;
  config.scheme = SmpcScheme::kFullThreshold;
  SmpcCluster warm(config);
  warm.PrecomputeTriples(64);
  ASSERT_TRUE(warm.ImportShares("j", std::vector<double>(32, 2.0)).ok());
  ASSERT_TRUE(warm.ImportShares("j", std::vector<double>(32, 3.0)).ok());
  ASSERT_TRUE(warm.Compute("j", SmpcOp::kProduct).ok());
  EXPECT_GT(warm.stats().offline_seconds, 0.0);
  EXPECT_NEAR((*warm.GetResult("j"))[0], 6.0, 1e-3);
}

// --- Wire format ------------------------------------------------------------

TEST(WireTest, LimbBlocksRoundTripAcrossSizes) {
  Rng rng(4711);
  for (const size_t n : {0ul, 1ul, 100ul, 4096ul, 4097ul, 10000ul}) {
    std::vector<uint64_t> limbs(n);
    for (auto& v : limbs) v = Field::Random(&rng);
    const std::vector<uint8_t> bytes =
        wire::EncodeLimbBlocks(limbs.data(), n, /*block_elems=*/4096);
    const auto decoded = wire::DecodeLimbBlocks(bytes);
    ASSERT_TRUE(decoded.ok()) << "n=" << n;
    EXPECT_EQ(*decoded, limbs) << "n=" << n;
    // Measured size matches what Encode actually wrote.
    EXPECT_EQ(wire::MeasureLimbBlocks(limbs.data(), n, 4096), bytes.size());
  }
}

TEST(WireTest, DecodeRejectsCorruptPayloads) {
  std::vector<uint64_t> limbs = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> bytes =
      wire::EncodeLimbBlocks(limbs.data(), limbs.size(), 2);

  // Truncated payload.
  std::vector<uint8_t> cut(bytes.begin(), bytes.end() - 3);
  EXPECT_FALSE(wire::DecodeLimbBlocks(cut).ok());

  // Trailing garbage after the declared blocks.
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0xAB);
  EXPECT_FALSE(wire::DecodeLimbBlocks(padded).ok());

  // Absurd element count (fails the kMaxWireElements bound).
  BufferWriter bomb;
  engine::PutVarint(&bomb, ~0ull >> 1);
  EXPECT_FALSE(wire::DecodeLimbBlocks(bomb.TakeBytes()).ok());
}

// --- Per-op timing histograms ----------------------------------------------

TEST(ClusterMetricsTest, PerOpHistogramsPopulateAndRender) {
  SmpcConfig config;
  config.scheme = SmpcScheme::kFullThreshold;
  SmpcCluster cluster(config);
  cluster.PrecomputeTriples(16);
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  ASSERT_TRUE(cluster.ImportShares("m", v).ok());
  ASSERT_TRUE(cluster.ImportShares("m", v).ok());
  ASSERT_TRUE(cluster.Compute("m", SmpcOp::kProduct).ok());

  const SmpcCostStats& stats = cluster.stats();
  EXPECT_GE(stats.share_ms.count(), 2u);       // one record per ImportShares
  EXPECT_GE(stats.triple_ms.count(), 1u);      // PrecomputeTriples
  EXPECT_GE(stats.online_ms.count(), 1u);      // Compute
  EXPECT_GE(stats.reconstruct_ms.count(), 1u); // final open
  EXPECT_GT(stats.wire_blocks, 0u);

  const std::string text = cluster.MetricsText();
  EXPECT_NE(text.find("smpc_scheme"), std::string::npos);
  EXPECT_NE(text.find("smpc_bytes_transferred"), std::string::npos);
  EXPECT_NE(text.find("smpc_share_ms"), std::string::npos);
  EXPECT_NE(text.find("smpc_triple_ms"), std::string::npos);
  EXPECT_NE(text.find("smpc_online_ms"), std::string::npos);
  EXPECT_NE(text.find("smpc_reconstruct_ms"), std::string::npos);
  EXPECT_NE(text.find("smpc_wire_blocks"), std::string::npos);
}

TEST(ClusterTest, ErrorsOnUnknownJobAndBadIndices) {
  SmpcConfig config;
  SmpcCluster cluster(config);
  EXPECT_FALSE(cluster.Compute("missing", SmpcOp::kSum).ok());
  EXPECT_FALSE(cluster.TamperWithShare(99, "missing", 0, 0, 1).ok());
  ASSERT_TRUE(cluster.ImportShares("j", {1.0}).ok());
  EXPECT_FALSE(cluster.TamperWithShare(0, "j", 5, 0, 1).ok());
  EXPECT_FALSE(cluster.TamperWithShare(0, "j", 0, 9, 1).ok());
}

}  // namespace
}  // namespace mip::smpc
