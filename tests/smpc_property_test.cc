// Parameterized protocol sweeps: both schemes x cluster sizes x thresholds
// x random payloads — the SMPC engine must open the exact plaintext
// aggregate under every legal configuration.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/parallel.h"
#include "common/rng.h"
#include "smpc/cluster.h"
#include "smpc/field.h"
#include "smpc/field_vec.h"
#include "smpc/shamir.h"
#include "smpc/spdz.h"

namespace mip::smpc {
namespace {

// (scheme, num_nodes, threshold, seed)
using SweepParam = std::tuple<SmpcScheme, int, int, int>;

class ClusterSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ClusterSweep, SumOpensPlaintextAggregate) {
  const auto [scheme, nodes, threshold, seed] = GetParam();
  SmpcConfig config;
  config.scheme = scheme;
  config.num_nodes = nodes;
  config.threshold = threshold;
  config.seed = 0xABC0 + static_cast<uint64_t>(seed);
  SmpcCluster cluster(config);

  Rng rng(1000 + seed);
  const size_t n = 1 + rng.NextBounded(50);
  const int contributions = 2 + static_cast<int>(rng.NextBounded(5));
  std::vector<double> truth(n, 0.0);
  for (int c = 0; c < contributions; ++c) {
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = rng.NextUniform(-1e4, 1e4);
      truth[i] += v[i];
    }
    ASSERT_TRUE(cluster.ImportShares("sweep", v).ok());
  }
  ASSERT_TRUE(cluster.Compute("sweep", SmpcOp::kSum).ok());
  const std::vector<double> opened = *cluster.GetResult("sweep");
  ASSERT_EQ(opened.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(opened[i], truth[i],
                1e-4 * (1.0 + std::fabs(truth[i]) * 1e-6))
        << "element " << i;
  }
}

TEST_P(ClusterSweep, MinMaxPickTheRightElements) {
  const auto [scheme, nodes, threshold, seed] = GetParam();
  SmpcConfig config;
  config.scheme = scheme;
  config.num_nodes = nodes;
  config.threshold = threshold;
  SmpcCluster cluster(config);

  Rng rng(2000 + seed);
  const size_t n = 1 + rng.NextBounded(10);
  const int contributions = 2 + static_cast<int>(rng.NextBounded(3));
  std::vector<double> lo(n, 1e18), hi(n, -1e18);
  for (int c = 0; c < contributions; ++c) {
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = rng.NextUniform(-500, 500);
      lo[i] = std::min(lo[i], v[i]);
      hi[i] = std::max(hi[i], v[i]);
    }
    ASSERT_TRUE(cluster.ImportShares("mn", v).ok());
    ASSERT_TRUE(cluster.ImportShares("mx", v).ok());
  }
  ASSERT_TRUE(cluster.Compute("mn", SmpcOp::kMin).ok());
  ASSERT_TRUE(cluster.Compute("mx", SmpcOp::kMax).ok());
  const std::vector<double> mins = *cluster.GetResult("mn");
  const std::vector<double> maxs = *cluster.GetResult("mx");
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(mins[i], lo[i], 1e-4) << i;
    EXPECT_NEAR(maxs[i], hi[i], 1e-4) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FullThreshold, ClusterSweep,
    ::testing::Combine(::testing::Values(SmpcScheme::kFullThreshold),
                       ::testing::Values(2, 3, 5, 7),
                       ::testing::Values(1),  // ignored for FT
                       ::testing::Range(0, 3)));

INSTANTIATE_TEST_SUITE_P(
    Shamir, ClusterSweep,
    ::testing::Values(
        // (n, t) pairs with 2t < n so products/comparisons stay legal.
        SweepParam{SmpcScheme::kShamir, 3, 1, 0},
        SweepParam{SmpcScheme::kShamir, 4, 1, 1},
        SweepParam{SmpcScheme::kShamir, 5, 2, 2},
        SweepParam{SmpcScheme::kShamir, 7, 3, 3},
        SweepParam{SmpcScheme::kShamir, 9, 4, 4}));

// Shamir privacy structure: any t shares of a secret are uniformly
// distributed (tested distributionally: the first share of fixed secrets
// should cover the field broadly rather than cluster).
TEST(ShamirDistributionTest, SharesOfFixedSecretSpreadOverField) {
  ShamirScheme scheme(2, 5);
  Rng rng(99);
  int below_half = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    std::vector<uint64_t> shares = scheme.Share(42, &rng);
    if (shares[0] < Field::kPrime / 2) ++below_half;
  }
  EXPECT_NEAR(static_cast<double>(below_half) / trials, 0.5, 0.05);
}

// SPDZ linearity under public constants, swept over party counts.
class SpdzParties : public ::testing::TestWithParam<int> {};

TEST_P(SpdzParties, AffineCombinationOpensCorrectly) {
  const int parties = GetParam();
  SpdzDealer dealer(parties, 55);
  Rng rng(55);
  for (int trial = 0; trial < 10; ++trial) {
    const uint64_t x = rng.NextBounded(1u << 30);
    const uint64_t y = rng.NextBounded(1u << 30);
    const uint64_t c = rng.NextBounded(1u << 20);
    std::vector<SpdzShare> xs = dealer.ShareValue(x);
    std::vector<SpdzShare> ys = dealer.ShareValue(y);
    std::vector<SpdzShare> zs(static_cast<size_t>(parties));
    for (int p = 0; p < parties; ++p) {
      zs[static_cast<size_t>(p)] = Spdz::Add(
          Spdz::MulPublic(xs[static_cast<size_t>(p)], 3),
          Spdz::Sub(ys[static_cast<size_t>(p)],
                    Spdz::MulPublic(ys[static_cast<size_t>(p)], 2)));
      zs[static_cast<size_t>(p)] = Spdz::AddPublic(
          zs[static_cast<size_t>(p)], c, p, dealer.alpha_shares()[p]);
    }
    // 3x + (y - 2y) + c = 3x - y + c.
    const uint64_t expected =
        Field::Add(Field::Sub(Field::Mul(3, x), y), c);
    EXPECT_EQ(*Spdz::Open(zs, dealer.alpha_shares()), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(PartyCounts, SpdzParties,
                         ::testing::Values(2, 3, 4, 6, 9));

// ---------------------------------------------------------------------------
// Batched-kernel parity battery: every field_vec kernel must be bit-identical
// to the scalar Field:: loop it replaces, across random spans, boundary
// values, and all sizes 0..257 (covers empty, sub-SIMD-width, unaligned
// tails, and multi-register spans).
// ---------------------------------------------------------------------------

constexpr uint64_t kP = Field::kPrime;

std::vector<uint64_t> TestSpan(size_t n, uint64_t salt) {
  // Random field elements with the boundary cases (0, p-1, p, 2^61, ~0)
  // planted at deterministic positions.
  Rng rng(0xFEED0000 + salt);
  std::vector<uint64_t> v(n);
  const uint64_t boundary[] = {0, kP - 1, kP, 1ull << 61, ~0ull};
  for (size_t i = 0; i < n; ++i) {
    v[i] = (i % 7 == 3) ? boundary[(i / 7) % 5] : Field::Random(&rng);
  }
  return v;
}

TEST(FieldVecParity, AllKernelsMatchScalarLoopsForSizes0To257) {
  for (size_t n = 0; n <= 257; ++n) {
    const std::vector<uint64_t> a = TestSpan(n, n);
    const std::vector<uint64_t> b = TestSpan(n, n + 1000);
    const uint64_t c = 0x123456789ABCDEFull % kP;
    const uint64_t x = 7;

    std::vector<uint64_t> got(n), want(n);

    field_vec::ReduceVec(a.data(), n, got.data());
    for (size_t i = 0; i < n; ++i) want[i] = Field::Reduce(a[i]);
    ASSERT_EQ(got, want) << "ReduceVec n=" << n;

    field_vec::AddVec(a.data(), b.data(), n, got.data());
    for (size_t i = 0; i < n; ++i) want[i] = Field::Add(a[i], b[i]);
    ASSERT_EQ(got, want) << "AddVec n=" << n;

    field_vec::SubVec(a.data(), b.data(), n, got.data());
    for (size_t i = 0; i < n; ++i) want[i] = Field::Sub(a[i], b[i]);
    ASSERT_EQ(got, want) << "SubVec n=" << n;

    field_vec::MulVec(a.data(), b.data(), n, got.data());
    for (size_t i = 0; i < n; ++i) want[i] = Field::Mul(a[i], b[i]);
    ASSERT_EQ(got, want) << "MulVec n=" << n;

    field_vec::MulScalarVec(c, a.data(), n, got.data());
    for (size_t i = 0; i < n; ++i) want[i] = Field::Mul(c, a[i]);
    ASSERT_EQ(got, want) << "MulScalarVec n=" << n;

    field_vec::AddScalarVec(c, a.data(), n, got.data());
    for (size_t i = 0; i < n; ++i) want[i] = Field::Add(a[i], c);
    ASSERT_EQ(got, want) << "AddScalarVec n=" << n;

    got = TestSpan(n, n + 2000);
    want = got;
    field_vec::MulAccumVec(a.data(), b.data(), n, got.data());
    for (size_t i = 0; i < n; ++i) {
      want[i] = Field::Add(want[i], Field::Mul(a[i], b[i]));
    }
    ASSERT_EQ(got, want) << "MulAccumVec n=" << n;

    got = TestSpan(n, n + 3000);
    want = got;
    field_vec::MulScalarAccumVec(c, a.data(), n, got.data());
    for (size_t i = 0; i < n; ++i) {
      want[i] = Field::Add(want[i], Field::Mul(c, a[i]));
    }
    ASSERT_EQ(got, want) << "MulScalarAccumVec n=" << n;

    got = TestSpan(n, n + 4000);
    want = got;
    field_vec::HornerStepVec(got.data(), x, a.data(), n);
    for (size_t i = 0; i < n; ++i) {
      want[i] = Field::Add(Field::Mul(want[i], x), a[i]);
    }
    ASSERT_EQ(got, want) << "HornerStepVec n=" << n;

    uint64_t s = 0;
    for (size_t i = 0; i < n; ++i) s = Field::Add(s, Field::Reduce(a[i]));
    std::vector<uint64_t> reduced(n);
    field_vec::ReduceVec(a.data(), n, reduced.data());
    ASSERT_EQ(field_vec::SumVec(reduced.data(), n), s) << "SumVec n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Bulk rejection sampling: RandomVec must pin the exact scalar stream —
// the same values AND the same Rng state afterwards.
// ---------------------------------------------------------------------------

TEST(RandomVecDeterminism, MatchesScalarStreamAndState) {
  for (const size_t n : {0ul, 1ul, 7ul, 256ul, 257ul, 5000ul}) {
    Rng scalar_rng(0xD00D + n);
    Rng batch_rng(0xD00D + n);
    std::vector<uint64_t> want(n);
    for (auto& v : want) v = Field::Random(&scalar_rng);
    std::vector<uint64_t> got(n);
    Field::RandomVec(got.data(), n, &batch_rng);
    EXPECT_EQ(got, want) << "n=" << n;
    // State parity: the next draws must agree too.
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(batch_rng.NextUint64(), scalar_rng.NextUint64());
    }
  }
}

TEST(RandomVecDeterminism, AcceptFieldWordsCompactsRejectionsInOrder) {
  // The mask keeps the low 61 bits; a word whose low 61 bits are all ones
  // masks to p itself and must be rejected (probability 2^-61 in the wild,
  // so we craft it).
  const uint64_t all_ones_61 = (1ull << 61) - 1;  // == kPrime
  const uint64_t raw[] = {5, all_ones_61, 7, ~0ull, (1ull << 61) | 12, 9};
  uint64_t out[6] = {};
  const size_t kept = Field::AcceptFieldWords(raw, 6, out);
  ASSERT_EQ(kept, 4u);  // two all-ones words rejected
  EXPECT_EQ(out[0], 5u);
  EXPECT_EQ(out[1], 7u);
  EXPECT_EQ(out[2], 12u);  // masked to low 61 bits
  EXPECT_EQ(out[3], 9u);
  // In-place aliasing (the RandomVec compaction mode).
  uint64_t inplace[] = {5, all_ones_61, 7, ~0ull, (1ull << 61) | 12, 9};
  EXPECT_EQ(Field::AcceptFieldWords(inplace, 6, inplace), 4u);
  EXPECT_EQ(inplace[0], 5u);
  EXPECT_EQ(inplace[3], 9u);
}

// ---------------------------------------------------------------------------
// Dealer batch parity: batched sharing / triple generation must emit the
// bit-identical shares the scalar path emits for the same seed, and leave
// the dealer in the same state.
// ---------------------------------------------------------------------------

void ExpectMatrixEq(const SpdzMatrix& got, const SpdzMatrix& want,
                    const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t p = 0; p < got.size(); ++p) {
    EXPECT_EQ(got[p].values, want[p].values) << what << " values party " << p;
    EXPECT_EQ(got[p].macs, want[p].macs) << what << " macs party " << p;
  }
}

TEST(SpdzBatchParity, ShareVectorBatchMatchesScalar) {
  for (const int parties : {1, 2, 3, 7}) {
    for (const size_t n : {0ul, 1ul, 13ul, 300ul}) {
      SpdzDealer scalar(parties, 42);
      SpdzDealer batch(parties, 42);
      Rng vals(99);
      std::vector<uint64_t> xs(n);
      for (auto& x : xs) x = Field::Random(&vals);
      const SpdzMatrix want = ToMatrix(scalar.ShareVector(xs));
      const SpdzMatrix got = batch.ShareVectorBatch(xs);
      ExpectMatrixEq(got, want, "share");
      // Dealer state parity: the next triple from each must agree.
      const auto t1 = scalar.MakeTriple();
      const auto t2 = batch.MakeTriple();
      for (int p = 0; p < parties; ++p) {
        EXPECT_EQ(t1[static_cast<size_t>(p)].a.value,
                  t2[static_cast<size_t>(p)].a.value);
        EXPECT_EQ(t1[static_cast<size_t>(p)].c.mac,
                  t2[static_cast<size_t>(p)].c.mac);
      }
    }
  }
}

TEST(SpdzBatchParity, MakeTriplesMatchesRepeatedMakeTriple) {
  // 2500 spans several 1024-triple generation morsels and a partial one.
  for (const int parties : {2, 3, 5}) {
    for (const size_t count : {size_t{64}, size_t{2500}}) {
      SpdzDealer scalar(parties, 77);
      SpdzDealer batch(parties, 77);
      std::vector<std::vector<SpdzTriple>> want;
      for (size_t i = 0; i < count; ++i) want.push_back(scalar.MakeTriple());
      const SpdzTripleBlock got = batch.MakeTriples(count);
      ASSERT_EQ(got.size(), count);
      for (size_t t = 0; t < count; ++t) {
        for (size_t p = 0; p < static_cast<size_t>(parties); ++p) {
          EXPECT_EQ(got.a[p].values[t], want[t][p].a.value);
          EXPECT_EQ(got.a[p].macs[t], want[t][p].a.mac);
          EXPECT_EQ(got.b[p].values[t], want[t][p].b.value);
          EXPECT_EQ(got.b[p].macs[t], want[t][p].b.mac);
          EXPECT_EQ(got.c[p].values[t], want[t][p].c.value);
          EXPECT_EQ(got.c[p].macs[t], want[t][p].c.mac);
        }
      }
    }
  }
}

TEST(SpdzBatchParity, TakeTriplesMatchesRepeatedTakeTriple) {
  // Pool partially covers the demand: the block must pop LIFO first, then
  // batch-generate the tail exactly as on-demand TakeTriple would.
  SpdzDealer scalar(3, 123);
  SpdzDealer batch(3, 123);
  scalar.PrecomputeTriplesScalar(10);
  batch.PrecomputeTriples(10);
  const size_t want_count = 25;
  std::vector<std::vector<SpdzTriple>> want;
  for (size_t i = 0; i < want_count; ++i) want.push_back(scalar.TakeTriple());
  const SpdzTripleBlock got = batch.TakeTriples(want_count);
  ASSERT_EQ(got.size(), want_count);
  EXPECT_EQ(batch.triples_generated_online(), 15u);
  EXPECT_EQ(batch.pool_size(), 0u);
  for (size_t t = 0; t < want_count; ++t) {
    for (size_t p = 0; p < 3; ++p) {
      EXPECT_EQ(got.a[p].values[t], want[t][p].a.value) << t;
      EXPECT_EQ(got.b[p].macs[t], want[t][p].b.mac) << t;
      EXPECT_EQ(got.c[p].values[t], want[t][p].c.value) << t;
    }
  }
}

TEST(SpdzBatchParity, OpenVecAndMultiplyVecMatchScalar) {
  SpdzDealer dealer(4, 314);
  const size_t n = 100;
  Rng vals(314);
  std::vector<uint64_t> xs(n), ys(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = Field::Random(&vals);
    ys[i] = Field::Random(&vals);
  }
  const SpdzMatrix xm = dealer.ShareVectorBatch(xs);
  const SpdzMatrix ym = dealer.ShareVectorBatch(ys);

  // OpenVec == per-element Open.
  std::vector<uint64_t> opened;
  ASSERT_TRUE(Spdz::OpenVec(xm, dealer.alpha_shares(), {}, &opened).ok());
  ASSERT_EQ(opened.size(), n);
  for (size_t e = 0; e < n; ++e) {
    std::vector<SpdzShare> shares(xm.size());
    for (size_t p = 0; p < xm.size(); ++p) {
      shares[p] = {xm[p].values[e], xm[p].macs[e]};
    }
    EXPECT_EQ(opened[e], *Spdz::Open(shares, dealer.alpha_shares())) << e;
  }

  // MultiplyVec == per-element Multiply with the matching triple.
  const SpdzTripleBlock triples = dealer.MakeTriples(n);
  SpdzMatrix z;
  ASSERT_TRUE(Spdz::MultiplyVec(xm, ym, triples, dealer.alpha_shares(), {},
                                &z).ok());
  for (size_t e = 0; e < n; ++e) {
    std::vector<SpdzShare> xe(xm.size()), ye(xm.size());
    std::vector<SpdzTriple> triple(xm.size());
    for (size_t p = 0; p < xm.size(); ++p) {
      xe[p] = {xm[p].values[e], xm[p].macs[e]};
      ye[p] = {ym[p].values[e], ym[p].macs[e]};
      triple[p] = {{triples.a[p].values[e], triples.a[p].macs[e]},
                   {triples.b[p].values[e], triples.b[p].macs[e]},
                   {triples.c[p].values[e], triples.c[p].macs[e]}};
    }
    const auto want = *Spdz::Multiply(xe, ye, triple, dealer.alpha_shares());
    for (size_t p = 0; p < xm.size(); ++p) {
      EXPECT_EQ(z[p].values[e], want[p].value) << "e=" << e << " p=" << p;
      EXPECT_EQ(z[p].macs[e], want[p].mac) << "e=" << e << " p=" << p;
    }
  }
}

TEST(SpdzBatchParity, OpenVecAbortsOnTamperedLimb) {
  SpdzDealer dealer(3, 2718);
  std::vector<uint64_t> xs = {11, 22, 33, 44};
  SpdzMatrix m = dealer.ShareVectorBatch(xs);
  std::vector<uint64_t> opened;
  ASSERT_TRUE(Spdz::OpenVec(m, dealer.alpha_shares(), {}, &opened).ok());
  m[1].values[2] = Field::Add(m[1].values[2], 1);  // flip one limb
  const Status st = Spdz::OpenVec(m, dealer.alpha_shares(), {}, &opened);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kSecurityError);
}

// ---------------------------------------------------------------------------
// Shamir batch parity.
// ---------------------------------------------------------------------------

TEST(ShamirBatchParity, ShareVectorBatchMatchesScalar) {
  for (const auto& [nodes, t] : std::vector<std::pair<int, int>>{
           {3, 1}, {5, 2}, {7, 3}, {4, 0}}) {
    ShamirScheme scheme(t, nodes);
    for (const size_t n : {0ul, 1ul, 9ul, 250ul}) {
      Rng scalar_rng(500 + n);
      Rng batch_rng(500 + n);
      Rng vals(600 + n);
      std::vector<uint64_t> secrets(n);
      for (auto& s : secrets) s = Field::Random(&vals);
      const auto want = scheme.ShareVector(secrets, &scalar_rng);
      const auto got = scheme.ShareVectorBatch(secrets, &batch_rng);
      EXPECT_EQ(got, want) << "nodes=" << nodes << " t=" << t << " n=" << n;
      EXPECT_EQ(batch_rng.NextUint64(), scalar_rng.NextUint64());
    }
  }
}

TEST(ShamirBatchParity, MultiplyReshareBatchAndReconstructMatchScalar) {
  ShamirScheme scheme(2, 5);
  const size_t n = 60;
  Rng share_rng(808);
  Rng vals(809);
  std::vector<uint64_t> xs(n), ys(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = Field::Random(&vals);
    ys[i] = Field::Random(&vals);
  }
  const auto xm = scheme.ShareVector(xs, &share_rng);
  const auto ym = scheme.ShareVector(ys, &share_rng);
  Rng scalar_rng(77);
  Rng batch_rng(77);
  const auto want = *scheme.MultiplyReshare(xm, ym, &scalar_rng);
  const auto got = *scheme.MultiplyReshareBatch(xm, ym, &batch_rng);
  EXPECT_EQ(got, want);
  EXPECT_EQ(batch_rng.NextUint64(), scalar_rng.NextUint64());
  EXPECT_EQ(*scheme.ReconstructVectorBatch(got),
            *scheme.ReconstructVector(want));
}

// ---------------------------------------------------------------------------
// Cluster-level parity: the cluster's batched kernels against a scalar,
// element-at-a-time evaluation of the same op over the codec's field
// encodings (Field::Add / Field::Mul, a signed compare for min/max,
// concatenation for union), decoded with the same scale power. The opened
// result must equal it bit for bit, at 1 and 8 threads. The vectors are
// larger than one morsel grain so the 8-thread run genuinely chunks.
// ---------------------------------------------------------------------------

std::vector<std::vector<double>> ParityInputs(size_t n, int contributions) {
  Rng rng(4242);
  std::vector<std::vector<double>> inputs(static_cast<size_t>(contributions),
                                          std::vector<double>(n));
  for (auto& v : inputs) {
    for (auto& x : v) x = rng.NextUniform(-100.0, 100.0);
  }
  return inputs;
}

std::vector<double> RunCluster(SmpcScheme scheme, SmpcOp op, ThreadPool* pool,
                               const std::vector<std::vector<double>>& inputs) {
  SmpcConfig config;
  config.scheme = scheme;
  config.num_nodes = 3;
  config.threshold = 1;
  SmpcCluster cluster(config);
  cluster.set_pool(pool);
  if (scheme == SmpcScheme::kFullThreshold && op == SmpcOp::kProduct) {
    cluster.PrecomputeTriples(inputs[0].size() * inputs.size());
  }
  for (const auto& v : inputs) {
    EXPECT_TRUE(cluster.ImportShares("job", v).ok());
  }
  EXPECT_TRUE(cluster.Compute("job", op).ok());
  return *cluster.GetResult("job");
}

// Signed value of a field encoding (upper half of the field is negative).
int64_t Signed(uint64_t v) {
  return v > Field::kPrime / 2 ? -static_cast<int64_t>(Field::kPrime - v)
                               : static_cast<int64_t>(v);
}

std::vector<double> ScalarOracle(
    SmpcOp op, const std::vector<std::vector<double>>& inputs) {
  const FixedPointCodec codec(SmpcConfig{}.frac_bits);
  std::vector<uint64_t> acc = *codec.EncodeVector(inputs[0]);
  int scale_power = 1;
  for (size_t c = 1; c < inputs.size(); ++c) {
    const std::vector<uint64_t> next = *codec.EncodeVector(inputs[c]);
    if (op == SmpcOp::kUnion) {
      acc.insert(acc.end(), next.begin(), next.end());
      continue;
    }
    for (size_t e = 0; e < acc.size(); ++e) {
      switch (op) {
        case SmpcOp::kSum:
          acc[e] = Field::Add(acc[e], next[e]);
          break;
        case SmpcOp::kProduct:
          acc[e] = Field::Mul(acc[e], next[e]);
          break;
        case SmpcOp::kMin:
          if (Signed(next[e]) < Signed(acc[e])) acc[e] = next[e];
          break;
        case SmpcOp::kMax:
          if (Signed(next[e]) > Signed(acc[e])) acc[e] = next[e];
          break;
        case SmpcOp::kUnion:
          break;
      }
    }
    if (op == SmpcOp::kProduct) ++scale_power;
  }
  std::vector<double> out(acc.size());
  for (size_t e = 0; e < acc.size(); ++e) {
    out[e] = codec.Decode(acc[e], scale_power);
  }
  return out;
}

using ParityParam = std::tuple<SmpcScheme, SmpcOp>;
class ClusterModeParity : public ::testing::TestWithParam<ParityParam> {};

TEST_P(ClusterModeParity, BatchedEqualsScalarAt1And8Threads) {
  const auto [scheme, op] = GetParam();
  const std::vector<std::vector<double>> inputs =
      ParityInputs(/*n=*/40000, /*contributions=*/3);
  const std::vector<double> scalar = ScalarOracle(op, inputs);
  const std::vector<double> batched1 = RunCluster(scheme, op, nullptr, inputs);
  ThreadPool pool(8);
  const std::vector<double> batched8 = RunCluster(scheme, op, &pool, inputs);
  ASSERT_EQ(batched1.size(), scalar.size());
  ASSERT_EQ(batched8.size(), scalar.size());
  for (size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(batched1[i], scalar[i]) << "1-thread element " << i;
    EXPECT_EQ(batched8[i], scalar[i]) << "8-thread element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndOps, ClusterModeParity,
    ::testing::Combine(::testing::Values(SmpcScheme::kFullThreshold,
                                         SmpcScheme::kShamir),
                       ::testing::Values(SmpcOp::kSum, SmpcOp::kProduct,
                                         SmpcOp::kMin, SmpcOp::kMax,
                                         SmpcOp::kUnion)));

TEST(ClusterTamper, MacCheckAborts) {
  SmpcConfig config;
  config.scheme = SmpcScheme::kFullThreshold;
  SmpcCluster cluster(config);
  std::vector<double> v = {1.5, -2.25, 3.0, 4.75};
  ASSERT_TRUE(cluster.ImportShares("t", v).ok());
  ASSERT_TRUE(cluster.ImportShares("t", v).ok());
  // Flip one limb of one node's share of one element.
  ASSERT_TRUE(cluster.TamperWithShare(1, "t", 0, 2, 99).ok());
  const Status st = cluster.Compute("t", SmpcOp::kSum);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kSecurityError);
}

}  // namespace
}  // namespace mip::smpc
