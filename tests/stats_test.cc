#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/rng.h"
#include "stats/distributions.h"
#include "stats/linalg.h"
#include "stats/matrix.h"
#include "stats/special.h"
#include "stats/summary.h"

namespace mip::stats {
namespace {

TEST(MatrixTest, BasicOps) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = *a.MatMul(b);
  EXPECT_EQ(c(0, 0), 19);
  EXPECT_EQ(c(0, 1), 22);
  EXPECT_EQ(c(1, 0), 43);
  EXPECT_EQ(c(1, 1), 50);

  Matrix t = a.Transpose();
  EXPECT_EQ(t(0, 1), 3);
  EXPECT_EQ(t(1, 0), 2);

  Matrix s = *a.Add(b);
  EXPECT_EQ(s(1, 1), 12);
  Matrix d = *b.Sub(a);
  EXPECT_EQ(d(0, 0), 4);
  EXPECT_EQ(a.Scale(2.0)(1, 0), 6);
}

TEST(MatrixTest, DimensionMismatchIsError) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_FALSE(a.MatMul(b).ok());
  Matrix c(4, 4);
  EXPECT_FALSE(a.Add(c).ok());
  EXPECT_FALSE(a.AddInPlace(c).ok());
}

TEST(MatrixTest, IdentityAndFlatten) {
  Matrix eye = Matrix::Identity(3);
  EXPECT_EQ(eye(1, 1), 1.0);
  EXPECT_EQ(eye(0, 1), 0.0);
  std::vector<double> flat = eye.Flatten();
  EXPECT_EQ(flat.size(), 9u);
  Matrix back = *Matrix::FromFlat(3, 3, flat);
  EXPECT_EQ(back.MaxAbsDiff(eye), 0.0);
  EXPECT_FALSE(Matrix::FromFlat(2, 2, flat).ok());
}

TEST(MatrixTest, MatVec) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  std::vector<double> x = {1, 0, -1};
  std::vector<double> y = *MatVec(a, x);
  EXPECT_EQ(y[0], -2);
  EXPECT_EQ(y[1], -2);
  EXPECT_FALSE(MatVec(a, {1, 2}).ok());
}

TEST(LinalgTest, CholeskySolveKnownSystem) {
  // SPD system with known solution.
  Matrix a = Matrix::FromRows({{4, 2}, {2, 3}});
  std::vector<double> x = *SolveSpd(a, {10, 8});
  EXPECT_NEAR(x[0], 1.75, 1e-12);
  EXPECT_NEAR(x[1], 1.5, 1e-12);
}

TEST(LinalgTest, CholeskyRejectsIndefinite) {
  Matrix a = Matrix::FromRows({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  EXPECT_FALSE(Cholesky(a).ok());
}

TEST(LinalgTest, InverseSpd) {
  Matrix a = Matrix::FromRows({{2, 1}, {1, 2}});
  Matrix inv = *InverseSpd(a);
  Matrix prod = *a.MatMul(inv);
  EXPECT_LT(prod.MaxAbsDiff(Matrix::Identity(2)), 1e-12);
}

TEST(LinalgTest, SolveGeneralWithPivoting) {
  // Requires row swaps (zero pivot in natural order).
  Matrix a = Matrix::FromRows({{0, 1}, {1, 0}});
  std::vector<double> x = *SolveGeneral(a, {3, 7});
  EXPECT_NEAR(x[0], 7, 1e-12);
  EXPECT_NEAR(x[1], 3, 1e-12);
  Matrix singular = Matrix::FromRows({{1, 2}, {2, 4}});
  EXPECT_FALSE(SolveGeneral(singular, {1, 1}).ok());
}

TEST(LinalgTest, EigenSymmetricKnown) {
  Matrix a = Matrix::FromRows({{2, 1}, {1, 2}});  // eigenvalues 3, 1
  EigenResult eig = *EigenSymmetric(a);
  EXPECT_NEAR(eig.eigenvalues[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.eigenvalues[1], 1.0, 1e-10);
  // Eigenvector columns are orthonormal and satisfy A v = lambda v.
  for (size_t k = 0; k < 2; ++k) {
    std::vector<double> v = eig.eigenvectors.Column(k);
    std::vector<double> av = *MatVec(a, v);
    for (size_t i = 0; i < 2; ++i) {
      EXPECT_NEAR(av[i], eig.eigenvalues[k] * v[i], 1e-10);
    }
    EXPECT_NEAR(Norm2(v), 1.0, 1e-10);
  }
}

TEST(LinalgTest, EigenRandomSpdReconstructs) {
  mip::Rng rng(11);
  const size_t n = 6;
  Matrix b(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) b(i, j) = rng.NextGaussian();
  }
  Matrix a = *b.Transpose().MatMul(b);  // SPD-ish (PSD)
  EigenResult eig = *EigenSymmetric(a);
  // Reconstruct A = V diag(lambda) V'.
  Matrix lambda(n, n);
  for (size_t i = 0; i < n; ++i) lambda(i, i) = eig.eigenvalues[i];
  Matrix recon = *(*eig.eigenvectors.MatMul(lambda))
                      .MatMul(eig.eigenvectors.Transpose());
  EXPECT_LT(recon.MaxAbsDiff(a), 1e-8);
}

TEST(LinalgTest, DeterminantSpd) {
  Matrix a = Matrix::FromRows({{4, 2}, {2, 3}});
  EXPECT_NEAR(*DeterminantSpd(a), 8.0, 1e-10);
}

TEST(SpecialTest, LogGammaMatchesFactorials) {
  EXPECT_NEAR(LogGamma(5.0), std::log(24.0), 1e-12);
  EXPECT_NEAR(LogGamma(1.0), 0.0, 1e-12);
  EXPECT_NEAR(LogGamma(0.5), 0.5 * std::log(M_PI), 1e-12);
}

TEST(SpecialTest, RegularizedGamma) {
  // P(1, x) = 1 - e^-x.
  for (double x : {0.1, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(RegularizedGammaP(1.0, x), 1.0 - std::exp(-x), 1e-10);
  }
  EXPECT_EQ(RegularizedGammaP(2.0, 0.0), 0.0);
}

TEST(SpecialTest, RegularizedBetaSymmetry) {
  // I_x(a, b) = 1 - I_{1-x}(b, a).
  for (double x : {0.1, 0.35, 0.5, 0.8}) {
    EXPECT_NEAR(RegularizedBeta(x, 2.0, 5.0),
                1.0 - RegularizedBeta(1.0 - x, 5.0, 2.0), 1e-10);
  }
  // I_x(1, 1) = x.
  EXPECT_NEAR(RegularizedBeta(0.3, 1.0, 1.0), 0.3, 1e-12);
}

TEST(SpecialTest, NormalQuantileInvertsCdf) {
  for (double p : {0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999}) {
    EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-9);
  }
  EXPECT_NEAR(NormalQuantile(0.975), 1.959963985, 1e-6);
}

TEST(DistributionsTest, NormalCdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.9750021, 1e-6);
  EXPECT_NEAR(NormalCdf(-1.0), 0.15865525, 1e-7);
  EXPECT_NEAR(NormalCdf(10.0, 10.0, 2.0), 0.5, 1e-12);
}

TEST(DistributionsTest, StudentTKnownValues) {
  // t distribution with large df approaches normal.
  EXPECT_NEAR(StudentTCdf(1.96, 1e7), NormalCdf(1.96), 1e-4);
  // Known: P(T_10 <= 2.228) ~= 0.975.
  EXPECT_NEAR(StudentTCdf(2.228, 10), 0.975, 1e-4);
  EXPECT_NEAR(StudentTTwoSidedP(2.228, 10), 0.05, 1e-3);
  EXPECT_NEAR(StudentTQuantile(0.975, 10), 2.228, 2e-3);
}

TEST(DistributionsTest, ChiSquaredKnownValues) {
  // Known: P(chi2_1 <= 3.841) ~= 0.95.
  EXPECT_NEAR(ChiSquaredCdf(3.841, 1), 0.95, 1e-3);
  EXPECT_NEAR(ChiSquaredCdf(5.991, 2), 0.95, 1e-3);
  EXPECT_NEAR(ChiSquaredSf(0.0, 3), 1.0, 1e-12);
}

TEST(DistributionsTest, FKnownValues) {
  // Known: P(F_{2,10} <= 4.103) ~= 0.95.
  EXPECT_NEAR(FCdf(4.103, 2, 10), 0.95, 1e-3);
  EXPECT_NEAR(FSf(4.103, 2, 10), 0.05, 1e-3);
}

TEST(SummaryTest, MatchesDirectComputation) {
  SummaryAccumulator acc;
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 100.0};
  for (double x : xs) acc.Add(x);
  EXPECT_EQ(acc.count(), 5);
  EXPECT_NEAR(acc.mean(), 22.0, 1e-12);
  EXPECT_NEAR(acc.variance(), 1902.5, 1e-9);
  EXPECT_EQ(acc.min(), 1.0);
  EXPECT_EQ(acc.max(), 100.0);
}

TEST(SummaryTest, NanCountsAsMissing) {
  SummaryAccumulator acc;
  acc.Add(1.0);
  acc.Add(std::nan(""));
  acc.AddMissing();
  EXPECT_EQ(acc.count(), 1);
  EXPECT_EQ(acc.na_count(), 2);
  EXPECT_EQ(acc.total(), 3);
}

TEST(SummaryTest, RoundTripVector) {
  SummaryAccumulator acc;
  for (double x : {3.0, 1.0, 4.0, 1.0, 5.0}) acc.Add(x);
  SummaryAccumulator back = SummaryAccumulator::FromVector(acc.ToVector());
  EXPECT_EQ(back.count(), acc.count());
  EXPECT_DOUBLE_EQ(back.mean(), acc.mean());
  EXPECT_DOUBLE_EQ(back.variance(), acc.variance());
}

// Property: merging partitioned accumulators reproduces the pooled moments
// exactly — the core federated-descriptives invariant.
class SummaryMergeProperty : public ::testing::TestWithParam<int> {};

TEST_P(SummaryMergeProperty, MergeEqualsPooled) {
  mip::Rng rng(1000 + GetParam());
  const int parts = 1 + GetParam() % 7;
  SummaryAccumulator pooled;
  std::vector<SummaryAccumulator> shards(parts);
  const int n = 50 + GetParam() * 13;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian(5.0, 20.0);
    pooled.Add(x);
    shards[rng.NextBounded(parts)].Add(x);
  }
  SummaryAccumulator merged;
  for (const auto& s : shards) merged.Merge(s);
  EXPECT_EQ(merged.count(), pooled.count());
  EXPECT_NEAR(merged.mean(), pooled.mean(), 1e-9);
  EXPECT_NEAR(merged.variance(), pooled.variance(), 1e-8);
  EXPECT_EQ(merged.min(), pooled.min());
  EXPECT_EQ(merged.max(), pooled.max());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SummaryMergeProperty,
                         ::testing::Range(0, 20));

TEST(QuantileTest, KnownQuartiles) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.25), 2);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 3);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 5);
  EXPECT_DOUBLE_EQ(Quantile({1, 2}, 0.5), 1.5);  // interpolation
}

TEST(QuantileTest, IgnoresNans) {
  EXPECT_DOUBLE_EQ(Quantile({std::nan(""), 2.0, std::nan(""), 4.0}, 0.5),
                   3.0);
  EXPECT_TRUE(std::isnan(Quantile({}, 0.5)));
}

// A sort-based reference quantile: sort a NaN-free copy (with -0.0 before
// +0.0, the order Quantile documents) and interpolate.
double SortedCopyQuantile(std::vector<double> values, double q) {
  values.erase(std::remove_if(values.begin(), values.end(),
                              [](double x) { return std::isnan(x); }),
               values.end());
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end(), [](double a, double b) {
    return a < b || (a == b && std::signbit(a) && !std::signbit(b));
  });
  if (q <= 0.0) return values.front();
  if (q >= 1.0) return values.back();
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

TEST(QuantileTest, SelectionEqualsSortedCopyBitForBit) {
  const std::vector<double> qs = {0.0, 0.25, 0.5, 0.75, 1.0};
  Rng rng(4242);
  std::vector<size_t> sizes = {1, 2, 3, 4, 5, 6, 7, 8, 9, 20000};
  for (int round = 0; round < 40; ++round) {
    for (size_t n : sizes) {
      // Few distinct values (many duplicates), both signed zeros, an
      // occasional infinity and NaN.
      std::vector<double> values(n);
      for (double& v : values) {
        const double u = rng.NextDouble();
        if (u < 0.15) {
          v = 0.0;
        } else if (u < 0.3) {
          v = -0.0;
        } else if (u < 0.33) {
          v = std::nan("");
        } else if (u < 0.35) {
          v = (round % 2 == 0 ? 1 : -1) *
              std::numeric_limits<double>::infinity();
        } else if (round % 2 == 0) {
          v = std::round(rng.NextGaussian(0, 2));
        } else {
          v = rng.NextGaussian(0, 2);
        }
      }
      const std::vector<double> together = Quantiles(values, qs);
      ASSERT_EQ(together.size(), qs.size());
      for (size_t i = 0; i < qs.size(); ++i) {
        const double want = SortedCopyQuantile(values, qs[i]);
        const double got = Quantile(values, qs[i]);
        EXPECT_EQ(Bits(got), Bits(want))
            << "n=" << n << " q=" << qs[i] << " got=" << got
            << " want=" << want;
        EXPECT_EQ(Bits(together[i]), Bits(want))
            << "n=" << n << " q=" << qs[i];
      }
    }
  }
}

TEST(QuantileTest, QuartilesFromOneCopyMatchOneAtATime) {
  const std::vector<double> xs = {7, -0.0, 3, 3, 0.0, 9, 1, 3};
  const std::vector<double> qs = {0.25, 0.5, 0.75};
  const std::vector<double> got = Quantiles(xs, qs);
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(Bits(got[i]), Bits(Quantile(xs, qs[i])));
  }
  EXPECT_DOUBLE_EQ(got[0], 0.75);
  EXPECT_DOUBLE_EQ(got[1], 3.0);
  EXPECT_DOUBLE_EQ(got[2], 4.0);
  EXPECT_TRUE(std::signbit(Quantile(xs, 0.0)));
  for (double q : Quantiles({}, qs)) EXPECT_TRUE(std::isnan(q));
}

}  // namespace
}  // namespace mip::stats
