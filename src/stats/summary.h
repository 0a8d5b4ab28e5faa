#ifndef MIP_STATS_SUMMARY_H_
#define MIP_STATS_SUMMARY_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace mip::stats {

/// \brief Mergeable univariate summary accumulator.
///
/// Implements the classic federated pattern: each Worker folds its local rows
/// into a SummaryAccumulator, ships the (constant-size) state to the Master,
/// and the Master Merge()s the states. The merged state reproduces exactly
/// the moments the pooled data would give (Chan et al. parallel variance).
class SummaryAccumulator {
 public:
  /// Folds one observation; NaN counts as missing (NA).
  void Add(double x);

  /// Folds a missing value explicitly.
  void AddMissing() { ++na_; }

  /// Merges another accumulator's state into this one.
  void Merge(const SummaryAccumulator& other);

  int64_t count() const { return n_; }
  int64_t na_count() const { return na_; }
  /// count + na (total rows seen).
  int64_t total() const { return n_ + na_; }
  double mean() const { return n_ > 0 ? mean_ : std::numeric_limits<double>::quiet_NaN(); }
  /// Sample variance (n - 1 denominator).
  double variance() const;
  double stddev() const;
  /// Standard error of the mean.
  double standard_error() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(n_); }

  /// Serialization to a flat vector [n, na, mean, m2, min, max] — this is the
  /// aggregate MIP ships through SMPC (all entries are sums/extrema, which
  /// the SMPC engine supports natively).
  std::vector<double> ToVector() const;
  static SummaryAccumulator FromVector(const std::vector<double>& v);

 private:
  int64_t n_ = 0;
  int64_t na_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// \brief Exact quantile of a sample (linear interpolation, type-7 like
/// NumPy default). `q` in [0, 1]; NaNs are dropped, and an empty sample
/// gives NaN. Selects on a copy (no sort); -0.0 orders before +0.0.
double Quantile(std::vector<double> values, double q);

/// Quantile() at each of `qs`, which must be ascending, from one copy:
/// each quantile selects only within the part above the previous one.
std::vector<double> Quantiles(std::vector<double> values,
                              const std::vector<double>& qs);

/// \brief The row set of the MIP dashboard's "Descriptive Analysis" panel
/// for a single variable in a single dataset (Figure 3).
struct DescriptiveRow {
  std::string variable;
  std::string dataset;
  int64_t datapoints = 0;  ///< non-missing count
  int64_t na = 0;          ///< missing count
  double se = 0.0;         ///< standard error of the mean
  double mean = 0.0;
  double min = 0.0;
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
  double max = 0.0;
};

}  // namespace mip::stats

#endif  // MIP_STATS_SUMMARY_H_
