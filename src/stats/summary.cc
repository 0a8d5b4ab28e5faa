#include "stats/summary.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace mip::stats {

void SummaryAccumulator::Add(double x) {
  if (std::isnan(x)) {
    ++na_;
    return;
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void SummaryAccumulator::Merge(const SummaryAccumulator& other) {
  na_ += other.na_;
  if (other.n_ == 0) return;
  if (n_ == 0) {
    n_ = other.n_;
    mean_ = other.mean_;
    m2_ = other.m2_;
    min_ = other.min_;
    max_ = other.max_;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n_tot = na + nb;
  mean_ += delta * nb / n_tot;
  m2_ += other.m2_ + delta * delta * na * nb / n_tot;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double SummaryAccumulator::variance() const {
  if (n_ < 2) return std::numeric_limits<double>::quiet_NaN();
  return m2_ / static_cast<double>(n_ - 1);
}

double SummaryAccumulator::stddev() const { return std::sqrt(variance()); }

double SummaryAccumulator::standard_error() const {
  if (n_ < 2) return std::numeric_limits<double>::quiet_NaN();
  return stddev() / std::sqrt(static_cast<double>(n_));
}

std::vector<double> SummaryAccumulator::ToVector() const {
  return {static_cast<double>(n_), static_cast<double>(na_), mean_, m2_,
          min_,                    max_};
}

SummaryAccumulator SummaryAccumulator::FromVector(
    const std::vector<double>& v) {
  SummaryAccumulator acc;
  if (v.size() != 6) return acc;
  acc.n_ = static_cast<int64_t>(v[0]);
  acc.na_ = static_cast<int64_t>(v[1]);
  acc.mean_ = v[2];
  acc.m2_ = v[3];
  acc.min_ = v[4];
  acc.max_ = v[5];
  return acc;
}

namespace {

/// Strict weak order on non-NaN doubles that is total on their bits:
/// -0.0 sorts before +0.0, so an order statistic is one exact value
/// whichever algorithm finds it.
bool Before(double a, double b) {
  return a < b || (a == b && std::signbit(a) && !std::signbit(b));
}

}  // namespace

std::vector<double> Quantiles(std::vector<double> values,
                              const std::vector<double>& qs) {
  values.erase(std::remove_if(values.begin(), values.end(),
                              [](double x) { return std::isnan(x); }),
               values.end());
  const size_t n = values.size();
  // The k-th smallest value, found by selection. Ranks are asked for in
  // nondecreasing order, so every rank below `cut` that was asked for is
  // already in place and [cut, n) holds the larger values.
  size_t cut = 0;
  auto at = [&values, &cut](size_t k) {
    if (k >= cut) {
      const auto kth = values.begin() + static_cast<std::ptrdiff_t>(k);
      if (k == cut) {
        // The next rank up is the minimum of the partition above.
        std::iter_swap(kth, std::min_element(kth, values.end(), Before));
      } else {
        std::nth_element(values.begin() + static_cast<std::ptrdiff_t>(cut),
                         kth, values.end(), Before);
      }
      cut = k + 1;
    }
    return values[k];
  };
  std::vector<double> out;
  out.reserve(qs.size());
  for (double q : qs) {
    double v = std::numeric_limits<double>::quiet_NaN();
    if (n == 0) {
      // No values: NaN.
    } else if (q <= 0.0) {
      v = at(0);
    } else if (q >= 1.0) {
      v = at(n - 1);
    } else {
      const double pos = q * static_cast<double>(n - 1);
      const size_t lo = static_cast<size_t>(pos);
      const double frac = pos - static_cast<double>(lo);
      if (lo + 1 >= n) {
        v = at(n - 1);
      } else {
        const double below = at(lo);  // the lower rank is placed first
        v = below * (1.0 - frac) + at(lo + 1) * frac;
      }
    }
    out.push_back(v);
  }
  return out;
}

double Quantile(std::vector<double> values, double q) {
  return Quantiles(std::move(values), {q})[0];
}

}  // namespace mip::stats
