#include "smpc/shamir.h"

#include <cassert>
#include <set>

#include "smpc/field.h"

namespace mip::smpc {

namespace {

// Evaluates a polynomial (coefficients low-to-high) at x via Horner.
uint64_t EvalPoly(const std::vector<uint64_t>& coeffs, uint64_t x) {
  uint64_t acc = 0;
  for (size_t i = coeffs.size(); i > 0; --i) {
    acc = Field::Add(Field::Mul(acc, x), coeffs[i - 1]);
  }
  return acc;
}

}  // namespace

ShamirScheme::ShamirScheme(int threshold, int num_parties)
    : threshold_(threshold), num_parties_(num_parties) {
  assert(threshold_ >= 0 && threshold_ < num_parties_);
  lagrange_full_.resize(static_cast<size_t>(num_parties_));
  for (int i = 0; i < num_parties_; ++i) {
    const uint64_t xi = static_cast<uint64_t>(i + 1);
    uint64_t num = 1;
    uint64_t den = 1;
    for (int j = 0; j < num_parties_; ++j) {
      if (j == i) continue;
      const uint64_t xj = static_cast<uint64_t>(j + 1);
      num = Field::Mul(num, xj);
      den = Field::Mul(den, Field::Sub(xj, xi));
    }
    lagrange_full_[static_cast<size_t>(i)] =
        Field::Mul(num, Field::Inv(den));
  }
}

std::vector<uint64_t> ShamirScheme::Share(uint64_t secret, Rng* rng) const {
  std::vector<uint64_t> coeffs(static_cast<size_t>(threshold_) + 1);
  coeffs[0] = Field::Reduce(secret);
  for (int d = 1; d <= threshold_; ++d) {
    coeffs[static_cast<size_t>(d)] = Field::Random(rng);
  }
  std::vector<uint64_t> shares(static_cast<size_t>(num_parties_));
  for (int i = 0; i < num_parties_; ++i) {
    shares[static_cast<size_t>(i)] =
        EvalPoly(coeffs, static_cast<uint64_t>(i + 1));
  }
  return shares;
}

std::vector<std::vector<uint64_t>> ShamirScheme::ShareVector(
    const std::vector<uint64_t>& secrets, Rng* rng) const {
  std::vector<std::vector<uint64_t>> out(
      static_cast<size_t>(num_parties_),
      std::vector<uint64_t>(secrets.size()));
  for (size_t e = 0; e < secrets.size(); ++e) {
    std::vector<uint64_t> shares = Share(secrets[e], rng);
    for (int p = 0; p < num_parties_; ++p) {
      out[static_cast<size_t>(p)][e] = shares[static_cast<size_t>(p)];
    }
  }
  return out;
}

std::vector<std::vector<uint64_t>> ShamirScheme::ShareVectorBatch(
    const std::vector<uint64_t>& secrets, Rng* rng,
    const VecExec& exec) const {
  const size_t n = secrets.size();
  const size_t np = static_cast<size_t>(num_parties_);
  const size_t t = static_cast<size_t>(threshold_);
  // Scalar draw order: per element, coefficients 1..t. One bulk draw with
  // coeff(e, d) = rand[e * t + (d - 1)] reproduces it exactly.
  std::vector<uint64_t> rand(n * t);
  Field::RandomVec(rand.data(), rand.size(), rng);
  std::vector<std::vector<uint64_t>> out(np, std::vector<uint64_t>(n));
  ParallelSpan(n, exec, [&](size_t b, size_t end) {
    const size_t len = end - b;
    // Transpose this chunk's coefficients to degree-major contiguous rows
    // so each Horner step is a sweep over contiguous spans.
    std::vector<uint64_t> coef((t + 1) * len);
    field_vec::ReduceVec(secrets.data() + b, len, coef.data());  // c0
    for (size_t d = 1; d <= t; ++d) {
      uint64_t* row = coef.data() + d * len;
      for (size_t e = 0; e < len; ++e) row[e] = rand[(b + e) * t + (d - 1)];
    }
    std::vector<uint64_t> acc(len);
    for (size_t p = 0; p < np; ++p) {
      const uint64_t x = static_cast<uint64_t>(p + 1);
      // EvalPoly starts acc = 0; the first step yields the top coefficient.
      std::copy(coef.begin() + static_cast<long>(t * len),
                coef.begin() + static_cast<long>((t + 1) * len), acc.begin());
      for (size_t d = t; d-- > 0;) {
        field_vec::HornerStepVec(acc.data(), x, coef.data() + d * len, len);
      }
      std::copy(acc.begin(), acc.end(), out[p].begin() + static_cast<long>(b));
    }
  });
  return out;
}

Result<uint64_t> ShamirScheme::Reconstruct(
    const std::vector<std::pair<int, uint64_t>>& shares) const {
  if (static_cast<int>(shares.size()) < threshold_ + 1) {
    return Status::SecurityError(
        "Shamir reconstruction needs at least t+1 = " +
        std::to_string(threshold_ + 1) + " shares, got " +
        std::to_string(shares.size()));
  }
  std::set<int> seen;
  for (const auto& [p, s] : shares) {
    if (p < 0 || p >= num_parties_) {
      return Status::InvalidArgument("bad party index in reconstruction");
    }
    if (!seen.insert(p).second) {
      return Status::InvalidArgument("duplicate party in reconstruction");
    }
  }
  // Lagrange interpolation at x = 0 over exactly the provided subset.
  uint64_t secret = 0;
  for (size_t i = 0; i < shares.size(); ++i) {
    const uint64_t xi = static_cast<uint64_t>(shares[i].first + 1);
    uint64_t num = 1;
    uint64_t den = 1;
    for (size_t j = 0; j < shares.size(); ++j) {
      if (j == i) continue;
      const uint64_t xj = static_cast<uint64_t>(shares[j].first + 1);
      num = Field::Mul(num, xj);
      den = Field::Mul(den, Field::Sub(xj, xi));
    }
    const uint64_t lambda = Field::Mul(num, Field::Inv(den));
    secret = Field::Add(secret, Field::Mul(lambda, shares[i].second));
  }
  return secret;
}

Result<std::vector<uint64_t>> ShamirScheme::ReconstructVector(
    const std::vector<std::vector<uint64_t>>& shares) const {
  if (static_cast<int>(shares.size()) != num_parties_) {
    return Status::InvalidArgument("expected one share vector per party");
  }
  const size_t n_elems = shares.empty() ? 0 : shares[0].size();
  std::vector<uint64_t> out(n_elems, 0);
  for (size_t e = 0; e < n_elems; ++e) {
    uint64_t secret = 0;
    for (int p = 0; p < num_parties_; ++p) {
      secret = Field::Add(
          secret, Field::Mul(lagrange_full_[static_cast<size_t>(p)],
                             shares[static_cast<size_t>(p)][e]));
    }
    out[e] = secret;
  }
  return out;
}

Result<std::vector<uint64_t>> ShamirScheme::ReconstructVectorBatch(
    const std::vector<std::vector<uint64_t>>& shares,
    const VecExec& exec) const {
  if (static_cast<int>(shares.size()) != num_parties_) {
    return Status::InvalidArgument("expected one share vector per party");
  }
  const size_t n = shares.empty() ? 0 : shares[0].size();
  std::vector<uint64_t> out(n, 0);
  ParallelSpan(n, exec, [&](size_t b, size_t end) {
    const size_t len = end - b;
    for (int p = 0; p < num_parties_; ++p) {
      field_vec::MulScalarAccumVec(lagrange_full_[static_cast<size_t>(p)],
                                   shares[static_cast<size_t>(p)].data() + b,
                                   len, out.data() + b);
    }
  });
  return out;
}

Result<std::vector<std::vector<uint64_t>>> ShamirScheme::MultiplyReshare(
    const std::vector<std::vector<uint64_t>>& x,
    const std::vector<std::vector<uint64_t>>& y, Rng* rng) const {
  if (2 * threshold_ >= num_parties_) {
    return Status::SecurityError(
        "Shamir multiplication requires 2t < n (degree reduction)");
  }
  if (x.size() != static_cast<size_t>(num_parties_) || x.size() != y.size()) {
    return Status::InvalidArgument("party count mismatch");
  }
  const size_t n_elems = x[0].size();
  // Each party computes its local product share (degree 2t polynomial
  // evaluation) and re-shares it with a fresh degree-t polynomial; the new
  // share of the product for party j is the Lagrange-weighted sum of the
  // re-shares it received.
  std::vector<std::vector<uint64_t>> out(
      static_cast<size_t>(num_parties_), std::vector<uint64_t>(n_elems, 0));
  // Lagrange weights for interpolating a degree-2t polynomial at 0 from all
  // n points — we reuse the full-set weights (valid because 2t < n).
  for (size_t e = 0; e < n_elems; ++e) {
    for (int p = 0; p < num_parties_; ++p) {
      const uint64_t local_prod = Field::Mul(
          x[static_cast<size_t>(p)][e], y[static_cast<size_t>(p)][e]);
      // Re-share local_prod.
      std::vector<uint64_t> resh = Share(local_prod, rng);
      const uint64_t lambda = lagrange_full_[static_cast<size_t>(p)];
      for (int q = 0; q < num_parties_; ++q) {
        out[static_cast<size_t>(q)][e] = Field::Add(
            out[static_cast<size_t>(q)][e],
            Field::Mul(lambda, resh[static_cast<size_t>(q)]));
      }
    }
  }
  return out;
}

Result<std::vector<std::vector<uint64_t>>> ShamirScheme::MultiplyReshareBatch(
    const std::vector<std::vector<uint64_t>>& x,
    const std::vector<std::vector<uint64_t>>& y, Rng* rng,
    const VecExec& exec) const {
  if (2 * threshold_ >= num_parties_) {
    return Status::SecurityError(
        "Shamir multiplication requires 2t < n (degree reduction)");
  }
  if (x.size() != static_cast<size_t>(num_parties_) || x.size() != y.size()) {
    return Status::InvalidArgument("party count mismatch");
  }
  const size_t n = x[0].size();
  const size_t np = static_cast<size_t>(num_parties_);
  const size_t t = static_cast<size_t>(threshold_);
  // Scalar draw order: element-major, party-minor, t coefficients per
  // re-sharing — coeff(e, p, d) = rand[(e * np + p) * t + (d - 1)].
  std::vector<uint64_t> rand(n * np * t);
  Field::RandomVec(rand.data(), rand.size(), rng);
  std::vector<std::vector<uint64_t>> out(np, std::vector<uint64_t>(n, 0));
  ParallelSpan(n, exec, [&](size_t b, size_t end) {
    const size_t len = end - b;
    std::vector<uint64_t> coef((t + 1) * len);
    std::vector<uint64_t> acc(len);
    for (size_t p = 0; p < np; ++p) {
      // c0 = this party's local product shares for the chunk.
      field_vec::MulVec(x[p].data() + b, y[p].data() + b, len, coef.data());
      for (size_t d = 1; d <= t; ++d) {
        uint64_t* row = coef.data() + d * len;
        for (size_t e = 0; e < len; ++e) {
          row[e] = rand[((b + e) * np + p) * t + (d - 1)];
        }
      }
      const uint64_t lambda = lagrange_full_[p];
      for (size_t q = 0; q < np; ++q) {
        const uint64_t xq = static_cast<uint64_t>(q + 1);
        std::copy(coef.begin() + static_cast<long>(t * len),
                  coef.begin() + static_cast<long>((t + 1) * len),
                  acc.begin());
        for (size_t d = t; d-- > 0;) {
          field_vec::HornerStepVec(acc.data(), xq, coef.data() + d * len, len);
        }
        field_vec::MulScalarAccumVec(lambda, acc.data(), len,
                                     out[q].data() + b);
      }
    }
  });
  return out;
}

}  // namespace mip::smpc
