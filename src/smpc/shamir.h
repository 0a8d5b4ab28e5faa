#ifndef MIP_SMPC_SHAMIR_H_
#define MIP_SMPC_SHAMIR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "smpc/field_vec.h"

namespace mip::smpc {

/// \brief Shamir (t, n) secret sharing over F_p.
///
/// Party i (0-based) receives the evaluation of a random degree-t polynomial
/// at x = i + 1; any t+1 shares reconstruct, any t shares are uniformly
/// random. This is MIP's fast scheme, secure against honest-but-curious
/// adversaries with t < n/2 (no MACs — tampering is NOT detected, which the
/// security tests demonstrate as the contrast to full-threshold SPDZ).
class ShamirScheme {
 public:
  /// `threshold` is the polynomial degree t; reconstruction needs t+1
  /// shares. Requires 0 <= t < n.
  ShamirScheme(int threshold, int num_parties);

  int threshold() const { return threshold_; }
  int num_parties() const { return num_parties_; }

  /// Shares one secret: element i of the result goes to party i.
  std::vector<uint64_t> Share(uint64_t secret, Rng* rng) const;

  /// Shares a vector (party-major result). Scalar reference: one Share call
  /// per element.
  std::vector<std::vector<uint64_t>> ShareVector(
      const std::vector<uint64_t>& secrets, Rng* rng) const;

  /// Batched sharing: bit-identical to ShareVector for the same Rng state.
  /// Coefficients come from one bulk draw (scalar draw order), then each
  /// party's shares are one vectorized Horner sweep over all elements.
  std::vector<std::vector<uint64_t>> ShareVectorBatch(
      const std::vector<uint64_t>& secrets, Rng* rng,
      const VecExec& exec = {}) const;

  /// Reconstructs from (party_index, share) pairs. Needs at least t+1
  /// distinct parties.
  Result<uint64_t> Reconstruct(
      const std::vector<std::pair<int, uint64_t>>& shares) const;

  /// Reconstructs a full party-major share matrix using all n parties.
  Result<std::vector<uint64_t>> ReconstructVector(
      const std::vector<std::vector<uint64_t>>& shares) const;

  /// Batched reconstruction: bit-identical to ReconstructVector, Lagrange
  /// recombination done with MulScalarAccumVec sweeps per party.
  Result<std::vector<uint64_t>> ReconstructVectorBatch(
      const std::vector<std::vector<uint64_t>>& shares,
      const VecExec& exec = {}) const;

  /// Degree reduction after a local share product: each party re-shares its
  /// local product share, and the new shares are recombined with Lagrange
  /// weights — the classic BGW multiplication step (one communication
  /// round). Input/output are party-major matrices of share vectors.
  Result<std::vector<std::vector<uint64_t>>> MultiplyReshare(
      const std::vector<std::vector<uint64_t>>& x,
      const std::vector<std::vector<uint64_t>>& y, Rng* rng) const;

  /// Batched BGW multiplication: bit-identical to MultiplyReshare for the
  /// same Rng state (resharing coefficients are drawn in the scalar
  /// element-major, party-minor order, then consumed by vector kernels).
  Result<std::vector<std::vector<uint64_t>>> MultiplyReshareBatch(
      const std::vector<std::vector<uint64_t>>& x,
      const std::vector<std::vector<uint64_t>>& y, Rng* rng,
      const VecExec& exec = {}) const;

 private:
  int threshold_;
  int num_parties_;
  std::vector<uint64_t> lagrange_full_;  // precomputed for the full set
};

}  // namespace mip::smpc

#endif  // MIP_SMPC_SHAMIR_H_
