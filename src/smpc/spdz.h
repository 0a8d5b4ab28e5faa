#ifndef MIP_SMPC_SPDZ_H_
#define MIP_SMPC_SPDZ_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "smpc/field_vec.h"

namespace mip::smpc {

/// \brief One party's authenticated additive share: a value share plus an
/// information-theoretic MAC share (SPDZ).
///
/// For a secret x, the parties hold value shares x_i with sum x, and MAC
/// shares m_i with sum alpha * x, where alpha is the global MAC key (itself
/// additively shared, never reconstructed). Any additive tampering with a
/// share is caught by the MAC check at opening time — this is the "full
/// threshold, secure with abort against an active majority" mode of the
/// paper.
struct SpdzShare {
  uint64_t value = 0;
  uint64_t mac = 0;
};

/// A full sharing: outer index = party, inner = element.
using SpdzSharedVector = std::vector<std::vector<SpdzShare>>;

/// \brief One party's authenticated sharing of a vector, structure-of-arrays:
/// parallel value/MAC limb arrays. This is the batched hot-path layout —
/// contiguous limbs feed the field_vec kernels directly and a vector of n
/// elements costs two allocations instead of n struct copies.
struct SpdzVec {
  std::vector<uint64_t> values;
  std::vector<uint64_t> macs;

  size_t size() const { return values.size(); }
  void resize(size_t n) {
    values.resize(n);
    macs.resize(n);
  }
};

/// Party-major SoA share matrix: matrix[p] is party p's SpdzVec.
using SpdzMatrix = std::vector<SpdzVec>;

/// \brief A Beaver multiplication triple (a, b, c = a*b), shared per party.
struct SpdzTriple {
  SpdzShare a;
  SpdzShare b;
  SpdzShare c;
};

/// \brief A block of Beaver triples in SoA form: a/b/c are party-major share
/// matrices with one element per triple. The dealer's batched offline phase
/// emits these; the batched Beaver path consumes them without ever
/// materializing per-triple objects.
struct SpdzTripleBlock {
  SpdzMatrix a;
  SpdzMatrix b;
  SpdzMatrix c;

  size_t size() const { return a.empty() ? 0 : a[0].size(); }
};

/// AoS -> SoA conversion (tests compare the scalar reference dealer against
/// the batched one through it; the hot path stays SoA throughout).
SpdzMatrix ToMatrix(const SpdzSharedVector& shares);

/// \brief Simulated SPDZ offline phase.
///
/// Real SPDZ generates MACed shares and Beaver triples with somewhat
/// homomorphic encryption / OT (MASCOT) among the parties themselves; this
/// repo simulates that preprocessing with a dealer so the online protocol —
/// the part the paper's latency claims are about — is exercised faithfully.
/// The dealer's alpha never enters the online path except inside MacCheck's
/// distributed verification identity.
///
/// Every batched method consumes the dealer Rng in exactly the order its
/// scalar counterpart would (one bulk draw, then index mapping), so for the
/// same seed the batched and scalar paths emit bit-identical shares and
/// triples — the property tests pin this.
class SpdzDealer {
 public:
  SpdzDealer(int num_parties, uint64_t seed);

  int num_parties() const { return num_parties_; }
  const std::vector<uint64_t>& alpha_shares() const { return alpha_shares_; }

  /// Authenticated sharing of a public/plaintext field element.
  std::vector<SpdzShare> ShareValue(uint64_t x);

  /// Authenticated sharing of a vector (party-major result). Scalar
  /// reference: one ShareValue per element.
  SpdzSharedVector ShareVector(const std::vector<uint64_t>& xs);

  /// Batched sharing: bit-identical to ShareVector for the same Rng state,
  /// but draws all randomness in one bulk fill and computes the closing
  /// party's shares with the field_vec kernels (morsel-parallel via `exec`).
  SpdzMatrix ShareVectorBatch(const std::vector<uint64_t>& xs,
                              const VecExec& exec = {});

  /// One Beaver triple (per-party shares). Scalar reference.
  std::vector<SpdzTriple> MakeTriple();

  /// Batched triple generation: bit-identical to `count` MakeTriple calls
  /// for the same Rng state.
  SpdzTripleBlock MakeTriples(size_t count);

  /// Pre-generates `count` triples into the pool (the offline phase),
  /// using the batched generator.
  void PrecomputeTriples(size_t count);

  /// Scalar ablation of PrecomputeTriples: same pool contents for the same
  /// seed, one MakeTriple call per triple. Kept callable so the offline
  /// benchmark can report the batching speedup from a single binary.
  void PrecomputeTriplesScalar(size_t count);

  /// Pops one triple; falls back to on-demand generation (counted
  /// separately so benchmarks can report the offline-phase benefit).
  std::vector<SpdzTriple> TakeTriple();

  /// Takes `count` triples as a block — element e is exactly the triple the
  /// e-th of `count` successive TakeTriple calls would return (LIFO pops
  /// from the pool, then batch-generated on demand).
  SpdzTripleBlock TakeTriples(size_t count);

  size_t pool_size() const { return pool_.size(); }
  size_t triples_precomputed() const { return triples_precomputed_; }
  size_t triples_generated_online() const { return triples_online_; }

  /// `n` independent shared positive blinding factors, each uniform in
  /// [1, 2^bits), for the comparison protocol. All bounded randoms are
  /// drawn before any is shared.
  SpdzMatrix SharePositiveRandomVec(int bits, size_t n,
                                    const VecExec& exec = {});

 private:
  /// Appends `count` fresh triples to `blk`'s columns in place (morsel
  /// streaming). Reusing a block's retained capacity keeps steady-state
  /// refills in warm memory.
  void GenerateTriplesInto(SpdzTripleBlock* blk, size_t count);

  int num_parties_;
  Rng rng_;
  uint64_t alpha_;
  std::vector<uint64_t> alpha_shares_;
  /// SoA triple pool, consumed LIFO from the back. Batched and scalar
  /// precompute fill it with identical contents for the same seed.
  SpdzTripleBlock pool_;
  size_t triples_precomputed_ = 0;
  size_t triples_online_ = 0;
};

/// \brief Online-phase SPDZ operations over per-party shares.
class Spdz {
 public:
  /// z_i = x_i + y_i (local, no communication).
  static SpdzShare Add(const SpdzShare& x, const SpdzShare& y) {
    return {AddF(x.value, y.value), AddF(x.mac, y.mac)};
  }

  /// z_i = x_i - y_i (local).
  static SpdzShare Sub(const SpdzShare& x, const SpdzShare& y);

  /// Adds a public constant c: party 0 adjusts its value share, every party
  /// adjusts its MAC share with alpha_i * c.
  static SpdzShare AddPublic(const SpdzShare& x, uint64_t c, int party,
                             uint64_t alpha_share);

  /// Multiplies by a public constant (local).
  static SpdzShare MulPublic(const SpdzShare& x, uint64_t c);

  /// Opens a sharing with the SPDZ MAC check. `shares[i]` is party i's
  /// share. Fails with SecurityError ("abort") if the MAC identity does not
  /// hold — i.e. some party tampered with a share.
  static Result<uint64_t> Open(const std::vector<SpdzShare>& shares,
                               const std::vector<uint64_t>& alpha_shares);

  /// Batched open over a party-major SoA matrix: element e of `*out` is
  /// bit-identical to Open() of the per-party shares of element e, and the
  /// MAC check covers every element (SecurityError if any fails).
  static Status OpenVec(const SpdzMatrix& shares,
                        const std::vector<uint64_t>& alpha_shares,
                        const VecExec& exec, std::vector<uint64_t>* out);

  /// Beaver multiplication: given sharings of x and y and a triple, returns
  /// the product sharing. Opens x - a and y - b (2 field elements of
  /// communication per party). The openings are themselves MAC-checked.
  static Result<std::vector<SpdzShare>> Multiply(
      const std::vector<SpdzShare>& x, const std::vector<SpdzShare>& y,
      const std::vector<SpdzTriple>& triple,
      const std::vector<uint64_t>& alpha_shares);

  /// Batched elementwise Beaver multiplication over SoA matrices with a
  /// triple block. Element e of `*out` is bit-identical to Multiply() on
  /// element e with triple block element e.
  static Status MultiplyVec(const SpdzMatrix& x, const SpdzMatrix& y,
                            const SpdzTripleBlock& triples,
                            const std::vector<uint64_t>& alpha_shares,
                            const VecExec& exec, SpdzMatrix* out);

 private:
  static uint64_t AddF(uint64_t a, uint64_t b);
};

}  // namespace mip::smpc

#endif  // MIP_SMPC_SPDZ_H_
