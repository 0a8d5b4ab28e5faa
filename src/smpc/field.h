#ifndef MIP_SMPC_FIELD_H_
#define MIP_SMPC_FIELD_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace mip::smpc {

/// \brief Arithmetic in the prime field F_p with p = 2^61 - 1 (Mersenne).
///
/// All SMPC values — secret shares, MACs, Beaver triples — are elements of
/// this field. A Mersenne prime keeps modular reduction to shifts/adds and
/// 61 bits leave ample headroom for the fixed-point encoding of clinical
/// aggregates (see fixed_point.h).
class Field {
 public:
  /// The field modulus 2^61 - 1.
  static constexpr uint64_t kPrime = (1ull << 61) - 1;

  /// Reduces an arbitrary 64-bit value into [0, p).
  static uint64_t Reduce(uint64_t x) {
    x = (x & kPrime) + (x >> 61);
    if (x >= kPrime) x -= kPrime;
    return x;
  }

  static uint64_t Add(uint64_t a, uint64_t b) {
    uint64_t s = a + b;  // < 2^62, no overflow
    if (s >= kPrime) s -= kPrime;
    return s;
  }

  static uint64_t Sub(uint64_t a, uint64_t b) {
    return a >= b ? a - b : a + kPrime - b;
  }

  static uint64_t Neg(uint64_t a) { return a == 0 ? 0 : kPrime - a; }

  static uint64_t Mul(uint64_t a, uint64_t b) {
    const unsigned __int128 prod =
        static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
    // Mersenne folding: hi * 2^61 + lo ≡ hi + lo (mod 2^61 - 1).
    const uint64_t lo = static_cast<uint64_t>(prod) & kPrime;
    const uint64_t hi = static_cast<uint64_t>(prod >> 61);
    return Reduce(lo + Reduce(hi));
  }

  /// a^e mod p by square-and-multiply.
  static uint64_t Pow(uint64_t a, uint64_t e);

  /// Multiplicative inverse via Fermat (a != 0).
  static uint64_t Inv(uint64_t a) { return Pow(a, kPrime - 2); }

  /// Uniform field element.
  static uint64_t Random(Rng* rng) {
    for (;;) {
      const uint64_t r = rng->NextUint64() & ((1ull << 61) - 1);
      if (r < kPrime) return r;
    }
  }

  /// Bulk uniform sampling: fills `out[0..n)` with exactly the values (and
  /// stream positions) that n successive Random() calls would produce. Raw
  /// words come from Rng::FillUint64 in blocks and rejections are compacted
  /// in place, so the per-call rejection loop is amortized away.
  static void RandomVec(uint64_t* out, size_t n, Rng* rng);

  /// The compaction step of RandomVec, visible for the property tests:
  /// masks each raw word to 61 bits and keeps accepted (< p) values in draw
  /// order. Returns how many were accepted. `out` may alias `raw`.
  static size_t AcceptFieldWords(const uint64_t* raw, size_t n, uint64_t* out);
};

}  // namespace mip::smpc

#endif  // MIP_SMPC_FIELD_H_
