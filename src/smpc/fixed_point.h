#ifndef MIP_SMPC_FIXED_POINT_H_
#define MIP_SMPC_FIXED_POINT_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace mip::smpc {

/// \brief Signed fixed-point encoding of reals into F_p.
///
/// x is encoded as round(x * 2^frac_bits) mod p, with negatives mapped to the
/// upper half of the field (two's-complement style). Decoding interprets
/// values above p/2 as negative. The representable magnitude after summing k
/// contributions must stay below p / 2^(frac_bits+1); with the default 20
/// fractional bits that is ~2^40 ≈ 10^12 — comfortably above any clinical
/// aggregate MIP ships.
class FixedPointCodec {
 public:
  explicit FixedPointCodec(int frac_bits = 20);

  int frac_bits() const { return frac_bits_; }
  double scale() const { return scale_; }

  /// Largest encodable magnitude.
  double MaxMagnitude() const;

  /// Encodes one real. Values beyond MaxMagnitude() are an error.
  Result<uint64_t> Encode(double x) const;

  /// Decodes one field element carrying scale^scale_power: a product of k
  /// encoded values carries scale^k.
  double Decode(uint64_t v, int scale_power = 1) const;

  Result<std::vector<uint64_t>> EncodeVector(
      const std::vector<double>& xs) const;

 private:
  int frac_bits_;
  double scale_;
};

}  // namespace mip::smpc

#endif  // MIP_SMPC_FIXED_POINT_H_
