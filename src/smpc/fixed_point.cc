#include "smpc/fixed_point.h"

#include <cmath>

#include "smpc/field.h"

namespace mip::smpc {

FixedPointCodec::FixedPointCodec(int frac_bits)
    : frac_bits_(frac_bits), scale_(std::ldexp(1.0, frac_bits)) {}

double FixedPointCodec::MaxMagnitude() const {
  return static_cast<double>(Field::kPrime / 2) / scale_;
}

Result<uint64_t> FixedPointCodec::Encode(double x) const {
  if (!std::isfinite(x)) {
    return Status::InvalidArgument("cannot encode non-finite value");
  }
  if (std::fabs(x) >= MaxMagnitude()) {
    return Status::OutOfRange("fixed-point overflow encoding " +
                              std::to_string(x));
  }
  const double scaled = std::round(x * scale_);
  if (scaled >= 0) {
    return static_cast<uint64_t>(scaled);
  }
  return Field::kPrime - static_cast<uint64_t>(-scaled);
}

double FixedPointCodec::Decode(uint64_t v, int scale_power) const {
  const double divisor = std::pow(scale_, scale_power);
  if (v > Field::kPrime / 2) {
    return -static_cast<double>(Field::kPrime - v) / divisor;
  }
  return static_cast<double>(v) / divisor;
}

Result<std::vector<uint64_t>> FixedPointCodec::EncodeVector(
    const std::vector<double>& xs) const {
  std::vector<uint64_t> out(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    MIP_ASSIGN_OR_RETURN(out[i], Encode(xs[i]));
  }
  return out;
}

}  // namespace mip::smpc
