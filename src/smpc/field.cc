#include "smpc/field.h"

namespace mip::smpc {

uint64_t Field::Pow(uint64_t a, uint64_t e) {
  uint64_t base = Reduce(a);
  uint64_t result = 1;
  while (e > 0) {
    if (e & 1) result = Mul(result, base);
    base = Mul(base, base);
    e >>= 1;
  }
  return result;
}

size_t Field::AcceptFieldWords(const uint64_t* raw, size_t n, uint64_t* out) {
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t r = raw[i] & kPrime;  // low 61 bits; mask == p
    out[kept] = r;
    kept += (r < kPrime) ? 1 : 0;  // rejects only r == p (probability 2^-61)
  }
  return kept;
}

void Field::RandomVec(uint64_t* out, size_t n, Rng* rng) {
  // Draw raw words directly into the tail of `out` and compact: a scalar
  // Random() call consumes one raw word per accepted value (plus one per
  // rejection), so filling exactly the deficit each pass reproduces the
  // per-value rejection stream bit for bit — including the state the Rng is
  // left in.
  size_t filled = 0;
  while (filled < n) {
    const size_t want = n - filled;
    rng->FillUint64(out + filled, want);
    filled += AcceptFieldWords(out + filled, want, out + filled);
  }
}

}  // namespace mip::smpc
