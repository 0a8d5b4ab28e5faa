#include "engine/bitmap.h"

#include <bit>

namespace mip::engine {

Bitmap::Bitmap(size_t length, bool valid) : length_(length) {
  words_.assign((length + 63) / 64, valid ? ~0ull : 0ull);
  if (valid && length % 64 != 0 && !words_.empty()) {
    // Clear bits past the logical end so CountSet stays exact.
    words_.back() &= (1ull << (length % 64)) - 1;
  }
}

void Bitmap::Append(bool valid) {
  if (length_ % 64 == 0) words_.push_back(0);
  if (valid) words_.back() |= (1ull << (length_ % 64));
  ++length_;
}

void Bitmap::AppendBits(const Bitmap& other) {
  // Bits past a bitmap's length are always zero (the constructor clears
  // them and nothing sets them), so whole words can be OR-ed in.
  const size_t shift = length_ % 64;
  if (shift == 0) {
    words_.insert(words_.end(), other.words_.begin(), other.words_.end());
  } else {
    for (uint64_t w : other.words_) {
      words_.back() |= w << shift;
      words_.push_back(w >> (64 - shift));
    }
  }
  length_ += other.length_;
  words_.resize((length_ + 63) / 64);
}

size_t Bitmap::CountSet() const {
  size_t n = 0;
  for (uint64_t w : words_) n += static_cast<size_t>(std::popcount(w));
  return n;
}

Bitmap Bitmap::And(const Bitmap& a, const Bitmap& b) {
  Bitmap out(a.length_, true);
  for (size_t i = 0; i < out.words_.size(); ++i) {
    out.words_[i] = a.words_[i] & b.words_[i];
  }
  return out;
}

}  // namespace mip::engine
