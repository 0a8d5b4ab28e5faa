#ifndef MIP_ENGINE_BITMAP_H_
#define MIP_ENGINE_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mip::engine {

/// \brief Packed validity bitmap (1 = valid, 0 = null), 64 bits per word.
///
/// Columns carry a Bitmap only when they contain at least one null; an
/// all-valid column keeps the bitmap empty, which lets the hot kernels take a
/// branch-free fast path (the "zero-cost" layout the paper attributes to the
/// underlying engine).
class Bitmap {
 public:
  Bitmap() = default;
  /// All-`valid` bitmap of the given length.
  Bitmap(size_t length, bool valid);

  size_t length() const { return length_; }

  bool Get(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ull;
  }

  void Set(size_t i, bool valid) {
    if (valid) {
      words_[i >> 6] |= (1ull << (i & 63));
    } else {
      words_[i >> 6] &= ~(1ull << (i & 63));
    }
  }

  /// Appends one bit.
  void Append(bool valid);

  /// Appends every bit of `other`, a word at a time.
  void AppendBits(const Bitmap& other);

  /// Number of set (valid) bits.
  size_t CountSet() const;

  /// True if every bit is set.
  bool AllSet() const { return CountSet() == length_; }

  /// Bitwise AND of two equal-length bitmaps.
  static Bitmap And(const Bitmap& a, const Bitmap& b);

  const std::vector<uint64_t>& words() const { return words_; }

 private:
  size_t length_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace mip::engine

#endif  // MIP_ENGINE_BITMAP_H_
