#ifndef MIP_COMMON_BYTES_H_
#define MIP_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace mip {

/// \brief Append-only binary buffer used to serialize every payload that
/// crosses a federation link (Worker <-> Master <-> SMPC cluster).
///
/// All integers are encoded little-endian fixed-width; strings and blobs are
/// length-prefixed with a uint32. The byte counts reported by the federation
/// cost model are exactly the sizes produced here.
class BufferWriter {
 public:
  /// A byte-counting sink: every write only advances size() and nothing is
  /// stored, so running a serializer into it measures the exact size of its
  /// layout without building (or copying) a byte.
  static BufferWriter Counter() {
    BufferWriter w;
    w.count_only_ = true;
    return w;
  }

  void WriteU8(uint8_t v) {
    if (count_only_) {
      ++counted_;
    } else {
      buf_.push_back(v);
    }
  }
  void WriteU32(uint32_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteDouble(double v) { AppendRaw(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  void WriteString(const std::string& s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    AppendRaw(s.data(), s.size());
  }

  /// u32 element count, then the elements' fixed-width bytes (bool bytes,
  /// int64s, u64 words, doubles).
  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    WriteU32(static_cast<uint32_t>(v.size()));
    AppendRaw(v.data(), v.size() * sizeof(T));
  }

  /// Length-prefixed raw blob (the framing layer's payload primitive).
  void WriteBytes(const std::vector<uint8_t>& v) { WriteVector(v); }

  /// Appends raw bytes verbatim.
  void AppendRaw(const void* data, size_t n) {
    if (count_only_) {
      counted_ += n;
      return;
    }
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Grows capacity to hold `n` more bytes beyond the current size, so a
  /// serializer that knows its output size up front (SerializeTable does)
  /// pays one allocation instead of a reallocation per column.
  void Reserve(size_t n) {
    if (!count_only_) buf_.reserve(buf_.size() + n);
  }

  size_t size() const { return count_only_ ? counted_ : buf_.size(); }
  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> TakeBytes() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
  bool count_only_ = false;
  size_t counted_ = 0;
};

/// \brief Sequential reader over a byte span produced by BufferWriter.
///
/// All reads are bounds-checked and return Status on truncated input, so a
/// malformed message from a (simulated) remote peer can never corrupt memory.
class BufferReader {
 public:
  BufferReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit BufferReader(const std::vector<uint8_t>& buf)
      : BufferReader(buf.data(), buf.size()) {}

  Result<uint8_t> ReadU8() {
    uint8_t v = 0;
    MIP_RETURN_NOT_OK(ReadRaw(&v, sizeof(v)));
    return v;
  }
  Result<uint32_t> ReadU32() {
    uint32_t v = 0;
    MIP_RETURN_NOT_OK(ReadRaw(&v, sizeof(v)));
    return v;
  }
  Result<uint64_t> ReadU64() {
    uint64_t v = 0;
    MIP_RETURN_NOT_OK(ReadRaw(&v, sizeof(v)));
    return v;
  }
  Result<int64_t> ReadI64() {
    int64_t v = 0;
    MIP_RETURN_NOT_OK(ReadRaw(&v, sizeof(v)));
    return v;
  }
  Result<double> ReadDouble() {
    double v = 0.0;
    MIP_RETURN_NOT_OK(ReadRaw(&v, sizeof(v)));
    return v;
  }
  Result<bool> ReadBool() {
    MIP_ASSIGN_OR_RETURN(uint8_t v, ReadU8());
    return v != 0;
  }

  Result<std::string> ReadString() {
    MIP_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
    if (n > Remaining()) return TruncatedError();
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  Result<std::vector<uint8_t>> ReadBytes() { return ReadVector<uint8_t>(); }

  /// Inverse of BufferWriter::WriteVector.
  template <typename T>
  Result<std::vector<T>> ReadVector() {
    MIP_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
    if (static_cast<size_t>(n) > Remaining() / sizeof(T)) {
      return TruncatedError();
    }
    std::vector<T> v(n);
    if (n > 0) MIP_RETURN_NOT_OK(ReadRaw(v.data(), n * sizeof(T)));
    return v;
  }

  /// Reads exactly `n` raw bytes (no length prefix) — for payloads whose
  /// length was established by other means (e.g. a varint prefix).
  Status ReadRawBytes(void* out, size_t n) { return ReadRaw(out, n); }

  /// Reads a u32 without consuming it — format sniffing (e.g. telling a
  /// magic-tagged compressed table apart from the legacy layout).
  Result<uint32_t> PeekU32() const {
    if (sizeof(uint32_t) > Remaining()) return TruncatedError();
    uint32_t v = 0;
    std::memcpy(&v, data_ + pos_, sizeof(v));
    return v;
  }

  size_t Remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  Status ReadRaw(void* out, size_t n) {
    if (n > Remaining()) return TruncatedError();
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  static Status TruncatedError() {
    return Status::IOError("truncated buffer while deserializing");
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace mip

#endif  // MIP_COMMON_BYTES_H_
