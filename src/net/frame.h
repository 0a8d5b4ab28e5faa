#ifndef MIP_NET_FRAME_H_
#define MIP_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/result.h"
#include "net/transport.h"

namespace mip::net {

/// Wire format of one frame (all integers little-endian):
///
///   u32 magic      "MIPF" (0x4650494D)
///   u8  version    kFrameVersion
///   u32 length     payload byte count
///   u32 crc32      CRC-32 (IEEE 802.3) of the payload bytes
///   u8[length]     payload
///
/// A decoder that sees a bad magic, a version other than kFrameVersion, an
/// oversized length or a CRC mismatch reports a clean ParseError — the
/// stream is unusable and the connection must be dropped. A short read is
/// not an error: the decoder simply waits for more bytes.
///
/// Version history (the header layout never changed):
///   1  original framing, before the columnar wire codecs. No longer
///      accepted: every node is built from one tree.
///   2  the only version spoken. Table and transfer payloads may carry the
///      codec-compressed containers (engine/encoding.h), which every
///      receiver decodes.
inline constexpr uint32_t kFrameMagic = 0x4650494Du;  // "MIPF" on the wire
inline constexpr uint8_t kFrameVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 4 + 1 + 4 + 4;
/// Hard ceiling on a frame payload (defends against hostile/corrupt length
/// fields driving allocations).
inline constexpr size_t kDefaultMaxFramePayload = 256u << 20;  // 256 MiB

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF).
/// Crc32("123456789") == 0xCBF43926. The implementation lives in
/// common/crc32.h (shared with the on-disk storage formats); this alias
/// keeps the historical net-layer spelling working.
using ::mip::Crc32;

/// Appends one framed payload (version kFrameVersion) to `out`.
void EncodeFrame(const uint8_t* payload, size_t n, BufferWriter* out);
inline void EncodeFrame(const std::vector<uint8_t>& payload,
                        BufferWriter* out) {
  EncodeFrame(payload.data(), payload.size(), out);
}

/// \brief Incremental frame decoder for a TCP byte stream: Feed() arbitrary
/// chunks, then call Next() until it reports "need more bytes".
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload = kDefaultMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Appends raw bytes read off the stream.
  void Feed(const uint8_t* data, size_t n);

  /// Attempts to extract the next complete frame. Returns true and fills
  /// `*payload` when a frame (with a valid CRC) was consumed, false when
  /// more bytes are needed, or ParseError when the stream is corrupt
  /// (bad magic / version / length / CRC) and must be abandoned.
  Result<bool> Next(std::vector<uint8_t>* payload);

  /// Bytes buffered but not yet consumed by Next().
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  size_t max_payload_;
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;  // consumed prefix, compacted lazily
};

/// Serializes an envelope into a frame payload (deadline_ms is local
/// delivery metadata and deliberately does not cross the wire).
std::vector<uint8_t> EncodeEnvelopePayload(const Envelope& envelope);
Result<Envelope> DecodeEnvelopePayload(const std::vector<uint8_t>& payload);

/// Serializes a reply: the handler's Status (code + message) plus the reply
/// bytes on success. Decoding a non-OK reply returns that embedded Status,
/// so remote handler errors propagate to the caller with their original
/// code (algorithm errors stay non-retryable across the wire).
std::vector<uint8_t> EncodeReplyPayload(const Status& status,
                                        const std::vector<uint8_t>& reply);
Result<std::vector<uint8_t>> DecodeReplyPayload(
    const std::vector<uint8_t>& payload);

}  // namespace mip::net

#endif  // MIP_NET_FRAME_H_
