#include "net/frame.h"

#include <cstring>

namespace mip::net {

namespace {

Status CorruptStream(const std::string& why) {
  return Status::ParseError("corrupt frame stream: " + why);
}

/// Highest valid StatusCode value on the wire (keep in sync with status.h).
constexpr uint8_t kMaxStatusCode =
    static_cast<uint8_t>(StatusCode::kResourceExhausted);

}  // namespace

void EncodeFrame(const uint8_t* payload, size_t n, BufferWriter* out) {
  out->WriteU32(kFrameMagic);
  out->WriteU8(kFrameVersion);
  out->WriteU32(static_cast<uint32_t>(n));
  out->WriteU32(Crc32(payload, n));
  out->AppendRaw(payload, n);
}

void FrameDecoder::Feed(const uint8_t* data, size_t n) {
  // Compact once the consumed prefix dominates, so long-lived connections
  // don't grow the buffer without bound.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

Result<bool> FrameDecoder::Next(std::vector<uint8_t>* payload) {
  if (buffered() < kFrameHeaderBytes) return false;
  const uint8_t* h = buf_.data() + pos_;
  uint32_t magic = 0;
  std::memcpy(&magic, h, sizeof(magic));
  if (magic != kFrameMagic) return CorruptStream("bad magic");
  const uint8_t version = h[4];
  if (version != kFrameVersion) {
    return CorruptStream("unsupported version " + std::to_string(version));
  }
  uint32_t length = 0;
  std::memcpy(&length, h + 5, sizeof(length));
  if (length > max_payload_) {
    return CorruptStream("frame payload of " + std::to_string(length) +
                         " bytes exceeds the " +
                         std::to_string(max_payload_) + " byte limit");
  }
  uint32_t crc = 0;
  std::memcpy(&crc, h + 9, sizeof(crc));
  if (buffered() < kFrameHeaderBytes + length) return false;
  const uint8_t* body = h + kFrameHeaderBytes;
  if (Crc32(body, length) != crc) return CorruptStream("CRC mismatch");
  payload->assign(body, body + length);
  pos_ += kFrameHeaderBytes + length;
  return true;
}

std::vector<uint8_t> EncodeEnvelopePayload(const Envelope& envelope) {
  BufferWriter w;
  w.WriteString(envelope.from);
  w.WriteString(envelope.to);
  w.WriteString(envelope.type);
  w.WriteString(envelope.job_id);
  w.WriteBytes(envelope.payload);
  return w.TakeBytes();
}

Result<Envelope> DecodeEnvelopePayload(const std::vector<uint8_t>& payload) {
  BufferReader r(payload);
  Envelope e;
  MIP_ASSIGN_OR_RETURN(e.from, r.ReadString());
  MIP_ASSIGN_OR_RETURN(e.to, r.ReadString());
  MIP_ASSIGN_OR_RETURN(e.type, r.ReadString());
  MIP_ASSIGN_OR_RETURN(e.job_id, r.ReadString());
  MIP_ASSIGN_OR_RETURN(e.payload, r.ReadBytes());
  if (!r.AtEnd()) {
    return Status::ParseError("trailing bytes after envelope");
  }
  return e;
}

std::vector<uint8_t> EncodeReplyPayload(const Status& status,
                                        const std::vector<uint8_t>& reply) {
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(status.code()));
  w.WriteString(status.message());
  w.WriteBytes(status.ok() ? reply : std::vector<uint8_t>{});
  return w.TakeBytes();
}

Result<std::vector<uint8_t>> DecodeReplyPayload(
    const std::vector<uint8_t>& payload) {
  BufferReader r(payload);
  MIP_ASSIGN_OR_RETURN(uint8_t code, r.ReadU8());
  if (code > kMaxStatusCode) {
    return Status::ParseError("reply carries unknown status code " +
                              std::to_string(code));
  }
  MIP_ASSIGN_OR_RETURN(std::string message, r.ReadString());
  MIP_ASSIGN_OR_RETURN(std::vector<uint8_t> reply, r.ReadBytes());
  if (!r.AtEnd()) {
    return Status::ParseError("trailing bytes after reply");
  }
  if (code != 0) {
    return Status(static_cast<StatusCode>(code), std::move(message));
  }
  return reply;
}

}  // namespace mip::net
