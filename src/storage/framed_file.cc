#include "storage/framed_file.h"

#include <algorithm>

#include "common/crc32.h"
#include "engine/encoding.h"
#include "storage/io.h"

namespace mip::storage {

namespace {

constexpr uint64_t kTailReadBytes = 64 * 1024;

/// Checks the header's magic and version; returns the version.
Result<uint8_t> CheckHeader(const FramedFormat& format, const std::string& path,
                            const std::vector<uint8_t>& head) {
  BufferReader r(head);
  MIP_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  MIP_ASSIGN_OR_RETURN(uint8_t version, r.ReadU8());
  if (magic != format.magic) {
    return format.Corrupt(path, std::string("bad ") + format.noun + " magic");
  }
  if (version < format.oldest_version || version > format.version) {
    return format.Corrupt(path, "unsupported version " +
                                    std::to_string(version));
  }
  return version;
}

}  // namespace

Status FramedFormat::Corrupt(const std::string& path,
                             const std::string& why) const {
  return Status::IOError(std::string("corrupt ") + noun + " '" + path +
                         "': " + why);
}

Result<FramedFooter> FramedFormat::ReadFooter(const std::string& path) const {
  MIP_ASSIGN_OR_RETURN(uint64_t size, FileSize(path));
  if (size < kFramedHeaderBytes + kFramedTrailerBytes) {
    return Corrupt(path, "file too small");
  }
  MIP_ASSIGN_OR_RETURN(std::vector<uint8_t> head,
                       ReadFileRange(path, 0, kFramedHeaderBytes));
  MIP_ASSIGN_OR_RETURN(const uint8_t version, CheckHeader(*this, path, head));
  const uint64_t tail_offset = size - std::min(size, kTailReadBytes);
  MIP_ASSIGN_OR_RETURN(std::vector<uint8_t> tail,
                       ReadFileRange(path, tail_offset, size - tail_offset));
  BufferReader trailer(tail.data() + tail.size() - kFramedTrailerBytes,
                       kFramedTrailerBytes);
  MIP_ASSIGN_OR_RETURN(uint32_t footer_len, trailer.ReadU32());
  MIP_ASSIGN_OR_RETURN(uint32_t footer_crc, trailer.ReadU32());
  MIP_ASSIGN_OR_RETURN(uint32_t magic, trailer.ReadU32());
  if (magic != footer_magic) return Corrupt(path, "bad footer magic");
  if (footer_len > size - kFramedHeaderBytes - kFramedTrailerBytes) {
    return Corrupt(path, "footer length out of bounds");
  }
  FramedFooter footer;
  footer.start = size - kFramedTrailerBytes - footer_len;
  footer.version = version;
  if (footer.start >= tail_offset) {
    footer.bytes.assign(tail.begin() + (footer.start - tail_offset),
                        tail.end() - kFramedTrailerBytes);
  } else {
    MIP_ASSIGN_OR_RETURN(footer.bytes,
                         ReadFileRange(path, footer.start, footer_len));
  }
  if (Crc32(footer.bytes) != footer_crc) {
    return Corrupt(path, "footer CRC mismatch");
  }
  return footer;
}

Result<BlockRef> FramedFormat::GetBlockRef(const std::string& path,
                                           uint64_t footer_start,
                                           const std::string& what,
                                           BufferReader* r) const {
  BlockRef ref;
  MIP_ASSIGN_OR_RETURN(ref.offset, engine::GetVarint(r));
  MIP_ASSIGN_OR_RETURN(ref.length, engine::GetVarint(r));
  MIP_ASSIGN_OR_RETURN(ref.crc, r->ReadU32());
  if (ref.offset < kFramedHeaderBytes || ref.offset > footer_start ||
      ref.length > footer_start - ref.offset) {
    return Corrupt(path, what + " out of bounds");
  }
  return ref;
}

Result<FramedFileReader> FramedFileReader::Open(const FramedFormat& format,
                                               const std::string& path) {
  MIP_ASSIGN_OR_RETURN(ReadOnlyFile file, ReadOnlyFile::Open(path));
  std::vector<uint8_t> head(kFramedHeaderBytes);
  MIP_ASSIGN_OR_RETURN(size_t got,
                       file.ReadAt(0, kFramedHeaderBytes, head.data()));
  if (got < kFramedHeaderBytes) return format.Corrupt(path, "file too small");
  MIP_RETURN_NOT_OK(CheckHeader(format, path, head).status());
  return FramedFileReader(format, std::move(file));
}

Status FramedFileReader::ReadBlock(const BlockRef& ref, const std::string& what,
                                   std::vector<uint8_t>* out) const {
  out->resize(static_cast<size_t>(ref.length));
  MIP_ASSIGN_OR_RETURN(size_t got,
                       file_.ReadAt(ref.offset, out->size(), out->data()));
  if (got < out->size()) {
    return format_.Corrupt(path(), what + " extends past end of file");
  }
  if (Crc32(out->data(), out->size()) != ref.crc) {
    return format_.Corrupt(path(), what + " CRC mismatch");
  }
  return Status::OK();
}

void PutBlockRef(const BlockRef& ref, BufferWriter* w) {
  engine::PutVarint(w, ref.offset);
  engine::PutVarint(w, ref.length);
  w->WriteU32(ref.crc);
}

FramedFileWriter::FramedFileWriter(const FramedFormat& format)
    : format_(format) {
  out_.WriteU32(format.magic);
  out_.WriteU8(format.version);
}

BlockRef FramedFileWriter::AppendBlock(const std::vector<uint8_t>& bytes) {
  const BlockRef ref{out_.size(), bytes.size(), Crc32(bytes)};
  out_.AppendRaw(bytes.data(), bytes.size());
  return ref;
}

Status FramedFileWriter::Finish(const std::string& path,
                                const std::vector<uint8_t>& footer) {
  out_.AppendRaw(footer.data(), footer.size());
  out_.WriteU32(static_cast<uint32_t>(footer.size()));
  out_.WriteU32(Crc32(footer));
  out_.WriteU32(format_.footer_magic);
  return WriteFileAtomic(path, out_.bytes());
}

}  // namespace mip::storage
