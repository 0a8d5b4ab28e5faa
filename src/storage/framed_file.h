#ifndef MIP_STORAGE_FRAMED_FILE_H_
#define MIP_STORAGE_FRAMED_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "storage/io.h"

namespace mip::storage {

/// \brief The framing of segment files (segment.h), all integers
/// little-endian:
///
///   header   u32 magic, u8 version                       (5 bytes)
///   blocks   CRC'd payload blocks, each addressed from the footer by a
///            BlockRef: varint offset, varint length, u32 crc
///   footer   contents owned by the file kind
///   trailer  u32 footer_len, u32 footer_crc, u32 footer_magic (12 bytes)
///
/// Readers check magics, version, footer CRC, block bounds (inside
/// [header end, footer start)) and block CRCs before a file kind parses or
/// decodes anything. Every failure is kIOError "corrupt <noun> '<path>': …".
/// Blocks are read one range at a time (FramedFileReader), so a reader
/// checks exactly the blocks it decodes: the bytes of a block it skips are
/// never read, never CRC-checked, and never trusted.
inline constexpr size_t kFramedHeaderBytes = 5;
inline constexpr size_t kFramedTrailerBytes = 12;

struct BlockRef {
  uint64_t offset = 0;  // absolute file offset
  uint64_t length = 0;
  uint32_t crc = 0;

  friend bool operator==(const BlockRef&, const BlockRef&) = default;
};

/// Checked footer bytes, their file offset (every block's upper bound) and
/// the header's version.
struct FramedFooter {
  std::vector<uint8_t> bytes;
  uint64_t start = 0;
  uint8_t version = 0;
};

/// One file kind's framing constants and the checks that use them. `what`
/// names a block in error messages. A reader accepts every version in
/// [oldest_version, version]; a writer writes `version`.
struct FramedFormat {
  uint32_t magic = 0;
  uint32_t footer_magic = 0;
  uint8_t version = 0;
  uint8_t oldest_version = 0;
  const char* noun = "";

  Status Corrupt(const std::string& path, const std::string& why) const;
  /// Header, trailer and footer CRC. Reads the header and the last 64 KiB,
  /// plus the footer's own range when footer_len reaches past that tail.
  Result<FramedFooter> ReadFooter(const std::string& path) const;
  /// Reads a BlockRef from footer bytes, bounded by `footer_start`.
  Result<BlockRef> GetBlockRef(const std::string& path, uint64_t footer_start,
                               const std::string& what, BufferReader* r) const;
};

/// \brief An open framed file for ranged, CRC-checked block reads — the one
/// block-read path of segment scans and index probes: one open (and header
/// check) per file, one pread per block.
class FramedFileReader {
 public:
  /// Opens `path` and checks its header magic and version.
  static Result<FramedFileReader> Open(const FramedFormat& format,
                                       const std::string& path);

  /// Reads the block at `ref` into `*out` (resized to its length) and checks
  /// its CRC. `ref` was bounds-checked against the footer by GetBlockRef; a
  /// file that ends inside the block is corrupt.
  Status ReadBlock(const BlockRef& ref, const std::string& what,
                   std::vector<uint8_t>* out) const;

  const std::string& path() const { return file_.path(); }

 private:
  FramedFileReader(const FramedFormat& format, ReadOnlyFile file)
      : format_(format), file_(std::move(file)) {}

  FramedFormat format_;
  ReadOnlyFile file_;
};

void PutBlockRef(const BlockRef& ref, BufferWriter* w);

/// Writes the header on construction; Finish appends the footer and
/// trailer and publishes the file crash-atomically.
class FramedFileWriter {
 public:
  explicit FramedFileWriter(const FramedFormat& format);
  BlockRef AppendBlock(const std::vector<uint8_t>& bytes);
  Status Finish(const std::string& path, const std::vector<uint8_t>& footer);

 private:
  const FramedFormat format_;
  BufferWriter out_;
};

}  // namespace mip::storage

#endif  // MIP_STORAGE_FRAMED_FILE_H_
