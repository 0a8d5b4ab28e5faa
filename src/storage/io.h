#ifndef MIP_STORAGE_IO_H_
#define MIP_STORAGE_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace mip::storage {

/// POSIX file helpers for the storage layer. Every failure is a typed
/// Status::IOError carrying errno text — the code the serving layer maps to
/// a typed error frame and the federation fan-out treats as retryable.

/// Whole-file read.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

/// Reads `n` bytes starting at `offset`; fails (kIOError) when the range
/// extends past EOF.
Result<std::vector<uint8_t>> ReadFileRange(const std::string& path,
                                           uint64_t offset, uint64_t n);

/// \brief A read-only descriptor for positioned reads: open once, then one
/// pread per range. Closes on destruction; movable, not copyable.
class ReadOnlyFile {
 public:
  static Result<ReadOnlyFile> Open(const std::string& path);

  ReadOnlyFile(ReadOnlyFile&& other) noexcept;
  ReadOnlyFile& operator=(ReadOnlyFile&& other) noexcept;
  ReadOnlyFile(const ReadOnlyFile&) = delete;
  ReadOnlyFile& operator=(const ReadOnlyFile&) = delete;
  ~ReadOnlyFile();

  /// Reads up to `n` bytes at `offset` into `out` and returns how many it
  /// read: fewer than `n` only when the file ends first.
  Result<size_t> ReadAt(uint64_t offset, size_t n, uint8_t* out) const;

  const std::string& path() const { return path_; }

 private:
  ReadOnlyFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

Result<uint64_t> FileSize(const std::string& path);
bool FileExists(const std::string& path);

/// Crash-atomic whole-file publish: write `<path>.tmp`, fsync it, rename
/// over `path`, fsync the parent directory. Readers see either the old or
/// the new content, never a partial write.
Status WriteFileAtomic(const std::string& path,
                       const std::vector<uint8_t>& bytes);

/// Writes `bytes` at `offset` in place and fsyncs. No O_APPEND and no
/// O_TRUNC: the file keeps the blocks it has, and bytes beyond the write
/// stay as they were. Creates the file when absent, and then also fsyncs
/// its directory so the new entry is durable. The WAL appends and the
/// manifest's spare rewrite go through here.
Status WriteFileAt(const std::string& path, uint64_t offset,
                   const std::vector<uint8_t>& bytes);

/// Renames `from` to the unused name `to`, then fsyncs the directory. (A
/// rename over an existing file would free that file's blocks.)
Status RenameFile(const std::string& from, const std::string& to);

/// Swaps the names `from` and `to` with renameat2(RENAME_EXCHANGE), then
/// fsyncs the directory: `to` names `from`'s old file and `from` keeps
/// `to`'s, so nothing is freed. When `to` does not exist, or the filesystem
/// refuses the exchange, renames `from` over `to` instead.
Status ExchangeFiles(const std::string& from, const std::string& to);

Status RemoveFile(const std::string& path);

/// Creates the directory if missing (one level).
Status EnsureDir(const std::string& path);

/// Non-recursive listing of plain-file names (not paths) in `dir`.
Result<std::vector<std::string>> ListDir(const std::string& dir);

}  // namespace mip::storage

#endif  // MIP_STORAGE_IO_H_
