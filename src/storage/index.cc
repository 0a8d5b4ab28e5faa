#include "storage/index.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <type_traits>

#include "common/bytes.h"
#include "common/string_util.h"
#include "engine/encoding.h"

namespace mip::storage {

using engine::BinaryOp;
using engine::Column;
using engine::DataType;
using engine::DecodeDoubles;
using engine::DecodeInts;
using engine::DecodeStrings;
using engine::EncodeDoubles;
using engine::EncodeInts;
using engine::EncodeStrings;
using engine::GetVarint;
using engine::kMaxWireElements;
using engine::PutVarint;
using engine::Value;

namespace {

Status Corrupt(const std::string& path, const std::string& why) {
  return kSegmentFormat.Corrupt(path, "index " + why);
}

bool EqLike(BinaryOp op) {
  return op == BinaryOp::kEq || op == BinaryOp::kLe || op == BinaryOp::kGe;
}

/// Moves one bound to `v` when `v` is tighter (`tighter(v, *bound)`), or
/// makes an equal bound exclusive.
template <typename T, typename Tighter>
void Tighten(bool* has, T* bound, bool* bound_inclusive, const T& v,
             bool inclusive, Tighter tighter) {
  if (!*has || tighter(v, *bound)) {
    *has = true;
    *bound = v;
    *bound_inclusive = inclusive;
  } else if (v == *bound && !inclusive) {
    *bound_inclusive = false;
  }
}

/// Narrows `iv` by `key op v` on one pair of its bounds: `lo`/`hi` point at
/// iv->lo/hi (numeric) or iv->lo_s/hi_s (string). False when `op` is not a
/// comparison.
template <typename T>
bool Restrict(KeyInterval* iv, T* lo, T* hi, BinaryOp op, const T& v) {
  const bool lower =
      op == BinaryOp::kEq || op == BinaryOp::kGt || op == BinaryOp::kGe;
  const bool upper =
      op == BinaryOp::kEq || op == BinaryOp::kLt || op == BinaryOp::kLe;
  if (lower) {
    Tighten(&iv->has_lo, lo, &iv->lo_inclusive, v, EqLike(op),
            std::greater<T>());
  }
  if (upper) {
    Tighten(&iv->has_hi, hi, &iv->hi_inclusive, v, EqLike(op),
            std::less<T>());
  }
  return lower || upper;
}

/// key below the interval's low bound (numeric domain).
bool BelowLo(const KeyInterval& iv, double k) {
  return iv.has_lo && (k < iv.lo || (k == iv.lo && !iv.lo_inclusive));
}
bool AboveHi(const KeyInterval& iv, double k) {
  return iv.has_hi && (k > iv.hi || (k == iv.hi && !iv.hi_inclusive));
}
bool BelowLoS(const KeyInterval& iv, const std::string& k) {
  return iv.has_lo && (k < iv.lo_s || (k == iv.lo_s && !iv.lo_inclusive));
}
bool AboveHiS(const KeyInterval& iv, const std::string& k) {
  return iv.has_hi && (k > iv.hi_s || (k == iv.hi_s && !iv.hi_inclusive));
}

}  // namespace

KeyInterval BuildKeyInterval(DataType type, const std::string& column,
                             const std::vector<PruneConjunct>& conjuncts) {
  KeyInterval iv;
  for (const PruneConjunct& c : conjuncts) {
    if (!EqualsIgnoreCase(c.column, column)) continue;
    if (type == DataType::kString) {
      // Mixed-type comparisons route the engine through paths the index
      // cannot mirror exactly; ignoring the conjunct only widens the count.
      if (c.literal.kind() != Value::Kind::kString) continue;
      if (Restrict(&iv, &iv.lo_s, &iv.hi_s, c.op, c.literal.string_value())) {
        iv.restricts = true;
      }
      continue;
    }
    // Numeric column: the engine compares cells to the literal as doubles.
    if (c.literal.kind() == Value::Kind::kString) continue;
    const double v = c.literal.AsDouble();
    if (std::isnan(v)) {
      // cmp(x, NaN) == 0 for every x: eq-like ops match every non-null row
      // (no restriction); < and > match nothing at all.
      if (!EqLike(c.op)) {
        iv.empty = true;
        iv.include_nan = false;
        iv.restricts = true;
      }
      continue;
    }
    if (!EqLike(c.op)) iv.include_nan = false;  // NaN cells fail < and >
    if (Restrict(&iv, &iv.lo, &iv.hi, c.op, v)) iv.restricts = true;
  }
  if (iv.has_lo && iv.has_hi) {
    const bool contradictory =
        type == DataType::kString
            ? (iv.lo_s > iv.hi_s ||
               (iv.lo_s == iv.hi_s && !(iv.lo_inclusive && iv.hi_inclusive)))
            : (iv.lo > iv.hi ||
               (iv.lo == iv.hi && !(iv.lo_inclusive && iv.hi_inclusive)));
    if (contradictory) iv.empty = true;
  }
  return iv;
}

// --- Writing ---------------------------------------------------------------

namespace {

template <typename K>
struct Entry {
  K key;
  int64_t row;
};

/// Sorts one column's (key, row-id) run and appends it to `file` as blocks
/// of up to kIndexBlockEntries entries, recording each block's key range
/// (`first`, `last`) in `blocks`.
template <typename K>
void AppendEntryBlocks(std::vector<Entry<K>> entries, K IndexBlock::*first,
                       K IndexBlock::*last, FramedFileWriter* file,
                       std::vector<IndexBlock>* blocks) {
  std::sort(entries.begin(), entries.end(),
            [](const Entry<K>& a, const Entry<K>& b) {
              return a.key != b.key ? a.key < b.key : a.row < b.row;
            });
  for (size_t off = 0; off < entries.size(); off += kIndexBlockEntries) {
    const size_t count =
        std::min<size_t>(kIndexBlockEntries, entries.size() - off);
    std::vector<K> keys;
    std::vector<int64_t> row_ids;
    keys.reserve(count);
    row_ids.reserve(count);
    for (size_t k = off; k < off + count; ++k) {
      keys.push_back(entries[k].key);
      row_ids.push_back(entries[k].row);
    }
    IndexBlock block;
    block.count = count;
    block.*first = keys.front();
    block.*last = keys.back();
    BufferWriter body;
    if constexpr (std::is_same_v<K, int64_t>) {
      EncodeInts(keys, &body);
    } else if constexpr (std::is_same_v<K, double>) {
      EncodeDoubles(keys, &body);
    } else {
      EncodeStrings(keys, &body);
    }
    EncodeInts(row_ids, &body);
    block.ref = file->AppendBlock(body.bytes());
    blocks->push_back(std::move(block));
  }
}

void WriteBlockKey(DataType type, const IndexBlock& b, bool first,
                   BufferWriter* w) {
  switch (type) {
    case DataType::kBool:
    case DataType::kInt64:
      w->WriteI64(first ? b.first_i : b.last_i);
      break;
    case DataType::kFloat64:
      w->WriteDouble(first ? b.first_d : b.last_d);
      break;
    case DataType::kString:
      w->WriteString(first ? b.first_s : b.last_s);
      break;
  }
}

Status ReadBlockKey(DataType type, bool first, BufferReader* r,
                    IndexBlock* b) {
  switch (type) {
    case DataType::kBool:
    case DataType::kInt64: {
      MIP_ASSIGN_OR_RETURN(int64_t v, r->ReadI64());
      (first ? b->first_i : b->last_i) = v;
      break;
    }
    case DataType::kFloat64: {
      MIP_ASSIGN_OR_RETURN(double v, r->ReadDouble());
      if (std::isnan(v)) return Status::IOError("NaN block key");
      (first ? b->first_d : b->last_d) = v;
      break;
    }
    case DataType::kString: {
      MIP_ASSIGN_OR_RETURN(std::string v, r->ReadString());
      (first ? b->first_s : b->last_s) = std::move(v);
      break;
    }
  }
  return Status::OK();
}

}  // namespace

BlockRef AppendIndex(const std::string& column_name, const Column& column,
                     FramedFileWriter* file) {
  IndexDirectory directory;
  directory.column = column_name;
  directory.type = column.type();
  directory.num_rows = column.length();

  // Gather the (key, row-id) run. NULLs are excluded (they never pass a
  // comparison filter); NaNs go to the side list.
  std::vector<Entry<int64_t>> ints;
  std::vector<Entry<double>> doubles;
  std::vector<Entry<std::string>> strings;
  std::vector<int64_t> nan_rows;
  for (size_t i = 0; i < column.length(); ++i) {
    if (!column.IsValid(i)) continue;
    const int64_t row = static_cast<int64_t>(i);
    switch (column.type()) {
      case DataType::kBool:
        ints.push_back({column.BoolAt(i) ? 1 : 0, row});
        break;
      case DataType::kInt64:
        ints.push_back({column.IntAt(i), row});
        break;
      case DataType::kFloat64: {
        const double v = column.DoubleAt(i);
        if (std::isnan(v)) {
          nan_rows.push_back(row);
        } else {
          doubles.push_back({v, row});
        }
        break;
      }
      case DataType::kString:
        strings.push_back({column.StringAt(i), row});
        break;
    }
  }
  directory.num_entries = ints.size() + doubles.size() + strings.size();
  directory.nan_count = nan_rows.size();

  // Only the run matching the column type is non-empty.
  AppendEntryBlocks(std::move(ints), &IndexBlock::first_i, &IndexBlock::last_i,
                    file, &directory.blocks);
  AppendEntryBlocks(std::move(doubles), &IndexBlock::first_d,
                    &IndexBlock::last_d, file, &directory.blocks);
  AppendEntryBlocks(std::move(strings), &IndexBlock::first_s,
                    &IndexBlock::last_s, file, &directory.blocks);

  if (!nan_rows.empty()) {
    BufferWriter body;
    EncodeInts(nan_rows, &body);
    directory.nan_block = file->AppendBlock(body.bytes());
  }

  BufferWriter d;
  d.WriteString(directory.column);
  d.WriteU8(static_cast<uint8_t>(directory.type));
  PutVarint(&d, directory.num_rows);
  PutVarint(&d, directory.num_entries);
  PutVarint(&d, directory.nan_count);
  if (directory.nan_count > 0) PutBlockRef(directory.nan_block, &d);
  PutVarint(&d, directory.blocks.size());
  for (const IndexBlock& b : directory.blocks) {
    WriteBlockKey(directory.type, b, true, &d);
    WriteBlockKey(directory.type, b, false, &d);
    PutVarint(&d, b.count);
    PutBlockRef(b.ref, &d);
  }
  return file->AppendBlock(d.bytes());
}

// --- Reading ---------------------------------------------------------------

namespace {

/// Validates the global order between consecutive blocks: a.last <= b.first.
bool BlocksOrdered(DataType type, const IndexBlock& a, const IndexBlock& b) {
  switch (type) {
    case DataType::kBool:
    case DataType::kInt64:
      return a.last_i <= b.first_i;
    case DataType::kFloat64:
      return a.last_d <= b.first_d;
    case DataType::kString:
      return a.last_s <= b.first_s;
  }
  return false;
}

/// first_key <= last_key within one block.
bool BlockSelfOrdered(DataType type, const IndexBlock& b) {
  switch (type) {
    case DataType::kBool:
    case DataType::kInt64:
      return b.first_i <= b.last_i;
    case DataType::kFloat64:
      return b.first_d <= b.last_d;
    case DataType::kString:
      return b.first_s <= b.last_s;
  }
  return false;
}

/// Parses one directory block. Every block it references must lie before
/// the directory itself (`directory_offset`).
Result<IndexDirectory> ParseDirectory(const std::string& path,
                                      const std::vector<uint8_t>& bytes,
                                      uint64_t directory_offset) {
  BufferReader r(bytes);
  IndexDirectory dir;
  MIP_ASSIGN_OR_RETURN(dir.column, r.ReadString());
  MIP_ASSIGN_OR_RETURN(uint8_t type_byte, r.ReadU8());
  if (type_byte > static_cast<uint8_t>(DataType::kString)) {
    return Corrupt(path, "bad column type byte");
  }
  dir.type = static_cast<DataType>(type_byte);
  MIP_ASSIGN_OR_RETURN(dir.num_rows, GetVarint(&r));
  MIP_ASSIGN_OR_RETURN(dir.num_entries, GetVarint(&r));
  MIP_ASSIGN_OR_RETURN(dir.nan_count, GetVarint(&r));
  if (dir.num_rows > kMaxWireElements || dir.num_entries > dir.num_rows ||
      dir.nan_count > dir.num_rows - dir.num_entries) {
    return Corrupt(path, "entry counts exceed row count");
  }
  if (dir.nan_count > 0 && dir.type != DataType::kFloat64) {
    return Corrupt(path, "NaN list on a non-double column");
  }
  if (dir.nan_count > 0) {
    MIP_ASSIGN_OR_RETURN(dir.nan_block,
                         kSegmentFormat.GetBlockRef(path, directory_offset,
                                                    "index NaN block", &r));
  }
  MIP_ASSIGN_OR_RETURN(uint64_t num_blocks, GetVarint(&r));
  if (num_blocks > kMaxIndexBlocks) {
    return Corrupt(path, "block count exceeds cap");
  }
  uint64_t total = 0;
  for (uint64_t i = 0; i < num_blocks; ++i) {
    IndexBlock b;
    MIP_RETURN_NOT_OK(ReadBlockKey(dir.type, true, &r, &b));
    MIP_RETURN_NOT_OK(ReadBlockKey(dir.type, false, &r, &b));
    MIP_ASSIGN_OR_RETURN(b.count, GetVarint(&r));
    MIP_ASSIGN_OR_RETURN(b.ref, kSegmentFormat.GetBlockRef(
                                    path, directory_offset, "index block", &r));
    if (b.count == 0 || b.count > kIndexBlockEntries) {
      return Corrupt(path, "bad block entry count");
    }
    if (!BlockSelfOrdered(dir.type, b)) {
      return Corrupt(path, "block first key after last key");
    }
    if (!dir.blocks.empty() && !BlocksOrdered(dir.type, dir.blocks.back(), b)) {
      return Corrupt(path, "blocks out of key order");
    }
    total += b.count;
    dir.blocks.push_back(std::move(b));
  }
  if (total != dir.num_entries) {
    return Corrupt(path, "block counts disagree with num_entries");
  }
  if (!r.AtEnd()) return Corrupt(path, "trailing bytes after directory");
  return dir;
}

/// Reads, parses and checks index `i` of `footer` against its column.
Result<IndexDirectory> ReadDirectory(const FramedFileReader& file,
                                     const SegmentFooter& footer, size_t i) {
  const SegmentIndex& index = footer.indexes[i];
  const SegmentColumn& col = footer.columns[index.field];
  std::vector<uint8_t> bytes;
  MIP_RETURN_NOT_OK(file.ReadBlock(index.directory,
                                   "index '" + col.name + "' directory",
                                   &bytes));
  MIP_ASSIGN_OR_RETURN(
      IndexDirectory dir,
      ParseDirectory(file.path(), bytes, index.directory.offset));
  if (dir.column != col.name || dir.type != col.type ||
      dir.num_rows != footer.num_rows) {
    return Corrupt(file.path(), "'" + dir.column +
                                    "' disagrees with the segment footer");
  }
  return dir;
}

struct DecodedBlock {
  std::vector<int64_t> key_i;
  std::vector<double> key_d;
  std::vector<std::string> key_s;
  std::vector<int64_t> rows;
};

Result<DecodedBlock> ReadEntryBlock(const FramedFileReader& file,
                                    const IndexDirectory& dir,
                                    const IndexBlock& block) {
  const std::string& path = file.path();
  std::vector<uint8_t> bytes;
  MIP_RETURN_NOT_OK(file.ReadBlock(block.ref, "index block", &bytes));
  BufferReader r(bytes);
  DecodedBlock out;
  size_t n = 0;
  switch (dir.type) {
    case DataType::kBool:
    case DataType::kInt64: {
      MIP_ASSIGN_OR_RETURN(out.key_i, DecodeInts(&r));
      n = out.key_i.size();
      break;
    }
    case DataType::kFloat64: {
      MIP_ASSIGN_OR_RETURN(out.key_d, DecodeDoubles(&r));
      n = out.key_d.size();
      break;
    }
    case DataType::kString: {
      MIP_ASSIGN_OR_RETURN(out.key_s, DecodeStrings(&r));
      n = out.key_s.size();
      break;
    }
  }
  MIP_ASSIGN_OR_RETURN(out.rows, DecodeInts(&r));
  if (n != block.count || out.rows.size() != block.count) {
    return Corrupt(path, "block entry count mismatch");
  }
  if (!r.AtEnd()) return Corrupt(path, "trailing bytes in block");
  return out;
}

/// Audits every entry and NaN block of one directory.
Status AuditIndex(const FramedFileReader& file, const IndexDirectory& dir) {
  const std::string& path = file.path();
  bool have_prev = false;
  int64_t prev_i = 0;
  double prev_d = 0.0;
  std::string prev_s;
  int64_t prev_row = 0;
  for (const IndexBlock& b : dir.blocks) {
    MIP_ASSIGN_OR_RETURN(DecodedBlock decoded, ReadEntryBlock(file, dir, b));
    for (uint64_t k = 0; k < b.count; ++k) {
      const int64_t row = decoded.rows[k];
      if (row < 0 || static_cast<uint64_t>(row) >= dir.num_rows) {
        return Corrupt(path, "row id out of range");
      }
      // Strict (key, row-id) order also proves row-id uniqueness.
      auto follows = [&](auto* prev, const auto& key) {
        const bool after = !have_prev || *prev < key ||
                           (*prev == key && prev_row < row);
        *prev = key;
        return after;
      };
      bool ordered = true;
      switch (dir.type) {
        case DataType::kBool:
        case DataType::kInt64:
          ordered = follows(&prev_i, decoded.key_i[k]);
          break;
        case DataType::kFloat64:
          if (std::isnan(decoded.key_d[k])) {
            return Corrupt(path, "NaN entry key");
          }
          ordered = follows(&prev_d, decoded.key_d[k]);
          break;
        case DataType::kString:
          ordered = follows(&prev_s, decoded.key_s[k]);
          break;
      }
      if (!ordered) return Corrupt(path, "entries out of (key, row) order");
      prev_row = row;
      have_prev = true;
    }
  }
  if (dir.nan_count > 0) {
    std::vector<uint8_t> bytes;
    MIP_RETURN_NOT_OK(file.ReadBlock(dir.nan_block, "index NaN block", &bytes));
    BufferReader r(bytes);
    MIP_ASSIGN_OR_RETURN(std::vector<int64_t> rows, DecodeInts(&r));
    if (rows.size() != dir.nan_count || !r.AtEnd()) {
      return Corrupt(path, "NaN block count mismatch");
    }
    for (int64_t row : rows) {
      if (row < 0 || static_cast<uint64_t>(row) >= dir.num_rows) {
        return Corrupt(path, "NaN row id out of range");
      }
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<Result<IndexDirectory>> ReadIndexDirectories(
    const std::string& path, const SegmentFooter& footer) {
  Result<FramedFileReader> file = FramedFileReader::Open(kSegmentFormat, path);
  std::vector<Result<IndexDirectory>> out;
  out.reserve(footer.indexes.size());
  for (size_t i = 0; i < footer.indexes.size(); ++i) {
    out.push_back(file.ok() ? ReadDirectory(*file, footer, i)
                            : Result<IndexDirectory>(file.status()));
  }
  return out;
}

Result<IndexProbe> ProbeIndex(const std::string& path,
                              const IndexDirectory& directory,
                              const KeyInterval& interval) {
  IndexProbe probe;
  const uint64_t nan_part = interval.include_nan ? directory.nan_count : 0;
  if (interval.empty) {
    probe.candidates = nan_part;
    return probe;
  }
  if (!interval.restricts) {
    probe.candidates = directory.num_entries + directory.nan_count;
    return probe;
  }
  const DataType type = directory.type;
  const bool is_string = type == DataType::kString;
  // Opened at the first block that needs decoding: a probe the directory
  // answers alone does no I/O.
  std::optional<FramedFileReader> file;
  for (const IndexBlock& b : directory.blocks) {
    // Block key ranges vs the interval: skip blocks entirely outside, count
    // blocks entirely inside from the directory alone, decode only
    // straddlers.
    const double first_d = type == DataType::kFloat64
                               ? b.first_d
                               : static_cast<double>(b.first_i);
    const double last_d = type == DataType::kFloat64
                              ? b.last_d
                              : static_cast<double>(b.last_i);
    const bool all_above =
        is_string ? BelowLoS(interval, b.last_s) : BelowLo(interval, last_d);
    if (all_above) continue;  // whole block below the interval
    const bool past_hi =
        is_string ? AboveHiS(interval, b.first_s) : AboveHi(interval, first_d);
    if (past_hi) break;  // sorted: this and every later block are above
    const bool inside =
        is_string ? (!BelowLoS(interval, b.first_s) &&
                     !AboveHiS(interval, b.last_s))
                  : (!BelowLo(interval, first_d) && !AboveHi(interval, last_d));
    if (inside) {
      probe.candidates += b.count;
      continue;
    }
    if (!file.has_value()) {
      MIP_ASSIGN_OR_RETURN(file, FramedFileReader::Open(kSegmentFormat, path));
    }
    MIP_ASSIGN_OR_RETURN(DecodedBlock decoded,
                         ReadEntryBlock(*file, directory, b));
    ++probe.blocks_read;
    for (uint64_t k = 0; k < b.count; ++k) {
      bool in;
      if (is_string) {
        const std::string& key = decoded.key_s[k];
        in = !BelowLoS(interval, key) && !AboveHiS(interval, key);
      } else {
        const double key = type == DataType::kFloat64
                               ? decoded.key_d[k]
                               : static_cast<double>(decoded.key_i[k]);
        in = !BelowLo(interval, key) && !AboveHi(interval, key);
      }
      if (in) ++probe.candidates;
    }
  }
  probe.candidates += nan_part;
  return probe;
}

Status VerifyIndex(const std::string& path, const SegmentFooter& footer) {
  MIP_ASSIGN_OR_RETURN(FramedFileReader file,
                       FramedFileReader::Open(kSegmentFormat, path));
  for (size_t i = 0; i < footer.indexes.size(); ++i) {
    MIP_ASSIGN_OR_RETURN(IndexDirectory dir, ReadDirectory(file, footer, i));
    MIP_RETURN_NOT_OK(AuditIndex(file, dir));
  }
  return Status::OK();
}

}  // namespace mip::storage
