#include "engine/encoding.h"

#include <cstring>
#include <unordered_map>

namespace mip::engine {

namespace {

void PutBlockHeader(BufferWriter* w, Codec codec, uint64_t count) {
  w->WriteU8(static_cast<uint8_t>(codec));
  PutVarint(w, count);
}

struct BlockHeader {
  Codec codec;
  uint64_t count;
};

/// Reads and validates one block header. `allowed` is a bitmask over codec
/// values — a codec byte outside the set valid for the value type is a
/// corrupt block, not a fallback.
Result<BlockHeader> ReadBlockHeader(BufferReader* r, uint32_t allowed) {
  MIP_ASSIGN_OR_RETURN(uint8_t codec_byte, r->ReadU8());
  if (codec_byte > static_cast<uint8_t>(Codec::kXorDouble) ||
      (allowed & (1u << codec_byte)) == 0) {
    return Status::IOError("column block has invalid codec byte " +
                           std::to_string(codec_byte));
  }
  MIP_ASSIGN_OR_RETURN(uint64_t count, GetVarint(r));
  if (count > kMaxWireElements) {
    return Status::IOError("column block count " + std::to_string(count) +
                           " exceeds the element limit");
  }
  return BlockHeader{static_cast<Codec>(codec_byte), count};
}

constexpr uint32_t CodecBit(Codec c) { return 1u << static_cast<uint8_t>(c); }

Status ZeroRunError() {
  return Status::IOError("zero-length RLE run");
}

Status RunOverflowError() {
  return Status::IOError("RLE runs exceed the block count");
}

/// Appends one block with `decode` and checks it held `num_rows` values.
template <typename T>
Status DecodeRows(BufferReader* r,
                  Status (*decode)(BufferReader*, std::vector<T>*),
                  uint64_t num_rows, std::vector<T>* out) {
  const size_t base = out->size();
  MIP_RETURN_NOT_OK(decode(r, out));
  if (out->size() - base != num_rows) {
    return Status::IOError("column length does not match row count");
  }
  return Status::OK();
}

/// The value-returning form of an append decoder: decode into a fresh
/// vector.
template <typename T>
Result<std::vector<T>> DecodeFresh(BufferReader* r,
                                   Status (*decode)(BufferReader*,
                                                    std::vector<T>*)) {
  std::vector<T> out;
  MIP_RETURN_NOT_OK(decode(r, &out));
  return out;
}

}  // namespace

void PutVarint(BufferWriter* w, uint64_t v) {
  while (v >= 0x80) {
    w->WriteU8(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  w->WriteU8(static_cast<uint8_t>(v));
}

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

Result<uint64_t> GetVarint(BufferReader* r) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    MIP_ASSIGN_OR_RETURN(uint8_t b, r->ReadU8());
    if (shift == 63 && (b & 0x7F) > 1) {
      return Status::IOError("varint overflows 64 bits");
    }
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
  }
  return Status::IOError("varint longer than 10 bytes");
}

Codec EncodeInts(const std::vector<int64_t>& values, BufferWriter* w) {
  const uint64_t n = values.size();
  const size_t raw_size = values.size() * sizeof(int64_t);
  // Candidate: zigzag varints of consecutive deltas (first delta vs 0).
  // Deltas are computed in uint64 wraparound arithmetic so INT64_MIN/MAX
  // neighbors cannot trip signed overflow.
  BufferWriter delta;
  uint64_t prev = 0;
  for (int64_t v : values) {
    const uint64_t cur = static_cast<uint64_t>(v);
    PutVarint(&delta, ZigZagEncode(static_cast<int64_t>(cur - prev)));
    prev = cur;
  }
  if (n > 0 && delta.size() < raw_size) {
    PutBlockHeader(w, Codec::kDeltaVarint, n);
    w->AppendRaw(delta.bytes().data(), delta.size());
    return Codec::kDeltaVarint;
  }
  PutBlockHeader(w, Codec::kRaw, n);
  w->AppendRaw(values.data(), raw_size);
  return Codec::kRaw;
}

Status DecodeInts(BufferReader* r, std::vector<int64_t>* out) {
  MIP_ASSIGN_OR_RETURN(
      BlockHeader h,
      ReadBlockHeader(r, CodecBit(Codec::kRaw) | CodecBit(Codec::kDeltaVarint)));
  if (h.codec == Codec::kRaw) {
    if (h.count * sizeof(int64_t) > r->Remaining()) {
      return Status::IOError("truncated raw int block");
    }
    const size_t base = out->size();
    out->resize(base + h.count);
    if (h.count > 0) {
      MIP_RETURN_NOT_OK(r->ReadRawBytes(out->data() + base,
                                        h.count * sizeof(int64_t)));
    }
    return Status::OK();
  }
  if (h.count > r->Remaining()) {
    return Status::IOError("truncated delta-varint int block");
  }
  out->reserve(out->size() + h.count);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < h.count; ++i) {
    MIP_ASSIGN_OR_RETURN(uint64_t z, GetVarint(r));
    prev += static_cast<uint64_t>(ZigZagDecode(z));
    out->push_back(static_cast<int64_t>(prev));
  }
  return Status::OK();
}

Result<std::vector<int64_t>> DecodeInts(BufferReader* r) {
  return DecodeFresh<int64_t>(r, &DecodeInts);
}

Codec EncodeDoubles(const std::vector<double>& values, BufferWriter* w) {
  const uint64_t n = values.size();
  const size_t raw_size = values.size() * sizeof(double);
  // Candidate: varint of the IEEE-754 bits XORed with the previous value's
  // bits — repeated and sign/exponent-stable sequences collapse, while
  // values are reproduced bit-exactly (NaN payloads, -0.0, infinities).
  BufferWriter xr;
  uint64_t prev = 0;
  for (double v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    PutVarint(&xr, bits ^ prev);
    prev = bits;
  }
  if (n > 0 && xr.size() < raw_size) {
    PutBlockHeader(w, Codec::kXorDouble, n);
    w->AppendRaw(xr.bytes().data(), xr.size());
    return Codec::kXorDouble;
  }
  PutBlockHeader(w, Codec::kRaw, n);
  w->AppendRaw(values.data(), raw_size);
  return Codec::kRaw;
}

Status DecodeDoubles(BufferReader* r, std::vector<double>* out) {
  MIP_ASSIGN_OR_RETURN(
      BlockHeader h,
      ReadBlockHeader(r, CodecBit(Codec::kRaw) | CodecBit(Codec::kXorDouble)));
  if (h.codec == Codec::kRaw) {
    if (h.count * sizeof(double) > r->Remaining()) {
      return Status::IOError("truncated raw double block");
    }
    const size_t base = out->size();
    out->resize(base + h.count);
    if (h.count > 0) {
      MIP_RETURN_NOT_OK(r->ReadRawBytes(out->data() + base,
                                        h.count * sizeof(double)));
    }
    return Status::OK();
  }
  if (h.count > r->Remaining()) {
    return Status::IOError("truncated xor-double block");
  }
  out->reserve(out->size() + h.count);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < h.count; ++i) {
    MIP_ASSIGN_OR_RETURN(uint64_t x, GetVarint(r));
    prev ^= x;
    double v = 0.0;
    std::memcpy(&v, &prev, sizeof(v));
    out->push_back(v);
  }
  return Status::OK();
}

Result<std::vector<double>> DecodeDoubles(BufferReader* r) {
  return DecodeFresh<double>(r, &DecodeDoubles);
}

Codec EncodeBools(const std::vector<uint8_t>& values, BufferWriter* w) {
  const uint64_t n = values.size();
  // Candidate: (value byte, varint run length) pairs over exact byte runs,
  // so decode reproduces the input bytes verbatim.
  BufferWriter rle;
  size_t i = 0;
  while (i < values.size()) {
    const uint8_t v = values[i];
    size_t j = i + 1;
    while (j < values.size() && values[j] == v) ++j;
    rle.WriteU8(v);
    PutVarint(&rle, j - i);
    i = j;
  }
  if (n > 0 && rle.size() < values.size()) {
    PutBlockHeader(w, Codec::kRle, n);
    w->AppendRaw(rle.bytes().data(), rle.size());
    return Codec::kRle;
  }
  PutBlockHeader(w, Codec::kRaw, n);
  w->AppendRaw(values.data(), values.size());
  return Codec::kRaw;
}

Status DecodeBools(BufferReader* r, std::vector<uint8_t>* out) {
  MIP_ASSIGN_OR_RETURN(
      BlockHeader h,
      ReadBlockHeader(r, CodecBit(Codec::kRaw) | CodecBit(Codec::kRle)));
  if (h.codec == Codec::kRaw) {
    if (h.count > r->Remaining()) {
      return Status::IOError("truncated raw bool block");
    }
    const size_t base = out->size();
    out->resize(base + h.count);
    if (h.count > 0) {
      MIP_RETURN_NOT_OK(r->ReadRawBytes(out->data() + base, h.count));
    }
    return Status::OK();
  }
  out->reserve(out->size() + h.count);
  uint64_t total = 0;
  while (total < h.count) {
    MIP_ASSIGN_OR_RETURN(uint8_t v, r->ReadU8());
    MIP_ASSIGN_OR_RETURN(uint64_t run, GetVarint(r));
    if (run == 0) return ZeroRunError();
    if (run > h.count - total) return RunOverflowError();
    out->insert(out->end(), run, v);
    total += run;
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> DecodeBools(BufferReader* r) {
  return DecodeFresh<uint8_t>(r, &DecodeBools);
}

Codec EncodeStrings(const std::vector<std::string>& values, BufferWriter* w) {
  const uint64_t n = values.size();
  size_t raw_size = 0;
  for (const std::string& s : values) {
    raw_size += VarintSize(s.size()) + s.size();
  }
  // Candidate: first-appearance dictionary + per-row varint indices, sized
  // analytically before committing any bytes. More than kDictMaxEntries
  // distinct values spills to raw.
  std::unordered_map<std::string, uint32_t> index_of;
  std::vector<const std::string*> entries;
  std::vector<uint32_t> indices;
  indices.reserve(values.size());
  bool dict_viable = n > 0;
  size_t dict_size = 0;
  for (const std::string& s : values) {
    if (!dict_viable) break;
    auto [it, inserted] =
        index_of.emplace(s, static_cast<uint32_t>(entries.size()));
    if (inserted) {
      if (entries.size() >= kDictMaxEntries) {
        dict_viable = false;
        break;
      }
      entries.push_back(&s);
      dict_size += VarintSize(s.size()) + s.size();
    }
    indices.push_back(it->second);
    dict_size += VarintSize(it->second);
  }
  if (dict_viable) {
    dict_size += VarintSize(entries.size());
    if (dict_size < raw_size) {
      PutBlockHeader(w, Codec::kDict, n);
      PutVarint(w, entries.size());
      for (const std::string* s : entries) {
        PutVarint(w, s->size());
        w->AppendRaw(s->data(), s->size());
      }
      for (uint32_t idx : indices) PutVarint(w, idx);
      return Codec::kDict;
    }
  }
  PutBlockHeader(w, Codec::kRaw, n);
  for (const std::string& s : values) {
    PutVarint(w, s.size());
    w->AppendRaw(s.data(), s.size());
  }
  return Codec::kRaw;
}

Status DecodeStrings(BufferReader* r, std::vector<std::string>* out) {
  MIP_ASSIGN_OR_RETURN(
      BlockHeader h,
      ReadBlockHeader(r, CodecBit(Codec::kRaw) | CodecBit(Codec::kDict)));
  if (h.codec == Codec::kRaw) {
    if (h.count > r->Remaining()) {
      return Status::IOError("truncated raw string block");
    }
    out->reserve(out->size() + h.count);
    for (uint64_t i = 0; i < h.count; ++i) {
      MIP_ASSIGN_OR_RETURN(uint64_t len, GetVarint(r));
      if (len > r->Remaining()) {
        return Status::IOError("truncated string payload");
      }
      std::string& s = out->emplace_back(len, '\0');
      if (len > 0) MIP_RETURN_NOT_OK(r->ReadRawBytes(s.data(), len));
    }
    return Status::OK();
  }
  MIP_ASSIGN_OR_RETURN(uint64_t num_entries, GetVarint(r));
  if (num_entries > kDictMaxEntries) {
    return Status::IOError("string dictionary exceeds the entry limit");
  }
  if (num_entries > r->Remaining()) {
    return Status::IOError("truncated string dictionary");
  }
  std::vector<std::string> dict;
  dict.reserve(num_entries);
  for (uint64_t i = 0; i < num_entries; ++i) {
    MIP_ASSIGN_OR_RETURN(uint64_t len, GetVarint(r));
    if (len > r->Remaining()) {
      return Status::IOError("truncated dictionary entry");
    }
    std::string s(len, '\0');
    if (len > 0) MIP_RETURN_NOT_OK(r->ReadRawBytes(s.data(), len));
    dict.push_back(std::move(s));
  }
  if (h.count > r->Remaining()) {
    return Status::IOError("truncated dictionary index block");
  }
  out->reserve(out->size() + h.count);
  for (uint64_t i = 0; i < h.count; ++i) {
    MIP_ASSIGN_OR_RETURN(uint64_t idx, GetVarint(r));
    if (idx >= dict.size()) {
      return Status::IOError("dictionary index out of range");
    }
    out->push_back(dict[idx]);
  }
  return Status::OK();
}

Result<std::vector<std::string>> DecodeStrings(BufferReader* r) {
  return DecodeFresh<std::string>(r, &DecodeStrings);
}

Codec EncodeValidity(const Bitmap& validity, BufferWriter* w) {
  const size_t n = validity.length();
  const size_t raw_size = ((n + 63) / 64) * sizeof(uint64_t);
  // Candidate: RLE over bit runs — validity is usually a few long runs.
  BufferWriter rle;
  size_t i = 0;
  while (i < n) {
    const bool v = validity.Get(i);
    size_t j = i + 1;
    while (j < n && validity.Get(j) == v) ++j;
    rle.WriteU8(v ? 1 : 0);
    PutVarint(&rle, j - i);
    i = j;
  }
  if (n > 0 && rle.size() < raw_size) {
    PutBlockHeader(w, Codec::kRle, n);
    w->AppendRaw(rle.bytes().data(), rle.size());
    return Codec::kRle;
  }
  PutBlockHeader(w, Codec::kRaw, n);
  // Canonical packed words rebuilt from the bits (never trailing garbage).
  std::vector<uint64_t> words((n + 63) / 64, 0);
  for (size_t b = 0; b < n; ++b) {
    if (validity.Get(b)) words[b >> 6] |= 1ull << (b & 63);
  }
  w->AppendRaw(words.data(), raw_size);
  return Codec::kRaw;
}

Result<Bitmap> DecodeValidity(BufferReader* r) {
  MIP_ASSIGN_OR_RETURN(
      BlockHeader h,
      ReadBlockHeader(r, CodecBit(Codec::kRaw) | CodecBit(Codec::kRle)));
  Bitmap out(h.count, true);
  if (h.codec == Codec::kRaw) {
    const size_t num_words = (h.count + 63) / 64;
    if (num_words * sizeof(uint64_t) > r->Remaining()) {
      return Status::IOError("truncated validity word block");
    }
    std::vector<uint64_t> words(num_words);
    if (num_words > 0) {
      MIP_RETURN_NOT_OK(r->ReadRawBytes(words.data(),
                                        num_words * sizeof(uint64_t)));
    }
    for (uint64_t i = 0; i < h.count; ++i) {
      if (((words[i >> 6] >> (i & 63)) & 1ull) == 0) out.Set(i, false);
    }
    return out;
  }
  uint64_t total = 0;
  while (total < h.count) {
    MIP_ASSIGN_OR_RETURN(uint8_t v, r->ReadU8());
    MIP_ASSIGN_OR_RETURN(uint64_t run, GetVarint(r));
    if (run == 0) return ZeroRunError();
    if (run > h.count - total) return RunOverflowError();
    if (v == 0) {
      for (uint64_t i = 0; i < run; ++i) out.Set(total + i, false);
    }
    total += run;
  }
  return out;
}

void EncodeColumn(const Column& column, BufferWriter* w) {
  w->WriteBool(column.has_validity());
  if (column.has_validity()) EncodeValidity(column.validity(), w);
  switch (column.type()) {
    case DataType::kBool:
      EncodeBools(column.bools(), w);
      break;
    case DataType::kInt64:
      EncodeInts(column.ints(), w);
      break;
    case DataType::kFloat64:
      EncodeDoubles(column.doubles(), w);
      break;
    case DataType::kString:
      EncodeStrings(column.strings(), w);
      break;
  }
}

Result<Bitmap> DecodeColumn(BufferReader* r, uint64_t num_rows,
                            Column* column) {
  MIP_ASSIGN_OR_RETURN(uint8_t has_validity, r->ReadU8());
  if (has_validity > 1) return Status::IOError("bad validity flag");
  Bitmap validity;
  if (has_validity == 1) {
    MIP_ASSIGN_OR_RETURN(validity, DecodeValidity(r));
    if (validity.length() != num_rows) {
      return Status::IOError("validity length does not match row count");
    }
  }
  switch (column->type()) {
    case DataType::kBool:
      MIP_RETURN_NOT_OK(
          DecodeRows(r, &DecodeBools, num_rows, &column->mutable_bools()));
      break;
    case DataType::kInt64:
      MIP_RETURN_NOT_OK(
          DecodeRows(r, &DecodeInts, num_rows, &column->mutable_ints()));
      break;
    case DataType::kFloat64:
      MIP_RETURN_NOT_OK(
          DecodeRows(r, &DecodeDoubles, num_rows, &column->mutable_doubles()));
      break;
    case DataType::kString:
      MIP_RETURN_NOT_OK(DecodeRows(r, &DecodeStrings, num_rows,
                                   &column->mutable_strings()));
      break;
  }
  return validity;
}

}  // namespace mip::engine
