#include "rel/column_block.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace xmlshred {

namespace {

constexpr uint8_t kTagNull = static_cast<uint8_t>(CellTag::kNull);
constexpr uint8_t kTagInt = static_cast<uint8_t>(CellTag::kInt);
constexpr uint8_t kTagReal = static_cast<uint8_t>(CellTag::kReal);
constexpr uint8_t kTagStr = static_cast<uint8_t>(CellTag::kStr);

void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v & 0xff));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (static_cast<uint16_t>(p[1]) << 8));
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

// Little-endian 64-bit load from an unaligned address.
uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

// Bits needed for the largest delta (0 deltas -> width 0).
int BitWidthFor(uint64_t max_delta) {
  int w = 0;
  while (max_delta != 0) {
    ++w;
    max_delta >>= 1;
  }
  return w;
}

// Widest delta the word-at-a-time kernels move: a value starting at any
// bit offset 0..7 of its first byte then lies within one 64-bit word.
constexpr int kMaxWordWidth = 56;

// LSB-first bit packing: delta i occupies bits [i*width, (i+1)*width).
// Deltas go into a 64-bit accumulator that is flushed a byte at a time;
// widths above kMaxWordWidth, which could overflow it, take the bit loop.
void PackBits(std::vector<uint8_t>* out, const uint64_t* deltas, size_t n,
              int width) {
  if (width == 0) return;
  size_t total_bits = n * static_cast<size_t>(width);
  size_t start = out->size();
  out->resize(start + (total_bits + 7) / 8, 0);
  uint8_t* bytes = out->data() + start;
  if (width > kMaxWordWidth) {
    size_t bit = 0;
    for (size_t i = 0; i < n; ++i) {
      for (int b = 0; b < width; ++b, ++bit) {
        if ((deltas[i] >> b) & 1u) {
          bytes[bit >> 3] |= static_cast<uint8_t>(1u << (bit & 7));
        }
      }
    }
    return;
  }
  uint64_t acc = 0;
  int pending = 0;  // bits held in acc, always < 8 between deltas
  for (size_t i = 0; i < n; ++i) {
    acc |= deltas[i] << pending;
    pending += width;
    while (pending >= 8) {
      *bytes++ = static_cast<uint8_t>(acc);
      acc >>= 8;
      pending -= 8;
    }
  }
  if (pending > 0) *bytes = static_cast<uint8_t>(acc);
}

// Inverse of PackBits over a payload of `payload_bytes` bytes. Up to
// kMaxWordWidth bits, each delta is one little-endian 64-bit load, a shift
// and a mask, for as long as 8 bytes remain from the delta's first byte;
// wider deltas and the last few of the payload take the bit loop, so no
// read passes the payload's end.
void UnpackBits(const uint8_t* bytes, size_t payload_bytes, size_t n,
                int width, uint64_t* out) {
  if (width == 0) {
    std::fill(out, out + n, uint64_t{0});
    return;
  }
  size_t w = static_cast<size_t>(width);
  XS_CHECK_LE(n * w, payload_bytes * 8);
  size_t i = 0;
  if (width <= kMaxWordWidth && payload_bytes >= 8) {
    // Delta i's load covers bytes [i*w/8, i*w/8 + 8): in bounds while
    // i*w < 8 * (payload_bytes - 7).
    size_t word_end = std::min(n, (8 * (payload_bytes - 7) - 1) / w + 1);
    uint64_t mask = (uint64_t{1} << width) - 1;
    for (size_t bit = 0; i < word_end; ++i, bit += w) {
      out[i] = (GetU64(bytes + (bit >> 3)) >> (bit & 7)) & mask;
    }
  }
  for (; i < n; ++i) {
    uint64_t v = 0;
    size_t bit = i * w;
    for (int b = 0; b < width; ++b, ++bit) {
      if ((bytes[bit >> 3] >> (bit & 7)) & 1u) v |= uint64_t{1} << b;
    }
    out[i] = v;
  }
}

struct BlockShape {
  size_t runs = 0;           // number of (tag, bits) runs
  bool all_int = false;      // every tag == kInt
  bool all_str = false;      // every tag == kStr
  uint64_t int_min_bits = 0;  // two's-complement min when all_int
  uint64_t int_range = 0;     // wraparound-safe max - min when all_int
  uint32_t code_min = 0;      // when all_str
  uint32_t code_range = 0;    // when all_str
};

BlockShape AnalyzeBlock(const uint8_t* tags, const uint64_t* data, size_t n) {
  BlockShape s;
  s.all_int = true;
  s.all_str = true;
  int64_t imin = 0, imax = 0;
  uint32_t cmin = 0, cmax = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || tags[i] != tags[i - 1] || data[i] != data[i - 1]) ++s.runs;
    if (tags[i] != kTagInt) s.all_int = false;
    if (tags[i] != kTagStr) s.all_str = false;
    if (s.all_int) {
      int64_t v = static_cast<int64_t>(data[i]);
      if (i == 0 || v < imin) imin = v;
      if (i == 0 || v > imax) imax = v;
    }
    if (s.all_str) {
      uint32_t c = static_cast<uint32_t>(data[i]);
      if (i == 0 || c < cmin) cmin = c;
      if (i == 0 || c > cmax) cmax = c;
    }
  }
  if (s.all_int && n > 0) {
    s.int_min_bits = static_cast<uint64_t>(imin);
    s.int_range = static_cast<uint64_t>(imax) - static_cast<uint64_t>(imin);
  }
  if (s.all_str && n > 0) {
    s.code_min = cmin;
    s.code_range = cmax - cmin;
  }
  return s;
}

}  // namespace

ZoneMap BuildZoneMap(const uint8_t* tags, const uint64_t* data, size_t n) {
  ZoneMap z;
  bool have_code = false;
  for (size_t i = 0; i < n; ++i) {
    z.tag_mask |= static_cast<uint8_t>(1u << tags[i]);
    if (tags[i] == kTagInt || tags[i] == kTagReal) {
      double v = CellAsNumeric(Cell{tags[i], data[i]});
      if (!std::isnan(v)) {
        if (!z.has_num || v < z.num_min) z.num_min = v;
        if (!z.has_num || v > z.num_max) z.num_max = v;
        z.has_num = true;
      }
    } else if (tags[i] == kTagStr) {
      uint32_t c = static_cast<uint32_t>(data[i]);
      if (!have_code || c < z.code_min) z.code_min = c;
      if (!have_code || c > z.code_max) z.code_max = c;
      have_code = true;
    }
  }
  return z;
}

bool ZoneCanMatch(const ZoneMap& zone, const ZoneProbe& probe) {
  switch (probe.kind) {
    case ZoneProbe::Kind::kNone:
      return true;
    case ZoneProbe::Kind::kNever:
      return false;
    case ZoneProbe::Kind::kIsNotNull:
      return (zone.tag_mask & ~static_cast<uint8_t>(1u << kTagNull)) != 0;
    case ZoneProbe::Kind::kNumEq:
      return zone.has_num && zone.num_min <= probe.num &&
             probe.num <= zone.num_max;
    case ZoneProbe::Kind::kNumLt:
      return zone.has_num && zone.num_min < probe.num;
    case ZoneProbe::Kind::kNumLe:
      return zone.has_num && zone.num_min <= probe.num;
    case ZoneProbe::Kind::kNumGt:
      return zone.has_num && zone.num_max > probe.num;
    case ZoneProbe::Kind::kNumGe:
      return zone.has_num && zone.num_max >= probe.num;
    case ZoneProbe::Kind::kCodeEq:
      return zone.HasTag(CellTag::kStr) && zone.code_min <= probe.code &&
             probe.code <= zone.code_max;
    case ZoneProbe::Kind::kHasStr:
      return zone.HasTag(CellTag::kStr);
  }
  return true;
}

EncodedBlock EncodeBlock(const uint8_t* tags, const uint64_t* data, size_t n) {
  XS_CHECK(n > 0 && n <= kStorageBlockRows);
  BlockShape shape = AnalyzeBlock(tags, data, n);

  size_t plain_size = n * 9;
  size_t rle_size = shape.runs * 11;
  int int_width = shape.all_int ? BitWidthFor(shape.int_range) : 0;
  size_t bitpack_int_size =
      shape.all_int ? 9 + (n * static_cast<size_t>(int_width) + 7) / 8
                    : plain_size + 1;
  int code_width = shape.all_str ? BitWidthFor(shape.code_range) : 0;
  size_t bitpack_code_size =
      shape.all_str ? 5 + (n * static_cast<size_t>(code_width) + 7) / 8
                    : plain_size + 1;

  // Smallest wins; fixed tie priority kRle < kBitPackInt < kBitPackCode <
  // kPlain keeps the choice deterministic.
  BlockEncoding enc = BlockEncoding::kRle;
  size_t best = rle_size;
  if (shape.all_int && bitpack_int_size < best) {
    enc = BlockEncoding::kBitPackInt;
    best = bitpack_int_size;
  }
  if (shape.all_str && bitpack_code_size < best) {
    enc = BlockEncoding::kBitPackCode;
    best = bitpack_code_size;
  }
  if (plain_size < best) {
    enc = BlockEncoding::kPlain;
    best = plain_size;
  }

  EncodedBlock block;
  block.encoding = enc;
  block.rows = static_cast<uint32_t>(n);
  block.zone = BuildZoneMap(tags, data, n);
  block.bytes.reserve(best);
  switch (enc) {
    case BlockEncoding::kPlain: {
      block.bytes.insert(block.bytes.end(), tags, tags + n);
      size_t start = block.bytes.size();
      block.bytes.resize(start + n * 8);
      std::memcpy(block.bytes.data() + start, data, n * 8);
      break;
    }
    case BlockEncoding::kRle: {
      size_t i = 0;
      while (i < n) {
        size_t j = i + 1;
        while (j < n && tags[j] == tags[i] && data[j] == data[i]) ++j;
        block.bytes.push_back(tags[i]);
        PutU64(&block.bytes, data[i]);
        PutU16(&block.bytes, static_cast<uint16_t>(j - i));
        i = j;
      }
      break;
    }
    case BlockEncoding::kBitPackInt: {
      block.bytes.push_back(static_cast<uint8_t>(int_width));
      PutU64(&block.bytes, shape.int_min_bits);
      std::vector<uint64_t> deltas(n);
      for (size_t i = 0; i < n; ++i) deltas[i] = data[i] - shape.int_min_bits;
      PackBits(&block.bytes, deltas.data(), n, int_width);
      break;
    }
    case BlockEncoding::kBitPackCode: {
      block.bytes.push_back(static_cast<uint8_t>(code_width));
      PutU32(&block.bytes, shape.code_min);
      std::vector<uint64_t> deltas(n);
      for (size_t i = 0; i < n; ++i) {
        deltas[i] = static_cast<uint32_t>(data[i]) - shape.code_min;
      }
      PackBits(&block.bytes, deltas.data(), n, code_width);
      break;
    }
  }
  XS_CHECK_EQ(static_cast<int64_t>(block.bytes.size()),
              static_cast<int64_t>(best));
  return block;
}

void DecodeBlock(const EncodedBlock& block, uint8_t* tags, uint64_t* data) {
  size_t n = block.rows;
  const uint8_t* p = block.bytes.data();
  switch (block.encoding) {
    case BlockEncoding::kPlain: {
      std::memcpy(tags, p, n);
      std::memcpy(data, p + n, n * 8);
      break;
    }
    case BlockEncoding::kRle: {
      size_t out = 0;
      for (size_t off = 0; off + 11 <= block.bytes.size(); off += 11) {
        uint8_t tag = p[off];
        uint64_t bits = GetU64(p + off + 1);
        size_t count = GetU16(p + off + 9);
        for (size_t k = 0; k < count; ++k, ++out) {
          tags[out] = tag;
          data[out] = bits;
        }
      }
      XS_CHECK_EQ(static_cast<int64_t>(out), static_cast<int64_t>(n));
      break;
    }
    case BlockEncoding::kBitPackInt: {
      uint64_t min_bits = GetU64(p + 1);
      UnpackBits(p + 9, block.bytes.size() - 9, n, p[0], data);
      std::memset(tags, kTagInt, n);
      for (size_t i = 0; i < n; ++i) data[i] += min_bits;
      break;
    }
    case BlockEncoding::kBitPackCode: {
      uint32_t min_code = GetU32(p + 1);
      UnpackBits(p + 5, block.bytes.size() - 5, n, p[0], data);
      std::memset(tags, kTagStr, n);
      for (size_t i = 0; i < n; ++i) {
        data[i] = min_code + static_cast<uint32_t>(data[i]);
      }
      break;
    }
  }
}

}  // namespace xmlshred
