// Block-encoded columnar storage: per-block encodings + zone maps
// (DESIGN.md §14).
//
// A ColumnVector seals every kStorageBlockRows appended cells into an
// EncodedBlock: a compact byte image under the cheapest of four
// encodings, plus a ZoneMap summarizing the block (tag mask, numeric
// min/max, dictionary-code min/max). Scans consult zone maps to skip
// whole blocks before touching data; page accounting is recomputed from
// the encoded sizes, so compression shows up as fewer metered pages and
// shifts the optimizer's index/covering trade-offs — the logical/physical
// interplay the paper studies.
//
// Determinism contract: encoding choice is a pure function of the block's
// cells (smallest encoded size wins, ties broken by fixed priority), and
// DecodeBlock reproduces the original tag/data arrays bit-exactly — the
// encoded block is the only stored copy of a sealed row, so nothing else
// can stand in for it. The skip set for a scan is a pure function of the
// sealed blocks' zone maps and the compiled predicates.

#ifndef XMLSHRED_REL_COLUMN_BLOCK_H_
#define XMLSHRED_REL_COLUMN_BLOCK_H_

#include <cstdint>
#include <vector>

#include "rel/table_types.h"

namespace xmlshred {

// Rows per sealed block. Equal to the executor's kMorselRows so morsel
// dispatch aligns with block boundaries (a scanned block is exactly one
// morsel; the fault/interrupt replay order is unchanged).
inline constexpr size_t kStorageBlockRows = 4096;

// Accounting overhead charged per sealed block (encoding byte, row count,
// zone-map summary) on top of the encoded payload.
inline constexpr int64_t kBlockHeaderBytes = 16;

enum class BlockEncoding : uint8_t {
  kPlain = 0,        // n tag bytes + 8n data bytes
  kRle = 1,          // runs of identical (tag, bits): 11 bytes per run
  kBitPackInt = 2,   // all-kInt: width byte + 8-byte min + packed deltas
  kBitPackCode = 3,  // all-kStr: width byte + 4-byte min code + deltas
};

inline constexpr int kNumBlockEncodings = 4;

// Per-block summary consulted before decoding. num_min/num_max cover
// int and real cells through CellAsNumeric; NaN cells are excluded (a
// NaN compares false against every numeric literal, so it can never
// satisfy a numeric predicate). code_min/code_max cover kStr cells only
// and are meaningful only when tag_mask has the kStr bit.
struct ZoneMap {
  uint8_t tag_mask = 0;  // bit (1 << CellTag) per tag present
  bool has_num = false;  // any non-NaN int/real cell
  double num_min = 0;
  double num_max = 0;
  uint32_t code_min = 0;
  uint32_t code_max = 0;

  bool HasTag(CellTag t) const {
    return (tag_mask & static_cast<uint8_t>(1u << static_cast<uint8_t>(t))) !=
           0;
  }
};

ZoneMap BuildZoneMap(const uint8_t* tags, const uint64_t* data, size_t n);

// One zone-map question derived from a compiled scan predicate. String
// *range* predicates compare dictionary ranks, which mutate as the
// dictionary grows — code order is insertion order, not collation order —
// so they only map to kHasStr ("could any cell be a string at all"),
// never to a code-range probe. String *equality* is rank-free and maps to
// kCodeEq.
struct ZoneProbe {
  enum class Kind : uint8_t {
    kNone = 0,   // unprunable predicate: always scan
    kNever,      // predicate matches nothing: always skip
    kIsNotNull,  // any non-null tag present?
    kNumEq,      // num in [min, max]?
    kNumLt,      // num_min <  lit?
    kNumLe,      // num_min <= lit?
    kNumGt,      // num_max >  lit?
    kNumGe,      // num_max >= lit?
    kCodeEq,     // str present and code in [code_min, code_max]?
    kHasStr,     // str present at all?
  };
  Kind kind = Kind::kNone;
  double num = 0;
  uint32_t code = 0;
};

// True when a block with `zone` may contain a cell satisfying `probe`
// (false = the whole block is provably predicate-free and can be
// skipped). Conservative: kNone always returns true.
bool ZoneCanMatch(const ZoneMap& zone, const ZoneProbe& probe);

// A sealed, immutable block of kStorageBlockRows cells.
struct EncodedBlock {
  BlockEncoding encoding = BlockEncoding::kPlain;
  uint32_t rows = 0;
  ZoneMap zone;
  std::vector<uint8_t> bytes;

  // Accounted storage footprint: header + payload.
  int64_t encoded_bytes() const {
    return kBlockHeaderBytes + static_cast<int64_t>(bytes.size());
  }
};

// Encodes `n` cells, choosing the smallest applicable encoding
// (deterministic tie order: kRle, kBitPackInt, kBitPackCode, kPlain).
EncodedBlock EncodeBlock(const uint8_t* tags, const uint64_t* data, size_t n);

// Reconstructs the original arrays bit-exactly. `tags`/`data` must hold
// block.rows entries.
void DecodeBlock(const EncodedBlock& block, uint8_t* tags, uint64_t* data);

}  // namespace xmlshred

#endif  // XMLSHRED_REL_COLUMN_BLOCK_H_
