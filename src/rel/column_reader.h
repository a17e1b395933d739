// Storage read API (DESIGN.md §14): every reader of column data — the
// executor's scans and fetches, the index builder, view materialization,
// statistics, row materialization and the reconstructor — goes through
// BlockCursor / ColumnReader, because a sealed row exists only as its
// block's encoded byte image. Sealed blocks are decoded into a
// per-cursor scratch buffer; the unsealed tail is served by pointer.
//
// Block skipping (ComputeScanLayout) is a pure function of the sealed
// blocks' zone maps and the compiled predicates.

#ifndef XMLSHRED_REL_COLUMN_READER_H_
#define XMLSHRED_REL_COLUMN_READER_H_

#include <cstdint>
#include <vector>

#include "rel/column_block.h"
#include "rel/table.h"

namespace xmlshred {

// Kept only so that pipebench/pipebench.cc, which passes
// DefaultStorageReadMode() to ColumnReader, compiles unchanged; nothing
// else names StorageReadMode. Encoded blocks are the one read path.
enum class StorageReadMode : uint8_t { kEncoded };
inline StorageReadMode DefaultStorageReadMode() {
  return StorageReadMode::kEncoded;
}

// A decoded (or tail-pointed) view of one block of one column. Valid
// until the owning cursor reads another block or is destroyed.
struct BlockView {
  const uint8_t* tags = nullptr;
  const uint64_t* data = nullptr;
  size_t rows = 0;
  size_t base = 0;  // row id of the first row in the view
};

// Sequential/random block access over one column. Blocks are numbered
// 0..num_blocks()-1: the sealed blocks first, then (if any rows remain)
// one tail block of tail_rows() plain cells.
class BlockCursor {
 public:
  explicit BlockCursor(const ColumnVector& col);

  size_t num_blocks() const { return num_blocks_; }
  // Total rows across all blocks (== col.size()).
  size_t num_rows() const { return col_->size(); }
  // Row id of the first row of block `b`.
  size_t BlockBase(size_t b) const { return b * kStorageBlockRows; }

  // Reads block `b`. A sealed block is decoded into the cursor's scratch
  // (cached: re-reading the same block is free); the tail is a zero-copy
  // pointer.
  BlockView Read(size_t b);

 private:
  const ColumnVector* col_;
  size_t num_blocks_ = 0;
  size_t cached_block_;  // scratch holds this sealed block (or none)
  std::vector<uint8_t> tag_scratch_;
  std::vector<uint64_t> data_scratch_;
};

// Cached random access to individual cells through a BlockCursor.
// Sequential row-id access decodes each block once.
class ColumnReader {
 public:
  explicit ColumnReader(const ColumnVector& col) : cursor_(col) {}
  // Kept for pipebench (see StorageReadMode).
  ColumnReader(const ColumnVector& col, StorageReadMode)
      : ColumnReader(col) {}

  Cell At(size_t rid) {
    if (rid < view_base_ || rid >= view_end_) Seek(rid);
    size_t off = rid - view_base_;
    return Cell{view_.tags[off], view_.data[off]};
  }
  Value GetValue(size_t rid, const StringDictionary& dict);

 private:
  void Seek(size_t rid);

  BlockCursor cursor_;
  BlockView view_{};
  size_t view_base_ = 0;
  size_t view_end_ = 0;  // exclusive; 0 = no block loaded
};

// One scanned stretch of rows, [lo, hi). Spans are block-aligned: lo is a
// multiple of kStorageBlockRows and hi - lo <= kStorageBlockRows, so a
// span is exactly one morsel and the executor's per-morsel fault and
// interrupt replay order is preserved.
struct ScanSpan {
  int64_t lo = 0;
  int64_t hi = 0;
};

// Zone-map question asked of one column's blocks. A block is scanned only
// if every probe can match it.
struct ColumnProbe {
  int col = 0;
  ZoneProbe probe;
};

struct ScanLayout {
  std::vector<ScanSpan> spans;  // in row order
  int64_t scanned_rows = 0;
  // Stored (encoded) bytes of the scanned blocks, tail included. Drives
  // sequential-page charging; equals Table::stored_bytes() when nothing
  // is skipped.
  int64_t scanned_bytes = 0;
  int64_t blocks_scanned = 0;  // spans actually scanned (tail included)
  int64_t blocks_skipped = 0;  // sealed blocks pruned by zone maps
};

// Computes which blocks of `table` a scan over rows [0, bound) must
// touch. Sealed blocks whose zone maps refute any probe are skipped when
// `allow_skip`; the unsealed tail (no zone map) and any block the bound
// cuts mid-way are always scanned. Pure function of storage + probes.
ScanLayout ComputeScanLayout(const Table& table, int64_t bound,
                             const std::vector<ColumnProbe>& probes,
                             bool allow_skip);

}  // namespace xmlshred

#endif  // XMLSHRED_REL_COLUMN_READER_H_
