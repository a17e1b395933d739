// Redesigned storage read API (DESIGN.md §14): every consumer of column
// data — the executor's scan paths, the index builder, and the
// reconstructor — reads through BlockCursor / ColumnReader instead of
// indexing the plain vectors directly, because sealed blocks may only
// exist as encoded byte images to a reader.
//
// Two read modes share one access pattern:
//
//  * kEncoded (default) — sealed blocks are decoded from their
//    EncodedBlock byte images into a per-cursor scratch buffer; the
//    unsealed tail (genuinely stored plain) is served by pointer.
//  * kPlain — every block is served by pointer into the retained plain
//    vectors. Selected by the XS_FORCE_PLAIN environment variable or an
//    explicit ExecOptions flag; exists so differential tests can assert
//    the two paths produce bit-identical rows, metering, and trip
//    points. DecodeBlock is bit-exact, so the modes are observationally
//    equivalent by construction — the toggle changes only where bytes
//    are read from, never what is charged or skipped.
//
// Block skipping (ComputeScanLayout) is mode-independent: the skip set
// is a pure function of the sealed blocks' zone maps and the compiled
// predicates.

#ifndef XMLSHRED_REL_COLUMN_READER_H_
#define XMLSHRED_REL_COLUMN_READER_H_

#include <cstdint>
#include <vector>

#include "rel/column_block.h"
#include "rel/table.h"

namespace xmlshred {

enum class StorageReadMode : uint8_t {
  kEncoded = 0,  // decode sealed blocks from their encoded images
  kPlain = 1,    // serve every block from the retained plain vectors
};

// Process-wide default: kPlain when XS_FORCE_PLAIN is set to a non-empty,
// non-"0" value in the environment, else kEncoded. Read once and cached.
StorageReadMode DefaultStorageReadMode();

// A decoded (or plain-pointed) view of one block of one column. Valid
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
  BlockCursor(const ColumnVector& col, StorageReadMode mode);

  size_t num_blocks() const { return num_blocks_; }
  // Total rows across all blocks (== col.size()).
  size_t num_rows() const { return col_->size(); }
  // Row id of the first row of block `b`.
  size_t BlockBase(size_t b) const { return b * kStorageBlockRows; }

  // Reads block `b`. Encoded mode decodes sealed blocks into the
  // cursor's scratch (cached: re-reading the same block is free); the
  // tail and all plain-mode reads are zero-copy pointers.
  BlockView Read(size_t b);

 private:
  const ColumnVector* col_;
  StorageReadMode mode_;
  size_t num_blocks_ = 0;
  size_t cached_block_;  // scratch holds this sealed block (or none)
  std::vector<uint8_t> tag_scratch_;
  std::vector<uint64_t> data_scratch_;
};

// Cached random access to individual cells through a BlockCursor; view
// scans, index builds/fetches, and the reconstructor read through this
// instead of ColumnVector::cell(). Sequential row-id access
// decodes each block once.
class ColumnReader {
 public:
  ColumnReader(const ColumnVector& col, StorageReadMode mode)
      : cursor_(col, mode) {}

  Cell At(size_t rid) {
    if (rid < view_base_ || rid >= view_end_) Seek(rid);
    size_t off = rid - view_base_;
    return Cell{view_.tags[off], view_.data[off]};
  }
  bool IsNull(size_t rid) {
    return At(rid).tag == static_cast<uint8_t>(CellTag::kNull);
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
// cuts mid-way are always scanned. Pure function of storage + probes:
// identical for encoded and plain read modes and at any thread count.
ScanLayout ComputeScanLayout(const Table& table, int64_t bound,
                             const std::vector<ColumnProbe>& probes,
                             bool allow_skip);

}  // namespace xmlshred

#endif  // XMLSHRED_REL_COLUMN_READER_H_
