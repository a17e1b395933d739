#include "rel/column_reader.h"

#include "common/logging.h"

namespace xmlshred {

BlockCursor::BlockCursor(const ColumnVector& col)
    : col_(&col), cached_block_(static_cast<size_t>(-1)) {
  num_blocks_ = col.num_sealed_blocks() + (col.tail_rows() > 0 ? 1 : 0);
}

BlockView BlockCursor::Read(size_t b) {
  XS_CHECK(b < num_blocks_);
  BlockView view;
  view.base = BlockBase(b);
  if (b == col_->num_sealed_blocks()) {
    view.rows = col_->tail_rows();
    view.tags = col_->tail_tags();
    view.data = col_->tail_data();
    return view;
  }
  const EncodedBlock& block = col_->sealed_block(b);
  if (cached_block_ != b) {
    tag_scratch_.resize(block.rows);
    data_scratch_.resize(block.rows);
    DecodeBlock(block, tag_scratch_.data(), data_scratch_.data());
    cached_block_ = b;
  }
  view.rows = block.rows;
  view.tags = tag_scratch_.data();
  view.data = data_scratch_.data();
  return view;
}

Value ColumnReader::GetValue(size_t rid, const StringDictionary& dict) {
  return CellToValue(At(rid), dict);
}

void ColumnReader::Seek(size_t rid) {
  size_t b = rid / kStorageBlockRows;
  view_ = cursor_.Read(b);
  view_base_ = view_.base;
  view_end_ = view_.base + view_.rows;
  XS_CHECK(rid < view_end_);
}

ScanLayout ComputeScanLayout(const Table& table, int64_t bound,
                             const std::vector<ColumnProbe>& probes,
                             bool allow_skip) {
  ScanLayout layout;
  if (bound <= 0 || table.row_count() == 0) return layout;
  if (bound > table.row_count()) bound = table.row_count();

  const int64_t block_rows = static_cast<int64_t>(kStorageBlockRows);
  int64_t sealed_rows =
      static_cast<int64_t>(table.column(0).num_sealed_blocks()) * block_rows;
  int64_t tail_rows = table.row_count() - sealed_rows;

  // Tail stored bytes under the same accounting as Table::stored_bytes().
  int64_t tail_logical = 0;
  for (int c = 0; c < table.schema().num_columns(); ++c) {
    tail_logical += table.column(c).tail_logical_bytes();
  }
  int64_t tail_floor = 8 * tail_rows;
  int64_t tail_bytes = tail_logical < tail_floor ? tail_floor : tail_logical;

  for (int64_t lo = 0; lo < bound; lo += block_rows) {
    int64_t hi = lo < bound - block_rows ? lo + block_rows : bound;
    size_t b = static_cast<size_t>(lo / block_rows);
    bool sealed = lo + block_rows <= sealed_rows;
    bool full_block = hi - lo == block_rows;
    if (allow_skip && sealed && full_block) {
      bool match = true;
      for (const ColumnProbe& p : probes) {
        const ZoneMap& zone =
            table.column(p.col).sealed_block(b).zone;
        if (!ZoneCanMatch(zone, p.probe)) {
          match = false;
          break;
        }
      }
      if (!match) {
        ++layout.blocks_skipped;
        continue;
      }
    }
    layout.spans.push_back(ScanSpan{lo, hi});
    layout.scanned_rows += hi - lo;
    ++layout.blocks_scanned;
    if (sealed) {
      for (int c = 0; c < table.schema().num_columns(); ++c) {
        layout.scanned_bytes += table.column(c).sealed_block(b).encoded_bytes();
      }
    } else {
      layout.scanned_bytes += tail_bytes;
    }
  }
  return layout;
}

}  // namespace xmlshred
