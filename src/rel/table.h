// Columnar table storage with page accounting.
//
// A Table keeps one column of cells per schema column instead of a vector
// of rows: every cell is a one-byte type tag (NULL / BIGINT / DOUBLE /
// VARCHAR) plus a 64-bit data slot holding the int64 bits, the double
// bits, or a 32-bit code into the database's shared StringDictionary. The
// tag is per-cell, not per-column, so a Value of any type round-trips
// exactly even when it disagrees with the declared column type (tests
// append such rows directly). Byte sizes follow Value::ByteSize exactly,
// tallied as exact integers per column.
//
// Sealed rows exist only as encoded blocks (rel/column_block.h); cells
// are read back through BlockCursor / ColumnReader (rel/column_reader.h).

#ifndef XMLSHRED_REL_TABLE_H_
#define XMLSHRED_REL_TABLE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "rel/column_block.h"
#include "rel/dictionary.h"
#include "rel/schema.h"
#include "rel/stats.h"
#include "rel/table_types.h"
#include "rel/value.h"

namespace xmlshred {

// Simulated page size. All cost accounting — optimizer estimates and
// executor metering alike — is in units of 8 KiB page accesses.
inline constexpr double kPageSizeBytes = 8192.0;

// Pages occupied by `row_count` rows of `avg_row_bytes` each (>= 1 for any
// non-empty relation).
int64_t PagesFor(int64_t row_count, double avg_row_bytes);

// Pages occupied by `stored_bytes` of encoded block storage (>= 1 for any
// non-empty byte total).
int64_t PagesForBytes(int64_t stored_bytes);

// The Value a cell stands for; string cells are looked up in `dict`.
Value CellToValue(Cell c, const StringDictionary& dict);

// The cell `v` is stored as, interning a string in `dict`; `*bytes`
// receives v.ByteSize(). With CellByteSize, the one rule for turning
// Values into cells and sizing them.
Cell EncodeValueCell(const Value& v, StringDictionary* dict, int64_t* bytes);

// Value::ByteSize of the Value `c` stands for, without building it.
int64_t CellByteSize(Cell c, const StringDictionary& dict);

// One column of cells plus an exact byte tally (the sum of
// Value::ByteSize over the column's cells, kept as an integer so
// avg_row_bytes carries no floating-point accumulation drift).
//
// Every kStorageBlockRows appended cells the column seals them into an
// EncodedBlock (rel/column_block.h): a compressed byte image plus a zone
// map, and the only stored copy of those rows. Just the unsealed tail —
// fewer than kStorageBlockRows rows — is held as plain tag and data
// vectors. Page accounting (`stored_bytes`) is computed from the encoded
// sizes, so compression shows up as fewer metered pages.
class ColumnVector {
 public:
  void AppendCell(Cell cell, int64_t byte_size);
  // Bulk path for the streaming shredder: appends `n` pre-encoded cells
  // at once (`byte_total` = their summed Value::ByteSize). Requires an
  // empty unsealed tail and n <= kStorageBlockRows — one batch per call —
  // so the resulting blocks and byte accounting are bit-identical to n
  // AppendCell calls. A full batch seals straight from the caller's
  // arrays, without a copy.
  void AppendRun(const uint8_t* tags, const uint64_t* bits, size_t n,
                 int64_t byte_total);

  size_t size() const { return sealed_rows() + tail_rows(); }

  // Exact total of Value::ByteSize over the column's cells.
  int64_t byte_total() const { return bytes_; }

  size_t num_sealed_blocks() const { return blocks_.size(); }
  const EncodedBlock& sealed_block(size_t b) const { return blocks_[b]; }
  // Rows covered by sealed blocks (a multiple of kStorageBlockRows).
  size_t sealed_rows() const { return blocks_.size() * kStorageBlockRows; }
  // The unsealed tail: rows sealed_rows() .. size() - 1, stored plain.
  size_t tail_rows() const { return tags_.size(); }
  const uint8_t* tail_tags() const { return tags_.data(); }
  const uint64_t* tail_data() const { return data_.data(); }
  // Encoded bytes across sealed blocks (header + payload per block).
  int64_t sealed_encoded_bytes() const { return encoded_bytes_; }
  // Logical (Value::ByteSize) bytes of the unsealed tail.
  int64_t tail_logical_bytes() const { return bytes_ - sealed_logical_bytes_; }

 private:
  // Encodes kStorageBlockRows cells (already tallied in bytes_) as the
  // next sealed block.
  void Seal(const uint8_t* tags, const uint64_t* bits);

  std::vector<uint8_t> tags_;   // unsealed tail
  std::vector<uint64_t> data_;  // unsealed tail
  int64_t bytes_ = 0;
  std::vector<EncodedBlock> blocks_;
  int64_t encoded_bytes_ = 0;         // sum of sealed encoded_bytes()
  int64_t sealed_logical_bytes_ = 0;  // logical bytes of the sealed prefix
};

// An in-memory columnar table: a schema plus one ColumnVector per column.
// Rows are identified by their position (row id); indexes reference rows
// by row id. Strings are interned in the dictionary shared by the owning
// Database (a standalone-constructed Table owns a private dictionary).
class Table {
 public:
  explicit Table(TableSchema schema)
      : Table(std::move(schema), std::make_shared<StringDictionary>()) {}
  Table(TableSchema schema, std::shared_ptr<StringDictionary> dict);

  const TableSchema& schema() const { return schema_; }

  void AppendRow(const Row& row);
  // Appends one row of cells whose strings are already in this table's
  // dictionary (a view copying stored cells); bytes follow CellByteSize.
  void AppendCellRow(const std::vector<Cell>& cells);
  // Bulk-appends one columnar batch of `rows` <= kStorageBlockRows rows:
  // column c receives cells tags[c][0..rows) / bits[c][0..rows) with
  // logical byte total col_bytes[c] (strings already interned in the
  // table's dictionary). Requires every column's unsealed tail to be
  // empty — the streaming-ingest invariant (fresh table, full batches
  // until one final partial) — and leaves storage bit-identical to the
  // equivalent AppendRow sequence.
  void AppendBlock(const std::vector<const uint8_t*>& tags,
                   const std::vector<const uint64_t*>& bits,
                   const std::vector<int64_t>& col_bytes, size_t rows);

  int64_t row_count() const { return static_cast<int64_t>(num_rows_); }

  const ColumnVector& column(int c) const {
    return columns_[static_cast<size_t>(c)];
  }
  const StringDictionary& dictionary() const { return *dict_; }
  StringDictionary* mutable_dictionary() { return dict_.get(); }
  const std::shared_ptr<StringDictionary>& shared_dictionary() const {
    return dict_;
  }

  // Materialization back to Values (row reconstruction, tests). GetValue
  // and GetRow decode the whole block holding `rid`; a loop over rows
  // reads through one ColumnReader per column instead.
  Value GetValue(int64_t rid, int col) const;
  Row GetRow(int64_t rid) const;
  std::vector<Row> MaterializeRows() const;

  // Exact logical bytes across all columns (Value::ByteSize semantics).
  // Unaffected by block encoding; this is the uncompressed row width.
  int64_t total_bytes() const;

  // Mean logical row width (bytes), from the exact per-column tallies.
  double avg_row_bytes() const;

  // Bytes the table occupies under block encoding: sealed encoded blocks
  // at their compressed sizes plus the unsealed tail at
  // max(logical bytes, 8 bytes/row) — so a table smaller than one block
  // accounts byte-for-byte like the pre-encoding logical formula.
  int64_t stored_bytes() const;
  int64_t NumPages() const { return PagesForBytes(stored_bytes()); }

  // Reads every column once, in row order, and computes full statistics.
  TableStats ComputeStats() const;

 private:
  TableSchema schema_;
  std::shared_ptr<StringDictionary> dict_;
  std::vector<ColumnVector> columns_;
  size_t num_rows_ = 0;
};

}  // namespace xmlshred

#endif  // XMLSHRED_REL_TABLE_H_
