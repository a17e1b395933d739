// Columnar table storage with page accounting.
//
// A Table keeps one typed vector per column instead of a vector of rows:
// every cell is a one-byte type tag (NULL / BIGINT / DOUBLE / VARCHAR)
// plus a 64-bit data slot holding the int64 bits, the double bits, or a
// 32-bit code into the database's shared StringDictionary. The tag is
// per-cell, not per-column, so a Value of any type round-trips exactly
// even when it disagrees with the declared column type (tests append such
// rows directly). Page accounting is unchanged: byte sizes follow
// Value::ByteSize exactly, tallied as exact integers per column.

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

// One column of cells: parallel tag and data vectors plus an exact byte
// tally (the sum of Value::ByteSize over the column's cells, kept as an
// integer so avg_row_bytes carries no floating-point accumulation drift).
//
// Every kStorageBlockRows appended cells the column seals the completed
// prefix into an EncodedBlock (rel/column_block.h): a compressed byte
// image plus a zone map. The plain vectors are retained — they are the
// forced-plain differential read path and the still-unsealed tail — but
// page accounting (`stored_bytes`) is computed from the encoded sizes,
// so compression shows up as fewer metered pages.
class ColumnVector {
 public:
  void Append(const Value& v, StringDictionary* dict);
  void AppendCell(Cell cell, int64_t byte_size);
  // Bulk path for the streaming shredder: appends `n` pre-encoded cells
  // at once (`byte_total` = their summed Value::ByteSize). Requires an
  // empty unsealed tail and n <= kStorageBlockRows — one batch per call,
  // full batches sealing immediately — so the resulting tags/data/blocks
  // and byte accounting are bit-identical to n AppendCell calls.
  void AppendRun(const uint8_t* tags, const uint64_t* bits, size_t n,
                 int64_t byte_total);
  void Reserve(size_t n) {
    tags_.reserve(n);
    data_.reserve(n);
  }

  size_t size() const { return tags_.size(); }
  CellTag tag(size_t i) const { return static_cast<CellTag>(tags_[i]); }
  uint64_t data(size_t i) const { return data_[i]; }
  Cell cell(size_t i) const { return Cell{tags_[i], data_[i]}; }
  bool is_null(size_t i) const {
    return tags_[i] == static_cast<uint8_t>(CellTag::kNull);
  }
  int64_t AsInt(size_t i) const { return static_cast<int64_t>(data_[i]); }
  double AsReal(size_t i) const { return CellBitsToDouble(data_[i]); }
  uint32_t code(size_t i) const { return static_cast<uint32_t>(data_[i]); }

  Value GetValue(size_t i, const StringDictionary& dict) const;

  const uint8_t* tags_data() const { return tags_.data(); }
  const uint64_t* raw_data() const { return data_.data(); }

  // Exact total of Value::ByteSize over the column's cells.
  int64_t byte_total() const { return bytes_; }

  // --- Sealed-block view (encoded storage of record) ---

  size_t num_sealed_blocks() const { return blocks_.size(); }
  const EncodedBlock& sealed_block(size_t b) const { return blocks_[b]; }
  // Rows covered by sealed blocks (a multiple of kStorageBlockRows).
  size_t sealed_rows() const { return blocks_.size() * kStorageBlockRows; }
  // Rows still in the plain, unsealed tail.
  size_t tail_rows() const { return tags_.size() - sealed_rows(); }
  // Encoded bytes across sealed blocks (header + payload per block).
  int64_t sealed_encoded_bytes() const { return encoded_bytes_; }
  // Logical (Value::ByteSize) bytes of the unsealed tail.
  int64_t tail_logical_bytes() const { return bytes_ - sealed_logical_bytes_; }

 private:
  void MaybeSealTail();

  std::vector<uint8_t> tags_;
  std::vector<uint64_t> data_;
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
  void Reserve(size_t n);

  int64_t row_count() const { return static_cast<int64_t>(num_rows_); }

  const ColumnVector& column(int c) const {
    return columns_[static_cast<size_t>(c)];
  }
  const StringDictionary& dictionary() const { return *dict_; }
  StringDictionary* mutable_dictionary() { return dict_.get(); }
  const std::shared_ptr<StringDictionary>& shared_dictionary() const {
    return dict_;
  }

  // Materialization back to Values (row reconstruction, stats, tests).
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

  // Scans the columns and computes full statistics.
  TableStats ComputeStats() const;

 private:
  TableSchema schema_;
  std::shared_ptr<StringDictionary> dict_;
  std::vector<ColumnVector> columns_;
  size_t num_rows_ = 0;
};

}  // namespace xmlshred

#endif  // XMLSHRED_REL_TABLE_H_
