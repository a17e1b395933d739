#include "rel/table.h"

#include <cmath>

#include "common/logging.h"
#include "rel/column_reader.h"

namespace xmlshred {

int64_t PagesFor(int64_t row_count, double avg_row_bytes) {
  if (row_count <= 0) return 0;
  double bytes = static_cast<double>(row_count) * avg_row_bytes;
  int64_t pages = static_cast<int64_t>(std::ceil(bytes / kPageSizeBytes));
  return pages < 1 ? 1 : pages;
}

int64_t PagesForBytes(int64_t stored_bytes) {
  if (stored_bytes <= 0) return 0;
  int64_t pages = (stored_bytes + static_cast<int64_t>(kPageSizeBytes) - 1) /
                  static_cast<int64_t>(kPageSizeBytes);
  return pages < 1 ? 1 : pages;
}

Value CellToValue(Cell c, const StringDictionary& dict) {
  switch (static_cast<CellTag>(c.tag)) {
    case CellTag::kNull:
      return Value::Null();
    case CellTag::kInt:
      return Value::Int(static_cast<int64_t>(c.bits));
    case CellTag::kReal:
      return Value::Real(CellBitsToDouble(c.bits));
    case CellTag::kStr:
      return Value::Str(dict.str(static_cast<uint32_t>(c.bits)));
  }
  return Value::Null();
}

Cell EncodeValueCell(const Value& v, StringDictionary* dict, int64_t* bytes) {
  Cell cell;
  if (v.is_null()) {
    cell.tag = static_cast<uint8_t>(CellTag::kNull);
  } else if (v.is_int()) {
    cell.tag = static_cast<uint8_t>(CellTag::kInt);
    cell.bits = static_cast<uint64_t>(v.AsInt());
  } else if (v.is_double()) {
    cell.tag = static_cast<uint8_t>(CellTag::kReal);
    cell.bits = DoubleToCellBits(v.AsDouble());
  } else {
    cell.tag = static_cast<uint8_t>(CellTag::kStr);
    cell.bits = dict->Intern(v.AsString());
  }
  *bytes = static_cast<int64_t>(v.ByteSize());
  return cell;
}

int64_t CellByteSize(Cell c, const StringDictionary& dict) {
  switch (static_cast<CellTag>(c.tag)) {
    case CellTag::kNull:
      return 4;
    case CellTag::kInt:
    case CellTag::kReal:
      return 8;
    case CellTag::kStr:
      return static_cast<int64_t>(
                 dict.str(static_cast<uint32_t>(c.bits)).size()) +
             2;
  }
  return 0;
}

void ColumnVector::AppendCell(Cell cell, int64_t byte_size) {
  tags_.push_back(cell.tag);
  data_.push_back(cell.bits);
  bytes_ += byte_size;
  if (tags_.size() < kStorageBlockRows) return;
  Seal(tags_.data(), data_.data());
  tags_.clear();
  data_.clear();
}

void ColumnVector::AppendRun(const uint8_t* tags, const uint64_t* bits,
                             size_t n, int64_t byte_total) {
  XS_CHECK_EQ(static_cast<int64_t>(tail_rows()), 0);
  XS_CHECK_LE(n, kStorageBlockRows);
  bytes_ += byte_total;
  if (n == kStorageBlockRows) {
    Seal(tags, bits);
    return;
  }
  tags_.assign(tags, tags + n);
  data_.assign(bits, bits + n);
}

void ColumnVector::Seal(const uint8_t* tags, const uint64_t* bits) {
  blocks_.push_back(EncodeBlock(tags, bits, kStorageBlockRows));
  encoded_bytes_ += blocks_.back().encoded_bytes();
  sealed_logical_bytes_ = bytes_;
}

Table::Table(TableSchema schema, std::shared_ptr<StringDictionary> dict)
    : schema_(std::move(schema)), dict_(std::move(dict)) {
  columns_.resize(static_cast<size_t>(schema_.num_columns()));
}

void Table::AppendRow(const Row& row) {
  XS_CHECK_EQ(static_cast<int>(row.size()), schema_.num_columns());
  for (size_t c = 0; c < row.size(); ++c) {
    int64_t bytes;
    Cell cell = EncodeValueCell(row[c], dict_.get(), &bytes);
    columns_[c].AppendCell(cell, bytes);
  }
  ++num_rows_;
}

void Table::AppendCellRow(const std::vector<Cell>& cells) {
  XS_CHECK_EQ(static_cast<int>(cells.size()), schema_.num_columns());
  for (size_t c = 0; c < cells.size(); ++c) {
    columns_[c].AppendCell(cells[c], CellByteSize(cells[c], *dict_));
  }
  ++num_rows_;
}

void Table::AppendBlock(const std::vector<const uint8_t*>& tags,
                        const std::vector<const uint64_t*>& bits,
                        const std::vector<int64_t>& col_bytes, size_t rows) {
  XS_CHECK_EQ(static_cast<int>(tags.size()), schema_.num_columns());
  XS_CHECK_EQ(static_cast<int>(bits.size()), schema_.num_columns());
  XS_CHECK_EQ(static_cast<int>(col_bytes.size()), schema_.num_columns());
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendRun(tags[c], bits[c], rows, col_bytes[c]);
  }
  num_rows_ += rows;
}

Value Table::GetValue(int64_t rid, int col) const {
  return ColumnReader(columns_[static_cast<size_t>(col)])
      .GetValue(static_cast<size_t>(rid), *dict_);
}

Row Table::GetRow(int64_t rid) const {
  Row row;
  row.reserve(columns_.size());
  for (const ColumnVector& col : columns_) {
    row.push_back(
        ColumnReader(col).GetValue(static_cast<size_t>(rid), *dict_));
  }
  return row;
}

std::vector<Row> Table::MaterializeRows() const {
  std::vector<ColumnReader> readers;
  readers.reserve(columns_.size());
  for (const ColumnVector& col : columns_) readers.emplace_back(col);
  std::vector<Row> rows;
  rows.reserve(num_rows_);
  for (size_t rid = 0; rid < num_rows_; ++rid) {
    Row row;
    row.reserve(readers.size());
    for (ColumnReader& reader : readers) {
      row.push_back(reader.GetValue(rid, *dict_));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

int64_t Table::total_bytes() const {
  int64_t total = 0;
  for (const ColumnVector& col : columns_) total += col.byte_total();
  return total;
}

double Table::avg_row_bytes() const {
  if (num_rows_ == 0) return 8.0;
  double w =
      static_cast<double>(total_bytes()) / static_cast<double>(num_rows_);
  return w < 8.0 ? 8.0 : w;
}

int64_t Table::stored_bytes() const {
  if (num_rows_ == 0) return 0;
  int64_t sealed = 0;
  int64_t tail_logical = 0;
  int64_t tail_rows = 0;
  for (const ColumnVector& col : columns_) {
    sealed += col.sealed_encoded_bytes();
    tail_logical += col.tail_logical_bytes();
    tail_rows = static_cast<int64_t>(col.tail_rows());
  }
  // The tail keeps the pre-encoding logical accounting, floored at 8
  // bytes per row across the whole table (matching the old
  // avg_row_bytes floor) — a table smaller than one block pages out
  // exactly as it did before block encoding existed.
  int64_t tail_floor = 8 * tail_rows;
  int64_t tail = tail_logical < tail_floor ? tail_floor : tail_logical;
  return sealed + tail;
}

TableStats Table::ComputeStats() const {
  TableStats stats;
  stats.row_count = row_count();
  stats.columns.reserve(columns_.size());
  std::vector<Value> scratch;
  for (const ColumnVector& col : columns_) {
    ColumnReader reader(col);
    scratch.clear();
    scratch.reserve(num_rows_);
    for (size_t rid = 0; rid < num_rows_; ++rid) {
      scratch.push_back(reader.GetValue(rid, *dict_));
    }
    stats.columns.push_back(BuildColumnStatsFromValues(scratch));
  }
  return stats;
}

}  // namespace xmlshred
