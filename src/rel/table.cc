#include "rel/table.h"

#include <cmath>

#include "common/logging.h"

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

void ColumnVector::Append(const Value& v, StringDictionary* dict) {
  Cell cell;
  int64_t byte_size;
  if (v.is_null()) {
    cell.tag = static_cast<uint8_t>(CellTag::kNull);
    byte_size = 4;
  } else if (v.is_int()) {
    cell.tag = static_cast<uint8_t>(CellTag::kInt);
    cell.bits = static_cast<uint64_t>(v.AsInt());
    byte_size = 8;
  } else if (v.is_double()) {
    cell.tag = static_cast<uint8_t>(CellTag::kReal);
    cell.bits = DoubleToCellBits(v.AsDouble());
    byte_size = 8;
  } else {
    cell.tag = static_cast<uint8_t>(CellTag::kStr);
    cell.bits = dict->Intern(v.AsString());
    byte_size = static_cast<int64_t>(v.AsString().size()) + 2;
  }
  AppendCell(cell, byte_size);
}

void ColumnVector::AppendCell(Cell cell, int64_t byte_size) {
  tags_.push_back(cell.tag);
  data_.push_back(cell.bits);
  bytes_ += byte_size;
  MaybeSealTail();
}

void ColumnVector::AppendRun(const uint8_t* tags, const uint64_t* bits,
                             size_t n, int64_t byte_total) {
  XS_CHECK_EQ(static_cast<int64_t>(tail_rows()), 0);
  XS_CHECK_LE(n, kStorageBlockRows);
  tags_.insert(tags_.end(), tags, tags + n);
  data_.insert(data_.end(), bits, bits + n);
  bytes_ += byte_total;
  MaybeSealTail();
}

void ColumnVector::MaybeSealTail() {
  if (tags_.size() % kStorageBlockRows != 0) return;
  size_t base = sealed_rows();
  blocks_.push_back(
      EncodeBlock(tags_.data() + base, data_.data() + base, kStorageBlockRows));
  encoded_bytes_ += blocks_.back().encoded_bytes();
  sealed_logical_bytes_ = bytes_;
}

Value ColumnVector::GetValue(size_t i, const StringDictionary& dict) const {
  return CellToValue(cell(i), dict);
}

Table::Table(TableSchema schema, std::shared_ptr<StringDictionary> dict)
    : schema_(std::move(schema)), dict_(std::move(dict)) {
  columns_.resize(static_cast<size_t>(schema_.num_columns()));
}

void Table::AppendRow(const Row& row) {
  XS_CHECK_EQ(static_cast<int>(row.size()), schema_.num_columns());
  for (size_t c = 0; c < row.size(); ++c) {
    columns_[c].Append(row[c], dict_.get());
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

void Table::Reserve(size_t n) {
  for (ColumnVector& col : columns_) col.Reserve(n);
}

Value Table::GetValue(int64_t rid, int col) const {
  return columns_[static_cast<size_t>(col)].GetValue(
      static_cast<size_t>(rid), *dict_);
}

Row Table::GetRow(int64_t rid) const {
  Row row;
  row.reserve(columns_.size());
  for (const ColumnVector& col : columns_) {
    row.push_back(col.GetValue(static_cast<size_t>(rid), *dict_));
  }
  return row;
}

std::vector<Row> Table::MaterializeRows() const {
  std::vector<Row> rows;
  rows.reserve(num_rows_);
  for (size_t rid = 0; rid < num_rows_; ++rid) {
    rows.push_back(GetRow(static_cast<int64_t>(rid)));
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
    scratch.clear();
    scratch.reserve(num_rows_);
    for (size_t i = 0; i < num_rows_; ++i) {
      scratch.push_back(col.GetValue(i, *dict_));
    }
    stats.columns.push_back(BuildColumnStatsFromValues(scratch));
  }
  return stats;
}

}  // namespace xmlshred
