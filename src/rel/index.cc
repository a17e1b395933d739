#include "rel/index.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/strings.h"
#include "rel/column_reader.h"

namespace xmlshred {

uint64_t EncodeOrderedDouble(double d) {
  if (d == 0.0) d = 0.0;  // collapse -0.0 onto +0.0 (they compare equal)
  uint64_t bits = DoubleToCellBits(d);
  return (bits >> 63) != 0 ? ~bits : bits | (1ull << 63);
}

SortKey EncodeCellKey(const Cell& cell, const StringDictionary& dict) {
  switch (static_cast<CellTag>(cell.tag)) {
    case CellTag::kNull:
      return SortKey{0, 0};
    case CellTag::kInt:
      return SortKey{1, EncodeOrderedDouble(static_cast<double>(
                             static_cast<int64_t>(cell.bits)))};
    case CellTag::kReal:
      return SortKey{1, EncodeOrderedDouble(CellBitsToDouble(cell.bits))};
    case CellTag::kStr:
      return SortKey{
          2, 2ull * dict.Rank(static_cast<uint32_t>(cell.bits)) + 1};
  }
  return SortKey{0, 0};
}

SortKey EncodeValueKey(const Value& v, const StringDictionary& dict) {
  if (v.is_null()) return SortKey{0, 0};
  if (v.is_string()) {
    uint32_t code = dict.Lookup(v.AsString());
    if (code != StringDictionary::kNotFound) {
      return SortKey{2, 2ull * dict.Rank(code) + 1};
    }
    // Absent literal: the even slot between neighbouring interned ranks —
    // ordered correctly against every entry, equal to none.
    return SortKey{2, 2ull * dict.CountLess(v.AsString())};
  }
  return SortKey{1, EncodeOrderedDouble(v.AsNumeric())};
}

bool IndexDef::Covers(const std::vector<int>& needed) const {
  for (int col : needed) {
    bool found = std::find(key_columns.begin(), key_columns.end(), col) !=
                     key_columns.end() ||
                 std::find(included_columns.begin(), included_columns.end(),
                           col) != included_columns.end();
    if (!found) return false;
  }
  return true;
}

std::string IndexDef::ToString(const TableSchema& schema) const {
  std::string out = "INDEX " + name + " ON " + table + "(";
  for (size_t i = 0; i < key_columns.size(); ++i) {
    if (i > 0) out += ", ";
    out += schema.columns[static_cast<size_t>(key_columns[i])].name;
  }
  out += ")";
  if (!included_columns.empty()) {
    out += " INCLUDE(";
    for (size_t i = 0; i < included_columns.size(); ++i) {
      if (i > 0) out += ", ";
      out += schema.columns[static_cast<size_t>(included_columns[i])].name;
    }
    out += ")";
  }
  return out;
}

BTreeIndex::BTreeIndex(IndexDef def, const Table& table)
    : def_(std::move(def)), dict_(table.shared_dictionary()) {
  size_t nkeys = def_.key_columns.size();
  width_ = static_cast<int>(nkeys + def_.included_columns.size());
  size_t width = static_cast<size_t>(width_);
  size_t n = static_cast<size_t>(table.row_count());
  std::vector<int> entry_columns = def_.key_columns;
  entry_columns.insert(entry_columns.end(), def_.included_columns.begin(),
                       def_.included_columns.end());

  // Read each entry column (keys, then included columns) once, in row
  // order — each sealed block decodes once — staging the cells row-major
  // and encoding the keys. The encoded order is exactly TotalLess per key
  // column, so sorting row ids by (keys, rid) gives the order per-Value
  // comparisons would, without a single string comparison.
  std::vector<uint8_t> row_tags(n * width);
  std::vector<uint64_t> row_data(n * width);
  std::vector<SortKey> row_keys(n * nkeys);
  int64_t bytes = 8 * static_cast<int64_t>(n);  // row ids
  for (size_t p = 0; p < width; ++p) {
    ColumnReader reader(table.column(entry_columns[p]));
    for (size_t rid = 0; rid < n; ++rid) {
      Cell cell = reader.At(rid);
      row_tags[rid * width + p] = cell.tag;
      row_data[rid * width + p] = cell.bits;
      if (p < nkeys) row_keys[rid * nkeys + p] = EncodeCellKey(cell, *dict_);
      bytes += CellByteSize(cell, *dict_);
    }
  }
  auto entry_less = [&row_keys, nkeys](int64_t a, int64_t b) {
    size_t ba = static_cast<size_t>(a) * nkeys;
    size_t bb = static_cast<size_t>(b) * nkeys;
    for (size_t k = 0; k < nkeys; ++k) {
      const SortKey& ka = row_keys[ba + k];
      const SortKey& kb = row_keys[bb + k];
      if (ka < kb) return true;
      if (kb < ka) return false;
    }
    return a < b;
  };
  rids_.resize(n);
  std::iota(rids_.begin(), rids_.end(), 0);
  std::sort(rids_.begin(), rids_.end(), entry_less);

  // Permute the staged cells and keys into entry order.
  tags_.resize(n * width);
  data_.resize(n * width);
  keys_.resize(n * nkeys);
  for (size_t e = 0; e < n; ++e) {
    size_t rid = static_cast<size_t>(rids_[e]);
    std::copy_n(row_tags.data() + rid * width, width,
                tags_.data() + e * width);
    std::copy_n(row_data.data() + rid * width, width,
                data_.data() + e * width);
    std::copy_n(row_keys.data() + rid * nkeys, nkeys,
                keys_.data() + e * nkeys);
  }
  entry_bytes_ =
      n == 0 ? 16.0 : static_cast<double>(bytes) / static_cast<double>(n);
}

size_t BTreeIndex::LowerBound(const std::vector<SortKey>& prefix) const {
  size_t nkeys = def_.key_columns.size();
  XS_CHECK_LE(prefix.size(), nkeys);
  size_t lo = 0, hi = rids_.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    bool less = false;
    for (size_t k = 0; k < prefix.size(); ++k) {
      const SortKey& ek = keys_[mid * nkeys + k];
      if (ek < prefix[k]) {
        less = true;
        break;
      }
      if (prefix[k] < ek) break;
    }
    if (less) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool BTreeIndex::MatchesPrefix(size_t entry,
                               const std::vector<SortKey>& prefix) const {
  size_t nkeys = def_.key_columns.size();
  for (size_t k = 0; k < prefix.size(); ++k) {
    if (!(keys_[entry * nkeys + k] == prefix[k])) return false;
  }
  return true;
}

Value BTreeIndex::EntryValue(size_t entry, int pos) const {
  Cell cell = entry_cell(entry, pos);
  switch (static_cast<CellTag>(cell.tag)) {
    case CellTag::kNull:
      return Value::Null();
    case CellTag::kInt:
      return Value::Int(static_cast<int64_t>(cell.bits));
    case CellTag::kReal:
      return Value::Real(CellBitsToDouble(cell.bits));
    case CellTag::kStr:
      return Value::Str(dict_->str(static_cast<uint32_t>(cell.bits)));
  }
  return Value::Null();
}

std::vector<int64_t> BTreeIndex::EqualLookup(const Row& key_prefix) const {
  XS_CHECK_LE(key_prefix.size(), def_.key_columns.size());
  std::vector<SortKey> prefix;
  prefix.reserve(key_prefix.size());
  for (const Value& v : key_prefix) {
    prefix.push_back(EncodeValueKey(v, *dict_));
  }
  std::vector<int64_t> out;
  for (size_t e = LowerBound(prefix);
       e < rids_.size() && MatchesPrefix(e, prefix); ++e) {
    out.push_back(rids_[e]);
  }
  return out;
}

std::vector<int64_t> BTreeIndex::RangeLookup(const Value& lo, bool lo_strict,
                                             const Value& hi,
                                             bool hi_strict) const {
  size_t nkeys = def_.key_columns.size();
  SortKey lo_key, hi_key;
  bool has_lo = !lo.is_null(), has_hi = !hi.is_null();
  if (has_lo) lo_key = EncodeValueKey(lo, *dict_);
  if (has_hi) hi_key = EncodeValueKey(hi, *dict_);
  std::vector<int64_t> out;
  for (size_t e = 0; e < rids_.size(); ++e) {
    const SortKey& k = keys_[e * nkeys];
    if (k.cls == 0) continue;  // NULL keys never match a range
    if (has_lo) {
      if (k < lo_key) continue;
      if (lo_strict && k == lo_key) continue;
    }
    if (has_hi) {
      if (hi_key < k) break;
      if (hi_strict && k == hi_key) continue;
    }
    out.push_back(rids_[e]);
  }
  return out;
}

int64_t IndexProbePagesFor(int64_t index_pages, double entry_bytes,
                           int64_t matches) {
  // One uncached page for the descent — root and internal nodes are hot
  // in the buffer pool for any repeatedly probed index — plus the spanned
  // leaves.
  (void)index_pages;
  int64_t leaf_span = PagesFor(matches, entry_bytes);
  return 1 + leaf_span;
}

int64_t BTreeIndex::ProbePages(int64_t matches) const {
  return IndexProbePagesFor(NumPages(), entry_bytes_, matches);
}

}  // namespace xmlshred
