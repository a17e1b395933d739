// B+-tree-style secondary indexes.
//
// An index is defined by key columns (order significant) plus optional
// included columns. A "covering" index for a query is one whose key and
// included columns together contain every column the query references on
// that table, letting the engine answer from the index alone (paper
// footnote 2). The physical structure is a sorted entry array with binary
// search, which has the same asymptotic and page-accounting behaviour as a
// read-only B+-tree.
//
// Entries are stored columnar (cells referencing the table's dictionary),
// and the sort happens over 64-bit encoded keys: NULLs, then numerics by
// double value, then strings by dictionary rank — exactly the Value
// total order, with no string comparisons during the build.

#ifndef XMLSHRED_REL_INDEX_H_
#define XMLSHRED_REL_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "rel/table.h"

namespace xmlshred {

// Pages touched by one equality probe into a B+-tree with `index_pages`
// pages holding entries of `entry_bytes` each, returning `matches`
// entries: the internal-node descent plus the spanned leaves. Used both by
// real indexes and by what-if costing over index descriptors.
int64_t IndexProbePagesFor(int64_t index_pages, double entry_bytes,
                           int64_t matches);

// Order-preserving 64-bit encoding of a cell under the Value total order
// within its type class (class 0 = NULL, 1 = numeric, 2 = string): compare
// (class, key) pairs lexicographically and you get TotalLess exactly.
// Interned strings encode as 2*rank+1; EncodeStringGap encodes a
// non-interned literal as 2*CountLess, which slots strictly between the
// neighbouring interned strings and equals no entry.
struct SortKey {
  uint8_t cls = 0;
  uint64_t key = 0;

  friend bool operator<(const SortKey& a, const SortKey& b) {
    return a.cls != b.cls ? a.cls < b.cls : a.key < b.key;
  }
  friend bool operator==(const SortKey& a, const SortKey& b) {
    return a.cls == b.cls && a.key == b.key;
  }
};

// Monotone bit pattern for doubles (-0.0 normalized to +0.0 first so
// values that compare equal encode equal; NaNs never occur in parsed
// data).
uint64_t EncodeOrderedDouble(double d);

// Encodes a cell whose strings are interned in `dict`.
SortKey EncodeCellKey(const Cell& cell, const StringDictionary& dict);

// Encodes a literal Value for comparison against encoded cells; handles
// string literals absent from the dictionary via the gap encoding.
SortKey EncodeValueKey(const Value& v, const StringDictionary& dict);

struct IndexDef {
  std::string name;
  std::string table;
  std::vector<int> key_columns;       // ordinals in table schema
  std::vector<int> included_columns;  // ordinals, non-key payload
  bool unique = false;

  // True if every ordinal in `needed` appears among key or included columns.
  bool Covers(const std::vector<int>& needed) const;

  std::string ToString(const TableSchema& schema) const;
};

class BTreeIndex {
 public:
  // Builds the index over the current contents of `table`: one pass over
  // each entry column in row order, one sort of the row ids by
  // (keys..., rid), then a permutation of the staged cells into entry
  // order.
  BTreeIndex(IndexDef def, const Table& table);

  const IndexDef& def() const { return def_; }

  int64_t entry_count() const { return static_cast<int64_t>(rids_.size()); }
  double entry_bytes() const { return entry_bytes_; }
  int64_t NumPages() const { return PagesFor(entry_count(), entry_bytes_); }

  // Row ids whose key columns equal `key` (a prefix of the key columns may
  // be provided; matches on that prefix), in entry order.
  std::vector<int64_t> EqualLookup(const Row& key_prefix) const;

  // Row ids with lo <= key[0] <= hi on the first key column; either bound
  // may be NULL for unbounded. `lo_strict` / `hi_strict` exclude the bound.
  std::vector<int64_t> RangeLookup(const Value& lo, bool lo_strict,
                                   const Value& hi, bool hi_strict) const;

  // --- Columnar entry access (executor hot paths) ---
  // Entries are sorted by encoded key columns then row id. `pos` addresses
  // the concatenation of key columns and included columns.
  int entry_width() const { return width_; }
  int num_key_columns() const {
    return static_cast<int>(def_.key_columns.size());
  }
  Cell entry_cell(size_t entry, int pos) const {
    size_t base = entry * static_cast<size_t>(width_);
    return Cell{tags_[base + static_cast<size_t>(pos)],
                data_[base + static_cast<size_t>(pos)]};
  }
  // Encoded sort key of key column `k` of `entry` (for binary search).
  SortKey entry_key(size_t entry, int k) const {
    return keys_[entry * static_cast<size_t>(num_key_columns()) +
                 static_cast<size_t>(k)];
  }
  int64_t entry_row_id(size_t entry) const { return rids_[entry]; }
  const StringDictionary& dictionary() const { return *dict_; }

  // First entry whose key prefix is >= `prefix` (lexicographic on encoded
  // keys); `prefix.size()` <= num_key_columns().
  size_t LowerBound(const std::vector<SortKey>& prefix) const;
  // True when `entry`'s leading keys equal `prefix` element-wise.
  bool MatchesPrefix(size_t entry, const std::vector<SortKey>& prefix) const;

  // Materializes entry cell `pos` back to a Value.
  Value EntryValue(size_t entry, int pos) const;

  // Pages touched by an equality probe returning `matches` entries:
  // the B+-tree descent plus the leaf span of the matches.
  int64_t ProbePages(int64_t matches) const;

 private:
  IndexDef def_;
  int width_ = 0;  // key columns + included columns
  // Entry storage, strided by width_ (cells) / num key columns (keys).
  std::vector<uint8_t> tags_;
  std::vector<uint64_t> data_;
  std::vector<SortKey> keys_;
  std::vector<int64_t> rids_;
  std::shared_ptr<StringDictionary> dict_;
  double entry_bytes_ = 16.0;
};

}  // namespace xmlshred

#endif  // XMLSHRED_REL_INDEX_H_
