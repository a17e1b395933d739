// Per-database string dictionary.
//
// Every VARCHAR cell in columnar storage holds a 32-bit code instead of a
// heap-allocated string; the dictionary owns the one copy of each distinct
// string. Codes are assigned in interning order, so code equality is
// string equality (tables in one Database share one dictionary). Order
// comparisons go through a lazily built rank table: Rank(code) is the
// string's position in the lexicographic order of all interned strings,
// so rank comparisons reproduce std::string operator< exactly without
// touching character data in hot loops.
//
// Thread-safety: Intern/Reserve require external serialization (the
// shredder and view materialization are single-writer phases); lookups,
// Rank, and CountLess are safe to call concurrently with each other. The
// rank table rebuild is guarded by a mutex + acquire/release flag, so the
// first reader after an intern pays the sort and later readers are
// lock-free.

#ifndef XMLSHRED_REL_DICTIONARY_H_
#define XMLSHRED_REL_DICTIONARY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace xmlshred {

class StringDictionary {
 public:
  static constexpr uint32_t kNotFound = 0xffffffffu;
  // Per-entry bookkeeping charged by ByteSize on top of payload bytes
  // (string header, hash bucket, rank slot).
  static constexpr int64_t kPerEntryOverheadBytes = 48;

  StringDictionary() = default;
  StringDictionary(const StringDictionary&) = delete;
  StringDictionary& operator=(const StringDictionary&) = delete;

  // Returns the code of `s`, interning it first if absent.
  uint32_t Intern(std::string_view s);

  // Returns the code of `s`, or kNotFound when it was never interned.
  uint32_t Lookup(std::string_view s) const;

  const std::string& str(uint32_t code) const {
    return strings_[static_cast<size_t>(code)];
  }

  size_t size() const { return strings_.size(); }

  // Removes every entry with code >= n, restoring the dictionary to the
  // exact state it had when size() was n (codes are assigned densely in
  // interning order, so the first n entries are untouched). Used to roll
  // back a failed streaming ingest; requires external serialization like
  // Intern.
  void TruncateTo(size_t n);

  // Sum of interned string lengths (payload bytes, no overhead).
  int64_t total_string_bytes() const { return total_string_bytes_; }

  // Approximate in-memory footprint: payload plus per-entry bookkeeping
  // (string header, hash bucket, rank slot). Reported by the storage
  // section of RunReport.
  int64_t ByteSize() const {
    return total_string_bytes_ +
           static_cast<int64_t>(strings_.size()) * kPerEntryOverheadBytes;
  }

  // Position of `code`'s string in the lexicographic order of all
  // interned strings (0-based): Rank(a) < Rank(b) iff str(a) < str(b).
  uint32_t Rank(uint32_t code) const {
    EnsureRanks();
    return rank_of_code_[static_cast<size_t>(code)];
  }

  // Number of interned strings lexicographically < `s` (`s` need not be
  // interned). With Rank this answers range predicates on string columns:
  // str(code) < s iff Rank(code) < CountLess(s).
  uint32_t CountLess(std::string_view s) const;

  // Rank table handle for tight loops (one EnsureRanks per operator).
  const std::vector<uint32_t>& ranks() const {
    EnsureRanks();
    return rank_of_code_;
  }

 private:
  void EnsureRanks() const;

  // Stable element addresses (std::deque) keep the string_view map keys
  // valid as the dictionary grows (SSO strings would move in a vector).
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, uint32_t> map_;
  int64_t total_string_bytes_ = 0;

  mutable std::mutex rank_mu_;
  mutable std::atomic<bool> ranks_ready_{false};
  mutable std::vector<uint32_t> rank_of_code_;  // code -> rank
  mutable std::vector<uint32_t> codes_sorted_;  // rank -> code
};

}  // namespace xmlshred

#endif  // XMLSHRED_REL_DICTIONARY_H_
