// Column and table statistics: row counts, distinct estimates, min/max,
// equi-depth histograms, and most-common values.
//
// These are the statistics the paper's architecture (Section 4.1) collects
// on the fully split schema and derives for every merged mapping; they feed
// both the query optimizer's selectivity estimation and the tuner's
// hypothetical object sizing.

#ifndef XMLSHRED_REL_STATS_H_
#define XMLSHRED_REL_STATS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "rel/value.h"

namespace xmlshred {

// One bucket of an equi-depth histogram: `count` non-null values v with
// previous_upper < v <= upper.
struct HistogramBucket {
  Value upper;
  int64_t count = 0;
};

struct ColumnStats {
  int64_t non_null_count = 0;
  int64_t null_count = 0;
  int64_t distinct_estimate = 0;
  double avg_bytes = 8.0;
  Value min;  // NULL when the column is all-NULL
  Value max;
  // Equi-depth histogram over non-null values (numeric columns).
  std::vector<HistogramBucket> histogram;
  // Most-common values with exact counts (string columns, capped).
  std::vector<std::pair<Value, int64_t>> mcvs;

  int64_t row_count() const { return non_null_count + null_count; }

  // Fraction of table rows with column = v (0..1).
  double EqSelectivity(const Value& v) const;
  // Fraction of table rows satisfying column <op> v, where op is one of
  // "<", "<=", ">", ">=".
  double RangeSelectivity(const std::string& op, const Value& v) const;
  // Fraction of rows that are non-NULL.
  double NotNullSelectivity() const;
};

struct TableStats {
  int64_t row_count = 0;
  std::vector<ColumnStats> columns;  // parallel to schema columns
  // Stored (block-encoded) footprint of the real table these stats were
  // collected from, in bytes (Table::stored_bytes). 0 = unknown — stats
  // derived for a hypothetical mapping, where descriptors fall back to
  // the logical PagesFor(rows, avg_row_bytes) sizing.
  int64_t encoded_bytes = 0;

  // Mean on-disk row width implied by per-column averages.
  double AvgRowBytes() const;
};

// Number of histogram buckets built by stats collection.
inline constexpr int kHistogramBuckets = 32;
// Cap on tracked most-common values per column.
inline constexpr int kMaxMcvs = 64;

// Builds statistics for a single column from its values in row order
// (NULLs included). Table::ComputeStats runs it over each stored column.
ColumnStats BuildColumnStatsFromValues(const std::vector<Value>& values);

// Returns `stats` rescaled so non-null/null counts (and histogram, MCV,
// and distinct counts) reflect `factor` times the original rows. Used to
// derive per-partition statistics from whole-element statistics.
ColumnStats ScaleColumnStats(const ColumnStats& stats, double factor);

// Combines statistics of two disjoint row populations of the same column
// (e.g. a type-merged relation fed by two element types).
ColumnStats MergeColumnStats(const ColumnStats& a, const ColumnStats& b);

}  // namespace xmlshred

#endif  // XMLSHRED_REL_STATS_H_
