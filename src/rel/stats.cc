#include "rel/stats.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/logging.h"

namespace xmlshred {

double ColumnStats::NotNullSelectivity() const {
  int64_t total = row_count();
  if (total == 0) return 0.0;
  return static_cast<double>(non_null_count) / static_cast<double>(total);
}

double ColumnStats::EqSelectivity(const Value& v) const {
  int64_t total = row_count();
  if (total == 0 || v.is_null()) return 0.0;
  // Exact answer from MCVs when tracked.
  for (const auto& [mcv, count] : mcvs) {
    if (mcv.TotalEquals(v)) {
      return static_cast<double>(count) / static_cast<double>(total);
    }
  }
  if (distinct_estimate <= 0) return 0.0;
  // Out-of-range probes match nothing.
  if (!min.is_null() && (v.TotalLess(min) || max.TotalLess(v))) return 0.0;
  double uniform =
      static_cast<double>(non_null_count) /
      (static_cast<double>(distinct_estimate) * static_cast<double>(total));
  return uniform;
}

double ColumnStats::RangeSelectivity(const std::string& op,
                                     const Value& v) const {
  int64_t total = row_count();
  if (total == 0 || v.is_null()) return 0.0;
  if (histogram.empty()) {
    // No histogram (e.g. string column): fall back to a fixed guess, the
    // classic 1/3 heuristic.
    return NotNullSelectivity() / 3.0;
  }
  // Count values <= v from the equi-depth histogram, interpolating within
  // the straddling bucket.
  double le = 0;
  Value lower = min;
  for (const auto& bucket : histogram) {
    if (!v.TotalLess(bucket.upper)) {
      // Entire bucket <= v.
      le += static_cast<double>(bucket.count);
    } else {
      // v falls inside this bucket: linear interpolation on numerics.
      if (!lower.is_null() && !bucket.upper.is_null() && !v.is_string() &&
          !bucket.upper.is_string()) {
        double lo = lower.AsNumeric();
        double hi = bucket.upper.AsNumeric();
        double frac = hi > lo ? (v.AsNumeric() - lo) / (hi - lo) : 0.0;
        frac = std::clamp(frac, 0.0, 1.0);
        le += frac * static_cast<double>(bucket.count);
      }
      break;
    }
    lower = bucket.upper;
  }
  double eq = EqSelectivity(v) * static_cast<double>(total);
  double lt = std::max(0.0, le - eq);
  double nn = static_cast<double>(non_null_count);
  double result = 0;
  if (op == "<") {
    result = lt;
  } else if (op == "<=") {
    result = le;
  } else if (op == ">") {
    result = nn - le;
  } else if (op == ">=") {
    result = nn - lt;
  } else {
    XS_CHECK(false);
  }
  return std::clamp(result / static_cast<double>(total), 0.0, 1.0);
}

double TableStats::AvgRowBytes() const {
  double width = 0;
  for (const ColumnStats& c : columns) width += c.avg_bytes;
  return width < 8.0 ? 8.0 : width;
}

ColumnStats BuildColumnStatsFromValues(const std::vector<Value>& values) {
  ColumnStats stats;
  std::vector<const Value*> non_null;
  non_null.reserve(values.size());
  double bytes = 0;
  for (const Value& v : values) {
    bytes += static_cast<double>(v.ByteSize());
    if (v.is_null()) {
      ++stats.null_count;
    } else {
      ++stats.non_null_count;
      non_null.push_back(&v);
    }
  }
  stats.avg_bytes =
      values.empty() ? 8.0 : bytes / static_cast<double>(values.size());
  if (non_null.empty()) return stats;

  std::sort(non_null.begin(), non_null.end(),
            [](const Value* a, const Value* b) { return a->TotalLess(*b); });
  stats.min = *non_null.front();
  stats.max = *non_null.back();

  // Distinct count (exact, since values are sorted).
  int64_t distinct = 1;
  for (size_t i = 1; i < non_null.size(); ++i) {
    if (non_null[i - 1]->TotalLess(*non_null[i])) ++distinct;
  }
  stats.distinct_estimate = distinct;

  bool numeric = !stats.min.is_string() && !stats.max.is_string();
  if (numeric) {
    // Equi-depth histogram.
    int buckets = std::min<int64_t>(kHistogramBuckets,
                                    static_cast<int64_t>(non_null.size()));
    int64_t n = static_cast<int64_t>(non_null.size());
    int64_t assigned = 0;
    for (int b = 0; b < buckets; ++b) {
      int64_t take = n / buckets + (b < n % buckets ? 1 : 0);
      int64_t end = assigned + take;
      HistogramBucket bucket;
      bucket.upper = *non_null[static_cast<size_t>(end - 1)];
      bucket.count = take;
      // Merge buckets sharing an upper bound (heavy duplicates).
      if (!stats.histogram.empty() &&
          stats.histogram.back().upper.TotalEquals(bucket.upper)) {
        stats.histogram.back().count += bucket.count;
      } else {
        stats.histogram.push_back(std::move(bucket));
      }
      assigned = end;
    }
  }

  // Most-common values: exact counts when the number of distinct values is
  // small; otherwise track the top kMaxMcvs.
  std::vector<std::pair<Value, int64_t>> counts;
  size_t i = 0;
  while (i < non_null.size()) {
    size_t j = i + 1;
    while (j < non_null.size() && non_null[i]->TotalEquals(*non_null[j])) ++j;
    counts.emplace_back(*non_null[i], static_cast<int64_t>(j - i));
    i = j;
  }
  if (counts.size() <= static_cast<size_t>(kMaxMcvs)) {
    stats.mcvs = std::move(counts);
  } else {
    std::partial_sort(counts.begin(), counts.begin() + kMaxMcvs, counts.end(),
                      [](const auto& a, const auto& b) {
                        return a.second > b.second;
                      });
    counts.resize(kMaxMcvs);
    stats.mcvs = std::move(counts);
  }
  return stats;
}

ColumnStats ScaleColumnStats(const ColumnStats& stats, double factor) {
  ColumnStats out = stats;
  auto scale = [factor](int64_t v) {
    return static_cast<int64_t>(static_cast<double>(v) * factor + 0.5);
  };
  out.non_null_count = scale(stats.non_null_count);
  out.null_count = scale(stats.null_count);
  out.distinct_estimate =
      std::min(stats.distinct_estimate,
               std::max<int64_t>(out.non_null_count > 0 ? 1 : 0,
                                 scale(stats.distinct_estimate)));
  // The value range is kept; each bucket and MCV thins/grows uniformly.
  for (HistogramBucket& b : out.histogram) b.count = scale(b.count);
  for (auto& [v, c] : out.mcvs) c = scale(c);
  return out;
}

ColumnStats MergeColumnStats(const ColumnStats& a, const ColumnStats& b) {
  if (a.row_count() == 0) return b;
  if (b.row_count() == 0) return a;
  ColumnStats out;
  out.non_null_count = a.non_null_count + b.non_null_count;
  out.null_count = a.null_count + b.null_count;
  out.distinct_estimate =
      std::min(out.non_null_count, a.distinct_estimate + b.distinct_estimate);
  double wa = static_cast<double>(a.row_count());
  double wb = static_cast<double>(b.row_count());
  out.avg_bytes = (a.avg_bytes * wa + b.avg_bytes * wb) / (wa + wb);
  out.min = a.min;
  if (out.min.is_null() || (!b.min.is_null() && b.min.TotalLess(out.min))) {
    out.min = b.min;
  }
  out.max = a.max;
  if (out.max.is_null() || (!b.max.is_null() && out.max.TotalLess(b.max))) {
    out.max = b.max;
  }
  // Merge histograms by interleaving bucket boundaries; counts add.
  std::vector<HistogramBucket> merged = a.histogram;
  merged.insert(merged.end(), b.histogram.begin(), b.histogram.end());
  std::sort(merged.begin(), merged.end(),
            [](const HistogramBucket& x, const HistogramBucket& y) {
              return x.upper.TotalLess(y.upper);
            });
  for (const HistogramBucket& bucket : merged) {
    if (!out.histogram.empty() &&
        out.histogram.back().upper.TotalEquals(bucket.upper)) {
      out.histogram.back().count += bucket.count;
    } else {
      out.histogram.push_back(bucket);
    }
  }
  // Merge MCVs; cap at kMaxMcvs by frequency.
  std::vector<std::pair<Value, int64_t>> mcvs = a.mcvs;
  for (const auto& [v, c] : b.mcvs) {
    bool found = false;
    for (auto& [mv, mc] : mcvs) {
      if (mv.TotalEquals(v)) {
        mc += c;
        found = true;
        break;
      }
    }
    if (!found) mcvs.emplace_back(v, c);
  }
  if (mcvs.size() > static_cast<size_t>(kMaxMcvs)) {
    std::partial_sort(
        mcvs.begin(), mcvs.begin() + kMaxMcvs, mcvs.end(),
        [](const auto& x, const auto& y) { return x.second > y.second; });
    mcvs.resize(kMaxMcvs);
  }
  out.mcvs = std::move(mcvs);
  return out;
}

}  // namespace xmlshred
