#include "common/metrics.h"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/strings.h"

namespace xmlshred {

void Gauge::Add(double v) {
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + v,
                                       std::memory_order_relaxed)) {
  }
}

void Gauge::SetMax(double v) {
  double current = value_.load(std::memory_order_relaxed);
  while (current < v && !value_.compare_exchange_weak(
                            current, v, std::memory_order_relaxed)) {
  }
}

int Histogram::BucketIndex(double value) {
  if (!(value >= 1)) return 0;  // negatives and NaN land in bucket 0
  int exp = 0;
  (void)std::frexp(value, &exp);  // value = m * 2^exp, m in [0.5, 1)
  // value in [2^(exp-1), 2^exp) -> bucket exp.
  if (exp >= kBuckets) return kBuckets - 1;
  return exp;
}

double Histogram::BucketUpperBound(int i) {
  return i <= 0 ? 1.0 : std::ldexp(1.0, i);
}

void Histogram::Observe(double value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + value,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::AddBatch(int bucket, int64_t n, double sum) {
  if (bucket < 0) bucket = 0;
  if (bucket >= kBuckets) bucket = kBuckets - 1;
  buckets_[bucket].fetch_add(n, std::memory_order_relaxed);
  count_.fetch_add(n, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + sum,
                                     std::memory_order_relaxed)) {
  }
}

MetricsRegistry::MetricsRegistry() {
  static constexpr const char* kCounters[] = {
      kMetricParseXmlDocuments,
      kMetricParseXmlElements,
      kMetricParseXsdSchemas,
      kMetricParseXsdNodes,
      kMetricParseDtdSchemas,
      kMetricParseDtdNodes,
      kMetricShredDocuments,
      kMetricShredRows,
      kMetricShredElements,
      kMetricShredBatchesEmitted,
      kMetricSearchRuns,
      kMetricSearchRounds,
      kMetricSearchTransformations,
      kMetricSearchTunerCalls,
      kMetricSearchOptimizerCalls,
      kMetricSearchQueriesDerived,
      kMetricSearchCandidatesSelected,
      kMetricSearchCandidatesAfterMerging,
      kMetricSearchCandidatesSkipped,
      kMetricSearchWhatifRollbacks,
      kMetricSearchAdvisorCandidatesSkipped,
      kMetricSearchTruncatedRuns,
      kMetricCostCacheHits,
      kMetricCostCacheMisses,
      kMetricAdvisorTuneCalls,
      kMetricAdvisorOptimizerCalls,
      kMetricAdvisorWhatifRollbacks,
      kMetricAdvisorCandidatesSkipped,
      kMetricAdvisorTruncatedRuns,
      kMetricPlannerQueriesPlanned,
      kMetricExecQueries,
      kMetricExecRowsOut,
      kMetricCalibrationQueries,
      kMetricServeRequests,
      kMetricServeRetryAttempts,
      kMetricServeAdmitted,
      kMetricServeQueued,
      kMetricServeCompleted,
      kMetricServeFailed,
      kMetricServeShedQueueFull,
      kMetricServeShedBudget,
      kMetricServeShedSession,
      kMetricServeExpiredInQueue,
      kMetricServeExpiredMidQuery,
      kMetricServeEpochsPublished,
      kMetricServeSessionsOpened,
      kMetricServeFaultsInjected,
      kMetricStorageBlocksScanned,
      kMetricStorageBlocksSkipped,
  };
  static constexpr const char* kGauges[] = {
      kMetricSearchWorkSpent,       kMetricSearchElapsedSeconds,
      kMetricExecWork,              kMetricExecPagesSequential,
      kMetricExecPagesRandom,       kMetricStorageTableBytesPeak,
      kMetricStorageDictBytesPeak,  kMetricStorageDictEntriesPeak,
      kMetricServeCompletedWork,
      kMetricServeQueueDepthPeak,   kMetricServeInflightPeak,
      kMetricServeOutstandingWorkPeak,
      kMetricStorageEncodedBytes,   kMetricStorageBlocksPlain,
      kMetricStorageBlocksRle,      kMetricStorageBlocksBitpackInt,
      kMetricStorageBlocksBitpackCode,
      kMetricShredPeakBatchBytes,
  };
  static constexpr const char* kHistograms[] = {
      kMetricSearchRoundCandidates,
      kMetricPlannerEstCost,
      kMetricExecRowsPerQuery,
      kMetricCalibrationCostQError,
      kMetricCalibrationPagesQError,
      kMetricServeLatencyWork,
      kMetricServeQueueWaitWork,
  };
  for (const char* name : kCounters) {
    counters_.emplace(name, std::make_unique<Counter>());
  }
  for (const char* name : kGauges) {
    gauges_.emplace(name, std::make_unique<Gauge>());
  }
  for (const char* name : kHistograms) {
    histograms_.emplace(name, std::make_unique<Histogram>());
  }
  for (const char* kind : kCalibrationOperatorKinds) {
    histograms_.emplace(std::string(kMetricCalibrationRowsQErrorPrefix) + kind,
                        std::make_unique<Histogram>());
  }
}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(std::string(name));
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(std::string(name));
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(std::string(name));
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.count = histogram->count();
    h.sum = histogram->sum();
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      int64_t c = histogram->bucket(i);
      if (c > 0) h.buckets.emplace_back(i, c);
    }
    snapshot.histograms[name] = std::move(h);
  }
  return snapshot;
}

void MetricsRegistry::Merge(const MetricsSnapshot& snapshot) {
  for (const auto& [name, value] : snapshot.counters) {
    counter(name)->Add(value);
  }
  for (const auto& [name, value] : snapshot.gauges) {
    gauge(name)->Add(value);
  }
  for (const auto& [name, h] : snapshot.histograms) {
    Histogram* target = histogram(name);
    double remaining_sum = h.sum;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      // Bucket counts add exactly; the source's total sum is attributed to
      // the last bucket batch so the merged sum equals source + target.
      double batch_sum = b + 1 == h.buckets.size() ? remaining_sum : 0;
      target->AddBatch(h.buckets[b].first, h.buckets[b].second, batch_sum);
    }
  }
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"schema_version\": 1,\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += StrFormat("%s\n    \"%s\": %lld", first ? "" : ",", name.c_str(),
                     static_cast<long long>(value));
    first = false;
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += StrFormat("%s\n    \"%s\": %.17g", first ? "" : ",", name.c_str(),
                     value);
    first = false;
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += StrFormat("%s\n    \"%s\": {\"count\": %lld, \"sum\": %.17g, "
                     "\"buckets\": [",
                     first ? "" : ",", name.c_str(),
                     static_cast<long long>(h.count), h.sum);
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      out += StrFormat("%s{\"le\": %.17g, \"count\": %lld}",
                       b == 0 ? "" : ", ",
                       Histogram::BucketUpperBound(h.buckets[b].first),
                       static_cast<long long>(h.buckets[b].second));
    }
    out += "]}";
    first = false;
  }
  out += "\n  }\n}\n";
  return out;
}

Status WriteTextFile(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Internal("cannot write " + path);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.close();
  if (!out) return Internal("short write to " + path);
  return Status::OK();
}

}  // namespace xmlshred
