// Thread-safe metrics registry for the whole pipeline: counters, gauges,
// and histograms/timers with fixed log-scale buckets, exported as one
// deterministic JSON document.
//
// Design rules (DESIGN.md §9):
//
//  * Handles are resolved once (mutex-guarded map lookup) and then
//    incremented lock-free via relaxed atomics, so instrumented hot paths
//    add no locks: counter sums are commutative integers, identical at any
//    thread count.
//  * The registry never reads a clock on its own. Timers (ScopedTimer)
//    only read the steady clock when `timing_enabled()` was switched on
//    explicitly — the serial determinism path (num_threads = 1, timing
//    off) performs no wall-clock reads.
//  * A fixed set of well-known metric names is pre-registered by the
//    constructor so every export carries the full schema (zero-valued
//    where a stage never ran) — consumers can rely on key presence.
//  * Snapshot()/ToJson() order every section by name; the only
//    timing-dependent exported values are gauges under "time." /
//    "*.elapsed_seconds".

#ifndef XMLSHRED_COMMON_METRICS_H_
#define XMLSHRED_COMMON_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace xmlshred {

// --- Well-known metric names (pre-registered in every registry) ---
// Counters.
inline constexpr const char* kMetricParseXmlDocuments = "parse.xml.documents";
inline constexpr const char* kMetricParseXmlElements = "parse.xml.elements";
inline constexpr const char* kMetricParseXsdSchemas = "parse.xsd.schemas";
inline constexpr const char* kMetricParseXsdNodes = "parse.xsd.nodes";
inline constexpr const char* kMetricParseDtdSchemas = "parse.dtd.schemas";
inline constexpr const char* kMetricParseDtdNodes = "parse.dtd.nodes";
inline constexpr const char* kMetricShredDocuments = "shred.documents";
inline constexpr const char* kMetricShredRows = "shred.rows";
inline constexpr const char* kMetricShredElements = "shred.elements";
// Streaming-shredder ingest (DESIGN.md §17): columnar batches flushed
// into storage. The counter counts batches across all relations; the
// gauge (SetMax) is the largest single batch's logical bytes — both are
// document-order deterministic and thread-count independent, unlike peak
// transient memory, which stays in ShredStats.
inline constexpr const char* kMetricShredBatchesEmitted =
    "shred.batches_emitted";
inline constexpr const char* kMetricShredPeakBatchBytes =
    "shred.peak_batch_bytes";
inline constexpr const char* kMetricSearchRuns = "search.runs";
inline constexpr const char* kMetricSearchRounds = "search.rounds";
inline constexpr const char* kMetricSearchTransformations =
    "search.transformations_searched";
inline constexpr const char* kMetricSearchTunerCalls = "search.tuner_calls";
inline constexpr const char* kMetricSearchOptimizerCalls =
    "search.optimizer_calls";
inline constexpr const char* kMetricSearchQueriesDerived =
    "search.queries_derived";
inline constexpr const char* kMetricSearchCandidatesSelected =
    "search.candidates_selected";
inline constexpr const char* kMetricSearchCandidatesAfterMerging =
    "search.candidates_after_merging";
inline constexpr const char* kMetricSearchCandidatesSkipped =
    "search.candidates_skipped";
inline constexpr const char* kMetricSearchWhatifRollbacks =
    "search.whatif_rollbacks";
inline constexpr const char* kMetricSearchAdvisorCandidatesSkipped =
    "search.advisor_candidates_skipped";
inline constexpr const char* kMetricSearchTruncatedRuns =
    "search.truncated_runs";
// Published by nothing (the search keeps no memo of §4.8 derivations, see
// DESIGN.md §8); declared and pre-registered, reading 0, because
// pipebench's traced mode still reads them.
inline constexpr const char* kMetricCostCacheHits = "cost_cache.hits";
inline constexpr const char* kMetricCostCacheMisses = "cost_cache.misses";
inline constexpr const char* kMetricAdvisorTuneCalls = "advisor.tune_calls";
inline constexpr const char* kMetricAdvisorOptimizerCalls =
    "advisor.optimizer_calls";
inline constexpr const char* kMetricAdvisorWhatifRollbacks =
    "advisor.whatif_rollbacks";
inline constexpr const char* kMetricAdvisorCandidatesSkipped =
    "advisor.candidates_skipped";
inline constexpr const char* kMetricAdvisorTruncatedRuns =
    "advisor.truncated_runs";
inline constexpr const char* kMetricPlannerQueriesPlanned =
    "planner.queries_planned";
inline constexpr const char* kMetricExecQueries = "exec.queries";
inline constexpr const char* kMetricExecRowsOut = "exec.rows_out";
// Queries that fed estimated-vs-actual calibration (exec/explain.h).
inline constexpr const char* kMetricCalibrationQueries = "calibration.queries";
// Serving layer (src/serve). Accounting invariant:
//   requests + retry_attempts == completed + failed + shed_queue_full +
//     shed_budget + shed_session + expired_in_queue + expired_mid_query
// i.e. every offered request is accounted exactly once at terminal state.
inline constexpr const char* kMetricServeRequests = "serve.requests";
inline constexpr const char* kMetricServeRetryAttempts =
    "serve.retry_attempts";
inline constexpr const char* kMetricServeAdmitted = "serve.admitted";
inline constexpr const char* kMetricServeQueued = "serve.queued";
inline constexpr const char* kMetricServeCompleted = "serve.completed";
inline constexpr const char* kMetricServeFailed = "serve.failed";
inline constexpr const char* kMetricServeShedQueueFull =
    "serve.shed_queue_full";
inline constexpr const char* kMetricServeShedBudget = "serve.shed_budget";
inline constexpr const char* kMetricServeShedSession = "serve.shed_session";
inline constexpr const char* kMetricServeExpiredInQueue =
    "serve.expired_in_queue";
inline constexpr const char* kMetricServeExpiredMidQuery =
    "serve.expired_mid_query";
inline constexpr const char* kMetricServeEpochsPublished =
    "serve.epochs_published";
inline constexpr const char* kMetricServeSessionsOpened =
    "serve.sessions_opened";
inline constexpr const char* kMetricServeFaultsInjected =
    "serve.faults_injected";
// Block storage (DESIGN.md §14): blocks a run's sequential scans touched
// vs. pruned by zone maps (counted once per scan, at layout time, before
// any data is read).
inline constexpr const char* kMetricStorageBlocksScanned =
    "storage.blocks_scanned";
inline constexpr const char* kMetricStorageBlocksSkipped =
    "storage.blocks_skipped";
// Gauges (accumulating doubles).
inline constexpr const char* kMetricSearchWorkSpent = "search.work_spent";
inline constexpr const char* kMetricSearchElapsedSeconds =
    "search.elapsed_seconds";
inline constexpr const char* kMetricExecWork = "exec.work";
inline constexpr const char* kMetricExecPagesSequential =
    "exec.pages_sequential";
inline constexpr const char* kMetricExecPagesRandom = "exec.pages_random";
// Peak columnar storage footprint observed across the run's shredded
// databases (updated with Gauge::SetMax after each shred+configuration):
// base-table bytes, string-dictionary bytes (payload + per-entry
// overhead), and dictionary entry count.
inline constexpr const char* kMetricStorageTableBytesPeak =
    "storage.table_bytes_peak";
inline constexpr const char* kMetricStorageDictBytesPeak =
    "storage.dict_bytes_peak";
inline constexpr const char* kMetricStorageDictEntriesPeak =
    "storage.dict_entries_peak";
// Peak *stored* (block-encoded) table bytes — the footprint NumPages is
// computed from; storage.table_bytes_peak above stays the logical size,
// so peak_encoded / peak_logical is the run's compression ratio. The
// per-encoding gauges count sealed blocks by chosen encoding at the same
// peak (SetMax on the same database snapshot).
inline constexpr const char* kMetricStorageEncodedBytes =
    "storage.encoded_bytes";
inline constexpr const char* kMetricStorageBlocksPlain =
    "storage.blocks_plain";
inline constexpr const char* kMetricStorageBlocksRle = "storage.blocks_rle";
inline constexpr const char* kMetricStorageBlocksBitpackInt =
    "storage.blocks_bitpack_int";
inline constexpr const char* kMetricStorageBlocksBitpackCode =
    "storage.blocks_bitpack_code";
// Total metered work of *completed* serving requests (Gauge::Add of
// integer work units — exact, so deltas are deterministic). Per-window
// deltas of this gauge are the goodput numerator in the time-series
// recorder (common/timeseries.h).
inline constexpr const char* kMetricServeCompletedWork =
    "serve.completed_work";
// Serving-layer peaks (SetMax — deterministic at any thread count).
inline constexpr const char* kMetricServeQueueDepthPeak =
    "serve.queue_depth_peak";
inline constexpr const char* kMetricServeInflightPeak = "serve.inflight_peak";
inline constexpr const char* kMetricServeOutstandingWorkPeak =
    "serve.outstanding_work_peak";
// Histograms.
inline constexpr const char* kMetricSearchRoundCandidates =
    "search.round_candidates";
inline constexpr const char* kMetricPlannerEstCost = "planner.est_cost";
inline constexpr const char* kMetricExecRowsPerQuery = "exec.rows_per_query";
// Calibration q-errors (always >= 1; see QError in opt/cost_model.h):
// query-level estimated-cost-vs-metered-work and estimated-vs-touched
// pages, plus one per-operator-kind rows histogram named
// kMetricCalibrationRowsQErrorPrefix + PlanKindToString(kind).
inline constexpr const char* kMetricCalibrationCostQError =
    "calibration.cost_qerror";
inline constexpr const char* kMetricCalibrationPagesQError =
    "calibration.pages_qerror";
inline constexpr const char* kMetricCalibrationRowsQErrorPrefix =
    "calibration.rows_qerror.";
// Serving-layer latency distributions in deterministic *work units*
// (virtual time), not wall clock: end-to-end latency of completed
// requests (queue wait + execution work) and the queue-wait component.
inline constexpr const char* kMetricServeLatencyWork = "serve.latency_work";
inline constexpr const char* kMetricServeQueueWaitWork =
    "serve.queue_wait_work";
// Every PlanKindToString value, so the registry can pre-register the full
// per-kind histogram family (kept in sync by
// ExplainTest.CalibrationKindListMatchesPlanKinds).
inline constexpr const char* kCalibrationOperatorKinds[] = {
    "HashJoin",  "HeapScan", "IndexNLJoin", "IndexOnlyScan", "IndexSeek",
    "Project",   "Sort",     "UnionAll",    "ViewScan"};

// Monotone counter: lock-free relaxed adds.
class Counter {
 public:
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Double-valued gauge with Set and accumulate semantics. Add uses a CAS
// loop (atomic<double>::fetch_add portability); sums of doubles are
// order-dependent in the last bits, so gauges are informational, not part
// of the bit-identity contract.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double v);
  // Raises the gauge to `v` if `v` is larger (CAS loop like Add). Unlike
  // Add, the result is order-independent, so SetMax-maintained peaks are
  // deterministic at any thread count.
  void SetMax(double v);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

// Histogram over fixed log-scale (powers of two) buckets: bucket 0 holds
// values < 1, bucket i >= 1 holds [2^(i-1), 2^i). Bucket counts are
// integers, so the exported distribution is deterministic at any thread
// count; `sum` is a double accumulate (same caveat as Gauge::Add).
class Histogram {
 public:
  static constexpr int kBuckets = 48;

  void Observe(double value);
  // Adds a pre-bucketed batch (registry merging): `n` observations in
  // `bucket` totalling `sum`.
  void AddBatch(int bucket, int64_t n, double sum);
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  // Upper bound of bucket i (1, 1, 2, 4, ...; bucket 0's bound is 1).
  static double BucketUpperBound(int i);
  static int BucketIndex(double value);

 private:
  std::atomic<int64_t> buckets_[kBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0};
};

struct HistogramSnapshot {
  int64_t count = 0;
  double sum = 0;
  // (bucket index, count) for non-empty buckets, ascending.
  std::vector<std::pair<int, int64_t>> buckets;
};

// Point-in-time copy of a registry, ordered by name for deterministic
// export and comparison.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  // Deterministic JSON export (schema_version 1; see
  // tools/metrics_schema.json). Keys sorted; counters as integers, gauges
  // with %.17g round-trip precision.
  std::string ToJson() const;
};

class MetricsRegistry {
 public:
  // Pre-registers every well-known metric so exports always carry the
  // full schema.
  MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Handle resolution: mutex-guarded, intended for entry points, not per-
  // item loops. Handles stay valid for the registry's lifetime.
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  // Timers are inert until enabled; the serial determinism path leaves
  // this off so instrumentation performs no clock reads.
  bool timing_enabled() const {
    return timing_enabled_.load(std::memory_order_relaxed);
  }
  void set_timing_enabled(bool enabled) {
    timing_enabled_.store(enabled, std::memory_order_relaxed);
  }

  MetricsSnapshot Snapshot() const;

  // Adds `snapshot` into this registry: counters and histogram buckets
  // add; gauges accumulate. Used to fold a per-run registry into a
  // process-wide export registry.
  void Merge(const MetricsSnapshot& snapshot);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::atomic<bool> timing_enabled_{false};
};

// Observes the scope's wall-clock duration (in nanoseconds) into
// `registry`'s histogram `name` — only when the registry exists and has
// timing enabled; otherwise fully inert (no clock read).
class ScopedTimer {
 public:
  ScopedTimer(MetricsRegistry* registry, const char* name) {
    if (registry != nullptr && registry->timing_enabled()) {
      histogram_ = registry->histogram(name);
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedTimer() {
    if (histogram_ != nullptr) {
      histogram_->Observe(std::chrono::duration<double, std::nano>(
                              std::chrono::steady_clock::now() - start_)
                              .count());
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
};

// Writes `content` to `path` atomically enough for tooling (truncate +
// write). Shared by the JSON exporters.
Status WriteTextFile(const std::string& path, std::string_view content);

}  // namespace xmlshred

#endif  // XMLSHRED_COMMON_METRICS_H_
