// RunReport — the one machine-readable summary of a pipeline run.
//
// RunReport merges SearchTelemetry (on SearchResult) and the
// anytime/rollback counters (on TunerResult) into one sectioned struct
// returned by every search algorithm (SearchResult::report), populated
// from the per-run metrics registry rather than hand-maintained counters
// (see RunReportFromMetrics).
//
// Determinism: every integer field is bit-identical at any thread count
// for non-truncated runs; `elapsed_seconds` and `work_spent` (FP sums)
// are timing-dependent (DESIGN.md §9).

#ifndef XMLSHRED_COMMON_RUN_REPORT_H_
#define XMLSHRED_COMMON_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace xmlshred {

struct RunReport {
  struct SearchSection {
    std::string algorithm;
    int rounds = 0;
    int transformations_searched = 0;
    int tuner_calls = 0;
    int optimizer_calls = 0;
    int queries_derived = 0;
    int candidates_selected = 0;
    int candidates_after_merging = 0;
    int candidates_skipped = 0;
    double work_spent = 0;
    double elapsed_seconds = 0;  // timing-dependent
    bool truncated = false;
  };
  struct AdvisorSection {
    int tune_calls = 0;
    int optimizer_calls = 0;
    // Aggregated across every tuner call of the run — including the
    // parallel costing workers' calls, reduced in enumeration order (the
    // PR-3 fix; previously only the final configuration's counts
    // survived).
    int whatif_rollbacks = 0;
    int candidates_skipped = 0;
    bool truncated = false;
  };
  // Peak columnar storage footprint across the run's shredded databases
  // (from the storage.*_peak gauges, maintained with Gauge::SetMax):
  // base-table bytes, string-dictionary bytes, and dictionary entries.
  // All zero when the run never touched real data.
  struct StorageSection {
    int64_t table_bytes_peak = 0;
    int64_t dict_bytes_peak = 0;
    int64_t dict_entries_peak = 0;
  };
  // Summary of one q-error histogram: observation count, mean (histogram
  // sum / count; an FP accumulate, same caveat as gauges), and the upper
  // bound of the highest non-empty power-of-two bucket (a deterministic
  // "worst estimate was below X" statement).
  struct QErrorStats {
    int64_t count = 0;
    double mean = 0;
    double max_bound = 0;
  };
  struct CalibrationOperator {
    std::string kind;  // PlanKindToString value
    QErrorStats rows;
  };
  // Cost-model calibration: how estimated rows/pages/cost compared with
  // executed actuals (exec/explain.h). Empty (queries == 0) unless the
  // run executed queries against real data with a registry attached.
  struct CalibrationSection {
    int64_t queries = 0;
    QErrorStats cost;   // root est_cost vs metered work, per query
    QErrorStats pages;  // root est_pages vs touched pages, per query
    // Per-operator-kind rows q-errors, sorted by kind; kinds the run
    // never executed are omitted.
    std::vector<CalibrationOperator> operators;
  };

  SearchSection search;
  AdvisorSection advisor;
  StorageSection storage;
  CalibrationSection calibration;

  // Deterministic JSON export (schema_version 2), sections in declaration
  // order, keys fixed.
  std::string ToJson() const;
};

// Builds a report from a per-run registry snapshot: the search section
// from the "search.*" counters, the advisor section from the
// search-aggregated advisor counters, the storage section from the
// "storage.*_peak" gauges, and the calibration section from the
// "calibration.*" histograms.
RunReport RunReportFromMetrics(const MetricsSnapshot& snapshot,
                               const std::string& algorithm);

}  // namespace xmlshred

#endif  // XMLSHRED_COMMON_RUN_REPORT_H_
