// Quality evaluation (§5.1.4): really shreds the data under a search
// result's mapping, builds the recommended physical structures, executes
// the translated workload, and reports the metered work — the "query
// execution time" of Figs. 4, 8a, and 9a.

#ifndef XMLSHRED_SEARCH_EVALUATE_H_
#define XMLSHRED_SEARCH_EVALUATE_H_

#include <vector>

#include "exec/explain.h"
#include "search/problem.h"
#include "xml/document.h"

namespace xmlshred {

struct WorkloadEvaluation {
  double total_work = 0;  // sum of f_i * measured work of Q_i
  std::vector<double> per_query_work;
  int64_t data_pages = 0;
  int64_t structure_pages = 0;  // really-built indexes and views
  // One EXPLAIN ANALYZE tree per workload query, in workload order —
  // only populated under EvaluateOptions::collect_explain.
  std::vector<QueryExplain> explains;
};

struct EvaluateOptions {
  // Records per-operator wall time in the explain trees (clock reads;
  // breaks bit-identity of timing fields, like trace durations).
  bool capture_timing = false;
  // Keeps each query's explain tree in WorkloadEvaluation::explains.
  bool collect_explain = false;
};

// Loads `doc` under `result`'s mapping, applies its configuration, and
// runs `workload` end-to-end. With exec.metrics set, also publishes the
// "shred.*" counters (rows/elements loaded), the "exec.*" metrics
// (queries run, rows out, metered work and page reads), "planner.*" for
// each executed query, and the "calibration.*" estimated-vs-actual
// q-errors; exec.trace receives "evaluate"/"exec.query" spans.
Result<WorkloadEvaluation> EvaluateOnData(
    const SearchResult& result, const XmlDocument& doc,
    const XPathWorkload& workload, const ExecContext& exec = {},
    const EvaluateOptions& options = {});

}  // namespace xmlshred

#endif  // XMLSHRED_SEARCH_EVALUATE_H_
