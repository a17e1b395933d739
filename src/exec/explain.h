// EXPLAIN / EXPLAIN ANALYZE: a per-query tree of per-operator estimates
// and (optionally) actuals, mirroring the physical plan node for node.
//
// The flow is:
//
//   1. BuildExplainTree(plan) copies the optimizer annotations (est_rows /
//      est_pages / est_cost) into an ExplainNode tree — that alone is
//      EXPLAIN.
//   2. Executor::Run with ExecOptions::explain pointing at the tree fills
//      in per-operator actuals as inclusive deltas of the run-wide meter
//      across each subtree — matching the inclusive estimate semantics —
//      which upgrades it to EXPLAIN ANALYZE. Wall time per operator is
//      recorded only when ExecOptions::capture_timing is set (the
//      explain-side analog of MetricsRegistry::timing_enabled), so the
//      deterministic path performs no clock reads.
//   3. ExplainToText / ExplainToJson render one tree;
//      ExplainDocumentToJson renders a whole workload's worth. JSON with
//      include_timing=false is bit-identical across runs.
//   4. ObserveCalibration folds estimated-vs-actual into the calibration
//      histograms of a MetricsRegistry (q-errors per operator kind plus
//      query-level cost and pages), which RunReport surfaces as the
//      "calibration" section.

#ifndef XMLSHRED_EXEC_EXPLAIN_H_
#define XMLSHRED_EXEC_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "opt/plan.h"

namespace xmlshred {

// One operator's estimates and actuals. Estimates come from the planner;
// actuals are inclusive of the whole subtree (like est_cost / est_pages),
// in the executor's abstract work units.
struct ExplainNode {
  std::string kind;         // PlanKindToString of the mirrored plan node
  std::string object_name;  // table / index / view read, when any

  // Planner estimates (inclusive of children).
  double est_rows = 0;
  double est_pages = 0;
  double est_cost = 0;

  // Executor actuals (inclusive of children); untouched until the tree is
  // passed through Executor::Run.
  int64_t actual_rows = 0;
  double actual_work = 0;   // metered work units, comparable to est_cost
  double actual_pages = 0;  // sequential + random page-equivalents
  // Storage blocks the subtree's sequential scans touched vs. pruned by
  // zone maps (DESIGN.md §14).
  int64_t actual_blocks_scanned = 0;
  int64_t actual_blocks_skipped = 0;
  double wall_ns = 0;       // 0 unless ExecOptions::capture_timing

  std::vector<ExplainNode> children;
};

// One executed query's explain tree plus the query text it came from.
struct QueryExplain {
  std::string query_text;
  ExplainNode root;
};

// Copies the plan tree's shape and optimizer annotations; actuals start
// at zero (plain EXPLAIN until an executor run fills them in).
ExplainNode BuildExplainTree(const PlanNode& plan);

// Indented EXPLAIN ANALYZE text: one line per operator with estimates and
// actuals side by side.
std::string ExplainToText(const ExplainNode& node);

// Deterministic JSON for one tree. With include_timing=false every
// wall_ns renders as exactly 0 (the shared RenderJsonDurationNs
// convention from common/trace.h), making the document bit-identical
// across runs.
std::string ExplainToJson(const ExplainNode& node,
                          bool include_timing = false);

// Deterministic JSON document for a workload: schema_version plus one
// entry per query in execution order (see tools/explain_schema.json).
std::string ExplainDocumentToJson(const std::vector<QueryExplain>& queries,
                                  bool include_timing = false);

// Observes estimated-vs-actual quality into `registry`'s calibration
// metrics: per-node rows q-error into the per-operator-kind histogram
// family, and query-level cost and pages q-errors at the root. No-op when
// `registry` is null.
void ObserveCalibration(const ExplainNode& root, MetricsRegistry* registry);

}  // namespace xmlshred

#endif  // XMLSHRED_EXEC_EXPLAIN_H_
