// Problem definition (paper Definition 1) and shared search plumbing.
//
// Given an XSD schema tree T, an XPath workload W = {(Q_i, f_i)}, and a
// storage bound S, find a mapping M : T -> R and a physical configuration
// F on R within S minimizing sum_i f_i * cost(Q_i, R, F).

#ifndef XMLSHRED_SEARCH_PROBLEM_H_
#define XMLSHRED_SEARCH_PROBLEM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/run_report.h"
#include "common/status.h"
#include "common/trace.h"
#include "mapping/mapping.h"
#include "mapping/xml_stats.h"
#include "tune/advisor.h"
#include "xml/schema_tree.h"
#include "xpath/xpath.h"

namespace xmlshred {

// Insert load on one XML element type: `weight` new instances of
// `context_element` per workload unit. The update-queries extension the
// paper marks as future work: maintenance charges steer the physical
// design away from structures on update-heavy relations.
struct XmlUpdateLoad {
  std::string context_element;
  double weight = 1.0;
};

struct DesignProblem {
  const SchemaTree* tree = nullptr;       // original annotated schema
  const XmlStatistics* stats = nullptr;   // collected once from the data
  XPathWorkload workload;
  std::vector<XmlUpdateLoad> updates;     // optional insert load
  int64_t storage_bound_pages = 1LL << 40;
  TunerOptions tuner_options;             // storage bound is set per call
  // Execution environment: governor, metrics registry, trace sink
  // (DESIGN.md §9). Every field optional.
  //
  // `exec.governor` is shared by every tuner/optimizer call the search
  // makes. When its work budget or deadline runs out, the search
  // algorithms become *anytime*: they stop exploring and return the best
  // mapping found so far with SearchResult::truncated set. Costing the
  // initial mapping is mandatory, so even a 1-unit budget yields a valid
  // design.
  ExecContext exec;
};

struct SearchTelemetry {
  // Transformations whose resulting mapping was costed (the paper's
  // Fig. 6 metric).
  int transformations_searched = 0;
  // Full physical-design-tool invocations.
  int tuner_calls = 0;
  // Query-optimizer invocations across all tuner calls.
  int optimizer_calls = 0;
  // Queries whose cost was reused through cost derivation (§4.8).
  int queries_derived = 0;
  int candidates_selected = 0;     // after candidate selection (§4.5)
  int candidates_after_merging = 0;  // after candidate merging (§4.7)
  // Candidates dropped because costing them failed (injected faults,
  // unanswerable mappings) — the search skips them and keeps going.
  int candidates_skipped = 0;
  // What-if evaluations the advisor rolled back, summed over *every*
  // tuner call the search made (not just the winning configuration's) —
  // parallel workers' counts are reduced in enumeration order, so the
  // total is bit-identical at any thread count.
  int whatif_rollbacks = 0;
  // Candidate structures the advisor skipped after failed evaluation,
  // aggregated the same way.
  int advisor_candidates_skipped = 0;
  int rounds = 0;
  double elapsed_seconds = 0;
  // Budget telemetry (0 when the problem has no governor): work units
  // spent so far, including the partial round in flight when truncated.
  double work_spent = 0;
};

struct SearchResult {
  std::unique_ptr<SchemaTree> tree;  // final transformed schema
  Mapping mapping;
  TunerResult configuration;
  double estimated_cost = 0;  // weighted optimizer-estimated workload cost
  SearchTelemetry telemetry;
  std::string algorithm;
  // True when the governor's budget/deadline ran out before the search
  // converged: the mapping and configuration are the best found so far.
  bool truncated = false;
  // Unified run summary (search, advisor, storage, and calibration
  // sections), populated from the run's metrics at finish.
  RunReport report;
};

// --- shared plumbing used by all search algorithms ---

// Translates the XPath workload to weighted SQL under `mapping`. Queries a
// mapping cannot answer (none in generated workloads) fail the call.
Result<std::vector<WeightedQuery>> TranslateWorkload(
    const XPathWorkload& workload, const SchemaTree& tree,
    const Mapping& mapping);

// Tuner options for one design-tool call under `problem`: the problem's
// options with the storage bound and execution context filled in.
TunerOptions EffectiveTunerOptions(const DesignProblem& problem);

// Adds one design-tool call and what it did (optimizer calls, what-if
// rollbacks, skipped candidate structures) to `telemetry`.
void CountTunerCall(const TunerResult& config, SearchTelemetry* telemetry);

// Builds the mapping for `tree`, derives its catalog from statistics,
// translates the workload, and runs the physical design tool. The core
// "cost one mapping" step every algorithm loops over.
struct CostedMapping {
  Mapping mapping;
  TunerResult configuration;
  double cost = 0;
};
Result<CostedMapping> CostMapping(const DesignProblem& problem,
                                  const SchemaTree& tree,
                                  SearchTelemetry* telemetry);

// Called by every search algorithm just before returning: publishes the
// result's telemetry into problem.exec.metrics (the deterministic
// "search.*" counters) and builds result->report from the published
// values. With a null metrics registry, the report is still populated
// (from a scratch registry) so SearchResult::report is always meaningful.
void FinalizeSearchResult(const DesignProblem& problem, SearchResult* result);

// Converts the problem's XML-level insert loads into per-relation row
// rates under `mapping`: a new context instance contributes rows to its
// own relation and (scaled by average fanout) to every descendant
// relation.
std::vector<UpdateRate> ComputeUpdateRates(const DesignProblem& problem,
                                           const SchemaTree& tree,
                                           const Mapping& mapping);

// Evaluates the hybrid-inlining mapping (Shanmugasundaram et al.) with a
// tuned physical configuration — the normalization baseline of Section 5.
Result<SearchResult> EvaluateHybridInline(const DesignProblem& problem);

}  // namespace xmlshred

#endif  // XMLSHRED_SEARCH_PROBLEM_H_
