// What-if physical design advisor — the stand-in for the SQL Server Index
// Tuning Wizard the paper uses as its black-box physical design tool
// ([2], [7]).
//
// Given a weighted SQL workload and a descriptor catalog (real or derived
// from XML statistics — no rows needed), the advisor:
//
//  1. generates per-query candidates: single- and multi-column indexes on
//     filter columns, covering indexes (keys + INCLUDE of every referenced
//     column), join-support indexes on PID (covering ones enable index
//     nested loops), and whole-block materialized views;
//  2. sizes each candidate from statistics (hypothetical objects);
//  3. greedily picks the candidate with the best benefit/size ratio under
//     the storage bound, re-costing the workload through the query
//     optimizer after each pick (skipping queries that do not reference
//     the candidate's table).
//
// The result reports per-query costs and the set of objects each query's
// plan uses — the I(Q, M) sets the search algorithm's cost derivation
// (§4.8) relies on — plus the optimizer-call count, the dominant component
// of design-tool running time.

#ifndef XMLSHRED_TUNE_ADVISOR_H_
#define XMLSHRED_TUNE_ADVISOR_H_

#include <set>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/limits.h"
#include "common/status.h"
#include "opt/planner.h"
#include "rel/catalog.h"
#include "sql/ast.h"

namespace xmlshred {

struct TunerOptions {
  // Bound on data pages + physical structure pages (Definition 1's S).
  int64_t storage_bound_pages = 1LL << 40;
  bool enable_indexes = true;
  bool enable_views = true;
  int max_key_columns = 2;
  // Stop when the best remaining candidate improves total cost by less
  // than this fraction.
  double min_benefit_fraction = 0.005;
  // Execution environment (DESIGN.md §9). The advisor charges one work
  // unit per optimizer call to `exec.governor`; when its budget or
  // deadline runs out it stops selecting candidates and returns the best
  // configuration found so far with `truncated` set (baseline costing is
  // mandatory and always completes, so the result is never worse than no
  // tuning). `exec.metrics` receives the "advisor.*" counters;
  // `exec.faults` overrides the process-global injector. `exec.trace` is
  // used only when the advisor is invoked directly (the search calls the
  // advisor from parallel workers and deliberately does not share its
  // sink — a TraceSink is single-threaded by design).
  ExecContext exec;
};

struct TunerResult {
  std::vector<IndexDesc> indexes;
  std::vector<ViewDesc> views;
  // Sum of weight * estimated query cost plus structure maintenance.
  double total_cost = 0;
  double maintenance_cost = 0;         // update-driven component
  std::vector<double> query_costs;     // estimated cost per query
  std::vector<std::set<std::string>> query_objects;  // I(Q) per query
  int64_t structure_pages = 0;
  int optimizer_calls = 0;
  // Anytime/robustness telemetry.
  bool truncated = false;       // selection stopped early on budget/deadline
  int whatif_rollbacks = 0;     // what-if catalog pops taken on a failure
  int candidates_skipped = 0;   // candidates dropped after a failed what-if
};

// Insert load on one relation: expected rows inserted per workload unit.
// Every index on the relation and every view reading it pays a
// maintenance cost per inserted row — the update-query extension the
// paper leaves as future work.
struct UpdateRate {
  std::string table;
  double rows_per_unit = 0;
};

struct WeightedQuery {
  Query query;
  double weight = 1.0;
};

class PhysicalDesignAdvisor {
 public:
  explicit PhysicalDesignAdvisor(TunerOptions options)
      : options_(options) {}

  // Tunes physical design for `workload` over `base` (tables + stats;
  // any pre-existing indexes/views in `base` stay available).
  // `reserved_pages` is subtracted from the structure budget — cost
  // derivation passes the sizes of carried-over structures here.
  // `update_rates` charges candidate structures for insert maintenance,
  // so update-heavy relations attract fewer indexes and views.
  Result<TunerResult> Tune(const std::vector<WeightedQuery>& workload,
                           const CatalogDesc& base,
                           int64_t reserved_pages = 0,
                           const std::vector<UpdateRate>& update_rates = {});

 private:
  TunerOptions options_;
};

// Materializes a tuner configuration on a real database: builds the
// recommended indexes and materialized views.
Status ApplyConfiguration(const TunerResult& result, Database* db);

}  // namespace xmlshred

#endif  // XMLSHRED_TUNE_ADVISOR_H_
