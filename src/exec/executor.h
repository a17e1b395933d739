// Plan executor.
//
// Runs a physical plan produced by the optimizer against a real Database
// and meters the work it actually performs — pages read sequentially and
// randomly, rows processed, hash and sort effort — in the same units the
// cost model estimates in. The metered work is the "query execution time"
// that the paper's figures report (their wall-clock on SQL Server; our
// deterministic work units on this engine).
//
// Scans, fetches and joins read cells through BlockCursor / ColumnReader
// (rel/column_reader.h): sealed blocks are decoded from their encoded
// images, the only stored copy of those rows, and the unsealed tail is
// read in place.

#ifndef XMLSHRED_EXEC_EXECUTOR_H_
#define XMLSHRED_EXEC_EXECUTOR_H_

#include <atomic>
#include <vector>

#include "common/exec_context.h"
#include "common/limits.h"
#include "common/status.h"
#include "opt/plan.h"
#include "rel/catalog.h"

namespace xmlshred {

class FaultInjector;
class MetricsRegistry;
struct ExplainNode;

// Rows per interrupt batch: row loops poll cancellation, the governor
// deadline, and fault sites once per batch.
inline constexpr size_t kScanBatchRows = 1024;

// Rows per execution morsel (a multiple of kScanBatchRows). Hash-join
// probes and aggregates walk their input as fixed
// [m*kMorselRows, (m+1)*kMorselRows) ranges, and heap and view scans as
// block-aligned spans, on the calling thread in order; each morsel
// polls its batch interrupts (and the exec.morsel fault site) as the loop
// reaches it, and a scan's or probe's morsel output is handed on as one
// part of its rows (DESIGN.md §13).
inline constexpr size_t kMorselRows = 4 * kScanBatchRows;

// Per-query view of the work one Run performed. The registry (see
// ExecOptions::metrics) is the primary sink for run-wide exec.* totals;
// this struct remains as the thin per-query window callers use to weight
// individual workload queries.
struct ExecMetrics {
  double work = 0;             // total work units (comparable to est_cost)
  double pages_sequential = 0; // page-equivalents read by scans
  double pages_random = 0;     // page-equivalents read by probes/fetches
  int64_t rows_out = 0;        // rows returned by the root
  // Storage blocks touched vs. pruned by zone maps across the run's
  // sequential scans (the unsealed tail counts as one scanned block).
  int64_t blocks_scanned = 0;
  int64_t blocks_skipped = 0;
};

// Optional per-run instrumentation. Every member defaults to off; a
// default-constructed ExecOptions is the bare metered run.
struct ExecOptions {
  // Read the steady clock around instrumented operators and record wall
  // times (ExplainNode::wall_ns). Off = no clock reads anywhere (the
  // determinism gate).
  bool capture_timing = false;
  // Charges every metered work unit and materialized row against the
  // governor's budgets; execution stops with kResourceExhausted the
  // moment one trips.
  ResourceGovernor* governor = nullptr;
  // Publishes the run's totals under the well-known exec.* names
  // (queries, rows_out, work, page gauges, rows-per-query histogram)
  // after a successful run.
  MetricsRegistry* metrics = nullptr;
  // EXPLAIN ANALYZE: a tree from BuildExplainTree(plan) whose nodes
  // receive inclusive per-operator actuals (rows, work, pages). Must
  // mirror `plan`'s shape. Null = zero recording overhead.
  ExplainNode* explain = nullptr;
  // Epoch snapshot pinned at admission (serving layer). When set, every
  // scan is clamped to the snapshot's visible rows — rows appended after
  // the snapshot was published are invisible, and page charges use the
  // snapshot's byte counts. Tables absent from the snapshot scan as
  // empty. Null (the default) = current contents, charges unchanged.
  const EpochSnapshot* snapshot = nullptr;
  // Cooperative cancellation, polled (relaxed load) at batch boundaries
  // of every row loop. When it reads true the run stops with
  // kResourceExhausted("query cancelled"); the per-query ExecMetrics
  // still reflect all work charged before the stop.
  const std::atomic<bool>* cancel = nullptr;
  // Fault injector polled at the same batch boundaries (site
  // "serve.mid_query", plus "exec.morsel" once per kMorselRows) so chaos
  // runs can kill a query mid-scan deterministically. Null = no
  // mid-query injection.
  FaultInjector* faults = nullptr;
};

class Executor {
 public:
  explicit Executor(const Database& db) : db_(db) {}

  // Executes `plan` and returns the result rows. The run's metering is
  // copied into `metrics` when non-null (accumulating, so one struct can
  // total a workload) and published per ExecOptions.
  Result<std::vector<Row>> Run(const PlanNode& plan, ExecMetrics* metrics,
                               const ExecOptions& options = {});

  // Run for callers that only need the row count: the same execution,
  // metering, explain actuals and trip points, without building the
  // result's Values.
  Result<int64_t> Count(const PlanNode& plan, ExecMetrics* metrics,
                        const ExecOptions& options = {});

 private:
  const Database& db_;
};

}  // namespace xmlshred

#endif  // XMLSHRED_EXEC_EXECUTOR_H_
