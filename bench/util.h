// Shared plumbing for the per-figure benchmark harnesses: builds the two
// data sets at bench scale, the paper's workload grid, and common
// printing helpers.
//
// Scale: XMLSHRED_BENCH_SCALE (default 1.0) multiplies data sizes, so
// `XMLSHRED_BENCH_SCALE=0.2 ./bench_fig4_quality` gives a quick run.

#ifndef XMLSHRED_BENCH_UTIL_H_
#define XMLSHRED_BENCH_UTIL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "mapping/xml_stats.h"
#include "search/evaluate.h"
#include "search/greedy.h"
#include "search/problem.h"
#include "workload/dblp.h"
#include "workload/movie.h"
#include "workload/query_gen.h"

namespace xmlshred::bench {

// Data set plus everything a DesignProblem needs.
struct Dataset {
  std::string name;
  GeneratedData data;
  std::unique_ptr<XmlStatistics> stats;
  int64_t storage_bound_pages = 0;

  DesignProblem MakeProblem(XPathWorkload workload) const;
};

double BenchScale();

// Process-wide metrics registry. MakeProblem() attaches it to
// DesignProblem::exec, so every search run in a bench binary publishes
// its search.* counters here; export with WriteMetricsOut.
MetricsRegistry& GlobalMetrics();

// Common bench CLI flags, parsed once here instead of re-implemented in
// each bench main.
struct BenchFlags {
  // `--json FILE` / `--json=FILE`: machine-readable result dump; "" =
  // human output only.
  std::string json_path;
  // `--metrics-out FILE` / `--metrics-out=FILE`, falling back to the
  // XMLSHRED_BENCH_METRICS_OUT environment variable; "" = none.
  std::string metrics_out;
};

// Pulls the common flags out of argv, compacting argv/argc in place so
// the caller's own argument loop only sees bench-specific flags.
BenchFlags ExtractBenchFlags(int* argc, char** argv);

// Removes `NAME VALUE` / `NAME=VALUE` from argv (compacting in place)
// and returns VALUE, or "" when the flag is absent. For bench-specific
// flags on top of ExtractBenchFlags.
std::string ExtractStringFlag(int* argc, char** argv,
                              const std::string& name);

// Pulls `--metrics-out FILE` (or `--metrics-out=FILE`) out of argv so
// the caller's own argument loop never sees it; compacts argv/argc in
// place. Returns the path, or the XMLSHRED_BENCH_METRICS_OUT environment
// variable, or "" when neither is set. (Subset of ExtractBenchFlags for
// benches with no JSON output.)
std::string ExtractMetricsOutArg(int* argc, char** argv);

// Writes GlobalMetrics() as snapshot JSON to `path`; no-op when empty.
void WriteMetricsOut(const std::string& path);

// DBLP at bench scale (20k publications at scale 1).
Dataset MakeDblpDataset();
// Movie at bench scale (20k movies at scale 1).
Dataset MakeMovieDataset();

// The paper's workload grid (§5.1.3): 8 DBLP workloads (LP/HP x LS/HS x
// 10/20 queries) and 4 Movie workloads (x20).
std::vector<WorkloadSpec> DblpWorkloadSpecs();
std::vector<WorkloadSpec> MovieWorkloadSpecs();

// Runs one algorithm by name ("greedy", "naive", "two-step", "hybrid").
Result<SearchResult> RunAlgorithm(const std::string& algorithm,
                                  const DesignProblem& problem,
                                  const GreedyOptions& greedy_options = {});

// Wall time of one call of a timed body, over all of its windows.
struct Timing {
  double ns_per_iter = 0;
  int64_t iterations = 0;
};

// Times `body` over five windows, each repeating it until 0.2 s have
// passed and it has run at least 3 times, and returns the median of the
// windows' per-call means. One window's mean moves with any busy stretch
// of a shared host; the median of five does not.
Timing TimeRepeated(const std::function<void()>& body);

// Printing helpers: fixed-width tab-separated rows.
void PrintTitle(const std::string& title, const std::string& paper_shape);
void PrintRow(const std::vector<std::string>& cells);

}  // namespace xmlshred::bench

#endif  // XMLSHRED_BENCH_UTIL_H_
