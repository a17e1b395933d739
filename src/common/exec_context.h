// ExecContext — the one execution-environment carrier threaded through
// the search, advisor, executor, and parser entry points.
//
// One value-type bundle of everything "how to run" — as opposed to the
// options structs, which stay "what to compute". Every pointer is
// optional:
//
//   governor   null = unlimited (parser recursion still has its floor)
//   faults     null = the process-global FaultInjector
//   metrics    null = nothing recorded
//   trace      null = nothing traced
//
// Migration map (DESIGN.md §9): the search and the advisor take their
// governor from `DesignProblem::exec.governor` /
// `TunerOptions::exec.governor`, and `exec.num_threads > 0` overrides the
// options-struct thread count.

#ifndef XMLSHRED_COMMON_EXEC_CONTEXT_H_
#define XMLSHRED_COMMON_EXEC_CONTEXT_H_

namespace xmlshred {

class ResourceGovernor;
class FaultInjector;
class MetricsRegistry;
class TraceSink;

// Shared per-run execution knobs, inherited by ExecOptions (executor),
// EvaluateOptions (search/evaluate), and ServeConfig (serving layer)
// instead of each struct redeclaring the same fields. Each consumer
// documents which knobs it honors; the defaults are the bare run.
struct ExecKnobs {
  // Intra-query morsel workers. Scans, hash joins, sorts, and aggregates
  // always run as kMorselRows morsels; <= 1 runs them inline on the
  // calling thread, N > 1 on N workers. Results, metering, explain
  // actuals, and governor/fault trip points are bit-identical at any
  // value (DESIGN.md §13), so this is purely a latency knob.
  int exec_threads = 1;
  // Read the steady clock around instrumented operators and record wall
  // times. Off = no clock reads anywhere (the determinism gate).
  bool capture_timing = false;
  // Build and retain EXPLAIN ANALYZE trees for executed queries.
  // Harness-level: consumers that take an explicit ExplainNode* (the
  // executor) ignore it; harnesses that own the trees (EvaluateOnData)
  // honor it.
  bool collect_explain = false;
};

struct ExecContext {
  ResourceGovernor* governor = nullptr;
  FaultInjector* faults = nullptr;
  MetricsRegistry* metrics = nullptr;
  TraceSink* trace = nullptr;
  // Workers for parallel candidate costing: <= 0 defers to the options
  // struct (whose own <= 0 means one per hardware thread); 1 costs the
  // candidates inline on the calling thread.
  int num_threads = 0;
  // Workers for intra-query morsel execution (ExecOptions::exec_threads):
  // <= 1 runs the morsels inline on the calling thread, N > 1 on N
  // workers. Results, metering, explain actuals, and governor trip points
  // are bit-identical at any value (DESIGN.md §13), so this is purely a
  // latency knob.
  int exec_threads = 0;
};

}  // namespace xmlshred

#endif  // XMLSHRED_COMMON_EXEC_CONTEXT_H_
