// ExecContext — the one execution-environment carrier threaded through
// the search, advisor, executor, and parser entry points.
//
// One value-type bundle of everything "how to run" — as opposed to the
// options structs, which stay "what to compute" (thread counts included).
// Every pointer is optional:
//
//   governor   null = unlimited (parser recursion still has its floor)
//   faults     null = the process-global FaultInjector
//   metrics    null = nothing recorded
//   trace      null = nothing traced

#ifndef XMLSHRED_COMMON_EXEC_CONTEXT_H_
#define XMLSHRED_COMMON_EXEC_CONTEXT_H_

namespace xmlshred {

class ResourceGovernor;
class FaultInjector;
class MetricsRegistry;
class TraceSink;

struct ExecContext {
  ResourceGovernor* governor = nullptr;
  FaultInjector* faults = nullptr;
  MetricsRegistry* metrics = nullptr;
  TraceSink* trace = nullptr;
};

}  // namespace xmlshred

#endif  // XMLSHRED_COMMON_EXEC_CONTEXT_H_
