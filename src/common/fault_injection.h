// Deterministic fault injection for robustness testing.
//
// Long-running paths declare *named injection points* — catalog mutation,
// index build, view materialization, advisor what-if calls — by calling
// FaultInjector::Global()->Check("site"). In production the injector is
// disarmed and Check is a cheap always-OK call. Tests arm it two ways:
//
//  * Arm("site", n)            — fire an Internal error on the nth hit of
//                                one site (precise, for sweeps);
//  * ArmProbabilistic(seed, p) — fire each hit with probability p, drawn
//                                from a seed-keyed splitmix64 stream, so a
//                                given (seed, p) run is reproducible.
//
// The contract under injection: callers skip the failed candidate, roll
// back any what-if state, and keep going — never crash, never corrupt
// descriptor layers. tests/robustness_test.cc sweeps every site.
//
// The injector is process-global and thread-safe: parallel search workers
// (search/greedy.cc) hit the advisor/catalog sites concurrently, so hit
// counting, the nth-hit trigger, and the probabilistic stream are
// serialized on an internal mutex. The nth hit of a site fires exactly
// once no matter how checks interleave; *which* worker's check lands nth
// depends on scheduling, so parallel tests assert survival semantics, not
// which candidate absorbed the fault. Scope arming with
// ScopedFaultInjection so a failing test cannot leak armed faults into
// later tests.

#ifndef XMLSHRED_COMMON_FAULT_INJECTION_H_
#define XMLSHRED_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace xmlshred {

// Canonical site names, listed here so tests can sweep them without
// grepping the source. Passing other names to Arm is allowed (sites and
// tests can evolve independently) but firing requires a matching Check.
inline constexpr const char* kFaultSiteCatalogCreateTable =
    "catalog.create_table";
inline constexpr const char* kFaultSiteIndexBuild = "catalog.index_build";
inline constexpr const char* kFaultSiteViewMaterialize =
    "catalog.view_materialize";
inline constexpr const char* kFaultSiteAdvisorWhatIf = "advisor.whatif";
inline constexpr const char* kFaultSiteAdvisorTune = "advisor.tune";
// Serving-layer sites (src/serve): admission control, epoch publication
// on append, and the executor's batch-boundary interrupt check.
inline constexpr const char* kFaultSiteServeAdmit = "serve.admit";
inline constexpr const char* kFaultSiteServeEpochPublish =
    "serve.epoch_publish";
inline constexpr const char* kFaultSiteServeMidQuery = "serve.mid_query";
// Executor morsel boundary (src/exec): checked once per kMorselRows rows
// on the heap-scan, view-scan, hash-join-probe, and aggregate loops, as
// each loop reaches the morsel and before it reads the morsel's rows, so
// an armed nth-hit fault stops the nth morsel.
inline constexpr const char* kFaultSiteExecMorsel = "exec.morsel";
// Shredder batch boundary (src/mapping/stream_shredder.cc, ShredStream
// and ShredDocument alike): checked once per columnar batch flushed into
// storage, in deterministic flush order, so an armed nth-hit fault
// interrupts the same batch on both paths. The shredder rolls back all
// tables and dictionary entries on injection (all-or-nothing).
inline constexpr const char* kFaultSiteShredStream = "shred.stream";

class FaultInjector {
 public:
  static FaultInjector* Global();

  // Fires an Internal("injected fault at <site>") on the `fire_on_nth`
  // hit (1-based) of `site`, once.
  void Arm(std::string site, int fire_on_nth = 1);

  // Fires every hit of every site with probability `probability`, from a
  // deterministic seed-keyed stream.
  void ArmProbabilistic(uint64_t seed, double probability);

  void Disarm();

  // The injection point. OK unless an armed fault fires here. The armed
  // check is a lock-free fast path, so disarmed production runs pay one
  // relaxed atomic load.
  Status Check(std::string_view site);

  // Telemetry for tests.
  int faults_fired() const;
  int hits(const std::string& site) const;
  bool armed() const { return armed_.load(std::memory_order_acquire); }

 private:
  mutable std::mutex mu_;
  std::atomic<bool> armed_{false};
  std::map<std::string, int> hit_counts_;
  std::map<std::string, int> fire_on_;  // site -> 1-based hit index
  bool probabilistic_ = false;
  uint64_t rng_state_ = 0;
  double probability_ = 0;
  int faults_fired_ = 0;
};

// Arms the global injector for the lifetime of the scope, then disarms.
class ScopedFaultInjection {
 public:
  ScopedFaultInjection(std::string site, int fire_on_nth = 1) {
    FaultInjector::Global()->Arm(std::move(site), fire_on_nth);
  }
  ScopedFaultInjection(uint64_t seed, double probability) {
    FaultInjector::Global()->ArmProbabilistic(seed, probability);
  }
  ~ScopedFaultInjection() { FaultInjector::Global()->Disarm(); }
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace xmlshred

#endif  // XMLSHRED_COMMON_FAULT_INJECTION_H_
