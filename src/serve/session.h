// Concurrent multi-session serving layer (DESIGN.md §12).
//
// A SessionManager fronts one shared Database for N concurrent clients
// issuing XPath queries. Robustness comes from composing the substrate
// built in earlier PRs rather than new mechanisms:
//
//  * Epoch snapshots — a columnar append publishes a new epoch
//    (Database::PublishEpoch); every request pins the latest snapshot at
//    admission and the executor clamps all scans to it. No MVCC: tables
//    are append-only, so a snapshot is a per-table row bound.
//  * Admission control — requests are planned at admission and their
//    estimated cost reserved from a global WorkBudgetPool; a bounded
//    earliest-deadline-first queue absorbs bursts. When the queue or the
//    pool saturates the request is shed with kResourceExhausted and a
//    deterministic retry-after hint (never queued unboundedly).
//  * Deadline propagation — each request runs under its own
//    ResourceGovernor whose work budget is min(deadline remaining,
//    session budget remaining); the executor polls
//    cancellation and the governor at batch boundaries, so expiry
//    surfaces as a clean status with metering intact.
//  * Chaos — the global FaultInjector is consulted at admission
//    ("serve.admit"), epoch publish ("serve.epoch_publish"), and batch
//    boundaries ("serve.mid_query"), so injected failure exercises every
//    shedding and error path deterministically.
//
// Two driving modes share all of the above:
//
//  * Virtual time (Offer / ExecuteTicket / CompleteTicket) — the caller
//    advances a virtual clock measured in work units. Single-threaded
//    and fully deterministic; the soak harness (serve/soak.h) and the
//    committed bench baseline run here.
//  * Real threads (Submit) — blocking calls from concurrent client
//    threads, dispatched through the same queue and budget under an
//    internal mutex + condition variable. Validated under TSan; outcome
//    *counts* are scheduling-dependent, the accounting invariant is not.
//
// Accounting invariant (checked by tests and the soak):
//   requests + retry_attempts == completed + failed + shed_queue_full +
//     shed_budget + shed_session + expired_in_queue + expired_mid_query.

#ifndef XMLSHRED_SERVE_SESSION_H_
#define XMLSHRED_SERVE_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "mapping/mapping.h"
#include "mapping/shredder.h"
#include "opt/planner.h"
#include "rel/catalog.h"
#include "serve/admission.h"
#include "serve/telemetry.h"
#include "xml/schema_tree.h"
#include "xpath/xpath.h"

namespace xmlshred {

struct ServeConfig {
  // Each request executes on the thread that runs it. The constant's one
  // reader is the `# env` line of pipebench (PrintEnvironment in
  // pipebench/pipebench.cc); it goes when that line stops printing it.
  static constexpr int exec_threads = 1;
  // Execution slots: requests running concurrently (overlapping in
  // virtual time under the DES driver, real threads under Submit).
  int max_concurrent = 4;
  // Bounded admission queue; a full queue sheds.
  size_t queue_capacity = 8;
  // Cap on outstanding *estimated* work (running + queued reservations);
  // <= 0 = unlimited. Admission beyond it sheds with a retry-after hint.
  double global_work_budget = 0;
  // Default per-session work budget for OpenSession(0); <= 0 unlimited.
  double session_work_budget = 0;
  // Continuous telemetry (serve/telemetry.h). All-off by default: the
  // manager then allocates no telemetry object and the request path pays
  // one null check — no clock reads, no recorder allocations.
  ServeTelemetryConfig telemetry;
};

struct ServeRequest {
  XPathQuery query;
  // Work-unit deadline, relative to arrival (virtual time). The request
  // expires in the queue once the deadline passes and its executor
  // budget is clamped to the remainder at dispatch. 0 = none.
  double deadline_work = 0;
  // Wall-clock cap on queue wait for the threaded Submit path; 0 = wait
  // until dispatched. (Virtual-time drivers never block, so this only
  // matters under Submit.)
  double wall_queue_wait_seconds = 0;
  // 1 for the first try; retries bump this so serve.retry_attempts
  // separates offered load from unique requests.
  int attempt = 1;
  // Optional cooperative cancellation, polled by the executor at batch
  // boundaries.
  const std::atomic<bool>* cancel = nullptr;
};

struct ServeResponse {
  Status status;
  int64_t rows_out = 0;
  // Metered work of the execution attempt (0 for requests shed before
  // running).
  double work = 0;
  // For shed / transiently-failed requests: the server's deterministic
  // estimate (virtual time) of when retrying could succeed. 0 = a retry
  // will not help (permanent error or expired deadline).
  double retry_after = 0;
  // Epoch the request's snapshot pinned (0 when shed before pinning).
  uint64_t epoch = 0;
};

enum class AdmitOutcome {
  kRun,     // admitted straight into a free slot; caller executes now
  kQueued,  // admitted into the deadline queue
  kShed,    // rejected; *shed response has status + retry_after
};

class SessionManager {
 public:
  // `db`, `tree`, and `mapping` must outlive the manager (tree/mapping
  // drive XPath translation). `metrics` may be null (an internal
  // registry is used); pass one to export serve.* counters.
  SessionManager(Database* db, const SchemaTree& tree, const Mapping& mapping,
                 const ServeConfig& config, MetricsRegistry* metrics);

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  // Opens a session with `work_budget` total execution work (0 = the
  // config default; negative = unlimited). Sessions are never closed in
  // this model — a shed or expired request leaves its session reusable.
  uint64_t OpenSession(double work_budget = 0);

  // --- Virtual-time interface (deterministic; single driver thread) ---

  // Offers a request at virtual time `now`. kRun: a slot was free, call
  // ExecuteTicket then CompleteTicket at now + work. kQueued: the ticket
  // surfaces later from CompleteTicket. kShed: *shed carries the
  // response; the ticket is dead.
  AdmitOutcome Offer(uint64_t session_id, const ServeRequest& request,
                     double now, ServeResponse* shed, uint64_t* ticket);

  // Executes a dispatched ticket at virtual time `now` (terminal
  // counters — completed / failed / expired_mid_query — are recorded
  // here).
  ServeResponse ExecuteTicket(uint64_t ticket, double now);

  // Retires `ticket` at virtual completion time `now`, releasing its
  // slot and budget reservation and recording latency. Pops the
  // earliest-deadline queued request whose deadline still stands
  // (expiring the rest) and dispatches it into the freed slot; returns
  // its ticket, or 0 when the queue drained.
  uint64_t CompleteTicket(uint64_t ticket, double now);

  // --- Real-thread interface (blocking; TSan-validated) ---

  // Admits, waits for a slot if queued, executes, completes. Returns the
  // terminal response (sheds and queue-wait timeouts included).
  ServeResponse Submit(uint64_t session_id, const ServeRequest& request);

  // --- Writes ---

  // Appends `rows` to `table`, rebuilds the table's indexes, and
  // publishes a new epoch — all-or-nothing versus admission faults
  // ("serve.epoch_publish" is checked before any mutation). Refuses with
  // kFailedPrecondition while materialized views exist (they would go
  // stale silently). In-flight queries keep their pinned epochs; the
  // append takes the database write lock, so it waits for running
  // queries to finish their scans and new rows become visible only to
  // requests admitted after publish.
  Status AppendAndPublish(const std::string& table,
                          const std::vector<Row>& rows, double now = 0);

  // Bulk-ingests an XML document through the streaming shredder
  // (mapping/stream_shredder.h), creating the mapping's tables in the
  // shared database, then publishes a new epoch. Same contract as
  // AppendAndPublish: the
  // "serve.epoch_publish" fault site is checked before any mutation,
  // materialized views refuse the write, the database write lock
  // excludes running queries, and a failed shred rolls itself back
  // all-or-nothing, so a non-OK return leaves the database untouched.
  Result<ShredStats> IngestAndPublish(std::string_view xml, double now = 0);

  // --- Introspection (tests, soak invariant checks) ---

  // True when no request is running, queued, or holding budget.
  bool Idle() const;
  // True while `ticket` is still queued or dispatched. A virtual-time
  // driver uses this to learn that a queued ticket expired (the manager
  // retires expired DES tickets itself; threaded tickets are reaped by
  // their Submit call).
  bool HasPending(uint64_t ticket) const;
  size_t queue_depth() const;
  int running() const;
  double outstanding_work() const;
  uint64_t current_epoch() const { return db_->current_epoch(); }
  MetricsRegistry* metrics() { return metrics_; }

  // --- Telemetry ---

  // Null unless config.telemetry.enabled(). The pointer is stable for
  // the manager's lifetime; exports are safe to read once the manager is
  // idle (the driver thread is the only writer).
  ServeTelemetry* telemetry() { return telemetry_.get(); }
  // Closes the final time-series window at virtual time `now` (virtual-
  // time drivers call this once after draining; wall-clock serving
  // resolves `now` from the steady clock internally).
  void FinalizeTelemetry(double now);

 private:
  struct SessionState {
    double budget = 0;  // <= 0 unlimited
    double spent = 0;
  };

  enum class PendingState {
    kWaiting,     // in the deadline queue
    kDispatched,  // owns a slot; execution pending or running
    kExpired,     // expired in queue (threaded owner must reap it)
  };

  struct PendingRequest {
    uint64_t ticket = 0;
    uint64_t session_id = 0;
    PlannedQuery plan;
    std::shared_ptr<const EpochSnapshot> snapshot;
    double est_work = 0;
    double arrival = 0;        // virtual offer time
    double deadline_abs = 0;   // arrival + deadline_work; 0 = none
    double dispatch_time = 0;  // virtual time the slot was granted
    double queue_deadline = 0;  // EDF key used in the queue (for Remove)
    uint64_t queue_seq = 0;
    const std::atomic<bool>* cancel = nullptr;
    bool threaded = false;
    PendingState state = PendingState::kDispatched;
    ServeResponse response;  // threaded mode: filled by the executor
    // Telemetry identity: minted per offered attempt at admission (0
    // when telemetry is off) and the head-sampled span trace (null when
    // the request is unsampled).
    uint64_t request_id = 0;
    int attempt = 1;
    std::unique_ptr<TraceSink> trace;
  };

  // Admission under mu_ (shared by Offer and Submit). Returns the
  // outcome; fills *shed on kShed, *ticket otherwise.
  AdmitOutcome AdmitLocked(std::unique_lock<std::mutex>& lock,
                           uint64_t session_id, const ServeRequest& request,
                           double now, bool threaded, ServeResponse* shed,
                           uint64_t* ticket);

  // Runs the executor for `ticket` (must be kDispatched) and records the
  // terminal counter. `now` is the virtual dispatch-complete time.
  ServeResponse ExecuteLocked(uint64_t ticket, double now);

  // Retires a finished ticket and dispatches the next queued request;
  // requires mu_ held. Returns the dispatched ticket or 0.
  uint64_t RetireAndDispatchLocked(uint64_t ticket, double now);

  // Deterministic retry-after hint: estimated virtual time until the
  // currently outstanding work drains through max_concurrent slots.
  double RetryAfterHintLocked() const;

  double SessionRemainingLocked(uint64_t session_id) const;

  // Captures a post-mortem bundle from current manager state plus the
  // flight-recorder tail; requires mu_ held and telemetry enabled.
  void PostmortemLocked(const char* trigger, double time,
                        uint64_t request_id, uint64_t ticket,
                        const Status& status,
                        const std::string& plan_explain);

  Database* db_;
  const SchemaTree& tree_;
  const Mapping& mapping_;
  ServeConfig config_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;
  std::unique_ptr<ServeTelemetry> telemetry_;  // null when disabled

  // Physical read/write gate: queries scan columnar vectors under a
  // shared lock; AppendAndPublish mutates them under the exclusive lock.
  // Epoch snapshots give *logical* isolation only — an append can
  // reallocate a vector mid-scan without this.
  mutable std::shared_mutex db_mu_;

  mutable std::mutex mu_;  // guards everything below
  std::condition_variable cv_;  // threaded waiters
  CatalogDesc catalog_;
  std::map<uint64_t, SessionState> sessions_;
  std::map<uint64_t, PendingRequest> pending_;
  DeadlineQueue queue_;
  WorkBudgetPool pool_;
  int running_ = 0;
  uint64_t next_session_ = 1;
  uint64_t next_ticket_ = 1;
  uint64_t next_queue_seq_ = 1;
};

}  // namespace xmlshred

#endif  // XMLSHRED_SERVE_SESSION_H_
