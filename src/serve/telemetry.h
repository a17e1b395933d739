// Continuous serving telemetry (DESIGN.md §15): the SessionManager's
// windowed time-series recorder, per-request trace sampler, and flight
// recorder with post-mortem capture, in one optional side-car object.
//
// The SessionManager owns at most one ServeTelemetry and calls into it
// only under its own mutex, so this class needs no locking of its own.
// When the config leaves every feature off the manager holds a null
// pointer and the request hot path pays exactly one branch — no clock
// reads, no allocations (asserted by TelemetryTest).
//
// Determinism contract: under the virtual-time drivers (Offer /
// ExecuteTicket / CompleteTicket and the soak), every export below —
// window JSON lines, sampled per-request traces, the retained event log,
// and post-mortem bundles — is bit-identical across runs, because
//
//  * window boundaries are virtual times and counter deltas are exact
//    integers (common/timeseries.h),
//  * request IDs are minted in admission order under the manager mutex
//    and the head-sampling decision is a pure function of
//    (rng_seed, request_id) (DeterministicHeadSample),
//  * events carry virtual timestamps and pre-rendered attributes, never
//    pointers or wall times,
//  * a post-mortem snapshots manager state (queue depth, pool
//    accounting, plan explain) that the virtual-time drivers fix.
//
// Each export has an FNV-1a digest so CI pins the invariance with a
// string compare instead of committing whole documents.

#ifndef XMLSHRED_SERVE_TELEMETRY_H_
#define XMLSHRED_SERVE_TELEMETRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/timeseries.h"
#include "common/trace.h"

namespace xmlshred {

struct ServeTelemetryConfig {
  // Time-series window width in the driver's time unit; <= 0 disables
  // the recorder.
  double window_width = 0;
  // Head-sample 1 in N requests for span traces; <= 0 disables tracing,
  // 1 traces everything.
  int trace_sample_period = 0;
  // Seed for the sampling decision (pair with the workload seed so the
  // sampled set replays).
  uint64_t rng_seed = 1;
  // Flight-recorder ring capacity (recent events kept for post-mortems);
  // 0 disables the ring AND post-mortem capture.
  size_t flight_recorder_capacity = 0;
  // Keep at most this many post-mortem bundles PER TRIGGER CLASS (the
  // first N of each, chronologically — deterministic, unlike "the last N
  // under racing sheds", and a rare trigger is never crowded out by a
  // frequent one: a handful of budget sheds still gets captured in a run
  // with hundreds of injected faults).
  size_t postmortem_limit = 8;
  // Retain the full event log for --events-out export (the ring alone
  // only remembers the tail).
  bool keep_event_log = false;
  // Stamp wall clock into windows and drive window advancement from the
  // steady clock (real-thread Submit serving). Off = zero clock reads.
  bool capture_wall_time = false;

  bool enabled() const {
    return window_width > 0 || trace_sample_period > 0 ||
           flight_recorder_capacity > 0 || keep_event_log;
  }
};

// Everything captured when a request is shed, a governor trips, or a
// fault site fires: the shed request's identity and plan, manager-state
// gauges at that instant, and the flight recorder's recent events.
struct PostmortemBundle {
  std::string trigger;  // e.g. "shed.queue_full", "governor.deadline"
  double time = 0;
  uint64_t request_id = 0;
  uint64_t ticket = 0;
  std::string status;  // status message of the terminal response
  size_t queue_depth = 0;
  int running = 0;
  double pool_outstanding = 0;
  double pool_capacity = 0;
  size_t pool_reservations = 0;
  std::string plan_explain;  // empty when shed before planning
  std::vector<LogEvent> events;  // flight-recorder tail, oldest first

  // Pretty-printed JSON document (one bundle per file).
  std::string ToJson() const;
};

class ServeTelemetry {
 public:
  ServeTelemetry(MetricsRegistry* metrics, ServeTelemetryConfig config);

  ServeTelemetry(const ServeTelemetry&) = delete;
  ServeTelemetry& operator=(const ServeTelemetry&) = delete;

  const ServeTelemetryConfig& config() const { return config_; }

  // Resolves the event timestamp and closes any elapsed windows. Virtual
  // drivers pass their clock through unchanged; under capture_wall_time
  // the steady clock overrides `virtual_now`. Call BEFORE recording the
  // event at the returned time (boundary events land in the next
  // window).
  double Advance(double virtual_now);

  // Closes the final partial window.
  void Finish(double virtual_now);

  // Request identity: IDs are minted per offered attempt (retries get
  // fresh IDs) in admission order; the sampling decision is fixed at
  // mint time.
  uint64_t MintRequestId() { return next_request_id_++; }
  bool SampleRequest(uint64_t request_id) const {
    return DeterministicHeadSample(config_.rng_seed, request_id,
                                   config_.trace_sample_period);
  }

  // Appends a structured event to the flight-recorder ring (and the
  // retained log when keep_event_log).
  void Record(double time, std::string name,
              std::vector<std::pair<std::string, std::string>> attrs);

  // Takes ownership of a finished sampled request trace; exported as one
  // JSON line keyed by request_id.
  void FinishTrace(uint64_t request_id, int attempt,
                   std::unique_ptr<TraceSink> trace);

  // Captures `bundle`, filling its events from the flight-recorder tail.
  // Bundles beyond postmortem_limit for their trigger class are counted
  // but dropped.
  void CapturePostmortem(PostmortemBundle bundle);

  TimeSeriesRecorder& recorder() { return recorder_; }
  const std::vector<PostmortemBundle>& postmortems() const {
    return postmortems_;
  }
  size_t postmortems_total() const { return postmortems_total_; }
  size_t traces_sampled() const { return traces_.size(); }
  int64_t clock_reads() const { return recorder_.clock_reads(); }

  // --- Exports (deterministic; each with an FNV-1a digest) ---
  std::string TimeSeriesJsonLines() const {
    return recorder_.ToJsonLines();
  }
  std::string TimeSeriesDigest() const { return recorder_.Digest(); }
  // One line per sampled request, ascending request_id:
  //   {"request_id": N, "attempt": A, "spans": [...]}
  std::string TracesJsonLines() const;
  std::string TracesDigest() const;
  // The retained event log (empty unless keep_event_log).
  std::string EventsJsonLines() const {
    return LogEventsToJsonLines(event_log_);
  }
  std::string EventsDigest() const;
  // Digest over every kept bundle's ToJson.
  std::string PostmortemsDigest() const;

 private:
  ServeTelemetryConfig config_;
  TimeSeriesRecorder recorder_;
  EventRing ring_;
  uint64_t next_event_seq_ = 1;
  uint64_t next_request_id_ = 1;
  std::vector<LogEvent> event_log_;
  // (request_id, rendered JSON line) — kept sorted by request_id at
  // export time so the threaded path exports deterministically too.
  std::vector<std::pair<uint64_t, std::string>> traces_;
  std::vector<PostmortemBundle> postmortems_;  // chronological
  std::map<std::string, size_t> postmortems_kept_;  // per trigger class
  size_t postmortems_total_ = 0;
};

}  // namespace xmlshred

#endif  // XMLSHRED_SERVE_TELEMETRY_H_
