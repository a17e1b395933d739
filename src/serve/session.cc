#include "serve/session.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/strings.h"
#include "exec/executor.h"
#include "mapping/stream_shredder.h"
#include "sql/binder.h"
#include "xpath/translator.h"

namespace xmlshred {

namespace {

// An injected fault surfaces as Internal("injected fault at <site>");
// classify it so chaos runs can count injected failures separately from
// organic ones.
bool IsInjectedFault(const Status& status) {
  return status.message().rfind("injected fault", 0) == 0;
}

constexpr double kInfDeadline = std::numeric_limits<double>::infinity();

}  // namespace

SessionManager::SessionManager(Database* db, const SchemaTree& tree,
                               const Mapping& mapping,
                               const ServeConfig& config,
                               MetricsRegistry* metrics)
    : db_(db),
      tree_(tree),
      mapping_(mapping),
      config_(config),
      queue_(config.queue_capacity),
      pool_(config.global_work_budget) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  } else {
    metrics_ = metrics;
  }
  catalog_ = db_->BuildCatalogDesc();
  // Serve from a published state even if the caller never appends.
  if (db_->LatestSnapshot() == nullptr) db_->PublishEpoch();
  if (config.telemetry.enabled()) {
    telemetry_ = std::make_unique<ServeTelemetry>(metrics_, config.telemetry);
  }
}

void SessionManager::FinalizeTelemetry(double now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (telemetry_ != nullptr) telemetry_->Finish(now);
}

void SessionManager::PostmortemLocked(const char* trigger, double time,
                                      uint64_t request_id, uint64_t ticket,
                                      const Status& status,
                                      const std::string& plan_explain) {
  PostmortemBundle b;
  b.trigger = trigger;
  b.time = time;
  b.request_id = request_id;
  b.ticket = ticket;
  b.status = status.ToString();
  b.queue_depth = queue_.size();
  b.running = running_;
  b.pool_outstanding = pool_.outstanding();
  b.pool_capacity = pool_.capacity();
  b.pool_reservations = static_cast<size_t>(pool_.reservations());
  b.plan_explain = plan_explain;
  telemetry_->CapturePostmortem(std::move(b));
}

uint64_t SessionManager::OpenSession(double work_budget) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_session_++;
  SessionState s;
  s.budget = work_budget == 0 ? config_.session_work_budget : work_budget;
  sessions_[id] = s;
  metrics_->counter(kMetricServeSessionsOpened)->Increment();
  return id;
}

double SessionManager::SessionRemainingLocked(uint64_t session_id) const {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return 0;
  if (it->second.budget <= 0) return kInfDeadline;
  double rem = it->second.budget - it->second.spent;
  return rem > 0 ? rem : 0;
}

double SessionManager::RetryAfterHintLocked() const {
  // Virtual time until the outstanding estimated work drains through the
  // slots. Deterministic: depends only on reservations, never on timing.
  double per_slot =
      pool_.outstanding() / static_cast<double>(config_.max_concurrent);
  return per_slot > 1.0 ? per_slot : 1.0;
}

AdmitOutcome SessionManager::AdmitLocked(std::unique_lock<std::mutex>& lock,
                                         uint64_t session_id,
                                         const ServeRequest& request,
                                         double now, bool threaded,
                                         ServeResponse* shed,
                                         uint64_t* ticket) {
  // Telemetry prologue: advance the time-series windows past `now`
  // before this request's counters land, mint the request identity, and
  // fix the head-sampling decision. Disabled telemetry costs exactly
  // this one null check.
  double tnow = now;
  uint64_t request_id = 0;
  std::unique_ptr<TraceSink> trace;
  if (telemetry_ != nullptr) {
    tnow = telemetry_->Advance(now);
    request_id = telemetry_->MintRequestId();
    if (telemetry_->SampleRequest(request_id)) {
      trace = std::make_unique<TraceSink>();
    }
  }
  // Finalizes a rejected request's telemetry: the terminal event, the
  // closing "admission" span of a sampled trace, and — for sheds and
  // faults (not client errors) — a flight-recorder post-mortem.
  auto reject = [&](const char* event_name, bool postmortem,
                    const std::string& plan_explain) {
    if (telemetry_ == nullptr) return;
    telemetry_->Record(
        tnow, event_name,
        {{"request_id", std::to_string(request_id)},
         {"session", std::to_string(session_id)},
         {"attempt", std::to_string(request.attempt)},
         {"status", std::string(shed->status.message())}});
    if (postmortem) {
      PostmortemLocked(event_name, tnow, request_id, /*ticket=*/0,
                       shed->status, plan_explain);
    }
    if (trace != nullptr) {
      {
        SpanScope s(trace.get(), "admission");
        s.Attr("outcome", "shed");
        s.Attr("event", event_name);
        s.Attr("status", shed->status.message());
        s.Attr("retry_after", shed->retry_after);
      }
      telemetry_->FinishTrace(request_id, request.attempt,
                              std::move(trace));
    }
  };

  if (request.attempt <= 1) {
    metrics_->counter(kMetricServeRequests)->Increment();
  } else {
    metrics_->counter(kMetricServeRetryAttempts)->Increment();
  }

  Status admit = FaultInjector::Global()->Check(kFaultSiteServeAdmit);
  if (!admit.ok()) {
    metrics_->counter(kMetricServeFailed)->Increment();
    if (IsInjectedFault(admit)) {
      metrics_->counter(kMetricServeFaultsInjected)->Increment();
    }
    shed->status = std::move(admit);
    shed->retry_after = RetryAfterHintLocked();  // transient server fault
    reject("fault.admit", /*postmortem=*/true, "");
    return AdmitOutcome::kShed;
  }

  if (sessions_.find(session_id) == sessions_.end()) {
    metrics_->counter(kMetricServeFailed)->Increment();
    shed->status = NotFound("unknown session");
    reject("request.rejected", /*postmortem=*/false, "");
    return AdmitOutcome::kShed;
  }

  // Translate, bind, and plan at admission: the planner's estimate is
  // the admission currency, and a malformed query fails here without
  // ever holding a slot. catalog_ is a descriptor snapshot, so no
  // database lock is needed.
  PlannedQuery plan;
  {
    Result<TranslatedQuery> translated =
        TranslateXPath(request.query, tree_, mapping_);
    if (!translated.ok()) {
      metrics_->counter(kMetricServeFailed)->Increment();
      shed->status = translated.status();
      reject("request.rejected", /*postmortem=*/false, "");
      return AdmitOutcome::kShed;
    }
    Result<BoundQuery> bound = BindQuery(translated->sql, catalog_);
    if (!bound.ok()) {
      metrics_->counter(kMetricServeFailed)->Increment();
      shed->status = bound.status();
      reject("request.rejected", /*postmortem=*/false, "");
      return AdmitOutcome::kShed;
    }
    PlannerOptions popts;
    popts.metrics = metrics_;
    Result<PlannedQuery> planned = PlanQuery(*bound, catalog_, popts);
    if (!planned.ok()) {
      metrics_->counter(kMetricServeFailed)->Increment();
      shed->status = planned.status();
      reject("request.rejected", /*postmortem=*/false, "");
      return AdmitOutcome::kShed;
    }
    plan = std::move(*planned);
  }

  if (trace != nullptr) {
    SpanScope s(trace.get(), "planning");
    s.Attr("est_cost", plan.est_cost);
    s.Attr("objects_used", static_cast<int64_t>(plan.objects_used.size()));
  }

  double session_rem = SessionRemainingLocked(session_id);
  if (plan.est_cost > session_rem) {
    metrics_->counter(kMetricServeShedSession)->Increment();
    shed->status = ResourceExhausted("session work budget exhausted");
    shed->retry_after = 0;  // a session budget never refills
    reject("shed.session", /*postmortem=*/true, plan.Explain());
    return AdmitOutcome::kShed;
  }

  if (!pool_.TryReserve(plan.est_cost)) {
    metrics_->counter(kMetricServeShedBudget)->Increment();
    shed->status = ResourceExhausted("global work budget saturated");
    shed->retry_after = RetryAfterHintLocked();
    reject("shed.budget", /*postmortem=*/true, plan.Explain());
    return AdmitOutcome::kShed;
  }

  if (trace != nullptr) {
    SpanScope s(trace.get(), "budget");
    s.Attr("reserved", plan.est_cost);
    s.Attr("session_remaining", session_rem);
    s.Attr("pool_outstanding", pool_.outstanding());
  }

  bool slot_free = running_ < config_.max_concurrent && queue_.Empty();
  if (!slot_free && queue_.Full()) {
    pool_.Release(plan.est_cost);
    metrics_->counter(kMetricServeShedQueueFull)->Increment();
    shed->status = ResourceExhausted("admission queue full");
    shed->retry_after = RetryAfterHintLocked();
    reject("shed.queue_full", /*postmortem=*/true, plan.Explain());
    return AdmitOutcome::kShed;
  }

  uint64_t t = next_ticket_++;
  PendingRequest& p = pending_[t];
  p.ticket = t;
  p.session_id = session_id;
  p.plan = std::move(plan);
  p.snapshot = db_->LatestSnapshot();
  p.est_work = p.plan.est_cost;
  p.arrival = now;
  p.deadline_abs =
      request.deadline_work > 0 ? now + request.deadline_work : 0;
  p.cancel = request.cancel;
  p.threaded = threaded;
  p.request_id = request_id;
  p.attempt = request.attempt;
  metrics_->gauge(kMetricServeOutstandingWorkPeak)
      ->SetMax(pool_.outstanding());
  *ticket = t;

  if (slot_free) {
    ++running_;
    p.dispatch_time = now;
    p.state = PendingState::kDispatched;
    metrics_->counter(kMetricServeAdmitted)->Increment();
    metrics_->gauge(kMetricServeInflightPeak)
        ->SetMax(static_cast<double>(running_));
    if (telemetry_ != nullptr) {
      telemetry_->Record(tnow, "request.admitted",
                         {{"request_id", std::to_string(request_id)},
                          {"ticket", std::to_string(t)},
                          {"session", std::to_string(session_id)}});
      if (trace != nullptr) {
        SpanScope s(trace.get(), "admission");
        s.Attr("outcome", "run");
      }
      p.trace = std::move(trace);
    }
    return AdmitOutcome::kRun;
  }

  p.state = PendingState::kWaiting;
  p.queue_deadline = p.deadline_abs > 0 ? p.deadline_abs : kInfDeadline;
  p.queue_seq = next_queue_seq_++;
  queue_.Push(p.queue_deadline, p.queue_seq, t);
  metrics_->counter(kMetricServeQueued)->Increment();
  metrics_->gauge(kMetricServeQueueDepthPeak)
      ->SetMax(static_cast<double>(queue_.size()));
  if (telemetry_ != nullptr) {
    telemetry_->Record(tnow, "request.queued",
                       {{"request_id", std::to_string(request_id)},
                        {"ticket", std::to_string(t)},
                        {"depth", std::to_string(queue_.size())}});
    if (trace != nullptr) {
      SpanScope s(trace.get(), "admission");
      s.Attr("outcome", "queued");
      s.Attr("queue_depth", static_cast<int64_t>(queue_.size()));
    }
    p.trace = std::move(trace);
  }
  (void)lock;
  return AdmitOutcome::kQueued;
}

AdmitOutcome SessionManager::Offer(uint64_t session_id,
                                   const ServeRequest& request, double now,
                                   ServeResponse* shed, uint64_t* ticket) {
  std::unique_lock<std::mutex> lock(mu_);
  return AdmitLocked(lock, session_id, request, now, /*threaded=*/false,
                     shed, ticket);
}

ServeResponse SessionManager::ExecuteLocked(uint64_t ticket, double now) {
  // Snapshot everything the execution needs, then run without mu_ so
  // other requests admit/complete concurrently (threaded mode).
  PlannedQuery* plan;
  std::shared_ptr<const EpochSnapshot> snapshot;
  const std::atomic<bool>* cancel;
  double deadline_rem, session_rem;
  uint64_t session_id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    PendingRequest& p = pending_.at(ticket);
    plan = &p.plan;
    snapshot = p.snapshot;
    cancel = p.cancel;
    session_id = p.session_id;
    deadline_rem =
        p.deadline_abs > 0 ? p.deadline_abs - now : kInfDeadline;
    session_rem = SessionRemainingLocked(session_id);
  }

  ServeResponse resp;
  resp.epoch = snapshot != nullptr ? snapshot->epoch : 0;

  // The request's governor budget is carved from whichever bound is
  // tighter: what's left of its deadline (in work units of virtual
  // time) or what's left of its session's budget.
  double bound = std::min(deadline_rem, session_rem);
  bool deadline_binding = deadline_rem <= session_rem;
  ResourceLimits limits;
  if (bound != kInfDeadline) {
    // Truncation (not ceil): a request may not overrun its deadline by a
    // fraction of a work unit.
    limits.work_units = std::max<int64_t>(static_cast<int64_t>(bound), 1);
  }
  ResourceGovernor governor(limits);

  ExecMetrics m;
  Status status;
  {
    std::shared_lock<std::shared_mutex> db_lock(db_mu_);
    Executor executor(*db_);
    ExecOptions options;
    options.governor = &governor;
    options.metrics = metrics_;
    options.snapshot = snapshot.get();
    options.cancel = cancel;
    options.faults = FaultInjector::Global();
    Result<int64_t> rows = executor.Count(*plan->root, &m, options);
    if (rows.ok()) {
      resp.rows_out = *rows;
      status = Status::OK();
    } else {
      status = rows.status();
    }
  }
  resp.work = m.work;
  resp.status = status;

  std::lock_guard<std::mutex> lock(mu_);
  double tnow = now;
  if (telemetry_ != nullptr) tnow = telemetry_->Advance(now);
  auto sit = sessions_.find(session_id);
  if (sit != sessions_.end()) sit->second.spent += m.work;
  const char* outcome;
  const char* postmortem_trigger = nullptr;
  if (status.ok()) {
    metrics_->counter(kMetricServeCompleted)->Increment();
    // Integer work units accumulate exactly, so per-window deltas of
    // this gauge (the goodput numerator) are deterministic.
    metrics_->gauge(kMetricServeCompletedWork)->Add(m.work);
    outcome = "completed";
  } else if (status.code() == StatusCode::kResourceExhausted &&
             deadline_binding && bound != kInfDeadline) {
    metrics_->counter(kMetricServeExpiredMidQuery)->Increment();
    outcome = "expired_mid_query";
    postmortem_trigger = "governor.deadline";
  } else if (status.code() == StatusCode::kResourceExhausted &&
             !deadline_binding && bound != kInfDeadline) {
    metrics_->counter(kMetricServeShedSession)->Increment();
    outcome = "shed_session";
    postmortem_trigger = "governor.session";
  } else {
    // Cancellation, injected mid-query faults, and organic errors.
    metrics_->counter(kMetricServeFailed)->Increment();
    outcome = "failed";
    if (IsInjectedFault(status)) {
      metrics_->counter(kMetricServeFaultsInjected)->Increment();
      postmortem_trigger = "fault.mid_query";
    }
  }
  if (telemetry_ != nullptr) {
    PendingRequest& p = pending_.at(ticket);
    telemetry_->Record(tnow, "execute.done",
                       {{"request_id", std::to_string(p.request_id)},
                        {"ticket", std::to_string(ticket)},
                        {"outcome", outcome},
                        {"rows", std::to_string(resp.rows_out)},
                        {"work", StrFormat("%.17g", m.work)},
                        {"epoch", std::to_string(resp.epoch)}});
    if (p.trace != nullptr) {
      SpanScope s(p.trace.get(), "execute");
      s.Attr("outcome", outcome);
      s.Attr("status", status.message());
      s.Attr("rows", resp.rows_out);
      s.Attr("work", m.work);
      s.Attr("epoch", static_cast<int64_t>(resp.epoch));
      s.Attr("deadline_binding", deadline_binding && bound != kInfDeadline);
    }
    if (postmortem_trigger != nullptr) {
      PostmortemLocked(postmortem_trigger, tnow, p.request_id, ticket,
                       status, p.plan.Explain());
    }
  }
  return resp;
}

ServeResponse SessionManager::ExecuteTicket(uint64_t ticket, double now) {
  return ExecuteLocked(ticket, now);
}

uint64_t SessionManager::RetireAndDispatchLocked(uint64_t ticket,
                                                 double now) {
  auto it = pending_.find(ticket);
  XS_CHECK(it != pending_.end());
  PendingRequest& p = it->second;
  double tnow = now;
  if (telemetry_ != nullptr) tnow = telemetry_->Advance(now);
  pool_.Release(p.est_work);
  --running_;
  metrics_->histogram(kMetricServeLatencyWork)->Observe(now - p.arrival);
  metrics_->histogram(kMetricServeQueueWaitWork)
      ->Observe(p.dispatch_time - p.arrival);
  if (telemetry_ != nullptr) {
    telemetry_->Record(
        tnow, "request.complete",
        {{"request_id", std::to_string(p.request_id)},
         {"ticket", std::to_string(ticket)},
         {"latency_work", StrFormat("%.17g", now - p.arrival)},
         {"queue_wait_work",
          StrFormat("%.17g", p.dispatch_time - p.arrival)}});
    if (p.trace != nullptr) {
      {
        SpanScope s(p.trace.get(), "complete");
        s.Attr("latency_work", now - p.arrival);
        s.Attr("queue_wait_work", p.dispatch_time - p.arrival);
      }
      telemetry_->FinishTrace(p.request_id, p.attempt, std::move(p.trace));
    }
  }
  pending_.erase(it);

  while (!queue_.Empty()) {
    QueuedAdmission q = queue_.PopFront();
    PendingRequest& n = pending_.at(q.ticket);
    if (n.deadline_abs > 0 && now >= n.deadline_abs) {
      metrics_->counter(kMetricServeExpiredInQueue)->Increment();
      pool_.Release(n.est_work);
      if (telemetry_ != nullptr) {
        Status expired =
            ResourceExhausted("deadline expired in admission queue");
        telemetry_->Record(
            tnow, "expired.queue",
            {{"request_id", std::to_string(n.request_id)},
             {"ticket", std::to_string(q.ticket)},
             {"deadline_abs", StrFormat("%.17g", n.deadline_abs)}});
        PostmortemLocked("expired.queue", tnow, n.request_id, q.ticket,
                         expired, n.plan.Explain());
        if (n.trace != nullptr) {
          {
            SpanScope s(n.trace.get(), "expired_in_queue");
            s.Attr("deadline_abs", n.deadline_abs);
          }
          telemetry_->FinishTrace(n.request_id, n.attempt,
                                  std::move(n.trace));
        }
      }
      if (n.threaded) {
        // The owning Submit thread reaps its own entry.
        n.state = PendingState::kExpired;
        n.response.status =
            ResourceExhausted("deadline expired in admission queue");
        continue;
      }
      pending_.erase(q.ticket);
      continue;
    }
    ++running_;
    n.dispatch_time = now;
    n.state = PendingState::kDispatched;
    metrics_->counter(kMetricServeAdmitted)->Increment();
    metrics_->gauge(kMetricServeInflightPeak)
        ->SetMax(static_cast<double>(running_));
    if (telemetry_ != nullptr) {
      telemetry_->Record(tnow, "request.dispatched",
                         {{"request_id", std::to_string(n.request_id)},
                          {"ticket", std::to_string(q.ticket)}});
    }
    return q.ticket;
  }
  return 0;
}

uint64_t SessionManager::CompleteTicket(uint64_t ticket, double now) {
  std::lock_guard<std::mutex> lock(mu_);
  return RetireAndDispatchLocked(ticket, now);
}

ServeResponse SessionManager::Submit(uint64_t session_id,
                                     const ServeRequest& request) {
  uint64_t ticket = 0;
  ServeResponse resp;
  AdmitOutcome outcome;
  {
    std::unique_lock<std::mutex> lock(mu_);
    outcome = AdmitLocked(lock, session_id, request, /*now=*/0,
                          /*threaded=*/true, &resp, &ticket);
    if (outcome == AdmitOutcome::kShed) return resp;

    if (outcome == AdmitOutcome::kQueued) {
      PendingRequest& p = pending_.at(ticket);
      auto dispatched = [&p] {
        return p.state != PendingState::kWaiting;
      };
      if (request.wall_queue_wait_seconds > 0) {
        bool ok = cv_.wait_for(
            lock,
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(
                    request.wall_queue_wait_seconds)),
            dispatched);
        if (!ok) {
          // Timed out still waiting: remove our queue entry and account
          // the expiry ourselves.
          queue_.Remove(p.queue_deadline, p.queue_seq, ticket);
          pool_.Release(p.est_work);
          ServeResponse timeout;
          timeout.status =
              ResourceExhausted("queue wait exceeded wall deadline");
          double tnow = 0;
          if (telemetry_ != nullptr) tnow = telemetry_->Advance(0);
          metrics_->counter(kMetricServeExpiredInQueue)->Increment();
          if (telemetry_ != nullptr) {
            telemetry_->Record(tnow, "expired.queue",
                               {{"request_id",
                                 std::to_string(p.request_id)},
                                {"ticket", std::to_string(ticket)},
                                {"reason", "wall_queue_wait"}});
            PostmortemLocked("expired.queue", tnow, p.request_id, ticket,
                             timeout.status, p.plan.Explain());
            if (p.trace != nullptr) {
              {
                SpanScope s(p.trace.get(), "expired_in_queue");
                s.Attr("reason", "wall_queue_wait");
              }
              telemetry_->FinishTrace(p.request_id, p.attempt,
                                      std::move(p.trace));
            }
          }
          pending_.erase(ticket);
          return timeout;
        }
      } else {
        cv_.wait(lock, dispatched);
      }
      if (p.state == PendingState::kExpired) {
        ServeResponse expired = p.response;
        pending_.erase(ticket);
        return expired;
      }
    }
  }

  // Slot granted (kRun or dispatched from the queue): execute, then
  // retire the slot and hand it to the next waiter.
  resp = ExecuteLocked(ticket, /*now=*/0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    RetireAndDispatchLocked(ticket, /*now=*/0);
  }
  cv_.notify_all();
  return resp;
}

Status SessionManager::AppendAndPublish(const std::string& table,
                                        const std::vector<Row>& rows,
                                        double now) {
  // All-or-nothing versus injected publish faults: checked before any
  // mutation so a failed publish leaves no half-visible rows.
  Status fault = FaultInjector::Global()->Check(kFaultSiteServeEpochPublish);
  if (!fault.ok()) {
    std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
    double tnow = now;
    if (telemetry_ != nullptr) {
      lock.lock();
      tnow = telemetry_->Advance(now);
    }
    if (IsInjectedFault(fault)) {
      metrics_->counter(kMetricServeFaultsInjected)->Increment();
    }
    if (telemetry_ != nullptr) {
      telemetry_->Record(tnow, "fault.publish",
                         {{"table", table},
                          {"status", std::string(fault.message())}});
      PostmortemLocked("fault.publish", tnow, /*request_id=*/0,
                       /*ticket=*/0, fault, "");
    }
    return fault;
  }

  Status index_status = Status::OK();
  {
    std::unique_lock<std::shared_mutex> db_lock(db_mu_);
    if (db_->HasMaterializedViews()) {
      return FailedPrecondition(
          "append refused: materialized views would go stale (drop them "
          "before appending)");
    }
    Table* t = db_->FindTable(table);
    if (t == nullptr) return NotFound("table " + table);
    for (const Row& row : rows) t->AppendRow(row);

    // Static B+-tree indexes are rebuilt, not maintained; same names, so
    // existing plans keep resolving. A failed rebuild (chaos can fire
    // catalog.index_build) degrades that index to heap scans — reported,
    // not fatal, and the catalog below reflects whatever survived.
    std::vector<IndexDef> defs;
    for (const BTreeIndex* idx : db_->IndexesOn(table)) {
      defs.push_back(idx->def());
    }
    for (const IndexDef& def : defs) {
      db_->DropIndex(def.name);
      Status rebuilt = db_->CreateIndex(def);
      if (!rebuilt.ok() && index_status.ok()) index_status = rebuilt;
    }
    db_->PublishEpoch();
    CatalogDesc rebuilt = db_->BuildCatalogDesc();
    std::lock_guard<std::mutex> lock(mu_);
    catalog_ = std::move(rebuilt);
    double tnow = now;
    if (telemetry_ != nullptr) tnow = telemetry_->Advance(now);
    metrics_->counter(kMetricServeEpochsPublished)->Increment();
    if (telemetry_ != nullptr) {
      telemetry_->Record(tnow, "epoch.publish",
                         {{"table", table},
                          {"epoch", std::to_string(db_->current_epoch())},
                          {"rows", std::to_string(rows.size())}});
    }
  }
  return index_status;
}

Result<ShredStats> SessionManager::IngestAndPublish(std::string_view xml,
                                                    double now) {
  // Same all-or-nothing ordering as AppendAndPublish: the publish fault
  // fires before any mutation, and a failed shred rolls itself back.
  Status fault = FaultInjector::Global()->Check(kFaultSiteServeEpochPublish);
  if (!fault.ok()) {
    std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
    double tnow = now;
    if (telemetry_ != nullptr) {
      lock.lock();
      tnow = telemetry_->Advance(now);
    }
    if (IsInjectedFault(fault)) {
      metrics_->counter(kMetricServeFaultsInjected)->Increment();
    }
    if (telemetry_ != nullptr) {
      telemetry_->Record(tnow, "fault.publish",
                         {{"table", "<ingest>"},
                          {"status", std::string(fault.message())}});
      PostmortemLocked("fault.publish", tnow, /*request_id=*/0,
                       /*ticket=*/0, fault, "");
    }
    return fault;
  }

  std::unique_lock<std::shared_mutex> db_lock(db_mu_);
  if (db_->HasMaterializedViews()) {
    return FailedPrecondition(
        "ingest refused: materialized views would go stale (drop them "
        "before ingesting)");
  }
  StreamShredOptions options;
  options.metrics = metrics_;
  auto stats = ShredStream(xml, tree_, mapping_, db_, options);
  if (!stats.ok()) return stats.status();

  db_->PublishEpoch();
  CatalogDesc rebuilt = db_->BuildCatalogDesc();
  std::lock_guard<std::mutex> lock(mu_);
  catalog_ = std::move(rebuilt);
  double tnow = now;
  if (telemetry_ != nullptr) tnow = telemetry_->Advance(now);
  metrics_->counter(kMetricServeEpochsPublished)->Increment();
  if (telemetry_ != nullptr) {
    telemetry_->Record(tnow, "epoch.publish",
                       {{"table", "<ingest>"},
                        {"epoch", std::to_string(db_->current_epoch())},
                        {"rows", std::to_string(stats->rows)}});
  }
  return stats;
}

bool SessionManager::Idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_ == 0 && queue_.Empty() && pending_.empty() &&
         pool_.outstanding() == 0;
}

bool SessionManager::HasPending(uint64_t ticket) const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.find(ticket) != pending_.end();
}

size_t SessionManager::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

int SessionManager::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

double SessionManager::outstanding_work() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool_.outstanding();
}

}  // namespace xmlshred
