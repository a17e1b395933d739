// Serving-layer tests (DESIGN.md §12): batch-boundary interrupts in the
// executor (cancellation, governor trips, injected faults —
// clean Status, no double-counted metering), admission-control
// primitives, epoch snapshot isolation, deadline expiry in the queue and
// mid-scan, deterministic DES soaks, and a TSan-validated concurrent
// Submit hammer with chaos appends.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/limits.h"
#include "common/metrics.h"
#include "exec/executor.h"
#include "mapping/mapping.h"
#include "mapping/shredder.h"
#include "opt/planner.h"
#include "rel/catalog.h"
#include "rel/index.h"
#include "serve/admission.h"
#include "serve/retry.h"
#include "rel/view.h"
#include "serve/session.h"
#include "serve/soak.h"
#include "sql/binder.h"
#include "workload/dblp.h"
#include "xpath/translator.h"
#include "xpath/xpath.h"

namespace xmlshred {
namespace {

// ---------------------------------------------------------------------
// Shared fixture: a small shredded DBLP database with one index.

struct ServeFixture {
  GeneratedData data;
  std::unique_ptr<Mapping> mapping;
  std::unique_ptr<Database> db;

  ServeFixture() {
    DblpConfig config;
    config.num_inproceedings = 400;
    config.num_books = 40;
    data = GenerateDblp(config);
    auto built = Mapping::Build(*data.tree);
    EXPECT_TRUE(built.ok()) << built.status();
    mapping = std::make_unique<Mapping>(std::move(*built));
    db = std::make_unique<Database>();
    auto shredded = ShredDocument(data.doc, *data.tree, *mapping, db.get());
    EXPECT_TRUE(shredded.ok()) << shredded.status();
    IndexDef idx;
    idx.name = "ix_booktitle";
    idx.table = "inproc";
    idx.key_columns = {
        db->FindTable("inproc")->schema().FindColumn("booktitle")};
    idx.included_columns = {
        db->FindTable("inproc")->schema().FindColumn("title")};
    EXPECT_TRUE(db->CreateIndex(idx).ok());
  }

  // `//inproceedings/(title)` — scans every inproc row.
  static XPathQuery ScanAllQuery() {
    XPathQuery q;
    q.context = "inproceedings";
    q.projections = {"title"};
    return q;
  }

  // `//inproceedings[booktitle = "conf_0"]/(title | year)`.
  static XPathQuery SelectiveQuery() {
    XPathQuery q;
    q.context = "inproceedings";
    q.has_selection = true;
    q.selection_path = "booktitle";
    q.selection_op = "=";
    q.selection_literal = Value::Str("conf_0");
    q.projections = {"title", "year"};
    return q;
  }

  PlannedQuery PlanXPath(const XPathQuery& query) const {
    CatalogDesc catalog = db->BuildCatalogDesc();
    auto translated = TranslateXPath(query, *data.tree, *mapping);
    EXPECT_TRUE(translated.ok()) << translated.status();
    auto bound = BindQuery(translated->sql, catalog);
    EXPECT_TRUE(bound.ok()) << bound.status();
    auto planned = PlanQuery(*bound, catalog);
    EXPECT_TRUE(planned.ok()) << planned.status();
    return std::move(*planned);
  }
};

ServeFixture& Fixture() {
  static ServeFixture* fixture = new ServeFixture();
  return *fixture;
}

int64_t Counter(MetricsRegistry* registry, const char* name) {
  MetricsSnapshot snap = registry->Snapshot();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// The accounting invariant: every offer lands in exactly one terminal
// counter.
void ExpectAccountingBalanced(MetricsRegistry* registry) {
  int64_t offers = Counter(registry, kMetricServeRequests) +
                   Counter(registry, kMetricServeRetryAttempts);
  int64_t terminal = Counter(registry, kMetricServeCompleted) +
                     Counter(registry, kMetricServeFailed) +
                     Counter(registry, kMetricServeShedQueueFull) +
                     Counter(registry, kMetricServeShedBudget) +
                     Counter(registry, kMetricServeShedSession) +
                     Counter(registry, kMetricServeExpiredInQueue) +
                     Counter(registry, kMetricServeExpiredMidQuery);
  EXPECT_EQ(offers, terminal);
}

// ---------------------------------------------------------------------
// Executor batch-boundary interrupts. Submit executes through
// Executor::Count, so each case also runs a Count leg, which must stop
// where the Run leg stopped: same status, same metering.

void ExpectSameStop(const Status& run, const ExecMetrics& run_m,
                    const Status& count, const ExecMetrics& count_m) {
  EXPECT_EQ(run.code(), count.code());
  EXPECT_EQ(run.message(), count.message());
  EXPECT_DOUBLE_EQ(run_m.work, count_m.work);
  EXPECT_DOUBLE_EQ(run_m.pages_sequential, count_m.pages_sequential);
  EXPECT_DOUBLE_EQ(run_m.pages_random, count_m.pages_random);
  EXPECT_EQ(run_m.rows_out, count_m.rows_out);
  EXPECT_EQ(run_m.blocks_scanned, count_m.blocks_scanned);
  EXPECT_EQ(run_m.blocks_skipped, count_m.blocks_skipped);
}

TEST(ExecutorInterruptTest, CancelTokenStopsScanWithCleanStatus) {
  ServeFixture& f = Fixture();
  PlannedQuery plan = f.PlanXPath(ServeFixture::ScanAllQuery());
  {
    std::atomic<bool> cancel{true};
    Executor executor(*f.db);
    ExecMetrics m;
    ExecOptions options;
    options.cancel = &cancel;
    auto rows = executor.Run(*plan.root, &m, options);
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(rows.status().message().find("cancelled"), std::string::npos);

    ExecMetrics count_m;
    auto count = executor.Count(*plan.root, &count_m, options);
    ASSERT_FALSE(count.ok());
    ExpectSameStop(rows.status(), m, count.status(), count_m);
  }
  // The same plan still runs to completion once the token clears.
  Executor executor(*f.db);
  ExecMetrics m;
  auto rows = executor.Run(*plan.root, &m, ExecOptions{});
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(static_cast<int64_t>(rows->size()), 400);
  auto count = executor.Count(*plan.root, &m, ExecOptions{});
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(*count, 400);
}

TEST(ExecutorInterruptTest, GovernorTripMidScanMetersOnce) {
  ServeFixture& f = Fixture();
  PlannedQuery plan = f.PlanXPath(ServeFixture::ScanAllQuery());

  Executor executor(*f.db);
  ExecMetrics clean;
  auto ok_rows = executor.Run(*plan.root, &clean, ExecOptions{});
  ASSERT_TRUE(ok_rows.ok());
  ASSERT_GT(clean.work, 1.0);

  // A budget below the full cost trips mid-run with a clean status; the
  // governor and the run's metrics agree on what was charged (each node
  // charges exactly once, before producing rows).
  {
    ResourceLimits limits;
    limits.work_units = static_cast<int64_t>(clean.work / 2);
    ResourceGovernor governor(limits);
    ExecMetrics m;
    ExecOptions options;
    options.governor = &governor;
    auto rows = executor.Run(*plan.root, &m, options);
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted);
    EXPECT_DOUBLE_EQ(m.work, governor.work_spent());
    EXPECT_LE(governor.work_spent(), clean.work);

    ResourceGovernor count_governor(limits);
    ExecMetrics count_m;
    options.governor = &count_governor;
    auto count = executor.Count(*plan.root, &count_m, options);
    ASSERT_FALSE(count.ok());
    ExpectSameStop(rows.status(), m, count.status(), count_m);
    EXPECT_DOUBLE_EQ(count_governor.work_spent(), governor.work_spent());
  }

  // The trip corrupted nothing: a clean rerun returns the full result
  // with the original metering.
  ExecMetrics again;
  auto rerun = executor.Run(*plan.root, &again, ExecOptions{});
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(rerun->size(), ok_rows->size());
  EXPECT_DOUBLE_EQ(again.work, clean.work);
}

TEST(ExecutorInterruptTest, InjectedMidQueryFaultKeepsMeteringConsistent) {
  ServeFixture& f = Fixture();
  PlannedQuery plan = f.PlanXPath(ServeFixture::ScanAllQuery());
  Executor executor(*f.db);
  ExecMetrics clean;
  ASSERT_TRUE(executor.Run(*plan.root, &clean, ExecOptions{}).ok());

  ExecOptions options;
  options.faults = FaultInjector::Global();
  ExecMetrics m;
  Status run_status;
  {
    ScopedFaultInjection armed(kFaultSiteServeMidQuery, 1);
    auto rows = executor.Run(*plan.root, &m, options);
    ASSERT_FALSE(rows.ok());
    run_status = rows.status();
    EXPECT_EQ(run_status.message().rfind("injected fault", 0), 0u);
    // Charges are per-node and upfront; an interrupt between batches
    // must not re-charge or lose them.
    EXPECT_LE(m.work, clean.work);
  }
  {
    ScopedFaultInjection armed(kFaultSiteServeMidQuery, 1);
    ExecMetrics count_m;
    auto count = executor.Count(*plan.root, &count_m, options);
    ASSERT_FALSE(count.ok());
    ExpectSameStop(run_status, m, count.status(), count_m);
  }
  ExecMetrics again;
  auto rerun = executor.Run(*plan.root, &again, ExecOptions{});
  ASSERT_TRUE(rerun.ok());
  EXPECT_DOUBLE_EQ(again.work, clean.work);
}

// ---------------------------------------------------------------------
// Admission-control primitives.

TEST(AdmissionTest, DeadlineQueueOrdersByDeadlineThenSequence) {
  DeadlineQueue queue(4);
  queue.Push(100.0, 1, 11);
  queue.Push(50.0, 2, 12);
  queue.Push(50.0, 3, 13);
  queue.Push(10.0, 4, 14);
  EXPECT_TRUE(queue.Full());
  EXPECT_EQ(queue.PopFront().ticket, 14u);
  EXPECT_EQ(queue.PopFront().ticket, 12u);  // seq breaks the 50.0 tie
  EXPECT_TRUE(queue.Remove(50.0, 3, 13));
  EXPECT_FALSE(queue.Remove(50.0, 3, 13));  // already gone
  EXPECT_EQ(queue.PopFront().ticket, 11u);
  EXPECT_TRUE(queue.Empty());
}

TEST(AdmissionTest, WorkBudgetPoolAdmitsOversizedWhenEmptyAndSnapsToZero) {
  WorkBudgetPool pool(10.0);
  EXPECT_TRUE(pool.TryReserve(25.0));   // empty pool always admits one
  EXPECT_FALSE(pool.TryReserve(0.1));   // saturated now
  pool.Release(25.0);
  EXPECT_EQ(pool.outstanding(), 0.0);
  // Out-of-order releases leave no floating-point residue behind.
  EXPECT_TRUE(pool.TryReserve(0.1));
  EXPECT_TRUE(pool.TryReserve(9.2));
  EXPECT_TRUE(pool.TryReserve(0.3));
  pool.Release(9.2);
  pool.Release(0.1);
  pool.Release(0.3);
  EXPECT_EQ(pool.outstanding(), 0.0);
  EXPECT_EQ(pool.reservations(), 0);
}

TEST(RetryTest, BackoffIsDeterministicBoundedAndRespectsHint) {
  RetryPolicy policy;
  double a = RetryBackoff(policy, /*request_key=*/7, /*attempt=*/2,
                          /*retry_after=*/0);
  double b = RetryBackoff(policy, 7, 2, 0);
  EXPECT_DOUBLE_EQ(a, b);  // pure function of its inputs
  EXPECT_GE(a, policy.base_backoff);
  EXPECT_LE(a, policy.max_backoff * (1.0 + policy.jitter_fraction));
  // A server retry-after hint larger than the schedule wins.
  double hinted = RetryBackoff(policy, 7, 2, 1000.0);
  EXPECT_GE(hinted, 1000.0);
  // Different request keys decorrelate (with overwhelming probability).
  EXPECT_NE(RetryBackoff(policy, 8, 2, 0), a);
}

// ---------------------------------------------------------------------
// SessionManager: virtual-time (DES) behaviour.

TEST(ServingTest, EpochSnapshotIsolatesInFlightReaders) {
  ServeFixture& f = Fixture();
  ServeConfig config;
  config.max_concurrent = 2;
  SessionManager manager(f.db.get(), *f.data.tree, *f.mapping, config,
                         nullptr);
  uint64_t session = manager.OpenSession();
  int64_t before_rows = f.db->FindTable("inproc")->row_count();

  // Admit (and pin a snapshot) BEFORE the append...
  ServeRequest request;
  request.query = ServeFixture::ScanAllQuery();
  ServeResponse shed;
  uint64_t ticket = 0;
  ASSERT_EQ(manager.Offer(session, request, 0, &shed, &ticket),
            AdmitOutcome::kRun);

  // ...then append and publish a new epoch.
  Row extra = f.db->FindTable("inproc")->GetRow(0);
  ASSERT_TRUE(
      manager.AppendAndPublish("inproc", {extra, extra, extra}).ok());

  // The pinned reader still sees the pre-append row count.
  ServeResponse pinned = manager.ExecuteTicket(ticket, 0);
  ASSERT_TRUE(pinned.status.ok()) << pinned.status;
  EXPECT_EQ(pinned.rows_out, before_rows);
  manager.CompleteTicket(ticket, pinned.work);

  // A request admitted after the publish sees the appended rows.
  uint64_t ticket2 = 0;
  ASSERT_EQ(manager.Offer(session, request, 100, &shed, &ticket2),
            AdmitOutcome::kRun);
  ServeResponse fresh = manager.ExecuteTicket(ticket2, 100);
  ASSERT_TRUE(fresh.status.ok());
  EXPECT_EQ(fresh.rows_out, before_rows + 3);
  EXPECT_GT(fresh.epoch, pinned.epoch);
  manager.CompleteTicket(ticket2, 100 + fresh.work);

  EXPECT_TRUE(manager.Idle());
  ExpectAccountingBalanced(manager.metrics());
  EXPECT_EQ(f.db->FindTable("inproc")->row_count(), before_rows + 3);
}

TEST(ServingTest, QueueFullShedsWithRetryHintAndSessionStaysUsable) {
  ServeFixture& f = Fixture();
  ServeConfig config;
  config.max_concurrent = 1;
  config.queue_capacity = 1;
  SessionManager manager(f.db.get(), *f.data.tree, *f.mapping, config,
                         nullptr);
  uint64_t session = manager.OpenSession();
  ServeRequest request;
  request.query = ServeFixture::SelectiveQuery();

  ServeResponse shed;
  uint64_t t1 = 0, t2 = 0, t3 = 0;
  EXPECT_EQ(manager.Offer(session, request, 0, &shed, &t1),
            AdmitOutcome::kRun);
  EXPECT_EQ(manager.Offer(session, request, 0, &shed, &t2),
            AdmitOutcome::kQueued);
  EXPECT_EQ(manager.Offer(session, request, 0, &shed, &t3),
            AdmitOutcome::kShed);
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(shed.retry_after, 1.0);
  EXPECT_EQ(Counter(manager.metrics(), kMetricServeShedQueueFull), 1);

  // Drain: completing the runner dispatches the queued request.
  ServeResponse r1 = manager.ExecuteTicket(t1, 0);
  ASSERT_TRUE(r1.status.ok());
  uint64_t next = manager.CompleteTicket(t1, r1.work);
  ASSERT_EQ(next, t2);
  ServeResponse r2 = manager.ExecuteTicket(next, r1.work);
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(manager.CompleteTicket(next, r1.work + r2.work), 0u);

  // The shed request's session is immediately reusable.
  uint64_t t4 = 0;
  EXPECT_EQ(manager.Offer(session, request, 1000, &shed, &t4),
            AdmitOutcome::kRun);
  ServeResponse r4 = manager.ExecuteTicket(t4, 1000);
  EXPECT_TRUE(r4.status.ok());
  manager.CompleteTicket(t4, 1000 + r4.work);

  EXPECT_TRUE(manager.Idle());
  ExpectAccountingBalanced(manager.metrics());
}

TEST(ServingTest, GlobalWorkBudgetShedsBeyondFirstReservation) {
  ServeFixture& f = Fixture();
  ServeConfig config;
  config.max_concurrent = 4;
  config.global_work_budget = 0.5;  // below any single plan's estimate
  SessionManager manager(f.db.get(), *f.data.tree, *f.mapping, config,
                         nullptr);
  uint64_t session = manager.OpenSession();
  ServeRequest request;
  request.query = ServeFixture::SelectiveQuery();

  ServeResponse shed;
  uint64_t t1 = 0, t2 = 0;
  // An empty pool admits even an oversized request...
  EXPECT_EQ(manager.Offer(session, request, 0, &shed, &t1),
            AdmitOutcome::kRun);
  // ...but the next reservation sheds with a drain-time hint.
  EXPECT_EQ(manager.Offer(session, request, 0, &shed, &t2),
            AdmitOutcome::kShed);
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(shed.retry_after, 1.0);
  EXPECT_EQ(Counter(manager.metrics(), kMetricServeShedBudget), 1);

  ServeResponse r1 = manager.ExecuteTicket(t1, 0);
  EXPECT_TRUE(r1.status.ok());
  manager.CompleteTicket(t1, r1.work);
  EXPECT_TRUE(manager.Idle());
  ExpectAccountingBalanced(manager.metrics());
}

TEST(ServingTest, SessionBudgetShedsPermanentlyAtAdmission) {
  ServeFixture& f = Fixture();
  SessionManager manager(f.db.get(), *f.data.tree, *f.mapping, ServeConfig{},
                         nullptr);
  uint64_t tiny = manager.OpenSession(/*work_budget=*/0.25);
  ServeRequest request;
  request.query = ServeFixture::ScanAllQuery();
  ServeResponse shed;
  uint64_t ticket = 0;
  EXPECT_EQ(manager.Offer(tiny, request, 0, &shed, &ticket),
            AdmitOutcome::kShed);
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(shed.retry_after, 0.0);  // budgets never refill: do not retry
  EXPECT_EQ(Counter(manager.metrics(), kMetricServeShedSession), 1);
  EXPECT_TRUE(manager.Idle());
  ExpectAccountingBalanced(manager.metrics());
}

TEST(ServingTest, UnknownSessionIsFailedNotShed) {
  ServeFixture& f = Fixture();
  SessionManager manager(f.db.get(), *f.data.tree, *f.mapping, ServeConfig{},
                         nullptr);
  ServeRequest request;
  request.query = ServeFixture::SelectiveQuery();
  ServeResponse shed;
  uint64_t ticket = 0;
  EXPECT_EQ(manager.Offer(999, request, 0, &shed, &ticket),
            AdmitOutcome::kShed);
  EXPECT_EQ(shed.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(shed.retry_after, 0.0);
  EXPECT_EQ(Counter(manager.metrics(), kMetricServeFailed), 1);
  ExpectAccountingBalanced(manager.metrics());
}

TEST(ServingTest, EarliestDeadlineFirstDispatchAndQueueExpiry) {
  ServeFixture& f = Fixture();
  ServeConfig config;
  config.max_concurrent = 1;
  config.queue_capacity = 4;
  SessionManager manager(f.db.get(), *f.data.tree, *f.mapping, config,
                         nullptr);
  uint64_t session = manager.OpenSession();

  ServeRequest scan;
  scan.query = ServeFixture::ScanAllQuery();
  ServeResponse shed;
  uint64_t runner = 0;
  ASSERT_EQ(manager.Offer(session, scan, 0, &shed, &runner),
            AdmitOutcome::kRun);
  ServeResponse r = manager.ExecuteTicket(runner, 0);
  ASSERT_TRUE(r.status.ok());
  ASSERT_GT(r.work, 2.0);  // the queued deadlines below expire under it

  // Queue: B (deadline 1e6), C (deadline 1.5 — will expire), D (none).
  ServeRequest b = scan;
  b.deadline_work = 1e6;
  ServeRequest c = scan;
  c.deadline_work = 1.5;
  ServeRequest d = scan;
  uint64_t tb = 0, tc = 0, td = 0;
  ASSERT_EQ(manager.Offer(session, b, 0, &shed, &tb), AdmitOutcome::kQueued);
  ASSERT_EQ(manager.Offer(session, c, 0, &shed, &tc), AdmitOutcome::kQueued);
  ASSERT_EQ(manager.Offer(session, d, 0, &shed, &td), AdmitOutcome::kQueued);

  // Completion at r.work > 1.5: C has expired in the queue; B (earliest
  // live deadline) dispatches ahead of D despite arriving first.
  uint64_t next = manager.CompleteTicket(runner, r.work);
  EXPECT_EQ(next, tb);
  EXPECT_EQ(Counter(manager.metrics(), kMetricServeExpiredInQueue), 1);

  ServeResponse rb = manager.ExecuteTicket(next, r.work);
  EXPECT_TRUE(rb.status.ok());
  next = manager.CompleteTicket(next, r.work + rb.work);
  EXPECT_EQ(next, td);
  ServeResponse rd = manager.ExecuteTicket(next, r.work + rb.work);
  EXPECT_TRUE(rd.status.ok());
  EXPECT_EQ(manager.CompleteTicket(next, r.work + rb.work + rd.work), 0u);

  EXPECT_TRUE(manager.Idle());
  ExpectAccountingBalanced(manager.metrics());
}

TEST(ServingTest, DeadlineExpiresMidVectorizedScan) {
  ServeFixture& f = Fixture();
  ServeConfig config;
  config.max_concurrent = 1;
  SessionManager manager(f.db.get(), *f.data.tree, *f.mapping, config,
                         nullptr);
  uint64_t session = manager.OpenSession();
  ServeRequest request;
  request.query = ServeFixture::ScanAllQuery();
  request.deadline_work = 2.0;  // far below the scan's metered work

  ServeResponse shed;
  uint64_t ticket = 0;
  ASSERT_EQ(manager.Offer(session, request, 0, &shed, &ticket),
            AdmitOutcome::kRun);
  ServeResponse resp = manager.ExecuteTicket(ticket, 0);
  EXPECT_EQ(resp.status.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(resp.work, 0.0);  // partial metering survives the early exit
  EXPECT_EQ(Counter(manager.metrics(), kMetricServeExpiredMidQuery), 1);
  manager.CompleteTicket(ticket, 2.0);

  // Expiry leaves the session reusable with a sane deadline.
  request.deadline_work = 1e9;
  uint64_t t2 = 0;
  ASSERT_EQ(manager.Offer(session, request, 10, &shed, &t2),
            AdmitOutcome::kRun);
  ServeResponse ok = manager.ExecuteTicket(t2, 10);
  EXPECT_TRUE(ok.status.ok()) << ok.status;
  manager.CompleteTicket(t2, 10 + ok.work);

  EXPECT_TRUE(manager.Idle());
  ExpectAccountingBalanced(manager.metrics());
}

TEST(ServingTest, CancelTokenFailsRequestCleanly) {
  ServeFixture& f = Fixture();
  SessionManager manager(f.db.get(), *f.data.tree, *f.mapping, ServeConfig{},
                         nullptr);
  uint64_t session = manager.OpenSession();
  std::atomic<bool> cancel{true};
  ServeRequest request;
  request.query = ServeFixture::ScanAllQuery();
  request.cancel = &cancel;

  ServeResponse shed;
  uint64_t ticket = 0;
  ASSERT_EQ(manager.Offer(session, request, 0, &shed, &ticket),
            AdmitOutcome::kRun);
  ServeResponse resp = manager.ExecuteTicket(ticket, 0);
  EXPECT_EQ(resp.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(resp.status.message().find("cancelled"), std::string::npos);
  EXPECT_EQ(Counter(manager.metrics(), kMetricServeFailed), 1);
  manager.CompleteTicket(ticket, 1.0);
  EXPECT_TRUE(manager.Idle());
  ExpectAccountingBalanced(manager.metrics());
}

TEST(ServingTest, AppendRefusedWhileMaterializedViewsExist) {
  // A private database for this test: views block appends.
  ServeFixture local;
  ViewDef view;
  view.name = "mv_titles";
  view.base_table = "inproc";
  view.projected = {{"inproc", "title"}, {"inproc", "year"}};
  ASSERT_TRUE(local.db->CreateMaterializedView(view).ok());

  SessionManager manager(local.db.get(), *local.data.tree, *local.mapping,
                         ServeConfig{}, nullptr);
  Row extra = local.db->FindTable("inproc")->GetRow(0);
  Status refused = manager.AppendAndPublish("inproc", {extra});
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Counter(manager.metrics(), kMetricServeEpochsPublished), 0);
}

TEST(ServingTest, InjectedAdmitFaultShedsWithRetryHint) {
  ServeFixture& f = Fixture();
  SessionManager manager(f.db.get(), *f.data.tree, *f.mapping, ServeConfig{},
                         nullptr);
  uint64_t session = manager.OpenSession();
  ServeRequest request;
  request.query = ServeFixture::SelectiveQuery();
  ServeResponse shed;
  uint64_t ticket = 0;
  {
    ScopedFaultInjection armed(kFaultSiteServeAdmit, 1);
    EXPECT_EQ(manager.Offer(session, request, 0, &shed, &ticket),
              AdmitOutcome::kShed);
  }
  EXPECT_EQ(shed.status.code(), StatusCode::kInternal);
  EXPECT_GE(shed.retry_after, 1.0);  // transient: retrying can succeed
  EXPECT_EQ(Counter(manager.metrics(), kMetricServeFaultsInjected), 1);
  ExpectAccountingBalanced(manager.metrics());
}

TEST(ServingTest, DeterministicSoakRunsProduceIdenticalCounters) {
  ServeFixture& f = Fixture();
  XPathWorkload mix = {ServeFixture::SelectiveQuery(),
                       ServeFixture::ScanAllQuery()};
  auto run_once = [&] {
    ServeConfig config;
    config.max_concurrent = 2;
    config.queue_capacity = 2;
    config.global_work_budget = 50.0;
    SessionManager manager(f.db.get(), *f.data.tree, *f.mapping, config,
                           nullptr);
    SoakOptions options;
    options.num_clients = 3;
    options.requests_per_client = 12;
    options.mean_gap = 10.0;  // heavy overload: plenty of shedding
    options.deadline_work = 120.0;
    options.seed = 7;
    auto report = RunSoak(&manager, mix, options);
    EXPECT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->invariants_ok) << report->invariant_error;
    return report->CountersDigest();
  };
  std::string first = run_once();
  std::string second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("offered=36"), std::string::npos) << first;
}

// ---------------------------------------------------------------------
// Threaded Submit path (the TSan hammer).

TEST(ServingThreadedTest, ConcurrentSubmitHammerKeepsAccountsBalanced) {
  ServeFixture local;  // private database: the chaos thread appends to it
  ServeConfig config;
  config.max_concurrent = 3;
  config.queue_capacity = 4;
  config.global_work_budget = 2000.0;
  SessionManager manager(local.db.get(), *local.data.tree, *local.mapping,
                         config, nullptr);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 24;
  std::vector<uint64_t> sessions;
  for (int i = 0; i < kThreads; ++i) sessions.push_back(manager.OpenSession());

  // Probabilistic chaos across every fault site for the whole hammer.
  FaultInjector::Global()->ArmProbabilistic(/*seed=*/99,
                                            /*probability=*/0.02);

  std::atomic<bool> cancel_some{true};
  std::atomic<int64_t> responses{0};
  auto client = [&](int id) {
    for (int i = 0; i < kPerThread; ++i) {
      ServeRequest request;
      request.query = (i % 3 == 0) ? ServeFixture::ScanAllQuery()
                                   : ServeFixture::SelectiveQuery();
      if (i % 5 == 1) request.deadline_work = 2.0;  // expires mid-query
      if (i % 7 == 2) request.cancel = &cancel_some;
      if (i % 4 == 3) request.wall_queue_wait_seconds = 0.02;
      ServeResponse resp =
          manager.Submit(sessions[static_cast<size_t>(id)], request);
      // Every Submit returns a terminal response: OK, shed, expired,
      // cancelled, or an injected fault — never a hang.
      (void)resp;
      responses.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread chaos([&] {
    Row extra = local.db->FindTable("inproc")->GetRow(1);
    for (int k = 0; k < 8; ++k) {
      (void)manager.AppendAndPublish("inproc", {extra, extra});
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::vector<std::thread> clients;
  for (int i = 0; i < kThreads; ++i) clients.emplace_back(client, i);
  for (std::thread& t : clients) t.join();
  chaos.join();
  FaultInjector::Global()->Disarm();

  EXPECT_EQ(responses.load(), kThreads * kPerThread);
  EXPECT_TRUE(manager.Idle());
  EXPECT_EQ(Counter(manager.metrics(), kMetricServeRequests),
            kThreads * kPerThread);
  ExpectAccountingBalanced(manager.metrics());

  // After the storm every session still serves a clean request.
  for (uint64_t session : sessions) {
    ServeRequest request;
    request.query = ServeFixture::SelectiveQuery();
    ServeResponse resp = manager.Submit(session, request);
    EXPECT_TRUE(resp.status.ok()) << resp.status;
  }
  EXPECT_TRUE(manager.Idle());
  ExpectAccountingBalanced(manager.metrics());
}

// ---------------------------------------------------------------------
// Streaming bulk ingest through the serving layer.

TEST(ServingIngestTest, StreamIngestPublishesEpochAndServesQueries) {
  ServeFixture& f = Fixture();
  const std::string xml = f.data.doc.ToXml();
  Database db;
  SessionManager manager(&db, *f.data.tree, *f.mapping, ServeConfig{},
                         nullptr);
  const uint64_t base_epoch = manager.current_epoch();

  auto stats = manager.IngestAndPublish(xml, /*now=*/0);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->rows, 0);
  EXPECT_EQ(manager.current_epoch(), base_epoch + 1);

  // The admission catalog was rebuilt: a request admitted after the
  // publish plans against the ingested tables and sees every row.
  uint64_t session = manager.OpenSession();
  ServeRequest request;
  request.query = ServeFixture::ScanAllQuery();
  ServeResponse shed;
  uint64_t ticket = 0;
  ASSERT_EQ(manager.Offer(session, request, 0, &shed, &ticket),
            AdmitOutcome::kRun);
  ServeResponse resp = manager.ExecuteTicket(ticket, 0);
  manager.CompleteTicket(ticket, resp.work);
  ASSERT_TRUE(resp.status.ok()) << resp.status;
  EXPECT_EQ(resp.epoch, base_epoch + 1);
  EXPECT_GT(resp.rows_out, 0);
  EXPECT_EQ(resp.rows_out, db.FindTable("inproc")->row_count());
  EXPECT_TRUE(manager.Idle());
  ExpectAccountingBalanced(manager.metrics());
}

TEST(ServingIngestTest, IngestRefusedWhileMaterializedViewsExist) {
  ServeFixture local;
  ViewDef view;
  view.name = "mv_titles";
  view.base_table = "inproc";
  view.projected = {{"inproc", "title"}, {"inproc", "year"}};
  ASSERT_TRUE(local.db->CreateMaterializedView(view).ok());

  SessionManager manager(local.db.get(), *local.data.tree, *local.mapping,
                         ServeConfig{}, nullptr);
  auto refused = manager.IngestAndPublish(local.data.doc.ToXml());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Counter(manager.metrics(), kMetricServeEpochsPublished), 0);
}

TEST(ServingIngestTest, InjectedPublishFaultLeavesDatabaseUntouched) {
  ServeFixture& f = Fixture();
  Database db;
  SessionManager manager(&db, *f.data.tree, *f.mapping, ServeConfig{},
                         nullptr);
  const uint64_t base_epoch = manager.current_epoch();
  ScopedFaultInjection scope(kFaultSiteServeEpochPublish, 1);
  auto failed = manager.IngestAndPublish(f.data.doc.ToXml());
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(db.TableNames().empty());
  EXPECT_EQ(manager.current_epoch(), base_epoch);
  EXPECT_EQ(Counter(manager.metrics(), kMetricServeEpochsPublished), 0);
}

}  // namespace
}  // namespace xmlshred
