// Continuous-telemetry tests (DESIGN.md §15): the windowed time-series
// recorder (boundary semantics, integer quantiles, digests), the
// structured event log and flight-recorder ring, head-sampled request
// traces, post-mortem capture on sheds / governor trips / faults, the
// admission-primitive edge cases that feed them, and the hot-path cost
// contract — with telemetry disabled the serving request path performs
// no clock reads and no allocations attributable to the recorder.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/timeseries.h"
#include "common/trace.h"
#include "mapping/mapping.h"
#include "mapping/shredder.h"
#include "rel/catalog.h"
#include "rel/index.h"
#include "serve/admission.h"
#include "serve/retry.h"
#include "serve/session.h"
#include "serve/telemetry.h"
#include "workload/dblp.h"
#include "xpath/xpath.h"

// ---------------------------------------------------------------------
// Global allocation counter: every operator new in this binary bumps it,
// so a test can assert the per-request allocation count of a steady-state
// serving cycle. Counts news only (not frees); aligned forms keep the
// default implementation (they never pair with these).

static std::atomic<long long> g_alloc_count{0};

static void* CountedAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace xmlshred {
namespace {

// ---------------------------------------------------------------------
// Shared fixture: a small shredded DBLP database with one index (the
// serving_test fixture, scaled down).

struct TelemetryFixture {
  GeneratedData data;
  std::unique_ptr<Mapping> mapping;
  std::unique_ptr<Database> db;

  TelemetryFixture() {
    DblpConfig config;
    config.num_inproceedings = 200;
    config.num_books = 20;
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

  static XPathQuery ScanAllQuery() {
    XPathQuery q;
    q.context = "inproceedings";
    q.projections = {"title"};
    return q;
  }

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
};

TelemetryFixture& Fixture() {
  static TelemetryFixture* fixture = new TelemetryFixture();
  return *fixture;
}

// ---------------------------------------------------------------------
// Hashing and sampling primitives.

TEST(Fnv1aTest, KnownVectors) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64Hex(""), "cbf29ce484222325");
  EXPECT_EQ(Fnv1a64Hex("a"), "af63dc4c8601ec8c");
  EXPECT_NE(Fnv1a64Hex("a"), Fnv1a64Hex("b"));
}

TEST(HeadSampleTest, PeriodEdgeCasesAndDeterminism) {
  EXPECT_FALSE(DeterministicHeadSample(1, 42, 0));
  EXPECT_FALSE(DeterministicHeadSample(1, 42, -3));
  for (uint64_t key = 0; key < 16; ++key) {
    EXPECT_TRUE(DeterministicHeadSample(7, key, 1));
  }
  int sampled = 0;
  for (uint64_t key = 0; key < 1000; ++key) {
    bool first = DeterministicHeadSample(99, key, 8);
    EXPECT_EQ(first, DeterministicHeadSample(99, key, 8));  // pure
    if (first) ++sampled;
  }
  // 1-in-8 over 1000 keys: loose bounds around the expectation of 125.
  EXPECT_GT(sampled, 60);
  EXPECT_LT(sampled, 200);
  // Different seeds pick different subsets.
  int agree = 0;
  for (uint64_t key = 0; key < 1000; ++key) {
    if (DeterministicHeadSample(99, key, 8) ==
        DeterministicHeadSample(100, key, 8)) {
      ++agree;
    }
  }
  EXPECT_LT(agree, 1000);
}

// ---------------------------------------------------------------------
// Structured event log + flight recorder.

TEST(EventRingTest, OverwritesOldestAndTailsOldestFirst) {
  EventRing ring(3);
  for (uint64_t i = 1; i <= 5; ++i) {
    LogEvent e;
    e.seq = i;
    e.time = static_cast<double>(i) * 10;
    e.name = "event." + std::to_string(i);
    ring.Append(std::move(e));
  }
  EXPECT_EQ(ring.total(), 5u);
  EXPECT_EQ(ring.size(), 3u);
  std::vector<LogEvent> tail = ring.Tail();
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].seq, 3u);
  EXPECT_EQ(tail[1].seq, 4u);
  EXPECT_EQ(tail[2].seq, 5u);
}

TEST(EventRingTest, ZeroCapacityIsInert) {
  EventRing ring(0);
  LogEvent e;
  e.seq = 1;
  ring.Append(std::move(e));
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_TRUE(ring.Tail().empty());
}

TEST(LogEventTest, JsonRenderingEscapesAndOrders) {
  LogEvent e;
  e.seq = 7;
  e.time = 120.5;
  e.name = "shed.queue_full";
  e.attrs = {{"request_id", "9"}, {"note", "line\nbreak \"q\""}};
  std::string out;
  AppendLogEventJson(&out, e);
  EXPECT_EQ(out,
            "{\"seq\": 7, \"time\": 120.5, \"name\": \"shed.queue_full\", "
            "\"attrs\": {\"request_id\": \"9\", "
            "\"note\": \"line\\nbreak \\\"q\\\"\"}}");
  std::string lines = LogEventsToJsonLines({e, e});
  EXPECT_EQ(lines, out + "\n" + out + "\n");
}

// ---------------------------------------------------------------------
// Windowed time-series recorder.

TEST(QuantilesTest, IntegerRankOverBucketDeltas) {
  EXPECT_EQ(QuantilesFromBucketDeltas({}).count, 0);
  EXPECT_EQ(QuantilesFromBucketDeltas({}).p99, 0);

  // One bucket: every quantile is its upper bound.
  WindowQuantiles single = QuantilesFromBucketDeltas({{3, 10}});
  EXPECT_EQ(single.count, 10);
  EXPECT_EQ(single.p50, 8.0);
  EXPECT_EQ(single.p99, 8.0);

  // 50 in bucket 1, 45 in bucket 2, 5 in bucket 3: rank(50)=50 lands in
  // bucket 1 (ub 2), rank(95)=95 in bucket 2 (ub 4), rank(99)=99 in
  // bucket 3 (ub 8).
  WindowQuantiles q = QuantilesFromBucketDeltas({{1, 50}, {2, 45}, {3, 5}});
  EXPECT_EQ(q.count, 100);
  EXPECT_EQ(q.p50, 2.0);
  EXPECT_EQ(q.p95, 4.0);
  EXPECT_EQ(q.p99, 8.0);
}

TEST(TimeSeriesRecorderTest, BoundaryEventLandsInNextWindow) {
  MetricsRegistry registry;
  TimeSeriesOptions opts;
  opts.window_width = 10;
  TimeSeriesRecorder rec(&registry, opts);
  ASSERT_TRUE(rec.enabled());

  // Event at t=5: advance first, then record its effects.
  rec.AdvanceTo(5);
  registry.counter(kMetricServeCompleted)->Increment();
  registry.gauge(kMetricServeCompletedWork)->Add(40.0);

  // Event exactly on the t=10 boundary: the window [0,10) closes BEFORE
  // the effects land, so this completion belongs to window 1.
  rec.AdvanceTo(10);
  registry.counter(kMetricServeCompleted)->Increment();
  registry.counter(kMetricServeShedBudget)->Increment();

  rec.Finish(15);
  const auto& windows = rec.windows();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].start, 0.0);
  EXPECT_EQ(windows[0].end, 10.0);
  EXPECT_EQ(windows[0].completed, 1);
  EXPECT_EQ(windows[0].shed, 0);
  EXPECT_EQ(windows[0].completed_work, 40.0);
  EXPECT_EQ(windows[0].goodput, 4.0);
  EXPECT_EQ(windows[0].deadline_hit_rate, 1.0);
  EXPECT_EQ(windows[1].start, 10.0);
  EXPECT_EQ(windows[1].end, 15.0);
  EXPECT_EQ(windows[1].completed, 1);
  EXPECT_EQ(windows[1].shed, 1);
  // Counter deltas are per-window, keyed by the full serve.* schema.
  EXPECT_EQ(windows[0].counters.at("serve.completed"), 1);
  EXPECT_EQ(windows[1].counters.at("serve.shed_budget"), 1);
  // Virtual-time recording never reads a clock.
  EXPECT_EQ(rec.clock_reads(), 0);
  // Two windows -> two JSON lines; digest is stable.
  std::string lines = rec.ToJsonLines();
  EXPECT_EQ(std::count(lines.begin(), lines.end(), '\n'), 2);
  EXPECT_EQ(rec.Digest(), Fnv1a64Hex(lines));
}

TEST(TimeSeriesRecorderTest, DisabledRecorderIsInert) {
  MetricsRegistry registry;
  TimeSeriesOptions opts;
  opts.window_width = 0;
  TimeSeriesRecorder rec(&registry, opts);
  EXPECT_FALSE(rec.enabled());
  rec.AdvanceTo(100);
  rec.Finish(200);
  EXPECT_TRUE(rec.windows().empty());
  EXPECT_EQ(rec.clock_reads(), 0);
}

TEST(TimeSeriesRecorderTest, DigestExcludesWallTimestamps) {
  MetricsRegistry registry;
  TimeSeriesOptions wall_opts;
  wall_opts.window_width = 10;
  wall_opts.capture_wall_time = true;
  TimeSeriesRecorder wall(&registry, wall_opts);
  wall.AdvanceTo(5);
  registry.counter(kMetricServeCompleted)->Increment();
  wall.Finish(12);
  ASSERT_EQ(wall.windows().size(), 2u);
  EXPECT_GT(wall.clock_reads(), 0);
  EXPECT_NE(wall.ToJsonLines().find("wall_ns"), std::string::npos);
  // The digest scrubs wall_ns, so it matches a virtual-only recorder
  // that saw the same schedule.
  MetricsRegistry registry2;
  TimeSeriesOptions virt_opts;
  virt_opts.window_width = 10;
  TimeSeriesRecorder virt(&registry2, virt_opts);
  virt.AdvanceTo(5);
  registry2.counter(kMetricServeCompleted)->Increment();
  virt.Finish(12);
  EXPECT_EQ(virt.ToJsonLines().find("wall_ns"), std::string::npos);
  EXPECT_EQ(wall.Digest(), virt.Digest());
}

// ---------------------------------------------------------------------
// Admission-primitive edge cases (satellites).

TEST(AdmissionEdgeTest, ZeroCapacityQueueIsAlwaysFull) {
  DeadlineQueue q(0);
  EXPECT_TRUE(q.Full());
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.capacity(), 0u);
}

TEST(AdmissionEdgeTest, ZeroCapacityPoolIsUnlimited) {
  WorkBudgetPool pool(0);
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(pool.TryReserve(1e9));
  }
  EXPECT_EQ(pool.reservations(), 64);
}

TEST(AdmissionEdgeTest, PoolAdmitsExactlyToCapacityBoundary) {
  WorkBudgetPool pool(10.0);
  EXPECT_TRUE(pool.TryReserve(4.0));
  EXPECT_TRUE(pool.TryReserve(6.0));  // lands exactly on capacity
  EXPECT_EQ(pool.outstanding(), 10.0);
  EXPECT_FALSE(pool.TryReserve(0.0625));  // any overshoot sheds
  pool.Release(4.0);
  pool.Release(6.0);
  EXPECT_EQ(pool.outstanding(), 0.0);  // snapped exactly to zero
  EXPECT_EQ(pool.reservations(), 0);
  // An empty pool admits one oversized request rather than starving it.
  EXPECT_TRUE(pool.TryReserve(1000.0));
}

TEST(RetryBackoffTest, HintAtExactScheduleBoundary) {
  RetryPolicy policy;
  policy.jitter_fraction = 0;  // isolate the deterministic schedule
  // First retry: schedule is base_backoff; a hint exactly equal to it
  // yields exactly that value (no off-by-one between max() arms).
  EXPECT_EQ(RetryBackoff(policy, 1, 2, policy.base_backoff),
            policy.base_backoff);
  // A hint above the schedule wins outright.
  EXPECT_EQ(RetryBackoff(policy, 1, 2, 100.0), 100.0);
  // Deep attempts cap at max_backoff; a hint exactly at the cap stays
  // at the cap.
  EXPECT_EQ(RetryBackoff(policy, 1, 64, policy.max_backoff),
            policy.max_backoff);
  EXPECT_EQ(RetryBackoff(policy, 1, 64, 0), policy.max_backoff);
}

TEST(RetryBackoffTest, JitterIsDeterministicPerKeyAndAttempt) {
  RetryPolicy policy;
  double a = RetryBackoff(policy, 77, 2, 0);
  EXPECT_EQ(a, RetryBackoff(policy, 77, 2, 0));
  EXPECT_NE(a, RetryBackoff(policy, 78, 2, 0));
  EXPECT_GE(a, policy.base_backoff);
  EXPECT_LT(a, policy.base_backoff * (1.0 + policy.jitter_fraction));
}

// ---------------------------------------------------------------------
// SessionManager integration: windows, traces, post-mortems.

ServeConfig TelemetryConfig(double window_width) {
  ServeConfig config;
  config.telemetry.window_width = window_width;
  config.telemetry.trace_sample_period = 1;  // sample everything
  config.telemetry.rng_seed = 42;
  config.telemetry.flight_recorder_capacity = 16;
  config.telemetry.postmortem_limit = 4;
  config.telemetry.keep_event_log = true;
  return config;
}

TEST(ServeTelemetryTest, WindowRolloverExactlyOnShedEvent) {
  TelemetryFixture& f = Fixture();
  ServeConfig config = TelemetryConfig(/*window_width=*/100.0);
  config.max_concurrent = 1;
  config.queue_capacity = 0;  // always-full queue: busy slot => shed
  SessionManager manager(f.db.get(), *f.data.tree, *f.mapping, config,
                         nullptr);
  uint64_t sid = manager.OpenSession();

  ServeRequest scan;
  scan.query = TelemetryFixture::ScanAllQuery();
  ServeResponse shed;
  uint64_t ticket = 0;
  ASSERT_EQ(manager.Offer(sid, scan, /*now=*/1.0, &shed, &ticket),
            AdmitOutcome::kRun);

  // Second offer exactly on the window boundary: the [0,100) window must
  // close BEFORE the shed lands, so windows[0].shed == 0 and the shed is
  // the first event of window 1.
  ServeRequest second;
  second.query = TelemetryFixture::SelectiveQuery();
  ServeResponse shed2;
  uint64_t t2 = 0;
  ASSERT_EQ(manager.Offer(sid, second, /*now=*/100.0, &shed2, &t2),
            AdmitOutcome::kShed);
  EXPECT_EQ(shed2.status.code(), StatusCode::kResourceExhausted);

  ServeResponse done = manager.ExecuteTicket(ticket, 100.0);
  EXPECT_TRUE(done.status.ok()) << done.status.ToString();
  manager.CompleteTicket(ticket, 100.0 + done.work);
  manager.FinalizeTelemetry(100.0 + done.work + 1.0);

  ServeTelemetry* telemetry = manager.telemetry();
  ASSERT_NE(telemetry, nullptr);
  const auto& windows = telemetry->recorder().windows();
  ASSERT_GE(windows.size(), 2u);
  EXPECT_EQ(windows[0].end, 100.0);
  EXPECT_EQ(windows[0].shed, 0);
  EXPECT_EQ(windows[1].shed, 1);

  // The shed captured a post-mortem: trigger, recent events, manager
  // state, and the shed request's plan explain.
  ASSERT_GE(telemetry->postmortems().size(), 1u);
  const PostmortemBundle& bundle = telemetry->postmortems()[0];
  EXPECT_EQ(bundle.trigger, "shed.queue_full");
  EXPECT_EQ(bundle.time, 100.0);
  EXPECT_EQ(bundle.request_id, 2u);
  EXPECT_EQ(bundle.running, 1);
  EXPECT_FALSE(bundle.events.empty());
  EXPECT_FALSE(bundle.plan_explain.empty());
  std::string json = bundle.ToJson();
  EXPECT_NE(json.find("\"trigger\": \"shed.queue_full\""),
            std::string::npos);
  EXPECT_NE(json.find("\"events\": ["), std::string::npos);
  // Virtual-time drivers never read a clock, even with telemetry on.
  EXPECT_EQ(telemetry->clock_reads(), 0);
}

TEST(ServeTelemetryTest, SampledTraceCoversRequestLifecycle) {
  TelemetryFixture& f = Fixture();
  ServeConfig config = TelemetryConfig(/*window_width=*/1000.0);
  SessionManager manager(f.db.get(), *f.data.tree, *f.mapping, config,
                         nullptr);
  uint64_t sid = manager.OpenSession();
  ServeRequest req;
  req.query = TelemetryFixture::SelectiveQuery();
  ServeResponse shed;
  uint64_t ticket = 0;
  ASSERT_EQ(manager.Offer(sid, req, 1.0, &shed, &ticket),
            AdmitOutcome::kRun);
  ServeResponse done = manager.ExecuteTicket(ticket, 1.0);
  ASSERT_TRUE(done.status.ok()) << done.status.ToString();
  manager.CompleteTicket(ticket, 1.0 + done.work);
  manager.FinalizeTelemetry(1.0 + done.work);

  ServeTelemetry* telemetry = manager.telemetry();
  ASSERT_NE(telemetry, nullptr);
  EXPECT_EQ(telemetry->traces_sampled(), 1u);
  std::string traces = telemetry->TracesJsonLines();
  EXPECT_NE(traces.find("\"request_id\": 1"), std::string::npos);
  for (const char* span : {"planning", "budget", "admission", "execute",
                           "complete"}) {
    EXPECT_NE(traces.find(std::string("\"name\": \"") + span + "\""),
              std::string::npos)
        << "missing span " << span << " in " << traces;
  }
  EXPECT_NE(traces.find("\"outcome\": \"completed\""), std::string::npos);
  // The full event log retained the lifecycle events in order.
  std::string events = telemetry->EventsJsonLines();
  EXPECT_NE(events.find("request.admitted"), std::string::npos);
  EXPECT_NE(events.find("execute.done"), std::string::npos);
  EXPECT_NE(events.find("request.complete"), std::string::npos);
}

TEST(ServeTelemetryTest, QueueExpiryAtExactDeadlineBoundary) {
  TelemetryFixture& f = Fixture();
  ServeConfig config = TelemetryConfig(/*window_width=*/1000.0);
  config.max_concurrent = 1;
  config.queue_capacity = 4;
  SessionManager manager(f.db.get(), *f.data.tree, *f.mapping, config,
                         nullptr);
  uint64_t sid = manager.OpenSession();

  ServeRequest scan;
  scan.query = TelemetryFixture::ScanAllQuery();
  ServeResponse shed;
  uint64_t running = 0;
  ASSERT_EQ(manager.Offer(sid, scan, 0.0, &shed, &running),
            AdmitOutcome::kRun);

  ServeRequest queued;
  queued.query = TelemetryFixture::SelectiveQuery();
  queued.deadline_work = 10.0;  // deadline_abs = 10
  uint64_t waiting = 0;
  ASSERT_EQ(manager.Offer(sid, queued, 0.0, &shed, &waiting),
            AdmitOutcome::kQueued);

  manager.ExecuteTicket(running, 0.0);
  // Completion lands exactly on the queued request's deadline: expiry
  // uses now >= deadline, so the boundary expires rather than runs.
  EXPECT_EQ(manager.CompleteTicket(running, 10.0), 0u);
  EXPECT_FALSE(manager.HasPending(waiting));
  manager.FinalizeTelemetry(10.0);

  ServeTelemetry* telemetry = manager.telemetry();
  ASSERT_NE(telemetry, nullptr);
  bool found = false;
  for (const PostmortemBundle& b : telemetry->postmortems()) {
    if (b.trigger == "expired.queue") {
      found = true;
      EXPECT_EQ(b.time, 10.0);
      EXPECT_FALSE(b.plan_explain.empty());
    }
  }
  EXPECT_TRUE(found);
  // Both requests' traces finished (one completed, one expired).
  EXPECT_EQ(telemetry->traces_sampled(), 2u);
  EXPECT_NE(telemetry->TracesJsonLines().find("expired_in_queue"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Hot-path cost contract.

TEST(ServeTelemetryCostTest, DisabledTelemetryAddsNoAllocationsOrClocks) {
  TelemetryFixture& f = Fixture();
  ServeConfig disabled_config;  // telemetry all-off by default
  ASSERT_FALSE(disabled_config.telemetry.enabled());
  SessionManager disabled(f.db.get(), *f.data.tree, *f.mapping,
                          disabled_config, nullptr);
  EXPECT_EQ(disabled.telemetry(), nullptr);
  uint64_t sid = disabled.OpenSession();

  ServeRequest req;
  req.query = TelemetryFixture::SelectiveQuery();
  auto cycle = [&](SessionManager& manager, uint64_t session,
                   double now) {
    ServeResponse shed;
    uint64_t ticket = 0;
    EXPECT_EQ(manager.Offer(session, req, now, &shed, &ticket),
              AdmitOutcome::kRun);
    ServeResponse done = manager.ExecuteTicket(ticket, now);
    EXPECT_TRUE(done.status.ok()) << done.status.ToString();
    manager.CompleteTicket(ticket, now + done.work);
    return now + done.work + 1.0;
  };

  // Warm the caches (metric handles, map nodes, executor scratch), then
  // require the steady-state allocation count of a full request cycle to
  // be reproducible — if the disabled path allocated per-request
  // telemetry state, the counts would still match; combined with
  // telemetry() == nullptr this pins "no recorder work at all", and any
  // future allocation added to the disabled path shows up as a diff
  // between enabled and disabled baselines below.
  double now = 0;
  for (int i = 0; i < 3; ++i) now = cycle(disabled, sid, now);
  long long before4 = g_alloc_count.load(std::memory_order_relaxed);
  now = cycle(disabled, sid, now);
  long long cycle4 = g_alloc_count.load(std::memory_order_relaxed) - before4;
  long long before5 = g_alloc_count.load(std::memory_order_relaxed);
  now = cycle(disabled, sid, now);
  long long cycle5 = g_alloc_count.load(std::memory_order_relaxed) - before5;
  EXPECT_EQ(cycle4, cycle5);

  // The same cycle with telemetry enabled allocates strictly more (the
  // recorder, events, and trace spans) — evidence the counter actually
  // observes the telemetry work the disabled path skips.
  SessionManager enabled(f.db.get(), *f.data.tree, *f.mapping,
                         TelemetryConfig(/*window_width=*/50.0), nullptr);
  ASSERT_NE(enabled.telemetry(), nullptr);
  uint64_t esid = enabled.OpenSession();
  double enow = 0;
  for (int i = 0; i < 3; ++i) enow = cycle(enabled, esid, enow);
  long long ebefore = g_alloc_count.load(std::memory_order_relaxed);
  enow = cycle(enabled, esid, enow);
  long long ecycle = g_alloc_count.load(std::memory_order_relaxed) - ebefore;
  EXPECT_GT(ecycle, cycle5);
  // And even enabled, virtual-time telemetry reads no clock.
  EXPECT_EQ(enabled.telemetry()->clock_reads(), 0);
}

}  // namespace
}  // namespace xmlshred
