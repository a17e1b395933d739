// Observability-layer tests (DESIGN.md §9): the metrics registry's
// lock-free counters are exact under concurrency, the JSON exports are
// deterministic (goldens), the span tree a search emits is bit-identical
// at any thread count, SearchResult::report is populated from the per-run
// registry, and the what-if rollback counters survive the parallel
// costing reduction (the PR-3 aggregation fix, checked differentially
// under deterministic fault injection).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/run_report.h"
#include "common/trace.h"
#include "search/greedy.h"
#include "workload/movie.h"
#include "workload/query_gen.h"

namespace xmlshred {
namespace {

// --- Metrics registry ---

TEST(MetricsRegistryTest, CounterGaugeHistogramBasics) {
  MetricsRegistry registry;
  Counter* c = registry.counter("test.counter");
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->value(), 42);
  // Same name resolves to the same handle.
  EXPECT_EQ(registry.counter("test.counter"), c);

  Gauge* g = registry.gauge("test.gauge");
  g->Set(1.5);
  g->Add(2.5);
  EXPECT_EQ(g->value(), 4.0);

  Histogram* h = registry.histogram("test.hist");
  h->Observe(0.5);
  h->Observe(3.0);
  EXPECT_EQ(h->count(), 2);
  EXPECT_EQ(h->sum(), 3.5);
  EXPECT_EQ(h->bucket(Histogram::BucketIndex(0.5)), 1);
  EXPECT_EQ(h->bucket(Histogram::BucketIndex(3.0)), 1);
}

TEST(MetricsRegistryTest, HistogramBucketing) {
  // Bucket 0 holds everything below 1 (and non-finite garbage); bucket
  // i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(-5.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(0.999), 0);
  EXPECT_EQ(Histogram::BucketIndex(1.0), 1);
  EXPECT_EQ(Histogram::BucketIndex(1.999), 1);
  EXPECT_EQ(Histogram::BucketIndex(2.0), 2);
  EXPECT_EQ(Histogram::BucketIndex(3.999), 2);
  EXPECT_EQ(Histogram::BucketIndex(4.0), 3);
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 1.0);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 2.0);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 4.0);
}

TEST(MetricsRegistryTest, SnapshotJsonCarriesFullSchema) {
  MetricsRegistry registry;
  std::string json = registry.Snapshot().ToJson();
  // schema_version leads; every well-known metric is present even when
  // its stage never ran, so consumers can rely on key presence.
  EXPECT_EQ(json.rfind("{\n  \"schema_version\": 1,\n  \"counters\": {", 0),
            0u);
  for (const char* name :
       {kMetricParseXmlDocuments, kMetricParseXsdSchemas,
        kMetricParseDtdSchemas, kMetricShredRows, kMetricSearchRuns,
        kMetricSearchRounds, kMetricSearchTunerCalls,
        kMetricSearchWhatifRollbacks, kMetricCostCacheHits,
        kMetricAdvisorTuneCalls, kMetricPlannerQueriesPlanned,
        kMetricExecQueries, kMetricSearchWorkSpent, kMetricExecWork,
        kMetricSearchRoundCandidates, kMetricPlannerEstCost,
        kMetricExecRowsPerQuery}) {
    std::string key = "\"";
    key += name;
    key += '"';
    EXPECT_NE(json.find(key), std::string::npos) << name;
  }
}

TEST(MetricsRegistryTest, HistogramJsonGolden) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram(kMetricPlannerEstCost);
  h->Observe(0.5);
  h->Observe(3.0);
  h->Observe(3.0);
  std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"planner.est_cost\": {\"count\": 3, \"sum\": 6.5, "
                      "\"buckets\": [{\"le\": 1, \"count\": 1}, "
                      "{\"le\": 4, \"count\": 2}]}"),
            std::string::npos)
      << json;
}

TEST(MetricsRegistryTest, MergeAddsExactly) {
  MetricsRegistry a;
  a.counter("m.c")->Add(7);
  a.gauge("m.g")->Set(2.5);
  a.histogram("m.h")->Observe(3.0);

  MetricsRegistry b;
  b.counter("m.c")->Add(5);
  b.gauge("m.g")->Set(1.5);
  b.histogram("m.h")->Observe(3.0);
  b.Merge(a.Snapshot());

  MetricsSnapshot merged = b.Snapshot();
  EXPECT_EQ(merged.counters["m.c"], 12);
  EXPECT_EQ(merged.gauges["m.g"], 4.0);
  EXPECT_EQ(merged.histograms["m.h"].count, 2);
  EXPECT_EQ(merged.histograms["m.h"].sum, 6.0);
}

// Exactness under concurrency: this is the test TSan CI configs lean on.
TEST(MetricsRegistryTest, ConcurrentUpdatesAreExact) {
  MetricsRegistry registry;
  Counter* counter = registry.counter("hammer.counter");
  Gauge* gauge = registry.gauge("hammer.gauge");
  Histogram* hist = registry.histogram("hammer.hist");
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, counter, gauge, hist] {
      for (int i = 0; i < kIters; ++i) {
        counter->Increment();
        gauge->Add(1.0);
        hist->Observe(2.0);
        // Concurrent handle resolution races with the updates above.
        if (i % 4096 == 0) registry.counter("hammer.counter");
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(counter->value(), int64_t{kThreads} * kIters);
  // Adds of 1.0 are exact in double well past this total.
  EXPECT_EQ(gauge->value(), double{kThreads} * kIters);
  EXPECT_EQ(hist->count(), int64_t{kThreads} * kIters);
  EXPECT_EQ(hist->bucket(Histogram::BucketIndex(2.0)),
            int64_t{kThreads} * kIters);
}

// --- Trace sink ---

TEST(TraceSinkTest, GoldenJson) {
  TraceSink sink;
  {
    SpanScope root(&sink, "root");
    root.Attr("k", "v");
    root.Attr("n", 7);
    SpanScope child(&sink, "child");
    child.Attr("flag", true);
  }
  EXPECT_EQ(sink.ToJson(/*include_timing=*/false),
            "{\n"
            "  \"schema_version\": 1,\n"
            "  \"spans\": [\n"
            "    {\"name\": \"root\", \"attrs\": {\"k\": \"v\", "
            "\"n\": \"7\"}, \"duration_ns\": 0, \"children\": [\n"
            "      {\"name\": \"child\", \"attrs\": {\"flag\": \"true\"}, "
            "\"duration_ns\": 0, \"children\": []}\n"
            "    ]}\n"
            "  ]\n"
            "}\n");
}

TEST(TraceSinkTest, NullSinkIsInert) {
  SpanScope span(nullptr, "nothing");
  span.Attr("k", "v");
  EXPECT_FALSE(span.active());
}

TEST(TraceSinkTest, AdoptSplicesUnderOpenSpanInOrder) {
  TraceSink sink;
  TraceSink task_a;
  TraceSink task_b;
  { SpanScope a(&task_a, "task-a"); }
  { SpanScope b(&task_b, "task-b"); }
  {
    SpanScope round(&sink, "round");
    // Adoption order, not completion order, decides the layout.
    sink.Adopt(&task_a);
    sink.Adopt(&task_b);
    sink.Adopt(nullptr);  // no-op
  }
  ASSERT_EQ(sink.roots().size(), 1u);
  const TraceSpan& round = *sink.roots()[0];
  ASSERT_EQ(round.children.size(), 2u);
  EXPECT_EQ(round.children[0]->name, "task-a");
  EXPECT_EQ(round.children[1]->name, "task-b");
  EXPECT_TRUE(task_a.empty());
}

TEST(TraceSinkTest, TimingZeroedForStructuralComparison) {
  TraceSink timed(/*capture_timing=*/true);
  { SpanScope span(&timed, "work"); }
  TraceSink untimed;
  { SpanScope span(&untimed, "work"); }
  EXPECT_EQ(timed.ToJson(/*include_timing=*/false),
            untimed.ToJson(/*include_timing=*/false));
}

// --- End-to-end determinism and reporting ---

class ObservabilitySearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MovieConfig config;
    config.num_movies = 1200;
    data_ = GenerateMovie(config);
    auto stats = XmlStatistics::Collect(data_.doc, *data_.tree);
    ASSERT_TRUE(stats.ok()) << stats.status();
    stats_ = std::make_unique<XmlStatistics>(std::move(*stats));
    problem_.tree = data_.tree.get();
    problem_.stats = stats_.get();
    auto mapping = Mapping::Build(*data_.tree);
    ASSERT_TRUE(mapping.ok());
    CatalogDesc catalog = stats_->DeriveCatalog(*data_.tree, *mapping);
    problem_.storage_bound_pages = catalog.DataPages() * 6 + 1024;
    WorkloadSpec spec;
    spec.num_queries = 6;
    spec.seed = 11;
    auto workload = GenerateWorkload(*data_.tree, *stats_, spec);
    ASSERT_TRUE(workload.ok()) << workload.status();
    problem_.workload = std::move(*workload);
  }

  GeneratedData data_;
  std::unique_ptr<XmlStatistics> stats_;
  DesignProblem problem_;
};

TEST_F(ObservabilitySearchTest, SpanTreeIdenticalAcrossThreadCounts) {
  auto trace_of = [&](int threads) {
    TraceSink sink;
    DesignProblem problem = problem_;
    problem.exec.trace = &sink;
    GreedyOptions options;
    options.num_threads = threads;
    auto result = GreedySearch(problem, options);
    EXPECT_TRUE(result.ok()) << result.status();
    return sink.ToJson(/*include_timing=*/false);
  };
  std::string serial = trace_of(1);
  EXPECT_NE(serial.find("\"search.greedy\""), std::string::npos);
  EXPECT_NE(serial.find("\"search.round\""), std::string::npos);
  EXPECT_NE(serial.find("\"search.cost_candidate\""), std::string::npos);
  EXPECT_EQ(serial, trace_of(4));
}

TEST_F(ObservabilitySearchTest, CountersIdenticalAcrossThreadCounts) {
  auto counters_of = [&](int threads) {
    MetricsRegistry registry;
    DesignProblem problem = problem_;
    problem.exec.metrics = &registry;
    GreedyOptions options;
    options.num_threads = threads;
    auto result = GreedySearch(problem, options);
    EXPECT_TRUE(result.ok()) << result.status();
    // The whole counter snapshot, with no exemptions (elapsed time is a
    // gauge, not a counter).
    return registry.Snapshot().counters;
  };
  auto serial = counters_of(1);
  EXPECT_GT(serial.at(kMetricSearchRounds), 0);
  EXPECT_GT(serial.at(kMetricSearchTunerCalls), 0);
  EXPECT_EQ(serial.at(kMetricSearchRuns), 1);
  EXPECT_EQ(serial, counters_of(4));
}

TEST_F(ObservabilitySearchTest, RunReportPopulatedFromMetrics) {
  MetricsRegistry registry;
  problem_.exec.metrics = &registry;
  GreedyOptions options;
  options.num_threads = 1;
  auto result = GreedySearch(problem_, options);
  ASSERT_TRUE(result.ok()) << result.status();
  const RunReport& report = result->report;
  EXPECT_EQ(report.search.algorithm, "greedy");
  EXPECT_EQ(report.search.rounds, result->telemetry.rounds);
  EXPECT_EQ(report.search.tuner_calls, result->telemetry.tuner_calls);
  EXPECT_EQ(report.search.optimizer_calls,
            result->telemetry.optimizer_calls);
  EXPECT_EQ(report.search.candidates_selected,
            result->telemetry.candidates_selected);
  EXPECT_EQ(report.search.truncated, result->truncated);
  EXPECT_GT(report.advisor.tune_calls, 0);
  EXPECT_EQ(report.search.queries_derived,
            result->telemetry.queries_derived);
  // The registry the caller attached saw the same run.
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at(kMetricSearchRounds),
            report.search.rounds);
  std::string json = report.ToJson();
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"search\""), std::string::npos);
  EXPECT_NE(json.find("\"advisor\""), std::string::npos);
  EXPECT_EQ(json.find("\"cost_cache\""), std::string::npos);
  EXPECT_NE(json.find("\"storage\""), std::string::npos);
}

// The PR-3 aggregation fix, differentially: arm the what-if site so
// exactly one deterministic rollback happens somewhere in the run, and
// require the search-level telemetry to surface it at every thread count.
// Before the fix the parallel reduction dropped the workers' rollback and
// skip counters on the floor.
TEST_F(ObservabilitySearchTest,
       WhatifRollbacksSurviveParallelAggregation) {
  auto run = [&](int threads) {
    // Fires an Internal error on the first advisor what-if of the run;
    // the advisor rolls the hypothetical candidate back and skips it.
    ScopedFaultInjection armed(kFaultSiteAdvisorWhatIf, 1);
    GreedyOptions options;
    options.num_threads = threads;
    return GreedySearch(problem_, options);
  };
  auto serial = run(1);
  ASSERT_TRUE(serial.ok()) << serial.status();
  EXPECT_EQ(serial->telemetry.whatif_rollbacks, 1);
  EXPECT_EQ(serial->telemetry.advisor_candidates_skipped, 1);
  EXPECT_EQ(serial->report.advisor.whatif_rollbacks, 1);
  for (int threads : {2, 4}) {
    auto parallel = run(threads);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(parallel->telemetry.whatif_rollbacks,
              serial->telemetry.whatif_rollbacks);
    EXPECT_EQ(parallel->telemetry.advisor_candidates_skipped,
              serial->telemetry.advisor_candidates_skipped);
    EXPECT_EQ(parallel->report.advisor.whatif_rollbacks,
              serial->report.advisor.whatif_rollbacks);
  }
}

}  // namespace
}  // namespace xmlshred
