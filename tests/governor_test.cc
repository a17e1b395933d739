// Resource governor and anytime-search tests: budgets trip and stick,
// recursion depth stays independent, the fault injector is deterministic,
// and every search algorithm degrades gracefully — best-so-far design with
// `truncated` set — instead of failing when the budget runs out.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include <atomic>

#include "common/fault_injection.h"
#include "common/limits.h"
#include "common/thread_pool.h"
#include "search/evaluate.h"
#include "search/greedy.h"
#include "workload/movie.h"
#include "workload/query_gen.h"

namespace xmlshred {
namespace {

TEST(ResourceGovernorTest, WorkBudgetTripsAndSticks) {
  ResourceLimits limits;
  limits.work_units = 3;
  ResourceGovernor governor(limits);
  EXPECT_TRUE(governor.ChargeWork(2).ok());
  EXPECT_FALSE(governor.exhausted());
  Status tripped = governor.ChargeWork(2);
  EXPECT_EQ(tripped.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(governor.exhausted());
  // Sticky: even a free charge fails now, and telemetry keeps counting.
  EXPECT_FALSE(governor.ChargeWork(0).ok());
  EXPECT_FALSE(governor.CheckDeadline().ok());
  EXPECT_DOUBLE_EQ(governor.work_spent(), 4.0);
}

TEST(ResourceGovernorTest, RowAndMemoryCaps) {
  ResourceLimits limits;
  limits.max_rows = 10;
  limits.max_memory_bytes = 100;
  {
    ResourceGovernor governor(limits);
    EXPECT_TRUE(governor.ChargeRows(10).ok());
    EXPECT_EQ(governor.ChargeRows(1).code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(governor.rows_charged(), 11);
  }
  {
    ResourceGovernor governor(limits);
    EXPECT_TRUE(governor.ChargeMemory(100).ok());
    EXPECT_EQ(governor.ChargeMemory(1).code(),
              StatusCode::kResourceExhausted);
  }
}

TEST(ResourceGovernorTest, DeadlineTrips) {
  ResourceLimits limits;
  limits.wall_clock_seconds = 1e-9;
  ResourceGovernor governor(limits);
  // Any measurable elapsed time exceeds a nanosecond deadline.
  while (governor.elapsed_seconds() <= 1e-9) {
  }
  EXPECT_EQ(governor.CheckDeadline().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(governor.exhausted());
}

TEST(ResourceGovernorTest, RecursionDepthIndependentOfExhaustion) {
  ResourceLimits limits;
  limits.work_units = 1;
  limits.max_recursion_depth = 2;
  ResourceGovernor governor(limits);
  (void)governor.ChargeWork(5);  // trip the work budget
  ASSERT_TRUE(governor.exhausted());
  // Depth still works at shallow levels and still caps at its own limit.
  EXPECT_TRUE(governor.EnterRecursion().ok());
  EXPECT_TRUE(governor.EnterRecursion().ok());
  EXPECT_EQ(governor.EnterRecursion().code(),
            StatusCode::kResourceExhausted);
  governor.LeaveRecursion();
  governor.LeaveRecursion();
  EXPECT_EQ(governor.max_depth_seen(), 2);
}

TEST(ResourceGovernorTest, ResetRearms) {
  ResourceLimits limits;
  limits.work_units = 1;
  ResourceGovernor governor(limits);
  (void)governor.ChargeWork(2);
  ASSERT_TRUE(governor.exhausted());
  governor.Reset();
  EXPECT_FALSE(governor.exhausted());
  EXPECT_DOUBLE_EQ(governor.work_spent(), 0);
  EXPECT_TRUE(governor.ChargeWork(1).ok());
}

TEST(RecursionScopeTest, NullGovernorIsNoOp) {
  RecursionScope scope(nullptr);
  EXPECT_TRUE(scope.status().ok());
}

TEST(RecursionScopeTest, ReleasesDepthOnExit) {
  ResourceLimits limits;
  limits.max_recursion_depth = 1;
  ResourceGovernor governor(limits);
  {
    RecursionScope scope(&governor);
    EXPECT_TRUE(scope.status().ok());
    RecursionScope nested(&governor);
    EXPECT_FALSE(nested.status().ok());
  }
  RecursionScope again(&governor);
  EXPECT_TRUE(again.status().ok());
}

TEST(FaultInjectorTest, FiresOnNthHitExactlyOnce) {
  ScopedFaultInjection armed("test.site", 2);
  FaultInjector* injector = FaultInjector::Global();
  EXPECT_TRUE(injector->Check("test.site").ok());
  EXPECT_TRUE(injector->Check("other.site").ok());
  Status fired = injector->Check("test.site");
  EXPECT_EQ(fired.code(), StatusCode::kInternal);
  EXPECT_TRUE(injector->Check("test.site").ok());
  EXPECT_EQ(injector->faults_fired(), 1);
  EXPECT_EQ(injector->hits("test.site"), 3);
}

TEST(FaultInjectorTest, ProbabilisticStreamIsDeterministic) {
  auto draw = [](uint64_t seed) {
    ScopedFaultInjection armed(seed, 0.5);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!FaultInjector::Global()->Check("p.site").ok());
    }
    return fired;
  };
  EXPECT_EQ(draw(42), draw(42));
  EXPECT_NE(draw(42), draw(43));
}

// --- Anytime search: with a near-zero budget the algorithms still return
// a complete, valid design (truncated), and more budget never buys a worse
// design on this deterministic fixture. ---

class AnytimeSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MovieConfig config;
    config.num_movies = 400;
    data_ = GenerateMovie(config);
    auto stats = XmlStatistics::Collect(data_.doc, *data_.tree);
    ASSERT_TRUE(stats.ok()) << stats.status();
    stats_ = std::make_unique<XmlStatistics>(std::move(*stats));
    problem_.tree = data_.tree.get();
    problem_.stats = stats_.get();
    auto mapping = Mapping::Build(*data_.tree);
    ASSERT_TRUE(mapping.ok());
    problem_.storage_bound_pages =
        stats_->DeriveCatalog(*data_.tree, *mapping).DataPages() * 6 + 1024;
    WorkloadSpec spec;
    spec.num_queries = 4;
    spec.seed = 11;
    auto workload = GenerateWorkload(*data_.tree, *stats_, spec);
    ASSERT_TRUE(workload.ok()) << workload.status();
    problem_.workload = std::move(*workload);
  }

  Result<SearchResult> RunGreedy(int64_t work_units,
                                 const GreedyOptions& options = {}) {
    ResourceLimits limits;
    limits.work_units = work_units;
    ResourceGovernor governor(limits);
    problem_.exec.governor = &governor;
    auto result = GreedySearch(problem_, options);
    problem_.exec.governor = nullptr;
    return result;
  }

  GeneratedData data_;
  std::unique_ptr<XmlStatistics> stats_;
  DesignProblem problem_;
};

TEST_F(AnytimeSearchTest, TinyBudgetReturnsValidTruncatedDesign) {
  auto result = RunGreedy(1);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->truncated);
  EXPECT_FALSE(result->mapping.relations().empty());
  EXPECT_GT(result->telemetry.work_spent, 0);
  EXPECT_TRUE(std::isfinite(result->estimated_cost));
  EXPECT_GT(result->estimated_cost, 0);
  // The truncated design must still load the data and answer the workload.
  auto eval = EvaluateOnData(*result, data_.doc, problem_.workload);
  ASSERT_TRUE(eval.ok()) << eval.status();
  EXPECT_GT(eval->total_work, 0);
}

TEST_F(AnytimeSearchTest, CostMonotoneNonIncreasingInBudget) {
  // Exact costing keeps candidate and re-estimated costs identical, so
  // budget is the only variable across runs. Serial mode: which candidate
  // a truncated parallel round stops at is scheduling-dependent, and this
  // test is precisely about truncation points.
  GreedyOptions options;
  options.num_threads = 1;
  options.cost_derivation = false;
  options.merging = MergeStrategy::kNone;
  const int64_t budgets[] = {1, 20, 100, 1000, 1 << 20};
  double prev_cost = std::numeric_limits<double>::infinity();
  SearchResult last;
  for (int64_t budget : budgets) {
    auto result = RunGreedy(budget, options);
    ASSERT_TRUE(result.ok()) << "budget " << budget << ": "
                             << result.status();
    EXPECT_LE(result->estimated_cost, prev_cost * (1 + 1e-9))
        << "budget " << budget;
    prev_cost = result->estimated_cost;
    last = std::move(*result);
  }
  // The largest budget is effectively unlimited: the search converges and
  // matches a run with no governor at all.
  EXPECT_FALSE(last.truncated);
  problem_.exec.governor = nullptr;
  auto unbounded = GreedySearch(problem_, options);
  ASSERT_TRUE(unbounded.ok());
  EXPECT_NEAR(last.estimated_cost, unbounded->estimated_cost,
              1e-6 * unbounded->estimated_cost);
}

TEST_F(AnytimeSearchTest, TruncatedCostNeverBeatsUnbounded) {
  // Hybrid-or-better sanity: the converged greedy design is at least as
  // good as the hybrid-inlining baseline, and a truncated run is internally
  // consistent (its estimate matches a fresh mandatory costing).
  auto hybrid = EvaluateHybridInline(problem_);
  ASSERT_TRUE(hybrid.ok());
  auto converged = RunGreedy(1 << 20);
  ASSERT_TRUE(converged.ok());
  EXPECT_FALSE(converged->truncated);
  EXPECT_LE(converged->estimated_cost,
            hybrid->estimated_cost * (1 + 1e-9));
}

TEST_F(AnytimeSearchTest, NaiveGreedyHonoursBudget) {
  ResourceLimits limits;
  limits.work_units = 1;
  ResourceGovernor governor(limits);
  problem_.exec.governor = &governor;
  auto result = NaiveGreedySearch(problem_);
  problem_.exec.governor = nullptr;
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->truncated);
  EXPECT_FALSE(result->mapping.relations().empty());
  EXPECT_GT(result->telemetry.work_spent, 0);
}

TEST_F(AnytimeSearchTest, TwoStepHonoursBudget) {
  ResourceLimits limits;
  limits.work_units = 1;
  ResourceGovernor governor(limits);
  problem_.exec.governor = &governor;
  auto result = TwoStepSearch(problem_);
  problem_.exec.governor = nullptr;
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->truncated);
  EXPECT_FALSE(result->mapping.relations().empty());
}

TEST_F(AnytimeSearchTest, UnlimitedGovernorDoesNotTruncate) {
  ResourceGovernor governor;  // all limits unlimited
  problem_.exec.governor = &governor;
  auto result = GreedySearch(problem_);
  problem_.exec.governor = nullptr;
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->truncated);
  EXPECT_GT(result->telemetry.work_spent, 0);
}

// --- Concurrency: the governor and fault injector are shared by worker
// threads costing candidates in parallel; charges must never be lost, the
// budget must trip exactly once, and exhaustion from a worker thread must
// still yield the anytime best-so-far design. ---

TEST(ResourceGovernorTest, ConcurrentChargesAreExact) {
  ResourceLimits limits;
  limits.work_units = 50;
  ResourceGovernor governor(limits);
  std::atomic<int> successes{0};
  ParallelFor(8, 800, [&](int) {
    if (governor.ChargeWork(1.0).ok()) successes++;
  });
  // Every charge is recorded (sticky exhaustion still meters), and the
  // mutex makes the running sum exact: precisely `work_units` charges can
  // observe a sum within budget, no matter how threads interleave.
  EXPECT_DOUBLE_EQ(governor.work_spent(), 800.0);
  EXPECT_EQ(successes.load(), 50);
  EXPECT_TRUE(governor.exhausted());
}

TEST(ResourceGovernorTest, ConcurrentRecursionDepthBalances) {
  ResourceLimits limits;
  limits.max_recursion_depth = 512;
  ResourceGovernor governor(limits);
  ParallelFor(8, 400, [&](int) {
    RecursionScope outer(&governor);
    EXPECT_TRUE(outer.status().ok());
    RecursionScope inner(&governor);
    EXPECT_TRUE(inner.status().ok());
  });
  // All scopes unwound: a fresh scope starts at depth 1 again.
  EXPECT_TRUE(governor.EnterRecursion().ok());
  governor.LeaveRecursion();
  EXPECT_GE(governor.max_depth_seen(), 2);
}

TEST(FaultInjectorTest, ConcurrentNthHitFiresExactlyOnce) {
  ScopedFaultInjection armed("mt.site", 100);
  std::atomic<int> fired{0};
  ParallelFor(8, 400, [&](int) {
    if (!FaultInjector::Global()->Check("mt.site").ok()) fired++;
  });
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(FaultInjector::Global()->faults_fired(), 1);
  EXPECT_EQ(FaultInjector::Global()->hits("mt.site"), 400);
}

TEST_F(AnytimeSearchTest, ParallelTinyBudgetReturnsValidTruncatedDesign) {
  // Budget exhaustion lands on a worker thread mid-round; the search must
  // still come back with the anytime best-so-far design, truncated set,
  // and no partial state (the result evaluates end to end).
  GreedyOptions options;
  options.num_threads = 4;
  auto result = RunGreedy(1, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->truncated);
  EXPECT_FALSE(result->mapping.relations().empty());
  EXPECT_GT(result->telemetry.work_spent, 0);
  auto eval = EvaluateOnData(*result, data_.doc, problem_.workload);
  ASSERT_TRUE(eval.ok()) << eval.status();
  EXPECT_GT(eval->total_work, 0);
}

TEST_F(AnytimeSearchTest, ParallelExhaustionNeverBeatsConverged) {
  // Mid-search budgets: whichever candidate the parallel round stops at,
  // the returned design is a fully costed intermediate state — never
  // better than the converged design, never invalid.
  problem_.exec.governor = nullptr;
  auto converged = GreedySearch(problem_);
  ASSERT_TRUE(converged.ok()) << converged.status();
  for (int threads : {2, 8}) {
    for (int64_t budget : {5, 40, 200}) {
      GreedyOptions options;
      options.num_threads = threads;
      auto result = RunGreedy(budget, options);
      ASSERT_TRUE(result.ok()) << "threads=" << threads << " budget="
                               << budget << ": " << result.status();
      EXPECT_GE(result->estimated_cost,
                converged->estimated_cost * (1 - 1e-9))
          << "threads=" << threads << " budget=" << budget;
      EXPECT_FALSE(result->mapping.relations().empty());
      auto eval = EvaluateOnData(*result, data_.doc, problem_.workload);
      ASSERT_TRUE(eval.ok()) << eval.status();
    }
  }
}

TEST_F(AnytimeSearchTest, ParallelNaiveAndTwoStepHonourBudget) {
  for (int threads : {2, 8}) {
    NaiveOptions options;
    options.num_threads = threads;
    ResourceLimits limits;
    limits.work_units = 1;
    {
      ResourceGovernor governor(limits);
      problem_.exec.governor = &governor;
      auto naive = NaiveGreedySearch(problem_, options);
      problem_.exec.governor = nullptr;
      ASSERT_TRUE(naive.ok()) << naive.status();
      EXPECT_TRUE(naive->truncated);
      EXPECT_FALSE(naive->mapping.relations().empty());
    }
    {
      ResourceGovernor governor(limits);
      problem_.exec.governor = &governor;
      auto two_step = TwoStepSearch(problem_, options);
      problem_.exec.governor = nullptr;
      ASSERT_TRUE(two_step.ok()) << two_step.status();
      EXPECT_TRUE(two_step->truncated);
      EXPECT_FALSE(two_step->mapping.relations().empty());
    }
  }
}

TEST_F(AnytimeSearchTest, DeadlineTruncatesGreedy) {
  ResourceLimits limits;
  limits.wall_clock_seconds = 1e-9;  // expires immediately
  ResourceGovernor governor(limits);
  problem_.exec.governor = &governor;
  auto result = GreedySearch(problem_);
  problem_.exec.governor = nullptr;
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->truncated);
  EXPECT_FALSE(result->mapping.relations().empty());
}

}  // namespace
}  // namespace xmlshred
