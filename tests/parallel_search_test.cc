// Thread-count equivalence tests for parallel candidate costing: for
// every search algorithm and every ablation flag, a run with
// num_threads = k must return a SearchResult bit-identical to the
// num_threads = 1 run — same mapping, same physical configuration, same
// estimated cost, same telemetry (DESIGN.md §8). The only field excluded
// is the wall-clock elapsed_seconds.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/limits.h"
#include "common/thread_pool.h"
#include "search/greedy.h"
#include "workload/dblp.h"
#include "workload/movie.h"
#include "workload/query_gen.h"

namespace xmlshred {
namespace {

// Canonical text form of a physical configuration, covering everything
// cost derivation and evaluation read from it.
std::string ConfigSignature(const TunerResult& config) {
  std::ostringstream out;
  out.precision(17);
  for (const IndexDesc& idx : config.indexes) {
    out << "I|" << idx.def.table << "|" << idx.def.name << "|k";
    for (int col : idx.def.key_columns) out << ":" << col;
    out << "|i";
    for (int col : idx.def.included_columns) out << ":" << col;
    out << "|u" << idx.def.unique << "|p" << idx.NumPages() << "\n";
  }
  for (const ViewDesc& view : config.views) {
    out << "V|" << view.def.base_table << "|" << view.def.name << "|j"
        << (view.def.join_child ? *view.def.join_child : "") << "|p"
        << view.NumPages() << "\n";
  }
  out << "cost=" << config.total_cost
      << " maint=" << config.maintenance_cost
      << " pages=" << config.structure_pages
      << " trunc=" << config.truncated << "\n";
  for (double c : config.query_costs) out << "q=" << c << "\n";
  for (const auto& objects : config.query_objects) {
    out << "o";
    for (const std::string& obj : objects) out << ":" << obj;
    out << "\n";
  }
  return out.str();
}

// Canonical text form of a mapping's structure: each relation's full
// schema, its anchor and leaf node ids, its parent links, and its
// repetition-split overflow index.
std::string MappingSignature(const Mapping& mapping) {
  std::ostringstream out;
  for (const MappedRelation& rel : mapping.relations()) {
    out << rel.ToTableSchema().ToString() << "|o" << rel.rep_overflow_from
        << "|a";
    for (int id : rel.anchor_node_ids) out << ":" << id;
    out << "|p";
    for (const std::string& parent : rel.parent_tables) out << ":" << parent;
    for (const MappedColumn& col : rel.columns) {
      out << "|c";
      for (int id : col.node_ids) out << ":" << id;
    }
    out << "\n";
  }
  return out.str();
}

// Asserts two SearchResults are identical apart from the wall-clock
// elapsed_seconds.
void ExpectEquivalent(const SearchResult& serial,
                      const SearchResult& parallel) {
  EXPECT_EQ(serial.algorithm, parallel.algorithm);
  EXPECT_EQ(serial.truncated, parallel.truncated);
  // Bit-identical cost: no tolerance.
  EXPECT_EQ(serial.estimated_cost, parallel.estimated_cost);
  EXPECT_EQ(serial.mapping.ToString(), parallel.mapping.ToString());
  EXPECT_EQ(MappingSignature(serial.mapping),
            MappingSignature(parallel.mapping));
  EXPECT_EQ(ConfigSignature(serial.configuration),
            ConfigSignature(parallel.configuration));
  const SearchTelemetry& a = serial.telemetry;
  const SearchTelemetry& b = parallel.telemetry;
  EXPECT_EQ(a.transformations_searched, b.transformations_searched);
  EXPECT_EQ(a.tuner_calls, b.tuner_calls);
  EXPECT_EQ(a.optimizer_calls, b.optimizer_calls);
  EXPECT_EQ(a.queries_derived, b.queries_derived);
  EXPECT_EQ(a.candidates_selected, b.candidates_selected);
  EXPECT_EQ(a.candidates_after_merging, b.candidates_after_merging);
  EXPECT_EQ(a.candidates_skipped, b.candidates_skipped);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.work_spent, b.work_spent);
  EXPECT_EQ(a.whatif_rollbacks, b.whatif_rollbacks);
  EXPECT_EQ(a.advisor_candidates_skipped, b.advisor_candidates_skipped);
}

class ParallelSearchTest : public ::testing::Test {
 protected:
  void SetUpMovie(int64_t movies = 1500) {
    MovieConfig config;
    config.num_movies = movies;
    data_ = GenerateMovie(config);
    Init();
  }

  void SetUpDblp(int64_t pubs = 1500) {
    DblpConfig config;
    config.num_inproceedings = pubs;
    config.num_books = pubs / 10;
    data_ = GenerateDblp(config);
    Init();
  }

  void Init() {
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

TEST_F(ParallelSearchTest, GreedyMatchesSerialAcrossThreadCounts) {
  SetUpMovie();
  GreedyOptions serial_options;
  serial_options.num_threads = 1;
  auto serial = GreedySearch(problem_, serial_options);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_GT(serial->telemetry.transformations_searched, 0);
  for (int threads : {2, 4, 8}) {
    GreedyOptions options;
    options.num_threads = threads;
    auto parallel = GreedySearch(problem_, options);
    ASSERT_TRUE(parallel.ok()) << "threads=" << threads << ": "
                               << parallel.status();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectEquivalent(*serial, *parallel);
  }
}

TEST_F(ParallelSearchTest, GreedyDefaultThreadCountMatchesSerial) {
  SetUpMovie();
  GreedyOptions serial_options;
  serial_options.num_threads = 1;
  auto serial = GreedySearch(problem_, serial_options);
  ASSERT_TRUE(serial.ok()) << serial.status();
  // num_threads = 0 resolves to the hardware thread count.
  auto parallel = GreedySearch(problem_);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  ExpectEquivalent(*serial, *parallel);
}

TEST_F(ParallelSearchTest, GreedyAblationsMatchSerial) {
  SetUpDblp();
  // One ablation per optimization of Figs. 7-9: each takes a different
  // code path through the round loop and the costing, and each must stay
  // bit-identical under parallel costing.
  struct Ablation {
    const char* name;
    GreedyOptions options;
  };
  std::vector<Ablation> ablations(5);
  ablations[0].name = "no_prune_subsumed";
  ablations[0].options.prune_subsumed = false;
  ablations[1].name = "no_candidate_selection";
  ablations[1].options.candidate_selection = false;
  ablations[2].name = "no_merging";
  ablations[2].options.merging = MergeStrategy::kNone;
  ablations[3].name = "exhaustive_merging";
  ablations[3].options.merging = MergeStrategy::kExhaustive;
  ablations[4].name = "no_cost_derivation";
  ablations[4].options.cost_derivation = false;
  for (Ablation& ablation : ablations) {
    SCOPED_TRACE(ablation.name);
    ablation.options.num_threads = 1;
    auto serial = GreedySearch(problem_, ablation.options);
    ASSERT_TRUE(serial.ok()) << serial.status();
    ablation.options.num_threads = 4;
    auto parallel = GreedySearch(problem_, ablation.options);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ExpectEquivalent(*serial, *parallel);
  }
}

TEST_F(ParallelSearchTest, NaiveGreedyMatchesSerialAcrossThreadCounts) {
  SetUpMovie(800);
  NaiveOptions serial_options;
  serial_options.num_threads = 1;
  auto serial = NaiveGreedySearch(problem_, serial_options);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_GT(serial->telemetry.transformations_searched, 0);
  for (int threads : {2, 4, 8}) {
    NaiveOptions options;
    options.num_threads = threads;
    auto parallel = NaiveGreedySearch(problem_, options);
    ASSERT_TRUE(parallel.ok()) << "threads=" << threads << ": "
                               << parallel.status();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectEquivalent(*serial, *parallel);
  }
}

TEST_F(ParallelSearchTest, TwoStepMatchesSerialAcrossThreadCounts) {
  SetUpDblp(800);
  NaiveOptions serial_options;
  serial_options.num_threads = 1;
  auto serial = TwoStepSearch(problem_, serial_options);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_GT(serial->telemetry.transformations_searched, 0);
  for (int threads : {2, 4, 8}) {
    NaiveOptions options;
    options.num_threads = threads;
    auto parallel = TwoStepSearch(problem_, options);
    ASSERT_TRUE(parallel.ok()) << "threads=" << threads << ": "
                               << parallel.status();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectEquivalent(*serial, *parallel);
  }
}

TEST_F(ParallelSearchTest, GenerousGovernorWorkSpentMatchesSerial) {
  // With a budget the search never exhausts, every charge is identical
  // across thread counts (whole work units, summed exactly), so even
  // work_spent must match the serial run.
  SetUpMovie(800);
  ResourceLimits limits;
  limits.work_units = 1 << 24;
  auto run = [&](int threads) {
    ResourceGovernor governor(limits);
    problem_.exec.governor = &governor;
    GreedyOptions options;
    options.num_threads = threads;
    auto result = GreedySearch(problem_, options);
    problem_.exec.governor = nullptr;
    return result;
  };
  auto serial = run(1);
  ASSERT_TRUE(serial.ok()) << serial.status();
  EXPECT_FALSE(serial->truncated);
  EXPECT_GT(serial->telemetry.work_spent, 0);
  for (int threads : {2, 4}) {
    auto parallel = run(threads);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectEquivalent(*serial, *parallel);
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  std::vector<std::atomic<int>> counts(257);
  for (auto& c : counts) c.store(0);
  ParallelFor(8, 257, [&](int i) { counts[static_cast<size_t>(i)]++; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, SerialPathRunsInOrderInline) {
  std::vector<int> order;
  ParallelFor(1, 5, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, StopPredicateSkipsUnstartedTasks) {
  std::atomic<int> ran{0};
  std::atomic<bool> stop{false};
  ParallelFor(
      4, 1000,
      [&](int i) {
        ran++;
        if (i == 0) stop.store(true);
      },
      [&] { return stop.load(); });
  // Everything already started finishes; tasks whose turn comes after the
  // stop are skipped. At least one task ran, and typically far from all.
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 1000);
}

TEST(ThreadPoolTest, ResolveNumThreads) {
  EXPECT_EQ(ResolveNumThreads(3), 3);
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_GE(ResolveNumThreads(0), 1);
  EXPECT_GE(ResolveNumThreads(-2), 1);
}

}  // namespace
}  // namespace xmlshred
