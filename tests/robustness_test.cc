// Robustness: every parser in the system must reject malformed input with
// a Status — never crash, hang, or accept garbage — including randomly
// mutated variants of valid documents, pathologically deep inputs, and
// injected faults in the catalog/advisor layers.

#include <gtest/gtest.h>

#include <string>

#include "common/fault_injection.h"
#include "common/limits.h"
#include "common/rng.h"
#include "database_digest.h"
#include "mapping/mapping.h"
#include "mapping/shredder.h"
#include "mapping/stream_shredder.h"
#include "mapping/transforms.h"
#include "search/evaluate.h"
#include "search/greedy.h"
#include "sql/parser.h"
#include "tune/advisor.h"
#include "workload/dblp.h"
#include "workload/movie.h"
#include "workload/query_gen.h"
#include "xml/document.h"
#include "xml/dtd_parser.h"
#include "xml/xsd_parser.h"
#include "xpath/xpath.h"

namespace xmlshred {
namespace {

// Random mutation of a valid input string.
std::string Mutate(const std::string& input, Rng* rng) {
  std::string out = input;
  int edits = 1 + static_cast<int>(rng->Uniform(0, 3));
  for (int e = 0; e < edits && !out.empty(); ++e) {
    size_t pos = static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(out.size()) - 1));
    switch (rng->Uniform(0, 2)) {
      case 0:  // delete a span
        out.erase(pos, static_cast<size_t>(rng->Uniform(1, 5)));
        break;
      case 1:  // flip a character
        out[pos] = static_cast<char>(rng->Uniform(32, 126));
        break;
      default:  // duplicate a span
        out.insert(pos, out.substr(pos, static_cast<size_t>(
                                            rng->Uniform(1, 8))));
        break;
    }
  }
  return out;
}

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, XmlParserNeverCrashes) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 1);
  const std::string valid =
      "<dblp><inproceedings><title>T</title><year>2000</year>"
      "<author>A</author></inproceedings></dblp>";
  for (int i = 0; i < 200; ++i) {
    std::string mutated = Mutate(valid, &rng);
    auto result = ParseXml(mutated);  // ok or error, never UB
    if (result.ok()) {
      // If accepted, serialization must reparse.
      auto again = ParseXml(result->ToXml());
      EXPECT_TRUE(again.ok()) << mutated;
    }
  }
}

TEST_P(FuzzTest, XsdParserNeverCrashes) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 3);
  const std::string valid = R"(<xs:schema xmlns:xs="x">
<xs:element name="a" annotation="a"><xs:complexType><xs:sequence>
<xs:element name="b" type="xs:string" maxOccurs="unbounded"/>
</xs:sequence></xs:complexType></xs:element></xs:schema>)";
  for (int i = 0; i < 200; ++i) {
    auto result = ParseXsd(Mutate(valid, &rng));
    if (result.ok()) {
      EXPECT_NE(result->get()->root(), nullptr);
    }
  }
}

TEST_P(FuzzTest, DtdParserNeverCrashes) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 15485863 + 5);
  const std::string valid =
      "<!ELEMENT a (b*, c?)>\n<!ELEMENT b (#PCDATA)>\n"
      "<!ELEMENT c (d | b)>\n<!ELEMENT d (#PCDATA)>";
  for (int i = 0; i < 200; ++i) {
    auto result = ParseDtd(Mutate(valid, &rng));
    if (result.ok()) {
      EXPECT_NE(result->get()->root(), nullptr);
    }
  }
}

TEST_P(FuzzTest, SqlParserNeverCrashes) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 32452843 + 7);
  const std::string valid =
      "SELECT I.ID, title, NULL FROM inproc I WHERE booktitle = 'X' "
      "UNION ALL SELECT I.ID, NULL, author FROM inproc I, inproc_author A "
      "WHERE I.ID = A.PID ORDER BY 1";
  for (int i = 0; i < 200; ++i) {
    std::string mutated = Mutate(valid, &rng);
    auto result = ParseSql(mutated);
    if (result.ok()) {
      // Accepted queries must print and reparse.
      auto again = ParseSql(result->ToSql());
      EXPECT_TRUE(again.ok()) << mutated << "\n -> " << result->ToSql();
    }
  }
}

TEST_P(FuzzTest, XPathParserNeverCrashes) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 49979687 + 9);
  const std::string valid =
      "//movie[year >= 1998 and votes = 5]/(title | box_office)";
  for (int i = 0; i < 200; ++i) {
    std::string mutated = Mutate(valid, &rng);
    auto result = ParseXPath(mutated);
    if (result.ok()) {
      auto again = ParseXPath(result->ToString());
      EXPECT_TRUE(again.ok()) << mutated << "\n -> " << result->ToString();
    }
  }
}

// Mutants of a small DBLP document through both shred paths: the schema
// walk over the streamed document and the same walk over ParseXml's DOM.
// They must accept and reject alike, agree bit for bit when both accept,
// and a rejecting ShredStream must leave no table and no dictionary entry
// behind.
TEST_P(FuzzTest, ShredPathsAgreeOnMutants) {
  DblpConfig config;
  config.num_inproceedings = 12;
  config.num_books = 3;
  config.num_conferences = 4;
  config.num_authors = 100;  // the generator's author bucketing minimum
  GeneratedData data = GenerateDblp(config);
  const std::string valid = data.doc.ToXml();
  auto mapping = Mapping::Build(*data.tree);
  ASSERT_TRUE(mapping.ok()) << mapping.status();

  Rng rng(static_cast<uint64_t>(GetParam()) * 2750159 + 11);
  int accepted = 0;
  for (int i = 0; i < 500; ++i) {
    std::string mutated = Mutate(valid, &rng);
    Database stream_db;
    Result<ShredStats> stream =
        ShredStream(mutated, *data.tree, *mapping, &stream_db);
    Database dom_db;
    Result<XmlDocument> doc = ParseXml(mutated);
    Status dom = doc.status();
    if (doc.ok()) {
      dom = ShredDocument(*doc, *data.tree, *mapping, &dom_db).status();
    }
    ASSERT_EQ(stream.ok(), dom.ok())
        << "stream: " << stream.status() << "\ndom: " << dom << "\n"
        << mutated;
    if (stream.ok()) {
      ++accepted;
      EXPECT_EQ(DatabaseDigest(stream_db), DatabaseDigest(dom_db))
          << mutated;
    } else {
      EXPECT_TRUE(stream_db.TableNames().empty()) << mutated;
      EXPECT_EQ(stream_db.dictionary().size(), 0u) << mutated;
    }
  }
  EXPECT_GT(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 4));

// --- Depth guards: 10k-deep inputs must return kResourceExhausted, not
// overflow the stack. Every parser enforces the default recursion cap even
// when the caller passes no governor. ---

constexpr int kDeep = 10000;

std::string Repeat(const std::string& unit, int times) {
  std::string out;
  out.reserve(unit.size() * static_cast<size_t>(times));
  for (int i = 0; i < times; ++i) out += unit;
  return out;
}

TEST(DepthGuardTest, DeepXmlReturnsResourceExhausted) {
  std::string xml = Repeat("<a>", kDeep) + "x" + Repeat("</a>", kDeep);
  auto result = ParseXml(xml);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status();
}

TEST(DepthGuardTest, DeepXsdReturnsResourceExhausted) {
  std::string xsd = R"(<xs:schema xmlns:xs="x">)"
                    R"(<xs:element name="a" annotation="a"><xs:complexType>)" +
                    Repeat("<xs:sequence>", kDeep) +
                    R"(<xs:element name="b" type="xs:string"/>)" +
                    Repeat("</xs:sequence>", kDeep) +
                    "</xs:complexType></xs:element></xs:schema>";
  auto result = ParseXsd(xsd);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status();
}

TEST(DepthGuardTest, DeepDtdReturnsResourceExhausted) {
  std::string dtd = "<!ELEMENT a " + Repeat("(", kDeep) + "b" +
                    Repeat(")", kDeep) + ">\n<!ELEMENT b (#PCDATA)>";
  auto result = ParseDtd(dtd);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status();
}

TEST(DepthGuardTest, DeepSqlUnionReturnsResourceExhausted) {
  // UNION ALL blocks are iterative, but block count is input-controlled
  // growth and metered against the same depth budget.
  std::string sql = "SELECT T.ID FROM t T" +
                    Repeat(" UNION ALL SELECT T.ID FROM t T", kDeep);
  auto result = ParseSql(sql);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status();
}

TEST(DepthGuardTest, DeepXPathReturnsResourceExhausted) {
  std::string xpath = "/" + Repeat("/a", kDeep) + "/(b)";
  auto result = ParseXPath(xpath);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status();
}

TEST(DepthGuardTest, CustomGovernorDepthCapApplies) {
  ResourceLimits limits;
  limits.max_recursion_depth = 8;
  ResourceGovernor governor(limits);
  std::string deep = Repeat("<a>", 20) + "x" + Repeat("</a>", 20);
  ParseOptions governed;
  governed.governor = &governor;
  auto rejected = ParseXml(deep, governed);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  // Shallow input still parses with the same governor: depth is a live
  // guard, not a sticky trip.
  EXPECT_TRUE(ParseXml("<a><b>x</b></a>", governed).ok());
}

TEST(DepthGuardTest, ExhaustedGovernorStillParsesShallowInput) {
  // A search that spent its work budget must still parse while unwinding:
  // recursion depth is independent of sticky exhaustion.
  ResourceLimits limits;
  limits.work_units = 1;
  ResourceGovernor governor(limits);
  EXPECT_TRUE(governor.ChargeWork(1).ok());
  EXPECT_FALSE(governor.ChargeWork(1).ok());
  ASSERT_TRUE(governor.exhausted());
  ParseOptions governed;
  governed.governor = &governor;
  EXPECT_TRUE(ParseXml("<a><b>x</b></a>", governed).ok());
}

// --- Fault-injection sweep: with a fault armed at each named site, Greedy
// search must skip the failed candidate, keep going, and still return a
// valid mapping that really loads the data and answers the workload. ---

class FaultSweepTest : public ::testing::TestWithParam<const char*> {
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

  GeneratedData data_;
  std::unique_ptr<XmlStatistics> stats_;
  DesignProblem problem_;
};

TEST_P(FaultSweepTest, GreedySurvivesInjectedFault) {
  const std::string site = GetParam();
  Result<SearchResult> result = [&] {
    // advisor.tune guards the design tool's entry; nth=2 lets the
    // mandatory initial costing through and fails a mid-search costing
    // instead, which the search must absorb.
    int nth = site == kFaultSiteAdvisorTune ? 2 : 1;
    ScopedFaultInjection armed(site, nth);
    return GreedySearch(problem_);
  }();
  EXPECT_FALSE(FaultInjector::Global()->armed());
  ASSERT_TRUE(result.ok()) << site << ": " << result.status();
  EXPECT_FALSE(result->mapping.relations().empty());
  // Round trip: shred the document under the surviving mapping, apply the
  // configuration, and execute the workload for real.
  auto eval = EvaluateOnData(*result, data_.doc, problem_.workload);
  ASSERT_TRUE(eval.ok()) << site << ": " << eval.status();
  EXPECT_GT(eval->total_work, 0);
}

INSTANTIATE_TEST_SUITE_P(Sites, FaultSweepTest,
                         ::testing::Values(kFaultSiteCatalogCreateTable,
                                           kFaultSiteIndexBuild,
                                           kFaultSiteViewMaterialize,
                                           kFaultSiteAdvisorWhatIf,
                                           kFaultSiteAdvisorTune));

TEST_P(FaultSweepTest, ParallelGreedySurvivesInjectedFault) {
  // Same sweep with explicit worker counts: the fault now fires on a
  // worker thread mid-round. Which candidate absorbs it is
  // scheduling-dependent, but the survival contract is identical —
  // skip the failed candidate, finish the search, return a design with
  // no partial state (it shreds, applies, and executes end to end).
  const std::string site = GetParam();
  for (int threads : {2, 8}) {
    Result<SearchResult> result = [&] {
      int nth = site == kFaultSiteAdvisorTune ? 2 : 1;
      ScopedFaultInjection armed(site, nth);
      GreedyOptions options;
      options.num_threads = threads;
      return GreedySearch(problem_, options);
    }();
    EXPECT_FALSE(FaultInjector::Global()->armed());
    ASSERT_TRUE(result.ok()) << site << " threads=" << threads << ": "
                             << result.status();
    EXPECT_FALSE(result->mapping.relations().empty());
    auto eval = EvaluateOnData(*result, data_.doc, problem_.workload);
    ASSERT_TRUE(eval.ok()) << site << " threads=" << threads << ": "
                           << eval.status();
    EXPECT_GT(eval->total_work, 0);
  }
}

TEST_F(FaultSweepTest, GreedySurvivesProbabilisticChaos) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Result<SearchResult> result = [&] {
      ScopedFaultInjection chaos(seed, 0.02);
      return GreedySearch(problem_);
    }();
    // A fault in the mandatory initial costing surfaces as a clean error;
    // anything else must be absorbed. Either way: no crash, no wedge.
    if (result.ok()) {
      EXPECT_FALSE(result->mapping.relations().empty());
      auto eval = EvaluateOnData(*result, data_.doc, problem_.workload);
      EXPECT_TRUE(eval.ok()) << eval.status();
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kInternal)
          << result.status();
    }
  }
}

// --- Rollback: a fault mid-apply must leave the database exactly as it
// was, and the apply must succeed once the fault clears. ---

class FaultRollbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MovieConfig config;
    config.num_movies = 50;
    data_ = GenerateMovie(config);
    FullyInline(data_.tree.get());
    auto mapping = Mapping::Build(*data_.tree);
    ASSERT_TRUE(mapping.ok());
    ASSERT_TRUE(ShredDocument(data_.doc, *data_.tree, *mapping, &db_).ok());
    table_ = db_.TableNames().front();
  }

  GeneratedData data_;
  Database db_;
  std::string table_;
};

TEST_F(FaultRollbackTest, ApplyConfigurationRollsBackOnIndexFault) {
  TunerResult config;
  IndexDesc first, second;
  first.def.name = "rb_idx1";
  first.def.table = table_;
  first.def.key_columns = {0};
  second.def.name = "rb_idx2";
  second.def.table = table_;
  second.def.key_columns = {0};
  config.indexes = {first, second};
  {
    ScopedFaultInjection armed(kFaultSiteIndexBuild, 2);
    Status status = ApplyConfiguration(config, &db_);
    ASSERT_FALSE(status.ok());
    // The first index built fine but must have been rolled back.
    EXPECT_EQ(db_.FindIndex("rb_idx1"), nullptr);
    EXPECT_EQ(db_.FindIndex("rb_idx2"), nullptr);
  }
  ASSERT_TRUE(ApplyConfiguration(config, &db_).ok());
  EXPECT_NE(db_.FindIndex("rb_idx1"), nullptr);
  EXPECT_NE(db_.FindIndex("rb_idx2"), nullptr);
}

TEST_F(FaultRollbackTest, ViewMaterializeMidFaultLeavesNoDebris) {
  const Table* base = db_.FindTable(table_);
  ASSERT_NE(base, nullptr);
  ViewDef def;
  def.name = "rb_view";
  def.base_table = table_;
  def.projected = {{table_, base->schema().columns[0].name}};
  {
    // nth=2 passes the entry check and fires mid-materialization, after
    // the output table exists.
    ScopedFaultInjection armed(kFaultSiteViewMaterialize, 2);
    Status status = db_.CreateMaterializedView(def);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(db_.FindTable("rb_view"), nullptr);
    EXPECT_EQ(db_.FindViewDef("rb_view"), nullptr);
  }
  EXPECT_TRUE(db_.CreateMaterializedView(def).ok());
  EXPECT_NE(db_.FindTable("rb_view"), nullptr);
}

}  // namespace
}  // namespace xmlshred
