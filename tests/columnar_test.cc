// Columnar storage tests: the dictionary's code/rank contracts, DOM
// shredding through sealed batches, and — the core guarantee — batch
// execution over columns returning the same rows as the brute-force
// reference executor (tests/reference_executor.h, compared as multisets),
// over the tier-1 query corpora (randomized movie SQL and generated XPath
// workloads).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/executor.h"
#include "mapping/shredder.h"
#include "mapping/xml_stats.h"
#include "opt/planner.h"
#include "reference_executor.h"
#include "rel/dictionary.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "workload/movie.h"
#include "workload/query_gen.h"
#include "xpath/translator.h"

namespace xmlshred {
namespace {

// --- StringDictionary unit tests ---

TEST(StringDictionaryTest, InternAssignsSequentialCodesAndRoundTrips) {
  StringDictionary dict;
  EXPECT_EQ(dict.size(), 0u);
  uint32_t a = dict.Intern("alpha");
  uint32_t b = dict.Intern("beta");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(dict.Intern("alpha"), a);  // idempotent
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.str(a), "alpha");
  EXPECT_EQ(dict.str(b), "beta");
  EXPECT_EQ(dict.Lookup("alpha"), a);
  EXPECT_EQ(dict.Lookup("gamma"), StringDictionary::kNotFound);
}

TEST(StringDictionaryTest, ByteSizeCountsPayloadPlusOverhead) {
  StringDictionary dict;
  EXPECT_EQ(dict.ByteSize(), 0);
  dict.Intern("abc");
  dict.Intern("defgh");
  EXPECT_EQ(dict.total_string_bytes(), 8);
  EXPECT_EQ(dict.ByteSize(),
            8 + 2 * StringDictionary::kPerEntryOverheadBytes);
}

TEST(StringDictionaryTest, RankOrdersCodesLexicographically) {
  StringDictionary dict;
  Rng rng(7);
  std::vector<std::string> strings;
  for (int i = 0; i < 500; ++i) {
    std::string s;
    int len = static_cast<int>(rng.Uniform(0, 12));
    for (int j = 0; j < len; ++j) {
      s += static_cast<char>('a' + rng.Uniform(0, 25));
    }
    strings.push_back(s);
    dict.Intern(s);
  }
  // Rank comparison must agree with string comparison for every pair.
  for (size_t i = 0; i < strings.size(); i += 17) {
    for (size_t j = 0; j < strings.size(); j += 13) {
      uint32_t ci = dict.Lookup(strings[i]);
      uint32_t cj = dict.Lookup(strings[j]);
      EXPECT_EQ(dict.Rank(ci) < dict.Rank(cj), strings[i] < strings[j]);
      EXPECT_EQ(dict.Rank(ci) == dict.Rank(cj), strings[i] == strings[j]);
    }
  }
  // CountLess("m...") equals the number of distinct interned strings
  // strictly below the probe, whether or not the probe is interned.
  std::string probe = "mmm";
  int64_t below = 0;
  std::set<std::string> distinct(strings.begin(), strings.end());
  for (const std::string& s : distinct) {
    if (s < probe) ++below;
  }
  EXPECT_EQ(dict.CountLess(probe), static_cast<uint32_t>(below));
}

// --- DOM shredding appends through sealed columnar batches ---

TEST(ShredReserveTest, PreScanReservesRowsAndReportsSavedReallocs) {
  MovieConfig config;
  config.num_movies = 300;
  GeneratedData data = GenerateMovie(config);
  auto mapping = Mapping::Build(*data.tree);
  ASSERT_TRUE(mapping.ok());
  Database db;
  auto stats = ShredDocument(data.doc, *data.tree, *mapping, &db);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->rows, 0);
  EXPECT_GT(stats->batches_emitted, 0);
}

// --- Batch execution vs the reference executor over the movie SQL
// corpus (random physical configurations, filters, and joins) ---

class VectorizedDifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    MovieConfig config;
    config.num_movies = 900;
    data_ = GenerateMovie(config);
    auto mapping = Mapping::Build(*data_.tree);
    ASSERT_TRUE(mapping.ok());
    ASSERT_TRUE(ShredDocument(data_.doc, *data_.tree, *mapping, &db_).ok());
  }

  void RandomConfiguration(Rng* rng) {
    const Table* movie = db_.FindTable("movie");
    int columns = movie->schema().num_columns();
    int num_indexes = static_cast<int>(rng->Uniform(0, 3));
    for (int i = 0; i < num_indexes; ++i) {
      IndexDef def;
      def.name = "vx_ix_" + std::to_string(i);
      def.table = "movie";
      def.key_columns = {static_cast<int>(rng->Uniform(2, columns - 1))};
      if (rng->Bernoulli(0.5)) {
        int inc = static_cast<int>(rng->Uniform(2, columns - 1));
        if (inc != def.key_columns[0]) def.included_columns = {inc};
      }
      ASSERT_TRUE(db_.CreateIndex(def).ok());
    }
    if (rng->Bernoulli(0.5)) {
      IndexDef pid;
      pid.name = "vx_pid";
      pid.table = "aka_title";
      pid.key_columns = {1};
      if (rng->Bernoulli(0.5)) pid.included_columns = {2};
      ASSERT_TRUE(db_.CreateIndex(pid).ok());
    }
  }

  std::string RandomSql(Rng* rng) {
    static const char* kMovieCols[] = {"title",    "year",  "avg_rating",
                                       "director", "votes", "box_office",
                                       "seasons"};
    std::string sql = "SELECT m.ID";
    int projections = static_cast<int>(rng->Uniform(1, 3));
    for (int i = 0; i < projections; ++i) {
      sql += std::string(", m.") + kMovieCols[rng->Uniform(0, 6)];
    }
    bool join = rng->Bernoulli(0.4);
    if (join) sql += ", a.aka_title";
    sql += " FROM movie m";
    if (join) sql += ", aka_title a";
    std::vector<std::string> preds;
    if (join) preds.push_back("a.PID = m.ID");
    int filters = static_cast<int>(rng->Uniform(0, 3));
    for (int i = 0; i < filters; ++i) {
      switch (rng->Uniform(0, 4)) {
        case 0:
          preds.push_back("m.year >= " +
                          std::to_string(rng->Uniform(1930, 2004)));
          break;
        case 1:
          preds.push_back("m.votes >= " +
                          std::to_string(rng->Uniform(10, 1000000)));
          break;
        case 2:
          preds.push_back("m.title = 'movie_title_" +
                          std::to_string(rng->Uniform(0, 899)) + "'");
          break;
        default:
          preds.push_back("m.director < 'director_5'");
          break;
      }
    }
    for (size_t i = 0; i < preds.size(); ++i) {
      sql += (i == 0 ? " WHERE " : " AND ") + preds[i];
    }
    return sql;
  }

  GeneratedData data_;
  Database db_;
};

// Runs `bound` through the planner and executor and checks the rows
// against the reference executor as a multiset (the reference ignores
// ORDER BY), plus the root row count the executor reports.
void ExpectMatchesReference(const Database& db, const BoundQuery& bound,
                            const std::string& label) {
  CatalogDesc catalog = db.BuildCatalogDesc();
  auto planned = PlanQuery(bound, catalog);
  ASSERT_TRUE(planned.ok()) << label;
  Executor executor(db);
  ExecMetrics metrics;
  auto rows = executor.Run(*planned->root, &metrics);
  ASSERT_TRUE(rows.ok()) << label << ": " << rows.status();
  EXPECT_EQ(metrics.rows_out, static_cast<int64_t>(rows->size())) << label;
  std::vector<Row> expected = ReferenceExecute(bound, db);
  EXPECT_TRUE(SameRowMultiset(*rows, expected))
      << label << "\nengine=" << rows->size()
      << " reference=" << expected.size() << "\n"
      << planned->root->ToString();
}

TEST_P(VectorizedDifferentialTest, BatchesMatchScalarExactly) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7368787 + 5);
  RandomConfiguration(&rng);
  for (int q = 0; q < 8; ++q) {
    std::string sql = RandomSql(&rng);
    auto parsed = ParseSql(sql);
    ASSERT_TRUE(parsed.ok()) << sql;
    auto bound = BindQuery(*parsed, db_.BuildCatalogDesc());
    ASSERT_TRUE(bound.ok()) << sql;
    ExpectMatchesReference(db_, *bound, sql);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorizedDifferentialTest,
                         ::testing::Range(0, 8));

// --- Batch execution vs the reference executor over a generated XPath
// workload ---

TEST(VectorizedXPathCorpusTest, WorkloadMatchesScalarExactly) {
  MovieConfig config;
  config.num_movies = 700;
  GeneratedData data = GenerateMovie(config);
  auto stats = XmlStatistics::Collect(data.doc, *data.tree);
  ASSERT_TRUE(stats.ok()) << stats.status();
  auto mapping = Mapping::Build(*data.tree);
  ASSERT_TRUE(mapping.ok());
  Database db;
  ASSERT_TRUE(ShredDocument(data.doc, *data.tree, *mapping, &db).ok());
  CatalogDesc catalog = db.BuildCatalogDesc();

  WorkloadSpec spec;
  spec.num_queries = 12;
  spec.seed = 23;
  auto workload = GenerateWorkload(*data.tree, *stats, spec);
  ASSERT_TRUE(workload.ok()) << workload.status();

  for (const XPathQuery& query : *workload) {
    auto translated = TranslateXPath(query, *data.tree, *mapping);
    ASSERT_TRUE(translated.ok()) << query.ToString();
    auto bound = BindQuery(translated->sql, catalog);
    ASSERT_TRUE(bound.ok()) << query.ToString();
    ExpectMatchesReference(db, *bound, query.ToString());
  }
}

}  // namespace
}  // namespace xmlshred
