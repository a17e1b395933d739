// Property-based (parameterized) tests for the paper's core claims:
//
//  * Theorem 1: any sequence of subsumed transformations (outline/inline)
//    yields relations that are a vertical partitioning of the fully
//    inlined schema T0's relations;
//  * result invariance: every transformation preserves query answers;
//  * statistics derivation tracks exact statistics across the whole
//    transformation space.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/logging.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "sql/parser.h"
#include "mapping/shredder.h"
#include "mapping/transforms.h"
#include "mapping/xml_stats.h"
#include "opt/planner.h"
#include "sql/binder.h"
#include "workload/dblp.h"
#include "workload/movie.h"
#include "xpath/translator.h"

namespace xmlshred {
namespace {

// ---------- Theorem 1 ----------

// Columns (excluding ID/PID) of every relation, keyed by table name.
std::map<std::string, std::set<std::string>> ColumnSets(
    const Mapping& mapping) {
  std::map<std::string, std::set<std::string>> out;
  for (const MappedRelation& rel : mapping.relations()) {
    std::set<std::string>& cols = out[rel.table_name];
    for (const MappedColumn& col : rel.columns) cols.insert(col.name);
  }
  return out;
}

class Theorem1Test : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Theorem1Test, SubsumedTransformationsAreVerticalPartitionings) {
  // Apply a random sequence of outline/inline transformations, then check
  // that the resulting relations' columns partition the fully inlined
  // schema's columns: for each T0 relation, the union of the derived
  // relations' column sets equals its column set.
  auto tree = BuildDblpSchemaTree();
  FullyInline(tree.get());
  auto t0_mapping = Mapping::Build(*tree);
  ASSERT_TRUE(t0_mapping.ok());
  auto t0_columns = ColumnSets(*t0_mapping);

  Rng rng(GetParam());
  auto transformed = tree->Clone();
  for (int step = 0; step < 6; ++step) {
    std::vector<Transform> applicable;
    for (Transform& t : EnumerateTransforms(*transformed, 5)) {
      if (t.kind == TransformKind::kOutline ||
          t.kind == TransformKind::kInline) {
        applicable.push_back(std::move(t));
      }
    }
    if (applicable.empty()) break;
    const Transform& pick = applicable[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(applicable.size()) - 1))];
    ASSERT_TRUE(ApplyTransform(transformed.get(), pick).ok())
        << pick.ToString();
  }
  auto mapping = Mapping::Build(*transformed);
  ASSERT_TRUE(mapping.ok()) << mapping.status();

  // Assign each transformed relation to the T0 relation its anchor (or
  // nearest annotated ancestor in T0 terms) belongs to, via the fully
  // inlined clone: re-inline and check the same columns come back.
  auto reinlined = transformed->Clone();
  FullyInline(reinlined.get());
  auto reinlined_mapping = Mapping::Build(*reinlined);
  ASSERT_TRUE(reinlined_mapping.ok());
  EXPECT_EQ(ColumnSets(*reinlined_mapping), t0_columns);

  // And the transformed relations' columns are a disjoint cover: every
  // column of T0 appears in exactly one transformed relation.
  std::map<std::string, int> column_occurrences;
  for (const auto& [table, cols] : ColumnSets(*mapping)) {
    for (const std::string& col : cols) ++column_occurrences[col];
  }
  for (const auto& [table, cols] : t0_columns) {
    for (const std::string& col : cols) {
      EXPECT_GE(column_occurrences[col], 1) << col;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSequences, Theorem1Test,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------- result invariance across the transformation space ----------

struct InvarianceCase {
  const char* name;
  bool movie;  // otherwise DBLP
  TransformKind kind;
  const char* element;  // tag the transform anchors on
  int split_count;
};

class InvarianceTest : public ::testing::TestWithParam<InvarianceCase> {
 protected:
  static GeneratedData MakeData(bool movie) {
    if (movie) {
      MovieConfig config;
      config.num_movies = 1200;
      return GenerateMovie(config);
    }
    DblpConfig config;
    config.num_inproceedings = 1200;
    config.num_books = 120;
    return GenerateDblp(config);
  }

  static Result<std::vector<std::string>> RunQuery(const GeneratedData& data,
                                                   const SchemaTree& tree,
                                                   const std::string& xpath) {
    auto mapping = Mapping::Build(tree);
    if (!mapping.ok()) return mapping.status();
    Database db;
    auto shred = ShredDocument(data.doc, tree, *mapping, &db);
    if (!shred.ok()) return shred.status();
    auto query = ParseXPath(xpath);
    if (!query.ok()) return query.status();
    auto translated = TranslateXPath(*query, tree, *mapping);
    if (!translated.ok()) return translated.status();
    CatalogDesc catalog = db.BuildCatalogDesc();
    auto bound = BindQuery(translated->sql, catalog);
    if (!bound.ok()) return bound.status();
    auto planned = PlanQuery(*bound, catalog);
    if (!planned.ok()) return planned.status();
    Executor executor(db);
    ExecMetrics metrics;
    auto rows = executor.Run(*planned->root, &metrics);
    if (!rows.ok()) return rows.status();
    return CanonicalizeResult(*translated, *rows);
  }
};

TEST_P(InvarianceTest, TransformPreservesAnswers) {
  const InvarianceCase& param = GetParam();
  GeneratedData data = MakeData(param.movie);
  std::vector<std::string> queries =
      param.movie
          ? std::vector<std::string>{
                "//movie[year >= 1995]/(title | avg_rating | votes)",
                "//movie[title = 'movie_title_9']/(aka_title | box_office | "
                "seasons)",
                "//movie/(director)"}
          : std::vector<std::string>{
                "//inproceedings[year >= 1999]/(title | author | ee | cite)",
                "//book/(title | author | isbn)",
                "//inproceedings[booktitle = 'conf_0']/(pages | editor)"};

  auto baseline_tree = data.tree->Clone();
  std::vector<std::vector<std::string>> baseline;
  for (const std::string& q : queries) {
    auto result = RunQuery(data, *baseline_tree, q);
    ASSERT_TRUE(result.ok()) << result.status() << " " << q;
    baseline.push_back(std::move(*result));
  }

  // Apply the parameterized transformation.
  auto tree = data.tree->Clone();
  SchemaNode* element = tree->FindTagByName(param.element);
  ASSERT_NE(element, nullptr);
  Transform transform;
  transform.kind = param.kind;
  switch (param.kind) {
    case TransformKind::kRepetitionSplit:
      transform.target = element->parent()->id();
      transform.split_count = param.split_count;
      break;
    case TransformKind::kUnionDistribute:
      if (element->parent()->kind() == SchemaNodeKind::kOption) {
        transform.target = element->parent()->id();
        transform.option_targets = {element->parent()->id()};
      } else {
        transform.target = element->parent()->id();
      }
      break;
    case TransformKind::kTypeMerge: {
      auto tags = tree->FindTagsByName(param.element);
      ASSERT_GE(tags.size(), 2u);
      transform.target = tags[0]->id();
      transform.target2 = tags[1]->id();
      break;
    }
    case TransformKind::kInline: {
      // Pick the *annotated* occurrence of the element (e.g. book's
      // title1, not inproc's inlined title).
      SchemaNode* annotated = nullptr;
      for (SchemaNode* tag : tree->FindTagsByName(param.element)) {
        if (tag->is_annotated()) annotated = tag;
      }
      ASSERT_NE(annotated, nullptr);
      transform.target = annotated->id();
      break;
    }
    case TransformKind::kOutline:
      transform.target = element->id();
      break;
    default:
      FAIL() << "unsupported case";
  }
  auto applied = ApplyTransform(tree.get(), transform);
  ASSERT_TRUE(applied.ok()) << applied.status();
  ASSERT_TRUE(tree->Validate().ok()) << tree->Validate();

  for (size_t i = 0; i < queries.size(); ++i) {
    auto result = RunQuery(data, *tree, queries[i]);
    ASSERT_TRUE(result.ok()) << result.status() << " " << queries[i];
    EXPECT_EQ(*result, baseline[i]) << queries[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTransforms, InvarianceTest,
    ::testing::Values(
        InvarianceCase{"movie_rep_split_1", true,
                       TransformKind::kRepetitionSplit, "aka_title", 1},
        InvarianceCase{"movie_rep_split_3", true,
                       TransformKind::kRepetitionSplit, "aka_title", 3},
        InvarianceCase{"movie_rep_split_8", true,
                       TransformKind::kRepetitionSplit, "aka_title", 8},
        InvarianceCase{"movie_choice_dist", true,
                       TransformKind::kUnionDistribute, "box_office", 0},
        InvarianceCase{"movie_implicit_rating", true,
                       TransformKind::kUnionDistribute, "avg_rating", 0},
        InvarianceCase{"movie_implicit_votes", true,
                       TransformKind::kUnionDistribute, "votes", 0},
        InvarianceCase{"dblp_rep_split_5", false,
                       TransformKind::kRepetitionSplit, "author", 5},
        InvarianceCase{"dblp_implicit_ee", false,
                       TransformKind::kUnionDistribute, "ee", 0},
        InvarianceCase{"dblp_implicit_editor", false,
                       TransformKind::kUnionDistribute, "editor", 0},
        InvarianceCase{"dblp_type_merge_author", false,
                       TransformKind::kTypeMerge, "author", 0},
        InvarianceCase{"dblp_type_merge_title", false,
                       TransformKind::kTypeMerge, "title", 0},
        InvarianceCase{"dblp_inline_title1", false, TransformKind::kInline,
                       "title", 0},
        InvarianceCase{"dblp_outline_booktitle", false,
                       TransformKind::kOutline, "booktitle", 0},
        InvarianceCase{"dblp_outline_year", false, TransformKind::kOutline,
                       "year", 0}),
    [](const ::testing::TestParamInfo<InvarianceCase>& info) {
      return info.param.name;
    });

// ---------- derived statistics track exact statistics ----------

class DerivationSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(DerivationSweepTest, RowCountsWithinTolerance) {
  // Random transformation sequences; derived row counts must stay within
  // 5 % (+2) of exact for every relation.
  DblpConfig config;
  config.num_inproceedings = 1500;
  config.num_books = 150;
  GeneratedData data = GenerateDblp(config);
  auto stats = XmlStatistics::Collect(data.doc, *data.tree);
  ASSERT_TRUE(stats.ok());

  Rng rng(static_cast<uint64_t>(GetParam()) * 97 + 13);
  auto tree = data.tree->Clone();
  int applied = 0;
  for (int step = 0; step < 8 && applied < 3; ++step) {
    std::vector<Transform> transforms = EnumerateTransforms(*tree, 4);
    if (transforms.empty()) break;
    const Transform& pick = transforms[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(transforms.size()) - 1))];
    if (ApplyTransform(tree.get(), pick).ok()) ++applied;
  }
  auto mapping = Mapping::Build(*tree);
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  Database db;
  ASSERT_TRUE(ShredDocument(data.doc, *tree, *mapping, &db).ok());
  for (const MappedRelation& rel : mapping->relations()) {
    TableStats derived = stats->DeriveTableStats(*tree, rel);
    const Table* table = db.FindTable(rel.table_name);
    ASSERT_NE(table, nullptr);
    EXPECT_NEAR(static_cast<double>(derived.row_count),
                static_cast<double>(table->row_count()),
                0.05 * static_cast<double>(table->row_count()) + 2)
        << rel.table_name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DerivationSweepTest,
                         ::testing::Range(0, 10));

// ---------- optimizer/executor agreement ----------

class AgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(AgreementTest, EstimateAndMeasurementAgreeOnWinner) {
  // For randomly chosen single-table queries, if the optimizer estimates
  // configuration A cheaper than B by 2x or more, measured work must not
  // say the opposite by 2x or more.
  DblpConfig config;
  config.num_inproceedings = 6000;
  config.num_books = 600;
  GeneratedData data = GenerateDblp(config);
  auto tree = data.tree->Clone();
  FullyInline(tree.get());
  auto mapping = Mapping::Build(*tree);
  ASSERT_TRUE(mapping.ok());
  Database db;
  ASSERT_TRUE(ShredDocument(data.doc, *tree, *mapping, &db).ok());

  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 7);
  int conf = static_cast<int>(rng.Uniform(0, 30));
  std::string sql = "SELECT title, year FROM inproc WHERE booktitle = 'conf_" +
                    std::to_string(conf) + "'";

  auto run = [&](bool with_index) -> std::pair<double, double> {
    if (with_index) {
      IndexDef idx;
      idx.name = "agree_idx";
      idx.table = "inproc";
      idx.key_columns = {
          db.FindTable("inproc")->schema().FindColumn("booktitle")};
      idx.included_columns = {
          db.FindTable("inproc")->schema().FindColumn("title"),
          db.FindTable("inproc")->schema().FindColumn("year")};
      XS_CHECK_OK(db.CreateIndex(idx));
    }
    CatalogDesc catalog = db.BuildCatalogDesc();
    auto parsed = ParseSql(sql);
    XS_CHECK_OK(parsed.status());
    auto bound = BindQuery(*parsed, catalog);
    XS_CHECK_OK(bound.status());
    auto planned = PlanQuery(*bound, catalog);
    XS_CHECK_OK(planned.status());
    Executor executor(db);
    ExecMetrics metrics;
    XS_CHECK_OK(executor.Run(*planned->root, &metrics).status());
    return {planned->est_cost, metrics.work};
  };
  auto [est_scan, work_scan] = run(false);
  auto [est_idx, work_idx] = run(true);
  if (est_idx * 2 < est_scan) {
    EXPECT_LT(work_idx, work_scan * 2)
        << "estimate said index wins decisively but measurement disagrees";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AgreementTest, ::testing::Range(0, 6));

// ---------- parallel/serial execution equivalence ----------

// A randomized query over the shredded DBLP schema, kept as parts so a
// failing case can be shrunk by deleting parts one at a time.
struct RandomQuerySpec {
  bool aggregate = false;
  bool join = false;
  bool order_by = false;
  std::vector<std::string> projections;  // plain items or aggregate calls
  std::vector<std::string> preds;        // WHERE conjuncts (join pred kept)

  std::string ToSql() const {
    std::string sql = "SELECT ";
    for (size_t i = 0; i < projections.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += projections[i];
    }
    sql += " FROM inproc I";
    if (join) sql += ", inproc_author A";
    bool first = true;
    if (join) {
      sql += " WHERE A.PID = I.ID";
      first = false;
    }
    for (const std::string& pred : preds) {
      sql += (first ? " WHERE " : " AND ") + pred;
      first = false;
    }
    if (order_by && !aggregate) sql += " ORDER BY 1";
    return sql;
  }
};

RandomQuerySpec RandomQuery(Rng* rng) {
  RandomQuerySpec spec;
  spec.aggregate = rng->Bernoulli(0.3);
  spec.join = rng->Bernoulli(0.3);
  if (spec.aggregate) {
    static const char* kAggs[] = {"COUNT(*)", "COUNT(I.year)", "SUM(I.year)",
                                  "MIN(I.title)", "MAX(I.year)"};
    int n = static_cast<int>(rng->Uniform(1, 3));
    for (int i = 0; i < n; ++i) {
      spec.projections.push_back(kAggs[rng->Uniform(0, 4)]);
    }
  } else {
    static const char* kCols[] = {"I.ID", "I.title", "I.booktitle", "I.year"};
    int n = static_cast<int>(rng->Uniform(1, 3));
    for (int i = 0; i < n; ++i) {
      spec.projections.push_back(kCols[rng->Uniform(0, 3)]);
    }
    if (spec.join) spec.projections.push_back("A.author");
    spec.order_by = rng->Bernoulli(0.4);
  }
  int filters = static_cast<int>(rng->Uniform(0, 2));
  for (int i = 0; i < filters; ++i) {
    switch (rng->Uniform(0, 2)) {
      case 0:
        spec.preds.push_back("I.year >= " +
                             std::to_string(rng->Uniform(1980, 2004)));
        break;
      case 1:
        spec.preds.push_back("I.booktitle = 'conf_" +
                             std::to_string(rng->Uniform(0, 40)) + "'");
        break;
      default:
        spec.preds.push_back("I.title IS NOT NULL");
        break;
    }
  }
  return spec;
}

// Runs `sql` twice through Executor::Run and once through
// Executor::Count, each under its own governor. Returns "" when the rerun
// repeats the first run's rows in order and all three agree on the row
// count, the metered work and the governor's spend, else a description
// of the first divergence.
std::string CheckRunsAgree(const Database& db, const std::string& sql) {
  CatalogDesc catalog = db.BuildCatalogDesc();
  auto parsed = ParseSql(sql);
  if (!parsed.ok()) return "parse: " + parsed.status().ToString();
  auto bound = BindQuery(*parsed, catalog);
  if (!bound.ok()) return "bind: " + bound.status().ToString();
  auto planned = PlanQuery(*bound, catalog);
  if (!planned.ok()) return "plan: " + planned.status().ToString();
  Executor executor(db);

  struct Outcome {
    std::vector<Row> rows;  // Run only
    int64_t count = 0;
    double work = 0;
    double spent = 0;
  };
  auto run = [&](bool count_only, Outcome* out) -> Status {
    ResourceGovernor governor{ResourceLimits{}};
    ExecOptions options;
    options.governor = &governor;
    ExecMetrics m;
    if (count_only) {
      auto count = executor.Count(*planned->root, &m, options);
      if (!count.ok()) return count.status();
      out->count = *count;
    } else {
      auto rows = executor.Run(*planned->root, &m, options);
      if (!rows.ok()) return rows.status();
      out->count = static_cast<int64_t>(rows->size());
      out->rows = std::move(*rows);
    }
    out->work = m.work;
    out->spent = governor.work_spent();
    return Status::OK();
  };

  Outcome first, rerun, counted;
  Status s = run(false, &first);
  if (!s.ok()) return "run: " + s.ToString();
  s = run(false, &rerun);
  if (!s.ok()) return "rerun: " + s.ToString();
  s = run(true, &counted);
  if (!s.ok()) return "count: " + s.ToString();

  if (first.rows.size() != rerun.rows.size()) return "row count differs";
  RowTotalEquals eq;
  for (size_t i = 0; i < first.rows.size(); ++i) {
    if (!eq(first.rows[i], rerun.rows[i])) {
      return "row " + std::to_string(i) + " differs";
    }
  }
  for (const Outcome* other : {&rerun, &counted}) {
    if (first.count != other->count) return "row count differs";
    if (first.work != other->work) return "metered work differs";
    if (first.spent != other->spent) return "governor work_spent differs";
  }
  return "";
}

// Named for the serial-versus-parallel comparison it made while the
// executor had morsel workers.
class ParallelEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEquivalenceTest, RandomWorkloadMatchesSerialExactly) {
  // Property: for any query, a rerun produces the same rows in the same
  // order, and a rerun and Executor::Count the same row count,
  // ExecMetrics.work and governor work_spent as the first run. On failure
  // the spec is shrunk by dropping parts (predicates, then projections)
  // while it still fails, and the minimal SQL is reported.
  DblpConfig config;
  config.num_inproceedings = 6000;
  config.num_books = 600;
  GeneratedData data = GenerateDblp(config);
  auto mapping = Mapping::Build(*data.tree);
  ASSERT_TRUE(mapping.ok());
  Database db;
  ASSERT_TRUE(ShredDocument(data.doc, *data.tree, *mapping, &db).ok());

  Rng rng(static_cast<uint64_t>(GetParam()) * 193 + 11);
  for (int i = 0; i < 12; ++i) {
    RandomQuerySpec spec = RandomQuery(&rng);
    std::string failure = CheckRunsAgree(db, spec.ToSql());
    if (failure.empty()) continue;

    // Shrink: repeatedly drop the first removable part that keeps the
    // query failing.
    bool shrunk = true;
    while (shrunk) {
      shrunk = false;
      for (size_t p = 0; p < spec.preds.size(); ++p) {
        RandomQuerySpec candidate = spec;
        candidate.preds.erase(candidate.preds.begin() +
                              static_cast<long>(p));
        if (!CheckRunsAgree(db, candidate.ToSql()).empty()) {
          spec = candidate;
          shrunk = true;
          break;
        }
      }
      if (shrunk) continue;
      if (spec.order_by) {
        RandomQuerySpec candidate = spec;
        candidate.order_by = false;
        if (!CheckRunsAgree(db, candidate.ToSql()).empty()) {
          spec = candidate;
          shrunk = true;
          continue;
        }
      }
      for (size_t p = 0; spec.projections.size() > 1 &&
                         p < spec.projections.size();
           ++p) {
        RandomQuerySpec candidate = spec;
        candidate.projections.erase(candidate.projections.begin() +
                                    static_cast<long>(p));
        if (!CheckRunsAgree(db, candidate.ToSql()).empty()) {
          spec = candidate;
          shrunk = true;
          break;
        }
      }
    }
    FAIL() << "run divergence (" << failure
           << "), minimal failing query: " << spec.ToSql();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEquivalenceTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace xmlshred
