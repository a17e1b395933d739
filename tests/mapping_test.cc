// Tests for the mapping layer: schema-tree -> relational mapping,
// transformations, shredding, and statistics derivation.

#include <map>

#include <gtest/gtest.h>

#include "mapping/mapping.h"
#include "mapping/shredder.h"
#include "mapping/transforms.h"
#include "mapping/xml_stats.h"
#include "workload/dblp.h"
#include "workload/movie.h"
#include "xml/xsd_parser.h"

namespace xmlshred {
namespace {

DblpConfig SmallDblp() {
  DblpConfig config;
  config.num_inproceedings = 2000;
  config.num_books = 200;
  return config;
}

MovieConfig SmallMovie() {
  MovieConfig config;
  config.num_movies = 2000;
  return config;
}

TEST(MappingTest, DblpDefaultMapping) {
  auto tree = BuildDblpSchemaTree();
  auto mapping = Mapping::Build(*tree);
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  // dblp, inproc, inproc_author, title1, book, book_author.
  EXPECT_EQ(mapping->relations().size(), 6u);
  const MappedRelation* inproc = mapping->FindRelation("inproc");
  ASSERT_NE(inproc, nullptr);
  // title, booktitle, year, pages, cdrom, cite, editor, ee (author and
  // title1 live in their own relations).
  EXPECT_EQ(inproc->columns.size(), 8u);
  EXPECT_GE(inproc->FindMappedColumn("title"), 0);
  EXPECT_GE(inproc->FindMappedColumn("cdrom"), 0);
  EXPECT_EQ(inproc->FindMappedColumn("author"), -1);
  const MappedRelation* author = mapping->FindRelation("inproc_author");
  ASSERT_NE(author, nullptr);
  EXPECT_EQ(author->columns.size(), 1u);
  EXPECT_EQ(author->parent_tables, std::vector<std::string>{"inproc"});
  const MappedRelation* title1 = mapping->FindRelation("title1");
  ASSERT_NE(title1, nullptr);
  EXPECT_EQ(title1->parent_tables, std::vector<std::string>{"book"});
  // Optional columns are nullable; required ones are not.
  const MappedColumn& cdrom =
      inproc->columns[static_cast<size_t>(inproc->FindMappedColumn("cdrom"))];
  EXPECT_TRUE(cdrom.nullable);
  const MappedColumn& year =
      inproc->columns[static_cast<size_t>(inproc->FindMappedColumn("year"))];
  EXPECT_FALSE(year.nullable);
  EXPECT_EQ(year.type, ColumnType::kInt64);
}

TEST(MappingTest, MovieDefaultMappingChoiceColumnsNullable) {
  auto tree = BuildMovieSchemaTree();
  auto mapping = Mapping::Build(*tree);
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  const MappedRelation* movie = mapping->FindRelation("movie");
  ASSERT_NE(movie, nullptr);
  int box = movie->FindMappedColumn("box_office");
  int seasons = movie->FindMappedColumn("seasons");
  ASSERT_GE(box, 0);
  ASSERT_GE(seasons, 0);
  EXPECT_TRUE(movie->columns[static_cast<size_t>(box)].nullable);
  EXPECT_TRUE(movie->columns[static_cast<size_t>(seasons)].nullable);
}

TEST(ShredderTest, DblpRoundTripCounts) {
  GeneratedData data = GenerateDblp(SmallDblp());
  auto mapping = Mapping::Build(*data.tree);
  ASSERT_TRUE(mapping.ok());
  Database db;
  auto stats = ShredDocument(data.doc, *data.tree, *mapping, &db);
  ASSERT_TRUE(stats.ok()) << stats.status();
  const Table* inproc = db.FindTable("inproc");
  ASSERT_NE(inproc, nullptr);
  EXPECT_EQ(inproc->row_count(), 2000);
  const Table* book = db.FindTable("book");
  ASSERT_NE(book, nullptr);
  EXPECT_EQ(book->row_count(), 200);
  const Table* authors = db.FindTable("inproc_author");
  ASSERT_NE(authors, nullptr);
  // Authors per publication averages > 1.
  EXPECT_GT(authors->row_count(), 2000);
  const Table* title1 = db.FindTable("title1");
  ASSERT_NE(title1, nullptr);
  EXPECT_EQ(title1->row_count(), 200);  // one per book

  // PID integrity: every author row references an inproc ID.
  int id_col = inproc->schema().id_column;
  std::set<int64_t> ids;
  for (const Row& row : inproc->MaterializeRows()) {
    ids.insert(row[static_cast<size_t>(id_col)].AsInt());
  }
  int pid_col = authors->schema().pid_column;
  for (const Row& row : authors->MaterializeRows()) {
    EXPECT_TRUE(ids.count(row[static_cast<size_t>(pid_col)].AsInt()) > 0);
  }
}

TEST(ShredderTest, MovieChoiceExclusivity) {
  GeneratedData data = GenerateMovie(SmallMovie());
  auto mapping = Mapping::Build(*data.tree);
  ASSERT_TRUE(mapping.ok());
  Database db;
  auto stats = ShredDocument(data.doc, *data.tree, *mapping, &db);
  ASSERT_TRUE(stats.ok()) << stats.status();
  const Table* movie = db.FindTable("movie");
  ASSERT_NE(movie, nullptr);
  EXPECT_EQ(movie->row_count(), 2000);
  const MappedRelation* rel = mapping->FindRelation("movie");
  int box = kFixedColumns + rel->FindMappedColumn("box_office");
  int seasons = kFixedColumns + rel->FindMappedColumn("seasons");
  for (const Row& row : movie->MaterializeRows()) {
    // Exactly one branch of the choice is set.
    EXPECT_NE(row[static_cast<size_t>(box)].is_null(),
              row[static_cast<size_t>(seasons)].is_null());
  }
}

TEST(TransformTest, RepetitionSplitAndMergeRoundTrip) {
  auto tree = BuildDblpSchemaTree();
  std::string before = tree->ToString();
  SchemaNode* author = tree->FindTagByName("author");
  SchemaNode* rep = author->parent();
  ASSERT_EQ(rep->kind(), SchemaNodeKind::kRepetition);

  Transform split;
  split.kind = TransformKind::kRepetitionSplit;
  split.target = rep->id();
  split.split_count = 5;
  auto rep_id = ApplyTransform(tree.get(), split);
  ASSERT_TRUE(rep_id.ok()) << rep_id.status();
  EXPECT_TRUE(tree->Validate().ok()) << tree->Validate();

  auto mapping = Mapping::Build(*tree);
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  const MappedRelation* inproc = mapping->FindRelation("inproc");
  ASSERT_NE(inproc, nullptr);
  EXPECT_GE(inproc->FindMappedColumn("author_1"), 0);
  EXPECT_GE(inproc->FindMappedColumn("author_5"), 0);
  const MappedRelation* overflow = mapping->FindRelation("inproc_author");
  ASSERT_NE(overflow, nullptr);
  EXPECT_EQ(overflow->rep_overflow_from, 5);

  Transform merge;
  merge.kind = TransformKind::kRepetitionMerge;
  merge.target = *rep_id;
  ASSERT_TRUE(ApplyTransform(tree.get(), merge).ok());
  EXPECT_EQ(tree->ToString(), before);
}

TEST(TransformTest, RepetitionSplitShredding) {
  GeneratedData data = GenerateDblp(SmallDblp());
  SchemaNode* author = data.tree->FindTagByName("author");
  Transform split;
  split.kind = TransformKind::kRepetitionSplit;
  split.target = author->parent()->id();
  split.split_count = 5;
  ASSERT_TRUE(ApplyTransform(data.tree.get(), split).ok());

  auto mapping = Mapping::Build(*data.tree);
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  Database db;
  auto stats = ShredDocument(data.doc, *data.tree, *mapping, &db);
  ASSERT_TRUE(stats.ok()) << stats.status();

  const Table* inproc = db.FindTable("inproc");
  const Table* overflow = db.FindTable("inproc_author");
  ASSERT_NE(inproc, nullptr);
  ASSERT_NE(overflow, nullptr);
  // ~99 % of pubs have <= 5 authors, so the overflow is nearly empty.
  EXPECT_LT(overflow->row_count(), inproc->row_count() / 4);
  EXPECT_GT(overflow->row_count(), 0);

  // Total author values must be preserved: inline non-nulls + overflow.
  const MappedRelation* rel = mapping->FindRelation("inproc");
  int64_t inline_authors = 0;
  for (int i = 1; i <= 5; ++i) {
    int col = rel->FindMappedColumn("author_" + std::to_string(i));
    ASSERT_GE(col, 0);
    for (const Row& row : inproc->MaterializeRows()) {
      if (!row[static_cast<size_t>(kFixedColumns + col)].is_null()) {
        ++inline_authors;
      }
    }
  }
  // Count authors in the raw document under inproceedings.
  int64_t doc_authors = 0;
  for (const auto& pub : data.doc.root()->children()) {
    if (pub->tag() == "inproceedings") {
      doc_authors +=
          static_cast<int64_t>(pub->FindChildren("author").size());
    }
  }
  EXPECT_EQ(inline_authors + overflow->row_count(), doc_authors);
}

TEST(TransformTest, ExplicitUnionDistributionAndFactorization) {
  GeneratedData data = GenerateMovie(SmallMovie());
  std::string before = data.tree->ToString();
  SchemaNode* box = data.tree->FindTagByName("box_office");
  SchemaNode* choice = box->parent();
  ASSERT_EQ(choice->kind(), SchemaNodeKind::kChoice);

  Transform dist;
  dist.kind = TransformKind::kUnionDistribute;
  dist.target = choice->id();
  auto choice_id = ApplyTransform(data.tree.get(), dist);
  ASSERT_TRUE(choice_id.ok()) << choice_id.status();
  ASSERT_TRUE(data.tree->Validate().ok()) << data.tree->Validate();

  auto mapping = Mapping::Build(*data.tree);
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  // Two movie variants; the no-box_office variant drops that column.
  const MappedRelation* with_box = mapping->FindRelation("movie_box_office");
  const MappedRelation* with_seasons = mapping->FindRelation("movie_seasons");
  ASSERT_NE(with_box, nullptr);
  ASSERT_NE(with_seasons, nullptr);
  EXPECT_GE(with_box->FindMappedColumn("box_office"), 0);
  EXPECT_EQ(with_box->FindMappedColumn("seasons"), -1);
  EXPECT_GE(with_seasons->FindMappedColumn("seasons"), 0);
  EXPECT_EQ(with_seasons->FindMappedColumn("box_office"), -1);

  // Shred and verify the row split matches the generated TV fraction.
  Database db;
  auto stats = ShredDocument(data.doc, *data.tree, *mapping, &db);
  ASSERT_TRUE(stats.ok()) << stats.status();
  const Table* movies = db.FindTable("movie_box_office");
  const Table* tv = db.FindTable("movie_seasons");
  ASSERT_NE(movies, nullptr);
  ASSERT_NE(tv, nullptr);
  EXPECT_EQ(movies->row_count() + tv->row_count(), 2000);
  EXPECT_NEAR(static_cast<double>(tv->row_count()) / 2000.0, 0.3, 0.05);

  // Factorize restores the original tree exactly.
  Transform fact;
  fact.kind = TransformKind::kUnionFactorize;
  fact.target = *choice_id;
  ASSERT_TRUE(ApplyTransform(data.tree.get(), fact).ok());
  EXPECT_EQ(data.tree->ToString(), before);
}

TEST(TransformTest, ImplicitUnionDistribution) {
  GeneratedData data = GenerateMovie(SmallMovie());
  SchemaNode* rating = data.tree->FindTagByName("avg_rating");
  SchemaNode* option = rating->parent();
  ASSERT_EQ(option->kind(), SchemaNodeKind::kOption);

  Transform dist;
  dist.kind = TransformKind::kUnionDistribute;
  dist.target = option->id();
  dist.option_targets = {option->id()};
  auto id = ApplyTransform(data.tree.get(), dist);
  ASSERT_TRUE(id.ok()) << id.status();
  ASSERT_TRUE(data.tree->Validate().ok()) << data.tree->Validate();

  auto mapping = Mapping::Build(*data.tree);
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  const MappedRelation* with_rating =
      mapping->FindRelation("movie_with_avg_rating");
  const MappedRelation* without =
      mapping->FindRelation("movie_no_avg_rating");
  ASSERT_NE(with_rating, nullptr);
  ASSERT_NE(without, nullptr);
  EXPECT_GE(with_rating->FindMappedColumn("avg_rating"), 0);
  EXPECT_EQ(without->FindMappedColumn("avg_rating"), -1);

  Database db;
  auto stats = ShredDocument(data.doc, *data.tree, *mapping, &db);
  ASSERT_TRUE(stats.ok()) << stats.status();
  const Table* has = db.FindTable("movie_with_avg_rating");
  const Table* none = db.FindTable("movie_no_avg_rating");
  EXPECT_EQ(has->row_count() + none->row_count(), 2000);
  EXPECT_NEAR(static_cast<double>(has->row_count()) / 2000.0, 0.6, 0.05);
  // Every row in the with-variant has a rating.
  int col = kFixedColumns + with_rating->FindMappedColumn("avg_rating");
  for (const Row& row : has->MaterializeRows()) {
    EXPECT_FALSE(row[static_cast<size_t>(col)].is_null());
  }
}

TEST(TransformTest, MergedImplicitUnionOverTwoOptions) {
  GeneratedData data = GenerateMovie(SmallMovie());
  SchemaNode* rating_opt = data.tree->FindTagByName("avg_rating")->parent();
  SchemaNode* votes_opt = data.tree->FindTagByName("votes")->parent();
  Transform dist;
  dist.kind = TransformKind::kUnionDistribute;
  dist.target = rating_opt->id();
  dist.option_targets = {rating_opt->id(), votes_opt->id()};
  ASSERT_TRUE(ApplyTransform(data.tree.get(), dist).ok());
  auto mapping = Mapping::Build(*data.tree);
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  Database db;
  auto stats = ShredDocument(data.doc, *data.tree, *mapping, &db);
  ASSERT_TRUE(stats.ok()) << stats.status();
  const Table* has = db.FindTable("movie_with_avg_rating");
  const Table* none = db.FindTable("movie_no_avg_rating");
  ASSERT_NE(has, nullptr);
  ASSERT_NE(none, nullptr);
  // P(neither rating nor votes) = 0.4 * 0.5 = 0.2.
  EXPECT_NEAR(static_cast<double>(none->row_count()) / 2000.0, 0.2, 0.05);
}

TEST(TransformTest, TypeSplitAndMerge) {
  auto tree = BuildDblpSchemaTree();
  // Merge the two author types into one relation.
  auto authors = tree->FindTagsByName("author");
  ASSERT_EQ(authors.size(), 2u);
  Transform merge;
  merge.kind = TransformKind::kTypeMerge;
  merge.target = authors[0]->id();
  merge.target2 = authors[1]->id();
  ASSERT_TRUE(ApplyTransform(tree.get(), merge).ok());
  EXPECT_EQ(authors[0]->annotation(), authors[1]->annotation());
  auto mapping = Mapping::Build(*tree);
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  const MappedRelation* merged =
      mapping->FindRelation(authors[0]->annotation());
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->anchor_node_ids.size(), 2u);
  EXPECT_EQ(merged->parent_tables.size(), 2u);

  // Split them apart again.
  Transform split;
  split.kind = TransformKind::kTypeSplit;
  split.annotation = authors[0]->annotation();
  ASSERT_TRUE(ApplyTransform(tree.get(), split).ok());
  EXPECT_NE(authors[0]->annotation(), authors[1]->annotation());
}

TEST(TransformTest, DeepMergeOutlinesInlinedOccurrence) {
  auto tree = BuildDblpSchemaTree();
  // inproc's title is inlined; book's is annotated title1. Type merge must
  // outline the inlined one (deep merge, §4.3).
  auto titles = tree->FindTagsByName("title");
  ASSERT_EQ(titles.size(), 2u);
  Transform merge;
  merge.kind = TransformKind::kTypeMerge;
  merge.target = titles[0]->id();
  merge.target2 = titles[1]->id();
  ASSERT_TRUE(ApplyTransform(tree.get(), merge).ok());
  EXPECT_TRUE(titles[0]->is_annotated());
  EXPECT_EQ(titles[0]->annotation(), titles[1]->annotation());
  auto mapping = Mapping::Build(*tree);
  ASSERT_TRUE(mapping.ok()) << mapping.status();
}

TEST(TransformTest, InlineAndOutline) {
  auto tree = BuildDblpSchemaTree();
  SchemaNode* title1 = nullptr;
  for (SchemaNode* t : tree->FindTagsByName("title")) {
    if (t->annotation() == "title1") title1 = t;
  }
  ASSERT_NE(title1, nullptr);
  Transform inline_t;
  inline_t.kind = TransformKind::kInline;
  inline_t.target = title1->id();
  ASSERT_TRUE(ApplyTransform(tree.get(), inline_t).ok());
  auto mapping = Mapping::Build(*tree);
  ASSERT_TRUE(mapping.ok());
  // book now carries the title column inline.
  const MappedRelation* book = mapping->FindRelation("book");
  EXPECT_GE(book->FindMappedColumn("title"), 0);

  Transform outline;
  outline.kind = TransformKind::kOutline;
  outline.target = title1->id();
  ASSERT_TRUE(ApplyTransform(tree.get(), outline).ok());
  EXPECT_TRUE(title1->is_annotated());

  // Set-valued elements cannot be inlined.
  SchemaNode* author = tree->FindTagByName("author");
  Transform bad;
  bad.kind = TransformKind::kInline;
  bad.target = author->id();
  EXPECT_FALSE(ApplyTransform(tree.get(), bad).ok());
}

TEST(TransformTest, FullyInlineIsHybridInlining) {
  auto tree = BuildDblpSchemaTree();
  FullyInline(tree.get());
  auto mapping = Mapping::Build(*tree);
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  // Hybrid inlining: dblp, inproc, inproc_author, book, book_author — the
  // outlined title1 collapses into book.
  EXPECT_EQ(mapping->relations().size(), 5u);
  const MappedRelation* book = mapping->FindRelation("book");
  ASSERT_NE(book, nullptr);
  EXPECT_GE(book->FindMappedColumn("title"), 0);
}

TEST(TransformTest, EnumerateTransformsCoversAllKinds) {
  GeneratedData data = GenerateMovie(SmallMovie());
  std::vector<Transform> transforms = EnumerateTransforms(*data.tree, 5);
  std::set<TransformKind> kinds;
  for (const Transform& t : transforms) kinds.insert(t.kind);
  EXPECT_TRUE(kinds.count(TransformKind::kUnionDistribute) > 0);
  EXPECT_TRUE(kinds.count(TransformKind::kRepetitionSplit) > 0);
  // Movie's annotated tags are all set-valued, so nothing is inlineable.
  EXPECT_EQ(kinds.count(TransformKind::kInline), 0u);

  auto dblp = BuildDblpSchemaTree();
  transforms = EnumerateTransforms(*dblp, 5);
  kinds.clear();
  for (const Transform& t : transforms) kinds.insert(t.kind);
  EXPECT_TRUE(kinds.count(TransformKind::kTypeMerge) > 0);
  EXPECT_TRUE(kinds.count(TransformKind::kOutline) > 0);
  EXPECT_TRUE(kinds.count(TransformKind::kInline) > 0);  // title1
}

class StatsDerivationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = GenerateMovie(SmallMovie());
    auto stats = XmlStatistics::Collect(data_.doc, *data_.tree);
    ASSERT_TRUE(stats.ok()) << stats.status();
    stats_ = std::make_unique<XmlStatistics>(std::move(*stats));
  }

  // Shreds the current tree and compares derived vs exact statistics.
  void CheckDerivedAgainstExact(double row_tolerance) {
    auto mapping = Mapping::Build(*data_.tree);
    ASSERT_TRUE(mapping.ok()) << mapping.status();
    Database db;
    auto shred = ShredDocument(data_.doc, *data_.tree, *mapping, &db);
    ASSERT_TRUE(shred.ok()) << shred.status();
    for (const MappedRelation& rel : mapping->relations()) {
      TableStats derived = stats_->DeriveTableStats(*data_.tree, rel);
      const Table* table = db.FindTable(rel.table_name);
      ASSERT_NE(table, nullptr);
      EXPECT_NEAR(static_cast<double>(derived.row_count),
                  static_cast<double>(table->row_count()),
                  row_tolerance * static_cast<double>(table->row_count()) + 2)
          << rel.table_name;
      TableStats exact = table->ComputeStats();
      for (size_t c = 0; c < derived.columns.size(); ++c) {
        EXPECT_NEAR(
            static_cast<double>(derived.columns[c].non_null_count),
            static_cast<double>(exact.columns[c].non_null_count),
            row_tolerance * static_cast<double>(exact.row_count) + 2)
            << rel.table_name << " col " << c;
      }
    }
  }

  GeneratedData data_;
  std::unique_ptr<XmlStatistics> stats_;
};

TEST_F(StatsDerivationTest, DefaultMappingExact) {
  CheckDerivedAgainstExact(0.001);
}

TEST_F(StatsDerivationTest, AfterRepetitionSplit) {
  Transform split;
  split.kind = TransformKind::kRepetitionSplit;
  split.target = data_.tree->FindTagByName("aka_title")->parent()->id();
  split.split_count = 3;
  ASSERT_TRUE(ApplyTransform(data_.tree.get(), split).ok());
  CheckDerivedAgainstExact(0.001);
}

TEST_F(StatsDerivationTest, AfterExplicitUnionDistribution) {
  Transform dist;
  dist.kind = TransformKind::kUnionDistribute;
  dist.target = data_.tree->FindTagByName("box_office")->parent()->id();
  ASSERT_TRUE(ApplyTransform(data_.tree.get(), dist).ok());
  // Variant row counts are exact (from presence combos); per-column
  // presence within a variant is approximated.
  CheckDerivedAgainstExact(0.05);
}

TEST_F(StatsDerivationTest, AfterImplicitUnionDistribution) {
  SchemaNode* option = data_.tree->FindTagByName("avg_rating")->parent();
  Transform dist;
  dist.kind = TransformKind::kUnionDistribute;
  dist.target = option->id();
  dist.option_targets = {option->id()};
  ASSERT_TRUE(ApplyTransform(data_.tree.get(), dist).ok());
  CheckDerivedAgainstExact(0.05);
}

TEST_F(StatsDerivationTest, ValueDistributionsSurvive) {
  auto mapping = Mapping::Build(*data_.tree);
  ASSERT_TRUE(mapping.ok());
  const MappedRelation* movie = mapping->FindRelation("movie");
  TableStats derived = stats_->DeriveTableStats(*data_.tree, *movie);
  int year = kFixedColumns + movie->FindMappedColumn("year");
  const ColumnStats& year_stats = derived.columns[static_cast<size_t>(year)];
  // Uniform 1930..2004: selectivity of year >= 1990 is ~0.2.
  double sel = year_stats.RangeSelectivity(">=", Value::Int(1990));
  EXPECT_NEAR(sel, 15.0 / 75.0, 0.04);
  EXPECT_GT(year_stats.distinct_estimate, 50);
}

TEST_F(StatsDerivationTest, DeriveCatalogCoversAllRelations) {
  auto mapping = Mapping::Build(*data_.tree);
  ASSERT_TRUE(mapping.ok());
  CatalogDesc catalog = stats_->DeriveCatalog(*data_.tree, *mapping);
  EXPECT_EQ(catalog.tables.size(), mapping->relations().size());
  EXPECT_GT(catalog.DataPages(), 0);
}

TEST(XmlStatisticsTest, CardinalityHistogram) {
  GeneratedData data = GenerateDblp([] {
    DblpConfig c;
    c.num_inproceedings = 3000;
    c.num_books = 100;
    return c;
  }());
  auto stats = XmlStatistics::Collect(data.doc, *data.tree);
  ASSERT_TRUE(stats.ok());
  SchemaNode* author = data.tree->FindTagByName("author");
  const auto* hist = stats->CardinalityHist(author->parent()->origin_id());
  ASSERT_NE(hist, nullptr);
  int64_t total = 0, low = 0;
  for (const auto& [k, n] : *hist) {
    total += n;
    if (k <= 5) low += n;
  }
  EXPECT_EQ(total, 3000);
  // ~99 % of publications have <= 5 authors.
  EXPECT_GT(static_cast<double>(low) / static_cast<double>(total), 0.97);
}

TEST(XmlStatisticsTest, PresenceCombos) {
  GeneratedData data = GenerateMovie(SmallMovie());
  auto stats = XmlStatistics::Collect(data.doc, *data.tree);
  ASSERT_TRUE(stats.ok());
  SchemaNode* movie = data.tree->FindTagByName("movie");
  int64_t with_rating = stats->CountMatchingPresence(
      movie->origin_id(), {"avg_rating"}, {});
  EXPECT_NEAR(static_cast<double>(with_rating) / 2000.0, 0.6, 0.05);
  int64_t tv = stats->CountMatchingPresence(movie->origin_id(), {"seasons"},
                                            {"box_office"});
  EXPECT_NEAR(static_cast<double>(tv) / 2000.0, 0.3, 0.05);
  int64_t neither = stats->CountMatchingPresence(
      movie->origin_id(), {}, {"avg_rating", "votes"});
  EXPECT_NEAR(static_cast<double>(neither) / 2000.0, 0.2, 0.05);
}

// Exact values over a hand-written schema and a three-record document:
// a repetition whose parent has zero occurrences, an option present with
// empty text, and a two-way choice.
TEST(XmlStatisticsTest, ExactCountsOnHandWrittenSchema) {
  auto tree = ParseXsd(R"(<xs:schema xmlns:xs="x">
  <xs:element name="lib"><xs:complexType><xs:sequence>
    <xs:element name="rec" maxOccurs="unbounded"><xs:complexType><xs:sequence>
      <xs:element name="id" type="xs:int"/>
      <xs:element name="tag" type="xs:string" minOccurs="0"
                  maxOccurs="unbounded"/>
      <xs:element name="note" type="xs:string" minOccurs="0"/>
      <xs:choice>
        <xs:element name="isbn" type="xs:string"/>
        <xs:element name="issn" type="xs:string"/>
      </xs:choice>
    </xs:sequence></xs:complexType></xs:element>
  </xs:sequence></xs:complexType></xs:element>
</xs:schema>)");
  ASSERT_TRUE(tree.ok()) << tree.status();
  AssignDefaultAnnotations(tree->get());
  const SchemaTree& schema = **tree;
  auto doc = ParseXml(
      "<lib>"
      "<rec><id>1</id><tag>a</tag><tag>b</tag><note>n1</note>"
      "<isbn>I1</isbn></rec>"
      "<rec><id>2</id><issn>S2</issn></rec>"
      "<rec><id>3</id><tag>c</tag><note></note><isbn>I3</isbn></rec>"
      "</lib>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  auto stats = XmlStatistics::Collect(*doc, schema);
  ASSERT_TRUE(stats.ok()) << stats.status();

  auto origin = [&](const std::string& name) {
    SchemaNode* node = (*tree)->FindTagByName(name);
    EXPECT_NE(node, nullptr) << name;
    return node->origin_id();
  };
  EXPECT_EQ(stats->ElementCount(origin("lib")), 1);
  EXPECT_EQ(stats->ElementCount(origin("rec")), 3);
  EXPECT_EQ(stats->ElementCount(origin("id")), 3);
  EXPECT_EQ(stats->ElementCount(origin("tag")), 3);
  EXPECT_EQ(stats->ElementCount(origin("note")), 2);
  EXPECT_EQ(stats->ElementCount(origin("isbn")), 2);
  EXPECT_EQ(stats->ElementCount(origin("issn")), 1);
  EXPECT_EQ(stats->total_elements(), 15);

  // One visit per parent, the zero-occurrence parent included.
  const auto* tags = stats->CardinalityHist(
      (*tree)->FindTagByName("tag")->parent()->origin_id());
  ASSERT_NE(tags, nullptr);
  EXPECT_EQ(*tags, (std::map<int64_t, int64_t>{{0, 1}, {1, 1}, {2, 1}}));
  const auto* recs = stats->CardinalityHist(
      (*tree)->FindTagByName("rec")->parent()->origin_id());
  ASSERT_NE(recs, nullptr);
  EXPECT_EQ(*recs, (std::map<int64_t, int64_t>{{3, 1}}));

  // Presence of rec's optional children (note, isbn, issn; tag sits
  // under a repetition and is not tracked).
  const int rec = origin("rec");
  EXPECT_EQ(stats->CountMatchingPresence(rec, {}, {}), 3);
  EXPECT_EQ(stats->CountMatchingPresence(rec, {"isbn"}, {}), 2);
  EXPECT_EQ(stats->CountMatchingPresence(rec, {"issn"}, {}), 1);
  EXPECT_EQ(stats->CountMatchingPresence(rec, {"isbn", "issn"}, {}), 3);
  EXPECT_EQ(stats->CountMatchingPresence(rec, {}, {"note"}), 1);
  EXPECT_EQ(stats->CountMatchingPresence(rec, {"isbn"}, {"note"}), 0);
  EXPECT_EQ(stats->CountMatchingPresence(rec, {"isbn"}, {}, {"note"}), 2);
  EXPECT_EQ(stats->CountMatchingPresence(rec, {"issn"}, {}, {"note"}), 0);

  // Leaf values: empty text is NULL.
  auto non_null = [&](const std::string& name) {
    const ColumnStats* values = stats->ValueStats(origin(name));
    EXPECT_NE(values, nullptr) << name;
    return values == nullptr ? -1 : values->non_null_count;
  };
  EXPECT_EQ(non_null("id"), 3);
  EXPECT_EQ(non_null("tag"), 3);
  EXPECT_EQ(non_null("note"), 1);
  EXPECT_EQ(non_null("isbn"), 2);
  EXPECT_EQ(non_null("issn"), 1);
  EXPECT_EQ(stats->ValueStats(origin("note"))->null_count, 1);
  EXPECT_EQ(stats->ValueStats(origin("id"))->min.AsInt(), 1);
  EXPECT_EQ(stats->ValueStats(origin("id"))->max.AsInt(), 3);

  // A stray child fails collection exactly as it fails shredding.
  auto stray = ParseXml(
      "<lib><rec><id>1</id><bogus/><isbn>I1</isbn></rec></lib>");
  ASSERT_TRUE(stray.ok()) << stray.status();
  auto rejected = XmlStatistics::Collect(*stray, schema);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rejected.status().message(),
            "no choice alternative matches <bogus>");
  auto mapping = Mapping::Build(schema);
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  Database db;
  auto shredded = ShredDocument(*stray, schema, *mapping, &db);
  ASSERT_FALSE(shredded.ok());
  EXPECT_EQ(shredded.status().ToString(), rejected.status().ToString());
}

}  // namespace
}  // namespace xmlshred
