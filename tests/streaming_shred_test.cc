// Tests for the streaming shredder (mapping/stream_shredder.h) and the
// pull parser underneath it (xml/stream_parser.h).
//
// The central claim under test is *bit-identity*: ShredStream must leave
// the Database — every cell tag and bit pattern, every dictionary code,
// every sealed block — in exactly the state the DOM path (ParseXml +
// ShredDocument) produces. The differential tests hash the full database
// state and compare the two paths' digests over plain, transformed
// (variant-choice, repetition-split), ambiguous-root and leaf-root
// schemas. The index build is checked against an independent Value-order
// reference.
//
// The failure-path tests assert the all-or-nothing contract: a parse
// error mid-stream, a schema mismatch, a governor memory trip at a batch
// boundary, or an injected shred.stream fault must leave the database
// exactly as it was — no tables, no stray dictionary entries — and a
// schema mismatch must name the DOM path's error.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/limits.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/strings.h"
#include "database_digest.h"
#include "mapping/mapping.h"
#include "mapping/shredder.h"
#include "mapping/stream_shredder.h"
#include "mapping/transforms.h"
#include "rel/catalog.h"
#include "rel/index.h"
#include "workload/dblp.h"
#include "workload/movie.h"
#include "xml/document.h"
#include "xml/schema_tree.h"
#include "xml/stream_parser.h"

namespace xmlshred {
namespace {

// --- Corpus helpers -----------------------------------------------------

// A schema tree, its mapping, the serialized document, and the DOM parse
// of that same text (so both ingest paths consume identical bytes).
struct Corpus {
  std::unique_ptr<SchemaTree> tree;
  std::optional<Mapping> mapping;
  std::string xml;
  XmlDocument doc;
};

Corpus MakeCorpus(std::unique_ptr<SchemaTree> tree, std::string xml) {
  Corpus c;
  c.tree = std::move(tree);
  c.xml = std::move(xml);
  auto parsed = ParseXml(c.xml, ParseOptions{});
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (parsed.ok()) c.doc = std::move(*parsed);
  auto mapping = Mapping::Build(*c.tree);
  EXPECT_TRUE(mapping.ok()) << mapping.status().ToString();
  if (mapping.ok()) c.mapping.emplace(std::move(*mapping));
  return c;
}

Corpus DblpCorpus(int inproceedings) {
  DblpConfig config;
  config.num_inproceedings = inproceedings;
  config.num_books = inproceedings / 6 + 1;
  config.num_conferences = 20;
  // The generator's author-id bucketing requires >= 100 authors.
  config.num_authors = 100 + inproceedings / 3;
  GeneratedData data = GenerateDblp(config);
  std::string xml = data.doc.ToXml();
  return MakeCorpus(std::move(data.tree), std::move(xml));
}

Corpus MovieCorpus(int movies) {
  MovieConfig config;
  config.num_movies = movies;
  GeneratedData data = GenerateMovie(config);
  std::string xml = data.doc.ToXml();
  return MakeCorpus(std::move(data.tree), std::move(xml));
}

uint64_t DomDigest(const Corpus& c, ShredStats* stats_out = nullptr) {
  Database db;
  auto stats = ShredDocument(c.doc, *c.tree, *c.mapping, &db);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  if (stats_out != nullptr && stats.ok()) *stats_out = *stats;
  return DatabaseDigest(db);
}

uint64_t StreamDigest(const Corpus& c, ShredStats* stats_out = nullptr) {
  Database db;
  auto stats = ShredStream(c.xml, *c.tree, *c.mapping, &db);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  if (stats_out != nullptr && stats.ok()) *stats_out = *stats;
  return DatabaseDigest(db);
}

// --- Stream parser ------------------------------------------------------

std::vector<XmlEvent> Drain(XmlStreamParser* parser, Status* error) {
  std::vector<XmlEvent> events;
  while (true) {
    auto ev = parser->Next();
    if (!ev.ok()) {
      *error = ev.status();
      return events;
    }
    if (ev->kind == XmlEventKind::kEndOfInput) return events;
    events.push_back(*ev);
  }
}

TEST(StreamParser, EventSequence) {
  const std::string xml =
      "<?xml version=\"1.0\"?>\n"
      "<!-- preamble -->\n"
      "<root attr=\"v\">\n"
      "  <a>one &amp; two</a>\n"
      "  <b/>\n"
      "  tail text\n"
      "  <c>   </c>\n"
      "</root>";
  XmlStreamParser parser(xml);
  Status error = Status::OK();
  std::vector<XmlEvent> events = Drain(&parser, &error);
  ASSERT_TRUE(error.ok()) << error.ToString();

  std::vector<std::string> got;
  for (const XmlEvent& ev : events) {
    switch (ev.kind) {
      case XmlEventKind::kStartElement:
        got.push_back("+" + std::string(ev.name));
        break;
      case XmlEventKind::kEndElement:
        got.push_back("-" + std::string(ev.name));
        break;
      case XmlEventKind::kText: {
        std::string text;
        AppendDecodedText(ev.raw_text, &text);
        got.push_back("t:" + text);
        break;
      }
      case XmlEventKind::kEndOfInput:
        break;
    }
  }
  std::vector<std::string> want = {"+root", "+a", "t:one & two", "-a",
                                   "+b",    "-b", "t:tail text", "+c",
                                   "-c",    "-root"};
  EXPECT_EQ(got, want);
}

// Both parsers accept exactly the same language: for a spread of valid
// and malformed inputs, DOM parse success must equal stream drain
// success.
TEST(StreamParser, AcceptanceMatchesDomParser) {
  const std::vector<std::string> inputs = {
      "<a/>",
      "<a>x</a>",
      "<a><b>1</b><b>2</b></a>",
      "<a b=\"c\" d=\"e\">t</a>",
      "<a>&lt;&gt;&quot;&apos;&amp;</a>",
      "<?xml version=\"1.0\"?><a/>",
      "<!-- c --><a/><!-- c -->",
      "",
      "<a",
      "<a>",
      "<a></b>",
      "<a><b></a></b>",
      "<a/>junk",
      "<a/><b/>",
      "<a>&unknown;</a>",
      "<a b=>x</a>",
      "<a><!-- unterminated </a>",
      "junk<a/>",
  };
  for (const std::string& input : inputs) {
    bool dom_ok = ParseXml(input, ParseOptions{}).ok();
    XmlStreamParser parser(input);
    Status error = Status::OK();
    Drain(&parser, &error);
    EXPECT_EQ(dom_ok, error.ok()) << "input: " << input << " stream error: "
                                  << error.ToString();
  }
}

TEST(StreamParser, DepthGuardTripsLikeDomParser) {
  std::string deep;
  for (int i = 0; i < 64; ++i) deep += "<d>";
  deep += "x";
  for (int i = 0; i < 64; ++i) deep += "</d>";

  ResourceLimits limits;
  limits.max_recursion_depth = 8;
  ResourceGovernor dom_gov(limits);
  ParseOptions parse_options;
  parse_options.governor = &dom_gov;
  EXPECT_EQ(ParseXml(deep, parse_options).status().code(),
            StatusCode::kResourceExhausted);

  ResourceGovernor stream_gov(limits);
  StreamParseOptions options;
  options.governor = &stream_gov;
  XmlStreamParser parser(deep, options);
  Status error = Status::OK();
  Drain(&parser, &error);
  EXPECT_EQ(error.code(), StatusCode::kResourceExhausted);
}

// --- Differential: DOM vs streaming -------------------------------------

TEST(StreamingShred, BitIdenticalToDomOnDblp) {
  Corpus corpus = DblpCorpus(350);
  ShredStats dom_stats;
  uint64_t dom = DomDigest(corpus, &dom_stats);
  ShredStats stream_stats;
  EXPECT_EQ(dom, StreamDigest(corpus, &stream_stats));
  EXPECT_EQ(stream_stats.rows, dom_stats.rows);
  EXPECT_EQ(stream_stats.elements, dom_stats.elements);
}

TEST(StreamingShred, BitIdenticalToDomOnMovie) {
  Corpus corpus = MovieCorpus(500);
  EXPECT_EQ(DomDigest(corpus), StreamDigest(corpus));
}

// Union distribution turns the root-level <movie> tag into a variant
// choice, so the walker routes each streamed record by its presence
// constraints; repetition split inside <movie> exercises occurrence
// columns and the overflow relation.
TEST(StreamingShred, BitIdenticalOnTransformedSchemas) {
  MovieConfig config;
  config.num_movies = 400;
  GeneratedData data = GenerateMovie(config);

  Transform distribute;
  distribute.kind = TransformKind::kUnionDistribute;
  distribute.target = data.tree->FindTagByName("box_office")->parent()->id();
  auto applied = ApplyTransform(data.tree.get(), distribute);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();

  Transform split;
  split.kind = TransformKind::kRepetitionSplit;
  split.target = data.tree->FindTagByName("aka_title")->parent()->id();
  split.split_count = 3;
  applied = ApplyTransform(data.tree.get(), split);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();

  Corpus corpus = MakeCorpus(std::move(data.tree), data.doc.ToXml());
  EXPECT_EQ(DomDigest(corpus), StreamDigest(corpus));
}

// A leaf root has no element children to stream: its one element is
// built whole, and both paths store its one row.
TEST(StreamingShred, BitIdenticalOnLeafRoot) {
  auto tree = std::make_unique<SchemaTree>();
  auto root = tree->NewTag("r");
  root->set_annotation("r");
  root->AddChild(tree->NewSimple(XsdBaseType::kString));
  tree->SetRoot(std::move(root));
  ASSERT_TRUE(tree->Validate().ok()) << tree->Validate();
  Corpus corpus = MakeCorpus(std::move(tree), "<r>hello</r>");
  ShredStats dom_stats;
  uint64_t dom = DomDigest(corpus, &dom_stats);
  ShredStats stream_stats;
  EXPECT_EQ(dom, StreamDigest(corpus, &stream_stats));
  EXPECT_EQ(dom_stats.rows, 1);
  EXPECT_EQ(stream_stats.rows, 1);
  EXPECT_EQ(stream_stats.elements, 1);
}

// r(r) -> a? , (a(a_items) | b(b_items))* : the tag name "a" appears in
// two distinct root-level particles (an inlined option and a set-valued
// choice alternative), so which one a top-level <a> instantiates depends
// on its position, not on its name alone.
std::unique_ptr<SchemaTree> AmbiguousRootTree() {
  auto tree = std::make_unique<SchemaTree>();
  auto root = tree->NewTag("r");
  root->set_annotation("r");
  auto seq = tree->NewNode(SchemaNodeKind::kSequence);
  auto opt = tree->NewNode(SchemaNodeKind::kOption);
  auto a_inline = tree->NewTag("a");
  a_inline->AddChild(tree->NewSimple(XsdBaseType::kString));
  opt->AddChild(std::move(a_inline));
  seq->AddChild(std::move(opt));
  auto rep = tree->NewNode(SchemaNodeKind::kRepetition);
  auto choice = tree->NewNode(SchemaNodeKind::kChoice);
  auto a_set = tree->NewTag("a");
  a_set->set_annotation("a_items");
  a_set->AddChild(tree->NewSimple(XsdBaseType::kString));
  choice->AddChild(std::move(a_set));
  auto b_set = tree->NewTag("b");
  b_set->set_annotation("b_items");
  b_set->AddChild(tree->NewSimple(XsdBaseType::kInt));
  choice->AddChild(std::move(b_set));
  rep->AddChild(std::move(choice));
  seq->AddChild(std::move(rep));
  root->AddChild(std::move(seq));
  tree->SetRoot(std::move(root));
  return tree;
}

// The ambiguous root is matched by the one walker over the whole document
// in order: the first <a> lands in the root row, later ones in a_items,
// exactly as the DOM shredder routes them.
TEST(StreamingShred, AmbiguousRootRoutingFallsBackToWholeDocument) {
  auto tree = AmbiguousRootTree();
  ASSERT_TRUE(tree->Validate().ok()) << tree->Validate();
  Corpus corpus =
      MakeCorpus(std::move(tree),
                 "<r><a>first</a><a>second</a><b>7</b><a>third</a></r>");
  ShredStats dom_stats;
  uint64_t dom = DomDigest(corpus, &dom_stats);
  ShredStats stream_stats;
  EXPECT_EQ(dom, StreamDigest(corpus, &stream_stats));
  EXPECT_EQ(stream_stats.rows, dom_stats.rows);
  EXPECT_EQ(stream_stats.rows, 4);  // root row, two a_items, one b_items
  EXPECT_EQ(stream_stats.elements, dom_stats.elements);
}

TEST(StreamingShred, StatsReportBatchAccounting) {
  Corpus corpus = DblpCorpus(300);
  ShredStats dom_stats;
  DomDigest(corpus, &dom_stats);

  ShredStats stream_stats;
  StreamDigest(corpus, &stream_stats);
  EXPECT_GT(stream_stats.batches_emitted, 0);
  EXPECT_GT(stream_stats.peak_batch_bytes, 0);
  EXPECT_GT(stream_stats.transient_peak_bytes, 0);
  // The DOM path flushes through the same batch writer.
  EXPECT_EQ(dom_stats.batches_emitted, stream_stats.batches_emitted);
  EXPECT_EQ(dom_stats.peak_batch_bytes, stream_stats.peak_batch_bytes);
}

TEST(StreamingShred, MetricsReportTheIngest) {
  Corpus corpus = MovieCorpus(300);
  Database db;
  MetricsRegistry registry;
  StreamShredOptions options;
  options.metrics = &registry;
  auto stats =
      ShredStream(corpus.xml, *corpus.tree, *corpus.mapping, &db, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(registry.counter(kMetricShredDocuments)->value(), 1);
  EXPECT_GT(registry.counter(kMetricShredRows)->value(), 0);
  EXPECT_GT(registry.counter(kMetricShredBatchesEmitted)->value(), 0);
  EXPECT_GT(registry.gauge(kMetricShredPeakBatchBytes)->value(), 0);
}

// --- Failure paths: all-or-nothing rollback -----------------------------

// Runs a failing ingest against a database with one pre-existing
// dictionary entry and asserts nothing stuck.
void ExpectRollback(const std::string& xml, const Corpus& corpus,
                    StatusCode want_code) {
  Database db;
  db.mutable_dictionary()->Intern("zz_preexisting");
  auto stats = ShredStream(xml, *corpus.tree, *corpus.mapping, &db);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), want_code) << stats.status().ToString();
  EXPECT_TRUE(db.TableNames().empty());
  ASSERT_EQ(db.dictionary().size(), 1u);
  EXPECT_EQ(db.dictionary().str(0), "zz_preexisting");
}

TEST(StreamingShred, MalformedXmlMidStreamRollsBackCleanly) {
  Corpus corpus = DblpCorpus(40);
  const std::string root = corpus.tree->root()->name();
  const std::vector<std::pair<std::string, StatusCode>> cases = {
      // Truncated mid-document.
      {"<" + root + "><inproceedings><title>t</title>",
       StatusCode::kInvalidArgument},
      // Mismatched close tag.
      {"<" + root + "><inproceedings></wrong></" + root + ">",
       StatusCode::kInvalidArgument},
      // Content after the document element.
      {"<" + root + "></" + root + "><extra/>", StatusCode::kInvalidArgument},
      // Well-formed but unknown root child.
      {"<" + root + "><no_such_tag/></" + root + ">",
       StatusCode::kInvalidArgument},
      // Wrong root element.
      {"<not_the_root/>", StatusCode::kInvalidArgument},
  };
  for (const auto& [xml, code] : cases) {
    SCOPED_TRACE(xml);
    ExpectRollback(xml, corpus, code);
  }
}

// ShredDocument is the whole-document path of the same ingest, so a DOM
// that fails after rows, sealed batches, and dictionary entries were
// produced — a shred.stream fault on a batch flush, or a stray element
// after every valid record — leaves the database exactly as it was.
TEST(StreamingShred, DomShredRollsBackCleanly) {
  Corpus corpus = DblpCorpus(2000);
  auto expect_rollback = [&](StatusCode want_code) {
    Database db;
    db.mutable_dictionary()->Intern("zz_preexisting");
    auto stats =
        ShredDocument(corpus.doc, *corpus.tree, *corpus.mapping, &db);
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), want_code) << stats.status().ToString();
    EXPECT_TRUE(db.TableNames().empty());
    ASSERT_EQ(db.dictionary().size(), 1u);
    EXPECT_EQ(db.dictionary().str(0), "zz_preexisting");
  };
  {
    ScopedFaultInjection scope(kFaultSiteShredStream, 2);
    expect_rollback(StatusCode::kInternal);
    EXPECT_EQ(FaultInjector::Global()->hits(kFaultSiteShredStream), 2);
  }
  corpus.doc.root()->AddChild("stray");
  expect_rollback(StatusCode::kInvalidArgument);
}

// A document whose only defects are structural (it parses fine) must
// produce the same error message as ShredDocument over its DOM: the
// first one the walk meets in document order.
TEST(StreamingShred, SchemaMismatchErrorsMatchDomShredder) {
  Corpus corpus = DblpCorpus(30);
  const XmlElement& dblp = *corpus.doc.root();
  const std::string root = dblp.tag();

  // One <book> ahead of every <inproceedings>, which the root's sequence
  // (inproceedings*, book*) rejects, and an unknown child in the last
  // <book>, which comes later in document order.
  std::vector<const XmlElement*> books = dblp.FindChildren("book");
  ASSERT_GE(books.size(), 2u);
  std::string reordered = "<" + root + ">" + books[0]->ToXml();
  for (const XmlElement* inproceedings : dblp.FindChildren("inproceedings")) {
    reordered += inproceedings->ToXml();
  }
  for (size_t i = 1; i + 1 < books.size(); ++i) reordered += books[i]->ToXml();
  std::string last = books.back()->ToXml();
  last.insert(last.rfind("</book>"), "<bogus>x</bogus>");
  reordered += last + "</" + root + ">";

  for (const std::string& bad :
       {"<" + root + "><no_such_tag/></" + root + ">", reordered}) {
    Database dom_db;
    auto parsed = ParseXml(bad, ParseOptions{});
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    auto dom = ShredDocument(*parsed, *corpus.tree, *corpus.mapping, &dom_db);
    ASSERT_FALSE(dom.ok());

    Database db;
    auto stream = ShredStream(bad, *corpus.tree, *corpus.mapping, &db);
    ASSERT_FALSE(stream.ok());
    EXPECT_EQ(stream.status().ToString(), dom.status().ToString());
  }
}

TEST(StreamingShred, GovernorTripsAtExactBatchBoundary) {
  Corpus corpus = DblpCorpus(250);

  // Learn the exact memory the ingest charges (one batch at a time).
  ResourceGovernor unlimited;
  Database learn_db;
  StreamShredOptions options;
  options.governor = &unlimited;
  auto learn = ShredStream(corpus.xml, *corpus.tree, *corpus.mapping,
                           &learn_db, options);
  ASSERT_TRUE(learn.ok()) << learn.status().ToString();
  const int64_t charged = unlimited.memory_charged();
  ASSERT_GT(charged, 0);
  const uint64_t want = DatabaseDigest(learn_db);

  // A cap of exactly the learned charge admits the ingest.
  ResourceLimits exact;
  exact.max_memory_bytes = charged;
  ResourceGovernor ok_gov(exact);
  Database ok_db;
  options.governor = &ok_gov;
  auto ok = ShredStream(corpus.xml, *corpus.tree, *corpus.mapping, &ok_db,
                        options);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok_gov.memory_charged(), charged);
  EXPECT_EQ(DatabaseDigest(ok_db), want);

  // One byte less trips on the final batch flush and rolls back.
  ResourceLimits tight;
  tight.max_memory_bytes = charged - 1;
  ResourceGovernor trip_gov(tight);
  Database trip_db;
  trip_db.mutable_dictionary()->Intern("zz_preexisting");
  options.governor = &trip_gov;
  auto tripped = ShredStream(corpus.xml, *corpus.tree, *corpus.mapping,
                             &trip_db, options);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(trip_db.TableNames().empty());
  ASSERT_EQ(trip_db.dictionary().size(), 1u);
  EXPECT_EQ(trip_db.dictionary().str(0), "zz_preexisting");
}

TEST(StreamingShred, InjectedBatchFaultRollsBackAtEveryThreadCount) {
  Corpus corpus = DblpCorpus(200);

  // Count the shred.stream hits a clean ingest performs (one per batch
  // flush).
  int total_hits = 0;
  {
    ScopedFaultInjection scope(kFaultSiteShredStream, 1 << 30);
    int before = FaultInjector::Global()->hits(kFaultSiteShredStream);
    Database db;
    auto stats = ShredStream(corpus.xml, *corpus.tree, *corpus.mapping, &db);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    total_hits = FaultInjector::Global()->hits(kFaultSiteShredStream) - before;
  }
  ASSERT_GT(total_hits, 0);

  // Firing on the first and on the last batch both roll back fully.
  for (int nth : {1, total_hits}) {
    SCOPED_TRACE("nth=" + std::to_string(nth));
    ScopedFaultInjection scope(kFaultSiteShredStream, nth);
    Database db;
    db.mutable_dictionary()->Intern("zz_preexisting");
    auto stats = ShredStream(corpus.xml, *corpus.tree, *corpus.mapping, &db);
    ASSERT_FALSE(stats.ok());
    EXPECT_TRUE(db.TableNames().empty());
    ASSERT_EQ(db.dictionary().size(), 1u);
    EXPECT_EQ(db.dictionary().str(0), "zz_preexisting");
  }
}

// --- Bounded memory -----------------------------------------------------

// Streams `<root>` + head + n copies of unit + `</root>` under `tree`,
// checks the database against the DOM path's, and returns the stream's
// stats.
ShredStats StreamRepeated(const SchemaTree& tree, const Mapping& mapping,
                          const std::string& head, const std::string& unit,
                          int n) {
  const std::string root = tree.root()->name();
  std::string xml = "<" + root + ">" + head;
  for (int i = 0; i < n; ++i) xml += unit;
  xml += "</" + root + ">";
  SCOPED_TRACE("<" + root + "> n=" + std::to_string(n));

  Database db;
  auto stats = ShredStream(xml, tree, mapping, &db);
  EXPECT_TRUE(stats.ok()) << stats.status();
  if (!stats.ok()) return ShredStats{};
  auto doc = ParseXml(xml);
  EXPECT_TRUE(doc.ok()) << doc.status();
  if (!doc.ok()) return ShredStats{};
  Database dom_db;
  auto dom = ShredDocument(*doc, tree, mapping, &dom_db);
  EXPECT_TRUE(dom.ok()) << dom.status();
  EXPECT_EQ(DatabaseDigest(db), DatabaseDigest(dom_db));
  return *stats;
}

// Replicating a fixed run of records N vs 10N times must leave the
// transient peak EXACTLY unchanged: the peak is one buffered record plus
// the batch buffers, independent of document length. That holds for the
// ambiguous root too (AmbiguousRootTree, first <a> inlined, the rest in
// the repetition), since the walker matches the root's children in
// document order as they stream past.
TEST(StreamingShred, TransientPeakIsFlatAcrossDocumentSize) {
  MovieConfig config;
  config.num_movies = 1;
  config.tv_fraction = 0.0;
  GeneratedData data = GenerateMovie(config);
  const std::string record = data.doc.root()->children()[0]->ToXml();
  auto mapping = Mapping::Build(*data.tree);
  ASSERT_TRUE(mapping.ok());

  ShredStats small = StreamRepeated(*data.tree, *mapping, "", record, 800);
  ShredStats big = StreamRepeated(*data.tree, *mapping, "", record, 8000);
  EXPECT_EQ(big.rows, small.rows * 10 - 9)  // shared root row
      << "rows must scale with the document";
  EXPECT_EQ(big.transient_peak_bytes, small.transient_peak_bytes)
      << "peak ingest memory must not grow with document size";
  EXPECT_LT(big.transient_peak_bytes,
            static_cast<int64_t>(record.size()) * 8000)
      << "peak must stay below the document itself";

  auto tree = AmbiguousRootTree();
  ASSERT_TRUE(tree->Validate().ok()) << tree->Validate();
  auto ambiguous = Mapping::Build(*tree);
  ASSERT_TRUE(ambiguous.ok()) << ambiguous.status();
  const std::string head = "<a>first</a>";
  const std::string unit = "<a>second</a><b>7</b>";
  small = StreamRepeated(*tree, *ambiguous, head, unit, 100);
  big = StreamRepeated(*tree, *ambiguous, head, unit, 1000);
  EXPECT_EQ(big.rows, small.rows * 10 - 9);  // root row holds the first <a>
  EXPECT_EQ(big.transient_peak_bytes, small.transient_peak_bytes);
}

// --- Index build -------------------------------------------------------

// The one-pass build against an independent reference: row ids sorted by
// the key Values under TotalLess, then by row id, with every entry cell
// compared with the Value the test appended. The table spans several sealed
// blocks and its keys run out of row-id order, so a build that pairs a
// key with another row's cells, or breaks key ties other than by row id,
// fails here.
TEST(StreamingShred, IndexBuildMatchesValueOrderReference) {
  Database db;
  TableSchema schema;
  schema.name = "t";
  schema.columns = {{"ID", ColumnType::kInt64, false},
                    {"name", ColumnType::kString, true},
                    {"score", ColumnType::kInt64, true}};
  schema.id_column = 0;
  auto created = db.CreateTable(schema);
  ASSERT_TRUE(created.ok()) << created.status();
  Table* table = *created;
  const int64_t rows = 3 * static_cast<int64_t>(kStorageBlockRows) + 123;
  std::vector<Row> appended;
  for (int64_t rid = 0; rid < rows; ++rid) {
    Value name = rid % 13 == 0 ? Value::Null()
                               : Value::Str("n" + std::to_string(
                                                      (rid * 7919) % 97));
    Value score = rid % 17 == 0 ? Value::Null() : Value::Int((rid * 31) % 11);
    appended.push_back({Value::Int(rows - rid), name, score});
    table->AppendRow(appended.back());
  }
  ASSERT_GE(table->column(1).num_sealed_blocks(), 3u);

  const std::vector<IndexDef> defs = {
      {"ix_name_score", "t", {1, 2}, {0}, false},
      {"ix_score", "t", {2}, {1, 0}, false},
      {"ix_id", "t", {0}, {}, false}};
  for (const IndexDef& def : defs) {
    SCOPED_TRACE(def.name);
    ASSERT_TRUE(db.CreateIndex(def).ok());
    const BTreeIndex* ix = db.FindIndex(def.name);
    ASSERT_NE(ix, nullptr);

    std::vector<int> entry_columns = def.key_columns;
    entry_columns.insert(entry_columns.end(), def.included_columns.begin(),
                         def.included_columns.end());
    std::vector<Row> keys(static_cast<size_t>(rows));
    std::vector<int64_t> order(static_cast<size_t>(rows));
    for (int64_t rid = 0; rid < rows; ++rid) {
      for (int col : def.key_columns) {
        keys[static_cast<size_t>(rid)].push_back(
            appended[static_cast<size_t>(rid)][static_cast<size_t>(col)]);
      }
      order[static_cast<size_t>(rid)] = rid;
    }
    std::sort(order.begin(), order.end(), [&keys](int64_t a, int64_t b) {
      const Row& ka = keys[static_cast<size_t>(a)];
      const Row& kb = keys[static_cast<size_t>(b)];
      if (RowTotalLess(ka, kb)) return true;
      if (RowTotalLess(kb, ka)) return false;
      return a < b;
    });

    ASSERT_EQ(ix->entry_count(), rows);
    ASSERT_EQ(ix->entry_width(), static_cast<int>(entry_columns.size()));
    int64_t bytes = 0;
    for (size_t e = 0; e < order.size(); ++e) {
      ASSERT_EQ(ix->entry_row_id(e), order[e]) << "entry " << e;
      for (size_t p = 0; p < entry_columns.size(); ++p) {
        const Value& want =
            appended[static_cast<size_t>(order[e])]
                    [static_cast<size_t>(entry_columns[p])];
        Value got = ix->EntryValue(e, static_cast<int>(p));
        ASSERT_TRUE(got.TotalEquals(want))
            << "entry " << e << " pos " << p << ": " << got.ToString()
            << " vs " << want.ToString();
        bytes += static_cast<int64_t>(want.ByteSize());
      }
      bytes += 8;  // row id
    }
    EXPECT_DOUBLE_EQ(ix->entry_bytes(),
                     static_cast<double>(bytes) / static_cast<double>(rows));
  }
}

}  // namespace
}  // namespace xmlshred
