// Unit tests for XML parsing/serialization, the schema tree, and the XSD
// parser.

#include <gtest/gtest.h>

#include "common/exec_context.h"
#include "common/limits.h"
#include "common/metrics.h"
#include "xml/document.h"
#include "xml/parse_options.h"
#include "xml/schema_tree.h"
#include "xml/xsd_parser.h"

namespace xmlshred {
namespace {

TEST(XmlParserTest, SimpleDocument) {
  auto doc = ParseXml("<a><b>hello</b><c x=\"1\"/></a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const XmlElement* root = doc->root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->tag(), "a");
  ASSERT_EQ(root->children().size(), 2u);
  EXPECT_EQ(root->children()[0]->tag(), "b");
  EXPECT_EQ(root->children()[0]->text(), "hello");
  const std::string* attr = root->children()[1]->FindAttribute("x");
  ASSERT_NE(attr, nullptr);
  EXPECT_EQ(*attr, "1");
}

TEST(XmlParserTest, PrologCommentsEntities) {
  auto doc = ParseXml(
      "<?xml version=\"1.0\"?>\n<!-- hi -->\n"
      "<a><!-- inner --><b>x &amp; y &lt;z&gt;</b></a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->root()->children()[0]->text(), "x & y <z>");
}

TEST(XmlParserTest, Errors) {
  EXPECT_FALSE(ParseXml("<a><b></a></b>").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());
  EXPECT_FALSE(ParseXml("<a></a><b></b>").ok());
  EXPECT_FALSE(ParseXml("<a x=1></a>").ok());
  EXPECT_FALSE(ParseXml("").ok());
}

TEST(XmlParserTest, RoundTrip) {
  auto doc = ParseXml("<pub year=\"2000\"><title>A &amp; B</title></pub>");
  ASSERT_TRUE(doc.ok());
  std::string text = doc->ToXml();
  auto again = ParseXml(text);
  ASSERT_TRUE(again.ok()) << again.status() << "\n" << text;
  EXPECT_EQ(again->root()->children()[0]->text(), "A & B");
}

TEST(XmlElementTest, BuildersAndQueries) {
  XmlElement root("dblp");
  XmlElement* pub = root.AddChild("inproceedings");
  pub->AddTextChild("title", "t1");
  pub->AddTextChild("author", "a1");
  pub->AddTextChild("author", "a2");
  EXPECT_EQ(root.SubtreeSize(), 5);
  EXPECT_NE(pub->FindChild("title"), nullptr);
  EXPECT_EQ(pub->FindChildren("author").size(), 2u);
  EXPECT_EQ(pub->FindChild("nope"), nullptr);
}

// Builds the paper's Fig. 1b movie schema programmatically:
// movie(movie) -> title, year, aka_title*(aka), avg_rating?,
//                 (box_office | seasons)
std::unique_ptr<SchemaTree> BuildMovieTree() {
  auto tree = std::make_unique<SchemaTree>();
  auto root = tree->NewTag("movies");
  root->set_annotation("movies");
  auto root_seq = tree->NewNode(SchemaNodeKind::kSequence);
  auto rep = tree->NewNode(SchemaNodeKind::kRepetition);
  auto movie = tree->NewTag("movie");
  movie->set_annotation("movie");
  auto seq = tree->NewNode(SchemaNodeKind::kSequence);

  auto title = tree->NewTag("title");
  title->AddChild(tree->NewSimple(XsdBaseType::kString));
  seq->AddChild(std::move(title));
  auto year = tree->NewTag("year");
  year->AddChild(tree->NewSimple(XsdBaseType::kInt));
  seq->AddChild(std::move(year));

  auto aka_rep = tree->NewNode(SchemaNodeKind::kRepetition);
  auto aka = tree->NewTag("aka_title");
  aka->set_annotation("aka_title");
  aka->AddChild(tree->NewSimple(XsdBaseType::kString));
  aka_rep->AddChild(std::move(aka));
  seq->AddChild(std::move(aka_rep));

  auto opt = tree->NewNode(SchemaNodeKind::kOption);
  auto rating = tree->NewTag("avg_rating");
  rating->AddChild(tree->NewSimple(XsdBaseType::kDouble));
  opt->AddChild(std::move(rating));
  seq->AddChild(std::move(opt));

  auto choice = tree->NewNode(SchemaNodeKind::kChoice);
  auto box = tree->NewTag("box_office");
  box->AddChild(tree->NewSimple(XsdBaseType::kInt));
  choice->AddChild(std::move(box));
  auto seasons = tree->NewTag("seasons");
  seasons->AddChild(tree->NewSimple(XsdBaseType::kInt));
  choice->AddChild(std::move(seasons));
  seq->AddChild(std::move(choice));

  movie->AddChild(std::move(seq));
  rep->AddChild(std::move(movie));
  root_seq->AddChild(std::move(rep));
  root->AddChild(std::move(root_seq));
  tree->SetRoot(std::move(root));
  return tree;
}

TEST(SchemaTreeTest, MovieTreeValidates) {
  auto tree = BuildMovieTree();
  EXPECT_TRUE(tree->Validate().ok()) << tree->Validate();
}

TEST(SchemaTreeTest, NavigationHelpers) {
  auto tree = BuildMovieTree();
  SchemaNode* movie = tree->FindTagByName("movie");
  ASSERT_NE(movie, nullptr);
  SchemaNode* rating = tree->FindTagByName("avg_rating");
  ASSERT_NE(rating, nullptr);
  EXPECT_EQ(rating->NearestAnnotatedAncestor(), movie);
  EXPECT_TRUE(rating->UnderOption());
  EXPECT_FALSE(rating->UnderRepetition());
  SchemaNode* box = tree->FindTagByName("box_office");
  ASSERT_NE(box, nullptr);
  EXPECT_TRUE(box->UnderOption());  // choice implies optional presence
  SchemaNode* aka = tree->FindTagByName("aka_title");
  ASSERT_NE(aka, nullptr);
  EXPECT_TRUE(aka->UnderRepetition());
  SchemaNode* title = tree->FindTagByName("title");
  ASSERT_NE(title, nullptr);
  EXPECT_FALSE(title->UnderOption());
}

TEST(SchemaTreeTest, ClonePreservesIdsAndStructure) {
  auto tree = BuildMovieTree();
  SchemaNode* rating = tree->FindTagByName("avg_rating");
  ASSERT_NE(rating, nullptr);
  int id = rating->id();
  auto clone = tree->Clone();
  SchemaNode* clone_rating = clone->FindNode(id);
  ASSERT_NE(clone_rating, nullptr);
  EXPECT_EQ(clone_rating->name(), "avg_rating");
  EXPECT_NE(clone_rating, rating);  // distinct objects
  EXPECT_EQ(clone->ToString(), tree->ToString());
}

TEST(SchemaTreeTest, ValidationCatchesViolations) {
  // Set-valued element without annotation.
  auto tree = BuildMovieTree();
  tree->FindTagByName("aka_title")->set_annotation("");
  EXPECT_FALSE(tree->Validate().ok());

  // Unannotated root.
  auto tree2 = BuildMovieTree();
  tree2->root()->set_annotation("");
  EXPECT_FALSE(tree2->Validate().ok());
}

TEST(SchemaTreeTest, RemoveAndInsertChild) {
  auto tree = BuildMovieTree();
  SchemaNode* movie = tree->FindTagByName("movie");
  SchemaNode* seq = movie->child(0);
  size_t n = seq->num_children();
  auto removed = seq->RemoveChild(0);
  EXPECT_EQ(seq->num_children(), n - 1);
  EXPECT_EQ(removed->parent(), nullptr);
  seq->InsertChild(0, std::move(removed));
  EXPECT_EQ(seq->num_children(), n);
  EXPECT_EQ(seq->child(0)->parent(), seq);
  EXPECT_EQ(seq->ChildIndex(seq->child(2)), 2);
}

constexpr const char* kMovieXsd = R"(<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="movies" annotation="movies">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="movie" annotation="movie" minOccurs="0"
                    maxOccurs="unbounded">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="title" type="xs:string"/>
              <xs:element name="year" type="xs:integer"/>
              <xs:element name="aka_title" type="xs:string"
                          annotation="aka_title"
                          minOccurs="0" maxOccurs="unbounded"/>
              <xs:element name="avg_rating" type="xs:double" minOccurs="0"/>
              <xs:choice>
                <xs:element name="box_office" type="xs:integer"/>
                <xs:element name="seasons" type="xs:integer"/>
              </xs:choice>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>)";

TEST(XsdParserTest, ParsesMovieSchema) {
  auto tree = ParseXsd(kMovieXsd);
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_TRUE((*tree)->Validate().ok()) << (*tree)->Validate();
  SchemaNode* movie = (*tree)->FindTagByName("movie");
  ASSERT_NE(movie, nullptr);
  EXPECT_EQ(movie->annotation(), "movie");
  EXPECT_EQ(movie->parent()->kind(), SchemaNodeKind::kRepetition);
  SchemaNode* rating = (*tree)->FindTagByName("avg_rating");
  ASSERT_NE(rating, nullptr);
  EXPECT_EQ(rating->parent()->kind(), SchemaNodeKind::kOption);
  EXPECT_EQ(rating->child(0)->base_type(), XsdBaseType::kDouble);
  SchemaNode* box = (*tree)->FindTagByName("box_office");
  ASSERT_NE(box, nullptr);
  EXPECT_EQ(box->parent()->kind(), SchemaNodeKind::kChoice);
  EXPECT_EQ(box->parent()->num_children(), 2u);
}

TEST(XsdParserTest, SharedTypesViaNamedComplexType) {
  constexpr const char* xsd = R"(
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="dblp" annotation="dblp">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="inproceedings" annotation="inproc"
                    maxOccurs="unbounded" type="PubType"/>
        <xs:element name="book" annotation="book"
                    maxOccurs="unbounded" type="PubType"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
  <xs:complexType name="PubType">
    <xs:sequence>
      <xs:element name="title" type="xs:string"/>
    </xs:sequence>
  </xs:complexType>
</xs:schema>)";
  auto tree = ParseXsd(xsd);
  ASSERT_TRUE(tree.ok()) << tree.status();
  SchemaNode* inproc = (*tree)->FindTagByName("inproceedings");
  SchemaNode* book = (*tree)->FindTagByName("book");
  ASSERT_NE(inproc, nullptr);
  ASSERT_NE(book, nullptr);
  EXPECT_EQ(inproc->type_name(), "PubType");
  EXPECT_EQ(book->type_name(), "PubType");
  // Instantiated as separate subtrees.
  EXPECT_EQ((*tree)->FindTagsByName("title").size(), 2u);
}

TEST(XsdParserTest, DefaultAnnotations) {
  constexpr const char* xsd = R"(
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="root">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="item" maxOccurs="unbounded">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="tagname" type="xs:string"
                          maxOccurs="unbounded"/>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>)";
  auto tree = ParseXsd(xsd);
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_FALSE((*tree)->Validate().ok());  // annotations still missing
  AssignDefaultAnnotations(tree->get());
  EXPECT_TRUE((*tree)->Validate().ok()) << (*tree)->Validate();
  EXPECT_EQ((*tree)->root()->annotation(), "root");
  EXPECT_EQ((*tree)->FindTagByName("item")->annotation(), "item");
  EXPECT_EQ((*tree)->FindTagByName("tagname")->annotation(), "tagname");
}

TEST(XsdParserTest, InlineSimpleTypeTakesRestrictionBase) {
  constexpr const char* xsd = R"(
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="book" annotation="book">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="year">
          <xs:simpleType><xs:restriction base="xs:int"/></xs:simpleType>
        </xs:element>
        <xs:element name="price">
          <xs:simpleType>
            <xs:restriction base="xs:decimal"><xs:minInclusive value="0"/>
            </xs:restriction>
          </xs:simpleType>
        </xs:element>
        <xs:element name="code">
          <xs:simpleType><xs:restriction base="isbn"/></xs:simpleType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>)";
  auto tree = ParseXsd(xsd);
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_EQ((*tree)->FindTagByName("year")->child(0)->base_type(),
            XsdBaseType::kInt);
  EXPECT_EQ((*tree)->FindTagByName("price")->child(0)->base_type(),
            XsdBaseType::kDouble);
  // A base that is not a built-in type stores as a string.
  EXPECT_EQ((*tree)->FindTagByName("code")->child(0)->base_type(),
            XsdBaseType::kString);
}

TEST(XsdParserTest, RoundTripThroughXsdText) {
  auto tree = ParseXsd(kMovieXsd);
  ASSERT_TRUE(tree.ok());
  std::string text = SchemaTreeToXsd(**tree);
  auto again = ParseXsd(text);
  ASSERT_TRUE(again.ok()) << again.status() << "\n" << text;
  // Structure (ignoring node ids) must match.
  auto strip_ids = [](std::string s) {
    std::string out;
    for (size_t i = 0; i < s.size(); ++i) {
      if (s[i] == '[') {
        while (i < s.size() && s[i] != ']') ++i;
        continue;
      }
      out.push_back(s[i]);
    }
    return out;
  };
  EXPECT_EQ(strip_ids((*tree)->ToString()), strip_ids((*again)->ToString()));
}

TEST(XsdParserTest, Errors) {
  EXPECT_FALSE(ParseXsd("<notaschema/>").ok());
  EXPECT_FALSE(ParseXsd(
      "<xs:schema xmlns:xs=\"x\"><xs:element name=\"a\" "
      "type=\"Missing\"/></xs:schema>").ok());
  EXPECT_FALSE(
      ParseXsd("<xs:schema xmlns:xs=\"x\"></xs:schema>").ok());
}

// Content models the schema tree cannot express fail naming the construct
// and its complexType, instead of parsing into a tree that then rejects
// valid documents.
TEST(XsdParserTest, NamesUnsupportedConstructs) {
  auto expect_unimplemented = [](const std::string& xsd,
                                 const std::string& message) {
    auto tree = ParseXsd(xsd);
    ASSERT_FALSE(tree.ok()) << xsd;
    EXPECT_EQ(tree.status().code(), StatusCode::kUnimplemented);
    EXPECT_EQ(tree.status().message(), message);
  };
  // A trimmed SNIPPETS.md Snippet 1: a key on the root element, an
  // attribute beside a sequence, and a mixed complexContent restriction
  // holding a wildcard.
  expect_unimplemented(R"(<xsd:schema
    xmlns:xsd="http://www.w3.org/2001/XMLSchema">
<xsd:annotation>
  <xsd:documentation xml:lang="en">SQLs Schema</xsd:documentation>
</xsd:annotation>
<xsd:element name="sqls" type="sqlsType">
  <xsd:key name="sqlKey">
    <xsd:selector xpath=".//sql"/><xsd:field xpath="@name"/>
  </xsd:key>
</xsd:element>
<xsd:complexType name="sqlsType"><xsd:sequence>
  <xsd:element name="sql-group" type="sqlGroupType" maxOccurs="unbounded"/>
</xsd:sequence></xsd:complexType>
<xsd:complexType name="sqlGroupType">
  <xsd:sequence>
    <xsd:element name="sql" type="sqlType" minOccurs="1" maxOccurs="unbounded"/>
  </xsd:sequence>
  <xsd:attribute name="name" type="xsd:string"/>
</xsd:complexType>
<xsd:complexType name="sqlType">
  <xsd:complexContent mixed="true"><xsd:restriction base="xsd:anyType">
    <xsd:sequence>
      <xsd:any processContents="skip" minOccurs="0" maxOccurs="unbounded"/>
    </xsd:sequence>
    <xsd:attribute name="name" type="xsd:string" use="required"/>
  </xsd:restriction></xsd:complexContent>
</xsd:complexType>
</xsd:schema>)",
                       "xs:complexContent in complexType 'sqlType'");
  // A wildcard beside a declared element: the instance
  // <r>text<a>x</a><extra/></r> is valid, so the parser must not drop it.
  const std::string open = R"(<xs:schema xmlns:xs="x"><xs:element name="r">)";
  const std::string close = "</xs:element></xs:schema>";
  expect_unimplemented(open + R"(<xs:complexType><xs:sequence>
<xs:element name="a" type="xs:string"/><xs:any minOccurs="0"/>
</xs:sequence></xs:complexType>)" + close,
                       "xs:any in the complexType of element <r>");
  expect_unimplemented(open + R"(<xs:complexType mixed="true"><xs:sequence>
<xs:element name="a" type="xs:string"/>
</xs:sequence></xs:complexType>)" + close,
                       "mixed content in the complexType of element <r>");
  expect_unimplemented(open + R"(<xs:complexType><xs:all>
<xs:element name="a" type="xs:string"/>
</xs:all></xs:complexType>)" + close,
                       "xs:all in the complexType of element <r>");
  expect_unimplemented(open + R"(<xs:complexType><xs:simpleContent>
<xs:extension base="xs:string"/>
</xs:simpleContent></xs:complexType>)" + close,
                       "xs:simpleContent in the complexType of element <r>");
  expect_unimplemented(open + R"(<xs:complexType><xs:choice>
<xs:element name="a" type="xs:string"/><xs:group ref="g"/>
</xs:choice></xs:complexType>)" + close,
                       "xs:group in the complexType of element <r>");

  // Annotations and attributes are still skipped.
  auto tree = ParseXsd(open + R"(<xs:complexType>
<xs:annotation><xs:documentation>doc</xs:documentation></xs:annotation>
<xs:sequence>
<xs:annotation><xs:documentation>doc</xs:documentation></xs:annotation>
<xs:element name="a" type="xs:string"/>
</xs:sequence>
<xs:attribute name="id" type="xs:string"/>
</xs:complexType>)" + close);
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_NE((*tree)->FindTagByName("a"), nullptr);
}

// The canonical Parse*(input, ParseOptions) signature: the governor
// field bounds recursion and the exec field routes instrumentation.
TEST(ParseOptionsTest, GovernorAndExecFieldsApply) {
  ParseOptions bare;
  auto doc = ParseXml("<a><b>hello</b></a>", bare);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->ToXml(), ParseXml("<a><b>hello</b></a>")->ToXml());

  ResourceLimits limits;
  limits.max_recursion_depth = 4;
  ResourceGovernor governor(limits);
  ParseOptions limited;
  limited.governor = &governor;
  auto rejected =
      ParseXml("<a><a><a><a><a><a>x</a></a></a></a></a></a>", limited);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  MetricsRegistry registry;
  ExecContext exec;
  exec.metrics = &registry;
  ParseOptions instrumented;
  instrumented.exec = &exec;
  ASSERT_TRUE(ParseXml("<a><b>x</b></a>", instrumented).ok());
  EXPECT_EQ(registry.counter(kMetricParseXmlDocuments)->value(), 1);
  EXPECT_EQ(registry.counter(kMetricParseXmlElements)->value(), 2);
  ASSERT_TRUE(ParseXsd(kMovieXsd, instrumented).ok());
  EXPECT_EQ(registry.counter(kMetricParseXsdSchemas)->value(), 1);
}

}  // namespace
}  // namespace xmlshred
