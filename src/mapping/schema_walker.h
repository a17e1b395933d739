// The one element-to-schema walker of the mapping layer (Section 4.1 reads
// the data twice: once for statistics, once to shred it under the chosen
// mapping). It owns the matching rules — tag, sequence, option,
// repetition, plain choice, and the union-distribution variant choice —
// and reports every match to a WalkSink. Shredding (stream_shredder.cc)
// and statistics collection (xml_stats.cc) are two sinks over the same
// walk, so they see the same elements in the same order and reject the
// same documents with the same messages. No other code knows a
// content-model rule.
//
// The walker reads an element's children through a ChildCursor. Below
// the root it always walks XmlElement trees; the root's children come
// either from the caller's whole DOM (ShredDocument,
// XmlStatistics::Collect) or from the streaming shredder, which builds
// them one subtree at a time as the walker asks for them. Child elements
// must appear in schema order.

#ifndef XMLSHRED_MAPPING_SCHEMA_WALKER_H_
#define XMLSHRED_MAPPING_SCHEMA_WALKER_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "rel/value.h"
#include "xml/document.h"
#include "xml/schema_tree.h"

namespace xmlshred {

// Receives the walker's matches in document order. A sink overrides the
// events it needs; an error from any event aborts the walk, after which
// the sink's state is not meaningful.
class WalkSink {
 public:
  virtual ~WalkSink() = default;
  // `element` instantiates the tag `node`; called before its content. A
  // root whose children are read through a cursor may carry its tag alone.
  virtual Status EnterTag(const XmlElement& /*element*/,
                          const SchemaNode* /*node*/) {
    return Status::OK();
  }
  // The text of a leaf tag's element, between its EnterTag and ExitTag.
  virtual Status LeafText(const SchemaNode* /*node*/,
                          const std::string& /*text*/) {
    return Status::OK();
  }
  // The tag's content matched completely.
  virtual Status ExitTag(const SchemaNode* /*node*/) { return Status::OK(); }
  // One visit of the repetition `node` matched `occurrences` instances
  // (possibly 0).
  virtual void RepetitionVisit(const SchemaNode* /*node*/,
                               int64_t /*occurrences*/) {}
};

// One element's children in document order, as the walker reads them.
class ChildCursor {
 public:
  virtual ~ChildCursor() = default;
  // The next unread child, or null after the last one. It stays valid
  // until Advance; an error (say, a parse error in a streamed child)
  // aborts the walk.
  virtual Result<const XmlElement*> Peek() = 0;
  // Steps past the child Peek returned, once the walker is done with it.
  virtual void Advance() = 0;
};

class SchemaWalker {
 public:
  explicit SchemaWalker(WalkSink* sink) : sink_(sink) {}

  // Walks a whole document tree: `root` must instantiate the schema root.
  Status WalkRoot(const XmlElement* root, const SchemaTree& tree);

  // Walks a document element whose children are read from `children`;
  // `root` supplies its tag, and its text when the schema root is a leaf.
  Status WalkRoot(const XmlElement& root, ChildCursor* children,
                  const SchemaTree& tree);

 private:
  // Walks `element`, which instantiates the tag `node`.
  Status WalkTag(const XmlElement& element, const SchemaNode* node,
                 ChildCursor* children);
  // Matches the content particle `node` against the children of `parent`
  // from the cursor on.
  Status MatchContent(const SchemaNode* node, const XmlElement& parent,
                      ChildCursor* children);
  Status MatchChoice(const SchemaNode* node, const XmlElement& parent,
                     ChildCursor* children);
  // Walks the next child, known to instantiate the tag `node`, and steps
  // past it.
  Status WalkChild(const XmlElement& child, const SchemaNode* node,
                   ChildCursor* children);

  WalkSink* sink_;
};

// Typed value of one leaf's text under its declared simple type; empty
// text maps to SQL NULL.
Value ParseLeafValue(const std::string& text, XsdBaseType type);

}  // namespace xmlshred

#endif  // XMLSHRED_MAPPING_SCHEMA_WALKER_H_
