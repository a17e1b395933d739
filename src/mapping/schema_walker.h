// The one element-to-schema walker of the mapping layer (Section 4.1 reads
// the data twice: once for statistics, once to shred it under the chosen
// mapping). It owns the matching rules — tag, sequence, option,
// repetition, plain choice, and the union-distribution variant choice —
// and reports every match to a WalkSink. Shredding (stream_shredder.cc)
// and statistics collection (xml_stats.cc) are two sinks over the same
// walk, so they see the same elements in the same order and reject the
// same documents with the same messages.
//
// The walker runs over an XmlElement tree: the caller's whole DOM
// (ShredDocument, XmlStatistics::Collect) or one subtree the streaming
// shredder buffered. Child elements must appear in schema order.

#ifndef XMLSHRED_MAPPING_SCHEMA_WALKER_H_
#define XMLSHRED_MAPPING_SCHEMA_WALKER_H_

#include <cstdint>
#include <string>
#include <string_view>

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
  // `element` instantiates the tag `node`; called before its content.
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

class SchemaWalker {
 public:
  explicit SchemaWalker(WalkSink* sink) : sink_(sink) {}

  // Walks a whole document tree: `root` must instantiate the schema root.
  Status WalkRoot(const XmlElement* root, const SchemaTree& tree);

  // Walks `element`, already known to instantiate the tag `node`.
  Status WalkTag(const XmlElement* element, const SchemaNode* node);

 private:
  // Matches the content particle `node` against the children of
  // `element` from *cursor on.
  Status MatchContent(const SchemaNode* node, const XmlElement* element,
                      size_t* cursor);
  Status MatchChoice(const SchemaNode* node, const XmlElement* element,
                     size_t* cursor);

  WalkSink* sink_;
};

// The error for a document whose root element is `tag` under a schema
// whose root is not; OK when they match.
Status CheckRootTag(std::string_view tag, const SchemaTree& tree);

// True when an element named `tag` can start an instance of the particle
// `node`: some tag at `node`'s matching level (not descending into tags)
// carries that name.
bool CanStartWith(const SchemaNode* node, std::string_view tag);

// The variant of the union-distribution choice `choice` that `instance`
// routes to: the first same-named variant whose presence constraints the
// instance's children satisfy, or nullptr when none does.
const SchemaNode* MatchVariant(const SchemaNode* choice,
                               const XmlElement& instance);

// Typed value of one leaf's text under its declared simple type; empty
// text maps to SQL NULL.
Value ParseLeafValue(const std::string& text, XsdBaseType type);

}  // namespace xmlshred

#endif  // XMLSHRED_MAPPING_SCHEMA_WALKER_H_
