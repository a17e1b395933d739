// In-memory XML document model (elements, attributes, text), plus parsing
// and serialization. The document is a view built from the events of the
// one XML tokenizer, XmlStreamParser (xml/stream_parser.h), which defines
// the accepted subset: nested elements, attributes, character data,
// entities, comments, and processing instructions / XML declarations
// (skipped).

#ifndef XMLSHRED_XML_DOCUMENT_H_
#define XMLSHRED_XML_DOCUMENT_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/exec_context.h"
#include "common/limits.h"
#include "common/status.h"
#include "xml/parse_options.h"
#include "xml/stream_parser.h"

namespace xmlshred {

class XmlElement {
 public:
  explicit XmlElement(std::string tag) : tag_(std::move(tag)) {}
  XmlElement(const XmlElement&) = delete;
  XmlElement& operator=(const XmlElement&) = delete;

  const std::string& tag() const { return tag_; }
  const std::string& text() const { return text_; }
  std::string* mutable_text() { return &text_; }
  void set_text(std::string text) { text_ = std::move(text); }

  const std::vector<std::pair<std::string, std::string>>& attributes() const {
    return attributes_;
  }
  void AddAttribute(std::string name, std::string value) {
    attributes_.emplace_back(std::move(name), std::move(value));
  }
  // Value of attribute `name`, or nullptr.
  const std::string* FindAttribute(std::string_view name) const;

  const std::vector<std::unique_ptr<XmlElement>>& children() const {
    return children_;
  }
  // Appends a child element and returns it.
  XmlElement* AddChild(std::string tag);
  XmlElement* AddChild(std::unique_ptr<XmlElement> child);

  // Convenience: appends <tag>text</tag>.
  XmlElement* AddTextChild(std::string tag, std::string text);

  // First child with the given tag, or nullptr.
  const XmlElement* FindChild(std::string_view tag) const;
  // All children with the given tag.
  std::vector<const XmlElement*> FindChildren(std::string_view tag) const;

  // Total number of elements in this subtree (including this one).
  int64_t SubtreeSize() const;

  // Serializes the subtree (no XML declaration).
  std::string ToXml(int indent = 0) const;

 private:
  std::string tag_;
  std::string text_;
  std::vector<std::pair<std::string, std::string>> attributes_;
  std::vector<std::unique_ptr<XmlElement>> children_;
};

class XmlDocument {
 public:
  XmlDocument() = default;
  explicit XmlDocument(std::unique_ptr<XmlElement> root)
      : root_(std::move(root)) {}

  XmlElement* root() { return root_.get(); }
  const XmlElement* root() const { return root_.get(); }
  void set_root(std::unique_ptr<XmlElement> root) { root_ = std::move(root); }

  std::string ToXml() const;

 private:
  std::unique_ptr<XmlElement> root_;
};

// Builds the element whose start event the caller just took from
// `parser`, consuming events through its matching end: attributes with
// entities decoded, children in document order, and every text run
// decoded and whitespace-stripped (AppendDecodedText) onto the text of
// its enclosing element. ParseXml runs it over the document element; the
// streaming shredder runs it over one record at a time.
Result<std::unique_ptr<XmlElement>> BuildSubtree(const XmlEvent& start,
                                                 XmlStreamParser* parser);

// Parses XML text into a document: BuildSubtree over the document
// element of an XmlStreamParser, so the accepted language and every
// error message are the tokenizer's. Element nesting is bounded by the
// resolved governor's recursion-depth limit (kDefaultMaxRecursionDepth
// when none is supplied) — deeper input returns kResourceExhausted.
// With options.exec set, the parse also emits a "parse.xml" span on
// exec->trace and the "parse.xml.*" counters on exec->metrics (documents
// parsed, elements in the tree).
Result<XmlDocument> ParseXml(std::string_view xml,
                             const ParseOptions& options = {});

// Escapes &, <, >, ", ' for XML output.
std::string XmlEscape(std::string_view s);

}  // namespace xmlshred

#endif  // XMLSHRED_XML_DOCUMENT_H_
