// Pull-based (SAX-style) streaming XML parser — the one XML tokenizer.
//
// XmlStreamParser tokenizes the XML subset business data needs — nested
// elements, attributes, character data, the five named entities,
// comments, and a skipped prolog — and emits a flat stream of
// start/end/text events, so a consumer's peak memory is independent of
// document size. ParseXml (xml/document.h) builds its XmlDocument from
// these events. Events are zero-copy: tag names, raw text, and attribute
// views point into the input buffer, valid for the buffer's lifetime.
//
// The event stream of a document is the pre-order walk of its element
// tree, with a self-closing tag producing a start immediately followed by
// an end, and pure-whitespace character runs suppressed. Element nesting
// is bounded by the resolved governor's recursion-depth limit.

#ifndef XMLSHRED_XML_STREAM_PARSER_H_
#define XMLSHRED_XML_STREAM_PARSER_H_

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/limits.h"
#include "common/status.h"

namespace xmlshred {

enum class XmlEventKind {
  kStartElement,  // <tag ...> or the opening half of <tag/>
  kEndElement,    // </tag> or the closing half of <tag/>
  kText,          // a character-data run with at least one non-space byte
  kEndOfInput,    // document fully consumed
};

// One attribute of a start tag, as written: views into the input buffer.
// Decode the value with DecodeEntities.
struct XmlRawAttribute {
  std::string_view name;
  std::string_view raw_value;
};

struct XmlEvent {
  XmlEventKind kind = XmlEventKind::kEndOfInput;
  // Start / end: the element tag. Text: empty.
  std::string_view name;
  // Text: the raw (escaped, untrimmed) character run; decode with
  // AppendDecodedText. Start / end: empty.
  std::string_view raw_text;
  // Start: the tag's attributes in source order, valid until the next
  // call to Next(). Other kinds: empty.
  std::span<const XmlRawAttribute> attributes;
};

// Replaces the five named entities (&amp; &lt; &gt; &quot; &apos;); any
// other '&' is kept as written.
std::string DecodeEntities(std::string_view raw);

// Decodes one raw character run — entities, then whitespace strip — and
// appends the result to *out. An all-whitespace run appends nothing.
void AppendDecodedText(std::string_view raw, std::string* out);

struct StreamParseOptions {
  // Depth guard; null applies the kDefaultMaxRecursionDepth stack-safety
  // floor.
  ResourceGovernor* governor = nullptr;
};

class XmlStreamParser {
 public:
  explicit XmlStreamParser(std::string_view xml,
                           const StreamParseOptions& options = {});
  ~XmlStreamParser();

  XmlStreamParser(const XmlStreamParser&) = delete;
  XmlStreamParser& operator=(const XmlStreamParser&) = delete;

  // Returns the next event and consumes it. Start and end events are
  // balanced. After the terminal kEndOfInput (or an error), further
  // calls return kEndOfInput / the same error.
  Result<XmlEvent> Next();

 private:
  Result<XmlEvent> Fail(Status error);
  void SkipWhitespaceAndComments();
  void SkipProlog();
  bool Matches(std::string_view prefix) const;
  Result<std::string_view> ParseName();
  // Parses "<tag attr="v" ...>" starting at '<'; fills a start event
  // (attributes recorded in attributes_) and queues the synthetic end for
  // a self-closing tag.
  Result<XmlEvent> ParseStartTag();

  std::string_view xml_;
  ResourceGovernor* governor_;
  ResourceGovernor stack_safety_;  // used when the caller passes none
  size_t pos_ = 0;
  std::vector<std::string_view> open_tags_;
  std::vector<XmlRawAttribute> attributes_;  // of the last start tag
  int entered_depth_ = 0;  // EnterRecursion calls to undo on destruction
  bool done_ = false;
  bool saw_root_ = false;  // root start tag consumed
  bool has_pending_end_ = false;  // self-closing: end event queued
  XmlEvent pending_end_;
  bool failed_ = false;
  Status error_ = Status::OK();
};

}  // namespace xmlshred

#endif  // XMLSHRED_XML_STREAM_PARSER_H_
