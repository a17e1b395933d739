#include "xml/document.h"

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace xmlshred {

const std::string* XmlElement::FindAttribute(std::string_view name) const {
  for (const auto& [attr_name, value] : attributes_) {
    if (attr_name == name) return &value;
  }
  return nullptr;
}

XmlElement* XmlElement::AddChild(std::string tag) {
  children_.push_back(std::make_unique<XmlElement>(std::move(tag)));
  return children_.back().get();
}

XmlElement* XmlElement::AddChild(std::unique_ptr<XmlElement> child) {
  children_.push_back(std::move(child));
  return children_.back().get();
}

XmlElement* XmlElement::AddTextChild(std::string tag, std::string text) {
  XmlElement* child = AddChild(std::move(tag));
  child->set_text(std::move(text));
  return child;
}

const XmlElement* XmlElement::FindChild(std::string_view tag) const {
  for (const auto& child : children_) {
    if (child->tag() == tag) return child.get();
  }
  return nullptr;
}

std::vector<const XmlElement*> XmlElement::FindChildren(
    std::string_view tag) const {
  std::vector<const XmlElement*> out;
  for (const auto& child : children_) {
    if (child->tag() == tag) out.push_back(child.get());
  }
  return out;
}

int64_t XmlElement::SubtreeSize() const {
  int64_t n = 1;
  for (const auto& child : children_) n += child->SubtreeSize();
  return n;
}

std::string XmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string XmlElement::ToXml(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad + "<" + tag_;
  for (const auto& [name, value] : attributes_) {
    out += " " + name + "=\"" + XmlEscape(value) + "\"";
  }
  if (children_.empty() && text_.empty()) {
    out += "/>\n";
    return out;
  }
  out += ">";
  if (!text_.empty()) out += XmlEscape(text_);
  if (!children_.empty()) {
    out += "\n";
    for (const auto& child : children_) out += child->ToXml(indent + 1);
    out += pad;
  }
  out += "</" + tag_ + ">\n";
  return out;
}

std::string XmlDocument::ToXml() const {
  std::string out = "<?xml version=\"1.0\"?>\n";
  if (root_ != nullptr) out += root_->ToXml();
  return out;
}

namespace {

std::unique_ptr<XmlElement> NewElement(const XmlEvent& start) {
  auto element = std::make_unique<XmlElement>(std::string(start.name));
  for (const XmlRawAttribute& attr : start.attributes) {
    element->AddAttribute(std::string(attr.name),
                          DecodeEntities(attr.raw_value));
  }
  return element;
}

}  // namespace

Result<std::unique_ptr<XmlElement>> BuildSubtree(const XmlEvent& start,
                                                 XmlStreamParser* parser) {
  XS_CHECK(start.kind == XmlEventKind::kStartElement);
  std::unique_ptr<XmlElement> root = NewElement(start);
  std::vector<XmlElement*> open = {root.get()};
  while (!open.empty()) {
    XS_ASSIGN_OR_RETURN(XmlEvent event, parser->Next());
    switch (event.kind) {
      case XmlEventKind::kStartElement:
        open.push_back(open.back()->AddChild(NewElement(event)));
        break;
      case XmlEventKind::kEndElement:
        open.pop_back();
        break;
      case XmlEventKind::kText:
        AppendDecodedText(event.raw_text, open.back()->mutable_text());
        break;
      case XmlEventKind::kEndOfInput:
        return Internal("unbalanced event stream");
    }
  }
  return root;
}

Result<XmlDocument> ParseXml(std::string_view xml,
                             const ParseOptions& options) {
  if (options.exec != nullptr) {
    const ExecContext& exec = *options.exec;
    SpanScope span(exec.trace, "parse.xml");
    span.Attr("bytes", static_cast<int64_t>(xml.size()));
    ParseOptions bare;
    bare.governor = exec.governor;
    auto doc = ParseXml(xml, bare);
    if (doc.ok()) {
      int64_t elements =
          doc->root() != nullptr ? doc->root()->SubtreeSize() : 0;
      if (exec.metrics != nullptr) {
        exec.metrics->counter(kMetricParseXmlDocuments)->Increment();
        exec.metrics->counter(kMetricParseXmlElements)->Add(elements);
      }
      span.Attr("elements", elements);
    }
    return doc;
  }
  StreamParseOptions stream_options;
  stream_options.governor = options.governor;
  XmlStreamParser parser(xml, stream_options);
  XS_ASSIGN_OR_RETURN(XmlEvent start, parser.Next());
  XS_ASSIGN_OR_RETURN(std::unique_ptr<XmlElement> root,
                      BuildSubtree(start, &parser));
  // Fails on content after the document element.
  XS_ASSIGN_OR_RETURN(XmlEvent tail, parser.Next());
  XS_CHECK(tail.kind == XmlEventKind::kEndOfInput);
  return XmlDocument(std::move(root));
}

}  // namespace xmlshred
