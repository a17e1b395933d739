#include "xml/stream_parser.h"

#include <cctype>
#include <utility>

#include "common/strings.h"

namespace xmlshred {

namespace {

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '-' || c == '.' || c == ':';
}

bool IsAllWhitespace(std::string_view s) {
  for (char c : s) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

std::string DecodeEntities(std::string_view raw) {
  static constexpr std::pair<std::string_view, char> kEntities[] = {
      {"&amp;", '&'}, {"&lt;", '<'}, {"&gt;", '>'}, {"&quot;", '"'},
      {"&apos;", '\''}};
  std::string out;
  out.reserve(raw.size());
  size_t i = 0;
  while (i < raw.size()) {
    size_t amp = raw.find('&', i);
    if (amp == std::string_view::npos) amp = raw.size();
    out.append(raw.substr(i, amp - i));
    i = amp;
    if (i == raw.size()) break;
    char decoded = '&';
    size_t width = 1;
    for (const auto& [entity, c] : kEntities) {
      if (raw.substr(i, entity.size()) == entity) {
        decoded = c;
        width = entity.size();
        break;
      }
    }
    out.push_back(decoded);
    i += width;
  }
  return out;
}

void AppendDecodedText(std::string_view raw, std::string* out) {
  // A run without '&' decodes to itself, so it strips in place.
  if (raw.find('&') == std::string_view::npos) {
    out->append(StripWhitespace(raw));
    return;
  }
  out->append(StripWhitespace(DecodeEntities(raw)));
}

XmlStreamParser::XmlStreamParser(std::string_view xml,
                                 const StreamParseOptions& options)
    : xml_(xml),
      governor_(options.governor != nullptr ? options.governor
                                            : &stack_safety_) {
  SkipProlog();
}

XmlStreamParser::~XmlStreamParser() {
  while (entered_depth_ > 0) {
    governor_->LeaveRecursion();
    --entered_depth_;
  }
}

Result<XmlEvent> XmlStreamParser::Fail(Status error) {
  failed_ = true;
  done_ = true;
  error_ = std::move(error);
  return error_;
}

void XmlStreamParser::SkipWhitespaceAndComments() {
  while (pos_ < xml_.size()) {
    if (std::isspace(static_cast<unsigned char>(xml_[pos_]))) {
      ++pos_;
    } else if (Matches("<!--")) {
      size_t end = xml_.find("-->", pos_);
      pos_ = end == std::string_view::npos ? xml_.size() : end + 3;
    } else {
      break;
    }
  }
}

void XmlStreamParser::SkipProlog() {
  SkipWhitespaceAndComments();
  while (Matches("<?") || Matches("<!DOCTYPE")) {
    size_t end = xml_.find('>', pos_);
    pos_ = end == std::string_view::npos ? xml_.size() : end + 1;
    SkipWhitespaceAndComments();
  }
}

bool XmlStreamParser::Matches(std::string_view prefix) const {
  return xml_.substr(pos_, prefix.size()) == prefix;
}

Result<std::string_view> XmlStreamParser::ParseName() {
  size_t start = pos_;
  while (pos_ < xml_.size() && IsNameChar(xml_[pos_])) ++pos_;
  if (pos_ == start) return InvalidArgument("expected XML name");
  return xml_.substr(start, pos_ - start);
}

Result<XmlEvent> XmlStreamParser::ParseStartTag() {
  Status depth_ok = governor_->EnterRecursion();
  if (!depth_ok.ok()) return Fail(std::move(depth_ok));
  ++entered_depth_;
  ++pos_;  // consume '<'
  Result<std::string_view> tag_or = ParseName();
  if (!tag_or.ok()) return Fail(tag_or.status());
  XmlEvent start;
  start.kind = XmlEventKind::kStartElement;
  start.name = *tag_or;
  attributes_.clear();
  while (true) {
    while (pos_ < xml_.size() &&
           std::isspace(static_cast<unsigned char>(xml_[pos_]))) {
      ++pos_;
    }
    if (pos_ >= xml_.size()) return Fail(InvalidArgument("unterminated tag"));
    bool self_closing = Matches("/>");
    if (self_closing || Matches(">")) {
      pos_ += self_closing ? 2 : 1;
      start.attributes = attributes_;
      open_tags_.push_back(start.name);
      if (self_closing) {
        pending_end_ = XmlEvent{};
        pending_end_.kind = XmlEventKind::kEndElement;
        pending_end_.name = start.name;
        has_pending_end_ = true;
      }
      return start;
    }
    Result<std::string_view> attr = ParseName();
    if (!attr.ok()) return Fail(attr.status());
    if (!Matches("=")) {
      return Fail(InvalidArgument("expected '=' in attribute"));
    }
    ++pos_;
    if (pos_ >= xml_.size() || (xml_[pos_] != '"' && xml_[pos_] != '\'')) {
      return Fail(InvalidArgument("expected quoted attribute value"));
    }
    char quote = xml_[pos_++];
    size_t end = xml_.find(quote, pos_);
    if (end == std::string_view::npos) {
      return Fail(InvalidArgument("unterminated attribute value"));
    }
    attributes_.push_back({*attr, xml_.substr(pos_, end - pos_)});
    pos_ = end + 1;
  }
}

Result<XmlEvent> XmlStreamParser::Next() {
  if (failed_) return error_;
  if (has_pending_end_) {
    has_pending_end_ = false;
    open_tags_.pop_back();
    governor_->LeaveRecursion();
    --entered_depth_;
    return pending_end_;
  }
  if (done_) return XmlEvent{};  // kEndOfInput

  if (open_tags_.empty()) {
    // Top level: before the root, or after it (the trailer check).
    SkipWhitespaceAndComments();
    if (saw_root_) {
      if (pos_ < xml_.size()) {
        return Fail(InvalidArgument("content after document element"));
      }
      done_ = true;
      return XmlEvent{};
    }
    if (!Matches("<")) return Fail(InvalidArgument("expected element"));
    saw_root_ = true;
    return ParseStartTag();
  }

  // Inside an element: content loop, one event per call.
  while (true) {
    if (pos_ >= xml_.size()) {
      return Fail(InvalidArgument("unterminated element"));
    }
    if (Matches("<!--")) {
      size_t end = xml_.find("-->", pos_);
      if (end == std::string_view::npos) {
        return Fail(InvalidArgument("unterminated comment"));
      }
      pos_ = end + 3;
      continue;
    }
    if (Matches("</")) {
      pos_ += 2;
      Result<std::string_view> close_or = ParseName();
      if (!close_or.ok()) return Fail(close_or.status());
      std::string_view close = *close_or;
      std::string_view tag = open_tags_.back();
      if (close != tag) {
        return Fail(InvalidArgument("mismatched close tag: " +
                                    std::string(close) + " for " +
                                    std::string(tag)));
      }
      SkipWhitespaceAndComments();
      if (!Matches(">")) return Fail(InvalidArgument("expected '>'"));
      ++pos_;
      open_tags_.pop_back();
      governor_->LeaveRecursion();
      --entered_depth_;
      XmlEvent end_event;
      end_event.kind = XmlEventKind::kEndElement;
      end_event.name = tag;
      return end_event;
    }
    if (Matches("<")) return ParseStartTag();
    size_t next = xml_.find('<', pos_);
    if (next == std::string_view::npos) {
      return Fail(InvalidArgument("unterminated element content"));
    }
    std::string_view raw = xml_.substr(pos_, next - pos_);
    pos_ = next;
    // Entity decoding never introduces whitespace, so an all-whitespace
    // raw run decodes to nothing.
    if (IsAllWhitespace(raw)) continue;
    XmlEvent text;
    text.kind = XmlEventKind::kText;
    text.raw_text = raw;
    return text;
  }
}

}  // namespace xmlshred
