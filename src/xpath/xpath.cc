#include "xpath/xpath.h"

#include <cctype>
#include <cstdlib>
#include <memory>

#include "common/strings.h"

namespace xmlshred {

std::vector<std::string> XPathQuery::SelectionPaths() const {
  std::vector<std::string> out;
  if (has_selection) out.push_back(selection_path);
  for (const XPathSelection& s : extra_selections) out.push_back(s.path);
  return out;
}

std::string XPathQuery::ToString() const {
  std::string out = "//" + context;
  if (has_selection) {
    out += "[" + selection_path + " " + selection_op + " " +
           selection_literal.ToString();
    for (const XPathSelection& s : extra_selections) {
      out += " and " + s.path + " " + s.op + " " + s.literal.ToString();
    }
    out += "]";
  }
  if (!projections.empty()) {
    out += "/(";
    for (size_t i = 0; i < projections.size(); ++i) {
      if (i > 0) out += " | ";
      out += projections[i];
    }
    out += ")";
  }
  return out;
}

namespace {

class XPathParser {
 public:
  XPathParser(std::string_view text, ResourceGovernor* governor)
      : text_(text), governor_(governor) {}

  Result<XPathQuery> Parse() {
    struct Step {
      std::string name;
      bool has_selection = false;
      std::string selection_path;
      std::string selection_op;
      Value selection_literal;
      std::vector<XPathSelection> extra_selections;
    };
    std::vector<Step> steps;
    std::vector<std::string> projections;
    // The parser is iterative; step count is the unbounded dimension, so
    // meter it against the governor's depth limit. Scopes stay open until
    // the parse finishes so the count is cumulative.
    std::vector<std::unique_ptr<RecursionScope>> step_scopes;
    while (pos_ < text_.size()) {
      SkipSpace();
      if (!Consume('/')) break;
      step_scopes.push_back(std::make_unique<RecursionScope>(governor_));
      XS_RETURN_IF_ERROR(step_scopes.back()->status());
      Consume('/');  // '//' collapses to the same handling
      SkipSpace();
      if (Peek() == '(') {
        XS_RETURN_IF_ERROR(ParseProjections(&projections));
        break;
      }
      Step step;
      XS_ASSIGN_OR_RETURN(step.name, ParseName());
      SkipSpace();
      if (Peek() == '[') {
        XS_RETURN_IF_ERROR(ParsePredicate(&step.selection_path,
                                          &step.selection_op,
                                          &step.selection_literal,
                                          &step.extra_selections));
        step.has_selection = true;
      }
      steps.push_back(std::move(step));
    }
    SkipSpace();
    if (pos_ < text_.size()) {
      return InvalidArgument("trailing characters in XPath");
    }
    if (steps.empty()) return InvalidArgument("XPath has no steps");
    // With an explicit projection list the last step is the context;
    // otherwise the last step is the single projection and the one before
    // it the context.
    const Step* context = nullptr;
    if (!projections.empty()) {
      context = &steps.back();
    } else {
      if (steps.size() < 2) {
        return InvalidArgument("XPath needs a projection");
      }
      if (steps.back().has_selection) {
        return InvalidArgument("projection step cannot carry a predicate");
      }
      projections.push_back(steps.back().name);
      context = &steps[steps.size() - 2];
    }
    XPathQuery query;
    query.context = context->name;
    query.has_selection = context->has_selection;
    query.selection_path = context->selection_path;
    query.selection_op = context->selection_op;
    query.selection_literal = context->selection_literal;
    query.extra_selections = context->extra_selections;
    query.projections = std::move(projections);
    return query;
  }

 private:
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Result<std::string> ParseName() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) return InvalidArgument("expected element name");
    return std::string(text_.substr(start, pos_ - start));
  }

  Result<Value> ParseLiteral() {
    SkipSpace();
    if (Peek() == '"' || Peek() == '\'') {
      char quote = text_[pos_++];
      size_t end = text_.find(quote, pos_);
      if (end == std::string_view::npos) {
        return InvalidArgument("unterminated literal");
      }
      std::string raw(text_.substr(pos_, end - pos_));
      pos_ = end + 1;
      // Numeric strings in quotes compare as numbers when all digits —
      // XPath untyped comparison; keep them as strings otherwise.
      bool numeric = !raw.empty();
      bool has_dot = false;
      for (size_t i = 0; i < raw.size(); ++i) {
        char c = raw[i];
        if (c == '.') {
          has_dot = true;
        } else if (!std::isdigit(static_cast<unsigned char>(c)) &&
                   !(i == 0 && c == '-')) {
          numeric = false;
          break;
        }
      }
      if (numeric) {
        return has_dot ? Value::Real(std::atof(raw.c_str()))
                       : Value::Int(std::atoll(raw.c_str()));
      }
      return Value::Str(std::move(raw));
    }
    // Bare number.
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    bool has_dot = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.')) {
      if (text_[pos_] == '.') has_dot = true;
      ++pos_;
    }
    if (pos_ == start) return InvalidArgument("expected literal");
    std::string raw(text_.substr(start, pos_ - start));
    return has_dot ? Value::Real(std::atof(raw.c_str()))
                   : Value::Int(std::atoll(raw.c_str()));
  }

  Status ParseComparison(std::string* path, std::string* op, Value* literal) {
    SkipSpace();
    XS_ASSIGN_OR_RETURN(*path, ParseName());
    SkipSpace();
    if (Consume('<')) {
      *op = Consume('=') ? "<=" : "<";
    } else if (Consume('>')) {
      *op = Consume('=') ? ">=" : ">";
    } else if (Consume('=')) {
      *op = '=';
    } else {
      return InvalidArgument("expected comparison in predicate");
    }
    XS_ASSIGN_OR_RETURN(*literal, ParseLiteral());
    return Status::OK();
  }

  // Parses "[cmp (and cmp)*]".
  Status ParsePredicate(std::string* path, std::string* op, Value* literal,
                        std::vector<XPathSelection>* extras) {
    if (!Consume('[')) return InvalidArgument("expected '['");
    XS_RETURN_IF_ERROR(ParseComparison(path, op, literal));
    while (true) {
      SkipSpace();
      if (text_.substr(pos_, 3) == "and" &&
          (pos_ + 3 >= text_.size() ||
           !std::isalnum(static_cast<unsigned char>(text_[pos_ + 3])))) {
        pos_ += 3;
        XPathSelection extra;
        XS_RETURN_IF_ERROR(
            ParseComparison(&extra.path, &extra.op, &extra.literal));
        extras->push_back(std::move(extra));
        continue;
      }
      break;
    }
    SkipSpace();
    if (!Consume(']')) return InvalidArgument("expected ']'");
    return Status::OK();
  }

  Status ParseProjections(std::vector<std::string>* projections) {
    if (!Consume('(')) return InvalidArgument("expected '('");
    while (true) {
      SkipSpace();
      XS_ASSIGN_OR_RETURN(std::string name, ParseName());
      projections->push_back(std::move(name));
      SkipSpace();
      if (Consume('|')) continue;
      if (Consume(')')) break;
      return InvalidArgument("expected '|' or ')'");
    }
    return Status::OK();
  }

  std::string_view text_;
  ResourceGovernor* governor_;
  size_t pos_ = 0;
};

}  // namespace

Result<XPathQuery> ParseXPath(std::string_view xpath,
                              ResourceGovernor* governor) {
  ResourceGovernor stack_safety;  // used when the caller passes none
  XPathParser parser(xpath, governor != nullptr ? governor : &stack_safety);
  return parser.Parse();
}

}  // namespace xmlshred
