#include "mapping/schema_walker.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>
#include <vector>

namespace xmlshred {

namespace {

// The children of a built element.
class ElementChildren : public ChildCursor {
 public:
  explicit ElementChildren(const XmlElement& element)
      : kids_(element.children()) {}

  Result<const XmlElement*> Peek() override {
    if (next_ == kids_.size()) return nullptr;
    return kids_[next_].get();
  }
  void Advance() override { ++next_; }

 private:
  const std::vector<std::unique_ptr<XmlElement>>& kids_;
  size_t next_ = 0;
};

// True when an element named `tag` can start an instance of the particle
// `node`: some tag at `node`'s matching level (not descending into tags)
// carries that name.
bool CanStartWith(const SchemaNode* node, std::string_view tag) {
  if (node->kind() == SchemaNodeKind::kTag) return node->name() == tag;
  for (const auto& child : node->children()) {
    if (CanStartWith(child.get(), tag)) return true;
  }
  return false;
}

// True when the cursor's next child can start an instance of `particle`.
Result<bool> NextStarts(const SchemaNode* particle, ChildCursor* children) {
  XS_ASSIGN_OR_RETURN(const XmlElement* next, children->Peek());
  return next != nullptr && CanStartWith(particle, next->tag());
}

// The variant of the union-distribution choice `choice` that `instance`
// routes to: the first same-named variant whose presence constraints the
// instance's children satisfy, or nullptr when none does.
const SchemaNode* MatchVariant(const SchemaNode* choice,
                               const XmlElement& instance) {
  auto present = [&instance](const std::string& name) {
    for (const auto& child : instance.children()) {
      if (child->tag() == name) return true;
    }
    return false;
  };
  for (const auto& variant : choice->children()) {
    if (variant->kind() != SchemaNodeKind::kTag ||
        variant->name() != instance.tag()) {
      continue;
    }
    const std::vector<std::string>& any = variant->presence_any();
    const std::vector<std::string>& forbidden = variant->presence_forbidden();
    if ((any.empty() || std::any_of(any.begin(), any.end(), present)) &&
        std::none_of(forbidden.begin(), forbidden.end(), present)) {
      return variant.get();
    }
  }
  return nullptr;
}

}  // namespace

Status SchemaWalker::WalkRoot(const XmlElement* root, const SchemaTree& tree) {
  if (root == nullptr) return InvalidArgument("empty document");
  ElementChildren children(*root);
  return WalkRoot(*root, &children, tree);
}

Status SchemaWalker::WalkRoot(const XmlElement& root, ChildCursor* children,
                              const SchemaTree& tree) {
  if (root.tag() != tree.root()->name()) {
    return InvalidArgument("document root <" + root.tag() +
                           "> does not match schema root <" +
                           tree.root()->name() + ">");
  }
  return WalkTag(root, tree.root(), children);
}

Status SchemaWalker::WalkTag(const XmlElement& element,
                             const SchemaNode* node, ChildCursor* children) {
  XS_RETURN_IF_ERROR(sink_->EnterTag(element, node));
  if (IsLeafTag(node)) {
    XS_RETURN_IF_ERROR(sink_->LeafText(node, element.text()));
  } else {
    XS_RETURN_IF_ERROR(MatchContent(node->child(0), element, children));
    XS_ASSIGN_OR_RETURN(const XmlElement* rest, children->Peek());
    if (rest != nullptr) {
      return InvalidArgument("unconsumed children under <" + element.tag() +
                             ">");
    }
  }
  return sink_->ExitTag(node);
}

Status SchemaWalker::WalkChild(const XmlElement& child,
                               const SchemaNode* node,
                               ChildCursor* children) {
  ElementChildren grandchildren(child);
  XS_RETURN_IF_ERROR(WalkTag(child, node, &grandchildren));
  children->Advance();
  return Status::OK();
}

Status SchemaWalker::MatchContent(const SchemaNode* node,
                                  const XmlElement& parent,
                                  ChildCursor* children) {
  switch (node->kind()) {
    case SchemaNodeKind::kSequence:
      for (const auto& child : node->children()) {
        XS_RETURN_IF_ERROR(MatchContent(child.get(), parent, children));
      }
      return Status::OK();
    case SchemaNodeKind::kTag: {
      XS_ASSIGN_OR_RETURN(const XmlElement* next, children->Peek());
      if (next == nullptr || next->tag() != node->name()) {
        return InvalidArgument("expected <" + node->name() + "> under <" +
                               parent.tag() + ">");
      }
      return WalkChild(*next, node, children);
    }
    case SchemaNodeKind::kOption: {
      XS_ASSIGN_OR_RETURN(bool starts, NextStarts(node->child(0), children));
      return starts ? MatchContent(node->child(0), parent, children)
                    : Status::OK();
    }
    case SchemaNodeKind::kRepetition: {
      int64_t occurrences = 0;
      for (;;) {
        XS_ASSIGN_OR_RETURN(bool starts, NextStarts(node->child(0), children));
        if (!starts) break;
        XS_RETURN_IF_ERROR(MatchContent(node->child(0), parent, children));
        ++occurrences;
      }
      sink_->RepetitionVisit(node, occurrences);
      return Status::OK();
    }
    case SchemaNodeKind::kChoice:
      return MatchChoice(node, parent, children);
    case SchemaNodeKind::kSimpleType:
      return Internal("simple type in content position");
  }
  return Internal("unhandled schema node kind");
}

Status SchemaWalker::MatchChoice(const SchemaNode* node,
                                 const XmlElement& parent,
                                 ChildCursor* children) {
  XS_ASSIGN_OR_RETURN(const XmlElement* next, children->Peek());
  if (node->is_variant_choice()) {
    // A variant choice stands where a context tag stood: the next child
    // is a context instance, routed by its children's presence.
    if (next == nullptr) {
      return InvalidArgument("missing variant instance under <" +
                             parent.tag() + ">");
    }
    const SchemaNode* variant = MatchVariant(node, *next);
    if (variant == nullptr) {
      return InvalidArgument("no variant accepts <" + next->tag() + ">");
    }
    return WalkChild(*next, variant, children);
  }
  if (next == nullptr) {
    return InvalidArgument("missing choice content under <" + parent.tag() +
                           ">");
  }
  for (const auto& alternative : node->children()) {
    if (CanStartWith(alternative.get(), next->tag())) {
      return MatchContent(alternative.get(), parent, children);
    }
  }
  return InvalidArgument("no choice alternative matches <" + next->tag() +
                         ">");
}

Value ParseLeafValue(const std::string& text, XsdBaseType type) {
  if (text.empty()) return Value::Null();
  switch (type) {
    case XsdBaseType::kString:
      return Value::Str(text);
    case XsdBaseType::kInt:
      return Value::Int(std::atoll(text.c_str()));
    case XsdBaseType::kDouble:
      return Value::Real(std::atof(text.c_str()));
  }
  return Value::Null();
}

}  // namespace xmlshred
