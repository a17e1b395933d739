#include "mapping/schema_walker.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

namespace xmlshred {

Status SchemaWalker::WalkRoot(const XmlElement* root, const SchemaTree& tree) {
  if (root == nullptr) return InvalidArgument("empty document");
  XS_RETURN_IF_ERROR(CheckRootTag(root->tag(), tree));
  return WalkTag(root, tree.root());
}

Status SchemaWalker::WalkTag(const XmlElement* element,
                             const SchemaNode* node) {
  XS_RETURN_IF_ERROR(sink_->EnterTag(*element, node));
  if (IsLeafTag(node)) {
    XS_RETURN_IF_ERROR(sink_->LeafText(node, element->text()));
  } else {
    size_t cursor = 0;
    XS_RETURN_IF_ERROR(MatchContent(node->child(0), element, &cursor));
    if (cursor != element->children().size()) {
      return InvalidArgument("unconsumed children under <" + element->tag() +
                             ">");
    }
  }
  return sink_->ExitTag(node);
}

Status SchemaWalker::MatchContent(const SchemaNode* node,
                                  const XmlElement* element, size_t* cursor) {
  const auto& kids = element->children();
  auto next_starts = [&](const SchemaNode* particle) {
    return *cursor < kids.size() &&
           CanStartWith(particle, kids[*cursor]->tag());
  };
  switch (node->kind()) {
    case SchemaNodeKind::kSequence:
      for (const auto& child : node->children()) {
        XS_RETURN_IF_ERROR(MatchContent(child.get(), element, cursor));
      }
      return Status::OK();
    case SchemaNodeKind::kTag:
      if (*cursor >= kids.size() || kids[*cursor]->tag() != node->name()) {
        return InvalidArgument("expected <" + node->name() + "> under <" +
                               element->tag() + ">");
      }
      return WalkTag(kids[(*cursor)++].get(), node);
    case SchemaNodeKind::kOption:
      return next_starts(node->child(0))
                 ? MatchContent(node->child(0), element, cursor)
                 : Status::OK();
    case SchemaNodeKind::kRepetition: {
      int64_t occurrences = 0;
      while (next_starts(node->child(0))) {
        XS_RETURN_IF_ERROR(MatchContent(node->child(0), element, cursor));
        ++occurrences;
      }
      sink_->RepetitionVisit(node, occurrences);
      return Status::OK();
    }
    case SchemaNodeKind::kChoice:
      return MatchChoice(node, element, cursor);
    case SchemaNodeKind::kSimpleType:
      return Internal("simple type in content position");
  }
  return Internal("unhandled schema node kind");
}

Status SchemaWalker::MatchChoice(const SchemaNode* node,
                                 const XmlElement* element, size_t* cursor) {
  const auto& kids = element->children();
  if (node->is_variant_choice()) {
    // A variant choice stands where a context tag stood: the next child
    // is a context instance, routed by its children's presence.
    if (*cursor >= kids.size()) {
      return InvalidArgument("missing variant instance under <" +
                             element->tag() + ">");
    }
    const XmlElement* instance = kids[*cursor].get();
    const SchemaNode* variant = MatchVariant(node, *instance);
    if (variant == nullptr) {
      return InvalidArgument("no variant accepts <" + instance->tag() + ">");
    }
    ++*cursor;
    return WalkTag(instance, variant);
  }
  if (*cursor >= kids.size()) {
    return InvalidArgument("missing choice content under <" + element->tag() +
                           ">");
  }
  const std::string& next = kids[*cursor]->tag();
  for (const auto& alternative : node->children()) {
    if (CanStartWith(alternative.get(), next)) {
      return MatchContent(alternative.get(), element, cursor);
    }
  }
  return InvalidArgument("no choice alternative matches <" + next + ">");
}

Status CheckRootTag(std::string_view tag, const SchemaTree& tree) {
  if (tag == tree.root()->name()) return Status::OK();
  return InvalidArgument("document root <" + std::string(tag) +
                         "> does not match schema root <" +
                         tree.root()->name() + ">");
}

bool CanStartWith(const SchemaNode* node, std::string_view tag) {
  if (node->kind() == SchemaNodeKind::kTag) return node->name() == tag;
  for (const auto& child : node->children()) {
    if (CanStartWith(child.get(), tag)) return true;
  }
  return false;
}

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
