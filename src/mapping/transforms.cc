#include "mapping/transforms.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/logging.h"
#include "common/strings.h"

namespace xmlshred {

const char* TransformKindToString(TransformKind kind) {
  switch (kind) {
    case TransformKind::kOutline:
      return "outline";
    case TransformKind::kInline:
      return "inline";
    case TransformKind::kTypeSplit:
      return "type-split";
    case TransformKind::kTypeMerge:
      return "type-merge";
    case TransformKind::kUnionDistribute:
      return "union-distribute";
    case TransformKind::kUnionFactorize:
      return "union-factorize";
    case TransformKind::kRepetitionSplit:
      return "repetition-split";
    case TransformKind::kRepetitionMerge:
      return "repetition-merge";
  }
  return "?";
}

bool Transform::IsMergeType() const {
  return kind == TransformKind::kInline || kind == TransformKind::kTypeMerge ||
         kind == TransformKind::kUnionFactorize ||
         kind == TransformKind::kRepetitionMerge;
}

std::string Transform::ToString() const {
  std::string out = TransformKindToString(kind);
  if (target >= 0) out += StrFormat("(%d", target);
  if (target2 >= 0) out += StrFormat(",%d", target2);
  if (!option_targets.empty()) {
    out += " opts=";
    for (size_t i = 0; i < option_targets.size(); ++i) {
      if (i > 0) out += "+";
      out += std::to_string(option_targets[i]);
    }
  }
  if (split_count > 0) out += StrFormat(" k=%d", split_count);
  if (!annotation.empty()) out += " ann=" + annotation;
  if (target >= 0) out += ")";
  return out;
}

bool CanInline(const SchemaNode* node) {
  if (node->kind() != SchemaNodeKind::kTag || !node->is_annotated() ||
      node->parent() == nullptr) {
    return false;
  }
  for (const SchemaNode* p = node->parent();
       p != nullptr && p->kind() != SchemaNodeKind::kTag; p = p->parent()) {
    if (p->kind() == SchemaNodeKind::kRepetition || p->is_variant_choice()) {
      return false;
    }
  }
  return true;
}

bool CanOutline(const SchemaNode* node) {
  return node->kind() == SchemaNodeKind::kTag && !node->is_annotated() &&
         node->parent() != nullptr;
}

std::string MakeUniqueAnnotation(const SchemaTree& tree,
                                 const std::string& base) {
  std::set<std::string> taken;
  tree.Visit([&taken](const SchemaNode* node) {
    if (node->is_annotated()) taken.insert(node->annotation());
  });
  if (taken.count(base) == 0) return base;
  int suffix = 2;
  while (true) {
    std::string name = base + "_" + std::to_string(suffix++);
    if (taken.count(name) == 0) return name;
  }
}

void FullyInline(SchemaTree* tree) {
  // Repeat until fixpoint: inlining one tag can make an outer tag's
  // inline-ability irrelevant but never illegal, a single pass suffices;
  // keep the loop for safety with nested annotations.
  bool changed = true;
  while (changed) {
    changed = false;
    // Annotations shared by several tags are type-merged relations —
    // horizontal groupings vertical partitioning cannot express — so they
    // are not subsumed and survive full inlining.
    std::map<std::string, int> annotation_counts;
    tree->Visit([&annotation_counts](const SchemaNode* node) {
      if (node->is_annotated()) ++annotation_counts[node->annotation()];
    });
    tree->Visit([&](SchemaNode* node) {
      if (node != tree->root() && CanInline(node) &&
          annotation_counts[node->annotation()] < 2) {
        node->set_annotation("");
        changed = true;
      }
    });
  }
}

namespace {

// First-level element names inside `node`, not descending into tags.
void ElementNames(const SchemaNode* node, std::set<std::string>* out) {
  if (node->kind() == SchemaNodeKind::kTag) {
    out->insert(node->name());
    return;
  }
  for (const auto& child : node->children()) {
    ElementNames(child.get(), out);
  }
}

// Finds the node with origin id `origin` in the subtree.
SchemaNode* FindByOrigin(SchemaNode* node, int origin, SchemaNodeKind kind) {
  if (node->origin_id() == origin && node->kind() == kind) return node;
  for (const auto& child : node->children()) {
    SchemaNode* found = FindByOrigin(child.get(), origin, kind);
    if (found != nullptr) return found;
  }
  return nullptr;
}

Status SplitOneRepetition(SchemaTree* tree, SchemaNode* rep, int split_count);

Result<int> ApplyOutline(SchemaTree* tree, const Transform& t) {
  SchemaNode* node = tree->FindNode(t.target);
  if (node == nullptr) return NotFound("outline target");
  if (!CanOutline(node)) return FailedPrecondition("cannot outline");
  node->set_annotation(MakeUniqueAnnotation(*tree, node->name()));
  return node->id();
}

Result<int> ApplyInline(SchemaTree* tree, const Transform& t) {
  SchemaNode* node = tree->FindNode(t.target);
  if (node == nullptr) return NotFound("inline target");
  if (node == tree->root()) return FailedPrecondition("cannot inline root");
  if (!CanInline(node)) return FailedPrecondition("cannot inline");
  node->set_annotation("");
  return node->id();
}

Result<int> ApplyTypeSplit(SchemaTree* tree, const Transform& t) {
  std::vector<SchemaNode*> anchors;
  tree->Visit([&anchors, &t](SchemaNode* node) {
    if (node->kind() == SchemaNodeKind::kTag &&
        node->annotation() == t.annotation) {
      anchors.push_back(node);
    }
  });
  if (anchors.size() < 2) {
    return FailedPrecondition("annotation not shared: " + t.annotation);
  }
  // The first keeps the name; later anchors get fresh names derived from
  // their parent context for readability.
  for (size_t i = 1; i < anchors.size(); ++i) {
    SchemaNode* anchor = anchors[i];
    const SchemaNode* ctx = anchor->NearestAnnotatedAncestor();
    std::string base = ctx != nullptr
                           ? ctx->annotation() + "_" + anchor->name()
                           : anchor->name();
    anchor->set_annotation(MakeUniqueAnnotation(*tree, base));
  }
  return anchors[0]->id();
}

Result<int> ApplyTypeMerge(SchemaTree* tree, const Transform& t) {
  SchemaNode* a = tree->FindNode(t.target);
  SchemaNode* b = tree->FindNode(t.target2);
  if (a == nullptr || b == nullptr) return NotFound("type merge target");
  if (a->kind() != SchemaNodeKind::kTag || b->kind() != SchemaNodeKind::kTag ||
      a->type_name().empty() || a->type_name() != b->type_name()) {
    return FailedPrecondition("targets are not shared type");
  }
  if (a->annotation() == b->annotation() && a->is_annotated()) {
    return FailedPrecondition("already merged");
  }
  // Deep merge (§3.3/§4.3): an inlined occurrence is first outlined — a
  // subsumed transformation combined with the non-subsumed merge.
  std::string name = a->is_annotated() ? a->annotation()
                     : b->is_annotated()
                         ? b->annotation()
                         : MakeUniqueAnnotation(*tree, a->name());
  a->set_annotation(name);
  b->set_annotation(name);
  return a->id();
}

// Shared by explicit and implicit union distribution: replaces context tag
// `context` with a variant choice built by `make_variants`.
Result<int> ReplaceWithVariantChoice(
    SchemaTree* tree, SchemaNode* context,
    std::vector<std::unique_ptr<SchemaNode>> variants) {
  SchemaNode* parent = context->parent();
  XS_CHECK(parent != nullptr);
  int pos = parent->ChildIndex(context);
  XS_CHECK_GE(pos, 0);
  std::unique_ptr<SchemaNode> original =
      parent->RemoveChild(static_cast<size_t>(pos));
  std::unique_ptr<SchemaNode> choice =
      tree->NewNode(SchemaNodeKind::kChoice);
  choice->set_is_variant_choice(true);
  choice->set_origin_id(original->origin_id());
  choice->set_undo(std::move(original));
  for (auto& variant : variants) choice->AddChild(std::move(variant));
  SchemaNode* inserted =
      parent->InsertChild(static_cast<size_t>(pos), std::move(choice));
  return inserted->id();
}

Result<int> ApplyUnionDistributeExplicit(SchemaTree* tree,
                                         const Transform& t) {
  SchemaNode* choice = tree->FindNode(t.target);
  if (choice == nullptr) return NotFound("union distribute target");
  if (choice->kind() != SchemaNodeKind::kChoice || choice->is_variant_choice()) {
    return FailedPrecondition("target is not a plain choice");
  }
  SchemaNode* context = choice->NearestAnnotatedAncestor();
  if (context == nullptr || context->parent() == nullptr) {
    return FailedPrecondition("choice has no distributable context");
  }
  if (!context->presence_any().empty() ||
      !context->presence_forbidden().empty()) {
    // The context is itself a distribution variant; nested variant
    // choices are not routable.
    return FailedPrecondition("context is already distributed");
  }
  // Per-alternative first-level element names for routing constraints.
  std::vector<std::set<std::string>> alt_names(choice->num_children());
  for (size_t i = 0; i < choice->num_children(); ++i) {
    ElementNames(choice->child(i), &alt_names[i]);
  }

  std::vector<std::unique_ptr<SchemaNode>> variants;
  for (size_t i = 0; i < choice->num_children(); ++i) {
    std::unique_ptr<SchemaNode> variant =
        tree->CopySubtreeFreshIds(context);
    SchemaNode* inner_choice =
        FindByOrigin(variant.get(), choice->origin_id(),
                     SchemaNodeKind::kChoice);
    if (inner_choice == nullptr) return Internal("lost choice in variant");
    SchemaNode* choice_parent = inner_choice->parent();
    int choice_pos = choice_parent->ChildIndex(inner_choice);
    std::unique_ptr<SchemaNode> detached =
        choice_parent->RemoveChild(static_cast<size_t>(choice_pos));
    std::unique_ptr<SchemaNode> alternative =
        detached->RemoveChild(i);  // i-th alternative survives
    choice_parent->InsertChild(static_cast<size_t>(choice_pos),
                               std::move(alternative));

    std::vector<std::string> any(alt_names[i].begin(), alt_names[i].end());
    std::vector<std::string> forbidden;
    for (size_t j = 0; j < alt_names.size(); ++j) {
      if (j == i) continue;
      for (const std::string& name : alt_names[j]) {
        if (alt_names[i].count(name) == 0) forbidden.push_back(name);
      }
    }
    variant->set_presence(std::move(any), std::move(forbidden));
    std::string suffix = alt_names[i].empty() ? std::to_string(i)
                                              : *alt_names[i].begin();
    variant->set_annotation(MakeUniqueAnnotation(
        *tree, context->annotation() + "_" + suffix));
    variants.push_back(std::move(variant));
  }
  return ReplaceWithVariantChoice(tree, context, std::move(variants));
}

// Removes the subtree of the option with origin id `origin` from
// `variant`. Returns false if not found.
bool RemoveOptionByOrigin(SchemaNode* node, int origin) {
  for (size_t i = 0; i < node->num_children(); ++i) {
    SchemaNode* child = node->child(i);
    if (child->kind() == SchemaNodeKind::kOption &&
        child->origin_id() == origin) {
      node->RemoveChild(i);
      return true;
    }
    if (child->kind() != SchemaNodeKind::kTag &&
        RemoveOptionByOrigin(child, origin)) {
      return true;
    }
  }
  return false;
}

Result<int> ApplyUnionDistributeImplicit(SchemaTree* tree,
                                         const Transform& t) {
  // Resolve the option nodes and their shared context.
  std::vector<SchemaNode*> options;
  SchemaNode* context = nullptr;
  for (int id : t.option_targets) {
    SchemaNode* option = tree->FindNode(id);
    if (option == nullptr) return NotFound("implicit union target");
    if (option->kind() != SchemaNodeKind::kOption) {
      return FailedPrecondition("target is not an option");
    }
    SchemaNode* ctx = option->NearestAnnotatedAncestor();
    if (ctx == nullptr || ctx->parent() == nullptr) {
      return FailedPrecondition("option has no distributable context");
    }
    if (!ctx->presence_any().empty() || !ctx->presence_forbidden().empty()) {
      return FailedPrecondition("context is already distributed");
    }
    if (context == nullptr) {
      context = ctx;
    } else if (context != ctx) {
      return FailedPrecondition("options span different contexts");
    }
    options.push_back(option);
  }
  if (options.empty()) return FailedPrecondition("no option targets");

  std::set<std::string> names;
  std::vector<int> origins;
  for (const SchemaNode* option : options) {
    ElementNames(option, &names);
    origins.push_back(option->origin_id());
  }
  std::vector<std::string> name_list(names.begin(), names.end());

  // Variant 1: instances having at least one of the optional elements.
  std::unique_ptr<SchemaNode> has = tree->CopySubtreeFreshIds(context);
  has->set_presence(name_list, {});
  has->set_annotation(MakeUniqueAnnotation(
      *tree, context->annotation() + "_with_" + name_list[0]));

  // Variant 2: instances having none of them; the optional subtrees are
  // dropped so their columns disappear (the paper's "drop columns with all
  // null values").
  std::unique_ptr<SchemaNode> none = tree->CopySubtreeFreshIds(context);
  for (int origin : origins) {
    RemoveOptionByOrigin(none.get(), origin);
  }
  none->set_presence({}, name_list);
  none->set_annotation(MakeUniqueAnnotation(
      *tree, context->annotation() + "_no_" + name_list[0]));

  std::vector<std::unique_ptr<SchemaNode>> variants;
  variants.push_back(std::move(has));
  variants.push_back(std::move(none));
  return ReplaceWithVariantChoice(tree, context, std::move(variants));
}

Result<int> ApplyUnionFactorize(SchemaTree* tree, const Transform& t) {
  SchemaNode* choice = tree->FindNode(t.target);
  if (choice == nullptr) return NotFound("union factorize target");
  if (!choice->is_variant_choice() || choice->undo() == nullptr) {
    return FailedPrecondition("target is not a factorizable variant choice");
  }
  SchemaNode* parent = choice->parent();
  if (parent == nullptr) return FailedPrecondition("variant choice is root");
  // Repetition splits applied inside the variants after distribution must
  // survive factorization: collect them (by origin) so they can be
  // re-applied to the restored original subtree.
  std::map<int, int> split_by_origin;  // repetition origin -> k
  for (const auto& variant : choice->children()) {
    std::vector<SchemaNode*> stack = {variant.get()};
    while (!stack.empty()) {
      SchemaNode* node = stack.back();
      stack.pop_back();
      if (node->kind() == SchemaNodeKind::kRepetition &&
          node->rep_overflow_from() > 0) {
        split_by_origin[node->origin_id()] = node->rep_overflow_from();
      }
      for (const auto& child : node->children()) stack.push_back(child.get());
    }
  }
  int pos = parent->ChildIndex(choice);
  std::unique_ptr<SchemaNode> detached =
      parent->RemoveChild(static_cast<size_t>(pos));
  std::unique_ptr<SchemaNode> original = detached->TakeUndo();
  SchemaNode* restored = parent->InsertChild(static_cast<size_t>(pos),
                                             std::move(original));
  for (const auto& [origin, k] : split_by_origin) {
    std::vector<SchemaNode*> reps;
    std::vector<SchemaNode*> stack = {restored};
    while (!stack.empty()) {
      SchemaNode* node = stack.back();
      stack.pop_back();
      if (node->kind() == SchemaNodeKind::kRepetition &&
          node->origin_id() == origin && node->rep_overflow_from() == 0) {
        reps.push_back(node);
      }
      for (const auto& child : node->children()) stack.push_back(child.get());
    }
    for (SchemaNode* rep : reps) {
      XS_RETURN_IF_ERROR(SplitOneRepetition(tree, rep, k));
    }
  }
  return restored->id();
}

// Resolves the target of a repetition transformation: by exact node id
// first, then by origin id — union distribution copies a context into
// variants with fresh ids, and a repetition split/merge should apply to
// the repetition inside *every* variant (the transformations compose).
std::vector<SchemaNode*> ResolveRepetitions(SchemaTree* tree, int target,
                                            bool want_split) {
  std::vector<SchemaNode*> out;
  SchemaNode* exact = tree->FindNode(target);
  auto eligible = [want_split](SchemaNode* node) {
    if (node->kind() != SchemaNodeKind::kRepetition) return false;
    return want_split ? node->rep_overflow_from() == 0
                      : node->rep_overflow_from() > 0;
  };
  if (exact != nullptr && eligible(exact)) {
    out.push_back(exact);
    return out;
  }
  tree->Visit([&](SchemaNode* node) {
    if (node->origin_id() == target && eligible(node)) out.push_back(node);
  });
  return out;
}

Status SplitOneRepetition(SchemaTree* tree, SchemaNode* rep,
                          int split_count) {
  SchemaNode* repeated = rep->child(0);
  if (!IsLeafTag(repeated)) {
    // The paper limits repetition split to leaf elements (Section 2.1).
    return FailedPrecondition("repetition split requires a leaf element");
  }
  if (rep->NearestAnnotatedAncestor() == nullptr || rep->parent() == nullptr) {
    return FailedPrecondition("repetition has no parent context");
  }
  SchemaNode* parent = rep->parent();
  int pos = parent->ChildIndex(rep);
  XS_CHECK_GE(pos, 0);
  for (int i = 1; i <= split_count; ++i) {
    std::unique_ptr<SchemaNode> occurrence =
        tree->CopySubtreeFreshIds(repeated);
    occurrence->set_annotation("");
    occurrence->set_rep_split_index(i);
    std::unique_ptr<SchemaNode> option =
        tree->NewNode(SchemaNodeKind::kOption);
    option->set_origin_id(rep->origin_id());
    option->AddChild(std::move(occurrence));
    parent->InsertChild(static_cast<size_t>(pos + i - 1), std::move(option));
  }
  rep->set_rep_overflow_from(split_count);
  return Status::OK();
}

Result<int> ApplyRepetitionSplit(SchemaTree* tree, const Transform& t) {
  if (t.split_count < 1) return InvalidArgument("split_count must be >= 1");
  std::vector<SchemaNode*> reps =
      ResolveRepetitions(tree, t.target, /*want_split=*/true);
  if (reps.empty()) return NotFound("repetition split target");
  for (SchemaNode* rep : reps) {
    XS_RETURN_IF_ERROR(SplitOneRepetition(tree, rep, t.split_count));
  }
  return reps[0]->id();
}

Result<int> ApplyRepetitionMerge(SchemaTree* tree, const Transform& t) {
  std::vector<SchemaNode*> reps =
      ResolveRepetitions(tree, t.target, /*want_split=*/false);
  if (reps.empty()) return NotFound("repetition merge target");
  for (SchemaNode* rep : reps) {
    SchemaNode* parent = rep->parent();
    XS_CHECK(parent != nullptr);
    // Remove the inlined occurrence options that share the repetition's
    // origin.
    for (size_t i = parent->num_children(); i-- > 0;) {
      SchemaNode* child = parent->child(i);
      if (child->kind() == SchemaNodeKind::kOption &&
          child->origin_id() == rep->origin_id() &&
          child->num_children() == 1 &&
          child->child(0)->rep_split_index() > 0) {
        parent->RemoveChild(i);
      }
    }
    rep->set_rep_overflow_from(0);
  }
  return reps[0]->id();
}

}  // namespace

Result<int> ApplyTransform(SchemaTree* tree, const Transform& transform) {
  switch (transform.kind) {
    case TransformKind::kOutline:
      return ApplyOutline(tree, transform);
    case TransformKind::kInline:
      return ApplyInline(tree, transform);
    case TransformKind::kTypeSplit:
      return ApplyTypeSplit(tree, transform);
    case TransformKind::kTypeMerge:
      return ApplyTypeMerge(tree, transform);
    case TransformKind::kUnionDistribute:
      return transform.option_targets.empty()
                 ? ApplyUnionDistributeExplicit(tree, transform)
                 : ApplyUnionDistributeImplicit(tree, transform);
    case TransformKind::kUnionFactorize:
      return ApplyUnionFactorize(tree, transform);
    case TransformKind::kRepetitionSplit:
      return ApplyRepetitionSplit(tree, transform);
    case TransformKind::kRepetitionMerge:
      return ApplyRepetitionMerge(tree, transform);
  }
  return Internal("unknown transform kind");
}

std::vector<Transform> EnumerateTransforms(SchemaTree& tree,
                                           int default_split_count) {
  std::vector<Transform> out;
  std::map<std::string, std::vector<SchemaNode*>> by_annotation;
  std::map<std::string, std::vector<SchemaNode*>> by_type;
  tree.Visit([&](SchemaNode* node) {
    switch (node->kind()) {
      case SchemaNodeKind::kTag:
        if (CanOutline(node)) {
          Transform t;
          t.kind = TransformKind::kOutline;
          t.target = node->id();
          out.push_back(std::move(t));
        }
        if (CanInline(node)) {
          Transform t;
          t.kind = TransformKind::kInline;
          t.target = node->id();
          out.push_back(std::move(t));
        }
        if (node->is_annotated()) {
          by_annotation[node->annotation()].push_back(node);
        }
        if (!node->type_name().empty()) {
          by_type[node->type_name()].push_back(node);
        }
        break;
      case SchemaNodeKind::kChoice:
        if (node->is_variant_choice()) {
          if (node->undo() != nullptr) {
            Transform t;
            t.kind = TransformKind::kUnionFactorize;
            t.target = node->id();
            out.push_back(std::move(t));
          }
        } else {
          SchemaNode* ctx = node->NearestAnnotatedAncestor();
          if (ctx != nullptr && ctx->presence_any().empty() &&
              ctx->presence_forbidden().empty()) {
            Transform t;
            t.kind = TransformKind::kUnionDistribute;
            t.target = node->id();
            out.push_back(std::move(t));
          }
        }
        break;
      case SchemaNodeKind::kOption: {
        SchemaNode* ctx = node->NearestAnnotatedAncestor();
        if (ctx != nullptr && ctx->presence_any().empty() &&
            ctx->presence_forbidden().empty() &&
            node->rep_split_index() == 0 && node->num_children() == 1 &&
            node->child(0)->rep_split_index() == 0) {
          Transform t;
          t.kind = TransformKind::kUnionDistribute;
          t.target = node->id();
          t.option_targets = {node->id()};
          out.push_back(std::move(t));
        }
        break;
      }
      case SchemaNodeKind::kRepetition: {
        if (node->rep_overflow_from() > 0) {
          Transform t;
          t.kind = TransformKind::kRepetitionMerge;
          t.target = node->id();
          out.push_back(std::move(t));
        } else if (IsLeafTag(node->child(0)) &&
                   node->NearestAnnotatedAncestor() != nullptr) {
          Transform t;
          t.kind = TransformKind::kRepetitionSplit;
          t.target = node->id();
          t.split_count = default_split_count;
          out.push_back(std::move(t));
        }
        break;
      }
      default:
        break;
    }
  });
  for (const auto& [annotation, anchors] : by_annotation) {
    if (anchors.size() >= 2) {
      Transform t;
      t.kind = TransformKind::kTypeSplit;
      t.annotation = annotation;
      out.push_back(std::move(t));
    }
  }
  for (const auto& [type_name, tags] : by_type) {
    for (size_t i = 0; i < tags.size(); ++i) {
      for (size_t j = i + 1; j < tags.size(); ++j) {
        if (tags[i]->annotation() != tags[j]->annotation() ||
            !tags[i]->is_annotated()) {
          Transform t;
          t.kind = TransformKind::kTypeMerge;
          t.target = tags[i]->id();
          t.target2 = tags[j]->id();
          out.push_back(std::move(t));
        }
      }
    }
  }
  return out;
}

}  // namespace xmlshred
