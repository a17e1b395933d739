// Annotated XSD schema tree T(V, E, A) — Section 2 of the paper.
//
// Nodes represent the XSD type constructors: tag names, sequences (","),
// repetitions ("*", maxOccurs > 1), options ("?", minOccurs = 0), choices
// ("|"), and simple (base) types. A is the annotation set: a tag node with
// a non-empty annotation is mapped to its own relation named by the
// annotation; the root and any set-valued element (child of "*") must be
// annotated. Two tag nodes sharing a non-empty `type_name` are "shared
// type" (logically equivalent) — the targets of type split/merge.
//
// Every node carries a persistent id: clones preserve ids, so a
// transformation candidate can name its target nodes and stay applicable
// across the search's repeated re-derivations of the current mapping.

#ifndef XMLSHRED_XML_SCHEMA_TREE_H_
#define XMLSHRED_XML_SCHEMA_TREE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "rel/value.h"

namespace xmlshred {

enum class SchemaNodeKind {
  kTag,         // named element
  kSequence,    // ","
  kChoice,      // "|"
  kOption,      // "?" (minOccurs=0, maxOccurs=1)
  kRepetition,  // "*" (maxOccurs unbounded / > 1)
  kSimpleType,  // base type leaf
};

const char* SchemaNodeKindToString(SchemaNodeKind kind);

enum class XsdBaseType { kString, kInt, kDouble };

ColumnType BaseTypeToColumnType(XsdBaseType type);

class SchemaNode {
 public:
  SchemaNode(int id, SchemaNodeKind kind) : id_(id), kind_(kind) {}
  SchemaNode(const SchemaNode&) = delete;
  SchemaNode& operator=(const SchemaNode&) = delete;

  int id() const { return id_; }
  SchemaNodeKind kind() const { return kind_; }

  // Tag name (kTag only).
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  XsdBaseType base_type() const { return base_type_; }
  void set_base_type(XsdBaseType type) { base_type_ = type; }

  // Relation annotation; empty = inlined into the nearest annotated
  // ancestor's relation.
  const std::string& annotation() const { return annotation_; }
  void set_annotation(std::string annotation) {
    annotation_ = std::move(annotation);
  }
  bool is_annotated() const { return !annotation_.empty(); }

  // Shared-type identity (kTag only); empty = not shared.
  const std::string& type_name() const { return type_name_; }
  void set_type_name(std::string type_name) {
    type_name_ = std::move(type_name);
  }

  SchemaNode* parent() const { return parent_; }

  const std::vector<std::unique_ptr<SchemaNode>>& children() const {
    return children_;
  }
  SchemaNode* child(size_t i) const { return children_[i].get(); }
  size_t num_children() const { return children_.size(); }

  SchemaNode* AddChild(std::unique_ptr<SchemaNode> child);
  // Inserts at position `pos`, shifting later children.
  SchemaNode* InsertChild(size_t pos, std::unique_ptr<SchemaNode> child);
  // Detaches and returns the i-th child.
  std::unique_ptr<SchemaNode> RemoveChild(size_t i);
  // Position of `child` among the children, or -1.
  int ChildIndex(const SchemaNode* child) const;

  // Nearest ancestor tag node with a non-empty annotation (not including
  // this node), or nullptr.
  SchemaNode* NearestAnnotatedAncestor() const;

  // True if some ancestor (up to but excluding the nearest annotated tag)
  // is a repetition — i.e. this element can occur multiple times per
  // owning-relation row.
  bool UnderRepetition() const;

  // True if some ancestor below the nearest annotated tag is an option or
  // a choice — i.e. this element may be absent.
  bool UnderOption() const;

  // ----- transformation bookkeeping -----

  // Id of the node in the *original* (pre-transformation) schema tree this
  // node derives from; statistics collected on the original data are keyed
  // by origin ids. Defaults to the node's own id.
  int origin_id() const { return origin_id_ >= 0 ? origin_id_ : id_; }
  void set_origin_id(int origin_id) { origin_id_ = origin_id; }

  // True for a kChoice created by union distribution whose children are
  // same-named context variants (which must stay annotated).
  bool is_variant_choice() const { return is_variant_choice_; }
  void set_is_variant_choice(bool v) { is_variant_choice_ = v; }

  // Presence constraints on a union-distribution variant tag: instances
  // routed to this variant must contain at least one child element named
  // in `presence_any` (when non-empty) and none named in
  // `presence_forbidden`.
  const std::vector<std::string>& presence_any() const {
    return presence_any_;
  }
  const std::vector<std::string>& presence_forbidden() const {
    return presence_forbidden_;
  }
  void set_presence(std::vector<std::string> any,
                    std::vector<std::string> forbidden) {
    presence_any_ = std::move(any);
    presence_forbidden_ = std::move(forbidden);
  }

  // Repetition split markers. On an inlined occurrence tag: 1-based index
  // of the occurrence it stores. On the overflow repetition node: the
  // number of leading occurrences stored inline in the parent (only
  // occurrences beyond that count shred into the overflow relation).
  int rep_split_index() const { return rep_split_index_; }
  void set_rep_split_index(int i) { rep_split_index_ = i; }
  int rep_overflow_from() const { return rep_overflow_from_; }
  void set_rep_overflow_from(int k) { rep_overflow_from_ = k; }

  // Pre-transformation subtree stashed by split transformations so the
  // corresponding merge transformation (union factorization, repetition
  // merge) can restore it. Held by the node that replaced the original.
  const SchemaNode* undo() const { return undo_.get(); }
  void set_undo(std::unique_ptr<SchemaNode> undo) { undo_ = std::move(undo); }
  std::unique_ptr<SchemaNode> TakeUndo() { return std::move(undo_); }

 private:
  friend class SchemaTree;

  int id_;
  SchemaNodeKind kind_;
  std::string name_;
  XsdBaseType base_type_ = XsdBaseType::kString;
  std::string annotation_;
  std::string type_name_;
  SchemaNode* parent_ = nullptr;
  std::vector<std::unique_ptr<SchemaNode>> children_;

  int origin_id_ = -1;
  bool is_variant_choice_ = false;
  std::vector<std::string> presence_any_;
  std::vector<std::string> presence_forbidden_;
  int rep_split_index_ = 0;
  int rep_overflow_from_ = 0;
  std::unique_ptr<SchemaNode> undo_;
};

// A leaf tag has simple content: it stores its text as one column and is
// never descended into (child elements under a leaf are ignored).
inline bool IsLeafTag(const SchemaNode* node) {
  return node->kind() == SchemaNodeKind::kTag && node->num_children() == 1 &&
         node->child(0)->kind() == SchemaNodeKind::kSimpleType;
}

class SchemaTree {
 public:
  SchemaTree() = default;
  SchemaTree(const SchemaTree&) = delete;
  SchemaTree& operator=(const SchemaTree&) = delete;

  SchemaNode* root() { return root_.get(); }
  const SchemaNode* root() const { return root_.get(); }

  // Creates a detached node owned by the caller.
  std::unique_ptr<SchemaNode> NewNode(SchemaNodeKind kind);
  std::unique_ptr<SchemaNode> NewTag(std::string name);
  std::unique_ptr<SchemaNode> NewSimple(XsdBaseType type);

  void SetRoot(std::unique_ptr<SchemaNode> root);

  // Deep copy preserving node ids.
  std::unique_ptr<SchemaTree> Clone() const;

  // Deep copy of a detached subtree keeping node ids (and origin ids).
  static std::unique_ptr<SchemaNode> CopySubtreeSameIds(const SchemaNode* node);

  // Deep copy of a subtree with freshly allocated ids from this tree;
  // origin ids are preserved so statistics still resolve.
  std::unique_ptr<SchemaNode> CopySubtreeFreshIds(const SchemaNode* node);

  // Preorder traversal.
  void Visit(const std::function<void(SchemaNode*)>& fn);
  void Visit(const std::function<void(const SchemaNode*)>& fn) const;

  // Node with the given persistent id, or nullptr.
  SchemaNode* FindNode(int id);
  const SchemaNode* FindNode(int id) const;

  // First tag node with the given tag name (document order), or nullptr.
  SchemaNode* FindTagByName(const std::string& name);

  // All tag nodes with the given tag name.
  std::vector<SchemaNode*> FindTagsByName(const std::string& name);

  // Checks the structural invariants: the root is an annotated tag, every
  // tag child of a repetition is annotated, options/repetitions have one
  // child, choices have >= 2, tags have exactly one content child, simple
  // types are leaves, and annotations are unique per relation name except
  // for shared-type merges (same annotation allowed on same-type tags).
  Status Validate() const;

  // Indented rendering for diagnostics.
  std::string ToString() const;

 private:
  std::unique_ptr<SchemaNode> root_;
  int next_id_ = 0;
};

}  // namespace xmlshred

#endif  // XMLSHRED_XML_SCHEMA_TREE_H_
