#include "mapping/reconstructor.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "common/strings.h"

namespace xmlshred {

namespace {

std::string RenderValue(const Value& value) {
  if (value.is_int()) return std::to_string(value.AsInt());
  if (value.is_double()) return FormatDoubleTrimmed(value.AsDouble(), 6);
  return value.AsString();
}

class Reconstructor {
 public:
  Reconstructor(const Database& db, const SchemaTree& tree,
                const Mapping& mapping)
      : db_(db), tree_(tree), mapping_(mapping) {}

  Result<XmlDocument> Run() {
    const SchemaNode* root = tree_.root();
    int rel_idx = mapping_.RelationIndexOfAnchor(root->id());
    if (rel_idx < 0) return FailedPrecondition("root is not mapped");
    const Table* table = TableOf(rel_idx);
    if (table == nullptr) return NotFound("root relation missing");
    if (table->row_count() != 1) {
      return FailedPrecondition("root relation must hold exactly one row");
    }
    XS_ASSIGN_OR_RETURN(
        std::unique_ptr<XmlElement> element,
        EmitTag(root, RowsOf(rel_idx)[0], rel_idx));
    return XmlDocument(std::move(element));
  }

 private:
  const Table* TableOf(int rel_idx) {
    return db_.FindTable(
        mapping_.relations()[static_cast<size_t>(rel_idx)].table_name);
  }

  // Rows of relation `rel_idx`, materialized once and cached; the vector
  // is never resized after, so pointers into it stay valid for the whole
  // reconstruction.
  const std::vector<Row>& RowsOf(int rel_idx) {
    auto it = rows_cache_.find(rel_idx);
    if (it == rows_cache_.end()) {
      const Table* table = TableOf(rel_idx);
      XS_CHECK(table != nullptr);
      it = rows_cache_.emplace(rel_idx, table->MaterializeRows()).first;
    }
    return it->second;
  }

  // Rows of relation `rel_idx` whose PID equals `parent_id`, in ID order.
  const std::vector<const Row*>& ChildRows(int rel_idx, int64_t parent_id) {
    auto& by_pid = children_[rel_idx];
    if (by_pid.empty()) {
      const Table* table = TableOf(rel_idx);
      XS_CHECK(table != nullptr);
      int pid_col = table->schema().pid_column;
      for (const Row& row : RowsOf(rel_idx)) {
        const Value& pid = row[static_cast<size_t>(pid_col)];
        if (!pid.is_null()) by_pid[pid.AsInt()].push_back(&row);
      }
      // Mark as initialized even when the relation is empty.
      by_pid[-1];
    }
    static const std::vector<const Row*> kEmpty;
    auto it = by_pid.find(parent_id);
    return it == by_pid.end() ? kEmpty : it->second;
  }

  int64_t RowId(const Row& row, int rel_idx) {
    const Table* table = TableOf(rel_idx);
    return row[static_cast<size_t>(table->schema().id_column)].AsInt();
  }

  // Emits the element for one instance (row) of an annotated tag.
  Result<std::unique_ptr<XmlElement>> EmitTag(const SchemaNode* tag,
                                              const Row& row, int rel_idx) {
    auto element = std::make_unique<XmlElement>(tag->name());
    if (IsLeafTag(tag)) {
      int lrel, lcol;
      if (!mapping_.ColumnOfNode(tag->id(), &lrel, &lcol)) {
        return Internal("leaf anchor without column");
      }
      const Value& value = row[static_cast<size_t>(kFixedColumns + lcol)];
      if (!value.is_null()) element->set_text(RenderValue(value));
      return element;
    }
    XS_RETURN_IF_ERROR(
        EmitContent(tag->child(0), row, rel_idx, element.get()));
    return element;
  }

  // Emits the content of `node` into `out`, reading inline columns from
  // `row` (a row of relation `rel_idx`) and child relations by PID.
  Status EmitContent(const SchemaNode* node, const Row& row, int rel_idx,
                     XmlElement* out) {
    switch (node->kind()) {
      case SchemaNodeKind::kSequence:
        for (const auto& child : node->children()) {
          XS_RETURN_IF_ERROR(EmitContent(child.get(), row, rel_idx, out));
        }
        return Status::OK();
      case SchemaNodeKind::kTag: {
        if (node->is_annotated()) {
          int child_rel = mapping_.RelationIndexOfAnchor(node->id());
          if (child_rel < 0) return Internal("anchor without relation");
          int64_t parent_id = RowId(row, rel_idx);
          for (const Row* child_row : ChildRows(child_rel, parent_id)) {
            XS_ASSIGN_OR_RETURN(std::unique_ptr<XmlElement> child,
                                EmitTag(node, *child_row, child_rel));
            out->AddChild(std::move(child));
          }
          return Status::OK();
        }
        if (IsLeafTag(node)) {
          int lrel, lcol;
          if (!mapping_.ColumnOfNode(node->id(), &lrel, &lcol)) {
            return Internal("leaf without column: " + node->name());
          }
          XS_CHECK_EQ(lrel, rel_idx);
          const Value& value = row[static_cast<size_t>(kFixedColumns + lcol)];
          if (!value.is_null()) {
            out->AddTextChild(node->name(), RenderValue(value));
          }
          return Status::OK();
        }
        // Unannotated complex tag: nested element over the same row.
        XmlElement* nested = out->AddChild(node->name());
        return EmitContent(node->child(0), row, rel_idx, nested);
      }
      case SchemaNodeKind::kOption:
        return EmitContent(node->child(0), row, rel_idx, out);
      case SchemaNodeKind::kChoice:
        if (node->is_variant_choice()) {
          return EmitVariants(node, row, rel_idx, out);
        }
        // Plain choice: absent alternatives emit nothing (NULL columns).
        for (const auto& alternative : node->children()) {
          XS_RETURN_IF_ERROR(
              EmitContent(alternative.get(), row, rel_idx, out));
        }
        return Status::OK();
      case SchemaNodeKind::kRepetition: {
        const SchemaNode* repeated = node->child(0);
        if (repeated->kind() == SchemaNodeKind::kChoice &&
            repeated->is_variant_choice()) {
          return EmitVariants(repeated, row, rel_idx, out);
        }
        if (repeated->kind() != SchemaNodeKind::kTag ||
            !repeated->is_annotated()) {
          return Internal("repetition over unannotated content");
        }
        int child_rel = mapping_.RelationIndexOfAnchor(repeated->id());
        if (child_rel < 0) return Internal("anchor without relation");
        int64_t parent_id = RowId(row, rel_idx);
        for (const Row* child_row : ChildRows(child_rel, parent_id)) {
          XS_ASSIGN_OR_RETURN(std::unique_ptr<XmlElement> child,
                              EmitTag(repeated, *child_row, child_rel));
          out->AddChild(std::move(child));
        }
        return Status::OK();
      }
      case SchemaNodeKind::kSimpleType:
        return Internal("simple type in content position");
    }
    return Internal("unhandled node kind");
  }

  // Union-distribution variants: merge each variant relation's child rows
  // back into document (ID) order.
  Status EmitVariants(const SchemaNode* choice, const Row& row, int rel_idx,
                      XmlElement* out) {
    struct Instance {
      int64_t id;
      const SchemaNode* variant;
      const Row* row;
      int rel;
    };
    std::vector<Instance> instances;
    int64_t parent_id = RowId(row, rel_idx);
    for (const auto& variant : choice->children()) {
      int child_rel = mapping_.RelationIndexOfAnchor(variant->id());
      if (child_rel < 0) return Internal("variant without relation");
      for (const Row* child_row : ChildRows(child_rel, parent_id)) {
        instances.push_back({RowId(*child_row, child_rel), variant.get(),
                             child_row, child_rel});
      }
    }
    std::sort(instances.begin(), instances.end(),
              [](const Instance& a, const Instance& b) {
                return a.id < b.id;
              });
    for (const Instance& instance : instances) {
      XS_ASSIGN_OR_RETURN(
          std::unique_ptr<XmlElement> child,
          EmitTag(instance.variant, *instance.row, instance.rel));
      out->AddChild(std::move(child));
    }
    return Status::OK();
  }

  const Database& db_;
  const SchemaTree& tree_;
  const Mapping& mapping_;
  // rel_idx -> materialized rows (pointer-stable backing for children_)
  std::unordered_map<int, std::vector<Row>> rows_cache_;
  // rel_idx -> (parent id -> rows in ID order)
  std::unordered_map<int,
                     std::unordered_map<int64_t, std::vector<const Row*>>>
      children_;
};

}  // namespace

Result<XmlDocument> ReconstructDocument(const Database& db,
                                        const SchemaTree& tree,
                                        const Mapping& mapping) {
  Reconstructor reconstructor(db, tree, mapping);
  return reconstructor.Run();
}

}  // namespace xmlshred
