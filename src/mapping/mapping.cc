#include "mapping/mapping.h"

#include <set>

#include "common/logging.h"

namespace xmlshred {

TableSchema MappedRelation::ToTableSchema() const {
  TableSchema schema;
  schema.name = table_name;
  schema.columns.push_back({"ID", ColumnType::kInt64, false});
  schema.columns.push_back({"PID", ColumnType::kInt64, true});
  schema.id_column = 0;
  schema.pid_column = 1;
  for (const MappedColumn& col : columns) {
    schema.columns.push_back({col.name, col.type, col.nullable});
  }
  return schema;
}

int MappedRelation::FindMappedColumn(const std::string& column_name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == column_name) return static_cast<int>(i);
  }
  return -1;
}

namespace {

// One leaf found under an anchor: the path-derived column name plus
// presence info.
struct LeafInfo {
  std::string path_name;
  const SchemaNode* leaf = nullptr;
  bool optional = false;
};

// Collects the inlined leaves under `node` (which is inside the content of
// an anchor), without descending into annotated tags. `prefix` accumulates
// nested unannotated tag names; `optional` tracks option/choice ancestry.
void CollectLeaves(const SchemaNode* node, const std::string& prefix,
                   bool optional, std::vector<LeafInfo>* out) {
  switch (node->kind()) {
    case SchemaNodeKind::kTag: {
      if (node->is_annotated()) return;  // separate relation
      if (IsLeafTag(node)) {
        LeafInfo info;
        info.path_name = prefix.empty() ? node->name()
                                        : prefix + "_" + node->name();
        if (node->rep_split_index() > 0) {
          info.path_name += '_';
          info.path_name += std::to_string(node->rep_split_index());
        }
        info.leaf = node;
        info.optional = optional || node->rep_split_index() > 0;
        out->push_back(std::move(info));
        return;
      }
      // Unannotated complex tag: descend with extended prefix.
      std::string next_prefix =
          prefix.empty() ? node->name() : prefix + "_" + node->name();
      for (const auto& child : node->children()) {
        CollectLeaves(child.get(), next_prefix, optional, out);
      }
      return;
    }
    case SchemaNodeKind::kSequence:
      for (const auto& child : node->children()) {
        CollectLeaves(child.get(), prefix, optional, out);
      }
      return;
    case SchemaNodeKind::kOption:
    case SchemaNodeKind::kChoice:
      for (const auto& child : node->children()) {
        CollectLeaves(child.get(), prefix, /*optional=*/true, out);
      }
      return;
    case SchemaNodeKind::kRepetition:
      // Set-valued children are annotated (separate relations); nothing
      // inlines from here.
      return;
    case SchemaNodeKind::kSimpleType:
      return;
  }
}

}  // namespace

Result<Mapping> Mapping::Build(const SchemaTree& tree) {
  XS_RETURN_IF_ERROR(tree.Validate());
  Mapping mapping;

  // Gather anchors grouped by annotation, in document order.
  std::vector<const SchemaNode*> anchors;
  tree.Visit([&anchors](const SchemaNode* node) {
    if (node->kind() == SchemaNodeKind::kTag && node->is_annotated()) {
      anchors.push_back(node);
    }
  });

  std::map<std::string, int> relation_index;
  for (const SchemaNode* anchor : anchors) {
    const std::string& name = anchor->annotation();
    auto it = relation_index.find(name);
    if (it == relation_index.end()) {
      relation_index[name] = static_cast<int>(mapping.relations_.size());
      MappedRelation rel;
      rel.table_name = name;
      mapping.relations_.push_back(std::move(rel));
      it = relation_index.find(name);
    }
    int rel_idx = it->second;
    MappedRelation& rel = mapping.relations_[static_cast<size_t>(rel_idx)];
    rel.anchor_node_ids.push_back(anchor->id());
    mapping.anchor_relation_[anchor->id()] = rel_idx;
    const SchemaNode* parent_anchor = anchor->NearestAnnotatedAncestor();
    if (parent_anchor != nullptr) {
      const std::string& parent_name = parent_anchor->annotation();
      bool seen = false;
      for (const std::string& p : rel.parent_tables) {
        if (p == parent_name) {
          seen = true;
          break;
        }
      }
      if (!seen) rel.parent_tables.push_back(parent_name);
    }
    if (anchor->parent() != nullptr &&
        anchor->parent()->kind() == SchemaNodeKind::kRepetition &&
        anchor->parent()->rep_overflow_from() > 0) {
      rel.rep_overflow_from = anchor->parent()->rep_overflow_from();
    }

    // Collect this anchor's inlined leaves and merge them into the
    // relation's column list by path name.
    std::vector<LeafInfo> leaves;
    if (IsLeafTag(anchor)) {
      // The anchor itself carries a value (e.g. an outlined or set-valued
      // simple element like author): store it as a column named after the
      // tag.
      LeafInfo info;
      info.path_name = anchor->name();
      info.leaf = anchor;
      info.optional = false;
      leaves.push_back(std::move(info));
    } else {
      for (const auto& child : anchor->children()) {
        CollectLeaves(child.get(), "", /*optional=*/false, &leaves);
      }
    }
    bool merged_anchor = rel.anchor_node_ids.size() > 1;
    std::set<std::string> seen_paths;
    for (const LeafInfo& leaf : leaves) {
      std::string column_name = leaf.path_name;
      // Disambiguate duplicate names within one anchor (e.g. two distinct
      // leaves both named "note").
      int suffix = 2;
      while (seen_paths.count(column_name) > 0) {
        column_name = leaf.path_name + "_" + std::to_string(suffix++);
      }
      seen_paths.insert(column_name);

      int col_idx = rel.FindMappedColumn(column_name);
      if (col_idx < 0) {
        MappedColumn col;
        col.name = column_name;
        col.element_name = leaf.leaf->name();
        col.type = BaseTypeToColumnType(leaf.leaf->child(0)->base_type());
        col.nullable = leaf.optional || merged_anchor;
        col.rep_index = leaf.leaf->rep_split_index();
        rel.columns.push_back(std::move(col));
        col_idx = static_cast<int>(rel.columns.size()) - 1;
      } else if (leaf.optional) {
        rel.columns[static_cast<size_t>(col_idx)].nullable = true;
      }
      rel.columns[static_cast<size_t>(col_idx)].node_ids.push_back(
          leaf.leaf->id());
      mapping.node_column_[leaf.leaf->id()] = {rel_idx, col_idx};
    }
    if (merged_anchor) {
      // Columns absent from this anchor become nullable.
      for (MappedColumn& col : rel.columns) {
        if (seen_paths.count(col.name) == 0) col.nullable = true;
      }
    }
  }
  return mapping;
}

const MappedRelation* Mapping::FindRelation(
    const std::string& table_name) const {
  for (const MappedRelation& rel : relations_) {
    if (rel.table_name == table_name) return &rel;
  }
  return nullptr;
}

int Mapping::RelationIndexOfAnchor(int node_id) const {
  auto it = anchor_relation_.find(node_id);
  return it == anchor_relation_.end() ? -1 : it->second;
}

bool Mapping::ColumnOfNode(int node_id, int* relation_idx,
                           int* column_idx) const {
  auto it = node_column_.find(node_id);
  if (it == node_column_.end()) return false;
  *relation_idx = it->second.first;
  *column_idx = it->second.second;
  return true;
}

std::string Mapping::ToString() const {
  std::string out;
  for (const MappedRelation& rel : relations_) {
    out += rel.ToTableSchema().ToString();
    out += "\n";
  }
  return out;
}

}  // namespace xmlshred
