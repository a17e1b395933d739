#include "xpath/translator.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/strings.h"

namespace xmlshred {

namespace {

// All leaf tags named `name` in the subtree of `node` (including node
// itself), descending into annotated tags too.
void FindLeavesNamed(SchemaNode* node, const std::string& name,
                     std::vector<SchemaNode*>* out) {
  if (IsLeafTag(node) && node->name() == name) {
    out->push_back(node);
  }
  for (const auto& child : node->children()) {
    FindLeavesNamed(child.get(), name, out);
  }
}

// One storage location of a projection element relative to a context
// anchor.
struct Location {
  bool inline_in_context = false;
  std::string relation;  // child relation when not inline
  std::string column;
  int rep_index = 0;  // occurrence order for repetition-split columns
};

// Coerces a predicate literal to the stored column's type: numeric
// literals against VARCHAR columns become strings (all-PCDATA DTD
// schemas), and numeric strings against numeric columns become numbers —
// XPath's untyped comparisons meet SQL's typed ones here.
Value CoerceLiteral(const Value& literal, ColumnType column_type) {
  if (column_type == ColumnType::kString && !literal.is_string() &&
      !literal.is_null()) {
    if (literal.is_int()) return Value::Str(std::to_string(literal.AsInt()));
    return Value::Str(FormatDoubleTrimmed(literal.AsDouble(), 6));
  }
  if (column_type != ColumnType::kString && literal.is_string()) {
    const std::string& s = literal.AsString();
    if (column_type == ColumnType::kInt64) {
      return Value::Int(std::atoll(s.c_str()));
    }
    return Value::Real(std::atof(s.c_str()));
  }
  return literal;
}

}  // namespace

Result<TranslatedQuery> TranslateXPath(const XPathQuery& query,
                                       const SchemaTree& tree,
                                       const Mapping& mapping) {
  // Context anchors: annotated tags with the context name.
  std::vector<SchemaNode*> anchors =
      const_cast<SchemaTree&>(tree).FindTagsByName(query.context);
  anchors.erase(std::remove_if(anchors.begin(), anchors.end(),
                               [](SchemaNode* n) { return !n->is_annotated(); }),
                anchors.end());
  if (anchors.empty()) {
    return NotFound("no annotated context element '" + query.context + "'");
  }

  // Per anchor: selection column (inline) and per-projection locations.
  struct ResolvedSelection {
    bool inline_in_context = true;
    std::string column;
    // When the selection element is outlined into a single-valued direct
    // child relation, every block joins it to apply the predicate.
    std::string relation;
    std::string op;
    Value literal;
  };
  struct AnchorPlan {
    SchemaNode* anchor = nullptr;
    const MappedRelation* relation = nullptr;
    bool selection_ok = true;
    std::vector<ResolvedSelection> selections;
    // locations[i] = storage locations of projection i under this anchor.
    std::vector<std::vector<Location>> locations;
  };
  std::vector<AnchorPlan> plans;
  bool any_selection_ok = false;

  for (SchemaNode* anchor : anchors) {
    AnchorPlan plan;
    plan.anchor = anchor;
    int rel_idx = mapping.RelationIndexOfAnchor(anchor->id());
    if (rel_idx < 0) return Internal("anchor without relation");
    plan.relation = &mapping.relations()[static_cast<size_t>(rel_idx)];

    // Resolve every selection predicate (primary + conjunctive extras).
    std::vector<XPathSelection> all_selections;
    if (query.has_selection) {
      all_selections.push_back(
          {query.selection_path, query.selection_op, query.selection_literal});
      for (const XPathSelection& extra : query.extra_selections) {
        all_selections.push_back(extra);
      }
    }
    for (const XPathSelection& selection : all_selections) {
      std::vector<SchemaNode*> sel_leaves;
      FindLeavesNamed(anchor, selection.path, &sel_leaves);
      ResolvedSelection resolved;
      resolved.op = selection.op;
      resolved.literal = selection.literal;
      bool found = false;
      for (SchemaNode* leaf : sel_leaves) {
        int lrel, lcol;
        if (!mapping.ColumnOfNode(leaf->id(), &lrel, &lcol)) continue;
        if (lrel == rel_idx && leaf->rep_split_index() == 0) {
          resolved.inline_in_context = true;
          resolved.column =
              plan.relation->columns[static_cast<size_t>(lcol)].name;
          resolved.literal = CoerceLiteral(
              resolved.literal,
              plan.relation->columns[static_cast<size_t>(lcol)].type);
          found = true;
          break;
        }
      }
      if (!found) {
        // Outlined single-valued selection element: reachable through a
        // direct child relation joined on PID (at most one row per
        // context instance, so no duplicate context rows arise).
        for (SchemaNode* leaf : sel_leaves) {
          int lrel, lcol;
          if (!mapping.ColumnOfNode(leaf->id(), &lrel, &lcol)) continue;
          if (leaf->parent() != nullptr &&
              leaf->parent()->kind() == SchemaNodeKind::kRepetition) {
            continue;  // set-valued selection paths stay unsupported
          }
          const MappedRelation& owner =
              mapping.relations()[static_cast<size_t>(lrel)];
          bool direct_child = false;
          for (const std::string& parent : owner.parent_tables) {
            if (parent == plan.relation->table_name) direct_child = true;
          }
          if (!direct_child) continue;
          resolved.inline_in_context = false;
          resolved.relation = owner.table_name;
          resolved.column = owner.columns[static_cast<size_t>(lcol)].name;
          resolved.literal = CoerceLiteral(
              resolved.literal, owner.columns[static_cast<size_t>(lcol)].type);
          found = true;
          break;
        }
      }
      if (!found) {
        // An element missing from this anchor entirely means the variant
        // holds no qualifying instances and is skipped.
        if (!sel_leaves.empty()) {
          return Unimplemented("selection path '" + selection.path +
                               "' is not reachable from relation " +
                               plan.relation->table_name);
        }
        plan.selection_ok = false;
        break;
      }
      plan.selections.push_back(std::move(resolved));
    }
    if (plan.selection_ok) any_selection_ok = true;

    for (const std::string& projection : query.projections) {
      std::vector<Location> locations;
      std::vector<SchemaNode*> leaves;
      FindLeavesNamed(anchor, projection, &leaves);
      for (SchemaNode* leaf : leaves) {
        int lrel, lcol;
        if (!mapping.ColumnOfNode(leaf->id(), &lrel, &lcol)) continue;
        const MappedRelation& owner =
            mapping.relations()[static_cast<size_t>(lrel)];
        Location loc;
        loc.column = owner.columns[static_cast<size_t>(lcol)].name;
        loc.rep_index = leaf->rep_split_index();
        if (lrel == rel_idx) {
          loc.inline_in_context = true;
        } else {
          // Only direct child relations are supported; the owning
          // relation must reference the context relation via PID.
          bool direct_child = false;
          for (const std::string& parent : owner.parent_tables) {
            if (parent == plan.relation->table_name) direct_child = true;
          }
          if (!direct_child) continue;
          loc.relation = owner.table_name;
        }
        locations.push_back(std::move(loc));
      }
      // Deterministic order: inline occurrence columns by rep index, then
      // child relations by name.
      std::sort(locations.begin(), locations.end(),
                [](const Location& a, const Location& b) {
                  if (a.inline_in_context != b.inline_in_context) {
                    return a.inline_in_context;
                  }
                  if (a.rep_index != b.rep_index) {
                    return a.rep_index < b.rep_index;
                  }
                  if (a.relation != b.relation) return a.relation < b.relation;
                  return a.column < b.column;
                });
      plan.locations.push_back(std::move(locations));
    }
    plans.push_back(std::move(plan));
  }
  if (query.has_selection && !any_selection_ok) {
    return NotFound("selection path '" + query.selection_path +
                    "' not found under context '" + query.context + "'");
  }

  // Global output slots: per projection, the maximum number of inline
  // locations any anchor has (at least 1); child-relation locations reuse
  // the projection's first slot.
  std::vector<int> slots_per_projection(query.projections.size(), 1);
  for (const AnchorPlan& plan : plans) {
    for (size_t p = 0; p < query.projections.size(); ++p) {
      int inline_count = 0;
      for (const Location& loc : plan.locations[p]) {
        if (loc.inline_in_context) ++inline_count;
      }
      slots_per_projection[p] =
          std::max(slots_per_projection[p], inline_count);
    }
  }
  TranslatedQuery out;
  out.output_elements.push_back("");  // context ID column
  std::vector<int> slot_base(query.projections.size());
  int total_slots = 1;
  for (size_t p = 0; p < query.projections.size(); ++p) {
    slot_base[p] = total_slots;
    total_slots += slots_per_projection[p];
    for (int i = 0; i < slots_per_projection[p]; ++i) {
      out.output_elements.push_back(query.projections[p]);
    }
  }

  // Emit blocks.
  for (const AnchorPlan& plan : plans) {
    if (!plan.selection_ok) continue;
    const std::string& context_table = plan.relation->table_name;

    auto make_block = [&](bool with_child, const std::string& child_table) {
      SelectBlock block;
      block.tables.push_back({context_table, "t0"});
      if (with_child) block.tables.push_back({child_table, "t1"});
      if (with_child) {
        JoinPred join;
        join.left_alias = "t1";
        join.left_column = "PID";
        join.right_alias = "t0";
        join.right_column = "ID";
        block.joins.push_back(std::move(join));
      }
      int selection_joins = 0;
      for (const ResolvedSelection& selection : plan.selections) {
        FilterPred filter;
        filter.op = selection.op;
        filter.literal = selection.literal;
        filter.column = selection.column;
        if (selection.inline_in_context) {
          filter.table = "t0";
        } else {
          // Join the outlined selection relation.
          std::string alias = "ts" + std::to_string(selection_joins++);
          block.tables.push_back({selection.relation, alias});
          JoinPred join;
          join.left_alias = alias;
          join.left_column = "PID";
          join.right_alias = "t0";
          join.right_column = "ID";
          block.joins.push_back(std::move(join));
          filter.table = alias;
        }
        block.filters.push_back(std::move(filter));
      }
      return block;
    };

    // Inline block: the context row with every inline projection column.
    {
      SelectBlock block = make_block(false, "");
      std::vector<SelectItem> items(static_cast<size_t>(total_slots),
                                    SelectItem::NullLiteral());
      items[0] = SelectItem::Column("t0", "ID");
      for (size_t p = 0; p < query.projections.size(); ++p) {
        int next_slot = slot_base[p];
        for (const Location& loc : plan.locations[p]) {
          if (!loc.inline_in_context) continue;
          items[static_cast<size_t>(next_slot++)] =
              SelectItem::Column("t0", loc.column);
        }
      }
      block.items = std::move(items);
      out.sql.blocks.push_back(std::move(block));
    }

    // One block per (projection, child relation) location.
    for (size_t p = 0; p < query.projections.size(); ++p) {
      for (const Location& loc : plan.locations[p]) {
        if (loc.inline_in_context) continue;
        SelectBlock block = make_block(true, loc.relation);
        std::vector<SelectItem> items(static_cast<size_t>(total_slots),
                                      SelectItem::NullLiteral());
        items[0] = SelectItem::Column("t0", "ID");
        items[static_cast<size_t>(slot_base[p])] =
            SelectItem::Column("t1", loc.column);
        block.items = std::move(items);
        out.sql.blocks.push_back(std::move(block));
      }
    }
  }
  if (out.sql.blocks.empty()) {
    return NotFound("query matches no context partition");
  }
  out.sql.order_by = {0};
  return out;
}

std::vector<std::string> CanonicalizeResult(const TranslatedQuery& query,
                                            const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) {
    XS_CHECK_EQ(row.size(), query.output_elements.size());
    const Value& id = row[0];
    for (size_t c = 1; c < row.size(); ++c) {
      if (row[c].is_null()) continue;
      out.push_back(id.ToString() + "|" + query.output_elements[c] + "|" +
                    row[c].ToString());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace xmlshred
