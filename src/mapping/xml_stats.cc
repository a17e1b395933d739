#include "mapping/xml_stats.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "mapping/schema_walker.h"

namespace xmlshred {

namespace {

// Optional child element names within an anchor's inline content: names
// under options and choice alternatives, not descending into tags.
void CollectOptionalNames(const SchemaNode* node, bool optional,
                          std::set<std::string>* out) {
  switch (node->kind()) {
    case SchemaNodeKind::kTag:
      if (optional) out->insert(node->name());
      return;
    case SchemaNodeKind::kOption:
    case SchemaNodeKind::kChoice:
      for (const auto& child : node->children()) {
        CollectOptionalNames(child.get(), true, out);
      }
      return;
    default:
      for (const auto& child : node->children()) {
        CollectOptionalNames(child.get(), optional, out);
      }
      return;
  }
}

}  // namespace

// The statistics sink: element counts, per-instance presence masks of
// annotated tags' optional children, leaf values, and per-visit
// repetition cardinalities.
class StatsSink : public WalkSink {
 public:
  StatsSink(const SchemaTree& tree, XmlStatistics* stats) : stats_(stats) {
    // Each annotated tag's optional child names, in a fixed order.
    tree.Visit([this](const SchemaNode* node) {
      if (node->kind() == SchemaNodeKind::kTag && node->is_annotated() &&
          !IsLeafTag(node)) {
        std::set<std::string> names;
        CollectOptionalNames(node->child(0), false, &names);
        if (!names.empty() && names.size() <= 62) {
          stats_->presence_[node->origin_id()].optional_names.assign(
              names.begin(), names.end());
        }
      }
    });
  }

  Status EnterTag(const XmlElement& element,
                  const SchemaNode* node) override {
    ++stats_->total_elements_;
    ++stats_->element_counts_[node->origin_id()];
    if (!node->is_annotated() || IsLeafTag(node)) return Status::OK();
    auto it = stats_->presence_.find(node->origin_id());
    if (it == stats_->presence_.end()) return Status::OK();
    const std::vector<std::string>& names = it->second.optional_names;
    uint64_t mask = 0;
    for (const auto& child : element.children()) {
      for (size_t i = 0; i < names.size(); ++i) {
        if (names[i] == child->tag()) mask |= 1ULL << i;
      }
    }
    ++it->second.combo_counts[mask];
    return Status::OK();
  }

  Status LeafText(const SchemaNode* node, const std::string& text) override {
    values_[node->origin_id()].push_back(
        ParseLeafValue(text, node->child(0)->base_type()));
    return Status::OK();
  }

  void RepetitionVisit(const SchemaNode* node, int64_t occurrences) override {
    ++stats_->cardinality_hists_[node->origin_id()][occurrences];
  }

  // Turns the accumulated leaf values into column statistics.
  void Finish() {
    for (const auto& [origin, values] : values_) {
      stats_->value_stats_[origin] = BuildColumnStatsFromValues(values);
    }
  }

 private:
  XmlStatistics* stats_;
  std::map<int, std::vector<Value>> values_;
};

Result<XmlStatistics> XmlStatistics::Collect(const XmlDocument& doc,
                                             const SchemaTree& tree) {
  XmlStatistics stats;
  StatsSink sink(tree, &stats);
  XS_RETURN_IF_ERROR(SchemaWalker(&sink).WalkRoot(doc.root(), tree));
  sink.Finish();
  return stats;
}

int64_t XmlStatistics::ElementCount(int origin_id) const {
  auto it = element_counts_.find(origin_id);
  return it == element_counts_.end() ? 0 : it->second;
}

const std::map<int64_t, int64_t>* XmlStatistics::CardinalityHist(
    int origin_id) const {
  auto it = cardinality_hists_.find(origin_id);
  return it == cardinality_hists_.end() ? nullptr : &it->second;
}

const ColumnStats* XmlStatistics::ValueStats(int origin_id) const {
  auto it = value_stats_.find(origin_id);
  return it == value_stats_.end() ? nullptr : &it->second;
}

int64_t XmlStatistics::CountMatchingPresence(
    int context_origin_id, const std::vector<std::string>& any,
    const std::vector<std::string>& forbidden,
    const std::vector<std::string>& require_all) const {
  auto it = presence_.find(context_origin_id);
  if (it == presence_.end()) {
    // No optional children tracked: every instance matches unless the
    // constraint demands a present element.
    return any.empty() ? ElementCount(context_origin_id) : 0;
  }
  const ContextPresence& presence = it->second;
  auto mask_of = [&presence](const std::vector<std::string>& names) {
    uint64_t mask = 0;
    for (const std::string& name : names) {
      for (size_t i = 0; i < presence.optional_names.size(); ++i) {
        if (presence.optional_names[i] == name) mask |= 1ULL << i;
      }
    }
    return mask;
  };
  uint64_t any_mask = mask_of(any);
  uint64_t forbidden_mask = mask_of(forbidden);
  uint64_t require_mask = mask_of(require_all);
  int64_t count = 0;
  for (const auto& [combo, n] : presence.combo_counts) {
    if (!any.empty() && (combo & any_mask) == 0) continue;
    if ((combo & forbidden_mask) != 0) continue;
    if ((combo & require_mask) != require_mask) continue;
    count += n;
  }
  return count;
}

double XmlStatistics::AncestorVariantSelectivity(
    const SchemaNode* node) const {
  // Fraction of this element's instances surviving the presence
  // constraints of every enclosing variant context (e.g. aka_title under
  // a distributed movie variant).
  double factor = 1.0;
  for (const SchemaNode* p = node->parent(); p != nullptr; p = p->parent()) {
    if (p->kind() == SchemaNodeKind::kTag && p->is_annotated() &&
        (!p->presence_any().empty() || !p->presence_forbidden().empty())) {
      int64_t total = ElementCount(p->origin_id());
      if (total > 0) {
        factor *= static_cast<double>(CountMatchingPresence(
                      p->origin_id(), p->presence_any(),
                      p->presence_forbidden())) /
                  static_cast<double>(total);
      }
    }
  }
  return factor;
}

int64_t XmlStatistics::AnchorRowCount(const SchemaNode* anchor) const {
  double variant_factor = AncestorVariantSelectivity(anchor);
  // An outlined repetition-split occurrence column (deep merge can outline
  // author_i): one row per parent with at least i occurrences.
  if (anchor->rep_split_index() > 0 && anchor->parent() != nullptr) {
    const std::map<int64_t, int64_t>* hist =
        CardinalityHist(anchor->parent()->origin_id());
    if (hist == nullptr) return 0;
    int64_t rows = 0;
    for (const auto& [cardinality, parents] : *hist) {
      if (cardinality >= anchor->rep_split_index()) rows += parents;
    }
    return static_cast<int64_t>(static_cast<double>(rows) * variant_factor +
                                0.5);
  }
  // Overflow relation of a repetition split: only occurrences beyond the
  // inlined count shred here.
  const SchemaNode* parent = anchor->parent();
  if (parent != nullptr && parent->kind() == SchemaNodeKind::kRepetition &&
      parent->rep_overflow_from() > 0) {
    const std::map<int64_t, int64_t>* hist =
        CardinalityHist(parent->origin_id());
    if (hist == nullptr) return 0;
    int64_t k = parent->rep_overflow_from();
    int64_t rows = 0;
    for (const auto& [cardinality, parents] : *hist) {
      if (cardinality > k) rows += (cardinality - k) * parents;
    }
    return static_cast<int64_t>(static_cast<double>(rows) * variant_factor +
                                0.5);
  }
  // A single-occurrence optional anchor (e.g. an outlined optional leaf)
  // under a variant-constrained context: condition jointly on the variant
  // constraint and the anchor's own presence, instead of multiplying the
  // marginals.
  const SchemaNode* ctx = anchor->NearestAnnotatedAncestor();
  if (ctx != nullptr &&
      (!ctx->presence_any().empty() || !ctx->presence_forbidden().empty())) {
    bool optional_single = false;
    for (const SchemaNode* p = anchor->parent();
         p != nullptr && p != ctx; p = p->parent()) {
      if (p->kind() == SchemaNodeKind::kRepetition) {
        optional_single = false;
        break;
      }
      if (p->kind() == SchemaNodeKind::kOption ||
          p->kind() == SchemaNodeKind::kChoice) {
        optional_single = true;
      }
    }
    if (optional_single) {
      int64_t joint = CountMatchingPresence(
          ctx->origin_id(), ctx->presence_any(), ctx->presence_forbidden(),
          {anchor->name()});
      return static_cast<int64_t>(
          static_cast<double>(joint) * AncestorVariantSelectivity(ctx) + 0.5);
    }
  }
  int64_t base;
  if (!anchor->presence_any().empty() ||
      !anchor->presence_forbidden().empty()) {
    base = CountMatchingPresence(anchor->origin_id(), anchor->presence_any(),
                                 anchor->presence_forbidden());
  } else {
    base = ElementCount(anchor->origin_id());
  }
  return static_cast<int64_t>(static_cast<double>(base) * variant_factor +
                              0.5);
}

TableStats XmlStatistics::DeriveTableStats(
    const SchemaTree& tree, const MappedRelation& relation) const {
  TableStats stats;
  // Row count and parent count accumulate over anchors.
  int64_t rows = 0;
  int64_t parent_rows = 0;
  std::vector<std::pair<const SchemaNode*, int64_t>> anchors;
  for (int anchor_id : relation.anchor_node_ids) {
    const SchemaNode* anchor = tree.FindNode(anchor_id);
    XS_CHECK(anchor != nullptr);
    int64_t anchor_rows = AnchorRowCount(anchor);
    anchors.emplace_back(anchor, anchor_rows);
    rows += anchor_rows;
    const SchemaNode* parent_anchor = anchor->NearestAnnotatedAncestor();
    if (parent_anchor != nullptr) {
      // Distinct PID values: parents that actually own rows here. For an
      // overflow relation that is the parents exceeding the split count.
      const SchemaNode* rep = anchor->parent();
      if (rep != nullptr && rep->kind() == SchemaNodeKind::kRepetition &&
          rep->rep_overflow_from() > 0) {
        const std::map<int64_t, int64_t>* hist =
            CardinalityHist(rep->origin_id());
        if (hist != nullptr) {
          for (const auto& [cardinality, parents] : *hist) {
            if (cardinality > rep->rep_overflow_from()) {
              parent_rows += parents;
            }
          }
        }
      } else {
        parent_rows += AnchorRowCount(parent_anchor);
      }
    }
  }
  stats.row_count = rows;

  // ID column.
  ColumnStats id_stats;
  id_stats.non_null_count = rows;
  id_stats.distinct_estimate = rows;
  id_stats.avg_bytes = 8.0;
  id_stats.min = Value::Int(1);
  id_stats.max = Value::Int(std::max<int64_t>(total_elements_, 1));
  stats.columns.push_back(std::move(id_stats));

  // PID column.
  ColumnStats pid_stats;
  pid_stats.non_null_count = rows;
  pid_stats.distinct_estimate = std::max<int64_t>(1, parent_rows);
  pid_stats.avg_bytes = 8.0;
  pid_stats.min = Value::Int(1);
  pid_stats.max = Value::Int(std::max<int64_t>(total_elements_, 1));
  stats.columns.push_back(std::move(pid_stats));

  // Mapped columns.
  for (const MappedColumn& column : relation.columns) {
    ColumnStats combined;
    for (int node_id : column.node_ids) {
      const SchemaNode* leaf = tree.FindNode(node_id);
      XS_CHECK(leaf != nullptr);
      const SchemaNode* anchor =
          leaf->is_annotated() ? leaf : leaf->NearestAnnotatedAncestor();
      XS_CHECK(anchor != nullptr);
      int64_t anchor_rows = 0;
      for (const auto& [a, r] : anchors) {
        if (a == anchor) {
          anchor_rows = r;
          break;
        }
      }

      int64_t non_null = 0;
      if (leaf->rep_split_index() > 0) {
        // Occurrence column i: parents with >= i occurrences, scaled by
        // any enclosing variant constraints.
        const SchemaNode* option = leaf->parent();
        const std::map<int64_t, int64_t>* hist =
            option != nullptr ? CardinalityHist(option->origin_id()) : nullptr;
        if (hist != nullptr) {
          for (const auto& [cardinality, parents] : *hist) {
            if (cardinality >= leaf->rep_split_index()) non_null += parents;
          }
          non_null = static_cast<int64_t>(
              static_cast<double>(non_null) *
                  AncestorVariantSelectivity(leaf) +
              0.5);
        }
      } else if (leaf == anchor) {
        non_null = anchor_rows;
      } else {
        // Presence probability of the leaf among context instances.
        int64_t context_count = ElementCount(anchor->origin_id());
        int64_t leaf_count = ElementCount(leaf->origin_id());
        bool forbidden = false;
        for (const std::string& name : anchor->presence_forbidden()) {
          if (name == leaf->name()) forbidden = true;
        }
        bool required = anchor->presence_any().size() == 1 &&
                        anchor->presence_any()[0] == leaf->name();
        bool constrained = !anchor->presence_any().empty() ||
                           !anchor->presence_forbidden().empty();
        if (forbidden) {
          non_null = 0;
        } else if (required) {
          non_null = anchor_rows;
        } else if (constrained && leaf->UnderOption()) {
          // Joint presence of the variant constraint and the leaf.
          non_null = static_cast<int64_t>(
              static_cast<double>(CountMatchingPresence(
                  anchor->origin_id(), anchor->presence_any(),
                  anchor->presence_forbidden(), {leaf->name()})) *
                  AncestorVariantSelectivity(anchor) +
              0.5);
        } else if (context_count > 0) {
          double p = static_cast<double>(leaf_count) /
                     static_cast<double>(context_count);
          non_null = static_cast<int64_t>(
              std::min(1.0, p) * static_cast<double>(anchor_rows) + 0.5);
        }
      }
      non_null = std::min(non_null, anchor_rows);

      const ColumnStats* base = ValueStats(leaf->origin_id());
      ColumnStats contribution;
      if (base != nullptr && base->non_null_count > 0) {
        double factor = static_cast<double>(non_null) /
                        static_cast<double>(base->non_null_count);
        contribution = ScaleColumnStats(*base, factor);
        contribution.non_null_count = non_null;  // exact, not rounded
      } else {
        contribution.non_null_count = non_null;
      }
      contribution.null_count = anchor_rows - non_null;
      combined = MergeColumnStats(combined, contribution);
    }
    // Anchors that do not feed this column still contribute NULL rows.
    int64_t accounted = combined.row_count();
    if (accounted < rows) combined.null_count += rows - accounted;
    stats.columns.push_back(std::move(combined));
  }
  return stats;
}

CatalogDesc XmlStatistics::DeriveCatalog(const SchemaTree& tree,
                                         const Mapping& mapping) const {
  CatalogDesc catalog;
  for (const MappedRelation& relation : mapping.relations()) {
    TableDesc desc;
    desc.schema = relation.ToTableSchema();
    desc.stats = DeriveTableStats(tree, relation);
    catalog.tables[relation.table_name] = std::move(desc);
  }
  return catalog;
}

}  // namespace xmlshred
