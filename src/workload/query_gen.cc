#include "workload/query_gen.h"

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"

namespace xmlshred {

std::string WorkloadName(const WorkloadSpec& spec) {
  std::string name =
      spec.projections == ProjectionClass::kHigh ? "HP" : "LP";
  name += spec.selectivity == SelectivityClass::kHigh ? "-HS" : "-LS";
  name += '-';
  name += std::to_string(spec.num_queries);
  return name;
}

namespace {

// A queryable context: an annotated, repeated, non-leaf element.
struct ContextInfo {
  SchemaNode* node = nullptr;
  int64_t instances = 0;
  // Leaf element names in the context subtree — projection pool.
  std::vector<std::string> projection_pool;
  // Inline single-valued leaves usable as selection paths, with their
  // value statistics and presence flag.
  struct SelectionLeaf {
    const SchemaNode* leaf = nullptr;
    bool optional = false;
  };
  std::vector<SelectionLeaf> selection_pool;
};

void CollectContextLeaves(SchemaNode* node, bool under_repetition,
                          bool optional, ContextInfo* info) {
  switch (node->kind()) {
    case SchemaNodeKind::kTag:
      if (IsLeafTag(node)) {
        info->projection_pool.push_back(node->name());
        if (!under_repetition) {
          info->selection_pool.push_back({node, optional});
        }
        return;
      }
      if (node->is_annotated()) return;  // nested complex relation
      for (const auto& child : node->children()) {
        CollectContextLeaves(child.get(), under_repetition, optional, info);
      }
      return;
    case SchemaNodeKind::kRepetition:
      for (const auto& child : node->children()) {
        CollectContextLeaves(child.get(), true, optional, info);
      }
      return;
    case SchemaNodeKind::kOption:
    case SchemaNodeKind::kChoice:
      for (const auto& child : node->children()) {
        CollectContextLeaves(child.get(), under_repetition, true, info);
      }
      return;
    default:
      for (const auto& child : node->children()) {
        CollectContextLeaves(child.get(), under_repetition, optional, info);
      }
      return;
  }
}

// Picks a range literal v such that roughly a fraction `target` of rows
// satisfy col >= v, from the value histogram.
bool PickRangeLiteral(const ColumnStats& stats, double target, Value* out) {
  if (stats.histogram.empty() || stats.non_null_count == 0) return false;
  double want = target * static_cast<double>(stats.non_null_count);
  double above = 0;
  for (auto it = stats.histogram.rbegin(); it != stats.histogram.rend();
       ++it) {
    above += static_cast<double>(it->count);
    if (above >= want) {
      *out = it->upper;
      return true;
    }
  }
  *out = stats.min;
  return !out->is_null();
}

// Picks an equality literal whose frequency is within a factor of two of
// `target`.
bool PickEqualityLiteral(const ColumnStats& stats, double target,
                         Rng* rng, Value* out) {
  int64_t total = stats.row_count();
  if (total == 0) return false;
  std::vector<const Value*> feasible;
  for (const auto& [value, count] : stats.mcvs) {
    double sel = static_cast<double>(count) / static_cast<double>(total);
    if (sel >= target * 0.5 && sel <= target * 2.0) {
      feasible.push_back(&value);
    }
  }
  if (feasible.empty()) return false;
  *out = *feasible[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(feasible.size()) - 1))];
  return true;
}

}  // namespace

Result<XPathWorkload> GenerateWorkload(const SchemaTree& tree,
                                       const XmlStatistics& stats,
                                       const WorkloadSpec& spec) {
  // Gather contexts.
  std::vector<ContextInfo> contexts;
  const_cast<SchemaTree&>(tree).Visit([&](SchemaNode* node) {
    if (node->kind() != SchemaNodeKind::kTag || !node->is_annotated() ||
        IsLeafTag(node) || node->parent() == nullptr ||
        node->parent()->kind() != SchemaNodeKind::kRepetition) {
      return;
    }
    ContextInfo info;
    info.node = node;
    info.instances = stats.ElementCount(node->origin_id());
    CollectContextLeaves(node->child(0), false, false, &info);
    // Unique projection names.
    std::sort(info.projection_pool.begin(), info.projection_pool.end());
    info.projection_pool.erase(
        std::unique(info.projection_pool.begin(), info.projection_pool.end()),
        info.projection_pool.end());
    if (!info.projection_pool.empty() && info.instances > 0) {
      contexts.push_back(std::move(info));
    }
  });
  if (contexts.empty()) {
    return FailedPrecondition("schema has no queryable contexts");
  }

  Rng rng(spec.seed);
  std::vector<double> context_weights;
  for (const ContextInfo& info : contexts) {
    context_weights.push_back(static_cast<double>(info.instances));
  }

  XPathWorkload workload;
  int attempts = 0;
  while (static_cast<int>(workload.size()) < spec.num_queries &&
         attempts < spec.num_queries * 50) {
    ++attempts;
    const ContextInfo& ctx = contexts[rng.WeightedIndex(context_weights)];
    XPathQuery query;
    query.context = ctx.node->name();

    // Selection.
    double target =
        spec.selectivity == SelectivityClass::kLow
            ? 0.01 + rng.UniformDouble() * 0.09
            : 0.5 + rng.UniformDouble() * 0.5;
    bool no_selection = spec.selectivity == SelectivityClass::kHigh &&
                        rng.Bernoulli(0.3);
    if (!no_selection) {
      if (ctx.selection_pool.empty()) continue;
      // Try a few leaves for a literal that hits the target.
      bool found = false;
      for (int tries = 0; tries < 12 && !found; ++tries) {
        const auto& leaf = ctx.selection_pool[static_cast<size_t>(rng.Uniform(
            0, static_cast<int64_t>(ctx.selection_pool.size()) - 1))];
        // High-selectivity targets are unreachable through sparse
        // optional columns.
        if (leaf.optional && target > 0.45) continue;
        const ColumnStats* vstats =
            stats.ValueStats(leaf.leaf->origin_id());
        if (vstats == nullptr) continue;
        double presence =
            ctx.instances > 0
                ? static_cast<double>(vstats->non_null_count +
                                      vstats->null_count) /
                      static_cast<double>(ctx.instances)
                : 0;
        if (presence <= 0) continue;
        // Range literals index into the non-null histogram, so the target
        // is rescaled by presence; equality frequencies are already
        // fractions of all rows.
        double value_target = std::min(1.0, target / presence);
        bool numeric = !vstats->histogram.empty();
        Value literal;
        if (numeric && PickRangeLiteral(*vstats, value_target, &literal)) {
          query.has_selection = true;
          query.selection_path = leaf.leaf->name();
          query.selection_op = ">=";
          query.selection_literal = literal;
          found = true;
        } else if (PickEqualityLiteral(*vstats, target, &rng, &literal)) {
          query.has_selection = true;
          query.selection_path = leaf.leaf->name();
          query.selection_op = '=';
          query.selection_literal = literal;
          found = true;
        }
      }
      if (!found) continue;
    }

    // Projections.
    int available = static_cast<int>(ctx.projection_pool.size());
    int want = spec.projections == ProjectionClass::kLow
                   ? static_cast<int>(rng.Uniform(1, 4))
                   : static_cast<int>(rng.Uniform(5, 20));
    want = std::min(want, available);
    std::vector<std::string> pool = ctx.projection_pool;
    for (int i = 0; i < want; ++i) {
      size_t pick = static_cast<size_t>(
          rng.Uniform(i, static_cast<int64_t>(pool.size()) - 1));
      std::swap(pool[static_cast<size_t>(i)], pool[pick]);
    }
    pool.resize(static_cast<size_t>(want));
    query.projections = std::move(pool);
    query.weight = 1.0;
    workload.push_back(std::move(query));
  }
  if (static_cast<int>(workload.size()) < spec.num_queries) {
    return Internal("could not generate enough workload queries");
  }
  return workload;
}

}  // namespace xmlshred
