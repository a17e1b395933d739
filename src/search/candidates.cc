#include "search/candidates.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/logging.h"
#include "search/greedy.h"

namespace xmlshred {

int SelectRepetitionSplitCount(const std::map<int64_t, int64_t>& hist,
                               int cmax, double x_fraction) {
  int64_t total = 0;
  int64_t max_card = 0;
  int64_t below_cmax = 0;
  for (const auto& [card, parents] : hist) {
    total += parents;
    max_card = std::max(max_card, card);
    if (card < cmax) below_cmax += parents;
  }
  if (total == 0 || max_card == 0) return 0;
  double frac_below = static_cast<double>(below_cmax) /
                      static_cast<double>(total);
  // §4.5 rule 3: split only when the cardinality distribution is skewed
  // to the low region.
  if (!(max_card < cmax || frac_below > x_fraction)) return 0;
  // §4.6: the smallest k such that most (95 %) parents have cardinality
  // <= k, capped at cmax.
  constexpr double kCoverage = 0.95;
  int64_t cum = 0;
  for (const auto& [card, parents] : hist) {
    cum += parents;
    if (card >= 1 &&
        static_cast<double>(cum) / static_cast<double>(total) >= kCoverage) {
      return static_cast<int>(std::min<int64_t>(card, cmax));
    }
  }
  return static_cast<int>(std::min(max_card, static_cast<int64_t>(cmax)));
}

namespace {

// Element names within a subtree, not descending into tags.
void ElementNames(const SchemaNode* node, std::set<std::string>* out) {
  if (node->kind() == SchemaNodeKind::kTag) {
    out->insert(node->name());
    return;
  }
  for (const auto& child : node->children()) {
    ElementNames(child.get(), out);
  }
}

// Inline constructs under a context anchor: options, plain choices, and
// repetitions, not descending into annotated tags (their constructs
// belong to other relations) except that repetitions themselves are
// collected (their annotated child is this context's set-valued element).
struct InlineConstructs {
  std::vector<SchemaNode*> options;
  std::vector<SchemaNode*> choices;
  std::vector<SchemaNode*> repetitions;
};

void CollectConstructs(SchemaNode* node, InlineConstructs* out) {
  switch (node->kind()) {
    case SchemaNodeKind::kTag:
      if (node->is_annotated()) return;
      break;
    case SchemaNodeKind::kOption:
      if (node->num_children() == 1 &&
          node->child(0)->rep_split_index() == 0) {
        out->options.push_back(node);
      }
      break;
    case SchemaNodeKind::kChoice:
      if (!node->is_variant_choice()) out->choices.push_back(node);
      break;
    case SchemaNodeKind::kRepetition:
      out->repetitions.push_back(node);
      return;  // the repeated element belongs to its own relation
    default:
      break;
  }
  for (const auto& child : node->children()) {
    CollectConstructs(child.get(), out);
  }
}

std::string TransformKey(const Transform& t) {
  std::string key = std::string(TransformKindToString(t.kind)) + "|" +
                    std::to_string(t.target) + "|" + t.annotation + "|";
  for (int id : t.option_targets) key += std::to_string(id) + ",";
  key += '|';
  key += std::to_string(t.target2);
  return key;
}

class Selector {
 public:
  Selector(const DesignProblem& problem, SchemaTree* tree, int cmax,
           double x_fraction)
      : problem_(problem), tree_(tree), cmax_(cmax), x_fraction_(x_fraction) {}

  CandidateSet SelectWithWorkload() {
    CandidateSet out;
    for (const XPathQuery& query : problem_.workload) {
      std::set<std::string> referenced(query.projections.begin(),
                                       query.projections.end());
      for (const std::string& path : query.SelectionPaths()) {
        referenced.insert(path);
      }
      for (SchemaNode* anchor : tree_->FindTagsByName(query.context)) {
        if (!anchor->is_annotated() || anchor->num_children() != 1) continue;
        SelectForAnchor(anchor, referenced, &out);
      }
    }
    AddTypeMerges(&out);
    return Dedup(std::move(out));
  }

  CandidateSet SelectAll() {
    CandidateSet out;
    tree_->Visit([this, &out](SchemaNode* node) {
      if (node->kind() != SchemaNodeKind::kTag || !node->is_annotated() ||
          node->num_children() != 1) {
        return;
      }
      InlineConstructs constructs;
      CollectConstructs(node->child(0), &constructs);
      for (SchemaNode* choice : constructs.choices) {
        Transform t;
        t.kind = TransformKind::kUnionDistribute;
        t.target = choice->id();
        out.splits.push_back(std::move(t));
      }
      for (SchemaNode* option : constructs.options) {
        Transform t;
        t.kind = TransformKind::kUnionDistribute;
        t.target = option->id();
        t.option_targets = {option->id()};
        out.splits.push_back(std::move(t));
      }
      for (SchemaNode* rep : constructs.repetitions) {
        AddRepetitionSplit(rep, &out);
      }
    });
    AddTypeMerges(&out);
    AddTypeSplits(&out);
    return Dedup(std::move(out));
  }

 private:
  void SelectForAnchor(SchemaNode* anchor,
                       const std::set<std::string>& referenced,
                       CandidateSet* out) {
    InlineConstructs constructs;
    CollectConstructs(anchor->child(0), &constructs);

    // §4.5 rule 2 (explicit choices): distribute when the query touches
    // at most half of the would-be partitions.
    for (SchemaNode* choice : constructs.choices) {
      int touched = 0;
      for (const auto& alternative : choice->children()) {
        std::set<std::string> names;
        ElementNames(alternative.get(), &names);
        for (const std::string& name : names) {
          if (referenced.count(name) > 0) {
            ++touched;
            break;
          }
        }
      }
      if (touched > 0 &&
          touched * 2 <= static_cast<int>(choice->num_children())) {
        Transform t;
        t.kind = TransformKind::kUnionDistribute;
        t.target = choice->id();
        out->splits.push_back(std::move(t));
      }
    }

    // §4.5 rule 2 (implicit unions): an optional element the query
    // references confines it to the "present" partition.
    for (SchemaNode* option : constructs.options) {
      std::set<std::string> names;
      ElementNames(option, &names);
      bool touched = false;
      for (const std::string& name : names) {
        if (referenced.count(name) > 0) touched = true;
      }
      if (touched) {
        Transform t;
        t.kind = TransformKind::kUnionDistribute;
        t.target = option->id();
        t.option_targets = {option->id()};
        out->splits.push_back(std::move(t));
      }
    }

    // §4.5 rule 3 (repetition split).
    for (SchemaNode* rep : constructs.repetitions) {
      SchemaNode* repeated = rep->child(0);
      if (repeated->kind() != SchemaNodeKind::kTag ||
          referenced.count(repeated->name()) == 0) {
        continue;
      }
      AddRepetitionSplit(rep, out);
    }

    // Type split: the anchor shares a relation with anchors the query
    // does not touch.
    if (anchor->is_annotated()) {
      int sharers = 0;
      tree_->Visit([&anchor, &sharers](SchemaNode* node) {
        if (node->kind() == SchemaNodeKind::kTag &&
            node->annotation() == anchor->annotation()) {
          ++sharers;
        }
      });
      if (sharers >= 2) {
        Transform t;
        t.kind = TransformKind::kTypeSplit;
        t.annotation = anchor->annotation();
        out->splits.push_back(std::move(t));
      }
    }
  }

  void AddRepetitionSplit(SchemaNode* rep, CandidateSet* out) {
    if (rep->rep_overflow_from() > 0) return;
    if (!IsLeafTag(rep->child(0))) return;
    const std::map<int64_t, int64_t>* hist =
        problem_.stats->CardinalityHist(rep->origin_id());
    if (hist == nullptr) return;
    int k = SelectRepetitionSplitCount(*hist, cmax_, x_fraction_);
    if (k <= 0) return;
    Transform t;
    t.kind = TransformKind::kRepetitionSplit;
    t.target = rep->id();
    t.split_count = k;
    out->splits.push_back(std::move(t));
  }

  void AddTypeMerges(CandidateSet* out) {
    std::map<std::string, std::vector<SchemaNode*>> by_type;
    tree_->Visit([&by_type](SchemaNode* node) {
      if (node->kind() == SchemaNodeKind::kTag && !node->type_name().empty()) {
        by_type[node->type_name()].push_back(node);
      }
    });
    for (const auto& [type_name, tags] : by_type) {
      for (size_t i = 0; i < tags.size(); ++i) {
        for (size_t j = i + 1; j < tags.size(); ++j) {
          if (tags[i]->annotation() == tags[j]->annotation() &&
              tags[i]->is_annotated()) {
            continue;
          }
          Transform t;
          t.kind = TransformKind::kTypeMerge;
          t.target = tags[i]->id();
          t.target2 = tags[j]->id();
          out->merges.push_back(std::move(t));
        }
      }
    }
  }

  void AddTypeSplits(CandidateSet* out) {
    std::map<std::string, int> annotation_counts;
    tree_->Visit([&annotation_counts](SchemaNode* node) {
      if (node->kind() == SchemaNodeKind::kTag && node->is_annotated()) {
        ++annotation_counts[node->annotation()];
      }
    });
    for (const auto& [annotation, count] : annotation_counts) {
      if (count >= 2) {
        Transform t;
        t.kind = TransformKind::kTypeSplit;
        t.annotation = annotation;
        out->splits.push_back(std::move(t));
      }
    }
  }

  CandidateSet Dedup(CandidateSet in) {
    CandidateSet out;
    std::set<std::string> seen;
    for (Transform& t : in.splits) {
      std::string key = TransformKey(t);
      if (seen.insert(key).second) out.splits.push_back(std::move(t));
    }
    for (Transform& t : in.merges) {
      std::string key = TransformKey(t);
      if (seen.insert(key).second) out.merges.push_back(std::move(t));
    }
    return out;
  }

  const DesignProblem& problem_;
  SchemaTree* tree_;
  int cmax_;
  double x_fraction_;
};

}  // namespace

CandidateSet SelectCandidates(const DesignProblem& problem, SchemaTree* tree,
                              int cmax, double x_fraction,
                              bool use_workload_rules) {
  Selector selector(problem, tree, cmax, x_fraction);
  return use_workload_rules ? selector.SelectWithWorkload()
                            : selector.SelectAll();
}

double ImplicitUnionBenefit(const DesignProblem& problem,
                            const SchemaTree& tree, int context_node_id,
                            const std::vector<std::string>& option_names,
                            const XPathQuery& query, double query_cost) {
  const SchemaNode* context = tree.FindNode(context_node_id);
  if (context == nullptr || context->name() != query.context) return 0;

  std::set<std::string> set_names(option_names.begin(), option_names.end());
  // The query stays within the "present" partition when its selection
  // path is one of the distributed optionals, or when every optional it
  // references belongs to the distributed set.
  bool confined = false;
  for (const std::string& path : query.SelectionPaths()) {
    if (set_names.count(path) > 0) confined = true;
  }
  if (!confined) {
    // Determine which referenced names are optional under this context.
    InlineConstructs constructs;
    CollectConstructs(const_cast<SchemaNode*>(context)->child(0),
                      &constructs);
    std::set<std::string> optional_names;
    for (SchemaNode* option : constructs.options) {
      ElementNames(option, &optional_names);
    }
    for (SchemaNode* choice : constructs.choices) {
      ElementNames(choice, &optional_names);
    }
    std::set<std::string> referenced(query.projections.begin(),
                                     query.projections.end());
    for (const std::string& path : query.SelectionPaths()) {
      referenced.insert(path);
    }
    std::set<std::string> optional_referenced;
    for (const std::string& name : referenced) {
      if (optional_names.count(name) > 0) optional_referenced.insert(name);
    }
    if (!optional_referenced.empty()) {
      confined = std::includes(set_names.begin(), set_names.end(),
                               optional_referenced.begin(),
                               optional_referenced.end());
    }
  }
  if (!confined) return 0;

  int64_t total = problem.stats->ElementCount(context->origin_id());
  if (total == 0) return 0;
  int64_t present = problem.stats->CountMatchingPresence(
      context->origin_id(), option_names, {});
  // s(c, Q) = ((|R| - |R_present|) / |R|) * cost(Q), with relation sizes
  // proxied by row counts (§4.7's page-based model with uniform widths).
  double saved = static_cast<double>(total - present) /
                 static_cast<double>(total);
  return saved * query_cost;
}

void GreedyMergeCandidates(const DesignProblem& problem,
                           const SchemaTree& tree,
                           const std::vector<double>& base_costs,
                           CandidateSet* candidates) {
  XS_CHECK_EQ(base_costs.size(), problem.workload.size());
  // Implicit-union candidates with their context ids.
  struct Entry {
    size_t split_index;
    int context_id;
    std::vector<int> option_ids;
    std::vector<std::string> names;
  };
  auto names_of = [&tree](const std::vector<int>& option_ids) {
    std::set<std::string> names;
    for (int id : option_ids) {
      const SchemaNode* option = tree.FindNode(id);
      if (option != nullptr) ElementNames(option, &names);
    }
    return std::vector<std::string>(names.begin(), names.end());
  };
  auto benefit_of = [&](int context_id, const std::vector<std::string>& names) {
    double total = 0;
    for (size_t i = 0; i < problem.workload.size(); ++i) {
      total += problem.workload[i].weight *
               ImplicitUnionBenefit(problem, tree, context_id, names,
                                    problem.workload[i], base_costs[i]);
    }
    return total;
  };

  std::vector<Entry> entries;
  for (size_t i = 0; i < candidates->splits.size(); ++i) {
    const Transform& t = candidates->splits[i];
    if (t.kind != TransformKind::kUnionDistribute || t.option_targets.empty()) {
      continue;
    }
    const SchemaNode* option = tree.FindNode(t.option_targets[0]);
    if (option == nullptr) continue;
    const SchemaNode* context = option->NearestAnnotatedAncestor();
    if (context == nullptr) continue;
    Entry e;
    e.split_index = i;
    e.context_id = context->id();
    e.option_ids = t.option_targets;
    e.names = names_of(t.option_targets);
    entries.push_back(std::move(e));
  }

  // Greedy pair merging: merge the pair with the greatest merged benefit
  // as long as merging beats both components.
  bool merged_any = true;
  while (merged_any) {
    merged_any = false;
    int best_a = -1, best_b = -1;
    double best_benefit = 0;
    std::vector<int> best_ids;
    for (size_t a = 0; a < entries.size(); ++a) {
      for (size_t b = a + 1; b < entries.size(); ++b) {
        if (entries[a].context_id != entries[b].context_id) continue;
        std::set<int> ids(entries[a].option_ids.begin(),
                          entries[a].option_ids.end());
        size_t before = ids.size();
        ids.insert(entries[b].option_ids.begin(),
                   entries[b].option_ids.end());
        // Mergeable only when neither set contains the other.
        if (ids.size() == before || ids.size() == entries[b].option_ids.size()) {
          continue;
        }
        std::vector<int> merged_ids(ids.begin(), ids.end());
        double merged_benefit =
            benefit_of(entries[a].context_id, names_of(merged_ids));
        double ba = benefit_of(entries[a].context_id, entries[a].names);
        double bb = benefit_of(entries[b].context_id, entries[b].names);
        // Only a pair of singletons can conflict (one context admits one
        // distribution), so the merged candidate competes against the
        // better component; require a real margin, not a tie, or the
        // model's noise produces merges that trade a strong singleton for
        // a weak union.
        if (merged_benefit > std::max(ba, bb) * 1.02 + 1e-9 &&
            merged_benefit > best_benefit) {
          best_a = static_cast<int>(a);
          best_b = static_cast<int>(b);
          best_benefit = merged_benefit;
          best_ids = std::move(merged_ids);
        }
      }
    }
    if (best_a >= 0) {
      // Replace the pair with the merged candidate.
      Entry merged;
      merged.split_index = entries[static_cast<size_t>(best_a)].split_index;
      merged.context_id = entries[static_cast<size_t>(best_a)].context_id;
      merged.option_ids = best_ids;
      merged.names = names_of(best_ids);
      size_t drop_index = entries[static_cast<size_t>(best_b)].split_index;
      candidates->splits[merged.split_index].option_targets =
          merged.option_ids;
      candidates->splits[merged.split_index].target = merged.option_ids[0];
      // Mark the absorbed candidate for removal.
      candidates->splits[drop_index].kind = TransformKind::kUnionFactorize;
      candidates->splits[drop_index].target = -1;
      entries.erase(entries.begin() + best_b);
      entries[static_cast<size_t>(best_a)] = std::move(merged);
      merged_any = true;
    }
  }
  // Drop absorbed candidates.
  candidates->splits.erase(
      std::remove_if(candidates->splits.begin(), candidates->splits.end(),
                     [](const Transform& t) {
                       return t.kind == TransformKind::kUnionFactorize &&
                              t.target < 0;
                     }),
      candidates->splits.end());

  // Apply higher-benefit implicit unions first so that when two
  // candidates still target the same context, the better one wins the
  // conflict during M0 construction.
  std::stable_sort(
      candidates->splits.begin(), candidates->splits.end(),
      [&](const Transform& x, const Transform& y) {
        auto rank = [&](const Transform& t) -> double {
          if (t.kind != TransformKind::kUnionDistribute ||
              t.option_targets.empty()) {
            return 1e18;  // explicit splits keep their position up front
          }
          const SchemaNode* option = tree.FindNode(t.option_targets[0]);
          if (option == nullptr) return -1;
          const SchemaNode* context = option->NearestAnnotatedAncestor();
          if (context == nullptr) return -1;
          return benefit_of(context->id(), names_of(t.option_targets));
        };
        return rank(x) > rank(y);
      });
}

}  // namespace xmlshred
