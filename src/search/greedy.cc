#include "search/greedy.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <set>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "mapping/transforms.h"
#include "opt/planner.h"
#include "search/candidates.h"
#include "xpath/translator.h"

namespace xmlshred {

namespace {

// Per-query optimizer-estimated costs under a bare mapping (no physical
// structures) — input to the §4.7 heuristic benefit model.
Result<std::vector<double>> BaseQueryCosts(const DesignProblem& problem,
                                           const SchemaTree& tree) {
  XS_ASSIGN_OR_RETURN(Mapping mapping, Mapping::Build(tree));
  CatalogDesc catalog = problem.stats->DeriveCatalog(tree, mapping);
  XS_ASSIGN_OR_RETURN(std::vector<WeightedQuery> workload,
                      TranslateWorkload(problem.workload, tree, mapping));
  std::vector<double> costs;
  for (const WeightedQuery& wq : workload) {
    // Mandatory costing: the merge heuristic needs every base cost, so the
    // charge is recorded but exhaustion does not abort it.
    if (problem.exec.governor != nullptr) {
      (void)problem.exec.governor->ChargeWork(1.0);
    }
    XS_ASSIGN_OR_RETURN(BoundQuery bound, BindQuery(wq.query, catalog));
    XS_ASSIGN_OR_RETURN(PlannedQuery planned, PlanQuery(bound, catalog));
    costs.push_back(planned.est_cost);
  }
  return costs;
}

// Relation names whose schema differs between two mappings (added,
// removed, or redefined).
std::set<std::string> ChangedRelations(const Mapping& a, const Mapping& b) {
  std::map<std::string, std::string> schema_a, schema_b;
  for (const MappedRelation& rel : a.relations()) {
    schema_a[rel.table_name] = rel.ToTableSchema().ToString();
  }
  for (const MappedRelation& rel : b.relations()) {
    schema_b[rel.table_name] = rel.ToTableSchema().ToString();
  }
  std::set<std::string> changed;
  for (const auto& [name, schema] : schema_a) {
    auto it = schema_b.find(name);
    if (it == schema_b.end() || it->second != schema) changed.insert(name);
  }
  for (const auto& [name, schema] : schema_b) {
    if (schema_a.count(name) == 0) changed.insert(name);
  }
  return changed;
}

// Tables referenced by a translated SQL query.
std::set<std::string> QueryTables(const Query& query) {
  std::set<std::string> tables;
  for (const SelectBlock& block : query.blocks) {
    for (const TableRef& ref : block.tables) tables.insert(ref.table);
  }
  return tables;
}

// Search state for the current mapping M0'.
struct CurrentState {
  std::unique_ptr<SchemaTree> tree;
  Mapping mapping;
  TunerResult config;
  double cost = 0;
  std::vector<WeightedQuery> translations;
  std::vector<std::set<std::string>> query_tables;
};

// Full (no-derivation) costing of `tree`, populating a CurrentState.
Result<CurrentState> FullCost(const DesignProblem& problem,
                              std::unique_ptr<SchemaTree> tree,
                              SearchTelemetry* telemetry) {
  CurrentState state;
  XS_ASSIGN_OR_RETURN(state.mapping, Mapping::Build(*tree));
  CatalogDesc catalog = problem.stats->DeriveCatalog(*tree, state.mapping);
  XS_ASSIGN_OR_RETURN(
      state.translations,
      TranslateWorkload(problem.workload, *tree, state.mapping));
  for (const WeightedQuery& wq : state.translations) {
    state.query_tables.push_back(QueryTables(wq.query));
  }
  PhysicalDesignAdvisor advisor(EffectiveTunerOptions(problem));
  XS_ASSIGN_OR_RETURN(
      state.config,
      advisor.Tune(state.translations, catalog, 0,
                   ComputeUpdateRates(problem, *tree, state.mapping)));
  state.cost = state.config.total_cost;
  state.tree = std::move(tree);
  if (telemetry != nullptr) CountTunerCall(state.config, telemetry);
  return state;
}

// Whether the problem's budget or deadline has run out — the signal for
// every search loop to stop and return its best-so-far state.
bool OutOfBudget(const DesignProblem& problem) {
  ResourceGovernor* governor = problem.exec.governor;
  return governor != nullptr &&
         (governor->exhausted() || !governor->CheckDeadline().ok());
}

// Fig. 3 line 18: re-estimates the chosen mapping without derivation and
// makes it the current state. A failure (budget, injected fault) keeps the
// previous fully costed state rather than losing the search's progress;
// returns false when the search must stop.
bool Advance(const DesignProblem& problem, std::unique_ptr<SchemaTree> tree,
             CurrentState* current, SearchResult* result) {
  Result<CurrentState> next =
      FullCost(problem, std::move(tree), &result->telemetry);
  if (!next.ok()) {
    if (next.status().code() == StatusCode::kResourceExhausted) {
      result->truncated = true;
    } else {
      ++result->telemetry.candidates_skipped;
    }
    return false;
  }
  *current = std::move(*next);
  return true;
}

// Moves the final state into `result`, records the end-of-search budget
// and timing telemetry, and publishes the run (FinalizeSearchResult).
void FinishSearch(const DesignProblem& problem, CurrentState state,
                  std::chrono::steady_clock::time_point start,
                  SearchResult* result) {
  result->tree = std::move(state.tree);
  result->mapping = std::move(state.mapping);
  result->configuration = std::move(state.config);
  result->estimated_cost = state.cost;
  if (problem.exec.governor != nullptr) {
    result->telemetry.work_spent = problem.exec.governor->work_spent();
  }
  if (result->configuration.truncated) result->truncated = true;
  result->telemetry.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  FinalizeSearchResult(problem, result);
}

// The element name a repetition split/merge candidate concerns, resolved
// in `tree`; empty when not a repetition transformation.
std::string RepetitionElementName(const SchemaTree& tree,
                                  const Transform& candidate) {
  if (candidate.kind != TransformKind::kRepetitionSplit &&
      candidate.kind != TransformKind::kRepetitionMerge) {
    return "";
  }
  const SchemaNode* rep = tree.FindNode(candidate.target);
  if (rep == nullptr || rep->num_children() != 1) return "";
  return rep->child(0)->name();
}

// Estimated cost of the candidate mapping, using cost derivation (§4.8)
// against `current` when enabled. Safe to call from concurrent workers:
// every mutable object (mapping, catalog, advisor, translations) is local
// to the call — each worker costs against its own what-if catalog clone —
// and the shared pieces (`problem`, `current`) are only read.
Result<double> CostCandidate(const DesignProblem& problem,
                             const SchemaTree& cand_tree,
                             const CurrentState& current,
                             const Transform& candidate, bool cost_derivation,
                             SearchTelemetry* telemetry) {
  XS_ASSIGN_OR_RETURN(Mapping mapping, Mapping::Build(cand_tree));
  CatalogDesc catalog = problem.stats->DeriveCatalog(cand_tree, mapping);
  XS_ASSIGN_OR_RETURN(
      std::vector<WeightedQuery> translations,
      TranslateWorkload(problem.workload, cand_tree, mapping));

  PhysicalDesignAdvisor advisor(EffectiveTunerOptions(problem));

  std::vector<UpdateRate> rates =
      ComputeUpdateRates(problem, cand_tree, mapping);
  if (!cost_derivation) {
    XS_ASSIGN_OR_RETURN(TunerResult config,
                        advisor.Tune(translations, catalog, 0, rates));
    CountTunerCall(config, telemetry);
    return config.total_cost;
  }

  std::set<std::string> changed =
      ChangedRelations(current.mapping, mapping);
  std::string rep_element =
      RepetitionElementName(*current.tree, candidate);

  auto object_pages = [&current](const std::string& name) -> int64_t {
    for (const IndexDesc& idx : current.config.indexes) {
      if (idx.def.name == name) return idx.NumPages();
    }
    for (const ViewDesc& view : current.config.views) {
      if (view.def.name == name) return view.NumPages();
    }
    return 0;  // base tables are data, not structures
  };
  double derived_cost = 0;
  int64_t reserved = 0;
  std::vector<WeightedQuery> remaining;
  int derived_count = 0;
  for (size_t i = 0; i < translations.size(); ++i) {
    const std::set<std::string>& new_tables =
        QueryTables(translations[i].query);
    const std::set<std::string>& old_tables = current.query_tables[i];
    bool untouched = true;
    for (const std::string& t : new_tables) {
      if (changed.count(t) > 0) untouched = false;
    }
    for (const std::string& t : old_tables) {
      if (changed.count(t) > 0) untouched = false;
    }
    if (!untouched && !rep_element.empty()) {
      // Repetition-split rule: a query that never references the repeated
      // element and whose plan avoided the changed base tables (covering
      // index / view access) keeps its plan and cost.
      const XPathQuery& xq = problem.workload[i];
      bool references = false;
      for (const std::string& path : xq.SelectionPaths()) {
        if (path == rep_element) references = true;
      }
      for (const std::string& p : xq.projections) {
        if (p == rep_element) references = true;
      }
      if (!references) {
        bool plan_avoids_changed_tables = true;
        for (const std::string& obj : current.config.query_objects[i]) {
          if (changed.count(obj) > 0) plan_avoids_changed_tables = false;
        }
        if (plan_avoids_changed_tables) untouched = true;
      }
    }
    if (untouched) {
      for (const std::string& obj : current.config.query_objects[i]) {
        reserved += object_pages(obj);
      }
      derived_cost +=
          translations[i].weight * current.config.query_costs[i];
      ++derived_count;
    } else {
      remaining.push_back(translations[i]);
    }
  }
  telemetry->queries_derived += derived_count;

  if (remaining.empty()) return derived_cost;
  XS_ASSIGN_OR_RETURN(TunerResult config,
                      advisor.Tune(remaining, catalog, reserved, rates));
  CountTunerCall(config, telemetry);
  return derived_cost + config.total_cost;
}

// Costs one candidate of a search round. `tree` is the worker's own clone
// of the current tree with the candidate already applied; the step may
// rewrite it further (into the normal form the algorithm searches), adds
// the tuner and optimizer calls it makes to `delta`, annotates `span` on
// success, and returns the candidate's estimated cost.
using CostStep =
    std::function<Result<double>(const Transform& candidate, SchemaTree* tree,
                                 SearchTelemetry* delta, SpanScope* span)>;

struct RoundOutcome {
  // Position in the round's candidate list of the winner — the first
  // candidate strictly cheaper than both the current state and every
  // earlier candidate (1e-9 relative) — or -1 when none improves.
  int best = -1;
  double best_cost = 0;
  std::unique_ptr<SchemaTree> best_tree;
  // A candidate ran out of budget: the round's best is discarded and the
  // search keeps its previous fully costed state.
  bool out_of_budget = false;
};

// One round of every search algorithm (Fig. 3 lines 7-16; the §5.1.1
// baselines run the same round over their own candidates and cost step).
// Each candidate is applied to its own clone of `current_tree` and costed
// into its own slot through ParallelFor (inline at one thread); workers
// skip candidates not yet started once the budget trips. The slots are
// then reduced in enumeration order, so the winner and every tie-break are
// the same at any thread count (DESIGN.md §8). Every candidate records its
// spans into its own detached sink, adopted in enumeration order under the
// round span (DESIGN.md §9). Every candidate that ran is counted and
// traced, also those after one that tripped the budget; at one thread none
// runs after a trip. Budget errors end the search; other errors (injected
// faults, mappings the workload cannot use) only drop their candidate.
RoundOutcome RunSearchRound(const DesignProblem& problem, int num_threads,
                            int round, const SchemaTree& current_tree,
                            double current_cost,
                            const std::vector<Transform>& candidates,
                            const CostStep& cost_step,
                            SearchTelemetry* telemetry) {
  TraceSink* trace = problem.exec.trace;
  SpanScope round_span(trace, "search.round");
  round_span.Attr("round", round);
  round_span.Attr("candidates", static_cast<int64_t>(candidates.size()));
  if (problem.exec.metrics != nullptr) {
    problem.exec.metrics->histogram(kMetricSearchRoundCandidates)
        ->Observe(static_cast<double>(candidates.size()));
  }

  struct Slot {
    bool costed = false;  // applied and costed (cost or error recorded)
    double cost = 0;
    Status error;  // non-OK when costing failed
    std::unique_ptr<SchemaTree> tree;
    SearchTelemetry delta;  // this candidate's telemetry contribution
    std::unique_ptr<TraceSink> sink;  // null when the run is untraced
  };
  std::vector<Slot> slots(candidates.size());
  if (trace != nullptr) {
    for (Slot& slot : slots) {
      slot.sink = std::make_unique<TraceSink>(trace->capture_timing());
    }
  }
  std::atomic<bool> budget_tripped{false};
  ParallelFor(
      num_threads, static_cast<int>(slots.size()),
      [&](int i) {
        Slot& slot = slots[static_cast<size_t>(i)];
        SpanScope span(slot.sink.get(), "search.cost_candidate");
        span.Attr("index", i);
        const Transform& candidate = candidates[static_cast<size_t>(i)];
        std::unique_ptr<SchemaTree> tree = current_tree.Clone();
        if (!ApplyTransform(tree.get(), candidate).ok()) {
          span.Attr("applied", false);
          return;  // no longer applicable
        }
        Result<double> cost =
            cost_step(candidate, tree.get(), &slot.delta, &span);
        slot.costed = true;
        if (cost.ok()) {
          slot.cost = *cost;
          slot.tree = std::move(tree);
        } else {
          slot.error = cost.status();
          span.Attr("error", slot.error.message());
          if (slot.error.code() == StatusCode::kResourceExhausted) {
            budget_tripped.store(true, std::memory_order_release);
          }
        }
      },
      [&budget_tripped, &problem] {
        return budget_tripped.load(std::memory_order_acquire) ||
               OutOfBudget(problem);
      });

  RoundOutcome outcome;
  outcome.best_cost = current_cost;
  for (size_t i = 0; i < slots.size(); ++i) {
    Slot& slot = slots[i];
    if (trace != nullptr) trace->Adopt(slot.sink.get());
    if (!slot.costed) continue;
    ++telemetry->transformations_searched;
    telemetry->tuner_calls += slot.delta.tuner_calls;
    telemetry->optimizer_calls += slot.delta.optimizer_calls;
    telemetry->queries_derived += slot.delta.queries_derived;
    telemetry->whatif_rollbacks += slot.delta.whatif_rollbacks;
    telemetry->advisor_candidates_skipped +=
        slot.delta.advisor_candidates_skipped;
    if (!slot.error.ok()) {
      if (slot.error.code() == StatusCode::kResourceExhausted) {
        outcome.out_of_budget = true;
      } else {
        ++telemetry->candidates_skipped;
      }
      continue;
    }
    if (slot.cost < outcome.best_cost * (1 - 1e-9)) {
      outcome.best = static_cast<int>(i);
      outcome.best_cost = slot.cost;
      outcome.best_tree = std::move(slot.tree);
    }
  }
  return outcome;
}

// Exhaustive candidate merging: per context, cost every subset of its
// implicit-union options with a full design-tool call and keep the best —
// the expensive strategy of Fig. 8.
Status ExhaustiveMergeCandidates(const DesignProblem& problem,
                                        const SchemaTree& base_tree,
                                        CandidateSet* candidates,
                                        SearchTelemetry* telemetry) {
  // Group implicit-union candidates by context.
  std::map<int, std::set<int>> options_by_context;
  for (const Transform& t : candidates->splits) {
    if (t.kind != TransformKind::kUnionDistribute || t.option_targets.empty()) {
      continue;
    }
    const SchemaNode* option = base_tree.FindNode(t.option_targets[0]);
    if (option == nullptr) continue;
    const SchemaNode* context = option->NearestAnnotatedAncestor();
    if (context == nullptr) continue;
    for (int id : t.option_targets) {
      options_by_context[context->id()].insert(id);
    }
  }
  for (const auto& [context_id, option_set] : options_by_context) {
    std::vector<int> options(option_set.begin(), option_set.end());
    if (options.size() < 2 || options.size() > 10) continue;
    // Heuristic benefit (names-based, §4.7 model with unit costs) breaks
    // ties between subsets the design tool prices identically.
    auto names_of = [&base_tree](const std::vector<int>& subset) {
      std::set<std::string> names;
      for (int id : subset) {
        const SchemaNode* option = base_tree.FindNode(id);
        if (option != nullptr) {
          std::vector<SchemaNode*> stack = {const_cast<SchemaNode*>(option)};
          while (!stack.empty()) {
            SchemaNode* n = stack.back();
            stack.pop_back();
            if (n->kind() == SchemaNodeKind::kTag) {
              names.insert(n->name());
              continue;
            }
            for (const auto& c : n->children()) stack.push_back(c.get());
          }
        }
      }
      return std::vector<std::string>(names.begin(), names.end());
    };
    auto heuristic_benefit = [&](const std::vector<int>& subset) {
      std::vector<std::string> names = names_of(subset);
      double total = 0;
      for (const XPathQuery& query : problem.workload) {
        total += query.weight *
                 ImplicitUnionBenefit(problem, base_tree, context_id, names,
                                      query, 1.0);
      }
      return total;
    };
    double best_cost = -1;
    double best_heuristic = -1;
    std::vector<int> best_subset;
    for (uint64_t mask = 1; mask < (1ULL << options.size()); ++mask) {
      std::vector<int> subset;
      for (size_t b = 0; b < options.size(); ++b) {
        if (mask & (1ULL << b)) subset.push_back(options[b]);
      }
      std::unique_ptr<SchemaTree> trial = base_tree.Clone();
      // Evaluate the subset in the composed setting: every other selected
      // split (repetition splits, explicit distributions) applied too.
      for (const Transform& other : candidates->splits) {
        if (other.kind == TransformKind::kUnionDistribute &&
            !other.option_targets.empty()) {
          continue;
        }
        (void)ApplyTransform(trial.get(), other);
      }
      Transform dist;
      dist.kind = TransformKind::kUnionDistribute;
      dist.target = subset[0];
      dist.option_targets = subset;
      if (!ApplyTransform(trial.get(), dist).ok()) continue;
      FullyInline(trial.get());
      ++telemetry->transformations_searched;
      auto costed = CostMapping(problem, *trial, telemetry);
      if (!costed.ok()) continue;
      double heuristic = heuristic_benefit(subset);
      bool better = best_cost < 0 || costed->cost < best_cost * 0.995 ||
                    (costed->cost <= best_cost * 1.005 &&
                     heuristic > best_heuristic);
      if (better) {
        best_cost = costed->cost;
        best_heuristic = heuristic;
        best_subset = subset;
      }
    }
    if (best_subset.empty()) continue;
    // Replace this context's implicit-union candidates with the winner.
    bool replaced = false;
    for (auto it = candidates->splits.begin();
         it != candidates->splits.end();) {
      if (it->kind == TransformKind::kUnionDistribute &&
          !it->option_targets.empty() &&
          option_set.count(it->option_targets[0]) > 0) {
        if (!replaced) {
          it->option_targets = best_subset;
          it->target = best_subset[0];
          replaced = true;
          ++it;
        } else {
          it = candidates->splits.erase(it);
        }
      } else {
        ++it;
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<SearchResult> GreedySearch(const DesignProblem& problem,
                                  const GreedyOptions& options) {
  auto start = std::chrono::steady_clock::now();
  SearchResult result;
  result.algorithm = "greedy";
  SearchTelemetry& telemetry = result.telemetry;
  SpanScope search_span(problem.exec.trace, "search.greedy");

  // Working tree (original node ids preserved through clones).
  std::unique_ptr<SchemaTree> work_tree = problem.tree->Clone();

  // --- Candidate selection (§4.5) ---
  CandidateSet candidates =
      SelectCandidates(problem, work_tree.get(), options.cmax,
                       options.x_fraction, options.candidate_selection);
  telemetry.candidates_selected = static_cast<int>(
      candidates.splits.size() + candidates.merges.size());

  // --- Candidate merging (§4.7) ---
  if (options.merging == MergeStrategy::kGreedy) {
    std::unique_ptr<SchemaTree> base_tree = problem.tree->Clone();
    if (options.prune_subsumed) FullyInline(base_tree.get());
    XS_ASSIGN_OR_RETURN(std::vector<double> base_costs,
                        BaseQueryCosts(problem, *base_tree));
    telemetry.optimizer_calls +=
        static_cast<int>(problem.workload.size());
    GreedyMergeCandidates(problem, *work_tree, base_costs, &candidates);
  } else if (options.merging == MergeStrategy::kExhaustive) {
    std::unique_ptr<SchemaTree> base_tree = problem.tree->Clone();
    if (options.prune_subsumed) FullyInline(base_tree.get());
    XS_RETURN_IF_ERROR(ExhaustiveMergeCandidates(problem, *base_tree,
                                                 &candidates, &telemetry));
  }
  telemetry.candidates_after_merging = static_cast<int>(
      candidates.splits.size() + candidates.merges.size());

  // --- Build the initial fully split mapping M0 (Fig. 3 line 2) and the
  // merge counterparts of the applied splits. ---
  std::vector<Transform> loop_candidates = candidates.merges;
  for (const Transform& split : candidates.splits) {
    Result<int> anchor = ApplyTransform(work_tree.get(), split);
    if (!anchor.ok()) continue;  // conflicting split on the same context
    Transform counterpart;
    switch (split.kind) {
      case TransformKind::kUnionDistribute:
        counterpart.kind = TransformKind::kUnionFactorize;
        counterpart.target = *anchor;
        loop_candidates.push_back(counterpart);
        break;
      case TransformKind::kRepetitionSplit:
        counterpart.kind = TransformKind::kRepetitionMerge;
        counterpart.target = *anchor;
        loop_candidates.push_back(counterpart);
        break;
      default:
        break;  // type splits are undone by the type-merge candidates
    }
  }
  if (options.prune_subsumed) FullyInline(work_tree.get());

  // --- Initial configuration (Fig. 3 lines 4-5). ---
  XS_ASSIGN_OR_RETURN(CurrentState current,
                      FullCost(problem, std::move(work_tree), &telemetry));

  // --- Greedy loop (Fig. 3 lines 6-19). Anytime: the loop stops the
  // moment the budget runs out, keeping the best fully costed state. ---
  std::vector<bool> consumed(loop_candidates.size(), false);
  const int num_threads = ResolveNumThreads(options.num_threads);
  CostStep cost_step = [&](const Transform& candidate, SchemaTree* tree,
                           SearchTelemetry* delta,
                           SpanScope* span) -> Result<double> {
    if (options.prune_subsumed) FullyInline(tree);
    XS_ASSIGN_OR_RETURN(double cost,
                        CostCandidate(problem, *tree, current, candidate,
                                      options.cost_derivation, delta));
    span->Attr("cost", cost);
    span->Attr("queries_derived", delta->queries_derived);
    return cost;
  };
  for (int round = 0; round < options.max_rounds; ++round) {
    if (OutOfBudget(problem)) {
      result.truncated = true;
      break;
    }
    ++telemetry.rounds;

    // This round's candidates in enumeration order, with each one's
    // position in loop_candidates. The no-subsumed-pruning ablation
    // additionally enumerates the subsumed outline/inline transformations
    // each round (positions past the end of loop_candidates).
    std::vector<Transform> round_set;
    std::vector<size_t> round_index;
    for (size_t c = 0; c < loop_candidates.size(); ++c) {
      if (!consumed[c]) {
        round_set.push_back(loop_candidates[c]);
        round_index.push_back(c);
      }
    }
    if (!options.prune_subsumed) {
      for (Transform& t :
           EnumerateTransforms(*current.tree, options.cmax)) {
        if (t.kind == TransformKind::kOutline ||
            t.kind == TransformKind::kInline) {
          round_set.push_back(std::move(t));
          round_index.push_back(loop_candidates.size());
        }
      }
    }

    RoundOutcome outcome =
        RunSearchRound(problem, num_threads, round, *current.tree,
                       current.cost, round_set, cost_step, &telemetry);
    if (outcome.out_of_budget) {
      result.truncated = true;
      break;
    }
    if (outcome.best < 0) break;
    size_t chosen = round_index[static_cast<size_t>(outcome.best)];
    if (chosen < loop_candidates.size()) consumed[chosen] = true;
    if (!Advance(problem, std::move(outcome.best_tree), &current, &result)) {
      break;
    }
  }

  FinishSearch(problem, std::move(current), start, &result);
  search_span.Attr("rounds", telemetry.rounds);
  search_span.Attr("transformations_searched",
                   telemetry.transformations_searched);
  search_span.Attr("truncated", result.truncated);
  return result;
}

Result<SearchResult> NaiveGreedySearch(const DesignProblem& problem,
                                       const NaiveOptions& options) {
  auto start = std::chrono::steady_clock::now();
  SearchResult result;
  result.algorithm = "naive-greedy";
  SearchTelemetry& telemetry = result.telemetry;
  SpanScope search_span(problem.exec.trace, "search.naive-greedy");

  XS_ASSIGN_OR_RETURN(
      CurrentState current,
      FullCost(problem, problem.tree->Clone(), &telemetry));

  const int num_threads = ResolveNumThreads(options.num_threads);
  CostStep cost_step = [&problem](const Transform&, SchemaTree* tree,
                                  SearchTelemetry* delta,
                                  SpanScope* span) -> Result<double> {
    XS_ASSIGN_OR_RETURN(CostedMapping costed,
                        CostMapping(problem, *tree, delta));
    span->Attr("cost", costed.cost);
    return costed.cost;
  };
  for (int round = 0; round < options.max_rounds; ++round) {
    if (OutOfBudget(problem)) {
      result.truncated = true;
      break;
    }
    ++telemetry.rounds;
    RoundOutcome outcome = RunSearchRound(
        problem, num_threads, round, *current.tree, current.cost,
        EnumerateTransforms(*current.tree, options.default_split_count),
        cost_step, &telemetry);
    if (outcome.out_of_budget) {
      result.truncated = true;
      break;
    }
    if (outcome.best < 0) break;
    if (!Advance(problem, std::move(outcome.best_tree), &current, &result)) {
      break;
    }
  }

  FinishSearch(problem, std::move(current), start, &result);
  search_span.Attr("rounds", telemetry.rounds);
  search_span.Attr("truncated", result.truncated);
  return result;
}

namespace {

// Phase-1 cost for Two-Step: optimizer estimate with only the default
// clustered ID index and nonclustered PID index per relation (§5.1.1).
Result<double> TwoStepLogicalCost(const DesignProblem& problem,
                                  const SchemaTree& tree, bool mandatory,
                                  SearchTelemetry* telemetry) {
  XS_ASSIGN_OR_RETURN(Mapping mapping, Mapping::Build(tree));
  CatalogDesc catalog = problem.stats->DeriveCatalog(tree, mapping);
  for (const auto& [name, table] : catalog.tables) {
    IndexDesc id_index;
    id_index.def.name = "pk_" + name;
    id_index.def.table = name;
    id_index.def.key_columns = {table.schema.id_column};
    id_index.def.unique = true;
    id_index.entry_count = table.row_count();
    id_index.entry_bytes = 16.0;
    catalog.indexes.push_back(std::move(id_index));
    if (table.schema.pid_column >= 0) {
      IndexDesc pid_index;
      pid_index.def.name = "fk_" + name;
      pid_index.def.table = name;
      pid_index.def.key_columns = {table.schema.pid_column};
      pid_index.entry_count = table.row_count();
      pid_index.entry_bytes = 16.0;
      catalog.indexes.push_back(std::move(pid_index));
    }
  }
  XS_ASSIGN_OR_RETURN(std::vector<WeightedQuery> workload,
                      TranslateWorkload(problem.workload, tree, mapping));
  double total = 0;
  for (const WeightedQuery& wq : workload) {
    if (problem.exec.governor != nullptr) {
      Status charged = problem.exec.governor->ChargeWork(1.0);
      // The anchor estimate must complete even over budget; candidate
      // estimates stop so the search can return its best-so-far tree.
      if (!charged.ok() && !mandatory) return charged;
    }
    XS_ASSIGN_OR_RETURN(BoundQuery bound, BindQuery(wq.query, catalog));
    XS_ASSIGN_OR_RETURN(PlannedQuery planned, PlanQuery(bound, catalog));
    ++telemetry->optimizer_calls;
    total += wq.weight * planned.est_cost;
  }
  return total;
}

}  // namespace

Result<SearchResult> TwoStepSearch(const DesignProblem& problem,
                                   const NaiveOptions& options) {
  auto start = std::chrono::steady_clock::now();
  SearchResult result;
  result.algorithm = "two-step";
  SearchTelemetry& telemetry = result.telemetry;
  SpanScope search_span(problem.exec.trace, "search.two-step");

  std::unique_ptr<SchemaTree> current = problem.tree->Clone();
  XS_ASSIGN_OR_RETURN(
      double current_cost,
      TwoStepLogicalCost(problem, *current, /*mandatory=*/true, &telemetry));

  // Phase 1: the logical mapping, costed under the default indexes only.
  const int num_threads = ResolveNumThreads(options.num_threads);
  CostStep cost_step = [&problem](const Transform&, SchemaTree* tree,
                                  SearchTelemetry* delta,
                                  SpanScope* span) -> Result<double> {
    XS_ASSIGN_OR_RETURN(double cost,
                        TwoStepLogicalCost(problem, *tree,
                                           /*mandatory=*/false, delta));
    span->Attr("cost", cost);
    return cost;
  };
  for (int round = 0; round < options.max_rounds; ++round) {
    if (OutOfBudget(problem)) {
      result.truncated = true;
      break;
    }
    ++telemetry.rounds;
    RoundOutcome outcome = RunSearchRound(
        problem, num_threads, round, *current, current_cost,
        EnumerateTransforms(*current, options.default_split_count),
        cost_step, &telemetry);
    if (outcome.out_of_budget) {
      result.truncated = true;
      break;
    }
    if (outcome.best < 0) break;
    current = std::move(outcome.best_tree);
    current_cost = outcome.best_cost;
  }

  // Phase 2: physical design once on the chosen logical mapping.
  XS_ASSIGN_OR_RETURN(CurrentState final_state,
                      FullCost(problem, std::move(current), &telemetry));
  FinishSearch(problem, std::move(final_state), start, &result);
  search_span.Attr("rounds", telemetry.rounds);
  search_span.Attr("truncated", result.truncated);
  return result;
}

}  // namespace xmlshred
