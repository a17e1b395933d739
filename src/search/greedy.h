// The paper's search algorithms.
//
//  * GreedySearch — Fig. 3: candidate selection (§4.5) with the
//    repetition-split count rule (§4.6), candidate merging (§4.7),
//    subsumed-transformation pruning with deep merge (§4.3), and cost
//    derivation (§4.8). Each optimization can be disabled for the
//    ablations of Figs. 7–9.
//  * NaiveGreedySearch — the straightforward extension of the greedy
//    logical-design algorithm of [5], [18]: enumerates every
//    transformation (including the subsumed ones) each round and invokes
//    the full physical design tool per enumerated mapping.
//  * TwoStepSearch — first picks the logical mapping greedily assuming
//    only the default ID/PID indexes, then runs physical design once on
//    the winner.

#ifndef XMLSHRED_SEARCH_GREEDY_H_
#define XMLSHRED_SEARCH_GREEDY_H_

#include "search/problem.h"

namespace xmlshred {

enum class MergeStrategy {
  kGreedy,      // cost-based greedy pair merging (§4.7)
  kNone,        // no candidate merging
  kExhaustive,  // enumerate every mergeable combination
};

// Fields shared by every search algorithm's options. The concrete
// structs inherit from this, so existing code that sets
// `options.num_threads` / `options.max_rounds` on a GreedyOptions or
// NaiveOptions compiles unchanged.
struct SearchOptions {
  // Workers costing the round's candidate set concurrently. <= 0 means
  // one per hardware thread; 1 costs the candidates inline on the calling
  // thread (no threads spawned). Any value returns a SearchResult
  // bit-identical to num_threads = 1 — candidates are enumerated
  // serially, costed in isolation, and reduced in enumeration order
  // (DESIGN.md §8) — except that runs truncated by a governor may stop at
  // a different candidate.
  int num_threads = 0;
  // Safety valve on search rounds (the algorithms converge earlier).
  int max_rounds = 32;
};

struct GreedyOptions : SearchOptions {
  // §4.3: skip subsumed transformations, always working on the fully
  // inlined normal form. When false, outline/inline transformations are
  // enumerated and costed like any other candidate.
  bool prune_subsumed = true;
  // §4.5: keep only transformations some workload query benefits from.
  // When false, every non-subsumed transformation becomes a candidate.
  bool candidate_selection = true;
  MergeStrategy merging = MergeStrategy::kGreedy;
  // §4.8: reuse per-query costs across mappings when the heuristic rules
  // prove the same objects answer the query.
  bool cost_derivation = true;
  // §4.6 parameters for the repetition-split count.
  int cmax = 5;
  double x_fraction = 0.8;
};

Result<SearchResult> GreedySearch(const DesignProblem& problem,
                                  const GreedyOptions& options = {});

struct NaiveOptions : SearchOptions {
  NaiveOptions() { max_rounds = 16; }
  int default_split_count = 5;
};

Result<SearchResult> NaiveGreedySearch(const DesignProblem& problem,
                                       const NaiveOptions& options = {});

Result<SearchResult> TwoStepSearch(const DesignProblem& problem,
                                   const NaiveOptions& options = {});

// §4.6: picks the number of leading occurrences to inline for a
// repetition with the given per-parent cardinality histogram, or 0 when
// repetition split should not be applied.
int SelectRepetitionSplitCount(const std::map<int64_t, int64_t>& hist,
                               int cmax, double x_fraction);

}  // namespace xmlshred

#endif  // XMLSHRED_SEARCH_GREEDY_H_
