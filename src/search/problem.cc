#include "search/problem.h"

#include <chrono>

#include "mapping/transforms.h"
#include "xpath/translator.h"

namespace xmlshred {

Result<std::vector<WeightedQuery>> TranslateWorkload(
    const XPathWorkload& workload, const SchemaTree& tree,
    const Mapping& mapping) {
  std::vector<WeightedQuery> out;
  out.reserve(workload.size());
  for (const XPathQuery& query : workload) {
    XS_ASSIGN_OR_RETURN(TranslatedQuery translated,
                        TranslateXPath(query, tree, mapping));
    out.push_back({std::move(translated.sql), query.weight});
  }
  return out;
}

std::vector<UpdateRate> ComputeUpdateRates(const DesignProblem& problem,
                                           const SchemaTree& tree,
                                           const Mapping& mapping) {
  std::vector<UpdateRate> rates;
  if (problem.updates.empty()) return rates;
  for (const MappedRelation& relation : mapping.relations()) {
    double rows = 0;
    for (const XmlUpdateLoad& load : problem.updates) {
      int64_t context_count = 0;
      for (SchemaNode* ctx : const_cast<SchemaTree&>(tree).FindTagsByName(
               load.context_element)) {
        context_count += problem.stats->ElementCount(ctx->origin_id());
      }
      if (context_count == 0) continue;
      for (int anchor_id : relation.anchor_node_ids) {
        const SchemaNode* anchor = tree.FindNode(anchor_id);
        // The anchor is affected when it is (a copy of) the inserted
        // element or lies inside its subtree.
        bool affected = false;
        for (const SchemaNode* p = anchor; p != nullptr; p = p->parent()) {
          if (p->kind() == SchemaNodeKind::kTag &&
              p->name() == load.context_element) {
            affected = true;
            break;
          }
        }
        if (!affected) continue;
        double fanout =
            static_cast<double>(
                problem.stats->ElementCount(anchor->origin_id())) /
            static_cast<double>(context_count);
        rows += load.weight * fanout;
      }
    }
    if (rows > 0) rates.push_back({relation.table_name, rows});
  }
  return rates;
}

TunerOptions EffectiveTunerOptions(const DesignProblem& problem) {
  TunerOptions options = problem.tuner_options;
  options.storage_bound_pages = problem.storage_bound_pages;
  options.exec = problem.exec;
  // A TraceSink is single-threaded; the search calls the advisor from
  // parallel costing workers, so the advisor never shares the search's
  // sink (candidate-level spans are recorded by the search itself into
  // per-worker sinks and adopted in enumeration order).
  options.exec.trace = nullptr;
  return options;
}

void CountTunerCall(const TunerResult& config, SearchTelemetry* telemetry) {
  ++telemetry->tuner_calls;
  telemetry->optimizer_calls += config.optimizer_calls;
  telemetry->whatif_rollbacks += config.whatif_rollbacks;
  telemetry->advisor_candidates_skipped += config.candidates_skipped;
}

Result<CostedMapping> CostMapping(const DesignProblem& problem,
                                  const SchemaTree& tree,
                                  SearchTelemetry* telemetry) {
  XS_ASSIGN_OR_RETURN(Mapping mapping, Mapping::Build(tree));
  CatalogDesc catalog = problem.stats->DeriveCatalog(tree, mapping);
  XS_ASSIGN_OR_RETURN(std::vector<WeightedQuery> workload,
                      TranslateWorkload(problem.workload, tree, mapping));
  PhysicalDesignAdvisor advisor(EffectiveTunerOptions(problem));
  std::vector<UpdateRate> rates = ComputeUpdateRates(problem, tree, mapping);
  XS_ASSIGN_OR_RETURN(TunerResult config,
                      advisor.Tune(workload, catalog, 0, rates));
  if (telemetry != nullptr) CountTunerCall(config, telemetry);
  CostedMapping out;
  out.mapping = std::move(mapping);
  out.cost = config.total_cost;
  out.configuration = std::move(config);
  return out;
}

void FinalizeSearchResult(const DesignProblem& problem, SearchResult* result) {
  const SearchTelemetry& t = result->telemetry;
  // Publish into a scratch registry first: the report must cover exactly
  // this run, while problem.exec.metrics may be accumulating across runs.
  MetricsRegistry scratch;
  auto publish = [&](MetricsRegistry* registry) {
    registry->counter(kMetricSearchRuns)->Increment();
    registry->counter(kMetricSearchRounds)->Add(t.rounds);
    registry->counter(kMetricSearchTransformations)
        ->Add(t.transformations_searched);
    registry->counter(kMetricSearchTunerCalls)->Add(t.tuner_calls);
    registry->counter(kMetricSearchOptimizerCalls)->Add(t.optimizer_calls);
    registry->counter(kMetricSearchQueriesDerived)->Add(t.queries_derived);
    registry->counter(kMetricSearchCandidatesSelected)
        ->Add(t.candidates_selected);
    registry->counter(kMetricSearchCandidatesAfterMerging)
        ->Add(t.candidates_after_merging);
    registry->counter(kMetricSearchCandidatesSkipped)
        ->Add(t.candidates_skipped);
    registry->counter(kMetricSearchWhatifRollbacks)->Add(t.whatif_rollbacks);
    registry->counter(kMetricSearchAdvisorCandidatesSkipped)
        ->Add(t.advisor_candidates_skipped);
    if (result->truncated) {
      registry->counter(kMetricSearchTruncatedRuns)->Increment();
    }
    registry->gauge(kMetricSearchWorkSpent)->Add(t.work_spent);
    registry->gauge(kMetricSearchElapsedSeconds)->Add(t.elapsed_seconds);
  };
  publish(&scratch);
  // The report's advisor section uses the search-side aggregates (the
  // bit-identical reduction); the registry's live "advisor.*" counters
  // were already published by each Tune call, so only the scratch gets
  // these keys.
  scratch.counter(kMetricAdvisorTuneCalls)->Add(t.tuner_calls);
  scratch.counter(kMetricAdvisorOptimizerCalls)->Add(t.optimizer_calls);
  if (result->configuration.truncated) {
    scratch.counter(kMetricAdvisorTruncatedRuns)->Increment();
  }
  result->report = RunReportFromMetrics(scratch.Snapshot(),
                                        result->algorithm);
  result->report.advisor.whatif_rollbacks = t.whatif_rollbacks;
  result->report.advisor.candidates_skipped = t.advisor_candidates_skipped;
  if (problem.exec.metrics != nullptr) publish(problem.exec.metrics);
}

Result<SearchResult> EvaluateHybridInline(const DesignProblem& problem) {
  auto start = std::chrono::steady_clock::now();
  SearchResult result;
  result.algorithm = "hybrid-inline";
  result.tree = problem.tree->Clone();
  FullyInline(result.tree.get());
  XS_ASSIGN_OR_RETURN(
      CostedMapping costed,
      CostMapping(problem, *result.tree, &result.telemetry));
  result.mapping = std::move(costed.mapping);
  result.configuration = std::move(costed.configuration);
  result.estimated_cost = costed.cost;
  result.truncated = result.configuration.truncated;
  if (problem.exec.governor != nullptr) {
    result.telemetry.work_spent = problem.exec.governor->work_spent();
  }
  result.telemetry.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  FinalizeSearchResult(problem, &result);
  return result;
}

}  // namespace xmlshred
