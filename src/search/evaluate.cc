#include "search/evaluate.h"

#include "exec/executor.h"
#include "mapping/shredder.h"
#include "opt/planner.h"
#include "sql/binder.h"
#include "xpath/translator.h"

namespace xmlshred {

Result<WorkloadEvaluation> EvaluateOnData(const SearchResult& result,
                                          const XmlDocument& doc,
                                          const XPathWorkload& workload,
                                          const ExecContext& exec,
                                          const EvaluateOptions& options) {
  SpanScope span(exec.trace, "evaluate");
  Database db;
  XS_ASSIGN_OR_RETURN(
      ShredStats shredded,
      ShredDocument(doc, *result.tree, result.mapping, &db));
  if (exec.metrics != nullptr) {
    exec.metrics->counter(kMetricShredDocuments)->Increment();
    exec.metrics->counter(kMetricShredRows)->Add(shredded.rows);
    exec.metrics->counter(kMetricShredElements)->Add(shredded.elements);
  }
  WorkloadEvaluation evaluation;
  evaluation.data_pages = db.DataPages();
  XS_RETURN_IF_ERROR(ApplyConfiguration(result.configuration, &db));
  if (exec.metrics != nullptr) {
    // Peak storage footprint: materialized views live as tables, so the
    // post-configuration total captures the run's high-water mark.
    exec.metrics->gauge(kMetricStorageTableBytesPeak)
        ->SetMax(static_cast<double>(db.TotalTableBytes()));
    exec.metrics->gauge(kMetricStorageDictBytesPeak)
        ->SetMax(static_cast<double>(db.dictionary().ByteSize()));
    exec.metrics->gauge(kMetricStorageDictEntriesPeak)
        ->SetMax(static_cast<double>(db.dictionary().size()));
    exec.metrics->gauge(kMetricStorageEncodedBytes)
        ->SetMax(static_cast<double>(db.TotalStoredBytes()));
    std::array<int64_t, kNumBlockEncodings> blocks =
        db.CountBlockEncodings();
    const char* kBlockGauges[kNumBlockEncodings] = {
        kMetricStorageBlocksPlain, kMetricStorageBlocksRle,
        kMetricStorageBlocksBitpackInt, kMetricStorageBlocksBitpackCode};
    for (int e = 0; e < kNumBlockEncodings; ++e) {
      exec.metrics->gauge(kBlockGauges[e])
          ->SetMax(static_cast<double>(blocks[static_cast<size_t>(e)]));
    }
  }

  CatalogDesc catalog = db.BuildCatalogDesc();
  for (const IndexDesc& idx : catalog.indexes) {
    evaluation.structure_pages += idx.NumPages();
  }
  for (const ViewDesc& view : catalog.views) {
    evaluation.structure_pages += view.NumPages();
  }

  PlannerOptions planner_options;
  planner_options.metrics = exec.metrics;

  Executor executor(db);
  ExecOptions exec_options;
  exec_options.governor = exec.governor;
  exec_options.metrics = exec.metrics;
  exec_options.capture_timing = options.capture_timing;
  // Explain trees are cheap (one small node per operator); build them
  // whenever either a caller wants them or a registry is listening for
  // calibration q-errors.
  bool want_explain = options.collect_explain || exec.metrics != nullptr;
  for (const XPathQuery& query : workload) {
    SpanScope query_span(exec.trace, "exec.query");
    query_span.Attr("xpath", query.ToString());
    XS_ASSIGN_OR_RETURN(TranslatedQuery translated,
                        TranslateXPath(query, *result.tree, result.mapping));
    XS_ASSIGN_OR_RETURN(BoundQuery bound,
                        BindQuery(translated.sql, catalog));
    XS_ASSIGN_OR_RETURN(PlannedQuery planned,
                        PlanQuery(bound, catalog, planner_options));
    ExplainNode tree;
    if (want_explain) tree = BuildExplainTree(*planned.root);
    exec_options.explain = want_explain ? &tree : nullptr;
    ExecMetrics metrics;
    XS_RETURN_IF_ERROR(
        executor.Count(*planned.root, &metrics, exec_options).status());
    evaluation.per_query_work.push_back(metrics.work);
    evaluation.total_work += query.weight * metrics.work;
    if (want_explain) ObserveCalibration(tree, exec.metrics);
    query_span.Attr("rows_out", metrics.rows_out);
    query_span.Attr("work", metrics.work);
    if (options.collect_explain) {
      evaluation.explains.push_back({query.ToString(), std::move(tree)});
    }
  }
  return evaluation;
}

}  // namespace xmlshred
