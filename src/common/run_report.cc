#include "common/run_report.h"

#include "common/strings.h"

namespace xmlshred {

namespace {

int64_t CounterOr0(const MetricsSnapshot& snapshot, const char* name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

double GaugeOr0(const MetricsSnapshot& snapshot, const char* name) {
  auto it = snapshot.gauges.find(name);
  return it == snapshot.gauges.end() ? 0 : it->second;
}

RunReport::QErrorStats QErrorStatsFrom(const HistogramSnapshot& h) {
  RunReport::QErrorStats stats;
  stats.count = h.count;
  if (h.count > 0) stats.mean = h.sum / static_cast<double>(h.count);
  if (!h.buckets.empty()) {
    stats.max_bound = Histogram::BucketUpperBound(h.buckets.back().first);
  }
  return stats;
}

std::string QErrorJson(const RunReport::QErrorStats& stats) {
  return StrFormat(
      "{\"count\": %lld, \"mean\": %.17g, \"max_bound\": %.17g}",
      static_cast<long long>(stats.count), stats.mean, stats.max_bound);
}

}  // namespace

RunReport RunReportFromMetrics(const MetricsSnapshot& snapshot,
                               const std::string& algorithm) {
  RunReport report;
  RunReport::SearchSection& s = report.search;
  s.algorithm = algorithm;
  s.rounds = static_cast<int>(CounterOr0(snapshot, kMetricSearchRounds));
  s.transformations_searched =
      static_cast<int>(CounterOr0(snapshot, kMetricSearchTransformations));
  s.tuner_calls = static_cast<int>(CounterOr0(snapshot, kMetricSearchTunerCalls));
  s.optimizer_calls =
      static_cast<int>(CounterOr0(snapshot, kMetricSearchOptimizerCalls));
  s.queries_derived =
      static_cast<int>(CounterOr0(snapshot, kMetricSearchQueriesDerived));
  s.candidates_selected =
      static_cast<int>(CounterOr0(snapshot, kMetricSearchCandidatesSelected));
  s.candidates_after_merging = static_cast<int>(
      CounterOr0(snapshot, kMetricSearchCandidatesAfterMerging));
  s.candidates_skipped =
      static_cast<int>(CounterOr0(snapshot, kMetricSearchCandidatesSkipped));
  s.work_spent = GaugeOr0(snapshot, kMetricSearchWorkSpent);
  s.elapsed_seconds = GaugeOr0(snapshot, kMetricSearchElapsedSeconds);
  s.truncated = CounterOr0(snapshot, kMetricSearchTruncatedRuns) > 0;

  RunReport::AdvisorSection& a = report.advisor;
  a.tune_calls = static_cast<int>(CounterOr0(snapshot, kMetricAdvisorTuneCalls));
  a.optimizer_calls =
      static_cast<int>(CounterOr0(snapshot, kMetricAdvisorOptimizerCalls));
  a.whatif_rollbacks =
      static_cast<int>(CounterOr0(snapshot, kMetricSearchWhatifRollbacks));
  a.candidates_skipped = static_cast<int>(
      CounterOr0(snapshot, kMetricSearchAdvisorCandidatesSkipped));
  a.truncated = CounterOr0(snapshot, kMetricAdvisorTruncatedRuns) > 0;

  RunReport::StorageSection& st = report.storage;
  st.table_bytes_peak = static_cast<int64_t>(
      GaugeOr0(snapshot, kMetricStorageTableBytesPeak));
  st.dict_bytes_peak =
      static_cast<int64_t>(GaugeOr0(snapshot, kMetricStorageDictBytesPeak));
  st.dict_entries_peak = static_cast<int64_t>(
      GaugeOr0(snapshot, kMetricStorageDictEntriesPeak));

  RunReport::CalibrationSection& cal = report.calibration;
  cal.queries = CounterOr0(snapshot, kMetricCalibrationQueries);
  if (auto it = snapshot.histograms.find(kMetricCalibrationCostQError);
      it != snapshot.histograms.end()) {
    cal.cost = QErrorStatsFrom(it->second);
  }
  if (auto it = snapshot.histograms.find(kMetricCalibrationPagesQError);
      it != snapshot.histograms.end()) {
    cal.pages = QErrorStatsFrom(it->second);
  }
  // The snapshot map is name-ordered, so the prefix scan yields operator
  // kinds already sorted.
  const std::string prefix = kMetricCalibrationRowsQErrorPrefix;
  for (auto it = snapshot.histograms.lower_bound(prefix);
       it != snapshot.histograms.end() && StartsWith(it->first, prefix);
       ++it) {
    if (it->second.count == 0) continue;
    RunReport::CalibrationOperator op;
    op.kind = it->first.substr(prefix.size());
    op.rows = QErrorStatsFrom(it->second);
    cal.operators.push_back(std::move(op));
  }
  return report;
}

std::string RunReport::ToJson() const {
  std::string out = "{\n  \"schema_version\": 2,\n  \"search\": {\n";
  out += StrFormat("    \"algorithm\": \"%s\",\n", search.algorithm.c_str());
  out += StrFormat("    \"rounds\": %d,\n", search.rounds);
  out += StrFormat("    \"transformations_searched\": %d,\n",
                   search.transformations_searched);
  out += StrFormat("    \"tuner_calls\": %d,\n", search.tuner_calls);
  out += StrFormat("    \"optimizer_calls\": %d,\n", search.optimizer_calls);
  out += StrFormat("    \"queries_derived\": %d,\n", search.queries_derived);
  out += StrFormat("    \"candidates_selected\": %d,\n",
                   search.candidates_selected);
  out += StrFormat("    \"candidates_after_merging\": %d,\n",
                   search.candidates_after_merging);
  out += StrFormat("    \"candidates_skipped\": %d,\n",
                   search.candidates_skipped);
  out += StrFormat("    \"work_spent\": %.17g,\n", search.work_spent);
  out += StrFormat("    \"elapsed_seconds\": %.17g,\n", search.elapsed_seconds);
  out += StrFormat("    \"truncated\": %s\n",
                   search.truncated ? "true" : "false");
  out += "  },\n  \"advisor\": {\n";
  out += StrFormat("    \"tune_calls\": %d,\n", advisor.tune_calls);
  out += StrFormat("    \"optimizer_calls\": %d,\n", advisor.optimizer_calls);
  out += StrFormat("    \"whatif_rollbacks\": %d,\n", advisor.whatif_rollbacks);
  out += StrFormat("    \"candidates_skipped\": %d,\n",
                   advisor.candidates_skipped);
  out += StrFormat("    \"truncated\": %s\n",
                   advisor.truncated ? "true" : "false");
  out += "  },\n  \"storage\": {\n";
  out += StrFormat("    \"table_bytes_peak\": %lld,\n",
                   static_cast<long long>(storage.table_bytes_peak));
  out += StrFormat("    \"dict_bytes_peak\": %lld,\n",
                   static_cast<long long>(storage.dict_bytes_peak));
  out += StrFormat("    \"dict_entries_peak\": %lld\n",
                   static_cast<long long>(storage.dict_entries_peak));
  out += "  },\n  \"calibration\": {\n";
  out += StrFormat("    \"queries\": %lld,\n",
                   static_cast<long long>(calibration.queries));
  out += "    \"cost_qerror\": " + QErrorJson(calibration.cost) + ",\n";
  out += "    \"pages_qerror\": " + QErrorJson(calibration.pages) + ",\n";
  out += "    \"operators\": [";
  for (size_t i = 0; i < calibration.operators.size(); ++i) {
    const CalibrationOperator& op = calibration.operators[i];
    out += i == 0 ? "\n" : ",\n";
    out += StrFormat("      {\"kind\": \"%s\", \"rows_qerror\": ",
                     op.kind.c_str());
    out += QErrorJson(op.rows) + "}";
  }
  out += calibration.operators.empty() ? "]\n" : "\n    ]\n";
  out += "  }\n}\n";
  return out;
}

}  // namespace xmlshred
