// xmlshred advisor CLI: the end-user face of the library.
//
//   example_advisor_cli --schema file.xsd|file.dtd --data file.xml
//       --workload queries.txt [--algorithm greedy|naive|two-step|hybrid]
//       [--space-multiple 3.0] [--threads N]
//       [--execute] [--metrics-out metrics.json] [--trace-out trace.json]
//       [--explain-out explain.json] [--explain-timing]
//       [--report-out report.json]
//
// --threads N costs each search round's candidates on N workers (0, the
// default, uses every hardware thread; 1 costs them on the calling
// thread). The
// chosen design is identical at any thread count — see DESIGN.md §8.
// Executed queries run on the calling thread (DESIGN.md §13).
//
// The workload file holds one XPath query per line, optionally prefixed
// by a weight ("4.0 //movie[year >= 1998]/(title | box_office)"); '#'
// lines are comments. The tool prints the chosen relational mapping, the
// recommended physical structures, and per-query estimated costs; with
// --execute it also shreds the data, builds the structures, and reports
// measured work per query.
//
// --metrics-out writes the run's full metrics registry (parse, search,
// advisor, planner, executor, calibration counters) as JSON; --trace-out
// writes the hierarchical span trace (wall-clock durations included).
// --trace-sample N keeps only a deterministic 1-in-N head-sample of the
// root spans (same decision function as the serving request tracer), for
// workloads big enough that the full trace is unwieldy.
// --explain-out executes the workload on the recommended design (implying
// --execute's evaluation) and writes one EXPLAIN ANALYZE tree per query
// with per-operator estimates and actuals; the document is bit-identical
// at any --threads count unless --explain-timing adds per-operator
// wall-clock. --report-out writes the RunReport summary, whose
// calibration section aggregates estimated-vs-actual q-errors. All
// documents follow schema_version 1 — see DESIGN.md §9-§10 and the
// schemas under tools/.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/metrics.h"
#include "common/run_report.h"
#include "common/strings.h"
#include "common/trace.h"
#include "exec/explain.h"
#include "mapping/xml_stats.h"
#include "search/evaluate.h"
#include "search/greedy.h"
#include "xml/dtd_parser.h"
#include "xml/xsd_parser.h"
#include "xpath/translator.h"

using namespace xmlshred;

namespace {

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Result<XPathWorkload> LoadWorkload(const std::string& path) {
  XS_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  XPathWorkload workload;
  std::istringstream lines(text);
  std::string line;
  int line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    double weight = 1.0;
    if (std::isdigit(static_cast<unsigned char>(stripped[0]))) {
      size_t space = stripped.find(' ');
      if (space == std::string_view::npos) {
        return InvalidArgument(StrFormat("line %d: weight without query",
                                         line_number));
      }
      weight = std::atof(std::string(stripped.substr(0, space)).c_str());
      stripped = StripWhitespace(stripped.substr(space));
    }
    auto query = ParseXPath(stripped);
    if (!query.ok()) {
      return InvalidArgument(StrFormat("line %d: %s", line_number,
                                       query.status().ToString().c_str()));
    }
    query->weight = weight;
    workload.push_back(std::move(*query));
  }
  if (workload.empty()) return InvalidArgument("workload file is empty");
  return workload;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: example_advisor_cli --schema FILE.{xsd,dtd} --data FILE.xml\n"
      "       --workload FILE [--algorithm greedy|naive|two-step|hybrid]\n"
      "       [--space-multiple F] [--threads N]\n"
      "       [--execute]\n"
      "       [--metrics-out FILE.json] [--trace-out FILE.json]\n"
      "       [--trace-sample N]\n"
      "       [--explain-out FILE.json] [--explain-timing]\n"
      "       [--report-out FILE.json]\n");
  return 2;
}

// Seed for --trace-sample's deterministic head-sampling decision. Fixed
// so the sampled root-span subset is a pure function of (N, root order)
// and replays identically across runs and machines.
constexpr uint64_t kTraceSampleSeed = 0x7ace5eed0a11ull;

struct CliOptions {
  std::string schema_path;
  std::string data_path;
  std::string workload_path;
  std::string algorithm = "greedy";
  double space_multiple = 3.0;
  int threads = 0;  // 0 = one worker per hardware thread
  bool execute = false;
  std::string metrics_out;
  std::string trace_out;
  int trace_sample = 0;  // 0 = full trace; N = 1-in-N sampled roots
  std::string explain_out;
  bool explain_timing = false;
  std::string report_out;
};

Status RunTool(const CliOptions& cli) {
  const std::string& schema_path = cli.schema_path;
  const std::string& workload_path = cli.workload_path;
  // Observability: one registry and one sink for the whole run. The CLI
  // is the interactive surface, so wall-clock timing is on.
  MetricsRegistry registry;
  registry.set_timing_enabled(true);
  TraceSink sink(/*capture_timing=*/true);
  ExecContext exec;
  exec.metrics = cli.metrics_out.empty() && cli.trace_out.empty() &&
                         cli.report_out.empty()
                     ? nullptr
                     : &registry;
  exec.trace = cli.trace_out.empty() ? nullptr : &sink;

  ParseOptions parse_options;
  parse_options.exec = &exec;

  // Schema: XSD or DTD by extension.
  XS_ASSIGN_OR_RETURN(std::string schema_text, ReadFile(schema_path));
  std::unique_ptr<SchemaTree> tree;
  if (EndsWith(schema_path, ".dtd")) {
    XS_ASSIGN_OR_RETURN(tree, ParseDtd(schema_text, parse_options));
  } else {
    XS_ASSIGN_OR_RETURN(tree, ParseXsd(schema_text, parse_options));
  }
  AssignDefaultAnnotations(tree.get());
  XS_RETURN_IF_ERROR(tree->Validate());

  XS_ASSIGN_OR_RETURN(std::string xml_text, ReadFile(cli.data_path));
  XS_ASSIGN_OR_RETURN(XmlDocument doc, ParseXml(xml_text, parse_options));
  XS_ASSIGN_OR_RETURN(XmlStatistics stats,
                      XmlStatistics::Collect(doc, *tree));
  XS_ASSIGN_OR_RETURN(XPathWorkload workload, LoadWorkload(workload_path));

  DesignProblem problem;
  problem.tree = tree.get();
  problem.stats = &stats;
  problem.workload = workload;
  problem.exec = exec;
  XS_ASSIGN_OR_RETURN(Mapping default_mapping, Mapping::Build(*tree));
  int64_t data_pages =
      stats.DeriveCatalog(*tree, default_mapping).DataPages();
  problem.storage_bound_pages = static_cast<int64_t>(
      static_cast<double>(data_pages) * cli.space_multiple);

  std::printf("schema: %s (%lld elements in data)\n", schema_path.c_str(),
              static_cast<long long>(stats.total_elements()));
  std::printf("workload: %zu queries; storage bound: %lld pages\n\n",
              workload.size(),
              static_cast<long long>(problem.storage_bound_pages));

  Result<SearchResult> result = [&]() -> Result<SearchResult> {
    if (cli.algorithm == "greedy") {
      GreedyOptions options;
      options.num_threads = cli.threads;
      return GreedySearch(problem, options);
    }
    NaiveOptions options;
    options.num_threads = cli.threads;
    if (cli.algorithm == "naive") return NaiveGreedySearch(problem, options);
    if (cli.algorithm == "two-step") return TwoStepSearch(problem, options);
    if (cli.algorithm == "hybrid") return EvaluateHybridInline(problem);
    return InvalidArgument("unknown algorithm " + cli.algorithm);
  }();
  XS_RETURN_IF_ERROR(result.status());

  std::printf("--- %s: estimated workload cost %.1f "
              "(%d transformations searched, %.3fs) ---\n",
              result->algorithm.c_str(), result->estimated_cost,
              result->telemetry.transformations_searched,
              result->telemetry.elapsed_seconds);
  std::printf("\nrelational mapping:\n");
  for (const MappedRelation& rel : result->mapping.relations()) {
    std::printf("  %s\n", rel.ToTableSchema().ToString().c_str());
  }
  std::printf("\nphysical design (%lld pages):\n",
              static_cast<long long>(result->configuration.structure_pages));
  for (const IndexDesc& idx : result->configuration.indexes) {
    const MappedRelation* rel = result->mapping.FindRelation(idx.def.table);
    std::printf("  %s\n",
                idx.def.ToString(rel->ToTableSchema()).c_str());
  }
  for (const ViewDesc& view : result->configuration.views) {
    std::printf("  %s\n", view.def.ToString().c_str());
  }

  std::printf("\ntranslated SQL:\n");
  for (const XPathQuery& query : workload) {
    XS_ASSIGN_OR_RETURN(TranslatedQuery translated,
                        TranslateXPath(query, *result->tree,
                                       result->mapping));
    std::printf("  %s\n    -> %s\n", query.ToString().c_str(),
                translated.sql.ToSql().c_str());
  }

  // --explain-out and --report-out need executed actuals, so either
  // implies the evaluation that --execute performs (without its printout).
  bool evaluate = cli.execute || !cli.explain_out.empty() ||
                  !cli.report_out.empty();
  if (evaluate) {
    EvaluateOptions eval_options;
    eval_options.collect_explain = !cli.explain_out.empty();
    eval_options.capture_timing = cli.explain_timing;
    XS_ASSIGN_OR_RETURN(
        WorkloadEvaluation eval,
        EvaluateOnData(*result, doc, workload, exec, eval_options));
    if (cli.execute) {
      std::printf("\nmeasured execution (work units):\n");
      for (size_t i = 0; i < workload.size(); ++i) {
        std::printf("  %-60s %10.1f\n", workload[i].ToString().c_str(),
                    eval.per_query_work[i]);
      }
      std::printf("  %-60s %10.1f\n", "TOTAL (weighted)", eval.total_work);
    }
    if (!cli.explain_out.empty()) {
      XS_RETURN_IF_ERROR(WriteTextFile(
          cli.explain_out,
          ExplainDocumentToJson(eval.explains, cli.explain_timing)));
      std::printf("\nexplain written to %s\n", cli.explain_out.c_str());
    }
  }

  if (!cli.metrics_out.empty()) {
    XS_RETURN_IF_ERROR(
        WriteTextFile(cli.metrics_out, registry.Snapshot().ToJson()));
    std::printf("\nmetrics written to %s\n", cli.metrics_out.c_str());
  }
  if (!cli.trace_out.empty()) {
    if (cli.trace_sample > 0) {
      // Head-sampled subset of the root spans: the same deterministic
      // 1-in-N decision the serving telemetry applies to request traces
      // (common/trace.h), keyed by root index under a fixed seed.
      XS_RETURN_IF_ERROR(WriteTextFile(
          cli.trace_out,
          TraceRootsSampledToJson(sink, cli.trace_sample, kTraceSampleSeed,
                                  /*include_timing=*/true)));
      std::printf("trace written to %s (1-in-%d sampled roots)\n",
                  cli.trace_out.c_str(), cli.trace_sample);
    } else {
      XS_RETURN_IF_ERROR(WriteTextFile(cli.trace_out, sink.ToJson()));
      std::printf("trace written to %s\n", cli.trace_out.c_str());
    }
  }
  if (!cli.report_out.empty()) {
    // Built after evaluation so the calibration section sees the
    // estimated-vs-actual q-errors (SearchResult::report predates them)
    // and the storage section sees the peak columnar footprint.
    RunReport report =
        RunReportFromMetrics(registry.Snapshot(), result->algorithm);
    XS_RETURN_IF_ERROR(WriteTextFile(cli.report_out, report.ToJson()));
    std::printf("report written to %s\n", cli.report_out.c_str());
    if (report.storage.table_bytes_peak > 0) {
      std::printf("peak storage: %lld table bytes + %lld dictionary bytes "
                  "(%lld entries)\n",
                  static_cast<long long>(report.storage.table_bytes_peak),
                  static_cast<long long>(report.storage.dict_bytes_peak),
                  static_cast<long long>(report.storage.dict_entries_peak));
    }
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--schema")) {
      cli.schema_path = next("--schema");
    } else if (!std::strcmp(argv[i], "--data")) {
      cli.data_path = next("--data");
    } else if (!std::strcmp(argv[i], "--workload")) {
      cli.workload_path = next("--workload");
    } else if (!std::strcmp(argv[i], "--algorithm")) {
      cli.algorithm = next("--algorithm");
    } else if (!std::strcmp(argv[i], "--space-multiple")) {
      cli.space_multiple = std::atof(next("--space-multiple"));
    } else if (!std::strcmp(argv[i], "--threads")) {
      const char* value = next("--threads");
      char* end = nullptr;
      cli.threads = static_cast<int>(std::strtol(value, &end, 10));
      if (end == value || *end != '\0' || cli.threads < 0) {
        std::fprintf(stderr, "--threads: bad count '%s'\n", value);
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--metrics-out")) {
      cli.metrics_out = next("--metrics-out");
    } else if (!std::strcmp(argv[i], "--trace-out")) {
      cli.trace_out = next("--trace-out");
    } else if (!std::strcmp(argv[i], "--trace-sample")) {
      const char* value = next("--trace-sample");
      char* end = nullptr;
      cli.trace_sample = static_cast<int>(std::strtol(value, &end, 10));
      if (end == value || *end != '\0' || cli.trace_sample < 0) {
        std::fprintf(stderr, "--trace-sample: bad period '%s'\n", value);
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--explain-out")) {
      cli.explain_out = next("--explain-out");
    } else if (!std::strcmp(argv[i], "--explain-timing")) {
      cli.explain_timing = true;
    } else if (!std::strcmp(argv[i], "--report-out")) {
      cli.report_out = next("--report-out");
    } else if (!std::strcmp(argv[i], "--execute")) {
      cli.execute = true;
    } else {
      return Usage();
    }
  }
  if (cli.schema_path.empty() || cli.data_path.empty() ||
      cli.workload_path.empty()) {
    return Usage();
  }
  Status status = RunTool(cli);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
