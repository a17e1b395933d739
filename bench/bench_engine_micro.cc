// Engine microbenchmarks: the relational substrate's operators and the
// XML pipeline's hot paths. Not a paper figure — validates that the
// substrate behaves like a database engine (index probes orders faster
// than scans, hash join linear, shredding linear) and guards the
// executor's batch speedups.
//
// Prints wall-clock per micro for humans. `--json PATH` writes only the
// deterministic observables — result rows, metered work units, and page
// counts per micro — so bench_results/BENCH_engine_micro.json is
// byte-stable across machines and CI can diff it with
// tools/compare_bench.py --rel-tol 0 (any drift in metering or results
// is a behavioural regression, not noise).

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/util.h"
#include "common/logging.h"
#include "common/strings.h"
#include "exec/executor.h"
#include "mapping/mapping.h"
#include "mapping/shredder.h"
#include "mapping/transforms.h"
#include "mapping/xml_stats.h"
#include "opt/planner.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "workload/dblp.h"

namespace xmlshred::bench {
namespace {

// Shared fixture data built once.
struct EngineFixture {
  GeneratedData data;
  Mapping mapping;
  Database db;
  CatalogDesc catalog;

  EngineFixture() : mapping(BuildMapping()) {
    XS_CHECK_OK(ShredDocument(data.doc, *data.tree, mapping, &db).status());
    IndexDef idx;
    idx.name = "ix_booktitle";
    idx.table = "inproc";
    idx.key_columns = {
        db.FindTable("inproc")->schema().FindColumn("booktitle")};
    idx.included_columns = {
        db.FindTable("inproc")->schema().FindColumn("title"),
        db.FindTable("inproc")->schema().FindColumn("year")};
    XS_CHECK_OK(db.CreateIndex(idx));
    IndexDef pid;
    pid.name = "ix_author_pid";
    pid.table = "inproc_author";
    pid.key_columns = {db.FindTable("inproc_author")->schema().pid_column};
    pid.included_columns = {
        db.FindTable("inproc_author")->schema().FindColumn("author")};
    XS_CHECK_OK(db.CreateIndex(pid));
    catalog = db.BuildCatalogDesc();
  }

  Mapping BuildMapping() {
    DblpConfig config;
    config.num_inproceedings = 20000;
    config.num_books = 2000;
    data = GenerateDblp(config);
    auto mapping = Mapping::Build(*data.tree);
    XS_CHECK_OK(mapping.status());
    return std::move(*mapping);
  }

  ExecMetrics RunSql(const std::string& sql) {
    auto parsed = ParseSql(sql);
    XS_CHECK_OK(parsed.status());
    auto bound = BindQuery(*parsed, catalog);
    XS_CHECK_OK(bound.status());
    auto planned = PlanQuery(*bound, catalog);
    XS_CHECK_OK(planned.status());
    Executor executor(db);
    ExecMetrics metrics;
    auto rows = executor.Run(*planned->root, &metrics);
    XS_CHECK_OK(rows.status());
    return metrics;
  }
};

EngineFixture& Fixture() {
  static EngineFixture* fixture = new EngineFixture();
  return *fixture;
}

// One micro: the deterministic observables recorded into --json (name ->
// value, in insertion order) plus human-facing wall-clock.
struct MicroResult {
  std::string name;
  std::vector<std::pair<std::string, double>> values;
  Timing timing;
};

MicroResult QueryMicro(const std::string& name, const std::string& sql) {
  EngineFixture& f = Fixture();
  MicroResult out;
  out.name = name;
  ExecMetrics metrics = f.RunSql(sql);
  out.values = {{"rows", static_cast<double>(metrics.rows_out)},
                {"work", metrics.work},
                {"pages_sequential", metrics.pages_sequential},
                {"pages_random", metrics.pages_random},
                {"blocks_scanned", static_cast<double>(metrics.blocks_scanned)},
                {"blocks_skipped", static_cast<double>(metrics.blocks_skipped)}};
  out.timing = TimeRepeated([&] { f.RunSql(sql); });
  return out;
}

// Selective scan whose predicate zone maps can prune: IDs are appended in
// order, so sealed blocks carry disjoint ID ranges and `ID < 1000`
// refutes every block past the first. XS_CHECKs that pruning actually
// happened — the acceptance guard for block skipping on a micro.
MicroResult PrunedScanMicro() {
  MicroResult out = QueryMicro(
      "selective_scan_pruned", "SELECT title FROM inproc WHERE ID < 1000");
  for (const auto& [key, value] : out.values) {
    if (key == "blocks_skipped") XS_CHECK(value > 0);
  }
  return out;
}

MicroResult QueryOptimizationMicro() {
  EngineFixture& f = Fixture();
  MicroResult out;
  out.name = "query_optimization";
  auto parsed = ParseSql(
      "SELECT I.ID, A.author FROM inproc I, inproc_author A "
      "WHERE I.booktitle = 'conf_0' AND I.ID = A.PID");
  XS_CHECK_OK(parsed.status());
  auto bound = BindQuery(*parsed, f.catalog);
  XS_CHECK_OK(bound.status());
  auto planned = PlanQuery(*bound, f.catalog);
  XS_CHECK_OK(planned.status());
  out.values = {{"est_cost", planned->root->est_cost}};
  out.timing = TimeRepeated([&] {
    auto p = PlanQuery(*bound, f.catalog);
    XS_CHECK_OK(p.status());
  });
  return out;
}

MicroResult ShreddingMicro() {
  DblpConfig config;
  config.num_inproceedings = 2000;
  config.num_books = 200;
  GeneratedData data = GenerateDblp(config);
  auto mapping = Mapping::Build(*data.tree);
  XS_CHECK_OK(mapping.status());
  MicroResult out;
  out.name = "shredding";
  {
    Database db;
    auto result = ShredDocument(data.doc, *data.tree, *mapping, &db);
    XS_CHECK_OK(result.status());
    out.values = {
        {"rows", static_cast<double>(result->rows)},
        {"elements", static_cast<double>(result->elements)},
        {"dict_entries", static_cast<double>(db.dictionary().size())},
        {"table_bytes", static_cast<double>(db.TotalTableBytes())}};
  }
  out.timing = TimeRepeated([&] {
    Database db;
    auto result = ShredDocument(data.doc, *data.tree, *mapping, &db);
    XS_CHECK_OK(result.status());
  });
  return out;
}

// A copy of `tree` with one transformation applied at the parent of the
// first tag named `element` (an option for union distribution, a
// repetition for repetition split).
std::unique_ptr<SchemaTree> Transformed(const SchemaTree& tree,
                                        TransformKind kind,
                                        const std::string& element,
                                        int split_count) {
  std::unique_ptr<SchemaTree> out = tree.Clone();
  SchemaNode* parent = out->FindTagByName(element)->parent();
  Transform transform;
  transform.kind = kind;
  transform.target = parent->id();
  if (kind == TransformKind::kUnionDistribute) {
    transform.option_targets = {parent->id()};
  }
  transform.split_count = split_count;
  XS_CHECK_OK(ApplyTransform(out.get(), transform).status());
  return out;
}

// Pins what collection produced, not just how many elements it saw: the
// catalog derived for three mappings sums to keys that move if any kind
// of collected statistic does — element counts (rows under the default
// mapping), presence combinations (the union-distributed variants),
// cardinality histograms (the repetition-split occurrence columns and
// overflow relation), and leaf values (distinct estimates, data pages).
MicroResult StatisticsCollectionMicro() {
  DblpConfig config;
  config.num_inproceedings = 2000;
  config.num_books = 200;
  GeneratedData data = GenerateDblp(config);
  MicroResult out;
  out.name = "statistics_collection";
  {
    auto stats = XmlStatistics::Collect(data.doc, *data.tree);
    XS_CHECK_OK(stats.status());
    out.values = {
        {"total_elements", static_cast<double>(stats->total_elements())}};
    auto add_derived = [&](const std::string& label, const SchemaTree& tree) {
      auto mapping = Mapping::Build(tree);
      XS_CHECK_OK(mapping.status());
      CatalogDesc catalog = stats->DeriveCatalog(tree, *mapping);
      int64_t rows = 0, non_null = 0, distinct = 0;
      for (const auto& [name, desc] : catalog.tables) {
        rows += desc.stats.row_count;
        for (const ColumnStats& column : desc.stats.columns) {
          non_null += column.non_null_count;
          distinct += column.distinct_estimate;
        }
      }
      out.values.push_back({"rows_" + label, static_cast<double>(rows)});
      out.values.push_back(
          {"non_null_" + label, static_cast<double>(non_null)});
      out.values.push_back(
          {"distinct_" + label, static_cast<double>(distinct)});
      out.values.push_back(
          {"data_pages_" + label, static_cast<double>(catalog.DataPages())});
    };
    add_derived("default", *data.tree);
    add_derived("union_ee", *Transformed(*data.tree,
                                         TransformKind::kUnionDistribute,
                                         "ee", 0));
    add_derived("split_author", *Transformed(*data.tree,
                                             TransformKind::kRepetitionSplit,
                                             "author", 5));
  }
  out.timing = TimeRepeated([&] {
    auto stats = XmlStatistics::Collect(data.doc, *data.tree);
    XS_CHECK_OK(stats.status());
  });
  return out;
}

MicroResult StatsDerivationMicro() {
  EngineFixture& f = Fixture();
  auto stats = XmlStatistics::Collect(f.data.doc, *f.data.tree);
  XS_CHECK_OK(stats.status());
  MicroResult out;
  out.name = "stats_derivation";
  {
    CatalogDesc catalog = stats->DeriveCatalog(*f.data.tree, f.mapping);
    out.values = {
        {"data_pages", static_cast<double>(catalog.DataPages())}};
  }
  out.timing = TimeRepeated([&] {
    CatalogDesc catalog = stats->DeriveCatalog(*f.data.tree, f.mapping);
    (void)catalog;
  });
  return out;
}

void WriteJson(const std::string& path,
               const std::vector<MicroResult>& micros) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"engine_micro\",\n");
  std::fprintf(f, "  \"micros\": [\n");
  for (size_t i = 0; i < micros.size(); ++i) {
    const MicroResult& m = micros[i];
    std::fprintf(f, "    {\"name\": \"%s\"", m.name.c_str());
    for (const auto& [key, value] : m.values) {
      std::fprintf(f, ", \"%s\": %.6f", key.c_str(), value);
    }
    std::fprintf(f, "}%s\n", i + 1 < micros.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int Main(int argc, char** argv) {
  const BenchFlags flags = ExtractBenchFlags(&argc, argv);
  const std::string& metrics_out = flags.metrics_out;
  const std::string& json_path = flags.json_path;
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s [--json out.json]\n", argv[0]);
    return 2;
  }

  PrintTitle("Engine microbenchmarks",
             "wall-clock is informational; --json records only "
             "deterministic work/row/page observables");
  std::vector<MicroResult> micros;
  micros.push_back(QueryMicro(
      "heap_scan_filter", "SELECT pages FROM inproc WHERE year = 1990"));
  micros.push_back(PrunedScanMicro());
  micros.push_back(QueryMicro(
      "covering_index_seek",
      "SELECT title, year FROM inproc WHERE booktitle = 'conf_0'"));
  micros.push_back(QueryMicro(
      "hash_join",
      "SELECT I.pages, A.author FROM inproc I, inproc_author A "
      "WHERE I.ID = A.PID AND I.year >= 2000"));
  micros.push_back(QueryMicro(
      "index_nl_join",
      "SELECT I.ID, A.author FROM inproc I, inproc_author A "
      "WHERE I.booktitle = 'conf_0' AND I.ID = A.PID"));
  micros.push_back(QueryMicro(
      "sorted_outer_union",
      "SELECT I.ID, title, NULL FROM inproc I WHERE booktitle = 'conf_1' "
      "UNION ALL SELECT I.ID, NULL, A.author FROM inproc I, "
      "inproc_author A WHERE booktitle = 'conf_1' AND I.ID = A.PID "
      "ORDER BY 1"));
  micros.push_back(QueryOptimizationMicro());
  micros.push_back(ShreddingMicro());
  micros.push_back(StatisticsCollectionMicro());
  micros.push_back(StatsDerivationMicro());
  // Whole-table operator shapes: a scan keeping most rows, an equi-join
  // with no filter, a scalar aggregate, and a two-key sort of rows that
  // arrive out of order.
  micros.push_back(
      QueryMicro("heap_scan", "SELECT pages FROM inproc WHERE year >= 1985"));
  micros.push_back(QueryMicro(
      "hash_join_unfiltered",
      "SELECT I.pages, A.author FROM inproc I, inproc_author A "
      "WHERE I.ID = A.PID"));
  micros.push_back(QueryMicro(
      "aggregate",
      "SELECT COUNT(*), SUM(year), MIN(title), MAX(year) FROM inproc"));
  micros.push_back(
      QueryMicro("sort", "SELECT title, year FROM inproc ORDER BY 2, 1"));

  PrintRow({"micro", "wall/iter", "iters", "work", "rows"});
  for (const MicroResult& m : micros) {
    auto value_of = [&](const char* key) -> std::string {
      for (const auto& [k, v] : m.values) {
        if (k == key) return FormatDouble(v, 1);
      }
      return "-";
    };
    double ns = m.timing.ns_per_iter;
    std::string wall = ns >= 1e6 ? FormatDouble(ns / 1e6, 2) + " ms"
                                 : FormatDouble(ns / 1e3, 1) + " us";
    PrintRow({m.name, wall, std::to_string(m.timing.iterations),
              value_of("work"),
              value_of("rows")});
  }

  if (!json_path.empty()) {
    WriteJson(json_path, micros);
  }
  WriteMetricsOut(metrics_out);
  return 0;
}

}  // namespace
}  // namespace xmlshred::bench

int main(int argc, char** argv) {
  return xmlshred::bench::Main(argc, argv);
}
