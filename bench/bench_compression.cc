// Block-encoding compression bench (DESIGN.md §14): logical-vs-encoded
// byte footprint and scan behaviour on a 1M-row table.
//
// Builds the same million-row publication table tests/rel_test.cc pins
// (monotone IDs, 10 distinct titles, 20 distinct years), reports the
// logical (plain) footprint against the block-encoded storage of record
// — per-encoding sealed-block census included — and times a full scan
// plus a zone-map-prunable selective scan over the encoded blocks,
// through Executor::Count.
// Deterministic observables (rows, work, pages, blocks) go to the JSON;
// CI strips the wall_ms_* keys before diffing against the committed
// bench_results/BENCH_compression.json.
//
// Acceptance guard: the encoded footprint must be at most 60% of the
// plain footprint (the committed baseline shows ~9%).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/util.h"
#include "common/logging.h"
#include "common/strings.h"
#include "exec/executor.h"
#include "opt/planner.h"
#include "rel/catalog.h"
#include "rel/column_block.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace xmlshred::bench {
namespace {

struct CompressionFixture {
  Database db;
  int64_t rows = 0;

  CompressionFixture() {
    rows = static_cast<int64_t>(1000000 * BenchScale());
    TableSchema schema;
    schema.name = "pub";
    schema.columns = {{"ID", ColumnType::kInt64, false},
                      {"PID", ColumnType::kInt64, true},
                      {"title", ColumnType::kString, true},
                      {"year", ColumnType::kInt64, true}};
    schema.id_column = 0;
    schema.pid_column = 1;
    auto table = db.CreateTable(schema);
    XS_CHECK_OK(table.status());
    for (int64_t i = 0; i < rows; ++i) {
      (*table)->AppendRow({Value::Int(i), Value::Null(),
                           Value::Str("title_" + std::to_string(i % 10)),
                           Value::Int(1990 + i % 20)});
    }
  }
};

struct ScanResult {
  double rows_out = 0;
  double work = 0;
  double pages_sequential = 0;
  double pages_random = 0;
  double blocks_scanned = 0;
  double blocks_skipped = 0;
  double wall_ms = 0;
};

ScanResult RunScan(const Database& db, const std::string& sql) {
  auto parsed = ParseSql(sql);
  XS_CHECK_OK(parsed.status());
  CatalogDesc catalog = db.BuildCatalogDesc();
  auto bound = BindQuery(*parsed, catalog);
  XS_CHECK_OK(bound.status());
  auto planned = PlanQuery(*bound, catalog);
  XS_CHECK_OK(planned.status());
  Executor executor(db);
  // Observables from a single run (a fresh ExecMetrics per Run — the
  // timing loop below would otherwise accumulate a machine-dependent
  // number of iterations into them).
  ExecMetrics metrics;
  XS_CHECK_OK(executor.Run(*planned->root, &metrics).status());
  // The scan is timed through Count, which builds no result Value, so
  // the wall time is the scan's own.
  Timing timing = TimeRepeated([&] {
    ExecMetrics scratch;
    XS_CHECK_OK(executor.Count(*planned->root, &scratch).status());
  });
  ScanResult out;
  out.rows_out = static_cast<double>(metrics.rows_out);
  out.work = metrics.work;
  out.pages_sequential = metrics.pages_sequential;
  out.pages_random = metrics.pages_random;
  out.blocks_scanned = static_cast<double>(metrics.blocks_scanned);
  out.blocks_skipped = static_cast<double>(metrics.blocks_skipped);
  out.wall_ms = timing.ns_per_iter / 1e6;
  return out;
}

const char* EncodingName(BlockEncoding encoding) {
  switch (encoding) {
    case BlockEncoding::kPlain: return "plain";
    case BlockEncoding::kRle: return "rle";
    case BlockEncoding::kBitPackInt: return "bitpack_int";
    case BlockEncoding::kBitPackCode: return "bitpack_code";
  }
  return "?";
}

int Main(int argc, char** argv) {
  const BenchFlags flags = ExtractBenchFlags(&argc, argv);
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s [--json out.json]\n", argv[0]);
    return 2;
  }

  PrintTitle("Block-encoding compression: encoded vs plain on 1M rows",
             "encoded footprint well under the 60% acceptance bar; "
             "selective scans skip pruned blocks");
  CompressionFixture fixture;
  const Table* table = fixture.db.FindTable("pub");
  XS_CHECK(table != nullptr);

  const int64_t plain_bytes = table->total_bytes();
  const int64_t encoded_bytes = table->stored_bytes();
  const int64_t plain_pages = PagesForBytes(plain_bytes);
  const int64_t encoded_pages = table->NumPages();
  const double ratio =
      static_cast<double>(encoded_bytes) / static_cast<double>(plain_bytes);
  XS_CHECK(ratio <= 0.60);

  // Per-encoding sealed-block census across all columns.
  std::vector<std::pair<std::string, int64_t>> census = {
      {"plain", 0}, {"rle", 0}, {"bitpack_int", 0}, {"bitpack_code", 0}};
  int64_t tail_rows = 0;
  for (int c = 0; c < static_cast<int>(table->schema().columns.size());
       ++c) {
    const ColumnVector& column = table->column(c);
    for (size_t b = 0; b < column.num_sealed_blocks(); ++b) {
      const char* name = EncodingName(column.sealed_block(b).encoding);
      for (auto& [key, count] : census) {
        if (key == name) ++count;
      }
    }
    tail_rows = static_cast<int64_t>(column.tail_rows());
  }

  PrintRow({"footprint", "bytes", "pages"});
  PrintRow({"plain", std::to_string(plain_bytes),
            std::to_string(plain_pages)});
  PrintRow({"encoded", std::to_string(encoded_bytes),
            std::to_string(encoded_pages)});
  PrintRow({"ratio", FormatDouble(ratio, 4), ""});
  for (const auto& [key, count] : census) {
    PrintRow({"blocks:" + key, std::to_string(count), ""});
  }

  // `ID < 1000` prunes every sealed block but the first (monotone IDs);
  // the full scan touches everything.
  struct Micro {
    std::string name;
    std::string sql;
    bool expect_pruning;
  };
  const std::vector<Micro> micros = {
      {"selective_scan_pruned", "SELECT title FROM pub WHERE ID < 1000",
       true},
      {"full_scan", "SELECT year FROM pub WHERE year >= 1990", false},
  };
  struct MicroOut {
    std::string name;
    ScanResult encoded;
  };
  std::vector<MicroOut> results;
  PrintRow({"micro", "rows", "work", "blocks skipped", "wall"});
  for (const Micro& micro : micros) {
    ScanResult encoded = RunScan(fixture.db, micro.sql);
    if (micro.expect_pruning) XS_CHECK(encoded.blocks_skipped > 0);
    PrintRow({micro.name, FormatDouble(encoded.rows_out, 0),
              FormatDouble(encoded.work, 1),
              FormatDouble(encoded.blocks_skipped, 0),
              FormatDouble(encoded.wall_ms, 2) + " ms"});
    results.push_back({micro.name, encoded});
  }

  if (!flags.json_path.empty()) {
    std::FILE* f = std::fopen(flags.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", flags.json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"compression\",\n");
    std::fprintf(f, "  \"scale\": %g,\n", BenchScale());
    std::fprintf(f, "  \"rows\": %lld,\n",
                 static_cast<long long>(fixture.rows));
    std::fprintf(f, "  \"plain_bytes\": %lld,\n",
                 static_cast<long long>(plain_bytes));
    std::fprintf(f, "  \"encoded_bytes\": %lld,\n",
                 static_cast<long long>(encoded_bytes));
    std::fprintf(f, "  \"plain_pages\": %lld,\n",
                 static_cast<long long>(plain_pages));
    std::fprintf(f, "  \"encoded_pages\": %lld,\n",
                 static_cast<long long>(encoded_pages));
    std::fprintf(f, "  \"compression_ratio\": %.6f,\n", ratio);
    std::fprintf(f, "  \"tail_rows\": %lld,\n",
                 static_cast<long long>(tail_rows));
    std::fprintf(f, "  \"sealed_blocks\": {");
    for (size_t i = 0; i < census.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %lld", i == 0 ? "" : ", ",
                   census[i].first.c_str(),
                   static_cast<long long>(census[i].second));
    }
    std::fprintf(f, "},\n  \"micros\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const MicroOut& m = results[i];
      std::fprintf(
          f,
          "    {\"name\": \"%s\", \"rows\": %.0f, \"work\": %.6f, "
          "\"pages_sequential\": %.6f, \"pages_random\": %.6f, "
          "\"blocks_scanned\": %.0f, \"blocks_skipped\": %.0f, "
          "\"wall_ms_encoded\": %.6f}%s\n",
          m.name.c_str(), m.encoded.rows_out, m.encoded.work,
          m.encoded.pages_sequential, m.encoded.pages_random,
          m.encoded.blocks_scanned, m.encoded.blocks_skipped,
          m.encoded.wall_ms, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", flags.json_path.c_str());
  }
  WriteMetricsOut(flags.metrics_out);
  return 0;
}

}  // namespace
}  // namespace xmlshred::bench

int main(int argc, char** argv) {
  return xmlshred::bench::Main(argc, argv);
}
