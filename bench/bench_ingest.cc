// Streaming bulk-ingest bench (DESIGN.md §17): DOM vs one-pass SAX
// shredding.
//
// Generates the DBLP document at bench scale, serializes it once, and
// ingests it two ways: the DOM path (ParseXml + ShredDocument) and the
// streaming path (ShredStream). Each run lands in a fresh Database and
// is hashed with the same full-state digest the differential tests use
// (tests/streaming_shred_test.cc); the bench XS_CHECKs the digests
// equal, so a run doubles as an end-to-end bit-identity check. After the
// streaming ingest the largest relation gets a B-tree built (one pass
// over its columns, one sort).
//
// Deterministic observables (rows, elements, batches, peak batch bytes,
// transient peak, index entries, digest) are machine-independent at a
// given scale and land in the JSON export; wall_ms_* keys are stripped by
// tools/strip_timing_keys.py before CI diffs against the committed
// bench_results/BENCH_ingest.json.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/util.h"
#include "common/logging.h"
#include "common/strings.h"
#include "mapping/mapping.h"
#include "mapping/shredder.h"
#include "mapping/stream_shredder.h"
#include "rel/catalog.h"
#include "rel/column_reader.h"
#include "rel/index.h"
#include "workload/dblp.h"
#include "xml/document.h"
#include "xml/schema_tree.h"

namespace xmlshred::bench {
namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

// Same observable surface as the differential tests: table names, row
// counts, every cell tag/bit, byte tallies, sealed blocks, and the
// dictionary in code order.
uint64_t DatabaseDigest(const Database& db) {
  uint64_t h = 14695981039346656037ULL;
  for (const std::string& name : db.TableNames()) {
    const Table* t = db.FindTable(name);
    h = Mix(h, Fnv1a64(name));
    h = Mix(h, static_cast<uint64_t>(t->row_count()));
    for (int c = 0; c < t->schema().num_columns(); ++c) {
      const ColumnVector& col = t->column(c);
      h = Mix(h, col.size());
      h = Mix(h, static_cast<uint64_t>(col.byte_total()));
      h = Mix(h, col.num_sealed_blocks());
      h = Mix(h, static_cast<uint64_t>(col.sealed_encoded_bytes()));
      BlockCursor cursor(col);
      for (size_t b = 0; b < cursor.num_blocks(); ++b) {
        BlockView view = cursor.Read(b);
        for (size_t i = 0; i < view.rows; ++i) {
          h = Mix(h, view.tags[i]);
          h = Mix(h, view.data[i]);
        }
      }
    }
  }
  const StringDictionary& dict = db.dictionary();
  h = Mix(h, dict.size());
  for (uint32_t c = 0; c < dict.size(); ++c) {
    h = Mix(h, Fnv1a64(dict.str(c)));
  }
  return h;
}

// Canonical textual dump of the full database state — every cell's tag
// and raw bits, sealed-block census, and the dictionary in code order.
// Two ingest paths that produce bit-identical databases produce
// byte-identical dumps, so CI can `cmp` DOM vs streaming exports.
void ExportDatabase(const Database& db, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  XS_CHECK(f != nullptr);
  for (const std::string& name : db.TableNames()) {
    const Table* t = db.FindTable(name);
    std::fprintf(f, "table %s rows %lld\n", name.c_str(),
                 static_cast<long long>(t->row_count()));
    for (int c = 0; c < t->schema().num_columns(); ++c) {
      const ColumnVector& col = t->column(c);
      std::fprintf(f, "column %s bytes %lld blocks %zu encoded %lld\n",
                   t->schema().columns[c].name.c_str(),
                   static_cast<long long>(col.byte_total()),
                   col.num_sealed_blocks(),
                   static_cast<long long>(col.sealed_encoded_bytes()));
      BlockCursor cursor(col);
      for (size_t b = 0; b < cursor.num_blocks(); ++b) {
        BlockView view = cursor.Read(b);
        for (size_t i = 0; i < view.rows; ++i) {
          std::fprintf(f, "%u:%llx\n", view.tags[i],
                       static_cast<unsigned long long>(view.data[i]));
        }
      }
    }
  }
  const StringDictionary& dict = db.dictionary();
  std::fprintf(f, "dict %zu\n", dict.size());
  for (uint32_t c = 0; c < dict.size(); ++c) {
    std::fprintf(f, "%u %s\n", c, std::string(dict.str(c)).c_str());
  }
  std::fclose(f);
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// The most-populated relation: where the index build costs most.
std::string LargestTable(const Database& db) {
  std::string best;
  int64_t best_rows = -1;
  for (const std::string& name : db.TableNames()) {
    const Table* t = db.FindTable(name);
    if (t->row_count() > best_rows) {
      best_rows = t->row_count();
      best = name;
    }
  }
  return best;
}

int Main(int argc, char** argv) {
  const BenchFlags flags = ExtractBenchFlags(&argc, argv);
  // --mode both (default): the DOM and the streaming ingest, compared.
  // --mode dom / --mode stream: one ingest, then --export-out dumps the
  // canonical database state so CI can byte-compare the two paths.
  std::string mode = ExtractStringFlag(&argc, argv, "--mode");
  if (mode.empty()) mode = "both";
  const std::string export_out =
      ExtractStringFlag(&argc, argv, "--export-out");
  if (argc > 1 || (mode != "both" && mode != "dom" && mode != "stream")) {
    std::fprintf(stderr,
                 "usage: %s [--json out.json] [--metrics-out out.json] "
                 "[--mode both|dom|stream] [--export-out dump.txt]\n",
                 argv[0]);
    return 2;
  }

  PrintTitle("Streaming bulk ingest: DOM vs SAX",
             "one-pass ingest bit-identical to the DOM path; flat "
             "transient memory");

  DblpConfig config;
  config.num_inproceedings =
      static_cast<int64_t>(config.num_inproceedings * BenchScale());
  config.num_books = static_cast<int64_t>(config.num_books * BenchScale());
  GeneratedData data = GenerateDblp(config);
  const std::string xml = data.doc.ToXml();
  auto mapping = Mapping::Build(*data.tree);
  XS_CHECK_OK(mapping.status());

  if (mode != "both") {
    Database db;
    if (mode == "dom") {
      auto doc = ParseXml(xml);
      XS_CHECK_OK(doc.status());
      XS_CHECK_OK(ShredDocument(*doc, *data.tree, *mapping, &db).status());
    } else {
      StreamShredOptions options;
      options.metrics = &GlobalMetrics();
      XS_CHECK_OK(
          ShredStream(xml, *data.tree, *mapping, &db, options).status());
    }
    PrintRow({mode, std::to_string(db.TableNames().size()) + " tables"});
    if (!export_out.empty()) ExportDatabase(db, export_out);
    WriteMetricsOut(flags.metrics_out);
    return 0;
  }

  // DOM baseline: materialize the document, then shred it.
  double wall_ms_dom = 0;
  uint64_t dom_digest = 0;
  ShredStats dom_stats;
  {
    Database db;
    auto start = std::chrono::steady_clock::now();
    auto doc = ParseXml(xml);
    XS_CHECK_OK(doc.status());
    auto stats = ShredDocument(*doc, *data.tree, *mapping, &db);
    XS_CHECK_OK(stats.status());
    wall_ms_dom = MillisSince(start);
    dom_stats = *stats;
    dom_digest = DatabaseDigest(db);
  }

  PrintRow({"path", "wall ms", "rows", "batches", "transient KB"});
  PrintRow({"dom", FormatDouble(wall_ms_dom, 1),
            std::to_string(dom_stats.rows), "-", "-"});

  Database db;
  StreamShredOptions options;
  options.metrics = &GlobalMetrics();
  auto start = std::chrono::steady_clock::now();
  auto stream = ShredStream(xml, *data.tree, *mapping, &db, options);
  XS_CHECK_OK(stream.status());
  const double wall_ms_ingest = MillisSince(start);
  const ShredStats& stats = *stream;
  XS_CHECK(DatabaseDigest(db) == dom_digest);
  XS_CHECK(stats.rows == dom_stats.rows);
  XS_CHECK(stats.elements == dom_stats.elements);

  // Index build on the largest relation.
  IndexDef def;
  def.name = "ix_bench_ingest";
  def.table = LargestTable(db);
  const Table* table = db.FindTable(def.table);
  def.key_columns = {table->schema().num_columns() - 1};
  def.included_columns = {0};
  auto index_start = std::chrono::steady_clock::now();
  XS_CHECK_OK(db.CreateIndex(def));
  const double wall_ms_index = MillisSince(index_start);
  const int64_t index_entries = db.FindIndex(def.name)->entry_count();

  PrintRow({"stream", FormatDouble(wall_ms_ingest, 1),
            std::to_string(stats.rows), std::to_string(stats.batches_emitted),
            std::to_string(stats.transient_peak_bytes / 1024)});

  if (!flags.json_path.empty()) {
    std::FILE* f = std::fopen(flags.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", flags.json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"ingest\",\n");
    std::fprintf(f, "  \"scale\": %g,\n", BenchScale());
    std::fprintf(f, "  \"xml_bytes\": %lld,\n",
                 static_cast<long long>(xml.size()));
    std::fprintf(f, "  \"digest\": \"%llx\",\n",
                 static_cast<unsigned long long>(dom_digest));
    std::fprintf(f, "  \"dom\": {\n");
    std::fprintf(f, "    \"wall_ms\": %.3f,\n", wall_ms_dom);
    std::fprintf(f, "    \"rows\": %lld,\n",
                 static_cast<long long>(dom_stats.rows));
    std::fprintf(f, "    \"elements\": %lld\n",
                 static_cast<long long>(dom_stats.elements));
    std::fprintf(f, "  },\n  \"stream\": {\n");
    std::fprintf(f, "    \"wall_ms_ingest\": %.3f,\n", wall_ms_ingest);
    std::fprintf(f, "    \"wall_ms_index\": %.3f,\n", wall_ms_index);
    std::fprintf(f, "    \"batches_emitted\": %lld,\n",
                 static_cast<long long>(stats.batches_emitted));
    std::fprintf(f, "    \"peak_batch_bytes\": %lld,\n",
                 static_cast<long long>(stats.peak_batch_bytes));
    std::fprintf(f, "    \"transient_peak_bytes\": %lld,\n",
                 static_cast<long long>(stats.transient_peak_bytes));
    std::fprintf(f, "    \"index_entries\": %lld\n",
                 static_cast<long long>(index_entries));
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
  }
  WriteMetricsOut(flags.metrics_out);
  return 0;
}

}  // namespace
}  // namespace xmlshred::bench

int main(int argc, char** argv) {
  return xmlshred::bench::Main(argc, argv);
}
