// pipebench: end-to-end benchmark of the XML-to-relational pipeline.
//
//   pipebench --workload ingest|advise --seed N --seconds S
//             --trace 0|1 [--scale X] [--trace-out FILE]
//
// Set-up runs the whole pipeline once per repetition: generate the DBLP
// schema (paper Fig. 1a) and data, serialize the document with its
// records in a seed-driven order, collect statistics, generate the
// LP-LS-20 (tuned) and HP-HS-20 (ad-hoc) XPath workloads, run GreedySearch
// on the tuned workload under a storage bound of 3x data pages (paper
// Table 1), stream-shred the document under the chosen mapping, build its
// indexes and views, and open a SessionManager over the result. Every
// knob stays at its library default.
//
// Each workload is a closed loop with one caller that times one kind of
// op for --seconds:
//   ingest  ShredStream + ApplyConfiguration into a fresh Database;
//   advise  one GreedySearch with default options.
// After each op, the caller submits the 20 tuned queries and the next
// ad-hoc one to the server over the set-up database, so every workload
// also measures the serving path. Every op and request is checked against
// a reference recorded after set-up, and after the loop an oracle checks
// every query's answer against the default mapping's; an op that fails a
// check counts as failed, never as fast, and the run exits 1.
//
// The gated latencies are low quantiles: the speed of the program in the
// moments the shared host leaves it alone. Medians and p90s are printed
// on a '#' line, ungated: on a shared host they measure its slow phases.
//
// --trace 1 is the per-layer mode: it alternates traced and untraced ops
// (the difference is the tracing overhead), then times direct calls into
// each module's public functions, recording one span per call from this
// file only. End-to-end metrics always come from --trace 0.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Lines before it starting with '#' record the environment, the host
// probe, the phases, and (traced) the per-layer self times. See README.md.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "mapping/mapping.h"
#include "mapping/stream_shredder.h"
#include "mapping/xml_stats.h"
#include "opt/planner.h"
#include "rel/catalog.h"
#include "rel/column_reader.h"
#include "rel/index.h"
#include "search/greedy.h"
#include "search/problem.h"
#include "serve/session.h"
#include "sql/binder.h"
#include "tune/advisor.h"
#include "workload/dblp.h"
#include "workload/query_gen.h"
#include "xml/stream_parser.h"
#include "xpath/translator.h"

#ifndef PIPEBENCH_BUILD_TYPE
#define PIPEBENCH_BUILD_TYPE "unknown"
#endif

namespace xmlshred::pipebench {
namespace {

using Clock = std::chrono::steady_clock;

// Samples that give a p90 at least 10 samples beyond it, and a
// kFastQuantile at least 5 samples below it.
constexpr size_t kMinOpSamples = 100;
// The quantile the gated latencies report (see FastLatency).
constexpr double kFastQuantile = 0.05;
// Set-ups per untraced run, half before the loop and half after it;
// setup_s is their median.
constexpr int kSetups = 6;
// Repetitions of each direct layer call in the traced mode.
constexpr int kProbeReps = 5;
constexpr double kMiB = 1024.0 * 1024.0;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Linear interpolation between closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Samples strictly above the p90 value.
size_t BeyondP90(const std::vector<double>& v) {
  double p90 = Quantile(v, 0.9);
  return static_cast<size_t>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > p90; }));
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

// Host-phase probe: a fixed sort of random strings, independent of the
// seed and of the program under test. Printed, never gated.
double HostProbeMs() {
  std::vector<std::string> base;
  base.reserve(200000);
  uint64_t x = 12345;
  for (int i = 0; i < 200000; ++i) {
    std::string s(12, ' ');
    for (char& c : s) {
      x = SplitMix(x);
      c = static_cast<char>('a' + x % 26);
    }
    base.push_back(std::move(s));
  }
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<std::string> v = base;
    Clock::time_point t0 = Clock::now();
    std::sort(v.begin(), v.end());
    times.push_back(MsBetween(t0, Clock::now()));
  }
  return Median(times);
}

// ---------------------------------------------------------------------
// Spans recorded from this file around calls into the library. The
// library's TraceSink (common/trace.h) keeps durations only; these spans
// need their start and end times and the op they belong to.

struct Span {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  int parent = -1;
  int64_t op = -1;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  void set_op(int64_t op) { op_ = op; }

  // Returns the span index, or -1 when disabled.
  int Begin(std::string name) {
    if (!enabled_) return -1;
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.op = op_;
    s.start_ms = MsBetween(origin_, Clock::now());
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ms = MsBetween(origin_, Clock::now());
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point origin_;
  int64_t op_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string name)
      : tracer_(tracer), id_(tracer->Begin(std::move(name))) {}
  ~SpanScope() { tracer_->End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------
// Pipeline set-up.

struct Inputs {
  uint64_t seed = 1;
  double scale = 1.0;
};

struct Fixture {
  std::unique_ptr<SchemaTree> tree;  // original annotated schema
  std::string xml;
  std::unique_ptr<XmlStatistics> stats;
  XPathWorkload tuned;  // LP-LS-20: the workload the design is built for
  XPathWorkload adhoc;  // HP-HS-20 from another seed
  DesignProblem problem;
  SearchResult design;
  std::unique_ptr<Database> db;  // the design, loaded
  std::unique_ptr<SessionManager> server;
  uint64_t session = 0;
};

// The ingest op: stream-shred the document under the design's mapping
// into a fresh database, then build the design's indexes and views.
Result<std::unique_ptr<Database>> Load(const Fixture& f, Tracer* tracer) {
  auto db = std::make_unique<Database>();
  {
    SpanScope span(tracer, "mapping.shred_stream");
    XS_RETURN_IF_ERROR(
        ShredStream(f.xml, *f.design.tree, f.design.mapping, db.get())
            .status());
  }
  SpanScope span(tracer, "tune.apply_configuration");
  XS_RETURN_IF_ERROR(ApplyConfiguration(f.design.configuration, db.get()));
  return db;
}

// Seed-driven Fisher-Yates permutation of [0, n).
std::vector<size_t> Permutation(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  uint64_t x = seed;
  for (size_t i = n; i > 1; --i) {
    x = SplitMix(x);
    std::swap(order[i - 1], order[x % i]);
  }
  return order;
}

// Serializes `doc` with its records in a seed-driven order: each run of
// same-tag top-level records is permuted in place, which keeps the
// schema's inproceedings-then-book sequence. The identity permutation
// gives exactly XmlDocument::ToXml. The result is sized once, so the
// process's peak memory does not depend on the order.
std::string SerializeShuffled(const XmlDocument& doc, uint64_t seed) {
  const XmlElement& root = *doc.root();
  std::vector<std::string> records;
  size_t bytes = 0;
  for (const auto& record : root.children()) {
    records.push_back(record->ToXml(1));
    bytes += records.back().size();
  }
  const std::string open = "<?xml version=\"1.0\"?>\n<" + root.tag() + ">\n";
  const std::string close = "</" + root.tag() + ">\n";
  std::string xml;
  xml.reserve(open.size() + bytes + close.size());
  xml += open;
  const auto& children = root.children();
  for (size_t begin = 0; begin < records.size();) {
    size_t end = begin;
    while (end < records.size() &&
           children[end]->tag() == children[begin]->tag()) {
      ++end;
    }
    for (size_t i : Permutation(end - begin, SplitMix(seed ^ begin))) {
      xml += records[begin + i];
    }
    begin = end;
  }
  xml += close;
  return xml;
}

// The generated inputs: schema, serialized document, statistics, and
// both query workloads. The data set and both workloads are the same in
// every run, so every run searches the same statistics and finds the same
// design; the seed permutes the document's record order: what ingest, the
// block encodings, the zone maps and the row ids see.
Result<std::unique_ptr<Fixture>> Generate(const Inputs& in) {
  auto f = std::make_unique<Fixture>();
  DblpConfig config;
  config.num_inproceedings = std::llround(20000 * in.scale);
  config.num_books = std::llround(2000 * in.scale);
  {
    GeneratedData data = GenerateDblp(config);
    f->tree = std::move(data.tree);
    f->xml = SerializeShuffled(data.doc, in.seed);
    // Statistics are counts and value histograms: the record order does
    // not change them.
    XS_ASSIGN_OR_RETURN(XmlStatistics stats,
                        XmlStatistics::Collect(data.doc, *f->tree));
    f->stats = std::make_unique<XmlStatistics>(std::move(stats));
  }
  // LP-LS-20 and HP-HS-20 with the seeds the repository's figure benches
  // give them (bench/util.cc DblpWorkloadSpecs).
  WorkloadSpec tuned_spec;
  tuned_spec.seed = 104;
  XS_ASSIGN_OR_RETURN(f->tuned,
                      GenerateWorkload(*f->tree, *f->stats, tuned_spec));
  WorkloadSpec adhoc_spec;
  adhoc_spec.selectivity = SelectivityClass::kHigh;
  adhoc_spec.projections = ProjectionClass::kHigh;
  adhoc_spec.seed = 107;
  XS_ASSIGN_OR_RETURN(f->adhoc,
                      GenerateWorkload(*f->tree, *f->stats, adhoc_spec));
  return f;
}

// The pipeline a user runs before the first query: generate, search,
// load, serve.
Result<std::unique_ptr<Fixture>> Setup(const Inputs& in) {
  XS_ASSIGN_OR_RETURN(std::unique_ptr<Fixture> f, Generate(in));
  XS_ASSIGN_OR_RETURN(Mapping start, Mapping::Build(*f->tree));
  f->problem.tree = f->tree.get();
  f->problem.stats = f->stats.get();
  f->problem.workload = f->tuned;
  f->problem.storage_bound_pages =
      3 * f->stats->DeriveCatalog(*f->tree, start).DataPages();

  XS_ASSIGN_OR_RETURN(f->design, GreedySearch(f->problem));
  Tracer off(false);
  XS_ASSIGN_OR_RETURN(f->db, Load(*f, &off));
  f->server = std::make_unique<SessionManager>(
      f->db.get(), *f->design.tree, f->design.mapping, ServeConfig{},
      /*metrics=*/nullptr);
  f->session = f->server->OpenSession();
  return f;
}

// ---------------------------------------------------------------------
// References for the output checks, recorded once after set-up.

// Full database state: every table and view (rows, stored bytes, and
// every cell read back through the storage read path), every index's
// entry count, and the dictionary in code order. `config` names the views
// and indexes.
uint64_t DatabaseDigest(const Database& db, const TunerResult& config) {
  std::vector<std::string> tables = db.TableNames();
  for (const ViewDesc& view : config.views) tables.push_back(view.def.name);
  uint64_t h = 14695981039346656037ULL;
  for (const std::string& name : tables) {
    const Table* t = db.FindTable(name);
    if (t == nullptr) return 0;
    const size_t rows = static_cast<size_t>(t->row_count());
    h = Mix(h, Fnv1a64(name));
    h = Mix(h, rows);
    h = Mix(h, static_cast<uint64_t>(t->stored_bytes()));
    for (int c = 0; c < t->schema().num_columns(); ++c) {
      ColumnReader reader(t->column(c), DefaultStorageReadMode());
      for (size_t rid = 0; rid < rows; ++rid) {
        Cell cell = reader.At(rid);
        h = Mix(h, cell.tag);
        h = Mix(h, cell.bits);
      }
    }
  }
  for (const IndexDesc& index : config.indexes) {
    const BTreeIndex* built = db.FindIndex(index.def.name);
    if (built == nullptr) return 0;
    h = Mix(h, Fnv1a64(index.def.name));
    h = Mix(h, static_cast<uint64_t>(built->entry_count()));
  }
  const StringDictionary& dict = db.dictionary();
  h = Mix(h, dict.size());
  for (uint32_t c = 0; c < dict.size(); ++c) h = Mix(h, Fnv1a64(dict.str(c)));
  return h;
}

// Stored table, view and index bytes plus dictionary bytes.
int64_t StoredBytes(const Database& db) {
  int64_t bytes = db.TotalStoredBytes() + db.dictionary().ByteSize();
  for (const IndexDesc& index : db.BuildCatalogDesc().indexes) {
    bytes += std::llround(static_cast<double>(index.entry_count) *
                          index.entry_bytes);
  }
  return bytes;
}

// The design a search returned: mapping plus configuration.
std::string DesignId(const SearchResult& r) {
  std::string id = r.mapping.ToString();
  for (const IndexDesc& index : r.configuration.indexes) {
    id += "|index " + index.def.name;
  }
  for (const ViewDesc& view : r.configuration.views) {
    id += "|view " + view.def.name;
  }
  return id;
}

struct QueryRef {
  XPathQuery query;
  int64_t rows_out = 0;
  double work = 0;
  // The answer under the design equals the answer under the default
  // mapping with no indexes or views (checked when the oracle ran).
  bool oracle_ok = true;
};

struct References {
  uint64_t db_digest = 0;
  std::string design_id;
  double design_cost = 0;
  std::vector<QueryRef> tuned;
  std::vector<QueryRef> adhoc;
  int oracle_failures = 0;
};

struct DirectRun {
  uint64_t answer_hash = 0;  // of the CanonicalizeResult rows, on request
  ExecMetrics metrics;
  double translate_us = 0, bind_us = 0, plan_us = 0, run_ms = 0;
};

uint64_t HashRows(const std::vector<std::string>& rows) {
  uint64_t h = rows.size();
  for (const std::string& row : rows) h = Mix(h, Fnv1a64(row));
  return h;
}

// TranslateXPath -> BindQuery -> PlanQuery -> Executor::Run, each timed.
Result<DirectRun> RunDirect(const XPathQuery& q, const SchemaTree& tree,
                            const Mapping& mapping, const Database& db,
                            const CatalogDesc& catalog, Tracer* tracer,
                            bool hash_answer = false) {
  DirectRun out;
  Clock::time_point t0 = Clock::now();
  int span = tracer->Begin("xpath.translate");
  Result<TranslatedQuery> translated = TranslateXPath(q, tree, mapping);
  tracer->End(span);
  Clock::time_point t1 = Clock::now();
  XS_RETURN_IF_ERROR(translated.status());
  span = tracer->Begin("sql.bind");
  Result<BoundQuery> bound = BindQuery(translated->sql, catalog);
  tracer->End(span);
  Clock::time_point t2 = Clock::now();
  XS_RETURN_IF_ERROR(bound.status());
  span = tracer->Begin("opt.plan");
  Result<PlannedQuery> planned = PlanQuery(*bound, catalog);
  tracer->End(span);
  Clock::time_point t3 = Clock::now();
  XS_RETURN_IF_ERROR(planned.status());
  span = tracer->Begin("exec.run");
  Result<std::vector<Row>> rows =
      Executor(db).Run(*planned->root, &out.metrics, ExecOptions{});
  tracer->End(span);
  Clock::time_point t4 = Clock::now();
  XS_RETURN_IF_ERROR(rows.status());
  out.translate_us = MsBetween(t0, t1) * 1000;
  out.bind_us = MsBetween(t1, t2) * 1000;
  out.plan_us = MsBetween(t2, t3) * 1000;
  out.run_ms = MsBetween(t3, t4);
  if (hash_answer) {
    out.answer_hash = HashRows(CanonicalizeResult(*translated, *rows));
  }
  return out;
}

Result<References> BuildReferences(const Fixture& f) {
  References refs;
  refs.db_digest = DatabaseDigest(*f.db, f.design.configuration);
  refs.design_id = DesignId(f.design);
  refs.design_cost = f.design.estimated_cost;

  const CatalogDesc catalog = f.db->BuildCatalogDesc();
  Tracer off(false);
  auto record = [&](const XPathWorkload& workload,
                    std::vector<QueryRef>* out) -> Status {
    for (const XPathQuery& q : workload) {
      XS_ASSIGN_OR_RETURN(DirectRun served,
                          RunDirect(q, *f.design.tree, f.design.mapping,
                                    *f.db, catalog, &off));
      QueryRef ref;
      ref.query = q;
      ref.rows_out = served.metrics.rows_out;
      ref.work = served.metrics.work;
      out->push_back(std::move(ref));
    }
    return Status::OK();
  };
  XS_RETURN_IF_ERROR(record(f.tuned, &refs.tuned));
  XS_RETURN_IF_ERROR(record(f.adhoc, &refs.adhoc));
  return refs;
}

// Marks each reference: oracle_ok when the query's CanonicalizeResult rows
// under the design equal its rows under the default mapping of the
// original schema with no indexes or views. Runs after the timed loop and
// after peak_rss_mb is read, so its database and canonical rows count
// toward neither.
Status CheckAgainstOracle(const Fixture& f, References* refs) {
  XS_ASSIGN_OR_RETURN(Mapping plain_mapping, Mapping::Build(*f.tree));
  Database plain_db;
  XS_RETURN_IF_ERROR(
      ShredStream(f.xml, *f.tree, plain_mapping, &plain_db).status());
  const CatalogDesc plain_catalog = plain_db.BuildCatalogDesc();
  const CatalogDesc catalog = f.db->BuildCatalogDesc();
  Tracer off(false);
  for (std::vector<QueryRef>* refs_of_class : {&refs->tuned, &refs->adhoc}) {
    for (QueryRef& ref : *refs_of_class) {
      XS_ASSIGN_OR_RETURN(DirectRun served,
                          RunDirect(ref.query, *f.design.tree,
                                    f.design.mapping, *f.db, catalog, &off,
                                    /*hash_answer=*/true));
      XS_ASSIGN_OR_RETURN(DirectRun expected,
                          RunDirect(ref.query, *f.tree, plain_mapping,
                                    plain_db, plain_catalog, &off,
                                    /*hash_answer=*/true));
      ref.oracle_ok = served.answer_hash == expected.answer_hash;
      if (!ref.oracle_ok) ++refs->oracle_failures;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Timed loops.

struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// Latencies by key (a query of a class, or the workload's one op), in the
// order they were measured.
using ClassSamples = std::vector<std::vector<double>>;

std::vector<double> Flatten(const ClassSamples& samples) {
  std::vector<double> all;
  for (const std::vector<double>& query : samples) {
    all.insert(all.end(), query.begin(), query.end());
  }
  return all;
}

// Submit latencies of the requests that follow the ops, by class.
struct RequestSamples {
  ClassSamples tuned, adhoc;
};

// Moves the samples of every query that failed the oracle to the failed
// count: a wrong answer is a failed request, not a fast one.
void DropOracleFailures(const References& refs, Tally* tally,
                        RequestSamples* samples) {
  auto drop = [&](const std::vector<QueryRef>& refs_of_class,
                  ClassSamples* of_class) {
    for (size_t i = 0; i < refs_of_class.size() && i < of_class->size();
         ++i) {
      if (refs_of_class[i].oracle_ok) continue;
      tally->failed += static_cast<int64_t>((*of_class)[i].size());
      (*of_class)[i].clear();
    }
  };
  drop(refs.tuned, &samples->tuned);
  drop(refs.adhoc, &samples->adhoc);
}

// The gated latency of a set of keys (the queries of a class, or the one
// op of the workload): each key's kFastQuantile over its samples, then the
// median over the keys. The
// tuned queries' costs differ by up to 30x, so an order statistic of the
// pooled requests would fall in the gap between two queries and swing with
// the extremes of both. The host's speed switches between modes that last
// from a second to minutes, and the share of a run spent in the slow ones
// decides its median; a low quantile lies in the fast mode of every run.
double FastLatency(const ClassSamples& samples) {
  std::vector<double> per_key;
  for (const std::vector<double>& key : samples) {
    if (!key.empty()) per_key.push_back(Quantile(key, kFastQuantile));
  }
  return Median(per_key);
}

// A class's median and tail, printed ungated. The median is each query's
// median over its requests, then the median over the class's queries. The
// p90 is the p90, over every request of the class, of the request's
// latency divided by its own query's median, times the class median: the
// tail of one typical query, with a tenth of the class's requests beyond
// it.
struct ClassLatency {
  double median_ms = 0;
  double p90_ms = 0;
  size_t requests = 0;
  size_t requests_beyond_p90 = 0;
};

ClassLatency Summarize(const ClassSamples& samples) {
  ClassLatency out;
  std::vector<double> medians, ratios;
  for (const std::vector<double>& query : samples) {
    if (query.empty()) continue;
    const double median = Median(query);
    medians.push_back(median);
    for (double ms : query) ratios.push_back(ms / median);
  }
  out.requests = ratios.size();
  out.median_ms = Median(medians);
  const double p90_ratio = Quantile(ratios, 0.9);
  out.p90_ms = p90_ratio * out.median_ms;
  out.requests_beyond_p90 = static_cast<size_t>(std::count_if(
      ratios.begin(), ratios.end(), [&](double r) { return r > p90_ratio; }));
  return out;
}

// Submits query i of a class and checks the response against its
// reference; the latency of a request that passes lands in (*samples)[i].
void SubmitChecked(const Fixture& f,
                   const std::vector<QueryRef>& refs_of_class, size_t i,
                   Tracer* tracer, Tally* tally, ClassSamples* samples) {
  const QueryRef& ref = refs_of_class[i];
  ServeRequest request;
  request.query = ref.query;
  int span = tracer->Begin("serve.submit");
  Clock::time_point t0 = Clock::now();
  ServeResponse resp = f.server->Submit(f.session, request);
  Clock::time_point t1 = Clock::now();
  tracer->End(span);
  const bool ok = resp.status.ok() && resp.rows_out == ref.rows_out &&
                  resp.work == ref.work;
  tally->Count(ok);
  if (ok) (*samples)[i].push_back(MsBetween(t0, t1));
}

bool IngestOp(const Fixture& f, const References& refs, Tracer* tracer,
              double* ms) {
  Clock::time_point t0 = Clock::now();
  Result<std::unique_ptr<Database>> db = Load(f, tracer);
  *ms = MsBetween(t0, Clock::now());
  return db.ok() &&
         DatabaseDigest(**db, f.design.configuration) == refs.db_digest;
}

bool AdviseOp(const Fixture& f, const References& refs, Tracer* tracer,
              double* ms) {
  Clock::time_point t0 = Clock::now();
  int span = tracer->Begin("search.greedy");
  Result<SearchResult> r = GreedySearch(f.problem);
  tracer->End(span);
  *ms = MsBetween(t0, Clock::now());
  return r.ok() && DesignId(*r) == refs.design_id &&
         r->estimated_cost == refs.design_cost;
}

// Runs the workload's own op for `seconds`, and on until there are
// kMinOpSamples op samples or twice `seconds` have passed. After each op it
// submits every tuned query and the next ad-hoc one, cycling through the
// ad-hoc workload, so that the class latencies sample every moment of the
// loop, as the ops do. With `alternate`, every other op is traced (the
// traced mode's overhead measurement): samples of traced ones land in
// *traced / *requests_traced.
void RunOpLoop(const std::string& workload, const Fixture& f,
               const References& refs, double seconds, Tracer* tracer,
               bool alternate, Tally* tally, std::vector<double>* plain,
               std::vector<double>* traced, RequestSamples* requests_plain,
               RequestSamples* requests_traced) {
  Tracer off(false);
  requests_plain->tuned.resize(refs.tuned.size());
  requests_plain->adhoc.resize(refs.adhoc.size());
  *requests_traced = *requests_plain;
  // Next ad-hoc query, untraced and traced, so that both sides cycle
  // through every query.
  size_t next_adhoc[2] = {0, 0};
  const Clock::time_point start = Clock::now();
  auto elapsed_s = [&] { return MsBetween(start, Clock::now()) / 1000; };
  auto more = [&] {
    return elapsed_s() < seconds ||
           (!alternate && plain->size() < kMinOpSamples &&
            elapsed_s() < 2 * seconds);
  };
  for (int64_t op = 0; more(); ++op) {
    const bool trace_this = alternate && op % 2 == 1;
    Tracer* t = trace_this ? tracer : &off;
    RequestSamples* samples = trace_this ? requests_traced : requests_plain;
    t->set_op(op);
    SpanScope span(t, "bench.op");
    double ms = 0;
    const bool ok = workload == "ingest" ? IngestOp(f, refs, t, &ms)
                                         : AdviseOp(f, refs, t, &ms);
    tally->Count(ok);
    if (ok) (trace_this ? traced : plain)->push_back(ms);
    for (size_t i = 0; i < refs.tuned.size(); ++i) {
      SubmitChecked(f, refs.tuned, i, t, tally, &samples->tuned);
    }
    const size_t i = next_adhoc[trace_this ? 1 : 0]++;
    SubmitChecked(f, refs.adhoc, i % refs.adhoc.size(), t, tally,
                  &samples->adhoc);
  }
}

// ---------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, const Tally& tally,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  Inputs inputs;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->inputs.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      have_trace = std::string(value) == "0" || std::string(value) == "1";
      args->trace = std::string(value) == "1";
    } else if (flag == "--scale") {
      args->inputs.scale = std::strtod(value, &end);
      if (*end != '\0' || args->inputs.scale <= 0) return false;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace &&
         (args->workload == "ingest" || args->workload == "advise");
}

void PrintEnvironment(const Args& args, const Fixture& f) {
  std::printf(
      "# env {\"nproc\": %d, \"search_threads\": %d, \"exec_threads\": %d, "
      "\"ingest_threads\": %d, \"build_type\": \"%s\", \"scale\": %g, "
      "\"seed\": %llu, \"xml_bytes\": %zu, \"workload\": \"%s\", "
      "\"trace\": %d}\n",
      ThreadPool::HardwareThreads(),
      ResolveNumThreads(GreedyOptions{}.num_threads),
      ServeConfig{}.exec_threads, StreamShredOptions{}.threads,
      PIPEBENCH_BUILD_TYPE, args.inputs.scale,
      static_cast<unsigned long long>(args.inputs.seed), f.xml.size(),
      args.workload.c_str(), args.trace ? 1 : 0);
}

// ---------------------------------------------------------------------
// Traced mode: direct calls into each layer.

Status ProbeLayers(const Fixture& f, Tracer* tracer,
                   std::vector<Metric>* out) {
  // --- xml / mapping / tune: the ingest path.
  std::vector<double> parse_ms, shred_ms, apply_ms;
  ShredStats stats;
  std::unique_ptr<Database> db;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    tracer->set_op(-1);
    {
      SpanScope probe(tracer, "bench.probe");
      Clock::time_point t0 = Clock::now();
      {
        SpanScope span(tracer, "xml.stream_parse");
        XmlStreamParser parser(f.xml);
        while (true) {
          Result<XmlEvent> event = parser.Next();
          XS_RETURN_IF_ERROR(event.status());
          if (event->kind == XmlEventKind::kEndOfInput) break;
        }
      }
      parse_ms.push_back(MsBetween(t0, Clock::now()));
    }
    db = std::make_unique<Database>();
    SpanScope probe(tracer, "bench.probe");
    Clock::time_point t0 = Clock::now();
    {
      SpanScope span(tracer, "mapping.shred_stream");
      XS_ASSIGN_OR_RETURN(stats, ShredStream(f.xml, *f.design.tree,
                                             f.design.mapping, db.get()));
    }
    Clock::time_point t1 = Clock::now();
    {
      SpanScope span(tracer, "tune.apply_configuration");
      XS_RETURN_IF_ERROR(ApplyConfiguration(f.design.configuration, db.get()));
    }
    shred_ms.push_back(MsBetween(t0, t1));
    apply_ms.push_back(MsBetween(t1, Clock::now()));
  }
  out->push_back({"xml.parse_ms", Median(parse_ms), "ms"});
  out->push_back({"mapping.shred_ms", Median(shred_ms), "ms"});
  out->push_back({"tune.apply_ms", Median(apply_ms), "ms"});
  out->push_back({"mapping.rows", static_cast<double>(stats.rows), "count"});
  out->push_back({"mapping.batches",
                  static_cast<double>(stats.batches_emitted), "count"});
  out->push_back({"mapping.transient_peak_mb",
                  static_cast<double>(stats.transient_peak_bytes) / kMiB,
                  "MB"});
  out->push_back({"rel.stored_mb",
                  static_cast<double>(db->TotalStoredBytes()) / kMiB, "MB"});
  out->push_back({"rel.dict_entries",
                  static_cast<double>(db->dictionary().size()), "count"});
  db.reset();

  // --- search / tune / opt: the advise path.
  MetricsRegistry registry;
  DesignProblem problem = f.problem;
  problem.exec.metrics = &registry;
  SearchTelemetry telemetry;
  {
    SpanScope probe(tracer, "bench.probe");
    SpanScope span(tracer, "search.greedy");
    XS_ASSIGN_OR_RETURN(SearchResult r, GreedySearch(problem));
    telemetry = r.telemetry;
  }
  out->push_back({"search.transformations",
                  static_cast<double>(telemetry.transformations_searched),
                  "count"});
  out->push_back({"search.rounds", static_cast<double>(telemetry.rounds),
                  "count"});
  out->push_back({"search.tuner_calls",
                  static_cast<double>(telemetry.tuner_calls), "count"});
  out->push_back({"search.optimizer_calls",
                  static_cast<double>(telemetry.optimizer_calls), "count"});

  XS_ASSIGN_OR_RETURN(Mapping start, Mapping::Build(*f.tree));
  XS_ASSIGN_OR_RETURN(std::vector<WeightedQuery> translated,
                      TranslateWorkload(f.tuned, *f.tree, start));
  std::vector<double> cost_ms, tune_ms, derive_ms, plan_us;
  CatalogDesc derived;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    SpanScope probe(tracer, "bench.probe");
    Clock::time_point t0 = Clock::now();
    {
      SpanScope span(tracer, "mapping.derive_catalog");
      derived = f.stats->DeriveCatalog(*f.tree, start);
    }
    Clock::time_point t1 = Clock::now();
    {
      SpanScope span(tracer, "search.cost_mapping");
      SearchTelemetry telemetry_of_call;
      XS_RETURN_IF_ERROR(
          CostMapping(f.problem, *f.tree, &telemetry_of_call).status());
    }
    Clock::time_point t2 = Clock::now();
    {
      SpanScope span(tracer, "tune.tune");
      PhysicalDesignAdvisor advisor(EffectiveTunerOptions(f.problem));
      XS_RETURN_IF_ERROR(advisor.Tune(translated, derived).status());
    }
    Clock::time_point t3 = Clock::now();
    derive_ms.push_back(MsBetween(t0, t1));
    cost_ms.push_back(MsBetween(t1, t2));
    tune_ms.push_back(MsBetween(t2, t3));
    for (const WeightedQuery& wq : translated) {
      XS_ASSIGN_OR_RETURN(BoundQuery bound, BindQuery(wq.query, derived));
      SpanScope span(tracer, "opt.whatif_plan");
      Clock::time_point p0 = Clock::now();
      XS_RETURN_IF_ERROR(PlanQuery(bound, derived).status());
      plan_us.push_back(MsBetween(p0, Clock::now()) * 1000);
    }
  }
  out->push_back({"search.cost_mapping_ms", Median(cost_ms), "ms"});
  out->push_back({"tune.tune_ms", Median(tune_ms), "ms"});
  out->push_back({"opt.whatif_plan_us", Median(plan_us), "us"});
  out->push_back({"mapping.derive_catalog_ms", Median(derive_ms), "ms"});
  const double hits = static_cast<double>(
      registry.counter(kMetricCostCacheHits)->value());
  const double misses = static_cast<double>(
      registry.counter(kMetricCostCacheMisses)->value());
  out->push_back({"search.cache_hit_frac",
                  hits + misses > 0 ? hits / (hits + misses) : 0.0,
                  "fraction"});

  // --- xpath / sql / opt / exec / serve: the serve path, per class.
  const CatalogDesc catalog = f.db->BuildCatalogDesc();
  auto probe_class = [&](const XPathWorkload& workload,
                         const std::string& suffix) -> Status {
    std::vector<double> translate_us, bind_us, plan_served_us, run_ms,
        overhead_ms;
    ExecMetrics pass;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      for (const XPathQuery& q : workload) {
        SpanScope probe(tracer, "bench.probe");
        ServeRequest request;
        request.query = q;
        double submit_ms = 0;
        auto submit = [&]() -> Status {
          SpanScope span(tracer, "serve.submit");
          Clock::time_point t0 = Clock::now();
          ServeResponse resp = f.server->Submit(f.session, request);
          submit_ms = MsBetween(t0, Clock::now());
          return resp.status;
        };
        // Alternate the call order so neither side always runs warm.
        if (rep % 2 == 1) XS_RETURN_IF_ERROR(submit());
        Result<DirectRun> direct = [&] {
          SpanScope span(tracer, "bench.direct");
          return RunDirect(q, *f.design.tree, f.design.mapping, *f.db,
                           catalog, tracer);
        }();
        XS_RETURN_IF_ERROR(direct.status());
        if (rep % 2 == 0) XS_RETURN_IF_ERROR(submit());
        translate_us.push_back(direct->translate_us);
        bind_us.push_back(direct->bind_us);
        plan_served_us.push_back(direct->plan_us);
        run_ms.push_back(direct->run_ms);
        overhead_ms.push_back(submit_ms - direct->translate_us / 1000 -
                              direct->bind_us / 1000 -
                              direct->plan_us / 1000 - direct->run_ms);
        if (rep == 0) {
          pass.rows_out += direct->metrics.rows_out;
          pass.work += direct->metrics.work;
          pass.pages_sequential += direct->metrics.pages_sequential;
          pass.pages_random += direct->metrics.pages_random;
          pass.blocks_scanned += direct->metrics.blocks_scanned;
          pass.blocks_skipped += direct->metrics.blocks_skipped;
        }
      }
    }
    out->push_back({"xpath.translate_us" + suffix, Median(translate_us),
                    "us"});
    out->push_back({"sql.bind_us" + suffix, Median(bind_us), "us"});
    out->push_back({"opt.plan_us" + suffix, Median(plan_served_us), "us"});
    out->push_back({"exec.run_ms" + suffix, Median(run_ms), "ms"});
    out->push_back({"serve.overhead_ms" + suffix, Median(overhead_ms),
                    "ms"});
    out->push_back({"exec.rows_out" + suffix,
                    static_cast<double>(pass.rows_out), "count"});
    out->push_back({"exec.work" + suffix, pass.work, "work_units"});
    out->push_back({"exec.pages" + suffix,
                    pass.pages_sequential + pass.pages_random, "pages"});
    out->push_back({"rel.blocks_scanned" + suffix,
                    static_cast<double>(pass.blocks_scanned), "count"});
    out->push_back({"rel.blocks_skipped" + suffix,
                    static_cast<double>(pass.blocks_skipped), "count"});
    const double touched =
        static_cast<double>(pass.blocks_scanned + pass.blocks_skipped);
    out->push_back({"rel.skip_frac" + suffix,
                    touched > 0 ? pass.blocks_skipped / touched : 0.0,
                    "fraction"});
    return Status::OK();
  };
  XS_RETURN_IF_ERROR(probe_class(f.tuned, ".tuned"));
  XS_RETURN_IF_ERROR(probe_class(f.adhoc, ".adhoc"));
  return Status::OK();
}

// Per layer (span-name prefix): span count, total and self time, where
// self time is a span's duration minus the time its child spans cover.
void PrintLayerTable(const std::string& workload,
                     const std::vector<Span>& spans) {
  std::vector<double> child_ms(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] += s.end_ms - s.start_ms;
    }
  }
  struct Row {
    std::string layer;
    int64_t spans = 0;
    double total_ms = 0, self_ms = 0;
  };
  std::vector<Row> rows;
  for (size_t i = 0; i < spans.size(); ++i) {
    std::string layer = spans[i].name.substr(0, spans[i].name.find('.'));
    auto it = std::find_if(rows.begin(), rows.end(),
                           [&](const Row& r) { return r.layer == layer; });
    if (it == rows.end()) {
      rows.push_back({layer});
      it = rows.end() - 1;
    }
    const double dur = spans[i].end_ms - spans[i].start_ms;
    ++it->spans;
    it->total_ms += dur;
    it->self_ms += dur - child_ms[i];
  }
  std::printf("# layer self time, workload %s\n", workload.c_str());
  std::printf("# %-10s %8s %12s %12s\n", "layer", "spans", "total_ms",
              "self_ms");
  for (const Row& r : rows) {
    std::printf("# %-10s %8lld %12.3f %12.3f\n", r.layer.c_str(),
                static_cast<long long>(r.spans), r.total_ms, r.self_ms);
  }
}

Status WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return Internal("cannot write " + path);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ms\": " << s.start_ms << ", \"end_ms\": " << s.end_ms
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}\n";
  }
  return out.good() ? Status::OK() : Internal("cannot write " + path);
}

// One set-up, its time appended to *setup_s and its fixture left in *out.
// The old fixture in *out is freed first, so that set-ups into one slot
// keep one fixture alive at a time.
Status TimedSetup(const Inputs& in, std::vector<double>* setup_s,
                  std::unique_ptr<Fixture>* out) {
  out->reset();
  Clock::time_point t0 = Clock::now();
  Result<std::unique_ptr<Fixture>> made = Setup(in);
  setup_s->push_back(MsBetween(t0, Clock::now()) / 1000);
  XS_RETURN_IF_ERROR(made.status());
  *out = std::move(*made);
  return Status::OK();
}

// ---------------------------------------------------------------------

int Run(const Args& args) {
  const double probe_before = HostProbeMs();

  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fixture;
  const int setups_before = args.trace ? 1 : kSetups / 2;
  for (int i = 0; i < setups_before; ++i) {
    Status made = TimedSetup(args.inputs, &setup_s, &fixture);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", made.ToString().c_str());
      return 1;
    }
  }
  const Fixture& f = *fixture;
  PrintEnvironment(args, f);

  const Clock::time_point refs_start = Clock::now();
  Result<References> refs = BuildReferences(f);
  const Clock::time_point loop_start = Clock::now();
  if (!refs.ok()) {
    std::fprintf(stderr, "reference run failed: %s\n",
                 refs.status().ToString().c_str());
    return 1;
  }

  Tracer tracer(args.trace);
  Tally tally;
  std::vector<double> plain_ms, traced_ms;  // op latencies
  RequestSamples requests_plain, requests_traced;
  RunOpLoop(args.workload, f, *refs, args.seconds, &tracer, args.trace,
            &tally, &plain_ms, &traced_ms, &requests_plain, &requests_traced);
  const Clock::time_point loop_end = Clock::now();
  const double peak_rss_mb = PeakRssMb();
  const double probe_after = HostProbeMs();

  // The oracle takes seconds (the ad-hoc queries become base-table joins),
  // so it runs once, after the loop; the requests of a query it fails
  // count as failed.
  Status checked = CheckAgainstOracle(f, &*refs);
  if (!checked.ok()) {
    std::fprintf(stderr, "oracle run failed: %s\n",
                 checked.ToString().c_str());
    return 1;
  }
  DropOracleFailures(*refs, &tally, &requests_plain);
  DropOracleFailures(*refs, &tally, &requests_traced);
  std::printf("# host_probe_ms {\"before\": %.3f, \"after\": %.3f}\n",
              probe_before, probe_after);
  std::printf("# phases_s {\"references\": %.3f, \"loop\": %.3f, "
              "\"oracle\": %.3f}\n",
              MsBetween(refs_start, loop_start) / 1000,
              MsBetween(loop_start, loop_end) / 1000,
              MsBetween(loop_end, Clock::now()) / 1000);

  // The other set-ups run now, so that setup_s samples the host at both
  // ends of the run; peak_rss_mb is already read.
  std::unique_ptr<Fixture> spare;
  for (int i = 0; !args.trace && i < kSetups - setups_before; ++i) {
    Status made = TimedSetup(args.inputs, &setup_s, &spare);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", made.ToString().c_str());
      return 1;
    }
  }

  // A workload has one kind of op: one key.
  const ClassSamples ops_plain{plain_ms}, ops_traced{traced_ms};
  const bool correct = tally.failed == 0 && refs->oracle_failures == 0;

  std::vector<Metric> metrics;
  if (!args.trace) {
    const ClassLatency tuned = Summarize(requests_plain.tuned);
    const ClassLatency adhoc = Summarize(requests_plain.adhoc);
    std::printf("# tails {\"op_median_ms\": %.4f, \"op_p90_ms\": %.4f, "
                "\"tuned_median_ms\": %.4f, \"tuned_p90_ms\": %.4f, "
                "\"adhoc_median_ms\": %.4f, \"adhoc_p90_ms\": %.4f}\n",
                Median(plain_ms), Quantile(plain_ms, 0.9), tuned.median_ms,
                tuned.p90_ms, adhoc.median_ms, adhoc.p90_ms);
    std::printf("# samples {\"op\": %zu, \"op_beyond_p90\": %zu, "
                "\"tuned\": %zu, \"tuned_beyond_p90\": %zu, \"adhoc\": %zu, "
                "\"adhoc_beyond_p90\": %zu, \"setups\": %zu}\n",
                plain_ms.size(), BeyondP90(plain_ms), tuned.requests,
                tuned.requests_beyond_p90, adhoc.requests,
                adhoc.requests_beyond_p90, setup_s.size());
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"ok_frac",
         tally.attempted > 0
             ? static_cast<double>(tally.attempted - tally.failed) /
                   static_cast<double>(tally.attempted)
             : 0.0,
         "fraction"},
        {"op_ms", FastLatency(ops_plain), "ms"},
        {"tuned_ms", FastLatency(requests_plain.tuned), "ms"},
        {"adhoc_ms", FastLatency(requests_plain.adhoc), "ms"},
        {"design_cost", f.design.estimated_cost, "work_units"},
        {"bytes_per_xml_byte",
         static_cast<double>(StoredBytes(*f.db)) /
             static_cast<double>(f.xml.size()),
         "ratio"},
    };
  } else {
    Status probed = ProbeLayers(f, &tracer, &metrics);
    if (!probed.ok()) {
      std::fprintf(stderr, "layer probe failed: %s\n",
                   probed.ToString().c_str());
      return 1;
    }
    // Traced minus untraced, in the gated statistic; 0 when a side has no
    // samples.
    auto overhead = [](const ClassSamples& traced, const ClassSamples& plain) {
      return Flatten(traced).empty() || Flatten(plain).empty()
                 ? 0.0
                 : FastLatency(traced) - FastLatency(plain);
    };
    metrics.push_back(
        {"trace.op_overhead_ms", overhead(ops_traced, ops_plain), "ms"});
    metrics.push_back(
        {"trace.tuned_overhead_ms",
         overhead(requests_traced.tuned, requests_plain.tuned), "ms"});
    metrics.push_back(
        {"trace.adhoc_overhead_ms",
         overhead(requests_traced.adhoc, requests_plain.adhoc), "ms"});
    PrintLayerTable(args.workload, tracer.spans());
    if (!args.trace_out.empty()) {
      Status written = WriteSpans(args.trace_out, tracer.spans());
      if (!written.ok()) {
        std::fprintf(stderr, "%s\n", written.ToString().c_str());
        return 1;
      }
      std::printf("# spans written to %s\n", args.trace_out.c_str());
    }
  }
  PrintResult(correct, tally, metrics);
  // A failed output check fails the run, whatever the metrics' bounds.
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace xmlshred::pipebench

int main(int argc, char** argv) {
  xmlshred::pipebench::Args args;
  if (!xmlshred::pipebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload ingest|advise --seed N "
                 "--seconds S --trace 0|1 [--scale X] [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  return xmlshred::pipebench::Run(args);
}
