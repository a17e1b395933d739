// Serving-layer soak: the paper's DBLP workload grid (the fig. 4 query
// mix) offered open-loop by N concurrent clients against one shared
// shredded database, driven through the SessionManager's deterministic
// virtual-time interface (serve/soak.h).
//
// Two sections:
//
//  * sweep — client counts {1, 2, 4, 8, 16} with per-client mean
//    inter-arrival gap equal to the mean per-query work, so offered load
//    crosses the 4-slot service capacity exactly at 4 clients. The
//    "overload" block asserts the robustness property: goodput at 4x
//    saturation stays within 10% of goodput at saturation (admission
//    control sheds the excess instead of collapsing).
//  * chaos — a fixed-seed run with probabilistic fault injection,
//    per-request deadlines, finite session budgets, and periodic
//    epoch-publishing appends; executed TWICE and required to produce
//    bit-identical counters ("runs_identical").
//
// Everything in --json is a deterministic observable — counts, metered
// work units, virtual-time latencies; wall-clock never enters the model
// — so bench_results/BENCH_serving.json is byte-stable and CI diffs it
// with tools/compare_bench.py --rel-tol 0.0.
//
// The chaos runs additionally serve with full telemetry on (DESIGN.md
// §15): windowed time-series, 1-in-8 head-sampled request traces, and a
// flight recorder capturing post-mortems on sheds / governor trips /
// fault firings. Both chaos runs must export bit-identical documents;
// `--timeseries-out`, `--traces-out`, `--events-out`, and
// `--postmortem-dir` write the first run's, and --json carries their
// digests.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/util.h"
#include "common/logging.h"
#include "common/strings.h"
#include "mapping/mapping.h"
#include "mapping/shredder.h"
#include "rel/catalog.h"
#include "rel/index.h"
#include "serve/session.h"
#include "serve/soak.h"
#include "serve/telemetry.h"
#include "workload/query_gen.h"

namespace xmlshred::bench {
namespace {

constexpr int kMaxConcurrent = 4;
constexpr size_t kQueueCapacity = 8;
constexpr int kRequestsPerClient = 50;
const int kClientSweep[] = {1, 2, 4, 8, 16};

// Shared fixture: DBLP at bench scale, the four 20-query workloads of
// the paper's grid concatenated into one 80-query mix, and a fresh
// shredded + indexed database per serving scenario (chaos runs append,
// so each needs its own copy).
struct ServingFixture {
  Dataset dataset;
  std::unique_ptr<Mapping> mapping;
  XPathWorkload mix;
  double mean_work = 0;  // calibrated mean metered work per mix query

  ServingFixture() : dataset(MakeDblpDataset()) {
    auto built = Mapping::Build(*dataset.data.tree);
    XS_CHECK_OK(built.status());
    mapping = std::make_unique<Mapping>(std::move(*built));
    for (const WorkloadSpec& spec : DblpWorkloadSpecs()) {
      if (spec.num_queries != 20) continue;
      auto workload =
          GenerateWorkload(*dataset.data.tree, *dataset.stats, spec);
      XS_CHECK_OK(workload.status());
      mix.insert(mix.end(), workload->begin(), workload->end());
    }
    XS_CHECK(!mix.empty());
  }

  // Same physical design as bench_engine_micro: two secondary indexes,
  // no materialized views (views would block AppendAndPublish).
  std::unique_ptr<Database> MakeDb() const {
    auto db = std::make_unique<Database>();
    XS_CHECK_OK(
        ShredDocument(dataset.data.doc, *dataset.data.tree, *mapping, db.get())
            .status());
    IndexDef idx;
    idx.name = "ix_booktitle";
    idx.table = "inproc";
    idx.key_columns = {
        db->FindTable("inproc")->schema().FindColumn("booktitle")};
    idx.included_columns = {
        db->FindTable("inproc")->schema().FindColumn("title"),
        db->FindTable("inproc")->schema().FindColumn("year")};
    XS_CHECK_OK(db->CreateIndex(idx));
    IndexDef pid;
    pid.name = "ix_author_pid";
    pid.table = "inproc_author";
    pid.key_columns = {db->FindTable("inproc_author")->schema().pid_column};
    pid.included_columns = {
        db->FindTable("inproc_author")->schema().FindColumn("author")};
    XS_CHECK_OK(db->CreateIndex(pid));
    return db;
  }

  SessionManager MakeManager(Database* db, const ServeConfig& config) const {
    return SessionManager(db, *dataset.data.tree, *mapping, config,
                          &GlobalMetrics());
  }
};

// Runs every mix query once, alone, to calibrate the mean metered work
// per request. The soak's arrival gaps are expressed in this unit, which
// is what puts the saturation knee at kMaxConcurrent clients.
double CalibrateMeanWork(const ServingFixture& fixture, Database* db) {
  ServeConfig config;
  config.max_concurrent = 1;
  config.queue_capacity = 1;
  SessionManager manager = fixture.MakeManager(db, config);
  uint64_t session = manager.OpenSession();
  double total = 0;
  double now = 0;
  for (const XPathQuery& query : fixture.mix) {
    ServeRequest request;
    request.query = query;
    ServeResponse shed;
    uint64_t ticket = 0;
    AdmitOutcome outcome = manager.Offer(session, request, now, &shed, &ticket);
    XS_CHECK(outcome == AdmitOutcome::kRun);
    ServeResponse response = manager.ExecuteTicket(ticket, now);
    XS_CHECK_OK(response.status);
    now += std::max(response.work, 1.0);
    manager.CompleteTicket(ticket, now);
    total += response.work;
  }
  XS_CHECK(manager.Idle());
  return total / static_cast<double>(fixture.mix.size());
}

SoakReport RunSweepPoint(const ServingFixture& fixture, Database* db,
                         int clients) {
  ServeConfig config;
  config.max_concurrent = kMaxConcurrent;
  config.queue_capacity = kQueueCapacity;
  // Cap outstanding estimated work below slots + queue worth of mean
  // requests, so overload exercises the budget shed path as well as
  // queue-full.
  config.global_work_budget = 10.0 * fixture.mean_work;
  SessionManager manager = fixture.MakeManager(db, config);
  SoakOptions options;
  options.num_clients = clients;
  options.requests_per_client = kRequestsPerClient;
  options.mean_gap = fixture.mean_work;  // saturation at 4 clients
  options.seed = 42;
  auto report = RunSoak(&manager, fixture.mix, options);
  XS_CHECK_OK(report.status());
  if (!report->invariants_ok) {
    std::fprintf(stderr, "sweep invariants violated: %s\n",
                 report->invariant_error.c_str());
    std::abort();
  }
  return *report;
}

// Telemetry exports of one chaos run, captured before the manager dies.
struct ChaosTelemetry {
  size_t windows = 0;
  std::string timeseries_digest;
  std::string timeseries_jsonl;
  size_t sampled_traces = 0;
  std::string traces_digest;
  std::string traces_jsonl;
  size_t events = 0;
  std::string events_digest;
  std::string events_jsonl;
  size_t postmortems = 0;        // bundles kept (<= postmortem_limit)
  size_t shed_postmortems = 0;   // kept bundles with a shed.* trigger
  std::string postmortem_digest;
  std::vector<std::string> postmortem_jsons;
  int64_t clock_reads = 0;
};

// One chaos run: fresh database (appends mutate it), probabilistic
// faults at every serve.* and engine fault site, per-request deadlines,
// finite session budgets, and an epoch-publishing append every 20
// arrivals. Deterministic in the fixed seed — including every telemetry
// export.
SoakReport RunChaos(const ServingFixture& fixture,
                    ChaosTelemetry* telemetry_out) {
  std::unique_ptr<Database> db = fixture.MakeDb();
  ServeConfig config;
  config.max_concurrent = kMaxConcurrent;
  config.queue_capacity = kQueueCapacity;
  config.global_work_budget = 10.0 * fixture.mean_work;
  config.session_work_budget = 30.0 * fixture.mean_work;
  config.telemetry.window_width = 5.0 * fixture.mean_work;
  config.telemetry.trace_sample_period = 8;
  config.telemetry.rng_seed = 0xc4a05;  // == options.seed: replayable set
  config.telemetry.flight_recorder_capacity = 64;
  config.telemetry.postmortem_limit = 4;  // first 4 per trigger class
  config.telemetry.keep_event_log = true;
  SessionManager manager = fixture.MakeManager(db.get(), config);

  const Table* inproc = db->FindTable("inproc");
  XS_CHECK(inproc != nullptr && inproc->row_count() > 0);
  Row base = inproc->GetRow(0);
  int year_col = inproc->schema().FindColumn("year");
  int title_col = inproc->schema().FindColumn("title");
  XS_CHECK(year_col >= 0 && title_col >= 0);

  SoakOptions options;
  options.num_clients = 8;
  options.requests_per_client = 40;
  options.mean_gap = 1.5 * fixture.mean_work;
  options.deadline_work = 2.0 * fixture.mean_work;
  options.seed = 0xc4a05;
  options.fault_probability = 0.05;
  options.append_every = 20;
  options.append_table = "inproc";
  options.append_rows = [base, year_col, title_col](int k) {
    std::vector<Row> rows;
    for (int j = 0; j < 16; ++j) {
      Row row = base;
      row[static_cast<size_t>(year_col)] = Value::Int(2100 + k);
      row[static_cast<size_t>(title_col)] =
          Value::Str(StrFormat("chaos-%d-%d", k, j));
      rows.push_back(std::move(row));
    }
    return rows;
  };
  auto report = RunSoak(&manager, fixture.mix, options);
  XS_CHECK_OK(report.status());
  if (!report->invariants_ok) {
    std::fprintf(stderr, "chaos invariants violated: %s\n",
                 report->invariant_error.c_str());
    std::abort();
  }

  ServeTelemetry* telemetry = manager.telemetry();
  XS_CHECK(telemetry != nullptr);
  ChaosTelemetry& t = *telemetry_out;
  t.windows = telemetry->recorder().windows().size();
  t.timeseries_jsonl = telemetry->TimeSeriesJsonLines();
  t.timeseries_digest = telemetry->TimeSeriesDigest();
  t.sampled_traces = telemetry->traces_sampled();
  t.traces_jsonl = telemetry->TracesJsonLines();
  t.traces_digest = telemetry->TracesDigest();
  t.events_jsonl = telemetry->EventsJsonLines();
  t.events_digest = telemetry->EventsDigest();
  t.events = static_cast<size_t>(
      std::count(t.events_jsonl.begin(), t.events_jsonl.end(), '\n'));
  t.postmortems = telemetry->postmortems().size();
  t.postmortem_digest = telemetry->PostmortemsDigest();
  for (const PostmortemBundle& bundle : telemetry->postmortems()) {
    if (bundle.trigger.rfind("shed.", 0) == 0) ++t.shed_postmortems;
    t.postmortem_jsons.push_back(bundle.ToJson());
  }
  t.clock_reads = telemetry->clock_reads();
  return *report;
}

void PrintReportRow(const std::string& label, const SoakReport& r) {
  PrintRow({label, std::to_string(r.offered + r.retries),
            std::to_string(r.completed),
            std::to_string(r.shed_queue_full + r.shed_budget + r.shed_session),
            std::to_string(r.expired_in_queue + r.expired_mid_query),
            std::to_string(r.failed), StrFormat("%.3f", r.goodput),
            StrFormat("%.3f", r.shed_rate), StrFormat("%.1f", r.p50_latency),
            StrFormat("%.1f", r.p99_latency)});
}

void WriteReportFields(std::FILE* f, const SoakReport& r) {
  std::fprintf(f,
               "\"offered\": %lld, \"retries\": %lld, \"completed\": %lld, "
               "\"failed\": %lld, \"shed_queue_full\": %lld, "
               "\"shed_budget\": %lld, \"shed_session\": %lld, "
               "\"expired_in_queue\": %lld, \"expired_mid_query\": %lld, "
               "\"completed_work\": %.6f, \"goodput\": %.6f, "
               "\"throughput\": %.6f, \"shed_rate\": %.6f, "
               "\"p50_latency\": %.6f, \"p99_latency\": %.6f, "
               "\"invariants_ok\": %d",
               static_cast<long long>(r.offered),
               static_cast<long long>(r.retries),
               static_cast<long long>(r.completed),
               static_cast<long long>(r.failed),
               static_cast<long long>(r.shed_queue_full),
               static_cast<long long>(r.shed_budget),
               static_cast<long long>(r.shed_session),
               static_cast<long long>(r.expired_in_queue),
               static_cast<long long>(r.expired_mid_query), r.completed_work,
               r.goodput, r.throughput, r.shed_rate, r.p50_latency,
               r.p99_latency, r.invariants_ok ? 1 : 0);
}

void WriteJson(const std::string& path, const ServingFixture& fixture,
               const std::vector<std::pair<int, SoakReport>>& sweep,
               double goodput_at_saturation, double goodput_at_4x,
               const SoakReport& chaos, const ChaosTelemetry& telemetry,
               bool runs_identical) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"serving_soak\",\n");
  std::fprintf(f,
               "  \"config\": {\"mix_queries\": %zu, \"mean_work\": %.6f, "
               "\"max_concurrent\": %d, \"queue_capacity\": %zu, "
               "\"requests_per_client\": %d},\n",
               fixture.mix.size(), fixture.mean_work, kMaxConcurrent,
               kQueueCapacity, kRequestsPerClient);
  std::fprintf(f, "  \"sweep\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    std::fprintf(f, "    {\"clients\": %d, ", sweep[i].first);
    WriteReportFields(f, sweep[i].second);
    std::fprintf(f, "}%s\n", i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"overload\": {\"goodput_at_saturation\": %.6f, "
               "\"goodput_at_4x\": %.6f, \"goodput_ratio\": %.6f},\n",
               goodput_at_saturation, goodput_at_4x,
               goodput_at_saturation > 0
                   ? goodput_at_4x / goodput_at_saturation
                   : 0.0);
  std::fprintf(f, "  \"chaos\": {");
  WriteReportFields(f, chaos);
  std::fprintf(f,
               ", \"epochs_published\": %lld, \"faults_injected\": %lld, "
               "\"append_failures\": %lld, \"runs_identical\": %d,\n",
               static_cast<long long>(chaos.epochs_published),
               static_cast<long long>(chaos.faults_injected),
               static_cast<long long>(chaos.append_failures),
               runs_identical ? 1 : 0);
  // Every telemetry observable below is virtual-time deterministic, so
  // this block is byte-stable across runs.
  std::fprintf(f,
               "    \"telemetry\": {\"windows\": %zu, "
               "\"timeseries_digest\": \"%s\", \"sampled_traces\": %zu, "
               "\"trace_digest\": \"%s\", \"events\": %zu, "
               "\"events_digest\": \"%s\", \"postmortems\": %zu, "
               "\"shed_postmortems\": %zu, \"postmortem_digest\": \"%s\", "
               "\"clock_reads\": %lld}}\n",
               telemetry.windows, telemetry.timeseries_digest.c_str(),
               telemetry.sampled_traces, telemetry.traces_digest.c_str(),
               telemetry.events, telemetry.events_digest.c_str(),
               telemetry.postmortems, telemetry.shed_postmortems,
               telemetry.postmortem_digest.c_str(),
               static_cast<long long>(telemetry.clock_reads));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

// Writes `content` to `path`, aborting on failure (bench-fatal).
void WriteExport(const std::string& path, const std::string& content) {
  XS_CHECK_OK(WriteTextFile(path, content));
  std::printf("wrote %s\n", path.c_str());
}

int Main(int argc, char** argv) {
  const BenchFlags flags = ExtractBenchFlags(&argc, argv);
  const std::string& metrics_out = flags.metrics_out;
  const std::string& json_path = flags.json_path;
  const std::string timeseries_out =
      ExtractStringFlag(&argc, argv, "--timeseries-out");
  const std::string traces_out = ExtractStringFlag(&argc, argv, "--traces-out");
  const std::string events_out = ExtractStringFlag(&argc, argv, "--events-out");
  const std::string postmortem_dir =
      ExtractStringFlag(&argc, argv, "--postmortem-dir");
  if (argc > 1) {
    std::fprintf(stderr,
                 "usage: %s [--json out.json] "
                 "[--timeseries-out f.jsonl] [--traces-out f.jsonl] "
                 "[--events-out f.jsonl] [--postmortem-dir dir]\n",
                 argv[0]);
    return 2;
  }

  ServingFixture fixture;
  std::unique_ptr<Database> sweep_db = fixture.MakeDb();
  fixture.mean_work = CalibrateMeanWork(fixture, sweep_db.get());

  PrintTitle("Serving soak (open-loop fig. 4 mix)",
             "goodput flat past saturation");
  std::printf("mix of %zu queries, mean work %.3f units/query, %d slots\n\n",
              fixture.mix.size(), fixture.mean_work, kMaxConcurrent);
  PrintRow({"clients", "offers", "done", "shed", "expired", "failed",
            "goodput", "shedrate", "p50", "p99"});

  std::vector<std::pair<int, SoakReport>> sweep;
  double goodput_at_saturation = 0;
  double goodput_at_4x = 0;
  for (int clients : kClientSweep) {
    SoakReport report = RunSweepPoint(fixture, sweep_db.get(), clients);
    PrintReportRow(std::to_string(clients), report);
    if (clients == kMaxConcurrent) goodput_at_saturation = report.goodput;
    if (clients == 4 * kMaxConcurrent) goodput_at_4x = report.goodput;
    sweep.emplace_back(clients, report);
  }

  // Chaos: run the identical fixed-seed soak twice (fresh database and
  // manager each) and require bit-identical counters AND bit-identical
  // telemetry exports (windows, sampled traces, events, post-mortems).
  ChaosTelemetry telem1, telem2;
  SoakReport chaos1 = RunChaos(fixture, &telem1);
  SoakReport chaos2 = RunChaos(fixture, &telem2);
  bool runs_identical = chaos1.CountersDigest() == chaos2.CountersDigest();
  XS_CHECK(telem1.timeseries_digest == telem2.timeseries_digest);
  XS_CHECK(telem1.traces_digest == telem2.traces_digest);
  XS_CHECK(telem1.events_digest == telem2.events_digest);
  XS_CHECK(telem1.postmortem_digest == telem2.postmortem_digest);
  // The overload + faults in the chaos schedule must produce at least
  // one shed-triggered post-mortem (the acceptance gate).
  XS_CHECK(telem1.shed_postmortems >= 1);
  XS_CHECK(telem1.clock_reads == 0);

  std::printf("\n");
  PrintRow({"chaos", std::to_string(chaos1.offered + chaos1.retries),
            std::to_string(chaos1.completed),
            std::to_string(chaos1.shed_queue_full + chaos1.shed_budget +
                           chaos1.shed_session),
            std::to_string(chaos1.expired_in_queue +
                           chaos1.expired_mid_query),
            std::to_string(chaos1.failed), StrFormat("%.3f", chaos1.goodput),
            StrFormat("%.3f", chaos1.shed_rate),
            StrFormat("%.1f", chaos1.p50_latency),
            StrFormat("%.1f", chaos1.p99_latency)});
  std::printf(
      "chaos: %lld faults injected, %lld epochs published, "
      "%lld append failures, runs identical: %s\n",
      static_cast<long long>(chaos1.faults_injected),
      static_cast<long long>(chaos1.epochs_published),
      static_cast<long long>(chaos1.append_failures),
      runs_identical ? "yes" : "NO");
  std::printf(
      "telemetry: %zu windows [%s], %zu traces [%s], "
      "%zu events [%s], %zu post-mortems (%zu shed) [%s], 0 clock reads\n",
      telem1.windows, telem1.timeseries_digest.c_str(),
      telem1.sampled_traces, telem1.traces_digest.c_str(), telem1.events,
      telem1.events_digest.c_str(), telem1.postmortems,
      telem1.shed_postmortems, telem1.postmortem_digest.c_str());
  std::printf("overload: goodput %.3f at saturation, %.3f at 4x (%.1f%%)\n",
              goodput_at_saturation, goodput_at_4x,
              goodput_at_saturation > 0
                  ? 100.0 * goodput_at_4x / goodput_at_saturation
                  : 0.0);
  if (!runs_identical) {
    std::fprintf(stderr, "chaos soak diverged:\n  run1: %s\n  run2: %s\n",
                 chaos1.CountersDigest().c_str(),
                 chaos2.CountersDigest().c_str());
    std::abort();
  }

  if (!timeseries_out.empty()) WriteExport(timeseries_out, telem1.timeseries_jsonl);
  if (!traces_out.empty()) WriteExport(traces_out, telem1.traces_jsonl);
  if (!events_out.empty()) WriteExport(events_out, telem1.events_jsonl);
  if (!postmortem_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(postmortem_dir, ec);
    XS_CHECK(!ec);
    for (size_t i = 0; i < telem1.postmortem_jsons.size(); ++i) {
      WriteExport(postmortem_dir + StrFormat("/postmortem-%02zu.json", i),
                  telem1.postmortem_jsons[i]);
    }
  }

  if (!json_path.empty()) {
    WriteJson(json_path, fixture, sweep, goodput_at_saturation, goodput_at_4x,
              chaos1, telem1, runs_identical);
  }
  WriteMetricsOut(metrics_out);
  return 0;
}

}  // namespace
}  // namespace xmlshred::bench

int main(int argc, char** argv) { return xmlshred::bench::Main(argc, argv); }
