// Executor audits per query shape — heap scan, filter, index seek,
// index-only scan, view scan, hash join, index nested loops, union all,
// sort, and scalar aggregates: Executor::Run against the brute-force
// reference executor, a rerun and Executor::Count against Run, and the
// metering of runs stopped mid-query.
//
// Heap and view scans, hash-join probes and aggregates poll their batch
// interrupts (cancel token, governor deadline, serve.mid_query, and the
// exec.morsel fault site) as the loop reaches each morsel, and every
// operator charges its work before or after its loop (exec/executor.h,
// DESIGN.md §13). The stop audits pin the governor's work at a trip, an
// armed exec.morsel fault's message, hit count and metered work, and a
// cancelled run's work as constants. They were recorded while the
// executor still polled an operator's interrupts after all of its
// morsels had run, so they show that polling each morsel as it is
// reached moved no trip point.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/limits.h"
#include "common/metrics.h"
#include "exec/executor.h"
#include "exec/explain.h"
#include "opt/planner.h"
#include "rel/catalog.h"
#include "rel/index.h"
#include "rel/view.h"
#include "reference_executor.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace xmlshred {
namespace {

// ---------------------------------------------------------------------
// Fixtures. The big database spans several kMorselRows morsels per table
// so a stop can land mid-operator; the small one keeps the reference
// executor's cross products tractable for join shapes.

struct AuditFixture {
  Database db;

  explicit AuditFixture(int pubs) {
    TableSchema parent;
    parent.name = "inproc";
    parent.columns = {{"ID", ColumnType::kInt64, false},
                      {"PID", ColumnType::kInt64, true},
                      {"title", ColumnType::kString, true},
                      {"booktitle", ColumnType::kString, true},
                      {"year", ColumnType::kInt64, true}};
    parent.id_column = 0;
    parent.pid_column = 1;
    TableSchema child;
    child.name = "inproc_author";
    child.columns = {{"ID", ColumnType::kInt64, false},
                     {"PID", ColumnType::kInt64, true},
                     {"author", ColumnType::kString, true}};
    child.id_column = 0;
    child.pid_column = 1;
    auto p = db.CreateTable(parent);
    EXPECT_TRUE(p.ok());
    auto c = db.CreateTable(child);
    EXPECT_TRUE(c.ok());
    int64_t next_child_id = 1000000;
    for (int i = 0; i < pubs; ++i) {
      (*p)->AppendRow({Value::Int(i), Value::Null(),
                       Value::Str("title_" + std::to_string(i)),
                       Value::Str("conf_" + std::to_string(i % 2500)),
                       Value::Int(1980 + i % 23)});
      for (int a = 0; a < 3; ++a) {
        (*c)->AppendRow({Value::Int(next_child_id++), Value::Int(i),
                         Value::Str("author_" + std::to_string((i + a) % 97))});
      }
    }
    IndexDef booktitle;
    booktitle.name = "idx_booktitle";
    booktitle.table = "inproc";
    booktitle.key_columns = {3};
    booktitle.included_columns = {2};
    EXPECT_TRUE(db.CreateIndex(booktitle).ok());
    IndexDef pid;
    pid.name = "idx_author_pid";
    pid.table = "inproc_author";
    pid.key_columns = {1};
    pid.included_columns = {2};
    EXPECT_TRUE(db.CreateIndex(pid).ok());
    ViewDef view;
    view.name = "v_conf3";
    view.base_table = "inproc";
    view.preds = {{"inproc", "booktitle", "=", Value::Str("conf_3")}};
    view.projected = {{"inproc", "ID"}, {"inproc", "title"},
                      {"inproc", "year"}};
    EXPECT_TRUE(db.CreateMaterializedView(view).ok());
  }
};

// 20000 parent rows (~5 morsels) and 60000 child rows (~15 morsels).
AuditFixture& Big() {
  static AuditFixture* fixture = new AuditFixture(20000);
  return *fixture;
}

// 600 parent rows: a single morsel, but cross products stay cheap enough
// for ReferenceExecute over join blocks.
AuditFixture& Small() {
  static AuditFixture* fixture = new AuditFixture(600);
  return *fixture;
}

struct PreparedQuery {
  BoundQuery bound;
  PlannedQuery planned;
};

PreparedQuery Prepare(const Database& db, const std::string& sql) {
  PreparedQuery out;
  auto parsed = ParseSql(sql);
  EXPECT_TRUE(parsed.ok()) << sql << ": " << parsed.status();
  CatalogDesc catalog = db.BuildCatalogDesc();
  auto bound = BindQuery(*parsed, catalog);
  EXPECT_TRUE(bound.ok()) << sql << ": " << bound.status();
  out.bound = std::move(*bound);
  auto planned = PlanQuery(out.bound, catalog);
  EXPECT_TRUE(planned.ok()) << sql << ": " << planned.status();
  out.planned = std::move(*planned);
  return out;
}

bool PlanHasKind(const PlanNode& node, PlanKind kind) {
  if (node.kind == kind) return true;
  for (const auto& child : node.children) {
    if (PlanHasKind(*child, kind)) return true;
  }
  return false;
}

// One executed run with every deterministic observable captured.
struct RunOutput {
  Status status = Status::OK();
  std::vector<Row> rows;      // Executor::Run only
  int64_t count = -1;         // rows returned (Run) or counted (Count)
  ExecMetrics m;
  std::string explain_json;   // ExplainToJson(tree, /*include_timing=*/false)
  std::string metrics_json;   // fresh registry Snapshot().ToJson()
};

// Executes through Executor::Run, or through Executor::Count when
// `count_only`.
RunOutput RunOnce(const Database& db, const PlannedQuery& plan,
                  bool count_only = false) {
  MetricsRegistry registry;
  ExplainNode tree = BuildExplainTree(*plan.root);
  ExecOptions options;
  options.metrics = &registry;
  options.explain = &tree;
  Executor executor(db);
  RunOutput out;
  if (count_only) {
    auto count = executor.Count(*plan.root, &out.m, options);
    out.status = count.status();
    if (count.ok()) out.count = *count;
  } else {
    auto rows = executor.Run(*plan.root, &out.m, options);
    out.status = rows.status();
    if (rows.ok()) {
      out.rows = std::move(*rows);
      out.count = static_cast<int64_t>(out.rows.size());
    }
  }
  out.explain_json = ExplainToJson(tree, /*include_timing=*/false);
  out.metrics_json = registry.Snapshot().ToJson();
  return out;
}

// Exact comparison: same rows in the same order (not a multiset).
void ExpectRowsIdentical(const std::vector<Row>& a, const std::vector<Row>& b,
                         const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  RowTotalEquals eq;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(eq(a[i], b[i])) << label << " differs at row " << i;
  }
}

// Everything but the rows: status, row count, metering, explain actuals
// and the registry.
void ExpectMeteringIdentical(const RunOutput& a, const RunOutput& b,
                             const std::string& label) {
  EXPECT_EQ(a.status.code(), b.status.code()) << label;
  EXPECT_EQ(a.count, b.count) << label;
  EXPECT_EQ(a.m.rows_out, b.m.rows_out) << label;
  EXPECT_DOUBLE_EQ(a.m.work, b.m.work) << label;
  EXPECT_DOUBLE_EQ(a.m.pages_sequential, b.m.pages_sequential) << label;
  EXPECT_DOUBLE_EQ(a.m.pages_random, b.m.pages_random) << label;
  EXPECT_EQ(a.m.blocks_scanned, b.m.blocks_scanned) << label;
  EXPECT_EQ(a.m.blocks_skipped, b.m.blocks_skipped) << label;
  EXPECT_EQ(a.explain_json, b.explain_json) << label;
  EXPECT_EQ(a.metrics_json, b.metrics_json) << label;
}

void ExpectRunsIdentical(const RunOutput& a, const RunOutput& b,
                         const std::string& label) {
  ExpectRowsIdentical(a.rows, b.rows, label);
  ExpectMeteringIdentical(a, b, label);
}

// ---------------------------------------------------------------------
// Query shapes under test. expect_kind pins the plan so a planner change
// cannot silently drop a shape from coverage.

struct ShapeCase {
  const char* name;
  const char* sql;
  PlanKind expect_kind;
  bool join_block;  // reference comparison needs the small fixture
};

const ShapeCase kShapes[] = {
    {"heap_scan", "SELECT title, year FROM inproc", PlanKind::kHeapScan,
     false},
    {"filter_scan", "SELECT title FROM inproc WHERE year >= 1995",
     PlanKind::kHeapScan, false},
    {"index_lookup",
     "SELECT title FROM inproc WHERE booktitle = 'conf_7'",
     PlanKind::kIndexOnlyScan, false},
    {"index_seek_fetch",
     "SELECT title, year FROM inproc WHERE booktitle = 'conf_7'",
     PlanKind::kIndexSeek, false},
    {"view_scan", "SELECT ID, title FROM inproc WHERE booktitle = 'conf_3'",
     PlanKind::kViewScan, false},
    {"hash_join",
     "SELECT I.title, A.author FROM inproc I, inproc_author A "
     "WHERE I.ID = A.PID",
     PlanKind::kHashJoin, true},
    {"inl_join",
     "SELECT I.ID, A.author FROM inproc I, inproc_author A "
     "WHERE I.ID = A.PID AND I.booktitle = 'conf_11'",
     PlanKind::kIndexNlJoin, true},
    {"union_all",
     "SELECT title FROM inproc WHERE year = 1990 "
     "UNION ALL SELECT title FROM inproc WHERE year = 1991 ORDER BY 1",
     PlanKind::kUnionAll, false},
    {"sort", "SELECT title, year FROM inproc ORDER BY 2, 1", PlanKind::kSort,
     false},
    {"aggregate",
     "SELECT COUNT(*), COUNT(year), SUM(year), MIN(title), MAX(year) "
     "FROM inproc",
     PlanKind::kAggregate, false},
    {"aggregate_filtered",
     "SELECT SUM(year), COUNT(*) FROM inproc WHERE year >= 2000",
     PlanKind::kAggregate, false},
    {"aggregate_join",
     "SELECT COUNT(*), MIN(A.author) FROM inproc I, inproc_author A "
     "WHERE I.ID = A.PID AND I.year = 1990",
     PlanKind::kAggregate, true},
};

TEST(ExecAuditShapes, PlansExerciseEveryOperator) {
  AuditFixture& f = Big();
  for (const ShapeCase& shape : kShapes) {
    PreparedQuery q = Prepare(f.db, shape.sql);
    EXPECT_TRUE(PlanHasKind(*q.planned.root, shape.expect_kind))
        << shape.name << " plan:\n"
        << q.planned.root->ToString();
  }
}

// A rerun repeats every observable of the first run, and Executor::Count
// counts Run's rows with the same metering, explain actuals and registry.
TEST(ExecAuditDifferential, RerunAndCountMatchRun) {
  AuditFixture& f = Big();
  for (const ShapeCase& shape : kShapes) {
    PreparedQuery q = Prepare(f.db, shape.sql);
    RunOutput run = RunOnce(f.db, q.planned);
    ASSERT_TRUE(run.status.ok()) << shape.name << ": " << run.status;
    EXPECT_EQ(run.m.rows_out, static_cast<int64_t>(run.rows.size()));
    ExpectRunsIdentical(run, RunOnce(f.db, q.planned),
                        std::string(shape.name) + "/rerun");
    ExpectMeteringIdentical(run,
                            RunOnce(f.db, q.planned, /*count_only=*/true),
                            std::string(shape.name) + "/count");
  }
}

// Run vs the brute-force oracle (multiset: ORDER BY is ignored by the
// reference). Join blocks run on the small fixture, where the cross
// product is tractable.
TEST(ExecAuditDifferential, MatchesReferenceExecutor) {
  for (const ShapeCase& shape : kShapes) {
    AuditFixture& f = shape.join_block ? Small() : Big();
    PreparedQuery q = Prepare(f.db, shape.sql);
    RunOutput run = RunOnce(f.db, q.planned);
    ASSERT_TRUE(run.status.ok()) << shape.name << ": " << run.status;
    std::vector<Row> expected = ReferenceExecute(q.bound, f.db);
    EXPECT_TRUE(SameRowMultiset(run.rows, expected))
        << shape.name << ": engine " << run.rows.size()
        << " rows vs reference " << expected.size();
  }
}

// ---------------------------------------------------------------------
// Governor metering audit (the GovernorTripMidScanMetersOnce pattern of
// tests/serving_test.cc): a work budget of half the clean run's work
// trips mid-run; the governor and the run's own metrics agree on the
// charge, and the trip lands at `spent_at_trip` work units.

void AuditGovernorTrip(const Database& db, const char* sql,
                       double spent_at_trip) {
  PreparedQuery q = Prepare(db, sql);
  Executor executor(db);
  ExecMetrics clean;
  auto ok_rows = executor.Run(*q.planned.root, &clean, ExecOptions{});
  ASSERT_TRUE(ok_rows.ok()) << sql;
  ASSERT_GT(clean.work, 1.0);

  ResourceLimits limits;
  limits.work_units = static_cast<int64_t>(clean.work / 2);
  ResourceGovernor governor(limits);
  ExecMetrics m;
  ExecOptions options;
  options.governor = &governor;
  auto rows = executor.Run(*q.planned.root, &m, options);
  ASSERT_FALSE(rows.ok()) << sql;
  EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted);
  EXPECT_DOUBLE_EQ(m.work, governor.work_spent()) << sql;
  EXPECT_LE(governor.work_spent(), clean.work);
  EXPECT_DOUBLE_EQ(governor.work_spent(), spent_at_trip) << sql;

  // The trip corrupted nothing: a clean rerun returns the full result
  // with the original metering.
  ExecMetrics again;
  auto rerun = executor.Run(*q.planned.root, &again, ExecOptions{});
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(rerun->size(), ok_rows->size());
  EXPECT_DOUBLE_EQ(again.work, clean.work);
}

TEST(ExecAuditGovernor, ScanTripMetersOnce) {
  AuditGovernorTrip(Big().db, "SELECT title, year FROM inproc", 30.0);
}

TEST(ExecAuditGovernor, JoinTripMetersOnce) {
  AuditGovernorTrip(Big().db,
                    "SELECT I.title, A.author FROM inproc I, inproc_author A "
                    "WHERE I.ID = A.PID",
                    71.0);
}

TEST(ExecAuditGovernor, AggregateTripMetersOnce) {
  AuditGovernorTrip(Big().db, "SELECT COUNT(*), SUM(year) FROM inproc", 30.0);
}

// ---------------------------------------------------------------------
// exec.morsel fault site: an armed nth-hit fault stops the run at the
// nth morsel boundary, after `work` units of charges. Every plan below
// starts with a heap scan of inproc: 20000 rows in 5 blocks, so its
// hits are the first 5 and its charges 34 units.

constexpr char kInjectedMorselFault[] = "injected fault at exec.morsel";

void AuditMorselFault(const Database& db, const char* sql, int fire_on_nth,
                      double work) {
  PreparedQuery q = Prepare(db, sql);
  Executor executor(db);
  {
    ScopedFaultInjection armed(kFaultSiteExecMorsel, fire_on_nth);
    ExecMetrics m;
    ExecOptions options;
    options.faults = FaultInjector::Global();
    auto rows = executor.Run(*q.planned.root, &m, options);
    ASSERT_FALSE(rows.ok()) << sql;
    EXPECT_EQ(rows.status().message(), kInjectedMorselFault) << sql;
    EXPECT_EQ(FaultInjector::Global()->hits(kFaultSiteExecMorsel),
              fire_on_nth);
    EXPECT_DOUBLE_EQ(m.work, work) << sql;
  }
  // Disarmed, the same plan runs clean.
  ExecMetrics m;
  ExecOptions options;
  options.faults = FaultInjector::Global();
  ASSERT_TRUE(executor.Run(*q.planned.root, &m, options).ok());
}

TEST(ExecAuditFaults, ScanFaultStopsThirdMorsel) {
  AuditMorselFault(Big().db, "SELECT title, year FROM inproc", 3, 34.0);
}

TEST(ExecAuditFaults, AggregateFaultStopsSecondMorsel) {
  const char* sql = "SELECT COUNT(*), SUM(year) FROM inproc";
  // The 2nd hit stops the aggregate's input scan; the 7th stops the
  // aggregate's own loop at its 2nd morsel, after its row charge.
  AuditMorselFault(Big().db, sql, 2, 34.0);
  AuditMorselFault(Big().db, sql, 7, 38.0);
}

TEST(ExecAuditFaults, JoinProbeFaultStopsFourthMorsel) {
  // The probe side scans inproc (hits 1-5), the build side scans
  // inproc_author (60000 rows in 15 blocks: hits 6-20), and the probe
  // loop walks the 20000 probe rows (hits 21-25). The 4th hit stops the
  // probe-side scan; the 24th stops the probe loop at its 4th morsel,
  // after both scans' charges and the build's hash charge.
  const char* sql =
      "SELECT I.title, A.author FROM inproc I, inproc_author A "
      "WHERE I.ID = A.PID";
  AuditMorselFault(Big().db, sql, 4, 34.0);
  AuditMorselFault(Big().db, sql, 24, 113.0);
}

// ---------------------------------------------------------------------
// Cancellation: a pre-set token stops the scan at its first batch
// boundary, after the scan's page and row charges.

TEST(ExecAuditCancel, CancelledRunKeepsItsCharges) {
  AuditFixture& f = Big();
  PreparedQuery q = Prepare(f.db, "SELECT title, year FROM inproc");
  Executor executor(f.db);
  std::atomic<bool> cancel{true};
  ExecMetrics m;
  ExecOptions options;
  options.cancel = &cancel;
  auto rows = executor.Run(*q.planned.root, &m, options);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rows.status().message().find("cancelled"), std::string::npos);
  EXPECT_DOUBLE_EQ(m.work, 34.0);
}

}  // namespace
}  // namespace xmlshred
