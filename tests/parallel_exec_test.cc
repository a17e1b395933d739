// Thread-count differential harness for morsel-driven parallel execution.
//
// The executor's contract (exec/executor.h, ExecOptions::exec_threads) is
// that parallelism is invisible: result rows (including order), ExecMetrics,
// EXPLAIN ANALYZE actuals, exec.* registry totals, and governor/fault trip
// points are bit-identical at every thread count; one thread runs the
// same morsels inline. This suite pins that contract per query shape —
// heap scan, filter, index seek, index-only scan, view scan, hash join,
// index nested loops, union all, sort, and scalar aggregates — by diffing
// threads {2, 4, 8} against the one-thread run and the one-thread run
// against the brute-force reference executor, then repeats the metering
// audits (governor trip, injected fault, cancellation) at every thread
// count.

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

constexpr int kThreadCounts[] = {1, 2, 4, 8};

// ---------------------------------------------------------------------
// Fixtures. The big database spans several kMorselRows morsels per table
// so parallel runs genuinely split work; the small one keeps the
// reference executor's cross products tractable for join shapes.

struct ParExecFixture {
  Database db;

  explicit ParExecFixture(int pubs) {
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
ParExecFixture& Big() {
  static ParExecFixture* fixture = new ParExecFixture(20000);
  return *fixture;
}

// 600 parent rows: a single morsel, but cross products stay cheap enough
// for ReferenceExecute over join blocks.
ParExecFixture& Small() {
  static ParExecFixture* fixture = new ParExecFixture(600);
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
RunOutput RunOnce(const Database& db, const PlannedQuery& plan, int threads,
                  bool count_only = false) {
  MetricsRegistry registry;
  ExplainNode tree = BuildExplainTree(*plan.root);
  ExecOptions options;
  options.exec_threads = threads;
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
void ExpectRowsIdentical(const std::vector<Row>& serial,
                         const std::vector<Row>& parallel,
                         const std::string& label) {
  ASSERT_EQ(serial.size(), parallel.size()) << label;
  RowTotalEquals eq;
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(eq(serial[i], parallel[i])) << label << " differs at row " << i;
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

void ExpectRunsIdentical(const RunOutput& serial, const RunOutput& parallel,
                         const std::string& label) {
  ExpectRowsIdentical(serial.rows, parallel.rows, label);
  ExpectMeteringIdentical(serial, parallel, label);
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

TEST(ParallelExecShapes, PlansExerciseEveryOperator) {
  ParExecFixture& f = Big();
  for (const ShapeCase& shape : kShapes) {
    PreparedQuery q = Prepare(f.db, shape.sql);
    EXPECT_TRUE(PlanHasKind(*q.planned.root, shape.expect_kind))
        << shape.name << " plan:\n"
        << q.planned.root->ToString();
  }
}

// Every observable of a run at 2, 4, and 8 threads is byte-identical to
// the one-thread run, per shape; Executor::Count at 1 and 4 threads counts
// the one-thread run's rows with the same metering, explain actuals and
// registry.
TEST(ParallelExecDifferential, BitIdenticalAcrossThreadCounts) {
  ParExecFixture& f = Big();
  for (const ShapeCase& shape : kShapes) {
    PreparedQuery q = Prepare(f.db, shape.sql);
    RunOutput serial = RunOnce(f.db, q.planned, 1);
    ASSERT_TRUE(serial.status.ok()) << shape.name << ": " << serial.status;
    EXPECT_EQ(serial.m.rows_out, static_cast<int64_t>(serial.rows.size()));
    for (int threads : {2, 4, 8}) {
      RunOutput parallel = RunOnce(f.db, q.planned, threads);
      ExpectRunsIdentical(serial, parallel,
                          std::string(shape.name) +
                              "/threads=" + std::to_string(threads));
    }
    for (int threads : {1, 4}) {
      RunOutput counted =
          RunOnce(f.db, q.planned, threads, /*count_only=*/true);
      ExpectMeteringIdentical(serial, counted,
                              std::string(shape.name) + "/count/threads=" +
                                  std::to_string(threads));
    }
  }
}

// One-thread run vs the brute-force oracle (multiset: ORDER BY is ignored
// by the reference). Join blocks run on the small fixture where the cross
// product is tractable; there the parallel runs also re-check identity on
// a sub-morsel input (600 rows < kMorselRows).
TEST(ParallelExecDifferential, MatchesReferenceExecutor) {
  for (const ShapeCase& shape : kShapes) {
    ParExecFixture& f = shape.join_block ? Small() : Big();
    PreparedQuery q = Prepare(f.db, shape.sql);
    RunOutput serial = RunOnce(f.db, q.planned, 1);
    ASSERT_TRUE(serial.status.ok()) << shape.name << ": " << serial.status;
    std::vector<Row> expected = ReferenceExecute(q.bound, f.db);
    EXPECT_TRUE(SameRowMultiset(serial.rows, expected))
        << shape.name << ": engine " << serial.rows.size()
        << " rows vs reference " << expected.size();
    if (shape.join_block) {
      for (int threads : {2, 4, 8}) {
        RunOutput parallel = RunOnce(f.db, q.planned, threads);
        ExpectRunsIdentical(serial, parallel,
                            std::string(shape.name) + "/small/threads=" +
                                std::to_string(threads));
      }
    }
  }
}

// ---------------------------------------------------------------------
// Governor metering audit (the GovernorTripMidScanMetersOnce pattern of
// tests/serving_test.cc, swept across thread counts).

void AuditGovernorTrip(const Database& db, const char* sql) {
  PreparedQuery q = Prepare(db, sql);
  Executor executor(db);
  ExecMetrics clean;
  auto ok_rows = executor.Run(*q.planned.root, &clean, ExecOptions{});
  ASSERT_TRUE(ok_rows.ok()) << sql;
  ASSERT_GT(clean.work, 1.0);

  // A budget below the full cost trips mid-run. The governor and the
  // run's own metrics must agree on the charge, and the trip point must
  // not move with the thread count: all charges land on the coordinator
  // in enumeration order.
  double first_spent = -1;
  for (int threads : kThreadCounts) {
    ResourceLimits limits;
    limits.work_units = static_cast<int64_t>(clean.work / 2);
    ResourceGovernor governor(limits);
    ExecMetrics m;
    ExecOptions options;
    options.governor = &governor;
    options.exec_threads = threads;
    auto rows = executor.Run(*q.planned.root, &m, options);
    ASSERT_FALSE(rows.ok()) << sql << " threads=" << threads;
    EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted);
    EXPECT_DOUBLE_EQ(m.work, governor.work_spent())
        << sql << " threads=" << threads;
    EXPECT_LE(governor.work_spent(), clean.work);
    if (first_spent < 0) {
      first_spent = governor.work_spent();
    } else {
      EXPECT_DOUBLE_EQ(first_spent, governor.work_spent())
          << sql << " threads=" << threads;
    }
  }

  // The trips corrupted nothing: a clean parallel rerun returns the full
  // result with the original metering.
  ExecMetrics again;
  ExecOptions options;
  options.exec_threads = 8;
  auto rerun = executor.Run(*q.planned.root, &again, options);
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(rerun->size(), ok_rows->size());
  EXPECT_DOUBLE_EQ(again.work, clean.work);
}

TEST(ParallelExecGovernor, ScanTripMetersOnceAtEveryThreadCount) {
  AuditGovernorTrip(Big().db, "SELECT title, year FROM inproc");
}

TEST(ParallelExecGovernor, JoinTripMetersOnceAtEveryThreadCount) {
  AuditGovernorTrip(Big().db,
                    "SELECT I.title, A.author FROM inproc I, inproc_author A "
                    "WHERE I.ID = A.PID");
}

TEST(ParallelExecGovernor, AggregateTripMetersOnceAtEveryThreadCount) {
  AuditGovernorTrip(Big().db, "SELECT COUNT(*), SUM(year) FROM inproc");
}

// ---------------------------------------------------------------------
// exec.morsel fault site: an armed nth-hit fault fires at the same morsel
// with the same metering no matter how many workers run, because the
// coordinator replays the checks in enumeration order.

void AuditMorselFault(const Database& db, const char* sql, int fire_on_nth) {
  PreparedQuery q = Prepare(db, sql);
  Executor executor(db);
  std::string first_message;
  double first_work = -1;
  int first_hits = -1;
  for (int threads : kThreadCounts) {
    ScopedFaultInjection armed(kFaultSiteExecMorsel, fire_on_nth);
    ExecMetrics m;
    ExecOptions options;
    options.faults = FaultInjector::Global();
    options.exec_threads = threads;
    auto rows = executor.Run(*q.planned.root, &m, options);
    ASSERT_FALSE(rows.ok()) << sql << " threads=" << threads;
    EXPECT_EQ(rows.status().message().rfind("injected fault", 0), 0u)
        << rows.status();
    int hits = FaultInjector::Global()->hits(kFaultSiteExecMorsel);
    EXPECT_EQ(hits, fire_on_nth);
    if (first_work < 0) {
      first_message = rows.status().message();
      first_work = m.work;
      first_hits = hits;
    } else {
      EXPECT_EQ(first_message, rows.status().message())
          << sql << " threads=" << threads;
      EXPECT_DOUBLE_EQ(first_work, m.work) << sql << " threads=" << threads;
      EXPECT_EQ(first_hits, hits);
    }
  }
  // Disarmed, the same plan runs clean at any thread count.
  ExecMetrics m;
  ExecOptions options;
  options.exec_threads = 4;
  options.faults = FaultInjector::Global();
  ASSERT_TRUE(executor.Run(*q.planned.root, &m, options).ok());
}

TEST(ParallelExecFaults, ScanFaultFiresAtSameMorselEverywhere) {
  // 20000 rows = 5 morsel boundaries; fire on the 3rd.
  AuditMorselFault(Big().db, "SELECT title, year FROM inproc", 3);
}

TEST(ParallelExecFaults, AggregateFaultFiresAtSameMorselEverywhere) {
  AuditMorselFault(Big().db, "SELECT COUNT(*), SUM(year) FROM inproc", 2);
}

TEST(ParallelExecFaults, JoinProbeFaultFiresAtSameMorselEverywhere) {
  // The probe side of the hash join walks 20000 outer rows; the build
  // and probe loops share the exec.morsel site with the scans below.
  AuditMorselFault(Big().db,
                   "SELECT I.title, A.author FROM inproc I, inproc_author A "
                   "WHERE I.ID = A.PID",
                   4);
}

// ---------------------------------------------------------------------
// Cancellation parity: a pre-set token stops every configuration with the
// same status and the same charged work.

TEST(ParallelExecCancel, CancelledRunChargesIdenticallyEverywhere) {
  ParExecFixture& f = Big();
  PreparedQuery q = Prepare(f.db, "SELECT title, year FROM inproc");
  Executor executor(f.db);
  double first_work = -1;
  for (int threads : kThreadCounts) {
    std::atomic<bool> cancel{true};
    ExecMetrics m;
    ExecOptions options;
    options.cancel = &cancel;
    options.exec_threads = threads;
    auto rows = executor.Run(*q.planned.root, &m, options);
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(rows.status().message().find("cancelled"), std::string::npos);
    if (first_work < 0) {
      first_work = m.work;
    } else {
      EXPECT_DOUBLE_EQ(first_work, m.work) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace xmlshred
