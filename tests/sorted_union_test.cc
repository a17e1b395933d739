// The sorted outer union (Sort over UnionAll over Projects) against
// references kept in this file.
//
// SortOrder: ORDER BY results of Executor::Run, row by row and in order,
// equal a std::stable_sort by Value::TotalLess of the same rows in scan
// and branch order, built here from the inserted data. Keys mix NULL,
// int, real and string cells and tie often
// (-0.0 against 0.0, int 3 against real 3.0), inside one union branch and
// across branches.
//
// RowCap: a row cap set just below the rows charged through each node of
// a two-branch sorted outer union trips at that node, with the status,
// message, metering and charged rows recorded below, for Run and Count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "common/limits.h"
#include "exec/executor.h"
#include "exec/explain.h"
#include "opt/planner.h"
#include "rel/catalog.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace xmlshred {
namespace {

PlannedQuery PlanSql(const Database& db, const std::string& sql) {
  auto parsed = ParseSql(sql);
  EXPECT_TRUE(parsed.ok()) << sql << ": " << parsed.status();
  CatalogDesc catalog = db.BuildCatalogDesc();
  auto bound = BindQuery(*parsed, catalog);
  EXPECT_TRUE(bound.ok()) << sql << ": " << bound.status();
  auto planned = PlanQuery(*bound, catalog);
  EXPECT_TRUE(planned.ok()) << sql << ": " << planned.status();
  return std::move(*planned);
}

// Same kind and same bits: tells -0.0 from 0.0 and int 3 from real 3.0,
// which TotalEquals does not.
bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_int() || b.is_int()) {
    return a.is_int() && b.is_int() && a.AsInt() == b.AsInt();
  }
  if (a.is_double() || b.is_double()) {
    if (!a.is_double() || !b.is_double()) return false;
    double x = a.AsDouble(), y = b.AsDouble();
    return std::memcmp(&x, &y, sizeof x) == 0;
  }
  return a.AsString() == b.AsString();
}

// ---------------------------------------------------------------------
// Sort order.

// Keys drawn with replacement from small pools, so most rows tie with
// others; no NaN, which TotalLess cannot order.
const std::vector<Value>& KeyPool() {
  static const std::vector<Value>* pool = new std::vector<Value>{
      Value::Null(),      Value::Int(3),        Value::Real(3.0),
      Value::Real(-0.0),  Value::Real(0.0),     Value::Int(0),
      Value::Int(-5),     Value::Real(2.5),     Value::Real(-1e9),
      Value::Int(100),    Value::Str(""),       Value::Str("apple"),
      Value::Str("apples"), Value::Str("banana")};
  return *pool;
}

const std::vector<Value>& SecondKeyPool() {
  static const std::vector<Value>* pool = new std::vector<Value>{
      Value::Null(), Value::Int(1), Value::Real(1.0), Value::Int(-2),
      Value::Str("x"), Value::Str("y")};
  return *pool;
}

struct SortFixture {
  Database db;
  // Rows of each table in insertion (= scan) order: k, k2, tag.
  std::vector<Row> shuffled, sorted, reversed, branch1, branch2;

  SortFixture() {
    // 9000 rows: three blocks, so the sort's input arrives in three
    // parts.
    uint64_t x = 12345;
    auto next = [&x] {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      return x >> 33;
    };
    for (int64_t i = 0; i < 9000; ++i) {
      shuffled.push_back({KeyPool()[next() % KeyPool().size()],
                          SecondKeyPool()[next() % SecondKeyPool().size()],
                          Value::Int(i)});
    }
    sorted = shuffled;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Row& a, const Row& b) {
                       if (a[0].TotalLess(b[0])) return true;
                       if (b[0].TotalLess(a[0])) return false;
                       return a[1].TotalLess(b[1]);
                     });
    reversed.assign(sorted.rbegin(), sorted.rend());
    // Two branches, each in ascending key order, interleaving: ints in
    // the first (each key three times), reals in the second (each key
    // twice), so equal keys tie within and across branches.
    for (int64_t i = 0; i < 6000; ++i) {
      branch1.push_back({Value::Int(i / 3), Value::Int(i % 2),
                         Value::Int(100000 + i)});
    }
    for (int64_t i = 0; i < 5000; ++i) {
      branch2.push_back({Value::Real(static_cast<double>(i / 2)),
                         Value::Str(i % 3 == 0 ? "x" : "y"),
                         Value::Int(200000 + i)});
    }
    Load("t_shuffled", shuffled);
    Load("t_sorted", sorted);
    Load("t_reversed", reversed);
    Load("t_branch1", branch1);
    Load("t_branch2", branch2);
  }

  void Load(const std::string& name, const std::vector<Row>& rows) {
    TableSchema schema;
    schema.name = name;
    schema.columns = {{"k", ColumnType::kInt64, true},
                      {"k2", ColumnType::kInt64, true},
                      {"tag", ColumnType::kInt64, false}};
    auto table = db.CreateTable(schema);
    ASSERT_TRUE(table.ok()) << table.status();
    for (const Row& row : rows) (*table)->AppendRow(row);
  }
};

// Picks columns of `rows` (-1 = a NULL literal), as a SELECT list does.
std::vector<Row> Select(const std::vector<Row>& rows,
                        const std::vector<int>& columns) {
  std::vector<Row> out;
  for (const Row& row : rows) {
    Row r;
    for (int c : columns) {
      r.push_back(c < 0 ? Value::Null() : row[static_cast<size_t>(c)]);
    }
    out.push_back(std::move(r));
  }
  return out;
}

// The reference ORDER BY: a stable sort of the unsorted rows by the
// 0-based `ordinals`, under TotalLess.
std::vector<Row> StableSortBy(std::vector<Row> rows,
                              const std::vector<size_t>& ordinals) {
  std::stable_sort(rows.begin(), rows.end(),
                   [&ordinals](const Row& a, const Row& b) {
                     for (size_t o : ordinals) {
                       if (a[o].TotalLess(b[o])) return true;
                       if (b[o].TotalLess(a[o])) return false;
                     }
                     return false;
                   });
  return rows;
}

void ExpectSameRowsInOrder(const std::vector<Row>& actual,
                           const std::vector<Row>& expected,
                           const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t r = 0; r < actual.size(); ++r) {
    ASSERT_EQ(actual[r].size(), expected[r].size()) << label;
    for (size_t c = 0; c < actual[r].size(); ++c) {
      ASSERT_TRUE(SameValue(actual[r][c], expected[r][c]))
          << label << ": row " << r << " column " << c << " is "
          << actual[r][c].ToString() << ", expected "
          << expected[r][c].ToString();
    }
  }
}

struct SortCase {
  const char* sql;
  std::vector<Row> unsorted;      // scan and branch order
  std::vector<size_t> ordinals;   // 0-based ORDER BY; empty = none
  PlanKind root;
};

TEST(SortOrder, RunMatchesStableSortByTotalLess) {
  SortFixture f;
  std::vector<Row> union_rows = Select(f.branch1, {0, 2, -1});
  for (Row& row : Select(f.branch2, {0, -1, 2})) union_rows.push_back(row);
  std::vector<Row> union2 = Select(f.shuffled, {0, 1, 2});
  for (Row& row : Select(f.branch2, {0, 1, 2})) union2.push_back(row);
  std::vector<SortCase> cases = {
      {"SELECT k, tag FROM t_shuffled ORDER BY 1",
       Select(f.shuffled, {0, 2}), {0}, PlanKind::kSort},
      {"SELECT k, tag FROM t_sorted ORDER BY 1", Select(f.sorted, {0, 2}),
       {0}, PlanKind::kSort},
      {"SELECT k, tag FROM t_reversed ORDER BY 1",
       Select(f.reversed, {0, 2}), {0}, PlanKind::kSort},
      {"SELECT k, k2, tag FROM t_shuffled ORDER BY 1, 2",
       Select(f.shuffled, {0, 1, 2}), {0, 1}, PlanKind::kSort},
      {"SELECT tag, k2, k FROM t_shuffled ORDER BY 2, 3",
       Select(f.shuffled, {2, 1, 0}), {1, 2}, PlanKind::kSort},
      {"SELECT k, k2, tag FROM t_sorted ORDER BY 1, 2",
       Select(f.sorted, {0, 1, 2}), {0, 1}, PlanKind::kSort},
      {"SELECT k, k2, tag FROM t_reversed ORDER BY 1, 2",
       Select(f.reversed, {0, 1, 2}), {0, 1}, PlanKind::kSort},
      // The sorted outer union: NULL-padded branches, each in key order.
      {"SELECT k, tag, NULL FROM t_branch1 UNION ALL "
       "SELECT k, NULL, tag FROM t_branch2 ORDER BY 1",
       union_rows, {0}, PlanKind::kSort},
      {"SELECT k, k2, tag FROM t_shuffled UNION ALL "
       "SELECT k, k2, tag FROM t_branch2 ORDER BY 2, 1",
       union2, {1, 0}, PlanKind::kSort},
      // No ORDER BY: the root is the UnionAll of Projects itself.
      {"SELECT k, tag, NULL FROM t_branch1 UNION ALL "
       "SELECT k, NULL, tag FROM t_branch2",
       union_rows, {}, PlanKind::kUnionAll},
  };
  Executor executor(f.db);
  for (const SortCase& c : cases) {
    PlannedQuery plan = PlanSql(f.db, c.sql);
    ASSERT_EQ(plan.root->kind, c.root) << c.sql;
    std::vector<Row> expected =
        c.ordinals.empty() ? c.unsorted : StableSortBy(c.unsorted, c.ordinals);
    auto rows = executor.Run(*plan.root, nullptr);
    ASSERT_TRUE(rows.ok()) << c.sql << ": " << rows.status();
    ExpectSameRowsInOrder(*rows, expected, c.sql);
  }
}

// ---------------------------------------------------------------------
// Row-cap trip points.

struct JoinFixture {
  Database db;

  JoinFixture() {
    TableSchema pub;
    pub.name = "pub";
    pub.columns = {{"ID", ColumnType::kInt64, false},
                   {"title", ColumnType::kString, true},
                   {"year", ColumnType::kInt64, true}};
    pub.id_column = 0;
    TableSchema author;
    author.name = "author";
    author.columns = {{"ID", ColumnType::kInt64, false},
                      {"PID", ColumnType::kInt64, true},
                      {"name", ColumnType::kString, true}};
    author.id_column = 0;
    author.pid_column = 1;
    auto p = db.CreateTable(pub);
    EXPECT_TRUE(p.ok());
    auto a = db.CreateTable(author);
    EXPECT_TRUE(a.ok());
    int64_t next_author = 100000;
    for (int64_t i = 0; i < 6000; ++i) {
      (*p)->AppendRow({Value::Int(i), Value::Str("title_" + std::to_string(i)),
                       Value::Int(1980 + i % 20)});
      for (int64_t k = 0; k < 1 + i % 3; ++k) {
        (*a)->AppendRow({Value::Int(next_author++), Value::Int(i),
                         Value::Str("author_" + std::to_string((i + k) % 50))});
      }
    }
  }
};

// Node kinds and actual rows in execution (post-) order, the order in
// which Exec charges each node's output rows against the governor.
void PostOrder(const ExplainNode& en, std::vector<std::string>* kinds,
               std::vector<int64_t>* rows) {
  for (const ExplainNode& child : en.children) PostOrder(child, kinds, rows);
  kinds->push_back(en.kind);
  rows->push_back(en.actual_rows);
}

// What a tripped run leaves behind, recorded from the executor that
// copied cells at every Project and UnionAll.
struct Trip {
  const char* kind;
  int64_t max_rows;
  const char* message;
  double work;
  double pages_sequential;
  int64_t blocks_scanned;
  int64_t rows_charged;
};

// Work and sequential pages are exact doubles, written in hex: 10.2 and 9
// pages after the first scan, 20.4 and 18 after the second, 39.8 and 35
// after the third, then the join's 46.07 and the sort's 49.6.
const Trip kTrips[] = {
    {"HeapScan", 299, "row cap of 299 exceeded", 0x1.4666666666666p+3,
     0x1.2p+3, 2, 300},
    {"Project", 599, "row cap of 599 exceeded", 0x1.4666666666666p+3,
     0x1.2p+3, 2, 600},
    {"HeapScan", 899, "row cap of 899 exceeded", 0x1.4666666666666p+4,
     0x1.2p+4, 4, 900},
    {"HeapScan", 12899, "row cap of 12899 exceeded", 0x1.3e66666666666p+5,
     0x1.18p+5, 7, 12900},
    {"HashJoin", 13499, "row cap of 13499 exceeded", 0x1.708f5c28f5c28p+5,
     0x1.18p+5, 7, 13500},
    {"Project", 14099, "row cap of 14099 exceeded", 0x1.708f5c28f5c28p+5,
     0x1.18p+5, 7, 14100},
    {"UnionAll", 14999, "row cap of 14999 exceeded", 0x1.708f5c28f5c28p+5,
     0x1.18p+5, 7, 15000},
    {"Sort", 15899, "row cap of 15899 exceeded", 0x1.8cd2dd5634edp+5,
     0x1.18p+5, 7, 15900},
};

TEST(RowCap, TripsAtEveryNodeOfSortedOuterUnion) {
  JoinFixture f;
  PlannedQuery plan = PlanSql(
      f.db,
      "SELECT P.ID, P.title, NULL FROM pub P WHERE P.year = 1990 "
      "UNION ALL SELECT P.ID, NULL, A.name FROM pub P, author A "
      "WHERE P.ID = A.PID AND P.year = 1990 ORDER BY 1");
  Executor executor(f.db);
  ExplainNode clean = BuildExplainTree(*plan.root);
  ExecOptions explain;
  explain.explain = &clean;
  ExecMetrics clean_metrics;
  ASSERT_TRUE(executor.Run(*plan.root, &clean_metrics, explain).ok());

  std::vector<std::string> kinds;
  std::vector<int64_t> node_rows;
  PostOrder(clean, &kinds, &node_rows);
  ASSERT_EQ(kinds, (std::vector<std::string>{
                       "HeapScan", "Project", "HeapScan", "HeapScan",
                       "HashJoin", "Project", "UnionAll", "Sort"}));
  ASSERT_EQ(std::size(kTrips), kinds.size());

  int64_t charged = 0;
  for (size_t i = 0; i < kinds.size(); ++i) {
    charged += node_rows[i];
    const Trip& want = kTrips[i];
    EXPECT_EQ(kinds[i], want.kind);
    EXPECT_EQ(charged - 1, want.max_rows) << kinds[i] << " #" << i;
    for (bool count_only : {false, true}) {
      ResourceLimits limits;
      limits.max_rows = charged - 1;
      ResourceGovernor governor(limits);
      ExecOptions options;
      options.governor = &governor;
      ExecMetrics m;
      Status status =
          count_only ? executor.Count(*plan.root, &m, options).status()
                     : executor.Run(*plan.root, &m, options).status();
      std::string label = std::string(count_only ? "Count" : "Run") +
                          " tripped at " + kinds[i] + " #" +
                          std::to_string(i);
      EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << label;
      EXPECT_EQ(status.message(), want.message) << label;
      EXPECT_EQ(m.work, want.work) << label;
      EXPECT_EQ(m.pages_sequential, want.pages_sequential) << label;
      EXPECT_EQ(m.pages_random, 0.0) << label;
      EXPECT_EQ(m.rows_out, 0) << label;
      EXPECT_EQ(m.blocks_scanned, want.blocks_scanned) << label;
      EXPECT_EQ(m.blocks_skipped, 0) << label;
      EXPECT_EQ(governor.rows_charged(), want.rows_charged) << label;
    }
  }
}

}  // namespace
}  // namespace xmlshred
