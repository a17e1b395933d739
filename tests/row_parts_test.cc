// Multi-part and permuted rows against in-order references kept in this
// file.
//
// Heap scans and hash joins hand on their spans' and morsels' chunks as
// the parts of the rows they return, and a Sort hands on its
// permutation. Both tables here hold four sealed blocks plus a tail, and
// each one's filter skips one block by its zone map, scans another
// without a survivor (a span that yields no part), and keeps rows in the
// others, so every scan yields several parts. Executor::Run must return,
// row by row and in order:
//   - for a hash join, the probe-major, build-ascending order of DESIGN
//     §13 (probe and build sides read from the plan), with and without
//     ORDER BY;
//   - for COUNT/SUM/MIN/MAX over a scan and over a join, a direct fold;
//   - for ORDER BY, including a sorted outer union of a scan and a join,
//     a std::stable_sort of those rows.
// Joins and aggregates read such parts in place; Sorts spliced under a
// hash join, a Sort and a UnionAll, and a column-reversing Project under
// an aggregate (plans the planner never builds) exercise permuted and
// mapped inputs. An index nested-loop join
// of pub and an indexed copy of auth must read its outer scan's parts in
// order, each outer row followed by its matches in index order.
// Executor::Count must return Run's row count with equal ExecMetrics and
// equal EXPLAIN JSON without timing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "exec/explain.h"
#include "opt/planner.h"
#include "rel/catalog.h"
#include "rel/column_block.h"
#include "rel/index.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace xmlshred {
namespace {

constexpr int64_t kBlock = static_cast<int64_t>(kStorageBlockRows);

// pub(ID, grp, name, val) and auth(ID, PID, name, lvl), with no index,
// so joins are hash joins over heap scans. Per block of pub, `grp = 5`
// keeps every other row of block 0, skips block 1 (grp 10..19), scans
// block 2 (grp 4 or 6) without a survivor, and keeps two rows in three
// of block 3 and every other row of the tail. Per block of auth,
// `lvl = 3` scans block 0 (lvl 2 or 4) without a survivor, skips block 1
// (lvl 20..22), and keeps a fifth of block 2, a third of block 3 and a
// quarter of the tail. `val` is a multiple of 0.25, so every SUM of it
// is exact in any order of addition. auth_ix is a copy of auth with a
// covering index on its join column PID.
struct PartsFixture {
  Database db;
  std::vector<Row> pub, auth;  // rows in scan order

  PartsFixture() {
    for (int64_t i = 0; i < 4 * kBlock + 700; ++i) {
      int64_t grp = 0;
      switch (i / kBlock) {
        case 0: grp = i % 2 == 0 ? 5 : 3; break;
        case 1: grp = 10 + i % 10; break;
        case 2: grp = i % 2 == 0 ? 4 : 6; break;
        case 3: grp = i % 3 != 0 ? 5 : 0; break;
        default: grp = i % 2 == 0 ? 5 : 1; break;
      }
      Value val = i % 13 == 0
                      ? Value::Null()
                      : Value::Real(0.25 * static_cast<double>(i % 8));
      pub.push_back({Value::Int(i), Value::Int(grp),
                     Value::Str("n_" + std::to_string(i * 7919 % 50)), val});
    }
    uint64_t x = 2024;
    for (int64_t k = 0; k < 4 * kBlock + 300; ++k) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      int64_t lvl = 0;
      switch (k / kBlock) {
        case 0: lvl = k % 2 == 0 ? 2 : 4; break;
        case 1: lvl = 20 + k % 3; break;
        case 2: lvl = k % 5; break;
        case 3: lvl = k % 3 == 0 ? 3 : 1; break;
        default: lvl = k % 4; break;
      }
      // PIDs drawn at random over pub's IDs, so a pub row has zero, one
      // or several authors, spread over auth's blocks; a few are NULL.
      Value pid = k % 50 == 0 ? Value::Null()
                              : Value::Int(static_cast<int64_t>(
                                    (x >> 33) % pub.size()));
      auth.push_back({Value::Int(1000000 + k), pid,
                      Value::Str("a_" + std::to_string(k * 31 % 97)),
                      Value::Int(lvl)});
    }
    Load({"pub",
          {{"ID", ColumnType::kInt64, false},
           {"grp", ColumnType::kInt64, true},
           {"name", ColumnType::kString, true},
           {"val", ColumnType::kDouble, true}},
          /*id_column=*/0,
          /*pid_column=*/-1},
         pub);
    for (std::string name : {"auth", "auth_ix"}) {
      Load({name,
            {{"ID", ColumnType::kInt64, false},
             {"PID", ColumnType::kInt64, true},
             {"name", ColumnType::kString, true},
             {"lvl", ColumnType::kInt64, true}},
            /*id_column=*/0,
            /*pid_column=*/1},
           auth);
    }
    IndexDef pid;
    pid.name = "auth_ix_pid";
    pid.table = "auth_ix";
    pid.key_columns = {1};
    pid.included_columns = {2, 3};
    EXPECT_TRUE(db.CreateIndex(pid).ok());
  }

  void Load(TableSchema schema, const std::vector<Row>& rows) {
    auto table = db.CreateTable(std::move(schema));
    ASSERT_TRUE(table.ok()) << table.status();
    for (const Row& row : rows) (*table)->AppendRow(row);
    ASSERT_EQ((*table)->column(0).num_sealed_blocks(), 4u);
    ASSERT_GT((*table)->column(0).tail_rows(), 0u);
  }
};

bool PubKept(const Row& p) { return p[1].AsInt() == 5; }
bool AuthKept(const Row& a) { return a[3].AsInt() == 3; }

// Same kind and same bits: tells int 3 from real 3.0.
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

// Output columns of one result row, from a pub row and an auth row (an
// empty Row when the query reads no auth).
using Select = std::function<Row(const Row& pub, const Row& auth)>;

// `select` over pub's kept rows, in scan order.
std::vector<Row> ScanReference(const PartsFixture& f, const Select& select) {
  std::vector<Row> out;
  for (const Row& p : f.pub) {
    if (PubKept(p)) out.push_back(select(p, Row{}));
  }
  return out;
}

std::vector<Row> StableSortBy(std::vector<Row> rows,
                              const std::vector<size_t>& columns) {
  std::stable_sort(rows.begin(), rows.end(),
                   [&columns](const Row& a, const Row& b) {
                     for (size_t c : columns) {
                       if (a[c].TotalLess(b[c])) return true;
                       if (b[c].TotalLess(a[c])) return false;
                     }
                     return false;
                   });
  return rows;
}

// `select` over the join of the kept rows on pub.ID = auth.PID, in
// DESIGN §13's order: probe rows in scan order (stably sorted on each
// of their columns `probe_sorts` in turn), each followed by its matching
// build rows in ascending scan order.
std::vector<Row> JoinReference(const PartsFixture& f, bool pub_probes,
                               const Select& select,
                               const std::vector<size_t>& probe_sorts = {}) {
  std::vector<Row> pubs, auths;
  std::map<int64_t, std::vector<const Row*>> pubs_by_id, auths_by_pid;
  for (const Row& p : f.pub) {
    if (PubKept(p)) pubs.push_back(p);
  }
  for (const Row& a : f.auth) {
    if (AuthKept(a) && !a[1].is_null()) auths.push_back(a);
  }
  std::vector<Row>& probe = pub_probes ? pubs : auths;
  for (size_t column : probe_sorts) {
    probe = StableSortBy(std::move(probe), {column});
  }
  for (const Row& p : pubs) pubs_by_id[p[0].AsInt()].push_back(&p);
  for (const Row& a : auths) auths_by_pid[a[1].AsInt()].push_back(&a);
  std::vector<Row> out;
  for (const Row& row : probe) {
    if (pub_probes) {
      for (const Row* a : auths_by_pid[row[0].AsInt()]) {
        out.push_back(select(row, *a));
      }
    } else {
      for (const Row* p : pubs_by_id[row[1].AsInt()]) {
        out.push_back(select(*p, row));
      }
    }
  }
  return out;
}

enum class Agg { kCountStar, kCount, kSum, kMin, kMax };

// One aggregate folded over column `col` of `rows`, in order: NULLs
// skipped (but counted by COUNT(*)), an integer SUM until a real
// appears, NULL for SUM, MIN and MAX over no value, and the first of
// equal MIN/MAX values.
Value Fold(const std::vector<Row>& rows, Agg agg, size_t col) {
  int64_t count = 0;
  int64_t isum = 0;
  double dsum = 0;
  bool saw_real = false;
  Value best;
  for (const Row& row : rows) {
    const Value& v = row[col];
    if (agg == Agg::kCountStar) ++count;
    if (v.is_null()) continue;
    if (agg == Agg::kCount || agg == Agg::kSum) ++count;
    if (agg == Agg::kSum) {
      if (v.is_int()) isum += v.AsInt();
      saw_real = saw_real || v.is_double();
      dsum += v.AsNumeric();
    }
    if ((agg == Agg::kMin && (best.is_null() || v.TotalLess(best))) ||
        (agg == Agg::kMax && (best.is_null() || best.TotalLess(v)))) {
      best = v;
    }
  }
  switch (agg) {
    case Agg::kCountStar:
    case Agg::kCount:
      return Value::Int(count);
    case Agg::kSum:
      if (count == 0) return Value::Null();
      return saw_real ? Value::Real(dsum) : Value::Int(isum);
    case Agg::kMin:
    case Agg::kMax:
      break;
  }
  return best;
}

std::vector<Row> FoldRow(const std::vector<Row>& rows,
                         const std::vector<std::pair<Agg, size_t>>& aggs) {
  Row out;
  for (const auto& [agg, col] : aggs) out.push_back(Fold(rows, agg, col));
  return {out};
}

const PlanNode* FindKind(const PlanNode& node, PlanKind kind) {
  if (node.kind == kind) return &node;
  for (const auto& child : node.children) {
    if (const PlanNode* found = FindKind(*child, kind)) return found;
  }
  return nullptr;
}

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

// Runs `root` through Run and expects `expected`, row by row and in
// order; then expects Count to return as many rows with equal ExecMetrics
// and EXPLAIN JSON without timing.
void ExpectRunMatches(const Database& db, const PlanNode& root,
                      const std::vector<Row>& expected,
                      const std::string& what) {
  ASSERT_FALSE(expected.empty()) << what;
  Executor executor(db);
  ExplainNode run_explain = BuildExplainTree(root);
  ExecOptions options;
  options.explain = &run_explain;
  ExecMetrics run_metrics;
  auto rows = executor.Run(root, &run_metrics, options);
  ASSERT_TRUE(rows.ok()) << what << ": " << rows.status();
  ExpectSameRowsInOrder(*rows, expected, what);
  EXPECT_GT(run_metrics.blocks_skipped, 0) << what;

  ExplainNode count_explain = BuildExplainTree(root);
  options.explain = &count_explain;
  ExecMetrics count_metrics;
  auto count = executor.Count(root, &count_metrics, options);
  ASSERT_TRUE(count.ok()) << what << ": " << count.status();
  EXPECT_EQ(*count, static_cast<int64_t>(rows->size())) << what;
  EXPECT_EQ(count_metrics.work, run_metrics.work) << what;
  EXPECT_EQ(count_metrics.pages_sequential, run_metrics.pages_sequential)
      << what;
  EXPECT_EQ(count_metrics.pages_random, run_metrics.pages_random) << what;
  EXPECT_EQ(count_metrics.rows_out, run_metrics.rows_out) << what;
  EXPECT_EQ(count_metrics.blocks_scanned, run_metrics.blocks_scanned) << what;
  EXPECT_EQ(count_metrics.blocks_skipped, run_metrics.blocks_skipped) << what;
  EXPECT_EQ(ExplainToJson(count_explain), ExplainToJson(run_explain)) << what;
}

struct PartsCase {
  std::string sql;
  PlanKind root;
  // The expected rows, given whether pub is the hash join's probe side.
  std::function<std::vector<Row>(bool pub_probes)> expected;
};

TEST(RowParts, RunMatchesInOrderReferencesAndCountAgrees) {
  PartsFixture f;
  const std::string join =
      " FROM pub P, auth A WHERE P.ID = A.PID AND P.grp = 5 AND A.lvl = 3";
  Select join_cols = [](const Row& p, const Row& a) {
    return Row{p[0], p[2], a[2], a[3]};
  };
  Select pub_cols = [](const Row& p, const Row&) { return p; };
  Select agg_join_cols = [](const Row& p, const Row& a) {
    return Row{p[0], p[3], a[2], a[3]};
  };
  Select union_scan_cols = [](const Row& p, const Row&) {
    return Row{p[0], p[2], Value::Null()};
  };
  Select union_join_cols = [](const Row& p, const Row& a) {
    return Row{p[0], Value::Null(), a[2]};
  };
  const std::vector<PartsCase> cases = {
      {"SELECT P.ID, P.name, A.name, A.lvl" + join, PlanKind::kProject,
       [&](bool pub_probes) {
         return JoinReference(f, pub_probes, join_cols);
       }},
      {"SELECT P.ID, P.name, A.name, A.lvl" + join + " ORDER BY 3, 1",
       PlanKind::kSort,
       [&](bool pub_probes) {
         return StableSortBy(JoinReference(f, pub_probes, join_cols),
                             {2, 0});
       }},
      {"SELECT COUNT(*), COUNT(P.val), SUM(P.grp), SUM(P.val), "
       "MIN(P.name), MAX(P.name), MIN(P.val), MAX(P.ID) "
       "FROM pub P WHERE P.grp = 5",
       PlanKind::kAggregate,
       [&](bool) {
         return FoldRow(ScanReference(f, pub_cols),
                        {{Agg::kCountStar, 0},
                         {Agg::kCount, 3},
                         {Agg::kSum, 1},
                         {Agg::kSum, 3},
                         {Agg::kMin, 2},
                         {Agg::kMax, 2},
                         {Agg::kMin, 3},
                         {Agg::kMax, 0}});
       }},
      {"SELECT COUNT(*), SUM(A.lvl), SUM(P.val), MIN(A.name), MAX(P.ID)" +
           join,
       PlanKind::kAggregate,
       [&](bool pub_probes) {
         return FoldRow(JoinReference(f, pub_probes, agg_join_cols),
                        {{Agg::kCountStar, 0},
                         {Agg::kSum, 3},
                         {Agg::kSum, 1},
                         {Agg::kMin, 2},
                         {Agg::kMax, 0}});
       }},
      {"SELECT P.ID, P.name, NULL FROM pub P WHERE P.grp = 5 UNION ALL "
       "SELECT P.ID, NULL, A.name" +
           join + " ORDER BY 1",
       PlanKind::kSort,
       [&](bool pub_probes) {
         std::vector<Row> rows = ScanReference(f, union_scan_cols);
         for (Row& row : JoinReference(f, pub_probes, union_join_cols)) {
           rows.push_back(std::move(row));
         }
         return StableSortBy(std::move(rows), {0});
       }},
  };

  for (const PartsCase& c : cases) {
    PlannedQuery plan = PlanSql(f.db, c.sql);
    ASSERT_EQ(plan.root->kind, c.root) << c.sql;
    // A join's inputs are both heap scans; the probe side is child 0.
    const PlanNode* hash = FindKind(*plan.root, PlanKind::kHashJoin);
    bool pub_probes = false;
    if (hash != nullptr) {
      ASSERT_EQ(hash->children[0]->kind, PlanKind::kHeapScan) << c.sql;
      ASSERT_EQ(hash->children[1]->kind, PlanKind::kHeapScan) << c.sql;
      pub_probes = hash->children[0]->object_name == "pub";
    } else {
      ASSERT_NE(FindKind(*plan.root, PlanKind::kHeapScan), nullptr) << c.sql;
    }
    ExpectRunMatches(f.db, *plan.root, c.expected(pub_probes), c.sql);
  }
}

// A selective filter on pub makes its join with auth_ix an index
// nested-loop join whose outer input is a heap scan of pub with
// survivors in three blocks, so in several parts (the string range,
// which the equality on name implies, takes the estimate to a third of
// that of the other filters, as name has no histogram). Its rows come
// out outer-major, each outer row followed by its matches in index
// order, which for equal keys is ascending row ID.
TEST(RowParts, IndexNestedLoopJoinReadsOuterPartsInOrder) {
  PartsFixture f;
  PlannedQuery plan = PlanSql(
      f.db, "SELECT P.ID, P.name, A.name, A.lvl FROM pub P, auth_ix A "
            "WHERE P.ID = A.PID AND P.grp = 5 AND P.name = 'n_10' "
            "AND P.name >= 'n_1' AND P.val = 0.5");
  const PlanNode* inl = FindKind(*plan.root, PlanKind::kIndexNlJoin);
  ASSERT_NE(inl, nullptr);
  ASSERT_EQ(inl->children[0]->kind, PlanKind::kHeapScan);
  ASSERT_EQ(inl->children[0]->object_name, "pub");
  std::vector<Row> expected;
  for (const Row& p : f.pub) {
    if (!PubKept(p) || p[2].AsString() != "n_10" ||
        !SameValue(p[3], Value::Real(0.5))) {
      continue;
    }
    for (const Row& a : f.auth) {
      if (!a[1].is_null() && a[1].AsInt() == p[0].AsInt()) {
        expected.push_back({p[0], p[2], a[2], a[3]});
      }
    }
  }
  ExpectRunMatches(f.db, *plan.root, expected, "index nested-loop join");
}

// Puts a Sort on `ordinals` of the node in `*slot` between it and its
// parent.
void SortUnder(std::unique_ptr<PlanNode>* slot, std::vector<int> ordinals) {
  auto sort = std::make_unique<PlanNode>();
  sort->kind = PlanKind::kSort;
  sort->sort_ordinals = std::move(ordinals);
  sort->output = (*slot)->output;
  sort->children.push_back(std::move(*slot));
  *slot = std::move(sort);
}

// Sorts under a hash join, under a Sort and under a UnionAll, and a
// column-reversing Project under an aggregate, none of which the planner
// builds: the join and the aggregate read a permuted and a mapped input,
// which are written once before they are read, the outer Sort composes
// its permutation with the inner one's, and the UnionAll writes its
// sorted branch before listing it.
TEST(RowParts, PermutedAndMappedInputsMatchReferences) {
  PartsFixture f;
  constexpr size_t kNameColumn = 2;  // in both tables
  Select join_cols = [](const Row& p, const Row& a) {
    return Row{p[0], p[2], a[2], a[3]};
  };
  // The join's probe scan sorted on its `name` column, then that sort
  // sorted again on the probe's join key (ID or PID).
  PlannedQuery join = PlanSql(
      f.db, "SELECT P.ID, P.name, A.name, A.lvl FROM pub P, auth A "
            "WHERE P.ID = A.PID AND P.grp = 5 AND A.lvl = 3");
  ASSERT_EQ(join.root->kind, PlanKind::kProject);
  PlanNode& hash = *join.root->children[0];
  ASSERT_EQ(hash.kind, PlanKind::kHashJoin);
  std::unique_ptr<PlanNode>& probe = hash.children[0];
  ASSERT_EQ(probe->kind, PlanKind::kHeapScan);
  bool pub_probes = probe->object_name == "pub";
  size_t key_column = pub_probes ? 0 : 1;
  int name_pos = probe->FindSlot(
      {probe->scan_table_idx, static_cast<int>(kNameColumn)});
  int key_pos = probe->FindSlot(
      {probe->scan_table_idx, static_cast<int>(key_column)});
  ASSERT_GE(name_pos, 0);
  ASSERT_GE(key_pos, 0);
  SortUnder(&probe, {name_pos});
  ExpectRunMatches(f.db, *join.root,
                   JoinReference(f, pub_probes, join_cols, {kNameColumn}),
                   "join over a sorted probe side");
  SortUnder(&probe, {key_pos});
  ExpectRunMatches(
      f.db, *join.root,
      JoinReference(f, pub_probes, join_cols, {kNameColumn, key_column}),
      "join over a twice-sorted probe side");

  // The sorted outer union with its join branch sorted on A.name first.
  PlannedQuery outer_union = PlanSql(
      f.db, "SELECT P.ID, P.name, NULL FROM pub P WHERE P.grp = 5 "
            "UNION ALL SELECT P.ID, NULL, A.name FROM pub P, auth A "
            "WHERE P.ID = A.PID AND P.grp = 5 AND A.lvl = 3 ORDER BY 1");
  ASSERT_EQ(outer_union.root->kind, PlanKind::kSort);
  PlanNode& union_all = *outer_union.root->children[0];
  ASSERT_EQ(union_all.kind, PlanKind::kUnionAll);
  const PlanNode* union_hash =
      FindKind(*union_all.children[1], PlanKind::kHashJoin);
  ASSERT_NE(union_hash, nullptr);
  bool union_pub_probes = union_hash->children[0]->object_name == "pub";
  SortUnder(&union_all.children[1], {2});
  std::vector<Row> union_rows =
      ScanReference(f, [](const Row& p, const Row&) {
        return Row{p[0], p[2], Value::Null()};
      });
  for (Row& row : StableSortBy(
           JoinReference(f, union_pub_probes,
                         [](const Row& p, const Row& a) {
                           return Row{p[0], Value::Null(), a[2]};
                         }),
           {2})) {
    union_rows.push_back(std::move(row));
  }
  ExpectRunMatches(f.db, *outer_union.root,
                   StableSortBy(std::move(union_rows), {0}),
                   "sorted outer union with a sorted branch");

  // The aggregate's scan, its columns read in reverse order.
  PlannedQuery agg = PlanSql(
      f.db, "SELECT COUNT(*), SUM(P.val), MIN(P.name), MAX(P.ID) "
            "FROM pub P WHERE P.grp = 5");
  ASSERT_EQ(agg.root->kind, PlanKind::kAggregate);
  std::unique_ptr<PlanNode>& scan = agg.root->children[0];
  ASSERT_EQ(scan->kind, PlanKind::kHeapScan);
  auto project = std::make_unique<PlanNode>();
  project->kind = PlanKind::kProject;
  for (auto it = scan->output.rbegin(); it != scan->output.rend(); ++it) {
    BoundItem item;
    item.ref = {it->table_idx, it->column};
    project->project_items.push_back(item);
    project->output.push_back(*it);
  }
  ASSERT_GT(project->output.size(), 1u);
  project->children.push_back(std::move(scan));
  scan = std::move(project);
  ExpectRunMatches(
      f.db, *agg.root,
      FoldRow(ScanReference(f, [](const Row& p, const Row&) { return p; }),
              {{Agg::kCountStar, 0},
               {Agg::kSum, 3},
               {Agg::kMin, 2},
               {Agg::kMax, 0}}),
      "aggregate over a column-reversing project");
}

}  // namespace
}  // namespace xmlshred
