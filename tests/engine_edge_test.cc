// Edge-case tests for the relational engine: empty relations, all-NULL
// columns, zero-result queries, NULL join keys, duplicate values, and
// plan shapes under degenerate statistics.

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "opt/planner.h"
#include "rel/catalog.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace xmlshred {
namespace {

class EdgeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSchema parent;
    parent.name = "p";
    parent.columns = {{"ID", ColumnType::kInt64, false},
                      {"PID", ColumnType::kInt64, true},
                      {"v", ColumnType::kInt64, true},
                      {"s", ColumnType::kString, true}};
    parent.id_column = 0;
    parent.pid_column = 1;
    TableSchema child;
    child.name = "c";
    child.columns = {{"ID", ColumnType::kInt64, false},
                     {"PID", ColumnType::kInt64, true},
                     {"w", ColumnType::kString, true}};
    child.id_column = 0;
    child.pid_column = 1;
    auto p = db_.CreateTable(parent);
    ASSERT_TRUE(p.ok());
    auto c = db_.CreateTable(child);
    ASSERT_TRUE(c.ok());
    parent_ = *p;
    child_ = *c;
  }

  Result<std::vector<Row>> Run(const std::string& sql) {
    auto parsed = ParseSql(sql);
    if (!parsed.ok()) return parsed.status();
    CatalogDesc catalog = db_.BuildCatalogDesc();
    auto bound = BindQuery(*parsed, catalog);
    if (!bound.ok()) return bound.status();
    auto planned = PlanQuery(*bound, catalog);
    if (!planned.ok()) return planned.status();
    Executor executor(db_);
    ExecMetrics metrics;
    return executor.Run(*planned->root, &metrics);
  }

  Database db_;
  Table* parent_ = nullptr;
  Table* child_ = nullptr;
};

TEST_F(EdgeFixture, EmptyTableQueries) {
  auto rows = Run("SELECT v FROM p WHERE v = 1");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_TRUE(rows->empty());
  rows = Run("SELECT p.v, c.w FROM p, c WHERE p.ID = c.PID");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST_F(EdgeFixture, EmptyTableIndexAndStats) {
  IndexDef idx;
  idx.name = "i";
  idx.table = "p";
  idx.key_columns = {2};
  ASSERT_TRUE(db_.CreateIndex(idx).ok());
  EXPECT_EQ(db_.FindIndex("i")->entry_count(), 0);
  auto rows = Run("SELECT s FROM p WHERE v = 5");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_TRUE(rows->empty());
}

TEST_F(EdgeFixture, AllNullColumn) {
  for (int i = 0; i < 100; ++i) {
    parent_->AppendRow(
        {Value::Int(i), Value::Null(), Value::Null(), Value::Null()});
  }
  auto rows = Run("SELECT ID FROM p WHERE v = 1");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  rows = Run("SELECT ID FROM p WHERE v IS NOT NULL");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  TableStats stats = parent_->ComputeStats();
  EXPECT_EQ(stats.columns[2].non_null_count, 0);
  EXPECT_EQ(stats.columns[2].EqSelectivity(Value::Int(1)), 0.0);
}

TEST_F(EdgeFixture, NullJoinKeysNeverMatch) {
  parent_->AppendRow({Value::Int(1), Value::Null(), Value::Int(10),
                      Value::Str("a")});
  // Child rows with NULL PID must not join to anything.
  child_->AppendRow({Value::Int(100), Value::Null(), Value::Str("orphan")});
  child_->AppendRow({Value::Int(101), Value::Int(1), Value::Str("ok")});
  auto rows = Run("SELECT p.ID, c.w FROM p, c WHERE p.ID = c.PID");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1].AsString(), "ok");

  // Same through an index-nested-loop plan.
  IndexDef idx;
  idx.name = "c_pid";
  idx.table = "c";
  idx.key_columns = {1};
  idx.included_columns = {2};
  ASSERT_TRUE(db_.CreateIndex(idx).ok());
  rows = Run(
      "SELECT p.ID, c.w FROM p, c WHERE p.ID = c.PID AND p.v = 10");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
}

TEST_F(EdgeFixture, DuplicateKeyValuesInIndex) {
  for (int i = 0; i < 50; ++i) {
    parent_->AppendRow({Value::Int(i), Value::Null(), Value::Int(7),
                        Value::Str("dup")});
  }
  IndexDef idx;
  idx.name = "i";
  idx.table = "p";
  idx.key_columns = {2};
  ASSERT_TRUE(db_.CreateIndex(idx).ok());
  EXPECT_EQ(db_.FindIndex("i")->EqualLookup({Value::Int(7)}).size(), 50u);
  auto rows = Run("SELECT ID FROM p WHERE v = 7");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 50u);
}

TEST_F(EdgeFixture, NumericStringComparisonSemantics) {
  parent_->AppendRow({Value::Int(1), Value::Null(), Value::Int(5),
                      Value::Str("5")});
  // Comparing a string column with an integer literal never matches
  // (typed SQL semantics, not coercion).
  auto rows = Run("SELECT ID FROM p WHERE s = 5");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  rows = Run("SELECT ID FROM p WHERE s = '5'");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  // And int column matches a double literal of equal value.
  rows = Run("SELECT ID FROM p WHERE v = 5.0");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
}

TEST_F(EdgeFixture, OrderByStableAndNullsFirst) {
  parent_->AppendRow({Value::Int(3), Value::Null(), Value::Int(2),
                      Value::Str("b")});
  parent_->AppendRow({Value::Int(1), Value::Null(), Value::Null(),
                      Value::Str("a")});
  parent_->AppendRow({Value::Int(2), Value::Null(), Value::Int(1),
                      Value::Str("c")});
  auto rows = Run("SELECT v, ID FROM p ORDER BY 1");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_TRUE((*rows)[0][0].is_null());  // NULLs first in total order
  EXPECT_EQ((*rows)[1][0].AsInt(), 1);
  EXPECT_EQ((*rows)[2][0].AsInt(), 2);
}

TEST_F(EdgeFixture, UnionAllWithEmptyBranch) {
  parent_->AppendRow({Value::Int(1), Value::Null(), Value::Int(10),
                      Value::Str("x")});
  auto rows = Run(
      "SELECT ID FROM p WHERE v = 10 UNION ALL SELECT ID FROM p WHERE "
      "v = 999 ORDER BY 1");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
}

TEST_F(EdgeFixture, SelfJoinAliases) {
  parent_->AppendRow({Value::Int(1), Value::Null(), Value::Int(10),
                      Value::Str("x")});
  parent_->AppendRow({Value::Int(2), Value::Int(1), Value::Int(20),
                      Value::Str("y")});
  auto rows = Run(
      "SELECT a.ID, b.ID FROM p a, p b WHERE b.PID = a.ID");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].AsInt(), 1);
  EXPECT_EQ((*rows)[0][1].AsInt(), 2);
}

TEST_F(EdgeFixture, ViewOnEmptyBase) {
  ViewDef def;
  def.name = "v_empty";
  def.base_table = "p";
  def.preds = {{"p", "v", "=", Value::Int(1)}};
  def.projected = {{"p", "ID"}};
  ASSERT_TRUE(db_.CreateMaterializedView(def).ok());
  EXPECT_EQ(db_.FindTable("v_empty")->row_count(), 0);
  auto rows = Run("SELECT ID FROM p WHERE v = 1");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST(PlannerDegenerateTest, ZeroRowStatsDoNotCrash) {
  CatalogDesc catalog;
  TableDesc desc;
  desc.schema.name = "t";
  desc.schema.columns = {{"ID", ColumnType::kInt64, false},
                         {"x", ColumnType::kInt64, true}};
  desc.schema.id_column = 0;
  desc.stats.row_count = 0;
  desc.stats.columns.resize(2);
  catalog.tables["t"] = desc;
  auto parsed = ParseSql("SELECT x FROM t WHERE x >= 3");
  ASSERT_TRUE(parsed.ok());
  auto bound = BindQuery(*parsed, catalog);
  ASSERT_TRUE(bound.ok());
  auto planned = PlanQuery(*bound, catalog);
  ASSERT_TRUE(planned.ok()) << planned.status();
  EXPECT_GE(planned->est_cost, 0);
}

TEST(PlannerDegenerateTest, HypotheticalIndexUsedInPlanOnly) {
  // A hypothetical index can be planned with but obviously not executed;
  // the planner must pick it when beneficial.
  CatalogDesc catalog;
  TableDesc desc;
  desc.schema.name = "t";
  desc.schema.columns = {{"ID", ColumnType::kInt64, false},
                         {"x", ColumnType::kInt64, true},
                         {"y", ColumnType::kString, true}};
  desc.schema.id_column = 0;
  Table table(desc.schema);
  for (int i = 0; i < 100000; ++i) {
    table.AppendRow({Value::Int(i), Value::Int(i % 1000),
                     Value::Str("some long payload string here")});
  }
  desc.stats = table.ComputeStats();
  catalog.tables["t"] = desc;
  IndexDesc idx;
  idx.def.name = "hyp";
  idx.def.table = "t";
  idx.def.key_columns = {1};
  idx.def.included_columns = {2};
  idx.hypothetical = true;
  idx.entry_count = 100000;
  idx.entry_bytes = 40;
  catalog.indexes.push_back(idx);

  auto parsed = ParseSql("SELECT y FROM t WHERE x = 5");
  ASSERT_TRUE(parsed.ok());
  auto bound = BindQuery(*parsed, catalog);
  ASSERT_TRUE(bound.ok());
  auto planned = PlanQuery(*bound, catalog);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->objects_used.count("hyp"), 1u);
}

}  // namespace
}  // namespace xmlshred
