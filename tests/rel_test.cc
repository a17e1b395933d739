// Unit tests for src/rel: values, schemas, tables, stats, indexes, catalog.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "rel/catalog.h"
#include "rel/column_reader.h"
#include "rel/index.h"
#include "rel/stats.h"
#include "rel/table.h"
#include "rel/value.h"

namespace xmlshred {
namespace {

TEST(ValueTest, NullSemantics) {
  Value n = Value::Null();
  EXPECT_TRUE(n.is_null());
  EXPECT_FALSE(n.SqlEquals(n));
  EXPECT_FALSE(n.SqlLess(Value::Int(1)));
  EXPECT_TRUE(n.TotalEquals(Value::Null()));
  EXPECT_TRUE(n.TotalLess(Value::Int(0)));
}

TEST(ValueTest, NumericPromotion) {
  EXPECT_TRUE(Value::Int(3).SqlEquals(Value::Real(3.0)));
  EXPECT_TRUE(Value::Int(2).SqlLess(Value::Real(2.5)));
  EXPECT_EQ(Value::Int(3).Hash(), Value::Real(3.0).Hash());
}

TEST(ValueTest, StringComparison) {
  EXPECT_TRUE(Value::Str("a").SqlLess(Value::Str("b")));
  EXPECT_FALSE(Value::Str("a").SqlEquals(Value::Int(1)));
  // Total order: numerics sort before strings.
  EXPECT_TRUE(Value::Int(999).TotalLess(Value::Str("0")));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::Str("hi").ToString(), "'hi'");
}

TEST(RowTest, LexicographicOrder) {
  Row a = {Value::Int(1), Value::Str("b")};
  Row b = {Value::Int(1), Value::Str("c")};
  EXPECT_TRUE(RowTotalLess(a, b));
  EXPECT_FALSE(RowTotalLess(b, a));
  EXPECT_TRUE(RowTotalEquals()(a, a));
  EXPECT_EQ(RowHash()(a), RowHash()(a));
}

TableSchema MakePubSchema() {
  TableSchema schema;
  schema.name = "inproc";
  schema.columns = {{"ID", ColumnType::kInt64, false},
                    {"PID", ColumnType::kInt64, true},
                    {"title", ColumnType::kString, true},
                    {"year", ColumnType::kInt64, true}};
  schema.id_column = 0;
  schema.pid_column = 1;
  return schema;
}

TEST(SchemaTest, FindColumn) {
  TableSchema schema = MakePubSchema();
  EXPECT_EQ(schema.FindColumn("title"), 2);
  EXPECT_EQ(schema.FindColumn("missing"), -1);
  EXPECT_NE(schema.ToString().find("inproc("), std::string::npos);
}

Table MakePubTable(int n) {
  Table table(MakePubSchema());
  for (int i = 0; i < n; ++i) {
    table.AppendRow({Value::Int(i), Value::Null(),
                     Value::Str("title_" + std::to_string(i % 10)),
                     Value::Int(1990 + i % 20)});
  }
  return table;
}

TEST(TableTest, PageAccounting) {
  Table table = MakePubTable(1000);
  EXPECT_EQ(table.row_count(), 1000);
  EXPECT_GT(table.avg_row_bytes(), 8.0);
  EXPECT_GE(table.NumPages(), 1);
  EXPECT_EQ(PagesFor(0, 100.0), 0);
  EXPECT_EQ(PagesFor(1, 10.0), 1);
  EXPECT_EQ(PagesFor(1000, 8192.0), 1000);
}

// Satellite regression for the avg_row_bytes double-accumulation drift:
// byte tallies are exact int64 sums per column, so a 1M-row table's
// logical average is pinned exactly — every row is 29 bytes (ID 8 +
// NULL PID 4 + 7-char title 9 + year 8). NumPages now reflects the
// *encoded* footprint: 244 sealed blocks per column compress to RLE /
// bit-packed images (sequential IDs bit-pack, the 10 distinct titles and
// 20 distinct years RLE or pack into a few bits per row), shrinking
// ceil(1e6 * 29 / 8192) = 3541 plain pages to an exact 326. The pin is a
// compression-ratio regression test: any encoder change that alters the
// chosen encodings or their sizes must move this number consciously.
TEST(TableTest, MillionRowPageCountIsExact) {
  Table table(MakePubSchema());
  constexpr int64_t kRows = 1000000;
  for (int64_t i = 0; i < kRows; ++i) {
    table.AppendRow({Value::Int(i), Value::Null(),
                     Value::Str("title_" + std::to_string(i % 10)),
                     Value::Int(1990 + i % 20)});
  }
  EXPECT_EQ(table.row_count(), kRows);
  EXPECT_EQ(table.total_bytes(), kRows * 29);
  EXPECT_EQ(table.avg_row_bytes(), 29.0);
  EXPECT_EQ(table.NumPages(), 326);
}

TEST(StatsTest, BasicColumnStats) {
  Table table = MakePubTable(1000);
  TableStats stats = table.ComputeStats();
  EXPECT_EQ(stats.row_count, 1000);
  const ColumnStats& year = stats.columns[3];
  EXPECT_EQ(year.non_null_count, 1000);
  EXPECT_EQ(year.distinct_estimate, 20);
  EXPECT_TRUE(year.min.TotalEquals(Value::Int(1990)));
  EXPECT_TRUE(year.max.TotalEquals(Value::Int(2009)));
}

TEST(StatsTest, EqSelectivityFromMcvs) {
  Table table = MakePubTable(1000);
  TableStats stats = table.ComputeStats();
  // Each of the 20 years occurs 50 times.
  double sel = stats.columns[3].EqSelectivity(Value::Int(1995));
  EXPECT_NEAR(sel, 0.05, 1e-9);
  // Out of range probe.
  EXPECT_EQ(stats.columns[3].EqSelectivity(Value::Int(1900)), 0.0);
}

TEST(StatsTest, RangeSelectivityFromHistogram) {
  Table table = MakePubTable(1000);
  TableStats stats = table.ComputeStats();
  double sel = stats.columns[3].RangeSelectivity(">=", Value::Int(2000));
  EXPECT_NEAR(sel, 0.5, 0.08);
  sel = stats.columns[3].RangeSelectivity("<", Value::Int(1990));
  EXPECT_NEAR(sel, 0.0, 0.03);
  sel = stats.columns[3].RangeSelectivity("<=", Value::Int(2009));
  EXPECT_NEAR(sel, 1.0, 0.03);
}

TEST(StatsTest, NullCounting) {
  TableSchema schema = MakePubSchema();
  Table table(schema);
  for (int i = 0; i < 100; ++i) {
    table.AppendRow({Value::Int(i), Value::Null(),
                     i % 4 == 0 ? Value::Null() : Value::Str("t"),
                     Value::Int(2000)});
  }
  TableStats stats = table.ComputeStats();
  EXPECT_EQ(stats.columns[2].null_count, 25);
  EXPECT_NEAR(stats.columns[2].NotNullSelectivity(), 0.75, 1e-9);
}

TEST(IndexTest, EqualLookup) {
  Table table = MakePubTable(1000);
  IndexDef def;
  def.name = "idx_year";
  def.table = "inproc";
  def.key_columns = {3};
  BTreeIndex index(def, table);
  EXPECT_EQ(index.entry_count(), 1000);
  std::vector<int64_t> rows = index.EqualLookup({Value::Int(1995)});
  EXPECT_EQ(rows.size(), 50u);
  for (int64_t rid : rows) {
    EXPECT_TRUE(table.GetValue(rid, 3).TotalEquals(Value::Int(1995)));
  }
  EXPECT_TRUE(index.EqualLookup({Value::Int(1900)}).empty());
}

TEST(IndexTest, RangeLookup) {
  Table table = MakePubTable(1000);
  IndexDef def;
  def.name = "idx_year";
  def.table = "inproc";
  def.key_columns = {3};
  BTreeIndex index(def, table);
  auto rows = index.RangeLookup(Value::Int(2005), false, Value::Null(), false);
  EXPECT_EQ(rows.size(), 250u);  // 2005..2009, 50 each
  rows = index.RangeLookup(Value::Int(2005), true, Value::Int(2007), true);
  EXPECT_EQ(rows.size(), 50u);  // only 2006
}

TEST(IndexTest, CompositeKeyAndCovering) {
  Table table = MakePubTable(100);
  IndexDef def;
  def.name = "idx_year_title";
  def.table = "inproc";
  def.key_columns = {3, 2};
  def.included_columns = {0};
  BTreeIndex index(def, table);
  auto rows = index.EqualLookup({Value::Int(1995), Value::Str("title_5")});
  EXPECT_EQ(rows.size(), 5u);
  // Prefix lookup on year alone.
  rows = index.EqualLookup({Value::Int(1995)});
  EXPECT_EQ(rows.size(), 5u);
  EXPECT_TRUE(def.Covers({0, 2, 3}));
  EXPECT_FALSE(def.Covers({1}));
}

TEST(IndexTest, ProbePagesScalesWithMatches) {
  Table table = MakePubTable(10000);
  IndexDef def;
  def.name = "idx_year";
  def.table = "inproc";
  def.key_columns = {3};
  BTreeIndex index(def, table);
  EXPECT_LT(index.ProbePages(1), index.ProbePages(5000));
  EXPECT_GE(index.ProbePages(0), 1);
}

TEST(CatalogTest, CreateAndFindTable) {
  Database db;
  auto result = db.CreateTable(MakePubSchema());
  ASSERT_TRUE(result.ok());
  EXPECT_NE(db.FindTable("inproc"), nullptr);
  EXPECT_EQ(db.FindTable("nope"), nullptr);
  EXPECT_FALSE(db.CreateTable(MakePubSchema()).ok());  // duplicate
}

TEST(CatalogTest, CreateIndexValidates) {
  Database db;
  ASSERT_TRUE(db.CreateTable(MakePubSchema()).ok());
  IndexDef def;
  def.name = "idx";
  def.table = "missing";
  def.key_columns = {0};
  EXPECT_EQ(db.CreateIndex(def).code(), StatusCode::kNotFound);
  def.table = "inproc";
  def.key_columns = {99};
  EXPECT_EQ(db.CreateIndex(def).code(), StatusCode::kInvalidArgument);
  def.key_columns = {3};
  EXPECT_TRUE(db.CreateIndex(def).ok());
  EXPECT_NE(db.FindIndex("idx"), nullptr);
  EXPECT_EQ(db.IndexesOn("inproc").size(), 1u);
}

TEST(CatalogTest, MaterializedSelectionView) {
  Database db;
  auto result = db.CreateTable(MakePubSchema());
  ASSERT_TRUE(result.ok());
  Table* table = *result;
  for (int i = 0; i < 100; ++i) {
    table->AppendRow({Value::Int(i), Value::Null(), Value::Str("t"),
                      Value::Int(1990 + i % 10)});
  }
  ViewDef def;
  def.name = "v_recent";
  def.base_table = "inproc";
  def.preds = {{"inproc", "year", ">=", Value::Int(1995)}};
  def.projected = {{"inproc", "ID"}, {"inproc", "title"}};
  ASSERT_TRUE(db.CreateMaterializedView(def).ok());
  const Table* view = db.FindTable("v_recent");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->row_count(), 50);
  EXPECT_EQ(view->schema().FindColumn("inproc$ID"), 0);
}

TEST(CatalogTest, MaterializedJoinView) {
  Database db;
  TableSchema parent = MakePubSchema();
  auto pres = db.CreateTable(parent);
  ASSERT_TRUE(pres.ok());
  TableSchema child;
  child.name = "inproc_author";
  child.columns = {{"ID", ColumnType::kInt64, false},
                   {"PID", ColumnType::kInt64, true},
                   {"author", ColumnType::kString, true}};
  child.id_column = 0;
  child.pid_column = 1;
  auto cres = db.CreateTable(child);
  ASSERT_TRUE(cres.ok());
  for (int i = 0; i < 10; ++i) {
    (*pres)->AppendRow({Value::Int(i), Value::Null(), Value::Str("t"),
                        Value::Int(2000 + i)});
    for (int a = 0; a < 2; ++a) {
      (*cres)->AppendRow({Value::Int(100 + i * 2 + a), Value::Int(i),
                          Value::Str("auth_" + std::to_string(a))});
    }
  }
  ViewDef def;
  def.name = "v_join";
  def.base_table = "inproc";
  def.join_child = "inproc_author";
  def.preds = {{"inproc", "year", ">=", Value::Int(2005)}};
  def.projected = {{"inproc", "ID"}, {"inproc_author", "author"}};
  ASSERT_TRUE(db.CreateMaterializedView(def).ok());
  const Table* view = db.FindTable("v_join");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->row_count(), 10);  // 5 parents x 2 authors
}

// A view cell as the oracle expects it stored: the tag and raw bits of
// `v`, strings by their code in `dict`.
std::pair<uint8_t, uint64_t> OracleCell(const Value& v,
                                        const StringDictionary& dict) {
  if (v.is_null()) return {static_cast<uint8_t>(CellTag::kNull), 0};
  if (v.is_int()) {
    return {static_cast<uint8_t>(CellTag::kInt),
            static_cast<uint64_t>(v.AsInt())};
  }
  if (v.is_double()) {
    uint64_t bits;
    double d = v.AsDouble();
    std::memcpy(&bits, &d, sizeof(bits));
    return {static_cast<uint8_t>(CellTag::kReal), bits};
  }
  uint32_t code = dict.Lookup(v.AsString());
  EXPECT_NE(code, StringDictionary::kNotFound) << v.AsString();
  return {static_cast<uint8_t>(CellTag::kStr), code};
}

using CellRow = std::vector<std::pair<uint8_t, uint64_t>>;

// Checks `view` against `groups`: the oracle's rows, one group per base
// row in base-row order. Groups must appear in order; rows within a group
// are compared as a multiset, since the join's hash table fixes their
// order. Also checks each column's byte tally against Value::ByteSize.
void ExpectViewMatches(const Database& db, const Table& view,
                       const std::vector<std::vector<Row>>& groups) {
  const StringDictionary& dict = db.dictionary();
  const int ncols = view.schema().num_columns();
  std::vector<ColumnReader> readers;
  for (int c = 0; c < ncols; ++c) readers.emplace_back(view.column(c));
  std::vector<int64_t> want_bytes(static_cast<size_t>(ncols), 0);
  size_t rid = 0;
  for (const std::vector<Row>& group : groups) {
    std::vector<CellRow> want, got;
    for (const Row& row : group) {
      ASSERT_EQ(row.size(), static_cast<size_t>(ncols));
      CellRow cells;
      for (int c = 0; c < ncols; ++c) {
        cells.push_back(OracleCell(row[static_cast<size_t>(c)], dict));
        want_bytes[static_cast<size_t>(c)] +=
            static_cast<int64_t>(row[static_cast<size_t>(c)].ByteSize());
      }
      want.push_back(std::move(cells));
      ASSERT_LT(rid, static_cast<size_t>(view.row_count()));
      CellRow stored;
      for (ColumnReader& reader : readers) {
        Cell cell = reader.At(rid);
        stored.emplace_back(cell.tag, cell.bits);
      }
      got.push_back(std::move(stored));
      ++rid;
    }
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    ASSERT_EQ(want, got) << "group ending before view row " << rid;
  }
  EXPECT_EQ(rid, static_cast<size_t>(view.row_count()));
  for (int c = 0; c < ncols; ++c) {
    EXPECT_EQ(view.column(c).byte_total(), want_bytes[static_cast<size_t>(c)])
        << view.schema().columns[static_cast<size_t>(c)].name;
  }
}

// Views over a base and a child table that each span several sealed
// blocks plus a tail, checked cell by cell against a Value-level oracle
// computed from the appended rows: int, string, NULL and real cells
// (NaN and -0.0 among them, and int cells in a real column), NULL PIDs,
// PIDs with no parent, and child rows out of PID order.
TEST(CatalogTest, ViewsOverSealedBlocksMatchValueOracle) {
  const int64_t block = static_cast<int64_t>(kStorageBlockRows);
  const int64_t num_base = 3 * block + 1000;
  const int64_t num_child = 3 * block + 1500;
  const double nan = std::numeric_limits<double>::quiet_NaN();

  Database db;
  TableSchema base_schema;
  base_schema.name = "pub";
  base_schema.columns = {{"ID", ColumnType::kInt64, false},
                         {"PID", ColumnType::kInt64, true},
                         {"title", ColumnType::kString, true},
                         {"score", ColumnType::kDouble, true},
                         {"year", ColumnType::kInt64, true}};
  base_schema.id_column = 0;
  base_schema.pid_column = 1;
  TableSchema child_schema;
  child_schema.name = "pub_author";
  child_schema.columns = {{"ID", ColumnType::kInt64, false},
                          {"PID", ColumnType::kInt64, true},
                          {"author", ColumnType::kString, true},
                          {"weight", ColumnType::kDouble, true}};
  child_schema.id_column = 0;
  child_schema.pid_column = 1;
  auto base = db.CreateTable(base_schema);
  auto child = db.CreateTable(child_schema);
  ASSERT_TRUE(base.ok() && child.ok());

  std::vector<Row> base_rows;
  for (int64_t i = 0; i < num_base; ++i) {
    Value title = i % 11 == 0 ? Value::Null()
                              : Value::Str("t_" + std::to_string(i * 7 % 10));
    Value score = i % 97 == 0   ? Value::Real(nan)
                  : i % 89 == 0 ? Value::Real(-0.0)
                  : i % 13 == 0 ? Value::Null()
                                : Value::Real(0.25 * (i % 50) - 3.0);
    Value year = i % 17 == 0 ? Value::Null() : Value::Int(1990 + i * 31 % 20);
    base_rows.push_back({Value::Int(1000 + i), Value::Null(), title, score,
                         year});
  }
  Rng rng(17);
  std::vector<Row> child_rows;
  for (int64_t j = 0; j < num_child; ++j) {
    // Random parents (some past the last base ID) put the child rows out
    // of PID order.
    Value pid = j % 19 == 0 ? Value::Null()
                            : Value::Int(1000 + rng.Uniform(0, num_base + 50));
    Value author = j % 23 == 0 ? Value::Null()
                               : Value::Str("a_" + std::to_string(j % 37));
    Value weight = j % 29 == 0   ? Value::Real(nan)
                   : j % 31 == 0 ? Value::Real(-0.0)
                   : j % 41 == 0 ? Value::Null()
                   : j % 43 == 0 ? Value::Int(j % 3)
                                 : Value::Real(0.01 * (j % 100));
    child_rows.push_back({Value::Int(100000 + j), pid, author, weight});
  }
  for (const Row& row : base_rows) (*base)->AppendRow(row);
  for (const Row& row : child_rows) (*child)->AppendRow(row);
  ASSERT_GE((*base)->column(0).num_sealed_blocks(), 3u);
  ASSERT_GT((*base)->column(0).tail_rows(), 0u);
  ASSERT_GE((*child)->column(0).num_sealed_blocks(), 3u);
  ASSERT_GT((*child)->column(0).tail_rows(), 0u);

  // The oracle's predicates, written out on Values.
  auto year_ok = [](const Row& r) {
    return r[4].is_int() && r[4].AsInt() >= 1995;
  };
  auto title_ok = [](const Row& r) {
    return r[2].is_string() && r[2].AsString() <= "t_5";
  };
  auto weight_ok = [](const Row& r) {
    return !r[3].is_null() && r[3].AsNumeric() < 0.75;
  };

  ViewDef sel;
  sel.name = "v_sel";
  sel.base_table = "pub";
  sel.preds = {{"pub", "title", "<=", Value::Str("t_5")}};
  sel.projected = {{"pub", "ID"}, {"pub", "score"}, {"pub", "year"},
                   {"pub", "title"}};
  ASSERT_TRUE(db.CreateMaterializedView(sel).ok());
  std::vector<std::vector<Row>> sel_groups;
  for (const Row& b : base_rows) {
    if (title_ok(b)) sel_groups.push_back({{b[0], b[3], b[4], b[2]}});
  }

  ViewDef join;
  join.name = "v_join";
  join.base_table = "pub";
  join.join_child = "pub_author";
  join.preds = {{"pub", "year", ">=", Value::Int(1995)},
                {"pub_author", "weight", "<", Value::Real(0.75)}};
  join.projected = {{"pub", "ID"},
                    {"pub_author", "author"},
                    {"pub", "score"},
                    {"pub_author", "weight"},
                    {"pub", "title"},
                    {"pub_author", "ID"}};
  ASSERT_TRUE(db.CreateMaterializedView(join).ok());
  std::map<int64_t, std::vector<const Row*>> children_of;
  for (const Row& c : child_rows) {
    if (!c[1].is_null()) children_of[c[1].AsInt()].push_back(&c);
  }
  std::vector<std::vector<Row>> join_groups;
  for (const Row& b : base_rows) {
    if (!year_ok(b)) continue;
    std::vector<Row> group;
    for (const Row* c : children_of[b[0].AsInt()]) {
      if (weight_ok(*c)) {
        group.push_back({b[0], (*c)[2], b[3], (*c)[3], b[2], (*c)[0]});
      }
    }
    if (!group.empty()) join_groups.push_back(std::move(group));
  }

  const Table* sel_view = db.FindTable("v_sel");
  const Table* join_view = db.FindTable("v_join");
  ASSERT_NE(sel_view, nullptr);
  ASSERT_NE(join_view, nullptr);
  // Both views seal blocks of their own.
  EXPECT_GE(sel_view->column(0).num_sealed_blocks(), 1u);
  EXPECT_GE(join_view->column(0).num_sealed_blocks(), 1u);
  ExpectViewMatches(db, *sel_view, sel_groups);
  ExpectViewMatches(db, *join_view, join_groups);
}

TEST(CatalogTest, DropPhysicalStructuresKeepsTables) {
  Database db;
  auto result = db.CreateTable(MakePubSchema());
  ASSERT_TRUE(result.ok());
  IndexDef idx;
  idx.name = "idx";
  idx.table = "inproc";
  idx.key_columns = {0};
  ASSERT_TRUE(db.CreateIndex(idx).ok());
  ViewDef view;
  view.name = "v";
  view.base_table = "inproc";
  view.projected = {{"inproc", "ID"}};
  ASSERT_TRUE(db.CreateMaterializedView(view).ok());
  db.DropAllPhysicalStructures();
  EXPECT_EQ(db.FindIndex("idx"), nullptr);
  EXPECT_EQ(db.FindTable("v"), nullptr);
  EXPECT_NE(db.FindTable("inproc"), nullptr);
}

TEST(CatalogTest, BuildCatalogDesc) {
  Database db;
  auto result = db.CreateTable(MakePubSchema());
  ASSERT_TRUE(result.ok());
  (*result)->AppendRow(
      {Value::Int(1), Value::Null(), Value::Str("t"), Value::Int(2000)});
  IndexDef idx;
  idx.name = "idx";
  idx.table = "inproc";
  idx.key_columns = {3};
  ASSERT_TRUE(db.CreateIndex(idx).ok());
  CatalogDesc desc = db.BuildCatalogDesc();
  ASSERT_NE(desc.FindTable("inproc"), nullptr);
  EXPECT_EQ(desc.FindTable("inproc")->row_count(), 1);
  ASSERT_NE(desc.FindIndex("idx"), nullptr);
  EXPECT_EQ(desc.IndexesOn("inproc").size(), 1u);
  EXPECT_GE(desc.DataPages(), 1);
}

}  // namespace
}  // namespace xmlshred
