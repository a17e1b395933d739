// Property tests for block-encoded columnar storage (DESIGN.md §14).
//
//  * Encoding round-trip: EncodeBlock -> DecodeBlock is bit-exact for
//    randomized tag+slot vectors drawn from generators biased toward
//    every encoding (runs, packable ints, dictionary codes, mixed tags),
//    with the PR 7 shrinking discipline: a failing vector is minimized
//    by dropping cells while the mismatch persists before reporting.
//  * Bit packing at every width: the word-at-a-time kernels write the
//    byte image of a one-bit-at-a-time reference packer and decode it
//    bit-exactly, at int widths 0..64, code widths 0..32 and block
//    lengths around the 8-byte word and the block size.
//  * Zone-map soundness: a block that contains a cell satisfying a probe
//    is never skippable (ZoneCanMatch may over-approximate, never
//    under-approximate).
//  * Pruning: a zone-map-pruned scan returns exactly the rows the
//    fixture appended to the one block that can match, and a rerun
//    repeats its rows, ExecMetrics, EXPLAIN actuals and metrics registry
//    digest bit for bit; a governor trip charges the governor what the
//    run meters, and lands on the same work unit when rerun.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/limits.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "exec/explain.h"
#include "opt/planner.h"
#include "rel/catalog.h"
#include "rel/column_block.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace xmlshred {
namespace {

constexpr uint8_t kTagNull = static_cast<uint8_t>(CellTag::kNull);
constexpr uint8_t kTagInt = static_cast<uint8_t>(CellTag::kInt);
constexpr uint8_t kTagReal = static_cast<uint8_t>(CellTag::kReal);
constexpr uint8_t kTagStr = static_cast<uint8_t>(CellTag::kStr);

struct CellVec {
  std::vector<uint8_t> tags;
  std::vector<uint64_t> data;

  size_t size() const { return tags.size(); }
  void push(uint8_t tag, uint64_t bits) {
    tags.push_back(tag);
    data.push_back(bits);
  }
  void erase(size_t i) {
    tags.erase(tags.begin() + static_cast<long>(i));
    data.erase(data.begin() + static_cast<long>(i));
  }
};

// Generators biased toward each encoding. `style` cycles so every seed
// exercises all of them.
CellVec RandomCells(Rng* rng, int style, size_t n) {
  CellVec v;
  switch (style % 6) {
    case 0: {  // long runs of identical cells -> kRle
      while (v.size() < n) {
        uint8_t tag =
            static_cast<uint8_t>(rng->Uniform(0, 3));
        uint64_t bits = tag == kTagNull ? 0 : rng->Next64() % 1000;
        size_t run = static_cast<size_t>(rng->Uniform(1, 512));
        for (size_t i = 0; i < run && v.size() < n; ++i) v.push(tag, bits);
      }
      break;
    }
    case 1: {  // all-int, narrow range -> kBitPackInt
      int64_t base = rng->Uniform(-1000000, 1000000);
      int64_t span = rng->Uniform(0, 255);
      for (size_t i = 0; i < n; ++i) {
        v.push(kTagInt, static_cast<uint64_t>(
                            base + rng->Uniform(0, span)));
      }
      break;
    }
    case 2: {  // all-str, narrow code range -> kBitPackCode
      uint32_t base = static_cast<uint32_t>(rng->Uniform(0, 5000));
      uint32_t span = static_cast<uint32_t>(rng->Uniform(0, 63));
      for (size_t i = 0; i < n; ++i) {
        v.push(kTagStr,
               base + static_cast<uint32_t>(rng->Uniform(0, span)));
      }
      break;
    }
    case 3: {  // high-entropy ints (full 64-bit range) -> plain or rle
      for (size_t i = 0; i < n; ++i) v.push(kTagInt, rng->Next64());
      break;
    }
    case 4: {  // reals with signed zeros and NaNs mixed in
      for (size_t i = 0; i < n; ++i) {
        double d;
        switch (rng->Uniform(0, 5)) {
          case 0: d = 0.0; break;
          case 1: d = -0.0; break;
          case 2: d = std::nan(""); break;
          default: d = (rng->UniformDouble() - 0.5) * 1e9; break;
        }
        v.push(kTagReal, DoubleToCellBits(d));
      }
      break;
    }
    default: {  // fully mixed tags and payloads
      for (size_t i = 0; i < n; ++i) {
        uint8_t tag = static_cast<uint8_t>(rng->Uniform(0, 3));
        uint64_t bits = 0;
        if (tag == kTagInt) bits = rng->Next64();
        if (tag == kTagReal) {
          bits = DoubleToCellBits((rng->UniformDouble() - 0.5) * 1e6);
        }
        if (tag == kTagStr) {
          bits = static_cast<uint32_t>(rng->Uniform(0, 100000));
        }
        v.push(tag, bits);
      }
      break;
    }
  }
  return v;
}

// "" when encode->decode reproduces the cells bit-exactly, else a
// description of the first divergence.
std::string RoundTripFailure(const CellVec& v) {
  EncodedBlock block = EncodeBlock(v.tags.data(), v.data.data(), v.size());
  if (block.rows != v.size()) return "row count differs";
  std::vector<uint8_t> tags(v.size());
  std::vector<uint64_t> data(v.size());
  DecodeBlock(block, tags.data(), data.data());
  for (size_t i = 0; i < v.size(); ++i) {
    if (tags[i] != v.tags[i]) return "tag " + std::to_string(i);
    if (data[i] != v.data[i]) return "data " + std::to_string(i);
  }
  return "";
}

class RoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripTest, EncodeDecodeIsBitExact) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  for (int iter = 0; iter < 24; ++iter) {
    size_t n = static_cast<size_t>(
        rng.Uniform(1, static_cast<int64_t>(kStorageBlockRows)));
    CellVec v = RandomCells(&rng, iter, n);
    std::string failure = RoundTripFailure(v);
    if (failure.empty()) continue;

    // Shrink: drop the first cell whose removal keeps the round trip
    // failing, until no single removal does.
    bool shrunk = true;
    while (shrunk && v.size() > 1) {
      shrunk = false;
      for (size_t i = 0; i < v.size(); ++i) {
        CellVec candidate = v;
        candidate.erase(i);
        if (!RoundTripFailure(candidate).empty()) {
          v = std::move(candidate);
          shrunk = true;
          break;
        }
      }
    }
    std::string repro;
    for (size_t i = 0; i < v.size() && i < 16; ++i) {
      repro += " (" + std::to_string(v.tags[i]) + "," +
               std::to_string(v.data[i]) + ")";
    }
    FAIL() << "round-trip divergence (" << failure << "), minimal "
           << v.size() << " cells:" << repro;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripTest, ::testing::Range(0, 8));

TEST(BlockEncodingTest, ChoosesCompactEncodingsAndNeverBeatsPlain) {
  Rng rng(42);
  // A constant all-int run is a width-0 bit-pack (smaller than RLE's
  // 11-byte run record); mixed-tag runs are where RLE wins.
  CellVec constant;
  for (size_t i = 0; i < kStorageBlockRows; ++i) constant.push(kTagInt, 7);
  EncodedBlock width0 = EncodeBlock(constant.tags.data(),
                                    constant.data.data(), constant.size());
  EXPECT_EQ(width0.encoding, BlockEncoding::kBitPackInt);
  EXPECT_LT(width0.bytes.size(), 64u);

  CellVec runs;
  for (size_t i = 0; i < kStorageBlockRows / 2; ++i) runs.push(kTagNull, 0);
  while (runs.size() < kStorageBlockRows) runs.push(kTagInt, 7);
  EncodedBlock rle = EncodeBlock(runs.tags.data(), runs.data.data(),
                                 runs.size());
  EXPECT_EQ(rle.encoding, BlockEncoding::kRle);
  EXPECT_LT(rle.bytes.size(), 64u);

  // Narrow-range ints: bit-packed far below the 9 bytes/cell plain image.
  CellVec ints = RandomCells(&rng, 1, kStorageBlockRows);
  EncodedBlock packed = EncodeBlock(ints.tags.data(), ints.data.data(),
                                    ints.size());
  EXPECT_EQ(packed.encoding, BlockEncoding::kBitPackInt);
  EXPECT_LT(packed.bytes.size(), 9 * kStorageBlockRows / 4);

  // Narrow-range codes: bit-packed dictionary codes.
  CellVec codes = RandomCells(&rng, 2, kStorageBlockRows);
  EncodedBlock coded = EncodeBlock(codes.tags.data(), codes.data.data(),
                                   codes.size());
  EXPECT_EQ(coded.encoding, BlockEncoding::kBitPackCode);

  // Whatever is chosen never exceeds the plain image (plain is always
  // applicable, and the chooser takes the smallest).
  for (int style = 0; style < 12; ++style) {
    CellVec v = RandomCells(&rng, style, 2048);
    EncodedBlock b = EncodeBlock(v.tags.data(), v.data.data(), v.size());
    EXPECT_LE(b.bytes.size(), 9 * v.size() + 16) << "style " << style;
  }
}

// One bit per step, LSB-first: delta i occupies bits [i*width,
// (i+1)*width). Pins the byte image the encoder's word kernels must keep.
std::vector<uint8_t> ReferencePack(const std::vector<uint64_t>& deltas,
                                   int width) {
  size_t w = static_cast<size_t>(width);
  std::vector<uint8_t> out((deltas.size() * w + 7) / 8, 0);
  size_t bit = 0;
  for (uint64_t d : deltas) {
    for (size_t b = 0; b < w; ++b, ++bit) {
      if ((d >> b) & 1u) out[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
    }
  }
  return out;
}

// Every int width 0..64 and code width 0..32, at block lengths around the
// 8-byte word and the block size, under three delta patterns: random,
// all-zero (a constant block), and alternating 0 / all-ones at the full
// width. The first delta is 0 and, from two cells on, the last is all-ones,
// so the block minimum and width are the generated ones. A bit-packed block
// carries exactly the reference packer's bytes, and every block decodes
// bit for bit.
TEST(BlockEncodingTest, BitPackingMatchesBitReferenceAtEveryWidth) {
  enum class Pattern { kRandom, kZeros, kOnes };
  const size_t kLengths[] = {1, 7, 8, 9, 63, 4095, 4096};
  Rng rng(64);
  for (bool codes : {false, true}) {
    const int max_width = codes ? 32 : 64;
    const size_t header = codes ? 5 : 9;
    for (int width = 0; width <= max_width; ++width) {
      const uint64_t mask =
          width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
      // Bases that keep value order equal to delta order: at width 64 the
      // signed minimum, at width 32 code 0.
      const uint64_t base =
          codes ? (width == 32 ? 0 : 7)
                : static_cast<uint64_t>(
                      width == 64 ? std::numeric_limits<int64_t>::min()
                                  : int64_t{-12345});
      for (size_t n : kLengths) {
        for (Pattern pattern :
             {Pattern::kRandom, Pattern::kZeros, Pattern::kOnes}) {
          std::vector<uint64_t> deltas(n, 0);
          if (pattern != Pattern::kZeros && n >= 2) {
            for (size_t i = 1; i + 1 < n; ++i) {
              deltas[i] = pattern == Pattern::kOnes ? (i % 2 ? mask : 0)
                                                    : rng.Next64() & mask;
            }
            deltas[n - 1] = mask;
          }
          const int expect_width =
              pattern != Pattern::kZeros && n >= 2 ? width : 0;
          CellVec v;
          for (uint64_t d : deltas) {
            v.push(codes ? kTagStr : kTagInt,
                   codes ? static_cast<uint32_t>(base + d) : base + d);
          }
          std::string label = std::string(codes ? "code" : "int") +
                              " width " + std::to_string(width) + " n " +
                              std::to_string(n) + " pattern " +
                              std::to_string(static_cast<int>(pattern));

          EncodedBlock block =
              EncodeBlock(v.tags.data(), v.data.data(), v.size());
          const BlockEncoding packed = codes ? BlockEncoding::kBitPackCode
                                             : BlockEncoding::kBitPackInt;
          // Past a few cells the chooser always bit-packs these blocks
          // (RLE and plain only win on short ones), so every width runs
          // through the kernels.
          if (n >= 63 || pattern == Pattern::kZeros) {
            EXPECT_EQ(block.encoding, packed) << label;
          }
          if (block.encoding == packed) {
            ASSERT_GE(block.bytes.size(), header) << label;
            EXPECT_EQ(block.bytes[0], expect_width) << label;
            std::vector<uint8_t> payload(
                block.bytes.begin() + static_cast<long>(header),
                block.bytes.end());
            EXPECT_EQ(payload, ReferencePack(deltas, expect_width)) << label;
          }

          std::vector<uint8_t> tags(n);
          std::vector<uint64_t> data(n);
          DecodeBlock(block, tags.data(), data.data());
          EXPECT_EQ(tags, v.tags) << label;
          EXPECT_EQ(data, v.data) << label;
        }
      }
    }
  }
}

// Reference semantics of one probe against one cell.
bool CellSatisfies(const ZoneProbe& probe, uint8_t tag, uint64_t bits) {
  bool numeric = tag == kTagInt || tag == kTagReal;
  double num = numeric ? CellAsNumeric(Cell{tag, bits}) : 0;
  switch (probe.kind) {
    case ZoneProbe::Kind::kNone:
      return true;
    case ZoneProbe::Kind::kNever:
      return false;
    case ZoneProbe::Kind::kIsNotNull:
      return tag != kTagNull;
    case ZoneProbe::Kind::kNumEq:
      return numeric && num == probe.num;
    case ZoneProbe::Kind::kNumLt:
      return numeric && num < probe.num;
    case ZoneProbe::Kind::kNumLe:
      return numeric && num <= probe.num;
    case ZoneProbe::Kind::kNumGt:
      return numeric && num > probe.num;
    case ZoneProbe::Kind::kNumGe:
      return numeric && num >= probe.num;
    case ZoneProbe::Kind::kCodeEq:
      return tag == kTagStr && static_cast<uint32_t>(bits) == probe.code;
    case ZoneProbe::Kind::kHasStr:
      return tag == kTagStr;
  }
  return true;
}

class ZoneMapTest : public ::testing::TestWithParam<int> {};

TEST_P(ZoneMapTest, NeverSkipsAMatchingBlock) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 1299721 + 17);
  const ZoneProbe::Kind kKinds[] = {
      ZoneProbe::Kind::kIsNotNull, ZoneProbe::Kind::kNumEq,
      ZoneProbe::Kind::kNumLt,     ZoneProbe::Kind::kNumLe,
      ZoneProbe::Kind::kNumGt,     ZoneProbe::Kind::kNumGe,
      ZoneProbe::Kind::kCodeEq,    ZoneProbe::Kind::kHasStr};
  for (int iter = 0; iter < 32; ++iter) {
    CellVec v = RandomCells(&rng, iter, 512);
    ZoneMap zone = BuildZoneMap(v.tags.data(), v.data.data(), v.size());
    for (ZoneProbe::Kind kind : kKinds) {
      ZoneProbe probe;
      probe.kind = kind;
      // Literal drawn near the data so both outcomes occur.
      probe.num = static_cast<double>(rng.Uniform(-1000000, 1000000));
      probe.code = static_cast<uint32_t>(rng.Uniform(0, 5000));
      if (!v.tags.empty() && rng.Bernoulli(0.5)) {
        size_t pick = static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(v.size()) - 1));
        Cell c{v.tags[pick], v.data[pick]};
        if (c.tag == kTagInt || c.tag == kTagReal) {
          probe.num = CellAsNumeric(c);
        }
        if (c.tag == kTagStr) probe.code = static_cast<uint32_t>(c.bits);
      }
      bool any = false;
      for (size_t i = 0; i < v.size(); ++i) {
        if (CellSatisfies(probe, v.tags[i], v.data[i])) {
          any = true;
          break;
        }
      }
      if (any) {
        EXPECT_TRUE(ZoneCanMatch(zone, probe))
            << "skippable block contains a matching cell (probe kind "
            << static_cast<int>(kind) << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZoneMapTest, ::testing::Range(0, 6));

// ---------------------------------------------------------------------
// Pruning: exact rows from the fixture's own data, and one observable
// bundle, bit-identical at 1 and 4 workers.

struct DiffFixture {
  Database db;

  DiffFixture() {
    TableSchema schema;
    schema.name = "blocks";
    schema.columns = {{"ID", ColumnType::kInt64, false},
                      {"PID", ColumnType::kInt64, true},
                      {"bucket", ColumnType::kInt64, true},
                      {"label", ColumnType::kString, true}};
    schema.id_column = 0;
    schema.pid_column = 1;
    auto table = db.CreateTable(schema);
    EXPECT_TRUE(table.ok());
    // 20000 rows = 4 sealed blocks + a 3616-row tail. `bucket` is
    // constant per block, so zone maps prune `bucket = 3` exactly.
    for (int64_t i = 0; i < 20000; ++i) {
      (*table)->AppendRow(
          {Value::Int(i), Value::Null(),
           Value::Int(i / static_cast<int64_t>(kStorageBlockRows)),
           Value::Str("v_" + std::to_string(i % 7))});
    }
  }

};

// The plan references the bound query, so both travel together.
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

struct DiffRun {
  Status status = Status::OK();
  std::vector<Row> rows;
  ExecMetrics m;
  double governor_spent = 0;
  std::string explain_json;
  std::string metrics_json;
};

DiffRun RunConfig(const Database& db, const PlannedQuery& plan,
                  int64_t work_units = 0) {
  ResourceLimits limits;
  limits.work_units = work_units;
  ResourceGovernor governor(limits);
  MetricsRegistry registry;
  ExplainNode tree = BuildExplainTree(*plan.root);
  ExecOptions options;
  options.governor = &governor;
  options.metrics = &registry;
  options.explain = &tree;
  Executor executor(db);
  DiffRun out;
  auto rows = executor.Run(*plan.root, &out.m, options);
  out.status = rows.status();
  if (rows.ok()) out.rows = std::move(*rows);
  out.governor_spent = governor.work_spent();
  out.explain_json = ExplainToJson(tree, /*include_timing=*/false);
  out.metrics_json = registry.Snapshot().ToJson();
  return out;
}

void ExpectIdentical(const DiffRun& a, const DiffRun& b,
                     const std::string& label) {
  EXPECT_EQ(a.status.code(), b.status.code()) << label;
  ASSERT_EQ(a.rows.size(), b.rows.size()) << label;
  RowTotalEquals eq;
  for (size_t i = 0; i < a.rows.size(); ++i) {
    ASSERT_TRUE(eq(a.rows[i], b.rows[i])) << label << " row " << i;
  }
  EXPECT_EQ(a.m.rows_out, b.m.rows_out) << label;
  EXPECT_DOUBLE_EQ(a.m.work, b.m.work) << label;
  EXPECT_DOUBLE_EQ(a.m.pages_sequential, b.m.pages_sequential) << label;
  EXPECT_DOUBLE_EQ(a.m.pages_random, b.m.pages_random) << label;
  EXPECT_EQ(a.m.blocks_scanned, b.m.blocks_scanned) << label;
  EXPECT_EQ(a.m.blocks_skipped, b.m.blocks_skipped) << label;
  EXPECT_DOUBLE_EQ(a.governor_spent, b.governor_spent) << label;
  EXPECT_EQ(a.explain_json, b.explain_json) << label;
  EXPECT_EQ(a.metrics_json, b.metrics_json) << label;
}

TEST(PruningDifferentialTest, PrunedScanReturnsFixtureRowsAtEveryThreadCount) {
  DiffFixture f;
  PreparedQuery q =
      Prepare(f.db, "SELECT ID, label FROM blocks WHERE bucket = 3");
  const PlannedQuery& plan = q.planned;
  DiffRun reference = RunConfig(f.db, plan);
  ASSERT_TRUE(reference.status.ok()) << reference.status;
  // The selective scan pruned the three sealed blocks whose constant
  // bucket refutes the predicate and returned exactly block 3: IDs
  // 3*4096 .. 4*4096-1, each labelled v_<ID mod 7>.
  const int64_t block_rows = static_cast<int64_t>(kStorageBlockRows);
  ASSERT_EQ(reference.rows.size(), kStorageBlockRows);
  for (int64_t k = 0; k < block_rows; ++k) {
    const int64_t id = 3 * block_rows + k;
    const Row& row = reference.rows[static_cast<size_t>(k)];
    ASSERT_EQ(row.size(), 2u);
    ASSERT_TRUE(row[0].TotalEquals(Value::Int(id))) << "row " << k;
    ASSERT_TRUE(row[1].TotalEquals(Value::Str("v_" + std::to_string(id % 7))))
        << "row " << k;
  }
  EXPECT_EQ(reference.m.rows_out, block_rows);
  EXPECT_EQ(reference.m.blocks_skipped, 3);
  EXPECT_EQ(reference.m.blocks_scanned, 2);  // block 3 + the tail
  EXPECT_NE(reference.explain_json.find("\"actual_blocks_skipped\": 3"),
            std::string::npos);

  ExpectIdentical(reference, RunConfig(f.db, plan), "rerun");
}

TEST(PruningDifferentialTest, GovernorTripPointsAgree) {
  DiffFixture f;
  // Unselective scan (nothing pruned) under a budget that trips mid-run:
  // the governor is charged what the run meters, and a rerun trips on
  // the same work unit.
  PreparedQuery q = Prepare(f.db, "SELECT ID FROM blocks WHERE bucket >= 0");
  const PlannedQuery& plan = q.planned;
  DiffRun reference = RunConfig(f.db, plan, /*work_units=*/4);
  EXPECT_EQ(reference.status.code(), StatusCode::kResourceExhausted);
  EXPECT_DOUBLE_EQ(reference.governor_spent, reference.m.work);
  ExpectIdentical(reference, RunConfig(f.db, plan, /*work_units=*/4),
                  "rerun trip");
}

}  // namespace
}  // namespace xmlshred
