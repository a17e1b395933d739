#include "exec/executor.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "exec/explain.h"
#include "opt/cost_model.h"
#include "rel/column_reader.h"
#include "rel/index.h"

namespace xmlshred {

namespace {

// Batch of rows written by an operator: a flat row-major cell array.
// Cells carry dictionary codes for strings, so operators compare and copy
// 16-byte cells (a tag and a 64-bit slot, padded); Values are built only
// for Executor::Run callers, once, at the plan root (Executor::Count only
// counts the root's rows).
struct Chunk {
  int width = 0;
  size_t num_rows = 0;
  std::vector<Cell> cells;

  const Cell* row(size_t r) const {
    return cells.data() + r * static_cast<size_t>(width);
  }
  void ReserveRows(size_t n) {
    cells.reserve(n * static_cast<size_t>(width));
  }
};

// One chunk read through a column map: output column j is the chunk's
// column map[j], or NULL when map[j] < 0.
struct Part {
  Chunk chunk;
  std::vector<int> map;
  size_t first = 0;  // position of the chunk's first row in its RowSet

  Cell At(size_t r, size_t j) const {
    int c = map[j];
    return c < 0 ? Cell{} : chunk.row(r)[static_cast<size_t>(c)];
  }

  // The chunk's rows are read as they are stored.
  bool IsIdentity() const {
    if (map.size() != static_cast<size_t>(chunk.width)) return false;
    for (size_t j = 0; j < map.size(); ++j) {
      if (map[j] != static_cast<int>(j)) return false;
    }
    return true;
  }
};

// Rows flowing between operators: the concatenation of one or more
// parts, read in `order` when one is set. Heap scans and hash joins hand
// on their morsel slots as parts, Project composes its items into each
// part's map, UnionAll lists its branches' parts, and Sort hands on the
// permutation it sorted, so none of them copies a cell. A result row is
// written only as Run's Values, or by WriteRows for a join or aggregate
// whose input is mapped or permuted and for a sorted union branch (no
// planned query has either).
struct RowSet {
  int width = 0;
  size_t num_rows = 0;
  std::vector<Part> parts;
  // Row i is row order[i] of the parts' concatenation; empty = row i.
  std::vector<size_t> order;

  // A chunk as is, through the identity map.
  static RowSet Whole(Chunk chunk) {
    RowSet rows;
    rows.width = chunk.width;
    rows.AppendWhole(std::move(chunk));
    return rows;
  }

  void Append(Part part) {
    part.first = num_rows;
    num_rows += part.chunk.num_rows;
    parts.push_back(std::move(part));
  }

  void AppendWhole(Chunk chunk) {
    std::vector<int> map(static_cast<size_t>(chunk.width));
    std::iota(map.begin(), map.end(), 0);
    Append(Part{std::move(chunk), std::move(map)});
  }

  // The part holding row g of the concatenation: the last part starting
  // at or before g (empty parts share their successor's start, so they
  // are passed over). A binary search over the part starts whose steps
  // select rather than branch, as a permuted set looks up every row.
  size_t PartIndex(size_t g) const {
    size_t k = 0;
    for (size_t step = std::bit_floor(parts.size()); step > 0; step >>= 1) {
      size_t next = k + step;
      k = next < parts.size() && parts[next].first <= g ? next : k;
    }
    return k;
  }

  // Calls f(part, r0, r1) for rows [lo, hi) of the set, in order, in
  // stretches that are rows [r0, r1) of one part's chunk: whole stretches
  // of parts walked in order, or single rows located through `order`.
  template <typename F>
  void ForEachStretch(size_t lo, size_t hi, const F& f) const {
    if (!order.empty()) {
      for (size_t i = lo; i < hi; ++i) {
        const Part& p = parts[PartIndex(order[i])];
        f(p, order[i] - p.first, order[i] - p.first + 1);
      }
      return;
    }
    for (size_t k = lo < hi ? PartIndex(lo) : parts.size(); lo < hi; ++k) {
      const Part& p = parts[k];
      size_t end = std::min(hi, p.first + p.chunk.num_rows);
      if (end > lo) f(p, lo - p.first, end - p.first);
      lo = end;
    }
  }

  // Every row is a row of its part's chunk as stored, in order.
  bool IsPlain() const {
    if (!order.empty()) return false;
    for (const Part& p : parts) {
      if (!p.IsIdentity()) return false;
    }
    return true;
  }
};

// Stable natural merge sort of positions [0, n) under `less`: the input
// is split into maximal non-decreasing runs, and adjacent runs are merged
// pairwise (std::merge takes from the earlier run on ties) until one run
// is left. A stable sort's output is unique, so this is std::stable_sort's
// order, at O(n log r) for r runs: a sorted outer union's branches each
// arrive in ID order, so r is at most the number of branches. A run
// shorter than kMinRun absorbs the rows after it by insertion (equal rows
// stay in input order), so shuffled input merges no more often than
// std::stable_sort does.
template <typename Less>
std::vector<size_t> NaturalMergeSort(size_t n, const Less& less) {
  constexpr size_t kMinRun = 16;
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), size_t{0});
  std::vector<size_t> bounds = {0};  // run starts, then n
  for (size_t i = 1; i < n; ++i) {
    if (!less(i, perm[i - 1])) continue;  // row i extends the run
    if (i - bounds.back() >= kMinRun) {
      bounds.push_back(i);
      continue;
    }
    size_t j = i;
    for (; j > bounds.back() && less(i, perm[j - 1]); --j) {
      perm[j] = perm[j - 1];
    }
    perm[j] = i;
  }
  bounds.push_back(n);
  std::vector<size_t> merged(bounds.size() > 2 ? n : 0);
  while (bounds.size() > 2) {
    size_t runs = bounds.size() - 1;
    std::vector<size_t> next = {0};
    for (size_t k = 0; k < runs; k += 2) {
      size_t lo = bounds[k];
      size_t mid = bounds[k + 1];
      size_t hi = k + 1 < runs ? bounds[k + 2] : mid;
      std::merge(perm.data() + lo, perm.data() + mid, perm.data() + mid,
                 perm.data() + hi, merged.data() + lo, less);
      next.push_back(hi);
    }
    perm.swap(merged);
    bounds.swap(next);
  }
  return perm;
}

// A BoundFilter compiled against the dictionary: the literal is resolved
// to a double, a dictionary code, or an encoded string sort key once, so
// per-cell evaluation touches no Value and no character data.
struct CompiledPred {
  enum class Op {
    kIsNotNull,
    kNever,  // NULL / NaN / non-interned-equality literal: matches nothing
    kNumEq,
    kNumLt,
    kNumLe,
    kNumGt,
    kNumGe,
    kStrEq,
    kStrLt,
    kStrLe,
    kStrGt,
    kStrGe,
  };
  int pos = -1;  // column ordinal / slot / entry position, per context
  Op op = Op::kNever;
  double num = 0;
  uint32_t code = StringDictionary::kNotFound;  // kStrEq
  uint64_t str_key = 0;  // encoded literal (2*rank+1 or gap) for ranges
};

Result<CompiledPred> CompilePred(int pos, const std::string& op,
                                 const Value& lit,
                                 const StringDictionary& dict) {
  using Op = CompiledPred::Op;
  CompiledPred p;
  p.pos = pos;
  if (op == "is not null") {
    p.op = Op::kIsNotNull;
    return p;
  }
  int kind;  // 0 = '=', 1 = '<', 2 = '<=', 3 = '>', 4 = '>='
  if (op == "=") {
    kind = 0;
  } else if (op == "<") {
    kind = 1;
  } else if (op == "<=") {
    kind = 2;
  } else if (op == ">") {
    kind = 3;
  } else if (op == ">=") {
    kind = 4;
  } else {
    return InvalidArgument("unknown predicate operator: " + op);
  }
  if (lit.is_null()) {
    p.op = Op::kNever;  // SQL: comparisons with NULL are never true
    return p;
  }
  if (lit.is_string()) {
    if (kind == 0) {
      p.code = dict.Lookup(lit.AsString());
      p.op = p.code == StringDictionary::kNotFound ? Op::kNever : Op::kStrEq;
      return p;
    }
    p.str_key = EncodeValueKey(lit, dict).key;
    p.op = kind == 1   ? Op::kStrLt
           : kind == 2 ? Op::kStrLe
           : kind == 3 ? Op::kStrGt
                       : Op::kStrGe;
    return p;
  }
  p.num = lit.AsNumeric();
  if (std::isnan(p.num)) {
    p.op = Op::kNever;  // every double compare with NaN is false
    return p;
  }
  p.op = kind == 0   ? Op::kNumEq
         : kind == 1 ? Op::kNumLt
         : kind == 2 ? Op::kNumLe
         : kind == 3 ? Op::kNumGt
                     : Op::kNumGe;
  return p;
}

constexpr uint8_t kTagNull = static_cast<uint8_t>(CellTag::kNull);
constexpr uint8_t kTagInt = static_cast<uint8_t>(CellTag::kInt);
constexpr uint8_t kTagReal = static_cast<uint8_t>(CellTag::kReal);
constexpr uint8_t kTagStr = static_cast<uint8_t>(CellTag::kStr);

// Scalar evaluation of a compiled predicate against one cell. Mixed-type
// comparisons are false, matching SqlEquals / SqlLess exactly.
bool EvalCompiledCell(const CompiledPred& p, Cell c,
                      const StringDictionary& dict) {
  using Op = CompiledPred::Op;
  switch (p.op) {
    case Op::kIsNotNull:
      return c.tag != kTagNull;
    case Op::kNever:
      return false;
    case Op::kNumEq:
    case Op::kNumLt:
    case Op::kNumLe:
    case Op::kNumGt:
    case Op::kNumGe: {
      if (c.tag == kTagNull || c.tag == kTagStr) return false;
      double x = CellAsNumeric(c);
      switch (p.op) {
        case Op::kNumEq:
          return x == p.num;
        case Op::kNumLt:
          return x < p.num;
        case Op::kNumLe:
          return x <= p.num;
        case Op::kNumGt:
          return x > p.num;
        default:
          return x >= p.num;
      }
    }
    case Op::kStrEq:
      return c.tag == kTagStr && static_cast<uint32_t>(c.bits) == p.code;
    case Op::kStrLt:
    case Op::kStrLe:
    case Op::kStrGt:
    case Op::kStrGe: {
      if (c.tag != kTagStr) return false;
      uint64_t k = 2ull * dict.Rank(static_cast<uint32_t>(c.bits)) + 1;
      switch (p.op) {
        case Op::kStrLt:
          return k < p.str_key;
        case Op::kStrLe:
          return k <= p.str_key;
        case Op::kStrGt:
          return k > p.str_key;
        default:
          return k >= p.str_key;
      }
    }
  }
  return false;
}

// Runs one compiled predicate over one batch of a column. `tags`/`data`
// point at the batch's first cell (a BlockView offset to the batch base,
// so decoded blocks and the plain tail flow through identically). In dense mode
// the batch is `cnt` cells and surviving batch-relative offsets are
// written to `sel`; in compact mode `sel` holds `cnt` surviving offsets
// from an earlier pass and is compacted in place. Returns the surviving
// count. One branch-free-ish loop per operator: the switch happens once
// per batch, not once per row.
size_t ApplyPredBatch(const uint8_t* tags, const uint64_t* data, size_t cnt,
                      int32_t* sel, bool dense, const CompiledPred& p,
                      const StringDictionary& dict) {
  using Op = CompiledPred::Op;
  auto run = [&](auto keep) -> size_t {
    size_t out = 0;
    if (dense) {
      for (size_t i = 0; i < cnt; ++i) {
        if (keep(tags[i], data[i])) sel[out++] = static_cast<int32_t>(i);
      }
    } else {
      for (size_t i = 0; i < cnt; ++i) {
        int32_t r = sel[i];
        if (keep(tags[r], data[r])) sel[out++] = r;
      }
    }
    return out;
  };
  auto as_num = [](uint8_t t, uint64_t d) {
    return t == kTagInt ? static_cast<double>(static_cast<int64_t>(d))
                        : CellBitsToDouble(d);
  };
  auto is_num = [](uint8_t t) { return t == kTagInt || t == kTagReal; };
  switch (p.op) {
    case Op::kIsNotNull:
      return run([](uint8_t t, uint64_t) { return t != kTagNull; });
    case Op::kNever:
      return 0;
    case Op::kNumEq: {
      double lit = p.num;
      return run([&](uint8_t t, uint64_t d) {
        return is_num(t) && as_num(t, d) == lit;
      });
    }
    case Op::kNumLt: {
      double lit = p.num;
      return run([&](uint8_t t, uint64_t d) {
        return is_num(t) && as_num(t, d) < lit;
      });
    }
    case Op::kNumLe: {
      double lit = p.num;
      return run([&](uint8_t t, uint64_t d) {
        return is_num(t) && as_num(t, d) <= lit;
      });
    }
    case Op::kNumGt: {
      double lit = p.num;
      return run([&](uint8_t t, uint64_t d) {
        return is_num(t) && as_num(t, d) > lit;
      });
    }
    case Op::kNumGe: {
      double lit = p.num;
      return run([&](uint8_t t, uint64_t d) {
        return is_num(t) && as_num(t, d) >= lit;
      });
    }
    case Op::kStrEq: {
      uint32_t code = p.code;
      return run([code](uint8_t t, uint64_t d) {
        return t == kTagStr && static_cast<uint32_t>(d) == code;
      });
    }
    case Op::kStrLt:
    case Op::kStrLe:
    case Op::kStrGt:
    case Op::kStrGe: {
      const std::vector<uint32_t>& ranks = dict.ranks();
      uint64_t lit = p.str_key;
      switch (p.op) {
        case Op::kStrLt:
          return run([&](uint8_t t, uint64_t d) {
            return t == kTagStr &&
                   2ull * ranks[static_cast<uint32_t>(d)] + 1 < lit;
          });
        case Op::kStrLe:
          return run([&](uint8_t t, uint64_t d) {
            return t == kTagStr &&
                   2ull * ranks[static_cast<uint32_t>(d)] + 1 <= lit;
          });
        case Op::kStrGt:
          return run([&](uint8_t t, uint64_t d) {
            return t == kTagStr &&
                   2ull * ranks[static_cast<uint32_t>(d)] + 1 > lit;
          });
        default:
          return run([&](uint8_t t, uint64_t d) {
            return t == kTagStr &&
                   2ull * ranks[static_cast<uint32_t>(d)] + 1 >= lit;
          });
      }
    }
  }
  return 0;
}

// Zone-map probes implied by the compiled predicate chain, one per
// predicate. The mapping is conservative: a probe only refutes a block
// when no cell in it can satisfy the predicate (string *range* ops
// compare mutable dictionary ranks, so they only refute blocks with no
// string cells at all). The probe set is a pure function of the compiled
// predicates.
std::vector<ColumnProbe> MakeZoneProbes(
    const std::vector<CompiledPred>& preds) {
  using Op = CompiledPred::Op;
  using Kind = ZoneProbe::Kind;
  std::vector<ColumnProbe> probes;
  probes.reserve(preds.size());
  for (const CompiledPred& p : preds) {
    ColumnProbe cp;
    cp.col = p.pos;
    cp.probe.num = p.num;
    cp.probe.code = p.code;
    switch (p.op) {
      case Op::kIsNotNull:
        cp.probe.kind = Kind::kIsNotNull;
        break;
      case Op::kNever:
        cp.probe.kind = Kind::kNever;
        break;
      case Op::kNumEq:
        cp.probe.kind = Kind::kNumEq;
        break;
      case Op::kNumLt:
        cp.probe.kind = Kind::kNumLt;
        break;
      case Op::kNumLe:
        cp.probe.kind = Kind::kNumLe;
        break;
      case Op::kNumGt:
        cp.probe.kind = Kind::kNumGt;
        break;
      case Op::kNumGe:
        cp.probe.kind = Kind::kNumGe;
        break;
      case Op::kStrEq:
        cp.probe.kind = Kind::kCodeEq;
        break;
      case Op::kStrLt:
      case Op::kStrLe:
      case Op::kStrGt:
      case Op::kStrGe:
        cp.probe.kind = Kind::kHasStr;
        break;
    }
    probes.push_back(cp);
  }
  return probes;
}

// Position of table column `col` within an index entry (keys then
// included columns), or -1.
int EntryPosition(const IndexDef& def, int col) {
  for (size_t i = 0; i < def.key_columns.size(); ++i) {
    if (def.key_columns[i] == col) return static_cast<int>(i);
  }
  for (size_t i = 0; i < def.included_columns.size(); ++i) {
    if (def.included_columns[i] == col) {
      return static_cast<int>(def.key_columns.size() + i);
    }
  }
  return -1;
}

// Join keys normalized to a (class, 64-bit) pair whose exact equality is
// SqlEquals: numerics through double bits (-0.0 collapsed, NaN excluded —
// NaN equals nothing), strings through their dictionary code.
bool NormalizeJoinKey(Cell c, uint8_t* cls, uint64_t* bits) {
  switch (static_cast<CellTag>(c.tag)) {
    case CellTag::kNull:
      return false;
    case CellTag::kInt:
      *cls = 1;
      *bits = DoubleToCellBits(
          static_cast<double>(static_cast<int64_t>(c.bits)));
      return true;
    case CellTag::kReal: {
      double d = CellBitsToDouble(c.bits);
      if (std::isnan(d)) return false;
      if (d == 0.0) d = 0.0;
      *cls = 1;
      *bits = DoubleToCellBits(d);
      return true;
    }
    case CellTag::kStr:
      *cls = 2;
      *bits = c.bits;
      return true;
  }
  return false;
}

uint64_t MixJoinKey(uint8_t cls, uint64_t bits) {
  uint64_t x = bits + 0x9e3779b97f4a7c15ull * cls;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

// One aggregate accumulator. Aggregation is defined as per-morsel
// partials folded in morsel order, so the rounding of a floating-point
// SUM is a function of the input alone.
struct AggAcc {
  int64_t count = 0;
  int64_t isum = 0;       // exact integer sum (no reals seen)
  double dsum = 0;        // numeric sum; authoritative once a real appears
  bool saw_real = false;
  bool saw_numeric = false;
  bool has_value = false;  // min/max
  SortKey best{};
  Cell best_cell{};
};

void UpdateAgg(AggFunc func, AggAcc* a, Cell c,
               const StringDictionary& dict) {
  switch (func) {
    case AggFunc::kNone:
      break;
    case AggFunc::kCountStar:
      ++a->count;
      break;
    case AggFunc::kCount:
      if (c.tag != kTagNull) ++a->count;
      break;
    case AggFunc::kSum:
      // SQL SUM skips NULLs; non-numeric (string) cells are skipped too —
      // the subset has no casts, so summing a string column yields the
      // sum of whatever numeric cells it holds (possibly none -> NULL).
      if (c.tag == kTagInt) {
        int64_t v = static_cast<int64_t>(c.bits);
        a->isum += v;
        a->dsum += static_cast<double>(v);
        a->saw_numeric = true;
      } else if (c.tag == kTagReal) {
        a->dsum += CellBitsToDouble(c.bits);
        a->saw_real = true;
        a->saw_numeric = true;
      }
      break;
    case AggFunc::kMin:
    case AggFunc::kMax: {
      if (c.tag == kTagNull) break;
      SortKey k = EncodeCellKey(c, dict);
      bool better = !a->has_value ||
                    (func == AggFunc::kMin ? k < a->best : a->best < k);
      if (better) {
        a->best = k;
        a->best_cell = c;
        a->has_value = true;
      }
      break;
    }
  }
}

// Folds `later` (a strictly later morsel's partial) into `a`. Ties on
// min/max keep the earlier morsel's cell, matching first-in-row-order.
void MergeAgg(AggFunc func, AggAcc* a, const AggAcc& later) {
  a->count += later.count;
  a->isum += later.isum;
  a->dsum += later.dsum;
  a->saw_real = a->saw_real || later.saw_real;
  a->saw_numeric = a->saw_numeric || later.saw_numeric;
  if (later.has_value &&
      (!a->has_value || (func == AggFunc::kMin ? later.best < a->best
                                               : a->best < later.best))) {
    a->best = later.best;
    a->best_cell = later.best_cell;
    a->has_value = true;
  }
}

Cell FinalizeAgg(AggFunc func, const AggAcc& a) {
  switch (func) {
    case AggFunc::kNone:
      break;
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Cell{kTagInt, static_cast<uint64_t>(a.count)};
    case AggFunc::kSum:
      if (!a.saw_numeric) return Cell{};  // SUM over no values is NULL
      if (a.saw_real) return Cell{kTagReal, DoubleToCellBits(a.dsum)};
      return Cell{kTagInt, static_cast<uint64_t>(a.isum)};
    case AggFunc::kMin:
    case AggFunc::kMax:
      return a.has_value ? a.best_cell : Cell{};
  }
  return Cell{};
}

class ExecState {
 public:
  ExecState(const Database& db, ExecMetrics* metrics,
            const ExecOptions& options)
      : db_(db),
        dict_(db.dictionary()),
        metrics_(metrics),
        governor_(options.governor),
        capture_timing_(options.capture_timing),
        snapshot_(options.snapshot),
        cancel_(options.cancel),
        faults_(options.faults) {}

  // Executes one node. When `en` is non-null (EXPLAIN ANALYZE), the
  // subtree's actuals are recorded into it as inclusive deltas of the
  // run-wide meter — the same semantics as the planner's inclusive
  // est_cost / est_pages — at the cost of two double reads per node; when
  // null, recording is a single pointer test.
  Result<RowSet> Exec(const PlanNode& node, ExplainNode* en) {
    // Plan trees are recursive structures; guard their depth, and charge
    // every node's output rows against the governor's row cap.
    RecursionScope scope(governor_);
    XS_RETURN_IF_ERROR(scope.status());
    double work_before = 0;
    double pages_before = 0;
    int64_t blocks_scanned_before = 0;
    int64_t blocks_skipped_before = 0;
    std::chrono::steady_clock::time_point start{};
    if (en != nullptr) {
      work_before = metrics_->work;
      pages_before = metrics_->pages_sequential + metrics_->pages_random;
      blocks_scanned_before = metrics_->blocks_scanned;
      blocks_skipped_before = metrics_->blocks_skipped;
      if (capture_timing_) start = std::chrono::steady_clock::now();
    }
    XS_ASSIGN_OR_RETURN(RowSet rows, ExecNode(node, en));
    if (en != nullptr) {
      en->actual_rows = static_cast<int64_t>(rows.num_rows);
      en->actual_work = metrics_->work - work_before;
      en->actual_pages =
          metrics_->pages_sequential + metrics_->pages_random - pages_before;
      en->actual_blocks_scanned =
          metrics_->blocks_scanned - blocks_scanned_before;
      en->actual_blocks_skipped =
          metrics_->blocks_skipped - blocks_skipped_before;
      if (capture_timing_) {
        en->wall_ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      }
    }
    if (governor_ != nullptr) {
      XS_RETURN_IF_ERROR(
          governor_->ChargeRows(static_cast<int64_t>(rows.num_rows)));
    }
    return rows;
  }

  const StringDictionary& dict() const { return dict_; }

 private:
  // Explain child matching a plan child; the tree mirrors the plan, so
  // indexing is positional.
  static ExplainNode* Child(ExplainNode* en, size_t i) {
    return en == nullptr ? nullptr : &en->children[i];
  }

  // Index paths, view scans, index nested-loop joins and aggregates
  // write one flat chunk.
  static Result<RowSet> Whole(Result<Chunk> chunk) {
    if (!chunk.ok()) return chunk.status();
    return RowSet::Whole(chunk.TakeValue());
  }

  Result<RowSet> ExecNode(const PlanNode& node, ExplainNode* en) {
    switch (node.kind) {
      case PlanKind::kHeapScan:
        return ExecHeapScan(node);
      case PlanKind::kIndexSeek:
      case PlanKind::kIndexOnlyScan:
        return Whole(ExecIndexPath(node));
      case PlanKind::kViewScan:
        return Whole(ExecViewScan(node));
      case PlanKind::kIndexNlJoin:
        return Whole(ExecIndexNlJoin(node, en));
      case PlanKind::kHashJoin:
        return ExecHashJoin(node, en);
      case PlanKind::kProject:
        return ExecProject(node, en);
      case PlanKind::kAggregate:
        return Whole(ExecAggregate(node, en));
      case PlanKind::kUnionAll:
        return ExecUnionAll(node, en);
      case PlanKind::kSort:
        return ExecSort(node, en);
    }
    return Internal("unknown plan kind");
  }

  // Appends `in`'s rows, in its order, to one chunk reserved once;
  // appending leaves no cell to be zeroed first.
  static Chunk WriteRows(const RowSet& in) {
    Chunk out;
    out.width = in.width;
    out.num_rows = in.num_rows;
    out.ReserveRows(in.num_rows);
    in.ForEachStretch(0, in.num_rows, [&out](const Part& part, size_t r0,
                                             size_t r1) {
      for (size_t r = r0; r < r1; ++r) {
        for (size_t j = 0; j < part.map.size(); ++j) {
          out.cells.push_back(part.At(r, j));
        }
      }
    });
    return out;
  }

  // Input of an operator that reads stored rows (joins, aggregates): the
  // child's rows as they are when they are plain, or else written once.
  Result<RowSet> ExecPlain(const PlanNode& node, ExplainNode* en) {
    XS_ASSIGN_OR_RETURN(RowSet rows, Exec(node, en));
    if (rows.IsPlain()) return rows;
    return RowSet::Whole(WriteRows(rows));
  }

  // Metering records into `metrics_` first (telemetry reflects all work
  // attempted), then charges the governor, which may stop the run.
  Status ChargeGovernor(double work) {
    return governor_ == nullptr ? Status::OK()
                                : governor_->ChargeWork(work);
  }
  Status ChargeSeqPages(double pages) {
    metrics_->pages_sequential += pages;
    metrics_->work += pages * kSeqPageCost;
    return ChargeGovernor(pages * kSeqPageCost);
  }
  Status ChargeRandPages(double pages) {
    metrics_->pages_random += pages;
    metrics_->work += pages * kRandPageCost;
    return ChargeGovernor(pages * kRandPageCost);
  }
  Status ChargeCpuRows(double rows) {
    metrics_->work += rows * kCpuRowCost;
    return ChargeGovernor(rows * kCpuRowCost);
  }
  Status ChargeHashRows(double rows) {
    metrics_->work += rows * kHashRowCost;
    return ChargeGovernor(rows * kHashRowCost);
  }

  // Interrupt poll at batch boundaries of every row loop: cancellation
  // token, governor wall deadline, and the chaos mid-query fault site.
  // No metering side effects, so charges are identical whether or not a
  // run is stopped one batch later.
  Status CheckBatchInterrupts() {
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      return ResourceExhausted("query cancelled");
    }
    if (governor_ != nullptr) {
      XS_RETURN_IF_ERROR(governor_->CheckDeadline());
    }
    if (faults_ != nullptr) {
      XS_RETURN_IF_ERROR(faults_->Check(kFaultSiteServeMidQuery));
    }
    return Status::OK();
  }

  // Polls the batch boundaries of input rows [lo, hi) of a
  // morsel-structured loop (heap and view scans, hash-join probe,
  // aggregate) as the loop reaches them, before it reads a row: one poll
  // per kScanBatchRows rows, firing the exec.morsel fault site first when
  // the boundary starts a kMorselRows morsel. A scan span's lo is
  // block-aligned, so the site fires once per *scanned* block; skipped
  // blocks are never visited.
  Status CheckMorsel(size_t lo, size_t hi) {
    for (size_t base = lo; base < hi; base += kScanBatchRows) {
      if (base % kMorselRows == 0 && faults_ != nullptr) {
        XS_RETURN_IF_ERROR(faults_->Check(kFaultSiteExecMorsel));
      }
      XS_RETURN_IF_ERROR(CheckBatchInterrupts());
    }
    return Status::OK();
  }

  // Scan layout plus its charges for a sequential scan of `table`:
  // which blocks to touch (zone-map pruning via `probes`), the page and
  // row charges, and the block counters. Skipping is disabled under a
  // pinned snapshot — the snapshot's publish-time byte counts already fix
  // the page charge, and a bound mid-block would make partial blocks
  // unprunable anyway — so pinned readers scan [0, visible) exactly as
  // before. All charges happen here, before any data is read, so a trip
  // stops the scan before it reads a block.
  Result<ScanLayout> ChargeAndLayoutScan(const std::string& name,
                                         const Table& table,
                                         const std::vector<ColumnProbe>&
                                             probes) {
    int64_t visible = VisibleRows(name, table);
    bool pinned = snapshot_ != nullptr;
    ScanLayout layout =
        ComputeScanLayout(table, visible, probes, /*allow_skip=*/!pinned);
    metrics_->blocks_scanned += layout.blocks_scanned;
    metrics_->blocks_skipped += layout.blocks_skipped;
    double pages = pinned
                       ? VisiblePages(name, table)
                       : static_cast<double>(PagesForBytes(
                             layout.scanned_bytes));
    XS_RETURN_IF_ERROR(ChargeSeqPages(pages));
    XS_RETURN_IF_ERROR(
        ChargeCpuRows(static_cast<double>(layout.scanned_rows)));
    return layout;
  }

  // One ColumnReader per schema column of `table`. Used by the
  // random-access fetch paths (index fetch, INL join inner side); readers
  // are lazy, so unused columns cost nothing.
  std::vector<ColumnReader> MakeTableReaders(const Table& table) const {
    std::vector<ColumnReader> readers;
    int ncols = table.schema().num_columns();
    readers.reserve(static_cast<size_t>(ncols));
    for (int c = 0; c < ncols; ++c) {
      readers.emplace_back(table.column(c));
    }
    return readers;
  }

  // Rows of table/view `name` visible to this run: clamped to the pinned
  // snapshot when one is set (absent from snapshot -> scans as empty),
  // otherwise the current contents.
  int64_t VisibleRows(const std::string& name, const Table& table) const {
    if (snapshot_ == nullptr) return table.row_count();
    const EpochTableVersion* v = snapshot_->Find(name);
    return v == nullptr ? 0 : std::min(v->visible_rows, table.row_count());
  }
  // Page charge for a sequential scan of `name`: the snapshot's byte
  // counts when pinned, so a reader's metering is independent of
  // concurrent appends.
  double VisiblePages(const std::string& name, const Table& table) const {
    if (snapshot_ == nullptr) return static_cast<double>(table.NumPages());
    const EpochTableVersion* v = snapshot_->Find(name);
    return v == nullptr ? 0.0 : static_cast<double>(v->NumPages());
  }
  // Visibility bound on base-table row ids reached through an index
  // (entries for rows appended after the snapshot are skipped; the index
  // itself is rebuilt on append, see SessionManager::AppendAndPublish).
  int64_t VisibleRowBound(const std::string& base_table) const {
    if (snapshot_ == nullptr) return std::numeric_limits<int64_t>::max();
    const Table* base = db_.FindTable(base_table);
    return base == nullptr ? 0 : VisibleRows(base_table, *base);
  }

  // Compiles `filters` against positions found in `slots` (the layout of
  // the rows being filtered), mapped through `remap` when the cells being
  // tested live at different positions (index entries).
  Result<std::vector<CompiledPred>> CompileSlotFilters(
      const std::vector<BoundFilter>& filters,
      const std::vector<ColumnSlot>& slots, const std::vector<int>* remap) {
    std::vector<CompiledPred> preds;
    preds.reserve(filters.size());
    for (const BoundFilter& f : filters) {
      int pos = -1;
      for (size_t i = 0; i < slots.size(); ++i) {
        if (slots[i].table_idx == f.ref.table_idx &&
            slots[i].column == f.ref.column) {
          pos = static_cast<int>(i);
          break;
        }
      }
      if (pos < 0) return Internal("filter column missing from output");
      if (remap != nullptr) pos = (*remap)[static_cast<size_t>(pos)];
      XS_ASSIGN_OR_RETURN(CompiledPred p,
                          CompilePred(pos, f.op, f.literal, dict_));
      preds.push_back(p);
    }
    return preds;
  }

  // Compiles `filters` against base-table column ordinals.
  Result<std::vector<CompiledPred>> CompileTableFilters(
      const std::vector<BoundFilter>& filters) {
    std::vector<CompiledPred> preds;
    preds.reserve(filters.size());
    for (const BoundFilter& f : filters) {
      XS_ASSIGN_OR_RETURN(
          CompiledPred p, CompilePred(f.ref.column, f.op, f.literal, dict_));
      preds.push_back(p);
    }
    return preds;
  }

  Result<RowSet> ExecHeapScan(const PlanNode& node) {
    const Table* table = db_.FindTable(node.object_name);
    if (table == nullptr) return NotFound("table " + node.object_name);
    // The zone probes that decide which blocks to skip derive from the
    // compiled predicates.
    XS_ASSIGN_OR_RETURN(std::vector<CompiledPred> preds,
                        CompileTableFilters(node.residual_filters));
    XS_ASSIGN_OR_RETURN(
        ScanLayout layout,
        ChargeAndLayoutScan(node.object_name, *table, MakeZoneProbes(preds)));

    // Cursor per unique column the scan touches: predicate columns
    // first, then output columns.
    std::vector<int> cursor_cols;
    auto cursor_of = [&cursor_cols](int col) {
      for (size_t i = 0; i < cursor_cols.size(); ++i) {
        if (cursor_cols[i] == col) return static_cast<int>(i);
      }
      cursor_cols.push_back(col);
      return static_cast<int>(cursor_cols.size() - 1);
    };
    std::vector<int> pred_cur;
    pred_cur.reserve(preds.size());
    for (const CompiledPred& p : preds) pred_cur.push_back(cursor_of(p.pos));
    std::vector<int> out_cur;
    out_cur.reserve(node.output.size());
    for (const ColumnSlot& slot : node.output) {
      out_cur.push_back(cursor_of(slot.column));
    }

    std::vector<BlockCursor> cursors;
    cursors.reserve(cursor_cols.size());
    for (int c : cursor_cols) cursors.emplace_back(table->column(c));

    // A span lies within one block, so each predicate runs
    // column-at-a-time over the whole span into `sel` (dense first pass,
    // in-place compaction for later conjuncts), and only then are the
    // survivors' output cells gathered, into a chunk allocated once at
    // its exact size. Each span with survivors is one part of the output.
    RowSet out;
    out.width = static_cast<int>(node.output.size());
    std::vector<int32_t> sel;
    std::vector<BlockView> views;
    for (ScanSpan span : layout.spans) {
      size_t base = static_cast<size_t>(span.lo);
      size_t lim = static_cast<size_t>(span.hi - span.lo);
      XS_RETURN_IF_ERROR(CheckMorsel(base, base + lim));
      size_t block = base / kStorageBlockRows;
      sel.resize(lim);
      size_t cnt = lim;
      if (preds.empty()) std::iota(sel.begin(), sel.end(), 0);
      for (size_t k = 0; k < preds.size() && cnt > 0; ++k) {
        BlockView v = cursors[static_cast<size_t>(pred_cur[k])].Read(block);
        cnt = ApplyPredBatch(v.tags + (base - v.base),
                             v.data + (base - v.base), cnt, sel.data(),
                             /*dense=*/k == 0, preds[k], dict_);
      }
      if (cnt == 0) continue;  // no survivors: decode no output column
      views.clear();
      for (int cu : out_cur) {
        views.push_back(cursors[static_cast<size_t>(cu)].Read(block));
      }
      Chunk chunk;
      chunk.width = out.width;
      chunk.num_rows = cnt;
      chunk.ReserveRows(cnt);
      for (size_t i = 0; i < cnt; ++i) {
        size_t rid = base + static_cast<size_t>(sel[i]);
        for (const BlockView& v : views) {
          chunk.cells.push_back(
              Cell{v.tags[rid - v.base], v.data[rid - v.base]});
        }
      }
      out.AppendWhole(std::move(chunk));
    }
    return out;
  }

  Result<Chunk> ExecIndexPath(const PlanNode& node) {
    const BTreeIndex* index = db_.FindIndex(node.object_name);
    if (index == nullptr) return NotFound("index " + node.object_name);
    const IndexDef& def = index->def();
    bool index_only = node.kind == PlanKind::kIndexOnlyScan;

    const Table* table = nullptr;
    if (!index_only) {
      table = db_.FindTable(node.base_table);
      if (table == nullptr) return NotFound("table " + node.base_table);
    }

    // Entry positions backing each output slot (index-only).
    std::vector<int> entry_pos;
    if (index_only) {
      for (const ColumnSlot& slot : node.output) {
        int pos = EntryPosition(def, slot.column);
        if (pos < 0) return Internal("index does not cover output column");
        entry_pos.push_back(pos);
      }
    }

    // Collect matching entry ids; entries whose row id falls past the
    // pinned snapshot's visible bound are skipped everywhere below.
    int64_t vis_bound = VisibleRowBound(def.table);
    size_t n = static_cast<size_t>(index->entry_count());
    std::vector<int64_t> matches;
    if (!node.seek_values.empty()) {
      size_t nkeys = node.seek_values.size();
      std::vector<SortKey> prefix;
      prefix.reserve(nkeys);
      for (const Value& v : node.seek_values) {
        prefix.push_back(EncodeValueKey(v, dict_));
      }
      CompiledPred range;
      if (node.has_range) {
        if (nkeys >= def.key_columns.size()) {
          return Internal("range predicate past last index key column");
        }
        XS_ASSIGN_OR_RETURN(
            range, CompilePred(static_cast<int>(nkeys), node.range_op,
                               node.range_literal, dict_));
      }
      for (size_t e = index->LowerBound(prefix);
           e < n && index->MatchesPrefix(e, prefix); ++e) {
        if (index->entry_row_id(e) >= vis_bound) continue;
        // Range predicate on the key column after the prefix.
        if (node.has_range &&
            !EvalCompiledCell(range, index->entry_cell(e, range.pos),
                              dict_)) {
          continue;
        }
        matches.push_back(static_cast<int64_t>(e));
      }
      XS_RETURN_IF_ERROR(ChargeRandPages(static_cast<double>(
          index->ProbePages(static_cast<int64_t>(matches.size())))));
    } else if (node.has_range) {
      SortKey lo, hi;
      bool lo_strict = false, hi_strict = false;
      bool has_lo = false, has_hi = false;
      bool lit_null = node.range_literal.is_null();
      SortKey bound =
          lit_null ? SortKey{} : EncodeValueKey(node.range_literal, dict_);
      if (node.range_op == "<") {
        has_hi = !lit_null;
        hi = bound;
        hi_strict = true;
      } else if (node.range_op == "<=") {
        has_hi = !lit_null;
        hi = bound;
      } else if (node.range_op == ">") {
        has_lo = !lit_null;
        lo = bound;
        lo_strict = true;
      } else {
        has_lo = !lit_null;
        lo = bound;
      }
      for (size_t e = 0; e < n; ++e) {
        if (e % kScanBatchRows == 0) {
          XS_RETURN_IF_ERROR(CheckBatchInterrupts());
        }
        SortKey k = index->entry_key(e, 0);
        if (k.cls == 0) continue;  // NULL keys never match a range
        if (has_lo) {
          if (k < lo || (lo_strict && k == lo)) continue;
        }
        if (has_hi) {
          if (hi < k) break;
          if (hi_strict && k == hi) continue;
        }
        if (index->entry_row_id(e) >= vis_bound) continue;
        matches.push_back(static_cast<int64_t>(e));
      }
      XS_RETURN_IF_ERROR(ChargeRandPages(static_cast<double>(
          index->ProbePages(static_cast<int64_t>(matches.size())))));
    } else {
      // Full index scan.
      if (!index_only) {
        return Internal("full index scan requires covering access");
      }
      matches.reserve(n);
      for (size_t e = 0; e < n; ++e) {
        if (index->entry_row_id(e) < vis_bound) {
          matches.push_back(static_cast<int64_t>(e));
        }
      }
      XS_RETURN_IF_ERROR(
          ChargeSeqPages(static_cast<double>(index->NumPages())));
    }
    XS_RETURN_IF_ERROR(ChargeCpuRows(static_cast<double>(matches.size())));

    Chunk out;
    out.width = static_cast<int>(node.output.size());
    if (index_only) {
      XS_ASSIGN_OR_RETURN(
          std::vector<CompiledPred> preds,
          CompileSlotFilters(node.residual_filters, node.output, &entry_pos));
      size_t seen = 0;
      for (int64_t e : matches) {
        if (seen++ % kScanBatchRows == 0) {
          XS_RETURN_IF_ERROR(CheckBatchInterrupts());
        }
        size_t entry = static_cast<size_t>(e);
        bool pass = true;
        for (const CompiledPred& p : preds) {
          if (!EvalCompiledCell(p, index->entry_cell(entry, p.pos), dict_)) {
            pass = false;
            break;
          }
        }
        if (!pass) continue;
        for (int pos : entry_pos) {
          out.cells.push_back(index->entry_cell(entry, pos));
        }
        ++out.num_rows;
      }
    } else {
      double fetches = static_cast<double>(matches.size());
      XS_RETURN_IF_ERROR(ChargeRandPages(
          std::min(fetches, static_cast<double>(table->NumPages()))));
      XS_ASSIGN_OR_RETURN(std::vector<CompiledPred> preds,
                          CompileTableFilters(node.residual_filters));
      // Row fetches go through one reader per base-table column; block
      // decodes amortize across matches that land in the same block.
      std::vector<ColumnReader> readers = MakeTableReaders(*table);
      size_t seen = 0;
      for (int64_t e : matches) {
        if (seen++ % kScanBatchRows == 0) {
          XS_RETURN_IF_ERROR(CheckBatchInterrupts());
        }
        size_t rid = static_cast<size_t>(index->entry_row_id(
            static_cast<size_t>(e)));
        bool pass = true;
        for (const CompiledPred& p : preds) {
          if (!EvalCompiledCell(p, readers[static_cast<size_t>(p.pos)].At(rid),
                                dict_)) {
            pass = false;
            break;
          }
        }
        if (!pass) continue;
        for (const ColumnSlot& slot : node.output) {
          out.cells.push_back(
              readers[static_cast<size_t>(slot.column)].At(rid));
        }
        ++out.num_rows;
      }
    }
    return out;
  }

  Result<Chunk> ExecViewScan(const PlanNode& node) {
    const Table* view = db_.FindTable(node.object_name);
    if (view == nullptr) return NotFound("view " + node.object_name);
    // No residual predicates on a view scan, so no probes: the layout
    // never skips, but page charges still follow the encoded block sizes.
    XS_ASSIGN_OR_RETURN(ScanLayout layout,
                        ChargeAndLayoutScan(node.object_name, *view, {}));
    // The planner's output slots correspond positionally to the view's
    // projected columns.
    if (static_cast<int>(node.output.size()) !=
        view->schema().num_columns()) {
      return Internal("view column count does not match plan output");
    }
    // Every visible row is copied verbatim, span by span.
    Chunk out;
    out.width = view->schema().num_columns();
    out.ReserveRows(static_cast<size_t>(layout.scanned_rows));
    std::vector<ColumnReader> readers;
    readers.reserve(static_cast<size_t>(out.width));
    for (int c = 0; c < out.width; ++c) readers.emplace_back(view->column(c));
    for (ScanSpan span : layout.spans) {
      size_t lo = static_cast<size_t>(span.lo);
      size_t hi = static_cast<size_t>(span.hi);
      XS_RETURN_IF_ERROR(CheckMorsel(lo, hi));
      for (size_t rid = lo; rid < hi; ++rid) {
        for (ColumnReader& reader : readers) {
          out.cells.push_back(reader.At(rid));
        }
      }
      out.num_rows += hi - lo;
    }
    return out;
  }

  Result<Chunk> ExecIndexNlJoin(const PlanNode& node, ExplainNode* en) {
    XS_ASSIGN_OR_RETURN(RowSet outer,
                        ExecPlain(*node.children[0], Child(en, 0)));
    const BTreeIndex* index = db_.FindIndex(node.object_name);
    if (index == nullptr) return NotFound("index " + node.object_name);
    const Table* table = db_.FindTable(node.base_table);
    if (table == nullptr) return NotFound("table " + node.base_table);
    const IndexDef& def = index->def();

    int outer_pos = node.children[0]->FindSlot(node.outer_key);
    if (outer_pos < 0) return Internal("outer join key missing");

    // Inner output columns follow the outer columns in node.output.
    size_t outer_width = node.children[0]->output.size();
    std::vector<ColumnSlot> inner_slots(node.output.begin() +
                                            static_cast<long>(outer_width),
                                        node.output.end());
    std::vector<int> entry_pos;
    std::vector<CompiledPred> preds;
    if (!node.inner_fetch) {
      for (const ColumnSlot& slot : inner_slots) {
        int pos = EntryPosition(def, slot.column);
        if (pos < 0) return Internal("INL index does not cover inner column");
        entry_pos.push_back(pos);
      }
      XS_ASSIGN_OR_RETURN(preds,
                          CompileSlotFilters(node.inner_residual_filters,
                                             inner_slots, &entry_pos));
    } else {
      XS_ASSIGN_OR_RETURN(
          preds, CompileTableFilters(node.inner_residual_filters));
    }
    // Inner-row fetches read through per-column readers; equal-key entry
    // runs cluster fetches so block decodes amortize across probes.
    std::vector<ColumnReader> inner_readers;
    if (node.inner_fetch) inner_readers = MakeTableReaders(*table);

    Chunk out;
    out.width = static_cast<int>(node.output.size());
    double total_fetches = 0;
    int64_t vis_bound = VisibleRowBound(def.table);
    size_t n = static_cast<size_t>(index->entry_count());
    std::vector<SortKey> prefix(1);
    // The outer rows are plain: read each part's chunk in order, counting
    // rows for the batch interrupt checks.
    size_t r = 0;
    for (const Part& part : outer.parts) {
      for (size_t pr = 0; pr < part.chunk.num_rows; ++pr, ++r) {
        if (r % kScanBatchRows == 0) {
          XS_RETURN_IF_ERROR(CheckBatchInterrupts());
        }
        const Cell* orow = part.chunk.row(pr);
        Cell key = orow[static_cast<size_t>(outer_pos)];
        if (key.tag == kTagNull) continue;
        prefix[0] = EncodeCellKey(key, dict_);
        size_t e0 = index->LowerBound(prefix);
        size_t e1 = e0;
        while (e1 < n && index->entry_key(e1, 0) == prefix[0]) ++e1;
        XS_RETURN_IF_ERROR(ChargeRandPages(static_cast<double>(
            index->ProbePages(static_cast<int64_t>(e1 - e0)))));

        if (!node.inner_fetch) {
          // Walk the equal range of entries for covering access.
          for (size_t e = e0; e < e1; ++e) {
            if (index->entry_row_id(e) >= vis_bound) continue;
            bool pass = true;
            for (const CompiledPred& p : preds) {
              if (!EvalCompiledCell(p, index->entry_cell(e, p.pos), dict_)) {
                pass = false;
                break;
              }
            }
            if (!pass) continue;
            out.cells.insert(out.cells.end(), orow, orow + outer.width);
            for (int pos : entry_pos) {
              out.cells.push_back(index->entry_cell(e, pos));
            }
            ++out.num_rows;
          }
        } else {
          for (size_t e = e0; e < e1; ++e) {
            if (index->entry_row_id(e) >= vis_bound) continue;
            total_fetches += 1.0;
            size_t rid = static_cast<size_t>(index->entry_row_id(e));
            bool pass = true;
            for (const CompiledPred& p : preds) {
              if (!EvalCompiledCell(
                      p, inner_readers[static_cast<size_t>(p.pos)].At(rid),
                      dict_)) {
                pass = false;
                break;
              }
            }
            if (!pass) continue;
            out.cells.insert(out.cells.end(), orow, orow + outer.width);
            for (const ColumnSlot& slot : inner_slots) {
              out.cells.push_back(
                  inner_readers[static_cast<size_t>(slot.column)].At(rid));
            }
            ++out.num_rows;
          }
        }
      }
    }
    if (node.inner_fetch) {
      XS_RETURN_IF_ERROR(ChargeRandPages(std::min(
          total_fetches, static_cast<double>(table->NumPages()) * 4.0)));
    }
    XS_RETURN_IF_ERROR(
        ChargeCpuRows(static_cast<double>(out.num_rows)));
    return out;
  }

  Result<RowSet> ExecHashJoin(const PlanNode& node, ExplainNode* en) {
    XS_ASSIGN_OR_RETURN(RowSet probe,
                        ExecPlain(*node.children[0], Child(en, 0)));
    XS_ASSIGN_OR_RETURN(RowSet build,
                        ExecPlain(*node.children[1], Child(en, 1)));
    int probe_pos = node.children[0]->FindSlot(node.probe_key);
    int build_pos = node.children[1]->FindSlot(node.build_key);
    if (probe_pos < 0 || build_pos < 0) {
      return Internal("hash join key missing");
    }
    // Deterministic chained hash table over normalized 64-bit keys (key
    // equality is SqlEquals — no re-verification against cell data).
    // Build rows are inserted in reverse so every chain walks in
    // ascending build order, making match order independent of the
    // standard library's hash container internals.
    size_t bn = build.num_rows;
    std::vector<uint8_t> bcls(bn, 0);  // stays 0 on a NULL or NaN key
    std::vector<uint64_t> bkey(bn, 0);
    size_t k = 0;
    build.ForEachStretch(0, bn, [&](const Part& part, size_t r0, size_t r1) {
      for (size_t r = r0; r < r1; ++r, ++k) {
        Cell c = part.chunk.row(r)[static_cast<size_t>(build_pos)];
        NormalizeJoinKey(c, &bcls[k], &bkey[k]);
      }
    });
    size_t nbuckets = 16;
    while (nbuckets < bn) nbuckets <<= 1;
    uint64_t mask = nbuckets - 1;
    std::vector<int64_t> heads(nbuckets, -1);
    std::vector<int64_t> chain(bn, -1);
    for (size_t i = bn; i-- > 0;) {
      if (bcls[i] == 0) continue;
      uint64_t b = MixJoinKey(bcls[i], bkey[i]) & mask;
      chain[i] = heads[b];
      heads[b] = static_cast<int64_t>(i);
    }
    XS_RETURN_IF_ERROR(ChargeHashRows(static_cast<double>(build.num_rows)));

    // Probes one row against the (now frozen) table, appending matches in
    // ascending build order, so the morsels' chunks in order hold the
    // probe-major, build-ascending match order.
    auto probe_row = [&](const Cell* prow, Chunk* matches) {
      uint8_t cls = 0;
      uint64_t bits = 0;
      if (!NormalizeJoinKey(prow[static_cast<size_t>(probe_pos)], &cls,
                            &bits)) {
        return;
      }
      for (int64_t i = heads[MixJoinKey(cls, bits) & mask]; i >= 0;
           i = chain[static_cast<size_t>(i)]) {
        size_t bi = static_cast<size_t>(i);
        if (bcls[bi] != cls || bkey[bi] != bits) continue;
        std::vector<Cell>& cells = matches->cells;
        cells.insert(cells.end(), prow, prow + probe.width);
        // A match searches for its build row's part: a pointer kept per
        // build row costs more wherever matches are fewer than build rows.
        const Part& part = build.parts[build.PartIndex(bi)];
        const Cell* brow = part.chunk.row(bi - part.first);
        cells.insert(cells.end(), brow, brow + build.width);
        ++matches->num_rows;
      }
    };

    // Each probe morsel's matches are one part of the output.
    RowSet out;
    out.width = probe.width + build.width;
    size_t pn = probe.num_rows;
    for (size_t lo = 0; lo < pn; lo += kMorselRows) {
      size_t hi = std::min(pn, lo + kMorselRows);
      XS_RETURN_IF_ERROR(CheckMorsel(lo, hi));
      Chunk matches;
      matches.width = out.width;
      probe.ForEachStretch(lo, hi, [&](const Part& part, size_t r0,
                                       size_t r1) {
        for (size_t r = r0; r < r1; ++r) probe_row(part.chunk.row(r), &matches);
      });
      if (matches.num_rows > 0) out.AppendWhole(std::move(matches));
    }
    XS_RETURN_IF_ERROR(ChargeHashRows(static_cast<double>(probe.num_rows)));
    XS_RETURN_IF_ERROR(ChargeCpuRows(static_cast<double>(out.num_rows)));
    return out;
  }

  // Composes the select list into each part's column map; no cell is
  // copied.
  Result<RowSet> ExecProject(const PlanNode& node, ExplainNode* en) {
    XS_ASSIGN_OR_RETURN(RowSet input, Exec(*node.children[0], Child(en, 0)));
    const PlanNode& child = *node.children[0];
    std::vector<int> positions;
    positions.reserve(node.project_items.size());
    for (const BoundItem& item : node.project_items) {
      if (item.is_null_literal) {
        positions.push_back(-1);
      } else {
        int pos = child.FindSlot({item.ref.table_idx, item.ref.column});
        if (pos < 0) return Internal("projected column missing");
        positions.push_back(pos);
      }
    }
    for (Part& part : input.parts) {
      std::vector<int> map;
      map.reserve(positions.size());
      for (int pos : positions) {
        map.push_back(pos < 0 ? -1 : part.map[static_cast<size_t>(pos)]);
      }
      part.map = std::move(map);
    }
    input.width = static_cast<int>(positions.size());
    return input;
  }

  // Scalar aggregation (no GROUP BY): folds the child's rows into one
  // output row of COUNT/SUM/MIN/MAX cells. Each morsel's rows fold into a
  // partial, and the partials fold in morsel order; that tree defines the
  // rounding of a floating-point SUM.
  Result<Chunk> ExecAggregate(const PlanNode& node, ExplainNode* en) {
    XS_ASSIGN_OR_RETURN(RowSet input,
                        ExecPlain(*node.children[0], Child(en, 0)));
    const PlanNode& child = *node.children[0];
    struct Spec {
      AggFunc func = AggFunc::kNone;  // kNone = NULL-literal item
      int pos = -1;                   // input slot; -1 for COUNT(*)
    };
    std::vector<Spec> specs;
    specs.reserve(node.project_items.size());
    for (const BoundItem& item : node.project_items) {
      Spec spec;
      if (!item.is_null_literal) {
        spec.func = item.agg;
        if (item.agg != AggFunc::kCountStar) {
          spec.pos = child.FindSlot({item.ref.table_idx, item.ref.column});
          if (spec.pos < 0) return Internal("aggregated column missing");
        }
      }
      specs.push_back(spec);
    }
    XS_RETURN_IF_ERROR(
        ChargeCpuRows(static_cast<double>(input.num_rows)));

    size_t n = input.num_rows;
    size_t nspec = specs.size();
    std::vector<AggAcc> totals(nspec);
    std::vector<AggAcc> partials(nspec);
    for (size_t lo = 0; lo < n; lo += kMorselRows) {
      size_t hi = std::min(n, lo + kMorselRows);
      XS_RETURN_IF_ERROR(CheckMorsel(lo, hi));
      std::fill(partials.begin(), partials.end(), AggAcc{});
      input.ForEachStretch(lo, hi, [&](const Part& part, size_t r0,
                                       size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          const Cell* row = part.chunk.row(r);
          for (size_t j = 0; j < nspec; ++j) {
            if (specs[j].func == AggFunc::kNone) continue;
            Cell c = specs[j].pos < 0 ? Cell{}
                                      : row[static_cast<size_t>(specs[j].pos)];
            UpdateAgg(specs[j].func, &partials[j], c, dict_);
          }
        }
      });
      for (size_t j = 0; j < nspec; ++j) {
        MergeAgg(specs[j].func, &totals[j], partials[j]);
      }
    }

    Chunk out;
    out.width = static_cast<int>(nspec);
    out.num_rows = 1;
    out.ReserveRows(1);
    for (size_t j = 0; j < nspec; ++j) {
      out.cells.push_back(FinalizeAgg(specs[j].func, totals[j]));
    }
    return out;
  }

  // Lists the branches' parts in branch order; no cell is copied.
  Result<RowSet> ExecUnionAll(const PlanNode& node, ExplainNode* en) {
    RowSet out;
    out.width = static_cast<int>(node.output.size());
    for (size_t i = 0; i < node.children.size(); ++i) {
      XS_ASSIGN_OR_RETURN(RowSet branch, Exec(*node.children[i], Child(en, i)));
      if (i > 0 && branch.width != out.width) {
        return Internal("union branches produce different widths");
      }
      // A sorted branch (no planned query has one: the planner puts the
      // Sort at the root) is written in its order first.
      if (!branch.order.empty()) branch = RowSet::Whole(WriteRows(branch));
      out.width = branch.width;
      for (Part& part : branch.parts) out.Append(std::move(part));
    }
    return out;
  }

  // Sorts the input's rows and hands them on with the permutation; no
  // cell is copied.
  Result<RowSet> ExecSort(const PlanNode& node, ExplainNode* en) {
    XS_ASSIGN_OR_RETURN(RowSet input, Exec(*node.children[0], Child(en, 0)));
    double sort_work = SortCost(static_cast<double>(input.num_rows));
    metrics_->work += sort_work;
    XS_RETURN_IF_ERROR(ChargeGovernor(sort_work));
    const std::vector<int>& ords = node.sort_ordinals;
    size_t nord = ords.size();
    size_t n = input.num_rows;
    // Sort over encoded keys: (class, 64-bit) compares reproduce
    // Value::TotalLess exactly without touching string data.
    std::vector<SortKey> keys;
    keys.reserve(n * nord);
    input.ForEachStretch(0, n, [&](const Part& part, size_t r0, size_t r1) {
      for (size_t r = r0; r < r1; ++r) {
        for (int ord : ords) {
          keys.push_back(
              EncodeCellKey(part.At(r, static_cast<size_t>(ord)), dict_));
        }
      }
    });
    std::vector<size_t> perm =
        NaturalMergeSort(n, [&keys, nord](size_t a, size_t b) {
          const SortKey* ka = keys.data() + a * nord;
          const SortKey* kb = keys.data() + b * nord;
          for (size_t j = 0; j < nord; ++j) {
            if (ka[j] < kb[j]) return true;
            if (kb[j] < ka[j]) return false;
          }
          return false;
        });
    // perm lists positions in the input's order; name the rows they hold.
    if (!input.order.empty()) {
      for (size_t& i : perm) i = input.order[i];
    }
    input.order = std::move(perm);
    return input;
  }

  const Database& db_;
  const StringDictionary& dict_;
  ExecMetrics* metrics_;
  ResourceGovernor* governor_;
  bool capture_timing_;
  const EpochSnapshot* snapshot_;
  const std::atomic<bool>* cancel_;
  FaultInjector* faults_;
};

// The explain tree must have come from BuildExplainTree on this plan;
// verify the shapes agree before trusting positional child indexing.
bool MirrorsPlan(const ExplainNode& en, const PlanNode& plan) {
  if (en.children.size() != plan.children.size()) return false;
  for (size_t i = 0; i < en.children.size(); ++i) {
    if (!MirrorsPlan(en.children[i], *plan.children[i])) return false;
  }
  return true;
}

// The body Run and Count share: executes `plan` to its root rows and
// publishes the run's metering.
Result<RowSet> ExecuteRoot(const Database& db, const PlanNode& plan,
                          ExecMetrics* metrics, const ExecOptions& options) {
  if (options.explain != nullptr && !MirrorsPlan(*options.explain, plan)) {
    return InvalidArgument(
        "explain tree does not mirror the plan (use BuildExplainTree)");
  }
  ExecMetrics local;
  ExecState state(db, &local, options);
  Result<RowSet> rows = state.Exec(plan, options.explain);
  if (rows.ok()) local.rows_out = static_cast<int64_t>(rows->num_rows);
  // The per-query view accumulates even on failure — telemetry reflects
  // all work attempted — while the registry's exec.* totals only count
  // completed queries, matching the planner.* convention.
  if (metrics != nullptr) {
    metrics->work += local.work;
    metrics->pages_sequential += local.pages_sequential;
    metrics->pages_random += local.pages_random;
    metrics->rows_out += local.rows_out;
    metrics->blocks_scanned += local.blocks_scanned;
    metrics->blocks_skipped += local.blocks_skipped;
  }
  if (!rows.ok()) return rows.status();
  if (options.metrics != nullptr) {
    options.metrics->counter(kMetricExecQueries)->Increment();
    options.metrics->counter(kMetricExecRowsOut)->Add(local.rows_out);
    options.metrics->gauge(kMetricExecWork)->Add(local.work);
    options.metrics->gauge(kMetricExecPagesSequential)
        ->Add(local.pages_sequential);
    options.metrics->gauge(kMetricExecPagesRandom)->Add(local.pages_random);
    options.metrics->histogram(kMetricExecRowsPerQuery)
        ->Observe(static_cast<double>(local.rows_out));
    options.metrics->counter(kMetricStorageBlocksScanned)
        ->Add(local.blocks_scanned);
    options.metrics->counter(kMetricStorageBlocksSkipped)
        ->Add(local.blocks_skipped);
  }
  return rows;
}

}  // namespace

Result<std::vector<Row>> Executor::Run(const PlanNode& plan,
                                       ExecMetrics* metrics,
                                       const ExecOptions& options) {
  XS_ASSIGN_OR_RETURN(RowSet result, ExecuteRoot(db_, plan, metrics, options));
  const StringDictionary& dict = db_.dictionary();
  std::vector<Row> rows;
  rows.reserve(result.num_rows);
  result.ForEachStretch(0, result.num_rows, [&](const Part& part, size_t r0,
                                                size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      Row row(part.map.size());  // NULLs; padding cells stay as they are
      for (size_t j = 0; j < part.map.size(); ++j) {
        Cell c = part.At(r, j);
        if (c.tag != kTagNull) row[j] = CellToValue(c, dict);
      }
      rows.push_back(std::move(row));
    }
  });
  return rows;
}

Result<int64_t> Executor::Count(const PlanNode& plan, ExecMetrics* metrics,
                                const ExecOptions& options) {
  XS_ASSIGN_OR_RETURN(RowSet result, ExecuteRoot(db_, plan, metrics, options));
  return static_cast<int64_t>(result.num_rows);
}

}  // namespace xmlshred
