#include "tune/advisor.h"

#include <algorithm>
#include <limits>
#include <map>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"
#include "opt/cost_model.h"
#include "sql/binder.h"

namespace xmlshred {

namespace {

struct Candidate {
  bool is_view = false;
  IndexDesc index;
  ViewDesc view;
  int64_t pages = 0;
  std::set<std::string> tables_touched;

  const std::string& name() const {
    return is_view ? view.def.name : index.def.name;
  }
};

std::string IndexKey(const std::string& table, const std::vector<int>& keys,
                     const std::vector<int>& includes) {
  std::string out = "I|" + table + "|";
  for (int k : keys) out += std::to_string(k) + ",";
  out += "|";
  for (int c : includes) out += std::to_string(c) + ",";
  return out;
}

double IndexEntryBytes(const TableDesc& table, const std::vector<int>& keys,
                       const std::vector<int>& includes) {
  double bytes = 8.0;  // row id
  for (int c : keys) {
    bytes += table.stats.columns[static_cast<size_t>(c)].avg_bytes;
  }
  for (int c : includes) {
    bytes += table.stats.columns[static_cast<size_t>(c)].avg_bytes;
  }
  return bytes;
}

// Generates per-query candidates into `pool`, deduplicating by structure.
class CandidateGenerator {
 public:
  CandidateGenerator(const TunerOptions& options, const CatalogDesc& base,
                     int* optimizer_calls)
      : options_(options), base_(base), optimizer_calls_(optimizer_calls) {}

  Status AddQuery(int query_idx, const Query& query,
                  const BoundQuery& bound) {
    for (size_t b = 0; b < bound.blocks.size(); ++b) {
      XS_RETURN_IF_ERROR(
          AddBlock(query_idx, query.blocks[b], bound.blocks[b]));
    }
    return Status::OK();
  }

  std::vector<Candidate> TakePool() {
    std::vector<Candidate> out;
    out.reserve(pool_.size());
    for (auto& [key, cand] : pool_) out.push_back(std::move(cand));
    return out;
  }

 private:
  void AddIndexCandidate(const std::string& table,
                         const std::vector<int>& keys,
                         std::vector<int> includes) {
    if (!options_.enable_indexes || keys.empty()) return;
    const TableDesc* desc = base_.FindTable(table);
    if (desc == nullptr) return;  // unknown table: no candidate
    // Drop include columns that repeat keys.
    includes.erase(std::remove_if(includes.begin(), includes.end(),
                                  [&keys](int c) {
                                    return std::find(keys.begin(), keys.end(),
                                                     c) != keys.end();
                                  }),
                   includes.end());
    std::string key = IndexKey(table, keys, includes);
    if (pool_.count(key) > 0) return;
    Candidate cand;
    cand.index.def.table = table;
    cand.index.def.key_columns = keys;
    cand.index.def.included_columns = includes;
    cand.index.hypothetical = true;
    cand.index.entry_count = desc->row_count();
    cand.index.entry_bytes = IndexEntryBytes(*desc, keys, includes);
    cand.pages = cand.index.NumPages();
    cand.tables_touched.insert(table);
    // Deterministic, readable name.
    std::string name = "ix_" + table;
    for (int c : keys) {
      name += "_" + desc->schema.columns[static_cast<size_t>(c)].name;
    }
    if (!includes.empty()) name += "_inc" + std::to_string(includes.size());
    cand.index.def.name = name + "_" + std::to_string(pool_.size());
    pool_[key] = std::move(cand);
  }

  Status AddBlock(int query_idx, const SelectBlock& ast_block,
                  const BoundBlock& block) {
    int n = static_cast<int>(block.tables.size());
    for (int t = 0; t < n; ++t) {
      const std::string& table = block.tables[static_cast<size_t>(t)];
      const TableDesc* desc = base_.FindTable(table);
      if (desc == nullptr) return NotFound("table " + table);
      std::vector<int> referenced = block.ReferencedColumns(t);

      // Filter columns, equality first ordered by selectivity.
      std::vector<std::pair<double, int>> eq_cols;
      std::vector<int> range_cols;
      for (const BoundFilter& f : block.filters) {
        if (f.ref.table_idx != t) continue;
        if (f.op == "=") {
          double sel = FilterSelectivity(
              desc->stats.columns[static_cast<size_t>(f.ref.column)], f.op,
              f.literal);
          eq_cols.emplace_back(sel, f.ref.column);
        } else if (f.op != "is not null") {
          range_cols.push_back(f.ref.column);
        }
      }
      std::sort(eq_cols.begin(), eq_cols.end());

      std::vector<int> keys;
      for (const auto& [sel, col] : eq_cols) {
        if (static_cast<int>(keys.size()) < options_.max_key_columns) {
          keys.push_back(col);
        }
      }
      if (static_cast<int>(keys.size()) < options_.max_key_columns &&
          !range_cols.empty()) {
        keys.push_back(range_cols[0]);
      }
      if (!keys.empty()) {
        AddIndexCandidate(table, {keys[0]}, {});
        if (keys.size() > 1) AddIndexCandidate(table, keys, {});
        AddIndexCandidate(table, keys, referenced);  // covering
      }
      // Join-support indexes.
      for (const BoundJoin& join : block.joins) {
        int col = -1;
        if (join.left.table_idx == t) col = join.left.column;
        if (join.right.table_idx == t) col = join.right.column;
        if (col < 0) continue;
        AddIndexCandidate(table, {col}, {});
        AddIndexCandidate(table, {col}, referenced);  // enables covering INL
      }
    }

    if (options_.enable_views && n <= 2 && !block.filters.empty()) {
      XS_RETURN_IF_ERROR(AddViewCandidate(query_idx, ast_block, block));
    }
    return Status::OK();
  }

  Status AddViewCandidate(int query_idx, const SelectBlock& ast_block,
                          const BoundBlock& block) {
    // Identify base (ID side) and child (PID side) tables.
    int base_idx = 0, child_idx = -1;
    if (block.tables.size() == 2) {
      if (block.joins.size() != 1) return Status::OK();
      const BoundJoin& join = block.joins[0];
      const TableDesc* left =
          base_.FindTable(block.tables[static_cast<size_t>(
              join.left.table_idx)]);
      if (left == nullptr) return Status::OK();
      bool left_is_child = join.left.column == left->schema.pid_column;
      base_idx = left_is_child ? join.right.table_idx : join.left.table_idx;
      child_idx = left_is_child ? join.left.table_idx : join.right.table_idx;
      if (base_idx == child_idx) return Status::OK();
    }
    (void)ast_block;

    ViewDef def;
    def.base_table = block.tables[static_cast<size_t>(base_idx)];
    const TableDesc* base_desc = base_.FindTable(def.base_table);
    const TableDesc* child_desc = nullptr;
    if (child_idx >= 0) {
      def.join_child = block.tables[static_cast<size_t>(child_idx)];
      child_desc = base_.FindTable(*def.join_child);
    }
    for (const BoundFilter& f : block.filters) {
      const std::string& table =
          block.tables[static_cast<size_t>(f.ref.table_idx)];
      const TableDesc* desc = base_.FindTable(table);
      SimplePred pred;
      pred.table = table;
      pred.column = desc->schema.columns[static_cast<size_t>(f.ref.column)].name;
      pred.op = f.op;
      pred.literal = f.literal;
      def.preds.push_back(std::move(pred));
    }
    // Project every referenced column of every table.
    double row_bytes = 0;
    for (size_t t = 0; t < block.tables.size(); ++t) {
      const TableDesc* desc = base_.FindTable(block.tables[t]);
      for (int c : block.ReferencedColumns(static_cast<int>(t))) {
        def.projected.push_back(
            {block.tables[t], desc->schema.columns[static_cast<size_t>(c)].name});
        row_bytes += desc->stats.columns[static_cast<size_t>(c)].avg_bytes;
      }
    }
    if (def.projected.empty()) return Status::OK();
    def.name = StrFormat("mv_q%d_%s_%zu", query_idx, def.base_table.c_str(),
                         pool_.size());

    // Row estimate: base rows filtered, times child fanout for joins.
    double rows = static_cast<double>(base_desc->row_count());
    for (const BoundFilter& f : block.filters) {
      const TableDesc* desc =
          base_.FindTable(block.tables[static_cast<size_t>(f.ref.table_idx)]);
      rows *= FilterSelectivity(
          desc->stats.columns[static_cast<size_t>(f.ref.column)], f.op,
          f.literal);
    }
    if (child_desc != nullptr && base_desc->row_count() > 0) {
      rows *= static_cast<double>(child_desc->row_count()) /
              static_cast<double>(base_desc->row_count());
    }

    Candidate cand;
    cand.is_view = true;
    cand.view.def = def;
    cand.view.hypothetical = true;
    cand.view.output_schema =
        def.OutputSchema(base_desc->schema,
                         child_desc ? &child_desc->schema : nullptr);
    cand.view.stats.row_count = static_cast<int64_t>(rows + 0.5);
    // Column stats: source column stats scaled to the view population.
    for (const ViewColumn& vc : def.projected) {
      const TableDesc* src = base_.FindTable(vc.table);
      int ord = src->schema.FindColumn(vc.column);
      const ColumnStats& source =
          src->stats.columns[static_cast<size_t>(ord)];
      double factor =
          src->row_count() > 0
              ? rows / static_cast<double>(src->row_count())
              : 0.0;
      cand.view.stats.columns.push_back(
          ScaleColumnStats(source, std::min(factor, 1.0)));
    }
    cand.pages = cand.view.NumPages();
    cand.tables_touched.insert(def.base_table);
    if (def.join_child.has_value()) cand.tables_touched.insert(*def.join_child);
    std::string key = "V|" + def.ToString();
    if (pool_.count(key) == 0) pool_[key] = std::move(cand);
    return Status::OK();
  }

  const TunerOptions& options_;
  const CatalogDesc& base_;
  int* optimizer_calls_;
  std::map<std::string, Candidate> pool_;
};

}  // namespace

namespace {

// Per-inserted-row maintenance charge for one index (a B+-tree descent
// and a leaf write) and one materialized view (delta evaluation + write).
constexpr double kIndexMaintenanceCost = 2.0 * kRandPageCost * 0.001;
constexpr double kViewMaintenanceCost = 3.0 * kRandPageCost * 0.001;

}  // namespace

Result<TunerResult> PhysicalDesignAdvisor::Tune(
    const std::vector<WeightedQuery>& workload, const CatalogDesc& base,
    int64_t reserved_pages, const std::vector<UpdateRate>& update_rates) {
  FaultInjector* faults = options_.exec.faults != nullptr
                              ? options_.exec.faults
                              : FaultInjector::Global();
  XS_RETURN_IF_ERROR(faults->Check(kFaultSiteAdvisorTune));
  // "advisor.*" counters are live atomic increments — commutative integer
  // sums, so the totals match the serial run at any thread count for
  // non-truncated, fault-free runs (truncation stops workers at a timing-
  // dependent point; that carve-out is documented in DESIGN.md §9).
  MetricsRegistry* metrics = options_.exec.metrics;
  Counter* tune_calls = nullptr;
  Counter* optimizer_calls_counter = nullptr;
  Counter* rollbacks_counter = nullptr;
  Counter* skipped_counter = nullptr;
  Counter* truncated_counter = nullptr;
  if (metrics != nullptr) {
    tune_calls = metrics->counter(kMetricAdvisorTuneCalls);
    optimizer_calls_counter = metrics->counter(kMetricAdvisorOptimizerCalls);
    rollbacks_counter = metrics->counter(kMetricAdvisorWhatifRollbacks);
    skipped_counter = metrics->counter(kMetricAdvisorCandidatesSkipped);
    truncated_counter = metrics->counter(kMetricAdvisorTruncatedRuns);
    tune_calls->Increment();
  }
  SpanScope span(options_.exec.trace, "advisor.tune");
  span.Attr("queries", static_cast<int64_t>(workload.size()));
  TunerResult result;
  ResourceGovernor* governor = options_.exec.governor;
  CatalogDesc current = base;  // working catalog: base + chosen so far

  // Bind every query once and note the tables it touches.
  std::vector<BoundQuery> bound;
  std::vector<std::set<std::string>> query_tables;
  for (const WeightedQuery& wq : workload) {
    auto b = BindQuery(wq.query, base);
    if (!b.ok()) return b.status();
    std::set<std::string> tables;
    for (const BoundBlock& block : b->blocks) {
      for (const std::string& t : block.tables) tables.insert(t);
    }
    bound.push_back(std::move(*b));
    query_tables.push_back(std::move(tables));
  }

  // Candidate generation.
  CandidateGenerator generator(options_, base, &result.optimizer_calls);
  for (size_t i = 0; i < workload.size(); ++i) {
    XS_RETURN_IF_ERROR(generator.AddQuery(static_cast<int>(i),
                                          workload[i].query, bound[i]));
  }
  std::vector<Candidate> pool = generator.TakePool();

  // Baseline costs. One work unit ~ one optimizer call. Baseline (and
  // final) costing is `mandatory`: it charges the governor but proceeds
  // even when the budget has run out, so an exhausted tuner still returns
  // a consistent, fully costed result — just with nothing selected.
  PlannerOptions planner_options;
  planner_options.metrics = metrics;
  auto plan_query = [&](size_t i, std::set<std::string>* objects,
                        bool mandatory) -> Result<double> {
    if (governor != nullptr) {
      Status charged = governor->ChargeWork(1.0);
      if (!charged.ok()) {
        result.truncated = true;
        if (!mandatory) return charged;
      }
    }
    ++result.optimizer_calls;
    auto planned = PlanQuery(bound[i], current, planner_options);
    if (!planned.ok()) return planned.status();
    if (objects != nullptr) *objects = std::move(planned->objects_used);
    return planned->est_cost;
  };

  result.query_costs.resize(workload.size());
  result.query_objects.resize(workload.size());
  double total = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    XS_ASSIGN_OR_RETURN(result.query_costs[i],
                        plan_query(i, &result.query_objects[i],
                                   /*mandatory=*/true));
    total += workload[i].weight * result.query_costs[i];
  }

  int64_t budget =
      options_.storage_bound_pages - base.DataPages() - reserved_pages;
  std::vector<bool> chosen(pool.size(), false);

  auto rate_of = [&update_rates](const std::string& table) {
    for (const UpdateRate& rate : update_rates) {
      if (rate.table == table) return rate.rows_per_unit;
    }
    return 0.0;
  };
  auto maintenance_of = [&](const Candidate& cand) {
    double cost = 0;
    if (cand.is_view) {
      cost += rate_of(cand.view.def.base_table) * kViewMaintenanceCost;
      if (cand.view.def.join_child.has_value()) {
        cost += rate_of(*cand.view.def.join_child) * kViewMaintenanceCost;
      }
    } else {
      cost += rate_of(cand.index.def.table) * kIndexMaintenanceCost;
    }
    return cost;
  };

  // Evaluates candidate `c` against the current configuration: returns
  // its total-cost benefit and the per-query costs it would yield.
  auto evaluate = [&](size_t c, double* benefit,
                      std::vector<double>* costs) -> Status {
    if (pool[c].is_view) {
      current.views.push_back(pool[c].view);
    } else {
      current.indexes.push_back(pool[c].index);
    }
    double new_total = 0;
    *costs = result.query_costs;
    // The candidate is now hypothetically present; any failure below must
    // still fall through to the pop so the working catalog rolls back to
    // exactly the chosen configuration.
    Status status = faults->Check(kFaultSiteAdvisorWhatIf);
    for (size_t i = 0; status.ok() && i < workload.size(); ++i) {
      bool affected = false;
      for (const std::string& t : pool[c].tables_touched) {
        if (query_tables[i].count(t) > 0) affected = true;
      }
      if (affected) {
        auto cost = plan_query(i, nullptr, /*mandatory=*/false);
        if (!cost.ok()) {
          status = cost.status();
          break;
        }
        (*costs)[i] = *cost;
      }
      new_total += workload[i].weight * (*costs)[i];
    }
    if (pool[c].is_view) {
      current.views.pop_back();
    } else {
      current.indexes.pop_back();
    }
    if (!status.ok()) {
      ++result.whatif_rollbacks;
      return status;
    }
    *benefit = total - new_total - maintenance_of(pool[c]);
    return Status::OK();
  };

  // Lazy (CELF-style) greedy selection: benefits only shrink as the
  // configuration grows, so a candidate whose cached score still tops the
  // heap after re-evaluation is the exact greedy choice — most candidates
  // are never re-costed in later rounds.
  std::vector<double> cached_score(pool.size(),
                                   std::numeric_limits<double>::infinity());
  bool out_of_budget = false;
  while (!out_of_budget) {
    if (governor != nullptr &&
        (governor->exhausted() || !governor->CheckDeadline().ok())) {
      result.truncated = true;
      break;
    }
    std::vector<size_t> order;
    for (size_t c = 0; c < pool.size(); ++c) {
      if (!chosen[c] && pool[c].pages <= budget) order.push_back(c);
    }
    if (order.empty()) break;
    auto by_score = [&](size_t a, size_t b) {
      return cached_score[a] < cached_score[b];
    };
    std::make_heap(order.begin(), order.end(), by_score);

    int best = -1;
    double best_benefit = 0;
    std::vector<double> best_costs;
    std::vector<bool> fresh(pool.size(), false);
    while (!order.empty()) {
      std::pop_heap(order.begin(), order.end(), by_score);
      size_t c = order.back();
      order.pop_back();
      if (fresh[c]) {
        // Freshly evaluated and still on top: exact greedy winner.
        if (cached_score[c] <= 0) break;
        double benefit;
        std::vector<double> costs;
        Status eval = evaluate(c, &benefit, &costs);
        if (!eval.ok()) {
          if (eval.code() == StatusCode::kResourceExhausted) {
            out_of_budget = true;
            break;
          }
          ++result.candidates_skipped;
          continue;
        }
        best = static_cast<int>(c);
        best_benefit = benefit;
        best_costs = std::move(costs);
        break;
      }
      double benefit;
      std::vector<double> costs;
      Status eval = evaluate(c, &benefit, &costs);
      if (!eval.ok()) {
        if (eval.code() == StatusCode::kResourceExhausted) {
          out_of_budget = true;
          break;
        }
        ++result.candidates_skipped;
        cached_score[c] = 0;
        continue;
      }
      cached_score[c] =
          benefit / static_cast<double>(std::max<int64_t>(pool[c].pages, 1));
      fresh[c] = true;
      if (benefit <= 0) {
        cached_score[c] = 0;
        continue;
      }
      order.push_back(c);
      std::push_heap(order.begin(), order.end(), by_score);
    }
    if (out_of_budget) {
      result.truncated = true;
      break;
    }
    if (best < 0 || best_benefit < options_.min_benefit_fraction * total) {
      break;
    }
    chosen[static_cast<size_t>(best)] = true;
    budget -= pool[static_cast<size_t>(best)].pages;
    result.structure_pages += pool[static_cast<size_t>(best)].pages;
    if (pool[static_cast<size_t>(best)].is_view) {
      current.views.push_back(pool[static_cast<size_t>(best)].view);
      result.views.push_back(pool[static_cast<size_t>(best)].view);
    } else {
      current.indexes.push_back(pool[static_cast<size_t>(best)].index);
      result.indexes.push_back(pool[static_cast<size_t>(best)].index);
    }
    result.maintenance_cost +=
        maintenance_of(pool[static_cast<size_t>(best)]);
    result.query_costs = std::move(best_costs);
    total = 0;
    for (size_t i = 0; i < workload.size(); ++i) {
      total += workload[i].weight * result.query_costs[i];
    }
  }

  // Final per-query object sets under the chosen configuration (mandatory
  // so a truncated run still reports exact costs for what it picked).
  total = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    XS_ASSIGN_OR_RETURN(result.query_costs[i],
                        plan_query(i, &result.query_objects[i],
                                   /*mandatory=*/true));
    total += workload[i].weight * result.query_costs[i];
  }
  result.total_cost = total + result.maintenance_cost;
  // Publish the whole call's counts in one batch (not per increment), so
  // a call that fails with an error publishes nothing — matching the
  // search-side aggregation, which also only sees successful calls.
  if (metrics != nullptr) {
    optimizer_calls_counter->Add(result.optimizer_calls);
    rollbacks_counter->Add(result.whatif_rollbacks);
    skipped_counter->Add(result.candidates_skipped);
    if (result.truncated) truncated_counter->Increment();
  }
  span.Attr("optimizer_calls", result.optimizer_calls);
  span.Attr("whatif_rollbacks", result.whatif_rollbacks);
  span.Attr("truncated", result.truncated);
  return result;
}

Status ApplyConfiguration(const TunerResult& result, Database* db) {
  // All-or-nothing: a failure mid-apply (e.g. an injected index-build or
  // materialization fault) drops every structure created so far, so the
  // database is left exactly as it was and the apply can be retried.
  std::vector<std::string> created_views;
  std::vector<std::string> created_indexes;
  auto rollback = [&](Status status) {
    for (const std::string& name : created_indexes) db->DropIndex(name);
    for (const std::string& name : created_views) {
      db->DropMaterializedView(name);
    }
    return status;
  };
  for (const ViewDesc& view : result.views) {
    Status status = db->CreateMaterializedView(view.def);
    if (!status.ok()) return rollback(std::move(status));
    created_views.push_back(view.def.name);
  }
  for (const IndexDesc& index : result.indexes) {
    Status status = db->CreateIndex(index.def);
    if (!status.ok()) return rollback(std::move(status));
    created_indexes.push_back(index.def.name);
  }
  return Status::OK();
}

}  // namespace xmlshred
