#include "rel/catalog.h"

#include <unordered_map>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "rel/column_reader.h"

namespace xmlshred {

const TableDesc* CatalogDesc::FindTable(const std::string& name) const {
  auto it = tables.find(name);
  return it == tables.end() ? nullptr : &it->second;
}

const IndexDesc* CatalogDesc::FindIndex(const std::string& name) const {
  for (const IndexDesc& idx : indexes) {
    if (idx.def.name == name) return &idx;
  }
  return nullptr;
}

const ViewDesc* CatalogDesc::FindView(const std::string& name) const {
  for (const ViewDesc& v : views) {
    if (v.def.name == name) return &v;
  }
  return nullptr;
}

std::vector<const IndexDesc*> CatalogDesc::IndexesOn(
    const std::string& table) const {
  std::vector<const IndexDesc*> out;
  for (const IndexDesc& idx : indexes) {
    if (idx.def.table == table) out.push_back(&idx);
  }
  return out;
}

int64_t CatalogDesc::DataPages() const {
  int64_t pages = 0;
  for (const auto& [name, t] : tables) pages += t.NumPages();
  return pages;
}

Result<Table*> Database::CreateTable(TableSchema schema) {
  XS_RETURN_IF_ERROR(
      FaultInjector::Global()->Check(kFaultSiteCatalogCreateTable));
  if (tables_.count(schema.name) > 0) {
    return AlreadyExists("table " + schema.name);
  }
  std::string name = schema.name;
  auto table = std::make_unique<Table>(std::move(schema), dict_);
  Table* ptr = table.get();
  tables_[name] = std::move(table);
  return ptr;
}

Table* Database::FindTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::FindTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

void Database::DropTable(const std::string& name) {
  if (view_defs_.count(name) > 0) return;
  if (tables_.erase(name) == 0) return;
  for (auto it = indexes_.begin(); it != indexes_.end();) {
    if (it->second->def().table == name) {
      it = indexes_.erase(it);
    } else {
      ++it;
    }
  }
}

Status Database::CreateIndex(const IndexDef& def) {
  XS_RETURN_IF_ERROR(FaultInjector::Global()->Check(kFaultSiteIndexBuild));
  if (indexes_.count(def.name) > 0) return AlreadyExists("index " + def.name);
  const Table* table = FindTable(def.table);
  if (table == nullptr) return NotFound("table " + def.table);
  for (int c : def.key_columns) {
    if (c < 0 || c >= table->schema().num_columns()) {
      return InvalidArgument("bad key column ordinal in " + def.name);
    }
  }
  indexes_[def.name] = std::make_unique<BTreeIndex>(def, *table);
  return Status::OK();
}

const BTreeIndex* Database::FindIndex(const std::string& name) const {
  auto it = indexes_.find(name);
  return it == indexes_.end() ? nullptr : it->second.get();
}

std::vector<const BTreeIndex*> Database::IndexesOn(
    const std::string& table) const {
  std::vector<const BTreeIndex*> out;
  for (const auto& [name, idx] : indexes_) {
    if (idx->def().table == table) out.push_back(idx.get());
  }
  return out;
}

Status Database::CreateMaterializedView(const ViewDef& def) {
  XS_RETURN_IF_ERROR(
      FaultInjector::Global()->Check(kFaultSiteViewMaterialize));
  if (tables_.count(def.name) > 0 || view_defs_.count(def.name) > 0) {
    return AlreadyExists("view " + def.name);
  }
  const Table* base = FindTable(def.base_table);
  if (base == nullptr) return NotFound("table " + def.base_table);
  const Table* child = nullptr;
  if (def.join_child.has_value()) {
    child = FindTable(*def.join_child);
    if (child == nullptr) return NotFound("table " + *def.join_child);
  }

  TableSchema out_schema =
      def.OutputSchema(base->schema(), child ? &child->schema() : nullptr);
  auto result = CreateTable(out_schema);
  if (!result.ok()) return result.status();
  Table* out = *result;
  // Everything below can fail on bad view definitions (or an injected
  // materialization fault); drop the half-created output table so a failed
  // CREATE VIEW leaves the database exactly as it was.
  auto fail = [this, &def](Status status) {
    tables_.erase(def.name);
    return status;
  };
  {
    Status mid = FaultInjector::Global()->Check(kFaultSiteViewMaterialize);
    if (!mid.ok()) return fail(std::move(mid));
  }

  // Resolve predicate and projection ordinals.
  struct BoundPred {
    bool on_base;
    int ordinal;
    std::string op;
    Value literal;
  };
  std::vector<BoundPred> preds;
  for (const SimplePred& p : def.preds) {
    BoundPred bp;
    bp.on_base = p.table == def.base_table;
    const TableSchema& schema =
        bp.on_base ? base->schema() : child->schema();
    bp.ordinal = schema.FindColumn(p.column);
    if (bp.ordinal < 0) return fail(NotFound("column " + p.column));
    bp.op = p.op;
    bp.literal = p.literal;
    preds.push_back(std::move(bp));
  }
  auto eval = [](const Value& v, const std::string& op,
                 const Value& lit) -> Result<bool> {
    if (op == "=") return v.SqlEquals(lit);
    if (op == "<") return v.SqlLess(lit);
    if (op == "<=") return v.SqlLess(lit) || v.SqlEquals(lit);
    if (op == ">") return lit.SqlLess(v);
    if (op == ">=") return lit.SqlLess(v) || v.SqlEquals(lit);
    return InvalidArgument("unknown view predicate operator: " + op);
  };

  struct BoundCol {
    bool on_base;
    int ordinal;
  };
  std::vector<BoundCol> out_cols;
  for (const ViewColumn& vc : def.projected) {
    BoundCol bc;
    bc.on_base = vc.table == def.base_table;
    const TableSchema& schema =
        bc.on_base ? base->schema() : child->schema();
    bc.ordinal = schema.FindColumn(vc.column);
    if (bc.ordinal < 0) return fail(NotFound("column " + vc.column));
    out_cols.push_back(bc);
  }

  // Cells are read through the storage read path and appended as cells:
  // the view shares the database dictionary, so no string is interned
  // again. Base rows are visited in row order, one reader per base
  // column. Child rows are visited in hash-bucket order, so each child
  // column the view needs is read once, in row order, into `child_cells`.
  const StringDictionary& dict = *dict_;
  std::vector<ColumnReader> base_cols;
  for (int c = 0; c < base->schema().num_columns(); ++c) {
    base_cols.emplace_back(base->column(c));
  }
  std::vector<std::vector<Cell>> child_cells;
  std::unordered_multimap<int64_t, int64_t> child_by_pid;
  if (child != nullptr) {
    int pid = child->schema().pid_column;
    if (pid < 0) {
      return fail(InvalidArgument("join child " + *def.join_child +
                                  " has no parent-id column"));
    }
    const size_t rows = static_cast<size_t>(child->row_count());
    child_cells.resize(static_cast<size_t>(child->schema().num_columns()));
    auto read_child = [&](int ordinal) {
      std::vector<Cell>& cells = child_cells[static_cast<size_t>(ordinal)];
      if (cells.size() == rows) return;
      ColumnReader reader(child->column(ordinal));
      cells.resize(rows);
      for (size_t rid = 0; rid < rows; ++rid) cells[rid] = reader.At(rid);
    };
    for (const BoundPred& p : preds) {
      if (!p.on_base) read_child(p.ordinal);
    }
    for (const BoundCol& bc : out_cols) {
      if (!bc.on_base) read_child(bc.ordinal);
    }
    // Hash child row ids by PID.
    ColumnReader pid_col(child->column(pid));
    for (size_t rid = 0; rid < rows; ++rid) {
      Cell cell = pid_col.At(rid);
      if (cell.tag != static_cast<uint8_t>(CellTag::kNull)) {
        child_by_pid.emplace(static_cast<int64_t>(cell.bits),
                             static_cast<int64_t>(rid));
      }
    }
  }

  int base_id = base->schema().id_column;
  if (child != nullptr && base_id < 0) {
    return fail(InvalidArgument("join base " + def.base_table +
                                " has no id column"));
  }
  std::vector<Cell> out_row(out_cols.size());
  for (int64_t base_rid = 0; base_rid < base->row_count(); ++base_rid) {
    const size_t brid = static_cast<size_t>(base_rid);
    bool base_pass = true;
    for (const BoundPred& p : preds) {
      if (!p.on_base) continue;
      Cell cell = base_cols[static_cast<size_t>(p.ordinal)].At(brid);
      Result<bool> keep = eval(CellToValue(cell, dict), p.op, p.literal);
      if (!keep.ok()) return fail(keep.status());
      if (!*keep) {
        base_pass = false;
        break;
      }
    }
    if (!base_pass) continue;

    // `child_rid` is -1 without a join, where every column is on the base.
    auto emit = [&](int64_t child_rid) {
      for (size_t k = 0; k < out_cols.size(); ++k) {
        const size_t ordinal = static_cast<size_t>(out_cols[k].ordinal);
        out_row[k] = out_cols[k].on_base
                         ? base_cols[ordinal].At(brid)
                         : child_cells[ordinal][static_cast<size_t>(child_rid)];
      }
      out->AppendCellRow(out_row);
    };

    if (child == nullptr) {
      emit(-1);
      continue;
    }
    Cell id = base_cols[static_cast<size_t>(base_id)].At(brid);
    if (id.tag == static_cast<uint8_t>(CellTag::kNull)) continue;
    auto [lo, hi] = child_by_pid.equal_range(static_cast<int64_t>(id.bits));
    for (auto it = lo; it != hi; ++it) {
      bool child_pass = true;
      for (const BoundPred& p : preds) {
        if (p.on_base) continue;
        Cell cell = child_cells[static_cast<size_t>(p.ordinal)]
                               [static_cast<size_t>(it->second)];
        Result<bool> keep = eval(CellToValue(cell, dict), p.op, p.literal);
        if (!keep.ok()) return fail(keep.status());
        if (!*keep) {
          child_pass = false;
          break;
        }
      }
      if (child_pass) emit(it->second);
    }
  }

  view_defs_[def.name] = def;
  return Status::OK();
}

const ViewDef* Database::FindViewDef(const std::string& name) const {
  auto it = view_defs_.find(name);
  return it == view_defs_.end() ? nullptr : &it->second;
}

void Database::DropIndex(const std::string& name) { indexes_.erase(name); }

void Database::DropMaterializedView(const std::string& name) {
  if (view_defs_.erase(name) > 0) tables_.erase(name);
}

void Database::DropAllPhysicalStructures() {
  indexes_.clear();
  for (const auto& [name, def] : view_defs_) tables_.erase(name);
  view_defs_.clear();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, t] : tables_) {
    if (view_defs_.count(name) == 0) out.push_back(name);
  }
  return out;
}

CatalogDesc Database::BuildCatalogDesc() const {
  CatalogDesc desc;
  for (const auto& [name, table] : tables_) {
    if (view_defs_.count(name) > 0) continue;  // views listed separately
    TableDesc td;
    td.schema = table->schema();
    td.stats = table->ComputeStats();
    td.stats.encoded_bytes = table->stored_bytes();
    desc.tables[name] = std::move(td);
  }
  for (const auto& [name, idx] : indexes_) {
    IndexDesc id;
    id.def = idx->def();
    id.entry_count = idx->entry_count();
    id.entry_bytes = idx->entry_bytes();
    desc.indexes.push_back(std::move(id));
  }
  for (const auto& [name, def] : view_defs_) {
    const Table* t = FindTable(name);
    XS_CHECK(t != nullptr);
    ViewDesc vd;
    vd.def = def;
    vd.output_schema = t->schema();
    vd.stats = t->ComputeStats();
    vd.stats.encoded_bytes = t->stored_bytes();
    desc.views.push_back(std::move(vd));
  }
  return desc;
}

int64_t Database::DataPages() const {
  int64_t pages = 0;
  for (const auto& [name, table] : tables_) {
    if (view_defs_.count(name) == 0) pages += table->NumPages();
  }
  return pages;
}

int64_t Database::TotalTableBytes() const {
  int64_t bytes = 0;
  for (const auto& [name, table] : tables_) bytes += table->total_bytes();
  return bytes;
}

int64_t Database::TotalStoredBytes() const {
  int64_t bytes = 0;
  for (const auto& [name, table] : tables_) bytes += table->stored_bytes();
  return bytes;
}

std::array<int64_t, kNumBlockEncodings> Database::CountBlockEncodings()
    const {
  std::array<int64_t, kNumBlockEncodings> counts{};
  for (const auto& [name, table] : tables_) {
    for (int c = 0; c < table->schema().num_columns(); ++c) {
      const ColumnVector& col = table->column(c);
      for (size_t b = 0; b < col.num_sealed_blocks(); ++b) {
        ++counts[static_cast<size_t>(col.sealed_block(b).encoding)];
      }
    }
  }
  return counts;
}

uint64_t Database::PublishEpoch() {
  auto snap = std::make_shared<EpochSnapshot>();
  for (const auto& [name, table] : tables_) {
    EpochTableVersion v;
    v.visible_rows = table->row_count();
    v.visible_bytes = table->stored_bytes();
    snap->tables[name] = v;
  }
  std::lock_guard<std::mutex> lock(epoch_mu_);
  snap->epoch = ++epoch_;
  latest_snapshot_ = std::move(snap);
  return epoch_;
}

std::shared_ptr<const EpochSnapshot> Database::LatestSnapshot() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return latest_snapshot_;
}

uint64_t Database::current_epoch() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return epoch_;
}

}  // namespace xmlshred
