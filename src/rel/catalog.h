// Catalog layers.
//
// Two representations of a database coexist:
//
//  * `Database` — real storage: heap tables with rows, built B+-tree
//    indexes, and materialized views. The executor runs against this.
//  * `CatalogDesc` — descriptors only: schemas, statistics, and sizes for
//    tables, indexes, and views, with no rows. The optimizer and the
//    physical design tool work exclusively on descriptors, which is what
//    makes "what-if" tuning (hypothetical indexes, Section 4.1) cheap.
//
// `Database::BuildCatalogDesc()` snapshots real storage into descriptors;
// the mapping layer synthesizes descriptors for candidate mappings from
// derived statistics without ever materializing them.

#ifndef XMLSHRED_REL_CATALOG_H_
#define XMLSHRED_REL_CATALOG_H_

#include <array>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "rel/index.h"
#include "rel/table.h"
#include "rel/view.h"

namespace xmlshred {

struct TableDesc {
  TableSchema schema;
  TableStats stats;

  int64_t row_count() const { return stats.row_count; }
  double avg_row_bytes() const { return stats.AvgRowBytes(); }
  // Real tables size by their encoded block footprint — the same bytes
  // the executor charges a full scan for — so planner page estimates
  // match executor page actuals exactly. Hypothetical descriptors
  // (encoded_bytes unknown) keep the logical sizing.
  int64_t NumPages() const {
    return stats.encoded_bytes > 0 ? PagesForBytes(stats.encoded_bytes)
                                   : PagesFor(row_count(), avg_row_bytes());
  }
};

struct IndexDesc {
  IndexDef def;
  int64_t entry_count = 0;
  double entry_bytes = 16.0;
  bool hypothetical = false;

  int64_t NumPages() const { return PagesFor(entry_count, entry_bytes); }
};

struct ViewDesc {
  ViewDef def;
  TableSchema output_schema;
  TableStats stats;
  bool hypothetical = false;

  int64_t row_count() const { return stats.row_count; }
  double avg_row_bytes() const { return stats.AvgRowBytes(); }
  // Same sizing rule as TableDesc: encoded footprint when materialized,
  // logical fallback for hypothetical (what-if) views.
  int64_t NumPages() const {
    return stats.encoded_bytes > 0 ? PagesForBytes(stats.encoded_bytes)
                                   : PagesFor(row_count(), avg_row_bytes());
  }
};

// Per-table visibility at one published epoch: how many leading rows of
// the (append-only) columnar table a reader pinned to that epoch may see,
// and the exact *stored* (block-encoded) bytes those rows occupied at
// publish time — so page metering for a pinned reader is independent of
// later appends (sealed blocks are immutable; only the tail grows).
struct EpochTableVersion {
  int64_t visible_rows = 0;
  int64_t visible_bytes = 0;

  int64_t NumPages() const { return PagesForBytes(visible_bytes); }
};

// Immutable snapshot of the database at one published epoch. Readers pin
// one at admission (serve layer) and the executor bounds every scan by the
// snapshot's visible row counts; tables created after the snapshot was
// published are invisible (zero rows). Shared by pointer — a snapshot is
// never mutated after PublishEpoch constructs it.
struct EpochSnapshot {
  uint64_t epoch = 0;
  std::map<std::string, EpochTableVersion> tables;

  const EpochTableVersion* Find(const std::string& name) const {
    auto it = tables.find(name);
    return it == tables.end() ? nullptr : &it->second;
  }
};

// Descriptor-only catalog used by the optimizer and the tuner.
struct CatalogDesc {
  std::map<std::string, TableDesc> tables;
  std::vector<IndexDesc> indexes;
  std::vector<ViewDesc> views;

  const TableDesc* FindTable(const std::string& name) const;
  const IndexDesc* FindIndex(const std::string& name) const;
  const ViewDesc* FindView(const std::string& name) const;
  // Indexes defined on `table`.
  std::vector<const IndexDesc*> IndexesOn(const std::string& table) const;

  // Total pages of all tables (data) and of all non-hypothetical physical
  // structures; the tuner checks `data + structures <= bound`.
  int64_t DataPages() const;
};

// Real storage. Owns tables, built indexes, and materialized views, plus
// the string dictionary every table's VARCHAR cells encode into (shared
// so dictionary codes are comparable across tables — joins and views
// compare codes, never characters).
class Database {
 public:
  Database() : dict_(std::make_shared<StringDictionary>()) {}
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const StringDictionary& dictionary() const { return *dict_; }
  StringDictionary* mutable_dictionary() { return dict_.get(); }

  // Creates an empty table; fails on duplicate name.
  Result<Table*> CreateTable(TableSchema schema);
  Table* FindTable(const std::string& name);
  const Table* FindTable(const std::string& name) const;

  // Drops a base table (and any indexes built on it); no-op on unknown
  // names and on materialized views. Used by the streaming shredder to
  // roll back created tables after a mid-ingest failure (all-or-nothing).
  void DropTable(const std::string& name);

  // Builds a real index over the named table's current rows.
  Status CreateIndex(const IndexDef& def);
  const BTreeIndex* FindIndex(const std::string& name) const;
  std::vector<const BTreeIndex*> IndexesOn(const std::string& table) const;

  // Materializes `def` from the current table contents; the result is
  // stored as a table named def.name plus registered view metadata.
  Status CreateMaterializedView(const ViewDef& def);
  const ViewDef* FindViewDef(const std::string& name) const;

  // Drop a single physical structure by name. Used to roll back a
  // partially applied configuration after a failure. Both are no-ops on
  // unknown names.
  void DropIndex(const std::string& name);
  void DropMaterializedView(const std::string& name);

  // Drops all indexes and materialized views (keeps base tables). Used
  // when switching between physical configurations during evaluation.
  void DropAllPhysicalStructures();

  std::vector<std::string> TableNames() const;

  // Snapshots real storage into a descriptor catalog with exact stats.
  CatalogDesc BuildCatalogDesc() const;

  // Total pages across base tables.
  int64_t DataPages() const;

  // Exact bytes across base tables' columnar cells (sum of
  // Table::total_bytes; excludes indexes, views, and the dictionary —
  // Database::dictionary().ByteSize() reports that separately).
  int64_t TotalTableBytes() const;

  // Stored (block-encoded) bytes across base tables (sum of
  // Table::stored_bytes) — the footprint page accounting is computed
  // from; TotalStoredBytes() / TotalTableBytes() is the compression
  // ratio.
  int64_t TotalStoredBytes() const;

  // Sealed-block count per BlockEncoding across all base tables' columns,
  // indexed by static_cast<size_t>(BlockEncoding).
  std::array<int64_t, kNumBlockEncodings> CountBlockEncodings() const;

  // Epoch-based snapshot visibility (serving layer). Tables are
  // append-only, so a snapshot is just "the first N rows of each table as
  // of publish time": PublishEpoch records every table's current
  // row_count/stored_bytes under a fresh epoch number and swaps it in as
  // the latest snapshot. Readers that pin the returned snapshot never see
  // rows appended after it — the executor clamps scans to visible_rows.
  // Note the snapshot is *logical* only; callers that append concurrently
  // with readers must still serialize physical access (the serve layer
  // holds a shared_mutex around appends vs. query execution, because a
  // columnar append can reallocate the vectors a reader is scanning).
  uint64_t PublishEpoch();
  // Latest published snapshot; null before the first PublishEpoch call.
  std::shared_ptr<const EpochSnapshot> LatestSnapshot() const;
  uint64_t current_epoch() const;

  // True when any materialized view exists. Serving-layer appends refuse
  // to run in that case — a matview built before the append would go
  // stale silently.
  bool HasMaterializedViews() const { return !view_defs_.empty(); }

 private:
  std::shared_ptr<StringDictionary> dict_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::map<std::string, std::unique_ptr<BTreeIndex>> indexes_;
  std::map<std::string, ViewDef> view_defs_;  // materialized table shares name

  mutable std::mutex epoch_mu_;
  uint64_t epoch_ = 0;
  std::shared_ptr<const EpochSnapshot> latest_snapshot_;
};

}  // namespace xmlshred

#endif  // XMLSHRED_REL_CATALOG_H_
