#include "mapping/stream_shredder.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "mapping/schema_walker.h"
#include "rel/table_types.h"
#include "xml/document.h"
#include "xml/stream_parser.h"

namespace xmlshred {

namespace {

// Counted-byte transient-memory model (DESIGN.md §17): fixed per-unit
// charges so the reported peak is exact and reproducible — a buffered
// XmlElement, one run-list entry, one pre-scan subtree span, one encoded
// cell staged in a worker run.
constexpr int64_t kTransientElementBytes = 64;
constexpr int64_t kTransientRunBytes = 24;
constexpr int64_t kTransientSpanBytes = 40;
constexpr int64_t kTransientCellBytes = 9;

// Per-relation columnar batch buffers feeding Table::AppendBlock. Rows
// accumulate column-major; a buffer flushes the moment it holds
// kStorageBlockRows rows (sealing the block immediately) and Finish
// flushes the final partials in relation-index order. The shred.stream
// fault site and the governor's memory charge fire once per flush, so
// their schedules are functions of the row-append sequence alone — the
// parallel path replays the same sequence and hits them identically.
class BatchWriter {
 public:
  BatchWriter(std::vector<Table*> tables, StringDictionary* dict,
              ResourceGovernor* governor, ShredStats* stats)
      : tables_(std::move(tables)),
        dict_(dict),
        governor_(governor),
        stats_(stats) {
    buffers_.resize(tables_.size());
  }

  Status AppendRow(int rel, const Row& row) {
    RelBuffer& b = Touch(rel);
    XS_CHECK_EQ(static_cast<int64_t>(row.size()),
                static_cast<int64_t>(b.tags.size()));
    for (size_t c = 0; c < row.size(); ++c) {
      int64_t bytes;
      Cell cell = EncodeValueCell(row[c], dict_, &bytes);
      b.tags[c].push_back(cell.tag);
      b.bits[c].push_back(cell.bits);
      b.col_bytes[c] += bytes;
    }
    return RowDone(rel, &b);
  }

  // Replay path: one pre-encoded row whose string cells already carry
  // global dictionary codes.
  Status AppendEncodedRow(int rel, const uint8_t* tags,
                          const uint64_t* bits) {
    RelBuffer& b = Touch(rel);
    for (size_t c = 0; c < b.tags.size(); ++c) {
      b.tags[c].push_back(tags[c]);
      b.bits[c].push_back(bits[c]);
      b.col_bytes[c] += CellByteSize(Cell{tags[c], bits[c]}, *dict_);
    }
    return RowDone(rel, &b);
  }

  Status Finish() {
    for (size_t r = 0; r < buffers_.size(); ++r) {
      XS_RETURN_IF_ERROR(Flush(static_cast<int>(r)));
    }
    return Status::OK();
  }

  // Buffer capacity under the counted-byte model (charged lazily, the
  // first time a relation receives a row).
  int64_t allocated_bytes() const { return allocated_bytes_; }

 private:
  struct RelBuffer {
    bool touched = false;
    size_t rows = 0;
    std::vector<std::vector<uint8_t>> tags;   // [column][row in batch]
    std::vector<std::vector<uint64_t>> bits;  // [column][row in batch]
    std::vector<int64_t> col_bytes;
  };

  RelBuffer& Touch(int rel) {
    RelBuffer& b = buffers_[static_cast<size_t>(rel)];
    if (!b.touched) {
      size_t ncols = static_cast<size_t>(
          tables_[static_cast<size_t>(rel)]->schema().num_columns());
      b.tags.resize(ncols);
      b.bits.resize(ncols);
      b.col_bytes.assign(ncols, 0);
      for (size_t c = 0; c < ncols; ++c) {
        b.tags[c].reserve(kStorageBlockRows);
        b.bits[c].reserve(kStorageBlockRows);
      }
      allocated_bytes_ += static_cast<int64_t>(ncols) *
                          static_cast<int64_t>(kStorageBlockRows) *
                          kTransientCellBytes;
      b.touched = true;
    }
    return b;
  }

  Status RowDone(int rel, RelBuffer* b) {
    ++b->rows;
    if (b->rows == kStorageBlockRows) return Flush(rel);
    return Status::OK();
  }

  Status Flush(int rel) {
    RelBuffer& b = buffers_[static_cast<size_t>(rel)];
    if (b.rows == 0) return Status::OK();
    XS_RETURN_IF_ERROR(
        FaultInjector::Global()->Check(kFaultSiteShredStream));
    int64_t logical = 0;
    for (int64_t cb : b.col_bytes) logical += cb;
    if (governor_ != nullptr) {
      XS_RETURN_IF_ERROR(governor_->ChargeMemory(logical));
    }
    std::vector<const uint8_t*> tag_ptrs(b.tags.size());
    std::vector<const uint64_t*> bit_ptrs(b.tags.size());
    for (size_t c = 0; c < b.tags.size(); ++c) {
      tag_ptrs[c] = b.tags[c].data();
      bit_ptrs[c] = b.bits[c].data();
    }
    tables_[static_cast<size_t>(rel)]->AppendBlock(tag_ptrs, bit_ptrs,
                                                   b.col_bytes, b.rows);
    ++stats_->batches_emitted;
    stats_->peak_batch_bytes = std::max(stats_->peak_batch_bytes, logical);
    for (size_t c = 0; c < b.tags.size(); ++c) {
      b.tags[c].clear();
      b.bits[c].clear();
      b.col_bytes[c] = 0;
    }
    b.rows = 0;
    return Status::OK();
  }

  std::vector<Table*> tables_;
  StringDictionary* dict_;
  ResourceGovernor* governor_;
  ShredStats* stats_;
  std::vector<RelBuffer> buffers_;
  int64_t allocated_bytes_ = 0;
};

// Where the walker's completed rows go: straight into the batch writer
// (serial path) or into a worker's private staging run (parallel path).
class RowSink {
 public:
  virtual ~RowSink() = default;
  virtual Status AppendRow(int rel, Row row) = 0;
};

class GlobalRowSink : public RowSink {
 public:
  explicit GlobalRowSink(BatchWriter* writer) : writer_(writer) {}
  Status AppendRow(int rel, Row row) override {
    return writer_->AppendRow(rel, row);
  }

 private:
  BatchWriter* writer_;
};

// Worker-private staging: rows encode against a private dictionary (codes
// remapped at merge) into per-relation row-major cell runs, plus an RLE
// log of the relation sequence so the coordinator can replay the exact
// document-order row stream.
class LocalRowSink : public RowSink {
 public:
  void Init(size_t num_relations) { runs.resize(num_relations); }

  Status AppendRow(int rel, Row row) override {
    RelRun& rr = runs[static_cast<size_t>(rel)];
    for (const Value& v : row) {
      int64_t bytes;
      Cell c = EncodeValueCell(v, &dict, &bytes);
      rr.tags.push_back(c.tag);
      rr.bits.push_back(c.bits);
    }
    cells += static_cast<int64_t>(row.size());
    if (!row_log.empty() && row_log.back().first == rel) {
      ++row_log.back().second;
    } else {
      row_log.emplace_back(rel, int64_t{1});
    }
    return Status::OK();
  }

  struct RelRun {
    std::vector<uint8_t> tags;
    std::vector<uint64_t> bits;
  };
  StringDictionary dict;
  std::vector<RelRun> runs;
  std::vector<std::pair<int, int64_t>> row_log;  // (relation, rows) RLE
  int64_t cells = 0;
};

// The shredding sink. Every matched tag consumes one document-order ID
// (so a context instance keeps the same ID under every mapping, the
// paper's "unique node ID"); an annotated tag opens a row (ID, PID = the
// enclosing row's ID) that its inlined leaves fill and that goes to the
// RowSink when the tag exits. The ID counter is seeded by the caller, and
// an optional bottom-of-stack proxy stands in for the root's own row so
// root-level inlined leaves store exactly where the whole-document walk
// would store them.
class ShredSink : public WalkSink {
 public:
  ShredSink(const Mapping& mapping, RowSink* rows, int64_t first_id)
      : mapping_(mapping), rows_(rows), next_id_(first_id) {}

  void SeedRootProxy(int root_rel_idx, size_t row_width) {
    OpenRow proxy;
    proxy.relation_idx = root_rel_idx;
    proxy.row.assign(row_width, Value::Null());
    proxy.row[0] = Value::Int(1);
    row_stack_.push_back(std::move(proxy));
    has_proxy_ = true;
  }

  Row TakeRootRow() {
    XS_CHECK(has_proxy_);
    return std::move(row_stack_.front().row);
  }
  const std::vector<std::pair<int, Value>>& root_writes() const {
    return root_writes_;
  }
  int64_t elements() const { return elements_; }
  int64_t rows() const { return rows_appended_; }

  Status EnterTag(const XmlElement& /*element*/,
                  const SchemaNode* node) override {
    ++elements_;
    int64_t element_id = next_id_++;
    if (!node->is_annotated()) return Status::OK();
    int rel_idx = mapping_.RelationIndexOfAnchor(node->id());
    if (rel_idx < 0) {
      return Internal("anchor without relation: " + node->name());
    }
    const MappedRelation& rel =
        mapping_.relations()[static_cast<size_t>(rel_idx)];
    OpenRow open;
    open.relation_idx = rel_idx;
    open.row.assign(static_cast<size_t>(kFixedColumns) + rel.columns.size(),
                    Value::Null());
    open.row[0] = Value::Int(element_id);
    if (!row_stack_.empty()) open.row[1] = row_stack_.back().row[0];
    row_stack_.push_back(std::move(open));
    return Status::OK();
  }

  Status LeafText(const SchemaNode* node, const std::string& text) override {
    int rel_idx, col_idx;
    if (!mapping_.ColumnOfNode(node->id(), &rel_idx, &col_idx)) {
      return Internal("leaf without column: " + node->name());
    }
    if (row_stack_.empty() || row_stack_.back().relation_idx != rel_idx) {
      return Internal("leaf column outside its relation row: " +
                      node->name());
    }
    Value value = ParseLeafValue(text, node->child(0)->base_type());
    if (has_proxy_ && row_stack_.size() == 1) {
      // Root-row write: logged (with Nulls — a later empty leaf must
      // overwrite an earlier value at merge exactly as it does here).
      root_writes_.emplace_back(col_idx, value);
    }
    row_stack_.back().row[static_cast<size_t>(kFixedColumns + col_idx)] =
        std::move(value);
    return Status::OK();
  }

  Status ExitTag(const SchemaNode* node) override {
    if (!node->is_annotated()) return Status::OK();
    OpenRow done = std::move(row_stack_.back());
    row_stack_.pop_back();
    XS_RETURN_IF_ERROR(
        rows_->AppendRow(done.relation_idx, std::move(done.row)));
    ++rows_appended_;
    return Status::OK();
  }

 private:
  struct OpenRow {
    int relation_idx = -1;
    Row row;  // row[0] is the ID its children take as PID
  };

  const Mapping& mapping_;
  RowSink* rows_;
  std::vector<OpenRow> row_stack_;
  std::vector<std::pair<int, Value>> root_writes_;
  int64_t next_id_;
  int64_t elements_ = 0;
  int64_t rows_appended_ = 0;
  bool has_proxy_ = false;
};

// A buffered subtree under the counted-byte model: per element, a fixed
// charge plus its tag, decoded text, and attribute names and values.
int64_t CountedBytes(const XmlElement& element) {
  int64_t bytes = kTransientElementBytes +
                  static_cast<int64_t>(element.tag().size() +
                                       element.text().size());
  for (const auto& [name, value] : element.attributes()) {
    bytes += static_cast<int64_t>(name.size() + value.size());
  }
  for (const auto& child : element.children()) bytes += CountedBytes(*child);
  return bytes;
}

// --- Root-level routing -------------------------------------------------

struct RouteTable {
  // Tag name -> its unique routing slot at the root matching level: a
  // plain kTag node, or the variant kChoice owning the name's variants.
  std::map<std::string, const SchemaNode*> slots;
  // Set when a name has two distinct slots (e.g. a repetition split at
  // the root) — single-subtree routing would be wrong, so the shredder
  // buffers the whole document instead.
  bool ambiguous = false;
};

void CollectSlots(const SchemaNode* node,
                  std::map<std::string, std::set<const SchemaNode*>>* out) {
  if (node->kind() == SchemaNodeKind::kTag) {
    (*out)[node->name()].insert(node);
    return;
  }
  if (node->kind() == SchemaNodeKind::kChoice && node->is_variant_choice()) {
    for (const auto& variant : node->children()) {
      if (variant->kind() == SchemaNodeKind::kTag) {
        (*out)[variant->name()].insert(node);
      }
    }
    return;
  }
  for (const auto& child : node->children()) CollectSlots(child.get(), out);
}

RouteTable BuildRoutes(const SchemaTree& tree) {
  RouteTable rt;
  if (IsLeafTag(tree.root())) {
    rt.ambiguous = true;  // no element children to stream over
    return rt;
  }
  std::map<std::string, std::set<const SchemaNode*>> slots;
  CollectSlots(tree.root()->child(0), &slots);
  for (const auto& entry : slots) {
    if (entry.second.size() > 1) {
      rt.ambiguous = true;
      return rt;
    }
    rt.slots[entry.first] = *entry.second.begin();
  }
  return rt;
}

// Resolves one buffered top-level subtree to the tag node to walk.
// `*resolved` stays null when the name matches no slot — the run list
// records a sentinel and MatchRuns reproduces the walker's error. A
// variant choice whose presence constraints reject the instance fails
// outright with the walker's message.
Status ResolveRoute(const RouteTable& routes, const XmlElement* instance,
                    const SchemaNode** slot, const SchemaNode** resolved) {
  *slot = nullptr;
  *resolved = nullptr;
  auto it = routes.slots.find(instance->tag());
  if (it == routes.slots.end()) return Status::OK();
  *slot = it->second;
  if ((*slot)->kind() == SchemaNodeKind::kTag) {
    *resolved = *slot;
    return Status::OK();
  }
  *resolved = MatchVariant(*slot, *instance);
  if (*resolved == nullptr) {
    return InvalidArgument("no variant accepts <" + instance->tag() + ">");
  }
  return Status::OK();
}

// --- Deferred root content-model validation -----------------------------

// One run-length-encoded group of consecutive top-level instances that
// routed to the same slot. `resolved == nullptr` marks a sentinel (a name
// no slot claims): nothing can consume it, so matching always fails at or
// before it — with the same message the schema walker would produce.
struct TopRun {
  const SchemaNode* slot = nullptr;
  const SchemaNode* resolved = nullptr;
  std::string name;
  int64_t count = 0;
};

void AppendTopRun(std::vector<TopRun>* runs, const SchemaNode* slot,
                  const SchemaNode* resolved, const std::string& name) {
  if (!runs->empty()) {
    TopRun& last = runs->back();
    if (last.slot == slot && last.resolved == resolved && last.name == name) {
      ++last.count;
      return;
    }
  }
  runs->push_back(TopRun{slot, resolved, name, 1});
}

struct RunCursor {
  const std::vector<TopRun>* runs;
  size_t idx = 0;
  int64_t used = 0;

  const TopRun* Peek() const {
    return idx < runs->size() ? &(*runs)[idx] : nullptr;
  }
  void ConsumeOne() {
    if (++used == (*runs)[idx].count) {
      ++idx;
      used = 0;
    }
  }
};

// The schema walker's content matching over the root's children, decided
// per run instead of per element: same CanStartWith tests, same error
// messages, but a million repetitions cost one run entry. Variant
// instances were presence-routed at buffering time, so here the run only
// needs to belong to the choice.
Status MatchRuns(const SchemaNode* node, RunCursor* cur,
                 const std::string& root_tag) {
  switch (node->kind()) {
    case SchemaNodeKind::kSequence:
      for (const auto& child : node->children()) {
        XS_RETURN_IF_ERROR(MatchRuns(child.get(), cur, root_tag));
      }
      return Status::OK();
    case SchemaNodeKind::kTag: {
      const TopRun* r = cur->Peek();
      if (r == nullptr || r->name != node->name()) {
        return InvalidArgument("expected <" + node->name() + "> under <" +
                               root_tag + ">");
      }
      cur->ConsumeOne();
      return Status::OK();
    }
    case SchemaNodeKind::kOption: {
      const TopRun* r = cur->Peek();
      if (r != nullptr && CanStartWith(node->child(0), r->name)) {
        return MatchRuns(node->child(0), cur, root_tag);
      }
      return Status::OK();
    }
    case SchemaNodeKind::kRepetition:
      for (;;) {
        const TopRun* r = cur->Peek();
        if (r == nullptr || !CanStartWith(node->child(0), r->name)) {
          return Status::OK();
        }
        XS_RETURN_IF_ERROR(MatchRuns(node->child(0), cur, root_tag));
      }
    case SchemaNodeKind::kChoice: {
      const TopRun* r = cur->Peek();
      if (node->is_variant_choice()) {
        if (r == nullptr) {
          return InvalidArgument("missing variant instance under <" +
                                 root_tag + ">");
        }
        if (r->slot != node || r->resolved == nullptr) {
          return InvalidArgument("no variant accepts <" + r->name + ">");
        }
        cur->ConsumeOne();
        return Status::OK();
      }
      if (r == nullptr) {
        return InvalidArgument("missing choice content under <" + root_tag +
                               ">");
      }
      for (const auto& alternative : node->children()) {
        if (CanStartWith(alternative.get(), r->name)) {
          return MatchRuns(alternative.get(), cur, root_tag);
        }
      }
      return InvalidArgument("no choice alternative matches <" + r->name +
                             ">");
    }
    case SchemaNodeKind::kSimpleType:
      return Internal("simple type in content position");
  }
  return Internal("unhandled schema node kind");
}

// --- The driver ---------------------------------------------------------

// One all-or-nothing ingest of a document into `db`.
class Ingest {
 public:
  Ingest(const SchemaTree& tree, const Mapping& mapping, Database* db,
         const StreamShredOptions& options)
      : tree_(tree), mapping_(mapping), db_(db), options_(options) {}

  // Streams the text: root-routed subtrees, partitioned across workers
  // when asked, or the whole document when root routing is ambiguous.
  Result<ShredStats> RunStream(std::string_view xml) {
    xml_ = xml;
    return Complete([this] {
      routes_ = BuildRoutes(tree_);
      root_rel_ = mapping_.RelationIndexOfAnchor(tree_.root()->id());
      fallback_ = routes_.ambiguous || root_rel_ < 0;
      bool redo_serial = false;
      Status status = options_.threads > 1 && !fallback_
                          ? RunParallel(&redo_serial)
                          : RunSerial();
      if (status.ok() && redo_serial) {
        // Partitioned run detected something only the serial order can
        // answer exactly (parse error, schema mismatch, walked-element
        // drift). Tables are still empty and the dictionary untouched, so
        // the canonical pass just runs in their place.
        stats_ = ShredStats();
        status = RunSerial();
      }
      return status;
    });
  }

  // The whole-document path over the caller's DOM.
  Result<ShredStats> RunDocument(const XmlDocument& doc) {
    return Complete([&] { return ShredWholeDocument(doc.root(), 0); });
  }

 private:
  // Creates the tables and runs `body`. On failure every created table is
  // dropped and the dictionary truncated back to its entry state.
  template <typename Body>
  Result<ShredStats> Complete(Body body) {
    dict_floor_ = db_->dictionary().size();
    Status status = CreateTables();
    if (status.ok()) status = body();
    if (!status.ok()) {
      Rollback();
      return status;
    }
    PublishMetrics();
    return stats_;
  }

  Status CreateTables() {
    for (const MappedRelation& rel : mapping_.relations()) {
      auto result = db_->CreateTable(rel.ToTableSchema());
      if (!result.ok()) return result.status();
      created_.push_back(rel.table_name);
      tables_.push_back(*result);
    }
    return Status::OK();
  }

  void Rollback() {
    for (const std::string& name : created_) db_->DropTable(name);
    db_->mutable_dictionary()->TruncateTo(dict_floor_);
  }

  size_t RootRowWidth() const {
    const MappedRelation& rel =
        mapping_.relations()[static_cast<size_t>(root_rel_)];
    return static_cast<size_t>(kFixedColumns) + rel.columns.size();
  }

  Status MatchRootRuns(const std::vector<TopRun>& runs) {
    RunCursor cur{&runs, 0, 0};
    XS_RETURN_IF_ERROR(
        MatchRuns(tree_.root()->child(0), &cur, tree_.root()->name()));
    if (cur.Peek() != nullptr) {
      return InvalidArgument("unconsumed children under <" +
                             tree_.root()->name() + ">");
    }
    return Status::OK();
  }

  // One walk from the root with no routing, over a tree of
  // `buffered_bytes` (counted-byte model) this ingest built itself, or
  // over the caller's DOM (0).
  Status ShredWholeDocument(const XmlElement* root, int64_t buffered_bytes) {
    stats_.partitions = 1;
    BatchWriter writer(tables_, db_->mutable_dictionary(), options_.governor,
                       &stats_);
    GlobalRowSink rows(&writer);
    ShredSink sink(mapping_, &rows, /*first_id=*/1);
    XS_RETURN_IF_ERROR(SchemaWalker(&sink).WalkRoot(root, tree_));
    stats_.elements = sink.elements();
    stats_.rows = sink.rows();
    XS_RETURN_IF_ERROR(writer.Finish());
    stats_.transient_peak_bytes = writer.allocated_bytes() + buffered_bytes;
    return Status::OK();
  }

  Status RunSerial() {
    StreamParseOptions popts;
    popts.governor = options_.governor;
    XmlStreamParser parser(xml_, popts);
    XS_ASSIGN_OR_RETURN(XmlEvent ev, parser.Next());
    XS_CHECK(ev.kind == XmlEventKind::kStartElement);
    XS_RETURN_IF_ERROR(CheckRootTag(ev.name, tree_));

    if (fallback_) {
      // Whole-document buffering: correct for any schema, but peak memory
      // grows with the document — only taken for ambiguous root routing /
      // leaf roots.
      XS_ASSIGN_OR_RETURN(std::unique_ptr<XmlElement> root,
                          BuildSubtree(ev, &parser));
      XS_ASSIGN_OR_RETURN(XmlEvent tail, parser.Next());
      XS_CHECK(tail.kind == XmlEventKind::kEndOfInput);
      return ShredWholeDocument(root.get(), CountedBytes(*root));
    }

    stats_.partitions = 1;
    BatchWriter writer(tables_, db_->mutable_dictionary(), options_.governor,
                       &stats_);
    GlobalRowSink rows(&writer);
    ShredSink sink(mapping_, &rows, /*first_id=*/2);
    sink.SeedRootProxy(root_rel_, RootRowWidth());
    SchemaWalker walker(&sink);
    std::vector<TopRun> runs;
    int64_t max_subtree = 0;
    for (;;) {
      XS_ASSIGN_OR_RETURN(XmlEvent child, parser.Next());
      if (child.kind == XmlEventKind::kText) continue;  // root-level text:
                                                        // ignored, as DOM
      if (child.kind == XmlEventKind::kEndElement) break;
      XS_ASSIGN_OR_RETURN(std::unique_ptr<XmlElement> elem,
                          BuildSubtree(child, &parser));
      max_subtree = std::max(max_subtree, CountedBytes(*elem));
      const SchemaNode* slot = nullptr;
      const SchemaNode* resolved = nullptr;
      XS_RETURN_IF_ERROR(ResolveRoute(routes_, elem.get(), &slot, &resolved));
      AppendTopRun(&runs, slot, resolved, elem->tag());
      if (resolved == nullptr) {
        // Unroutable name: nothing in the content model can ever consume
        // it, so the document is invalid — surface the matcher's error.
        Status ms = MatchRootRuns(runs);
        return ms.ok() ? InvalidArgument("unconsumed children under <" +
                                         tree_.root()->name() + ">")
                       : ms;
      }
      XS_RETURN_IF_ERROR(walker.WalkTag(elem.get(), resolved));
    }
    XS_ASSIGN_OR_RETURN(XmlEvent tail, parser.Next());
    XS_CHECK(tail.kind == XmlEventKind::kEndOfInput);
    XS_RETURN_IF_ERROR(MatchRootRuns(runs));
    XS_RETURN_IF_ERROR(rows.AppendRow(root_rel_, sink.TakeRootRow()));
    stats_.rows = sink.rows() + 1;
    stats_.elements = sink.elements() + 1;
    XS_RETURN_IF_ERROR(writer.Finish());
    stats_.transient_peak_bytes =
        writer.allocated_bytes() + max_subtree +
        kTransientRunBytes * static_cast<int64_t>(runs.size());
    return Status::OK();
  }

  Status RunParallel(bool* redo_serial);

  // Thread-count-invariant registry metrics only; the thread-dependent
  // transient peak stays in ShredStats. Storage peaks mirror the gauges
  // evaluate.cc maintains for the DOM pipeline.
  void PublishMetrics() {
    MetricsRegistry* m = options_.metrics;
    if (m == nullptr) return;
    m->counter(kMetricShredDocuments)->Increment();
    m->counter(kMetricShredRows)->Add(stats_.rows);
    m->counter(kMetricShredElements)->Add(stats_.elements);
    m->counter(kMetricShredBatchesEmitted)->Add(stats_.batches_emitted);
    m->gauge(kMetricShredPeakBatchBytes)
        ->SetMax(static_cast<double>(stats_.peak_batch_bytes));
    m->gauge(kMetricStorageTableBytesPeak)
        ->SetMax(static_cast<double>(db_->TotalTableBytes()));
    m->gauge(kMetricStorageDictBytesPeak)
        ->SetMax(static_cast<double>(db_->dictionary().ByteSize()));
    m->gauge(kMetricStorageDictEntriesPeak)
        ->SetMax(static_cast<double>(db_->dictionary().size()));
    m->gauge(kMetricStorageEncodedBytes)
        ->SetMax(static_cast<double>(db_->TotalStoredBytes()));
  }

  std::string_view xml_;
  const SchemaTree& tree_;
  const Mapping& mapping_;
  Database* db_;
  StreamShredOptions options_;
  std::vector<std::string> created_;
  std::vector<Table*> tables_;
  RouteTable routes_;
  int root_rel_ = -1;
  bool fallback_ = false;
  size_t dict_floor_ = 0;
  ShredStats stats_;
};

Status Ingest::RunParallel(bool* redo_serial) {
  // Structural pre-scan: byte span + start-tag count of every depth-1
  // subtree. Any irregularity (parse error, wrong root) redoes serially —
  // the serial pass reports it with its exact error precedence.
  struct Span {
    size_t begin = 0;
    size_t end = 0;
    int64_t starts = 0;
  };
  std::vector<Span> spans;
  {
    StreamParseOptions popts;
    popts.governor = options_.governor;
    XmlStreamParser pre(xml_, popts);
    auto root_ev = pre.Next();
    if (!root_ev.ok()) {
      *redo_serial = true;
      return Status::OK();
    }
    XmlEvent ev = std::move(root_ev).TakeValue();
    if (ev.kind != XmlEventKind::kStartElement ||
        ev.name != tree_.root()->name()) {
      *redo_serial = true;
      return Status::OK();
    }
    for (;;) {
      auto next = pre.Next();
      if (!next.ok()) {
        *redo_serial = true;
        return Status::OK();
      }
      XmlEvent e = std::move(next).TakeValue();
      if (e.kind == XmlEventKind::kText) continue;
      if (e.kind == XmlEventKind::kEndElement) break;  // root closed
      if (e.kind != XmlEventKind::kStartElement) {
        *redo_serial = true;
        return Status::OK();
      }
      Span s{e.begin, e.end, 1};
      int depth = 1;
      while (depth > 0) {
        auto inner = pre.Next();
        if (!inner.ok()) {
          *redo_serial = true;
          return Status::OK();
        }
        XmlEvent ie = std::move(inner).TakeValue();
        if (ie.kind == XmlEventKind::kStartElement) {
          ++s.starts;
          ++depth;
        } else if (ie.kind == XmlEventKind::kEndElement) {
          if (--depth == 0) s.end = ie.end;
        } else if (ie.kind == XmlEventKind::kEndOfInput) {
          *redo_serial = true;
          return Status::OK();
        }
      }
      spans.push_back(s);
    }
    auto tail = pre.Next();
    if (!tail.ok() ||
        std::move(tail).TakeValue().kind != XmlEventKind::kEndOfInput) {
      *redo_serial = true;
      return Status::OK();
    }
  }

  int workers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(options_.threads), spans.size()));
  if (workers <= 1) return RunSerial();
  stats_.partitions = workers;

  // Contiguous byte-balanced chunks, plus each chunk's document-order ID
  // base (2 + start tags before it; the root holds ID 1).
  int64_t total_bytes = 0;
  for (const Span& s : spans) {
    total_bytes += static_cast<int64_t>(s.end - s.begin);
  }
  std::vector<size_t> bounds(static_cast<size_t>(workers) + 1, 0);
  bounds[static_cast<size_t>(workers)] = spans.size();
  {
    int64_t cum = 0;
    size_t i = 0;
    for (int w = 1; w < workers; ++w) {
      int64_t target = total_bytes * w / workers;
      while (i < spans.size() && cum < target) {
        cum += static_cast<int64_t>(spans[i].end - spans[i].begin);
        ++i;
      }
      bounds[static_cast<size_t>(w)] = i;
    }
  }
  std::vector<int64_t> prefix(spans.size() + 1, 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    prefix[i + 1] = prefix[i] + spans[i].starts;
  }

  struct Worker {
    LocalRowSink rows;
    std::unique_ptr<ShredSink> shred;
    std::vector<TopRun> runs;
    int64_t max_subtree = 0;
    bool anomaly = false;
  };
  std::vector<Worker> ws(static_cast<size_t>(workers));
  size_t nrel = mapping_.relations().size();
  std::atomic<bool> any_anomaly{false};
  ParallelFor(workers, workers, [&](int w) {
    Worker& wk = ws[static_cast<size_t>(w)];
    wk.rows.Init(nrel);
    size_t lo = bounds[static_cast<size_t>(w)];
    size_t hi = bounds[static_cast<size_t>(w) + 1];
    wk.shred = std::make_unique<ShredSink>(mapping_, &wk.rows,
                                           /*first_id=*/2 + prefix[lo]);
    wk.shred->SeedRootProxy(root_rel_, RootRowWidth());
    SchemaWalker walker(wk.shred.get());
    for (size_t si = lo; si < hi && !wk.anomaly; ++si) {
      const Span& s = spans[si];
      StreamParseOptions po;
      po.governor = options_.governor;
      po.fragment = true;
      XmlStreamParser sp(xml_.substr(s.begin, s.end - s.begin), po);
      auto evr = sp.Next();
      if (!evr.ok()) {
        wk.anomaly = true;
        break;
      }
      XmlEvent ev = std::move(evr).TakeValue();
      if (ev.kind != XmlEventKind::kStartElement) {
        wk.anomaly = true;
        break;
      }
      Result<std::unique_ptr<XmlElement>> built = BuildSubtree(ev, &sp);
      if (!built.ok()) {
        wk.anomaly = true;
        break;
      }
      std::unique_ptr<XmlElement> elem = std::move(built).TakeValue();
      wk.max_subtree = std::max(wk.max_subtree, CountedBytes(*elem));
      const SchemaNode* slot = nullptr;
      const SchemaNode* resolved = nullptr;
      Status rs = ResolveRoute(routes_, elem.get(), &slot, &resolved);
      if (!rs.ok() || resolved == nullptr) {
        wk.anomaly = true;
        break;
      }
      AppendTopRun(&wk.runs, slot, resolved, elem->tag());
      if (!walker.WalkTag(elem.get(), resolved).ok()) {
        wk.anomaly = true;
        break;
      }
    }
    // ID determinism check: the walk must consume exactly the pre-scan's
    // start-tag count (it won't when a leaf tag carries child elements,
    // which the walk ignores without assigning IDs). Any drift shifts
    // every later chunk's ID base, so the whole ingest redoes serially.
    if (!wk.anomaly && wk.shred->elements() != prefix[hi] - prefix[lo]) {
      wk.anomaly = true;
    }
    if (wk.anomaly) any_anomaly.store(true, std::memory_order_release);
  });
  if (any_anomaly.load(std::memory_order_acquire)) {
    *redo_serial = true;
    return Status::OK();
  }

  // Content-model validation over the concatenated run list (boundary
  // runs re-merged) — identical runs, and so identical verdict and error
  // message, to the serial pass.
  std::vector<TopRun> runs;
  for (const Worker& wk : ws) {
    for (const TopRun& r : wk.runs) {
      if (!runs.empty() && runs.back().slot == r.slot &&
          runs.back().resolved == r.resolved && runs.back().name == r.name) {
        runs.back().count += r.count;
      } else {
        runs.push_back(r);
      }
    }
  }
  XS_RETURN_IF_ERROR(MatchRootRuns(runs));

  // Dictionary merge in partition order: a string's first document-order
  // occurrence lies in the earliest partition containing it, and local
  // codes follow that partition's document order, so global codes come
  // out exactly as serial interleaved interning would assign them.
  StringDictionary* dict = db_->mutable_dictionary();
  std::vector<std::vector<uint32_t>> remap(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    const StringDictionary& local = ws[static_cast<size_t>(w)].rows.dict;
    remap[static_cast<size_t>(w)].resize(local.size());
    for (size_t c = 0; c < local.size(); ++c) {
      remap[static_cast<size_t>(w)][c] =
          dict->Intern(local.str(static_cast<uint32_t>(c)));
    }
  }

  // Replay every worker's row log through the batch writer in document
  // order — the exact row / flush / fault-check / memory-charge sequence
  // of the serial pass.
  BatchWriter writer(tables_, dict, options_.governor, &stats_);
  for (int w = 0; w < workers; ++w) {
    LocalRowSink& sk = ws[static_cast<size_t>(w)].rows;
    const std::vector<uint32_t>& map = remap[static_cast<size_t>(w)];
    std::vector<size_t> cursor(nrel, 0);
    for (const auto& entry : sk.row_log) {
      int rel = entry.first;
      size_t ncols = static_cast<size_t>(
          tables_[static_cast<size_t>(rel)]->schema().num_columns());
      LocalRowSink::RelRun& rr = sk.runs[static_cast<size_t>(rel)];
      for (int64_t k = 0; k < entry.second; ++k) {
        size_t off = cursor[static_cast<size_t>(rel)];
        for (size_t c = 0; c < ncols; ++c) {
          if (rr.tags[off + c] == static_cast<uint8_t>(CellTag::kStr)) {
            rr.bits[off + c] = map[static_cast<uint32_t>(rr.bits[off + c])];
          }
        }
        XS_RETURN_IF_ERROR(writer.AppendEncodedRow(
            rel, rr.tags.data() + off, rr.bits.data() + off));
        cursor[static_cast<size_t>(rel)] = off + ncols;
      }
    }
  }

  // Root row: apply per-partition write logs in order (the last write in
  // document order wins, exactly as the serial proxy ends up), append it
  // last like the whole-document walk, then flush the partial batches.
  Row root_row(RootRowWidth(), Value::Null());
  root_row[0] = Value::Int(1);
  stats_.rows = 1;
  stats_.elements = 1;
  for (const Worker& wk : ws) {
    for (const auto& write : wk.shred->root_writes()) {
      root_row[static_cast<size_t>(kFixedColumns + write.first)] =
          write.second;
    }
    stats_.rows += wk.shred->rows();
    stats_.elements += wk.shred->elements();
  }
  XS_RETURN_IF_ERROR(writer.AppendRow(root_rel_, root_row));
  XS_RETURN_IF_ERROR(writer.Finish());

  int64_t worker_bytes = 0;
  for (const Worker& wk : ws) {
    worker_bytes += wk.rows.cells * kTransientCellBytes +
                    wk.rows.dict.ByteSize() +
                    kTransientRunBytes * static_cast<int64_t>(wk.runs.size()) +
                    wk.max_subtree;
  }
  stats_.transient_peak_bytes =
      kTransientSpanBytes * static_cast<int64_t>(spans.size()) +
      writer.allocated_bytes() + worker_bytes;
  return Status::OK();
}

}  // namespace

Result<ShredStats> ShredStream(std::string_view xml, const SchemaTree& tree,
                               const Mapping& mapping, Database* db,
                               const StreamShredOptions& options) {
  return Ingest(tree, mapping, db, options).RunStream(xml);
}

Result<ShredStats> ShredDocument(const XmlDocument& doc,
                                 const SchemaTree& tree,
                                 const Mapping& mapping, Database* db) {
  return Ingest(tree, mapping, db, StreamShredOptions{}).RunDocument(doc);
}

}  // namespace xmlshred
