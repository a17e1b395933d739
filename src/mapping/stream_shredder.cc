#include "mapping/stream_shredder.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "mapping/schema_walker.h"
#include "rel/table_types.h"
#include "xml/document.h"
#include "xml/stream_parser.h"

namespace xmlshred {

namespace {

// Counted-byte transient-memory model (DESIGN.md §17): fixed per-unit
// charges so the reported peak is exact and reproducible — a buffered
// XmlElement, one encoded cell of a batch buffer.
constexpr int64_t kTransientElementBytes = 64;
constexpr int64_t kTransientCellBytes = 9;

// Per-relation columnar batch buffers feeding Table::AppendBlock. Rows
// accumulate column-major; a buffer flushes the moment it holds
// kStorageBlockRows rows (sealing the block immediately) and Finish
// flushes the final partials in relation-index order. The shred.stream
// fault site and the governor's memory charge fire once per flush, so
// their schedules are functions of the row-append sequence alone.
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
    if (++b.rows == kStorageBlockRows) return Flush(rel);
    return Status::OK();
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

// The shredding sink. Every matched tag consumes one document-order ID
// (so a context instance keeps the same ID under every mapping, the
// paper's "unique node ID"); an annotated tag opens a row (ID, PID = the
// enclosing row's ID) that its inlined leaves fill and that goes to the
// batch writer when the tag exits. The root takes ID 1, and its row is
// appended last.
class ShredSink : public WalkSink {
 public:
  ShredSink(const Mapping& mapping, BatchWriter* writer)
      : mapping_(mapping), writer_(writer) {}

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
    row_stack_.back().row[static_cast<size_t>(kFixedColumns + col_idx)] =
        ParseLeafValue(text, node->child(0)->base_type());
    return Status::OK();
  }

  Status ExitTag(const SchemaNode* node) override {
    if (!node->is_annotated()) return Status::OK();
    OpenRow done = std::move(row_stack_.back());
    row_stack_.pop_back();
    XS_RETURN_IF_ERROR(writer_->AppendRow(done.relation_idx, done.row));
    ++rows_appended_;
    return Status::OK();
  }

 private:
  struct OpenRow {
    int relation_idx = -1;
    Row row;  // row[0] is the ID its children take as PID
  };

  const Mapping& mapping_;
  BatchWriter* writer_;
  std::vector<OpenRow> row_stack_;
  int64_t next_id_ = 1;
  int64_t elements_ = 0;
  int64_t rows_appended_ = 0;
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

// Fails on content after the document element, whose end the parser just
// returned.
Status CheckTrailer(XmlStreamParser* parser) {
  XS_ASSIGN_OR_RETURN(XmlEvent tail, parser->Next());
  XS_CHECK(tail.kind == XmlEventKind::kEndOfInput);
  return Status::OK();
}

// The streamed document element's children: each is built with
// BuildSubtree when the walker first peeks at it and dropped when the
// walker steps past it, so one child subtree is held at a time. Text
// directly under the root is skipped (a non-leaf element's text is never
// read). When the root closes, the trailer check runs before the walker
// sees the end of the children, as ParseXml orders it.
class StreamedChildren : public ChildCursor {
 public:
  explicit StreamedChildren(XmlStreamParser* parser) : parser_(parser) {}

  Result<const XmlElement*> Peek() override {
    if (child_ != nullptr || closed_) return child_.get();
    for (;;) {
      XS_ASSIGN_OR_RETURN(XmlEvent event, parser_->Next());
      if (event.kind == XmlEventKind::kText) continue;
      if (event.kind == XmlEventKind::kEndElement) {
        closed_ = true;
        XS_RETURN_IF_ERROR(CheckTrailer(parser_));
        return nullptr;
      }
      XS_ASSIGN_OR_RETURN(child_, BuildSubtree(event, parser_));
      peak_bytes_ = std::max(peak_bytes_, CountedBytes(*child_));
      return child_.get();
    }
  }
  void Advance() override { child_.reset(); }

  // The largest child held, under the counted-byte model.
  int64_t peak_bytes() const { return peak_bytes_; }

 private:
  XmlStreamParser* parser_;
  std::unique_ptr<XmlElement> child_;
  bool closed_ = false;
  int64_t peak_bytes_ = 0;
};

// Walks the document in `xml` in one pass and returns the counted bytes
// of the largest subtree it held. A leaf root has no element children to
// stream, so its one element is built and walked whole.
Result<int64_t> WalkStream(std::string_view xml, const SchemaTree& tree,
                           ResourceGovernor* governor, SchemaWalker* walker) {
  StreamParseOptions popts;
  popts.governor = governor;
  XmlStreamParser parser(xml, popts);
  XS_ASSIGN_OR_RETURN(XmlEvent start, parser.Next());
  if (IsLeafTag(tree.root())) {
    XS_ASSIGN_OR_RETURN(std::unique_ptr<XmlElement> root,
                        BuildSubtree(start, &parser));
    XS_RETURN_IF_ERROR(CheckTrailer(&parser));
    XS_RETURN_IF_ERROR(walker->WalkRoot(root.get(), tree));
    return CountedBytes(*root);
  }
  XmlElement root{std::string(start.name)};
  StreamedChildren children(&parser);
  XS_RETURN_IF_ERROR(walker->WalkRoot(root, &children, tree));
  return children.peak_bytes();
}

// One all-or-nothing ingest of a document into `db`.
class Ingest {
 public:
  Ingest(const SchemaTree& tree, const Mapping& mapping, Database* db,
         const StreamShredOptions& options)
      : tree_(tree), mapping_(mapping), db_(db), options_(options) {}

  Result<ShredStats> RunStream(std::string_view xml) {
    return Complete([&](SchemaWalker* walker) {
      return WalkStream(xml, tree_, options_.governor, walker);
    });
  }

  // Walks the caller's DOM, which is not counted as transient memory.
  Result<ShredStats> RunDocument(const XmlDocument& doc) {
    return Complete([&](SchemaWalker* walker) -> Result<int64_t> {
      XS_RETURN_IF_ERROR(walker->WalkRoot(doc.root(), tree_));
      return int64_t{0};
    });
  }

 private:
  // Creates the tables and shreds into them with `walk`, which returns
  // the counted bytes it buffered. On failure every created table is
  // dropped and the dictionary truncated back to its entry state.
  template <typename Walk>
  Result<ShredStats> Complete(Walk walk) {
    dict_floor_ = db_->dictionary().size();
    Status status = CreateTables();
    if (status.ok()) status = Shred(walk);
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

  template <typename Walk>
  Status Shred(Walk walk) {
    BatchWriter writer(tables_, db_->mutable_dictionary(), options_.governor,
                       &stats_);
    ShredSink sink(mapping_, &writer);
    SchemaWalker walker(&sink);
    XS_ASSIGN_OR_RETURN(int64_t buffered_bytes, walk(&walker));
    stats_.elements = sink.elements();
    stats_.rows = sink.rows();
    XS_RETURN_IF_ERROR(writer.Finish());
    stats_.transient_peak_bytes = writer.allocated_bytes() + buffered_bytes;
    return Status::OK();
  }

  void Rollback() {
    for (const std::string& name : created_) db_->DropTable(name);
    db_->mutable_dictionary()->TruncateTo(dict_floor_);
  }

  // Storage peaks mirror the gauges evaluate.cc maintains for the DOM
  // pipeline.
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

  const SchemaTree& tree_;
  const Mapping& mapping_;
  Database* db_;
  StreamShredOptions options_;
  std::vector<std::string> created_;
  std::vector<Table*> tables_;
  size_t dict_floor_ = 0;
  ShredStats stats_;
};

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
