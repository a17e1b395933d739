// Streaming bulk ingest: a one-pass SAX-style shredder.
//
// ShredStream produces a Database state bit-identical to parsing the
// document with ParseXml and shredding it with ShredDocument — same
// tables, same cell tags/bits, same dictionary codes, same sealed
// blocks — but without ever materializing the DOM. The stream parser
// (xml/stream_parser.h) yields start/end/text events, and the mapping
// layer's one schema walker (schema_walker.h) enters the document element
// exactly as it does on a DOM. It reads the root's children through a
// cursor that builds each one with BuildSubtree, the builder ParseXml
// runs over the whole document, when the walker asks for it, and drops
// it before building the next. Peak memory is therefore bounded by the
// largest record plus one columnar batch per relation, independent of
// document size, for every schema. Completed rows go into per-relation
// columnar batch buffers that flush into storage as sealed
// kStorageBlockRows-row blocks (Table::AppendBlock). A leaf root has no
// element children to stream; its one element is built and walked whole.
//
// A failed ingest is all-or-nothing: every table it created is dropped
// and the shared dictionary is truncated back to its entry state,
// mirroring ApplyConfiguration's rollback contract. See DESIGN.md §17.

#ifndef XMLSHRED_MAPPING_STREAM_SHREDDER_H_
#define XMLSHRED_MAPPING_STREAM_SHREDDER_H_

#include <string_view>

#include "common/limits.h"
#include "common/metrics.h"
#include "common/status.h"
#include "mapping/mapping.h"
#include "mapping/shredder.h"
#include "rel/catalog.h"
#include "xml/schema_tree.h"

namespace xmlshred {

struct StreamShredOptions {
  // Ingest is serial. The constant's one reader is the `# env` line of
  // pipebench (PrintEnvironment in pipebench/pipebench.cc); it goes when
  // that line stops printing it.
  static constexpr int threads = 1;
  // Memory cap (charged one columnar batch at a time, in flush order) and
  // recursion-depth guard for the embedded stream parser. Null means
  // unlimited, with the parser's stack-safety depth floor still applied.
  ResourceGovernor* governor = nullptr;
  // When set, publishes shred.documents / shred.rows / shred.elements /
  // shred.batches_emitted, the shred.peak_batch_bytes gauge, and the
  // storage.* peak gauges.
  MetricsRegistry* metrics = nullptr;
};

// Creates the mapping's tables in `db` and shreds the XML text into them
// in one streaming pass. On any error — parse, schema mismatch, governor
// trip, injected fault — the created tables are dropped and the shared
// dictionary restored, leaving `db` exactly as it was.
Result<ShredStats> ShredStream(std::string_view xml, const SchemaTree& tree,
                               const Mapping& mapping, Database* db,
                               const StreamShredOptions& options = {});

}  // namespace xmlshred

#endif  // XMLSHRED_MAPPING_STREAM_SHREDDER_H_
