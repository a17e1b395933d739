// Streaming, parallel bulk ingest: a one-pass SAX-style shredder.
//
// ShredStream produces a Database state bit-identical to parsing the
// document with ParseXml and shredding it with ShredDocument — same
// tables, same cell tags/bits, same dictionary codes, same sealed
// blocks — but without ever materializing the DOM. The stream parser
// (xml/stream_parser.h) yields start/end/text events; the shredder
// buffers ONE top-level subtree at a time with BuildSubtree, the builder
// ParseXml runs over the whole document (peak memory is bounded by the
// largest record plus one columnar batch per relation, independent of
// document size), routes it to its schema node by tag name, walks it with
// the mapping layer's one schema walker (schema_walker.h), and appends
// completed rows into per-relation columnar batch buffers that flush into
// storage as sealed kStorageBlockRows-row blocks (Table::AppendBlock).
//
// Parallelism partitions the document at top-level subtree boundaries: a
// structural pre-scan records each depth-1 subtree's byte span and
// start-tag count, contiguous byte-balanced chunks are shredded by
// thread-pool workers into private columnar runs (private string
// dictionaries, row-append logs, pre-assigned document-order ID bases),
// and the coordinator merges everything back in document order —
// dictionaries interned partition by partition (preserving global
// first-occurrence code order), row logs replayed through the same batch
// writer the serial path uses (preserving flush order, and with it the
// shred.stream fault-injection schedule and governor memory charges).
// The result is bit-identical at every --ingest-threads value.
//
// A failed ingest is all-or-nothing: every table it created is dropped
// and the shared dictionary is truncated back to its entry state,
// mirroring ApplyConfiguration's rollback contract.
//
// Root-level routing must be unambiguous for single-subtree buffering: if
// two distinct schema slots at the root matching level share a tag name
// (e.g. a repetition split AT the root), or the root is itself a leaf,
// the shredder buffers the whole document and walks it from the root —
// the path ShredDocument (shredder.h) runs over the caller's DOM (still
// bit-identical, no longer bounded-memory). See DESIGN.md §17.

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
  // Worker threads for partitioned ingest; <= 1 shreds serially. The
  // result is bit-identical at every value (partitioning falls back to
  // serial when the document has fewer than two top-level subtrees per
  // worker's share, or when root routing is ambiguous).
  int threads = 1;
  // Memory cap (charged one columnar batch at a time, in flush order) and
  // recursion-depth guard for the embedded stream parser. Null means
  // unlimited, with the parser's stack-safety depth floor still applied.
  ResourceGovernor* governor = nullptr;
  // When set, publishes shred.documents / shred.rows / shred.elements /
  // shred.batches_emitted, the shred.peak_batch_bytes gauge, and the
  // storage.* peak gauges — all thread-count invariant.
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
