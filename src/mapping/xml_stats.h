// XML-side statistics: collected once from the data at the finest
// granularity (per element, per value, per repetition cardinality, per
// optional-presence combination), then *derived* for any candidate mapping
// without touching the data again — the architecture of Section 4.1.
// Collection is one sink of the mapping layer's schema walker
// (schema_walker.h); shredding is the other, so both passes see the same
// matches.
//
// Keys are origin node ids, which every transformed tree preserves, so a
// relation of any candidate mapping can resolve its anchors and columns
// back to collected statistics:
//
//  * plain relation rows      = element count of the anchor;
//  * variant relation rows    = presence-combination counts (exact);
//  * overflow relation rows   = cardinality histogram mass above the
//                               split count;
//  * occurrence column nulls  = parents with fewer occurrences;
//  * value distributions      = per-element stats, scaled to the derived
//                               row count (uniform-mix approximation for
//                               variant partitions — the direction the
//                               paper notes cannot be derived exactly).

#ifndef XMLSHRED_MAPPING_XML_STATS_H_
#define XMLSHRED_MAPPING_XML_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "mapping/mapping.h"
#include "rel/catalog.h"
#include "xml/document.h"
#include "xml/schema_tree.h"

namespace xmlshred {

class XmlStatistics {
 public:
  // Walks `doc` against the (original, untransformed) `tree` with the
  // mapping layer's schema walker (schema_walker.h), so it accepts and
  // rejects exactly the documents the shredder does, with the same error
  // messages.
  static Result<XmlStatistics> Collect(const XmlDocument& doc,
                                       const SchemaTree& tree);

  // Number of instances of the element with the given origin id.
  int64_t ElementCount(int origin_id) const;

  // Per-parent cardinality histogram of a repetition node (exact k ->
  // number of parents with exactly k occurrences; parents with zero are
  // included).
  const std::map<int64_t, int64_t>* CardinalityHist(int origin_id) const;

  // Value statistics of a simple-content element.
  const ColumnStats* ValueStats(int origin_id) const;

  // Number of instances of the context element satisfying the presence
  // constraint: at least one child named in `any` (if non-empty), no
  // child named in `forbidden`, and every child named in `require_all`
  // present (names not tracked as optionals are treated as always
  // present).
  int64_t CountMatchingPresence(int context_origin_id,
                                const std::vector<std::string>& any,
                                const std::vector<std::string>& forbidden,
                                const std::vector<std::string>& require_all =
                                    {}) const;

  // Derives full table statistics for one relation of `mapping` over the
  // (possibly transformed) `tree`.
  TableStats DeriveTableStats(const SchemaTree& tree,
                              const MappedRelation& relation) const;

  // Derives a descriptor catalog (tables only, no physical structures)
  // for an entire candidate mapping. This is what the design tool costs
  // hypothetical mappings against.
  CatalogDesc DeriveCatalog(const SchemaTree& tree,
                            const Mapping& mapping) const;

  int64_t total_elements() const { return total_elements_; }

 private:
  friend class StatsSink;

  struct ContextPresence {
    // Optional child element names, in a fixed order (bit i of a combo).
    std::vector<std::string> optional_names;
    std::map<uint64_t, int64_t> combo_counts;
  };

  // Derived row count of one anchor tag in a candidate tree.
  int64_t AnchorRowCount(const SchemaNode* anchor) const;

  // Fraction of an element's instances surviving the presence constraints
  // of every enclosing union-distribution variant.
  double AncestorVariantSelectivity(const SchemaNode* node) const;

  std::map<int, int64_t> element_counts_;
  std::map<int, ColumnStats> value_stats_;
  std::map<int, std::map<int64_t, int64_t>> cardinality_hists_;
  std::map<int, ContextPresence> presence_;
  int64_t total_elements_ = 0;
};

}  // namespace xmlshred

#endif  // XMLSHRED_MAPPING_XML_STATS_H_
