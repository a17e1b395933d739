// Full-state database digest shared by the ingest differential tests.

#ifndef XMLSHRED_TESTS_DATABASE_DIGEST_H_
#define XMLSHRED_TESTS_DATABASE_DIGEST_H_

#include <cstdint>
#include <string>

#include "common/strings.h"
#include "rel/catalog.h"
#include "rel/column_reader.h"

namespace xmlshred {

inline uint64_t DigestMix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

// Hashes everything observable about storage: table names, row counts,
// every cell's tag and raw bits, logical byte tallies, sealed block
// counts and encoded sizes, and the dictionary's strings in code order.
// Two databases with equal digests are bit-identical for our purposes.
inline uint64_t DatabaseDigest(const Database& db) {
  uint64_t h = 14695981039346656037ULL;
  for (const std::string& name : db.TableNames()) {
    const Table* t = db.FindTable(name);
    h = DigestMix(h, Fnv1a64(name));
    h = DigestMix(h, static_cast<uint64_t>(t->row_count()));
    for (int c = 0; c < t->schema().num_columns(); ++c) {
      const ColumnVector& col = t->column(c);
      h = DigestMix(h, col.size());
      h = DigestMix(h, static_cast<uint64_t>(col.byte_total()));
      h = DigestMix(h, col.num_sealed_blocks());
      h = DigestMix(h, static_cast<uint64_t>(col.sealed_encoded_bytes()));
      BlockCursor cursor(col);
      for (size_t b = 0; b < cursor.num_blocks(); ++b) {
        BlockView view = cursor.Read(b);
        for (size_t i = 0; i < view.rows; ++i) {
          h = DigestMix(h, view.tags[i]);
          h = DigestMix(h, view.data[i]);
        }
      }
    }
  }
  const StringDictionary& dict = db.dictionary();
  h = DigestMix(h, dict.size());
  for (uint32_t c = 0; c < dict.size(); ++c) {
    h = DigestMix(h, Fnv1a64(dict.str(c)));
  }
  return h;
}

}  // namespace xmlshred

#endif  // XMLSHRED_TESTS_DATABASE_DIGEST_H_
