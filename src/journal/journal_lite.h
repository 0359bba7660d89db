// Journal lite (§4.2.1): an in-memory cache of recent write extents, kept by
// every replica to support incremental repair.
//
// When a replica recovers from transient unavailability it reports its last
// version; peers query their journal lite for the chunk ranges modified since
// that version and transfer only those. If the needed history has been
// garbage-collected (bounded capacity), the whole chunk is transferred
// instead.
#ifndef URSA_JOURNAL_JOURNAL_LITE_H_
#define URSA_JOURNAL_JOURNAL_LITE_H_

#include <cstdint>
#include <vector>

#include "src/common/interval.h"
#include "src/storage/chunk_store.h"

namespace ursa::journal {

class JournalLite {
 public:
  explicit JournalLite(size_t max_entries = 65536) : max_entries_(max_entries) {}

  // Records that `version` wrote [offset, offset+length) of `chunk`.
  // Versions must be recorded in non-decreasing order per chunk.
  void Record(storage::ChunkId chunk, uint64_t version, uint64_t offset, uint64_t length);

  // Collects the ranges of `chunk` written by versions > since_version,
  // merged and sorted. Returns false when the history no longer reaches back
  // to since_version (entries were GC'd) — caller must full-copy the chunk.
  bool ModifiedSince(storage::ChunkId chunk, uint64_t since_version,
                     std::vector<Interval>* out) const;

  size_t size() const { return entries_.size(); }
  void Clear() {
    entries_.clear();
    oldest_ = 0;
  }

 private:
  struct Entry {
    storage::ChunkId chunk;
    uint64_t version;
    uint64_t offset;
    uint64_t length;
  };

  size_t max_entries_;
  // A ring once full: a new entry overwrites the oldest, at oldest_, so
  // recording allocates nothing in steady state.
  std::vector<Entry> entries_;
  size_t oldest_ = 0;
};

}  // namespace ursa::journal

#endif  // URSA_JOURNAL_JOURNAL_LITE_H_
