#include "src/journal/journal_lite.h"

#include <algorithm>

namespace ursa::journal {

void JournalLite::Record(storage::ChunkId chunk, uint64_t version, uint64_t offset,
                         uint64_t length) {
  if (max_entries_ == 0) {
    return;
  }
  if (entries_.size() < max_entries_) {
    entries_.push_back(Entry{chunk, version, offset, length});
    return;
  }
  entries_[oldest_] = Entry{chunk, version, offset, length};  // GC oldest history
  oldest_ = (oldest_ + 1) % max_entries_;
}

bool JournalLite::ModifiedSince(storage::ChunkId chunk, uint64_t since_version,
                                std::vector<Interval>* out) const {
  out->clear();
  // The history reaches back far enough iff the oldest retained entry for
  // this chunk is at or below since_version + 1, OR no entry for the chunk
  // was ever GC'd. Without per-chunk GC bookkeeping we use a conservative
  // rule: if the journal ever dropped entries (it is at capacity) and the
  // oldest retained entry for the chunk is newer than since_version + 1, we
  // cannot prove completeness and request a full copy.
  bool maybe_gced = entries_.size() >= max_entries_;
  uint64_t oldest_for_chunk = UINT64_MAX;
  for (const Entry& e : entries_) {
    if (e.chunk != chunk) {
      continue;
    }
    oldest_for_chunk = std::min(oldest_for_chunk, e.version);
    if (e.version > since_version) {
      out->push_back(Interval{e.offset, e.length});
    }
  }
  if (maybe_gced && (oldest_for_chunk == UINT64_MAX || oldest_for_chunk > since_version + 1)) {
    out->clear();
    return false;
  }

  // Merge overlapping/adjacent ranges.
  std::sort(out->begin(), out->end(),
            [](const Interval& a, const Interval& b) { return a.offset < b.offset; });
  std::vector<Interval> merged;
  for (const Interval& iv : *out) {
    if (!merged.empty() && iv.offset <= merged.back().end()) {
      uint64_t end = std::max(merged.back().end(), iv.end());
      merged.back().length = end - merged.back().offset;
    } else {
      merged.push_back(iv);
    }
  }
  *out = std::move(merged);
  return true;
}

}  // namespace ursa::journal
