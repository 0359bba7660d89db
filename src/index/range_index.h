// Ursa's journal index (§3.3): a range-native, two-level in-memory index
// mapping chunk-offset ranges to journal offsets.
//
// Composite keys {offset, length} -> j_offset, all in 512-byte sectors, are
// packed into 8 bytes (offset:20 | length:14 | j_offset:30 bits). The paper's
// LESS relation (x LESS y iff x.offset+x.length <= y.offset) gives a total
// order over the non-intersecting keys, enabling O(log n + k) range queries
// and insertions.
//
// Two-level storage:
//   level 0 — ordered tree (the paper uses a red-black tree; we use a
//             cache-friendly B+-tree with pooled nodes, see btree_map.h),
//             fast insertion; acts as a write cache and always holds the
//             newest mappings (plus tombstones recording explicit erases
//             that must shadow the array).
//   level 1 — sorted array of packed 8-byte entries; compact and fast to
//             binary-search. A (conceptually background) merge folds level 0
//             into level 1; here the merge runs when the tree exceeds a
//             threshold or when the owner calls Compact().
//
// Range insertion erases the intersecting parts of existing keys (splitting
// partially-overlapped entries and re-basing their j_offsets) before adding
// the new composite key, exactly the invalidation step of §3.3.
#ifndef URSA_INDEX_RANGE_INDEX_H_
#define URSA_INDEX_RANGE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/index/btree_map.h"

namespace ursa::index {

// Field widths of the packed 8-byte entry.
inline constexpr int kOffsetBits = 20;   // up to 2^20 sectors (512 MiB chunk space)
inline constexpr int kLengthBits = 14;   // up to 16 MiB per mapping (journaled writes are <=64 KB)
inline constexpr int kJOffsetBits = 30;  // up to 512 GiB of journal space
static_assert(kOffsetBits + kLengthBits + kJOffsetBits == 64);

inline constexpr uint32_t kMaxOffset = (1u << kOffsetBits) - 1;
inline constexpr uint32_t kMaxLength = (1u << kLengthBits) - 1;
inline constexpr uint64_t kMaxJOffset = (1ull << kJOffsetBits) - 1;

// One resolved segment of a range query. `mapped` is false for sub-ranges the
// index has no mapping for (the caller reads those from the backup HDD).
struct Segment {
  uint32_t offset = 0;
  uint32_t length = 0;
  uint64_t j_offset = 0;
  bool mapped = false;

  bool operator==(const Segment& other) const {
    return offset == other.offset && length == other.length && j_offset == other.j_offset &&
           mapped == other.mapped;
  }
};

// Small inline vector of query results. The first kInline segments live on
// the stack; longer results spill to a heap block that clear() keeps, so a
// SegmentVec reused across queries stops allocating once warmed. Most overlay
// reads resolve to 1–3 segments, well inside the inline capacity.
class SegmentVec {
 public:
  static constexpr size_t kInline = 8;

  SegmentVec() = default;
  SegmentVec(const SegmentVec&) = delete;
  SegmentVec& operator=(const SegmentVec&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Segment& operator[](size_t i) const { return data_[i]; }
  Segment& operator[](size_t i) { return data_[i]; }
  Segment& back() { return data_[size_ - 1]; }
  const Segment& back() const { return data_[size_ - 1]; }
  const Segment* begin() const { return data_; }
  const Segment* end() const { return data_ + size_; }
  const Segment* data() const { return data_; }

  void clear() { size_ = 0; }  // keeps any spilled capacity
  void push_back(const Segment& s) {
    if (size_ == capacity_) {
      Grow();
    }
    data_[size_++] = s;
  }

 private:
  void Grow();

  Segment* data_ = inline_;
  size_t size_ = 0;
  size_t capacity_ = kInline;
  std::unique_ptr<Segment[]> heap_;
  Segment inline_[kInline];
};

class RangeIndex {
 public:
  explicit RangeIndex(size_t merge_threshold = 8192) : merge_threshold_(merge_threshold) {}

  // Maps [offset, offset+length) to j_offset, invalidating (and splitting)
  // any intersecting older mappings. length must be in (0, kMaxLength].
  void Insert(uint32_t offset, uint32_t length, uint64_t j_offset);

  // Removes any mappings intersecting [offset, offset+length) — used when a
  // large write bypasses the journal and obsoletes prior appends (§3.2).
  void EraseRange(uint32_t offset, uint32_t length);

  // Erases only the parts of [offset, offset+length) that still map into the
  // journal range starting at j_offset (i.e. entry.j_offset corresponds to
  // this exact mapping). Used by journal replay: after copying an entry to
  // the backup HDD, drop it unless a newer write re-mapped the range.
  void EraseIfMapsTo(uint32_t offset, uint32_t length, uint64_t j_offset);

  // Resolves [offset, offset+length) into ordered segments covering the whole
  // query range: mapped segments carry journal offsets, unmapped ones are the
  // gaps between them.
  std::vector<Segment> Query(uint32_t offset, uint32_t length) const;

  // Returns only the mapped segments (convenience for replay/recovery).
  std::vector<Segment> QueryMapped(uint32_t offset, uint32_t length) const;

  // Allocation-free variants: resolve into a caller-provided SegmentVec
  // (cleared first). With a reused SegmentVec these perform zero heap
  // allocations per query; the array level is searched with a branch-free,
  // prefetching lower bound. Results are segment-for-segment identical to
  // Query()/QueryMapped() — a property test holds the two paths together.
  void QueryTo(uint32_t offset, uint32_t length, SegmentVec* out) const;
  void QueryMappedTo(uint32_t offset, uint32_t length, SegmentVec* out) const;

  // Mapped segments a whole-index QueryMappedTo returns, recounted (through
  // `scratch`) only when the index changed since the last count.
  size_t MappedSegments(SegmentVec* scratch) const;

  // Folds the tree level into the array level. Normally triggered
  // automatically; exposed for benchmarks that want paper-like level sizes.
  void Compact();

  // Live mapped entries across both levels.
  size_t size() const;
  size_t tree_size() const { return tree_.size(); }
  size_t array_size() const { return array_.size(); }

  // Bytes of index storage (array entries are 8 bytes, tree nodes cost more —
  // the asymmetry the paper's two-level design exploits).
  size_t MemoryBytes() const;

  bool empty() const { return size() == 0; }
  void Clear();

 private:
  struct TreeVal {
    uint32_t length = 0;
    uint64_t j_offset = 0;
    bool tombstone = false;  // an explicit erase shadowing the array
  };

  // 8-byte packed entry for the sorted array (never holds tombstones).
  struct Packed {
    uint64_t bits = 0;

    static Packed Make(uint32_t offset, uint32_t length, uint64_t j_offset) {
      Packed p;
      p.bits = (static_cast<uint64_t>(offset) << (kLengthBits + kJOffsetBits)) |
               (static_cast<uint64_t>(length) << kJOffsetBits) | j_offset;
      return p;
    }
    uint32_t offset() const {
      return static_cast<uint32_t>(bits >> (kLengthBits + kJOffsetBits));
    }
    uint32_t length() const {
      return static_cast<uint32_t>((bits >> kJOffsetBits) & kMaxLength);
    }
    uint64_t j_offset() const { return bits & kMaxJOffset; }
    uint32_t end() const { return offset() + length(); }
  };

  // Removes/splits tree entries intersecting [offset, end); when `tombstone`,
  // also records that the range must shadow the array.
  void CarveTree(uint32_t offset, uint32_t end, bool tombstone);

  // Collects array segments intersecting [offset, end) in offset order.
  void QueryArray(uint32_t offset, uint32_t end, std::vector<Segment>* out) const;

  // Allocation-free query plumbing (independent of the Query() code path).
  // Branch-free lower bound: index of the first array entry with
  // offset() >= v. Narrowed by the fence table when one is built.
  size_t ArrayLowerBound(uint32_t v) const;

  // fence_[b] is the index of the first array entry whose offset has high
  // bits >= b (i.e. offset >= b << fence_shift_), letting ArrayLowerBound
  // search a ~64-entry window instead of the whole array. It is built inside
  // Compact()'s merge loop — entries are emitted in offset order, so each
  // bucket's bound is crossed exactly once and no separate rebuild pass over
  // the finished array is needed.

  // Streams the fence window for offset v into cache; issued before the tree
  // walk so the array misses overlap the tree's pointer chase.
  void PrefetchArrayWindow(uint32_t v) const;
  void QueryInto(uint32_t lo, uint32_t hi, bool mapped_only, SegmentVec* out) const;
  void QueryArrayInto(uint32_t lo, uint32_t hi, bool mapped_only, uint32_t* pos,
                      SegmentVec* out) const;

  void MaybeCompact();

  size_t merge_threshold_;
  // MappedSegments' memo; every mutator clears count_valid_.
  mutable size_t mapped_count_ = 0;
  mutable bool count_valid_ = false;
  BtreeMap<TreeVal> tree_;            // level 0 (cache-friendly B+-tree, §3.3's write cache)
  std::vector<Packed> array_;         // level 1, sorted by offset, non-overlapping
  std::vector<Packed> scratch_;       // reused merge buffer for Compact()
  std::vector<uint32_t> fence_;       // bucketed lower-bound hints into array_
  int fence_shift_ = kOffsetBits;     // offset bits dropped to form a bucket
};

}  // namespace ursa::index

#endif  // URSA_INDEX_RANGE_INDEX_H_
