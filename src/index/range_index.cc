#include "src/index/range_index.h"

#include <algorithm>

#include "src/common/logging.h"

namespace ursa::index {
namespace {

// Pushes a segment, fusing it into the previous one when both are unmapped
// and adjacent (same coalescing rule Query() applies in its final pass).
void EmitSegment(SegmentVec* out, uint32_t off, uint32_t len, uint64_t j, bool mapped) {
  if (!mapped && !out->empty()) {
    Segment& b = out->back();
    if (!b.mapped && b.offset + b.length == off) {
      b.length += len;
      return;
    }
  }
  out->push_back(Segment{off, len, j, mapped});
}

}  // namespace

void SegmentVec::Grow() {
  size_t new_capacity = capacity_ * 2;
  auto bigger = std::make_unique<Segment[]>(new_capacity);
  std::copy(data_, data_ + size_, bigger.get());
  heap_ = std::move(bigger);
  data_ = heap_.get();
  capacity_ = new_capacity;
}

void RangeIndex::Insert(uint32_t offset, uint32_t length, uint64_t j_offset) {
  URSA_CHECK_GT(length, 0u);
  URSA_CHECK_LE(length, kMaxLength);
  URSA_CHECK_LE(static_cast<uint64_t>(offset) + length, static_cast<uint64_t>(kMaxOffset) + 1);
  URSA_CHECK_LE(j_offset + length, kMaxJOffset + 1);
  count_valid_ = false;
  CarveTree(offset, offset + length, /*tombstone=*/false);
  tree_.Put(offset, TreeVal{length, j_offset, /*tombstone=*/false});
  MaybeCompact();
}

void RangeIndex::EraseRange(uint32_t offset, uint32_t length) {
  if (length == 0) {
    return;
  }
  count_valid_ = false;
  CarveTree(offset, offset + length, /*tombstone=*/false);
  if (!array_.empty()) {
    // A tombstone shadows any stale array mappings under the erased range.
    tree_.Put(offset, TreeVal{length, 0, /*tombstone=*/true});
  }
  MaybeCompact();
}

void RangeIndex::EraseIfMapsTo(uint32_t offset, uint32_t length, uint64_t j_offset) {
  SegmentVec mapped;
  QueryMappedTo(offset, length, &mapped);
  for (const Segment& seg : mapped) {
    uint64_t expected_j = j_offset + (seg.offset - offset);
    if (seg.j_offset == expected_j) {
      EraseRange(seg.offset, seg.length);
    }
  }
}

void RangeIndex::CarveTree(uint32_t lo, uint32_t hi, bool /*tombstone*/) {
  if (tree_.empty() || lo >= hi) {
    return;
  }
  auto it = tree_.lower_bound(lo);
  // The predecessor may straddle lo.
  if (it != tree_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.length > lo) {
      it = prev;
    }
  }
  // Remainders are re-inserted only after the scan: Put can split a B+-tree
  // leaf and would invalidate `it`. At most one entry straddles lo (the
  // first) and one straddles hi (the last), so two slots suffice.
  bool have_left = false;
  bool have_right = false;
  TreeVal left_val, right_val;
  uint32_t left_off = 0;
  while (it != tree_.end() && it->first < hi) {
    uint32_t e_off = it->first;
    TreeVal val = it->second;
    uint32_t e_end = e_off + val.length;
    it = tree_.erase(it);
    if (e_off < lo) {
      // Left remainder keeps its original mapping base.
      left_off = e_off;
      left_val = TreeVal{lo - e_off, val.j_offset, val.tombstone};
      have_left = true;
    }
    if (e_end > hi) {
      // Right remainder: re-base the journal offset past the carved span.
      uint64_t j = val.tombstone ? 0 : val.j_offset + (hi - e_off);
      right_val = TreeVal{e_end - hi, j, val.tombstone};
      have_right = true;
      break;  // nothing past e_end can start before hi (entries are disjoint)
    }
  }
  if (have_left) {
    tree_.Put(left_off, left_val);
  }
  if (have_right) {
    tree_.Put(hi, right_val);
  }
}

void RangeIndex::QueryArray(uint32_t lo, uint32_t hi, std::vector<Segment>* out) const {
  uint32_t pos = lo;
  if (!array_.empty()) {
    // First entry whose end is past lo.
    auto it = std::lower_bound(array_.begin(), array_.end(), lo,
                               [](const Packed& p, uint32_t v) { return p.offset() < v; });
    if (it != array_.begin()) {
      auto prev = std::prev(it);
      if (prev->end() > lo) {
        it = prev;
      }
    }
    for (; it != array_.end() && it->offset() < hi; ++it) {
      uint32_t e_lo = std::max(it->offset(), lo);
      uint32_t e_hi = std::min(it->end(), hi);
      if (e_lo >= e_hi) {
        continue;
      }
      if (pos < e_lo) {
        out->push_back(Segment{pos, e_lo - pos, 0, false});
      }
      out->push_back(Segment{e_lo, e_hi - e_lo, it->j_offset() + (e_lo - it->offset()), true});
      pos = e_hi;
    }
  }
  if (pos < hi) {
    out->push_back(Segment{pos, hi - pos, 0, false});
  }
}

std::vector<Segment> RangeIndex::Query(uint32_t offset, uint32_t length) const {
  std::vector<Segment> out;
  if (length == 0) {
    return out;
  }
  uint32_t lo = offset;
  uint32_t hi = offset + length;
  uint32_t pos = lo;

  auto it = tree_.lower_bound(lo);
  if (it != tree_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.length > lo) {
      it = prev;
    }
  }
  for (; it != tree_.end() && it->first < hi; ++it) {
    uint32_t e_lo = std::max(it->first, lo);
    uint32_t e_hi = std::min(it->first + it->second.length, hi);
    if (e_lo >= e_hi) {
      continue;
    }
    if (pos < e_lo) {
      QueryArray(pos, e_lo, &out);  // gap between tree entries -> level 1
    }
    if (it->second.tombstone) {
      out.push_back(Segment{e_lo, e_hi - e_lo, 0, false});
    } else {
      out.push_back(
          Segment{e_lo, e_hi - e_lo, it->second.j_offset + (e_lo - it->first), true});
    }
    pos = e_hi;
  }
  if (pos < hi) {
    QueryArray(pos, hi, &out);
  }

  // Coalesce adjacent unmapped segments (tombstones next to true gaps).
  std::vector<Segment> merged;
  merged.reserve(out.size());
  for (const Segment& seg : out) {
    if (!merged.empty() && !merged.back().mapped && !seg.mapped &&
        merged.back().offset + merged.back().length == seg.offset) {
      merged.back().length += seg.length;
    } else {
      merged.push_back(seg);
    }
  }
  return merged;
}

std::vector<Segment> RangeIndex::QueryMapped(uint32_t offset, uint32_t length) const {
  std::vector<Segment> all = Query(offset, length);
  std::vector<Segment> mapped;
  for (const Segment& seg : all) {
    if (seg.mapped) {
      mapped.push_back(seg);
    }
  }
  return mapped;
}

size_t RangeIndex::ArrayLowerBound(uint32_t v) const {
  // Branch-free binary search: each step halves the window with a conditional
  // move instead of a taken/not-taken branch, and prefetches both possible
  // next probe lines so the load latency overlaps the current compare.
  const Packed* base = array_.data();
  size_t n = array_.size();
  if (!fence_.empty()) {
    // The fence table (rebuilt at Compact) maps v's high offset bits to the
    // index range that can contain lower_bound(v), so the binary search only
    // touches a few contiguous cache lines instead of probing cold lines
    // across the whole array.
    size_t b = v >> fence_shift_;
    size_t first = fence_[b];
    base += first;
    n = fence_[b + 1] - first;
    if (n == 0) {
      return first;
    }
  }
  while (n > 1) {
    size_t half = n >> 1;
    __builtin_prefetch(base + (half >> 1));
    __builtin_prefetch(base + half + (half >> 1));
    base = (base[half - 1].offset() < v) ? base + half : base;
    n -= half;
  }
  size_t i = static_cast<size_t>(base - array_.data());
  return i + (n == 1 && base->offset() < v ? 1 : 0);
}

void RangeIndex::QueryArrayInto(uint32_t lo, uint32_t hi, bool mapped_only, uint32_t* pos,
                                SegmentVec* out) const {
  if (!array_.empty()) {
    size_t i = ArrayLowerBound(lo);
    // The predecessor may straddle lo.
    if (i > 0 && array_[i - 1].end() > lo) {
      --i;
    }
    for (; i < array_.size() && array_[i].offset() < hi; ++i) {
      const Packed& p = array_[i];
      uint32_t e_lo = std::max(p.offset(), lo);
      uint32_t e_hi = std::min(p.end(), hi);
      if (e_lo >= e_hi) {
        continue;
      }
      if (*pos < e_lo && !mapped_only) {
        EmitSegment(out, *pos, e_lo - *pos, 0, false);
      }
      out->push_back(Segment{e_lo, e_hi - e_lo, p.j_offset() + (e_lo - p.offset()), true});
      *pos = e_hi;
    }
  }
  if (*pos < hi) {
    if (!mapped_only) {
      EmitSegment(out, *pos, hi - *pos, 0, false);
    }
    *pos = hi;
  }
}

void RangeIndex::PrefetchArrayWindow(uint32_t v) const {
  // Issued before the level-0 tree walk: the red-black tree probe is a long
  // dependent pointer chase (hundreds of ns on a large tree), so the array
  // window the query will binary-search afterwards can stream into cache for
  // free in its shadow.
  if (fence_.empty()) {
    return;
  }
  size_t b = v >> fence_shift_;
  size_t first = fence_[b];
  size_t last = fence_[b + 1];
  const Packed* base = array_.data();
  constexpr size_t kPackedPerLine = 64 / sizeof(Packed);
  for (size_t i = first; i < last; i += kPackedPerLine) {
    __builtin_prefetch(base + i);
  }
}

void RangeIndex::QueryInto(uint32_t lo, uint32_t hi, bool mapped_only, SegmentVec* out) const {
  PrefetchArrayWindow(lo);
  uint32_t pos = lo;
  auto it = tree_.lower_bound(lo);
  if (it != tree_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.length > lo) {
      it = prev;
    }
  }
  for (; it != tree_.end() && it->first < hi; ++it) {
    uint32_t e_lo = std::max(it->first, lo);
    uint32_t e_hi = std::min(it->first + it->second.length, hi);
    if (e_lo >= e_hi) {
      continue;
    }
    if (pos < e_lo) {
      QueryArrayInto(pos, e_lo, mapped_only, &pos, out);  // gap -> level 1
    }
    if (it->second.tombstone) {
      if (!mapped_only) {
        EmitSegment(out, e_lo, e_hi - e_lo, 0, false);
      }
    } else {
      out->push_back(
          Segment{e_lo, e_hi - e_lo, it->second.j_offset + (e_lo - it->first), true});
    }
    pos = e_hi;
  }
  if (pos < hi) {
    QueryArrayInto(pos, hi, mapped_only, &pos, out);
  }
}

void RangeIndex::QueryTo(uint32_t offset, uint32_t length, SegmentVec* out) const {
  out->clear();
  if (length == 0) {
    return;
  }
  QueryInto(offset, offset + length, /*mapped_only=*/false, out);
}

void RangeIndex::QueryMappedTo(uint32_t offset, uint32_t length, SegmentVec* out) const {
  out->clear();
  if (length == 0) {
    return;
  }
  QueryInto(offset, offset + length, /*mapped_only=*/true, out);
}

size_t RangeIndex::MappedSegments(SegmentVec* scratch) const {
  if (!count_valid_) {
    QueryMappedTo(0, kMaxOffset, scratch);
    mapped_count_ = scratch->size();
    count_valid_ = true;
  }
  return mapped_count_;
}

void RangeIndex::Compact() {
  count_valid_ = false;
  scratch_.clear();
  scratch_.reserve(array_.size() + tree_.size());
  std::vector<Packed>& merged = scratch_;

  // Fence table, built inline with the merge: entries are appended in offset
  // order, so each bucket's lower bound is known the moment the first entry
  // at or past its boundary is pushed — no separate rebuild pass over the
  // finished array. Bucket count is sized from the merge's upper bound
  // (pre-coalescing); if coalescing shrinks the result the buckets just get
  // sparser, which only narrows search windows further.
  size_t upper = array_.size() + tree_.size();
  fence_.clear();
  size_t buckets = 0;
  if (upper >= 64) {
    int buckets_log2 = 1;
    while ((size_t{1} << buckets_log2) * 64 < upper && buckets_log2 < kOffsetBits) {
      ++buckets_log2;
    }
    fence_shift_ = kOffsetBits - buckets_log2;
    buckets = size_t{1} << buckets_log2;
    fence_.resize(buckets + 1);
  }
  size_t next_bucket = 0;

  // Push with composite-key coalescing: contiguous chunk ranges whose journal
  // offsets are also contiguous fuse into one key (§3.3 "composite keys").
  // Coalescing mutates the back entry in place without changing its offset,
  // so fence values assigned at its append stay valid.
  auto push = [&](uint32_t off, uint32_t len, uint64_t j) {
    if (!merged.empty()) {
      Packed& last = merged.back();
      if (last.end() == off && last.j_offset() + last.length() == j &&
          static_cast<uint64_t>(last.length()) + len <= kMaxLength) {
        last = Packed::Make(last.offset(), last.length() + len, last.j_offset());
        return;
      }
    }
    while (next_bucket < buckets &&
           (static_cast<uint32_t>(next_bucket) << fence_shift_) <= off) {
      fence_[next_bucket++] = static_cast<uint32_t>(merged.size());
    }
    merged.push_back(Packed::Make(off, len, j));
  };

  size_t ai = 0;
  bool have_cur = false;
  uint32_t cur_off = 0;
  uint32_t cur_len = 0;
  uint64_t cur_j = 0;
  auto load_next = [&]() {
    if (ai < array_.size()) {
      cur_off = array_[ai].offset();
      cur_len = array_[ai].length();
      cur_j = array_[ai].j_offset();
      ++ai;
      have_cur = true;
    }
  };
  load_next();

  // Emits array content strictly below `bound`, keeping any remainder.
  auto emit_array_until = [&](uint64_t bound) {
    while (have_cur && cur_off < bound) {
      uint32_t end = cur_off + cur_len;
      uint32_t stop = static_cast<uint32_t>(std::min<uint64_t>(end, bound));
      if (stop > cur_off) {
        push(cur_off, stop - cur_off, cur_j);
      }
      if (stop < end) {
        cur_j += stop - cur_off;
        cur_len = end - stop;
        cur_off = stop;
        return;
      }
      have_cur = false;
      load_next();
    }
  };
  // Drops array content strictly below `bound` (shadowed by a tree entry).
  auto skip_array_until = [&](uint64_t bound) {
    while (have_cur && cur_off < bound) {
      uint32_t end = cur_off + cur_len;
      if (end <= bound) {
        have_cur = false;
        load_next();
      } else {
        uint32_t stop = static_cast<uint32_t>(bound);
        cur_j += stop - cur_off;
        cur_len = end - stop;
        cur_off = stop;
      }
    }
  };

  for (const auto& [off, val] : tree_) {
    emit_array_until(off);
    skip_array_until(static_cast<uint64_t>(off) + val.length);
    if (!val.tombstone) {
      // Tree entries can exceed kMaxLength only via EraseRange tombstones;
      // mapped entries were validated at Insert.
      push(off, val.length, val.j_offset);
    }
  }
  emit_array_until(static_cast<uint64_t>(kMaxOffset) + 1);

  // Buckets past the last entry (and the end sentinel) point at the array
  // end.
  while (next_bucket <= buckets && !fence_.empty()) {
    fence_[next_bucket++] = static_cast<uint32_t>(merged.size());
  }

  // Swap, don't move: array_'s old block becomes next Compact's scratch, so
  // a steady-state index stops allocating on merges entirely.
  array_.swap(scratch_);
  tree_.clear();
}

void RangeIndex::MaybeCompact() {
  if (tree_.size() >= merge_threshold_) {
    Compact();
  }
}

size_t RangeIndex::size() const {
  size_t n = array_.size();
  for (const auto& [off, val] : tree_) {
    if (!val.tombstone) {
      ++n;
    }
  }
  return n;
}

size_t RangeIndex::MemoryBytes() const {
  // Array entries are exactly 8 bytes; the level-0 tree pays per-node
  // overhead (the asymmetry §3.3's two-level design exploits) plus the small
  // fence table that accelerates array lower bounds.
  return array_.size() * sizeof(Packed) + tree_.MemoryBytes() +
         fence_.size() * sizeof(uint32_t);
}

void RangeIndex::Clear() {
  count_valid_ = false;
  tree_.clear();
  array_.clear();
  fence_.clear();
}

}  // namespace ursa::index
