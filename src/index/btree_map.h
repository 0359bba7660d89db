// A B+-tree map from integer keys (uint32_t by default) to values — the
// level-0 structure of the journal index (§3.3 calls for a red-black tree; we
// keep its interface but store entries in wide pooled nodes instead of one
// heap-allocated node per entry), and, keyed by uint64_t byte offset, the
// extent map of storage::PageStore.
//
// Why not std::map: on a ~100K-entry level 0 every lookup chases ~17
// pointer hops through cold 56-byte nodes, which measures at ~270ns per
// probe and dominates overlay-read latency. This B+-tree keeps 16 entries
// per leaf and 16 children per inner node, so a probe touches 4-5 nodes,
// the top levels of which stay cache-resident. Nodes come from deque-backed
// pools (stable addresses, no per-entry malloc), with free lists so the
// carve-heavy insert path reuses nodes instead of allocating.
//
// Interface subset: Put (insert-or-assign), lower_bound, upper_bound,
// begin/end, erase(it) -> next, bidirectional iterators (std::prev works),
// range-for with structured bindings (it->first / it->second), size, empty,
// clear. Put and erase invalidate iterators. Values are moved, never copied,
// and a slot vacated by erase is reset to Value(), so an erased value releases
// whatever it owns right away instead of lingering in a leaf.
//
// Simplifications relative to a textbook B+-tree, safe for a level-0 write
// cache that Compact() periodically clears:
//   - no underflow rebalancing on erase: leaves simply shrink, and a node is
//     unlinked only when it empties (a 1-child root still collapses), so
//     depth never grows from erases and the periodic clear() resets any
//     accumulated sparsity (PageStore never clears, but nearly every erase
//     there is an overwrite whose insert refills the same leaf);
//   - separator keys are not tightened when a subtree's minimum is erased:
//     they stay valid lower bounds, which keeps descents correct.
#ifndef URSA_INDEX_BTREE_MAP_H_
#define URSA_INDEX_BTREE_MAP_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <iterator>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/logging.h"

namespace ursa::index {

template <typename Value, typename Key = uint32_t>
class BtreeMap {
  static_assert(std::is_integral_v<Key> && std::is_unsigned_v<Key>);

 public:
  static constexpr int kLeafCap = 16;   // entries per leaf
  static constexpr int kInnerCap = 16;  // children per inner node
  static constexpr int kMaxDepth = 24;  // splits only deepen at the root; 8^24 >> any workload

  BtreeMap() { Reset(); }
  BtreeMap(const BtreeMap&) = delete;
  BtreeMap& operator=(const BtreeMap&) = delete;

 private:
  struct Leaf {
    Key keys[kLeafCap];
    Value vals[kLeafCap];
    uint16_t count = 0;
    Leaf* next = nullptr;
    Leaf* prev = nullptr;
  };
  struct Inner {
    // child[j] covers keys in [sep[j-1], sep[j]); sep[j] is the minimum key
    // of child[j+1]'s subtree at split time (erases may raise the true
    // minimum, which keeps sep a valid lower bound).
    Key sep[kInnerCap - 1];
    void* child[kInnerCap];
    uint16_t count = 0;  // number of children
  };

 public:
  // What iterators dereference to: a pair-shaped proxy so call sites keep
  // the std::map spelling (it->first, it->second, structured bindings).
  struct Ref {
    const Key first;
    Value& second;
  };
  struct Arrow {
    Ref ref;
    Ref* operator->() { return &ref; }
  };

  class iterator {
   public:
    using iterator_category = std::bidirectional_iterator_tag;
    using value_type = Ref;
    using reference = Ref;
    using pointer = Arrow;
    using difference_type = std::ptrdiff_t;

    iterator() = default;

    Ref operator*() const { return Ref{leaf_->keys[slot_], leaf_->vals[slot_]}; }
    Arrow operator->() const { return Arrow{**this}; }

    iterator& operator++() {
      if (++slot_ >= leaf_->count) {
        leaf_ = leaf_->next;
        slot_ = 0;
      }
      return *this;
    }
    iterator& operator--() {
      if (leaf_ == nullptr) {
        leaf_ = owner_->tail_;
        slot_ = leaf_->count - 1;
      } else if (slot_ > 0) {
        --slot_;
      } else {
        leaf_ = leaf_->prev;
        slot_ = leaf_->count - 1;
      }
      return *this;
    }
    iterator operator++(int) { iterator t = *this; ++*this; return t; }
    iterator operator--(int) { iterator t = *this; --*this; return t; }

    bool operator==(const iterator& o) const { return leaf_ == o.leaf_ && slot_ == o.slot_; }
    bool operator!=(const iterator& o) const { return !(*this == o); }

   private:
    friend class BtreeMap;
    iterator(const BtreeMap* owner, Leaf* leaf, int slot)
        : owner_(owner), leaf_(leaf), slot_(slot) {}
    const BtreeMap* owner_ = nullptr;
    Leaf* leaf_ = nullptr;  // nullptr == end()
    int slot_ = 0;
  };

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  iterator begin() const {
    return head_->count > 0 ? iterator(this, head_, 0) : end();
  }
  iterator end() const { return iterator(this, nullptr, 0); }

  // First entry with key >= k.
  iterator lower_bound(Key k) const {
    Leaf* leaf = Descend(k, nullptr, nullptr);
    for (int i = 0; i < leaf->count; ++i) {
      if (leaf->keys[i] >= k) {
        return iterator(this, leaf, i);
      }
    }
    return leaf->next ? iterator(this, leaf->next, 0) : end();
  }

  // First entry with key > k.
  iterator upper_bound(Key k) const {
    return k == std::numeric_limits<Key>::max() ? end() : lower_bound(k + 1);
  }

  // Insert-or-assign.
  void Put(Key k, Value v) {
    Inner* path[kMaxDepth];
    int slot[kMaxDepth];
    Leaf* leaf = Descend(k, path, slot);
    int pos = 0;
    while (pos < leaf->count && leaf->keys[pos] < k) {
      ++pos;
    }
    if (pos < leaf->count && leaf->keys[pos] == k) {
      leaf->vals[pos] = std::move(v);
      return;
    }
    if (leaf->count == kLeafCap) {
      // Split: upper half moves to a fresh right sibling.
      Leaf* right = AllocLeaf();
      constexpr int kHalf = kLeafCap / 2;
      std::memcpy(right->keys, leaf->keys + kHalf, kHalf * sizeof(Key));
      for (int i = 0; i < kHalf; ++i) {
        right->vals[i] = std::move(leaf->vals[kHalf + i]);
        leaf->vals[kHalf + i] = Value();
      }
      right->count = kHalf;
      leaf->count = kHalf;
      right->next = leaf->next;
      right->prev = leaf;
      if (right->next) {
        right->next->prev = right;
      } else {
        tail_ = right;
      }
      leaf->next = right;
      InsertChildUp(path, slot, right->keys[0], right);
      if (k >= right->keys[0]) {
        leaf = right;
        pos -= kHalf;
      }
    }
    std::memmove(leaf->keys + pos + 1, leaf->keys + pos, (leaf->count - pos) * sizeof(Key));
    for (int i = leaf->count; i > pos; --i) {
      leaf->vals[i] = std::move(leaf->vals[i - 1]);
    }
    leaf->keys[pos] = k;
    leaf->vals[pos] = std::move(v);
    ++leaf->count;
    ++size_;
  }

  // Removes the entry and returns an iterator to its successor.
  iterator erase(iterator it) {
    Leaf* leaf = it.leaf_;
    int pos = it.slot_;
    Key key = leaf->keys[pos];
    std::memmove(leaf->keys + pos, leaf->keys + pos + 1, (leaf->count - pos - 1) * sizeof(Key));
    for (int i = pos; i < leaf->count - 1; ++i) {
      leaf->vals[i] = std::move(leaf->vals[i + 1]);
    }
    leaf->vals[leaf->count - 1] = Value();
    --leaf->count;
    --size_;
    if (leaf->count > 0) {
      if (pos < leaf->count) {
        return iterator(this, leaf, pos);
      }
      return leaf->next ? iterator(this, leaf->next, 0) : end();
    }
    // The leaf emptied: unlink it and drop it from its ancestors.
    iterator next = leaf->next ? iterator(this, leaf->next, 0) : end();
    if (size_ == 0) {
      // Last entry gone: free the whole spine and restart from this leaf.
      ResetToLeaf(leaf);
      return end();
    }
    if (leaf->prev) {
      leaf->prev->next = leaf->next;
    } else {
      head_ = leaf->next;
    }
    if (leaf->next) {
      leaf->next->prev = leaf->prev;
    } else {
      tail_ = leaf->prev;
    }
    // Re-descend by the erased key to recover the ancestor path (erase(it)
    // has no path; this branch only runs when a leaf drains, which is rare).
    Inner* path[kMaxDepth];
    int slot[kMaxDepth];
    Leaf* found = Descend(key, path, slot);
    URSA_CHECK(found == leaf);
    FreeLeaf(leaf);
    for (int h = height_ - 1; h >= 0; --h) {
      Inner* p = path[h];
      RemoveChild(p, slot[h]);
      if (p->count > 0) {
        break;
      }
      if (h == 0) {
        // Unreachable while size_ > 0 (some leaf must remain under the
        // root), but keep the pool consistent if it ever fires.
        URSA_CHECK(false);
      }
      FreeInner(p);
    }
    CollapseRoot();
    return next;
  }

  void clear() {
    leaf_pool_.clear();
    inner_pool_.clear();
    free_leaves_.clear();
    free_inners_.clear();
    Reset();
  }

  // Bytes held by the node pools (free-listed nodes included: they are
  // retained capacity, same as a vector's).
  size_t MemoryBytes() const {
    return leaf_pool_.size() * sizeof(Leaf) + inner_pool_.size() * sizeof(Inner);
  }

 private:
  // Walks from the root to the leaf whose range contains k. When `path` /
  // `slot` are non-null they receive the inner nodes visited and the child
  // slot taken at each, indexed top-down (path[0] = root).
  Leaf* Descend(Key k, Inner** path, int* slot) const {
    void* node = root_;
    for (int h = 0; h < height_; ++h) {
      Inner* in = static_cast<Inner*>(node);
      int j = 0;
      while (j + 1 < in->count && in->sep[j] <= k) {
        ++j;
      }
      if (path) {
        path[h] = in;
        slot[h] = j;
      }
      node = in->child[j];
    }
    return static_cast<Leaf*>(node);
  }

  // Inserts (sep, child) just right of the slot recorded at each level,
  // splitting full inner nodes on the way up.
  void InsertChildUp(Inner** path, int* slot, Key sep, void* child) {
    for (int h = height_ - 1; h >= 0; --h) {
      Inner* p = path[h];
      int j = slot[h];
      if (p->count < kInnerCap) {
        std::memmove(p->sep + j + 1, p->sep + j, (p->count - 1 - j) * sizeof(Key));
        std::memmove(p->child + j + 2, p->child + j + 1,
                     (p->count - 1 - j) * sizeof(void*));
        p->sep[j] = sep;
        p->child[j + 1] = child;
        ++p->count;
        return;
      }
      // Split p: left keeps the lower half of the children, the median
      // separator moves up.
      Inner* right = AllocInner();
      constexpr int kHalf = kInnerCap / 2;
      Key promoted = p->sep[kHalf - 1];
      std::memcpy(right->sep, p->sep + kHalf, (kHalf - 1) * sizeof(Key));
      std::memcpy(right->child, p->child + kHalf, kHalf * sizeof(void*));
      right->count = kHalf;
      p->count = kHalf;
      Inner* target = p;
      if (sep >= promoted) {
        target = right;
        j -= kHalf;
      }
      std::memmove(target->sep + j + 1, target->sep + j, (target->count - 1 - j) * sizeof(Key));
      std::memmove(target->child + j + 2, target->child + j + 1,
                   (target->count - 1 - j) * sizeof(void*));
      target->sep[j] = sep;
      target->child[j + 1] = child;
      ++target->count;
      sep = promoted;
      child = right;
    }
    // Root split.
    URSA_CHECK_LT(height_, kMaxDepth);
    Inner* new_root = AllocInner();
    new_root->sep[0] = sep;
    new_root->child[0] = root_;
    new_root->child[1] = child;
    new_root->count = 2;
    root_ = new_root;
    ++height_;
  }

  // Drops child j from p; the neighbouring separator absorbs its key range.
  void RemoveChild(Inner* p, int j) {
    if (p->count >= 2) {
      int s = j > 0 ? j - 1 : 0;  // separator to drop alongside the child
      std::memmove(p->sep + s, p->sep + s + 1, (p->count - 2 - s) * sizeof(Key));
    }
    std::memmove(p->child + j, p->child + j + 1, (p->count - 1 - j) * sizeof(void*));
    --p->count;
  }

  void CollapseRoot() {
    while (height_ > 0) {
      Inner* r = static_cast<Inner*>(root_);
      if (r->count != 1) {
        return;
      }
      root_ = r->child[0];
      FreeInner(r);
      --height_;
    }
  }

  void Reset() {
    root_ = head_ = tail_ = AllocLeaf();
    height_ = 0;
    size_ = 0;
  }

  // Frees every inner node above `leaf` (the sole remaining leaf) and makes
  // it the root again. Called when the last entry is erased.
  void ResetToLeaf(Leaf* leaf) {
    void* node = root_;
    for (int h = 0; h < height_; ++h) {
      Inner* in = static_cast<Inner*>(node);
      URSA_CHECK_EQ(in->count, 1);
      node = in->child[0];
      FreeInner(in);
    }
    root_ = head_ = tail_ = leaf;
    leaf->next = leaf->prev = nullptr;
    height_ = 0;
  }

  Leaf* AllocLeaf() {
    Leaf* l;
    if (!free_leaves_.empty()) {
      l = free_leaves_.back();
      free_leaves_.pop_back();
    } else {
      l = &leaf_pool_.emplace_back();
    }
    l->count = 0;
    l->next = l->prev = nullptr;
    return l;
  }
  void FreeLeaf(Leaf* l) { free_leaves_.push_back(l); }

  Inner* AllocInner() {
    Inner* in;
    if (!free_inners_.empty()) {
      in = free_inners_.back();
      free_inners_.pop_back();
    } else {
      in = &inner_pool_.emplace_back();
    }
    in->count = 0;
    return in;
  }
  void FreeInner(Inner* in) { free_inners_.push_back(in); }

  void* root_ = nullptr;  // Inner* when height_ > 0, else Leaf*
  Leaf* head_ = nullptr;  // leftmost leaf (leaf chain for iteration)
  Leaf* tail_ = nullptr;  // rightmost leaf
  int height_ = 0;        // inner levels above the leaves
  size_t size_ = 0;

  // Stable-address pools + free lists: no per-entry malloc, and the
  // insert/carve churn of the write path recycles nodes.
  std::deque<Leaf> leaf_pool_;
  std::deque<Inner> inner_pool_;
  std::vector<Leaf*> free_leaves_;
  std::vector<Inner*> free_inners_;
};

}  // namespace ursa::index

#endif  // URSA_INDEX_BTREE_MAP_H_
