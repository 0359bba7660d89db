// Time-ordered event queue for the discrete-event simulator.
//
// Events at equal timestamps fire in insertion order (a monotonically
// increasing sequence number breaks ties), which keeps runs deterministic.
//
// Hot-path design (DESIGN.md §8):
//   * EventFn is an InlineFn — a closure of up to InlineFn::kInlineBytes
//     lives inside the queue's SlotPool; a larger capture spills to one
//     heap cell, so hot-path call sites keep their captures small (the
//     closures in resource.cc and transport.cc static_assert it). Schedule
//     builds the closure in its slot, and RunNext invokes it there: a closure
//     is never relocated between Schedule and its firing. Pool records
//     never move, so a firing closure stays put while it schedules more
//     events.
//   * the heaps are 4-ary over 16-byte entries, each one 128-bit integer
//     (when << 64) | key, key = (seq << 24) | slot. Seqs are unique, so
//     comparing entries is comparing (when, seq). A 4-ary heap is half as
//     deep as a binary one, and its sift-down picks the least of four
//     children with branch-free selects;
//   * two heaps: events due within kFarHorizon of the last fired event go to
//     `near_`, later ones (RPC and commit timeouts, almost all cancelled
//     before they are due) to `far_`. The hot near heap stays small and
//     holds no long-lived timeouts or their tombstones. The next event is
//     the lesser of the two heads, so the pop order — and every simulated
//     result — is the exact (when, seq) order whichever heap holds what;
//   * cancellation leaves a tombstone: the slot stores the key it was
//     scheduled under, Cancel and firing clear it, and a heap entry is live
//     only while its slot still holds its key. An EventId is that key, so a
//     stale id (its slot since reused under a later seq) never matches;
//   * tombstones do not pile up: RPC timeouts are armed far in the future and
//     almost always cancelled, so their entries would never surface. Once
//     dead entries outnumber live ones by more than kCompactSlack (checked
//     after every cancel and pop), the heap is rebuilt from the live entries
//     (filter + heapify: O(n), paid for by the >= n/2 cancels that made the
//     dead entries, so amortised O(1) per cancel).
#ifndef URSA_SIM_EVENT_QUEUE_H_
#define URSA_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/inline_fn.h"
#include "src/common/logging.h"
#include "src/common/slot_pool.h"
#include "src/common/units.h"

namespace ursa::sim {

using EventFn = InlineFn;
using EventId = uint64_t;

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules fn (an EventFn or any `void()` closure, built in place) at
  // absolute time `when`; returns an id usable with Cancel. Ids are never 0,
  // so 0 is safe as a caller-side "no event" sentinel.
  template <typename F>
  EventId Schedule(Nanos when, F&& fn) {
    uint32_t slot = slots_.Acquire();
    URSA_CHECK_LT(slot, kSlotMask) << "too many pending events";
    Slot& s = slots_[slot];
    s.fn.Emplace(std::forward<F>(fn));
    URSA_CHECK_GE(when, 0);
    URSA_CHECK_LT(next_seq_, kMaxSeq) << "event sequence space exhausted";
    uint64_t key = (next_seq_++ << kSlotBits) | slot;
    s.key = key;
    Push(MakeEntry(when, key));
    ++live_;
    return key;
  }

  // Cancels a pending event. Returns false if already fired or cancelled.
  // The event's closure is destroyed immediately (captures released now, not
  // when the tombstone surfaces at the heap head).
  bool Cancel(EventId id);

  bool empty() const { return live_ == 0; }
  size_t size() const { return live_; }

  // Time of the earliest pending event; only valid when !empty().
  Nanos NextTime();

  // Fires the earliest live event in place if it is due at or before
  // `deadline`: sets *now to its time, runs it, then destroys it. Returns
  // false (and fires nothing) when the queue is empty or the next event is
  // later. The running event's id no longer cancels.
  bool RunNext(Nanos deadline, Nanos* now);

  // Entries in the heaps, cancelled ones not yet dropped included. Stays
  // within 2 * size() + kCompactSlack.
  size_t heap_entries() const { return near_.size() + far_.size(); }

  static constexpr size_t kCompactSlack = 64;

 private:
  static constexpr int kSlotBits = 24;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
  static constexpr uint64_t kMaxSeq = uint64_t{1} << (64 - kSlotBits);
  static constexpr Nanos kFarHorizon = 1'000'000;  // 1 ms

  // A heap entry is one 128-bit integer, (when << 64) | key, so ordering
  // entries is one integer compare (when is never negative).
  __extension__ typedef unsigned __int128 Entry;
  static_assert(sizeof(Entry) == 16);
  static Entry MakeEntry(Nanos when, uint64_t key) {
    return (static_cast<Entry>(static_cast<uint64_t>(when)) << 64) | key;
  }
  static Nanos WhenOf(Entry e) { return static_cast<Nanos>(static_cast<uint64_t>(e >> 64)); }
  static uint64_t KeyOf(Entry e) { return static_cast<uint64_t>(e); }

  // A 4-ary min-heap of entries.
  class Heap {
   public:
    void Push(Entry e);
    // Removes the least entry.
    void PopTop();
    Entry top() const { return v_.front(); }
    bool empty() const { return v_.empty(); }
    size_t size() const { return v_.size(); }
    // Keeps the entries `keep` accepts, then restores the heap order.
    template <typename Keep>
    void Filter(Keep keep) {
      v_.erase(std::remove_if(v_.begin(), v_.end(), [&](Entry e) { return !keep(e); }), v_.end());
      for (size_t i = v_.size() / kArity + 1; i-- > 0;) {
        if (i < v_.size()) {
          SiftDown(i);
        }
      }
    }

   private:
    static constexpr size_t kArity = 4;
    void SiftDown(size_t i);
    std::vector<Entry> v_;
  };

  struct Slot {
    uint64_t key = 0;  // the scheduled entry's key; 0 while free or firing
    EventFn fn;
  };

  bool Live(Entry e) const {
    uint64_t key = KeyOf(e);
    return slots_[static_cast<uint32_t>(key & kSlotMask)].key == key;
  }

  void Push(Entry e) { (WhenOf(e) - last_when_ >= kFarHorizon ? far_ : near_).Push(e); }
  // Drops tombstones from both heads; returns the heap holding the next
  // event, or null when none is pending.
  Heap* Next();

  // Rebuilds the heaps from their live entries once dead ones outnumber
  // them by more than kCompactSlack.
  void MaybeCompact();

  uint64_t next_seq_ = 1;  // from 1, so no key (EventId) is 0
  size_t live_ = 0;
  Nanos last_when_ = 0;  // time of the last fired event
  Heap near_;
  Heap far_;
  SlotPool<Slot> slots_;
};

}  // namespace ursa::sim

#endif  // URSA_SIM_EVENT_QUEUE_H_
