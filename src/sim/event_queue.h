// Time-ordered event queue for the discrete-event simulator.
//
// Events at equal timestamps fire in insertion order (a monotonically
// increasing sequence number breaks ties), which keeps runs deterministic.
//
// Hot-path design:
//   * EventFn is an InlineFn — a closure of up to InlineFn::kInlineBytes
//     lives inside the queue's slot array; a larger capture spills to one
//     heap cell, so hot-path call sites keep their captures small (the
//     closures in resource.cc and transport.cc static_assert it);
//   * cancellation uses generation-tagged slots instead of a side
//     unordered_set: an EventId is (slot << 32) | generation, Cancel bumps
//     the slot's generation (freeing the closure immediately), and stale heap
//     entries are skipped when they surface — the heap holds 24-byte PODs, so
//     sift operations are trivial copies;
//   * tombstones do not pile up: RPC timeouts are armed far in the future and
//     almost always cancelled, so their entries would never surface. Once
//     dead entries outnumber live ones by more than kCompactSlack (checked
//     after every cancel and pop), the heap is rebuilt from the live entries
//     (filter + make_heap: O(n), paid for by the >= n/2 cancels that made
//     the dead entries, so amortised O(1) per cancel). The (when, seq) key
//     is unique, so the pop order — and every simulated result — does not
//     depend on heap layout.
#ifndef URSA_SIM_EVENT_QUEUE_H_
#define URSA_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "src/common/inline_fn.h"
#include "src/common/units.h"

namespace ursa::sim {

using EventFn = InlineFn;
using EventId = uint64_t;

class EventQueue {
 public:
  EventQueue() = default;

  // Schedules fn at absolute time `when`; returns an id usable with Cancel.
  // Ids are never 0, so 0 is safe as a caller-side "no event" sentinel.
  EventId Schedule(Nanos when, EventFn fn);

  // Cancels a pending event. Returns false if already fired or cancelled.
  // The event's closure is destroyed immediately (captures released now, not
  // when the tombstone surfaces at the heap head).
  bool Cancel(EventId id);

  bool empty() const { return live_ == 0; }
  size_t size() const { return live_; }

  // Time of the earliest pending event; only valid when !empty().
  Nanos NextTime() const;

  // Pops the earliest live event; sets *when to its timestamp.
  // Only valid when !empty().
  EventFn PopNext(Nanos* when);

  // Entries in the heap, cancelled ones not yet dropped included. Stays
  // within 2 * size() + kCompactSlack.
  size_t heap_entries() const { return heap_.size(); }

  static constexpr size_t kCompactSlack = 64;

 private:
  // POD heap entry: the closure stays put in slots_, so heap sifts move
  // 24 trivially-copyable bytes instead of a type-erased functor.
  struct Entry {
    Nanos when;
    uint64_t seq;
    uint32_t slot;
    uint32_t gen;
  };
  struct EntryGreater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };
  struct Slot {
    uint32_t gen = 1;  // starts at 1 so no EventId is ever 0
    EventFn fn;
  };

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<EventId>(slot) << 32) | gen;
  }

  // True when the heap entry still matches its slot's generation (i.e. was
  // neither cancelled nor popped).
  bool Live(const Entry& e) const { return slots_[e.slot].gen == e.gen; }

  // Drops tombstoned entries sitting at the heap head.
  void SkipStale() const;

  // Rebuilds the heap from its live entries once dead ones outnumber them
  // by more than kCompactSlack.
  void MaybeCompact();

  // Retires slot `slot` (generation bump + free-list push). The caller is
  // responsible for the closure and the live count.
  void Retire(uint32_t slot);

  uint64_t next_seq_ = 0;
  size_t live_ = 0;
  mutable std::vector<Entry> heap_;  // binary min-heap under EntryGreater
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace ursa::sim

#endif  // URSA_SIM_EVENT_QUEUE_H_
