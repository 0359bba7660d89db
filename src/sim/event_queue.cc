#include "src/sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace ursa::sim {

EventId EventQueue::Schedule(Nanos when, EventFn fn) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  heap_.push_back(Entry{when, next_seq_++, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), EntryGreater());
  ++live_;
  return MakeId(slot, s.gen);
}

void EventQueue::Retire(uint32_t slot) {
  ++slots_[slot].gen;
  free_slots_.push_back(slot);
}

bool EventQueue::Cancel(EventId id) {
  uint32_t slot = static_cast<uint32_t>(id >> 32);
  uint32_t gen = static_cast<uint32_t>(id);
  if (slot >= slots_.size() || slots_[slot].gen != gen) {
    return false;  // already fired or cancelled (or never existed)
  }
  slots_[slot].fn = nullptr;  // release captures now
  Retire(slot);
  --live_;
  MaybeCompact();
  return true;
}

void EventQueue::MaybeCompact() {
  if (heap_.size() - live_ <= live_ + kCompactSlack) {
    return;
  }
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) { return !Live(e); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), EntryGreater());
}

void EventQueue::SkipStale() const {
  while (!heap_.empty() && !Live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), EntryGreater());
    heap_.pop_back();
  }
}

Nanos EventQueue::NextTime() const {
  SkipStale();
  URSA_CHECK(!heap_.empty());
  return heap_.front().when;
}

EventFn EventQueue::PopNext(Nanos* when) {
  SkipStale();
  URSA_CHECK(!heap_.empty());
  const Entry& top = heap_.front();
  *when = top.when;
  uint32_t slot = top.slot;
  EventFn fn = std::move(slots_[slot].fn);
  slots_[slot].fn = nullptr;
  Retire(slot);
  --live_;
  std::pop_heap(heap_.begin(), heap_.end(), EntryGreater());
  heap_.pop_back();
  MaybeCompact();
  return fn;
}

}  // namespace ursa::sim
