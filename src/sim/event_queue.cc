#include "src/sim/event_queue.h"

#include <utility>

namespace ursa::sim {

void EventQueue::Heap::Push(Entry e) {
  size_t i = v_.size();
  v_.push_back(e);
  Entry* h = v_.data();
  while (i > 0) {
    size_t parent = (i - 1) / kArity;
    if (!(e < h[parent])) {
      break;
    }
    h[i] = h[parent];
    i = parent;
  }
  h[i] = e;
}

void EventQueue::Heap::PopTop() {
  v_.front() = v_.back();
  v_.pop_back();
  if (!v_.empty()) {
    SiftDown(0);
  }
}

void EventQueue::Heap::SiftDown(size_t i) {
  const size_t n = v_.size();
  Entry* h = v_.data();
  const Entry e = h[i];
  while (true) {
    size_t first = i * kArity + 1;
    if (first >= n) {
      break;
    }
    size_t best = first;
    Entry least = h[first];
    if (first + kArity <= n) {
      // All four children exist: a select tournament without branches.
      size_t b1 = h[first + 1] < least ? first + 1 : first;
      Entry m1 = h[first + 1] < least ? h[first + 1] : least;
      size_t b2 = h[first + 3] < h[first + 2] ? first + 3 : first + 2;
      Entry m2 = h[first + 3] < h[first + 2] ? h[first + 3] : h[first + 2];
      best = m2 < m1 ? b2 : b1;
      least = m2 < m1 ? m2 : m1;
    } else {
      for (size_t c = first + 1; c < n; ++c) {
        if (h[c] < least) {
          least = h[c];
          best = c;
        }
      }
    }
    if (!(least < e)) {
      break;
    }
    h[i] = least;
    i = best;
  }
  h[i] = e;
}

bool EventQueue::Cancel(EventId id) {
  uint32_t slot = static_cast<uint32_t>(id & kSlotMask);
  if (id == 0 || slot >= slots_.size() || slots_[slot].key != id) {
    return false;  // already fired or cancelled (or never existed)
  }
  Slot& s = slots_[slot];
  s.key = 0;
  s.fn = nullptr;  // release captures now
  slots_.Release(slot);
  --live_;
  MaybeCompact();
  return true;
}

void EventQueue::MaybeCompact() {
  if (heap_entries() - live_ <= live_ + kCompactSlack) {
    return;
  }
  auto live = [this](Entry e) { return Live(e); };
  near_.Filter(live);
  far_.Filter(live);
}

EventQueue::Heap* EventQueue::Next() {
  while (!near_.empty() && !Live(near_.top())) {
    near_.PopTop();
  }
  while (!far_.empty() && !Live(far_.top())) {
    far_.PopTop();
  }
  if (far_.empty()) {
    return near_.empty() ? nullptr : &near_;
  }
  return near_.empty() || far_.top() < near_.top() ? &far_ : &near_;
}

Nanos EventQueue::NextTime() {
  Heap* heap = Next();
  URSA_CHECK(heap != nullptr);
  return WhenOf(heap->top());
}

bool EventQueue::RunNext(Nanos deadline, Nanos* now) {
  if (live_ == 0) {
    return false;
  }
  Heap* heap = Next();
  const Entry top = heap->top();
  const Nanos when = WhenOf(top);
  if (when > deadline) {
    return false;
  }
  URSA_CHECK_GE(when, *now) << "event scheduled in the past";
  *now = last_when_ = when;
  uint32_t slot = static_cast<uint32_t>(KeyOf(top) & kSlotMask);
  Slot& s = slots_[slot];
  s.key = 0;  // fired: its id no longer cancels
  --live_;
  heap->PopTop();
  MaybeCompact();
  // The slot stays off the free list while its closure runs, so events the
  // closure schedules take other slots; pool records never move, so `s`
  // stays valid.
  s.fn();
  s.fn = nullptr;
  slots_.Release(slot);
  return true;
}

}  // namespace ursa::sim
