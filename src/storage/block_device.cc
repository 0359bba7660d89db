#include "src/storage/block_device.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <utility>

#include "src/common/units.h"

namespace ursa::storage {

namespace {

// One run of zeros shared by every read of a range no extent meets (up to
// its length): timing-only runs store no bytes, and such a read costs them
// no allocation.
constexpr uint64_t kZeroRun = 1 * kMiB;

const Buffer& ZeroRun() {
  static const Buffer zeros = Buffer::AllocateZeroed(kZeroRun);
  return zeros;
}

}  // namespace

void PageStore::Erase(uint64_t start, uint64_t end) {
  // First extent that ends past `start`: the predecessor of the first one
  // starting after `start` when it reaches into the range.
  auto it = extents_.upper_bound(start);
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > start) {
      it = prev;
    }
  }
  while (it != extents_.end() && it->first < end) {
    const uint64_t s = it->first;
    Extent& ext = it->second;
    if (s < start) {
      // Keep the head [s, start); an extent covering the whole range also
      // keeps its tail [end, ext.end) as a second slice of the same bytes.
      if (ext.end > end) {
        Extent tail{ext.end, ext.bytes.Slice(end - s, ext.end - end)};
        ext.bytes = ext.bytes.Slice(0, start - s);
        ext.end = start;
        extents_.Put(end, std::move(tail));
        return;
      }
      ext.bytes = ext.bytes.Slice(0, start - s);
      ext.end = start;
      ++it;
    } else if (ext.end > end) {
      // Keep the tail [end, ext.end), re-keyed to start at `end`.
      Extent tail{ext.end, ext.bytes.Slice(end - s, ext.end - end)};
      extents_.erase(it);
      extents_.Put(end, std::move(tail));
      return;
    } else {
      it = extents_.erase(it);
    }
  }
}

void PageStore::Insert(uint64_t offset, BufferView data) {
  const uint64_t end = offset + data.size();
  extents_.Put(offset, Extent{end, std::move(data)});
}

void PageStore::Write(uint64_t offset, BufferView data) {
  if (data.empty()) {
    return;
  }
  Erase(offset, offset + data.size());
  Insert(offset, std::move(data));
}

void PageStore::WriteScatter(uint64_t offset, const std::vector<IoSegment>& segments) {
  uint64_t end = offset;
  for (const IoSegment& seg : segments) {
    end += seg.length;
  }
  if (end == offset) {
    return;
  }
  Erase(offset, end);
  for (const IoSegment& seg : segments) {
    if (seg.data && seg.length > 0) {
      URSA_CHECK_EQ(seg.data.size(), seg.length);
      Insert(offset, seg.data);
    }
    offset += seg.length;
  }
}

BufferView PageStore::ReadView(uint64_t offset, uint64_t length) const {
  auto it = extents_.upper_bound(offset);
  if (it != extents_.begin()) {
    const auto& [start, ext] = *std::prev(it);
    if (offset + length <= ext.end) {
      return ext.bytes.Slice(offset - start, length);
    }
    if (ext.end > offset) {
      --it;
    }
  }
  const uint64_t end = offset + length;
  if ((it == extents_.end() || it->first >= end) && length <= kZeroRun) {
    return ZeroRun().View(0, length);
  }
  // Assemble the range from the extents it meets and the zeros between.
  Buffer copy = Buffer::Allocate(length);
  uint8_t* dst = copy.data();
  uint64_t pos = offset;
  for (; it != extents_.end() && it->first < end; ++it) {
    const uint64_t s = std::max(it->first, pos);
    const uint64_t e = std::min(it->second.end, end);
    std::memset(dst + (pos - offset), 0, s - pos);  // gap before the extent
    std::memcpy(dst + (s - offset), it->second.bytes.data() + (s - it->first), e - s);
    pos = e;
  }
  std::memset(dst + (pos - offset), 0, end - pos);
  return copy.View();
}

void BlockDevice::Submit(IoRequest req) {
  // Move the bytes now, whatever the gate or a gray fault later does to the
  // request's timing: data visibility keeps submission order, and a Discard
  // orders after every request submitted before it. The device model then
  // only times the request. Dropping a write's payload refs keeps a queued
  // request from pinning bytes a later write replaces.
  if (PageStore* store = mutable_page_store()) {
    if (req.type == IoType::kWrite) {
      ApplyWritePayload(*store, req);
      req.data = BufferView();
      req.scatter.clear();
    } else if (req.out_view != nullptr) {
      *req.out_view = store->ReadView(req.offset, req.length);
      req.out_view = nullptr;
    }
  }
  if (gate_ != nullptr) {
    gate_->OnSubmit(std::move(req));
    return;
  }
  Admit(std::move(req));
}

void BlockDevice::Discard(uint64_t offset, uint64_t length) {
  if (PageStore* store = mutable_page_store()) {
    store->WriteZeros(offset, length);
  }
}

void BlockDevice::Admit(IoRequest req) {
  if (observer_ && req.done) {
    // Measure admit→completion. A stuck-fault hold is part of the measured
    // latency (requests held until heal complete with the hold included) —
    // stuck disks must look catastrophically slow to the health monitor.
    Nanos start = sim_->Now();
    qos::ServiceClass cls = EffectiveClass(req);
    IoType type = req.type;
    IoCallback inner = std::move(req.done);
    req.done = [this, start, cls, type, inner = std::move(inner)](const Status& s) {
      observer_(cls, type, sim_->Now() - start);
      inner(s);
    };
  }
  if (fault_.stuck) {
    ++fault_stuck_ops_;
    held_.push_back(std::move(req));
    return;
  }
  Dispatch(std::move(req));
}

void BlockDevice::Dispatch(IoRequest req) {
  if (fault_.extra_latency > 0) {
    ++fault_delayed_ops_;
    sim_->After(fault_.extra_latency,
                [this, req = std::move(req)]() mutable { SubmitIo(std::move(req)); });
    return;
  }
  SubmitIo(std::move(req));
}

void BlockDevice::SetFault(const DeviceFault& fault) {
  bool was_stuck = fault_.stuck;
  fault_ = fault;
  if (was_stuck && !fault_.stuck && !held_.empty()) {
    // Release in arrival order through the (possibly still slow) fault path.
    // Dispatch (not Submit/Admit): these requests already won QoS arbitration
    // and carry their observer wrapping from original admission — re-entering
    // Admit would double-count dispatches and double-record latencies.
    std::vector<IoRequest> held;
    held.swap(held_);
    for (auto& req : held) {
      Dispatch(std::move(req));
    }
  }
}

}  // namespace ursa::storage
