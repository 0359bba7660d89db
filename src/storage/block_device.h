// Abstract asynchronous block device.
//
// Three implementations:
//   MemDevice  — completes instantly (next event tick); used by unit tests so
//                protocol/journal logic is exercised with real bytes.
//   SsdModel   — multi-channel queueing model of a PCIe SSD.
//   HddModel   — seek + rotation + transfer model with elevator scheduling.
#ifndef URSA_STORAGE_BLOCK_DEVICE_H_
#define URSA_STORAGE_BLOCK_DEVICE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/index/btree_map.h"
#include "src/sim/simulator.h"
#include "src/storage/io_request.h"

namespace ursa::storage {

// Gray-failure state injectable on any device (see DESIGN.md "Fault model &
// chaos harness"). Unlike a crash, the device keeps accepting requests — it
// just serves them pathologically. Modelled after field reports of fail-slow
// hardware ("Gray Failure", HotOS '17).
struct DeviceFault {
  // Added to every request before it reaches the device model — a slow disk
  // (degraded media, firmware retry storms) rather than a dead one.
  Nanos extra_latency = 0;
  // Stuck I/O: requests are admitted but held indefinitely; they complete
  // only after the fault is cleared. Upper layers see this as requests that
  // never return — the hardest gray failure to distinguish from a crash.
  bool stuck = false;
};

class PageStore;

// Admission gate a QoS scheduler installs in front of a device. When a gate
// is attached, BlockDevice::Submit hands every request to the gate instead of
// the device model; the gate classifies/queues/throttles it and eventually
// dispatches via BlockDevice::Admit. Defined here (not in src/qos) so storage
// does not link against the scheduler — qos::IoScheduler implements it.
class IoGate {
 public:
  virtual ~IoGate() = default;
  virtual void OnSubmit(IoRequest req) = 0;

  // Backpressure toward background producers: `ShouldThrottle` is true while
  // the class's queue sits at or above its high watermark; `WhenReady`
  // invokes `fn` once (asynchronously) when the queue has drained to the low
  // watermark — immediately if it already has. Producers (journal replayer,
  // recovery pump) ask before issuing each batch instead of letting device
  // queues grow without bound.
  virtual bool ShouldThrottle(qos::ServiceClass) const { return false; }
  virtual void WhenReady(qos::ServiceClass, std::function<void()> fn) { fn(); }
};

class BlockDevice {
 public:
  explicit BlockDevice(sim::Simulator* sim) : sim_(sim) {}
  virtual ~BlockDevice() = default;

  // Submits an async operation. The completion callback runs from the
  // simulator event loop; it must not be invoked synchronously from Submit.
  // Moves the request's bytes to or from the backing store at once, then
  // routes it through the attached QoS gate when one is installed, otherwise
  // applies any injected gray fault and forwards to the device model.
  void Submit(IoRequest req);

  // Drops the stored bytes of [offset, offset + length): later reads return
  // zeros, and the device holds no memory for the range. For space the owner
  // has given back (a freed chunk slot, a replayed journal record). Ordered
  // after every request submitted before it, since Submit moves bytes.
  // Untimed: no simulated time, no event, no DeviceStats entry.
  void Discard(uint64_t offset, uint64_t length);

  // Dispatches a request into the device, bypassing the gate (fault handling
  // still applies). Called by the gate itself once a request wins arbitration;
  // everyone else goes through Submit.
  void Admit(IoRequest req);

  // Installs/removes the QoS admission gate (not owned; must outlive the
  // device or be detached first).
  void SetGate(IoGate* gate) { gate_ = gate; }
  IoGate* gate() const { return gate_; }

  // Per-request service-latency observer (health monitoring). Invoked at
  // completion with the effective service class and the admit→done latency,
  // which includes device-model queueing/service AND injected gray-fault
  // inflation — the signal a fail-slow detector must see — but not QoS queue
  // wait (a request throttled by policy is not evidence of a sick device).
  // Not owned; must outlive the device or be cleared first.
  using LatencyObserver =
      std::function<void(qos::ServiceClass cls, IoType type, Nanos service_latency)>;
  void SetLatencyObserver(LatencyObserver observer) { observer_ = std::move(observer); }

  virtual uint64_t capacity() const = 0;

  const DeviceStats& stats() const { return stats_; }
  void ResetStats() { stats_ = DeviceStats{}; }

  // Number of operations submitted but not yet completed. Requests held by a
  // stuck fault have not reached the device model and are counted separately
  // (held_requests) — a stuck disk looks idle from the outside, which is
  // exactly what makes the failure "gray".
  virtual size_t inflight() const = 0;

  // ---- Gray-failure injection ----

  // Replaces the active fault. Clearing `stuck` releases every held request
  // into the device model (in admission order).
  void SetFault(const DeviceFault& fault);
  void ClearFault() { SetFault(DeviceFault{}); }
  const DeviceFault& fault() const { return fault_; }

  size_t held_requests() const { return held_.size(); }
  uint64_t fault_delayed_ops() const { return fault_delayed_ops_; }
  uint64_t fault_stuck_ops() const { return fault_stuck_ops_; }

 protected:
  // Device-model implementation of Submit; called after fault handling.
  virtual void SubmitIo(IoRequest req) = 0;

 private:
  // Applies the slow-fault delay and forwards into the device model. Shared
  // by Admit and the stuck-heal release path in SetFault.
  void Dispatch(IoRequest req);

 protected:

  // Backing byte store of the device model, when it carries real data.
  // Submit moves every request's bytes through it, so data visibility keeps
  // submission order however a QoS gate or a gray fault reorders service.
  virtual PageStore* mutable_page_store() { return nullptr; }

  sim::Simulator* sim_;
  DeviceStats stats_;

 private:
  IoGate* gate_ = nullptr;
  LatencyObserver observer_;
  DeviceFault fault_;
  std::vector<IoRequest> held_;  // admitted while stuck, awaiting heal
  uint64_t fault_delayed_ops_ = 0;
  uint64_t fault_stuck_ops_ = 0;
};

// Sparse extent store backing devices that carry real data: an ordered map
// (a B+-tree keyed by start offset) of disjoint [start, end) extents, each a
// BufferView slice. A write erases the range it covers (trimming or
// splitting the extents at its edges into sub-slices) and inserts one
// extent; a scatter write erases its whole range once and then inserts its
// data segments in order. The views are shared, not copied, so the primary,
// journal and replica devices that receive one payload keep a single
// resident copy of it. Stored bytes are never mutated in place — an overwrite
// replaces the extent — so every overwrite, bit-flip injection included, is
// copy-on-write. Untouched space reads back as zeros.
class PageStore {
 public:
  // Stores `data` at [offset, offset + data.size()); an empty view is a no-op.
  void Write(uint64_t offset, BufferView data);
  // Stores the segments back to back from `offset`; a segment without data
  // writes `length` zeros. A data segment's view must be `length` bytes.
  void WriteScatter(uint64_t offset, const std::vector<IoSegment>& segments);
  // The bytes at [offset, offset + length) as a view: a slice of the stored
  // bytes when one extent covers the range, a slice of one shared run of
  // zeros when no extent meets it (up to 1 MiB), else a fresh Buffer
  // assembled from the extents and the zeros between them.
  BufferView ReadView(uint64_t offset, uint64_t length) const;
  // Writes `length` zero bytes. Not a no-op: the range may hold earlier data
  // (ring journals reuse space), so it is erased back to implicit zeros.
  void WriteZeros(uint64_t offset, uint64_t length) {
    if (length > 0) {
      Erase(offset, offset + length);
    }
  }

  size_t extent_count() const { return extents_.size(); }

 private:
  struct Extent {
    uint64_t end = 0;
    BufferView bytes;  // bytes.size() == end - start
  };
  using Map = index::BtreeMap<Extent, uint64_t>;  // keyed by start

  // Removes [start, end) from the map.
  void Erase(uint64_t start, uint64_t end);
  // Inserts `data` at `offset` into a range Erase has just cleared.
  void Insert(uint64_t offset, BufferView data);

  Map extents_;
};

// Applies a write request's payload to a PageStore, handling both the
// contiguous (`data`) and scatter-gather (`scatter`) forms. Shared by every
// device model that carries real bytes.
inline void ApplyWritePayload(PageStore& store, const IoRequest& req) {
  if (!req.scatter.empty()) {
    store.WriteScatter(req.offset, req.scatter);
    return;
  }
  if (req.data) {
    URSA_CHECK_EQ(req.data.size(), req.length);
    store.Write(req.offset, req.data);
  }
}

}  // namespace ursa::storage

#endif  // URSA_STORAGE_BLOCK_DEVICE_H_
