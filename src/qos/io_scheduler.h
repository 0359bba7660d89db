// Per-device I/O scheduler: service-class arbitration in front of a
// BlockDevice.
//
// Installed as the device's IoGate, the scheduler classifies every submitted
// request (explicit IoTag or derived from direction/background), queues it
// per class and per tenant, and dispatches into the device model with:
//
//   * weighted deficit round-robin across classes within two tiers
//     (foreground ahead of background), with a starvation guard that grants
//     background one slot after every `background_slot_every` consecutive
//     foreground dispatches;
//   * per-class token-bucket byte throttles (0 = unlimited);
//   * per-tenant (virtual-disk) deficit round-robin within each class;
//   * a bounded device queue depth, so a burst of background work cannot
//     bury a late-arriving foreground request inside the device model;
//   * queue-depth watermarks exposed through the IoGate backpressure hooks
//     (ShouldThrottle / WhenReady) so background producers pause instead of
//     growing the queues without bound.
//
// Ordering note: BlockDevice::Submit serves reads and applies write payloads
// to the backing page store before the request reaches the gate, so
// scheduler reordering is timing-only — data visibility keeps submission
// order, exactly as in the ungated path.
//
// Steady-state enqueue and dispatch allocate nothing: tenant queues are
// vector FIFOs whose storage is recycled when a tenant is pruned, and a
// dispatched request's callback waits in a pooled slot, so the completion
// wrapper captures only (this, slot).
#ifndef URSA_QOS_IO_SCHEDULER_H_
#define URSA_QOS_IO_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/slot_pool.h"
#include "src/obs/metrics_registry.h"
#include "src/qos/qos_config.h"
#include "src/qos/service_class.h"
#include "src/qos/token_bucket.h"
#include "src/sim/simulator.h"
#include "src/storage/block_device.h"

namespace ursa::qos {

class IoScheduler : public storage::IoGate {
 public:
  // Attaches itself to `device` (SetGate). `device_depth` bounds requests
  // outstanding inside the device model. A null `registry` skips metrics
  // (standalone unit tests).
  IoScheduler(sim::Simulator* sim, storage::BlockDevice* device, const QosConfig& config,
              size_t device_depth, std::string name, obs::MetricsRegistry* registry = nullptr);
  ~IoScheduler() override;

  // IoGate:
  void OnSubmit(storage::IoRequest req) override;
  bool ShouldThrottle(ServiceClass c) const override;
  void WhenReady(ServiceClass c, std::function<void()> fn) override;

  // Runtime throttle adjustment (e.g. the master slowing recovery).
  void SetRate(ServiceClass c, double bytes_per_sec);

  // ---- Introspection (tests, callback gauges) ----
  size_t queued(ServiceClass c) const { return Class(c).queued; }
  size_t total_queued() const;
  size_t outstanding() const { return outstanding_; }
  uint64_t dispatched_ops(ServiceClass c) const { return Class(c).dispatched_ops; }
  uint64_t dispatched_bytes(ServiceClass c) const { return Class(c).dispatched_bytes; }
  uint64_t throttle_deferrals(ServiceClass c) const { return Class(c).throttle_deferrals; }
  uint64_t preemptions() const { return preemptions_; }
  uint64_t bg_grants() const { return bg_grants_; }
  const QosConfig& config() const { return config_; }
  const std::string& name() const { return name_; }

 private:
  struct Queued {
    storage::IoRequest req;
    Nanos enqueued = 0;
  };

  // One tenant's FIFO: q[head, size) are waiting; the consumed prefix is
  // dropped once it dominates.
  struct TenantQueue {
    uint64_t tenant = 0;
    std::vector<Queued> q;
    size_t head = 0;
    uint64_t deficit = 0;

    bool empty() const { return head == q.size(); }
    const Queued& front() const { return q[head]; }
    Queued& front() { return q[head]; }
    void PopFront();
  };

  struct ClassState {
    ServiceClass cls = ServiceClass::kAuto;
    ClassParams params;
    TokenBucket bucket;
    std::vector<TenantQueue> tenants;  // round-robin ring (empty slots pruned)
    size_t rr = 0;                     // tenant cursor
    size_t queued = 0;
    uint64_t deficit = 0;  // class-level DRR deficit (bytes)
    uint64_t dispatched_ops = 0;
    uint64_t dispatched_bytes = 0;
    uint64_t throttle_deferrals = 0;
    std::vector<std::function<void()>> ready_waiters;
    obs::Counter* admitted_metric = nullptr;
    obs::Counter* dispatched_bytes_metric = nullptr;
    obs::Counter* throttled_metric = nullptr;
    Histogram* admit_latency_us = nullptr;
  };

  ClassState& Class(ServiceClass c) { return classes_[static_cast<size_t>(c)]; }
  const ClassState& Class(ServiceClass c) const { return classes_[static_cast<size_t>(c)]; }

  void Enqueue(ClassState& c, storage::IoRequest req);
  // Dispatches as many requests as depth/tokens allow.
  void Pump();
  // Picks a dispatchable request from one tier (list of classes); returns
  // false when none is eligible. `throttle_delay` accumulates the earliest
  // token-refill wait seen among bucket-blocked classes.
  bool ServeTier(const std::vector<ServiceClass>& tier, size_t* cursor, Nanos* throttle_delay);
  // Pops the next request from `c` honouring tenant DRR; requires queued > 0.
  Queued PopNext(ClassState& c);
  const Queued* PeekNext(const ClassState& c) const;
  void Dispatch(ClassState& c, Queued item);
  // Runs the device completion of the request whose callback waits in `slot`.
  void Complete(uint32_t slot, const Status& s);
  void FireReadyWaiters(ClassState& c);
  void ScheduleThrottleTimer(Nanos delay);

  sim::Simulator* sim_;
  storage::BlockDevice* device_;
  QosConfig config_;
  size_t device_depth_;
  std::string name_;

  std::vector<ClassState> classes_;  // indexed by ServiceClass value
  std::vector<ServiceClass> fg_tier_{ServiceClass::kForegroundRead,
                                     ServiceClass::kForegroundWrite};
  std::vector<ServiceClass> bg_tier_{ServiceClass::kJournalReplay, ServiceClass::kRecovery,
                                     ServiceClass::kScrub};
  size_t fg_cursor_ = 0;
  size_t bg_cursor_ = 0;

  // Emptied tenant queues' storage, reused by the next new tenant.
  std::vector<std::vector<Queued>> spare_queues_;
  // Callbacks of dispatched requests, indexed by slot.
  SlotPool<storage::IoCallback> completions_;

  size_t outstanding_ = 0;
  int fg_streak_ = 0;  // consecutive foreground dispatches with bg waiting
  uint64_t preemptions_ = 0;
  uint64_t bg_grants_ = 0;
  bool pumping_ = false;
  bool throttle_timer_pending_ = false;
};

}  // namespace ursa::qos

#endif  // URSA_QOS_IO_SCHEDULER_H_
