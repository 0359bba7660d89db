#include "src/qos/io_scheduler.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace ursa::qos {

IoScheduler::IoScheduler(sim::Simulator* sim, storage::BlockDevice* device,
                         const QosConfig& config, size_t device_depth, std::string name,
                         obs::MetricsRegistry* registry)
    : sim_(sim),
      device_(device),
      config_(config),
      device_depth_(device_depth == 0 ? 1 : device_depth),
      name_(std::move(name)),
      classes_(kNumServiceClasses) {
  for (size_t i = 0; i < classes_.size(); ++i) {
    ClassState& c = classes_[i];
    c.cls = static_cast<ServiceClass>(i);
    c.params = config_.Params(c.cls);
    c.bucket = TokenBucket(c.params.rate_bytes_per_sec, c.params.burst_bytes);
    if (registry != nullptr && c.cls != ServiceClass::kAuto) {
      obs::Labels labels{{"device", name_}, {"class", ServiceClassName(c.cls)}};
      c.admitted_metric = registry->GetCounter("qos.admitted", labels);
      c.dispatched_bytes_metric = registry->GetCounter("qos.dispatched_bytes", labels);
      c.throttled_metric = registry->GetCounter("qos.throttle_deferrals", labels);
      c.admit_latency_us = registry->GetHistogram("qos.admission_latency_us", labels);
      registry->RegisterCallbackGauge("qos.queued", labels, [&c]() {
        return static_cast<double>(c.queued);
      });
    }
  }
  if (registry != nullptr) {
    obs::Labels labels{{"device", name_}};
    registry->RegisterCallbackCounter("qos.preemptions", labels, [this]() {
      return static_cast<double>(preemptions_);
    });
    registry->RegisterCallbackCounter("qos.bg_grants", labels, [this]() {
      return static_cast<double>(bg_grants_);
    });
    registry->RegisterCallbackGauge("qos.outstanding", labels, [this]() {
      return static_cast<double>(outstanding_);
    });
  }
  device_->SetGate(this);
}

IoScheduler::~IoScheduler() {
  if (device_->gate() == this) {
    device_->SetGate(nullptr);
  }
}

size_t IoScheduler::total_queued() const {
  size_t total = 0;
  for (const ClassState& c : classes_) {
    total += c.queued;
  }
  return total;
}

void IoScheduler::SetRate(ServiceClass c, double bytes_per_sec) {
  Class(c).bucket.SetRate(bytes_per_sec);
  Class(c).params.rate_bytes_per_sec = bytes_per_sec;
  Pump();
}

void IoScheduler::OnSubmit(storage::IoRequest req) {
  ServiceClass cls = storage::EffectiveClass(req);
  ClassState& c = Class(cls);
  if (c.admitted_metric != nullptr) {
    c.admitted_metric->Increment();
  }
  Enqueue(c, std::move(req));
  Pump();
}

void IoScheduler::Enqueue(ClassState& c, storage::IoRequest req) {
  uint64_t tenant = req.tag.tenant;
  TenantQueue* tq = nullptr;
  for (TenantQueue& t : c.tenants) {
    if (t.tenant == tenant) {
      tq = &t;
      break;
    }
  }
  if (tq == nullptr) {
    tq = &c.tenants.emplace_back();
    tq->tenant = tenant;
    if (!spare_queues_.empty()) {
      tq->q = std::move(spare_queues_.back());
      spare_queues_.pop_back();
    }
  }
  tq->q.push_back(Queued{std::move(req), sim_->Now()});
  ++c.queued;
}

void IoScheduler::TenantQueue::PopFront() {
  ++head;
  if (head == q.size()) {
    q.clear();
    head = 0;
  } else if (head >= 64 && head * 2 >= q.size()) {
    q.erase(q.begin(), q.begin() + static_cast<ptrdiff_t>(head));
    head = 0;
  }
}

bool IoScheduler::ShouldThrottle(ServiceClass c) const {
  return Class(c).queued >= Class(c).params.high_watermark;
}

void IoScheduler::WhenReady(ServiceClass cls, std::function<void()> fn) {
  ClassState& c = Class(cls);
  if (c.queued <= c.params.low_watermark) {
    sim_->After(0, std::move(fn));
    return;
  }
  c.ready_waiters.push_back(std::move(fn));
}

void IoScheduler::FireReadyWaiters(ClassState& c) {
  if (c.ready_waiters.empty() || c.queued > c.params.low_watermark) {
    return;
  }
  std::vector<std::function<void()>> waiters;
  waiters.swap(c.ready_waiters);
  for (auto& fn : waiters) {
    sim_->After(0, std::move(fn));
  }
}

// Next tenant in ring order whose deficit covers its head request, crediting
// every waiting tenant with a quantum whenever a full scan finds none —
// byte-fair over time, guaranteed to terminate because deficits grow each
// credit round. Requires c.queued > 0.
IoScheduler::Queued IoScheduler::PopNext(ClassState& c) {
  for (;;) {
    size_t n = c.tenants.size();
    for (size_t i = 0; i < n; ++i) {
      size_t idx = (c.rr + i) % n;
      TenantQueue& t = c.tenants[idx];
      if (t.empty()) {
        continue;
      }
      uint64_t need = std::max<uint64_t>(t.front().req.length, 1);
      if (t.deficit < need) {
        continue;
      }
      t.deficit -= need;
      Queued item = std::move(t.front());
      t.PopFront();
      --c.queued;
      if (t.empty()) {
        spare_queues_.push_back(std::move(t.q));
        c.tenants.erase(c.tenants.begin() + static_cast<ptrdiff_t>(idx));
        c.rr = c.tenants.empty() ? 0 : idx % c.tenants.size();
      } else {
        c.rr = (idx + 1) % n;
      }
      return item;
    }
    for (TenantQueue& t : c.tenants) {
      if (!t.empty()) {
        t.deficit += config_.quantum_bytes;
      }
    }
  }
}

const IoScheduler::Queued* IoScheduler::PeekNext(const ClassState& c) const {
  // The class-level arbiter only needs a representative head size; the
  // precise tenant choice is PopNext's. Use the first non-empty tenant from
  // the cursor.
  size_t n = c.tenants.size();
  for (size_t i = 0; i < n; ++i) {
    const TenantQueue& t = c.tenants[(c.rr + i) % n];
    if (!t.empty()) {
      return &t.front();
    }
  }
  return nullptr;
}

bool IoScheduler::ServeTier(const std::vector<ServiceClass>& tier, size_t* cursor,
                            Nanos* throttle_delay) {
  size_t n = tier.size();
  for (;;) {
    bool deficit_blocked = false;
    for (size_t i = 0; i < n; ++i) {
      size_t pos = (*cursor + i) % n;
      ClassState& c = Class(tier[pos]);
      if (c.queued == 0) {
        c.deficit = 0;
        continue;
      }
      const Queued* head = PeekNext(c);
      URSA_CHECK(head != nullptr);
      uint64_t need = std::max<uint64_t>(head->req.length, 1);
      if (c.deficit < need) {
        deficit_blocked = true;
        continue;
      }
      Nanos now = sim_->Now();
      if (!c.bucket.TryConsume(static_cast<double>(need), now)) {
        ++c.throttle_deferrals;
        if (c.throttled_metric != nullptr) {
          c.throttled_metric->Increment();
        }
        Nanos d = c.bucket.DelayFor(static_cast<double>(need), now);
        if (*throttle_delay < 0 || d < *throttle_delay) {
          *throttle_delay = d;
        }
        continue;
      }
      c.deficit -= need;
      *cursor = (pos + 1) % n;
      Dispatch(c, PopNext(c));
      return true;
    }
    if (!deficit_blocked) {
      return false;  // empty or throttled only — crediting would not help
    }
    for (ServiceClass sc : tier) {
      ClassState& c = Class(sc);
      if (c.queued > 0) {
        c.deficit += static_cast<uint64_t>(
            static_cast<double>(config_.quantum_bytes) * c.params.weight);
      }
    }
  }
}

void IoScheduler::Dispatch(ClassState& c, Queued item) {
  uint64_t bytes = item.req.length;
  ++c.dispatched_ops;
  c.dispatched_bytes += bytes;
  if (c.dispatched_bytes_metric != nullptr) {
    c.dispatched_bytes_metric->Add(bytes);
  }
  if (c.admit_latency_us != nullptr) {
    c.admit_latency_us->Record(static_cast<int64_t>((sim_->Now() - item.enqueued) / 1000));
  }
  ++outstanding_;
  uint32_t slot = completions_.Acquire();
  completions_[slot] = std::move(item.req.done);
  item.req.done = [this, slot](const Status& s) { Complete(slot, s); };
  // The scheduler owns arbitration now; the device model must not apply its
  // own foreground/background priority (the HDD elevator's idle grace would
  // park an already-arbitrated replay write indefinitely under foreground
  // load while it occupies a depth slot).
  item.req.background = false;
  device_->Admit(std::move(item.req));
  FireReadyWaiters(c);
}

void IoScheduler::Complete(uint32_t slot, const Status& s) {
  storage::IoCallback done = std::move(completions_[slot]);
  completions_.Release(slot);
  --outstanding_;
  if (done) {
    done(s);
  }
  Pump();
}

void IoScheduler::ScheduleThrottleTimer(Nanos delay) {
  if (throttle_timer_pending_ || delay < 0) {
    return;
  }
  throttle_timer_pending_ = true;
  sim_->After(delay, [this]() {
    throttle_timer_pending_ = false;
    Pump();
  });
}

void IoScheduler::Pump() {
  if (pumping_) {
    return;
  }
  pumping_ = true;
  Nanos throttle_delay = -1;
  while (outstanding_ < device_depth_) {
    size_t fg_backlog = Class(ServiceClass::kForegroundRead).queued +
                        Class(ServiceClass::kForegroundWrite).queued;
    size_t bg_backlog = Class(ServiceClass::kJournalReplay).queued +
                        Class(ServiceClass::kRecovery).queued +
                        Class(ServiceClass::kScrub).queued +
                        Class(ServiceClass::kAuto).queued;
    if (fg_backlog + bg_backlog == 0) {
      break;
    }
    bool bg_turn =
        fg_backlog == 0 || (bg_backlog > 0 && fg_streak_ >= config_.background_slot_every);
    bool served = false;
    if (bg_turn && bg_backlog > 0) {
      served = ServeTier(bg_tier_, &bg_cursor_, &throttle_delay);
      if (served) {
        if (fg_backlog > 0) {
          ++bg_grants_;  // aged grant under foreground pressure
        }
        fg_streak_ = 0;
      }
    }
    if (!served && fg_backlog > 0) {
      served = ServeTier(fg_tier_, &fg_cursor_, &throttle_delay);
      if (served && bg_backlog > 0) {
        ++preemptions_;  // foreground bypassed waiting background work
        ++fg_streak_;
      }
    }
    if (!served && !bg_turn && bg_backlog > 0) {
      // Foreground fully throttled: let background use the idle device.
      served = ServeTier(bg_tier_, &bg_cursor_, &throttle_delay);
      if (served) {
        fg_streak_ = 0;
      }
    }
    if (!served) {
      break;  // everything left is token-throttled
    }
  }
  pumping_ = false;
  if (throttle_delay >= 0) {
    ScheduleThrottleTimer(throttle_delay);
  }
}

}  // namespace ursa::qos
