#include "src/storage/mem_device.h"

#include <utility>

namespace ursa::storage {

MemDevice::MemDevice(sim::Simulator* sim, uint64_t capacity, Nanos fixed_latency)
    : BlockDevice(sim), capacity_(capacity), fixed_latency_(fixed_latency) {}

void MemDevice::SubmitIo(IoRequest req) {
  URSA_CHECK_LE(req.offset + req.length, capacity_) << "I/O beyond device capacity";
  stats_.RecordSubmit(req);
  ++inflight_;

  if (fail_next_ > 0) {
    --fail_next_;
    sim_->After(fixed_latency_, [this, done = std::move(req.done)]() {
      --inflight_;
      if (done) {
        done(Unavailable("injected device failure"));
      }
    });
    return;
  }

  // Submit has moved the bytes; report completion through the event loop.
  sim_->After(fixed_latency_, [this, done = std::move(req.done)]() {
    --inflight_;
    if (done) {
      done(OkStatus());
    }
  });
}

}  // namespace ursa::storage
