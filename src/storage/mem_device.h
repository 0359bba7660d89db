// Instant in-memory device for unit tests.
//
// Completes every request at the next event tick (optionally after a fixed
// configurable delay), carrying real bytes through a PageStore. This lets the
// journal, replication, and recovery logic be tested deterministically with
// byte-accurate verification.
#ifndef URSA_STORAGE_MEM_DEVICE_H_
#define URSA_STORAGE_MEM_DEVICE_H_

#include <cstdint>

#include "src/sim/simulator.h"
#include "src/storage/block_device.h"

namespace ursa::storage {

class MemDevice : public BlockDevice {
 public:
  MemDevice(sim::Simulator* sim, uint64_t capacity, Nanos fixed_latency = 0);

  uint64_t capacity() const override { return capacity_; }
  size_t inflight() const override { return inflight_; }

  // Fails the next `n` submissions with kUnavailable (fault injection). The
  // failure is a completion status only: Submit has already moved the bytes.
  void FailNext(int n) { fail_next_ = n; }

  // The stored bytes of [offset, offset + length), for test assertions (no
  // simulated time, no request).
  BufferView ReadSync(uint64_t offset, uint64_t length) const {
    return store_.ReadView(offset, length);
  }

 protected:
  void SubmitIo(IoRequest req) override;
  PageStore* mutable_page_store() override { return &store_; }

 private:
  uint64_t capacity_;
  Nanos fixed_latency_;
  size_t inflight_ = 0;
  int fail_next_ = 0;
  PageStore store_;
};

}  // namespace ursa::storage

#endif  // URSA_STORAGE_MEM_DEVICE_H_
