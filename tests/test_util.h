// Shared helpers for Ursa tests: small, fast cluster configurations and
// byte-pattern utilities for end-to-end data verification.
#ifndef URSA_TESTS_TEST_UTIL_H_
#define URSA_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/params.h"

namespace ursa::test {

// A miniature paper machine: tiny devices and chunks so tests run in
// milliseconds while exercising the same code paths.
inline cluster::MachineConfig SmallMachineConfig() {
  cluster::MachineConfig m;
  m.cores = 4;
  m.ssds = 2;
  m.hdds = 2;
  m.ssd.capacity = 64 * kMiB;
  m.hdd.capacity = 256 * kMiB;
  return m;
}

inline cluster::ClusterConfig SmallClusterConfig(
    cluster::StorageMode mode = cluster::StorageMode::kHybrid) {
  cluster::ClusterConfig c;
  c.machines = 3;
  c.machine = SmallMachineConfig();
  c.mode = mode;
  c.chunk_size = 1 * kMiB;
  c.hdd_journal_bytes = 4 * kMiB;
  return c;
}

inline core::SystemProfile SmallProfile(cluster::StorageMode mode =
                                            cluster::StorageMode::kHybrid) {
  core::SystemProfile p;
  p.name = "small";
  p.cluster = SmallClusterConfig(mode);
  return p;
}

// Deterministic byte pattern for verifying data round trips.
inline std::vector<uint8_t> Pattern(size_t length, uint64_t seed) {
  std::vector<uint8_t> out(length);
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
  for (size_t i = 0; i < length; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out[i] = static_cast<uint8_t>(x);
  }
  return out;
}

// A write payload holding a copy of `bytes`: raw test bytes enter the system
// here, as one Buffer every hop below shares.
inline Buffer Payload(const std::vector<uint8_t>& bytes) {
  return Buffer::CopyOf(bytes.data(), bytes.size());
}

// The bytes of a view, as a vector to compare (empty for a null view).
inline std::vector<uint8_t> Bytes(const BufferView& view) {
  return std::vector<uint8_t>(view.data(), view.data() + view.size());
}

// One device read of [offset, offset + length) whose bytes land in `*out`
// (null: timing-only).
inline storage::IoRequest MakeRead(uint64_t offset, uint64_t length, BufferView* out,
                                   storage::IoCallback done, storage::IoTag tag = {}) {
  storage::IoRequest req;
  req.type = storage::IoType::kRead;
  req.offset = offset;
  req.length = length;
  req.out_view = out;
  req.done = std::move(done);
  req.tag = tag;
  return req;
}

// One device write of `data` (`length` bytes, or a null view: timing-only)
// at `offset`.
inline storage::IoRequest MakeWrite(uint64_t offset, uint64_t length, BufferView data,
                                    storage::IoCallback done, storage::IoTag tag = {}) {
  storage::IoRequest req;
  req.type = storage::IoType::kWrite;
  req.offset = offset;
  req.length = length;
  req.data = std::move(data);
  req.done = std::move(done);
  req.tag = tag;
  return req;
}

// A pass-through QoS gate whose backpressure a test controls: once
// `trip_after` writes of class `cls` have been submitted it reports the class
// past its high watermark, and it parks WhenReady callbacks until Open()
// drains it. Every request goes straight to the device.
class TripGate : public storage::IoGate {
 public:
  TripGate(sim::Simulator* sim, storage::BlockDevice* device, qos::ServiceClass cls,
           uint64_t trip_after)
      : sim_(sim), device_(device), cls_(cls), trip_after_(trip_after) {
    device_->SetGate(this);
  }
  ~TripGate() override { device_->SetGate(nullptr); }

  void OnSubmit(storage::IoRequest req) override {
    if (req.type == storage::IoType::kWrite && storage::EffectiveClass(req) == cls_) {
      ++writes_;
    }
    device_->Admit(std::move(req));
  }
  bool ShouldThrottle(qos::ServiceClass c) const override {
    return c == cls_ && !open_ && writes_ >= trip_after_;
  }
  void WhenReady(qos::ServiceClass c, std::function<void()> fn) override {
    if (ShouldThrottle(c)) {
      parked_.push_back(std::move(fn));
      return;
    }
    sim_->After(0, std::move(fn));
  }

  // Drains the class for good: every parked producer resumes.
  void Open() {
    open_ = true;
    for (auto& fn : parked_) {
      sim_->After(0, std::move(fn));
    }
    parked_.clear();
  }

  uint64_t writes() const { return writes_; }
  size_t parked() const { return parked_.size(); }

 private:
  sim::Simulator* sim_;
  storage::BlockDevice* device_;
  qos::ServiceClass cls_;
  uint64_t trip_after_;
  uint64_t writes_ = 0;
  bool open_ = false;
  std::vector<std::function<void()>> parked_;
};

}  // namespace ursa::test

#endif  // URSA_TESTS_TEST_UTIL_H_
