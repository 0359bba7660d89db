// Queueing model of a PCIe SSD (Intel 750-class by default).
//
// Structure: `channels` independent flash channels, each a FIFO server.
// Requests are striped to channels by page number, occupying one channel for
//   service = per_op_overhead + length / per_channel_rate
// and then completing after a fixed controller latency that does NOT occupy
// the channel (this separates qd1 latency from peak parallel IOPS, as on real
// NVMe hardware). Defaults reproduce the Intel 750 400GB datasheet shape:
// ~430K/230K random-4K read/write IOPS, 2.2/0.9 GB/s sequential, ~90 us qd1.
#ifndef URSA_STORAGE_SSD_MODEL_H_
#define URSA_STORAGE_SSD_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/slot_pool.h"
#include "src/common/units.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"
#include "src/storage/block_device.h"

namespace ursa::storage {

struct SsdParams {
  uint64_t capacity = 400 * kGiB;
  int channels = 8;
  Nanos read_op_overhead = usec(4);    // channel occupancy per read op
  Nanos write_op_overhead = usec(6);   // channel occupancy per write op
  double read_channel_bw = 275.0e6;    // bytes/s per channel (8 ch -> 2.2 GB/s)
  double write_channel_bw = 112.5e6;   // bytes/s per channel (8 ch -> 0.9 GB/s)
  Nanos controller_latency = usec(70);  // fixed post-service completion delay
};

class SsdModel : public BlockDevice {
 public:
  SsdModel(sim::Simulator* sim, const SsdParams& params, const std::string& name = "ssd");

  uint64_t capacity() const override { return params_.capacity; }
  size_t inflight() const override { return inflight_; }

  const SsdParams& params() const { return params_; }

  // Aggregate busy time across channels (for utilization accounting).
  Nanos channel_busy_time() const;

 protected:
  void SubmitIo(IoRequest req) override;
  PageStore* mutable_page_store() override { return &store_; }

 private:
  // An I/O in flight: its channel slices not yet served, and its callback.
  struct Io {
    size_t remaining = 0;
    IoCallback done;
  };

  // Counts down one served slice; the last one starts the controller delay.
  void SliceDone(uint32_t slot);

  SsdParams params_;
  std::vector<std::unique_ptr<sim::Resource>> channels_;
  size_t inflight_ = 0;
  PageStore store_;
  // Records of in-flight I/Os, indexed by slot.
  SlotPool<Io> ios_;
};

}  // namespace ursa::storage

#endif  // URSA_STORAGE_SSD_MODEL_H_
