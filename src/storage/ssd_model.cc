#include "src/storage/ssd_model.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/inline_fn.h"

namespace ursa::storage {

SsdModel::SsdModel(sim::Simulator* sim, const SsdParams& params, const std::string& name)
    : BlockDevice(sim), params_(params) {
  channels_.reserve(params_.channels);
  for (int c = 0; c < params_.channels; ++c) {
    channels_.push_back(
        std::make_unique<sim::Resource>(sim, name + "/ch" + std::to_string(c), 1));
  }
}

void SsdModel::SubmitIo(IoRequest req) {
  URSA_CHECK_LE(req.offset + req.length, params_.capacity) << "I/O beyond SSD capacity";
  stats_.RecordSubmit(req);
  ++inflight_;

  bool is_read = req.type == IoType::kRead;
  Nanos op_overhead = is_read ? params_.read_op_overhead : params_.write_op_overhead;
  double channel_bw = is_read ? params_.read_channel_bw : params_.write_channel_bw;

  // Requests stripe across channels at 64 KB granularity, like flash-page
  // interleaving in real controllers: small I/O lands on one channel, large
  // I/O fans out and gets intra-request parallelism.
  constexpr uint64_t kStripe = 64 * kKiB;
  size_t num_slices = static_cast<size_t>((req.length + kStripe - 1) / kStripe);
  if (num_slices == 0) {
    num_slices = 1;
  }
  size_t base_channel = (req.offset / kStripe) % channels_.size();

  // One pooled record per I/O: the slice and controller closures capture
  // (this, slot), so they stay inline and the path allocates nothing.
  uint32_t slot = ios_.Acquire();
  ios_[slot] = Io{num_slices, std::move(req.done)};
  uint64_t left = req.length;
  for (size_t s = 0; s < num_slices; ++s) {
    uint64_t slice = std::min<uint64_t>(kStripe, left);
    left -= slice;
    Nanos service = op_overhead + TransferTime(slice, channel_bw);
    size_t channel = (base_channel + s) % channels_.size();
    auto sliced = [this, slot]() { SliceDone(slot); };
    static_assert(InlineFn::kFitsInline<decltype(sliced)>);
    channels_[channel]->Submit(service, sliced);
  }
}

void SsdModel::SliceDone(uint32_t slot) {
  if (--ios_[slot].remaining > 0) {
    return;
  }
  auto complete = [this, slot]() {
    IoCallback done = std::move(ios_[slot].done);
    ios_.Release(slot);
    --inflight_;
    if (done) {
      done(OkStatus());
    }
  };
  static_assert(InlineFn::kFitsInline<decltype(complete)>);
  sim_->After(params_.controller_latency, complete);
}

Nanos SsdModel::channel_busy_time() const {
  Nanos total = 0;
  for (const auto& ch : channels_) {
    total += ch->busy_time();
  }
  return total;
}

}  // namespace ursa::storage
