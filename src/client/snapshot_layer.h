// Snapshot module (§5.1): client-side copy-on-write snapshots.
//
// The virtual disk's logical space is split in two halves: the lower half is
// the live disk exposed to the guest; the upper half is a COW area owned by
// this layer. TakeSnapshot() freezes the current contents; the first
// overwrite of each 64 KB grain after a snapshot copies the old grain into
// the COW area before the new data lands. ReadSnapshot() reconstructs the
// frozen image (COW grain if preserved, live data otherwise).
//
// One live snapshot at a time (DeleteSnapshot releases the COW space), which
// covers the paper's use case — consistent backup/cloning points for virtual
// disks — without a persistent snapshot catalogue (the in-memory grain map
// would live in the master in a production deployment; DESIGN.md notes the
// simplification).
#ifndef URSA_CLIENT_SNAPSHOT_LAYER_H_
#define URSA_CLIENT_SNAPSHOT_LAYER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/client/block_layer.h"
#include "src/common/logging.h"

namespace ursa::client {

class SnapshotLayer : public BlockLayer {
 public:
  static constexpr uint64_t kGrainSize = 64 * kKiB;

  explicit SnapshotLayer(BlockLayer* below) : below_(below) {
    URSA_CHECK_EQ(below->size() % (2 * kGrainSize), 0u);
    live_size_ = below->size() / 2;
  }

  // The guest sees only the live half.
  uint64_t size() const override { return live_size_; }

  void Read(uint64_t offset, uint64_t length, void* out, storage::IoCallback done) override {
    URSA_CHECK_LE(offset + length, live_size_);
    below_->Read(offset, length, out, std::move(done));
  }

  // COW: preserve not-yet-copied grains before letting the write through.
  void Write(uint64_t offset, uint64_t length, ursa::BufferView data,
             storage::IoCallback done) override;

  // Freezes the current live contents as the snapshot.
  void TakeSnapshot() {
    URSA_CHECK(!snapshot_active_) << "one live snapshot at a time";
    snapshot_active_ = true;
    grains_.clear();
    next_cow_grain_ = 0;
  }

  void DeleteSnapshot() {
    snapshot_active_ = false;
    grains_.clear();
    next_cow_grain_ = 0;
  }

  bool snapshot_active() const { return snapshot_active_; }
  size_t preserved_grains() const { return grains_.size(); }

  // Reads from the frozen image.
  void ReadSnapshot(uint64_t offset, uint64_t length, void* out, storage::IoCallback done);

 private:
  // COW-area byte offset for a preserved grain slot.
  uint64_t CowOffset(uint64_t slot) const { return live_size_ + slot * kGrainSize; }

  // Preserves every still-unpreserved grain intersecting [offset, offset+len)
  // then calls `next`.
  void PreserveGrains(uint64_t offset, uint64_t length, storage::IoCallback next);

  BlockLayer* below_;
  uint64_t live_size_ = 0;
  bool snapshot_active_ = false;
  // live grain index -> COW slot (grain preserved there).
  std::unordered_map<uint64_t, uint64_t> grains_;
  uint64_t next_cow_grain_ = 0;
};

inline void SnapshotLayer::Write(uint64_t offset, uint64_t length, ursa::BufferView data,
                                 storage::IoCallback done) {
  URSA_CHECK_LE(offset + length, live_size_);
  if (!snapshot_active_) {
    below_->Write(offset, length, std::move(data), std::move(done));
    return;
  }
  PreserveGrains(offset, length,
                 [this, offset, length, data = std::move(data),
                  done = std::move(done)](const Status& s) {
                   if (!s.ok()) {
                     done(s);
                     return;
                   }
                   below_->Write(offset, length, data, done);
                 });
}

inline void SnapshotLayer::PreserveGrains(uint64_t offset, uint64_t length,
                                          storage::IoCallback next) {
  std::vector<uint64_t> to_copy;
  for (uint64_t g = offset / kGrainSize; g <= (offset + length - 1) / kGrainSize; ++g) {
    if (grains_.find(g) == grains_.end()) {
      to_copy.push_back(g);
    }
  }
  if (to_copy.empty()) {
    next(OkStatus());
    return;
  }
  struct CopyState {
    size_t remaining;
    Status status;
    storage::IoCallback next;
  };
  auto state = std::make_shared<CopyState>();
  state->remaining = to_copy.size();
  state->next = std::move(next);
  for (uint64_t g : to_copy) {
    uint64_t slot = next_cow_grain_++;
    URSA_CHECK_LE(CowOffset(slot) + kGrainSize, below_->size()) << "COW area exhausted";
    grains_[g] = slot;
    // The old grain lands in a fresh Buffer, which the COW write publishes.
    Buffer buf = Buffer::Allocate(kGrainSize);
    below_->Read(g * kGrainSize, kGrainSize, buf.data(),
                 [this, g, slot, buf, state](const Status& s) {
                   if (!s.ok()) {
                     if (state->status.ok()) {
                       state->status = s;
                     }
                     if (--state->remaining == 0) {
                       state->next(state->status);
                     }
                     return;
                   }
                   below_->Write(CowOffset(slot), kGrainSize, buf,
                                 [state](const Status& s2) {
                                   if (!s2.ok() && state->status.ok()) {
                                     state->status = s2;
                                   }
                                   if (--state->remaining == 0) {
                                     state->next(state->status);
                                   }
                                 });
                 });
  }
}

inline void SnapshotLayer::ReadSnapshot(uint64_t offset, uint64_t length, void* out,
                                        storage::IoCallback done) {
  URSA_CHECK(snapshot_active_);
  URSA_CHECK_LE(offset + length, live_size_);
  // Split into grain-bounded pieces: preserved grains read from the COW
  // area, untouched grains read from the live disk.
  struct ReadState {
    size_t remaining = 0;
    Status status;
    storage::IoCallback done;
  };
  auto state = std::make_shared<ReadState>();
  state->done = std::move(done);
  std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> pieces;  // (src, dst_delta, len)
  uint64_t pos = offset;
  while (pos < offset + length) {
    uint64_t g = pos / kGrainSize;
    uint64_t in_grain = pos % kGrainSize;
    uint64_t run = std::min(kGrainSize - in_grain, offset + length - pos);
    auto it = grains_.find(g);
    uint64_t src = it == grains_.end() ? pos : CowOffset(it->second) + in_grain;
    pieces.emplace_back(src, pos - offset, run);
    pos += run;
  }
  state->remaining = pieces.size();
  for (const auto& [src, delta, run] : pieces) {
    void* dst = out == nullptr ? nullptr : static_cast<uint8_t*>(out) + delta;
    below_->Read(src, run, dst, [state](const Status& s) {
      if (!s.ok() && state->status.ok()) {
        state->status = s;
      }
      if (--state->remaining == 0) {
        state->done(state->status);
      }
    });
  }
}

}  // namespace ursa::client

#endif  // URSA_CLIENT_SNAPSHOT_LAYER_H_
