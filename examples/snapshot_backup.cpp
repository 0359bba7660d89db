// Snapshot & backup demo: the §5.1 pluggable-module stack in action.
//
// A "database" writes continuously to its virtual disk; we take a
// copy-on-write snapshot mid-stream, keep writing, then "back up" the frozen
// image and verify it reflects exactly the moment of the snapshot — while
// the live disk kept moving. The stack also includes the client-side cache,
// so repeat reads of hot blocks never touch the network.
#include <cstdio>
#include <vector>

#include "src/client/block_layer.h"
#include "src/client/caching_layer.h"
#include "src/client/snapshot_layer.h"
#include "src/common/rng.h"
#include "src/core/system.h"

using namespace ursa;

namespace {

bool SyncWrite(sim::Simulator& sim, client::BlockLayer* layer, uint64_t offset,
               const std::vector<uint8_t>& data) {
  Status status = Internal("pending");
  layer->Write(offset, data.size(), Buffer::CopyOf(data.data(), data.size()),
               [&](const Status& s) { status = s; });
  sim.RunUntil(sim.Now() + sec(2));
  return status.ok();
}

std::vector<uint8_t> Pattern(size_t n, int tag) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(tag * 37 + i);
  }
  return v;
}

}  // namespace

int main() {
  std::printf("== Snapshot & backup on the client module stack ==\n\n");
  core::TestBed bed(core::UrsaHybridProfile(3));
  sim::Simulator& sim = bed.sim();

  // Stack: Snapshot -> Cache -> VirtualDisk (decorator pattern, §5.1).
  client::VirtualDisk* disk = bed.NewDisk(512 * kMiB);
  client::VirtualDiskLayer base(disk);
  client::CachingLayer cache(&base, /*capacity_lines=*/1024);
  client::SnapshotLayer snap(&cache);
  std::printf("guest-visible disk: %llu MiB (upper half reserved for COW grains)\n\n",
              static_cast<unsigned long long>(snap.size() / kMiB));

  // Phase 1: the "database" lays down its initial state.
  constexpr int kRecords = 32;
  std::vector<std::vector<uint8_t>> generation1;
  for (int r = 0; r < kRecords; ++r) {
    generation1.push_back(Pattern(16 * kKiB, r));
    if (!SyncWrite(sim, &snap, r * 64 * kKiB, generation1.back())) {
      std::printf("initial write failed\n");
      return 1;
    }
  }
  std::printf("[t=%.2fs] wrote %d records (generation 1)\n", ToSec(sim.Now()), kRecords);

  // Phase 2: snapshot, then keep writing.
  snap.TakeSnapshot();
  std::printf("[t=%.2fs] snapshot taken\n", ToSec(sim.Now()));
  Rng rng(5);
  int updated = 0;
  for (int r = 0; r < kRecords; ++r) {
    if (rng.Bernoulli(0.5)) {
      if (!SyncWrite(sim, &snap, r * 64 * kKiB, Pattern(16 * kKiB, 1000 + r))) {
        return 1;
      }
      ++updated;
    }
  }
  std::printf("[t=%.2fs] updated %d records after the snapshot (%zu grains COW-preserved)\n",
              ToSec(sim.Now()), updated, snap.preserved_grains());

  // Phase 3: "back up" the frozen image and verify generation 1.
  int verified = 0;
  for (int r = 0; r < kRecords; ++r) {
    std::vector<uint8_t> frozen(16 * kKiB, 0);
    Status status = Internal("pending");
    snap.ReadSnapshot(r * 64 * kKiB, frozen.size(), frozen.data(),
                      [&](const Status& s) { status = s; });
    sim.RunUntil(sim.Now() + sec(2));
    if (status.ok() && frozen == generation1[r]) {
      ++verified;
    }
  }
  std::printf("[t=%.2fs] backup verified %d/%d records against generation 1\n",
              ToSec(sim.Now()), verified, kRecords);

  snap.DeleteSnapshot();
  std::printf("[t=%.2fs] snapshot deleted, COW space released\n", ToSec(sim.Now()));
  std::printf("\nclient cache: %llu hits / %llu misses over the run\n",
              static_cast<unsigned long long>(cache.hits()),
              static_cast<unsigned long long>(cache.misses()));
  std::printf("demo %s\n", verified == kRecords ? "PASSED" : "FAILED");
  return verified == kRecords ? 0 : 1;
}
