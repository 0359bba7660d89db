// Tests for the §5.1 pluggable client modules: the BlockLayer decorator
// interface, client-side caching, and copy-on-write snapshots — individually
// and stacked.
#include <gtest/gtest.h>

#include <memory>

#include "src/client/block_layer.h"
#include "src/client/caching_layer.h"
#include "src/client/snapshot_layer.h"
#include "src/common/rng.h"
#include "test_util.h"

namespace ursa::client {
namespace {

class LayersTest : public ::testing::Test {
 protected:
  LayersTest() : cluster_(&sim_, test::SmallClusterConfig()) {
    disk_id_ = *cluster_.master().CreateDisk("d", 8 * kMiB, 3, 1);
    disk_ = std::make_unique<VirtualDisk>(&cluster_, cluster_.AddClientMachine(), 1,
                                          VirtualDiskClientOptions{});
    EXPECT_TRUE(disk_->Open(disk_id_).ok());
    base_ = std::make_unique<VirtualDiskLayer>(disk_.get());
  }

  Status WriteSync(BlockLayer* layer, uint64_t offset, const std::vector<uint8_t>& data) {
    Status out = Internal("pending");
    layer->Write(offset, data.size(), test::Payload(data), [&](const Status& s) { out = s; });
    sim_.RunUntil(sim_.Now() + sec(5));
    return out;
  }

  std::vector<uint8_t> ReadSync(BlockLayer* layer, uint64_t offset, uint64_t length) {
    std::vector<uint8_t> out(length, 0xCD);
    Status status = Internal("pending");
    layer->Read(offset, length, out.data(), [&](const Status& s) { status = s; });
    sim_.RunUntil(sim_.Now() + sec(5));
    EXPECT_TRUE(status.ok()) << status.ToString();
    return out;
  }

  // Writes 4 KiB at offset 0 through `top` and expects the primary
  // replica's device to hold the caller's very Buffer: a zero-copy device
  // read of the range returns the caller's bytes by address.
  void ExpectDeviceKeepsCallersBuffer(BlockLayer* top) {
    Buffer payload = test::Payload(test::Pattern(4096, 40));
    Status status = Internal("pending");
    top->Write(0, payload.size(), payload, [&](const Status& s) { status = s; });
    sim_.RunUntil(sim_.Now() + sec(5));
    ASSERT_TRUE(status.ok()) << status.ToString();
    const cluster::ChunkLayout& layout = (*cluster_.master().GetDisk(disk_id_))->chunks[0];
    storage::ChunkStore* store =
        cluster_.server(layout.replicas[disk_->chunk_primary(0)].server)->store();
    BufferView stored;
    storage::IoRequest read =
        test::MakeRead(store->SlotOffset(layout.chunk), 4096, nullptr, [](const Status&) {});
    read.out_view = &stored;
    store->device()->Submit(std::move(read));
    sim_.RunUntil(sim_.Now() + msec(1));
    ASSERT_EQ(stored.size(), 4096u);
    EXPECT_EQ(stored.data(), payload.data());
  }

  sim::Simulator sim_;
  cluster::Cluster cluster_;
  cluster::DiskId disk_id_ = 0;
  std::unique_ptr<VirtualDisk> disk_;
  std::unique_ptr<VirtualDiskLayer> base_;
};

TEST_F(LayersTest, VirtualDiskLayerPassesThrough) {
  auto data = test::Pattern(8192, 1);
  ASSERT_TRUE(WriteSync(base_.get(), 4096, data).ok());
  EXPECT_EQ(ReadSync(base_.get(), 4096, 8192), data);
  EXPECT_EQ(base_->size(), 8 * kMiB);
}

TEST_F(LayersTest, CacheServesRepeatReadsLocally) {
  CachingLayer cache(base_.get(), 64);
  auto data = test::Pattern(4096, 2);
  ASSERT_TRUE(WriteSync(&cache, 0, data).ok());

  uint64_t reads_before = disk_->stats().reads;
  // First read after the (write-through) fill hits the cache...
  EXPECT_EQ(ReadSync(&cache, 0, 4096), data);
  EXPECT_EQ(ReadSync(&cache, 0, 4096), data);
  EXPECT_EQ(disk_->stats().reads, reads_before);  // no network reads
  EXPECT_GE(cache.hits(), 2u);
}

TEST_F(LayersTest, CacheMissFillsAndThenHits) {
  CachingLayer cache(base_.get(), 64);
  auto data = test::Pattern(8192, 3);
  ASSERT_TRUE(WriteSync(base_.get(), 16384, data).ok());  // written BELOW the cache

  EXPECT_EQ(ReadSync(&cache, 16384, 8192), data);  // miss, fills
  EXPECT_EQ(cache.misses(), 1u);
  uint64_t reads_before = disk_->stats().reads;
  EXPECT_EQ(ReadSync(&cache, 16384, 8192), data);  // hit
  EXPECT_EQ(disk_->stats().reads, reads_before);
}

TEST_F(LayersTest, CacheWriteThroughKeepsDiskCurrent) {
  CachingLayer cache(base_.get(), 64);
  auto data = test::Pattern(4096, 4);
  ASSERT_TRUE(WriteSync(&cache, 0, data).ok());
  // Bypass the cache: the disk itself has the bytes.
  EXPECT_EQ(ReadSync(base_.get(), 0, 4096), data);
}

TEST_F(LayersTest, CacheEvictsAtCapacity) {
  CachingLayer cache(base_.get(), 4);
  for (int i = 0; i < 8; ++i) {
    auto data = test::Pattern(4096, 10 + i);
    ASSERT_TRUE(WriteSync(&cache, i * 4096, data).ok());
  }
  EXPECT_LE(cache.cached_lines(), 4u);
  // Evicted lines still read correctly (from below).
  EXPECT_EQ(ReadSync(&cache, 0, 4096), test::Pattern(4096, 10));
}

TEST_F(LayersTest, CacheUnalignedWritesInvalidateEdges) {
  CachingLayer cache(base_.get(), 64);
  auto base_data = test::Pattern(8192, 5);
  ASSERT_TRUE(WriteSync(&cache, 0, base_data).ok());
  // 512-byte write straddling into line 0 invalidates it in the cache.
  auto patch = test::Pattern(512, 6);
  ASSERT_TRUE(WriteSync(&cache, 512, patch).ok());
  auto got = ReadSync(&cache, 0, 8192);
  std::vector<uint8_t> expect = base_data;
  std::copy(patch.begin(), patch.end(), expect.begin() + 512);
  EXPECT_EQ(got, expect);
}

// A write through a decorator reaches the devices without a copy.
TEST_F(LayersTest, CacheForwardsTheCallersBufferToTheDevice) {
  CachingLayer cache(base_.get(), 64);
  ExpectDeviceKeepsCallersBuffer(&cache);
}

// The same through a snapshot's copy-on-write path: preserving the grain
// first does not make the guest's write a copy.
TEST_F(LayersTest, SnapshotForwardsTheCallersBufferToTheDevice) {
  SnapshotLayer snap(base_.get());
  snap.TakeSnapshot();
  ExpectDeviceKeepsCallersBuffer(&snap);
  EXPECT_EQ(snap.preserved_grains(), 1u);
}

TEST_F(LayersTest, SnapshotPreservesFrozenImage) {
  SnapshotLayer snap(base_.get());  // live half = 4 MiB
  auto v1 = test::Pattern(64 * kKiB, 7);
  ASSERT_TRUE(WriteSync(&snap, 0, v1).ok());

  snap.TakeSnapshot();
  auto v2 = test::Pattern(64 * kKiB, 8);
  ASSERT_TRUE(WriteSync(&snap, 0, v2).ok());
  EXPECT_EQ(snap.preserved_grains(), 1u);

  // Live sees v2; the snapshot still sees v1.
  EXPECT_EQ(ReadSync(&snap, 0, 64 * kKiB), v2);
  std::vector<uint8_t> frozen(64 * kKiB, 0);
  Status status = Internal("pending");
  snap.ReadSnapshot(0, 64 * kKiB, frozen.data(), [&](const Status& s) { status = s; });
  sim_.RunUntil(sim_.Now() + sec(5));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(frozen, v1);
}

TEST_F(LayersTest, SnapshotUntouchedGrainsReadLive) {
  SnapshotLayer snap(base_.get());
  auto data = test::Pattern(16 * kKiB, 9);
  ASSERT_TRUE(WriteSync(&snap, 128 * kKiB, data).ok());
  snap.TakeSnapshot();
  // No writes since the snapshot: the frozen image equals the live image.
  std::vector<uint8_t> frozen(16 * kKiB, 0);
  Status status = Internal("pending");
  snap.ReadSnapshot(128 * kKiB, 16 * kKiB, frozen.data(),
                    [&](const Status& s) { status = s; });
  sim_.RunUntil(sim_.Now() + sec(5));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(frozen, data);
  EXPECT_EQ(snap.preserved_grains(), 0u);
}

TEST_F(LayersTest, SnapshotGrainPreservedOnceAcrossManyWrites) {
  SnapshotLayer snap(base_.get());
  auto v0 = test::Pattern(4096, 20);
  ASSERT_TRUE(WriteSync(&snap, 0, v0).ok());
  snap.TakeSnapshot();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(WriteSync(&snap, 0, test::Pattern(4096, 21 + i)).ok());
  }
  EXPECT_EQ(snap.preserved_grains(), 1u);  // COW'd only on the first overwrite
  std::vector<uint8_t> frozen(4096, 0);
  Status status = Internal("pending");
  snap.ReadSnapshot(0, 4096, frozen.data(), [&](const Status& s) { status = s; });
  sim_.RunUntil(sim_.Now() + sec(5));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(frozen, v0);
}

TEST_F(LayersTest, DeleteSnapshotReleasesCow) {
  SnapshotLayer snap(base_.get());
  snap.TakeSnapshot();
  ASSERT_TRUE(WriteSync(&snap, 0, test::Pattern(4096, 30)).ok());
  EXPECT_GT(snap.preserved_grains(), 0u);
  snap.DeleteSnapshot();
  EXPECT_EQ(snap.preserved_grains(), 0u);
  EXPECT_FALSE(snap.snapshot_active());
  // A fresh snapshot starts clean.
  snap.TakeSnapshot();
  EXPECT_EQ(snap.preserved_grains(), 0u);
}

TEST_F(LayersTest, FullStackSnapshotOverCacheOverDisk) {
  // Snapshot -> Cache -> VirtualDisk, the decorator composition of §5.1.
  CachingLayer cache(base_.get(), 256);
  SnapshotLayer snap(&cache);

  Rng rng(31);
  std::vector<uint8_t> shadow(256 * kKiB, 0);
  for (int i = 0; i < 10; ++i) {
    uint64_t len = rng.UniformRange(1, 16) * 4096;
    uint64_t offset = rng.Uniform((256 * kKiB - len) / 4096) * 4096;
    auto data = test::Pattern(len, 40 + i);
    ASSERT_TRUE(WriteSync(&snap, offset, data).ok());
    std::copy(data.begin(), data.end(), shadow.begin() + offset);
  }
  snap.TakeSnapshot();
  std::vector<uint8_t> at_snapshot = shadow;
  for (int i = 0; i < 10; ++i) {
    uint64_t len = rng.UniformRange(1, 16) * 4096;
    uint64_t offset = rng.Uniform((256 * kKiB - len) / 4096) * 4096;
    auto data = test::Pattern(len, 60 + i);
    ASSERT_TRUE(WriteSync(&snap, offset, data).ok());
    std::copy(data.begin(), data.end(), shadow.begin() + offset);
  }

  EXPECT_EQ(ReadSync(&snap, 0, 256 * kKiB), shadow);
  std::vector<uint8_t> frozen(256 * kKiB, 0);
  Status status = Internal("pending");
  snap.ReadSnapshot(0, 256 * kKiB, frozen.data(), [&](const Status& s) { status = s; });
  sim_.RunUntil(sim_.Now() + sec(10));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(frozen, at_snapshot);
}

}  // namespace
}  // namespace ursa::client
