// End-to-end VirtualDisk client tests: byte-accurate I/O through striping,
// client-directed vs primary-driven writes, per-chunk write ordering,
// read-your-writes across chunk boundaries, and lease keeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/client/lease.h"
#include "src/common/rng.h"
#include "src/client/virtual_disk.h"
#include "src/core/system.h"
#include "test_util.h"

namespace ursa::client {
namespace {

class ClientTest : public ::testing::Test {
 protected:
  void Build(cluster::StorageMode mode = cluster::StorageMode::kHybrid, int stripe_group = 2) {
    cluster_ = std::make_unique<cluster::Cluster>(&sim_, test::SmallClusterConfig(mode));
    disk_id_ = *cluster_->master().CreateDisk("d", 8 * kMiB, 3, stripe_group);
    host_ = cluster_->AddClientMachine();
    disk_ = std::make_unique<VirtualDisk>(cluster_.get(), host_, 1, VirtualDiskClientOptions{});
    ASSERT_TRUE(disk_->Open(disk_id_).ok());
  }

  Status WriteSync(uint64_t offset, const std::vector<uint8_t>& data) {
    Status out = Internal("pending");
    disk_->Write(offset, data.size(), test::Payload(data), [&](const Status& s) { out = s; });
    sim_.RunUntil(sim_.Now() + sec(2));
    return out;
  }

  std::vector<uint8_t> ReadSync(uint64_t offset, uint64_t length, Status* status_out = nullptr) {
    std::vector<uint8_t> out(length, 0xCD);
    Status status = Internal("pending");
    disk_->Read(offset, length, out.data(), [&](const Status& s) { status = s; });
    sim_.RunUntil(sim_.Now() + sec(2));
    if (status_out != nullptr) {
      *status_out = status;
    } else {
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    return out;
  }

  // Issues one op whose callback bumps its own counter and stores its status.
  struct Tracked {
    int calls = 0;
    Status status = Internal("pending");
  };
  void TrackedWrite(uint64_t offset, const std::vector<uint8_t>& data, Tracked* t) {
    disk_->Write(offset, data.size(), test::Payload(data), [t](const Status& s) {
      ++t->calls;
      t->status = s;
    });
  }
  void TrackedRead(uint64_t offset, std::vector<uint8_t>* out, Tracked* t) {
    disk_->Read(offset, out->size(), out->data(), [t](const Status& s) {
      ++t->calls;
      t->status = s;
    });
  }

  sim::Simulator sim_;
  cluster::Machine* host_ = nullptr;
  std::unique_ptr<cluster::Cluster> cluster_;
  cluster::DiskId disk_id_ = 0;
  std::unique_ptr<VirtualDisk> disk_;
};

TEST_F(ClientTest, TinyWriteRoundTrip) {
  Build();
  auto data = test::Pattern(4096, 1);  // <= Tc: client-directed
  ASSERT_TRUE(WriteSync(0, data).ok());
  EXPECT_EQ(ReadSync(0, 4096), data);
}

TEST_F(ClientTest, MediumWriteRoundTrip) {
  Build();
  auto data = test::Pattern(32 * kKiB, 2);  // Tc < len <= Tj: primary-driven, journaled
  ASSERT_TRUE(WriteSync(64 * kKiB, data).ok());
  EXPECT_EQ(ReadSync(64 * kKiB, data.size()), data);
}

TEST_F(ClientTest, LargeWriteRoundTrip) {
  Build();
  auto data = test::Pattern(512 * kKiB, 3);  // > Tj: bypasses journals, striped
  ASSERT_TRUE(WriteSync(1 * kMiB, data).ok());
  EXPECT_EQ(ReadSync(1 * kMiB, data.size()), data);
}

TEST_F(ClientTest, StripingSplitsAcrossChunks) {
  Build(cluster::StorageMode::kHybrid, /*stripe_group=*/2);
  // A 512 KB write at offset 0 interleaves across 2 chunks at 128 KB units;
  // verify every 128 KB unit reads back correctly (mapping is consistent).
  auto data = test::Pattern(512 * kKiB, 4);
  ASSERT_TRUE(WriteSync(0, data).ok());
  for (uint64_t u = 0; u < 4; ++u) {
    auto piece = ReadSync(u * 128 * kKiB, 128 * kKiB);
    EXPECT_TRUE(std::equal(piece.begin(), piece.end(), data.begin() + u * 128 * kKiB))
        << "unit " << u;
  }
}

TEST_F(ClientTest, UnstripedDiskStillWorks) {
  Build(cluster::StorageMode::kHybrid, /*stripe_group=*/1);
  auto data = test::Pattern(256 * kKiB, 5);
  ASSERT_TRUE(WriteSync(3 * kMiB + 4096, data).ok());
  EXPECT_EQ(ReadSync(3 * kMiB + 4096, data.size()), data);
}

TEST_F(ClientTest, OverwriteVisibility) {
  Build();
  auto v1 = test::Pattern(8192, 6);
  auto v2 = test::Pattern(8192, 7);
  ASSERT_TRUE(WriteSync(16384, v1).ok());
  ASSERT_TRUE(WriteSync(16384, v2).ok());
  EXPECT_EQ(ReadSync(16384, 8192), v2);
}

TEST_F(ClientTest, PartialOverwriteMergesCorrectly) {
  Build();
  auto base = test::Pattern(64 * kKiB, 8);
  ASSERT_TRUE(WriteSync(0, base).ok());
  auto patch = test::Pattern(4096, 9);
  ASSERT_TRUE(WriteSync(12288, patch).ok());
  auto got = ReadSync(0, 64 * kKiB);
  std::vector<uint8_t> expect = base;
  std::copy(patch.begin(), patch.end(), expect.begin() + 12288);
  EXPECT_EQ(got, expect);
}

TEST_F(ClientTest, ManySmallWritesPipelined) {
  Build();
  // 64 concurrent 4K writes to distinct offsets; all must land.
  int completed = 0;
  std::vector<std::vector<uint8_t>> buffers;
  for (int i = 0; i < 64; ++i) {
    buffers.push_back(test::Pattern(4096, 100 + i));
  }
  for (int i = 0; i < 64; ++i) {
    disk_->Write(i * 4096, 4096, test::Payload(buffers[i]), [&](const Status& s) {
      EXPECT_TRUE(s.ok());
      ++completed;
    });
  }
  sim_.RunUntil(sim_.Now() + sec(5));
  EXPECT_EQ(completed, 64);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(ReadSync(i * 4096, 4096), buffers[i]) << i;
  }
}

TEST_F(ClientTest, WritesToSameChunkAreOrdered) {
  Build();
  // Two overlapping writes issued back-to-back: the second must win because
  // per-chunk writes are version-ordered.
  auto v1 = test::Pattern(4096, 20);
  auto v2 = test::Pattern(4096, 21);
  int completed = 0;
  disk_->Write(0, 4096, test::Payload(v1), [&](const Status& s) {
    EXPECT_TRUE(s.ok());
    ++completed;
  });
  disk_->Write(0, 4096, test::Payload(v2), [&](const Status& s) {
    EXPECT_TRUE(s.ok());
    ++completed;
  });
  sim_.RunUntil(sim_.Now() + sec(2));
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(ReadSync(0, 4096), v2);
}

TEST_F(ClientTest, SsdOnlyModeRoundTrip) {
  Build(cluster::StorageMode::kSsdOnly);
  auto data = test::Pattern(16 * kKiB, 22);
  ASSERT_TRUE(WriteSync(2 * kMiB, data).ok());
  EXPECT_EQ(ReadSync(2 * kMiB, data.size()), data);
}

TEST_F(ClientTest, HddOnlyModeRoundTrip) {
  Build(cluster::StorageMode::kHddOnly);
  auto data = test::Pattern(16 * kKiB, 23);
  ASSERT_TRUE(WriteSync(2 * kMiB, data).ok());
  EXPECT_EQ(ReadSync(2 * kMiB, data.size()), data);
}

TEST_F(ClientTest, SecondClientCannotOpenLeasedDisk) {
  Build();
  VirtualDisk other(cluster_.get(), cluster_->AddClientMachine(), 2,
                    VirtualDiskClientOptions{});
  EXPECT_EQ(other.Open(disk_id_).code(), StatusCode::kUnavailable);
}

TEST_F(ClientTest, LeaseKeeperMaintainsLease) {
  Build();
  cluster_->master().set_lease_term(sec(5));
  LeaseKeeper keeper(&sim_, &cluster_->master(), disk_id_, disk_->client_id(), sec(2));
  keeper.Start();
  sim_.RunUntil(sim_.Now() + sec(20));
  keeper.Stop();
  EXPECT_GE(keeper.renewals(), 8u);
  EXPECT_TRUE(keeper.healthy());
  // Lease held throughout: another client cannot sneak in.
  VirtualDisk other(cluster_.get(), cluster_->AddClientMachine(), 3,
                    VirtualDiskClientOptions{});
  EXPECT_EQ(other.Open(disk_id_).code(), StatusCode::kUnavailable);
}

TEST_F(ClientTest, StatsAreRecorded) {
  Build();
  auto data = test::Pattern(4096, 30);
  ASSERT_TRUE(WriteSync(0, data).ok());
  ReadSync(0, 4096);
  EXPECT_EQ(disk_->stats().writes, 1u);
  EXPECT_EQ(disk_->stats().reads, 1u);
  EXPECT_EQ(disk_->stats().write_latency_us.count(), 1u);
  EXPECT_EQ(disk_->stats().read_latency_us.count(), 1u);
  EXPECT_GT(disk_->stats().read_latency_us.Mean(), 0);
  EXPECT_GT(disk_->loop_busy_time(), 0);
}

TEST_F(ClientTest, RandomizedDifferentialAgainstShadowBuffer) {
  Build();
  // Shadow model: a flat byte array mirroring every committed write.
  constexpr uint64_t kSpan = 2 * kMiB;
  std::vector<uint8_t> shadow(kSpan, 0);
  ursa::Rng rng(99);
  for (int step = 0; step < 60; ++step) {
    uint64_t offset = rng.Uniform(kSpan / 512 - 64) * 512;
    uint64_t length = rng.UniformRange(1, 64) * 512;
    if (rng.Bernoulli(0.6)) {
      auto data = test::Pattern(length, 1000 + step);
      ASSERT_TRUE(WriteSync(offset, data).ok());
      std::copy(data.begin(), data.end(), shadow.begin() + offset);
    } else {
      auto got = ReadSync(offset, length);
      std::vector<uint8_t> expect(shadow.begin() + offset, shadow.begin() + offset + length);
      ASSERT_EQ(got, expect) << "step " << step << " offset " << offset;
    }
  }
}

// ---- Op-record lifecycle: every user callback fires exactly once and no
// pooled record outlives its op, whatever path the op took. ----

TEST_F(ClientTest, RecordsDrainAfterOpSplitAcrossStripeGroup) {
  Build(cluster::StorageMode::kHybrid, /*stripe_group=*/2);
  // 1 MiB at 256 KiB crosses three 512 KiB stripe units: chunk 0, chunk 1,
  // then chunk 0 again, so one op queues two writes on one chunk.
  auto data = test::Pattern(1 * kMiB, 40);
  Tracked w;
  TrackedWrite(256 * kKiB, data, &w);
  EXPECT_GT(disk_->live_records(), 1u);
  sim_.RunUntil(sim_.Now() + sec(2));
  EXPECT_EQ(w.calls, 1);
  EXPECT_TRUE(w.status.ok()) << w.status.ToString();
  EXPECT_EQ(disk_->live_records(), 0u);

  std::vector<uint8_t> back(data.size());
  Tracked r;
  TrackedRead(256 * kKiB, &back, &r);
  sim_.RunUntil(sim_.Now() + sec(2));
  EXPECT_EQ(r.calls, 1);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(back, data);
  EXPECT_EQ(disk_->live_records(), 0u);
}

TEST_F(ClientTest, RecordsDrainAfterReadRetriedPastReplicaTimeout) {
  Build();
  auto data = test::Pattern(4096, 41);
  ASSERT_TRUE(WriteSync(0, data).ok());
  // Silence the chunk's primary: the read times out on it (twice, through
  // the switch hysteresis) and then succeeds on a backup.
  const cluster::DiskMeta* meta = *cluster_->master().GetDisk(disk_id_);
  const cluster::ChunkLayout& layout = meta->chunks[0];
  cluster_->CrashServer(layout.replicas[disk_->chunk_primary(0)].server);

  std::vector<uint8_t> back(data.size());
  Tracked r;
  TrackedRead(0, &back, &r);
  sim_.RunUntil(sim_.Now() + sec(10));
  EXPECT_EQ(r.calls, 1);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(back, data);
  EXPECT_GE(disk_->stats().timeouts, 1u);
  EXPECT_GE(disk_->stats().retries, 1u);
  EXPECT_EQ(disk_->live_records(), 0u);
}

// A read whose primary dies with the request still in its (slow) device
// completes on a backup while that device still holds the first request.
// The client pins nothing for the late reply: the callback, and whatever it
// owns, is released as soon as it has run, and the caller's buffer, reused
// from then on, never sees the late reply's bytes.
TEST_F(ClientTest, LateServerReadNeverOutlivesCallerBuffer) {
  Build();
  auto data = test::Pattern(4096, 45);
  ASSERT_TRUE(WriteSync(0, data).ok());
  const cluster::DiskMeta* meta = *cluster_->master().GetDisk(disk_id_);
  const cluster::ServerId primary = meta->chunks[0].replicas[disk_->chunk_primary(0)].server;
  cluster_->server(primary)->store()->device()->SetFault(storage::DeviceFault{sec(3), false});

  std::vector<uint8_t> back(data.size());
  auto owned = std::make_shared<int>(0);
  std::weak_ptr<int> watch = owned;
  Tracked r;
  disk_->Read(0, back.size(), back.data(), [&, owned = std::move(owned)](const Status& s) {
    ++r.calls;
    r.status = s;
    EXPECT_EQ(back, data);
    std::fill(back.begin(), back.end(), uint8_t{0x5A});  // reused by the caller
  });
  sim_.RunUntil(sim_.Now() + msec(100));
  cluster_->CrashServer(primary);  // the accepted read stays in the device
  sim_.RunUntil(sim_.Now() + sec(2));
  EXPECT_EQ(r.calls, 1);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_GE(disk_->stats().timeouts, 1u);
  EXPECT_EQ(disk_->live_records(), 0u);
  EXPECT_TRUE(watch.expired());  // nothing keeps the callback for the slow device

  sim_.RunUntil(sim_.Now() + sec(2));  // the slow device's read lands
  EXPECT_EQ(r.calls, 1);
  EXPECT_EQ(back, std::vector<uint8_t>(data.size(), 0x5A));
}

TEST_F(ClientTest, RecordsDrainAfterDuplicatedReplicationReplies) {
  Build();
  // Every message from a server to this client arrives twice, and the last
  // replica's replies come 50 ms late: the write must wait for that replica
  // rather than count another replica's duplicate ack in its place.
  net::LinkChaosRule dup;
  dup.dup_prob = 1.0;
  for (size_t id = 0; id < cluster_->num_servers(); ++id) {
    cluster_->transport().SetLinkChaos(cluster_->server(id)->node(), host_->node(), dup);
  }
  const cluster::DiskMeta* meta = *cluster_->master().GetDisk(disk_id_);
  net::LinkChaosRule late = dup;
  late.extra_delay = msec(50);
  cluster_->transport().SetLinkChaos(meta->chunks[0].replicas[2].node, host_->node(), late);
  auto data = test::Pattern(4096, 42);  // <= Tc: client-directed, one leg per replica
  Tracked w;
  const Nanos issued = sim_.Now();
  Nanos acked = 0;
  disk_->Write(8192, data.size(), test::Payload(data), [&](const Status& s) {
    ++w.calls;
    w.status = s;
    acked = sim_.Now();
  });
  sim_.RunUntil(sim_.Now() + sec(2));
  EXPECT_EQ(w.calls, 1);
  EXPECT_TRUE(w.status.ok()) << w.status.ToString();
  EXPECT_GE(acked - issued, msec(50));
  EXPECT_GE(cluster_->transport().chaos_counters().duplicated, 3u);
  EXPECT_EQ(disk_->stats().retries, 0u);
  EXPECT_EQ(disk_->chunk_version(0), 1u);  // one commit, counted once
  EXPECT_EQ(disk_->live_records(), 0u);

  std::vector<uint8_t> back(data.size());
  Tracked r;
  TrackedRead(8192, &back, &r);
  sim_.RunUntil(sim_.Now() + sec(2));
  EXPECT_EQ(r.calls, 1);
  EXPECT_EQ(back, data);
  EXPECT_EQ(disk_->live_records(), 0u);
}

TEST_F(ClientTest, RecordsDrainAfterOpsPausedAcrossUpgradeAndThrottle) {
  Build();
  auto a = test::Pattern(4096, 43);
  auto b = test::Pattern(64 * kKiB, 44);
  Tracked before;
  TrackedWrite(0, a, &before);  // in flight when the upgrade starts
  bool upgraded = false;
  disk_->Upgrade("v2", msec(5), [&]() { upgraded = true; });
  Tracked paused_write;
  TrackedWrite(1 * kMiB, b, &paused_write);
  std::vector<uint8_t> back(a.size());
  Tracked paused_read;
  TrackedRead(0, &back, &paused_read);
  EXPECT_GT(disk_->live_records(), 0u);
  sim_.RunUntil(sim_.Now() + sec(2));
  EXPECT_TRUE(upgraded);
  EXPECT_EQ(disk_->software_version(), "v2");
  for (const Tracked* t : {&before, &paused_write, &paused_read}) {
    EXPECT_EQ(t->calls, 1);
    EXPECT_TRUE(t->status.ok()) << t->status.ToString();
  }
  EXPECT_EQ(back, a);
  EXPECT_EQ(disk_->live_records(), 0u);

  // Throttled writes wait in their records and re-enter after the delay
  // (the bucket's burst is 32 writes).
  disk_->SetWriteRateLimit(100);
  std::vector<Tracked> throttled(40);
  for (size_t i = 0; i < throttled.size(); ++i) {
    TrackedWrite(i * 4096, a, &throttled[i]);
  }
  sim_.RunUntil(sim_.Now() + sec(2));
  EXPECT_GE(disk_->stats().throttled_writes, 1u);
  for (const Tracked& t : throttled) {
    EXPECT_EQ(t.calls, 1);
    EXPECT_TRUE(t.status.ok()) << t.status.ToString();
  }
  EXPECT_EQ(disk_->live_records(), 0u);
}

}  // namespace
}  // namespace ursa::client
