// Tests for the chunk server's replication protocol (§4.2.1): version/view
// checks, primary-driven replication (Fig. 5), duplicate handling, the
// hybrid fault model's majority commit, and crash silence.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "counting_new.h"
#include "src/client/virtual_disk.h"
#include "src/cluster/cluster.h"
#include "src/common/crc32.h"
#include "src/journal/journal_record.h"
#include "src/scrub/checksum_store.h"
#include "src/tier/heat_tracker.h"
#include "test_util.h"

namespace ursa::cluster {
namespace {

class ChunkServerTest : public ::testing::Test {
 protected:
  ChunkServerTest() : cluster_(&sim_, test::SmallClusterConfig()) {
    // Allocate one chunk across three machines: primary on machine 0's SSD,
    // backups on machine 1 and 2 HDD servers.
    Result<DiskId> disk = cluster_.master().CreateDisk("d", 1 * kMiB, 3, 1);
    EXPECT_TRUE(disk.ok());
    const DiskMeta* meta = *cluster_.master().GetDisk(*disk);
    layout_ = meta->chunks[0];
    primary_ = cluster_.server(layout_.replicas[0].server);
    backup1_ = cluster_.server(layout_.replicas[1].server);
    backup2_ = cluster_.server(layout_.replicas[2].server);
  }

  std::vector<ReplicaRef> Backups() {
    return {layout_.replicas[1], layout_.replicas[2]};
  }

  // Runs a primary-driven write, returns (status, new_version).
  std::pair<Status, uint64_t> Write(uint64_t version, uint64_t offset = 0,
                                    uint64_t length = 4096, ursa::BufferView data = {},
                                    uint64_t view = 1) {
    Status status = Internal("no reply");
    uint64_t new_version = 0;
    primary_->HandleWrite(layout_.chunk, offset, length, view, version, data, Backups(),
                          [&](const Status& s, uint64_t v, const BufferView&) {
                            status = s;
                            new_version = v;
                          });
    sim_.RunUntil(sim_.Now() + msec(500));
    return {status, new_version};
  }

  sim::Simulator sim_;
  Cluster cluster_;
  ChunkLayout layout_;
  ChunkServer* primary_;
  ChunkServer* backup1_;
  ChunkServer* backup2_;
};

TEST_F(ChunkServerTest, WriteAdvancesVersionEverywhere) {
  auto [status, version] = Write(0);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(primary_->GetState(layout_.chunk)->version, 1u);
  EXPECT_EQ(backup1_->GetState(layout_.chunk)->version, 1u);
  EXPECT_EQ(backup2_->GetState(layout_.chunk)->version, 1u);
  EXPECT_EQ(primary_->writes_served(), 1u);
  EXPECT_EQ(backup1_->replicates_served(), 1u);
}

TEST_F(ChunkServerTest, SequentialVersionsCommit) {
  for (uint64_t v = 0; v < 5; ++v) {
    auto [status, version] = Write(v);
    ASSERT_TRUE(status.ok()) << "v=" << v;
    EXPECT_EQ(version, v + 1);
  }
}

TEST_F(ChunkServerTest, StaleViewRejected) {
  auto [status, version] = Write(0, 0, 4096, ursa::BufferView(), /*view=*/99);
  EXPECT_EQ(status.code(), StatusCode::kVersionMismatch);
  EXPECT_EQ(primary_->GetState(layout_.chunk)->version, 0u);
}

TEST_F(ChunkServerTest, VersionGapRejected) {
  auto [status, version] = Write(5);  // replica is at version 0
  EXPECT_EQ(status.code(), StatusCode::kVersionMismatch);
}

TEST_F(ChunkServerTest, RetryWithPreviousVersionSkipsLocalWrite) {
  ASSERT_TRUE(Write(0).first.ok());
  // Client retries the same write (it never saw the commit): version is one
  // behind the primary's — the primary skips its local write but still
  // forwards and acks (§4.2.1).
  auto [status, version] = Write(0);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(primary_->GetState(layout_.chunk)->version, 1u);
  EXPECT_EQ(backup1_->GetState(layout_.chunk)->version, 1u);
}

TEST_F(ChunkServerTest, MajorityCommitWhenOneBackupCrashed) {
  backup2_->SetCrashed(true);
  Nanos before = sim_.Now();
  auto [status, version] = Write(0);
  // Commits via majority (primary + backup1) after the commit timeout.
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(version, 1u);
  Nanos elapsed = sim_.Now() - before;
  EXPECT_GE(elapsed, kMajorityCommitTimeout);
  EXPECT_EQ(backup2_->GetState(layout_.chunk)->version, 0u);  // lagging
}

// Each backup counts toward the quorum once: with backup2 down and every
// backup1 -> primary message duplicated, the two copies of backup1's ack
// plus the local write must not pass for all three replicas. The write
// commits on a majority, so only once the commit timeout has run out.
TEST_F(ChunkServerTest, DuplicatedBackupAckCountsOnce) {
  backup2_->SetCrashed(true);
  net::LinkChaosRule dup;
  dup.dup_prob = 1.0;
  cluster_.transport().SetLinkChaos(backup1_->node(), primary_->node(), dup);
  Nanos before = sim_.Now();
  Nanos committed = 0;
  Status status = Internal("no reply");
  uint64_t version = 0;
  primary_->HandleWrite(layout_.chunk, 0, 4096, 1, 0, ursa::BufferView(), Backups(),
                        [&](const Status& s, uint64_t v, const BufferView&) {
                          status = s;
                          version = v;
                          committed = sim_.Now();
                        });
  sim_.RunUntil(sim_.Now() + sec(1));
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(version, 1u);
  EXPECT_GE(committed - before, kMajorityCommitTimeout);
  EXPECT_GE(cluster_.transport().chaos_counters().duplicated, 1u);
}

// An ack that lands after the commit timeout still counts: with backup2
// down and backup1's ack delayed past the timeout, the quorum is undecided
// when the timeout fires, and the write commits on a majority once the late
// ack arrives. The op then ends, so nothing stays counted in flight.
TEST_F(ChunkServerTest, BackupAckAfterCommitTimeoutStillCommits) {
  backup2_->SetCrashed(true);
  const Nanos timeout = kMajorityCommitTimeout;
  net::LinkChaosRule slow;
  slow.extra_delay = timeout + msec(100);
  cluster_.transport().SetLinkChaos(backup1_->node(), primary_->node(), slow);
  Nanos before = sim_.Now();
  Nanos committed = 0;
  Status status = Internal("no reply");
  uint64_t version = 0;
  primary_->HandleWrite(layout_.chunk, 0, 4096, 1, 0, ursa::BufferView(), Backups(),
                        [&](const Status& s, uint64_t v, const BufferView&) {
                          status = s;
                          version = v;
                          committed = sim_.Now();
                        });
  sim_.RunUntil(sim_.Now() + sec(1));
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(version, 1u);
  EXPECT_GE(committed - before, slow.extra_delay);
  EXPECT_EQ(primary_->inflight_ops(), 0u);
  EXPECT_EQ(backup1_->inflight_ops(), 0u);
}

// A primary write that never reaches a quorum ends all the same: with
// backup2 down and every primary -> backup1 message dropped, only the local
// write succeeds. The write sends no reply (the client's timeout owns the
// retry), and once its commit timeout has fired neither the op nor the heat
// write it began stays counted in flight; a chunk with an in-flight write
// never demotes.
TEST_F(ChunkServerTest, WriteThatNeverDecidesEndsItsInflightCounts) {
  tier::HeatTracker heat(&sim_, sec(10));
  primary_->SetHeatTracker(&heat);
  backup2_->SetCrashed(true);
  net::LinkChaosRule blocked;
  blocked.blocked = true;
  cluster_.transport().SetLinkChaos(primary_->node(), backup1_->node(), blocked);
  bool replied = false;
  primary_->HandleWrite(layout_.chunk, 0, 4096, 1, 0, ursa::BufferView(), Backups(),
                        [&](const Status&, uint64_t, const BufferView&) { replied = true; });
  sim_.RunUntil(sim_.Now() + sec(1));
  EXPECT_FALSE(replied);
  EXPECT_EQ(primary_->GetState(layout_.chunk)->version, 1u);  // the local write applied
  EXPECT_EQ(primary_->inflight_ops(), 0u);
  EXPECT_EQ(heat.InflightWrites(layout_.chunk), 0u);
  primary_->SetHeatTracker(nullptr);
}

// A tiered cluster torn down while a primary write is still undecided: its
// commit timeout has fired, and the replicate a stuck backup holds keeps the
// op's last reference. The backup's teardown drops it, which abandons the op
// on a primary destroyed later, after the cluster's heat tracker is gone.
// Ending the heat write there would touch freed memory (an ASan build sees it).
TEST(ChunkServerTeardownTest, UndecidedWriteOutlivesTheHeatTracker) {
  sim::Simulator sim;
  ClusterConfig config = test::SmallClusterConfig();
  config.tier.enabled = true;
  auto cluster = std::make_unique<Cluster>(&sim, config);
  Result<DiskId> disk = cluster->master().CreateDisk("d", 1 * kMiB, 3, 1);
  ASSERT_TRUE(disk.ok());
  const ChunkLayout layout = (*cluster->master().GetDisk(*disk))->chunks[0];
  // Servers are destroyed in id order: the primary is the highest id, the
  // stuck backup the lowest.
  std::vector<ReplicaRef> replicas = layout.replicas;
  std::sort(replicas.begin(), replicas.end(),
            [](const ReplicaRef& a, const ReplicaRef& b) { return a.server < b.server; });
  ChunkServer* primary = cluster->server(replicas[2].server);
  ChunkServer* stuck = cluster->server(replicas[0].server);
  cluster->server(replicas[1].server)->SetCrashed(true);
  Machine* machine = stuck->machine();
  for (int i = 0; i < machine->num_ssds(); ++i) {
    machine->ssd(i).SetFault(storage::DeviceFault{0, /*stuck=*/true});
  }
  for (int i = 0; i < machine->num_hdds(); ++i) {
    machine->hdd(i).SetFault(storage::DeviceFault{0, /*stuck=*/true});
  }
  bool replied = false;
  primary->HandleWrite(layout.chunk, 0, 4096, layout.view, 0, ursa::BufferView(),
                       {replicas[0], replicas[1]},
                       [&](const Status&, uint64_t, const BufferView&) { replied = true; });
  sim.RunUntil(sim.Now() + sec(1));
  EXPECT_FALSE(replied);
  EXPECT_EQ(primary->inflight_ops(), 1u);
  // The primary's write and the stuck backup's replicate.
  EXPECT_EQ(cluster->heat_tracker()->InflightWrites(layout.chunk), 2u);
  cluster.reset();
}

TEST_F(ChunkServerTest, NoReplyWhenMajorityUnreachable) {
  backup1_->SetCrashed(true);
  backup2_->SetCrashed(true);
  Status status = Internal("no reply");
  primary_->HandleWrite(layout_.chunk, 0, 4096, 1, 0, ursa::BufferView(), Backups(),
                        [&](const Status& s, uint64_t, const BufferView&) { status = s; });
  sim_.RunUntil(sim_.Now() + sec(1));
  // Primary alone is 1 of 3 — not a majority; the request cannot commit.
  // (The resolver returns null for crashed servers, so both legs fail fast.)
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(ChunkServerTest, CrashedPrimaryIsSilent) {
  primary_->SetCrashed(true);
  bool replied = false;
  primary_->HandleWrite(layout_.chunk, 0, 4096, 1, 0, ursa::BufferView(), Backups(),
                        [&](const Status&, uint64_t, const BufferView&) { replied = true; });
  primary_->HandleRead(layout_.chunk, 0, 4096, 1, 0,
                       [&](const Status&, uint64_t, const BufferView&) { replied = true; });
  sim_.RunUntil(sim_.Now() + sec(1));
  EXPECT_FALSE(replied);
}

TEST_F(ChunkServerTest, ReadChecksVersion) {
  ASSERT_TRUE(Write(0).first.ok());
  Status status = Internal("no reply");
  uint64_t replica_version = 0;
  // A STALE replica (version below the client's expectation) is rejected and
  // reports its actual version so the client can resync / pick another
  // replica. Expecting version 5 when the replica is at 1:
  primary_->HandleRead(layout_.chunk, 0, 4096, 1, 5,
                       [&](const Status& s, uint64_t v, const BufferView&) {
                         status = s;
                         replica_version = v;
                       });
  sim_.RunUntil(sim_.Now() + msec(100));
  EXPECT_EQ(status.code(), StatusCode::kVersionMismatch);
  EXPECT_EQ(replica_version, 1u);

  // Matching version is served.
  primary_->HandleRead(layout_.chunk, 0, 4096, 1, 1,
                       [&](const Status& s, uint64_t, const BufferView&) { status = s; });
  sim_.RunUntil(sim_.Now() + msec(100));
  EXPECT_TRUE(status.ok());

  // A replica AHEAD of the expectation is served too: the single-writer
  // client owns every newer version (§4.1), so the data is not stale.
  primary_->HandleRead(layout_.chunk, 0, 4096, 1, 0,
                       [&](const Status& s, uint64_t, const BufferView&) { status = s; });
  sim_.RunUntil(sim_.Now() + msec(100));
  EXPECT_TRUE(status.ok());
}

TEST_F(ChunkServerTest, BackupServesJournalAwareRead) {
  auto data = test::Pattern(4096, 9);
  ASSERT_TRUE(Write(0, 8192, 4096, ursa::Buffer::CopyOf(data.data(), data.size())).first.ok());
  // Read from the backup as temporary primary (§4.2.1): the data is still in
  // its journal, not yet on the HDD.
  BufferView out;
  Status status = Internal("no reply");
  backup1_->HandleRead(layout_.chunk, 8192, 4096, 1, 1,
                       [&](const Status& s, uint64_t, const BufferView& bytes) {
                         status = s;
                         out = bytes;
                       });
  sim_.RunUntil(sim_.Now() + msec(100));
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(test::Bytes(out), data);
}

TEST_F(ChunkServerTest, DuplicateReplicateAcked) {
  Status status = Internal("no reply");
  backup1_->HandleReplicate(layout_.chunk, 0, 4096, 1, 0, ursa::BufferView(),
                            [&](const Status& s, uint64_t, const BufferView&) { status = s; });
  sim_.RunUntil(sim_.Now() + msec(100));
  ASSERT_TRUE(status.ok());
  // Redelivery of the same replication (version now one behind) is acked
  // without re-execution.
  status = Internal("no reply");
  uint64_t version = 0;
  backup1_->HandleReplicate(layout_.chunk, 0, 4096, 1, 0, ursa::BufferView(),
                            [&](const Status& s, uint64_t v, const BufferView&) {
                              status = s;
                              version = v;
                            });
  sim_.RunUntil(sim_.Now() + msec(100));
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(backup1_->replicates_served(), 1u);
}

// The recovery write and the speculative-promotion write shield: ranges a
// client wrote since the shield went up are newer than the copied image and
// are skipped at apply time.
class RecoveryWriteTest : public ChunkServerTest {
 protected:
  Status RecoveryWrite(uint64_t offset, const std::vector<uint8_t>& bytes) {
    Status status = Internal("no reply");
    primary_->HandleRecoveryWrite(layout_.chunk, offset, bytes.size(), /*version=*/0,
                                  ursa::Buffer::CopyOf(bytes.data(), bytes.size()),
                                  [&](const Status& s) { status = s; });
    sim_.RunUntil(sim_.Now() + msec(100));
    return status;
  }

  std::vector<uint8_t> ReadBack(uint64_t offset, uint64_t length) {
    BufferView out;
    Status status = Internal("no reply");
    primary_->HandleRecoveryRead(layout_.chunk, offset, length,
                                 [&](const Status& s, uint64_t, const BufferView& bytes) {
                                   status = s;
                                   out = bytes;
                                 });
    sim_.RunUntil(sim_.Now() + msec(100));
    EXPECT_TRUE(status.ok()) << status.ToString();
    return test::Bytes(out);
  }

  uint64_t BytesWritten() { return primary_->store()->device()->stats().bytes_written; }

  // A client write of `length` pattern bytes at `offset` (version 0).
  std::vector<uint8_t> ClientWrite(uint64_t offset, uint64_t length) {
    std::vector<uint8_t> bytes = test::Pattern(length, 77);
    EXPECT_TRUE(Write(0, offset, length, ursa::Buffer::CopyOf(bytes.data(), length)).first.ok());
    return bytes;
  }
};

TEST_F(RecoveryWriteTest, WithoutShieldWritesTheWholePiece) {
  ClientWrite(4096, 4096);
  std::vector<uint8_t> image = test::Pattern(12288, 5);
  uint64_t written = BytesWritten();
  ASSERT_TRUE(RecoveryWrite(0, image).ok());
  EXPECT_EQ(BytesWritten() - written, image.size());
  EXPECT_EQ(ReadBack(0, image.size()), image);
}

TEST_F(RecoveryWriteTest, PartlyShieldedPieceWritesOnlyUnshieldedBytes) {
  primary_->EnableWriteShield(layout_.chunk);
  std::vector<uint8_t> client = ClientWrite(4096, 4096);
  std::vector<uint8_t> image = test::Pattern(12288, 5);
  uint64_t written = BytesWritten();
  ASSERT_TRUE(RecoveryWrite(0, image).ok());
  EXPECT_EQ(BytesWritten() - written, 8192u);
  std::vector<uint8_t> want = image;
  std::copy(client.begin(), client.end(), want.begin() + 4096);
  EXPECT_EQ(ReadBack(0, image.size()), want);
}

TEST_F(RecoveryWriteTest, FullyShieldedPieceCompletesWithoutDeviceWrite) {
  primary_->EnableWriteShield(layout_.chunk);
  std::vector<uint8_t> client = ClientWrite(4096, 4096);
  uint64_t written = BytesWritten();
  EXPECT_TRUE(RecoveryWrite(4096, test::Pattern(4096, 5)).ok());
  EXPECT_EQ(BytesWritten(), written);
  EXPECT_EQ(ReadBack(4096, 4096), client);
}

TEST_F(ChunkServerTest, VersionQueryReportsState) {
  ASSERT_TRUE(Write(0).first.ok());
  cluster::ReplicaState state;
  Status status = Internal("no reply");
  primary_->HandleVersionQuery(layout_.chunk, [&](const Status& s, cluster::ReplicaState st) {
    status = s;
    state = st;
  });
  sim_.RunUntil(sim_.Now() + msec(100));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(state.version, 1u);
  EXPECT_EQ(state.view, 1u);
}

TEST_F(ChunkServerTest, UnknownChunkReportsNotFound) {
  Status status;
  primary_->HandleRead(999999, 0, 512, 1, 0,
                       [&](const Status& s, uint64_t, const BufferView&) { status = s; });
  sim_.RunUntil(sim_.Now() + msec(100));
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(ChunkServerTest, JournalLiteTracksWrites) {
  ASSERT_TRUE(Write(0, 0, 4096).first.ok());
  ASSERT_TRUE(Write(1, 8192, 4096).first.ok());
  std::vector<Interval> ranges;
  ASSERT_TRUE(backup1_->ModifiedSince(layout_.chunk, 1, &ranges));
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (Interval{8192, 4096}));
}

// ---- Client-directed 4 KiB writes with the scrub ledger on every replica ----

// Drives the servers the way VirtualDisk's client-directed path does: every
// replica's HandleReplicate shares one payload allocation.
class ReplicatedWriteTest : public ::testing::Test {
 protected:
  explicit ReplicatedWriteTest(StorageMode mode = StorageMode::kHybrid)
      : cluster_(&sim_, test::SmallClusterConfig(mode)) {
    Result<DiskId> disk = cluster_.master().CreateDisk("d", 1 * kMiB, 3, 1);
    EXPECT_TRUE(disk.ok());
    layout_ = (*cluster_.master().GetDisk(*disk))->chunks[0];
    for (const ReplicaRef& r : layout_.replicas) {
      ledgers_.push_back(std::make_unique<scrub::ChecksumStore>(cluster_.config().chunk_size));
      cluster_.server(r.server)->SetChecksumStore(ledgers_.back().get());
    }
    std::vector<uint8_t> bytes = test::Pattern(4096, 7);
    payload_ = Buffer::CopyOf(bytes.data(), bytes.size());
  }

  // Sends write `version` -> version + 1 to every replica; returns the acks
  // once all three replied.
  int Write(uint64_t version) {
    int acks = 0;
    for (const ReplicaRef& r : layout_.replicas) {
      cluster_.server(r.server)->HandleReplicate(
          layout_.chunk, 0, 4096, layout_.view, version, payload_.View(),
          [&acks](const Status& s, uint64_t, const BufferView&) { acks += s.ok() ? 1 : 0; }, {},
          version + 1);
    }
    while (acks < 3 && sim_.Step(sim_.Now() + msec(100))) {
    }
    return acks;
  }

  sim::Simulator sim_;
  Cluster cluster_;
  ChunkLayout layout_;
  std::vector<std::unique_ptr<scrub::ChecksumStore>> ledgers_;
  Buffer payload_;
};

// The ledger on all three replicas and the record CRC on both backup
// journals share one pass over the payload, memoized with its allocation:
// besides it, the servers hash only the two 40-byte record headers.
TEST_F(ReplicatedWriteTest, PayloadIsHashedOnce) {
  const uint64_t before = Crc32cBytesHashed();
  ASSERT_EQ(Write(0), 3);
  EXPECT_EQ(Crc32cBytesHashed() - before, 4096 + 2 * journal::RecordHeader::kEncodedSize);
  for (const auto& ledger : ledgers_) {
    scrub::ChecksumStore::VerifyResult v = ledger->Verify(layout_.chunk, 0, 4096, payload_.data());
    EXPECT_TRUE(v.ok);
    EXPECT_EQ(v.sectors_verified, 8u);
  }
}

// Replicas writing through plain stores (no journal: the journal keeps a
// header Buffer per record by design), ledger on.
class ServerSteadyStateTest : public ReplicatedWriteTest {
 protected:
  ServerSteadyStateTest() : ReplicatedWriteTest(StorageMode::kSsdOnly) {}
};

// ROADMAP item 14's gate: a warm chunk server serves a replicated 4 KiB
// write without a heap allocation. Warm-up grows the op pools, queues and
// the event heap. Each server's journal-lite history is a vector that
// doubles until it holds its 65536 entries; writes 300-499 sit between the
// doublings at 256 and 512 entries, so the window sees only per-write
// allocations.
TEST_F(ServerSteadyStateTest, ReplicatedWriteAllocatesNothing) {
  uint64_t version = 0;
  for (; version < 300; ++version) {
    ASSERT_EQ(Write(version), 3);
  }
  const uint64_t before = test::HeapAllocations();
  for (; version < 500; ++version) {
    ASSERT_EQ(Write(version), 3);
  }
  EXPECT_EQ(test::HeapAllocations() - before, 0u) << "heap cells in 200 replicated writes";
}

TEST_F(ServerSteadyStateTest, ReadAllocatesNothing) {
  ASSERT_EQ(Write(0), 3);
  ChunkServer* server = cluster_.server(layout_.replicas[0].server);
  BufferView out;
  auto read = [&]() {
    Status status = Internal("no reply");
    server->HandleRead(layout_.chunk, 0, 4096, layout_.view, 1,
                       [&status, &out](const Status& s, uint64_t, const BufferView& bytes) {
                         status = s;
                         out = bytes;
                       });
    while (!status.ok() && sim_.Step(sim_.Now() + msec(100))) {
    }
    return status.ok();
  };
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(read());
  }
  const uint64_t before = test::HeapAllocations();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(read());
  }
  EXPECT_EQ(test::HeapAllocations() - before, 0u) << "heap cells in 200 reads";
  // The reply shares the payload the write stored: no copy on the server.
  EXPECT_EQ(out.data(), payload_.data());
  EXPECT_EQ(out.size(), 4096u);
}

// The same gate for the client: a warm, SSD-only VirtualDisk serves a 4 KiB
// replica read — client, transport, server and device — without a heap
// cell. The server replies with a view and the live piece copies it into
// the caller's buffer, so no per-op cell pins the caller's callback.
class ClientSteadyStateTest : public ::testing::Test {
 protected:
  ClientSteadyStateTest() : cluster_(&sim_, test::SmallClusterConfig(StorageMode::kSsdOnly)) {
    disk_id_ = *cluster_.master().CreateDisk("d", 1 * kMiB, 3, 1);
    disk_ = std::make_unique<client::VirtualDisk>(&cluster_, cluster_.AddClientMachine(), 1);
  }

  sim::Simulator sim_;
  Cluster cluster_;
  DiskId disk_id_ = 0;
  std::unique_ptr<client::VirtualDisk> disk_;
};

TEST_F(ClientSteadyStateTest, ReplicaReadAllocatesNothing) {
  ASSERT_TRUE(disk_->Open(disk_id_).ok());
  const std::vector<uint8_t> bytes = test::Pattern(4096, 11);
  Status wrote = Internal("no reply");
  disk_->Write(0, 4096, test::Payload(bytes), [&wrote](const Status& s) { wrote = s; });
  sim_.RunUntil(sim_.Now() + sec(1));
  ASSERT_TRUE(wrote.ok()) << wrote.ToString();
  std::vector<uint8_t> out(4096);
  auto read = [&]() {
    std::fill(out.begin(), out.end(), uint8_t{0});
    Status status = Internal("no reply");
    disk_->Read(0, 4096, out.data(), [&status](const Status& s) { status = s; });
    while (!status.ok() && sim_.Step(sim_.Now() + msec(100))) {
    }
    return status.ok() && out == bytes;
  };
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(read());
  }
  const uint64_t before = test::HeapAllocations();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(read());
  }
  EXPECT_EQ(test::HeapAllocations() - before, 0u) << "heap cells in 200 client reads";
}

}  // namespace
}  // namespace ursa::cluster
