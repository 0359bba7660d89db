// Failure recovery tests (§4.2.2): view change after a replica failure, data
// durability through recovery, temporary-primary switching, incremental
// repair via journal lite, and client transparency across a crash.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/client/virtual_disk.h"
#include "src/core/system.h"
#include "test_util.h"

namespace ursa::client {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void Build(int max_attempts = VirtualDiskClientOptions{}.max_attempts) {
    cluster_ = std::make_unique<cluster::Cluster>(&sim_, test::SmallClusterConfig());
    disk_id_ = *cluster_->master().CreateDisk("d", 4 * kMiB, 3, 1);
    VirtualDiskClientOptions options;
    options.request_timeout = msec(300);  // fail fast in tests
    options.max_attempts = max_attempts;
    host_ = cluster_->AddClientMachine();
    disk_ = std::make_unique<VirtualDisk>(cluster_.get(), host_, 1, options);
    ASSERT_TRUE(disk_->Open(disk_id_).ok());
  }

  Status WriteSync(uint64_t offset, const std::vector<uint8_t>& data, Nanos budget = sec(5)) {
    Status out = Internal("pending");
    disk_->Write(offset, data.size(), test::Payload(data), [&](const Status& s) { out = s; });
    sim_.RunUntil(sim_.Now() + budget);
    return out;
  }

  std::vector<uint8_t> ReadSync(uint64_t offset, uint64_t length, Nanos budget = sec(5)) {
    std::vector<uint8_t> out(length, 0xCD);
    Status status = Internal("pending");
    disk_->Read(offset, length, out.data(), [&](const Status& s) { status = s; });
    sim_.RunUntil(sim_.Now() + budget);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return out;
  }

  // The layout of chunk 0 as the master currently records it.
  cluster::ChunkLayout Layout0() {
    return (*cluster_->master().GetDisk(disk_id_))->chunks[0];
  }

  sim::Simulator sim_;
  std::unique_ptr<cluster::Cluster> cluster_;
  cluster::DiskId disk_id_ = 0;
  cluster::Machine* host_ = nullptr;
  std::unique_ptr<VirtualDisk> disk_;
};

TEST_F(RecoveryTest, ExplicitViewChangeReplacesFailedReplica) {
  Build();
  auto data = test::Pattern(8192, 1);
  ASSERT_TRUE(WriteSync(0, data).ok());

  cluster::ChunkLayout before = Layout0();
  cluster::ServerId failed = before.replicas[1].server;  // a backup
  cluster_->CrashServer(failed);

  Status recovery = Internal("pending");
  cluster_->master().ReportReplicaFailure(before.chunk, failed,
                                          [&](Status s) { recovery = s; });
  sim_.RunUntil(sim_.Now() + sec(10));
  ASSERT_TRUE(recovery.ok()) << recovery.ToString();

  cluster::ChunkLayout after = Layout0();
  EXPECT_EQ(after.view, before.view + 1);
  bool still_there = false;
  for (const auto& r : after.replicas) {
    if (r.server == failed) {
      still_there = true;
    }
  }
  EXPECT_FALSE(still_there);
  EXPECT_EQ(after.replicas.size(), 3u);
  EXPECT_EQ(cluster_->master().recovery_stats().chunks_recovered, 1u);
  EXPECT_GE(cluster_->master().recovery_stats().bytes_transferred, 1 * kMiB);

  // The replacement holds the right version number.
  for (const auto& r : after.replicas) {
    auto st = cluster_->master().server(r.server)->GetState(after.chunk);
    if (cluster_->master().server(r.server)->crashed()) {
      continue;
    }
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->view, after.view);
  }
}

TEST_F(RecoveryTest, ClientSurvivesBackupCrash) {
  Build();
  auto v1 = test::Pattern(4096, 2);
  ASSERT_TRUE(WriteSync(0, v1).ok());

  cluster::ChunkLayout layout = Layout0();
  cluster_->CrashServer(layout.replicas[2].server);  // crash one backup

  // Next write commits via timeout+majority, then the failure report path
  // recovers in the background. The client keeps working throughout.
  auto v2 = test::Pattern(4096, 3);
  ASSERT_TRUE(WriteSync(0, v2, sec(10)).ok());
  EXPECT_EQ(ReadSync(0, 4096), v2);
}

TEST_F(RecoveryTest, ClientSurvivesPrimaryCrashAndSwitchesPrimary) {
  Build();
  auto v1 = test::Pattern(4096, 4);
  ASSERT_TRUE(WriteSync(0, v1).ok());

  cluster::ChunkLayout layout = Layout0();
  ASSERT_TRUE(layout.replicas[0].on_ssd);
  cluster_->CrashServer(layout.replicas[0].server);  // crash the primary

  // Read: client times out on the primary, switches to a backup (temporary
  // primary, journal-aware read), reports the failure; data stays available.
  EXPECT_EQ(ReadSync(0, 4096, sec(20)), v1);
  EXPECT_GE(disk_->stats().primary_switches, 1u);

  // After recovery completes, a new SSD primary exists and writes work.
  sim_.RunUntil(sim_.Now() + sec(10));
  auto v2 = test::Pattern(4096, 5);
  ASSERT_TRUE(WriteSync(0, v2, sec(20)).ok());
  EXPECT_EQ(ReadSync(0, 4096, sec(20)), v2);
  cluster::ChunkLayout after = Layout0();
  EXPECT_GT(after.view, layout.view);
}

TEST_F(RecoveryTest, DataIntegrityAfterFullRecoveryCycle) {
  Build();
  // Fill the first chunk with a known pattern via many writes.
  std::vector<std::vector<uint8_t>> pieces;
  for (int i = 0; i < 16; ++i) {
    pieces.push_back(test::Pattern(16 * kKiB, 100 + i));
    ASSERT_TRUE(WriteSync(i * 16 * kKiB, pieces.back()).ok());
  }
  cluster::ChunkLayout layout = Layout0();
  cluster::ServerId failed = layout.replicas[0].server;
  cluster_->CrashServer(failed);
  Status recovery = Internal("pending");
  cluster_->master().ReportReplicaFailure(layout.chunk, failed,
                                          [&](Status s) { recovery = s; });
  sim_.RunUntil(sim_.Now() + sec(20));
  ASSERT_TRUE(recovery.ok());

  // Every byte must survive, now served by the new layout.
  disk_->RefreshLayout();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(ReadSync(i * 16 * kKiB, 16 * kKiB, sec(20)), pieces[i]) << i;
  }
}

TEST_F(RecoveryTest, IncrementalRepairBringsLaggardCurrent) {
  Build();
  auto v1 = test::Pattern(4096, 6);
  ASSERT_TRUE(WriteSync(0, v1).ok());

  cluster::ChunkLayout layout = Layout0();
  cluster::ServerId lagging = layout.replicas[2].server;
  cluster_->CrashServer(lagging);

  // Two more writes the laggard misses (majority commits).
  auto v2 = test::Pattern(4096, 7);
  auto v3 = test::Pattern(4096, 8);
  ASSERT_TRUE(WriteSync(0, v2, sec(10)).ok());
  ASSERT_TRUE(WriteSync(8192, v3, sec(10)).ok());

  // The laggard comes back; incremental repair transfers only the ranges
  // modified since its version (from a peer's journal lite).
  cluster_->RestoreServer(lagging);
  Status repair = Internal("pending");
  cluster_->master().RepairReplica(layout.chunk, lagging, [&](Status s) { repair = s; });
  sim_.RunUntil(sim_.Now() + sec(10));
  ASSERT_TRUE(repair.ok()) << repair.ToString();
  EXPECT_GE(cluster_->master().recovery_stats().incremental_repairs, 1u);

  auto st = cluster_->master().server(lagging)->GetState(layout.chunk);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->version, 3u);
}

// Regression: a backup caught up while it still holds an un-replayed journal
// record of the range serves and keeps the repaired bytes. The recovery
// write went to its HDD alone, so the journal index still mapped the older
// record: reads returned it, and its replay wrote it over the repair.
TEST_F(RecoveryTest, CaughtUpBackupDropsItsOlderJournalRecord) {
  Build();
  cluster::ChunkLayout layout = Layout0();
  cluster::ChunkServer* lag = cluster_->server(layout.replicas[2].server);
  ASSERT_NE(lag->journal_manager(), nullptr);
  test::TripGate gate(&sim_, lag->store()->device(), qos::ServiceClass::kJournalReplay, 0);
  ASSERT_TRUE(WriteSync(0, test::Pattern(4096, 38)).ok());
  cluster_->CrashServer(lag->id());
  auto v2 = test::Pattern(4096, 39);
  ASSERT_TRUE(WriteSync(0, v2, sec(10)).ok());
  cluster_->RestoreServer(lag->id());

  Status repair = Internal("pending");
  cluster_->master().RepairReplica(layout.chunk, lag->id(), [&](Status s) { repair = s; });
  sim_.RunUntil(sim_.Now() + sec(10));
  ASSERT_TRUE(repair.ok()) << repair.ToString();
  EXPECT_EQ(lag->GetState(layout.chunk)->version, 2u);
  auto read_lag = [&]() {
    BufferView out;
    Status status = Internal("pending");
    lag->HandleRecoveryRead(layout.chunk, 0, 4096,
                            [&](const Status& s, uint64_t, const BufferView& bytes) {
                              status = s;
                              out = bytes;
                            });
    sim_.RunUntil(sim_.Now() + msec(100));
    EXPECT_TRUE(status.ok()) << status.ToString();
    return test::Bytes(out);
  };
  EXPECT_EQ(read_lag(), v2);

  gate.Open();
  sim_.RunUntil(sim_.Now() + sec(1));
  EXPECT_TRUE(lag->journal_manager()->ReplayDrained());
  BufferView hdd;
  Status status = Internal("pending");
  lag->store()->Read(layout.chunk, 0, 4096, &hdd, [&](const Status& s) { status = s; });
  sim_.RunUntil(sim_.Now() + msec(100));
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(test::Bytes(hdd), v2);
  EXPECT_EQ(read_lag(), v2);
}

// Regression: a view change keeps the survivors' write identity. A write
// applied on two replicas whose third has crashed is still "the last write"
// after ReportReplicaFailure installs the new view, so the client's retry of
// it (old version, new view, same write id) is acked as a duplicate and does
// not bump the version again. A view install that reset the identity would
// answer the retry with "stale client version; resync required", and the
// client would apply the write a second time at the next version.
TEST_F(RecoveryTest, ViewChangeKeepsSurvivorWriteIdentity) {
  Build();
  cluster::ChunkLayout before = Layout0();
  cluster::ChunkServer* survivors[] = {cluster_->server(before.replicas[0].server),
                                       cluster_->server(before.replicas[1].server)};
  const uint64_t kWriteId = 7;
  ursa::Buffer data = ursa::Buffer::CopyOf(test::Pattern(4096, 3).data(), 4096);
  auto replicate = [&](cluster::ChunkServer* server, uint64_t view) {
    std::pair<Status, uint64_t> reply{Internal("no reply"), 0};
    server->HandleReplicate(before.chunk, 0, 4096, view, /*version=*/0, data,
                            [&](const Status& s, uint64_t v, const BufferView&) { reply = {s, v}; },
                            {}, kWriteId);
    sim_.RunUntil(sim_.Now() + msec(100));
    return reply;
  };
  for (cluster::ChunkServer* server : survivors) {
    ASSERT_TRUE(replicate(server, before.view).first.ok());
  }
  cluster_->CrashServer(before.replicas[2].server);
  Status recovery = Internal("pending");
  cluster_->master().ReportReplicaFailure(before.chunk, before.replicas[2].server,
                                          [&](Status s) { recovery = s; });
  sim_.RunUntil(sim_.Now() + sec(10));
  ASSERT_TRUE(recovery.ok()) << recovery.ToString();
  const uint64_t new_view = Layout0().view;
  ASSERT_EQ(new_view, before.view + 1);

  // The survivors keep the identity, and the replacement takes its source's.
  for (const cluster::ReplicaRef& r : Layout0().replicas) {
    cluster::ChunkServer* server = cluster_->server(r.server);
    uint64_t served = server->replicates_served();
    auto [status, version] = replicate(server, new_view);
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(version, 1u);
    EXPECT_EQ(server->GetState(before.chunk)->version, 1u);
    EXPECT_EQ(server->replicates_served(), served);  // acked, not re-applied
  }
}

// A write failed for good after landing on replica A only. The client's
// next write must not reuse its version: committed on B and C while A still
// held the failed write, the one version would name two different byte
// images, and a read from A would return the failed write.
TEST_F(RecoveryTest, WriteThatFailedForGoodIsFencedBeforeTheNextWrite) {
  Build(/*max_attempts=*/1);
  ASSERT_TRUE(WriteSync(0, test::Pattern(4096, 1)).ok());
  const cluster::ChunkLayout before = Layout0();
  net::LinkChaosRule rule;
  rule.blocked = true;
  for (int i : {1, 2}) {
    cluster_->transport().SetLinkChaos(host_->node(), before.replicas[i].node, rule);
  }
  EXPECT_FALSE(WriteSync(0, test::Pattern(4096, 2)).ok());
  rule.blocked = false;
  for (int i : {1, 2}) {
    cluster_->transport().SetLinkChaos(host_->node(), before.replicas[i].node, rule);
  }
  const std::vector<uint8_t> next = test::Pattern(4096, 3);
  ASSERT_TRUE(WriteSync(0, next, sec(10)).ok());
  EXPECT_EQ(ReadSync(0, 4096), next);
  const cluster::ChunkLayout after = Layout0();
  EXPECT_GT(after.view, before.view);  // the fence
  for (const cluster::ReplicaRef& r : after.replicas) {
    EXPECT_EQ(cluster_->server(r.server)->GetState(after.chunk)->version,
              cluster_->server(after.replicas[0].server)->GetState(after.chunk)->version)
        << "server " << r.server;
  }
}

// An attempt that resynced elsewhere may resend a write one version above
// the one it made on a replica. The replica refuses it: applying it again
// would count the one write twice and shift that replica's history.
TEST_F(RecoveryTest, ReplicaRefusesItsLastWriteAtItsNewVersion) {
  Build();
  cluster::ChunkLayout layout = Layout0();
  cluster::ChunkServer* server = cluster_->server(layout.replicas[1].server);
  ursa::Buffer data = ursa::Buffer::CopyOf(test::Pattern(4096, 5).data(), 4096);
  auto replicate = [&](uint64_t version) {
    std::pair<Status, uint64_t> reply{Internal("no reply"), 0};
    server->HandleReplicate(layout.chunk, 0, 4096, layout.view, version, data,
                            [&](const Status& s, uint64_t v, const BufferView&) { reply = {s, v}; },
                            {}, /*write_id=*/9);
    sim_.RunUntil(sim_.Now() + msec(100));
    return reply;
  };
  ASSERT_TRUE(replicate(0).first.ok());
  auto [status, version] = replicate(1);
  EXPECT_EQ(status.code(), StatusCode::kVersionMismatch) << status.ToString();
  EXPECT_EQ(server->GetState(layout.chunk)->version, 1u);
  EXPECT_EQ(server->replicates_served(), 1u);
}

// A client-directed write has been applied on replica A when a view bump (a
// health demotion of C) makes its legs to B and C answer "stale view". The
// retry must resend the same version and write id: acked as a duplicate on
// A, applied on B and C — one commit at v+1 everywhere. Adopting A's v+1,
// which the write itself produced, would apply it a second time on A at v+2
// and leave B and C behind a version gap on every later attempt.
TEST_F(RecoveryTest, RetryAfterViewBumpResendsItsOwnVersion) {
  Build();
  ASSERT_TRUE(WriteSync(0, test::Pattern(4096, 1)).ok());
  cluster::ChunkLayout before = Layout0();
  cluster::ChunkServer* a = cluster_->server(before.replicas[0].server);
  const uint64_t v = a->GetState(before.chunk)->version;
  // Hold the legs to B and C back so A applies first.
  net::LinkChaosRule slow;
  slow.extra_delay = msec(1);
  for (int i : {1, 2}) {
    cluster_->transport().SetLinkChaos(host_->node(), before.replicas[i].node, slow);
  }
  std::vector<uint8_t> data = test::Pattern(4096, 2);
  Status write = Internal("pending");
  disk_->Write(0, data.size(), test::Payload(data), [&](const Status& s) { write = s; });
  Nanos deadline = sim_.Now() + msec(1);
  while (a->GetState(before.chunk)->version == v && sim_.Now() < deadline) {
    sim_.RunUntil(sim_.Now() + usec(5));
  }
  ASSERT_EQ(a->GetState(before.chunk)->version, v + 1) << "A never applied the write";
  cluster_->master().SetServerDemoted(before.replicas[2].server, true);
  sim_.RunUntil(sim_.Now() + sec(5));
  ASSERT_TRUE(write.ok()) << write.ToString();

  const cluster::ChunkLayout after = Layout0();
  EXPECT_EQ(after.view, before.view + 1);
  for (const cluster::ReplicaRef& r : after.replicas) {
    EXPECT_EQ(cluster_->server(r.server)->GetState(before.chunk)->version, v + 1)
        << "server " << r.server;
  }
  EXPECT_EQ(ReadSync(0, 4096), data);
  std::vector<uint8_t> next = test::Pattern(4096, 3);
  ASSERT_TRUE(WriteSync(0, next).ok());
  for (const cluster::ReplicaRef& r : after.replicas) {
    EXPECT_EQ(cluster_->server(r.server)->GetState(before.chunk)->version, v + 2)
        << "server " << r.server;
  }
  EXPECT_EQ(ReadSync(0, 4096), next);
}

TEST_F(RecoveryTest, RecoveryPrefersDistinctMachine) {
  Build();
  cluster::ChunkLayout before = Layout0();
  cluster::ServerId failed = before.replicas[1].server;
  cluster_->CrashServer(failed);
  Status recovery = Internal("pending");
  cluster_->master().ReportReplicaFailure(before.chunk, failed,
                                          [&](Status s) { recovery = s; });
  sim_.RunUntil(sim_.Now() + sec(10));
  ASSERT_TRUE(recovery.ok());

  cluster::ChunkLayout after = Layout0();
  const cluster::Placement& placement = cluster_->master().placement();
  std::set<cluster::MachineId> machines;
  for (const auto& r : after.replicas) {
    machines.insert(placement.MachineOf(r.server));
  }
  EXPECT_EQ(machines.size(), 3u);
}

TEST_F(RecoveryTest, RecoveryStormRereplicatesEveryStrandedChunk) {
  Build();
  // Materialize all four chunks so a crash strands several replicas at once.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(WriteSync(i * kMiB, test::Pattern(8192, 20 + i), sec(10)).ok());
  }
  const auto& chunks = (*cluster_->master().GetDisk(disk_id_))->chunks;

  // Crash one server and report every chunk it hosted: the re-replication
  // storm reads from the surviving replicas, and every copy must finish.
  cluster::ServerId failed = chunks[0].replicas[1].server;
  std::vector<cluster::ChunkId> stranded;
  for (const auto& layout : chunks) {
    for (const auto& r : layout.replicas) {
      if (r.server == failed) {
        stranded.push_back(layout.chunk);
      }
    }
  }
  ASSERT_GE(stranded.size(), 1u);
  cluster_->CrashServer(failed);
  int pending = static_cast<int>(stranded.size());
  for (cluster::ChunkId chunk : stranded) {
    cluster_->master().ReportReplicaFailure(chunk, failed, [&](Status s) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      --pending;
    });
  }
  sim_.RunUntil(sim_.Now() + sec(30));
  EXPECT_EQ(pending, 0);
  EXPECT_EQ(cluster_->master().recovery_stats().chunks_recovered, stranded.size());

  // Data still reads back after the recovery storm.
  disk_->RefreshLayout();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ReadSync(i * kMiB, 8192, sec(20)), test::Pattern(8192, 20 + i)) << i;
  }
}

TEST_F(RecoveryTest, AllReplicasLostReportsDataLoss) {
  Build();
  cluster::ChunkLayout layout = Layout0();
  for (const auto& r : layout.replicas) {
    cluster_->CrashServer(r.server);
  }
  Status recovery;
  cluster_->master().ReportReplicaFailure(layout.chunk, layout.replicas[0].server,
                                          [&](Status s) { recovery = s; });
  sim_.RunUntil(sim_.Now() + sec(5));
  EXPECT_EQ(recovery.code(), StatusCode::kUnavailable);
}

// Leak regression: once a copy job completes, nothing may still hold its
// `done` callback (a self-capturing piece pump used to keep its whole state,
// callback included, alive forever).
TEST_F(RecoveryTest, FullTransferReleasesDoneCallback) {
  Build();
  ASSERT_TRUE(WriteSync(0, test::Pattern(8192, 30)).ok());
  cluster::ChunkLayout layout = Layout0();
  cluster::ServerId failed = layout.replicas[1].server;
  cluster_->CrashServer(failed);

  auto sentinel = std::make_shared<int>(0);
  std::weak_ptr<int> watch = sentinel;
  Status recovery = Internal("pending");
  cluster_->master().ReportReplicaFailure(layout.chunk, failed,
                                          [&recovery, sentinel](Status s) { recovery = s; });
  sentinel.reset();
  sim_.RunUntil(sim_.Now() + sec(10));
  ASSERT_TRUE(recovery.ok()) << recovery.ToString();
  EXPECT_EQ(cluster_->master().recovery_stats().chunks_recovered, 1u);
  EXPECT_TRUE(watch.expired());
}

TEST_F(RecoveryTest, IncrementalRepairReleasesDoneCallback) {
  Build();
  ASSERT_TRUE(WriteSync(0, test::Pattern(4096, 31)).ok());
  cluster::ChunkLayout layout = Layout0();
  cluster::ServerId lagging = layout.replicas[2].server;
  cluster_->CrashServer(lagging);
  ASSERT_TRUE(WriteSync(0, test::Pattern(4096, 32), sec(10)).ok());
  cluster_->RestoreServer(lagging);

  auto sentinel = std::make_shared<int>(0);
  std::weak_ptr<int> watch = sentinel;
  Status repair = Internal("pending");
  cluster_->master().RepairReplica(layout.chunk, lagging,
                                   [&repair, sentinel](Status s) { repair = s; });
  sentinel.reset();
  sim_.RunUntil(sim_.Now() + sec(10));
  ASSERT_TRUE(repair.ok()) << repair.ToString();
  EXPECT_GE(cluster_->master().recovery_stats().incremental_repairs, 1u);
  EXPECT_TRUE(watch.expired());
}

// QoS backpressure on the read -> send -> write copy: once the target's gate
// reports the recovery class past its high watermark the copy issues no new
// piece, and it finishes the chunk once the class drains.
TEST_F(RecoveryTest, PipelinedCopyPausesAtTargetGateAndResumes) {
  Build();
  cluster_->master().set_recovery_piece(64 * kKiB);  // 16 pieces, window 8
  auto data = test::Pattern(1 * kMiB, 33);
  ASSERT_TRUE(WriteSync(0, data).ok());
  cluster::ChunkLayout layout = Layout0();
  cluster::ServerId failed = layout.replicas[1].server;
  cluster_->CrashServer(failed);

  // The replacement is not known up front: gate every live server.
  std::vector<std::unique_ptr<test::TripGate>> gates;
  for (cluster::ServerId s = 0; s < cluster_->master().num_servers(); ++s) {
    cluster::ChunkServer* server = cluster_->master().server(s);
    if (!server->crashed()) {
      gates.push_back(std::make_unique<test::TripGate>(
          &sim_, server->store()->device(), qos::ServiceClass::kRecovery, /*trip_after=*/4));
    }
  }
  auto total = [&gates](auto field) {
    uint64_t n = 0;
    for (const auto& g : gates) {
      n += field(*g);
    }
    return n;
  };
  auto writes = [](const test::TripGate& g) { return g.writes(); };
  auto parked = [](const test::TripGate& g) { return static_cast<uint64_t>(g.parked()); };

  Status recovery = Internal("pending");
  cluster_->master().ReportReplicaFailure(layout.chunk, failed,
                                          [&recovery](Status s) { recovery = s; });
  sim_.RunUntil(sim_.Now() + sec(2));
  EXPECT_EQ(recovery.code(), StatusCode::kInternal);  // still pending
  EXPECT_GE(total(writes), 4u);
  EXPECT_LT(total(writes), 16u);
  EXPECT_EQ(total(parked), 1u);  // the copy waits on its target's gate

  for (auto& g : gates) {
    g->Open();
  }
  sim_.RunUntil(sim_.Now() + sec(10));
  ASSERT_TRUE(recovery.ok()) << recovery.ToString();
  EXPECT_EQ(total(writes), 16u);
  disk_->RefreshLayout();
  EXPECT_EQ(ReadSync(0, data.size()), data);
}

// A target freed under a running copy fails it: `done` runs exactly once.
TEST_F(RecoveryTest, FreedTargetFailsCopyOnceAndReleasesSlot) {
  Build();
  cluster_->master().set_recovery_piece(64 * kKiB);
  cluster_->master().set_recovery_window(1);
  ASSERT_TRUE(WriteSync(0, test::Pattern(64 * kKiB, 34)).ok());
  cluster::ChunkLayout layout = Layout0();
  cluster::ServerId failed = layout.replicas[1].server;
  cluster_->CrashServer(failed);
  std::set<cluster::ServerId> holders;
  for (const auto& r : layout.replicas) {
    holders.insert(r.server);
  }

  int calls = 0;
  Status recovery = Internal("pending");
  cluster_->master().ReportReplicaFailure(layout.chunk, failed, [&](Status s) {
    ++calls;
    recovery = s;
  });
  // ReportReplicaFailure allocated the replacement synchronously: free it
  // again before the first piece lands.
  cluster::ChunkServer* target = nullptr;
  for (cluster::ServerId s = 0; s < cluster_->master().num_servers(); ++s) {
    cluster::ChunkServer* server = cluster_->master().server(s);
    if (holders.count(s) == 0 && server->HasChunk(layout.chunk)) {
      target = server;
    }
  }
  ASSERT_NE(target, nullptr);
  ASSERT_TRUE(target->FreeChunk(layout.chunk).ok());
  sim_.RunUntil(sim_.Now() + sec(10));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(recovery.code(), StatusCode::kNotFound) << recovery.ToString();
}

// A server that crashes mid-copy drops the piece it was handed without a
// reply, so only the job's timeout can end the copy: `done` runs exactly
// once, with kTimedOut, and the replacement is freed again. The parameter
// names what crashes: the replacement target, the source of the survivors'
// copy, that source while it catches a lagging survivor up — which must
// not then move the laggard to the new version without the data — or the
// laggard itself mid-catch-up.
enum class CopyCrash { kTarget, kSource, kCatchUpSource, kLaggard };

class CopyCrashTest : public RecoveryTest, public ::testing::WithParamInterface<CopyCrash> {};

TEST_P(CopyCrashTest, CrashMidCopyTimesOutOnce) {
  const CopyCrash crash = GetParam();
  Build();
  cluster_->master().set_recovery_piece(64 * kKiB);  // one piece at a time
  cluster_->master().set_recovery_window(1);
  cluster::ChunkLayout layout = Layout0();
  cluster::ServerId failed = layout.replicas[1].server;
  cluster::ChunkServer* laggard = cluster_->server(layout.replicas[2].server);
  const bool catch_up = crash == CopyCrash::kCatchUpSource || crash == CopyCrash::kLaggard;
  if (catch_up) {
    // Apply a 256 KiB write on replicas 0 and 1 only: replica 2 lags a
    // version, and catching it up takes four pieces.
    ursa::Buffer data = ursa::Buffer::CopyOf(test::Pattern(256 * kKiB, 35).data(), 256 * kKiB);
    for (int i = 0; i < 2; ++i) {
      Status applied = Internal("no reply");
      cluster_->server(layout.replicas[i].server)
          ->HandleReplicate(layout.chunk, 0, 256 * kKiB, layout.view, /*version=*/0, data,
                            [&](const Status& s, uint64_t, const BufferView&) { applied = s; }, {},
                            /*write_id=*/1);
      sim_.RunUntil(sim_.Now() + msec(100));
      ASSERT_TRUE(applied.ok()) << applied.ToString();
    }
  } else {
    ASSERT_TRUE(WriteSync(0, test::Pattern(64 * kKiB, 35)).ok());
  }
  const uint64_t laggard_version = laggard->GetState(layout.chunk)->version;
  cluster_->CrashServer(failed);
  std::set<cluster::ServerId> holders;
  for (const auto& r : layout.replicas) {
    holders.insert(r.server);
  }

  int calls = 0;
  Status recovery = Internal("pending");
  cluster_->master().ReportReplicaFailure(layout.chunk, failed, [&](Status s) {
    ++calls;
    recovery = s;
  });
  // The copy reads from the preferred survivor (the layout keeps it first)
  // into the replacement ReportReplicaFailure allocated synchronously.
  cluster::ServerId victim = layout.replicas[0].server;
  if (crash == CopyCrash::kTarget) {
    for (cluster::ServerId s = 0; s < cluster_->master().num_servers(); ++s) {
      if (holders.count(s) == 0 && cluster_->master().server(s)->HasChunk(layout.chunk)) {
        victim = s;
      }
    }
    ASSERT_EQ(holders.count(victim), 0u);
  }
  if (crash == CopyCrash::kLaggard) {
    victim = laggard->id();
  }
  if (catch_up) {
    // The catch-up starts once the replacement holds the whole chunk.
    const cluster::RecoveryStats& stats = cluster_->master().recovery_stats();
    for (int i = 0; i < 100000 && stats.incremental_repairs + stats.full_copies == 0; ++i) {
      sim_.RunUntil(sim_.Now() + usec(20));
    }
    ASSERT_EQ(stats.incremental_repairs + stats.full_copies, 1u);
  } else {
    sim_.RunUntil(sim_.Now() + msec(2));
  }
  ASSERT_EQ(calls, 0);  // still copying
  cluster_->CrashServer(victim);
  sim_.RunUntil(sim_.Now() + sec(60));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(recovery.code(), StatusCode::kTimedOut) << recovery.ToString();
  EXPECT_EQ(cluster_->master().recovery_stats().chunks_recovered, 0u);
  EXPECT_EQ(Layout0().view, layout.view);
  EXPECT_EQ(laggard->GetState(layout.chunk)->version, laggard_version);
  for (cluster::ServerId s = 0; s < cluster_->master().num_servers(); ++s) {
    cluster::ChunkServer* server = cluster_->master().server(s);
    if (holders.count(s) == 0 && !server->crashed()) {
      EXPECT_FALSE(server->HasChunk(layout.chunk)) << "replacement " << s << " leaked";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Crash, CopyCrashTest,
                         ::testing::Values(CopyCrash::kTarget, CopyCrash::kSource,
                                           CopyCrash::kCatchUpSource, CopyCrash::kLaggard),
                         [](const ::testing::TestParamInfo<CopyCrash>& info) {
                           switch (info.param) {
                             case CopyCrash::kTarget:
                               return "Target";
                             case CopyCrash::kSource:
                               return "Source";
                             case CopyCrash::kCatchUpSource:
                               return "CatchUpSource";
                             case CopyCrash::kLaggard:
                               return "Laggard";
                           }
                           return "";
                         });

// A copy parked at its target's gate past the job timeout fails once and
// frees its replacement. When the gate opens and the caller retries, only
// the retry's copy runs: the timed-out one issues nothing more, so the
// retry moves exactly one chunk and leaves exactly one replacement.
TEST_F(RecoveryTest, TimedOutCopyStopsAndFreesItsReplacement) {
  Build();
  cluster_->master().set_recovery_piece(64 * kKiB);  // 16 pieces, window 8
  cluster_->master().set_migration_timeout(msec(500));
  auto data = test::Pattern(1 * kMiB, 37);
  ASSERT_TRUE(WriteSync(0, data).ok());
  cluster::ChunkLayout layout = Layout0();
  cluster::ServerId failed = layout.replicas[1].server;
  cluster_->CrashServer(failed);
  std::vector<std::unique_ptr<test::TripGate>> gates;
  for (cluster::ServerId s = 0; s < cluster_->master().num_servers(); ++s) {
    gates.push_back(std::make_unique<test::TripGate>(
        &sim_, cluster_->master().server(s)->store()->device(), qos::ServiceClass::kRecovery,
        /*trip_after=*/4));
  }
  auto hosts = [&]() {
    int n = 0;
    for (cluster::ServerId s = 0; s < cluster_->master().num_servers(); ++s) {
      cluster::ChunkServer* server = cluster_->master().server(s);
      n += !server->crashed() && server->HasChunk(layout.chunk) ? 1 : 0;
    }
    return n;
  };

  int calls = 0;
  Status recovery = Internal("pending");
  cluster_->master().ReportReplicaFailure(layout.chunk, failed, [&](Status s) {
    ++calls;
    recovery = s;
  });
  sim_.RunUntil(sim_.Now() + sec(2));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(recovery.code(), StatusCode::kTimedOut) << recovery.ToString();
  EXPECT_EQ(hosts(), 2);  // the replacement was freed
  const uint64_t moved = cluster_->master().recovery_stats().bytes_transferred;
  EXPECT_LT(moved, 1 * kMiB);

  for (auto& g : gates) {
    g->Open();
  }
  recovery = Internal("pending");
  cluster_->master().ReportReplicaFailure(layout.chunk, failed, [&](Status s) {
    ++calls;
    recovery = s;
  });
  sim_.RunUntil(sim_.Now() + sec(10));
  EXPECT_EQ(calls, 2);
  ASSERT_TRUE(recovery.ok()) << recovery.ToString();
  EXPECT_EQ(cluster_->master().recovery_stats().bytes_transferred - moved, 1 * kMiB);
  EXPECT_EQ(hosts(), 3);
  gates.clear();
  disk_->RefreshLayout();
  EXPECT_EQ(ReadSync(0, data.size()), data);
}

// A copy that is slow but keeps landing pieces outlives the job timeout:
// each timeout that finds a piece landed since it was armed re-arms, so the
// copy finishes once, with one pump (every byte sent once) and one
// replacement.
TEST_F(RecoveryTest, SlowCopyOutlivesTheJobTimeout) {
  Build();
  cluster_->master().set_recovery_piece(64 * kKiB);  // 16 pieces, one at a time
  cluster_->master().set_recovery_window(1);
  auto data = test::Pattern(1 * kMiB, 36);
  ASSERT_TRUE(WriteSync(0, data).ok());
  cluster::ChunkLayout layout = Layout0();
  cluster::ServerId failed = layout.replicas[1].server;
  cluster_->CrashServer(failed);
  // The copy takes about 34 ms, some 2 ms a piece: it lives through
  // several timeouts.
  cluster_->master().set_migration_timeout(msec(8));

  int calls = 0;
  Status recovery = Internal("pending");
  const Nanos start = sim_.Now();
  Nanos took = 0;
  cluster_->master().ReportReplicaFailure(layout.chunk, failed, [&](Status s) {
    ++calls;
    recovery = s;
    took = sim_.Now() - start;
  });
  sim_.RunUntil(sim_.Now() + sec(10));
  ASSERT_EQ(calls, 1);
  ASSERT_TRUE(recovery.ok()) << recovery.ToString();
  EXPECT_GT(took, 3 * msec(8));
  EXPECT_EQ(cluster_->master().recovery_stats().bytes_transferred, 1 * kMiB);
  int hosts = 0;
  for (cluster::ServerId s = 0; s < cluster_->master().num_servers(); ++s) {
    cluster::ChunkServer* server = cluster_->master().server(s);
    hosts += !server->crashed() && server->HasChunk(layout.chunk) ? 1 : 0;
  }
  EXPECT_EQ(hosts, 3);  // two survivors and the replacement; nothing leaked
  disk_->RefreshLayout();
  EXPECT_EQ(ReadSync(0, data.size()), data);
}

}  // namespace
}  // namespace ursa::client
