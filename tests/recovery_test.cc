// Failure recovery tests (§4.2.2): view change after a replica failure, data
// durability through recovery, temporary-primary switching, incremental
// repair via journal lite, and client transparency across a crash.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/client/virtual_disk.h"
#include "src/core/system.h"
#include "test_util.h"

namespace ursa::client {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void Build() {
    cluster_ = std::make_unique<cluster::Cluster>(&sim_, test::SmallClusterConfig());
    disk_id_ = *cluster_->master().CreateDisk("d", 4 * kMiB, 3, 1);
    VirtualDiskClientOptions options;
    options.request_timeout = msec(300);  // fail fast in tests
    disk_ = std::make_unique<VirtualDisk>(cluster_.get(), cluster_->AddClientMachine(), 1,
                                          options);
    ASSERT_TRUE(disk_->Open(disk_id_).ok());
  }

  Status WriteSync(uint64_t offset, const std::vector<uint8_t>& data, Nanos budget = sec(5)) {
    Status out = Internal("pending");
    disk_->Write(offset, data.size(), data.data(), [&](const Status& s) { out = s; });
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

TEST_F(RecoveryTest, AdmissionBoundsConcurrentTransfersPerSource) {
  Build();
  // Materialize all four chunks so a crash strands several replicas at once.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(WriteSync(i * kMiB, test::Pattern(8192, 20 + i), sec(10)).ok());
  }
  const auto& chunks = (*cluster_->master().GetDisk(disk_id_))->chunks;

  // Crash one server and report every chunk it hosted: the re-replication
  // storm reads from the surviving replicas, and the admission controller
  // must keep per-source fan-out at or under its slot count.
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

  scrub::RecoveryAdmission* admission = cluster_->recovery_admission();
  ASSERT_NE(admission, nullptr);
  EXPECT_GE(admission->grants(), stranded.size());
  EXPECT_LE(admission->peak_in_flight(), admission->per_source());
  EXPECT_EQ(admission->QueuedTotal(), 0u);  // nothing left waiting

  // Data still reads back after the admission-paced recovery.
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

// A target freed under a running copy fails it: `done` runs exactly once and
// the source's admission slot comes back.
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
  scrub::RecoveryAdmission* admission = cluster_->recovery_admission();
  ASSERT_NE(admission, nullptr);
  for (cluster::ServerId s = 0; s < cluster_->master().num_servers(); ++s) {
    EXPECT_EQ(admission->InFlight(s), 0) << s;
  }
}

}  // namespace
}  // namespace ursa::client
