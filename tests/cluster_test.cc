// Tests for cluster construction, placement policy, master metadata, leases,
// the fleet failure model (Table 1's generator) and the write commit rule
// (WriteQuorum).
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/client/virtual_disk.h"
#include "src/cluster/cluster.h"
#include "src/cluster/failure_injector.h"
#include "src/cluster/replica_protocol.h"
#include "src/common/rng.h"
#include "test_util.h"

namespace ursa::cluster {
namespace {

TEST(ClusterBuildTest, HybridModeWiring) {
  sim::Simulator sim;
  Cluster cluster(&sim, test::SmallClusterConfig(StorageMode::kHybrid));
  // 3 machines x (2 SSD primaries + 2 HDD backups) = 12 servers.
  EXPECT_EQ(cluster.num_servers(), 12u);
  EXPECT_EQ(cluster.journal_managers().size(), 6u);  // one per HDD
  // Each backup journal manager has primary SSD + expansion SSD + HDD.
  for (const auto* jm : cluster.journal_managers()) {
    EXPECT_EQ(jm->num_journals(), 3u);
  }
  int primaries = 0;
  int backups = 0;
  for (size_t s = 0; s < cluster.num_servers(); ++s) {
    if (cluster.server(s)->on_ssd()) {
      ++primaries;
      EXPECT_EQ(cluster.server(s)->journal_manager(), nullptr);
    } else {
      ++backups;
      EXPECT_NE(cluster.server(s)->journal_manager(), nullptr);
    }
  }
  EXPECT_EQ(primaries, 6);
  EXPECT_EQ(backups, 6);
}

TEST(ClusterBuildTest, SsdOnlyModeHasNoJournals) {
  sim::Simulator sim;
  Cluster cluster(&sim, test::SmallClusterConfig(StorageMode::kSsdOnly));
  EXPECT_EQ(cluster.num_servers(), 6u);  // one per SSD
  EXPECT_TRUE(cluster.journal_managers().empty());
  for (size_t s = 0; s < cluster.num_servers(); ++s) {
    EXPECT_TRUE(cluster.server(s)->on_ssd());
  }
}

TEST(ClusterBuildTest, HddOnlyMode) {
  sim::Simulator sim;
  Cluster cluster(&sim, test::SmallClusterConfig(StorageMode::kHddOnly));
  EXPECT_EQ(cluster.num_servers(), 6u);  // one per HDD
  for (size_t s = 0; s < cluster.num_servers(); ++s) {
    EXPECT_FALSE(cluster.server(s)->on_ssd());
  }
}

TEST(PlacementTest, ReplicasOnDistinctMachines) {
  sim::Simulator sim;
  Cluster cluster(&sim, test::SmallClusterConfig());
  const Placement& placement = cluster.master().placement();
  for (uint64_t seq = 0; seq < 50; ++seq) {
    Result<std::vector<ServerId>> servers = placement.PlaceChunk(seq, 3);
    ASSERT_TRUE(servers.ok());
    ASSERT_EQ(servers->size(), 3u);
    std::set<MachineId> machines;
    for (ServerId s : *servers) {
      machines.insert(placement.MachineOf(s));
    }
    EXPECT_EQ(machines.size(), 3u) << "chunk " << seq;
    // Primary on SSD, backups on HDD servers (hybrid pools).
    EXPECT_TRUE(cluster.server((*servers)[0])->on_ssd());
    EXPECT_FALSE(cluster.server((*servers)[1])->on_ssd());
  }
}

TEST(PlacementTest, ConsecutiveChunksSpreadAcrossMachines) {
  sim::Simulator sim;
  Cluster cluster(&sim, test::SmallClusterConfig());
  const Placement& placement = cluster.master().placement();
  // A striping group of 3 consecutive chunks: primaries on 3 machines.
  std::set<MachineId> primary_machines;
  for (uint64_t seq = 0; seq < 3; ++seq) {
    Result<std::vector<ServerId>> servers = placement.PlaceChunk(seq, 3);
    ASSERT_TRUE(servers.ok());
    primary_machines.insert(placement.MachineOf((*servers)[0]));
  }
  EXPECT_EQ(primary_machines.size(), 3u);
}

TEST(PlacementTest, ReplicationBeyondMachinesFails) {
  sim::Simulator sim;
  Cluster cluster(&sim, test::SmallClusterConfig());
  EXPECT_FALSE(cluster.master().placement().PlaceChunk(0, 4).ok());
}

TEST(PlacementTest, ReplacementAvoidsExcludedMachines) {
  sim::Simulator sim;
  Cluster cluster(&sim, test::SmallClusterConfig());
  const Placement& placement = cluster.master().placement();
  Result<ServerId> r = placement.PlaceReplacement(true, {0, 1}, 7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(placement.MachineOf(*r), 2u);
  // All machines excluded: falls back to co-location rather than failing.
  Result<ServerId> r2 = placement.PlaceReplacement(true, {0, 1, 2}, 7);
  EXPECT_TRUE(r2.ok());
}

TEST(MasterTest, CreateDiskAllocatesChunksEverywhere) {
  sim::Simulator sim;
  Cluster cluster(&sim, test::SmallClusterConfig());
  Result<DiskId> disk = cluster.master().CreateDisk("d", 8 * kMiB, 3, 2);
  ASSERT_TRUE(disk.ok());
  Result<const DiskMeta*> meta = cluster.master().GetDisk(*disk);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ((*meta)->chunks.size(), 8u);  // 1 MiB chunks
  for (const ChunkLayout& layout : (*meta)->chunks) {
    EXPECT_EQ(layout.replicas.size(), 3u);
    EXPECT_EQ(layout.view, 1u);
    for (const ReplicaRef& r : layout.replicas) {
      EXPECT_TRUE(cluster.server(r.server)->HasChunk(layout.chunk));
    }
  }
}

// A disk created while a server is down must not place replicas on it: its
// chunks would start with a dead replica that takes none of their writes.
TEST(MasterTest, CreateDiskSkipsDownServers) {
  for (uint64_t seed : {1, 2, 3, 4}) {
    sim::Simulator sim;
    Cluster cluster(&sim, test::SmallClusterConfig());
    Rng rng(seed);
    const ServerId down = static_cast<ServerId>(rng.Uniform(cluster.num_servers()));
    cluster.CrashServer(down);
    Result<DiskId> disk = cluster.master().CreateDisk("d", 8 * kMiB, 3, 2);
    ASSERT_TRUE(disk.ok()) << "seed " << seed << ": " << disk.status().ToString();
    Result<const DiskMeta*> meta = cluster.master().GetDisk(*disk);
    ASSERT_TRUE(meta.ok());
    for (const ChunkLayout& layout : (*meta)->chunks) {
      ASSERT_EQ(layout.replicas.size(), 3u);
      std::set<MachineId> machines;
      for (const ReplicaRef& r : layout.replicas) {
        EXPECT_NE(r.server, down) << "seed " << seed << " chunk " << layout.chunk;
        machines.insert(cluster.master().placement().MachineOf(r.server));
      }
      EXPECT_EQ(machines.size(), 3u);
      EXPECT_TRUE(layout.replicas[0].on_ssd);
    }

    // Every chunk's replica set is fully alive, so I/O commits on all three
    // replicas without a timeout or a primary switch.
    client::VirtualDisk vd(&cluster, cluster.AddClientMachine(), 1);
    ASSERT_TRUE(vd.Open(*disk).ok());
    std::vector<uint8_t> data = test::Pattern(8 * kMiB, seed);
    Status wrote = Internal("pending");
    vd.Write(0, data.size(), test::Payload(data), [&](const Status& s) { wrote = s; });
    sim.RunUntil(sim.Now() + sec(5));
    ASSERT_TRUE(wrote.ok()) << wrote.ToString();
    std::vector<uint8_t> back(data.size());
    Status read = Internal("pending");
    vd.Read(0, back.size(), back.data(), [&](const Status& s) { read = s; });
    sim.RunUntil(sim.Now() + sec(5));
    ASSERT_TRUE(read.ok()) << read.ToString();
    EXPECT_EQ(back, data);
    EXPECT_EQ(vd.stats().timeouts, 0u);
    EXPECT_EQ(vd.stats().primary_switches, 0u);
  }
}

TEST(MasterTest, CreateDiskValidatesArgs) {
  sim::Simulator sim;
  Cluster cluster(&sim, test::SmallClusterConfig());
  EXPECT_FALSE(cluster.master().CreateDisk("d", 0, 3, 2).ok());
  EXPECT_FALSE(cluster.master().CreateDisk("d", 1 * kMiB, 0, 2).ok());
}

TEST(MasterTest, LeaseExcludesSecondClient) {
  sim::Simulator sim;
  Cluster cluster(&sim, test::SmallClusterConfig());
  Master& master = cluster.master();
  Result<DiskId> disk = master.CreateDisk("d", 2 * kMiB, 3, 1);
  ASSERT_TRUE(disk.ok());
  EXPECT_TRUE(master.OpenDisk(*disk, 1).ok());
  EXPECT_EQ(master.OpenDisk(*disk, 2).status().code(), StatusCode::kUnavailable);
  // Same client can re-open (renew).
  EXPECT_TRUE(master.OpenDisk(*disk, 1).ok());
}

TEST(MasterTest, LeaseExpiresOverTime) {
  sim::Simulator sim;
  Cluster cluster(&sim, test::SmallClusterConfig());
  Master& master = cluster.master();
  master.set_lease_term(sec(5));
  Result<DiskId> disk = master.CreateDisk("d", 2 * kMiB, 3, 1);
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE(master.OpenDisk(*disk, 1).ok());
  sim.RunUntil(sec(6));
  EXPECT_TRUE(master.OpenDisk(*disk, 2).ok());  // lease lapsed
}

TEST(MasterTest, RenewKeepsLease) {
  sim::Simulator sim;
  Cluster cluster(&sim, test::SmallClusterConfig());
  Master& master = cluster.master();
  master.set_lease_term(sec(5));
  Result<DiskId> disk = master.CreateDisk("d", 2 * kMiB, 3, 1);
  ASSERT_TRUE(master.OpenDisk(*disk, 1).ok());
  sim.RunUntil(sec(4));
  ASSERT_TRUE(master.RenewLease(*disk, 1).ok());
  sim.RunUntil(sec(8));  // original term passed, renewed term active
  EXPECT_EQ(master.OpenDisk(*disk, 2).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(master.RenewLease(*disk, 2).code(), StatusCode::kUnavailable);
}

TEST(MasterTest, CloseReleasesLease) {
  sim::Simulator sim;
  Cluster cluster(&sim, test::SmallClusterConfig());
  Master& master = cluster.master();
  Result<DiskId> disk = master.CreateDisk("d", 2 * kMiB, 3, 1);
  ASSERT_TRUE(master.OpenDisk(*disk, 1).ok());
  ASSERT_TRUE(master.CloseDisk(*disk, 1).ok());
  EXPECT_TRUE(master.OpenDisk(*disk, 2).ok());
}

TEST(FleetFailureTest, HddDominatesPerTableOne) {
  Rng rng(2024);
  FleetModel model;
  FleetFailureCounts counts = SimulateFleetFailures(model, 2000, 2.0, &rng);
  ASSERT_GT(counts.total(), 500u);
  double hdd = counts.Ratio(ComponentKind::kHdd);
  double ssd = counts.Ratio(ComponentKind::kSsd);
  // Table 1: HDD ~69%, SSD ~4% (an order of magnitude apart).
  EXPECT_NEAR(hdd, 0.69, 0.08);
  EXPECT_NEAR(ssd, 0.04, 0.03);
  EXPECT_GT(hdd / ssd, 8.0);
}

TEST(FleetFailureTest, RatiosSumToOne) {
  Rng rng(7);
  FleetFailureCounts counts = SimulateFleetFailures(FleetModel{}, 500, 3.0, &rng);
  double total = 0;
  for (int k = 0; k < kNumComponentKinds; ++k) {
    total += counts.Ratio(static_cast<ComponentKind>(k));
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

// The commit rule on a three-leg WriteQuorum. A script is a list of "+L"
// (leg L succeeds), "-L" (leg L fails) and "T" (the commit timeout expires);
// `decider` is the index of the one step that decides the write (-1: none),
// followed by the outcome and the final tallies.
struct QuorumScript {
  const char* steps;
  int decider;
  StatusCode outcome;
  int successes;
  int failures;
};

void ExpectQuorumDecides(const QuorumScript& s) {
  SCOPED_TRACE(s.steps);
  WriteQuorum quorum(3);
  std::istringstream script(s.steps);
  std::string step;
  for (int i = 0; script >> step; ++i) {
    bool decided = step == "T" ? quorum.Expire() : quorum.Count(step[1] - '0', step[0] == '+');
    EXPECT_EQ(decided, i == s.decider) << "step " << i << " (" << step << ")";
    EXPECT_EQ(quorum.decided(), s.decider >= 0 && i >= s.decider) << "step " << i;
  }
  if (s.decider >= 0) {
    EXPECT_EQ(quorum.outcome().code(), s.outcome);
  }
  EXPECT_EQ(quorum.successes(), s.successes);
  EXPECT_EQ(quorum.failures(), s.failures);
}

// The next six keep the suite name they have always run under, so their
// results stay comparable across history; they exercise WriteQuorum.
TEST(QuorumTrackerTest, AllSuccessCommitsImmediately) {
  // Write to all first: two successes wait for the third.
  ExpectQuorumDecides({"+0 +1 +2", 2, StatusCode::kOk, 3, 0});
}

TEST(QuorumTrackerTest, MajorityCommitsOnlyAfterTimeout) {
  // A majority commits only once the timeout authorized it (§4.1).
  ExpectQuorumDecides({"+0 +1 -2 T", 3, StatusCode::kOk, 2, 1});
}

TEST(QuorumTrackerTest, TimeoutFirstThenMajority) {
  ExpectQuorumDecides({"T +0 +1", 2, StatusCode::kOk, 2, 0});
}

TEST(QuorumTrackerTest, MajorityUnreachableFails) {
  // The third leg replies after the failure was decided; it is not counted.
  ExpectQuorumDecides({"-0 -1 +2", 1, StatusCode::kUnavailable, 0, 2});
}

TEST(QuorumTrackerTest, DecidesExactlyOnce) {
  // Nothing after the decision flips it: not a timeout, not a failure.
  ExpectQuorumDecides({"+0 +1 +2 T -1", 2, StatusCode::kOk, 3, 0});
}

TEST(QuorumTrackerTest, LateStragglerAfterDecisionDoesNotDoubleComplete) {
  // Leg 2 is still outstanding when a majority-after-timeout decides; its
  // late reply changes neither the decision nor the tallies the owner reads.
  ExpectQuorumDecides({"+0 T +1 +2 T", 2, StatusCode::kOk, 2, 0});
}

TEST(WriteQuorumTest, RepeatedLegCountsOnce) {
  // A duplicated ack never passes for another replica, even after the timeout.
  ExpectQuorumDecides({"+0 +0 +0 T +0 +1", 5, StatusCode::kOk, 2, 0});
}

TEST(WriteQuorumTest, RepeatedFailureCountsOnce) {
  // A duplicated failure never makes a majority fail.
  ExpectQuorumDecides({"-0 -0 +1 +2 T", 4, StatusCode::kOk, 2, 1});
}

}  // namespace
}  // namespace ursa::cluster
