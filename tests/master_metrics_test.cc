// Targeted tests for master recovery orchestration edge cases and the
// metrics/reporting utilities used by every benchmark.
#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/core/metrics.h"
#include "test_util.h"

namespace ursa {
namespace {

class MasterEdgeTest : public ::testing::Test {
 protected:
  MasterEdgeTest() : cluster_(&sim_, test::SmallClusterConfig()) {
    disk_id_ = *cluster_.master().CreateDisk("d", 4 * kMiB, 3, 1);
  }

  cluster::ChunkLayout Layout0() {
    return (*cluster_.master().GetDisk(disk_id_))->chunks[0];
  }

  sim::Simulator sim_;
  cluster::Cluster cluster_;
  cluster::DiskId disk_id_ = 0;
};

TEST_F(MasterEdgeTest, FalseSuspicionDoesNotChangeView) {
  // Reporting a HEALTHY server must not trigger a view change (the paper's
  // conservative failure declaration, §4.2.2): the master verifies first.
  cluster::ChunkLayout before = Layout0();
  Status result = Internal("pending");
  cluster_.master().ReportReplicaFailure(before.chunk, before.replicas[0].server,
                                         [&](Status s) { result = s; });
  sim_.RunUntil(sim_.Now() + sec(5));
  ASSERT_TRUE(result.ok()) << result.ToString();
  cluster::ChunkLayout after = Layout0();
  EXPECT_EQ(after.view, before.view);
  EXPECT_EQ(after.replicas[0].server, before.replicas[0].server);
  EXPECT_EQ(cluster_.master().recovery_stats().view_changes, 0u);
}

TEST_F(MasterEdgeTest, RepairChunkReplicasHealsLaggard) {
  cluster::ChunkLayout layout = Layout0();
  cluster::ChunkServer* laggard = cluster_.server(layout.replicas[2].server);
  cluster::ChunkServer* fresh = cluster_.server(layout.replicas[0].server);
  // Simulate a missed write: the fresh replica advanced, the laggard did not.
  fresh->InstallView(layout.chunk, layout.view, 3);
  cluster_.server(layout.replicas[1].server)->InstallView(layout.chunk, layout.view, 3);
  laggard->InstallView(layout.chunk, layout.view, 1);

  cluster_.master().RepairChunkReplicas(layout.chunk);
  sim_.RunUntil(sim_.Now() + sec(10));
  Result<cluster::ReplicaState> st = laggard->GetState(layout.chunk);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->version, 3u);
}

// A view change lands while a laggard's repair copies: the repair's install,
// made for the older view, must not take the laggard back to it.
TEST_F(MasterEdgeTest, RepairOutlivedByAViewChangeKeepsTheNewView) {
  cluster::ChunkLayout layout = Layout0();
  cluster::ChunkServer* laggard = cluster_.server(layout.replicas[2].server);
  cluster_.server(layout.replicas[0].server)->InstallView(layout.chunk, layout.view, 3);
  cluster_.server(layout.replicas[1].server)->InstallView(layout.chunk, layout.view, 3);
  laggard->InstallView(layout.chunk, layout.view, 1);

  cluster_.master().RepairChunkReplicas(layout.chunk);
  cluster_.master().SetServerDemoted(layout.replicas[1].server, true);  // the next view
  sim_.RunUntil(sim_.Now() + sec(10));
  const uint64_t view = Layout0().view;
  ASSERT_EQ(view, layout.view + 1);
  Result<cluster::ReplicaState> st = laggard->GetState(layout.chunk);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->view, view);
  EXPECT_EQ(st->version, 1u);  // the stale repair raised nothing; a later one will
}

TEST_F(MasterEdgeTest, RecoveryPieceSizeDoesNotChangeBytes) {
  cluster::ChunkLayout layout = Layout0();
  cluster_.master().set_recovery_piece(256 * kKiB);
  cluster_.master().set_recovery_window(2);
  cluster_.CrashServer(layout.replicas[1].server);
  Status result = Internal("pending");
  cluster_.master().ReportReplicaFailure(layout.chunk, layout.replicas[1].server,
                                         [&](Status s) { result = s; });
  sim_.RunUntil(sim_.Now() + sec(20));
  ASSERT_TRUE(result.ok()) << result.ToString();
  // One full 1 MiB chunk transferred regardless of piece size.
  EXPECT_EQ(cluster_.master().recovery_stats().bytes_transferred, 1 * kMiB);
}

TEST_F(MasterEdgeTest, ReportOnUnknownChunkFails) {
  Status result;
  cluster_.master().ReportReplicaFailure(99999, 0, [&](Status s) { result = s; });
  sim_.RunUntil(sim_.Now() + sec(1));
  EXPECT_EQ(result.code(), StatusCode::kNotFound);
}

TEST(RunMetricsTest, RateMath) {
  core::RunMetrics m;
  m.seconds = 2.0;
  m.reads = 1000;
  m.writes = 500;
  m.read_bytes = 8 * 1000 * 1000;
  m.write_bytes = 4 * 1000 * 1000;
  EXPECT_DOUBLE_EQ(m.iops(), 750.0);
  EXPECT_DOUBLE_EQ(m.read_iops(), 500.0);
  EXPECT_DOUBLE_EQ(m.write_iops(), 250.0);
  EXPECT_DOUBLE_EQ(m.read_mbps(), 4.0);
  EXPECT_DOUBLE_EQ(m.write_mbps(), 2.0);
}

TEST(RunMetricsTest, EfficiencyUsesBusyCores) {
  core::RunMetrics m;
  m.seconds = 1.0;
  m.reads = 100000;
  m.server_cpu_busy = sec(2);  // two cores busy for the whole second
  m.client_cpu_busy = sec(1) / 2;
  EXPECT_DOUBLE_EQ(m.ServerIopsPerCore(), 50000.0);
  EXPECT_DOUBLE_EQ(m.ClientIopsPerCore(), 200000.0);
}

TEST(RunMetricsTest, ZeroWindowIsSafe) {
  core::RunMetrics m;
  EXPECT_DOUBLE_EQ(m.iops(), 0.0);
  EXPECT_DOUBLE_EQ(m.ClientIopsPerCore(), 0.0);
}

TEST(TableTest, Formatting) {
  EXPECT_EQ(core::Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(core::Table::Int(12345.6), "12346");
  core::Table t({"a", "bb"});
  t.AddRow({"1", "2"});
  t.Print();  // must not crash with short rows
  core::Table ragged({"x", "y", "z"});
  ragged.AddRow({"only-one"});
  ragged.Print();
}

TEST(HistogramEdgeTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_TRUE(h.Pdf(10).empty());
  EXPECT_EQ(h.Mean(), 0.0);
}

}  // namespace
}  // namespace ursa

namespace ursa {
namespace {

TEST(MasterRecoveryTest, CheckpointRestoreRoundTrip) {
  // §4.2.2: "If the master and a replica fail simultaneously, the master is
  // recovered first, and then the chunk is recovered as described above."
  sim::Simulator sim;
  cluster::Cluster cluster(&sim, test::SmallClusterConfig());
  cluster::Master& master = cluster.master();
  cluster::DiskId d1 = *master.CreateDisk("a", 4 * kMiB, 3, 2);
  cluster::DiskId d2 = *master.CreateDisk("b", 2 * kMiB, 3, 1);
  ASSERT_TRUE(master.OpenDisk(d1, 7).ok());

  cluster::Master::Checkpoint cp = master.TakeCheckpoint();

  // "Restart": wipe into a fresh logical state by restoring the checkpoint.
  master.Restore(cp);

  // Metadata survives; leases do not (clients re-acquire).
  Result<const cluster::DiskMeta*> m1 = master.GetDisk(d1);
  ASSERT_TRUE(m1.ok());
  EXPECT_EQ((*m1)->chunks.size(), 4u);
  EXPECT_EQ((*m1)->lease_holder, 0u);
  EXPECT_TRUE(master.OpenDisk(d1, 8).ok());  // a new client can take over
  Result<const cluster::DiskMeta*> m2 = master.GetDisk(d2);
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ((*m2)->chunks.size(), 2u);

  // Disk creation continues without id collisions.
  cluster::DiskId d3 = *master.CreateDisk("c", 1 * kMiB, 3, 1);
  EXPECT_GT(d3, d2);
  cluster::ChunkId last_old = (*m1)->chunks.back().chunk;
  EXPECT_GT((*master.GetDisk(d3))->chunks[0].chunk, last_old);

  // And failure recovery still works against the restored index: crash a
  // replica of d1's first chunk and run the view change.
  cluster::ChunkLayout layout = (*master.GetDisk(d1))->chunks[0];
  cluster.CrashServer(layout.replicas[1].server);
  Status recovery = Internal("pending");
  master.ReportReplicaFailure(layout.chunk, layout.replicas[1].server,
                              [&](Status s) { recovery = s; });
  sim.RunUntil(sim.Now() + sec(20));
  EXPECT_TRUE(recovery.ok()) << recovery.ToString();
  EXPECT_EQ((*master.GetDisk(d1))->chunks[0].view, layout.view + 1);
}

}  // namespace
}  // namespace ursa
