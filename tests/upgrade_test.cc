// Tests for §5.2 online upgrade (chunk-server hot upgrade with drain and
// rollback, client core/shell upgrade, incremental rollout) and the §3.2
// master-imposed client rate limit.
#include <gtest/gtest.h>

#include <memory>

#include "src/client/virtual_disk.h"
#include "src/cluster/upgrade.h"
#include "src/common/rate_limiter.h"
#include "test_util.h"

namespace ursa::cluster {
namespace {

class UpgradeTest : public ::testing::Test {
 protected:
  UpgradeTest() : cluster_(&sim_, test::SmallClusterConfig()), coordinator_(&sim_, &cluster_) {
    disk_id_ = *cluster_.master().CreateDisk("d", 4 * kMiB, 3, 1);
    disk_ = std::make_unique<client::VirtualDisk>(&cluster_, cluster_.AddClientMachine(), 1,
                                                  client::VirtualDiskClientOptions{});
    EXPECT_TRUE(disk_->Open(disk_id_).ok());
  }

  Status WriteSync(uint64_t offset, const std::vector<uint8_t>& data, Nanos budget = sec(5)) {
    Status out = Internal("pending");
    disk_->Write(offset, data.size(), test::Payload(data), [&](const Status& s) { out = s; });
    sim_.RunUntil(sim_.Now() + budget);
    return out;
  }

  sim::Simulator sim_;
  Cluster cluster_;
  UpgradeCoordinator coordinator_;
  DiskId disk_id_ = 0;
  std::unique_ptr<client::VirtualDisk> disk_;
};

TEST_F(UpgradeTest, ServerHotUpgradeSucceeds) {
  ChunkServer* server = cluster_.server(0);
  EXPECT_EQ(server->software_version(), "v1");
  bool result = false;
  bool completed = false;
  coordinator_.UpgradeServer(0, "v2", []() { return true; }, [&](bool ok) {
    result = ok;
    completed = true;
  });
  sim_.RunUntil(sim_.Now() + sec(5));
  EXPECT_TRUE(completed);
  EXPECT_TRUE(result);
  EXPECT_EQ(server->software_version(), "v2");
  EXPECT_FALSE(server->draining());
}

TEST_F(UpgradeTest, FailedHealthCheckRollsBack) {
  ChunkServer* server = cluster_.server(0);
  bool result = true;
  coordinator_.UpgradeServer(0, "v2-broken", []() { return false; },
                             [&](bool ok) { result = ok; });
  sim_.RunUntil(sim_.Now() + sec(5));
  EXPECT_FALSE(result);
  // Old version keeps serving: the port re-opened, version unchanged.
  EXPECT_EQ(server->software_version(), "v1");
  EXPECT_FALSE(server->draining());
}

TEST_F(UpgradeTest, DrainingServerDropsNewRequestsButFinishesInflight) {
  ChunkServer* server = cluster_.server(0);
  server->SetDraining(true);
  bool replied = false;
  server->HandleVersionQuery(1, [&](const Status&, cluster::ReplicaState) {
    replied = true;
  });
  sim_.RunUntil(sim_.Now() + msec(100));
  EXPECT_FALSE(replied);  // port closed
  server->SetDraining(false);
  server->HandleVersionQuery(1, [&](const Status&, cluster::ReplicaState) {
    replied = true;
  });
  sim_.RunUntil(sim_.Now() + msec(100));
  EXPECT_TRUE(replied);
}

TEST_F(UpgradeTest, ClusterServiceSurvivesUpgradeOfOneServer) {
  // Writes keep committing while a backup server upgrades: the commit rule
  // tolerates the drained replica (majority-after-timeout), exactly like a
  // transient failure.
  auto data = test::Pattern(4096, 1);
  ASSERT_TRUE(WriteSync(0, data).ok());

  const DiskMeta* meta = *cluster_.master().GetDisk(disk_id_);
  ServerId backup = meta->chunks[0].replicas[2].server;
  bool upgraded = false;
  coordinator_.UpgradeServer(backup, "v2", []() { return true; },
                             [&](bool ok) { upgraded = ok; });
  // Issue a write immediately, while the backup is draining.
  auto data2 = test::Pattern(4096, 2);
  Status ws = WriteSync(0, data2, sec(2));
  EXPECT_TRUE(ws.ok()) << ws.ToString();
  sim_.RunUntil(sim_.Now() + sec(2));
  EXPECT_TRUE(upgraded);
  EXPECT_EQ(cluster_.server(backup)->software_version(), "v2");
}

TEST_F(UpgradeTest, IncrementalRolloutUpgradesEveryServer) {
  UpgradeReport report;
  bool completed = false;
  coordinator_.UpgradeAllServers("v3", [](ServerId) { return true; },
                                 [&](UpgradeReport r) {
                                   report = std::move(r);
                                   completed = true;
                                 });
  sim_.RunUntil(sim_.Now() + sec(30));
  ASSERT_TRUE(completed);
  EXPECT_EQ(report.upgraded, static_cast<int>(cluster_.num_servers()));
  EXPECT_EQ(report.rolled_back, 0);
  for (size_t s = 0; s < cluster_.num_servers(); ++s) {
    EXPECT_EQ(cluster_.server(s)->software_version(), "v3");
  }
}

TEST_F(UpgradeTest, RolloutContinuesPastFailures) {
  bool completed = false;
  UpgradeReport report;
  // Every third server fails its health check and rolls back.
  coordinator_.UpgradeAllServers("v4", [](ServerId id) { return id % 3 != 0; },
                                 [&](UpgradeReport r) {
                                   report = std::move(r);
                                   completed = true;
                                 });
  sim_.RunUntil(sim_.Now() + sec(30));
  ASSERT_TRUE(completed);
  EXPECT_GT(report.rolled_back, 0);
  EXPECT_EQ(report.upgraded + report.rolled_back, static_cast<int>(cluster_.num_servers()));
  EXPECT_EQ(cluster_.server(0)->software_version(), "v1");  // rolled back
  EXPECT_EQ(cluster_.server(1)->software_version(), "v4");
}

TEST_F(UpgradeTest, ClientUpgradeBuffersAndResumesIo) {
  auto data1 = test::Pattern(4096, 3);
  ASSERT_TRUE(WriteSync(0, data1).ok());

  bool upgraded = false;
  disk_->Upgrade("v2", msec(20), [&]() { upgraded = true; });
  EXPECT_TRUE(disk_->upgrading());

  // I/O issued during the upgrade is buffered, not dropped.
  auto data2 = test::Pattern(4096, 4);
  Status write_status = Internal("pending");
  disk_->Write(0, data2.size(), test::Payload(data2), [&](const Status& s) { write_status = s; });

  sim_.RunUntil(sim_.Now() + sec(2));
  EXPECT_TRUE(upgraded);
  EXPECT_EQ(disk_->software_version(), "v2");
  EXPECT_FALSE(disk_->upgrading());
  EXPECT_TRUE(write_status.ok()) << write_status.ToString();

  // The buffered write is durable and visible on the new core.
  std::vector<uint8_t> out(4096);
  Status read_status = Internal("pending");
  disk_->Read(0, out.size(), out.data(), [&](const Status& s) { read_status = s; });
  sim_.RunUntil(sim_.Now() + sec(2));
  EXPECT_TRUE(read_status.ok()) << read_status.ToString();
  EXPECT_EQ(out, data2);
}

TEST(RateLimiterTest, UnlimitedByDefault) {
  RateLimiter limiter;
  EXPECT_TRUE(limiter.unlimited());
  EXPECT_EQ(limiter.Acquire(0), 0);
  EXPECT_EQ(limiter.Acquire(0), 0);
}

TEST(RateLimiterTest, EnforcesRate) {
  RateLimiter limiter(1000.0, 1.0);  // 1000 ops/s, burst 1
  EXPECT_EQ(limiter.Acquire(0), 0);
  Nanos wait = limiter.Acquire(0);
  EXPECT_GT(wait, 0);
  EXPECT_LE(wait, msec(2));
  // After the indicated wait a token is available again.
  EXPECT_EQ(limiter.Acquire(wait), 0);
}

TEST(RateLimiterTest, BurstAllowsBackToBack) {
  RateLimiter limiter(10.0, 5.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(limiter.Acquire(0), 0) << i;
  }
  EXPECT_GT(limiter.Acquire(0), 0);
}

TEST_F(UpgradeTest, MasterRateLimitThrottlesClientWrites) {
  auto run_burst = [&]() {
    Nanos start = sim_.Now();
    int completed = 0;
    auto data = test::Pattern(4096, 5);
    for (int i = 0; i < 50; ++i) {
      disk_->Write((i % 64) * 4096, data.size(), test::Payload(data),
                   [&](const Status& s) { completed += s.ok() ? 1 : 0; });
    }
    while (completed < 50 && sim_.Step(INT64_MAX)) {
    }
    EXPECT_EQ(completed, 50);
    return sim_.Now() - start;
  };

  Nanos unthrottled = run_burst();

  // Throttled to 100 writes/s: the same burst takes ~0.5 s.
  disk_->SetWriteRateLimit(100.0);
  Nanos throttled = run_burst();
  EXPECT_GT(disk_->stats().throttled_writes, 0u);
  EXPECT_GT(throttled, 5 * unthrottled);
  // 50 ops at 100/s with a burst allowance of 32: ~180 ms floor.
  EXPECT_GT(throttled, msec(150));
}

}  // namespace
}  // namespace ursa::cluster
