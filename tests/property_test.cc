// Parameterized property tests sweeping configuration space: striping
// geometry, journal thresholds, replication factors, device scheduling, and
// end-to-end durability under randomized crash schedules.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "src/client/virtual_disk.h"
#include "src/common/rng.h"
#include "src/core/system.h"
#include "test_util.h"

namespace ursa {
namespace {

// ---------------------------------------------------------------------------
// Striping geometry: for any (stripe_group, I/O size, offset), data written
// through the striped mapping reads back identically — and sub-request
// fan-out matches the geometry.
// ---------------------------------------------------------------------------
class StripingPropertyTest
    : public ::testing::TestWithParam<std::tuple<int /*group*/, uint64_t /*io KiB*/>> {};

TEST_P(StripingPropertyTest, RoundTripAtManyOffsets) {
  auto [group, io_kib] = GetParam();
  sim::Simulator sim;
  cluster::Cluster cluster(&sim, test::SmallClusterConfig());
  cluster::DiskId disk_id = *cluster.master().CreateDisk("d", 8 * kMiB, 3, group);
  client::VirtualDisk disk(&cluster, cluster.AddClientMachine(), 1,
                           client::VirtualDiskClientOptions{});
  ASSERT_TRUE(disk.Open(disk_id).ok());

  uint64_t io = io_kib * kKiB;
  Rng rng(group * 1000 + io_kib);
  for (int round = 0; round < 8; ++round) {
    uint64_t offset = rng.Uniform((8 * kMiB - io) / 512) * 512;
    auto data = test::Pattern(io, 100 + round);
    Status ws = Internal("pending");
    disk.Write(offset, io, test::Payload(data), [&](const Status& s) { ws = s; });
    sim.RunUntil(sim.Now() + sec(2));
    ASSERT_TRUE(ws.ok()) << ws.ToString();

    std::vector<uint8_t> out(io, 0);
    Status rs = Internal("pending");
    disk.Read(offset, io, out.data(), [&](const Status& s) { rs = s; });
    sim.RunUntil(sim.Now() + sec(2));
    ASSERT_TRUE(rs.ok()) << rs.ToString();
    ASSERT_EQ(out, data) << "group=" << group << " io=" << io << " offset=" << offset;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, StripingPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(4, 64, 512, 1024)),
    [](const auto& info) {
      return "g" + std::to_string(std::get<0>(info.param)) + "_io" +
             std::to_string(std::get<1>(info.param)) + "k";
    });

// ---------------------------------------------------------------------------
// Journal threshold sweep: whatever Tj/Tc combination is configured, the
// hybrid write path stays byte-correct (journaled, bypassed, and
// client-directed writes all durable and readable).
// ---------------------------------------------------------------------------
class ThresholdPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t /*Tj KiB*/, uint64_t /*Tc KiB*/>> {};

TEST_P(ThresholdPropertyTest, HybridPathCorrectUnderAnyThresholds) {
  auto [tj_kib, tc_kib] = GetParam();
  sim::Simulator sim;
  cluster::ClusterConfig config = test::SmallClusterConfig();
  config.journal.bypass_threshold = tj_kib * kKiB;
  cluster::Cluster cluster(&sim, config);
  cluster::DiskId disk_id = *cluster.master().CreateDisk("d", 8 * kMiB, 3, 2);
  client::VirtualDiskClientOptions options;
  options.tiny_write_threshold = tc_kib * kKiB;
  client::VirtualDisk disk(&cluster, cluster.AddClientMachine(), 1, options);
  ASSERT_TRUE(disk.Open(disk_id).ok());

  // Mix of sizes straddling both thresholds.
  Rng rng(tj_kib * 31 + tc_kib);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> written;
  for (int i = 0; i < 12; ++i) {
    uint64_t len = rng.UniformRange(1, 256) * 512;
    uint64_t offset = i * 512 * kKiB % (8 * kMiB - len);
    offset -= offset % 512;
    auto data = test::Pattern(len, 200 + i);
    Status ws = Internal("pending");
    disk.Write(offset, len, test::Payload(data), [&](const Status& s) { ws = s; });
    sim.RunUntil(sim.Now() + sec(2));
    ASSERT_TRUE(ws.ok());
    written.emplace_back(offset, std::move(data));
  }
  // Let replay churn, then verify everything.
  sim.RunUntil(sim.Now() + sec(2));
  for (const auto& [offset, data] : written) {
    std::vector<uint8_t> out(data.size());
    Status rs = Internal("pending");
    disk.Read(offset, out.size(), out.data(), [&](const Status& s) { rs = s; });
    sim.RunUntil(sim.Now() + sec(2));
    ASSERT_TRUE(rs.ok());
    ASSERT_EQ(out, data);
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdPropertyTest,
                         ::testing::Combine(::testing::Values(8, 64, 128),
                                            ::testing::Values(0, 8, 64)),
                         [](const auto& info) {
                           return "tj" + std::to_string(std::get<0>(info.param)) + "_tc" +
                                  std::to_string(std::get<1>(info.param));
                         });

// ---------------------------------------------------------------------------
// Replication factor sweep: 1-, 2- and 3-way replicated disks all provide
// read-your-writes, and (for >= 2) survive one backup crash.
// ---------------------------------------------------------------------------
class ReplicationPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ReplicationPropertyTest, ReadYourWritesAndCrashTolerance) {
  int replication = GetParam();
  sim::Simulator sim;
  cluster::Cluster cluster(&sim, test::SmallClusterConfig());
  cluster::DiskId disk_id = *cluster.master().CreateDisk("d", 4 * kMiB, replication, 1);
  client::VirtualDiskClientOptions options;
  options.request_timeout = msec(300);
  client::VirtualDisk disk(&cluster, cluster.AddClientMachine(), 1, options);
  ASSERT_TRUE(disk.Open(disk_id).ok());

  auto data = test::Pattern(8192, replication);
  Status ws = Internal("pending");
  disk.Write(0, data.size(), test::Payload(data), [&](const Status& s) { ws = s; });
  sim.RunUntil(sim.Now() + sec(2));
  ASSERT_TRUE(ws.ok());

  if (replication >= 3) {
    // Crash one backup: majority still commits and reads still work.
    const cluster::DiskMeta* meta = *cluster.master().GetDisk(disk_id);
    cluster.CrashServer(meta->chunks[0].replicas[replication - 1].server);
    auto data2 = test::Pattern(8192, replication + 50);
    ws = Internal("pending");
    disk.Write(0, data2.size(), test::Payload(data2), [&](const Status& s) { ws = s; });
    sim.RunUntil(sim.Now() + sec(10));
    ASSERT_TRUE(ws.ok()) << ws.ToString();
    data = data2;
  }

  std::vector<uint8_t> out(data.size());
  Status rs = Internal("pending");
  disk.Read(0, out.size(), out.data(), [&](const Status& s) { rs = s; });
  sim.RunUntil(sim.Now() + sec(10));
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(out, data);
}

INSTANTIATE_TEST_SUITE_P(Factors, ReplicationPropertyTest, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// Crash-schedule fuzz: random single-server crashes and restores interleaved
// with writes; the shadow buffer must match every committed write, across
// seeds and storage modes.
// ---------------------------------------------------------------------------
class CrashFuzzTest
    : public ::testing::TestWithParam<std::tuple<uint64_t /*seed*/, cluster::StorageMode>> {};

TEST_P(CrashFuzzTest, CommittedWritesSurviveCrashSchedules) {
  auto [seed, mode] = GetParam();
  sim::Simulator sim;
  cluster::Cluster cluster(&sim, test::SmallClusterConfig(mode));
  cluster::DiskId disk_id = *cluster.master().CreateDisk("d", 2 * kMiB, 3, 1);
  client::VirtualDiskClientOptions options;
  options.request_timeout = msec(300);
  client::VirtualDisk disk(&cluster, cluster.AddClientMachine(), 1, options);
  ASSERT_TRUE(disk.Open(disk_id).ok());

  Rng rng(seed);
  constexpr uint64_t kSpan = 1 * kMiB;
  std::vector<uint8_t> shadow(kSpan, 0);
  std::vector<bool> defined(kSpan, true);  // untouched bytes read as zero
  cluster::ServerId crashed = UINT32_MAX;

  for (int step = 0; step < 25; ++step) {
    // Occasionally crash one (non-crashed) server or restore the crashed one.
    if (crashed == UINT32_MAX && rng.Bernoulli(0.15)) {
      crashed = static_cast<cluster::ServerId>(rng.Uniform(cluster.num_servers()));
      cluster.CrashServer(crashed);
    } else if (crashed != UINT32_MAX && rng.Bernoulli(0.4)) {
      cluster.RestoreServer(crashed);
      crashed = UINT32_MAX;
    }

    uint64_t len = rng.UniformRange(1, 32) * 512;
    uint64_t offset = rng.Uniform((kSpan - len) / 512) * 512;
    auto data = test::Pattern(len, 300 + step);
    Status ws = Internal("pending");
    disk.Write(offset, len, test::Payload(data), [&](const Status& s) { ws = s; });
    sim.RunUntil(sim.Now() + sec(30));
    if (ws.ok()) {
      std::copy(data.begin(), data.end(), shadow.begin() + offset);
      for (uint64_t b = offset; b < offset + len; ++b) {
        defined[b] = true;
      }
    } else {
      // Block-device semantics: a failed write leaves the range UNDEFINED
      // (some replicas may have executed it before the client gave up).
      for (uint64_t b = offset; b < offset + len; ++b) {
        defined[b] = false;
      }
    }
  }
  if (crashed != UINT32_MAX) {
    cluster.RestoreServer(crashed);
  }
  sim.RunUntil(sim.Now() + sec(5));

  std::vector<uint8_t> out(kSpan, 0);
  Status rs = Internal("pending");
  disk.Read(0, kSpan, out.data(), [&](const Status& s) { rs = s; });
  sim.RunUntil(sim.Now() + sec(30));
  ASSERT_TRUE(rs.ok()) << rs.ToString();
  size_t mismatches = 0;
  for (uint64_t b = 0; b < kSpan; ++b) {
    if (defined[b] && out[b] != shadow[b]) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, CrashFuzzTest,
    ::testing::Combine(::testing::Values(101, 202, 303, 404),
                       ::testing::Values(cluster::StorageMode::kHybrid,
                                         cluster::StorageMode::kSsdOnly)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == cluster::StorageMode::kHybrid ? "_hybrid" : "_ssd");
    });

// ---------------------------------------------------------------------------
// HDD scheduling invariants across seeds: elevator-batched service never
// takes longer than worst-case FIFO, and background I/O never runs while
// foreground work is queued.
// ---------------------------------------------------------------------------
class HddSchedulingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HddSchedulingTest, BackgroundYieldsToForeground) {
  sim::Simulator sim;
  storage::HddParams params;
  params.background_idle_grace = msec(2);
  storage::HddModel hdd(&sim, params);
  Rng rng(GetParam());

  // Queue a pile of background work, then a foreground burst; every
  // foreground op must complete before the last background op.
  Nanos last_fg = 0;
  Nanos first_bg_after = INT64_MAX;
  int fg_left = 10;
  for (int i = 0; i < 20; ++i) {
    storage::IoRequest req =
        test::MakeWrite(rng.Uniform(params.capacity / 4096) * 4096, 4096, {}, [&](const Status&) {
          if (fg_left > 0) {
            first_bg_after = std::min(first_bg_after, sim.Now());
          }
        });
    req.background = true;
    hdd.Submit(std::move(req));
  }
  for (int i = 0; i < 10; ++i) {
    hdd.Submit(
        test::MakeWrite(rng.Uniform(params.capacity / 4096) * 4096, 4096, {}, [&](const Status&) {
          --fg_left;
          last_fg = sim.Now();
        }));
  }
  sim.RunToCompletion();
  EXPECT_EQ(fg_left, 0);
  // At most one background op (already in service) may finish while
  // foreground work is queued.
  EXPECT_TRUE(first_bg_after == INT64_MAX || first_bg_after <= last_fg);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HddSchedulingTest, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace ursa
