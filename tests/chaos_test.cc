// Chaos-harness acceptance tests (see DESIGN.md "Fault model & chaos
// harness"): the seeded runner passes a 20-seed sweep, failures replay
// deterministically, an injected journal bit flip is caught by CRC and
// repaired from a healthy replica (never surfaced as stale data), and a
// stale primary cannot ack writes after a partition-driven view change.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "src/chaos/chaos_plan.h"
#include "src/chaos/chaos_runner.h"
#include "src/client/virtual_disk.h"
#include "src/cluster/cluster.h"
#include "src/journal/journal_manager.h"
#include "test_util.h"

namespace ursa::chaos {
namespace {

// The headline acceptance criterion: 20 distinct seeds, each a full chaos
// run (network faults, partitions, gray disks, stuck I/O, a crash, journal
// bit flips), all linearizable and convergent after heal. ~25 ms per seed.
TEST(ChaosRunnerTest, TwentyDistinctSeedsPass) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ChaosPlan plan;
    plan.seed = seed;
    ChaosReport report = RunChaos(plan);
    EXPECT_TRUE(report.ok) << report.Summary();
    EXPECT_GT(report.committed_writes, 0) << "seed " << seed << " committed nothing";
    EXPECT_GT(report.checked_reads, 0) << "seed " << seed << " checked nothing";
  }
}

// Rerunning a seed replays the exact fault schedule and workload: identical
// trace, identical outcome. This is what turns a chaos failure into a
// regression test instead of an anecdote.
TEST(ChaosRunnerTest, SameSeedReplaysIdentically) {
  ChaosPlan plan;
  plan.seed = 13;
  ChaosReport first = RunChaos(plan);
  ChaosReport second = RunChaos(plan);
  EXPECT_EQ(first.ok, second.ok);
  EXPECT_EQ(first.checked_reads, second.checked_reads);
  EXPECT_EQ(first.committed_writes, second.committed_writes);
  EXPECT_EQ(first.failed_ops, second.failed_ops);
  EXPECT_EQ(first.bit_flips, second.bit_flips);
  EXPECT_EQ(first.fault_trace, second.fault_trace);
  EXPECT_EQ(first.violations, second.violations);
}

// The same fault schedules with the per-device QoS scheduler arbitrating
// every disk (DESIGN.md "QoS & background-traffic arbitration"): crash
// recovery and journal replay now run throttled behind foreground traffic —
// watermark backpressure pauses the replayer, recovery transfers yield — yet
// every seed must still converge (the runner's post-heal checks require all
// replicas caught up) and stay linearizable. Guards against a starved
// background class wedging recovery forever.
TEST(ChaosRunnerTest, SeedsConvergeWithQosSchedulerEnabled) {
  for (uint64_t seed : {7ull, 13ull, 19ull, 42ull}) {
    ChaosPlan plan;
    plan.seed = seed;
    plan.cluster.qos.enabled = true;
    ChaosReport report = RunChaos(plan);
    EXPECT_TRUE(report.ok) << "qos seed " << seed << ": " << report.Summary();
    EXPECT_GT(report.committed_writes, 0) << "qos seed " << seed << " committed nothing";
    EXPECT_GT(report.checked_reads, 0) << "qos seed " << seed << " checked nothing";
  }
}

// Directed end-to-end integrity drill: commit a write, flip one bit under
// its journal record, and require the cluster to detect the damage via CRC,
// quarantine the range (reads fail, never stale bytes), re-replicate from a
// healthy replica, and converge every replica back to the committed data.
TEST(ChaosIntegrityTest, BitFlipIsDetectedAndRepairedFromHealthyReplica) {
  sim::Simulator sim;
  cluster::Cluster cluster(&sim, DefaultChaosCluster());
  Result<cluster::DiskId> disk_id = cluster.master().CreateDisk("flip", 1 * kMiB, 3, 1);
  ASSERT_TRUE(disk_id.ok());

  cluster::Machine* host = cluster.AddClientMachine();
  client::VirtualDisk disk(&cluster, host, /*client_id=*/1, {});
  ASSERT_TRUE(disk.Open(*disk_id).ok());

  auto sum_stats = [&](auto field) {
    uint64_t total = 0;
    for (const journal::JournalManager* jm : cluster.journal_managers()) {
      total += jm->stats().*field;
    }
    return total;
  };

  // A lone in-flight record can never be caught: replay kicks at append
  // completion (After(0)), so its payload read is issued before the flip's
  // async read-modify-write can land, and the good pre-flip bytes merge.
  // Detection needs replay LAG — a burst of writes queues records behind the
  // in-flight HDD merge wave for milliseconds, plenty for a flip to land on
  // a not-yet-replayed record. Flip attempts are spread across the burst so
  // at least one hits a queued (not in-flight) record. Deterministic: same
  // seed, same schedule, same outcome every run.
  constexpr int kSlots = 16;
  std::vector<std::vector<uint8_t>> latest(kSlots, std::vector<uint8_t>(4096));
  Rng flip_rng(123);
  for (int round = 0;
       round < 20 && sum_stats(&journal::JournalStats::corruptions_detected) == 0; ++round) {
    int acked = 0;
    bool failed = false;
    for (int s = 0; s < kSlots; ++s) {
      for (size_t i = 0; i < latest[s].size(); ++i) {
        latest[s][i] = static_cast<uint8_t>(round * 31 + s * 7 + i);
      }
      disk.Write(static_cast<uint64_t>(s) * 4096, latest[s].size(), test::Payload(latest[s]),
                 [&](const Status& st) {
                   if (st.ok()) {
                     ++acked;
                   } else {
                     failed = true;
                   }
                 });
    }
    for (int step = 0; step < 20000 && acked + (failed ? 1 : 0) < kSlots; ++step) {
      sim.RunUntil(sim.Now() + usec(10));
      if (step % 50 == 0) {
        for (journal::JournalManager* jm : cluster.journal_managers()) {
          if (jm->InjectBitFlip(flip_rng)) {
            break;
          }
        }
      }
    }
    ASSERT_FALSE(failed);
    ASSERT_EQ(acked, kSlots) << "round " << round << " writes never completed";
    // Give replay a chance to reach the damaged records.
    for (int step = 0;
         step < 100 && sum_stats(&journal::JournalStats::corruptions_detected) == 0; ++step) {
      sim.RunUntil(sim.Now() + msec(1));
    }
  }
  ASSERT_GE(sum_stats(&journal::JournalStats::corruptions_detected), 1u)
      << "no injected flip was ever caught";

  // Detection quarantines the range and invokes the cluster's corruption
  // handler, which re-replicates from a healthy replica and lifts the
  // quarantine. Wait until every detected range has been repaired.
  for (int step = 0; step < 5000 && sum_stats(&journal::JournalStats::corruptions_repaired) <
                                        sum_stats(&journal::JournalStats::corruptions_detected);
       ++step) {
    sim.RunUntil(sim.Now() + msec(1));
  }
  EXPECT_GE(sum_stats(&journal::JournalStats::corruptions_repaired), 1u);
  EXPECT_EQ(sum_stats(&journal::JournalStats::corruptions_repaired),
            sum_stats(&journal::JournalStats::corruptions_detected));

  // Nothing may be quarantined anymore, and every replica must hold the
  // committed bytes — the flips were healed, not replayed as garbage.
  const cluster::DiskMeta* meta = *cluster.master().GetDisk(*disk_id);
  const cluster::ChunkLayout& layout = meta->chunks[0];
  std::vector<uint8_t> expected;
  for (const std::vector<uint8_t>& slot : latest) {
    expected.insert(expected.end(), slot.begin(), slot.end());
  }
  for (const journal::JournalManager* jm : cluster.journal_managers()) {
    EXPECT_FALSE(jm->IsQuarantined(layout.chunk, 0, expected.size()));
  }
  for (const cluster::ReplicaRef& r : layout.replicas) {
    cluster::ChunkServer* server = cluster.server(r.server);
    BufferView image;
    Status read = Internal("not completed");
    server->HandleRecoveryRead(layout.chunk, 0, expected.size(),
                               [&](const Status& s, uint64_t, const BufferView& bytes) {
                                 read = s;
                                 image = bytes;
                               });
    for (int step = 0; step < 2000 && !read.ok(); ++step) {
      sim.RunUntil(sim.Now() + usec(100));
    }
    ASSERT_TRUE(read.ok()) << read.ToString();
    EXPECT_EQ(test::Bytes(image), expected) << "replica on server " << r.server << " diverged";
  }

  // And the client sees the committed data.
  std::vector<uint8_t> readback(expected.size(), 0xEE);
  Status status = Internal("not completed");
  disk.Read(0, readback.size(), readback.data(), [&](const Status& s) { status = s; });
  for (int step = 0; step < 5000 && !(status.ok()); ++step) {
    sim.RunUntil(sim.Now() + usec(100));
  }
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(readback, expected);
}

// Partition-then-heal (§4.2.1): when the primary becomes unreachable, the
// client switches to a backup and reports the failure; the master verifies
// and installs a new view. The stale ex-primary, restored after the heal,
// must NOT be able to ack a write under the old view — the surviving
// replicas reject its replication legs, so no quorum forms.
TEST(ChaosViewChangeTest, StalePrimaryCannotAckAfterViewChange) {
  sim::Simulator sim;
  cluster::Cluster cluster(&sim, DefaultChaosCluster());
  Result<cluster::DiskId> disk_id = cluster.master().CreateDisk("view", 1 * kMiB, 3, 1);
  ASSERT_TRUE(disk_id.ok());

  client::VirtualDiskClientOptions options;
  options.request_timeout = msec(50);  // fail fast over the dead primary
  cluster::Machine* host = cluster.AddClientMachine();
  client::VirtualDisk disk(&cluster, host, /*client_id=*/1, options);
  ASSERT_TRUE(disk.Open(*disk_id).ok());

  std::vector<uint8_t> data(4096, 0xAB);
  Status wrote = Internal("not completed");
  disk.Write(0, data.size(), test::Payload(data), [&](const Status& s) { wrote = s; });
  sim.RunUntil(sim.Now() + msec(100));
  ASSERT_TRUE(wrote.ok());

  const cluster::DiskMeta* meta = *cluster.master().GetDisk(*disk_id);
  cluster::ChunkLayout old_layout = meta->chunks[0];  // snapshot: pre-change
  cluster::ServerId old_primary = old_layout.replicas[0].server;
  uint64_t old_view = old_layout.view;

  // Partition the primary away (a crash is the strongest partition: every
  // message to it vanishes). Reads steer at the primary, so they time out,
  // trip the hysteresis, switch, and report the failure to the master.
  cluster.CrashServer(old_primary);
  std::vector<uint8_t> out(4096);
  for (int attempt = 0; attempt < 10 && meta->chunks[0].view == old_view; ++attempt) {
    Status read = Internal("not completed");
    disk.Read(0, out.size(), out.data(), [&](const Status& s) { read = s; });
    sim.RunUntil(sim.Now() + sec(2));
  }
  ASSERT_GT(meta->chunks[0].view, old_view) << "master never installed a new view";
  ASSERT_GE(disk.stats().failures_reported, 1u);

  // Heal: the stale ex-primary comes back with its pre-partition state.
  cluster.RestoreServer(old_primary);
  sim.RunUntil(sim.Now() + msec(10));

  // It replays a write exactly as it would have pre-partition: old view, its
  // own (stale) version, the old backup list. The current replicas reject
  // the stale view, so the quorum cannot form and the ack never happens.
  cluster::ChunkServer* stale = cluster.server(old_primary);
  Result<cluster::ReplicaState> stale_state = stale->GetState(old_layout.chunk);
  ASSERT_TRUE(stale_state.ok());
  std::vector<cluster::ReplicaRef> old_backups(old_layout.replicas.begin() + 1,
                                               old_layout.replicas.end());
  std::vector<uint8_t> rogue(4096, 0xEE);
  Status acked = Internal("not completed");
  bool replied = false;
  stale->HandleWrite(old_layout.chunk, 0, rogue.size(), old_view, stale_state->version,
                     ursa::Buffer::CopyOf(rogue.data(), rogue.size()), old_backups,
                     [&](const Status& s, uint64_t, const BufferView&) {
                       acked = s;
                       replied = true;
                     });
  sim.RunUntil(sim.Now() + sec(1));
  ASSERT_TRUE(replied);
  EXPECT_FALSE(acked.ok()) << "stale primary acked a write under the old view";

  // The current view keeps serving: a fresh client write still commits, and
  // the rogue bytes are nowhere to be seen through the new primary.
  std::vector<uint8_t> data2(4096, 0xCD);
  Status wrote2 = Internal("not completed");
  disk.Write(0, data2.size(), test::Payload(data2), [&](const Status& s) { wrote2 = s; });
  sim.RunUntil(sim.Now() + sec(1));
  ASSERT_TRUE(wrote2.ok()) << wrote2.ToString();
  std::vector<uint8_t> readback(4096, 0);
  Status read2 = Internal("not completed");
  disk.Read(0, readback.size(), readback.data(), [&](const Status& s) { read2 = s; });
  sim.RunUntil(sim.Now() + sec(1));
  ASSERT_TRUE(read2.ok()) << read2.ToString();
  EXPECT_EQ(readback, data2);
}

}  // namespace
}  // namespace ursa::chaos
