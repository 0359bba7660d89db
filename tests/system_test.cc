// TestBed-level sanity tests: the profiles drive measurable workloads and
// the headline performance relationships of the paper hold in miniature.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/baselines/ceph_model.h"
#include "src/baselines/sheepdog_model.h"
#include "src/core/system.h"
#include "src/trace/msr_generator.h"

namespace ursa::core {
namespace {

// Full-size paper machines but a small disk keeps tests fast.
constexpr uint64_t kDiskSize = 2ull * kGiB;

TEST(TestBedTest, HybridRunsRandomReadWorkload) {
  TestBed bed(UrsaHybridProfile(3));
  client::VirtualDisk* disk = bed.NewDisk(kDiskSize);
  WorkloadSpec spec;
  spec.block_size = 4 * kKiB;
  spec.queue_depth = 16;
  spec.read_fraction = 1.0;
  RunMetrics m = bed.RunWorkload(disk, spec, msec(200), sec(2), "read");
  EXPECT_GT(m.read_iops(), 10000);
  EXPECT_LT(m.read_iops(), 200000);
  EXPECT_GT(m.read_latency_us.Mean(), 100);   // network + device floor
  EXPECT_LT(m.read_latency_us.Mean(), 2000);
  EXPECT_EQ(m.writes, 0u);
}

TEST(TestBedTest, HybridWritesAreJournaled) {
  TestBed bed(UrsaHybridProfile(3));
  client::VirtualDisk* disk = bed.NewDisk(kDiskSize);
  WorkloadSpec spec;
  spec.block_size = 4 * kKiB;
  spec.queue_depth = 16;
  spec.read_fraction = 0.0;
  RunMetrics m = bed.RunWorkload(disk, spec, msec(200), sec(2), "write");
  EXPECT_GT(m.write_iops(), 5000);
  uint64_t journaled = 0;
  for (const auto* jm : bed.cluster().journal_managers()) {
    journaled += jm->stats().journaled_writes;
  }
  EXPECT_GT(journaled, m.writes);  // every write journals on 2 backups
}

TEST(TestBedTest, HybridMatchesSsdOnlyForSmallWrites) {
  // The paper's headline: hybrid ~= SSD-only for random small I/O (Fig. 6).
  WorkloadSpec spec;
  spec.block_size = 4 * kKiB;
  spec.queue_depth = 16;
  spec.read_fraction = 0.0;

  TestBed hybrid(UrsaHybridProfile(3));
  RunMetrics mh = hybrid.RunWorkload(hybrid.NewDisk(kDiskSize), spec, msec(200), sec(2), "h");
  TestBed ssd(UrsaSsdProfile(3));
  RunMetrics ms = ssd.RunWorkload(ssd.NewDisk(kDiskSize), spec, msec(200), sec(2), "s");

  EXPECT_GT(mh.write_iops(), 0.75 * ms.write_iops());
  EXPECT_LT(mh.write_iops(), 1.25 * ms.write_iops());
}

TEST(TestBedTest, HddOnlyIsFarSlowerForRandomWrites) {
  WorkloadSpec spec;
  spec.block_size = 4 * kKiB;
  spec.queue_depth = 16;
  spec.read_fraction = 0.0;
  TestBed hybrid(UrsaHybridProfile(3));
  RunMetrics mh = hybrid.RunWorkload(hybrid.NewDisk(kDiskSize), spec, msec(200), sec(2), "h");
  TestBed hdd(UrsaHddProfile(3));
  RunMetrics md = hdd.RunWorkload(hdd.NewDisk(kDiskSize), spec, msec(200), sec(2), "d");
  EXPECT_GT(mh.write_iops(), 5 * md.write_iops());
}

TEST(TestBedTest, BaselinesAreSlowerThanUrsa) {
  WorkloadSpec spec;
  spec.block_size = 4 * kKiB;
  spec.queue_depth = 16;
  spec.read_fraction = 1.0;

  TestBed ursa(UrsaSsdProfile(3));
  RunMetrics mu = ursa.RunWorkload(ursa.NewDisk(kDiskSize), spec, msec(200), sec(2), "u");
  TestBed ceph(baselines::CephProfile(3));
  RunMetrics mc = ceph.RunWorkload(ceph.NewDisk(kDiskSize), spec, msec(200), sec(2), "c");
  TestBed sheep(baselines::SheepdogProfile(3));
  RunMetrics msd = sheep.RunWorkload(sheep.NewDisk(kDiskSize), spec, msec(200), sec(2), "s");

  EXPECT_GT(mu.read_iops(), mc.read_iops());
  EXPECT_GT(mu.read_iops(), msd.read_iops());
}

TEST(TestBedTest, CpuEfficiencyOrdering) {
  // Fig. 7: Ursa efficiency >> Sheepdog >> Ceph (server side).
  WorkloadSpec spec;
  spec.block_size = 4 * kKiB;
  spec.queue_depth = 16;
  spec.read_fraction = 1.0;

  auto run = [&](const SystemProfile& p) {
    TestBed bed(p);
    return bed.RunWorkload(bed.NewDisk(kDiskSize), spec, msec(200), sec(2), p.name);
  };
  RunMetrics mu = run(UrsaSsdProfile(3));
  RunMetrics mc = run(baselines::CephProfile(3));
  RunMetrics msd = run(baselines::SheepdogProfile(3));

  EXPECT_GT(mu.ServerIopsPerCore(), 3 * msd.ServerIopsPerCore());
  EXPECT_GT(msd.ServerIopsPerCore(), 2 * mc.ServerIopsPerCore());
  EXPECT_GT(mu.ClientIopsPerCore(), 2 * msd.ClientIopsPerCore());
}

TEST(TestBedTest, SequentialWritesSlowerThanReadsAtDepth) {
  // Fig. 8 vs Fig. 9: per-chunk write ordering throttles sequential writes.
  WorkloadSpec spec;
  spec.block_size = 4 * kKiB;
  spec.queue_depth = 16;
  spec.pattern = WorkloadSpec::Pattern::kSequential;

  TestBed bed(UrsaHybridProfile(3));
  client::VirtualDisk* disk = bed.NewDisk(kDiskSize);
  spec.read_fraction = 1.0;
  RunMetrics mr = bed.RunWorkload(disk, spec, msec(200), sec(2), "r");
  spec.read_fraction = 0.0;
  RunMetrics mw = bed.RunWorkload(disk, spec, msec(200), sec(2), "w");
  EXPECT_GT(mr.read_iops(), 2 * mw.write_iops());
}

TEST(TestBedTest, TraceReplayCompletes) {
  TestBed bed(UrsaHybridProfile(3));
  client::VirtualDisk* disk = bed.NewDisk(kDiskSize);
  const trace::TraceProfile* p = trace::FindTraceProfile("mds_1");
  ASSERT_NE(p, nullptr);
  auto records = trace::SynthesizeTrace(*p, 3000, 42);
  RunMetrics m = bed.RunTrace(disk, records, 16, "mds_1");
  EXPECT_EQ(m.reads + m.writes, 3000u);
  EXPECT_GT(m.iops(), 1000);
}

TEST(TestBedTest, MultipleConcurrentClients) {
  TestBed bed(UrsaHybridProfile(3));
  std::vector<std::pair<client::VirtualDisk*, WorkloadSpec>> jobs;
  WorkloadSpec spec;
  spec.block_size = 4 * kKiB;
  spec.queue_depth = 8;
  spec.read_fraction = 1.0;
  for (int i = 0; i < 3; ++i) {
    spec.seed = 100 + i;
    jobs.emplace_back(bed.NewDisk(512 * kMiB), spec);
  }
  RunMetrics m = bed.RunWorkloads(jobs, msec(200), sec(1), "multi");
  EXPECT_GT(m.read_iops(), 10000);
}

// A backup serves a read from a journal record still pending replay only
// after the whole record passes its CRC. With the backup's devices stuck,
// that journal read is still held when the client's piece times out and the
// op ends. When the fault clears and the held read lands, its bytes go to
// the server's op record and the stale reply is dropped with them: nothing
// writes the buffer the caller got back with its callback.
TEST(TestBedTest, LateJournalReadLeavesTheCallersBufferAlone) {
  TestBed bed(UrsaHybridProfile(3));
  client::VirtualDisk* disk = bed.NewDisk(kDiskSize, 3, 1);
  sim::Simulator& sim = bed.sim();
  cluster::Cluster& cluster = bed.cluster();
  const cluster::ChunkLayout& layout = (*cluster.master().GetDisk(1))->chunks[0];
  std::vector<cluster::Machine*> backups;
  for (size_t r = 0; r < layout.replicas.size(); ++r) {
    if (r != disk->chunk_primary(0)) {
      backups.push_back(cluster.server(layout.replicas[r].server)->machine());
    }
  }
  auto set_stuck = [&](bool ssds, bool stuck) {
    for (cluster::Machine* m : backups) {
      for (int i = 0; i < (ssds ? m->num_ssds() : m->num_hdds()); ++i) {
        (ssds ? static_cast<storage::BlockDevice&>(m->ssd(i)) : m->hdd(i))
            .SetFault(storage::DeviceFault{0, stuck});
      }
    }
  };
  // Replay stalls on the backups' stuck HDDs: the record stays pending.
  set_stuck(/*ssds=*/false, true);
  const std::vector<uint8_t> data(4096, 0xA7);
  Status wrote = Internal("pending");
  disk->Write(0, data.size(), Buffer::CopyOf(data.data(), data.size()),
              [&](const Status& s) { wrote = s; });
  sim.RunUntil(sim.Now() + msec(100));
  ASSERT_TRUE(wrote.ok()) << wrote.ToString();

  // The journal SSDs stick too and the primary goes silent: the read fails
  // over to the backups, whose journal reads hang.
  set_stuck(/*ssds=*/true, true);
  cluster.CrashServer(layout.replicas[disk->chunk_primary(0)].server);
  std::vector<uint8_t> out(data.size());
  int calls = 0;
  disk->Read(0, out.size(), out.data(), [&](const Status&) {
    ++calls;
    std::fill(out.begin(), out.end(), uint8_t{0x5A});  // the caller reuses its buffer
  });
  sim.RunUntil(sim.Now() + sec(10));
  ASSERT_EQ(calls, 1);
  size_t held = 0;
  for (cluster::Machine* m : backups) {
    for (int i = 0; i < m->num_ssds(); ++i) {
      held += m->ssd(i).held_requests();
    }
  }
  ASSERT_GT(held, 0u) << "no journal read was left in a stuck device";

  set_stuck(/*ssds=*/true, false);
  set_stuck(/*ssds=*/false, false);
  sim.RunUntil(sim.Now() + sec(2));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(out, std::vector<uint8_t>(data.size(), 0x5A));
}

}  // namespace
}  // namespace ursa::core
