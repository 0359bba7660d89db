// Failover drill: crash replicas while a client keeps reading and writing,
// and watch the §4.2 machinery — temporary-primary switching, view change,
// recovery transfer, incremental repair — keep the disk available and
// byte-correct throughout.
#include <cstdio>
#include <vector>

#include "src/client/virtual_disk.h"
#include "src/core/system.h"

using namespace ursa;

namespace {

std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 131);
  }
  return v;
}

bool SyncWrite(sim::Simulator& sim, client::VirtualDisk* disk, uint64_t offset,
               const std::vector<uint8_t>& data) {
  Status status = Internal("pending");
  disk->Write(offset, data.size(), Buffer::CopyOf(data.data(), data.size()),
              [&](const Status& s) { status = s; });
  sim.RunUntil(sim.Now() + sec(10));
  return status.ok();
}

bool SyncReadCheck(sim::Simulator& sim, client::VirtualDisk* disk, uint64_t offset,
                   const std::vector<uint8_t>& expect) {
  std::vector<uint8_t> got(expect.size(), 0);
  Status status = Internal("pending");
  disk->Read(offset, got.size(), got.data(), [&](const Status& s) { status = s; });
  sim.RunUntil(sim.Now() + sec(10));
  return status.ok() && got == expect;
}

}  // namespace

int main() {
  std::printf("== Failover drill ==\n\n");
  core::TestBed bed(core::UrsaHybridProfile(3));
  sim::Simulator& sim = bed.sim();
  cluster::Cluster& cluster = bed.cluster();
  client::VirtualDisk* disk = bed.NewDisk(256 * kMiB, 3, 1);

  auto block_a = Pattern(8192, 11);
  auto block_b = Pattern(8192, 77);

  // Baseline write.
  if (!SyncWrite(sim, disk, 0, block_a)) {
    std::printf("baseline write failed\n");
    return 1;
  }
  std::printf("[t=%.2fs] wrote block A\n", ToSec(sim.Now()));

  // Find the primary of chunk 0 and crash it.
  const cluster::DiskMeta* meta = *cluster.master().GetDisk(1);
  cluster::ChunkLayout layout = meta->chunks[0];
  cluster::ServerId primary = layout.replicas[0].server;
  std::printf("[t=%.2fs] crashing the PRIMARY (server %u, SSD)\n", ToSec(sim.Now()), primary);
  cluster.CrashServer(primary);

  // Reads keep working: the client times out on the dead primary, switches
  // to a backup as temporary primary (journal-aware reads), and reports the
  // failure to the master.
  bool ok = SyncReadCheck(sim, disk, 0, block_a);
  std::printf("[t=%.2fs] read during failure: %s (primary switches: %llu)\n", ToSec(sim.Now()),
              ok ? "correct data" : "WRONG DATA", static_cast<unsigned long long>(
                                                      disk->stats().primary_switches));
  if (!ok) {
    return 1;
  }

  // Writes also keep working (majority commit while the view changes).
  if (!SyncWrite(sim, disk, 0, block_b)) {
    std::printf("write during failure FAILED\n");
    return 1;
  }
  std::printf("[t=%.2fs] overwrote block A with B during recovery\n", ToSec(sim.Now()));

  // Give recovery time to finish, then inspect the new view.
  sim.RunUntil(sim.Now() + sec(10));
  meta = *cluster.master().GetDisk(1);
  const cluster::ChunkLayout& after = meta->chunks[0];
  std::printf("[t=%.2fs] view changed %llu -> %llu; %llu chunks recovered, %.1f MB moved\n",
              ToSec(sim.Now()), static_cast<unsigned long long>(layout.view),
              static_cast<unsigned long long>(after.view),
              static_cast<unsigned long long>(cluster.master().recovery_stats().chunks_recovered),
              static_cast<double>(cluster.master().recovery_stats().bytes_transferred) / 1e6);

  // The data survived the whole drill.
  disk->RefreshLayout();
  ok = SyncReadCheck(sim, disk, 0, block_b);
  std::printf("[t=%.2fs] post-recovery read: %s\n", ToSec(sim.Now()),
              ok ? "correct data" : "WRONG DATA");

  // Round two: crash a backup, write, restore it, let incremental repair
  // bring it back to the current version.
  cluster::ServerId backup = after.replicas[2].server;
  std::printf("\n[t=%.2fs] crashing a BACKUP (server %u, HDD)\n", ToSec(sim.Now()), backup);
  cluster.CrashServer(backup);
  auto block_c = Pattern(8192, 123);
  if (!SyncWrite(sim, disk, 16384, block_c)) {
    std::printf("write with one backup down FAILED\n");
    return 1;
  }
  std::printf("[t=%.2fs] wrote block C with the backup down (majority commit)\n",
              ToSec(sim.Now()));
  cluster.RestoreServer(backup);
  Status repair = Internal("pending");
  cluster.master().RepairReplica(after.chunk, backup, [&](Status s) { repair = s; });
  sim.RunUntil(sim.Now() + sec(10));
  std::printf("[t=%.2fs] incremental repair: %s (%llu incremental, %llu full copies)\n",
              ToSec(sim.Now()), repair.ToString().c_str(),
              static_cast<unsigned long long>(
                  cluster.master().recovery_stats().incremental_repairs),
              static_cast<unsigned long long>(cluster.master().recovery_stats().full_copies));

  ok = ok && SyncReadCheck(sim, disk, 16384, block_c);
  std::printf("\ndrill %s\n", ok && repair.ok() ? "PASSED" : "FAILED");
  return ok && repair.ok() ? 0 : 1;
}
