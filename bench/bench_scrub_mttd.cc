// Scrub MTTD benchmark (see DESIGN.md "Background scrub & corruption
// repair"): how fast the background scrubber finds latent at-rest
// corruption, and what continuous sweeping costs the foreground tail.
//
// Phase A (MTTD, hybrid cluster): a small disk is materialized with real
// payload bytes and journal replay is drained so the data sits at rest in
// the chunk stores. One byte of a backup replica is then flipped behind the
// journal's back — no CRC-carrying record covers it, so only the checksum
// ledger can notice. The gated metric is mean-time-to-detect: the flip must
// be reported within two sweep periods (the sweep in flight at injection may
// have already passed the damaged replica), and the repair pipeline
// (quarantine -> kScrub-class re-replication) must complete end to end.
//
// Phase B (foreground overhead, hybrid cluster + QoS): two identical
// TestBeds differing only in `cluster.scrub.enabled` run the same mixed 4K
// workload while the scrubber sweeps every replica under
// ServiceClass::kScrub. The gate bounds the read-p99 delta: background
// verification must ride the idle capacity the QoS scheduler leaves it, not
// tax the foreground tail.
//
// Gates (bench/bench_baselines.json, "scrub_mttd"): detected, detected
// within two sweep periods, repaired end to end, foreground p99 within the
// overhead bound.
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/system.h"

using namespace ursa;

namespace {

constexpr Nanos kSweepInterval = msec(500);
constexpr double kOverheadBound = 1.30;  // scrub-on read p99 <= 1.3x scrub-off

scrub::ScrubConfig BenchScrubConfig(Nanos sweep) {
  scrub::ScrubConfig s;
  s.enabled = true;
  s.sweep_interval = sweep;
  s.tick_interval = msec(5);
  s.read_bytes = 256 * kKiB;
  s.per_server_concurrent = 1;
  s.max_concurrent = 4;
  return s;
}

std::vector<uint8_t> Pattern(size_t length, uint64_t seed) {
  std::vector<uint8_t> out(length);
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
  for (size_t i = 0; i < length; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out[i] = static_cast<uint8_t>(x);
  }
  return out;
}

struct MttdResult {
  bool detected = false;
  bool repaired = false;
  double mttd_ms = -1;
  double sweep_ms = 0;          // effective period (configured or overrun)
  double detect_budget_ms = 0;  // 2x effective period
};

MttdResult RunMttd() {
  core::SystemProfile profile = core::UrsaHybridProfile(3);
  profile.name = "scrub-mttd";
  profile.cluster.chunk_size = 4 * kMiB;  // small chunks -> sweeps finish fast
  profile.cluster.scrub = BenchScrubConfig(kSweepInterval);
  core::TestBed bed(profile);
  auto& sim = bed.sim();
  auto& cluster = bed.cluster();

  client::VirtualDisk* disk = bed.NewDisk(16 * kMiB, 3, 1);

  // Materialize real bytes (the ledger only checksums payload-carrying
  // writes) and let journal replay put them at rest on the backup stores.
  auto data = Pattern(64 * kKiB, 17);
  Status write_status = Internal("pending");
  disk->Write(0, data.size(), Buffer::CopyOf(data.data(), data.size()),
              [&](const Status& s) { write_status = s; });
  sim.RunUntil(sim.Now() + sec(5));
  URSA_CHECK(write_status.ok());
  for (int i = 0; i < 500; ++i) {
    bool drained = true;
    for (journal::JournalManager* jm : cluster.journal_managers()) {
      drained = drained && jm->ReplayDrained();
    }
    if (drained) {
      break;
    }
    sim.RunUntil(sim.Now() + msec(10));
  }

  // Let one sweep finish so every ledger-known sector has been verified once
  // (and so the measured detection starts from a sweep boundary, not from
  // coordinator warm-up).
  scrub::ScrubCoordinator* coordinator = cluster.scrub_coordinator();
  URSA_CHECK(coordinator != nullptr);
  uint64_t settled = coordinator->sweeps_completed();
  for (int i = 0; i < 1000 && coordinator->sweeps_completed() < settled + 1; ++i) {
    sim.RunUntil(sim.Now() + msec(10));
  }

  // Flip one byte of an at-rest backup replica.
  const cluster::DiskMeta* meta = *cluster.master().GetDisk(1);
  const cluster::ChunkLayout& layout = meta->chunks[0];
  cluster::ServerId victim = layout.replicas[2].server;
  cluster.master().server(victim)->store()->CorruptByte(layout.chunk, 8192 + 37, 0x40);
  sim.RunUntil(sim.Now() + msec(2));  // let the read-modify-write land
  Nanos inject_time = sim.Now();

  MttdResult out;
  Nanos deadline = inject_time + 8 * kSweepInterval;
  while (sim.Now() < deadline && cluster.scrub_mismatches_reported() < 1) {
    sim.RunUntil(sim.Now() + msec(5));
  }
  if (cluster.scrub_mismatches_reported() >= 1) {
    out.detected = true;
    out.mttd_ms = ToMsec(sim.Now() - inject_time);
  }

  // The bound is two EFFECTIVE sweep periods: the configured pace, or the
  // actual sweep duration when verification load makes a sweep overrun it.
  Nanos effective = std::max(kSweepInterval, coordinator->last_sweep_duration());
  out.sweep_ms = ToMsec(effective);
  out.detect_budget_ms = ToMsec(2 * effective);

  for (int i = 0; i < 1000 && cluster.scrub_repairs_completed() < 1; ++i) {
    sim.RunUntil(sim.Now() + msec(10));
  }
  out.repaired = cluster.scrub_repairs_completed() >= 1 &&
                 cluster.master().server(victim)->scrub_quarantine_size() == 0;

  // The repaired bytes must read back clean.
  std::vector<uint8_t> check(data.size(), 0xCD);
  Status read_status = Internal("pending");
  disk->Read(0, check.size(), check.data(), [&](const Status& s) { read_status = s; });
  sim.RunUntil(sim.Now() + sec(5));
  out.repaired = out.repaired && read_status.ok() && check == data &&
                 disk->stats().integrity_errors == 0;
  return out;
}

struct OverheadResult {
  double read_p99_us = 0;
  double write_p99_us = 0;
  uint64_t scrub_tasks = 0;  // replica verifications completed during the run
};

// One Phase-B arm: the same paced workload with the scrubber on or off.
OverheadResult RunOverheadMode(bool scrub_enabled) {
  core::SystemProfile profile = core::UrsaHybridProfile(3);
  profile.name = scrub_enabled ? "scrub-on" : "scrub-off";
  profile.cluster.qos.enabled = true;  // kScrub rides the background band
  profile.cluster.chunk_size = 16 * kMiB;
  if (scrub_enabled) {
    profile.cluster.scrub = BenchScrubConfig(sec(2));
  }
  core::TestBed bed(profile);

  client::VirtualDisk* fg = bed.NewDisk(128 * kMiB);
  core::WorkloadSpec spec;
  spec.block_size = 4 * kKiB;
  spec.queue_depth = 8;
  spec.read_fraction = 0.7;

  OverheadResult out;
  core::RunMetrics m = bed.RunWorkload(fg, spec, msec(300), sec(2), profile.name);
  out.read_p99_us = static_cast<double>(m.read_latency_us.Percentile(99));
  out.write_p99_us = static_cast<double>(m.write_latency_us.Percentile(99));
  if (scrub_enabled) {
    out.scrub_tasks = bed.cluster().scrub_coordinator()->tasks_completed();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Phase A: latent-corruption mean time to detect ===\n\n");
  MttdResult mttd = RunMttd();
  std::printf("detected: %s, mttd: %.0f ms (budget: %.0f ms = 2 x %.0f ms sweep)\n",
              mttd.detected ? "yes" : "NO", mttd.mttd_ms, mttd.detect_budget_ms, mttd.sweep_ms);
  std::printf("repair pipeline: %s\n", mttd.repaired ? "healed end to end" : "DID NOT HEAL");

  std::printf("\n=== Phase B: foreground tail with sweeps running ===\n\n");
  OverheadResult off = RunOverheadMode(false);
  OverheadResult on = RunOverheadMode(true);
  core::Table table({"mode", "read p99 (us)", "write p99 (us)", "scrub tasks"});
  table.AddRow({"scrub-off", core::Table::Int(off.read_p99_us), core::Table::Int(off.write_p99_us),
                "-"});
  table.AddRow({"scrub-on", core::Table::Int(on.read_p99_us), core::Table::Int(on.write_p99_us),
                core::Table::Int(static_cast<double>(on.scrub_tasks))});
  table.Print();

  double overhead = off.read_p99_us > 0 ? on.read_p99_us / off.read_p99_us : 0;
  std::printf("\nScrub-on read p99 overhead: %.2fx (bound: <= %.2fx)\n", overhead, kOverheadBound);

  bool within_budget = mttd.detected && mttd.mttd_ms <= mttd.detect_budget_ms;
  bool overhead_ok = overhead > 0 && overhead <= kOverheadBound;
  bool ok = mttd.detected && within_budget && mttd.repaired && overhead_ok;
  std::printf("\nScrub-MTTD %s\n", ok ? "SHAPE-OK" : "SHAPE-MISMATCH");

  std::string json_path = core::MetricsJsonPath(argc, argv);
  if (json_path.empty()) {
    json_path = "BENCH_scrub_mttd.json";
  }
  std::ofstream os(json_path);
  os << "{\"bench\":\"scrub_mttd\""
     << ",\"detected\":" << (mttd.detected ? 1 : 0)
     << ",\"mttd_within_two_sweeps\":" << (within_budget ? 1 : 0)
     << ",\"repaired\":" << (mttd.repaired ? 1 : 0)
     << ",\"scrub_overhead_ok\":" << (overhead_ok ? 1 : 0)
     << ",\"_mttd_ms\":" << mttd.mttd_ms
     << ",\"_sweep_period_ms\":" << mttd.sweep_ms
     << ",\"_detect_budget_ms\":" << mttd.detect_budget_ms
     << ",\"_fg_read_p99_us_off\":" << off.read_p99_us
     << ",\"_fg_read_p99_us_on\":" << on.read_p99_us
     << ",\"_fg_write_p99_us_off\":" << off.write_p99_us
     << ",\"_fg_write_p99_us_on\":" << on.write_p99_us
     << ",\"_overhead_ratio\":" << overhead
     << ",\"_scrub_tasks_during_window\":" << on.scrub_tasks << "}\n";
  std::printf("metrics written to %s\n", json_path.c_str());
  return 0;
}
