// Tiered-placement benchmark (DESIGN.md §13): what the EC cold tier buys in
// capacity, what a demotion wave costs the foreground tail, and what a
// write into a cold chunk pays to promote back.
//
// Phase A (capacity + correctness, hybrid cluster): a disk is materialized,
// journal replay drained, and the workload goes idle. The heat-driven
// migrator must demote every chunk to a 4+2 stripe, dropping the capacity
// factor from the replication factor (3.0) to (k+m)/k (1.5). Every byte
// must then read back through the shard path, and a 4 KiB write into a cold
// chunk must ack once durable on a replica quorum (speculative promotion,
// DESIGN.md §13.6) and then converge to clean replication with the byte
// intact — the measured ack latency is the cost of writing cold data.
//
// Phase A2 (speculation payoff): the same cold 4 KiB write measured twice
// on identical beds, speculative promotion on vs. off (reconstruct-first).
// The speculative ack must come in at least 2x faster: it rides a replica
// quorum of the new bytes while the k-shard reconstruct happens behind it.
//
// Phase B (foreground overhead, hybrid cluster + QoS): two identical beds
// run the same mixed 4K workload on a hot disk; the tier-on bed also holds
// a second, idle disk whose chunks the migrator demotes during the measured
// window. Demotion transfers run under ServiceClass::kScrub, which every
// device scheduler serves last, so the gate bounds the foreground read p99
// at 2x the quiescent arm — the wave must ride idle capacity, not tax the
// tail.
//
// Gates (bench/bench_baselines.json, "tiering"): wave demoted every chunk,
// capacity factor halved, bytes intact through the shard path, cold write
// acked and converged to replication, speculative ack >= 2x faster than
// reconstruct-first, foreground p99 within 2x under the wave.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/system.h"

using namespace ursa;

namespace {

constexpr double kFgP99Bound = 2.0;  // tier-on read p99 <= 2x quiescent

// Tiering tuned to bench scale: production cold-ages are minutes; the bench
// needs a full demotion wave inside a couple of simulated seconds. Policy
// promotion is disabled (promote_heat unreachable) so the only promotions
// are write-triggered — Phase A's read-back must NOT re-replicate.
tier::TierConfig BenchTierConfig() {
  tier::TierConfig t;
  t.enabled = true;
  t.ec_k = 4;
  t.ec_m = 2;
  t.heat_half_life = msec(100);
  t.scan_interval = msec(100);
  t.demote_max_heat = 2.0;
  t.cold_age = msec(250);
  t.promote_heat = 1e18;
  t.max_concurrent = 2;
  return t;
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

void DrainReplay(core::TestBed& bed) {
  for (int i = 0; i < 500; ++i) {
    bool drained = true;
    for (journal::JournalManager* jm : bed.cluster().journal_managers()) {
      drained = drained && jm->ReplayDrained();
    }
    if (drained) {
      return;
    }
    bed.sim().RunUntil(bed.sim().Now() + msec(10));
  }
}

struct CapacityResult {
  bool wave_complete = false;       // every chunk demoted
  bool capacity_halved = false;     // physical/logical fell to (k+m)/k
  bool data_intact = false;         // full read-back matched through shards
  bool promote_acked = false;       // cold write acked in replicated form
  double factor_before = 0;
  double factor_after = 0;
  double wave_ms = -1;              // idle start -> last chunk demoted
  double promote_ack_us = -1;       // cold 4K write issue -> ack
};

CapacityResult RunCapacity() {
  core::SystemProfile profile = core::UrsaHybridProfile(3);
  profile.name = "tier-capacity";
  profile.cluster.chunk_size = 1 * kMiB;
  profile.cluster.tier = BenchTierConfig();
  core::TestBed bed(profile);
  auto& sim = bed.sim();
  auto& master = bed.cluster().master();

  constexpr uint64_t kDiskSize = 8 * kMiB;
  client::VirtualDisk* disk = bed.NewDisk(kDiskSize, 3, 1);
  auto data = Pattern(kDiskSize, 29);
  Status write_status = Internal("pending");
  bool write_done = false;
  disk->Write(0, data.size(), Buffer::CopyOf(data.data(), data.size()), [&](const Status& s) {
    write_status = s;
    write_done = true;
  });
  // Poll in small steps: an unconditional multi-second wait would let the
  // migrator start demoting before the "before" capacity factor is read.
  for (int i = 0; i < 4000 && !write_done; ++i) {
    sim.RunUntil(sim.Now() + msec(5));
  }
  URSA_CHECK(write_status.ok());

  CapacityResult out;
  const double logical = static_cast<double>(master.LogicalBytes());
  out.factor_before = static_cast<double>(master.PhysicalBytes()) / logical;
  DrainReplay(bed);

  const cluster::DiskMeta* meta = *master.GetDisk(1);
  auto all_ec = [&]() {
    for (const cluster::ChunkLayout& l : meta->chunks) {
      if (l.tier != cluster::ChunkTier::kEc) {
        return false;
      }
    }
    return true;
  };
  Nanos idle_start = sim.Now();
  Nanos deadline = sim.Now() + sec(20);
  while (!all_ec() && sim.Now() < deadline) {
    sim.RunUntil(sim.Now() + msec(10));
  }
  out.wave_complete = all_ec();
  out.factor_after = static_cast<double>(master.PhysicalBytes()) / logical;
  if (out.wave_complete) {
    out.wave_ms = ToMsec(sim.Now() - idle_start);
  }
  double ec_factor = static_cast<double>(profile.cluster.tier.ec_k + profile.cluster.tier.ec_m) /
                     static_cast<double>(profile.cluster.tier.ec_k);
  out.capacity_halved = out.wave_complete && out.factor_after <= ec_factor + 0.01;

  // Every byte must come back through the shard path (policy promotion is
  // off, so this read-back cannot quietly re-replicate its way to passing).
  std::vector<uint8_t> check(data.size(), 0xCD);
  Status read_status = Internal("pending");
  disk->Read(0, check.size(), check.data(), [&](const Status& s) { read_status = s; });
  sim.RunUntil(sim.Now() + sec(10));
  out.data_intact = read_status.ok() && check == data && all_ec() &&
                    disk->stats().ec_shard_reads > 0 && disk->stats().integrity_errors == 0;

  // A 4 KiB write into a cold chunk: the ack arrives once the bytes are
  // durable on a replica quorum (speculative promotion — the full promote
  // no longer sits in front of it), and the chunk must then converge to
  // clean replication with the patched byte intact.
  auto patch = Pattern(4 * kKiB, 31);
  Nanos issue = sim.Now();
  Nanos acked = -1;
  disk->Write(0, patch.size(), Buffer::CopyOf(patch.data(), patch.size()), [&](const Status& s) {
    if (s.ok()) {
      acked = sim.Now();
    }
  });
  for (int i = 0; i < 4000 && acked < 0; ++i) {
    sim.RunUntil(sim.Now() + msec(5));
  }
  if (acked >= 0) {
    out.promote_ack_us = ToUsec(acked - issue);
  }
  // Convergence: the background back-fill retires the shards and the chunk
  // lands replicated. (It goes cold and may re-demote much later; the bound
  // here is far inside the re-demotion cold-age.)
  auto converged = [&]() {
    return meta->chunks[0].tier == cluster::ChunkTier::kReplicated &&
           !meta->chunks[0].speculating();
  };
  Nanos converge_deadline = sim.Now() + sec(10);
  while (!converged() && sim.Now() < converge_deadline) {
    sim.RunUntil(sim.Now() + msec(5));
  }
  // Capture NOW: the freshly promoted chunk goes cold again and re-demotes
  // within this config's cold-age, so a later converged() check would lie.
  bool converged_replicated = converged();
  std::vector<uint8_t> patched(patch.size(), 0xCD);
  Status patch_read = Internal("pending");
  disk->Read(0, patched.size(), patched.data(), [&](const Status& s) { patch_read = s; });
  sim.RunUntil(sim.Now() + sec(5));
  out.promote_acked = acked >= 0 && converged_replicated && patch_read.ok() &&
                      patched == patch && master.tier_stats().write_promotions >= 1;
  return out;
}

// Phase A2: ack latency of a 4 KiB write into a demoted chunk, with and
// without speculative promotion. Same bed geometry; the only difference is
// whether the ack waits for the full reconstruct-then-replicate promotion.
struct ColdWriteResult {
  bool ok = false;          // acked, converged to replication, byte-exact
  double ack_us = -1;
};

ColdWriteResult MeasureColdWriteAck(bool speculative) {
  core::SystemProfile profile = core::UrsaHybridProfile(3);
  profile.name = speculative ? "cold-write-spec" : "cold-write-full";
  profile.cluster.chunk_size = 1 * kMiB;
  profile.cluster.tier = BenchTierConfig();
  // Keep the migrator out of the measurement: the demotion is forced below,
  // and a long cold-age stops the wave from racing the measured write.
  profile.cluster.tier.cold_age = sec(30);
  profile.cluster.tier.speculative_promote = speculative;
  core::TestBed bed(profile);
  auto& sim = bed.sim();
  auto& master = bed.cluster().master();

  client::VirtualDisk* disk = bed.NewDisk(2 * kMiB, 3, 1);
  auto data = Pattern(1 * kMiB, 37);
  Status write_status = Internal("pending");
  bool write_done = false;
  disk->Write(0, data.size(), Buffer::CopyOf(data.data(), data.size()), [&](const Status& s) {
    write_status = s;
    write_done = true;
  });
  for (int i = 0; i < 4000 && !write_done; ++i) {
    sim.RunUntil(sim.Now() + msec(5));
  }
  URSA_CHECK(write_status.ok());
  DrainReplay(bed);

  const cluster::DiskMeta* meta = *master.GetDisk(1);
  Status demote_status = Internal("pending");
  master.DemoteChunkToEc(meta->chunks[0].chunk, 4, 2,
                         [&](const Status& s) { demote_status = s; });
  sim.RunUntil(sim.Now() + sec(10));
  URSA_CHECK(demote_status.ok());

  ColdWriteResult out;
  auto patch = Pattern(4 * kKiB, 41);
  Nanos issue = sim.Now();
  Nanos acked = -1;
  disk->Write(0, patch.size(), Buffer::CopyOf(patch.data(), patch.size()), [&](const Status& s) {
    if (s.ok()) {
      acked = sim.Now();
    }
  });
  for (int i = 0; i < 4000 && acked < 0; ++i) {
    sim.RunUntil(sim.Now() + msec(5));
  }
  if (acked < 0) {
    return out;
  }
  out.ack_us = ToUsec(acked - issue);

  auto converged = [&]() {
    return meta->chunks[0].tier == cluster::ChunkTier::kReplicated &&
           !meta->chunks[0].speculating();
  };
  Nanos deadline = sim.Now() + sec(10);
  while (!converged() && sim.Now() < deadline) {
    sim.RunUntil(sim.Now() + msec(5));
  }
  std::vector<uint8_t> check(data.size(), 0xCD);
  Status read_status = Internal("pending");
  disk->Read(0, check.size(), check.data(), [&](const Status& s) { read_status = s; });
  sim.RunUntil(sim.Now() + sec(5));
  auto expected = data;
  std::copy(patch.begin(), patch.end(), expected.begin());
  out.ok = converged() && read_status.ok() && check == expected &&
           master.tier_stats().write_promotions >= 1;
  return out;
}

struct OverheadResult {
  double read_p99_us = 0;
  double write_p99_us = 0;
  uint64_t demotions = 0;  // migrations overlapping the measured run
};

// One Phase-B arm: the same hot-disk workload, with or without a cold disk
// demoting in the background.
OverheadResult RunOverheadMode(bool tier_enabled) {
  core::SystemProfile profile = core::UrsaHybridProfile(3);
  profile.name = tier_enabled ? "tier-on" : "tier-off";
  profile.cluster.qos.enabled = true;  // migration I/O rides the kScrub band
  profile.cluster.chunk_size = 1 * kMiB;
  if (tier_enabled) {
    profile.cluster.tier = BenchTierConfig();
  }
  core::TestBed bed(profile);
  auto& sim = bed.sim();

  client::VirtualDisk* fg = bed.NewDisk(64 * kMiB);
  client::VirtualDisk* cold = bed.NewDisk(16 * kMiB, 3, 1);

  // Materialize the cold disk, then leave it idle: its 16 chunks cross the
  // cold-age threshold during the measured window and demote while the
  // foreground workload runs. (With tier off it just sits there.)
  auto cold_bytes = Pattern(16 * kMiB, 43);
  Buffer cold_payload = Buffer::CopyOf(cold_bytes.data(), cold_bytes.size());
  Status cold_status = Internal("pending");
  bool cold_done = false;
  cold->Write(0, cold_payload.size(), cold_payload, [&](const Status& s) {
    cold_status = s;
    cold_done = true;
  });
  for (int i = 0; i < 4000 && !cold_done; ++i) {
    sim.RunUntil(sim.Now() + msec(5));
  }
  URSA_CHECK(cold_status.ok());
  DrainReplay(bed);

  core::WorkloadSpec spec;
  spec.block_size = 4 * kKiB;
  spec.queue_depth = 8;
  spec.read_fraction = 0.7;

  // The cold chunks' heat decays below the demote threshold ~0.7 s after the
  // materialize, so the wave lands inside warmup + the measured window. The
  // gate below counts only migrations overlapping the run.
  uint64_t demotions_before =
      tier_enabled ? bed.cluster().master().tier_stats().demotions : 0;
  OverheadResult out;
  core::RunMetrics m = bed.RunWorkload(fg, spec, msec(500), sec(2), profile.name);
  out.read_p99_us = static_cast<double>(m.read_latency_us.Percentile(99));
  out.write_p99_us = static_cast<double>(m.write_latency_us.Percentile(99));
  if (tier_enabled) {
    out.demotions = bed.cluster().master().tier_stats().demotions - demotions_before;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Phase A: demotion wave, capacity factor, write-promote ===\n\n");
  CapacityResult cap = RunCapacity();
  std::printf("demote wave: %s (%.0f ms), capacity factor %.2f -> %.2f\n",
              cap.wave_complete ? "complete" : "INCOMPLETE", cap.wave_ms, cap.factor_before,
              cap.factor_after);
  std::printf("read-back through shards: %s\n", cap.data_intact ? "bytes intact" : "MISMATCH");
  std::printf("cold-write promote: %s (ack after %.0f us)\n",
              cap.promote_acked ? "acked and converged to replication" : "NOT CONVERGED",
              cap.promote_ack_us);

  std::printf("\n=== Phase A2: cold-write ack, speculative vs reconstruct-first ===\n\n");
  ColdWriteResult spec = MeasureColdWriteAck(/*speculative=*/true);
  ColdWriteResult full = MeasureColdWriteAck(/*speculative=*/false);
  double speedup = spec.ack_us > 0 ? full.ack_us / spec.ack_us : 0;
  std::printf("speculative:       %s, ack after %.0f us\n", spec.ok ? "converged" : "FAILED",
              spec.ack_us);
  std::printf("reconstruct-first: %s, ack after %.0f us\n", full.ok ? "converged" : "FAILED",
              full.ack_us);
  std::printf("speculation speedup: %.2fx (gate: >= 2x)\n", speedup);

  std::printf("\n=== Phase B: foreground tail during a demotion wave ===\n\n");
  OverheadResult off = RunOverheadMode(false);
  OverheadResult on = RunOverheadMode(true);
  core::Table table({"mode", "read p99 (us)", "write p99 (us)", "demotions"});
  table.AddRow({"tier-off", core::Table::Int(off.read_p99_us), core::Table::Int(off.write_p99_us),
                "-"});
  table.AddRow({"tier-on", core::Table::Int(on.read_p99_us), core::Table::Int(on.write_p99_us),
                core::Table::Int(static_cast<double>(on.demotions))});
  table.Print();

  double overhead = off.read_p99_us > 0 ? on.read_p99_us / off.read_p99_us : 0;
  std::printf("\nTier-on read p99 overhead: %.2fx (bound: <= %.2fx), %llu demotions in window\n",
              overhead, kFgP99Bound, static_cast<unsigned long long>(on.demotions));

  bool wave_ran = on.demotions >= 8;  // at least half the cold chunks moved
  bool fg_ok = overhead > 0 && overhead <= kFgP99Bound;
  bool spec_2x = spec.ok && full.ok && speedup >= 2.0;
  bool ok = cap.wave_complete && cap.capacity_halved && cap.data_intact && cap.promote_acked &&
            spec_2x && wave_ran && fg_ok;
  std::printf("\nTiering %s\n", ok ? "SHAPE-OK" : "SHAPE-MISMATCH");

  std::string json_path = core::MetricsJsonPath(argc, argv);
  if (json_path.empty()) {
    json_path = "BENCH_tiering.json";
  }
  std::ofstream os(json_path);
  os << "{\"bench\":\"tiering\""
     << ",\"wave_complete\":" << (cap.wave_complete ? 1 : 0)
     << ",\"capacity_factor_halved\":" << (cap.capacity_halved ? 1 : 0)
     << ",\"data_intact\":" << (cap.data_intact ? 1 : 0)
     << ",\"write_promote_acked\":" << (cap.promote_acked ? 1 : 0)
     << ",\"cold_write_spec_2x\":" << (spec_2x ? 1 : 0)
     << ",\"wave_overlapped_window\":" << (wave_ran ? 1 : 0)
     << ",\"fg_p99_within_2x\":" << (fg_ok ? 1 : 0)
     << ",\"_capacity_factor_before\":" << cap.factor_before
     << ",\"_capacity_factor_after\":" << cap.factor_after
     << ",\"_wave_ms\":" << cap.wave_ms
     << ",\"_promote_ack_us\":" << cap.promote_ack_us
     << ",\"_cold_write_ack_us_spec\":" << spec.ack_us
     << ",\"_cold_write_ack_us_full\":" << full.ack_us
     << ",\"_cold_write_speedup\":" << speedup
     << ",\"_fg_read_p99_us_off\":" << off.read_p99_us
     << ",\"_fg_read_p99_us_on\":" << on.read_p99_us
     << ",\"_fg_write_p99_us_off\":" << off.write_p99_us
     << ",\"_fg_write_p99_us_on\":" << on.write_p99_us
     << ",\"_overhead_ratio\":" << overhead
     << ",\"_demotions_in_window\":" << on.demotions << "}\n";
  std::printf("metrics written to %s\n", json_path.c_str());
  return 0;
}
