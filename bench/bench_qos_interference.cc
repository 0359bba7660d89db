// QoS interference benchmark (see DESIGN.md "QoS & background-traffic
// arbitration"): foreground 4K random reads while a journal-replay storm and
// a recovery storm run in the background, with and without the per-device
// QoS scheduler (src/qos).
//
// Methodology: two identical TestBeds differing only in `cluster.qos.enabled`.
// Each measures
//   1. a quiet window (foreground alone) as the no-interference reference;
//   2. a storm window opened by crashing an HDD backup server of a separate
//      victim disk: every lost replica re-replicates by streaming 1 MiB
//      recovery reads FROM the victim chunks' SSD primaries — the same SSDs
//      serving the foreground tenant's 4K reads — onto replacement HDDs,
//      while a second disk's journaled-write churn keeps a replay storm
//      running on the HDD tier. The SSD model is FIFO: without QoS the
//      foreground reads queue behind megabyte recovery reads; with QoS the
//      scheduler's weighted round-robin (fg weight 8 : recovery weight 1)
//      keeps them ahead. The foreground path itself never degrades — no
//      client timeouts pollute the tail;
//   3. recovery convergence: time from the crash until every victim chunk
//      has a full healthy replica set again (QoS watermark backpressure
//      throttles recovery, so it must still finish within ~3x of
//      unthrottled).
//
// Every I/O of the storm's measured window is traced, and the per-stage
// breakdown is printed for each mode: it shows where the storm tail sits
// (device queue vs. network). Tracing leaves the simulated timings as they
// are.
//
// Gate (bench/bench_baselines.json, "qos_interference"): QoS must cut the
// storm-window foreground p99 by >= 2x, while throttled recovery converges
// within ~3x of the unthrottled run.
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/system.h"

using namespace ursa;

namespace {

constexpr uint64_t kFgDiskSize = 2ull * kGiB;
constexpr uint64_t kChurnDiskSize = 2ull * kGiB;
constexpr uint64_t kVictimDiskSize = 8ull * kGiB;
constexpr uint64_t kChunkSize = 16 * kMiB;  // smaller chunks -> more victims
constexpr int kChurnDepth = 8;
constexpr uint64_t kChurnBlock = 16 * kKiB;  // < Tj, so every write journals

struct ModeResult {
  std::string name;
  double quiet_p99_us = 0;
  double storm_p50_us = 0;
  double storm_p99_us = 0;
  double recovery_s = 0;
  size_t victim_chunks = 0;
  bool converged = false;
  std::string storm_breakdown;  // per-stage trace of the storm window
};

// Closed-loop journal churn: random 16K timing-only writes at a fixed queue
// depth, re-issuing from each completion until stopped.
struct ChurnPump {
  client::VirtualDisk* disk = nullptr;
  Rng rng{0x9e3779b97f4a7c15ull};
  int inflight = 0;
  bool stop = false;

  void Fill() {
    while (!stop && inflight < kChurnDepth) {
      ++inflight;
      uint64_t blocks = kChurnDiskSize / kChurnBlock;
      uint64_t off = (rng.Next() % blocks) * kChurnBlock;
      disk->Write(off, kChurnBlock, {}, [this](const Status&) {
        --inflight;
        Fill();  // ignore errors: the crash degrades some replication legs
      });
    }
  }
};

ModeResult RunMode(bool qos_enabled) {
  core::SystemProfile profile = core::UrsaHybridProfile(3);
  profile.name = qos_enabled ? "qos-on" : "qos-off";
  profile.cluster.qos.enabled = qos_enabled;
  profile.cluster.chunk_size = kChunkSize;

  core::TestBed bed(profile);
  auto& cluster = bed.cluster();
  auto& master = cluster.master();
  auto& sim = bed.sim();

  client::VirtualDisk* fg = bed.NewDisk(kFgDiskSize);           // disk 1
  client::VirtualDisk* churn_disk = bed.NewDisk(kChurnDiskSize);  // disk 2
  bed.NewDisk(kVictimDiskSize);                                 // disk 3

  core::WorkloadSpec fg_spec;
  fg_spec.block_size = 4 * kKiB;
  fg_spec.queue_depth = 8;
  fg_spec.read_fraction = 1.0;

  ModeResult out;
  out.name = profile.name;

  // 1. Quiet reference window.
  core::RunMetrics quiet = bed.RunWorkload(fg, fg_spec, msec(300), sec(1), "quiet");
  out.quiet_p99_us = static_cast<double>(quiet.read_latency_us.Percentile(99));

  // 2. Start the journal churn and let a replay backlog build.
  ChurnPump pump;
  pump.disk = churn_disk;
  pump.Fill();
  sim.RunUntil(sim.Now() + msec(300));

  // Crash an HDD backup server hosting victim-disk replicas. Re-replicating
  // its chunks streams recovery reads from the SSD primaries the foreground
  // tenant shares. (Hybrid placement sorts replicas SSD-first, so
  // replicas[1] is an HDD backup.)
  const cluster::DiskMeta* victim_meta = *master.GetDisk(3);
  cluster::ServerId failed = victim_meta->chunks[0].replicas[1].server;
  std::vector<storage::ChunkId> victims;
  for (const auto& layout : victim_meta->chunks) {
    for (const auto& r : layout.replicas) {
      if (r.server == failed) {
        victims.push_back(layout.chunk);
        break;
      }
    }
  }
  out.victim_chunks = victims.size();
  cluster.CrashServer(failed);
  Nanos crash_time = sim.Now();

  // Recovery storm: report every victim chunk once; re-report on error until
  // its re-replication sticks (the master dedups nothing — one report, one
  // transfer). Convergence is then checked against the layout itself.
  std::function<void(storage::ChunkId)> report = [&](storage::ChunkId chunk) {
    master.ReportReplicaFailure(chunk, failed, [&, chunk](const Status& s) {
      if (!s.ok()) {
        sim.After(msec(100), [&, chunk]() { report(chunk); });
      }
    });
  };
  for (storage::ChunkId chunk : victims) {
    report(chunk);
  }

  auto healed = [&master, failed]() {
    const cluster::DiskMeta* meta = *master.GetDisk(3);
    for (const auto& layout : meta->chunks) {
      for (const auto& r : layout.replicas) {
        if (r.server == failed) {
          return false;
        }
      }
    }
    return true;
  };
  Nanos heal_time = 0;
  // Weak self-reference: the pending poll event holds the closure.
  auto poll = std::make_shared<std::function<void()>>();
  *poll = [&sim, &heal_time, healed, weak = std::weak_ptr<std::function<void()>>(poll)]() {
    if (healed()) {
      heal_time = sim.Now();
      return;
    }
    sim.After(msec(10), [self = weak.lock()]() { (*self)(); });
  };
  sim.After(msec(10), [poll]() { (*poll)(); });

  // 3. Foreground under the combined replay + recovery storm, traced from
  // the end of the warmup on.
  constexpr Nanos kStormWarmup = msec(100);
  sim.At(sim.Now() + kStormWarmup, [&bed]() {
    bed.tracer().Reset();
    bed.EnableTracing(1);
  });
  core::RunMetrics storm = bed.RunWorkload(fg, fg_spec, kStormWarmup, sec(2), "storm");
  out.storm_p50_us = static_cast<double>(storm.read_latency_us.Percentile(50));
  out.storm_p99_us = static_cast<double>(storm.read_latency_us.Percentile(99));
  out.storm_breakdown = bed.tracer().BreakdownTable();
  bed.EnableTracing(0);

  // 4. Stop the churn and wait for the victim set to converge.
  pump.stop = true;
  for (int i = 0; i < 600 && heal_time == 0; ++i) {
    sim.RunUntil(sim.Now() + msec(50));
  }
  out.converged = heal_time != 0;
  out.recovery_s = out.converged ? ToSec(heal_time - crash_time) : 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== QoS interference: foreground 4K reads vs replay+recovery storms ===\n\n");

  ModeResult off = RunMode(false);
  ModeResult on = RunMode(true);

  core::Table table({"mode", "quiet p99 (us)", "storm p50 (us)", "storm p99 (us)",
                     "recovery (s)", "victims"});
  for (const ModeResult* r : {&off, &on}) {
    table.AddRow({r->name, core::Table::Int(r->quiet_p99_us), core::Table::Int(r->storm_p50_us),
                  core::Table::Int(r->storm_p99_us), core::Table::Num(r->recovery_s, 2),
                  std::to_string(r->victim_chunks)});
  }
  table.Print();
  for (const ModeResult* r : {&off, &on}) {
    std::printf("\nStorm-window stage breakdown, %s:\n%s", r->name.c_str(),
                r->storm_breakdown.c_str());
  }

  double p99_improvement = on.storm_p99_us > 0 ? off.storm_p99_us / on.storm_p99_us : 0;
  // Throttled recovery is slower; the acceptance bound is "within 3x of
  // unthrottled", i.e. speed ratio (unthrottled time / throttled time) >~ 1/3.
  double recovery_speed_ratio = on.recovery_s > 0 ? off.recovery_s / on.recovery_s : 0;
  std::printf("\nQoS storm p99 improvement: %.2fx (gate: >= 2x)\n", p99_improvement);
  std::printf("Recovery speed ratio (off/on): %.2f (gate: >= ~1/3, i.e. within 3x)\n",
              recovery_speed_ratio);

  bool ok = off.converged && on.converged && p99_improvement >= 2.0 &&
            recovery_speed_ratio >= 1.0 / 3.0;
  std::printf("QoS-interference %s\n", ok ? "SHAPE-OK" : "SHAPE-MISMATCH");

  std::string json_path = core::MetricsJsonPath(argc, argv);
  if (json_path.empty()) {
    json_path = "BENCH_qos_interference.json";
  }
  std::ofstream os(json_path);
  os << "{\"bench\":\"qos_interference\""
     << ",\"quiet_p99_us_qos_off\":" << off.quiet_p99_us
     << ",\"quiet_p99_us_qos_on\":" << on.quiet_p99_us
     << ",\"storm_p50_us_qos_off\":" << off.storm_p50_us
     << ",\"storm_p50_us_qos_on\":" << on.storm_p50_us
     << ",\"storm_p99_us_qos_off\":" << off.storm_p99_us
     << ",\"storm_p99_us_qos_on\":" << on.storm_p99_us
     << ",\"recovery_seconds_qos_off\":" << off.recovery_s
     << ",\"recovery_seconds_qos_on\":" << on.recovery_s
     << ",\"qos_p99_improvement\":" << p99_improvement
     << ",\"recovery_speed_ratio\":" << recovery_speed_ratio << "}\n";
  std::printf("metrics written to %s\n", json_path.c_str());
  return 0;
}
