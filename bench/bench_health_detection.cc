// Health detection benchmark (see DESIGN.md "Device health scoring & SLO
// control"): how fast a gray-slow device is detected and demoted, what the
// demotion buys in foreground tail latency, and whether the SLO controller
// holds the foreground p99 under its target through a recovery storm.
//
// Phase A (detection, SSD-only cluster): two identical TestBeds differing
// only in `cluster.health.enabled`. Both run a mixed 4K workload, then one
// SSD turns gray (+2 ms on every I/O). With health on, the scorer flags the
// device's windowed p99 as a peer outlier, the master demotes its replicas
// (view bump -> clients refresh and steer reads to healthy replicas); with
// health off, ~1/6 of reads keep landing on the gray primary forever. The
// SSD-only mode keeps the comparison honest: failover targets are equally
// fast SSDs, so the measured win is pure detection+steering, not tiering.
// Writes still touch the demoted replica (durability beats steering), so the
// read tail is the gated metric.
//
// Phase B (SLO control, hybrid cluster + QoS): a backup-server crash starts
// a recovery storm against the SSD primaries serving a foreground tenant.
// SloMonitor throttles the bulk classes AIMD-style whenever the windowed
// foreground p99 violates its target; the gates require the storm-window
// read p99 to stay under the target while recovery still converges. Every
// I/O of the storm's measured window is traced, and the per-stage breakdown
// is printed (tracing leaves the simulated timings as they are).
//
// Gates (bench/bench_baselines.json, "health_detection"): read-p99
// improvement from detection >= 2x, detection within its 1 s budget, SLO
// held, recovery converged.
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/system.h"

using namespace ursa;

namespace {

constexpr uint64_t kDiskSize = 2ull * kGiB;
constexpr Nanos kGrayExtraLatency = msec(2);
constexpr Nanos kDetectionBudget = sec(1);
constexpr Nanos kSloTarget = msec(2);

obs::HealthConfig BenchHealthConfig() {
  obs::HealthConfig h;
  h.enabled = true;
  h.window_length = msec(100);
  h.num_windows = 4;
  h.check_interval = msec(50);
  h.min_samples = 8;
  h.suspect_after = 2;
  h.degrade_after = 4;
  h.clear_after = 4;
  return h;
}

struct DetectionResult {
  std::string name;
  double quiet_read_p99_us = 0;
  double gray_read_p99_us = 0;  // steered window, gray device still faulted
  double detection_ms = -1;     // fault -> demotion; -1 = never detected
};

// One Phase-A arm: quiet window, gray fault on m0/ssd0, a detection window
// for the monitor to act, then the gated steered window.
DetectionResult RunDetectionMode(bool health_enabled) {
  core::SystemProfile profile = core::UrsaSsdProfile(3);
  profile.name = health_enabled ? "health-on" : "health-off";
  if (health_enabled) {
    profile.cluster.health = BenchHealthConfig();
  }
  core::TestBed bed(profile);
  auto& sim = bed.sim();
  auto& master = bed.cluster().master();

  client::VirtualDisk* fg = bed.NewDisk(kDiskSize);
  core::WorkloadSpec spec;
  spec.block_size = 4 * kKiB;
  spec.queue_depth = 8;
  spec.read_fraction = 0.5;  // writes keep every replica's digest fed

  DetectionResult out;
  out.name = profile.name;

  core::RunMetrics quiet = bed.RunWorkload(fg, spec, msec(300), msec(500), "quiet");
  out.quiet_read_p99_us = static_cast<double>(quiet.read_latency_us.Percentile(99));

  // The first SSD (hosting server 0) turns gray: +2 ms on every I/O.
  bed.cluster().machine(0).ssd(0).SetFault(storage::DeviceFault{kGrayExtraLatency, false});
  Nanos fault_time = sim.Now();
  Nanos detect_time = 0;
  // Weak self-reference: the pending poll event holds the closure.
  auto poll = std::make_shared<std::function<void()>>();
  *poll = [&sim, &master, &detect_time, weak = std::weak_ptr<std::function<void()>>(poll)]() {
    if (master.IsDemoted(0)) {
      detect_time = sim.Now();
      return;
    }
    sim.After(msec(5), [self = weak.lock()]() { (*self)(); });
  };
  if (health_enabled) {
    (*poll)();
  }

  // Detection window: traffic feeds the digests while the scorer walks the
  // device healthy -> suspect -> degraded. Not gated.
  bed.RunWorkload(fg, spec, 0, kDetectionBudget, "detect");
  if (detect_time != 0) {
    out.detection_ms = ToMsec(detect_time - fault_time);
  }

  // Steered window: with health on, reads have re-steered to healthy
  // replicas; with health off, the gray primary keeps serving its share.
  core::RunMetrics steered = bed.RunWorkload(fg, spec, 0, sec(1), "steered");
  out.gray_read_p99_us = static_cast<double>(steered.read_latency_us.Percentile(99));
  return out;
}

struct SloResult {
  double quiet_read_p99_us = 0;
  double storm_read_p99_us = 0;
  double recovery_s = 0;
  bool converged = false;
  uint64_t violations = 0;
  uint64_t recovery_steps = 0;
  size_t victim_chunks = 0;
  std::string storm_breakdown;  // per-stage trace of the storm window
};

// Phase B: hybrid cluster, QoS + SLO on; crash an HDD backup of a victim
// disk so its chunks re-replicate from the SSD primaries the foreground
// tenant reads from, and let the controller defend the target.
SloResult RunSloStorm() {
  core::SystemProfile profile = core::UrsaHybridProfile(3);
  profile.name = "slo-on";
  profile.cluster.qos.enabled = true;
  profile.cluster.chunk_size = 16 * kMiB;  // smaller chunks -> more victims
  profile.cluster.slo.enabled = true;
  profile.cluster.slo.fg_p99_target = kSloTarget;
  core::TestBed bed(profile);
  auto& sim = bed.sim();
  auto& master = bed.cluster().master();

  client::VirtualDisk* fg = bed.NewDisk(kDiskSize);  // disk 1
  bed.NewDisk(8ull * kGiB);                          // disk 2 (victim)

  core::WorkloadSpec spec;
  spec.block_size = 4 * kKiB;
  spec.queue_depth = 8;
  spec.read_fraction = 0.5;

  SloResult out;
  core::RunMetrics quiet = bed.RunWorkload(fg, spec, msec(300), sec(1), "quiet");
  out.quiet_read_p99_us = static_cast<double>(quiet.read_latency_us.Percentile(99));

  const cluster::DiskMeta* victim_meta = *master.GetDisk(2);
  cluster::ServerId failed = victim_meta->chunks[0].replicas[1].server;  // HDD backup
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
  bed.cluster().CrashServer(failed);
  Nanos crash_time = sim.Now();
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
    const cluster::DiskMeta* meta = *master.GetDisk(2);
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
  auto poll = std::make_shared<std::function<void()>>();
  *poll = [&sim, &heal_time, healed, weak = std::weak_ptr<std::function<void()>>(poll)]() {
    if (healed()) {
      heal_time = sim.Now();
      return;
    }
    sim.After(msec(10), [self = weak.lock()]() { (*self)(); });
  };
  sim.After(msec(10), [poll]() { (*poll)(); });

  constexpr Nanos kStormWarmup = msec(100);
  sim.At(sim.Now() + kStormWarmup, [&bed]() {
    bed.tracer().Reset();
    bed.EnableTracing(1);
  });
  core::RunMetrics storm = bed.RunWorkload(fg, spec, kStormWarmup, sec(2), "storm");
  out.storm_read_p99_us = static_cast<double>(storm.read_latency_us.Percentile(99));
  out.storm_breakdown = bed.tracer().BreakdownTable();
  bed.EnableTracing(0);

  for (int i = 0; i < 600 && heal_time == 0; ++i) {
    sim.RunUntil(sim.Now() + msec(50));
  }
  out.converged = heal_time != 0;
  out.recovery_s = out.converged ? ToSec(heal_time - crash_time) : 0;
  if (qos::SloMonitor* slo = bed.cluster().slo_monitor()) {
    out.violations = slo->violations();
    out.recovery_steps = slo->recovery_steps();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Phase A: gray-SSD detection latency and steering win ===\n\n");
  DetectionResult off = RunDetectionMode(false);
  DetectionResult on = RunDetectionMode(true);

  core::Table table({"mode", "quiet read p99 (us)", "gray read p99 (us)", "detection (ms)"});
  for (const DetectionResult* r : {&off, &on}) {
    table.AddRow({r->name, core::Table::Int(r->quiet_read_p99_us),
                  core::Table::Int(r->gray_read_p99_us),
                  r->detection_ms < 0 ? std::string("-") : core::Table::Int(r->detection_ms)});
  }
  table.Print();

  double p99_improvement = on.gray_read_p99_us > 0 ? off.gray_read_p99_us / on.gray_read_p99_us : 0;
  bool detected_in_budget = on.detection_ms >= 0 && on.detection_ms <= ToMsec(kDetectionBudget);
  std::printf("\nDetection read-p99 improvement: %.2fx (gate: >= 2x)\n", p99_improvement);
  std::printf("Detection latency: %.0f ms (budget: %lld ms)\n", on.detection_ms,
              static_cast<long long>(ToMsec(kDetectionBudget)));

  std::printf("\n=== Phase B: SLO controller under a recovery storm ===\n\n");
  SloResult slo = RunSloStorm();
  std::printf("quiet read p99: %.0f us, storm read p99: %.0f us (target %lld us)\n",
              slo.quiet_read_p99_us, slo.storm_read_p99_us,
              static_cast<long long>(ToUsec(kSloTarget)));
  std::printf("controller: %llu violations, %llu recovery steps\n",
              static_cast<unsigned long long>(slo.violations),
              static_cast<unsigned long long>(slo.recovery_steps));
  std::printf("recovery: %s in %.2f s (%zu victim chunks)\n",
              slo.converged ? "converged" : "DID NOT CONVERGE", slo.recovery_s,
              slo.victim_chunks);
  std::printf("\nStorm-window stage breakdown:\n%s", slo.storm_breakdown.c_str());

  bool slo_met = slo.storm_read_p99_us <= ToUsec(kSloTarget);
  bool ok = p99_improvement >= 2.0 && detected_in_budget && slo_met && slo.converged;
  std::printf("\nHealth-detection %s\n", ok ? "SHAPE-OK" : "SHAPE-MISMATCH");

  std::string json_path = core::MetricsJsonPath(argc, argv);
  if (json_path.empty()) {
    json_path = "BENCH_health_detection.json";
  }
  std::ofstream os(json_path);
  os << "{\"bench\":\"health_detection\""
     << ",\"quiet_read_p99_us_off\":" << off.quiet_read_p99_us
     << ",\"quiet_read_p99_us_on\":" << on.quiet_read_p99_us
     << ",\"gray_read_p99_us_off\":" << off.gray_read_p99_us
     << ",\"gray_read_p99_us_on\":" << on.gray_read_p99_us
     << ",\"detection_ms\":" << on.detection_ms
     << ",\"p99_improvement_detection\":" << p99_improvement
     << ",\"detection_within_budget\":" << (detected_in_budget ? 1 : 0)
     << ",\"storm_read_p99_us_slo\":" << slo.storm_read_p99_us
     << ",\"slo_target_us\":" << ToUsec(kSloTarget)
     << ",\"slo_violations\":" << slo.violations
     << ",\"slo_recovery_steps\":" << slo.recovery_steps
     << ",\"recovery_seconds_slo\":" << slo.recovery_s
     << ",\"slo_met\":" << (slo_met ? 1 : 0)
     << ",\"recovery_converged\":" << (slo.converged ? 1 : 0) << "}\n";
  std::printf("metrics written to %s\n", json_path.c_str());
  return 0;
}
