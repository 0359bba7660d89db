#include "src/chaos/chaos_runner.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "src/chaos/block_history.h"
#include "src/chaos/chaos_engine.h"
#include "src/client/virtual_disk.h"
#include "src/common/logging.h"

namespace ursa::chaos {

namespace {

constexpr uint64_t kBlock = 4096;
constexpr uint64_t kWorkloadSalt = 0x0515CA11ull;
constexpr uint64_t kTransportSalt = 0x7E1E7A05ull;

}  // namespace

std::string ChaosReport::Summary() const {
  std::string out = "chaos seed " + std::to_string(seed) + ": " + (ok ? "OK" : "FAILED") +
                    " (reads_checked=" + std::to_string(checked_reads) +
                    " writes_committed=" + std::to_string(committed_writes) +
                    " ops_failed=" + std::to_string(failed_ops) +
                    " bit_flips=" + std::to_string(bit_flips) +
                    " corruptions_detected=" + std::to_string(corruptions_detected) +
                    " corruptions_repaired=" + std::to_string(corruptions_repaired) + ")";
  if (latent_flips > 0) {
    out += "\n  scrub: latent_flips=" + std::to_string(latent_flips) +
           " detected=" + std::to_string(scrub_detected) +
           " repaired=" + std::to_string(scrub_repaired) +
           " client_integrity_errors=" + std::to_string(client_integrity_errors) +
           " mttd=" + std::to_string(static_cast<uint64_t>(scrub_mttd_us)) + "us" +
           " sweep_period=" + std::to_string(static_cast<uint64_t>(sweep_period_us)) + "us";
  }
  if (tier_demotions > 0 || tier_promotions > 0 || tier_write_promotions > 0) {
    char cap[64];
    std::snprintf(cap, sizeof(cap), " capacity_factor=%.2f->%.2f", capacity_factor_before,
                  capacity_factor_after);
    out += "\n  tier: demotions=" + std::to_string(tier_demotions) +
           " promotions=" + std::to_string(tier_promotions) +
           " write_promotions=" + std::to_string(tier_write_promotions) +
           " spec_promotions=" + std::to_string(tier_spec_promotions) +
           " spec_resumes=" + std::to_string(tier_spec_resumes) +
           " spec_retries=" + std::to_string(tier_spec_retries) +
           " shard_repairs=" + std::to_string(tier_shard_repairs) +
           " degraded_reads=" + std::to_string(tier_degraded_reads) +
           (capacity_factor_before > 0 ? cap : "");
  }
  if (health_demotions > 0 || !degraded_devices.empty()) {
    out += "\n  health: demotions=" + std::to_string(health_demotions) +
           " undemotions=" + std::to_string(health_undemotions) + " degraded=[";
    for (size_t i = 0; i < degraded_devices.size(); ++i) {
      out += (i > 0 ? " " : "") + degraded_devices[i];
    }
    out += "] demoted_at_end=[";
    for (size_t i = 0; i < demoted_at_end.size(); ++i) {
      out += (i > 0 ? " " : "") + demoted_at_end[i];
    }
    out += "]";
  }
  if (!ok) {
    for (const auto& v : violations) {
      out += "\n  violation: " + v;
    }
    out += "\n  fault trace (replay with this seed):";
    for (const auto& f : fault_trace) {
      out += "\n    " + f;
    }
  }
  return out;
}

ChaosReport RunChaos(const ChaosPlan& plan) {
  ChaosReport report;
  report.seed = plan.seed;

  sim::Simulator sim;
  Rng transport_rng(plan.seed ^ kTransportSalt);
  Rng workload_rng(plan.seed ^ kWorkloadSalt);
  cluster::Cluster cluster(&sim, plan.cluster);
  cluster.transport().SetChaosRng(&transport_rng);

  Result<cluster::DiskId> disk_id =
      cluster.master().CreateDisk("chaos", plan.disk_size, plan.replication, plan.stripe_group);
  URSA_CHECK(disk_id.ok());

  client::VirtualDiskClientOptions options;
  options.request_timeout = plan.request_timeout;
  cluster::Machine* host = cluster.AddClientMachine();
  client::VirtualDisk disk(&cluster, host, /*client_id=*/1, options);
  Status open = disk.Open(*disk_id);
  URSA_CHECK(open.ok());

  ChaosEngine engine(&sim, &cluster, plan);
  engine.AddClientNode(host->node());
  engine.ScheduleFaults();

  // ---- Paced workload across the fault window ----
  int blocks = std::max(1, plan.blocks);
  uint64_t stride = plan.disk_size / static_cast<uint64_t>(blocks);
  stride -= stride % kBlock;
  URSA_CHECK_GE(stride, kBlock);
  std::vector<BlockHistory> histories(blocks);
  int issued = 0;
  auto completed = std::make_shared<int>(0);

  auto issue_op = [&]() {
    int block = static_cast<int>(workload_rng.Uniform(static_cast<uint64_t>(blocks)));
    uint64_t offset = static_cast<uint64_t>(block) * stride;
    ++issued;
    if (workload_rng.Bernoulli(plan.write_fraction)) {
      uint32_t seq = histories[block].OnWriteInvoke(sim.Now());
      Buffer buf = Buffer::AllocateZeroed(kBlock);
      std::memcpy(buf.data(), &seq, sizeof(seq));
      disk.Write(offset, kBlock, buf,
                 [&, block, seq, completed](const Status& s) {
                   ++*completed;
                   if (s.ok()) {
                     histories[block].OnWriteCommit(seq, sim.Now());
                     ++report.committed_writes;
                   } else {
                     ++report.failed_ops;
                   }
                 });
    } else {
      auto buf = std::make_shared<std::vector<uint8_t>>(kBlock, 0);
      Nanos invoke = sim.Now();
      disk.Read(offset, kBlock, buf->data(),
                [&, block, invoke, buf, completed](const Status& s) {
                  ++*completed;
                  if (!s.ok()) {
                    ++report.failed_ops;  // failed reads make no visibility claim
                    return;
                  }
                  uint32_t seq = 0;
                  std::memcpy(&seq, buf->data(), sizeof(seq));
                  std::string err = histories[block].CheckRead(seq, invoke, sim.Now());
                  if (!err.empty()) {
                    report.violations.push_back("block " + std::to_string(block) + ": " + err);
                  }
                  ++report.checked_reads;
                });
    }
  };

  Nanos workload_start = sim.Now();
  Nanos span = plan.warmup + plan.fault_window + plan.workload_tail;
  Nanos spacing = span / std::max(1, plan.ops);
  for (int i = 0; i < plan.ops; ++i) {
    issue_op();
    sim.RunUntil(workload_start + static_cast<Nanos>(i + 1) * spacing);
  }

  // Let scheduled heal events fire, then force-heal whatever is left and
  // wait for in-flight ops to resolve (commit or exhaust retries).
  sim.RunUntil(sim.Now() + plan.max_fault_len + plan.request_timeout);
  engine.HealAll();
  for (int round = 0; round < plan.drain_rounds && *completed < issued; ++round) {
    sim.RunUntil(sim.Now() + plan.drain_step);
  }
  if (*completed < issued) {
    report.violations.push_back("stuck ops: " + std::to_string(issued - *completed) + " of " +
                                std::to_string(issued) + " never completed after heal");
  }

  // ---- Convergence: repair, then require equal versions + identical bytes
  // (journal overlay included) on every replica of every chunk. ----
  const cluster::DiskMeta* meta = *cluster.master().GetDisk(*disk_id);
  auto check_convergence = [&](std::vector<std::string>* problems) {
    for (const cluster::ChunkLayout& layout : meta->chunks) {
      if (layout.tier == cluster::ChunkTier::kEc) {
        // A demoted chunk has no replicas to compare — its redundancy is the
        // stripe's parity. Require every shard to sit on a live server
        // (post-heal stripe healing must have rebuilt any lost ones); the
        // final client read-back checks the bytes, reconstructing if needed.
        for (size_t i = 0; i < layout.ec_shards.size(); ++i) {
          if (cluster.server(layout.ec_shards[i].server)->crashed()) {
            problems->push_back("chunk " + std::to_string(layout.chunk) + " EC shard " +
                                std::to_string(i) + " stranded on a crashed server");
          }
        }
        continue;
      }
      uint64_t version0 = 0;
      std::vector<BufferView> images;
      for (size_t r = 0; r < layout.replicas.size(); ++r) {
        cluster::ChunkServer* server = cluster.server(layout.replicas[r].server);
        Result<cluster::ReplicaState> st = server->GetState(layout.chunk);
        if (!st.ok()) {
          problems->push_back("chunk " + std::to_string(layout.chunk) + " replica " +
                              std::to_string(r) + ": no state");
          continue;
        }
        if (r == 0) {
          version0 = st->version;
        } else if (st->version != version0) {
          problems->push_back("chunk " + std::to_string(layout.chunk) + " version skew: replica " +
                              std::to_string(r) + " at " + std::to_string(st->version) +
                              " vs " + std::to_string(version0));
        }
        auto read = std::make_shared<std::pair<Status, BufferView>>(
            Unavailable("recovery read never completed"), BufferView());
        server->HandleRecoveryRead(
            layout.chunk, 0, meta->chunk_size,
            [read](const Status& s, uint64_t, const BufferView& bytes) { *read = {s, bytes}; });
        sim.RunUntil(sim.Now() + sec(2));
        if (!read->first.ok()) {
          problems->push_back("chunk " + std::to_string(layout.chunk) + " replica " +
                              std::to_string(r) + " recovery read: " + read->first.ToString());
        }
        // A replica that did not serve its image compares as zeros.
        images.push_back(read->first.ok() ? read->second
                                          : Buffer::AllocateZeroed(meta->chunk_size).View());
      }
      for (size_t r = 1; r < images.size(); ++r) {
        if (std::memcmp(images[r].data(), images[0].data(), meta->chunk_size) != 0) {
          problems->push_back("chunk " + std::to_string(layout.chunk) + " replica " +
                              std::to_string(r) + " bytes diverge from replica 0");
        }
      }
    }
  };

  bool converged = false;
  std::vector<std::string> last_problems;
  for (int round = 0; round < plan.drain_rounds && !converged; ++round) {
    for (const cluster::ChunkLayout& layout : meta->chunks) {
      cluster.master().RepairChunkReplicas(layout.chunk);
    }
    sim.RunUntil(sim.Now() + plan.drain_step);
    last_problems.clear();
    check_convergence(&last_problems);
    converged = last_problems.empty();
  }
  if (!converged) {
    for (auto& p : last_problems) {
      report.violations.push_back("no convergence: " + std::move(p));
    }
  }

  // ---- Final read-back through the client: repaired data must be current,
  // never the stale pre-corruption bytes. ----
  for (int block = 0; block < blocks; ++block) {
    auto buf = std::make_shared<std::vector<uint8_t>>(kBlock, 0);
    Nanos invoke = sim.Now();
    auto done = std::make_shared<bool>(false);
    disk.Read(static_cast<uint64_t>(block) * stride, kBlock, buf->data(),
              [&, block, invoke, buf, done](const Status& s) {
                *done = true;
                if (!s.ok()) {
                  report.violations.push_back("final read of block " + std::to_string(block) +
                                              " failed after heal: " + s.ToString());
                  return;
                }
                uint32_t seq = 0;
                std::memcpy(&seq, buf->data(), sizeof(seq));
                std::string err = histories[block].CheckRead(seq, invoke, sim.Now());
                if (!err.empty()) {
                  report.violations.push_back("final read of block " + std::to_string(block) +
                                              ": " + err);
                }
                ++report.checked_reads;
              });
    sim.RunUntil(sim.Now() + sec(2));
    if (!*done) {
      report.violations.push_back("final read of block " + std::to_string(block) + " hung");
    }
  }

  report.bit_flips = engine.bit_flips_landed();
  for (const journal::JournalManager* jm : cluster.journal_managers()) {
    report.corruptions_detected += jm->stats().corruptions_detected;
    report.corruptions_repaired += jm->stats().corruptions_repaired;
  }

  if (cluster.tier_migrator() != nullptr) {
    const cluster::TierStats& ts = cluster.master().tier_stats();
    report.tier_demotions = ts.demotions;
    report.tier_promotions = ts.promotions;
    report.tier_write_promotions = ts.write_promotions;
    report.tier_shard_repairs = ts.shard_repairs;
    report.tier_degraded_reads = disk.stats().ec_degraded_reads;
  }

  // ---- Health verdicts vs injected ground truth ----
  if (obs::HealthMonitor* hm = cluster.health_monitor()) {
    report.health_demotions = cluster.master().recovery_stats().demotions;
    report.health_undemotions = cluster.master().recovery_stats().undemotions;
    for (const obs::HealthEvent& e : hm->events()) {
      if (e.to != obs::HealthState::kDegraded) {
        continue;
      }
      if (std::find(report.degraded_devices.begin(), report.degraded_devices.end(), e.name) ==
          report.degraded_devices.end()) {
        report.degraded_devices.push_back(e.name);
      }
      // Only devices the engine actually gray-faulted (slow or stuck) may be
      // degraded. Anything else is a false-positive demotion: the scorer
      // mistook ambient chaos (partitions, crashes, load) for a sick device.
      const std::vector<std::string>& injected = engine.faulted_devices();
      if (std::find(injected.begin(), injected.end(), e.name) == injected.end()) {
        report.violations.push_back("false-positive demotion of " + e.name + " (" + e.evidence +
                                    "): device was never gray-faulted");
      }
    }
    for (uint32_t d = 0; d < static_cast<uint32_t>(hm->num_devices()); ++d) {
      if (cluster.master().IsDemoted(cluster.ServerOfHealthDevice(d))) {
        report.demoted_at_end.push_back(hm->device_name(d));
      }
    }
    std::ostringstream health_os;
    hm->WriteJson(health_os);
    report.health_json = health_os.str();
  }
  report.fault_trace = engine.trace();
  report.ok = report.violations.empty() && report.committed_writes > 0 &&
              report.checked_reads > 0;
  if (report.committed_writes == 0) {
    report.violations.push_back("no writes committed: fault plan starved the workload");
  }
  if (report.checked_reads == 0) {
    report.violations.push_back("no reads checked: fault plan starved the workload");
  }
  return report;
}

ChaosReport RunLatentScrub(const ChaosPlan& plan) {
  URSA_CHECK(plan.cluster.scrub.enabled) << "latent-scrub drill needs cluster.scrub.enabled";
  URSA_CHECK_EQ(plan.stripe_group, 1) << "drill maps blocks to chunks linearly";
  ChaosReport report;
  report.seed = plan.seed;
  report.sweep_period_us = ToUsec(plan.cluster.scrub.sweep_interval);

  sim::Simulator sim;
  Rng transport_rng(plan.seed ^ kTransportSalt);
  cluster::Cluster cluster(&sim, plan.cluster);
  cluster.transport().SetChaosRng(&transport_rng);

  Result<cluster::DiskId> disk_id =
      cluster.master().CreateDisk("scrub-drill", plan.disk_size, plan.replication,
                                  plan.stripe_group);
  URSA_CHECK(disk_id.ok());
  client::VirtualDiskClientOptions options;
  options.request_timeout = plan.request_timeout;
  cluster::Machine* host = cluster.AddClientMachine();
  client::VirtualDisk disk(&cluster, host, /*client_id=*/1, options);
  URSA_CHECK(disk.Open(*disk_id).ok());

  ChaosEngine engine(&sim, &cluster, plan);
  engine.AddClientNode(host->node());
  // No scheduled fault plan: the only injection is latent at-rest corruption.

  const int blocks = std::max(2, plan.blocks);
  uint64_t stride = plan.disk_size / static_cast<uint64_t>(blocks);
  stride -= stride % kBlock;
  URSA_CHECK_GE(stride, kBlock);
  std::vector<BlockHistory> histories(blocks);

  // ---- Phase 1: materialize every block with real bytes, so each covered
  // sector lands in the replicas' checksum ledgers. ----
  std::vector<std::vector<uint8_t>> expected(blocks);
  int writes_pending = blocks;
  for (int b = 0; b < blocks; ++b) {
    expected[b].assign(kBlock, static_cast<uint8_t>(0xA0 + b));
    uint32_t seq = histories[b].OnWriteInvoke(sim.Now());
    std::memcpy(expected[b].data(), &seq, sizeof(seq));
    disk.Write(static_cast<uint64_t>(b) * stride, kBlock,
               Buffer::CopyOf(expected[b].data(), kBlock),
               [&, b, seq](const Status& s) {
                 --writes_pending;
                 if (s.ok()) {
                   histories[b].OnWriteCommit(seq, sim.Now());
                   ++report.committed_writes;
                 } else {
                   report.violations.push_back("seed write of block " + std::to_string(b) +
                                               " failed: " + s.ToString());
                 }
               });
    sim.RunUntil(sim.Now() + msec(5));
  }
  for (int round = 0; round < 100 && writes_pending > 0; ++round) {
    sim.RunUntil(sim.Now() + msec(10));
  }
  URSA_CHECK_EQ(writes_pending, 0);

  // ---- Phase 2: wait for journal replay to drain, so the data is at rest on
  // the backup stores (a flip under a journal-mapped range would be dead). ----
  auto replay_drained = [&]() {
    for (const journal::JournalManager* jm : cluster.journal_managers()) {
      if (!jm->ReplayDrained()) {
        return false;
      }
    }
    return true;
  };
  for (int round = 0; round < 500 && !replay_drained(); ++round) {
    sim.RunUntil(sim.Now() + msec(10));
  }
  if (!replay_drained()) {
    report.violations.push_back("journal replay never drained before injection");
  }

  // ---- Phase 3: let the sweep in progress finish (it may have read blocks
  // before they were written), then corrupt cold blocks. ----
  scrub::ScrubCoordinator* coord = cluster.scrub_coordinator();
  URSA_CHECK(coord != nullptr);
  const Nanos sweep = plan.cluster.scrub.sweep_interval;
  uint64_t settled = coord->sweeps_completed();
  Nanos deadline = sim.Now() + 4 * sweep;
  while (coord->sweeps_completed() < settled + 1 && sim.Now() < deadline) {
    sim.RunUntil(sim.Now() + msec(5));
  }

  const cluster::DiskMeta* meta = *cluster.master().GetDisk(*disk_id);
  const int cold_begin = blocks / 2;  // hot traffic stays below this index
  Rng target_rng(plan.seed ^ 0x5C2BF11Bull);
  int flips_wanted = std::min(plan.latent_flips, blocks - cold_begin);
  for (int i = 0; i < flips_wanted; ++i) {
    int block = cold_begin + i;
    uint64_t disk_off =
        static_cast<uint64_t>(block) * stride + target_rng.Uniform(kBlock);
    size_t chunk_idx = static_cast<size_t>(disk_off / meta->chunk_size);
    URSA_CHECK_LT(chunk_idx, meta->chunks.size());
    if (!engine.InjectLatentFlip(meta->chunks[chunk_idx].chunk, disk_off % meta->chunk_size)) {
      report.violations.push_back("latent flip " + std::to_string(i) +
                                  " found no qualifying replica");
    }
  }
  report.latent_flips = engine.latent_flips_landed();
  sim.RunUntil(sim.Now() + msec(2));  // let the flip RMWs land on media
  const Nanos inject_time = sim.Now();
  const uint64_t epoch_inject = coord->sweeps_completed();

  // ---- Phase 4: hot read-only traffic on the lower blocks while the
  // scrubber sweeps. Detection must complete within the first full
  // post-injection sweep (epoch_inject + 2: the sweep running at injection
  // time may already have passed the damaged replicas). ----
  Rng workload_rng(plan.seed ^ kWorkloadSalt);
  auto issue_hot_read = [&]() {
    int block = static_cast<int>(workload_rng.Uniform(static_cast<uint64_t>(cold_begin)));
    auto buf = std::make_shared<std::vector<uint8_t>>(kBlock, 0);
    Nanos invoke = sim.Now();
    disk.Read(static_cast<uint64_t>(block) * stride, kBlock, buf->data(),
              [&, block, invoke, buf](const Status& s) {
                if (!s.ok()) {
                  ++report.failed_ops;
                  return;
                }
                uint32_t seq = 0;
                std::memcpy(&seq, buf->data(), sizeof(seq));
                std::string err = histories[block].CheckRead(seq, invoke, sim.Now());
                if (!err.empty()) {
                  report.violations.push_back("block " + std::to_string(block) + ": " + err);
                }
                ++report.checked_reads;
              });
  };
  Nanos step = std::max<Nanos>(msec(1), sweep / 64);
  Nanos hot_deadline = inject_time + 6 * sweep;
  Nanos detected_at = -1;
  while (sim.Now() < hot_deadline) {
    issue_hot_read();
    sim.RunUntil(sim.Now() + step);
    if (detected_at < 0 && cluster.scrub_mismatches_reported() >= report.latent_flips &&
        report.latent_flips > 0) {
      detected_at = sim.Now();
    }
    if (coord->sweeps_completed() >= epoch_inject + 2 && detected_at >= 0) {
      break;
    }
  }
  report.scrub_detected = cluster.scrub_mismatches_reported();
  if (detected_at < 0) {
    report.violations.push_back(
        "latent corruption not fully detected: " + std::to_string(report.scrub_detected) +
        " of " + std::to_string(report.latent_flips) + " flips found after " +
        std::to_string(static_cast<uint64_t>(ToUsec(sim.Now() - inject_time))) + "us");
  } else {
    report.scrub_mttd_us = ToUsec(detected_at - inject_time);
    // The bound: everything found before the first full post-injection sweep
    // completed — i.e. within one sweep period of that sweep's start.
    if (coord->sweeps_completed() > epoch_inject + 2) {
      report.violations.push_back("detection straggled past the first full sweep");
    }
  }

  // ---- Phase 5: repairs must land and lift every quarantine. ----
  auto quarantines = [&]() {
    size_t total = 0;
    for (size_t s = 0; s < cluster.num_servers(); ++s) {
      total += cluster.server(static_cast<cluster::ServerId>(s))->scrub_quarantine_size();
    }
    return total;
  };
  for (int round = 0; round < plan.drain_rounds; ++round) {
    if (cluster.scrub_repairs_completed() >= report.scrub_detected && quarantines() == 0) {
      break;
    }
    sim.RunUntil(sim.Now() + plan.drain_step);
  }
  report.scrub_repaired = cluster.scrub_repairs_completed();
  if (report.scrub_repaired < report.scrub_detected) {
    report.violations.push_back("repairs incomplete: " + std::to_string(report.scrub_repaired) +
                                " of " + std::to_string(report.scrub_detected) + " detections");
  }
  if (quarantines() > 0) {
    report.violations.push_back("scrub quarantines still armed after repair: " +
                                std::to_string(quarantines()));
  }

  // ---- Final read-back of EVERY block (cold ones included): repaired data
  // must be byte-identical to what was written, and no read may surface
  // kCorruption. ----
  for (int block = 0; block < blocks; ++block) {
    auto buf = std::make_shared<std::vector<uint8_t>>(kBlock, 0);
    auto done = std::make_shared<bool>(false);
    disk.Read(static_cast<uint64_t>(block) * stride, kBlock, buf->data(),
              [&, block, buf, done](const Status& s) {
                *done = true;
                if (!s.ok()) {
                  report.violations.push_back("final read of block " + std::to_string(block) +
                                              " failed: " + s.ToString());
                  return;
                }
                if (*buf != expected[block]) {
                  report.violations.push_back("final read of block " + std::to_string(block) +
                                              " returned bytes differing from what was written");
                }
                ++report.checked_reads;
              });
    sim.RunUntil(sim.Now() + sec(2));
    if (!*done) {
      report.violations.push_back("final read of block " + std::to_string(block) + " hung");
    }
  }

  report.client_integrity_errors = disk.stats().integrity_errors;
  if (report.client_integrity_errors > 0) {
    report.violations.push_back("client observed " +
                                std::to_string(report.client_integrity_errors) +
                                " kCorruption error(s): latent damage leaked to a reader");
  }
  report.fault_trace = engine.trace();
  report.ok = report.violations.empty() && report.latent_flips > 0 && report.checked_reads > 0;
  if (report.latent_flips == 0) {
    report.violations.push_back("no latent flips landed: drill exercised nothing");
  }
  return report;
}

ChaosReport RunTierDrill(const ChaosPlan& plan) {
  URSA_CHECK(plan.cluster.tier.enabled) << "tier drill needs cluster.tier.enabled";
  URSA_CHECK_EQ(plan.stripe_group, 1) << "drill maps blocks to chunks linearly";
  ChaosReport report;
  report.seed = plan.seed;

  sim::Simulator sim;
  Rng transport_rng(plan.seed ^ kTransportSalt);
  cluster::Cluster cluster(&sim, plan.cluster);
  cluster.transport().SetChaosRng(&transport_rng);

  Result<cluster::DiskId> disk_id = cluster.master().CreateDisk(
      "tier-drill", plan.disk_size, plan.replication, plan.stripe_group);
  URSA_CHECK(disk_id.ok());
  client::VirtualDiskClientOptions options;
  options.request_timeout = plan.request_timeout;
  cluster::Machine* host = cluster.AddClientMachine();
  client::VirtualDisk disk(&cluster, host, /*client_id=*/1, options);
  URSA_CHECK(disk.Open(*disk_id).ok());

  const int blocks = std::max(2, plan.blocks);
  uint64_t stride = plan.disk_size / static_cast<uint64_t>(blocks);
  stride -= stride % kBlock;
  URSA_CHECK_GE(stride, kBlock);

  // ---- Phase 1: materialize every block and let journal replay put the
  // data at rest (demotion refuses chunks with journal backlog). ----
  std::vector<std::vector<uint8_t>> expected(blocks);
  int writes_pending = blocks;
  for (int b = 0; b < blocks; ++b) {
    expected[b].assign(kBlock, static_cast<uint8_t>(0x3B + 7 * b));
    disk.Write(static_cast<uint64_t>(b) * stride, kBlock,
               Buffer::CopyOf(expected[b].data(), kBlock),
               [&, b](const Status& s) {
                 --writes_pending;
                 if (s.ok()) {
                   ++report.committed_writes;
                 } else {
                   report.violations.push_back("seed write of block " + std::to_string(b) +
                                               " failed: " + s.ToString());
                 }
               });
    sim.RunUntil(sim.Now() + msec(2));
  }
  for (int round = 0; round < 200 && writes_pending > 0; ++round) {
    sim.RunUntil(sim.Now() + msec(10));
  }
  URSA_CHECK_EQ(writes_pending, 0);
  auto replay_drained = [&]() {
    for (const journal::JournalManager* jm : cluster.journal_managers()) {
      if (!jm->ReplayDrained()) {
        return false;
      }
    }
    return true;
  };
  for (int round = 0; round < 500 && !replay_drained(); ++round) {
    sim.RunUntil(sim.Now() + msec(10));
  }
  if (!replay_drained()) {
    report.violations.push_back("journal replay never drained before the demote wave");
  }

  // ---- Phase 2: go idle and let the migrator demote every chunk. The
  // capacity factor must drop from R toward (k+m)/k. ----
  const cluster::DiskMeta* meta = *cluster.master().GetDisk(*disk_id);
  const double logical = static_cast<double>(cluster.master().LogicalBytes());
  URSA_CHECK_GT(logical, 0);
  report.capacity_factor_before = static_cast<double>(cluster.master().PhysicalBytes()) / logical;
  auto all_ec = [&]() {
    for (const cluster::ChunkLayout& l : meta->chunks) {
      if (l.tier != cluster::ChunkTier::kEc) {
        return false;
      }
    }
    return true;
  };
  const Nanos wave_start = sim.Now();
  Nanos demote_deadline =
      sim.Now() + plan.cluster.tier.cold_age + 100 * plan.cluster.tier.scan_interval;
  while (!all_ec() && sim.Now() < demote_deadline) {
    sim.RunUntil(sim.Now() + msec(20));
  }
  report.tier_demotions = cluster.master().tier_stats().demotions;
  report.capacity_factor_after = static_cast<double>(cluster.master().PhysicalBytes()) / logical;
  if (!all_ec()) {
    report.violations.push_back(
        "demote wave incomplete: migrator left chunks replicated after " +
        std::to_string(static_cast<uint64_t>(ToUsec(sim.Now() - wave_start))) + "us idle");
    return report;  // the remaining phases all assume EC'd chunks
  } else {
    double ec_factor = static_cast<double>(plan.cluster.tier.ec_k + plan.cluster.tier.ec_m) /
                       static_cast<double>(plan.cluster.tier.ec_k);
    if (report.capacity_factor_after > ec_factor + 0.01) {
      report.violations.push_back("capacity factor after the wave is " +
                                  std::to_string(report.capacity_factor_after) +
                                  ", expected (k+m)/k = " + std::to_string(ec_factor));
    }
  }

  // ---- Phase 3: crash one shard server; reads of the chunk must stay
  // byte-correct via client-side degraded reconstruction. ----
  URSA_CHECK_GE(meta->chunks.size(), 2u);
  const cluster::ChunkId chunk0 = meta->chunks[0].chunk;
  URSA_CHECK_GE(meta->chunks[0].ec_shards.size(), 2u);
  const cluster::ServerId lost = meta->chunks[0].ec_shards[1].server;
  cluster.CrashServer(lost);
  auto read_block = [&](int b, const char* what) {
    auto buf = std::make_shared<std::vector<uint8_t>>(kBlock, 0);
    auto done = std::make_shared<bool>(false);
    disk.Read(static_cast<uint64_t>(b) * stride, kBlock, buf->data(),
              [&, b, buf, done, what](const Status& s) {
                *done = true;
                if (!s.ok()) {
                  report.violations.push_back(std::string(what) + " read of block " +
                                              std::to_string(b) + " failed: " + s.ToString());
                  return;
                }
                if (*buf != expected[b]) {
                  report.violations.push_back(std::string(what) + " read of block " +
                                              std::to_string(b) + " returned wrong bytes");
                }
                ++report.checked_reads;
              });
    for (int round = 0; round < 400 && !*done; ++round) {
      sim.RunUntil(sim.Now() + msec(10));
    }
    if (!*done) {
      report.violations.push_back(std::string(what) + " read of block " + std::to_string(b) +
                                  " hung");
    }
  };
  const int chunk0_blocks = static_cast<int>(meta->chunk_size / stride);
  for (int b = 0; b < std::max(1, chunk0_blocks); ++b) {
    read_block(b, "degraded");
  }
  report.tier_degraded_reads = disk.stats().ec_degraded_reads;
  if (report.tier_degraded_reads == 0) {
    report.violations.push_back("no degraded reads: the crashed shard was never reconstructed");
  }

  // ---- Phase 4: the failure report from the degraded read must drive a
  // stripe rebuild onto a fresh server, without the drill asking for it. ----
  auto chunk0_healthy = [&]() {
    for (const cluster::EcShardRef& sh : meta->chunks[0].ec_shards) {
      if (cluster.server(sh.server)->crashed()) {
        return false;
      }
    }
    return meta->chunks[0].tier == cluster::ChunkTier::kEc;
  };
  Nanos repair_deadline = sim.Now() + sec(15);
  while ((cluster.master().tier_stats().shard_repairs < 1 || !chunk0_healthy()) &&
         sim.Now() < repair_deadline) {
    sim.RunUntil(sim.Now() + msec(20));
  }
  report.tier_shard_repairs = cluster.master().tier_stats().shard_repairs;
  if (report.tier_shard_repairs < 1 || !chunk0_healthy()) {
    report.violations.push_back("lost shard of chunk " + std::to_string(chunk0) +
                                " was never rebuilt onto a live server");
  } else {
    // With the crashed server still down, the repaired stripe serves every
    // byte without further reconstruction.
    uint64_t degraded_before = disk.stats().ec_degraded_reads;
    for (int b = 0; b < std::max(1, chunk0_blocks); ++b) {
      read_block(b, "post-repair");
    }
    if (disk.stats().ec_degraded_reads != degraded_before) {
      report.violations.push_back("reads still degraded after the shard rebuild");
    }
  }
  cluster.RestoreServer(lost);

  // ---- Phase 5: a client write into a cold chunk. The ack arrives once
  // the bytes are quorum-durable on the speculative replicas (the chunk is
  // still mid-promotion at that instant); the chunk must then converge to
  // clean replication with the write intact. ----
  auto wait_converged = [&](size_t chunk_index, const char* what) {
    Nanos deadline = sim.Now() + sec(15);
    auto settled = [&]() {
      return meta->chunks[chunk_index].tier == cluster::ChunkTier::kReplicated &&
             !meta->chunks[chunk_index].speculating();
    };
    while (!settled() && sim.Now() < deadline) {
      sim.RunUntil(sim.Now() + msec(10));
    }
    if (!settled()) {
      report.violations.push_back(std::string(what) +
                                  ": chunk never converged to clean replication");
    }
  };
  // Writes a whole block into `block` and requires the ack; returns true if
  // acked. The caller injects its fault while the write is in flight.
  auto cold_write = [&](int block, uint8_t fill, const char* what,
                        const std::function<void()>& mid_flight) {
    expected[block].assign(kBlock, fill);
    auto wdone = std::make_shared<bool>(false);
    disk.Write(static_cast<uint64_t>(block) * stride, kBlock,
               Buffer::CopyOf(expected[block].data(), kBlock),
               [&, wdone, what](const Status& s) {
                 *wdone = true;
                 if (s.ok()) {
                   ++report.committed_writes;
                 } else {
                   report.violations.push_back(std::string(what) +
                                               " write failed: " + s.ToString());
                 }
               });
    if (mid_flight) {
      mid_flight();
    }
    for (int round = 0; round < 4000 && !*wdone; ++round) {
      sim.RunUntil(sim.Now() + msec(10));
    }
    if (!*wdone) {
      report.violations.push_back(std::string(what) + " write hung");
    }
    return *wdone;
  };
  const int promote_block = chunk0_blocks < blocks ? chunk0_blocks : blocks - 1;
  const size_t promote_chunk = chunk0_blocks < blocks ? 1 : 0;
  if (meta->chunks[promote_chunk].tier != cluster::ChunkTier::kEc) {
    report.violations.push_back("promote target chunk left EC before the write");
  }
  if (cold_write(promote_block, 0xE7, "cold-chunk", nullptr)) {
    wait_converged(promote_chunk, "cold-chunk write");
  }
  if (cluster.master().tier_stats().write_promotions < 1) {
    report.violations.push_back("the acked write never triggered a promotion");
  }

  // ---- Phase 6: crash a speculative replica TARGET mid-promotion. The ack
  // and the commit must ride the surviving quorum of spec replicas. ----
  // Re-demote the chunk so the leg starts from a cold stripe.
  auto force_ec = [&](size_t chunk_index, const char* what) {
    if (meta->chunks[chunk_index].tier == cluster::ChunkTier::kEc) {
      return true;
    }
    // Demotion refuses chunks with journal backlog: drain the previous
    // leg's write out of the backup journals first.
    for (int round = 0; round < 500 && !replay_drained(); ++round) {
      sim.RunUntil(sim.Now() + msec(10));
    }
    auto ddone = std::make_shared<bool>(false);
    auto dstatus = std::make_shared<Status>(OkStatus());
    cluster.master().DemoteChunkToEc(meta->chunks[chunk_index].chunk, plan.cluster.tier.ec_k,
                                     plan.cluster.tier.ec_m, [ddone, dstatus](const Status& s) {
                                       *ddone = true;
                                       *dstatus = s;
                                     });
    Nanos deadline = sim.Now() + sec(15);
    while (!*ddone && sim.Now() < deadline) {
      sim.RunUntil(sim.Now() + msec(10));
    }
    if (!*ddone || !dstatus->ok()) {
      report.violations.push_back(std::string(what) + ": could not re-demote the target chunk" +
                                  (*ddone ? ": " + dstatus->ToString() : " (hung)"));
      return false;
    }
    return true;
  };
  // Steps the sim in fine increments until the chunk is observed
  // mid-speculation (spec replicas installed, shards not yet retired).
  auto catch_speculating = [&](size_t chunk_index) {
    for (int round = 0; round < 20000 && !meta->chunks[chunk_index].speculating(); ++round) {
      sim.RunUntil(sim.Now() + usec(50));
    }
    return meta->chunks[chunk_index].speculating();
  };
  if (force_ec(promote_chunk, "spec-target-crash leg")) {
    cluster::ServerId spec_victim = 0;
    bool caught = false;
    bool acked = cold_write(promote_block, 0xE8, "spec-target-crash", [&]() {
      if ((caught = catch_speculating(promote_chunk))) {
        spec_victim = meta->chunks[promote_chunk].spec_replicas[0].server;
        cluster.CrashServer(spec_victim);
      }
    });
    if (!caught) {
      report.violations.push_back("spec-target-crash leg never observed a speculating chunk");
    }
    if (acked && caught) {
      wait_converged(promote_chunk, "spec-target-crash write");
      cluster.RestoreServer(spec_victim);
    }
  }

  // ---- Phase 7: crash the MASTER mid-speculation, modeled as checkpoint at
  // the crash instant + restore. The acked bytes live in spec_replicas /
  // spec_extents (checkpointed metadata); the restored master must re-arm
  // the back-fill and retire the shards without help. ----
  const int master_block = 0;
  const size_t master_chunk = 0;
  if (force_ec(master_chunk, "master-crash leg")) {
    bool caught = false;
    bool acked = cold_write(master_block, 0xE9, "master-crash", [&]() {
      if ((caught = catch_speculating(master_chunk))) {
        cluster::Master::Checkpoint cp = cluster.master().TakeCheckpoint();
        cluster.master().Restore(cp);
      }
    });
    if (!caught) {
      report.violations.push_back("master-crash leg never observed a speculating chunk");
    }
    if (acked && caught) {
      wait_converged(master_chunk, "master-crash write");
      if (cluster.master().tier_stats().spec_resumes < 1) {
        report.violations.push_back("restored master never resumed the speculative back-fill");
      }
    }
  }
  report.tier_write_promotions = cluster.master().tier_stats().write_promotions;
  report.tier_promotions = cluster.master().tier_stats().promotions;
  report.tier_spec_promotions = cluster.master().tier_stats().spec_promotions;
  report.tier_spec_resumes = cluster.master().tier_stats().spec_resumes;
  report.tier_spec_retries = cluster.master().tier_stats().spec_backfill_retries;

  // ---- Final read-back of every block against the expected image. ----
  for (int b = 0; b < blocks; ++b) {
    read_block(b, "final");
  }
  if (disk.stats().integrity_errors > 0) {
    report.violations.push_back("client observed " +
                                std::to_string(disk.stats().integrity_errors) +
                                " kCorruption error(s) during the drill");
  }
  report.ok = report.violations.empty() && report.tier_demotions >= meta->chunks.size() &&
              report.checked_reads > 0;
  if (report.tier_demotions < meta->chunks.size()) {
    report.violations.push_back("fewer demotions than chunks: the wave exercised nothing");
  }
  return report;
}

}  // namespace ursa::chaos
