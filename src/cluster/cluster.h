// Cluster builder: constructs machines, carves SSDs into chunk + journal
// regions, wires chunk servers and journal managers per storage mode, and
// instantiates the master.
//
// Hybrid mode (§3.2): one primary-capable server per SSD (chunk region =
// capacity minus the 1/10 journal quota); one backup server per HDD whose
// JournalManager gets, in preference order, a journal region on a co-located
// SSD, an expansion region on the next SSD, and an HDD journal region
// reserved at the front of its own HDD.
// SSD-only: one server per SSD, in both the primary and backup pools, no
// journals. HDD-only: likewise on HDDs.
#ifndef URSA_CLUSTER_CLUSTER_H_
#define URSA_CLUSTER_CLUSTER_H_

#include <memory>
#include <vector>

#include "src/cluster/chunk_server.h"
#include "src/cluster/machine.h"
#include "src/cluster/master.h"
#include "src/cluster/types.h"
#include "src/obs/health_monitor.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/qos/io_scheduler.h"
#include "src/qos/slo_monitor.h"
#include "src/scrub/checksum_store.h"
#include "src/scrub/scrub_config.h"
#include "src/scrub/scrub_coordinator.h"
#include "src/scrub/scrubber.h"
#include "src/tier/heat_tracker.h"
#include "src/tier/tier_config.h"
#include "src/tier/tier_migrator.h"

namespace ursa::cluster {

struct ClusterConfig {
  int machines = 3;
  MachineConfig machine;
  StorageMode mode = StorageMode::kHybrid;
  ChunkServerConfig server;
  journal::JournalManagerOptions journal;
  double journal_quota_fraction = 0.1;  // of SSD capacity (§3.2)
  uint64_t hdd_journal_bytes = 4 * kGiB;
  uint64_t chunk_size = storage::kDefaultChunkSize;
  bool enable_expansion_journal = true;
  // Ablation knob: place the primary journal on the backup HDD itself
  // instead of a co-located SSD (§3.2 argues SSD placement; this measures
  // what it buys).
  bool journal_primary_on_ssd = true;
  // Per-device QoS scheduling (src/qos). When `qos.enabled`, every SSD and
  // HDD gets an IoScheduler gate arbitrating service classes.
  qos::QosConfig qos;
  // Device health scoring (src/obs/health_monitor.h). When `health.enabled`,
  // every device feeds service latencies into a HealthMonitor whose degraded
  // verdicts demote the hosting server's replicas at the master. The monitor
  // self-schedules scoring ticks (keeps the event queue non-empty — pair
  // with RunUntil-style loops, like StatsSampler).
  obs::HealthConfig health;
  // SLO-driven bulk-rate control (src/qos/slo_monitor.h). Requires
  // `qos.enabled` (the controller acts through the per-device schedulers).
  // Self-schedules like the health monitor.
  qos::SloConfig slo;
  // Background scrub (src/scrub, DESIGN.md §11). When `scrub.enabled`, every
  // chunk server keeps a per-sector checksum ledger of accepted writes, and a
  // master-side coordinator sweeps every replica once per `sweep_interval`
  // under ServiceClass::kScrub. Self-schedules like the health monitor.
  scrub::ScrubConfig scrub;
  // Tiered placement (src/tier, DESIGN.md §13). When `tier.enabled`, chunk
  // servers feed per-chunk heat into a HeatTracker and a TierMigrator
  // periodically demotes cold chunks to k+m EC stripes (promoting them back
  // when heat returns; writes promote synchronously through the master).
  tier::TierConfig tier;
};

class Cluster {
 public:
  Cluster(sim::Simulator* sim, const ClusterConfig& config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Simulator* simulator() { return sim_; }
  net::Transport& transport() { return *transport_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  obs::Tracer& tracer() { return tracer_; }
  // Null unless the matching config block is enabled.
  obs::HealthMonitor* health_monitor() { return health_.get(); }
  qos::SloMonitor* slo_monitor() { return slo_.get(); }
  scrub::ScrubCoordinator* scrub_coordinator() { return scrub_coordinator_.get(); }
  tier::HeatTracker* heat_tracker() { return heat_.get(); }
  tier::TierMigrator* tier_migrator() { return tier_migrator_.get(); }
  // Per-server scrub executor (null index range when scrub is disabled).
  scrub::Scrubber* scrubber(ServerId id) {
    return id < scrubbers_.size() ? scrubbers_[id].get() : nullptr;
  }
  // HealthMonitor score of the device behind `server` (0 when unscored or
  // health is disabled).
  double HealthScoreOfServer(ServerId server) const;
  // Scrub-detected media corruptions reported (and repairs completed).
  uint64_t scrub_mismatches_reported() const { return scrub_mismatches_reported_; }
  uint64_t scrub_repairs_completed() const { return scrub_repairs_completed_; }
  // Server hosting the device behind a health DeviceId.
  ServerId ServerOfHealthDevice(obs::HealthMonitor::DeviceId d) const {
    return health_device_server_[d];
  }
  Master& master() { return *master_; }
  Machine& machine(size_t i) { return *machines_[i]; }
  size_t num_machines() const { return machines_.size(); }
  ChunkServer* server(ServerId id) { return servers_[id].get(); }
  size_t num_servers() const { return servers_.size(); }
  const ClusterConfig& config() const { return config_; }

  // A diskless machine for clients (VMM hosts). Returned pointer is owned by
  // the cluster.
  Machine* AddClientMachine(int cores = 16);

  // Crash / restore a server (fault injection used by tests and Fig. 11/12).
  void CrashServer(ServerId id);
  void RestoreServer(ServerId id);

  // Aggregate CPU busy time across all cluster machines (Fig. 7 accounting).
  Nanos TotalCpuBusyTime() const;

  // Journal managers in creation order (backup servers only; empty in
  // SSD-only / HDD-only modes).
  const std::vector<journal::JournalManager*>& journal_managers() const {
    return journal_manager_ptrs_;
  }

 private:
  void BuildHybridMachine(Machine* machine);
  void BuildFlatMachine(Machine* machine, bool on_ssd);

  ChunkServer* MakeServer(Machine* machine, storage::ChunkStore* store,
                          journal::JournalManager* jm, bool on_ssd);

  // Registers `device` with the health monitor (no-op when disabled) and
  // installs the latency observer feeding its digests. `server` is the chunk
  // server whose replicas a degraded verdict demotes.
  void RegisterHealthDevice(storage::BlockDevice* device, std::string name, std::string group,
                            ServerId server);

  // Re-replicates a corrupt range of `chunk` on `server` through the master,
  // retrying every 100 ms until the repair lands; `repaired` runs then. A
  // NotFound ends the retries without `repaired`.
  void RepairCorruptRangeUntilDone(ServerId server, ChunkId chunk, uint64_t offset,
                                   uint64_t length, std::function<void()> repaired);

  sim::Simulator* sim_;
  ClusterConfig config_;
  // Declared before every component so the registry's callback closures
  // (which reference components) are unregistered-by-destruction last.
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  // Before machines_ (destroyed after them): devices hold observer closures
  // referencing the monitor only while the sim runs, but keeping the monitor
  // alive past the devices makes the ordering trivially safe.
  std::unique_ptr<obs::HealthMonitor> health_;
  std::vector<ServerId> health_device_server_;  // health DeviceId -> server
  std::vector<int64_t> server_health_device_;   // server -> DeviceId (-1 = none)
  std::unique_ptr<net::Transport> transport_;
  std::vector<std::unique_ptr<Machine>> machines_;
  // After machines_: schedulers reference machine-owned devices, so they are
  // destroyed first (reverse declaration order).
  std::vector<std::unique_ptr<qos::IoScheduler>> schedulers_;
  std::vector<std::unique_ptr<Machine>> client_machines_;
  std::vector<std::unique_ptr<storage::ChunkStore>> stores_;
  std::vector<std::unique_ptr<journal::JournalManager>> journal_managers_;
  std::vector<journal::JournalManager*> journal_manager_ptrs_;
  std::vector<std::unique_ptr<ChunkServer>> servers_;
  std::vector<std::vector<ServerId>> primary_pool_;  // per machine
  std::vector<std::vector<ServerId>> backup_pool_;   // per machine
  std::unique_ptr<Master> master_;
  std::unique_ptr<qos::SloMonitor> slo_;  // references schedulers_; last
  // Scrub subsystem (built after master_; destroyed before it).
  std::vector<std::unique_ptr<scrub::ChecksumStore>> checksum_stores_;  // per server
  std::vector<std::unique_ptr<scrub::Scrubber>> scrubbers_;             // per server
  std::unique_ptr<scrub::ScrubCoordinator> scrub_coordinator_;
  uint64_t scrub_mismatches_reported_ = 0;
  uint64_t scrub_repairs_completed_ = 0;
  // Tiering (built after master_; destroyed before it — the migrator's
  // pending scan events reference the master only while the sim runs).
  std::unique_ptr<tier::HeatTracker> heat_;
  std::unique_ptr<tier::TierMigrator> tier_migrator_;
};

}  // namespace ursa::cluster

#endif  // URSA_CLUSTER_CLUSTER_H_
