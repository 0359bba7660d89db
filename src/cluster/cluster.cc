#include "src/cluster/cluster.h"

#include <utility>

#include "src/common/logging.h"

namespace ursa::cluster {

Cluster::Cluster(sim::Simulator* sim, const ClusterConfig& config)
    : sim_(sim), config_(config), tracer_(static_cast<uint32_t>(config.trace_sample_every)) {
  transport_ = std::make_unique<net::Transport>(sim);
  transport_->RegisterMetrics(&metrics_);

  if (config.health.enabled) {
    // Built before the machines so Build*Machine can register devices.
    health_ = std::make_unique<obs::HealthMonitor>(sim, config.health, &metrics_);
  }

  primary_pool_.resize(config.machines);
  backup_pool_.resize(config.machines);

  for (int m = 0; m < config.machines; ++m) {
    machines_.push_back(std::make_unique<Machine>(sim, transport_.get(),
                                                  static_cast<MachineId>(m), config.machine));
    Machine* machine = machines_.back().get();
    if (config.qos.enabled) {
      // One scheduler gate per device, attached before any server issues I/O.
      for (int i = 0; i < machine->num_ssds(); ++i) {
        schedulers_.push_back(std::make_unique<qos::IoScheduler>(
            sim, &machine->ssd(i), config.qos, config.qos.ssd_depth,
            machine->name() + "/ssd" + std::to_string(i), &metrics_));
      }
      for (int i = 0; i < machine->num_hdds(); ++i) {
        schedulers_.push_back(std::make_unique<qos::IoScheduler>(
            sim, &machine->hdd(i), config.qos, config.qos.hdd_depth,
            machine->name() + "/hdd" + std::to_string(i), &metrics_));
      }
    }
    switch (config.mode) {
      case StorageMode::kHybrid:
        BuildHybridMachine(machine);
        break;
      case StorageMode::kSsdOnly:
        BuildFlatMachine(machine, /*on_ssd=*/true);
        break;
      case StorageMode::kHddOnly:
        BuildFlatMachine(machine, /*on_ssd=*/false);
        break;
    }
  }

  std::vector<ChunkServer*> server_ptrs;
  server_ptrs.reserve(servers_.size());
  for (auto& s : servers_) {
    server_ptrs.push_back(s.get());
  }
  master_ = std::make_unique<Master>(sim, transport_.get(),
                                     Placement(primary_pool_, backup_pool_), server_ptrs);
  master_->set_chunk_size(config.chunk_size);
  master_->RegisterMetrics(&metrics_);

  if (health_ != nullptr) {
    // Continuous health weighting (DESIGN.md §11): the master breaks replica-
    // rank ties with the live numeric score, so a *suspect* device sheds read
    // preference before the binary demotion flag ever flips.
    master_->SetHealthScoreProvider(
        [this](ServerId sid) { return HealthScoreOfServer(sid); });
    // Close the detection loop: degraded devices demote their server's
    // replicas at the master; recovering to healthy restores them. Every
    // transition — including healthy->suspect — also re-weights layouts under
    // the current scores (transition boundaries are exactly when scores have
    // moved enough to matter; re-sorting every scoring pass would churn
    // views).
    health_->SetTransitionHandler(
        [this](obs::HealthMonitor::DeviceId d, obs::HealthState from, obs::HealthState to) {
          ServerId sid = health_device_server_[d];
          if (to == obs::HealthState::kDegraded) {
            master_->SetServerDemoted(sid, true);
          } else if (from == obs::HealthState::kDegraded &&
                     to == obs::HealthState::kHealthy) {
            master_->SetServerDemoted(sid, false);
          }
          master_->OnHealthScoresChanged();
        });
    health_->Start();
  }

  if (config.admission.enabled) {
    // Cluster-wide per-source transfer pacing, shared by every transfer kind
    // the master issues (DESIGN.md §11).
    admission_ = std::make_unique<scrub::RecoveryAdmission>(sim, config.admission);
    master_->SetAdmission(admission_.get());
    scrub::RecoveryAdmission* adm = admission_.get();
    metrics_.RegisterCallbackCounter("admission.grants", {},
                                     [adm] { return static_cast<double>(adm->grants()); });
    metrics_.RegisterCallbackCounter("admission.waits", {},
                                     [adm] { return static_cast<double>(adm->waits()); });
    metrics_.RegisterCallbackCounter(
        "admission.scrub_yields", {},
        [adm] { return static_cast<double>(adm->scrub_yields()); });
    metrics_.RegisterCallbackGauge(
        "admission.queued", {}, [adm] { return static_cast<double>(adm->QueuedTotal()); });
    metrics_.RegisterCallbackGauge(
        "admission.peak_in_flight", {},
        [adm] { return static_cast<double>(adm->peak_in_flight()); });
  }

  if (config.slo.enabled && config.qos.enabled) {
    std::vector<qos::IoScheduler*> scheduler_ptrs;
    scheduler_ptrs.reserve(schedulers_.size());
    for (auto& s : schedulers_) {
      scheduler_ptrs.push_back(s.get());
    }
    slo_ = std::make_unique<qos::SloMonitor>(sim, config.slo, std::move(scheduler_ptrs),
                                             &metrics_);
    slo_->Start();
  }

  // Servers resolve each other through the registry (replication fan-out).
  for (auto& s : servers_) {
    s->set_resolver([this](ServerId id) -> ChunkServer* {
      if (id >= servers_.size()) {
        return nullptr;
      }
      ChunkServer* server = servers_[id].get();
      return server->crashed() ? nullptr : server;
    });
  }

  // CRC-detected journal corruption heals through the master: quarantine the
  // range (the manager already did), re-replicate it from a healthy replica,
  // then lift the quarantine. Wired here because the master is built last.
  for (auto& s : servers_) {
    journal::JournalManager* jm = s->journal_manager();
    if (jm == nullptr) {
      continue;
    }
    ServerId sid = s->id();
    jm->SetCorruptionHandler([this, sid](storage::ChunkId chunk, uint64_t offset,
                                         uint64_t length, std::function<void()> healed) {
      // Retry until a healthy source exists: during a partition or multi-
      // fault window every peer may be unreachable, and giving up would
      // strand the quarantine (reads would fail kCorruption forever). A
      // NotFound is terminal, not transient: replay scans can quarantine a
      // record whose decoded chunk id is itself garbage (corrupt header), and
      // no amount of retrying repairs a chunk the master never allocated.
      // The closure refers to itself weakly; the repair in flight and the
      // pending retry hold it (a strong self-capture would leak it).
      auto attempt = std::make_shared<std::function<void()>>();
      *attempt = [this, sid, chunk, offset, length, healed = std::move(healed),
                  weak = std::weak_ptr<std::function<void()>>(attempt)]() {
        master_->RepairCorruptRange(chunk, sid, offset, length,
                                    [this, healed, self = weak.lock()](Status s2) {
                                      if (s2.ok()) {
                                        healed();
                                      } else if (s2.code() != StatusCode::kNotFound) {
                                        sim_->After(msec(100), [self]() { (*self)(); });
                                      }
                                    });
      };
      (*attempt)();
    });
  }

  if (config.scrub.enabled) {
    // Per-server checksum ledgers + scrub executors, and the master-side
    // coordinator driving them (DESIGN.md §11).
    for (auto& s : servers_) {
      ChunkServer* server = s.get();
      checksum_stores_.push_back(std::make_unique<scrub::ChecksumStore>(config.chunk_size));
      server->SetChecksumStore(checksum_stores_.back().get());

      scrub::Scrubber::Hooks hooks;
      hooks.read = [this, server](storage::ChunkId chunk, uint64_t offset, uint64_t length,
                                  void* out, std::function<void(const Status&)> done) {
        if (server->crashed()) {
          // A crashed server drops requests silently; fail fast instead of
          // hanging the coordinator's in-flight slot.
          sim_->After(0, [done = std::move(done)] { done(Unavailable("server crashed")); });
          return;
        }
        server->HandleRecoveryRead(
            chunk, offset, length, out,
            [done = std::move(done)](const Status& s2, uint64_t) { done(s2); },
            qos::ServiceClass::kScrub);
      };
      hooks.verify = [server](storage::ChunkId chunk, uint64_t offset, uint64_t length,
                              const void* data) {
        return server->checksum_store()->Verify(chunk, offset, length, data);
      };
      hooks.generation = [server](storage::ChunkId chunk) {
        return server->checksum_store()->generation(chunk);
      };
      hooks.rearm = [server](storage::ChunkId chunk, uint64_t offset, uint64_t length,
                             const void* data, uint64_t expected_generation) {
        return server->checksum_store()->Rearm(chunk, offset, length, data,
                                               expected_generation);
      };
      hooks.report = [this, server](storage::ChunkId chunk, uint64_t offset, uint64_t length) {
        // A mismatch can be a benign race: a write landing during the
        // scrubber's bulk read leaves fresh checksums in the ledger but stale
        // bytes in the scrub buffer. Confirm with a targeted re-read of just
        // the flagged run before quarantining — at-rest damage reproduces, a
        // racing write verifies clean on the second look.
        if (server->crashed()) {
          return;  // next sweep re-checks after restore
        }
        auto buf = std::make_shared<std::vector<uint8_t>>(length);
        server->HandleRecoveryRead(
            chunk, offset, length, buf->data(),
            [this, server, chunk, offset, length, buf](const Status& s, uint64_t) {
              if (!s.ok()) {
                // Journal-CRC failures already quarantined + kicked repair on
                // their own path; anything else retries next sweep.
                return;
              }
              if (server->checksum_store()->Verify(chunk, offset, length, buf->data()).ok) {
                return;  // racing write, not corruption
              }
              // Scrub hit: quarantine first (no client ever reads the damaged
              // bytes), then re-replicate the range from a healthy peer — the
              // same pipeline a read-detected journal corruption takes. The
              // recovery write landing at this server lifts the quarantine.
              ++scrub_mismatches_reported_;
              server->AddScrubQuarantine(chunk, offset, length);
              ServerId sid = server->id();
              auto attempt = std::make_shared<std::function<void()>>();
              *attempt = [this, sid, chunk, offset, length,
                          weak = std::weak_ptr<std::function<void()>>(attempt)]() {
                master_->RepairCorruptRange(chunk, sid, offset, length,
                                            [this, self = weak.lock()](Status s2) {
                                              if (s2.ok()) {
                                                ++scrub_repairs_completed_;
                                              } else if (s2.code() != StatusCode::kNotFound) {
                                                sim_->After(msec(100), [self]() { (*self)(); });
                                              }
                                            });
              };
              (*attempt)();
            },
            qos::ServiceClass::kScrub);
      };
      scrubbers_.push_back(
          std::make_unique<scrub::Scrubber>(sim, config.scrub, std::move(hooks)));
    }

    metrics_.RegisterCallbackCounter("scrub.mismatches_reported", {}, [this] {
      return static_cast<double>(scrub_mismatches_reported_);
    });
    metrics_.RegisterCallbackCounter("scrub.repairs_completed", {}, [this] {
      return static_cast<double>(scrub_repairs_completed_);
    });
    metrics_.RegisterCallbackCounter("scrub.bytes_read", {}, [this] {
      uint64_t total = 0;
      for (const auto& sc : scrubbers_) {
        total += sc->bytes_read();
      }
      return static_cast<double>(total);
    });
    metrics_.RegisterCallbackCounter("scrub.read_errors", {}, [this] {
      uint64_t total = 0;
      for (const auto& sc : scrubbers_) {
        total += sc->read_errors();
      }
      return static_cast<double>(total);
    });
    metrics_.RegisterCallbackCounter("scrub.sectors_rearmed", {}, [this] {
      uint64_t total = 0;
      for (const auto& sc : scrubbers_) {
        total += sc->sectors_rearmed();
      }
      return static_cast<double>(total);
    });

    scrub::ScrubCoordinator::Hooks chooks;
    chooks.list_chunks = [this] {
      std::vector<scrub::ScrubCoordinator::ChunkInfo> out;
      for (const Master::ChunkPlacement& p : master_->ListChunks()) {
        scrub::ScrubCoordinator::ChunkInfo info;
        info.chunk = p.chunk;
        info.size = p.size;
        info.servers.assign(p.servers.begin(), p.servers.end());
        out.push_back(std::move(info));
      }
      return out;
    };
    chooks.health_score = [this](uint64_t sid) {
      return HealthScoreOfServer(static_cast<ServerId>(sid));
    };
    chooks.server_unavailable = [this](uint64_t sid) {
      ChunkServer* server = servers_[sid].get();
      return server->crashed() || server->draining();
    };
    chooks.scrub = [this](storage::ChunkId chunk, uint64_t sid, uint64_t size,
                          std::function<void(scrub::Scrubber::ChunkResult)> done) {
      scrubbers_[sid]->ScrubChunk(chunk, size, std::move(done));
    };
    scrub_coordinator_ = std::make_unique<scrub::ScrubCoordinator>(
        sim, config.scrub, std::move(chooks), &metrics_);
    scrub_coordinator_->Start();
  }

  if (config.tier.enabled) {
    // Tiered placement (DESIGN.md §13): chunk servers feed per-chunk heat;
    // the migrator scans it and drives demote/promote through the master.
    heat_ = std::make_unique<tier::HeatTracker>(sim, config.tier.heat_half_life);
    heat_->RegisterMetrics(&metrics_);
    for (auto& s : servers_) {
      s->SetHeatTracker(heat_.get());
    }
    master_->SetHeatTracker(heat_.get());

    tier::TierHooks thooks;
    thooks.list_chunks = [this] {
      std::vector<tier::TierChunkView> out;
      for (const Master::TierChunkInfo& info : master_->ListTierChunks()) {
        out.push_back(tier::TierChunkView{info.chunk, info.ec});
      }
      return out;
    };
    int ec_k = config.tier.ec_k;
    int ec_m = config.tier.ec_m;
    thooks.demote = [this, ec_k, ec_m](uint64_t chunk, std::function<void(bool)> done) {
      master_->DemoteChunkToEc(static_cast<ChunkId>(chunk), ec_k, ec_m,
                               [done = std::move(done)](Status s) { done(s.ok()); });
    };
    thooks.promote = [this](uint64_t chunk, std::function<void(bool)> done) {
      master_->PromoteChunk(static_cast<ChunkId>(chunk), /*write_triggered=*/false,
                            [done = std::move(done)](Status s) { done(s.ok()); });
    };
    master_->set_speculative_promote(config.tier.speculative_promote);
    tier_migrator_ =
        std::make_unique<tier::TierMigrator>(sim, config.tier, heat_.get(), std::move(thooks));
    tier_migrator_->RegisterMetrics(&metrics_);
    // Tier commits (and master restores) re-key the migrator's heat-indexed
    // candidate queues; heat touches re-key through the tracker's listener.
    master_->SetTierChangeListener([this](ChunkId chunk, bool ec) {
      if (tier_migrator_ != nullptr) {
        tier_migrator_->OnTierChanged(chunk, ec);
      }
    });
    tier_migrator_->Start();
  }

  for (journal::JournalManager* jm : journal_manager_ptrs_) {
    jm->StartReplay();
  }
}

Cluster::~Cluster() = default;

double Cluster::HealthScoreOfServer(ServerId server) const {
  if (health_ == nullptr || server >= server_health_device_.size()) {
    return 0.0;
  }
  int64_t device = server_health_device_[server];
  if (device < 0) {
    return 0.0;
  }
  return health_->score(static_cast<obs::HealthMonitor::DeviceId>(device));
}

void Cluster::RegisterHealthDevice(storage::BlockDevice* device, std::string name,
                                   std::string group, ServerId server) {
  if (health_ == nullptr) {
    return;
  }
  obs::HealthMonitor::DeviceId id =
      health_->RegisterDevice(std::move(name), std::move(group));
  URSA_CHECK_EQ(static_cast<size_t>(id), health_device_server_.size());
  health_device_server_.push_back(server);
  if (server >= server_health_device_.size()) {
    server_health_device_.resize(server + 1, -1);
  }
  server_health_device_[server] = static_cast<int64_t>(id);
  device->SetLatencyObserver(
      [hm = health_.get(), id](qos::ServiceClass cls, storage::IoType, Nanos latency) {
        hm->RecordLatency(id, cls, latency);
      });
}

ChunkServer* Cluster::MakeServer(Machine* machine, storage::ChunkStore* store,
                                 journal::JournalManager* jm, bool on_ssd) {
  auto server = std::make_unique<ChunkServer>(sim_, transport_.get(), machine,
                                              static_cast<ServerId>(servers_.size()), store, jm,
                                              on_ssd, config_.server);
  server->RegisterMetrics(&metrics_);
  servers_.push_back(std::move(server));
  return servers_.back().get();
}

void Cluster::BuildHybridMachine(Machine* machine) {
  MachineId m = machine->id();
  int nssd = machine->num_ssds();
  int nhdd = machine->num_hdds();
  URSA_CHECK_GT(nssd, 0);
  URSA_CHECK_GT(nhdd, 0);

  // Journal regions live at the top of each SSD: the quota (1/10 capacity)
  // is split among the backup HDDs journaling to that SSD (primary regions)
  // plus the ones expanding to it.
  uint64_t ssd_capacity = machine->ssd(0).capacity();
  uint64_t quota = static_cast<uint64_t>(static_cast<double>(ssd_capacity) *
                                         config_.journal_quota_fraction);
  int regions_per_ssd = (nhdd + nssd - 1) / nssd;  // primary regions
  if (config_.enable_expansion_journal) {
    regions_per_ssd *= 2;
  }
  uint64_t region_bytes = quota / regions_per_ssd;
  region_bytes -= region_bytes % journal::kSector;
  uint64_t chunk_region = ssd_capacity - quota;

  // One primary-capable server per SSD.
  std::vector<storage::ChunkStore*> ssd_stores;
  for (int i = 0; i < nssd; ++i) {
    stores_.push_back(std::make_unique<storage::ChunkStore>(&machine->ssd(i),
                                                            config_.chunk_size, 0, chunk_region));
    ssd_stores.push_back(stores_.back().get());
    ChunkServer* server = MakeServer(machine, ssd_stores.back(), nullptr, /*on_ssd=*/true);
    primary_pool_[m].push_back(server->id());
    RegisterHealthDevice(&machine->ssd(i), machine->name() + "/ssd" + std::to_string(i), "ssd",
                         server->id());
  }

  // One backup server per HDD with a journal manager.
  std::vector<uint64_t> ssd_journal_cursor(nssd, chunk_region);
  for (int k = 0; k < nhdd; ++k) {
    storage::HddModel& hdd = machine->hdd(k);
    uint64_t hdd_journal = config_.enable_hdd_journal ? config_.hdd_journal_bytes : 0;
    stores_.push_back(std::make_unique<storage::ChunkStore>(
        &hdd, config_.chunk_size, hdd_journal, hdd.capacity() - hdd_journal));
    storage::ChunkStore* backup_store = stores_.back().get();

    journal::JournalManagerOptions jm_options = config_.journal;
    jm_options.name = machine->name() + "/hdd" + std::to_string(k);
    auto jm =
        std::make_unique<journal::JournalManager>(sim_, backup_store, jm_options, &metrics_);

    int primary_ssd = k % nssd;
    if (config_.journal_primary_on_ssd) {
      jm->AddJournal(std::make_unique<journal::JournalWriter>(
                         sim_, &machine->ssd(primary_ssd), ssd_journal_cursor[primary_ssd],
                         region_bytes, machine->name() + "/j-ssd" + std::to_string(primary_ssd)),
                     /*on_hdd=*/false);
      ssd_journal_cursor[primary_ssd] += region_bytes;
    }

    if (config_.journal_primary_on_ssd && config_.enable_expansion_journal && nssd > 1) {
      int expansion_ssd = (k + 1) % nssd;
      jm->AddJournal(
          std::make_unique<journal::JournalWriter>(
              sim_, &machine->ssd(expansion_ssd), ssd_journal_cursor[expansion_ssd],
              region_bytes, machine->name() + "/j-exp" + std::to_string(expansion_ssd)),
          /*on_hdd=*/false);
      ssd_journal_cursor[expansion_ssd] += region_bytes;
    }

    if (config_.enable_hdd_journal) {
      // As an overflow journal it is replayed only when the disk is idle
      // (§3.2); as the PRIMARY journal (ablation) it replays continuously,
      // contending with appends on the same arm — the cost §3.2 avoids.
      jm->AddJournal(std::make_unique<journal::JournalWriter>(
                         sim_, &hdd, 0, hdd_journal,
                         machine->name() + "/j-hdd" + std::to_string(k)),
                     /*on_hdd=*/config_.journal_primary_on_ssd);
    }

    journal_manager_ptrs_.push_back(jm.get());
    journal_managers_.push_back(std::move(jm));
    ChunkServer* server =
        MakeServer(machine, backup_store, journal_manager_ptrs_.back(), /*on_ssd=*/false);
    backup_pool_[m].push_back(server->id());
    RegisterHealthDevice(&hdd, machine->name() + "/hdd" + std::to_string(k), "hdd",
                         server->id());
  }
}

void Cluster::BuildFlatMachine(Machine* machine, bool on_ssd) {
  MachineId m = machine->id();
  int ndisks = on_ssd ? machine->num_ssds() : machine->num_hdds();
  URSA_CHECK_GT(ndisks, 0);
  for (int i = 0; i < ndisks; ++i) {
    storage::BlockDevice* device =
        on_ssd ? static_cast<storage::BlockDevice*>(&machine->ssd(i))
               : static_cast<storage::BlockDevice*>(&machine->hdd(i));
    stores_.push_back(std::make_unique<storage::ChunkStore>(device, config_.chunk_size));
    ChunkServer* server = MakeServer(machine, stores_.back().get(), nullptr, on_ssd);
    primary_pool_[m].push_back(server->id());
    backup_pool_[m].push_back(server->id());
    RegisterHealthDevice(device,
                         machine->name() + (on_ssd ? "/ssd" : "/hdd") + std::to_string(i),
                         on_ssd ? "ssd" : "hdd", server->id());
  }
}

Machine* Cluster::AddClientMachine(int cores) {
  MachineConfig cfg = config_.machine;
  cfg.cores = cores;
  cfg.ssds = 0;
  cfg.hdds = 0;
  client_machines_.push_back(std::make_unique<Machine>(
      sim_, transport_.get(),
      static_cast<MachineId>(1000 + client_machines_.size()), cfg));
  return client_machines_.back().get();
}

void Cluster::CrashServer(ServerId id) {
  URSA_CHECK_LT(id, servers_.size());
  servers_[id]->SetCrashed(true);
}

void Cluster::RestoreServer(ServerId id) {
  URSA_CHECK_LT(id, servers_.size());
  servers_[id]->SetCrashed(false);
}

Nanos Cluster::TotalCpuBusyTime() const {
  Nanos total = 0;
  for (const auto& machine : machines_) {
    total += machine->cpu().busy_time();
  }
  for (const auto& machine : client_machines_) {
    total += machine->cpu().busy_time();
  }
  return total;
}

}  // namespace ursa::cluster
