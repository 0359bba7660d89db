#include "src/chaos/chaos_engine.h"

#include <algorithm>
#include <string>

#include "src/common/logging.h"
#include "src/journal/journal_manager.h"

namespace ursa::chaos {

namespace {
// Distinct salts keep the schedule stream and the fire-time flip stream
// independent of each other (and of the workload / transport streams).
constexpr uint64_t kScheduleSalt = 0xC4A05'5C4EDull;
constexpr uint64_t kFlipSalt = 0xB17F11B5ull;

std::string Us(Nanos t) { return std::to_string(static_cast<uint64_t>(ToUsec(t))) + "us"; }
}  // namespace

ChaosEngine::ChaosEngine(sim::Simulator* sim, cluster::Cluster* cluster, const ChaosPlan& plan)
    : sim_(sim),
      cluster_(cluster),
      plan_(plan),
      rng_(plan.seed ^ kScheduleSalt),
      flip_rng_(plan.seed ^ kFlipSalt) {
  obs::MetricsRegistry& reg = cluster_->metrics();
  ctr_net_ = reg.GetCounter("chaos.net_faults");
  ctr_partition_ = reg.GetCounter("chaos.partitions");
  ctr_disk_ = reg.GetCounter("chaos.slow_disks");
  ctr_stuck_ = reg.GetCounter("chaos.stuck_disks");
  ctr_crash_ = reg.GetCounter("chaos.crashes");
  ctr_flip_ = reg.GetCounter("chaos.bit_flips");
  ctr_latent_ = reg.GetCounter("chaos.latent_flips");
  ctr_heal_ = reg.GetCounter("chaos.heals");
}

void ChaosEngine::AddClientNode(net::NodeId node) { client_nodes_.push_back(node); }

void ChaosEngine::Note(const std::string& line) {
  trace_.push_back("t=" + Us(sim_->Now()) + " " + line);
}

std::vector<net::NodeId> ChaosEngine::AllNodes() const {
  std::vector<net::NodeId> nodes;
  for (size_t m = 0; m < cluster_->num_machines(); ++m) {
    nodes.push_back(cluster_->machine(m).node());
  }
  nodes.insert(nodes.end(), client_nodes_.begin(), client_nodes_.end());
  return nodes;
}

std::pair<net::NodeId, net::NodeId> ChaosEngine::PickLink() {
  std::vector<net::NodeId> nodes = AllNodes();
  URSA_CHECK_GT(nodes.size(), 1u);
  net::NodeId from = nodes[rng_.Uniform(nodes.size())];
  net::NodeId to = from;
  while (to == from) {
    to = nodes[rng_.Uniform(nodes.size())];
  }
  return {from, to};
}

storage::BlockDevice* ChaosEngine::PickDevice(std::string* name) {
  size_t m = rng_.Uniform(cluster_->num_machines());
  cluster::Machine& machine = cluster_->machine(m);
  int total = machine.num_ssds() + machine.num_hdds();
  int pick = static_cast<int>(rng_.Uniform(static_cast<uint64_t>(total)));
  if (pick < machine.num_ssds()) {
    *name = machine.name() + "/ssd" + std::to_string(pick);
    return &machine.ssd(pick);
  }
  pick -= machine.num_ssds();
  *name = machine.name() + "/hdd" + std::to_string(pick);
  return &machine.hdd(pick);
}

void ChaosEngine::ScheduleFaults() {
  // Sample every episode now, in a fixed category order, so the schedule is
  // a pure function of the seed regardless of how events later interleave.
  auto sample_start = [this]() {
    return plan_.warmup + static_cast<Nanos>(rng_.Uniform(
                              static_cast<uint64_t>(plan_.fault_window) + 1));
  };
  auto sample_len = [this]() {
    uint64_t span = static_cast<uint64_t>(plan_.max_fault_len - plan_.min_fault_len);
    return plan_.min_fault_len + static_cast<Nanos>(rng_.Uniform(span + 1));
  };

  for (int i = 0; i < plan_.net_faults; ++i) {
    Nanos start = sample_start();
    Nanos len = sample_len();
    auto [from, to] = PickLink();
    net::LinkChaosRule rule;
    rule.drop_prob = 0.05 + 0.30 * rng_.NextDouble();
    rule.dup_prob = 0.10 * rng_.NextDouble();
    rule.extra_delay = static_cast<Nanos>(rng_.Uniform(msec(2) + 1));
    rule.jitter = static_cast<Nanos>(rng_.Uniform(msec(1) + 1));
    sim_->After(start, [this, from, to, rule, len]() {
      ctr_net_->Increment();
      active_links_.push_back({from, to});
      cluster_->transport().SetLinkChaos(from, to, rule);
      Note("degrade link " + std::to_string(from) + "->" + std::to_string(to) +
           " drop=" + std::to_string(rule.drop_prob) + " dup=" + std::to_string(rule.dup_prob) +
           " delay=" + Us(rule.extra_delay) + "+-" + Us(rule.jitter) + " for " + Us(len));
      sim_->After(len, [this, from, to]() {
        cluster_->transport().ClearLinkChaos(from, to);
        ctr_heal_->Increment();
        Note("heal link " + std::to_string(from) + "->" + std::to_string(to));
      });
    });
  }

  for (int i = 0; i < plan_.partitions; ++i) {
    Nanos start = sample_start();
    Nanos len = sample_len();
    auto [from, to] = PickLink();
    bool symmetric = rng_.Bernoulli(0.5);
    sim_->After(start, [this, from, to, symmetric, len]() {
      ctr_partition_->Increment();
      net::LinkChaosRule blocked;
      blocked.blocked = true;
      active_links_.push_back({from, to});
      cluster_->transport().SetLinkChaos(from, to, blocked);
      if (symmetric) {
        active_links_.push_back({to, from});
        cluster_->transport().SetLinkChaos(to, from, blocked);
      }
      Note(std::string(symmetric ? "partition " : "asymmetric partition ") +
           std::to_string(from) + (symmetric ? "<->" : "->") + std::to_string(to) + " for " +
           Us(len));
      sim_->After(len, [this, from, to, symmetric]() {
        cluster_->transport().ClearLinkChaos(from, to);
        if (symmetric) {
          cluster_->transport().ClearLinkChaos(to, from);
        }
        ctr_heal_->Increment();
        Note("heal partition " + std::to_string(from) + "/" + std::to_string(to));
      });
    });
  }

  for (int i = 0; i < plan_.disk_faults + plan_.stuck_faults; ++i) {
    bool stuck = i >= plan_.disk_faults;
    Nanos start = sample_start();
    Nanos len = sample_len();
    std::string name;
    storage::BlockDevice* device = PickDevice(&name);
    storage::DeviceFault fault;
    if (stuck) {
      fault.stuck = true;
    } else {
      fault.extra_latency = msec(1) + static_cast<Nanos>(rng_.Uniform(msec(20)));
    }
    sim_->After(start, [this, device, name, fault, len, stuck]() {
      (stuck ? ctr_stuck_ : ctr_disk_)->Increment();
      active_devices_.push_back(device);
      faulted_devices_.push_back(name);
      device->SetFault(fault);
      Note((stuck ? "stuck disk " : "slow disk ") + name +
           (stuck ? "" : " +" + Us(fault.extra_latency)) + " for " + Us(len));
      sim_->After(len, [this, device, name]() {
        device->ClearFault();
        ctr_heal_->Increment();
        Note("heal disk " + name);
      });
    });
  }

  for (int i = 0; i < plan_.crashes; ++i) {
    Nanos start = sample_start();
    Nanos len = sample_len();
    cluster::ServerId victim =
        static_cast<cluster::ServerId>(rng_.Uniform(cluster_->num_servers()));
    sim_->After(start, [this, victim, len]() {
      ctr_crash_->Increment();
      crashed_servers_.push_back(victim);
      cluster_->CrashServer(victim);
      Note("crash server " + std::to_string(victim) + " for " + Us(len));
      sim_->After(len, [this, victim]() {
        cluster_->RestoreServer(victim);
        ctr_heal_->Increment();
        Note("restore server " + std::to_string(victim));
      });
    });
  }

  // Bit flips target a journal record that is appended but not yet merged —
  // a window only a few device-writes wide. A one-shot attempt at a random
  // instant nearly always misses it, so each flip episode polls: from its
  // sampled start it retries every millisecond until it lands on some
  // manager's pending data or the fault window closes. Retry order and the
  // flipped bit stay a pure function of the seed (flip_rng_ only).
  const Nanos flip_deadline = plan_.warmup + plan_.fault_window + plan_.max_fault_len;
  for (int i = 0; i < plan_.bit_flips; ++i) {
    Nanos start = sample_start();
    // Weak self-reference: the pending retry event holds the closure.
    auto attempt = std::make_shared<std::function<void()>>();
    *attempt = [this, flip_deadline, weak = std::weak_ptr<std::function<void()>>(attempt)]() {
      const auto& managers = cluster_->journal_managers();
      if (managers.empty()) {
        return;
      }
      size_t base = flip_rng_.Uniform(managers.size());
      for (size_t k = 0; k < managers.size(); ++k) {
        size_t j = (base + k) % managers.size();
        if (managers[j]->InjectBitFlip(flip_rng_)) {
          ctr_flip_->Increment();
          ++bit_flips_landed_;
          Note("bit flip in journal manager " + std::to_string(j));
          return;
        }
      }
      if (sim_->Now() + msec(1) <= flip_deadline) {
        sim_->After(msec(1), [self = weak.lock()]() { (*self)(); });
      } else {
        Note("bit flip abandoned: no journal held pending data before the window closed");
      }
    };
    sim_->After(start, [attempt]() { (*attempt)(); });
  }
}

bool ChaosEngine::InjectLatentFlip(storage::ChunkId chunk, uint64_t offset) {
  constexpr uint64_t kSectorBytes = 512;
  uint64_t sector_lo = offset - offset % kSectorBytes;
  std::vector<cluster::ChunkServer*> candidates;
  for (cluster::ServerId s = 0; s < cluster_->num_servers(); ++s) {
    cluster::ChunkServer* server = cluster_->server(s);
    if (server->crashed() || !server->HasChunk(chunk)) {
      continue;
    }
    // The flip must land under live at-rest bytes: skip replicas whose
    // journal still maps the sector (the journal copy would win on read,
    // making the store flip dead and undetectable by design), replicas with
    // no checksum ledger for the chunk (nothing to catch the flip), and
    // already-quarantined ranges.
    if (server->checksum_store() == nullptr ||
        !server->checksum_store()->HasChecksums(chunk)) {
      continue;
    }
    if (server->IsScrubQuarantined(chunk, sector_lo, kSectorBytes)) {
      continue;
    }
    bool journal_mapped = false;
    if (server->journal_manager() != nullptr) {
      for (const index::Segment& seg : server->journal_manager()->IndexSnapshot(chunk)) {
        uint64_t seg_lo = static_cast<uint64_t>(seg.offset) * kSectorBytes;
        uint64_t seg_hi = seg_lo + static_cast<uint64_t>(seg.length) * kSectorBytes;
        if (seg_lo < sector_lo + kSectorBytes && sector_lo < seg_hi) {
          journal_mapped = true;
          break;
        }
      }
    }
    if (!journal_mapped) {
      candidates.push_back(server);
    }
  }
  if (candidates.empty()) {
    return false;
  }
  cluster::ChunkServer* victim = candidates[flip_rng_.Uniform(candidates.size())];
  uint8_t mask = static_cast<uint8_t>(1u << flip_rng_.Uniform(8));
  victim->store()->CorruptByte(chunk, offset, mask);
  ctr_latent_->Increment();
  ++latent_flips_landed_;
  Note("latent flip in chunk " + std::to_string(chunk) + " @" + std::to_string(offset) +
       " on server " + std::to_string(victim->id()));
  return true;
}

void ChaosEngine::HealAll() {
  for (const auto& [from, to] : active_links_) {
    cluster_->transport().ClearLinkChaos(from, to);
  }
  active_links_.clear();
  cluster_->transport().ClearAllLinkChaos();
  for (storage::BlockDevice* device : active_devices_) {
    device->ClearFault();
  }
  active_devices_.clear();
  for (cluster::ServerId id : crashed_servers_) {
    cluster_->RestoreServer(id);
  }
  crashed_servers_.clear();
  Note("heal all");
}

}  // namespace ursa::chaos
