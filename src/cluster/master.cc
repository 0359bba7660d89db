#include "src/cluster/master.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/net/message.h"
#include "src/tier/heat_tracker.h"

namespace ursa::cluster {

namespace {
// Preference order within a replica set: healthy SSD, healthy HDD, demoted
// SSD, demoted HDD. Lower rank = preferred (primary selection, recovery
// sources, layout ordering).
int ReplicaRank(const ReplicaRef& r) {
  return (r.demoted ? 2 : 0) + (r.on_ssd ? 0 : 1);
}
}  // namespace

// Shared state of one background job. `lock` is the chunk whose migration
// mark the job drops when it ends (0 = none); `failures` is the tier stat a
// failure bumps (null = none).
struct Master::Job {
  ChunkId lock = 0;
  uint64_t* failures = nullptr;
  bool finished = false;
  bool granted = false;  // holding an admission slot
  uint64_t admission_source = 0;
  sim::EventId timeout_event = 0;
  // Chunks allocated by this job; freed again if it fails before commit.
  std::vector<std::pair<ServerId, ChunkId>> allocated;
  // Speculative back-fill: the spec replicas alive at pass start — the set
  // the commit installs. Must be a majority of the spec set so it is
  // guaranteed to intersect every client write quorum (the freshest acked
  // data is on some member).
  std::vector<ServerId> targets;
  std::function<void(Status)> done;
};

struct Master::SpecState {
  std::shared_ptr<Job> pass;  // null between retries
  int retries = 0;
};

// Defined after SpecState so ~unique_ptr<SpecState> sees a complete type.
Master::~Master() = default;

Master::Master(sim::Simulator* sim, net::Transport* transport, Placement placement,
               std::vector<ChunkServer*> servers)
    : sim_(sim),
      transport_(transport),
      placement_(std::move(placement)),
      servers_(std::move(servers)) {}

bool Master::PreferReplica(const ReplicaRef& a, const ReplicaRef& b) const {
  int rank_a = ReplicaRank(a);
  int rank_b = ReplicaRank(b);
  if (rank_a != rank_b) {
    return rank_a < rank_b;
  }
  // Continuous health tiebreak: at equal rank, steer toward the replica whose
  // device scores lower — but only once a side clears the deadband, so the
  // µs-level score jitter between two genuinely healthy devices never churns
  // layouts (each churn costs a view change).
  if (health_score_) {
    double score_a = health_score_(a.server);
    double score_b = health_score_(b.server);
    if (score_a != score_b && std::max(score_a, score_b) >= health_score_deadband_) {
      return score_a < score_b;
    }
  }
  return false;  // equivalent: stable sorts keep the existing order
}

void Master::SortLayout(ChunkLayout* layout) {
  std::stable_sort(
      layout->replicas.begin(), layout->replicas.end(),
      [this](const ReplicaRef& a, const ReplicaRef& b) { return PreferReplica(a, b); });
}

void Master::OnHealthScoresChanged() {
  if (!health_score_) {
    return;
  }
  for (auto& [disk_id, meta] : disks_) {
    for (ChunkLayout& layout : meta.chunks) {
      std::vector<ServerId> before;
      before.reserve(layout.replicas.size());
      for (const ReplicaRef& r : layout.replicas) {
        before.push_back(r.server);
      }
      SortLayout(&layout);
      bool changed = false;
      for (size_t i = 0; i < before.size(); ++i) {
        if (layout.replicas[i].server != before[i]) {
          changed = true;
          break;
        }
      }
      if (!changed) {
        continue;
      }
      // Same client-resteer protocol as demotion: bump the view, install it
      // on alive replicas, and let the stale-view VersionMismatch redirect
      // lease holders to the new preferred order.
      ++layout.view;
      ++recovery_stats_.view_changes;
      for (const ReplicaRef& r : layout.replicas) {
        if (!servers_[r.server]->crashed()) {
          servers_[r.server]->SetView(layout.chunk, layout.view);
        }
      }
    }
  }
}

std::vector<Master::ChunkPlacement> Master::ListChunks() const {
  std::vector<ChunkPlacement> out;
  out.reserve(chunk_refs_.size());
  for (const auto& [disk_id, meta] : disks_) {
    for (const ChunkLayout& layout : meta.chunks) {
      if (layout.tier == ChunkTier::kEc) {
        // EC'd chunks expose their shards to the scrubber: each shard is a
        // single-replica chunk whose checksum ledger covers the shard extent.
        for (const EcShardRef& sh : layout.ec_shards) {
          ChunkPlacement p;
          p.chunk = sh.shard_chunk;
          p.size = layout.ec_shard_size;
          p.servers.push_back(sh.server);
          out.push_back(std::move(p));
        }
        continue;
      }
      ChunkPlacement p;
      p.chunk = layout.chunk;
      p.size = meta.chunk_size;
      p.servers.reserve(layout.replicas.size());
      for (const ReplicaRef& r : layout.replicas) {
        p.servers.push_back(r.server);
      }
      out.push_back(std::move(p));
    }
  }
  return out;
}

void Master::SetServerDemoted(ServerId server, bool demoted) {
  URSA_CHECK_LT(server, servers_.size());
  if (demoted == IsDemoted(server)) {
    return;
  }
  if (demoted) {
    demoted_.insert(server);
    ++recovery_stats_.demotions;
  } else {
    demoted_.erase(server);
    ++recovery_stats_.undemotions;
  }
  for (auto& [disk_id, meta] : disks_) {
    for (ChunkLayout& layout : meta.chunks) {
      bool touched = false;
      for (ReplicaRef& r : layout.replicas) {
        if (r.server == server && r.demoted != demoted) {
          r.demoted = demoted;
          touched = true;
        }
      }
      if (!touched) {
        continue;
      }
      SortLayout(&layout);
      // Bump the view and install it on the alive replicas: clients holding
      // the old layout get VersionMismatch("stale view") on their next op,
      // refresh, and re-steer. Crashed replicas miss the install and resync
      // through the normal stale-replica repair path when restored.
      ++layout.view;
      ++recovery_stats_.view_changes;
      for (const ReplicaRef& r : layout.replicas) {
        if (!servers_[r.server]->crashed()) {
          servers_[r.server]->SetView(layout.chunk, layout.view);
        }
      }
    }
  }
}

void Master::RegisterMetrics(obs::MetricsRegistry* registry) {
  registry->RegisterCallbackCounter("master.chunks_recovered", {}, [this]() {
    return static_cast<double>(recovery_stats_.chunks_recovered);
  });
  registry->RegisterCallbackCounter("master.recovery_bytes_transferred", {}, [this]() {
    return static_cast<double>(recovery_stats_.bytes_transferred);
  });
  registry->RegisterCallbackCounter("master.incremental_repairs", {}, [this]() {
    return static_cast<double>(recovery_stats_.incremental_repairs);
  });
  registry->RegisterCallbackCounter("master.full_copies", {}, [this]() {
    return static_cast<double>(recovery_stats_.full_copies);
  });
  registry->RegisterCallbackCounter("master.view_changes", {}, [this]() {
    return static_cast<double>(recovery_stats_.view_changes);
  });
  registry->RegisterCallbackCounter("master.corruption_repairs", {}, [this]() {
    return static_cast<double>(recovery_stats_.corruption_repairs);
  });
  registry->RegisterCallbackCounter("master.demotions", {}, [this]() {
    return static_cast<double>(recovery_stats_.demotions);
  });
  registry->RegisterCallbackGauge(
      "master.demoted_servers", {}, [this]() { return static_cast<double>(demoted_.size()); });
  registry->RegisterCallbackGauge(
      "master.disks", {}, [this]() { return static_cast<double>(disks_.size()); });
  registry->RegisterCallbackGauge(
      "master.chunks", {}, [this]() { return static_cast<double>(chunk_refs_.size()); });
  registry->RegisterCallbackCounter("tier.master_demotions", {}, [this]() {
    return static_cast<double>(tier_stats_.demotions);
  });
  registry->RegisterCallbackCounter("tier.master_demote_aborts", {}, [this]() {
    return static_cast<double>(tier_stats_.demote_aborts);
  });
  registry->RegisterCallbackCounter("tier.master_promotions", {}, [this]() {
    return static_cast<double>(tier_stats_.promotions);
  });
  registry->RegisterCallbackCounter("tier.write_promotions", {}, [this]() {
    return static_cast<double>(tier_stats_.write_promotions);
  });
  registry->RegisterCallbackCounter("tier.shard_repairs", {}, [this]() {
    return static_cast<double>(tier_stats_.shard_repairs);
  });
  registry->RegisterCallbackCounter("tier.shard_range_repairs", {}, [this]() {
    return static_cast<double>(tier_stats_.shard_range_repairs);
  });
  registry->RegisterCallbackCounter("tier.ec_bytes_encoded", {}, [this]() {
    return static_cast<double>(tier_stats_.ec_bytes_encoded);
  });
  registry->RegisterCallbackGauge("tier.ec_chunks", {}, [this]() {
    size_t n = 0;
    for (const auto& [id, meta] : disks_) {
      for (const ChunkLayout& l : meta.chunks) {
        n += l.tier == ChunkTier::kEc ? 1 : 0;
      }
    }
    return static_cast<double>(n);
  });
  registry->RegisterCallbackGauge(
      "tier.physical_bytes", {}, [this]() { return static_cast<double>(PhysicalBytes()); });
  registry->RegisterCallbackGauge(
      "tier.logical_bytes", {}, [this]() { return static_cast<double>(LogicalBytes()); });
}

Result<DiskId> Master::CreateDisk(const std::string& name, uint64_t size, int replication,
                                  int stripe_group) {
  if (size == 0 || replication < 1 || stripe_group < 1) {
    return InvalidArgument("bad disk parameters");
  }
  DiskMeta meta;
  meta.id = next_disk_id_++;
  meta.name = name;
  meta.size = size;
  meta.replication = replication;
  meta.stripe_group = stripe_group;
  meta.chunk_size = chunk_size_;

  uint64_t num_chunks = (size + meta.chunk_size - 1) / meta.chunk_size;
  // Striping (§3.4) addresses whole groups; round the chunk count up so the
  // last group is complete (the extra capacity is simply allocated).
  uint64_t group = static_cast<uint64_t>(stripe_group);
  num_chunks = (num_chunks + group - 1) / group * group;
  meta.chunks.reserve(num_chunks);
  for (uint64_t seq = 0; seq < num_chunks; ++seq) {
    Result<std::vector<ServerId>> servers =
        placement_.PlaceChunk(seq, replication, meta.id * 7919);
    if (!servers.ok()) {
      return servers.status();
    }
    ChunkLayout layout;
    layout.chunk = next_chunk_id_++;
    layout.view = 1;
    for (ServerId sid : *servers) {
      ChunkServer* server = servers_[sid];
      // The disk id doubles as the QoS tenant for every replica's I/O.
      Status s = server->AllocateChunk(layout.chunk, layout.view, meta.id);
      if (!s.ok()) {
        return s;
      }
      layout.replicas.push_back(ReplicaRef{sid, server->node(), server->on_ssd()});
    }
    chunk_refs_[layout.chunk] = ChunkRef{meta.id, seq};
    NotifyTierChanged(layout.chunk, false);
    meta.chunks.push_back(std::move(layout));
  }
  DiskId id = meta.id;
  disks_[id] = std::move(meta);
  return id;
}

Result<const DiskMeta*> Master::OpenDisk(DiskId disk, ClientId client) {
  auto it = disks_.find(disk);
  if (it == disks_.end()) {
    return NotFound("no such disk");
  }
  DiskMeta& meta = it->second;
  Nanos now = sim_->Now();
  if (meta.lease_holder != 0 && meta.lease_holder != client && meta.lease_expiry > now) {
    return Unavailable("disk leased by another client");
  }
  meta.lease_holder = client;
  meta.lease_expiry = now + lease_term_;
  return &meta;
}

Status Master::RenewLease(DiskId disk, ClientId client) {
  auto it = disks_.find(disk);
  if (it == disks_.end()) {
    return NotFound("no such disk");
  }
  DiskMeta& meta = it->second;
  if (meta.lease_holder != client) {
    return Unavailable("lease held by another client");
  }
  meta.lease_expiry = sim_->Now() + lease_term_;
  return OkStatus();
}

Status Master::CloseDisk(DiskId disk, ClientId client) {
  auto it = disks_.find(disk);
  if (it == disks_.end()) {
    return NotFound("no such disk");
  }
  if (it->second.lease_holder == client) {
    it->second.lease_holder = 0;
    it->second.lease_expiry = 0;
  }
  return OkStatus();
}

Result<const DiskMeta*> Master::GetDisk(DiskId disk) const {
  auto it = disks_.find(disk);
  if (it == disks_.end()) {
    return NotFound("no such disk");
  }
  return &it->second;
}

Master::Checkpoint Master::TakeCheckpoint() const {
  Checkpoint cp;
  cp.disks = disks_;
  cp.next_disk_id = next_disk_id_;
  cp.next_chunk_id = next_chunk_id_;
  return cp;
}

void Master::Restore(const Checkpoint& checkpoint) {
  disks_ = checkpoint.disks;
  next_disk_id_ = checkpoint.next_disk_id;
  next_chunk_id_ = checkpoint.next_chunk_id;
  // Every in-flight back-fill pass died with the old process: cancel them so
  // late callbacks fall silent, then rebuild speculation state from the
  // restored layouts below (spec_replicas/spec_extents are checkpointed
  // metadata, so an acked speculative write survives the master crash).
  std::vector<ChunkId> old_spec;
  for (auto& [id, st] : spec_) {
    old_spec.push_back(id);
    if (st->pass != nullptr) {
      EndJob(st->pass.get());
    }
  }
  spec_.clear();
  // Rebuild the chunk index; leases are deliberately NOT restored — clients
  // re-acquire them after a master restart (their timing constraints make
  // interleaving impossible, §4.1).
  chunk_refs_.clear();
  ec_shards_.clear();
  for (auto& [disk_id, meta] : disks_) {
    meta.lease_holder = 0;
    meta.lease_expiry = 0;
    for (size_t i = 0; i < meta.chunks.size(); ++i) {
      chunk_refs_[meta.chunks[i].chunk] = ChunkRef{disk_id, i};
      const ChunkLayout& layout = meta.chunks[i];
      if (layout.tier == ChunkTier::kEc) {
        for (size_t s = 0; s < layout.ec_shards.size(); ++s) {
          ec_shards_[layout.ec_shards[s].shard_chunk] =
              EcShardInfo{layout.chunk, static_cast<int>(s)};
        }
      }
    }
  }
  // Chunks that were speculating before the restore but not in the
  // checkpoint would otherwise hold their migration mark forever.
  for (ChunkId id : old_spec) {
    ChunkLayout* layout = FindLayout(id);
    if (layout == nullptr || !layout->speculating()) {
      FinishMigration(id);
    }
  }
  // Restart the back-fill for every speculating chunk in the checkpoint and
  // re-key the tier migrator's candidate queues (tiers may have moved
  // relative to what it last observed).
  for (auto& [disk_id, meta] : disks_) {
    (void)disk_id;
    for (ChunkLayout& layout : meta.chunks) {
      if (layout.speculating()) {
        migrating_.insert(layout.chunk);
        spec_[layout.chunk] = std::make_unique<SpecState>();
        ++tier_stats_.spec_resumes;
        ChunkId chunk = layout.chunk;
        sim_->After(0, [this, chunk]() { StartSpecBackfill(chunk); });
      }
      NotifyTierChanged(layout.chunk, layout.tier == ChunkTier::kEc);
    }
  }
}

ChunkLayout* Master::FindLayout(ChunkId chunk) {
  auto ref = chunk_refs_.find(chunk);
  if (ref == chunk_refs_.end()) {
    return nullptr;
  }
  return &disks_[ref->second.disk].chunks[ref->second.index];
}

const ReplicaRef* Master::FreshestReplica(const ChunkLayout& layout, ServerId exclude,
                                          uint64_t* version) const {
  const ReplicaRef* best = nullptr;
  for (const ReplicaRef& r : layout.replicas) {
    if (r.server == exclude || servers_[r.server]->crashed()) {
      continue;
    }
    Result<ChunkServer::ReplicaState> st = servers_[r.server]->GetState(layout.chunk);
    if (!st.ok()) {
      continue;
    }
    // Version first (a stale source would hide committed writes); at equal
    // versions prefer healthy over demoted, SSD over HDD, and lower health
    // score (a gray-slow source would drag the whole transfer).
    if (best == nullptr || st->version > *version ||
        (st->version == *version && PreferReplica(r, *best))) {
      *version = st->version;
      best = &r;
    }
  }
  return best;
}

std::vector<ServerId> Master::PlaceReplicaTargets(ChunkId chunk) const {
  const ChunkRef& ref = chunk_refs_.at(chunk);
  const DiskMeta& disk = disks_.at(ref.disk);
  std::vector<ServerId> targets;
  std::vector<MachineId> used;
  auto try_add = [this, chunk, &targets, &used](ServerId sid) {
    ChunkServer* server = servers_[sid];
    if (server->crashed() || server->HasChunk(chunk)) {
      return;
    }
    targets.push_back(sid);
    used.push_back(placement_.MachineOf(sid));
  };
  Result<std::vector<ServerId>> placed =
      placement_.PlaceChunk(ref.index, disk.replication, disk.id * 7919);
  if (placed.ok()) {
    for (ServerId sid : *placed) {
      try_add(sid);
    }
  }
  for (uint64_t salt = chunk;
       static_cast<int>(targets.size()) < disk.replication && salt < chunk + 2 * num_servers();
       ++salt) {
    Result<ServerId> cand = placement_.PlaceReplacement(targets.empty(), used, salt);
    if (cand.ok()) {
      try_add(*cand);
    }
  }
  if (static_cast<int>(targets.size()) < disk.replication) {
    targets.clear();
  }
  return targets;
}

// ---- Background copy engine (DESIGN.md §14) ----

std::vector<Interval> Master::Pieces(const std::vector<Interval>& ranges) const {
  std::vector<Interval> pieces;
  for (const Interval& r : ranges) {
    for (uint64_t offset = r.offset; offset < r.end(); offset += recovery_piece_) {
      pieces.push_back(Interval{offset, std::min(recovery_piece_, r.end() - offset)});
    }
  }
  return pieces;
}

void Master::RunCopy(Copy copy, std::function<void(Status)> done) {
  struct State {
    Copy copy;
    size_t issued = 0;
    size_t landed = 0;
    bool failed = false;
    bool waiting = false;
    std::function<void(Status)> done;
  };
  auto st = std::make_shared<State>();
  st->copy = std::move(copy);
  st->done = std::move(done);

  // The pump refers to itself weakly: a strong self-capture would be a cycle
  // that leaks the state and its buffers. Every piece in flight and every
  // gate wait holds the strong reference, so the pump lives exactly as long
  // as it has work outstanding.
  auto pump = std::make_shared<std::function<void()>>();
  *pump = [this, st, weak = std::weak_ptr<std::function<void()>>(pump)] {
    const Copy& c = st->copy;
    if (st->failed || st->waiting) {
      return;
    }
    // QoS backpressure: while the target device's scheduler reports the
    // class past its queue-depth high watermark, issue nothing until it
    // drains to the low watermark (pieces in flight finish).
    storage::IoGate* gate = c.target != nullptr ? c.target->store()->device()->gate() : nullptr;
    if (gate != nullptr && gate->ShouldThrottle(c.cls)) {
      st->waiting = true;
      gate->WhenReady(c.cls, [st, self = weak.lock()] {
        st->waiting = false;
        (*self)();
      });
      return;
    }
    while (st->issued < c.pieces.size() &&
           st->issued - st->landed < static_cast<size_t>(recovery_window_)) {
      const Interval piece = c.pieces[st->issued++];
      Slot bytes = c.bytes;
      bytes.at += piece.offset - c.pieces.front().offset;
      if (!bytes.buf && c.source != nullptr && c.target != nullptr && recovery_carries_data_) {
        bytes = Slot{ursa::Buffer::Allocate(piece.length)};
      }
      auto landed = [this, st, self = weak.lock(), len = piece.length](const Status& s) {
        if (st->failed) {
          return;
        }
        if (!s.ok()) {
          st->failed = true;
          st->done(s);
          return;
        }
        if (st->copy.target != nullptr) {
          recovery_stats_.bytes_transferred += len;
        }
        if (++st->landed == st->copy.pieces.size()) {
          st->done(OkStatus());
        } else {
          (*self)();
        }
      };
      // Sends the piece to the target and writes it there; the view is cut
      // only now, once the bytes behind it are final.
      auto ship = [this, st, piece, bytes, landed]() {
        const Copy& c = st->copy;
        ursa::BufferView view = bytes.buf ? bytes.buf.View(bytes.at, piece.length)
                                          : ursa::BufferView();
        net::NodeId from = c.source != nullptr ? c.source->node() : c.from;
        uint64_t wire = net::WireBytes(net::MessageType::kRecoveryData, piece.length);
        transport_->Send(from, c.target->node(), wire, [st, piece, view, landed]() {
          const Copy& c = st->copy;
          if (c.shielded) {
            c.target->HandleBackfillWrite(c.chunk, piece.offset, piece.length, view, landed,
                                          c.cls);
          } else {
            c.target->HandleRecoveryWrite(c.chunk, piece.offset, piece.length, view, landed,
                                          c.cls);
          }
        });
      };
      if (c.source == nullptr) {
        ship();
        continue;
      }
      c.source->HandleRecoveryRead(
          c.chunk, piece.offset, piece.length, bytes.data(),
          [st, landed, ship](const Status& s, uint64_t) {
            if (st->copy.target == nullptr || !s.ok()) {
              landed(s);
            } else if (!st->failed) {
              ship();
            }
          },
          c.cls);
    }
  };
  (*pump)();
}

void Master::StartJob(const std::shared_ptr<Job>& job, ChunkServer* source,
                      scrub::RecoveryAdmission::Priority priority, const char* timeout,
                      std::function<void()> body) {
  if (timeout != nullptr) {
    job->timeout_event = sim_->After(migration_timeout_, [this, job, timeout]() {
      job->timeout_event = 0;
      FailJob(job, TimedOut(timeout));
    });
  }
  if (admission_ == nullptr) {
    body();
    return;
  }
  // Cluster-wide per-source pacing: the job runs only once this source
  // device has a free transfer slot, and holds it until the job ends.
  job->admission_source = source->id();
  admission_->Acquire(source->id(), priority, [this, job, body = std::move(body)]() {
    if (job->finished) {
      admission_->Release(job->admission_source);
      return;
    }
    job->granted = true;
    body();
  });
}

bool Master::EndJob(Job* job) {
  if (job->finished) {
    return false;
  }
  job->finished = true;
  if (job->timeout_event != 0) {
    sim_->Cancel(job->timeout_event);
  }
  if (job->granted) {
    admission_->Release(job->admission_source);
  }
  return true;
}

void Master::FinishJob(std::shared_ptr<Job> job, Status s) {
  if (!EndJob(job.get())) {
    return;
  }
  if (!s.ok()) {
    // Roll back anything this job allocated but never committed.
    for (const auto& [sid, cid] : job->allocated) {
      if (!servers_[sid]->crashed() && servers_[sid]->HasChunk(cid)) {
        servers_[sid]->FreeChunk(cid);
      }
      ec_shards_.erase(cid);
      if (heat_ != nullptr) {
        heat_->ClearAlias(cid);
      }
    }
  }
  if (job->lock != 0) {
    FinishMigration(job->lock);
  }
  if (job->done) {
    job->done(std::move(s));
  }
}

void Master::FailJob(std::shared_ptr<Job> job, Status s) {
  if (!job->finished && job->failures != nullptr) {
    ++*job->failures;
  }
  FinishJob(std::move(job), std::move(s));
}

void Master::CopyReplica(ChunkId chunk, ChunkServer* source, ChunkServer* target,
                         std::vector<Interval> ranges, qos::ServiceClass cls,
                         std::function<void(Status)> done) {
  Copy copy{.chunk = chunk, .pieces = Pieces(ranges), .source = source, .target = target,
            .cls = cls};
  if (copy.pieces.empty()) {
    sim_->After(0, [done = std::move(done)]() { done(OkStatus()); });
    return;
  }
  auto job = std::make_shared<Job>();
  job->done = std::move(done);
  auto priority = cls == qos::ServiceClass::kScrub ? scrub::RecoveryAdmission::Priority::kScrub
                                                   : scrub::RecoveryAdmission::Priority::kRecovery;
  StartJob(job, source, priority, /*timeout=*/nullptr,
           [this, job, copy = std::move(copy)]() mutable {
             RunCopy(std::move(copy), [this, job](Status s) { FinishJob(job, std::move(s)); });
           });
}

void Master::CatchUp(ChunkId chunk, ChunkServer* source, ChunkServer* laggard,
                     uint64_t from_version, std::function<void(Status)> done) {
  std::vector<Interval> ranges;
  if (source->ModifiedSince(chunk, from_version, &ranges)) {
    ++recovery_stats_.incremental_repairs;
  } else {
    // History GC'd: transfer the whole chunk (§4.2.1).
    ++recovery_stats_.full_copies;
    ranges = {Interval{0, disks_[chunk_refs_.at(chunk).disk].chunk_size}};
  }
  CopyReplica(chunk, source, laggard, std::move(ranges), qos::ServiceClass::kRecovery,
              std::move(done));
}

void Master::ReportReplicaFailure(ChunkId chunk, ServerId failed,
                                  std::function<void(Status)> done) {
  // EC shard ids route to stripe repair, never to replica recovery: a shard
  // has no replicas — its redundancy is the stripe's parity.
  auto shard_it = ec_shards_.find(chunk);
  if (shard_it != ec_shards_.end()) {
    ChunkLayout* parent_layout = FindLayout(shard_it->second.parent);
    if (parent_layout == nullptr || parent_layout->tier != ChunkTier::kEc) {
      done(NotFound("stale shard"));
      return;
    }
    const EcShardRef& sh = parent_layout->ec_shards[shard_it->second.index];
    if (failed < servers_.size() && !servers_[failed]->crashed() && sh.server == failed) {
      done(OkStatus());  // transient slowness; the shard's server is alive
      return;
    }
    RepairEcShard(shard_it->second.parent, shard_it->second.index, std::move(done));
    return;
  }
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr) {
    done(NotFound("unknown chunk"));
    return;
  }
  if (layout->tier == ChunkTier::kEc) {
    // Stale report against an already-demoted chunk: nothing to repair here
    // (the client's refresh will discover the EC layout).
    done(OkStatus());
    return;
  }
  auto ref = chunk_refs_.find(chunk);
  const DiskMeta& disk = disks_[ref->second.disk];

  // Verify the suspicion before acting (§4.2.2: Ursa deliberately avoids
  // declaring replicas dead on a timeout alone). A client timeout can stem
  // from transient slowness or from a DIFFERENT stale replica failing the
  // quorum; replacing a healthy replica would discard its (possibly
  // freshest) data. If the suspect responds, repair lagging replicas
  // instead of changing the view.
  if (failed < servers_.size() && !servers_[failed]->crashed()) {
    auto remaining = std::make_shared<size_t>(layout->replicas.size());
    auto done_shared = std::make_shared<std::function<void(Status)>>(std::move(done));
    for (const ReplicaRef& r : layout->replicas) {
      RepairReplica(chunk, r.server, [remaining, done_shared](Status) {
        if (--*remaining == 0) {
          (*done_shared)(OkStatus());
        }
      });
    }
    return;
  }

  // Collect survivors and their versions (the master "tries to collect
  // version numbers from a majority of replicas", §4.2.2).
  std::vector<ReplicaRef> survivors;
  bool failed_was_primary_capable = false;
  for (const ReplicaRef& r : layout->replicas) {
    if (r.server == failed) {
      failed_was_primary_capable = r.on_ssd;
      continue;
    }
    if (!servers_[r.server]->crashed()) {
      survivors.push_back(r);
    }
  }
  if (survivors.empty()) {
    done(Unavailable("no surviving replica: data loss"));
    return;
  }

  uint64_t version_h = 0;
  const ReplicaRef* source_ref = FreshestReplica(*layout, failed, &version_h);
  if (source_ref == nullptr) {
    done(Unavailable("no readable survivor"));
    return;
  }
  ChunkServer* source = servers_[source_ref->server];

  // Allocate the replacement on a machine hosting no survivor.
  std::vector<MachineId> exclude;
  for (const ReplicaRef& r : survivors) {
    exclude.push_back(placement_.MachineOf(r.server));
  }
  ChunkServer* target = nullptr;
  // Two sweeps: prefer a healthy replacement, but accept a demoted one over
  // leaving the chunk under-replicated.
  for (int allow_demoted = 0; allow_demoted < 2 && target == nullptr; ++allow_demoted) {
    for (uint64_t salt = chunk; salt < chunk + num_servers(); ++salt) {
      Result<ServerId> candidate =
          placement_.PlaceReplacement(failed_was_primary_capable, exclude, salt);
      if (!candidate.ok()) {
        continue;
      }
      ChunkServer* server = servers_[*candidate];
      // Never reuse the failed server or any server already hosting the chunk
      // (possible on small clusters where every machine holds a survivor).
      if (*candidate != failed && !server->crashed() && !server->HasChunk(chunk) &&
          (allow_demoted == 1 || !IsDemoted(*candidate))) {
        target = server;
        break;
      }
    }
  }
  if (target == nullptr) {
    done(ResourceExhausted("no replacement server available"));
    return;
  }
  uint64_t new_view = layout->view + 1;
  Status alloc = target->AllocateChunk(chunk, new_view, ref->second.disk);
  if (!alloc.ok()) {
    done(alloc);
    return;
  }

  CopyReplica(
      chunk, source, target, {Interval{0, disk.chunk_size}}, qos::ServiceClass::kRecovery,
      [this, chunk, layout, failed, source, target, new_view, version_h,
       done = std::move(done)](const Status& s) {
        if (!s.ok()) {
          done(s);
          return;
        }
        // Before installing the new view, bring every LAGGING survivor up to
        // versionH with real data (incremental repair from the source's
        // journal lite, or a full copy when history is gone) — a bare
        // version fast-forward would hide lost writes.
        auto laggards = std::make_shared<std::vector<ChunkServer*>>();
        for (const ReplicaRef& r : layout->replicas) {
          if (r.server == failed || servers_[r.server]->crashed()) {
            continue;
          }
          Result<ChunkServer::ReplicaState> st = servers_[r.server]->GetState(chunk);
          if (st.ok() && st->version < version_h) {
            laggards->push_back(servers_[r.server]);
          }
        }
        auto finish = [this, chunk, layout, failed, target, new_view, version_h,
                       done = std::move(done)]() {
          // Install the new view. Writes kept committing during the
          // transfer, so survivors may have advanced past versionH — never
          // move a replica's version backward, only adopt the new view.
          target->SetState(chunk, version_h, new_view);
          for (ReplicaRef& r : layout->replicas) {
            if (r.server == failed) {
              r = ReplicaRef{target->id(), target->node(), target->on_ssd(),
                             IsDemoted(target->id())};
            } else {
              Result<ChunkServer::ReplicaState> st = servers_[r.server]->GetState(chunk);
              if (st.ok()) {
                servers_[r.server]->SetState(chunk, std::max(st->version, version_h),
                                             new_view);
              }
            }
          }
          layout->view = new_view;
          // Keep the preferred primary first (a healthy SSD replica if any,
          // health-score tiebroken).
          SortLayout(layout);
          ++recovery_stats_.chunks_recovered;
          ++recovery_stats_.view_changes;
          done(OkStatus());
        };
        if (laggards->empty()) {
          finish();
          return;
        }
        auto remaining = std::make_shared<size_t>(laggards->size());
        auto finish_shared = std::make_shared<std::function<void()>>(std::move(finish));
        for (ChunkServer* laggard : *laggards) {
          Result<ChunkServer::ReplicaState> st = laggard->GetState(chunk);
          CatchUp(chunk, source, laggard, st.ok() ? st->version : 0,
                  [remaining, finish_shared](Status) {
                    if (--*remaining == 0) {
                      (*finish_shared)();
                    }
                  });
        }
      });
}

void Master::RepairChunkReplicas(ChunkId chunk) {
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr) {
    return;
  }
  if (layout->tier == ChunkTier::kEc) {
    if (layout->speculating()) {
      // Mid-speculation the back-fill pass owns the stripe; its retry loop
      // (and the post-commit stale-replica repair) covers every failure.
      return;
    }
    // Stripe healing: rebuild any shard stranded on a crashed server.
    for (size_t i = 0; i < layout->ec_shards.size(); ++i) {
      if (servers_[layout->ec_shards[i].server]->crashed()) {
        RepairEcShard(chunk, static_cast<int>(i), [](Status) {});
      }
    }
    return;
  }
  for (const ReplicaRef& r : layout->replicas) {
    if (!servers_[r.server]->crashed()) {
      RepairReplica(chunk, r.server, [](Status) {});
    }
  }
}

void Master::RepairCorruptRange(ChunkId chunk, ServerId corrupt_server, uint64_t offset,
                                uint64_t length, std::function<void(Status)> done) {
  if (IsEcShard(chunk)) {
    // A corrupt shard range has no peer replica to copy from: reconstruct
    // the bytes from the stripe's other shards instead.
    ++recovery_stats_.corruption_repairs;
    RepairEcShardRange(chunk, offset, length, std::move(done));
    return;
  }
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr) {
    sim_->After(0, [done = std::move(done)]() { done(NotFound("unknown chunk")); });
    return;
  }
  // Freshest alive replica OTHER than the damaged one. Version order does not
  // gate this repair: the corrupt replica may well hold the highest version —
  // the flipped bits destroyed its data, not its metadata.
  uint64_t version = 0;
  const ReplicaRef* source = FreshestReplica(*layout, corrupt_server, &version);
  if (source == nullptr) {
    // No healthy replica to heal from: leave the range quarantined (reads
    // keep failing with kCorruption rather than serving stale bytes).
    sim_->After(0, [done = std::move(done)]() {
      done(Unavailable("no healthy replica for corruption repair"));
    });
    return;
  }
  ++recovery_stats_.corruption_repairs;
  // Scrub repair: lowest-priority class — it races nothing (reads of the
  // range stay quarantined until `done`).
  CopyReplica(chunk, servers_[source->server], servers_[corrupt_server],
              {Interval{offset, length}}, qos::ServiceClass::kScrub, std::move(done));
}

void Master::RepairReplica(ChunkId chunk, ServerId lagging, std::function<void(Status)> done) {
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr) {
    done(NotFound("unknown chunk"));
    return;
  }
  if (layout->tier == ChunkTier::kEc) {
    done(OkStatus());  // no replicas to repair; shards heal via RepairEcShard
    return;
  }
  ChunkServer* laggard = servers_[lagging];
  Result<ChunkServer::ReplicaState> lag_state = laggard->GetState(chunk);
  if (!lag_state.ok()) {
    done(lag_state.status());
    return;
  }

  // Find the freshest peer (healthy over demoted, SSD over HDD at ties).
  uint64_t version_h = 0;
  const ReplicaRef* source = FreshestReplica(*layout, lagging, &version_h);
  if (source == nullptr || version_h <= lag_state->version) {
    done(OkStatus());  // already up to date
    return;
  }
  // The laggard may receive replications while the repair transfer runs;
  // never move its version backward when installing the repaired state.
  CatchUp(chunk, servers_[source->server], laggard, lag_state->version,
          [laggard, chunk, version_h, view = layout->view, done = std::move(done)](Status s) {
            if (s.ok()) {
              Result<ChunkServer::ReplicaState> now = laggard->GetState(chunk);
              laggard->SetState(chunk, now.ok() ? std::max(now->version, version_h) : version_h,
                                view);
            }
            done(s);
          });
}

// ---- Tiered placement (DESIGN.md §13) ----

ec::ReedSolomon* Master::Codec(int k, int m) {
  auto key = std::make_pair(k, m);
  auto it = codecs_.find(key);
  if (it == codecs_.end()) {
    it = codecs_.emplace(key, std::make_unique<ec::ReedSolomon>(k, m)).first;
  }
  return it->second.get();
}

Result<std::vector<ServerId>> Master::PickShardServers(int n, uint64_t salt) const {
  // Round-robin machines so a k+m stripe spreads as widely as the cluster
  // allows; with fewer machines than shards, machines host several shards
  // but always on distinct servers.
  size_t machines = placement_.num_machines();
  std::vector<std::vector<ServerId>> by_machine(machines);
  for (ServerId s = 0; s < static_cast<ServerId>(servers_.size()); ++s) {
    if (!servers_[s]->crashed()) {
      by_machine[placement_.MachineOf(s)].push_back(s);
    }
  }
  std::vector<ServerId> out;
  std::vector<size_t> cursor(machines, 0);
  bool progress = true;
  while (static_cast<int>(out.size()) < n && progress) {
    progress = false;
    for (size_t i = 0; i < machines && static_cast<int>(out.size()) < n; ++i) {
      size_t mi = (salt + i) % machines;
      if (cursor[mi] < by_machine[mi].size()) {
        out.push_back(by_machine[mi][cursor[mi]++]);
        progress = true;
      }
    }
  }
  if (static_cast<int>(out.size()) < n) {
    return ResourceExhausted("too few alive servers for an EC stripe");
  }
  return out;
}

ChunkServer* Master::FirstAliveShard(const ChunkLayout& layout, int skip) const {
  for (int i = 0; i < static_cast<int>(layout.ec_shards.size()); ++i) {
    if (i != skip && !servers_[layout.ec_shards[i].server]->crashed()) {
      return servers_[layout.ec_shards[i].server];
    }
  }
  return nullptr;
}

Status Master::PlanStripeRead(const std::vector<EcShardRef>& shards, int k, int m, int lost,
                              ec::BackfillReadPlan* plan) const {
  std::vector<bool> alive(k + m);
  for (int i = 0; i < k + m; ++i) {
    alive[i] = i != lost && !servers_[shards[i].server]->crashed();
  }
  return ec::PlanBackfillRead(alive, k, m, plan);
}

std::vector<Master::Slot> Master::ChunkSlots(const ursa::Buffer& data, const ursa::Buffer& parity,
                                             int k, int m, uint64_t shard_size) {
  std::vector<Slot> slots;
  slots.reserve(static_cast<size_t>(k + m));
  for (int i = 0; i < k; ++i) {
    slots.push_back(Slot{data, static_cast<uint64_t>(i) * shard_size});
  }
  for (int j = 0; j < m; ++j) {
    slots.push_back(Slot{parity, static_cast<uint64_t>(j) * shard_size});
  }
  return slots;
}

void Master::ReadStripe(const std::vector<EcShardRef>& shards, int k, int m,
                        std::vector<int> sources, std::vector<int> wanted, Interval range,
                        std::vector<Slot> slots, qos::ServiceClass cls,
                        std::function<void(Status)> done) {
  struct State {
    size_t remaining = 0;
    bool failed = false;
    std::vector<int> sources;
    std::vector<int> wanted;
    std::vector<Slot> slots;
    std::function<void(Status)> done;
  };
  auto st = std::make_shared<State>();
  st->remaining = sources.size();
  st->sources = std::move(sources);
  st->wanted = std::move(wanted);
  st->slots = std::move(slots);
  st->done = std::move(done);
  for (int idx : st->sources) {
    Slot& slot = st->slots[idx];
    if (!slot.buf && recovery_carries_data_) {
      slot = Slot{ursa::Buffer::Allocate(range.length)};  // decode-only scratch
    }
    Copy read{.chunk = shards[idx].shard_chunk,
              .pieces = Pieces({range}),
              .source = servers_[shards[idx].server],
              .bytes = slot,
              .cls = cls};
    RunCopy(std::move(read), [this, st, k, m, length = range.length](Status s) {
      if (st->failed) {
        return;
      }
      if (!s.ok()) {
        st->failed = true;
        st->done(s);
        return;
      }
      if (--st->remaining > 0) {
        return;
      }
      // All k sources are in: rebuild the wanted slots from them.
      if (recovery_carries_data_ && !st->wanted.empty()) {
        std::vector<bool> present(k + m, false);
        std::vector<const uint8_t*> in(k + m, nullptr);
        for (int i : st->sources) {
          present[i] = true;
          in[i] = st->slots[i].data();
        }
        ec::ReedSolomon::DecodePlan plan;
        Status ps = Codec(k, m)->PlanReconstruct(present, st->wanted, &plan);
        if (!ps.ok()) {
          st->done(ps);
          return;
        }
        std::vector<uint8_t*> out(k + m, nullptr);
        for (int t : st->wanted) {
          out[t] = st->slots[t].data();
        }
        Codec(k, m)->ReconstructWith(plan, in, out, length);
      }
      st->done(OkStatus());
    });
  }
}

void Master::FinishMigration(ChunkId chunk) {
  migrating_.erase(chunk);
  auto it = promote_waiters_.find(chunk);
  if (it == promote_waiters_.end()) {
    return;
  }
  std::vector<std::function<void(Status)>> waiters = std::move(it->second);
  promote_waiters_.erase(it);
  for (auto& waiter : waiters) {
    // Re-enter through the front door: if the finished migration was the
    // promotion, this completes immediately via the idempotent path.
    sim_->After(0, [this, chunk, waiter = std::move(waiter)]() mutable {
      PromoteChunk(chunk, false, std::move(waiter));
    });
  }
}

// ---- Speculative write promotion (DESIGN.md §13.6) ----

void Master::BeginWritePromote(ChunkId chunk, std::function<void(Status)> done) {
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr) {
    sim_->After(0, [done = std::move(done)]() { done(NotFound("unknown chunk")); });
    return;
  }
  if (layout->tier == ChunkTier::kReplicated && migrating_.count(chunk) == 0) {
    sim_->After(0, [done = std::move(done)]() { done(OkStatus()); });
    return;
  }
  if (layout->speculating()) {
    // Join the in-flight speculation: the caller can write immediately.
    sim_->After(0, [done = std::move(done)]() { done(OkStatus()); });
    return;
  }
  if (migrating_.count(chunk) > 0) {
    // A demote/promote/shard repair owns the chunk; queue behind it (the
    // waiter re-enters through PromoteChunk's idempotent path).
    promote_waiters_[chunk].push_back(std::move(done));
    return;
  }
  if (!speculative_promote_ || layout->tier != ChunkTier::kEc) {
    PromoteChunk(chunk, /*write_triggered=*/true, std::move(done));
    return;
  }

  // Place the future replica set exactly like a blocking promotion would.
  std::vector<ServerId> targets = PlaceReplicaTargets(chunk);
  if (targets.empty()) {
    // Not enough healthy servers for the fast path; take the blocking one
    // (it shares the shortage, but also its retry/queueing machinery).
    PromoteChunk(chunk, /*write_triggered=*/true, std::move(done));
    return;
  }
  const DiskId disk_id = chunk_refs_.at(chunk).disk;
  // Allocate all-or-nothing, then install. Targets start at the frozen EC
  // version AND the *current* view: shard reads stay valid and the client
  // needs no resteer — the view bumps only at commit.
  std::vector<ReplicaRef> refs;
  for (size_t i = 0; i < targets.size(); ++i) {
    ChunkServer* server = servers_[targets[i]];
    Status alloc = server->AllocateChunk(chunk, layout->view, disk_id);
    if (!alloc.ok()) {
      for (size_t j = 0; j < i; ++j) {
        servers_[targets[j]]->FreeChunk(chunk);
      }
      PromoteChunk(chunk, /*write_triggered=*/true, std::move(done));
      return;
    }
    server->SetState(chunk, layout->ec_version, layout->view);
    server->EnableWriteShield(chunk);
    refs.push_back(ReplicaRef{targets[i], server->node(), server->on_ssd(),
                              IsDemoted(targets[i])});
  }
  layout->spec_replicas = std::move(refs);
  layout->spec_extents.clear();
  migrating_.insert(chunk);
  spec_[chunk] = std::make_unique<SpecState>();
  StartSpecBackfill(chunk);
  // The ack gate is gone: the caller may write as soon as this fires.
  sim_->After(0, [done = std::move(done)]() { done(OkStatus()); });
}

void Master::RegisterSpecExtent(ChunkId chunk, uint64_t offset, uint64_t length) {
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr || !layout->speculating()) {
    return;  // committed (or never speculated) — extents are moot
  }
  InsertInterval(&layout->spec_extents, Interval{offset, length});
}

void Master::StartSpecBackfill(ChunkId chunk) {
  auto it = spec_.find(chunk);
  if (it == spec_.end() || it->second->pass != nullptr) {
    return;
  }
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr || layout->tier != ChunkTier::kEc || !layout->speculating()) {
    return;  // committed or vanished while the retry was pending
  }
  auto pass = std::make_shared<Job>();
  // A pass ends in CommitSpecPromote or fails here: the retry is
  // unconditional, the cause only matters for stats.
  pass->done = [this, chunk, id = pass.get()](Status) {
    auto it = spec_.find(chunk);
    if (it == spec_.end() || it->second->pass.get() != id) {
      return;
    }
    it->second->pass = nullptr;
    ++it->second->retries;
    ++tier_stats_.spec_backfill_retries;
    sim_->After(spec_retry_, [this, chunk]() { StartSpecBackfill(chunk); });
  };
  it->second->pass = pass;
  // First alive shard is the admission source, as in PromoteChunk. The
  // back-fill unblocks the chunk's EC capacity reclaim but no ack, so it
  // competes at recovery priority like any promotion finishing a write.
  ChunkServer* admit_on = FirstAliveShard(*layout, -1);
  if (admit_on == nullptr) {
    FinishJob(pass, Unavailable("no alive shard"));
    return;
  }
  StartJob(pass, admit_on, scrub::RecoveryAdmission::Priority::kRecovery,
           "spec back-fill timed out", [this, chunk, pass]() { RunSpecBackfill(chunk, pass); });
}

void Master::RunSpecBackfill(ChunkId chunk, std::shared_ptr<Job> pass) {
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr || layout->tier != ChunkTier::kEc || !layout->speculating()) {
    FinishJob(pass, Aborted("layout changed"));
    return;
  }
  const int k = layout->ec_k;
  const int m = layout->ec_m;
  const uint64_t shard_size = layout->ec_shard_size;
  const uint64_t chunk_size = disks_[chunk_refs_.at(chunk).disk].chunk_size;
  const std::vector<EcShardRef>& shards = layout->ec_shards;

  // The commit installs exactly the replicas this pass back-fills, so fix
  // the target set now: every spec replica alive at this instant. A
  // majority of the spec set is required — it then intersects every client
  // write quorum, so the max-version committed replica holds all acked data.
  pass->targets.clear();
  for (const ReplicaRef& r : layout->spec_replicas) {
    if (!servers_[r.server]->crashed()) {
      pass->targets.push_back(r.server);
    }
  }
  if (pass->targets.size() < layout->spec_replicas.size() / 2 + 1) {
    FinishJob(pass, Unavailable("spec replica majority down"));
    return;
  }

  ec::BackfillReadPlan plan;
  Status plan_s = PlanStripeRead(shards, k, m, /*lost=*/-1, &plan);
  if (!plan_s.ok()) {
    FinishJob(pass, plan_s);
    return;
  }
  // The old chunk image; parity sources read into scratch of their own.
  ursa::Buffer data;
  if (recovery_carries_data_) {
    data = ursa::Buffer::Allocate(chunk_size);
  }
  // Rebuild any dead data shards so the image is complete before it
  // streams out.
  ReadStripe(
      shards, k, m, plan.sources, plan.missing_data, Interval{0, shard_size},
      ChunkSlots(data, ursa::Buffer(), k, m, shard_size), qos::ServiceClass::kRecovery,
      [this, chunk, pass, data, chunk_size, from = shards[plan.sources[0]].node](Status s) {
        if (pass->finished) {
          return;
        }
        if (!s.ok()) {
          FinishJob(pass, s);
          return;
        }
        // Stream the old image into every pass target through the write
        // shield: ranges the client already wrote are subtracted at apply
        // time, so old bytes can never clobber new data.
        auto remaining = std::make_shared<size_t>(pass->targets.size());
        for (ServerId sid : pass->targets) {
          Copy write{.chunk = chunk,
                     .pieces = Pieces({Interval{0, chunk_size}}),
                     .target = servers_[sid],
                     .from = from,
                     .bytes = Slot{data},
                     .shielded = true};
          RunCopy(std::move(write), [this, chunk, pass, remaining](Status ws) {
            if (pass->finished) {
              return;
            }
            if (!ws.ok()) {
              FinishJob(pass, ws);
              return;
            }
            if (--*remaining == 0) {
              CommitSpecPromote(chunk, pass);
            }
          });
        }
      });
}

void Master::CommitSpecPromote(ChunkId chunk, std::shared_ptr<Job> pass) {
  if (pass->finished) {
    return;
  }
  ChunkLayout* layout = FindLayout(chunk);
  auto it = spec_.find(chunk);
  if (layout == nullptr || layout->tier != ChunkTier::kEc || !layout->speculating() ||
      it == spec_.end() || it->second->pass != pass) {
    FinishJob(pass, Aborted("layout changed"));
    return;
  }
  EndJob(pass.get());

  const uint64_t new_view = layout->view + 1;
  // Retire the shards (a crashed server keeps its stale image, as in
  // CommitPromote — unreachable and no longer indexed).
  for (const EcShardRef& sh : layout->ec_shards) {
    ChunkServer* server = servers_[sh.server];
    if (!server->crashed() && server->HasChunk(sh.shard_chunk)) {
      server->FreeChunk(sh.shard_chunk);
    }
    ec_shards_.erase(sh.shard_chunk);
    if (heat_ != nullptr) {
      heat_->ClearAlias(sh.shard_chunk);
    }
  }
  layout->ec_shards.clear();
  layout->ec_k = 0;
  layout->ec_m = 0;
  layout->ec_shard_size = 0;
  layout->ec_version = 0;
  layout->tier = ChunkTier::kReplicated;
  layout->replicas.clear();
  std::set<ServerId> committed(pass->targets.begin(), pass->targets.end());
  for (ServerId sid : pass->targets) {
    ChunkServer* server = servers_[sid];
    // SetView, not SetState: the spec replicas carry client-advanced
    // versions — wiping them back to the frozen one would orphan the acked
    // writes. A target that crashed after completing its back-fill misses
    // the install (like SetServerDemoted's view pushes) and resyncs through
    // the stale-replica repair path once restored.
    if (!server->crashed()) {
      server->SetView(chunk, new_view);
    }
    server->DisableWriteShield(chunk);
    layout->replicas.push_back(
        ReplicaRef{sid, server->node(), server->on_ssd(), IsDemoted(sid)});
  }
  // Spec replicas dropped at pass start (crashed then): free any that have
  // come back — their image is a hole-ridden mix and they are not in the
  // new replica set.
  for (const ReplicaRef& r : layout->spec_replicas) {
    if (committed.count(r.server) > 0) {
      continue;
    }
    ChunkServer* server = servers_[r.server];
    if (!server->crashed() && server->HasChunk(chunk)) {
      server->FreeChunk(chunk);
    }
  }
  layout->spec_replicas.clear();
  layout->spec_extents.clear();
  layout->view = new_view;
  SortLayout(layout);
  ++recovery_stats_.view_changes;
  ++tier_stats_.promotions;
  ++tier_stats_.write_promotions;
  ++tier_stats_.spec_promotions;
  spec_.erase(it);
  NotifyTierChanged(chunk, false);
  FinishMigration(chunk);
}

void Master::DemoteChunkToEc(ChunkId chunk, int k, int m, std::function<void(Status)> done) {
  auto fail = [this, &done](Status s) {
    sim_->After(0, [s = std::move(s), done = std::move(done)]() mutable { done(std::move(s)); });
  };
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr) {
    fail(NotFound("unknown chunk"));
    return;
  }
  if (layout->tier != ChunkTier::kReplicated) {
    fail(AlreadyExists("chunk already EC"));
    return;
  }
  if (migrating_.count(chunk) > 0) {
    fail(Unavailable("migration already in flight"));
    return;
  }
  if (k < 1 || m < 1) {
    fail(InvalidArgument("bad EC geometry"));
    return;
  }
  auto ref = chunk_refs_.find(chunk);
  const DiskMeta& disk = disks_[ref->second.disk];
  if (disk.chunk_size % static_cast<uint64_t>(k) != 0) {
    fail(InvalidArgument("chunk size not divisible by k"));
    return;
  }
  if (heat_ != nullptr && heat_->InflightWrites(chunk) > 0) {
    fail(Unavailable("writes in flight"));
    return;
  }
  // Replay writes into a freed chunk would fail hard (the journal replayer
  // treats a missing backup chunk as unrecoverable), so a replica with
  // pending journal records pins the chunk on the replicated tier.
  uint64_t version0 = 0;
  bool have_version = false;
  ChunkServer* source = nullptr;
  const ReplicaRef* source_ref = nullptr;
  for (const ReplicaRef& r : layout->replicas) {
    ChunkServer* server = servers_[r.server];
    if (server->crashed()) {
      continue;
    }
    if (server->HasJournalBacklog(chunk)) {
      fail(Unavailable("journal backlog pending"));
      return;
    }
    Result<ChunkServer::ReplicaState> st = server->GetState(chunk);
    if (!st.ok()) {
      continue;
    }
    if (!have_version) {
      version0 = st->version;
      have_version = true;
    } else if (st->version != version0) {
      // Divergent replicas mean a repair is due; demote after it heals.
      fail(Unavailable("replicas diverge"));
      return;
    }
    if (source == nullptr || PreferReplica(r, *source_ref)) {
      source = server;
      source_ref = &r;
    }
  }
  if (source == nullptr) {
    fail(Unavailable("no alive replica"));
    return;
  }

  auto op = std::make_shared<Job>();
  op->lock = chunk;
  op->failures = &tier_stats_.demote_failures;
  op->done = std::move(done);
  migrating_.insert(chunk);
  StartJob(op, source, scrub::RecoveryAdmission::Priority::kScrub, "demotion timed out",
           [this, chunk, k, m, op]() { DemoteChunkNow(chunk, k, m, op); });
}

void Master::DemoteChunkNow(ChunkId chunk, int k, int m, std::shared_ptr<Job> op) {
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr || layout->tier != ChunkTier::kReplicated) {
    FailJob(op, Aborted("layout changed"));
    return;
  }
  auto ref = chunk_refs_.find(chunk);
  const DiskMeta& disk = disks_[ref->second.disk];
  const uint64_t chunk_size = disk.chunk_size;
  const uint64_t shard_size = chunk_size / static_cast<uint64_t>(k);
  const int n = k + m;

  // Re-pick the source (state may have shifted while queued for admission).
  ChunkServer* source = nullptr;
  const ReplicaRef* source_ref = nullptr;
  uint64_t version0 = 0;
  for (const ReplicaRef& r : layout->replicas) {
    ChunkServer* server = servers_[r.server];
    if (server->crashed()) {
      continue;
    }
    Result<ChunkServer::ReplicaState> st = server->GetState(chunk);
    if (!st.ok()) {
      continue;
    }
    if (source == nullptr || PreferReplica(r, *source_ref)) {
      source = server;
      source_ref = &r;
      version0 = st->version;
    }
  }
  if (source == nullptr) {
    FailJob(op, Unavailable("no alive replica"));
    return;
  }
  Result<std::vector<ServerId>> targets = PickShardServers(n, chunk);
  if (!targets.ok()) {
    FailJob(op, targets.status());
    return;
  }
  // The chunk image (k contiguous data shards) and the m parity shards.
  // Timing-only mode (large benches) skips the bytes entirely.
  ursa::Buffer data;
  ursa::Buffer parity;
  if (recovery_carries_data_) {
    data = ursa::Buffer::Allocate(chunk_size);
    parity = ursa::Buffer::Allocate(static_cast<uint64_t>(m) * shard_size);
  }
  Copy read{.chunk = chunk,
            .pieces = Pieces({Interval{0, chunk_size}}),
            .source = source,
            .bytes = Slot{data},
            .cls = qos::ServiceClass::kScrub};
  RunCopy(std::move(read), [this, chunk, k, m, n, shard_size, chunk_size, op, source,
                            slots = ChunkSlots(data, parity, k, m, shard_size),
                            targets = *targets, disk_id = disk.id,
                            version0](Status s) mutable {
    if (op->finished) {
      return;
    }
    if (!s.ok()) {
      FailJob(op, s);
      return;
    }
    ChunkLayout* layout = FindLayout(chunk);
    if (layout == nullptr || layout->tier != ChunkTier::kReplicated) {
      FailJob(op, Aborted("layout changed"));
      return;
    }
    if (recovery_carries_data_) {
      std::vector<const uint8_t*> data(k);
      std::vector<uint8_t*> parity(m);
      for (int i = 0; i < k; ++i) {
        data[i] = slots[i].data();
      }
      for (int j = 0; j < m; ++j) {
        parity[j] = slots[k + j].data();
      }
      Codec(k, m)->Encode(data, parity, shard_size);
    }
    tier_stats_.ec_bytes_encoded += chunk_size;

    std::vector<EcShardRef> shards(n);
    const uint64_t alloc_view = layout->view + 1;
    for (int i = 0; i < n; ++i) {
      ChunkServer* target = servers_[targets[i]];
      ChunkId shard_id = next_chunk_id_++;
      Status alloc = target->AllocateChunk(shard_id, alloc_view, disk_id);
      if (!alloc.ok()) {
        FailJob(op, alloc);
        return;
      }
      op->allocated.emplace_back(targets[i], shard_id);
      ec_shards_[shard_id] = EcShardInfo{chunk, i};
      if (heat_ != nullptr) {
        heat_->SetAlias(shard_id, chunk);
      }
      shards[i] = EcShardRef{targets[i], target->node(), shard_id};
    }

    auto remaining = std::make_shared<int>(n);
    for (int i = 0; i < n; ++i) {
      Copy write{.chunk = shards[i].shard_chunk,
                 .pieces = Pieces({Interval{0, shard_size}}),
                 .target = servers_[shards[i].server],
                 .from = source->node(),
                 .bytes = slots[i],
                 .cls = qos::ServiceClass::kScrub};
      RunCopy(std::move(write),
              [this, chunk, op, shards, remaining, version0, k, m, shard_size](Status ws) {
                if (op->finished) {
                  return;
                }
                if (!ws.ok()) {
                  FailJob(op, ws);
                  return;
                }
                if (--*remaining == 0) {
                  CommitDemote(chunk, shards, version0, k, m, shard_size, op);
                }
              });
    }
  });
}

void Master::CommitDemote(ChunkId chunk, std::vector<EcShardRef> shards, uint64_t frozen_version,
                          int k, int m, uint64_t shard_size, std::shared_ptr<Job> op) {
  if (op->finished) {
    return;
  }
  ChunkLayout* layout = FindLayout(chunk);
  // Atomic commit check: this whole function is one event, so nothing can
  // interleave between the verification and the layout swap. Any write that
  // landed during the copy (version moved), is still in the server pipeline
  // (in-flight counter), or left journal records aborts the demotion — the
  // shard images would be torn.
  bool dirty = layout == nullptr || layout->tier != ChunkTier::kReplicated;
  if (!dirty && heat_ != nullptr && heat_->InflightWrites(chunk) > 0) {
    dirty = true;
  }
  if (!dirty) {
    for (const ReplicaRef& r : layout->replicas) {
      ChunkServer* server = servers_[r.server];
      if (server->crashed()) {
        continue;
      }
      Result<ChunkServer::ReplicaState> st = server->GetState(chunk);
      if ((st.ok() && st->version != frozen_version) || server->HasJournalBacklog(chunk)) {
        dirty = true;
        break;
      }
    }
  }
  if (dirty) {
    ++tier_stats_.demote_aborts;
    FinishJob(op, Aborted("chunk went hot during demotion"));
    return;
  }
  const uint64_t new_view = layout->view + 1;
  for (const ReplicaRef& r : layout->replicas) {
    if (!servers_[r.server]->crashed()) {
      servers_[r.server]->FreeChunk(chunk);
    }
  }
  layout->replicas.clear();
  layout->tier = ChunkTier::kEc;
  layout->ec_shards = std::move(shards);
  layout->ec_k = static_cast<uint16_t>(k);
  layout->ec_m = static_cast<uint16_t>(m);
  layout->ec_shard_size = shard_size;
  layout->ec_version = frozen_version;
  layout->view = new_view;
  ++recovery_stats_.view_changes;
  for (const EcShardRef& sh : layout->ec_shards) {
    servers_[sh.server]->SetView(sh.shard_chunk, new_view);
  }
  op->allocated.clear();  // committed: the abort path must not free them
  ++tier_stats_.demotions;
  NotifyTierChanged(chunk, true);
  FinishJob(op, OkStatus());
}

void Master::PromoteChunk(ChunkId chunk, bool write_triggered, std::function<void(Status)> done) {
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr) {
    sim_->After(0, [done = std::move(done)]() { done(NotFound("unknown chunk")); });
    return;
  }
  if (layout->tier == ChunkTier::kReplicated && migrating_.count(chunk) == 0) {
    sim_->After(0, [done = std::move(done)]() { done(OkStatus()); });
    return;
  }
  if (migrating_.count(chunk) > 0) {
    // Queue behind the in-flight migration (demote, promote, or shard
    // repair); FinishMigration re-runs us, and the idempotent path above
    // completes immediately if someone else already promoted.
    promote_waiters_[chunk].push_back(std::move(done));
    return;
  }
  // First alive shard is the admission source (the stripe read fans out, but
  // one slot per migration keeps the controller's accounting simple).
  ChunkServer* admit_on = FirstAliveShard(*layout, -1);
  if (admit_on == nullptr) {
    ++tier_stats_.promote_failures;
    sim_->After(0, [done = std::move(done)]() { done(Unavailable("no alive shard")); });
    return;
  }
  auto op = std::make_shared<Job>();
  op->lock = chunk;
  op->failures = &tier_stats_.promote_failures;
  op->done = std::move(done);
  migrating_.insert(chunk);
  // A write is blocked on this promotion, so it competes at recovery
  // priority; policy promotions yield like scrub traffic.
  StartJob(op, admit_on,
           write_triggered ? scrub::RecoveryAdmission::Priority::kRecovery
                           : scrub::RecoveryAdmission::Priority::kScrub,
           "promotion timed out",
           [this, chunk, write_triggered, op]() { PromoteChunkNow(chunk, write_triggered, op); });
}

void Master::PromoteChunkNow(ChunkId chunk, bool write_triggered, std::shared_ptr<Job> op) {
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr || layout->tier != ChunkTier::kEc) {
    FinishJob(op, layout == nullptr ? NotFound("unknown chunk") : OkStatus());
    return;
  }
  const int k = layout->ec_k;
  const int m = layout->ec_m;
  const uint64_t shard_size = layout->ec_shard_size;
  const uint64_t chunk_size = disks_[chunk_refs_.at(chunk).disk].chunk_size;
  const uint64_t frozen_version = layout->ec_version;
  const std::vector<EcShardRef>& shards = layout->ec_shards;
  const qos::ServiceClass cls =
      write_triggered ? qos::ServiceClass::kRecovery : qos::ServiceClass::kScrub;

  // Any k alive shards suffice; data shards first minimizes reconstruction.
  ec::BackfillReadPlan plan;
  Status plan_s = PlanStripeRead(shards, k, m, /*lost=*/-1, &plan);
  if (!plan_s.ok()) {
    FailJob(op, plan_s);
    return;
  }
  // The chunk image; parity sources read into scratch of their own.
  ursa::Buffer data;
  if (recovery_carries_data_) {
    data = ursa::Buffer::Allocate(chunk_size);
  }
  ReadStripe(
      shards, k, m, plan.sources, plan.missing_data, Interval{0, shard_size},
      ChunkSlots(data, ursa::Buffer(), k, m, shard_size), cls,
      [this, chunk, write_triggered, op, data, chunk_size, frozen_version, cls,
       from = shards[plan.sources[0]].node](Status s) {
        if (op->finished) {
          return;
        }
        if (!s.ok()) {
          FailJob(op, s);
          return;
        }
        ChunkLayout* layout = FindLayout(chunk);
        if (layout == nullptr || layout->tier != ChunkTier::kEc) {
          FinishJob(op, Aborted("layout changed"));
          return;
        }
        std::vector<ServerId> targets = PlaceReplicaTargets(chunk);
        if (targets.empty()) {
          FailJob(op, ResourceExhausted("too few servers to re-replicate"));
          return;
        }
        const uint64_t new_view = layout->view + 1;
        const DiskId disk_id = chunk_refs_.at(chunk).disk;
        for (ServerId sid : targets) {
          Status alloc = servers_[sid]->AllocateChunk(chunk, new_view, disk_id);
          if (!alloc.ok()) {
            FailJob(op, alloc);
            return;
          }
          op->allocated.emplace_back(sid, chunk);
        }
        auto remaining = std::make_shared<size_t>(targets.size());
        for (ServerId sid : targets) {
          Copy write{.chunk = chunk,
                     .pieces = Pieces({Interval{0, chunk_size}}),
                     .target = servers_[sid],
                     .from = from,
                     .bytes = Slot{data},
                     .cls = cls};
          RunCopy(std::move(write), [this, chunk, op, targets, write_triggered, remaining,
                                     frozen_version](Status ws) {
            if (op->finished) {
              return;
            }
            if (!ws.ok()) {
              FailJob(op, ws);
              return;
            }
            if (--*remaining == 0) {
              CommitPromote(chunk, targets, frozen_version, write_triggered, op);
            }
          });
        }
      });
}

void Master::CommitPromote(ChunkId chunk, std::vector<ServerId> targets,
                           uint64_t frozen_version, bool write_triggered,
                           std::shared_ptr<Job> op) {
  if (op->finished) {
    return;
  }
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr || layout->tier != ChunkTier::kEc) {
    FinishJob(op, Aborted("layout changed"));
    return;
  }
  const uint64_t new_view = layout->view + 1;
  for (const EcShardRef& sh : layout->ec_shards) {
    ChunkServer* server = servers_[sh.server];
    if (!server->crashed() && server->HasChunk(sh.shard_chunk)) {
      server->FreeChunk(sh.shard_chunk);
    }
    // A crashed server keeps its stale shard image; it is unreachable and no
    // longer indexed, so it can never serve (or corrupt) future reads.
    ec_shards_.erase(sh.shard_chunk);
    if (heat_ != nullptr) {
      heat_->ClearAlias(sh.shard_chunk);
    }
  }
  layout->ec_shards.clear();
  layout->ec_k = 0;
  layout->ec_m = 0;
  layout->ec_shard_size = 0;
  layout->ec_version = 0;
  layout->tier = ChunkTier::kReplicated;
  layout->replicas.clear();
  for (ServerId sid : targets) {
    ChunkServer* server = servers_[sid];
    // The EC tier froze the replica version at demotion; restore it so the
    // promoted chunk resumes exactly where the replicated history left off.
    server->SetState(chunk, frozen_version, new_view);
    layout->replicas.push_back(
        ReplicaRef{sid, server->node(), server->on_ssd(), IsDemoted(sid)});
  }
  layout->view = new_view;
  SortLayout(layout);
  ++recovery_stats_.view_changes;
  op->allocated.clear();
  ++tier_stats_.promotions;
  if (write_triggered) {
    ++tier_stats_.write_promotions;
  }
  NotifyTierChanged(chunk, false);
  FinishJob(op, OkStatus());
}

void Master::RepairEcShard(ChunkId parent, int shard_index, std::function<void(Status)> done) {
  auto fail = [this, &done](Status s) {
    sim_->After(0, [s = std::move(s), done = std::move(done)]() mutable { done(std::move(s)); });
  };
  ChunkLayout* layout = FindLayout(parent);
  if (layout == nullptr) {
    fail(NotFound("unknown chunk"));
    return;
  }
  if (layout->tier != ChunkTier::kEc) {
    fail(OkStatus());  // promoted away in the meantime; nothing to repair
    return;
  }
  if (shard_index < 0 || shard_index >= static_cast<int>(layout->ec_shards.size())) {
    fail(InvalidArgument("bad shard index"));
    return;
  }
  if (migrating_.count(parent) > 0) {
    fail(Unavailable("migration in flight"));
    return;
  }
  ChunkServer* admit_on = FirstAliveShard(*layout, shard_index);
  if (admit_on == nullptr) {
    fail(Unavailable("fewer than k shards alive"));
    return;
  }
  auto op = std::make_shared<Job>();
  op->lock = parent;
  op->done = std::move(done);
  migrating_.insert(parent);
  StartJob(op, admit_on, scrub::RecoveryAdmission::Priority::kRecovery, "shard repair timed out",
           [this, parent, shard_index, op]() { RepairEcShardNow(parent, shard_index, op); });
}

void Master::RepairEcShardNow(ChunkId parent, int shard_index, std::shared_ptr<Job> op) {
  ChunkLayout* layout = FindLayout(parent);
  if (layout == nullptr || layout->tier != ChunkTier::kEc) {
    FinishJob(op, Aborted("layout changed"));
    return;
  }
  const int k = layout->ec_k;
  const int m = layout->ec_m;
  const int n = k + m;
  const uint64_t shard_size = layout->ec_shard_size;
  const std::vector<EcShardRef> shards = layout->ec_shards;
  const ChunkId shard_id = shards[shard_index].shard_chunk;
  const ServerId old_server = shards[shard_index].server;

  ec::BackfillReadPlan plan;
  Status plan_s = PlanStripeRead(shards, k, m, shard_index, &plan);
  if (!plan_s.ok()) {
    FinishJob(op, plan_s);
    return;
  }
  // Replacement: no machine hosting a surviving shard, falling back to any
  // alive server that doesn't already hold a piece of this stripe.
  std::vector<MachineId> exclude;
  for (int i = 0; i < n; ++i) {
    if (i != shard_index && !servers_[shards[i].server]->crashed()) {
      exclude.push_back(placement_.MachineOf(shards[i].server));
    }
  }
  auto hosts_stripe = [&shards](ChunkServer* server) {
    for (const EcShardRef& sh : shards) {
      if (server->HasChunk(sh.shard_chunk)) {
        return true;
      }
    }
    return false;
  };
  ChunkServer* replacement = nullptr;
  const std::vector<MachineId> no_exclusions;
  for (int relax = 0; relax < 2 && replacement == nullptr; ++relax) {
    const std::vector<MachineId>& excl = relax == 0 ? exclude : no_exclusions;
    for (uint64_t salt = parent; salt < parent + num_servers(); ++salt) {
      Result<ServerId> cand = placement_.PlaceReplacement(false, excl, salt);
      if (!cand.ok()) {
        continue;
      }
      ChunkServer* server = servers_[*cand];
      if (*cand != old_server && !server->crashed() && !hosts_stripe(server)) {
        replacement = server;
        break;
      }
    }
  }
  if (replacement == nullptr) {
    FinishJob(op, ResourceExhausted("no replacement server for shard"));
    return;
  }
  // The rebuilt shard gets a buffer of its own, so the replacement's store
  // does not pin the source shards' bytes.
  std::vector<Slot> slots(n);
  if (recovery_carries_data_) {
    slots[shard_index].buf = ursa::Buffer::Allocate(shard_size);
  }
  const Slot rebuilt = slots[shard_index];
  const net::NodeId from = shards[plan.sources[0]].node;
  ReadStripe(
      shards, k, m, plan.sources, {shard_index}, Interval{0, shard_size}, std::move(slots),
      qos::ServiceClass::kRecovery,
      [this, parent, shard_index, shard_id, op, rebuilt, from, shard_size, replacement,
       disk_id = chunk_refs_.at(parent).disk](Status s) {
        if (op->finished) {
          return;
        }
        if (!s.ok()) {
          FinishJob(op, s);
          return;
        }
        ChunkLayout* layout = FindLayout(parent);
        if (layout == nullptr || layout->tier != ChunkTier::kEc) {
          FinishJob(op, Aborted("layout changed"));
          return;
        }
        const uint64_t new_view = layout->view + 1;
        Status alloc = replacement->AllocateChunk(shard_id, new_view, disk_id);
        if (!alloc.ok()) {
          FinishJob(op, alloc);
          return;
        }
        op->allocated.emplace_back(replacement->id(), shard_id);
        Copy write{.chunk = shard_id,
                   .pieces = Pieces({Interval{0, shard_size}}),
                   .target = replacement,
                   .from = from,
                   .bytes = rebuilt};
        RunCopy(std::move(write), [this, parent, shard_index, shard_id, op,
                                   replacement](Status ws) {
          if (op->finished) {
            return;
          }
          if (!ws.ok()) {
            FinishJob(op, ws);
            return;
          }
          ChunkLayout* layout = FindLayout(parent);
          if (layout == nullptr || layout->tier != ChunkTier::kEc) {
            FinishJob(op, Aborted("layout changed"));
            return;
          }
          EcShardRef& sh = layout->ec_shards[shard_index];
          ChunkServer* old = servers_[sh.server];
          if (old != replacement && !old->crashed() && old->HasChunk(shard_id)) {
            old->FreeChunk(shard_id);
          }
          sh = EcShardRef{replacement->id(), replacement->node(), shard_id};
          const uint64_t new_view = layout->view + 1;
          layout->view = new_view;
          ++recovery_stats_.view_changes;
          for (const EcShardRef& other : layout->ec_shards) {
            if (!servers_[other.server]->crashed()) {
              servers_[other.server]->SetView(other.shard_chunk, new_view);
            }
          }
          op->allocated.clear();
          ++tier_stats_.shard_repairs;
          ++recovery_stats_.chunks_recovered;
          FinishJob(op, OkStatus());
        });
      });
}

void Master::RepairEcShardRange(ChunkId shard, uint64_t offset, uint64_t length,
                                std::function<void(Status)> done) {
  auto fail = [this, &done](Status s) {
    sim_->After(0, [s = std::move(s), done = std::move(done)]() mutable { done(std::move(s)); });
  };
  auto it = ec_shards_.find(shard);
  if (it == ec_shards_.end()) {
    fail(NotFound("not an EC shard"));
    return;
  }
  ChunkLayout* layout = FindLayout(it->second.parent);
  if (layout == nullptr || layout->tier != ChunkTier::kEc) {
    fail(NotFound("stale shard"));
    return;
  }
  const int target = it->second.index;
  const int k = layout->ec_k;
  const int m = layout->ec_m;
  const int n = k + m;
  const std::vector<EcShardRef> shards = layout->ec_shards;
  ChunkServer* damaged = servers_[shards[target].server];
  if (damaged->crashed()) {
    fail(Unavailable("shard server down"));
    return;
  }
  ec::BackfillReadPlan plan;
  Status plan_s = PlanStripeRead(shards, k, m, target, &plan);
  if (!plan_s.ok()) {
    fail(plan_s);
    return;
  }
  // Range repairs don't hold the parent's migration lock.
  auto op = std::make_shared<Job>();
  op->done = std::move(done);
  StartJob(op, servers_[shards[plan.sources[0]].server],
           scrub::RecoveryAdmission::Priority::kScrub, "shard range repair timed out",
           [this, shard, offset, length, target, k, m, n, sources = plan.sources, shards, damaged,
            op]() {
             // RS reconstruction is positional: byte b of the lost shard
             // needs byte b of k others, so only [offset, offset+length) of
             // each source is read.
             std::vector<Slot> slots(n);
             if (recovery_carries_data_) {
               slots[target].buf = ursa::Buffer::Allocate(length);
             }
             const Slot rebuilt = slots[target];
             ReadStripe(shards, k, m, sources, {target}, Interval{offset, length},
                        std::move(slots), qos::ServiceClass::kScrub,
                        [this, shard, offset, length, damaged, op, rebuilt,
                         from = shards[sources[0]].node](Status s) {
                          if (op->finished) {
                            return;
                          }
                          if (!s.ok()) {
                            FinishJob(op, s);
                            return;
                          }
                          Copy write{.chunk = shard,
                                     .pieces = Pieces({Interval{offset, length}}),
                                     .target = damaged,
                                     .from = from,
                                     .bytes = rebuilt,
                                     .cls = qos::ServiceClass::kScrub};
                          RunCopy(std::move(write), [this, op](Status ws) {
                            if (op->finished) {
                              return;
                            }
                            if (ws.ok()) {
                              ++tier_stats_.shard_range_repairs;
                            }
                            FinishJob(op, ws);
                          });
                        });
           });
}

std::vector<Master::TierChunkInfo> Master::ListTierChunks() const {
  std::vector<TierChunkInfo> out;
  out.reserve(chunk_refs_.size());
  for (const auto& [disk_id, meta] : disks_) {
    for (const ChunkLayout& layout : meta.chunks) {
      out.push_back(TierChunkInfo{layout.chunk, layout.tier == ChunkTier::kEc});
    }
  }
  return out;
}

uint64_t Master::PhysicalBytes() const {
  uint64_t total = 0;
  for (const auto& [disk_id, meta] : disks_) {
    for (const ChunkLayout& layout : meta.chunks) {
      if (layout.tier == ChunkTier::kEc) {
        total += layout.ec_shards.size() * layout.ec_shard_size;
      } else {
        total += layout.replicas.size() * meta.chunk_size;
      }
    }
  }
  return total;
}

uint64_t Master::LogicalBytes() const {
  uint64_t total = 0;
  for (const auto& [disk_id, meta] : disks_) {
    total += meta.chunks.size() * meta.chunk_size;
  }
  return total;
}

}  // namespace ursa::cluster
