#include "src/cluster/master.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/net/message.h"
#include "src/tier/heat_tracker.h"

namespace ursa::cluster {

namespace {
// The health score a device must reach before PreferReplica lets it break a
// rank tie.
constexpr double kHealthScoreDeadband = 1.5;

// A server id no replica has: FreshestReplica excludes nothing.
constexpr ServerId kNoServer = ~ServerId{0};
}  // namespace

// Shared state of one background job. `failures` is the tier stat a failure
// bumps (null = none).
struct Master::Job {
  uint64_t* failures = nullptr;
  bool finished = false;
  sim::EventId timeout_event = 0;
  // Chunks allocated by this job; freed again if it fails before commit.
  std::vector<std::pair<ServerId, ChunkId>> allocated;
  // EC shard ids this job created and indexed; un-indexed again if it fails
  // before commit. A shard repair rebuilds an indexed shard and adds none.
  std::vector<ChunkId> indexed;
  // Promotion pass: the targets alive at pass start — the set the commit
  // installs. Must be a majority of the targets so it is guaranteed to
  // intersect every client write quorum (the freshest acked data is on some
  // member).
  std::vector<ServerId> targets;
  // When the job started or a piece of one of its copies last landed.
  Nanos progress = 0;
  std::function<void(Status)> done;
};

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
    if (score_a != score_b && std::max(score_a, score_b) >= kHealthScoreDeadband) {
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
      // Same client-resteer protocol as demotion: the stale-view
      // VersionMismatch redirects lease holders to the new preferred order.
      if (changed) {
        InstallNextView(&layout);
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
      // Clients holding the old layout get VersionMismatch("stale view") on
      // their next op, refresh, and re-steer.
      InstallNextView(&layout);
    }
  }
}

void Master::FenceChunk(ChunkId chunk) {
  ChunkLayout* layout = FindLayout(chunk);
  if (layout != nullptr && layout->tier == ChunkTier::kReplicated) {
    InstallNextView(layout);
  }
}

void Master::InstallNextView(ChunkLayout* layout) {
  ++layout->view;
  ++recovery_stats_.view_changes;
  // Crashed members miss the install and resync through the normal repair
  // paths when restored.
  for (const ReplicaRef& r : layout->replicas) {
    if (!servers_[r.server]->crashed()) {
      servers_[r.server]->InstallView(layout->chunk, layout->view);
    }
  }
  for (const EcShardRef& sh : layout->ec_shards) {
    if (!servers_[sh.server]->crashed()) {
      servers_[sh.server]->InstallView(sh.shard_chunk, layout->view);
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
  // Never place a new replica on a server held down: it could not take the
  // chunk's writes until a repair moved it.
  auto alive = [this](ServerId sid) { return !servers_[sid]->crashed(); };
  for (uint64_t seq = 0; seq < num_chunks; ++seq) {
    Result<std::vector<ServerId>> servers =
        placement_.PlaceChunk(seq, replication, meta.id * 7919, alive);
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
  // late callbacks fall silent, then rebuild the promotions from the
  // restored layouts below (spec_replicas/spec_extents are checkpointed
  // metadata, so an acked speculative write survives the master crash).
  std::map<ChunkId, Migration> cancelled;
  for (auto it = migrations_.begin(); it != migrations_.end();) {
    if (!it->second.promotion) {
      ++it;
      continue;
    }
    if (it->second.job != nullptr) {
      EndJob(it->second.job.get());
      it->second.job = nullptr;
    }
    cancelled.emplace(it->first, std::move(it->second));
    it = migrations_.erase(it);
  }
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
  // A promotion the checkpoint does not hold is gone: fail its waiters.
  for (auto& [id, promotion] : cancelled) {
    ChunkLayout* layout = FindLayout(id);
    if (layout != nullptr && layout->speculating()) {
      continue;
    }
    for (auto& waiter : promotion.waiters) {
      sim_->After(0, [waiter = std::move(waiter)]() { waiter(Aborted("promotion lost")); });
    }
  }
  // Resume every promotion in the checkpoint — with the waiters, class and
  // open bit of the cancelled one, or open when this master never saw it (a
  // client may have written) — and re-key the tier migrator's candidate
  // queues (tiers may have moved relative to what it last observed).
  for (auto& [disk_id, meta] : disks_) {
    (void)disk_id;
    for (ChunkLayout& layout : meta.chunks) {
      if (layout.speculating()) {
        ChunkId chunk = layout.chunk;
        auto old = cancelled.find(chunk);
        Migration& promotion = migrations_[chunk];
        if (old != cancelled.end()) {
          promotion = std::move(old->second);
        } else {
          promotion.promotion = true;
          promotion.open = true;
        }
        ++tier_stats_.spec_resumes;
        sim_->After(0, [this, chunk]() { StartPass(chunk); });
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
                                          ReplicaState* state) const {
  const ReplicaRef* best = nullptr;
  for (const ReplicaRef& r : layout.replicas) {
    if (r.server == exclude || servers_[r.server]->crashed()) {
      continue;
    }
    Result<ReplicaState> st = servers_[r.server]->GetState(layout.chunk);
    if (!st.ok()) {
      continue;
    }
    // At equal versions prefer healthy over demoted, SSD over HDD, and lower
    // health score (a gray-slow source would drag the whole transfer).
    if (best == nullptr || Fresher(st->version, state->version, PreferReplica(r, *best))) {
      *state = *st;
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

void Master::RunCopy(Copy copy, std::function<void()> done) {
  if (copy.pieces.empty()) {
    // Nothing to move: land on the next event, as a copy of bytes would.
    sim_->After(0, [job = std::move(copy.job), done = std::move(done)]() {
      if (!job->finished) {
        done();
      }
    });
    return;
  }
  struct State {
    Copy copy;
    size_t issued = 0;
    size_t landed = 0;
    bool waiting = false;
    std::function<void()> done;
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
    if (st->waiting || c.job->finished) {
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
      auto landed = [this, st, self = weak.lock(), len = piece.length](const Status& s) {
        Job& job = *st->copy.job;
        if (job.finished) {
          return;
        }
        if (!s.ok()) {
          FailJob(st->copy.job, s);
          return;
        }
        if (st->copy.target != nullptr) {
          recovery_stats_.bytes_transferred += len;
        }
        job.progress = sim_->Now();
        if (++st->landed == st->copy.pieces.size()) {
          st->done();
        } else {
          (*self)();
        }
      };
      // Sends the piece's bytes to the target and writes them there as the
      // data of `version`.
      auto ship = [this, st, piece, landed](uint64_t version, const ursa::BufferView& view) {
        const Copy& c = st->copy;
        net::NodeId from = c.source != nullptr ? c.source->node() : c.from;
        uint64_t wire = net::WireBytes(net::MessageType::kRecoveryData, piece.length);
        transport_->Send(from, c.target->node(), wire, [st, piece, view, version, landed]() {
          const Copy& c = st->copy;
          c.target->HandleRecoveryWrite(c.chunk, piece.offset, piece.length, version, view,
                                        landed, c.cls);
        });
      };
      if (c.source == nullptr) {
        // The slot's bytes are final by now: the view is cut only here.
        ship(c.version, bytes.buf ? bytes.buf.View(bytes.at, piece.length) : ursa::BufferView());
        continue;
      }
      // The source's view goes on to the target as it is; a read-only copy
      // lands it in its slot, while the job still runs.
      c.source->HandleRecoveryRead(
          c.chunk, piece.offset, piece.length,
          [this, st, landed, ship, bytes](const Status& s, uint64_t version,
                                          const ursa::BufferView& view) mutable {
            if (st->copy.target == nullptr || !s.ok()) {
              if (s.ok() && bytes.buf && !st->copy.job->finished) {
                std::copy_n(view.data(), view.size(), bytes.data());
              }
              landed(s);
            } else if (!st->copy.job->finished) {
              ship(version, recovery_carries_data_ ? view : ursa::BufferView());
            }
          },
          c.cls);
    }
  };
  (*pump)();
}

std::function<void()> Master::Join(size_t copies, std::function<void()> done) {
  if (copies == 0) {
    done();
    return nullptr;
  }
  struct State {
    size_t remaining;
    std::function<void()> done;
  };
  auto st = std::make_shared<State>(State{copies, std::move(done)});
  return [st]() {
    if (--st->remaining == 0) {
      st->done();
    }
  };
}

std::shared_ptr<Master::Job> Master::StartJob(const char* timeout, uint64_t* failures,
                                              std::function<void(Status)> done) {
  auto job = std::make_shared<Job>();
  job->failures = failures;
  job->progress = sim_->Now();
  job->done = std::move(done);
  ArmTimeout(job, timeout, migration_timeout_);
  return job;
}

void Master::ArmTimeout(const std::shared_ptr<Job>& job, const char* timeout, Nanos delay) {
  job->timeout_event = sim_->After(delay, [this, job, timeout]() {
    job->timeout_event = 0;
    const Nanos idle = sim_->Now() - job->progress;
    if (idle < migration_timeout_) {
      ArmTimeout(job, timeout, migration_timeout_ - idle);  // still making progress
      return;
    }
    FailJob(job, TimedOut(timeout));
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
  return true;
}

void Master::FinishJob(std::shared_ptr<Job> job, Status s) {
  if (!EndJob(job.get())) {
    return;
  }
  if (!s.ok()) {
    // Roll back anything this job allocated or indexed but never committed.
    for (const auto& [sid, cid] : job->allocated) {
      if (!servers_[sid]->crashed() && servers_[sid]->HasChunk(cid)) {
        servers_[sid]->FreeChunk(cid);
      }
    }
    for (ChunkId shard : job->indexed) {
      ec_shards_.erase(shard);
      if (heat_ != nullptr) {
        heat_->ClearAlias(shard);
      }
    }
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

void Master::Defer(std::function<void(Status)> done, Status s) {
  sim_->After(0, [s = std::move(s), done = std::move(done)]() mutable { done(std::move(s)); });
}

std::vector<ChunkServer*> Master::Laggards(const ChunkLayout& layout, ServerId skip,
                                           uint64_t version) const {
  std::vector<ChunkServer*> laggards;
  for (const ReplicaRef& r : layout.replicas) {
    if (r.server == skip || servers_[r.server]->crashed()) {
      continue;
    }
    Result<ReplicaState> st = servers_[r.server]->GetState(layout.chunk);
    if (st.ok() && st->version < version) {
      laggards.push_back(servers_[r.server]);
    }
  }
  return laggards;
}

Master::Copy Master::CatchUp(const std::shared_ptr<Job>& job, ChunkId chunk, ChunkServer* source,
                             ChunkServer* laggard) {
  std::vector<Interval> ranges;
  if (source->ModifiedSince(chunk, laggard->GetState(chunk)->version, &ranges)) {
    ++recovery_stats_.incremental_repairs;
  } else {
    // History GC'd: transfer the whole chunk (§4.2.1).
    ++recovery_stats_.full_copies;
    ranges = {Interval{0, disks_[chunk_refs_.at(chunk).disk].chunk_size}};
  }
  return Copy{.chunk = chunk, .pieces = Pieces(ranges), .source = source, .target = laggard,
              .job = job};
}

void Master::RepairLaggards(ChunkId chunk, ChunkServer* source, const ReplicaState& fresh,
                            std::vector<ChunkServer*> laggards, std::function<void(Status)> done) {
  auto job = StartJob("replica repair timed out", nullptr, std::move(done));
  auto repaired = Join(laggards.size(), [this, job]() { FinishJob(job, OkStatus()); });
  // A laggard may receive replications while its copy runs; it takes the
  // version once its own copy has landed.
  const uint64_t view = FindLayout(chunk)->view;
  for (ChunkServer* laggard : laggards) {
    RunCopy(CatchUp(job, chunk, source, laggard), [chunk, laggard, view, fresh, repaired]() {
      laggard->InstallView(chunk, view, fresh.version, fresh.last_write_id);
      repaired();
    });
  }
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

  // Verify the suspicion before acting (§4.2.2: Ursa deliberately avoids
  // declaring replicas dead on a timeout alone). A client timeout can stem
  // from transient slowness or from a DIFFERENT stale replica failing the
  // quorum; replacing a healthy replica would discard its (possibly
  // freshest) data. If the suspect responds, repair lagging replicas
  // instead of changing the view.
  if (failed < servers_.size() && !servers_[failed]->crashed()) {
    RepairChunkReplicas(chunk, [done = std::move(done)](const Status&) { done(OkStatus()); });
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

  ReplicaState fresh;
  const ReplicaRef* source_ref = FreshestReplica(*layout, failed, &fresh);
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
  const DiskId disk = chunk_refs_.at(chunk).disk;
  Status alloc = target->AllocateChunk(chunk, layout->view + 1, disk);
  if (!alloc.ok()) {
    done(alloc);
    return;
  }

  // A recovery that fails leaves the layout as it was: the job's rollback
  // frees the replacement, so the caller's retry allocates afresh.
  auto job = StartJob("replica recovery timed out", nullptr, std::move(done));
  job->allocated.emplace_back(target->id(), chunk);
  Copy copy{.chunk = chunk, .pieces = Pieces({Interval{0, disks_[disk].chunk_size}}),
            .source = source, .target = target, .job = job};
  RunCopy(std::move(copy), [this, chunk, layout, failed, source, target, fresh, job]() {
    // Before installing the new view, bring every LAGGING survivor up to
    // versionH with real data (incremental repair from the source's journal
    // lite, or a full copy when history is gone) — a bare version
    // fast-forward would hide lost writes. The catch-ups are copies of this
    // job, so one that fails fails the recovery: no laggard moves to
    // versionH without the data behind it.
    std::vector<ChunkServer*> laggards = Laggards(*layout, failed, fresh.version);
    auto caught_up = Join(laggards.size(), [this, chunk, layout, failed, target, fresh, job]() {
      // Install the new view. Writes kept committing during the transfer,
      // so survivors may have advanced past versionH. The view current
      // now: another job may have installed one since.
      const uint64_t new_view = layout->view + 1;
      target->InstallView(chunk, new_view, fresh.version, fresh.last_write_id);
      for (ReplicaRef& r : layout->replicas) {
        if (r.server == failed) {
          r = ReplicaRef{target->id(), target->node(), target->on_ssd(),
                         IsDemoted(target->id())};
        } else {
          servers_[r.server]->InstallView(chunk, new_view, fresh.version, fresh.last_write_id);
        }
      }
      layout->view = new_view;
      // Keep the preferred primary first (a healthy SSD replica if any,
      // health-score tiebroken).
      SortLayout(layout);
      ++recovery_stats_.chunks_recovered;
      ++recovery_stats_.view_changes;
      FinishJob(job, OkStatus());
    });
    for (ChunkServer* laggard : laggards) {
      RunCopy(CatchUp(job, chunk, source, laggard), caught_up);
    }
  });
}

void Master::RepairChunkReplicas(ChunkId chunk, std::function<void(Status)> done) {
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr) {
    if (done) {
      done(NotFound("unknown chunk"));
    }
    return;
  }
  // Mid-promotion the back-fill pass owns the stripe; its retry or rollback
  // (and the post-commit stale-replica repair) covers every failure.
  if (layout->tier == ChunkTier::kEc && !layout->speculating()) {
    // Stripe healing: rebuild any shard stranded on a crashed server.
    for (size_t i = 0; i < layout->ec_shards.size(); ++i) {
      if (servers_[layout->ec_shards[i].server]->crashed()) {
        RepairEcShard(chunk, static_cast<int>(i), [](Status) {});
      }
    }
  }
  // An EC layout has no replicas, so no source and no laggards.
  ReplicaState fresh;
  const ReplicaRef* source = FreshestReplica(*layout, kNoServer, &fresh);
  RepairLaggards(chunk, source == nullptr ? nullptr : servers_[source->server], fresh,
                 Laggards(*layout, kNoServer, fresh.version), std::move(done));
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
    Defer(std::move(done), NotFound("unknown chunk"));
    return;
  }
  // Freshest alive replica OTHER than the damaged one. Version order does not
  // gate this repair: the corrupt replica may well hold the highest version —
  // the flipped bits destroyed its data, not its metadata.
  ReplicaState fresh;
  const ReplicaRef* source = FreshestReplica(*layout, corrupt_server, &fresh);
  if (source == nullptr) {
    // No healthy replica to heal from: leave the range quarantined (reads
    // keep failing with kCorruption rather than serving stale bytes).
    Defer(std::move(done), Unavailable("no healthy replica for corruption repair"));
    return;
  }
  ++recovery_stats_.corruption_repairs;
  // Scrub repair: lowest-priority class — it races nothing (reads of the
  // range stay quarantined until `done`).
  auto job = StartJob("corruption repair timed out", nullptr, std::move(done));
  Copy copy{.chunk = chunk, .pieces = Pieces({Interval{offset, length}}),
            .source = servers_[source->server], .target = servers_[corrupt_server],
            .cls = qos::ServiceClass::kScrub, .job = job};
  RunCopy(std::move(copy), [this, job]() { FinishJob(job, OkStatus()); });
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
  Result<ReplicaState> lag_state = laggard->GetState(chunk);
  if (!lag_state.ok()) {
    done(lag_state.status());
    return;
  }

  // Find the freshest peer (healthy over demoted, SSD over HDD at ties).
  ReplicaState fresh;
  const ReplicaRef* source = FreshestReplica(*layout, lagging, &fresh);
  if (source == nullptr || fresh.version <= lag_state->version) {
    done(OkStatus());  // already up to date
    return;
  }
  RepairLaggards(chunk, servers_[source->server], fresh, {laggard}, std::move(done));
}

// ---- Tiered placement (DESIGN.md §13) ----

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

bool Master::HasAliveShard(const ChunkLayout& layout) const {
  for (const EcShardRef& sh : layout.ec_shards) {
    if (!servers_[sh.server]->crashed()) {
      return true;
    }
  }
  return false;
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

void Master::ReadStripe(const std::shared_ptr<Job>& job, const std::vector<EcShardRef>& shards,
                        int k, int m, std::vector<int> sources, std::vector<int> wanted,
                        Interval range, std::vector<Slot> slots, qos::ServiceClass cls,
                        std::function<void()> done) {
  for (int idx : sources) {
    if (!slots[idx].buf && recovery_carries_data_) {
      slots[idx] = Slot{ursa::Buffer::Allocate(range.length)};  // decode-only scratch
    }
  }
  auto read = Join(sources.size(), [this, job, k, m, length = range.length, sources, slots,
                                    wanted = std::move(wanted), done = std::move(done)]() mutable {
    // All k sources are in: rebuild the wanted slots from them.
    if (recovery_carries_data_ && !wanted.empty()) {
      std::vector<const uint8_t*> in(k + m, nullptr);
      for (int i : sources) {
        in[i] = slots[i].data();
      }
      std::vector<uint8_t*> out(k + m, nullptr);
      for (int t : wanted) {
        out[t] = slots[t].data();
      }
      if (Status rs = ec::Codec(k, m).Reconstruct(in, out, length); !rs.ok()) {
        FailJob(job, rs);
        return;
      }
    }
    done();
  });
  for (int idx : sources) {
    Copy copy{.chunk = shards[idx].shard_chunk,
              .pieces = Pieces({range}),
              .source = servers_[shards[idx].server],
              .bytes = slots[idx],
              .cls = cls,
              .job = job};
    RunCopy(std::move(copy), read);
  }
}

std::shared_ptr<Master::Job> Master::StartMigration(ChunkId chunk, const char* timeout,
                                                    uint64_t* failures,
                                                    std::function<void(Status)> done) {
  std::shared_ptr<Job>& job = migrations_[chunk].job;
  job = StartJob(timeout, failures, [this, chunk, done = std::move(done)](Status s) {
    EndMigration(chunk, s);
    done(std::move(s));
  });
  return job;
}

void Master::EndMigration(ChunkId chunk, const Status& s) {
  auto it = migrations_.find(chunk);
  Migration migration = std::move(it->second);
  migrations_.erase(it);
  for (auto& waiter : migration.waiters) {
    if (migration.promotion) {
      waiter(s);
      continue;
    }
    // Re-enter through the front door: if another caller promoted the chunk
    // meanwhile, this completes immediately via the idempotent path.
    sim_->After(0, [this, chunk, waiter = std::move(waiter)]() mutable {
      PromoteChunk(chunk, std::move(waiter));
    });
  }
}

// ---- Promotion (DESIGN.md §13.6) ----

void Master::PromoteChunk(ChunkId chunk, std::function<void(Status)> done) {
  Promote(chunk, /*write=*/false, /*open=*/false, std::move(done));
}

void Master::BeginWritePromote(ChunkId chunk, std::function<void(Status)> done) {
  Promote(chunk, /*write=*/true, speculative_promote_, std::move(done));
}

void Master::Promote(ChunkId chunk, bool write, bool open, std::function<void(Status)> done) {
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr) {
    Defer(std::move(done), NotFound("unknown chunk"));
    return;
  }
  auto it = migrations_.find(chunk);
  if (layout->tier == ChunkTier::kReplicated && it == migrations_.end()) {
    Defer(std::move(done), OkStatus());
    return;
  }
  if (it != migrations_.end() && it->second.promotion) {
    // Join the promotion in flight: an open caller may write at once (and
    // from now on the promotion cannot roll back), any other waits for it.
    Migration& promotion = it->second;
    if (write) {
      promotion.cls = qos::ServiceClass::kRecovery;
    }
    if (open) {
      promotion.open = true;
      Defer(std::move(done), OkStatus());
    } else {
      promotion.waiters.push_back(std::move(done));
    }
    return;
  }
  if (it != migrations_.end()) {
    // Queue behind the in-flight demotion or shard repair; its end re-runs
    // us, and the idempotent path above completes immediately if someone
    // else already promoted.
    it->second.waiters.push_back(std::move(done));
    return;
  }
  if (!HasAliveShard(*layout)) {
    ++tier_stats_.promote_failures;
    Defer(std::move(done), Unavailable("no alive shard"));
    return;
  }
  std::vector<ServerId> targets = PlaceReplicaTargets(chunk);
  if (targets.empty()) {
    ++tier_stats_.promote_failures;
    Defer(std::move(done), ResourceExhausted("too few servers to re-replicate"));
    return;
  }
  // Allocate all-or-nothing, then install. Targets start at the frozen EC
  // version AND the *current* view: shard reads stay valid and a client
  // needs no resteer — the view bumps only at commit.
  const DiskId disk_id = chunk_refs_.at(chunk).disk;
  std::vector<ReplicaRef> refs;
  for (size_t i = 0; i < targets.size(); ++i) {
    ChunkServer* server = servers_[targets[i]];
    Status alloc = server->AllocateChunk(chunk, layout->view, disk_id);
    if (!alloc.ok()) {
      for (size_t j = 0; j < i; ++j) {
        servers_[targets[j]]->FreeChunk(chunk);
      }
      ++tier_stats_.promote_failures;
      Defer(std::move(done), alloc);
      return;
    }
    server->InstallView(chunk, layout->view, layout->ec_version);
    server->EnableWriteShield(chunk);
    refs.push_back(ReplicaRef{targets[i], server->node(), server->on_ssd(),
                              IsDemoted(targets[i])});
  }
  layout->spec_replicas = std::move(refs);
  layout->spec_extents.clear();
  Migration& promotion = migrations_[chunk];
  promotion.promotion = true;
  promotion.cls = write ? qos::ServiceClass::kRecovery : qos::ServiceClass::kScrub;
  promotion.open = open;
  if (!open) {
    promotion.waiters.push_back(std::move(done));
  }
  StartPass(chunk);
  if (open) {
    Defer(std::move(done), OkStatus());  // no ack gate: the caller may write at once
  }
}

void Master::RegisterSpecExtent(ChunkId chunk, uint64_t offset, uint64_t length) {
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr || !layout->speculating()) {
    return;  // committed (or never speculated) — extents are moot
  }
  InsertInterval(&layout->spec_extents, Interval{offset, length});
}

void Master::StartPass(ChunkId chunk) {
  auto it = migrations_.find(chunk);
  if (it == migrations_.end() || !it->second.promotion || it->second.job != nullptr) {
    return;  // committed or rolled back while the retry was pending
  }
  Migration& promotion = it->second;
  promotion.job = StartJob("promotion timed out", nullptr, nullptr);
  promotion.job->done = [this, chunk, id = promotion.job.get()](Status s) {
    FailPass(chunk, id, std::move(s));
  };
  RunPass(chunk, promotion.job);
}

void Master::RunPass(ChunkId chunk, std::shared_ptr<Job> pass) {
  const ChunkLayout& layout = *FindLayout(chunk);
  const qos::ServiceClass cls = migrations_.at(chunk).cls;
  const int k = layout.ec_k;
  const int m = layout.ec_m;
  const uint64_t shard_size = layout.ec_shard_size;
  const uint64_t chunk_size = disks_[chunk_refs_.at(chunk).disk].chunk_size;
  const std::vector<EcShardRef>& shards = layout.ec_shards;

  // The commit installs exactly the targets this pass back-fills, so fix
  // the set now: every target alive at this instant, a majority of them.
  pass->targets.clear();
  for (const ReplicaRef& r : layout.spec_replicas) {
    if (!servers_[r.server]->crashed()) {
      pass->targets.push_back(r.server);
    }
  }
  if (pass->targets.size() < layout.spec_replicas.size() / 2 + 1) {
    FinishJob(pass, Unavailable("promotion target majority down"));
    return;
  }
  // Any k alive shards suffice; data shards first minimizes reconstruction.
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
  ReadStripe(
      pass, shards, k, m, plan.sources, plan.missing_data, Interval{0, shard_size},
      ChunkSlots(data, ursa::Buffer(), k, m, shard_size), cls,
      [this, chunk, pass, data, chunk_size, cls, version = layout.ec_version,
       from = shards[plan.sources[0]].node]() {
        auto written = Join(pass->targets.size(), [this, chunk, pass]() {
          CommitPromotion(chunk, pass);
        });
        for (ServerId sid : pass->targets) {
          Copy write{.chunk = chunk,
                     .pieces = Pieces({Interval{0, chunk_size}}),
                     .target = servers_[sid],
                     .from = from,
                     .bytes = Slot{data},
                     .version = version,
                     .cls = cls,
                     .job = pass};
          RunCopy(std::move(write), written);
        }
      });
}

void Master::CommitPromotion(ChunkId chunk, std::shared_ptr<Job> pass) {
  EndJob(pass.get());
  ChunkLayout* layout = FindLayout(chunk);
  const Migration& promotion = migrations_.at(chunk);
  if (promotion.cls == qos::ServiceClass::kRecovery) {
    ++tier_stats_.write_promotions;
  }
  if (promotion.open) {
    ++tier_stats_.spec_promotions;
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
  std::set<ServerId> committed(pass->targets.begin(), pass->targets.end());
  for (ServerId sid : pass->targets) {
    ChunkServer* server = servers_[sid];
    // The view alone: an open promotion's targets carry client-advanced
    // versions. A target that crashed after completing its back-fill misses
    // the install (like SetServerDemoted's view pushes) and resyncs through
    // the stale-replica repair path once restored.
    if (!server->crashed()) {
      server->InstallView(chunk, new_view);
    }
    server->DisableWriteShield(chunk);
    layout->replicas.push_back(
        ReplicaRef{sid, server->node(), server->on_ssd(), IsDemoted(sid)});
  }
  // Targets dropped at pass start (crashed then): free any that have come
  // back — their image is a hole-ridden mix and they are not in the new
  // replica set.
  for (const ReplicaRef& r : layout->spec_replicas) {
    ChunkServer* server = servers_[r.server];
    if (committed.count(r.server) == 0 && !server->crashed() && server->HasChunk(chunk)) {
      server->FreeChunk(chunk);
    }
  }
  layout->spec_replicas.clear();
  layout->spec_extents.clear();
  layout->view = new_view;
  SortLayout(layout);
  ++recovery_stats_.view_changes;
  ++tier_stats_.promotions;
  NotifyTierChanged(chunk, false);
  EndMigration(chunk, OkStatus());
}

void Master::FailPass(ChunkId chunk, const Job* pass, Status s) {
  auto it = migrations_.find(chunk);
  if (it == migrations_.end() || it->second.job.get() != pass) {
    return;
  }
  Migration& promotion = it->second;
  promotion.job = nullptr;
  ChunkLayout* layout = FindLayout(chunk);
  // A client whose layout already shows the targets writes to them without
  // asking; a target past the frozen version means one did.
  bool written = false;
  for (const ReplicaRef& r : layout->spec_replicas) {
    Result<ReplicaState> st = servers_[r.server]->GetState(chunk);
    written = written || (st.ok() && st->version > layout->ec_version);
  }
  if (promotion.open || written) {
    ++tier_stats_.spec_backfill_retries;
    sim_->After(spec_retry_, [this, chunk]() { StartPass(chunk); });
    return;
  }
  for (const ReplicaRef& r : layout->spec_replicas) {
    ChunkServer* server = servers_[r.server];
    if (!server->crashed() && server->HasChunk(chunk)) {
      server->FreeChunk(chunk);
    }
  }
  layout->spec_replicas.clear();
  layout->spec_extents.clear();
  ++tier_stats_.promote_failures;
  EndMigration(chunk, s);
}

void Master::DemoteChunkToEc(ChunkId chunk, int k, int m, std::function<void(Status)> done) {
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr) {
    Defer(std::move(done), NotFound("unknown chunk"));
    return;
  }
  if (layout->tier != ChunkTier::kReplicated) {
    Defer(std::move(done), AlreadyExists("chunk already EC"));
    return;
  }
  if (migrations_.count(chunk) > 0) {
    Defer(std::move(done), Unavailable("migration already in flight"));
    return;
  }
  if (k < 1 || m < 1) {
    Defer(std::move(done), InvalidArgument("bad EC geometry"));
    return;
  }
  auto ref = chunk_refs_.find(chunk);
  const DiskMeta& disk = disks_[ref->second.disk];
  if (disk.chunk_size % static_cast<uint64_t>(k) != 0) {
    Defer(std::move(done), InvalidArgument("chunk size not divisible by k"));
    return;
  }
  if (heat_ != nullptr && heat_->InflightWrites(chunk) > 0) {
    Defer(std::move(done), Unavailable("writes in flight"));
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
      Defer(std::move(done), Unavailable("journal backlog pending"));
      return;
    }
    Result<ReplicaState> st = server->GetState(chunk);
    if (!st.ok()) {
      continue;
    }
    if (!have_version) {
      version0 = st->version;
      have_version = true;
    } else if (st->version != version0) {
      // Divergent replicas mean a repair is due; demote after it heals.
      Defer(std::move(done), Unavailable("replicas diverge"));
      return;
    }
    if (source == nullptr || PreferReplica(r, *source_ref)) {
      source = server;
      source_ref = &r;
    }
  }
  if (source == nullptr) {
    Defer(std::move(done), Unavailable("no alive replica"));
    return;
  }

  auto op = StartMigration(chunk, "demotion timed out", &tier_stats_.demote_failures,
                           std::move(done));
  const uint64_t chunk_size = disk.chunk_size;
  const uint64_t shard_size = chunk_size / static_cast<uint64_t>(k);
  const int n = k + m;
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
            .cls = qos::ServiceClass::kScrub,
            .job = op};
  RunCopy(std::move(read), [this, chunk, k, m, n, shard_size, chunk_size, op, source,
                            slots = ChunkSlots(data, parity, k, m, shard_size),
                            targets = *targets, disk_id = disk.id, version0]() mutable {
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
      ec::Codec(k, m).Encode(data, parity, shard_size);
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
      op->indexed.push_back(shard_id);
      ec_shards_[shard_id] = EcShardInfo{chunk, i};
      if (heat_ != nullptr) {
        heat_->SetAlias(shard_id, chunk);
      }
      shards[i] = EcShardRef{targets[i], target->node(), shard_id};
    }

    auto written = Join(n, [this, chunk, op, shards, version0, k, m, shard_size]() {
      CommitDemote(chunk, shards, version0, k, m, shard_size, op);
    });
    for (int i = 0; i < n; ++i) {
      Copy write{.chunk = shards[i].shard_chunk,
                 .pieces = Pieces({Interval{0, shard_size}}),
                 .target = servers_[shards[i].server],
                 .from = source->node(),
                 .bytes = slots[i],
                 .version = version0,
                 .cls = qos::ServiceClass::kScrub,
                 .job = op};
      RunCopy(std::move(write), written);
    }
  });
}

void Master::CommitDemote(ChunkId chunk, std::vector<EcShardRef> shards, uint64_t frozen_version,
                          int k, int m, uint64_t shard_size, std::shared_ptr<Job> op) {
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
      Result<ReplicaState> st = server->GetState(chunk);
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
  InstallNextView(layout);
  op->allocated.clear();  // committed: the abort path must not free them
  op->indexed.clear();
  ++tier_stats_.demotions;
  NotifyTierChanged(chunk, true);
  FinishJob(op, OkStatus());
}

void Master::RepairEcShard(ChunkId parent, int shard_index, std::function<void(Status)> done) {
  ChunkLayout* layout = FindLayout(parent);
  if (layout == nullptr) {
    Defer(std::move(done), NotFound("unknown chunk"));
    return;
  }
  if (layout->tier != ChunkTier::kEc) {
    Defer(std::move(done), OkStatus());  // promoted away in the meantime; nothing to repair
    return;
  }
  if (shard_index < 0 || shard_index >= static_cast<int>(layout->ec_shards.size())) {
    Defer(std::move(done), InvalidArgument("bad shard index"));
    return;
  }
  if (migrations_.count(parent) > 0) {
    Defer(std::move(done), Unavailable("migration in flight"));
    return;
  }
  auto op = StartMigration(parent, "shard repair timed out", nullptr, std::move(done));
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
  Status alloc =
      replacement->AllocateChunk(shard_id, layout->view + 1, chunk_refs_.at(parent).disk);
  if (!alloc.ok()) {
    FinishJob(op, alloc);
    return;
  }
  op->allocated.emplace_back(replacement->id(), shard_id);
  RebuildShard(shards, k, m, plan.sources, shard_index, Interval{0, shard_size}, replacement,
               qos::ServiceClass::kRecovery, op,
               [this, parent, shard_index, shard_id, op, replacement]() {
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
                 InstallNextView(layout);
                 op->allocated.clear();
                 ++tier_stats_.shard_repairs;
                 ++recovery_stats_.chunks_recovered;
                 FinishJob(op, OkStatus());
               });
}

void Master::RepairEcShardRange(ChunkId shard, uint64_t offset, uint64_t length,
                                std::function<void(Status)> done) {
  auto it = ec_shards_.find(shard);
  if (it == ec_shards_.end()) {
    Defer(std::move(done), NotFound("not an EC shard"));
    return;
  }
  ChunkLayout* layout = FindLayout(it->second.parent);
  if (layout == nullptr || layout->tier != ChunkTier::kEc) {
    Defer(std::move(done), NotFound("stale shard"));
    return;
  }
  const int target = it->second.index;
  const int k = layout->ec_k;
  const int m = layout->ec_m;
  const std::vector<EcShardRef> shards = layout->ec_shards;
  ChunkServer* damaged = servers_[shards[target].server];
  if (damaged->crashed()) {
    Defer(std::move(done), Unavailable("shard server down"));
    return;
  }
  ec::BackfillReadPlan plan;
  Status plan_s = PlanStripeRead(shards, k, m, target, &plan);
  if (!plan_s.ok()) {
    Defer(std::move(done), plan_s);
    return;
  }
  // Range repairs don't hold the parent's migration record.
  auto op = StartJob("shard range repair timed out", nullptr, std::move(done));
  // RS reconstruction is positional: byte b of the lost shard needs byte b
  // of k others, so only [offset, offset+length) of each source is read.
  RebuildShard(shards, k, m, plan.sources, target, Interval{offset, length}, damaged,
               qos::ServiceClass::kScrub, op, [this, op]() {
                 ++tier_stats_.shard_range_repairs;
                 FinishJob(op, OkStatus());
               });
}

void Master::RebuildShard(const std::vector<EcShardRef>& shards, int k, int m,
                          const std::vector<int>& sources, int lost, Interval range,
                          ChunkServer* target, qos::ServiceClass cls, std::shared_ptr<Job> job,
                          std::function<void()> written) {
  // The rebuilt range gets a buffer of its own, so the target's store does
  // not pin the source shards' bytes.
  std::vector<Slot> slots(static_cast<size_t>(k + m));
  if (recovery_carries_data_) {
    slots[lost].buf = ursa::Buffer::Allocate(range.length);
  }
  const Slot rebuilt = slots[lost];
  ReadStripe(job, shards, k, m, sources, {lost}, range, std::move(slots), cls,
             [this, job, rebuilt, range, target, cls, shard = shards[lost].shard_chunk,
              from = shards[sources[0]].node, written = std::move(written)]() {
               Copy write{.chunk = shard,
                          .pieces = Pieces({range}),
                          .target = target,
                          .from = from,
                          .bytes = rebuilt,
                          .cls = cls,
                          .job = job};
               RunCopy(std::move(write), written);
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
