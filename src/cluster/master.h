// The global master (§3.1): virtual-disk metadata, chunk placement, leases,
// and failure recovery (view change, §4.2.2).
//
// The master is deliberately off the normal I/O path — clients talk to it
// only for disk create/open, lease renewal, and failure reports — so its
// operations are modelled as direct in-process calls (their cost is not part
// of any measured data path, matching the paper's design goal).
#ifndef URSA_CLUSTER_MASTER_H_
#define URSA_CLUSTER_MASTER_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/chunk_server.h"
#include "src/cluster/placement.h"
#include "src/cluster/types.h"
#include "src/common/buffer.h"
#include "src/ec/reed_solomon.h"
#include "src/net/transport.h"
#include "src/scrub/recovery_admission.h"

namespace ursa::tier {
class HeatTracker;
}  // namespace ursa::tier

namespace ursa::cluster {

using ClientId = uint64_t;

struct DiskMeta {
  DiskId id = 0;
  std::string name;
  uint64_t size = 0;
  int replication = 3;
  int stripe_group = 2;          // chunks per striping group (§3.4)
  uint64_t stripe_unit = 512 * kKiB;  // interleaving granularity
  uint64_t chunk_size = storage::kDefaultChunkSize;
  std::vector<ChunkLayout> chunks;

  // Lease state (§4.1): at most one client holds a disk at a time.
  ClientId lease_holder = 0;
  Nanos lease_expiry = 0;
};

struct RecoveryStats {
  uint64_t chunks_recovered = 0;
  uint64_t bytes_transferred = 0;
  uint64_t incremental_repairs = 0;
  uint64_t full_copies = 0;
  uint64_t view_changes = 0;
  uint64_t corruption_repairs = 0;  // CRC-detected ranges re-replicated
  uint64_t demotions = 0;           // health-driven replica demotions
  uint64_t undemotions = 0;         // recoveries back to full standing
};

// Tiering counters (DESIGN.md §13).
struct TierStats {
  uint64_t demotions = 0;           // replicated -> EC commits
  uint64_t demote_aborts = 0;       // precondition races caught at commit
  uint64_t demote_failures = 0;     // setup/transfer failures (incl. timeouts)
  uint64_t promotions = 0;          // EC -> replicated commits
  uint64_t write_promotions = 0;    // promotions triggered by a client write
  uint64_t promote_failures = 0;
  uint64_t shard_repairs = 0;       // full shard rebuilds onto a new server
  uint64_t shard_range_repairs = 0;  // scrub-corruption stripe repairs
  uint64_t ec_bytes_encoded = 0;     // logical bytes pushed through Encode
  uint64_t spec_promotions = 0;      // promotions committed via speculation
  uint64_t spec_backfill_retries = 0;  // failed back-fill passes (retried)
  uint64_t spec_resumes = 0;         // back-fills restarted by Restore()
};

class Master {
 public:
  Master(sim::Simulator* sim, net::Transport* transport, Placement placement,
         std::vector<ChunkServer*> servers);
  ~Master();  // out-of-line: members hold unique_ptrs to private impl types

  // ---- Virtual disk management ----

  Result<DiskId> CreateDisk(const std::string& name, uint64_t size, int replication,
                            int stripe_group);

  // Grants (or renews) the lease and returns the disk's layout. Fails with
  // kUnavailable when another client holds an unexpired lease.
  Result<const DiskMeta*> OpenDisk(DiskId disk, ClientId client);
  Status RenewLease(DiskId disk, ClientId client);
  Status CloseDisk(DiskId disk, ClientId client);

  Result<const DiskMeta*> GetDisk(DiskId disk) const;

  // ---- Failure handling (§4.2.2) ----

  // Client-reported replica failure: allocate a replacement, transfer the
  // newest data (from the survivor with the highest version among a majority),
  // incremental-repair lagging survivors, then bump the chunk's view.
  // `done` runs when the new view is installed.
  void ReportReplicaFailure(ChunkId chunk, ServerId failed, std::function<void(Status)> done);

  // Incremental repair of a lagging replica using a peer's journal lite
  // (§4.2.1); falls back to a full chunk copy when history is gone.
  void RepairReplica(ChunkId chunk, ServerId lagging, std::function<void(Status)> done);

  // Repairs every lagging replica of `chunk` toward the freshest alive one
  // (fire-and-forget; used when a client reports a degraded commit).
  void RepairChunkReplicas(ChunkId chunk);

  // Re-replicates [offset, offset+length) of `chunk` onto `corrupt_server`
  // from the freshest OTHER alive replica. Unlike RepairReplica, this runs
  // even when the damaged replica holds the highest version: CRC-detected
  // corruption destroys data without lowering the version, so version
  // comparison alone would never repair it. `done` runs once the range is
  // rewritten (and must only then lift the read quarantine).
  void RepairCorruptRange(ChunkId chunk, ServerId corrupt_server, uint64_t offset,
                          uint64_t length, std::function<void(Status)> done);

  // ---- Health-driven demotion (DESIGN.md §10) ----

  // Marks every replica hosted by `server` as demoted (or restores it).
  // Demotion re-sorts each affected layout so a healthy replica leads, and
  // bumps the layout's view — lease-holding clients hit a "stale view"
  // VersionMismatch on their next op, refresh, and steer away. No data
  // moves: a demoted replica keeps serving replication writes and remains a
  // last-resort read target, so a wrong demotion costs latency, never
  // durability. Recovery source/placement decisions also tie-break away
  // from demoted servers (but a uniquely-freshest demoted replica is still
  // used — correctness beats steering).
  void SetServerDemoted(ServerId server, bool demoted);
  bool IsDemoted(ServerId server) const { return demoted_.count(server) > 0; }
  const std::set<ServerId>& demoted_servers() const { return demoted_; }

  // ---- Continuous health weighting (DESIGN.md §11) ----

  // Supplies the HealthMonitor's numeric score for a server's device (windowed
  // p99 / peer median; 0 while unscored). With a provider installed, replica
  // ordering and recovery-source selection break rank ties toward the lower
  // score once either side crosses `health_score_deadband` — a *suspect*
  // device sheds read preference gracefully before the binary demotion flag
  // ever flips.
  void SetHealthScoreProvider(std::function<double(ServerId)> fn) {
    health_score_ = std::move(fn);
  }
  void set_health_score_deadband(double d) { health_score_deadband_ = d; }

  // Re-sorts every layout under the current health scores; bumps the view
  // (and installs it) only for layouts whose replica order actually changed.
  // The cluster calls this on every health transition, including ->suspect.
  void OnHealthScoresChanged();

  // ---- Recovery admission (DESIGN.md §11) ----

  // Installs the cluster-wide per-source transfer admission controller.
  // Every background job the master runs (DESIGN.md §14) — failure recovery,
  // demotion-steered repair, scrub corruption repair, migrations, shard
  // repair — acquires a source slot before its first piece; scrub-class jobs
  // yield to recovery-class ones.
  void SetAdmission(scrub::RecoveryAdmission* admission) { admission_ = admission; }
  scrub::RecoveryAdmission* admission() const { return admission_; }

  // ---- Scrub support (DESIGN.md §11) ----

  // Every chunk's current placement (the scrub coordinator's sweep source).
  struct ChunkPlacement {
    ChunkId chunk = 0;
    uint64_t size = 0;
    std::vector<ServerId> servers;
  };
  std::vector<ChunkPlacement> ListChunks() const;

  // ---- Tiered placement (DESIGN.md §13) ----

  // Installs the cluster heat tracker. With one installed, demotion refuses
  // chunks with writes in flight and registers shard->parent aliases so
  // reads of EC shards keep heating the parent chunk.
  void SetHeatTracker(tier::HeatTracker* heat) { heat_ = heat; }

  // Demotes a replicated chunk to a k+m EC stripe: reads the freshest
  // replica, encodes, writes k data + m parity shards to distinct servers
  // (machine-spread), then — atomically, in one event — re-verifies the
  // preconditions (version unchanged, no write in flight) and commits by
  // freeing the replicas and installing the EC layout. Any precondition
  // change aborts and frees the shards instead; the chunk stays replicated.
  // Transfer I/O runs under kScrub QoS and takes a kScrub admission slot
  // (policy traffic yields to failure recovery).
  void DemoteChunkToEc(ChunkId chunk, int k, int m, std::function<void(Status)> done);

  // Promotes an EC'd chunk back to replication: reads k shards (degraded
  // reconstruct if some are down), writes full replicas, restores the frozen
  // replica version, frees the shards. Idempotent — promoting a replicated
  // chunk succeeds immediately, and concurrent requests for a chunk whose
  // migration is in flight queue behind it. `write_triggered` promotions
  // (client write to an EC'd chunk, acked only after promotion) run under
  // kRecovery QoS/priority; policy promotions under kScrub.
  void PromoteChunk(ChunkId chunk, bool write_triggered, std::function<void(Status)> done);

  // Speculative write promotion (PariX-style, DESIGN.md §13.6): allocates
  // fresh replica targets for a cold chunk *at the current view*, installs
  // them as the layout's spec_replicas, arms the background shard back-fill,
  // and completes `done` immediately — the client then writes its new data
  // straight to the spec replicas and acks on quorum durability while the
  // old bytes stream in behind it. Falls back to the blocking PromoteChunk
  // when speculation is disabled or placement fails. Idempotent: a chunk
  // that is already replicated or already speculating completes at once.
  void BeginWritePromote(ChunkId chunk, std::function<void(Status)> done);

  // Client post-ack notification: [offset, offset+length) of `chunk` is now
  // durable on the spec replica quorum. The master merges it into the
  // layout's spec_extents so a freshly-opened client routes reads of those
  // bytes at the spec replicas instead of the (stale) shards. Fire-and-forget
  // and monotonic — replays and duplicates are harmless.
  void RegisterSpecExtent(ChunkId chunk, uint64_t offset, uint64_t length);

  void set_speculative_promote(bool on) { speculative_promote_ = on; }
  bool speculative_promote() const { return speculative_promote_; }

  // Delay before a failed back-fill pass is retried.
  void set_spec_retry_delay(Nanos d) { spec_retry_ = d; }

  // Observer fired with (chunk, now_ec) whenever a chunk's tier changes —
  // demote/promote/speculative commits and master Restore. The tier
  // migrator uses it to keep its heat-indexed candidate queues keyed
  // without rescanning the chunk population.
  void SetTierChangeListener(std::function<void(ChunkId, bool)> fn) {
    tier_changed_ = std::move(fn);
  }

  // Rebuilds shard `shard_index` of EC'd chunk `parent` from k surviving
  // shards onto a replacement server (kRecovery class + admission slot).
  void RepairEcShard(ChunkId parent, int shard_index, std::function<void(Status)> done);

  // True when `id` is an EC shard chunk (not a client-addressable chunk).
  bool IsEcShard(ChunkId id) const { return ec_shards_.count(id) > 0; }

  // Tier scan source: every client-addressable chunk and its current tier.
  struct TierChunkInfo {
    ChunkId chunk = 0;
    bool ec = false;
  };
  std::vector<TierChunkInfo> ListTierChunks() const;

  // Capacity accounting: physical bytes currently allocated for chunk data
  // (replicas * chunk_size + shards * shard_size) vs logical disk bytes.
  uint64_t PhysicalBytes() const;
  uint64_t LogicalBytes() const;

  const TierStats& tier_stats() const { return tier_stats_; }

  // Upper bound on one migration's lifetime: a transfer wedged past this
  // (e.g. a server crashing mid-copy silently drops the piece) aborts,
  // releasing its admission slot and any allocated shards.
  void set_migration_timeout(Nanos t) { migration_timeout_ = t; }

  // ---- Master recovery (§4.2.2: "the master is recovered first") ----
  // The master's durable state is its metadata; a restart restores the
  // checkpoint and re-verifies replica versions lazily through the normal
  // repair paths (chunk state lives on the chunk servers, GFS-style).
  struct Checkpoint {
    std::map<DiskId, DiskMeta> disks;
    DiskId next_disk_id = 1;
    ChunkId next_chunk_id = 1;
  };
  Checkpoint TakeCheckpoint() const;
  void Restore(const Checkpoint& checkpoint);

  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  // Publishes recovery counters and disk/chunk population gauges. The
  // registry must outlive this master.
  void RegisterMetrics(obs::MetricsRegistry* registry);

  ChunkServer* server(ServerId id) const { return servers_[id]; }
  size_t num_servers() const { return servers_.size(); }
  const Placement& placement() const { return placement_; }

  // Lease term granted to clients.
  Nanos lease_term() const { return lease_term_; }
  void set_lease_term(Nanos term) { lease_term_ = term; }

  // Chunk size for newly created disks (set by Cluster from its config).
  uint64_t chunk_size() const { return chunk_size_; }
  void set_chunk_size(uint64_t size) { chunk_size_ = size; }

  // Transfer piece size and window for recovery copies.
  void set_recovery_piece(uint64_t bytes) { recovery_piece_ = bytes; }
  void set_recovery_window(int pieces) { recovery_window_ = pieces; }

  // Whether recovery transfers carry real bytes (default) or model timing
  // only (large-scale benchmarks, where materializing chunk contents in the
  // page stores would waste memory).
  void set_recovery_carries_data(bool v) { recovery_carries_data_ = v; }

 private:
  struct ChunkRef {
    DiskId disk;
    size_t index;  // position in DiskMeta::chunks
  };

  // Rank-first replica preference with the continuous-health tiebreak.
  bool PreferReplica(const ReplicaRef& a, const ReplicaRef& b) const;
  void SortLayout(ChunkLayout* layout);

  ChunkLayout* FindLayout(ChunkId chunk);

  // Freshest alive replica of `layout` other than `exclude`: highest version
  // first, then PreferReplica. Null when none answers; `*version` gets its
  // version.
  const ReplicaRef* FreshestReplica(const ChunkLayout& layout, ServerId exclude,
                                    uint64_t* version) const;

  // A fresh replica set for `chunk`, placed as CreateDisk placed it and topped
  // up around crashed servers and current holders; empty when fewer than the
  // disk's replication factor qualify.
  std::vector<ServerId> PlaceReplicaTargets(ChunkId chunk) const;

  // ---- Background copy engine (DESIGN.md §14) ----

  // Bytes of one copied range in memory: the range's first byte sits at
  // `buf[at]`. An empty `buf` is a timing-only copy.
  struct Slot {
    ursa::Buffer buf;
    uint64_t at = 0;
    uint8_t* data() { return buf ? buf.data() + at : nullptr; }
  };

  // One windowed copy: `pieces` of `chunk` go through at most
  // recovery_window_ pieces in flight. With a `source` and no `target` each
  // piece is read into `bytes`; with a `target` and no `source` each piece
  // ships from node `from` out of `bytes` and is recovery-written (through
  // the write shield when `shielded`); with both, each piece is read, sent
  // and written in its own buffer. A copy with a target pauses at the
  // target's gate high watermark for `cls` and resumes when it drains.
  struct Copy {
    ChunkId chunk = 0;
    std::vector<Interval> pieces = {};
    ChunkServer* source = nullptr;
    ChunkServer* target = nullptr;
    net::NodeId from = 0;
    Slot bytes = {};
    qos::ServiceClass cls = qos::ServiceClass::kRecovery;
    bool shielded = false;
  };
  void RunCopy(Copy copy, std::function<void(Status)> done);

  // `ranges` split at recovery_piece_.
  std::vector<Interval> Pieces(const std::vector<Interval>& ranges) const;

  // One background job: a replica copy, a migration, a shard repair or a
  // speculative back-fill pass. Exactly one of its own completion, its
  // timeout, or a cancel ends it; late callbacks see `finished` and back off.
  struct Job;
  struct SpecState;

  // Arms the job's timeout (when `timeout` names one), then runs `body` once
  // an admission slot on `source` is granted — at once without a controller.
  void StartJob(const std::shared_ptr<Job>& job, ChunkServer* source,
                scrub::RecoveryAdmission::Priority priority, const char* timeout,
                std::function<void()> body);
  // Marks the job finished, cancels its timeout and releases its slot;
  // false when it had already ended.
  bool EndJob(Job* job);
  // Ends the job; on failure frees what it allocated. Then drops its chunk's
  // migration mark and runs `done`.
  void FinishJob(std::shared_ptr<Job> job, Status s);
  // FinishJob that also counts the failure in the job's tier stat.
  void FailJob(std::shared_ptr<Job> job, Status s);

  // Copies `ranges` of `chunk` from `source` to `target` as a job admitted
  // on `source` (scrub-class copies yield to recovery-class ones).
  void CopyReplica(ChunkId chunk, ChunkServer* source, ChunkServer* target,
                   std::vector<Interval> ranges, qos::ServiceClass cls,
                   std::function<void(Status)> done);
  // Brings `laggard` up to `source`: the ranges `source`'s journal lite
  // records since `from_version`, or the whole chunk when history is gone.
  void CatchUp(ChunkId chunk, ChunkServer* source, ChunkServer* laggard, uint64_t from_version,
               std::function<void(Status)> done);

  // ---- Tiering internals (DESIGN.md §13) ----

  struct EcShardInfo {
    ChunkId parent = 0;
    int index = 0;
  };

  ec::ReedSolomon* Codec(int k, int m);

  // Picks `n` distinct alive servers, round-robining machines for spread.
  Result<std::vector<ServerId>> PickShardServers(int n, uint64_t salt) const;

  // First alive server holding a shard of `layout` other than shard `skip`
  // (a stripe job's admission source); null when there is none.
  ChunkServer* FirstAliveShard(const ChunkLayout& layout, int skip) const;

  // Picks k alive shards of a stripe to read, data shards first, treating
  // shard `lost` (-1 = none) as gone; `plan->missing_data` lists the data
  // shards to rebuild.
  Status PlanStripeRead(const std::vector<EcShardRef>& shards, int k, int m, int lost,
                        ec::BackfillReadPlan* plan) const;

  // Slots of a whole-chunk stripe image: the data shards back to back in
  // `data` (the chunk image), the parity shards back to back in `parity`
  // (an empty `parity` leaves their slots without a buffer).
  static std::vector<Slot> ChunkSlots(const ursa::Buffer& data, const ursa::Buffer& parity, int k,
                                      int m, uint64_t shard_size);

  // Reads `range` of each `sources` shard into its slot (scratch of its own
  // when the slot has no buffer), then rebuilds the `wanted` slots from them;
  // `done` runs once, with the first failure.
  void ReadStripe(const std::vector<EcShardRef>& shards, int k, int m, std::vector<int> sources,
                  std::vector<int> wanted, Interval range, std::vector<Slot> slots,
                  qos::ServiceClass cls, std::function<void(Status)> done);

  void DemoteChunkNow(ChunkId chunk, int k, int m, std::shared_ptr<Job> op);
  void PromoteChunkNow(ChunkId chunk, bool write_triggered, std::shared_ptr<Job> op);
  void RepairEcShardNow(ChunkId parent, int shard_index, std::shared_ptr<Job> op);
  void RepairEcShardRange(ChunkId shard, uint64_t offset, uint64_t length,
                          std::function<void(Status)> done);

  // Atomic commit steps — each runs in one event, re-verifying preconditions
  // before mutating the layout (nothing can interleave mid-function).
  void CommitDemote(ChunkId chunk, std::vector<EcShardRef> shards, uint64_t frozen_version,
                    int k, int m, uint64_t shard_size, std::shared_ptr<Job> op);
  void CommitPromote(ChunkId chunk, std::vector<ServerId> targets, uint64_t frozen_version,
                     bool write_triggered, std::shared_ptr<Job> op);

  // Ends a migration: drops the in-flight mark and reruns queued promotes.
  void FinishMigration(ChunkId chunk);

  // ---- Speculative promotion internals (DESIGN.md §13.6) ----

  // Arms a back-fill pass for a speculating chunk (admission + timeout);
  // no-op when the chunk stopped speculating or a pass is already running.
  // A failed pass is retried after spec_retry_.
  void StartSpecBackfill(ChunkId chunk);
  // The pass body: plan the shard reads, reconstruct missing data shards,
  // then stream the old image into every alive spec replica via shielded
  // back-fill writes (client-written ranges are subtracted at apply time).
  void RunSpecBackfill(ChunkId chunk, std::shared_ptr<Job> pass);
  // Atomic commit: retires the shards, turns the spec replicas into the
  // chunk's replica set at view+1, and clears all speculation state.
  void CommitSpecPromote(ChunkId chunk, std::shared_ptr<Job> pass);

  void NotifyTierChanged(ChunkId chunk, bool ec) {
    if (tier_changed_) {
      tier_changed_(chunk, ec);
    }
  }

  sim::Simulator* sim_;
  net::Transport* transport_;
  Placement placement_;
  std::vector<ChunkServer*> servers_;
  std::map<DiskId, DiskMeta> disks_;
  std::map<ChunkId, ChunkRef> chunk_refs_;
  DiskId next_disk_id_ = 1;
  ChunkId next_chunk_id_ = 1;
  Nanos lease_term_ = sec(30);
  uint64_t chunk_size_ = storage::kDefaultChunkSize;
  uint64_t recovery_piece_ = 1 * kMiB;
  int recovery_window_ = 8;
  bool recovery_carries_data_ = true;
  RecoveryStats recovery_stats_;
  std::set<ServerId> demoted_;  // health-demoted servers
  std::function<double(ServerId)> health_score_;  // null = binary demotion only
  double health_score_deadband_ = 1.5;
  scrub::RecoveryAdmission* admission_ = nullptr;  // null = watermark-only pacing

  // Tiering state (DESIGN.md §13).
  std::map<ChunkId, EcShardInfo> ec_shards_;  // shard chunk id -> (parent, index)
  std::map<std::pair<int, int>, std::unique_ptr<ec::ReedSolomon>> codecs_;
  std::set<ChunkId> migrating_;  // chunks with a demote/promote/shard repair in flight
  std::map<ChunkId, std::vector<std::function<void(Status)>>> promote_waiters_;
  tier::HeatTracker* heat_ = nullptr;
  Nanos migration_timeout_ = sec(10);
  TierStats tier_stats_;

  // Speculative promotion state (DESIGN.md §13.6). Keyed by parent chunk;
  // an entry exists exactly while the chunk's layout is speculating.
  bool speculative_promote_ = true;
  Nanos spec_retry_ = msec(100);
  std::map<ChunkId, std::unique_ptr<SpecState>> spec_;
  std::function<void(ChunkId, bool)> tier_changed_;
};

}  // namespace ursa::cluster

#endif  // URSA_CLUSTER_MASTER_H_
