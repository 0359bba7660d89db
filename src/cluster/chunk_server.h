// Chunk server: stores chunk replicas on one disk and executes the
// replication protocol's server side (§4.2).
//
// A primary-capable server fronts an SSD ChunkStore; a backup server fronts
// an HDD ChunkStore through a JournalManager (hybrid mode) or a plain store
// (SSD-only / HDD-only modes). Servers are stateless toward clients beyond
// per-chunk {version, view} numbers; write requests carry the replica list,
// so any replica can act as primary for a request (the temporary-primary
// switch of §4.2.1 needs no reconfiguration).
//
// Every handled message charges the hosting machine's CPU, which is what the
// Fig. 7 per-core efficiency experiment measures.
#ifndef URSA_CLUSTER_CHUNK_SERVER_H_
#define URSA_CLUSTER_CHUNK_SERVER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/machine.h"
#include "src/cluster/replica_protocol.h"
#include "src/cluster/types.h"
#include "src/common/buffer.h"
#include "src/common/inline_fn.h"
#include "src/common/logging.h"
#include "src/common/slot_pool.h"
#include "src/journal/journal_lite.h"
#include "src/journal/journal_manager.h"
#include "src/net/message.h"
#include "src/net/transport.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/scrub/checksum_store.h"

namespace ursa::tier {
class HeatTracker;
}  // namespace ursa::tier

namespace ursa::cluster {

struct ChunkServerConfig {
  CpuCosts cpu;
};

// Resolves a ServerId to the in-process server object (set up by Cluster).
using ServerResolver = std::function<class ChunkServer*(ServerId)>;

class ChunkServer {
 public:
  ChunkServer(sim::Simulator* sim, net::Transport* transport, Machine* machine, ServerId id,
              storage::ChunkStore* store, journal::JournalManager* journal_manager,
              bool on_ssd, const ChunkServerConfig& config);
  // Drops the reply callbacks of ops still in flight: a backup's holds a
  // reference into its primary's pool, and two servers backing each other
  // would otherwise keep each other's pools alive.
  ~ChunkServer();
  ChunkServer(const ChunkServer&) = delete;
  ChunkServer& operator=(const ChunkServer&) = delete;

  ServerId id() const { return id_; }
  net::NodeId node() const { return machine_->node(); }
  Machine* machine() const { return machine_; }
  bool on_ssd() const { return on_ssd_; }
  storage::ChunkStore* store() const { return store_; }
  journal::JournalManager* journal_manager() const { return journal_manager_; }
  void set_resolver(ServerResolver resolver) { resolver_ = std::move(resolver); }

  // ---- Control plane (master-invoked, no network modelling) ----

  // `tenant` is the owning virtual disk's id; it rides every I/O this server
  // issues for the chunk as the QoS tenant (per-disk fair shares).
  Status AllocateChunk(ChunkId chunk, uint64_t view, uint64_t tenant = 0);
  Status FreeChunk(ChunkId chunk);
  bool HasChunk(ChunkId chunk) const { return replicas_.find(chunk) != replicas_.end(); }
  // Every chunk with a replica state here (the coordinator's sweep source).
  std::vector<ChunkId> HostedChunks() const;
  Result<ReplicaState> GetState(ChunkId chunk) const;
  // The master's view install (cluster::InstallView): `view`, and `version`
  // and `write_id` when `version` is higher than the replica's. A no-op for
  // an unknown chunk.
  void InstallView(ChunkId chunk, uint64_t view, uint64_t version = 0, uint64_t write_id = 0);

  // Fault injection: a crashed server drops every message (clients time out).
  void SetCrashed(bool crashed) { crashed_ = crashed; }
  bool crashed() const { return crashed_; }

  // ---- Scrub integration (DESIGN.md §11) ----

  // Attaches the per-server checksum ledger; every accepted write updates it
  // (null data marks sectors unverifiable). Null detaches.
  void SetChecksumStore(scrub::ChecksumStore* checksums) { checksums_ = checksums; }
  scrub::ChecksumStore* checksum_store() const { return checksums_; }

  // Scrub quarantine: a range flagged corrupt by the scrubber's ledger check.
  // Quarantined ranges fail reads (foreground AND recovery-source) with
  // kCorruption — known-bad bytes are never served and this replica is never
  // a repair source for the damaged range. Repair completion (the recovery
  // write landing fresh bytes) clears the overlap. A chunk not hosted here
  // has no quarantine.
  void AddScrubQuarantine(ChunkId chunk, uint64_t offset, uint64_t length);
  void ClearScrubQuarantine(ChunkId chunk, uint64_t offset, uint64_t length);
  bool IsScrubQuarantined(ChunkId chunk, uint64_t offset, uint64_t length) const;
  size_t scrub_quarantine_size() const;

  // ---- Tiering integration (DESIGN.md §13) ----

  // Attaches the cluster heat tracker: foreground reads/writes and
  // replication legs feed per-chunk heat (recovery traffic does not).
  void SetHeatTracker(tier::HeatTracker* heat) { heat_ = heat; }

  // True when this replica still has journal records to replay for `chunk`.
  // Demotion must wait them out: replaying into a freed chunk is fatal.
  bool HasJournalBacklog(ChunkId chunk) const {
    return journal_manager_ != nullptr && journal_manager_->HasIndexedData(chunk);
  }

  // ---- Speculative-promotion write shield (DESIGN.md §13.6) ----
  //
  // While a chunk is a speculative promotion target, client writes land here
  // BEFORE the back-fill copies the old chunk image over. The shield records
  // every client-written range, and HandleRecoveryWrite skips those ranges,
  // so the back-fill never clobbers newer client bytes with reconstructed
  // old data; the check happens at apply time inside one simulator event,
  // so there is no window between "client write applied" and "shield
  // visible to back-fill". (Clears leftovers: a chunk can speculate again
  // after demoting anew.) Only a hosted chunk has a shield.
  void EnableWriteShield(ChunkId chunk);
  void DisableWriteShield(ChunkId chunk);

  // Hot-upgrade support (§5.2): a draining server has closed its service
  // port — new requests are dropped (clients retry elsewhere / later) while
  // in-flight ones complete. `inflight_ops` counts admitted-but-unfinished
  // requests; the UpgradeCoordinator polls it before swapping processes.
  void SetDraining(bool draining) { draining_ = draining; }
  bool draining() const { return draining_; }
  uint64_t inflight_ops() const { return inflight_ops_; }
  const std::string& software_version() const { return software_version_; }
  void set_software_version(const std::string& v) { software_version_ = v; }

  // ---- Data plane (invoked at this machine after transport delivery) ----

  // A reply: status, the replica's (read) or the new (write) version, and a
  // successful read's bytes as an owned view of the range (null for a
  // write). The receiver keeps or copies the view; the server never writes
  // its memory, so a reply that arrives after the receiver gave up is
  // simply dropped with its view. Inline storage: a reply closure of up to
  // InlineFn::kInlineBytes costs no heap cell, and the server keeps it in
  // its pooled op record.
  using ReplyCallback = InlineFunction<void(const Status&, uint64_t, const ursa::BufferView&)>;
  using ReadCallback = ReplyCallback;
  using WriteCallback = ReplyCallback;

  // Serves a read; `expected_version` must match the replica's state (§4.1:
  // any replica with a matching version number may serve reads). A non-null
  // `span` gets the CPU-queue time (kServerCpu) and the device read
  // (kPrimaryStorage) stamped in.
  void HandleRead(ChunkId chunk, uint64_t offset, uint64_t length, uint64_t view,
                  uint64_t expected_version, ReadCallback done, const obs::SpanRef& span = {});

  // Primary-driven write (Fig. 5): version/view checks, local chunk write,
  // parallel REPLICATE to `backups`, commit on all-success or
  // majority-after-timeout; replies with the new version. A nonzero
  // `write_id` identifies the logical client write: a request whose version
  // says "already executed" is acked as a duplicate only when the id matches
  // the applied write — otherwise it is a different write reusing a failed
  // predecessor's version and gets a VERSION_MISMATCH (the client resyncs
  // and retries; a data-blind ack here would silently lose the write).
  // `data` is a ref-counted BufferView shared by every hop (local journal
  // append, all replication legs); a null view is a timing-only payload.
  // The commit rule is cluster::WriteQuorum's, with the primary's own write
  // as leg 0.
  void HandleWrite(ChunkId chunk, uint64_t offset, uint64_t length, uint64_t view,
                   uint64_t version, ursa::BufferView data, const std::vector<ReplicaRef>& backups,
                   WriteCallback done, const obs::SpanRef& span = {}, uint64_t write_id = 0);

  // Backup-side replication (also the per-replica leg of client-directed
  // tiny writes, §3.2): journal append in hybrid mode, direct write
  // otherwise. Parallel replica legs max-merge into the shared span.
  // `write_id` semantics as in HandleWrite.
  void HandleReplicate(ChunkId chunk, uint64_t offset, uint64_t length, uint64_t view,
                       uint64_t version, ursa::BufferView data, WriteCallback done,
                       const obs::SpanRef& span = {}, uint64_t write_id = 0);

  // Initialization protocol: report {version, view} for a chunk.
  using StateCallback = std::function<void(const Status&, ReplicaState)>;
  void HandleVersionQuery(ChunkId chunk, StateCallback done);

  // Recovery read: newest data regardless of version (journal-aware on
  // backups); reports the replica's version alongside. `cls` is the QoS class
  // the transfer runs under — kRecovery for re-replication, kScrub for
  // corruption repair.
  void HandleRecoveryRead(ChunkId chunk, uint64_t offset, uint64_t length, ReadCallback done,
                          qos::ServiceClass cls = qos::ServiceClass::kRecovery);

  // Recovery write at the transfer target of the data of `version` (no
  // version checks; the master installs {version, view} via InstallView once
  // the copy completes). Ranges under the chunk's write shield are skipped
  // at apply time; a piece the shield covers entirely completes OK without a
  // device write. On a backup the rest is a JournalManager::DirectWrite, so
  // older journal records of the range stop being served and replayed.
  void HandleRecoveryWrite(ChunkId chunk, uint64_t offset, uint64_t length, uint64_t version,
                           ursa::BufferView data, storage::IoCallback done,
                           qos::ServiceClass cls = qos::ServiceClass::kRecovery);

  // Incremental repair support: ranges of `chunk` modified after `version`,
  // from this replica's journal lite; false => history lost, full copy.
  bool ModifiedSince(ChunkId chunk, uint64_t version, std::vector<Interval>* out) const {
    return journal_lite_.ModifiedSince(chunk, version, out);
  }

  // ---- Stats ----
  uint64_t reads_served() const { return reads_served_; }
  uint64_t writes_served() const { return writes_served_; }
  uint64_t replicates_served() const { return replicates_served_; }

  // Publishes this server's op counters and inflight gauge under the label
  // server=<id>. The registry must outlive this server.
  void RegisterMetrics(obs::MetricsRegistry* registry);

 private:
  // ---- Pooled op records (DESIGN.md §8) ----
  //
  // Every admitted HandleRead / HandleWrite / HandleReplicate holds its
  // request, its reply callback and (primary writes) its quorum state in one
  // pooled Op, so serving a request allocates nothing once the pool is warm.
  // Ops are generation-tagged: a closure names its op by (slot, gen), the
  // last reference releases the record and bumps its generation, and every
  // access checks it. References are counted by hand for the closures that
  // always end in a known place (the CPU stage, the device callback, the
  // commit timeout). A message to or from a backup may be dropped or
  // duplicated on the wire, and a backup may drop a request unserved, so the
  // delivery, the backup's reply callback and its ack each hold a DeliverRef,
  // which counts itself on copy and destruction. An op thus lives until its
  // quorum is decided and every backup leg has acked or been dropped. A
  // primary write that never reaches a decision (its legs all lost) is freed
  // without a reply: the client's timeout owns the retry.
  struct Op {
    uint32_t gen = 0;
    uint32_t refs = 0;
    bool applied = false;  // the version check applied the write here
    ChunkId chunk = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
    uint64_t view = 0;
    uint64_t version = 0;  // expected (read) or base (write) version
    uint64_t write_id = 0;
    uint64_t reply_version = 0;  // what the device leg's reply reports
    ursa::BufferView out = {};   // a read's bytes, stored by its device read
    ursa::BufferView data;
    obs::SpanRef span;
    Nanos entered = 0;   // admission (server CPU stage start)
    Nanos io_start = 0;  // device I/O start
    ReplyCallback done;
    // Primary writes only: the backups, the quorum and its commit timeout.
    std::vector<ReplicaRef> backups;
    WriteQuorum quorum{};
    sim::EventId timeout = 0;
  };
  // The op records. Shared with the DeliverRefs in flight, so a message
  // still on the wire when its server is destroyed can release its op.
  struct OpPool {
    SlotPool<Op> ops;
    ChunkServer* server = nullptr;  // null once the server is destroyed
    Op& At(uint32_t slot, uint32_t gen) {
      Op& op = ops[slot];
      URSA_CHECK_EQ(op.gen, gen) << "stale chunk-server op";
      return op;
    }
    // Drops one reference; the last one resets and frees the record, and
    // ends an op that still owes its reply (ChunkServer::Abandon).
    void Unref(uint32_t slot, uint32_t gen);
  };
  // A counted reference to an op, for closures that may be copied or
  // dropped unrun.
  class DeliverRef {
   public:
    DeliverRef(std::shared_ptr<OpPool> pool, uint32_t slot, uint32_t gen) noexcept
        : pool_(std::move(pool)), slot_(slot), gen_(gen) {
      ++pool_->At(slot_, gen_).refs;
    }
    // noexcept, so a closure holding a const copy still moves without
    // throwing and stays inline in an InlineFn.
    DeliverRef(const DeliverRef& o) noexcept : DeliverRef(o.pool_, o.slot_, o.gen_) {}
    DeliverRef(DeliverRef&& o) noexcept = default;
    DeliverRef& operator=(const DeliverRef&) = delete;
    ~DeliverRef() {
      if (pool_ != nullptr) {
        pool_->Unref(slot_, gen_);
      }
    }
    Op& op() const { return pool_->At(slot_, gen_); }
    uint32_t slot() const { return slot_; }

   private:
    std::shared_ptr<OpPool> pool_;
    uint32_t slot_;
    uint32_t gen_;
  };

  // Admits a request: a fresh Op with one reference (the CPU stage's),
  // counted in inflight_ops_, owning `done` and the payload. Charges the
  // background CPU burn every request pays.
  uint32_t Admit(ChunkId chunk, uint64_t offset, uint64_t length, uint64_t view,
                 uint64_t version, uint64_t write_id, ursa::BufferView data,
                 const obs::SpanRef& span, ReplyCallback done);
  Op& OpAt(uint32_t slot) { return ops_->ops[slot]; }
  void Unref(uint32_t slot) { ops_->Unref(slot, ops_->ops[slot].gen); }
  // Runs the op's reply callback (once) and ends its inflight count.
  void Reply(Op& op, const Status& s, uint64_t version);
  // Ends an op freed before its reply: its inflight count, and the heat
  // write an applied write began. It sends nothing.
  void Abandon(const Op& op);

  // Stages of the pooled requests. Each takes the op's slot while holding a
  // reference to it.
  void ServeRead(uint32_t slot);
  void ReadDone(uint32_t slot, const Status& s);
  void ServeWrite(uint32_t slot);
  void ServeReplicate(uint32_t slot);
  void ReplicateDone(uint32_t slot, const Status& s);
  // A primary write's local device leg finished.
  void LocalLegDone(uint32_t slot, const Status& s);
  // The primary write's commit timeout fired.
  void CommitTimeout(uint32_t slot);
  // Forwards the write to backup `b` (at its delivery on the backup's node).
  void DeliverReplicate(const DeliverRef& ref, uint32_t b);

  // One chunk's replica here: its protocol state, the QoS tenant (virtual
  // disk id, 0 when unknown) its I/O runs under, the speculative-promotion
  // write shield (present while enabled: the sorted, merged client-written
  // ranges the back-fill must not touch) and the scrub quarantine.
  struct Replica {
    ReplicaState state;
    uint64_t tenant = 0;
    std::optional<std::vector<Interval>> shield{};
    std::vector<Interval> quarantine{};
  };
  // The chunk's record; null when the chunk is not hosted here.
  const Replica* Find(ChunkId chunk) const;
  Replica* Find(ChunkId chunk) { return const_cast<Replica*>(std::as_const(*this).Find(chunk)); }
  static bool Quarantined(const Replica& r, uint64_t offset, uint64_t length);

  // A versioned write's acceptance (cluster::JudgeWrite), shared by the
  // primary's local leg and a backup's replicate. An applied write sets
  // op.applied and is recorded by the write shield, heat, journal lite and
  // checksum ledger; a duplicate is OK with op.applied unset; anything else
  // is a VersionMismatch, or NotFound for a chunk not hosted here. `*replica`
  // gets the chunk's record (null when not hosted).
  Status AcceptWrite(Op& op, Replica** replica);
  // Counts leg `leg` of a primary write toward its quorum; on the decision
  // replies and cancels the commit timeout. The caller holds a reference, or
  // must not touch the op after the call.
  void CountLeg(uint32_t slot, int leg, bool ok);
  // Replies to a decided primary write.
  void Decide(Op& w);

  // This replica's own device I/O: through the journal manager when present
  // (backups in hybrid mode), else the plain store. A non-null `span`
  // receives the durable-write duration (kBackupJournal).
  void ReplicaWrite(ChunkId chunk, uint64_t offset, uint64_t length, uint64_t version,
                    ursa::BufferView data, storage::IoCallback done,
                    const obs::SpanRef& span = {}, storage::IoTag tag = {});
  // The range's bytes land in `*out` (which must outlive `done`).
  void ReplicaRead(ChunkId chunk, uint64_t offset, uint64_t length, ursa::BufferView* out,
                   storage::IoCallback done, storage::IoTag tag = {});

  sim::Simulator* sim_;
  net::Transport* transport_;
  Machine* machine_;
  ServerId id_;
  storage::ChunkStore* store_;
  journal::JournalManager* journal_manager_;  // null for non-journaled roles
  bool on_ssd_;
  ChunkServerConfig config_;
  ServerResolver resolver_;
  std::map<ChunkId, Replica> replicas_;  // ordered: HostedChunks ascends
  scrub::ChecksumStore* checksums_ = nullptr;  // null when scrub is disabled
  tier::HeatTracker* heat_ = nullptr;          // null when tiering is disabled
  std::shared_ptr<OpPool> ops_ = std::make_shared<OpPool>();

  journal::JournalLite journal_lite_;
  bool crashed_ = false;
  bool draining_ = false;
  uint64_t inflight_ops_ = 0;
  std::string software_version_ = "v1";

  uint64_t reads_served_ = 0;
  uint64_t writes_served_ = 0;
  uint64_t replicates_served_ = 0;
};

}  // namespace ursa::cluster

#endif  // URSA_CLUSTER_CHUNK_SERVER_H_
