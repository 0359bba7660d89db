// The richly-featured Ursa client (§5.1): the portal that turns a VM's block
// requests into the replication protocol.
//
// Responsibilities, matching the paper:
//   * striping (§3.4): logical offsets interleave across a striping group of
//     chunks at a fixed stripe unit; large requests fan out to many chunks
//     and complete out of order, joined per user request;
//   * per-chunk write ordering: writes to one chunk carry consecutive version
//     numbers and are issued one at a time (the "lock contention" that
//     makes Fig. 9's sequential-write IOPS much lower than reads);
//   * client-directed replication (§3.2): writes <= Tc go to all replicas in
//     parallel from the client; larger writes are primary-driven (Fig. 5);
//   * commit rule (§4.1): all-success, or majority-after-timeout;
//   * primary switching and failure reporting (§4.2): on timeout the client
//     retries against a backup as temporary primary and notifies the master,
//     refreshing the layout after the view change;
//   * the client process event loop is a single-threaded resource — its
//     per-request cost is the client-side CPU term of Fig. 7.
#ifndef URSA_CLIENT_VIRTUAL_DISK_H_
#define URSA_CLIENT_VIRTUAL_DISK_H_

#include <memory>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/buffer.h"
#include "src/common/histogram.h"
#include "src/common/inline_fn.h"
#include "src/common/rate_limiter.h"
#include "src/common/rng.h"
#include "src/common/slot_pool.h"

namespace ursa::client {

struct VirtualDiskClientOptions {
  Nanos request_timeout = msec(800);   // per-attempt replica timeout
  int max_attempts = 4;                // retries across primary switches
  uint64_t tiny_write_threshold = cluster::kTinyWriteThreshold;  // Tc
  bool client_directed = true;         // Ursa replicates tiny writes itself
  Nanos loop_issue_cost = usec(4);     // client event-loop CPU per issue
  Nanos loop_complete_cost = usec(3);  // and per completion
  Nanos vmm_overhead = usec(55);       // NBD/QEMU fixed path cost (each way)

  // ---- Retry hardening (see DESIGN.md "Fault model & chaos harness") ----
  // Consecutive per-chunk timeouts tolerated on the same primary before
  // switching and reporting to the master: one latency spike (gray-slow disk,
  // transient queueing) should not thrash views. Explicit failures and
  // integrity errors switch immediately. 1 = switch on first timeout.
  int primary_switch_hysteresis = 2;
};

struct ClientStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t retries = 0;
  uint64_t throttled_writes = 0;
  uint64_t primary_switches = 0;
  uint64_t failures_reported = 0;
  // Error classification (timeout vs explicit-fail vs integrity).
  uint64_t timeouts = 0;           // per-attempt rpc timeouts
  uint64_t explicit_failures = 0;  // replica said no (mismatch, unavailable…)
  uint64_t integrity_errors = 0;   // kCorruption: CRC-failed / quarantined data
  uint64_t backoff_retries = 0;    // retries that waited a backoff delay
  Nanos backoff_wait_ns = 0;       // total time spent backing off
  // EC cold tier (DESIGN.md §13).
  uint64_t ec_shard_reads = 0;     // shard reads issued against EC chunks
  uint64_t ec_degraded_reads = 0;  // pieces served by client-side reconstruct
  uint64_t write_promotes = 0;     // writes that promoted an EC chunk first
  uint64_t spec_writes = 0;        // writes acked against speculative replicas
  uint64_t spec_reads = 0;         // read pieces served by speculative replicas
  Histogram read_latency_us;
  Histogram write_latency_us;
};

class VirtualDisk {
 public:
  VirtualDisk(cluster::Cluster* cluster, cluster::Machine* host, cluster::ClientId client_id,
              const VirtualDiskClientOptions& options = {});

  // Opens the disk: acquires the lease, fetches the layout, confirms per-
  // chunk versions with the replicas (initialization protocol, §4.2.1).
  Status Open(cluster::DiskId disk);
  Status Close();

  uint64_t size() const { return meta_.size; }
  bool is_open() const { return open_; }

  // Async block I/O. Offsets/lengths must be 512-byte aligned. A read is the
  // edge that takes caller memory: servers reply with views of the bytes,
  // and the client copies a piece's view into `out` (when non-null) only
  // while that piece's request is live, so `out` is written only before
  // `done` runs, and the caller may reuse or free it from `done`. A write's
  // payload is a view of `length` bytes, shared zero-copy down the whole
  // stack (sub-requests slice it; replication legs ref it; every replica's
  // device keeps it); a null view is a timing-only write.
  void Read(uint64_t offset, uint64_t length, void* out, storage::IoCallback done);
  void Write(uint64_t offset, uint64_t length, ursa::BufferView data, storage::IoCallback done);

  ClientStats& stats() { return stats_; }
  const ClientStats& stats() const { return stats_; }

  // Client event-loop busy time (client-side CPU for Fig. 7).
  Nanos loop_busy_time() const { return loop_->busy_time(); }
  void ResetLoopStats() { loop_->ResetStats(); }

  // Re-reads the layout from the master (after a view change).
  void RefreshLayout();

  cluster::ClientId client_id() const { return client_id_; }

  // Test/debug introspection: the client's cached version and current
  // primary index for chunk `index` of the open disk.
  uint64_t chunk_version(size_t index) const { return chunk_states_[index].version; }
  size_t chunk_primary(size_t index) const { return chunk_states_[index].primary; }
  // Pooled op, sub-request and read-piece records in use. Zero once every
  // accepted op has called back.
  size_t live_records() const { return ops_.in_use() + subs_.in_use() + pieces_.in_use(); }

  // ---- Online client upgrade (§5.2, core/shell split) ----
  // Stops accepting new I/O from the VMM, completes pending requests, saves
  // state, swaps in the new core, and resumes buffered I/O. The VMM's
  // connection (here: the caller's view of the object) never drops.
  void Upgrade(const std::string& version, Nanos swap_window, std::function<void()> done);
  const std::string& software_version() const { return software_version_; }
  bool upgrading() const { return upgrading_; }

  // ---- Master-imposed rate limit (§3.2) ----
  // Caps the client's WRITE rate; 0 = unlimited. The master applies this to
  // clients aggressive enough to threaten journal quotas.
  void SetWriteRateLimit(double ops_per_sec) { write_limiter_.SetRate(ops_per_sec); }
  double write_rate_limit() const { return write_limiter_.rate(); }

 private:
  struct SubRequest {
    size_t chunk_index = 0;
    uint64_t chunk_offset = 0;
    uint64_t length = 0;
    uint64_t user_offset = 0;  // offset within the user buffer
    // Unique id of this logical write (0 for reads), stable across retries:
    // lets replicas tell a retry of an applied write from a different write
    // reusing the version of one that failed client-side.
    uint64_t write_id = 0;
  };

  // ---- Pooled per-op state (DESIGN.md §8) ----
  // Every closure the client hands to the simulator, the loop, the transport
  // or a chunk server captures (this, record index, generation tag). A
  // record's generation advances when the read RPC or write attempt it
  // tracks is decided and again when the record is released, so a late
  // timeout, a stale reply or a chaos duplicate finds a different tag and is
  // dropped: it can never complete a recycled record or a later attempt.
  // Sub-request generations advance in steps of kGenStride; the low bits of
  // a tag name a replication leg of the attempt.
  static constexpr uint32_t kGenStride = 8;
  static constexpr uint32_t kMaxLegs = kGenStride;
  static constexpr uint32_t kNoRecord = ~0u;

  // Returns record `i` to its SlotPool: T::Reset drops what it holds (and
  // keeps reusable capacity), and its generation advances.
  template <typename T>
  static void Release(SlotPool<T>& pool, uint32_t i) {
    T& r = pool[i];
    r.Reset();
    r.gen += kGenStride;
    pool.Release(i);
  }

  // One user Read/Write, from entry (paused and throttled included) to the
  // user callback.
  struct OpRecord {
    uint32_t gen = 0;
    bool is_write = false;
    uint64_t offset = 0;
    uint64_t length = 0;
    void* out = nullptr;    // read destination (may be null)
    ursa::BufferView data;  // write payload, until it is sliced into subs
    storage::IoCallback done;
    obs::SpanRef span;
    Nanos start = 0;
    uint32_t remaining = 0;  // sub-requests still running
    Status first_error;
    void Reset() {
      out = nullptr;
      data = {};
      done = nullptr;
      span = nullptr;
      first_error = Status();
    }
  };

  // One sub-request of an op, across all of its attempts.
  struct SubRecord {
    uint32_t gen = 0;
    uint32_t op = 0;
    SubRequest sub;
    void* out = nullptr;    // read destination for this sub (may be null)
    ursa::BufferView data;  // write payload slice
    int attempt = 1;
    bool spec_write = false;           // acked against speculative replicas
    uint32_t next_queued = kNoRecord;  // per-chunk write-order queue link

    // The attempt in flight.
    Status status;  // outcome (reads: first piece error)
    Nanos replied = 0;
    uint64_t replied_version = 0;  // primary-driven: the version it committed
    bool saw_mismatch = false;
    // Reads: pieces outstanding, and whether the attempt is one replica
    // read (as opposed to EC shard / spec-replica pieces).
    uint32_t pieces = 0;
    bool replica_read = false;
    // Writes: request parameters, shared by every leg.
    bool primary_driven = false;
    storage::ChunkId chunk = 0;
    uint64_t view = 0;
    uint64_t version = 0;
    sim::EventId timeout = 0;
    std::vector<cluster::ReplicaRef> targets;  // legs, or {primary}
    std::vector<cluster::ReplicaRef> backups;  // primary-driven chain
    // Client-directed: the quorum of the legs (one per target) and its
    // commit timer.
    cluster::WriteQuorum quorum;
    sim::EventId commit_timer = 0;
    void Reset() {
      out = nullptr;
      data = {};
      spec_write = false;
      next_queued = kNoRecord;
      status = Status();
      targets.clear();
      backups.clear();
    }
  };

  // One read RPC of a read attempt: the replica read, an EC shard piece, a
  // spec-replica piece, or a survivor read feeding a degraded reconstruct.
  enum class PieceKind : uint8_t { kReplica, kShard, kSpec, kSurvivor };
  struct PieceRecord {
    uint32_t gen = 0;
    PieceKind kind = PieceKind::kReplica;
    uint32_t sub = 0;       // the sub-request this piece serves
    uint32_t degraded = 0;  // kSurvivor: the shard piece it feeds
    int shard = 0;          // kShard: shard index
    size_t replica = 0;     // kSpec: index into spec_replicas
    uint64_t offset = 0;    // chunk or shard offset of the range
    uint64_t length = 0;
    // Where a served view is copied (null: timing-only): the caller's `out`,
    // or for a survivor its slot in the degraded piece's `survivors`.
    void* out = nullptr;
    // The RPC in flight.
    cluster::ServerId server = 0;
    uint32_t node = 0;
    storage::ChunkId chunk = 0;
    uint64_t view = 0;
    uint64_t version = 0;
    sim::EventId timeout = 0;
    // kShard whose server failed: the k survivor ranges it reconstructs
    // from, back to back (the vector keeps its capacity across reuse).
    std::vector<uint8_t> survivors;
    std::vector<int> sources;  // the k shards read (k = sources.size())
    int ec_m = 0;
    uint32_t pending = 0;
    Status status;
    void Reset() {
      out = nullptr;
      survivors.clear();
      sources.clear();
      status = Status();
    }
  };

  struct ChunkState {
    uint64_t committed = 0;  // made by the last acked write (at open: the replicas' highest)
    uint64_t version = 0;    // the next write's version: committed, or what a resync adopted
    size_t primary = 0;  // index into layout replicas
    // Writes waiting for the chunk's one in-flight write (FIFO through
    // SubRecord::next_queued).
    uint32_t queue_head = kNoRecord;
    uint32_t queue_tail = kNoRecord;
    uint64_t write_inflight = 0;  // write id of the one in flight (0 = none)
    int timeout_streak = 0;  // consecutive timeouts on the current primary
    // While the chunk speculates (DESIGN.md §13.6): ranges known durable on
    // the spec replicas (this client's acked writes merged with the master's
    // spec_extents). Reads of these bytes route at the spec replicas; the
    // rest still reads the shards. Cleared when speculation commits.
    std::vector<Interval> spec_extents;
  };

  // Maps a logical byte range to per-chunk sub-requests (striping),
  // appended to `subs`.
  void SplitRequest(uint64_t offset, uint64_t length, std::vector<SubRequest>* subs) const;

  // Entry (and re-entry after an upgrade pause or a throttle wait).
  void StartOp(uint32_t op);
  void StartRead(uint32_t op);
  void StartWrite(uint32_t op);
  // A sub-request finished for good: frees the chunk's write slot and joins
  // the op; the last sub completes the op after the VMM return hop.
  void FinishSub(uint32_t s, Status status);
  void FinishOp(uint32_t op);

  // ---- Reads ----
  // The span (null when the request is unsampled) rides along every attempt;
  // retries max-merge into the same span, inflating kClientIssue — acceptable
  // for a failure-path sample, and the common case has one attempt.
  void IssueRead(uint32_t s);
  // Routes an EC-tier sub-request to the shard(s) owning the range (and,
  // while the chunk speculates, the spec replicas for ranges known there).
  void IssueEcRead(uint32_t s);
  uint32_t AcquirePiece(uint32_t s, PieceKind kind, uint64_t offset, uint64_t length, void* out);
  // A shard piece falls back to a client-side degraded read when its shard
  // server fails (reconstruct from k surviving shards).
  void StartShardPiece(uint32_t p);
  // Reads a speculating chunk's range from spec replica `replica` (version-
  // guarded: a replica that missed an acked write fails the version check
  // and the piece fails over to the next one).
  void StartSpecPiece(uint32_t p);
  void StartDegradedRead(uint32_t p);
  // Arms the piece's timeout and sends its read request.
  void SendPiece(uint32_t p);
  void DeliverPiece(uint32_t p, uint32_t gen);
  // The server's reply: a live piece copies the served view into its `out`
  // here; a stale or duplicated reply is dropped with its view.
  void OnPieceServed(uint32_t p, uint32_t gen, const Status& s, const ursa::BufferView& data);
  // First of {reply, timeout} for the piece's RPC.
  void OnPieceDone(uint32_t p, const Status& status);
  // Retires a piece and reports `status` to whatever it feeds.
  void FinishPiece(uint32_t p, Status status);
  void OnSurvivorDone(uint32_t p, const Status& status);
  void FinishReadAttempt(uint32_t s);

  // ---- Writes ----
  void EnqueueWrite(uint32_t s);
  void PumpWriteQueue(size_t chunk_index);
  void IssueWrite(uint32_t s);
  void IssueWriteAttempt(uint32_t s);
  void ArmWriteTimeout(uint32_t s);
  void ClientDirectedWrite(uint32_t s);
  void DeliverLeg(uint32_t s, uint32_t tag);
  void OnLegServed(uint32_t s, uint32_t tag, StatusCode code);
  void OnLegReply(uint32_t s, uint32_t tag, StatusCode code);
  void OnQuorumDecided(uint32_t s);
  void PrimaryDrivenWrite(uint32_t s);
  void DeliverPrimaryWrite(uint32_t s, uint32_t gen);
  void OnPrimaryServed(uint32_t s, uint32_t gen, const Status& status, uint64_t new_version);
  // A write landed on an EC-tier chunk: promote it back to replicated form
  // through the master BEFORE the ack, then retry on the fresh layout.
  void PromoteForWrite(uint32_t s);
  void FinishPromote(uint32_t s);
  // First of {decision, timeout} for a write attempt.
  void DecideWriteAttempt(uint32_t s, Status status);
  void FinishWriteAttempt(uint32_t s);

  // Failure path: classify the error (timeout / explicit / integrity), apply
  // primary-switch hysteresis, report to the master when warranted, then
  // retry after a bounded-backoff delay (or fail the sub-request once its
  // attempts are spent).
  void HandleAttemptFailure(uint32_t s, Status status);
  // A write that failed for good may have landed on some replicas, and its
  // requests still in flight may land on others: a view change fences them
  // off, the replicas it left behind are repaired, and the chunk's next
  // write continues from what the write left.
  void FenceWrite(size_t chunk_index);
  // Refreshes the layout and sets the chunk's next version to what its
  // replicas offer (cluster::ResyncVersion, for the in-flight write
  // `inflight_write_id`), never below the committed one.
  void Resync(size_t chunk_index, uint64_t inflight_write_id);
  // Replica `r`'s state of `layout`'s chunk; an error when its server is
  // down or lacks the chunk.
  Result<cluster::ReplicaState> ReplicaStateOf(const cluster::ChunkLayout& layout,
                                               const cluster::ReplicaRef& r);
  // Backoff delay before retry attempt `attempt`+1.
  Nanos BackoffDelay(int attempt);
  // Runs Retry(s) after BackoffDelay, tracking backoff stats.
  void ScheduleRetry(uint32_t s);
  void Retry(uint32_t s);

  bool SubLive(uint32_t s, uint32_t tag) { return subs_[s].gen == (tag & ~(kGenStride - 1)); }
  const obs::SpanRef& SubSpan(uint32_t s) { return ops_[subs_[s].op].span; }

  const cluster::ChunkLayout& Layout(size_t chunk_index) const {
    return meta_.chunks[chunk_index];
  }
  // The replica set writes go to: the speculative targets while the chunk
  // is mid-promotion, the committed replicas otherwise.
  static const std::vector<cluster::ReplicaRef>& WriteSet(const cluster::ChunkLayout& layout) {
    return layout.speculating() ? layout.spec_replicas : layout.replicas;
  }
  cluster::ChunkServer* Server(cluster::ServerId id) { return cluster_->server(id); }

  sim::Simulator* sim_;
  cluster::Cluster* cluster_;
  cluster::Machine* host_;
  cluster::ClientId client_id_;
  VirtualDiskClientOptions options_;
  std::unique_ptr<sim::Resource> loop_;  // single-threaded client process

  bool open_ = false;
  cluster::DiskMeta meta_;  // client's copy of the layout
  std::vector<ChunkState> chunk_states_;
  ClientStats stats_;

  SlotPool<OpRecord> ops_;
  SlotPool<SubRecord> subs_;
  SlotPool<PieceRecord> pieces_;
  std::vector<SubRequest> split_;        // SplitRequest scratch
  std::vector<uint32_t> piece_scratch_;  // IssueEcRead scratch

  // Upgrade machinery (§5.2).
  bool upgrading_ = false;
  std::string software_version_ = "v1";
  uint64_t inflight_user_ops_ = 0;
  std::vector<uint32_t> paused_ops_;  // op records held across the swap

  // Master-imposed write throttle (§3.2).
  RateLimiter write_limiter_;

  // Deterministic per-client jitter stream for retry backoff.
  Rng retry_rng_;

  // Logical-write id generator (see SubRequest::write_id). Client ids are
  // folded in so two clients never mint the same id.
  uint64_t next_write_id_ = 0;
};

}  // namespace ursa::client

#endif  // URSA_CLIENT_VIRTUAL_DISK_H_
