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
#include <string>
#include <memory>
#include <vector>

#include "src/cluster/machine.h"
#include "src/cluster/types.h"
#include "src/common/buffer.h"
#include "src/journal/journal_lite.h"
#include "src/journal/journal_manager.h"
#include "src/net/message.h"
#include "src/net/rpc.h"
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
  // Wait before committing on a bare majority (§4.1 step 6). In the normal
  // case all replicas reply far sooner and the timeout is cancelled.
  Nanos majority_commit_timeout = msec(200);
  // Replication legs (and their acks) of writes at or below this size ride
  // the transport's coalescing path: concurrent small writes to the same
  // backup share one framed message. Larger writes are sent individually so
  // a bulky message never delays a batch. 0 disables coalescing.
  uint64_t coalesce_max_bytes = 64 * kKiB;
};

// Resolves a ServerId to the in-process server object (set up by Cluster).
using ServerResolver = std::function<class ChunkServer*(ServerId)>;

class ChunkServer {
 public:
  ChunkServer(sim::Simulator* sim, net::Transport* transport, Machine* machine, ServerId id,
              storage::ChunkStore* store, journal::JournalManager* journal_manager,
              bool on_ssd, const ChunkServerConfig& config);

  ServerId id() const { return id_; }
  net::NodeId node() const { return machine_->node(); }
  Machine* machine() const { return machine_; }
  bool on_ssd() const { return on_ssd_; }
  storage::ChunkStore* store() const { return store_; }
  journal::JournalManager* journal_manager() const { return journal_manager_; }
  void set_resolver(ServerResolver resolver) { resolver_ = std::move(resolver); }

  // ---- Control plane (master-invoked, no network modelling) ----

  struct ReplicaState {
    uint64_t version = 0;
    uint64_t view = 0;
    // Identity of the last write applied here. Version numbers alone cannot
    // distinguish "retry of the write I already executed" (ack without
    // re-applying) from "a DIFFERENT write reusing the version of one that
    // failed client-side" (must NOT be acked: its data was never written).
    uint64_t last_write_id = 0;
  };

  // `tenant` is the owning virtual disk's id; it rides every I/O this server
  // issues for the chunk as the QoS tenant (per-disk fair shares).
  Status AllocateChunk(ChunkId chunk, uint64_t view, uint64_t tenant = 0);
  Status FreeChunk(ChunkId chunk);
  // QoS tenant recorded at allocation (0 when unknown).
  uint64_t TenantOf(ChunkId chunk) const;
  bool HasChunk(ChunkId chunk) const { return states_.find(chunk) != states_.end(); }
  // Every chunk with a replica state here (the coordinator's sweep source).
  std::vector<ChunkId> HostedChunks() const;
  Result<ReplicaState> GetState(ChunkId chunk) const;
  void SetState(ChunkId chunk, uint64_t version, uint64_t view);
  // View-only update preserving version and write identity (health demotion
  // view bumps, where no data moved).
  void SetView(ChunkId chunk, uint64_t view);

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
  // write landing fresh bytes) clears the overlap.
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
    return journal_manager_ != nullptr && !journal_manager_->IndexSnapshot(chunk).empty();
  }

  // ---- Speculative-promotion write shield (DESIGN.md §13.6) ----
  //
  // While a chunk is a speculative promotion target, client writes land here
  // BEFORE the back-fill copies the old chunk image over. The shield records
  // every client-written range so back-fill writes (HandleBackfillWrite)
  // never clobber newer client bytes with reconstructed old data; the check
  // happens at apply time inside one simulator event, so there is no window
  // between "client write applied" and "shield visible to back-fill".
  // (Clears leftovers: a chunk can speculate again after demoting anew.)
  void EnableWriteShield(ChunkId chunk) { write_shield_[chunk].clear(); }
  void DisableWriteShield(ChunkId chunk) { write_shield_.erase(chunk); }
  bool write_shield_enabled(ChunkId chunk) const {
    return write_shield_.find(chunk) != write_shield_.end();
  }

  // Back-fill write: like HandleRecoveryWrite, but any subrange the shield
  // covers is skipped at apply time (the client's bytes there are newer than
  // the reconstructed image). A fully-shielded piece completes immediately.
  void HandleBackfillWrite(ChunkId chunk, uint64_t offset, uint64_t length,
                           ursa::BufferView data, storage::IoCallback done,
                           qos::ServiceClass cls = qos::ServiceClass::kRecovery);

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

  using ReadCallback = std::function<void(const Status&, uint64_t version)>;
  using WriteCallback = std::function<void(const Status&, uint64_t new_version)>;

  // Serves a read; `expected_version` must match the replica's state (§4.1:
  // any replica with a matching version number may serve reads). A non-null
  // `span` gets the CPU-queue time (kServerCpu) and the device read
  // (kPrimaryStorage) stamped in.
  void HandleRead(ChunkId chunk, uint64_t offset, uint64_t length, uint64_t view,
                  uint64_t expected_version, void* out, ReadCallback done,
                  const obs::SpanRef& span = {});

  // Primary-driven write (Fig. 5): version/view checks, local chunk write,
  // parallel REPLICATE to `backups`, commit on all-success or
  // majority-after-timeout; replies with the new version. A nonzero
  // `write_id` identifies the logical client write: a request whose version
  // says "already executed" is acked as a duplicate only when the id matches
  // the applied write — otherwise it is a different write reusing a failed
  // predecessor's version and gets a VERSION_MISMATCH (the client resyncs
  // and retries; a data-blind ack here would silently lose the write).
  // `data` is a ref-counted BufferView shared by every hop (local journal
  // append, all replication legs); a null view is a timing-only payload. The
  // raw-pointer overloads keep the legacy buffer-outlives-callback contract.
  void HandleWrite(ChunkId chunk, uint64_t offset, uint64_t length, uint64_t view,
                   uint64_t version, ursa::BufferView data, std::vector<ReplicaRef> backups,
                   WriteCallback done, const obs::SpanRef& span = {}, uint64_t write_id = 0);
  void HandleWrite(ChunkId chunk, uint64_t offset, uint64_t length, uint64_t view,
                   uint64_t version, const void* data, std::vector<ReplicaRef> backups,
                   WriteCallback done, const obs::SpanRef& span = {}, uint64_t write_id = 0) {
    HandleWrite(chunk, offset, length, view, version, ursa::BufferView::Unowned(data, length),
                std::move(backups), std::move(done), span, write_id);
  }

  // Backup-side replication (also the per-replica leg of client-directed
  // tiny writes, §3.2): journal append in hybrid mode, direct write
  // otherwise. Parallel replica legs max-merge into the shared span.
  // `write_id` semantics as in HandleWrite.
  void HandleReplicate(ChunkId chunk, uint64_t offset, uint64_t length, uint64_t view,
                       uint64_t version, ursa::BufferView data, WriteCallback done,
                       const obs::SpanRef& span = {}, uint64_t write_id = 0);
  void HandleReplicate(ChunkId chunk, uint64_t offset, uint64_t length, uint64_t view,
                       uint64_t version, const void* data, WriteCallback done,
                       const obs::SpanRef& span = {}, uint64_t write_id = 0) {
    HandleReplicate(chunk, offset, length, view, version,
                    ursa::BufferView::Unowned(data, length), std::move(done), span, write_id);
  }

  // Initialization protocol: report {version, view} for a chunk.
  using StateCallback = std::function<void(const Status&, ReplicaState)>;
  void HandleVersionQuery(ChunkId chunk, StateCallback done);

  // Recovery read: newest data regardless of version (journal-aware on
  // backups); reports the replica's version alongside. `cls` is the QoS class
  // the transfer runs under — kRecovery for re-replication, kScrub for
  // corruption repair.
  void HandleRecoveryRead(ChunkId chunk, uint64_t offset, uint64_t length, void* out,
                          ReadCallback done,
                          qos::ServiceClass cls = qos::ServiceClass::kRecovery);

  // Recovery write at the transfer target (no version checks; the master
  // installs {version, view} via SetState once the copy completes).
  void HandleRecoveryWrite(ChunkId chunk, uint64_t offset, uint64_t length,
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
  // Writes through the journal manager when present, else the plain store.
  // A non-null `span` receives the durable-write duration (kBackupJournal).
  void BackupWrite(ChunkId chunk, uint64_t offset, uint64_t length, uint64_t version,
                   ursa::BufferView data, storage::IoCallback done,
                   const obs::SpanRef& span = {}, storage::IoTag tag = {});
  void BackupRead(ChunkId chunk, uint64_t offset, uint64_t length, void* out,
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
  std::map<ChunkId, ReplicaState> states_;
  std::map<ChunkId, uint64_t> chunk_tenants_;  // QoS tenant (virtual disk id)
  scrub::ChecksumStore* checksums_ = nullptr;  // null when scrub is disabled
  tier::HeatTracker* heat_ = nullptr;          // null when tiering is disabled
  // Presence of a key = shield enabled for that chunk; the value is the
  // sorted, merged set of client-written ranges back-fill must not touch.
  std::map<ChunkId, std::vector<Interval>> write_shield_;
  // Ranges (offset, length) flagged corrupt by the scrubber, per chunk.
  std::map<ChunkId, std::vector<std::pair<uint64_t, uint64_t>>> scrub_quarantine_;
  // Wraps a completion so inflight_ops_ tracks admitted requests. The
  // callback is held behind a shared_ptr so the wrapper stays copyable and
  // const-invocable inside nested non-mutable lambdas.
  template <typename Callback>
  auto TrackOp(Callback done) {
    ++inflight_ops_;
    auto held = std::make_shared<Callback>(std::move(done));
    return [this, held](auto&&... args) {
      --inflight_ops_;
      (*held)(std::forward<decltype(args)>(args)...);
    };
  }

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
