#include "src/cluster/chunk_server.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/tier/heat_tracker.h"

namespace ursa::cluster {

ChunkServer::ChunkServer(sim::Simulator* sim, net::Transport* transport, Machine* machine,
                         ServerId id, storage::ChunkStore* store,
                         journal::JournalManager* journal_manager, bool on_ssd,
                         const ChunkServerConfig& config)
    : sim_(sim),
      transport_(transport),
      machine_(machine),
      id_(id),
      store_(store),
      journal_manager_(journal_manager),
      on_ssd_(on_ssd),
      config_(config) {
  ops_->server = this;
}

ChunkServer::~ChunkServer() {
  ops_->server = nullptr;
  for (uint32_t slot = 0; slot < ops_->ops.size(); ++slot) {
    Op& op = OpAt(slot);
    if (op.refs > 0) {
      // Moved out first: the reference it drops may free records of any
      // pool, this one included.
      ReplyCallback done = std::move(op.done);
      op.done = nullptr;
    }
  }
}

Status ChunkServer::AllocateChunk(ChunkId chunk, uint64_t view, uint64_t tenant) {
  URSA_RETURN_IF_ERROR(store_->Allocate(chunk));
  replicas_[chunk] = Replica{.state = {.view = view}, .tenant = tenant};
  return OkStatus();
}

Status ChunkServer::FreeChunk(ChunkId chunk) {
  URSA_RETURN_IF_ERROR(store_->Free(chunk));
  replicas_.erase(chunk);
  if (checksums_ != nullptr) {
    checksums_->Drop(chunk);
  }
  return OkStatus();
}

const ChunkServer::Replica* ChunkServer::Find(ChunkId chunk) const {
  auto it = replicas_.find(chunk);
  return it == replicas_.end() ? nullptr : &it->second;
}

std::vector<ChunkId> ChunkServer::HostedChunks() const {
  std::vector<ChunkId> chunks;
  chunks.reserve(replicas_.size());
  for (const auto& [chunk, replica] : replicas_) {
    chunks.push_back(chunk);
  }
  return chunks;
}

void ChunkServer::AddScrubQuarantine(ChunkId chunk, uint64_t offset, uint64_t length) {
  if (Replica* r = Find(chunk)) {
    r->quarantine.push_back(Interval{offset, length});
  }
}

void ChunkServer::ClearScrubQuarantine(ChunkId chunk, uint64_t offset, uint64_t length) {
  if (Replica* r = Find(chunk)) {
    std::erase_if(r->quarantine, [cleared = Interval{offset, length}](const Interval& q) {
      return q.Overlaps(cleared);
    });
  }
}

bool ChunkServer::Quarantined(const Replica& r, uint64_t offset, uint64_t length) {
  return std::any_of(r.quarantine.begin(), r.quarantine.end(),
                     [range = Interval{offset, length}](const Interval& q) {
                       return q.Overlaps(range);
                     });
}

bool ChunkServer::IsScrubQuarantined(ChunkId chunk, uint64_t offset, uint64_t length) const {
  const Replica* r = Find(chunk);
  return r != nullptr && Quarantined(*r, offset, length);
}

size_t ChunkServer::scrub_quarantine_size() const {
  size_t n = 0;
  for (const auto& [chunk, replica] : replicas_) {
    n += replica.quarantine.size();
  }
  return n;
}

void ChunkServer::EnableWriteShield(ChunkId chunk) {
  if (Replica* r = Find(chunk)) {
    r->shield.emplace();
  }
}

void ChunkServer::DisableWriteShield(ChunkId chunk) {
  if (Replica* r = Find(chunk)) {
    r->shield.reset();
  }
}

Result<ReplicaState> ChunkServer::GetState(ChunkId chunk) const {
  const Replica* r = Find(chunk);
  if (r == nullptr) {
    return NotFound("no such chunk replica");
  }
  return r->state;
}

void ChunkServer::InstallView(ChunkId chunk, uint64_t view, uint64_t version,
                              uint64_t write_id) {
  if (Replica* r = Find(chunk)) {
    cluster::InstallView(r->state, view, version, write_id);
  }
}

void ChunkServer::RegisterMetrics(obs::MetricsRegistry* registry) {
  obs::Labels labels{{"server", std::to_string(id_)}};
  registry->RegisterCallbackCounter("server.reads_served", labels,
                                    [this]() { return static_cast<double>(reads_served_); });
  registry->RegisterCallbackCounter("server.writes_served", labels,
                                    [this]() { return static_cast<double>(writes_served_); });
  registry->RegisterCallbackCounter(
      "server.replicates_served", labels,
      [this]() { return static_cast<double>(replicates_served_); });
  registry->RegisterCallbackGauge("server.inflight_ops", labels,
                                  [this]() { return static_cast<double>(inflight_ops_); });
}

void ChunkServer::ReplicaWrite(ChunkId chunk, uint64_t offset, uint64_t length, uint64_t version,
                               ursa::BufferView data, storage::IoCallback done,
                               const obs::SpanRef& span, storage::IoTag tag) {
  if (journal_manager_ != nullptr) {
    journal_manager_->Write(chunk, offset, length, version, std::move(data), std::move(done),
                            span, tag);
  } else if (span != nullptr) {
    Nanos entered = sim_->Now();
    store_->Write(chunk, offset, length, std::move(data),
                  [this, span, entered, done = std::move(done)](const Status& s) {
                    span->RecordStage(obs::Stage::kBackupJournal, sim_->Now() - entered);
                    done(s);
                  },
                  tag);
  } else {
    store_->Write(chunk, offset, length, std::move(data), std::move(done), tag);
  }
}

void ChunkServer::ReplicaRead(ChunkId chunk, uint64_t offset, uint64_t length, BufferView* out,
                              storage::IoCallback done, storage::IoTag tag) {
  if (journal_manager_ != nullptr) {
    journal_manager_->Read(chunk, offset, length, out, std::move(done), tag);
  } else {
    store_->Read(chunk, offset, length, out, std::move(done), tag);
  }
}

void ChunkServer::OpPool::Unref(uint32_t slot, uint32_t gen) {
  Op& op = At(slot, gen);
  if (--op.refs > 0) {
    return;
  }
  if (op.done && server != nullptr) {
    server->Abandon(op);
  }
  // Drop what the op holds; the vectors keep their capacity for reuse.
  ++op.gen;
  op.out = ursa::BufferView();
  op.data = ursa::BufferView();
  op.span = nullptr;
  op.done = nullptr;
  op.backups.clear();
  ops.Release(slot);
}

uint32_t ChunkServer::Admit(ChunkId chunk, uint64_t offset, uint64_t length, uint64_t view,
                            uint64_t version, uint64_t write_id, ursa::BufferView data,
                            const obs::SpanRef& span, ReplyCallback done) {
  uint32_t slot = ops_->ops.Acquire();
  Op& op = OpAt(slot);
  op = Op{.gen = op.gen, .refs = 1, .chunk = chunk, .offset = offset, .length = length,
          .view = view, .version = version, .write_id = write_id, .data = std::move(data),
          .span = span, .entered = sim_->Now(), .done = std::move(done),
          .backups = std::move(op.backups)};
  ++inflight_ops_;
  machine_->BurnCpu(config_.cpu.server_background);
  return slot;
}

void ChunkServer::Reply(Op& op, const Status& s, uint64_t version) {
  --inflight_ops_;
  // The caller's reference keeps the record (and so the callback and the
  // read's bytes) in place while the callback runs.
  op.done(s, version, op.out);
  op.done = nullptr;
}

void ChunkServer::Abandon(const Op& op) {
  --inflight_ops_;
  if (op.applied && heat_ != nullptr) {
    heat_->EndWrite(op.chunk);
  }
}

void ChunkServer::HandleRead(ChunkId chunk, uint64_t offset, uint64_t length, uint64_t view,
                             uint64_t expected_version, ReadCallback done,
                             const obs::SpanRef& span) {
  if (crashed_ || draining_) {
    return;  // silence; the client's timeout machinery reacts
  }
  uint32_t slot = Admit(chunk, offset, length, view, expected_version, 0, {}, span,
                        std::move(done));
  machine_->RunOnCpu(config_.cpu.server_op, [this, slot]() { ServeRead(slot); });
}

void ChunkServer::ServeRead(uint32_t slot) {
  Op& op = OpAt(slot);
  if (op.span != nullptr) {
    op.span->RecordStage(obs::Stage::kServerCpu, sim_->Now() - op.entered);
  }
  const Replica* r = Find(op.chunk);
  Status refused;
  if (r == nullptr) {
    refused = NotFound("chunk not hosted here");
  } else if (Status readable = CheckRead(r->state, op.view, op.version); !readable.ok()) {
    refused = readable;
  } else if (Quarantined(*r, op.offset, op.length)) {
    // Known-bad bytes are never served; repair (already in flight) clears
    // the quarantine once fresh bytes land.
    refused = Corruption("range quarantined by scrub");
  }
  if (!refused.ok()) {
    Reply(op, refused, r == nullptr ? 0 : r->state.version);
    Unref(slot);
    return;
  }
  ++reads_served_;
  if (heat_ != nullptr) {
    heat_->RecordRead(op.chunk, op.length);
  }
  op.reply_version = r->state.version;
  op.io_start = sim_->Now();
  // The CPU stage's reference passes to the device callback.
  ReplicaRead(op.chunk, op.offset, op.length, &op.out,
              [this, slot](const Status& s) { ReadDone(slot, s); },
              storage::IoTag{qos::ServiceClass::kForegroundRead, r->tenant});
}

void ChunkServer::ReadDone(uint32_t slot, const Status& s) {
  Op& op = OpAt(slot);
  if (op.span != nullptr) {
    op.span->RecordStage(obs::Stage::kPrimaryStorage, sim_->Now() - op.io_start);
  }
  Reply(op, s, op.reply_version);
  Unref(slot);
}

Status ChunkServer::AcceptWrite(Op& op, Replica** replica) {
  op.applied = false;
  Replica* r = *replica = Find(op.chunk);
  if (r == nullptr) {
    return NotFound("chunk not hosted here");
  }
  WriteVerdict verdict = JudgeWrite(r->state, op.view, op.version, op.write_id);
  if (verdict != WriteVerdict::kApply) {
    return VerdictStatus(verdict);
  }
  op.applied = true;
  if (r->shield.has_value()) {
    // Speculative promotion target: remember the client-written range so
    // the back-fill never overwrites it with reconstructed old data.
    InsertInterval(&*r->shield, Interval{op.offset, op.length});
  }
  if (heat_ != nullptr) {
    heat_->RecordWrite(op.chunk, op.length);
    heat_->BeginWrite(op.chunk);
  }
  journal_lite_.Record(op.chunk, r->state.version, op.offset, op.length);
  if (checksums_ != nullptr) {
    checksums_->OnWrite(op.chunk, op.offset, op.length, op.data);
  }
  return OkStatus();
}

void ChunkServer::HandleWrite(ChunkId chunk, uint64_t offset, uint64_t length, uint64_t view,
                              uint64_t version, ursa::BufferView data,
                              const std::vector<ReplicaRef>& backups, WriteCallback done,
                              const obs::SpanRef& span, uint64_t write_id) {
  if (crashed_ || draining_) {
    return;
  }
  URSA_CHECK_LT(backups.size(), 64u);  // quorum legs 0 (local) to 63
  uint32_t slot =
      Admit(chunk, offset, length, view, version, write_id, std::move(data), span, std::move(done));
  OpAt(slot).backups.assign(backups.begin(), backups.end());
  machine_->RunOnCpu(config_.cpu.server_op + config_.cpu.server_write_extra,
                     [this, slot]() { ServeWrite(slot); });
}

void ChunkServer::ServeWrite(uint32_t slot) {
  Op& w = OpAt(slot);
  if (w.span != nullptr) {
    w.span->RecordStage(obs::Stage::kServerCpu, sim_->Now() - w.entered);
  }
  Replica* r = nullptr;
  Status accepted = AcceptWrite(w, &r);
  if (!accepted.ok()) {
    Reply(w, accepted, r == nullptr ? 0 : r->state.version);
    Unref(slot);
    return;
  }
  ++writes_served_;
  w.quorum = WriteQuorum(1 + static_cast<int>(w.backups.size()));
  // Authorize majority commit after the timeout (§4.1 step 6). The timeout
  // holds a reference until it fires or CountLeg cancels it.
  ++w.refs;
  w.timeout = sim_->After(kMajorityCommitTimeout, [this, slot]() { CommitTimeout(slot); });

  // Local chunk write (LCW). The primary's device time is its own stage so
  // the trace separates it from the parallel backup legs. A duplicate is a
  // client retry after a partial failure: skip the local write but still
  // forward to backups (§4.2.1). The local leg holds a reference.
  w.io_start = sim_->Now();
  ++w.refs;
  if (w.applied) {
    ReplicaWrite(w.chunk, w.offset, w.length, w.version + 1, w.data,
                 [this, slot](const Status& s) { LocalLegDone(slot, s); }, {},
                 storage::IoTag{qos::ServiceClass::kForegroundWrite, r->tenant});
  } else {
    sim_->After(0, [this, slot]() { LocalLegDone(slot, OkStatus()); });
  }

  // Parallel replication to backups over the network. The shared span
  // max-merges the backup legs' journal appends against the local write.
  uint64_t wire = net::WireBytes(net::MessageType::kReplicate, w.length);
  for (uint32_t b = 0; b < w.backups.size(); ++b) {
    auto deliver = [this, ref = DeliverRef(ops_, slot, w.gen), b]() { DeliverReplicate(ref, b); };
    static_assert(InlineFn::kFitsInline<decltype(deliver)>);
    transport_->Send(node(), w.backups[b].node, wire, std::move(deliver));
  }
  Unref(slot);  // the CPU stage's reference
}

void ChunkServer::CountLeg(uint32_t slot, int leg, bool ok) {
  Op& w = OpAt(slot);
  if (w.quorum.Count(leg, ok)) {
    Decide(w);
    if (sim_->Cancel(w.timeout)) {
      Unref(slot);  // the cancelled timeout's reference
    }
  }
}

void ChunkServer::Decide(Op& w) {
  if (w.applied && heat_ != nullptr) {
    heat_->EndWrite(w.chunk);
  }
  Reply(w, w.quorum.outcome(), w.version + 1);
}

void ChunkServer::LocalLegDone(uint32_t slot, const Status& s) {
  Op& w = OpAt(slot);
  if (w.span != nullptr) {
    w.span->RecordStage(obs::Stage::kPrimaryStorage, sim_->Now() - w.io_start);
  }
  CountLeg(slot, 0, s.ok());
  Unref(slot);
}

void ChunkServer::CommitTimeout(uint32_t slot) {
  Op& w = OpAt(slot);
  if (w.quorum.Expire()) {
    Decide(w);
  }
  Unref(slot);
}

void ChunkServer::DeliverReplicate(const DeliverRef& ref, uint32_t b) {
  Op& w = ref.op();
  ChunkServer* server = resolver_(w.backups[b].server);
  if (server == nullptr) {
    CountLeg(ref.slot(), 1 + b, false);  // the backup server is gone
    return;
  }
  // The ack travels back over the network. Both closures hold a reference,
  // so the op outlives its commit timeout until every ack has landed or
  // been dropped: a late ack still counts toward an undecided quorum.
  auto served = [this, ref, b](const Status& s, uint64_t, const ursa::BufferView&) {
    auto ack = [this, ref, b, ok = s.ok()]() { CountLeg(ref.slot(), 1 + b, ok); };
    static_assert(InlineFn::kFitsInline<decltype(ack)>);
    transport_->Send(ref.op().backups[b].node, node(),
                     net::WireBytes(net::MessageType::kReplicateReply), std::move(ack));
  };
  static_assert(InlineFn::kFitsInline<decltype(served)>);
  server->HandleReplicate(w.chunk, w.offset, w.length, w.view, w.version, w.data,
                          std::move(served), w.span, w.write_id);
}

void ChunkServer::HandleReplicate(ChunkId chunk, uint64_t offset, uint64_t length, uint64_t view,
                                  uint64_t version, ursa::BufferView data, WriteCallback done,
                                  const obs::SpanRef& span, uint64_t write_id) {
  if (crashed_ || draining_) {
    return;
  }
  uint32_t slot =
      Admit(chunk, offset, length, view, version, write_id, std::move(data), span, std::move(done));
  machine_->RunOnCpu(
      config_.cpu.server_op + config_.cpu.replicate_op + config_.cpu.server_write_extra,
      [this, slot]() { ServeReplicate(slot); });
}

void ChunkServer::ServeReplicate(uint32_t slot) {
  Op& op = OpAt(slot);
  if (op.span != nullptr) {
    op.span->RecordStage(obs::Stage::kServerCpu, sim_->Now() - op.entered);
  }
  Replica* r = nullptr;
  Status accepted = AcceptWrite(op, &r);
  if (!accepted.ok() || !op.applied) {
    // A duplicate delivery is acked again.
    Reply(op, accepted, r == nullptr ? 0 : r->state.version);
    Unref(slot);
    return;
  }
  ++replicates_served_;
  op.reply_version = r->state.version;
  // The CPU stage's reference passes to the device callback.
  ReplicaWrite(op.chunk, op.offset, op.length, op.reply_version, op.data,
               [this, slot](const Status& s) { ReplicateDone(slot, s); }, op.span,
               storage::IoTag{qos::ServiceClass::kForegroundWrite, r->tenant});
}

void ChunkServer::ReplicateDone(uint32_t slot, const Status& s) {
  Op& op = OpAt(slot);
  if (heat_ != nullptr) {
    heat_->EndWrite(op.chunk);
  }
  Reply(op, s, op.reply_version);
  Unref(slot);
}

void ChunkServer::HandleVersionQuery(ChunkId chunk, StateCallback done) {
  if (crashed_ || draining_) {
    return;
  }
  machine_->RunOnCpu(config_.cpu.server_op, [this, chunk, done = std::move(done)]() mutable {
    const Replica* r = Find(chunk);
    if (r == nullptr) {
      done(NotFound("chunk not hosted here"), ReplicaState{});
      return;
    }
    done(OkStatus(), r->state);
  });
}

void ChunkServer::HandleRecoveryRead(ChunkId chunk, uint64_t offset, uint64_t length,
                                     ReadCallback done, qos::ServiceClass cls) {
  if (crashed_) {
    return;
  }
  machine_->RunOnCpu(config_.cpu.server_op, [this, chunk, offset, length, cls,
                                             done = std::move(done)]() mutable {
    const Replica* r = Find(chunk);
    if (r == nullptr) {
      done(NotFound("chunk not hosted here"), 0, {});
      return;
    }
    uint64_t version = r->state.version;
    if (Quarantined(*r, offset, length)) {
      // A replica with known-bad bytes in range is never a repair source.
      done(Corruption("range quarantined by scrub"), version, {});
      return;
    }
    auto bytes = std::make_shared<ursa::BufferView>();
    ReplicaRead(chunk, offset, length, bytes.get(),
                [done = std::move(done), version, bytes](const Status& s) {
                  done(s, version, *bytes);
                },
                storage::IoTag{cls, r->tenant});
  });
}

void ChunkServer::HandleRecoveryWrite(ChunkId chunk, uint64_t offset, uint64_t length,
                                      uint64_t version, ursa::BufferView data,
                                      storage::IoCallback done, qos::ServiceClass cls) {
  if (crashed_) {
    return;
  }
  machine_->RunOnCpu(config_.cpu.server_op, [this, chunk, offset, length, version, cls,
                                             data = std::move(data),
                                             done = std::move(done)]() mutable {
    Replica* r = Find(chunk);
    if (r == nullptr) {
      done(NotFound("recovery target chunk not allocated"));
      return;
    }
    // Subtract the shield INSIDE this event: every client write applied so
    // far is in the shield, and no new one can interleave before the pieces
    // below are submitted, so old bytes never land over newer client bytes.
    std::vector<Interval> pieces = r->shield.has_value()
                                       ? SubtractAll(Interval{offset, length}, *r->shield)
                                       : std::vector<Interval>{Interval{offset, length}};
    if (pieces.empty()) {
      sim_->After(0, [done = std::move(done)]() { done(OkStatus()); });
      return;
    }
    struct Join {
      size_t remaining;
      Status first_error;
      storage::IoCallback done;
    };
    auto join = std::make_shared<Join>(Join{pieces.size(), OkStatus(), std::move(done)});
    storage::IoTag tag{cls, r->tenant};
    for (const Interval& p : pieces) {
      ursa::BufferView piece_data = data.Slice(p.offset - offset, p.length);
      if (checksums_ != nullptr) {
        checksums_->OnWrite(chunk, p.offset, p.length, piece_data);
      }
      // Fresh bytes heal whatever scrub flagged in range.
      ClearScrubQuarantine(chunk, p.offset, p.length);
      storage::IoCallback landed = [join](const Status& s) {
        if (!s.ok() && join->first_error.ok()) {
          join->first_error = s;
        }
        if (--join->remaining == 0) {
          join->done(join->first_error);
        }
      };
      if (journal_manager_ != nullptr) {
        journal_manager_->DirectWrite(chunk, p.offset, p.length, version, piece_data,
                                      std::move(landed), tag);
      } else {
        store_->Write(chunk, p.offset, p.length, piece_data, std::move(landed), tag);
      }
    }
  });
}

}  // namespace ursa::cluster
