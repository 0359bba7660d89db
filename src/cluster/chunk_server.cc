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
      config_(config) {}

Status ChunkServer::AllocateChunk(ChunkId chunk, uint64_t view, uint64_t tenant) {
  URSA_RETURN_IF_ERROR(store_->Allocate(chunk));
  states_[chunk] = ReplicaState{.view = view};
  if (tenant != 0) {
    chunk_tenants_[chunk] = tenant;
  }
  return OkStatus();
}

Status ChunkServer::FreeChunk(ChunkId chunk) {
  URSA_RETURN_IF_ERROR(store_->Free(chunk));
  states_.erase(chunk);
  chunk_tenants_.erase(chunk);
  scrub_quarantine_.erase(chunk);
  write_shield_.erase(chunk);
  if (checksums_ != nullptr) {
    checksums_->Drop(chunk);
  }
  return OkStatus();
}

std::vector<ChunkId> ChunkServer::HostedChunks() const {
  std::vector<ChunkId> chunks;
  chunks.reserve(states_.size());
  for (const auto& [chunk, state] : states_) {
    chunks.push_back(chunk);
  }
  return chunks;
}

void ChunkServer::AddScrubQuarantine(ChunkId chunk, uint64_t offset, uint64_t length) {
  scrub_quarantine_[chunk].push_back(Interval{offset, length});
}

void ChunkServer::ClearScrubQuarantine(ChunkId chunk, uint64_t offset, uint64_t length) {
  auto it = scrub_quarantine_.find(chunk);
  if (it == scrub_quarantine_.end()) {
    return;
  }
  std::vector<Interval>& ranges = it->second;
  std::erase_if(ranges, [cleared = Interval{offset, length}](const Interval& r) {
    return r.Overlaps(cleared);
  });
  if (ranges.empty()) {
    scrub_quarantine_.erase(it);
  }
}

bool ChunkServer::IsScrubQuarantined(ChunkId chunk, uint64_t offset, uint64_t length) const {
  auto it = scrub_quarantine_.find(chunk);
  if (it == scrub_quarantine_.end()) {
    return false;
  }
  return std::any_of(it->second.begin(), it->second.end(),
                     [range = Interval{offset, length}](const Interval& r) {
                       return r.Overlaps(range);
                     });
}

size_t ChunkServer::scrub_quarantine_size() const {
  size_t n = 0;
  for (const auto& [chunk, ranges] : scrub_quarantine_) {
    n += ranges.size();
  }
  return n;
}

uint64_t ChunkServer::TenantOf(ChunkId chunk) const {
  auto it = chunk_tenants_.find(chunk);
  return it == chunk_tenants_.end() ? 0 : it->second;
}

Result<ReplicaState> ChunkServer::GetState(ChunkId chunk) const {
  auto it = states_.find(chunk);
  if (it == states_.end()) {
    return NotFound("no such chunk replica");
  }
  return it->second;
}

void ChunkServer::InstallView(ChunkId chunk, uint64_t view, uint64_t version,
                              uint64_t write_id) {
  auto it = states_.find(chunk);
  if (it != states_.end()) {
    cluster::InstallView(it->second, view, version, write_id);
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

void ChunkServer::ReplicaRead(ChunkId chunk, uint64_t offset, uint64_t length, void* out,
                              storage::IoCallback done, storage::IoTag tag) {
  if (journal_manager_ != nullptr) {
    journal_manager_->Read(chunk, offset, length, out, std::move(done), tag);
  } else {
    store_->Read(chunk, offset, length, out, std::move(done), tag);
  }
}

void ChunkServer::HandleRead(ChunkId chunk, uint64_t offset, uint64_t length, uint64_t view,
                             uint64_t expected_version, void* out, ReadCallback done_arg,
                             const obs::SpanRef& span) {
  if (crashed_ || draining_) {
    return;  // silence; the client's timeout machinery reacts
  }
  auto done = TrackOp(std::move(done_arg));
  machine_->BurnCpu(config_.cpu.server_background);
  Nanos entered = sim_->Now();
  machine_->RunOnCpu(config_.cpu.server_op, [this, chunk, offset, length, view, expected_version,
                                             out, entered, span,
                                             done = std::move(done)]() mutable {
    if (span != nullptr) {
      span->RecordStage(obs::Stage::kServerCpu, sim_->Now() - entered);
    }
    auto it = states_.find(chunk);
    if (it == states_.end()) {
      done(NotFound("chunk not hosted here"), 0);
      return;
    }
    const ReplicaState& st = it->second;
    if (Status readable = CheckRead(st, view, expected_version); !readable.ok()) {
      done(readable, st.version);
      return;
    }
    if (IsScrubQuarantined(chunk, offset, length)) {
      // Known-bad bytes are never served; repair (already in flight) clears
      // the quarantine once fresh bytes land.
      done(Corruption("range quarantined by scrub"), st.version);
      return;
    }
    ++reads_served_;
    if (heat_ != nullptr) {
      heat_->RecordRead(chunk, length);
    }
    uint64_t version = st.version;
    Nanos io_start = sim_->Now();
    auto io_done = [this, span, io_start, done = std::move(done), version](const Status& s) {
      if (span != nullptr) {
        span->RecordStage(obs::Stage::kPrimaryStorage, sim_->Now() - io_start);
      }
      done(s, version);
    };
    ReplicaRead(chunk, offset, length, out, std::move(io_done),
                storage::IoTag{qos::ServiceClass::kForegroundRead, TenantOf(chunk)});
  });
}

// One primary-driven write in flight, shared by its legs and its timeout.
struct ChunkServer::PrimaryWrite {
  net::QuorumTracker quorum;
  std::vector<bool> backup_counted;  // a duplicated ack must not count twice
  sim::EventId timeout = 0;
  std::function<void(const Status&)> decided;  // runs once, with the outcome
};

Status ChunkServer::AcceptWrite(ChunkId chunk, uint64_t offset, uint64_t length, uint64_t view,
                                uint64_t version, uint64_t write_id,
                                const ursa::BufferView& data, bool* applied,
                                uint64_t* replica_version) {
  *applied = false;
  *replica_version = 0;
  auto it = states_.find(chunk);
  if (it == states_.end()) {
    return NotFound("chunk not hosted here");
  }
  ReplicaState& st = it->second;
  WriteVerdict verdict = JudgeWrite(st, view, version, write_id);
  *replica_version = st.version;
  if (verdict != WriteVerdict::kApply) {
    return VerdictStatus(verdict);
  }
  *applied = true;
  auto shield = write_shield_.find(chunk);
  if (shield != write_shield_.end()) {
    // Speculative promotion target: remember the client-written range so
    // the back-fill never overwrites it with reconstructed old data.
    InsertInterval(&shield->second, Interval{offset, length});
  }
  if (heat_ != nullptr) {
    heat_->RecordWrite(chunk, length);
    heat_->BeginWrite(chunk);
  }
  journal_lite_.Record(chunk, st.version, offset, length);
  if (checksums_ != nullptr) {
    checksums_->OnWrite(chunk, offset, length, data.data());
  }
  return OkStatus();
}

void ChunkServer::CountLeg(PrimaryWrite& w, const Status& s) {
  if (w.quorum.decided()) {
    return;
  }
  if (s.ok()) {
    w.quorum.RecordSuccess();
  } else {
    w.quorum.RecordFailure();
  }
  if (w.quorum.decided()) {
    w.decided(w.quorum.outcome());
    sim_->Cancel(w.timeout);
  }
}

void ChunkServer::HandleWrite(ChunkId chunk, uint64_t offset, uint64_t length, uint64_t view,
                              uint64_t version, ursa::BufferView data,
                              std::vector<ReplicaRef> backups, WriteCallback done_arg,
                              const obs::SpanRef& span, uint64_t write_id) {
  if (crashed_ || draining_) {
    return;
  }
  auto done = TrackOp(std::move(done_arg));
  machine_->BurnCpu(config_.cpu.server_background);
  Nanos entered = sim_->Now();
  machine_->RunOnCpu(config_.cpu.server_op + config_.cpu.server_write_extra,
                     [this, chunk, offset, length, view, version, data, entered, span, write_id,
                      backups = std::move(backups), done = std::move(done)]() mutable {
    if (span != nullptr) {
      span->RecordStage(obs::Stage::kServerCpu, sim_->Now() - entered);
    }
    bool applied = false;
    uint64_t replica_version = 0;
    Status accepted = AcceptWrite(chunk, offset, length, view, version, write_id, data, &applied,
                                  &replica_version);
    if (!accepted.ok()) {
      done(accepted, replica_version);
      return;
    }
    ++writes_served_;
    int total = 1 + static_cast<int>(backups.size());
    auto w = std::make_shared<PrimaryWrite>(PrimaryWrite{
        .quorum = net::QuorumTracker(total, total / 2 + 1),
        .backup_counted = std::vector<bool>(backups.size(), false),
        .decided = [this, chunk, applied, version, done = std::move(done)](const Status& s) {
          if (applied && heat_ != nullptr) {
            heat_->EndWrite(chunk);
          }
          done(s, version + 1);
        }});
    // Authorize majority commit after the timeout (§4.1 step 6).
    w->timeout = sim_->After(config_.majority_commit_timeout, [w]() {
      w->quorum.TimeoutExpired();
      if (w->quorum.decided()) {
        w->decided(w->quorum.outcome());
      }
    });

    // Local chunk write (LCW). The primary's device time is its own stage so
    // the trace separates it from the parallel backup legs. A duplicate is a
    // client retry after a partial failure: skip the local write but still
    // forward to backups (§4.2.1).
    Nanos io_start = sim_->Now();
    storage::IoCallback local_leg = [this, w, span, io_start](const Status& s) {
      if (span != nullptr) {
        span->RecordStage(obs::Stage::kPrimaryStorage, sim_->Now() - io_start);
      }
      CountLeg(*w, s);
    };
    if (applied) {
      ReplicaWrite(chunk, offset, length, version + 1, data, local_leg, {},
                   storage::IoTag{qos::ServiceClass::kForegroundWrite, TenantOf(chunk)});
    } else {
      sim_->After(0, [local_leg]() { local_leg(OkStatus()); });
    }

    // Parallel replication to backups over the network. The shared span
    // max-merges the backup legs' journal appends against the local write.
    uint64_t wire = net::WireBytes(net::MessageType::kReplicate, length);
    for (size_t b = 0; b < backups.size(); ++b) {
      const ReplicaRef& backup = backups[b];
      auto backup_leg = [this, w, b](const Status& s) {
        if (!w->backup_counted[b]) {
          w->backup_counted[b] = true;
          CountLeg(*w, s);
        }
      };
      auto deliver = [this, backup, chunk, offset, length, view, version, data, backup_leg,
                      span, write_id]() {
        ChunkServer* server = resolver_(backup.server);
        if (server == nullptr) {
          backup_leg(Unavailable("backup server gone"));
          return;
        }
        server->HandleReplicate(
            chunk, offset, length, view, version, data,
            [this, backup, backup_leg](const Status& s, uint64_t) {
              // Reply travels back over the network.
              transport_->Send(backup.node, node(),
                               net::WireBytes(net::MessageType::kReplicateReply),
                               [backup_leg, s]() { backup_leg(s); });
            },
            span, write_id);
      };
      transport_->Send(node(), backup.node, wire, std::move(deliver));
    }
  });
}

void ChunkServer::HandleReplicate(ChunkId chunk, uint64_t offset, uint64_t length, uint64_t view,
                                  uint64_t version, ursa::BufferView data, WriteCallback done_arg,
                                  const obs::SpanRef& span, uint64_t write_id) {
  if (crashed_ || draining_) {
    return;
  }
  auto done = TrackOp(std::move(done_arg));
  machine_->BurnCpu(config_.cpu.server_background);
  Nanos entered = sim_->Now();
  machine_->RunOnCpu(
      config_.cpu.server_op + config_.cpu.replicate_op + config_.cpu.server_write_extra,
      [this, chunk, offset, length, view, version, data, entered, span, write_id,
       done = std::move(done)]() mutable {
        if (span != nullptr) {
          span->RecordStage(obs::Stage::kServerCpu, sim_->Now() - entered);
        }
        bool applied = false;
        uint64_t new_version = 0;
        Status accepted = AcceptWrite(chunk, offset, length, view, version, write_id, data,
                                      &applied, &new_version);
        if (!accepted.ok() || !applied) {
          done(accepted, new_version);  // a duplicate delivery is acked again
          return;
        }
        ++replicates_served_;
        ReplicaWrite(chunk, offset, length, new_version, data,
                     [this, chunk, done = std::move(done), new_version](const Status& s) {
                       if (heat_ != nullptr) {
                         heat_->EndWrite(chunk);
                       }
                       done(s, new_version);
                     },
                     span, storage::IoTag{qos::ServiceClass::kForegroundWrite, TenantOf(chunk)});
      });
}

void ChunkServer::HandleVersionQuery(ChunkId chunk, StateCallback done) {
  if (crashed_ || draining_) {
    return;
  }
  machine_->RunOnCpu(config_.cpu.server_op, [this, chunk, done = std::move(done)]() mutable {
    auto it = states_.find(chunk);
    if (it == states_.end()) {
      done(NotFound("chunk not hosted here"), ReplicaState{});
      return;
    }
    done(OkStatus(), it->second);
  });
}

void ChunkServer::HandleRecoveryRead(ChunkId chunk, uint64_t offset, uint64_t length, void* out,
                                     ReadCallback done, qos::ServiceClass cls) {
  if (crashed_) {
    return;
  }
  machine_->RunOnCpu(config_.cpu.server_op, [this, chunk, offset, length, out, cls,
                                             done = std::move(done)]() mutable {
    auto it = states_.find(chunk);
    if (it == states_.end()) {
      done(NotFound("chunk not hosted here"), 0);
      return;
    }
    uint64_t version = it->second.version;
    if (IsScrubQuarantined(chunk, offset, length)) {
      // A replica with known-bad bytes in range is never a repair source.
      done(Corruption("range quarantined by scrub"), version);
      return;
    }
    ReplicaRead(chunk, offset, length, out,
                [done = std::move(done), version](const Status& s) { done(s, version); },
                storage::IoTag{cls, TenantOf(chunk)});
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
    if (!store_->Contains(chunk)) {
      done(NotFound("recovery target chunk not allocated"));
      return;
    }
    // Subtract the shield INSIDE this event: every client write applied so
    // far is in the shield, and no new one can interleave before the pieces
    // below are submitted, so old bytes never land over newer client bytes.
    auto shield = write_shield_.find(chunk);
    std::vector<Interval> pieces = shield == write_shield_.end()
                                       ? std::vector<Interval>{Interval{offset, length}}
                                       : SubtractAll(Interval{offset, length}, shield->second);
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
    storage::IoTag tag{cls, TenantOf(chunk)};
    for (const Interval& p : pieces) {
      ursa::BufferView piece_data = data.Slice(p.offset - offset, p.length);
      if (checksums_ != nullptr) {
        checksums_->OnWrite(chunk, p.offset, p.length, piece_data.data());
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
