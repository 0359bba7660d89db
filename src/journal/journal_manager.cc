#include "src/journal/journal_manager.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "src/common/logging.h"

namespace ursa::journal {

namespace {

// Idle-poll period of an HDD journal's replay while its disk is busy.
constexpr Nanos kReplayPollInterval = usec(200);

// Aggregates N sub-operation completions into one callback; first error wins.
struct Joiner {
  size_t remaining;
  Status status;
  storage::IoCallback done;

  void Finish(const Status& s) {
    if (!s.ok() && status.ok()) {
      status = s;
    }
    if (--remaining == 0) {
      done(status);
    }
  }
};

// One overlay read's join: each segment lands in its own view, and the last
// to land hands the range to `*out` — the one segment's view itself, or the
// segments copied into one Buffer. First error wins, and leaves `*out` be.
struct OverlayRead {
  size_t remaining;
  Status status;
  storage::IoCallback done;
  ursa::BufferView* out;
  uint64_t length;
  std::vector<std::pair<uint64_t, ursa::BufferView>> pieces;  // {offset in range, bytes}

  void Land(const Status& s) {
    if (!s.ok() && status.ok()) {
      status = s;
    }
    if (--remaining > 0) {
      return;
    }
    if (status.ok() && out != nullptr) {
      if (pieces.size() == 1) {
        *out = std::move(pieces[0].second);
      } else {
        ursa::Buffer range = ursa::Buffer::Allocate(length);
        for (const auto& [at, bytes] : pieces) {
          std::memcpy(range.data() + at, bytes.data(), bytes.size());
        }
        *out = range.View();
      }
    }
    done(status);
  }
};

}  // namespace

JournalManager::JournalManager(sim::Simulator* sim, storage::ChunkStore* backup_store,
                               const JournalManagerOptions& options,
                               obs::MetricsRegistry* registry)
    : sim_(sim), backup_store_(backup_store), options_(options) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry = owned_registry_.get();
  }
  obs::Labels labels;
  if (!options_.name.empty()) {
    labels.emplace_back("journal", options_.name);
  }
  journaled_writes_ = registry->GetCounter("journal.journaled_writes", labels);
  bypassed_writes_ = registry->GetCounter("journal.bypassed_writes", labels);
  direct_fallback_writes_ = registry->GetCounter("journal.direct_fallback_writes", labels);
  replayed_records_ = registry->GetCounter("journal.replayed_records", labels);
  merged_records_ = registry->GetCounter("journal.merged_records", labels);
  replayed_bytes_ = registry->GetCounter("journal.replayed_bytes", labels);
  replay_submits_ = registry->GetCounter("journal.replay_submits", labels);
  expansions_ = registry->GetCounter("journal.expansions", labels);
  corruptions_detected_ = registry->GetCounter("journal.corruptions_detected", labels);
  corruptions_repaired_ = registry->GetCounter("journal.corruptions_repaired", labels);
  torn_tail_bytes_ = registry->GetCounter("journal.torn_tail_bytes", labels);
  registry->RegisterCallbackGauge("journal.backlog_bytes", labels,
                                  [this]() { return static_cast<double>(BacklogBytes()); });
  registry->RegisterCallbackGauge("journal.pending_records", labels,
                                  [this]() { return static_cast<double>(PendingRecords()); });
  registry->RegisterCallbackGauge("journal.index_segments", labels,
                                  [this]() { return static_cast<double>(IndexSegments()); });
}

JournalManager::~JournalManager() {
  if (tick_ != 0) {
    sim_->Cancel(tick_);
  }
}

const JournalStats& JournalManager::stats() const {
  stats_cache_.journaled_writes = journaled_writes_->value();
  stats_cache_.bypassed_writes = bypassed_writes_->value();
  stats_cache_.direct_fallback_writes = direct_fallback_writes_->value();
  stats_cache_.replayed_records = replayed_records_->value();
  stats_cache_.merged_records = merged_records_->value();
  stats_cache_.replayed_bytes = replayed_bytes_->value();
  stats_cache_.replay_submits = replay_submits_->value();
  stats_cache_.expansions = expansions_->value();
  stats_cache_.corruptions_detected = corruptions_detected_->value();
  stats_cache_.corruptions_repaired = corruptions_repaired_->value();
  stats_cache_.torn_tail_bytes = torn_tail_bytes_->value();
  return stats_cache_;
}

uint64_t JournalManager::BacklogBytes() const {
  uint64_t total = 0;
  for (const JournalSlot& slot : journals_) {
    for (const AppendedRecord& rec : slot.writer->pending()) {
      total += rec.length;
    }
  }
  return total;
}

uint64_t JournalManager::PendingRecords() const {
  uint64_t total = 0;
  for (const JournalSlot& slot : journals_) {
    total += slot.writer->pending().size();
  }
  return total;
}

uint64_t JournalManager::IndexSegments() const {
  uint64_t total = 0;
  for (const auto& [chunk, index] : indexes_) {
    total += index.MappedSegments(&scratch_segments_);
  }
  return total;
}

void JournalManager::AddJournal(std::unique_ptr<JournalWriter> writer, bool on_hdd) {
  URSA_CHECK_LT(journals_.size() * kWindowSectors, index::kMaxJOffset)
      << "too many journals for the 30-bit j-space";
  journals_.push_back(JournalSlot{std::move(writer), on_hdd});
}

index::RangeIndex& JournalManager::IndexFor(storage::ChunkId chunk) {
  return indexes_.try_emplace(chunk).first->second;
}

void JournalManager::Write(storage::ChunkId chunk, uint64_t offset, uint64_t length,
                           uint64_t version, ursa::BufferView data, storage::IoCallback done,
                           const obs::SpanRef& span, storage::IoTag tag) {
  URSA_CHECK_EQ(offset % kSector, 0u);
  URSA_CHECK_EQ(length % kSector, 0u);
  URSA_CHECK_GT(length, 0u);

  if (span != nullptr) {
    // Stamp the durable-append (or fallback HDD write) duration; the replica
    // legs run in parallel so the tracer max-merges this with the primary's
    // storage stage.
    Nanos entered = sim_->Now();
    done = [this, span, entered, done = std::move(done)](const Status& s) {
      span->RecordStage(obs::Stage::kBackupJournal, sim_->Now() - entered);
      done(s);
    };
  }

  if (length > options_.bypass_threshold || journals_.empty()) {
    // Journal bypass (§3.2): large sequential writes go straight to the HDD.
    bypassed_writes_->Increment();
    DirectWrite(chunk, offset, length, version, std::move(data), std::move(done), tag);
    return;
  }

  // Scan journals in preference order: replay continuously frees SSD-journal
  // space, so after an expansion the load returns to the SSD journal as soon
  // as it has room again.
  for (size_t k = 0; k < journals_.size(); ++k) {
    if (!journals_[k].writer->CanFit(length)) {
      continue;
    }
    Result<uint64_t> j_off = journals_[k].writer->Append(
        chunk, static_cast<uint32_t>(offset), static_cast<uint32_t>(length), version, data,
        std::move(done), tag);
    URSA_CHECK(j_off.ok());  // CanFit guaranteed space
    if (k > active_) {
      expansions_->Increment();
      URSA_LOG(INFO) << "journal expansion to " << journals_[k].writer->name();
    }
    active_ = k;
    journaled_writes_->Increment();
    IndexFor(chunk).Insert(static_cast<uint32_t>(offset / kSector),
                           static_cast<uint32_t>(length / kSector), ToJSector(k, *j_off));
    Kick();
    return;
  }

  // Every journal is full: fall back to a direct backup write.
  direct_fallback_writes_->Increment();
  DirectWrite(chunk, offset, length, version, std::move(data), std::move(done), tag);
}

void JournalManager::DirectWrite(storage::ChunkId chunk, uint64_t offset, uint64_t length,
                                 uint64_t version, ursa::BufferView data,
                                 storage::IoCallback done, storage::IoTag tag) {
  URSA_CHECK_EQ(offset % kSector, 0u);
  URSA_CHECK_EQ(length % kSector, 0u);
  DropMappingsUpTo(chunk, offset, length, version);
  bool need_marker = false;
  for (size_t k = 0; k < journals_.size() && !need_marker; ++k) {
    need_marker = journals_[k].writer->appended_records() > 0;
  }
  if (!need_marker) {
    backup_store_->Write(chunk, offset, length, data, std::move(done), tag);
    return;
  }
  auto joiner = std::make_shared<Joiner>();
  joiner->remaining = 2;
  joiner->done = std::move(done);
  backup_store_->Write(chunk, offset, length, data,
                       [joiner](const Status& s) { joiner->Finish(s); }, tag);
  markers_.push_back(Marker{chunk, offset, length, version, tag,
                            [joiner](const Status& s) { joiner->Finish(s); }});
  AppendMarkers();
  Kick();
}

void JournalManager::DropMappingsUpTo(storage::ChunkId chunk, uint64_t offset, uint64_t length,
                                      uint64_t version) {
  const uint32_t lo = static_cast<uint32_t>(offset / kSector);
  const uint32_t len = static_cast<uint32_t>(length / kSector);
  index::RangeIndex& index = IndexFor(chunk);
  index::SegmentVec mapped;
  index.QueryMappedTo(lo, len, &mapped);
  auto newer = [this, version](const index::Segment& seg) {
    const AppendedRecord* rec =
        FindPendingRecord(JournalOf(seg.j_offset), ByteOffsetOf(seg.j_offset));
    return rec != nullptr && rec->version > version;
  };
  if (std::none_of(mapped.begin(), mapped.end(), newer)) {
    index.EraseRange(lo, len);
    return;
  }
  for (const index::Segment& seg : mapped) {
    if (!newer(seg)) {
      index.EraseIfMapsTo(seg.offset, seg.length, seg.j_offset);
    }
  }
}

void JournalManager::AppendMarkers() {
  while (!markers_.empty()) {
    Marker& m = markers_.front();
    bool appended = false;
    for (size_t k = active_; k < journals_.size() && !appended; ++k) {
      appended = journals_[k]
                     .writer
                     ->AppendInvalidation(m.chunk, static_cast<uint32_t>(m.offset),
                                          static_cast<uint32_t>(m.length), m.version, m.done,
                                          m.tag)
                     .ok();
    }
    if (!appended) {
      return;  // no room: the next replay wave's free retries
    }
    markers_.pop_front();
  }
}

void JournalManager::Read(storage::ChunkId chunk, uint64_t offset, uint64_t length,
                          ursa::BufferView* out, storage::IoCallback done, storage::IoTag tag) {
  URSA_CHECK_EQ(offset % kSector, 0u);
  URSA_CHECK_EQ(length % kSector, 0u);

  if (IsQuarantined(chunk, offset, length)) {
    // Detected-corrupt, not yet re-replicated: an explicit integrity error is
    // the contract — never stale bytes.
    sim_->After(0, [done = std::move(done)]() {
      done(Corruption("backup range quarantined pending repair"));
    });
    return;
  }

  auto it = indexes_.find(chunk);
  // Overlay resolution is allocation-free: segments land in an inline vector
  // (heap only past SegmentVec::kInline segments per read).
  index::SegmentVec segments;
  if (it != indexes_.end()) {
    it->second.QueryTo(static_cast<uint32_t>(offset / kSector),
                       static_cast<uint32_t>(length / kSector), &segments);
  } else {
    segments.push_back(index::Segment{static_cast<uint32_t>(offset / kSector),
                                      static_cast<uint32_t>(length / kSector), 0, false});
  }

  auto read = std::make_shared<OverlayRead>();
  read->remaining = segments.size();
  read->done = std::move(done);
  read->out = out;
  read->length = length;
  read->pieces.resize(segments.size());
  for (size_t i = 0; i < segments.size(); ++i) {
    const index::Segment& seg = segments[i];
    uint64_t seg_offset = static_cast<uint64_t>(seg.offset) * kSector;
    uint64_t seg_length = static_cast<uint64_t>(seg.length) * kSector;
    read->pieces[i].first = seg_offset - offset;
    ursa::BufferView* bytes = out == nullptr ? nullptr : &read->pieces[i].second;
    auto cb = [read](const Status& s) { read->Land(s); };
    if (seg.mapped) {
      size_t k = JournalOf(seg.j_offset);
      URSA_CHECK_LT(k, journals_.size());
      uint64_t byte_off = ByteOffsetOf(seg.j_offset);
      const AppendedRecord* rec = FindPendingRecord(k, byte_off);
      if (rec != nullptr && rec->has_data && bytes != nullptr) {
        // Verify the covering record's CRC against the on-device bytes before
        // serving any slice of it: the stored CRC spans the whole payload, so
        // the whole payload is read (records are <= Tj = 64 KB), and the
        // segment is a slice of the verified view.
        AppendedRecord rc = *rec;
        journals_[k].writer->ReadPayload(
            rc.j_offset, rc.length, bytes,
            [this, k, rc, read, bytes, at = byte_off - rc.j_offset,
             seg_length](const Status& s) {
              if (s.ok() && rc.ToHeader().ComputeCrc(bytes->data()) != rc.crc) {
                OnCorruptRecord(k, rc);
                read->Land(Corruption("journal record failed CRC on read"));
                return;
              }
              *bytes = bytes->Slice(at, seg_length);
              read->Land(s);
            },
            tag);
        continue;
      }
      journals_[k].writer->ReadPayload(byte_off, static_cast<uint32_t>(seg_length), bytes,
                                       std::move(cb), tag);
    } else {
      backup_store_->Read(chunk, seg_offset, seg_length, bytes, std::move(cb), tag);
    }
  }
}

void JournalManager::RecoverFromJournals(storage::IoCallback done) {
  indexes_.clear();
  // The quarantine is volatile, but it is NOT safe to simply forget it: a
  // crash mid-repair would otherwise resurrect reads of damaged ranges. The
  // scans below re-detect every mid-ring corrupt record (decodable header,
  // failed CRC) and `finish` re-quarantines those ranges and re-kicks the
  // repair pipeline before any read is served.
  quarantine_.clear();
  auto remaining = std::make_shared<size_t>(journals_.size());
  auto first_error = std::make_shared<Status>();
  auto all = std::make_shared<std::vector<std::vector<AppendedRecord>>>(journals_.size());
  auto reports = std::make_shared<std::vector<ScanReport>>(journals_.size());
  auto done_shared = std::make_shared<storage::IoCallback>(std::move(done));
  auto finish = [this, remaining, first_error, all, reports, done_shared]() {
    if (--*remaining > 0) {
      return;
    }
    if (!first_error->ok()) {
      (*done_shared)(*first_error);
      return;
    }
    // Apply all surviving records in per-chunk version order so the newest
    // mapping wins (Insert invalidates older intersecting entries).
    struct Tagged {
      size_t journal;
      AppendedRecord rec;
    };
    std::vector<Tagged> tagged;
    for (size_t k = 0; k < all->size(); ++k) {
      for (const AppendedRecord& rec : (*all)[k]) {
        tagged.push_back(Tagged{k, rec});
      }
    }
    std::stable_sort(tagged.begin(), tagged.end(), [](const Tagged& a, const Tagged& b) {
      if (a.rec.chunk_id != b.rec.chunk_id) {
        return a.rec.chunk_id < b.rec.chunk_id;
      }
      return a.rec.version < b.rec.version;
    });
    for (const Tagged& t : tagged) {
      if (t.rec.invalidation) {
        // A bypass superseded this range: drop any older journal mappings.
        IndexFor(t.rec.chunk_id)
            .EraseRange(static_cast<uint32_t>(t.rec.chunk_offset / kSector),
                        static_cast<uint32_t>(t.rec.length / kSector));
      } else {
        IndexFor(t.rec.chunk_id)
            .Insert(static_cast<uint32_t>(t.rec.chunk_offset / kSector),
                    static_cast<uint32_t>(t.rec.length / kSector),
                    ToJSector(t.journal, t.rec.j_offset));
      }
    }
    for (size_t k = 0; k < journals_.size(); ++k) {
      journals_[k].writer->RestorePending(std::move((*all)[k]));
    }
    // Re-arm quarantines for settled records damaged in place (crash during
    // an in-flight corruption repair, or silent damage while down). The range
    // must fail reads with kCorruption — never stale HDD bytes — until the
    // repair pipeline lands fresh data and clears it.
    for (size_t k = 0; k < reports->size(); ++k) {
      for (const ScanReport::CorruptRange& cr : (*reports)[k].corrupt_ranges) {
        if (IsQuarantined(cr.chunk, cr.offset, cr.length)) {
          continue;  // overlapping damage already re-armed
        }
        corruptions_detected_->Increment();
        URSA_LOG(INFO) << journals_[k].writer->name()
                       << ": re-quarantined corrupt record for chunk " << cr.chunk << " ["
                       << cr.offset << ", +" << cr.length << ") after rebuild";
        AddQuarantine(cr.chunk, cr.offset, cr.length);
        if (corruption_handler_) {
          corruption_handler_(cr.chunk, cr.offset, cr.length,
                              [this, chunk = cr.chunk, offset = cr.offset,
                               length = cr.length]() { Heal(chunk, offset, length); });
        }
      }
    }
    active_ = 0;
    restored_ = true;
    Kick();
    (*done_shared)(OkStatus());
  };
  for (size_t k = 0; k < journals_.size(); ++k) {
    journals_[k].writer->Scan([this, k, all, reports, first_error, finish](
                                  const Status& s, std::vector<AppendedRecord> records,
                                  ScanReport report) {
      if (!s.ok() && first_error->ok()) {
        *first_error = s;
      }
      if (report.torn_tail_bytes > 0) {
        torn_tail_bytes_->Add(static_cast<double>(report.torn_tail_bytes));
        URSA_LOG(INFO) << journals_[k].writer->name() << ": truncated "
                       << report.torn_tail_records << " torn tail record(s), "
                       << report.torn_tail_bytes << " bytes";
      }
      (*all)[k] = std::move(records);
      (*reports)[k] = std::move(report);
      finish();
    });
  }
}

void JournalManager::StartReplay() {
  replay_running_ = true;
  Kick();
}

bool JournalManager::ReplayDrained() const {
  for (const JournalSlot& slot : journals_) {
    if (slot.writer->HasPending()) {
      return false;
    }
  }
  return true;
}

std::vector<index::Segment> JournalManager::IndexSnapshot(storage::ChunkId chunk) const {
  auto it = indexes_.find(chunk);
  if (it == indexes_.end()) {
    return {};
  }
  it->second.QueryMappedTo(0, index::kMaxOffset, &scratch_segments_);
  return std::vector<index::Segment>(scratch_segments_.begin(), scratch_segments_.end());
}

bool JournalManager::HasIndexedData(storage::ChunkId chunk) const {
  auto it = indexes_.find(chunk);
  if (it == indexes_.end() || (it->second.tree_size() == 0 && it->second.array_size() == 0)) {
    return false;
  }
  it->second.QueryMappedTo(0, index::kMaxOffset, &scratch_segments_);
  return !scratch_segments_.empty();
}

void JournalManager::Kick() {
  if (!replay_running_ || replay_wave_inflight_ || tick_ != 0) {
    return;
  }
  ScheduleTick(0);
}

void JournalManager::ScheduleTick(Nanos delay) {
  tick_ = sim_->After(delay, [this]() {
    tick_ = 0;
    ReplayTick();
  });
}

void JournalManager::ReplayTick() {
  if (!replay_running_ || replay_wave_inflight_) {
    return;
  }
  // QoS backpressure: when the backup device's scheduler reports the replay
  // class at its high watermark, pause producing waves and resume (one armed
  // waiter at a time) once it drains to the low watermark. Without a gate
  // this is a no-op.
  storage::IoGate* gate = backup_store_->device()->gate();
  if (gate != nullptr && gate->ShouldThrottle(qos::ServiceClass::kJournalReplay)) {
    if (!replay_waiting_ready_) {
      replay_waiting_ready_ = true;
      gate->WhenReady(qos::ServiceClass::kJournalReplay, [this]() {
        replay_waiting_ready_ = false;
        Kick();
      });
    }
    return;
  }
  // Prefer SSD journals (replayed continuously, §3.2); HDD journals are
  // replayed only when their device is idle.
  size_t chosen = journals_.size();
  bool waiting_on_busy_hdd = false;
  for (size_t k = 0; k < journals_.size(); ++k) {
    if (!journals_[k].writer->HasPending()) {
      continue;
    }
    if (!journals_[k].on_hdd) {
      chosen = k;
      break;
    }
    if (journals_[k].writer->device()->inflight() == 0) {
      if (chosen == journals_.size()) {
        chosen = k;
      }
    } else {
      waiting_on_busy_hdd = true;
    }
  }
  if (chosen == journals_.size()) {
    if (waiting_on_busy_hdd) {
      // Poll for idleness; bounded because the HDD must eventually drain.
      ScheduleTick(kReplayPollInterval);
    }
    return;  // fully drained: stop; the next Write() re-kicks us
  }

  JournalWriter* writer = journals_[chosen].writer.get();
  size_t n = std::min(options_.replay_batch, writer->pending().size());
  URSA_CHECK_GT(n, 0u);
  replay_wave_inflight_ = true;

  wave_.journal = chosen;
  wave_.records_remaining = n;
  wave_.prep_remaining = n;
  wave_.records.resize(n);
  wave_.live.clear();
  wave_.intents.clear();
  wave_.runs.clear();
  for (size_t i = 0; i < n; ++i) {
    PrepareReplay(i);
  }
}

bool JournalManager::IsQuarantined(storage::ChunkId chunk, uint64_t offset,
                                   uint64_t length) const {
  auto it = quarantine_.find(chunk);
  if (it == quarantine_.end()) {
    return false;
  }
  for (const auto& [q_off, q_len] : it->second) {
    if (offset < q_off + q_len && q_off < offset + length) {
      return true;
    }
  }
  return false;
}

void JournalManager::AddQuarantine(storage::ChunkId chunk, uint64_t offset, uint64_t length) {
  quarantine_[chunk].emplace_back(offset, length);
}

void JournalManager::ClearQuarantine(storage::ChunkId chunk, uint64_t offset,
                                     uint64_t length) {
  auto it = quarantine_.find(chunk);
  if (it == quarantine_.end()) {
    return;
  }
  auto& ranges = it->second;
  ranges.erase(std::remove_if(ranges.begin(), ranges.end(),
                              [&](const std::pair<uint64_t, uint64_t>& r) {
                                return r.first >= offset && r.first + r.second <= offset + length;
                              }),
               ranges.end());
  if (ranges.empty()) {
    quarantine_.erase(it);
  }
}

const AppendedRecord* JournalManager::FindPendingRecord(size_t idx, uint64_t byte_off) const {
  // Newest first: a mapped record is usually a recent one.
  const auto& pending = journals_[idx].writer->pending();
  for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
    if (!it->invalidation && byte_off >= it->j_offset && byte_off < it->j_offset + it->length) {
      return &*it;
    }
  }
  return nullptr;
}

void JournalManager::OnCorruptRecord(size_t idx, const AppendedRecord& rec) {
  corruptions_detected_->Increment();
  URSA_LOG(INFO) << journals_[idx].writer->name() << ": CRC mismatch on record for chunk "
                 << rec.chunk_id << " [" << rec.chunk_offset << ", +" << rec.length
                 << "), quarantining";
  // Drop the stale mappings so no read resolves into the damaged record, and
  // quarantine the range so reads fail with kCorruption (not old HDD bytes)
  // until the cluster re-replicates it.
  uint32_t lo = rec.chunk_offset / static_cast<uint32_t>(kSector);
  uint32_t len = static_cast<uint32_t>(rec.length / kSector);
  uint64_t rec_j = ToJSector(idx, rec.j_offset);
  index::RangeIndex& index = IndexFor(rec.chunk_id);
  index::SegmentVec mapped;
  index.QueryMappedTo(lo, len, &mapped);
  for (const index::Segment& seg : mapped) {
    if (seg.j_offset == rec_j + (seg.offset - lo)) {
      index.EraseIfMapsTo(seg.offset, seg.length, seg.j_offset);
    }
  }
  AddQuarantine(rec.chunk_id, rec.chunk_offset, rec.length);
  if (corruption_handler_) {
    corruption_handler_(rec.chunk_id, rec.chunk_offset, rec.length,
                        [this, chunk = rec.chunk_id, offset = static_cast<uint64_t>(rec.chunk_offset),
                         length = static_cast<uint64_t>(rec.length)]() {
                          Heal(chunk, offset, length);
                        });
  }
}

bool JournalManager::InjectBitFlip(Rng& rng) {
  struct Candidate {
    size_t journal;
    const AppendedRecord* rec;
  };
  std::vector<Candidate> candidates;
  for (size_t k = 0; k < journals_.size(); ++k) {
    for (const AppendedRecord& rec : journals_[k].writer->pending()) {
      if (!rec.has_data || rec.invalidation || rec.length == 0) {
        continue;
      }
      // Only records the index still maps (some range not yet overwritten or
      // merged) — flipping a dead record is undetectable by design, since
      // nothing will ever read it back.
      uint32_t lo = static_cast<uint32_t>(rec.chunk_offset / kSector);
      uint32_t len = static_cast<uint32_t>(rec.length / kSector);
      uint64_t rec_j = ToJSector(k, rec.j_offset);
      bool live = false;
      index::SegmentVec mapped;
      IndexFor(rec.chunk_id).QueryMappedTo(lo, len, &mapped);
      for (const index::Segment& seg : mapped) {
        if (seg.j_offset == rec_j + (seg.offset - lo)) {
          live = true;
          break;
        }
      }
      if (live) {
        candidates.push_back(Candidate{k, &rec});
      }
    }
  }
  if (candidates.empty()) {
    return false;
  }
  const Candidate& c = candidates[rng.Uniform(candidates.size())];
  uint64_t byte = rng.Uniform(c.rec->length);
  uint8_t mask = static_cast<uint8_t>(1u << rng.Uniform(8));
  journals_[c.journal].writer->CorruptByte(c.rec->j_offset + byte, mask);
  return true;
}

void JournalManager::RecordDone() {
  if (--wave_.records_remaining > 0) {
    return;
  }
  for (ReplayWave::Record& r : wave_.records) {
    r.payload = ursa::BufferView();
    FreeFront(wave_.journal);
  }
  ReleaseKept();
  AppendMarkers();
  if (restored_ && ReplayDrained() && !AnyKept()) {
    restored_ = false;
  }
  replay_wave_inflight_ = false;
  Kick();
}

void JournalManager::FreeFront(size_t k) {
  JournalWriter* writer = journals_[k].writer.get();
  if (MustKeep(k, writer->pending().front())) {
    writer->PopFrontAndKeep();
  } else {
    writer->PopFrontAndFree();
  }
}

bool JournalManager::MustKeep(size_t k, const AppendedRecord& rec) const {
  if (IsQuarantined(rec.chunk_id, rec.chunk_offset, rec.length)) {
    return true;
  }
  // Each journal frees in append order, and a chunk's versions rise in
  // append order, so with one journal holding records an older overlapping
  // record would have been freed first. Only a second journal, a kept
  // record or a rebuilt queue can hold one.
  bool may_overlap = restored_ || AnyKept();
  for (size_t j = 0; j < journals_.size() && !may_overlap; ++j) {
    may_overlap = j != k && journals_[j].writer->HasPending();
  }
  if (!may_overlap) {
    return false;
  }
  auto older = [&rec](const AppendedRecord& o) {
    return !o.invalidation && o.chunk_id == rec.chunk_id && o.version < rec.version &&
           o.chunk_offset < rec.chunk_offset + rec.length &&
           rec.chunk_offset < o.chunk_offset + o.length;
  };
  for (const JournalSlot& slot : journals_) {
    if (std::any_of(slot.writer->pending().begin(), slot.writer->pending().end(), older) ||
        std::any_of(slot.writer->kept().begin(), slot.writer->kept().end(), older)) {
      return true;
    }
  }
  return false;
}

void JournalManager::ReleaseKept() {
  // Releasing one record can unblock another, so sweep until nothing moves.
  for (bool released = true; released;) {
    released = false;
    for (size_t k = 0; k < journals_.size(); ++k) {
      JournalWriter* writer = journals_[k].writer.get();
      for (size_t i = 0; i < writer->kept().size();) {
        if (MustKeep(k, writer->kept()[i])) {
          ++i;
          continue;
        }
        writer->Release(i);
        released = true;
      }
    }
  }
}

bool JournalManager::AnyKept() const {
  return std::any_of(journals_.begin(), journals_.end(),
                     [](const JournalSlot& slot) { return !slot.writer->kept().empty(); });
}

void JournalManager::Heal(storage::ChunkId chunk, uint64_t offset, uint64_t length) {
  ClearQuarantine(chunk, offset, length);
  corruptions_repaired_->Increment();
  ReleaseKept();
  AppendMarkers();
}

void JournalManager::PrepDone() {
  if (--wave_.prep_remaining > 0) {
    return;
  }
  FlushWave();
}

// Phase A for one record: decide live sub-ranges (overwrite merging, §3.2),
// read + CRC-verify the payload, and queue merge intents on the wave.
void JournalManager::PrepareReplay(size_t record_pos) {
  const size_t idx = wave_.journal;
  JournalWriter* writer = journals_[idx].writer.get();
  ReplayWave::Record& r = wave_.records[record_pos];
  r.rec = writer->pending()[record_pos];
  const AppendedRecord& rec = r.rec;
  const storage::IoTag replay_tag{qos::ServiceClass::kJournalReplay, 0};

  // Which sub-ranges of this record are still live (not overwritten by a
  // newer append or bypass)? Dead ranges are skipped — this is the overwrite
  // merging that lets journals outperform direct HDD backup writes (§3.2).
  uint32_t lo = static_cast<uint32_t>(rec.chunk_offset / kSector);
  uint32_t len = static_cast<uint32_t>(rec.length / kSector);
  uint64_t rec_j = ToJSector(idx, rec.j_offset);
  IndexFor(rec.chunk_id).QueryMappedTo(lo, len, &scratch_segments_);
  r.live_begin = wave_.live.size();
  for (const index::Segment& seg : scratch_segments_) {
    if (seg.j_offset == rec_j + (seg.offset - lo)) {
      wave_.live.push_back(seg);
    }
  }
  r.live_end = wave_.live.size();
  r.segs_remaining = r.live_end - r.live_begin;
  if (r.segs_remaining == 0) {
    merged_records_->Increment();
    RecordDone();
    PrepDone();
    return;
  }
  r.slot_off = backup_store_->SlotOffset(rec.chunk_id);

  if (rec.has_data) {
    // Read the whole payload once: the stored CRC32C covers the full record,
    // and the bytes are needed for the merge anyway. A mismatch means the
    // journal was silently corrupted after the durable append (bit flip, lost
    // write) — the record's live ranges are quarantined and re-replicated
    // from a healthy replica instead of being replayed as garbage. The CRC is
    // recomputed from the bytes read, never taken from the appender's sums.
    // The read is zero-copy: the payload view shares the journal device's
    // stored bytes (the appended Buffer), and the merge writes below hand
    // slices of it on to the backup device store.
    writer->ReadPayload(
        rec.j_offset, rec.length, &r.payload,
        [this, record_pos](const Status& s) {
          URSA_CHECK(s.ok()) << "journal read failed during replay: " << s.ToString();
          ReplayWave::Record& done = wave_.records[record_pos];
          if (done.rec.ToHeader().ComputeCrc(done.payload.data()) != done.rec.crc) {
            OnCorruptRecord(wave_.journal, done.rec);
            done.segs_remaining = 0;  // consume: data is unusable
            RecordDone();
            PrepDone();
            return;
          }
          for (size_t i = done.live_begin; i < done.live_end; ++i) {
            const index::Segment& seg = wave_.live[i];
            ReplayWave::Intent intent;
            intent.chunk = done.rec.chunk_id;
            intent.seg = seg;
            intent.chunk_off = static_cast<uint64_t>(seg.offset) * kSector;
            intent.length = static_cast<uint64_t>(seg.length) * kSector;
            intent.src = done.payload.Slice(ByteOffsetOf(seg.j_offset) - done.rec.j_offset,
                                            intent.length);
            intent.record = record_pos;
            intent.device_off = done.slot_off + intent.chunk_off;
            wave_.intents.push_back(intent);
          }
          PrepDone();
        },
        replay_tag);
    return;
  }

  // Timing-only records carry no bytes to verify; keep the per-segment
  // journal-read legs so performance experiments see the same journal-device
  // traffic as before, then queue null-src merge intents.
  r.reads_remaining = r.segs_remaining;
  for (size_t i = r.live_begin; i < r.live_end; ++i) {
    const index::Segment& seg = wave_.live[i];
    uint64_t seg_bytes = static_cast<uint64_t>(seg.length) * kSector;
    writer->ReadPayload(
        ByteOffsetOf(seg.j_offset), static_cast<uint32_t>(seg_bytes), nullptr,
        [this, record_pos, i](const Status& s) {
          URSA_CHECK(s.ok()) << "journal read failed during replay: " << s.ToString();
          ReplayWave::Record& done = wave_.records[record_pos];
          const index::Segment& seg = wave_.live[i];
          ReplayWave::Intent intent;
          intent.chunk = done.rec.chunk_id;
          intent.seg = seg;
          intent.chunk_off = static_cast<uint64_t>(seg.offset) * kSector;
          intent.length = static_cast<uint64_t>(seg.length) * kSector;
          intent.record = record_pos;
          intent.device_off = done.slot_off + intent.chunk_off;
          wave_.intents.push_back(intent);
          if (--done.reads_remaining == 0) {
            PrepDone();
          }
        },
        replay_tag);
  }
}

// Phase B: sort the wave's merge intents into ascending backup-device offset
// and coalesce adjacent runs into single gather submits — the HDD's elevator
// then services a replay wave as a handful of near-sequential writes instead
// of replay_batch scattered ones.
void JournalManager::FlushWave() {
  std::vector<ReplayWave::Intent>& intents = wave_.intents;
  if (intents.empty()) {
    return;  // every record was merged or corrupt; RecordDone already ran
  }
  const storage::IoTag replay_tag{qos::ServiceClass::kJournalReplay, 0};
  // Live mappings are disjoint and each chunk has its own slot, so device
  // offsets are distinct: an in-place sort gives the one ascending order.
  std::sort(intents.begin(), intents.end(),
            [](const ReplayWave::Intent& a, const ReplayWave::Intent& b) {
              return a.device_off < b.device_off;
            });
  size_t i = 0;
  while (i < intents.size()) {
    // Adjacency in device space means exact contiguity. Data and
    // timing-only intents never mix in one run: a null gather segment
    // writes zeros, which a timing-only merge must not do.
    size_t j = i + 1;
    while (j < intents.size()) {
      const ReplayWave::Intent& prev = intents[j - 1];
      const ReplayWave::Intent& next = intents[j];
      if (next.chunk != prev.chunk || !next.src != !prev.src ||
          prev.device_off + prev.length != next.device_off) {
        break;
      }
      ++j;
    }
    wave_.runs.push_back(ReplayWave::Run{i, j});
    i = j;
  }
  // Submitted after the runs are all laid out: a completion may run
  // synchronously, and RunWritten indexes wave_.runs.
  for (size_t run = 0; run < wave_.runs.size(); ++run) {
    const ReplayWave::Intent& front = intents[wave_.runs[run].begin];
    const ReplayWave::Run span = wave_.runs[run];
    replay_submits_->Increment();
    auto on_written = [this, run](const Status& s) {
      URSA_CHECK(s.ok()) << "backup write failed during replay: " << s.ToString();
      RunWritten(run);
    };
    if (front.src) {
      std::vector<storage::IoSegment> segments;
      segments.reserve(span.end - span.begin);
      for (size_t k = span.begin; k < span.end; ++k) {
        segments.push_back(storage::IoSegment{intents[k].src, intents[k].length});
      }
      backup_store_->WriteGather(front.chunk, front.chunk_off, std::move(segments),
                                 /*background=*/true, std::move(on_written), replay_tag);
    } else {
      uint64_t run_len = 0;
      for (size_t k = span.begin; k < span.end; ++k) {
        run_len += intents[k].length;
      }
      backup_store_->WriteBackground(front.chunk, front.chunk_off, run_len, ursa::BufferView(),
                                     std::move(on_written), replay_tag);
    }
  }
}

void JournalManager::RunWritten(size_t run) {
  const ReplayWave::Run span = wave_.runs[run];
  for (size_t k = span.begin; k < span.end; ++k) {
    const ReplayWave::Intent& intent = wave_.intents[k];
    IndexFor(intent.chunk).EraseIfMapsTo(intent.seg.offset, intent.seg.length,
                                         intent.seg.j_offset);
    replayed_bytes_->Add(static_cast<double>(intent.length));
    if (--wave_.records[intent.record].segs_remaining == 0) {
      replayed_records_->Increment();
      RecordDone();
    }
  }
}

}  // namespace ursa::journal
