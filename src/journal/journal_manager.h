// JournalManager: the SSD-HDD-hybrid backup write path (§3.2).
//
// One manager serves one backup HDD. Small backup writes (<= Tj = 64 KB)
// become sequential appends to a journal — preferably a quota-bounded region
// of a co-located SSD — and are acknowledged as soon as the append is
// durable. A replay worker asynchronously merges journal records into the
// backup HDD's chunk store, skipping records whose ranges were overwritten by
// newer appends (overwrite merging) and writing in elevator-friendly order.
// Large writes (> Tj) bypass journals straight to the HDD, invalidating any
// overlapped journal mappings in the per-chunk RangeIndex.
//
// On-demand expansion (§3.2): when the active journal's ring is full, the
// manager moves on to the next registered journal (least-loaded co-located
// SSD, then an HDD journal that is replayed only when the disk is idle). When
// every journal is full the write falls through to a direct HDD write (the
// cluster additionally rate-limits such clients). Bypasses, fallbacks and
// recovery writes are all direct writes (DirectWrite).
#ifndef URSA_JOURNAL_JOURNAL_MANAGER_H_
#define URSA_JOURNAL_JOURNAL_MANAGER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/index/range_index.h"
#include "src/journal/journal_writer.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/storage/chunk_store.h"

namespace ursa::journal {

struct JournalManagerOptions {
  uint64_t bypass_threshold = 64 * kKiB;  // Tj: larger writes skip journals
  size_t replay_batch = 8;                // records merged per replay wave
  std::string name;  // metrics label ("journal=<name>"); empty = unlabeled
};

// Read-back view of the manager's registry counters (see stats()). Kept as a
// plain struct so existing call sites compare fields directly.
struct JournalStats {
  uint64_t journaled_writes = 0;
  uint64_t bypassed_writes = 0;
  uint64_t direct_fallback_writes = 0;  // all journals full
  uint64_t replayed_records = 0;
  uint64_t merged_records = 0;  // skipped at replay: fully overwritten
  uint64_t replayed_bytes = 0;
  uint64_t replay_submits = 0;  // backup-device writes issued by replay
                                // (< live segments when runs coalesce)
  uint64_t expansions = 0;  // active-journal switches due to full rings
  uint64_t corruptions_detected = 0;  // CRC mismatches caught (replay + read)
  uint64_t corruptions_repaired = 0;  // quarantined ranges healed by the master
  uint64_t torn_tail_bytes = 0;       // bytes truncated by recovery scans
};

class JournalManager {
 public:
  // `registry` receives this manager's counters and backlog gauges; when
  // null the manager keeps a private registry so standalone instances (unit
  // tests) still count. The registry must outlive the manager.
  JournalManager(sim::Simulator* sim, storage::ChunkStore* backup_store,
                 const JournalManagerOptions& options = {},
                 obs::MetricsRegistry* registry = nullptr);
  // Cancels the queued replay tick, so a destroyed manager (a crashed server
  // rebuilt in place) leaves no event behind that points at it.
  ~JournalManager();

  // Registers a journal in preference order (primary SSD journal first). An
  // `on_hdd` journal is replayed only when its device is otherwise idle.
  void AddJournal(std::unique_ptr<JournalWriter> writer, bool on_hdd);

  // Backup write: journal append, bypass, or direct fallback. `done` runs
  // when the write is durable on the journal or the HDD respectively. A
  // non-null `span` gets the durable-append duration under kBackupJournal.
  // The BufferView rides the downstream IoRequest zero-copy (the journal
  // append is a scatter write sharing the view). `tag` classifies the device
  // I/O for QoS (class + tenant).
  void Write(storage::ChunkId chunk, uint64_t offset, uint64_t length, uint64_t version,
             ursa::BufferView data, storage::IoCallback done, const obs::SpanRef& span = {},
             storage::IoTag tag = {});

  // Writes [offset, offset+length) of `chunk` straight to the HDD as the data
  // of `version`: the journal bypass, the full-journal fallback, and every
  // recovery write a server receives. Journal mappings of records up to
  // `version` are dropped (a newer record's mapping stays: it holds newer
  // bytes, and its replay lands after this write), and once any journal has
  // held a record, a durable header-only invalidation marker of `version`
  // keeps a rebuild from mapping those records again. `done` runs when both
  // the HDD write and the marker are durable; a marker that finds no journal
  // room waits for the next replay wave to free some.
  void DirectWrite(storage::ChunkId chunk, uint64_t offset, uint64_t length, uint64_t version,
                   ursa::BufferView data, storage::IoCallback done, storage::IoTag tag = {});

  // Reads the newest backup data: journal overlays the HDD chunk store.
  // Needed when a backup serves as temporary primary (§4.2.1) and during
  // failure recovery. Offset/length must be sector-aligned. On success
  // `*out` (which must outlive `done`; null: timing-only) holds the range as
  // a view: a slice of the one record or chunk extent that holds it, else
  // one Buffer the pieces are copied into. A pending record is served only
  // after its whole payload passes its CRC.
  void Read(storage::ChunkId chunk, uint64_t offset, uint64_t length, ursa::BufferView* out,
            storage::IoCallback done, storage::IoTag tag = {});

  // Begins continuous replay; reschedules itself until destroyed.
  void StartReplay();

  // ---- Data integrity (see DESIGN.md "Fault model & chaos harness") ----
  //
  // Replay and journal-overlay reads re-verify each data record's CRC32C
  // against the bytes actually on the device. A mismatch (bit flip, torn
  // write that escaped the scan) quarantines the record's live ranges: the
  // stale mappings are dropped, reads overlapping the range fail with
  // kCorruption (never stale data), and the corruption handler is invoked so
  // the cluster can re-replicate the range from a healthy replica. The
  // handler's `healed` callback lifts the quarantine.
  using CorruptionHandler = std::function<void(storage::ChunkId chunk, uint64_t offset,
                                               uint64_t length, std::function<void()> healed)>;
  void SetCorruptionHandler(CorruptionHandler handler) {
    corruption_handler_ = std::move(handler);
  }

  // True while [offset, offset+length) of `chunk` intersects a quarantined
  // (detected-corrupt, not yet repaired) range.
  bool IsQuarantined(storage::ChunkId chunk, uint64_t offset, uint64_t length) const;

  // Chaos hook: flips one random payload bit of one random pending data
  // record (uniform over journals and records). Returns false when no
  // data-carrying record is pending. Deterministic given `rng`.
  bool InjectBitFlip(Rng& rng);

  // Crash recovery: scans every journal ring, rebuilds the per-chunk indexes
  // (records applied in per-chunk version order, newest winning) and the
  // replay queues. The HDD chunk stores already hold everything replayed
  // before the crash; un-replayed records are re-discovered here and will be
  // replayed again (replay is idempotent). `done` fires when all journals
  // are recovered.
  void RecoverFromJournals(storage::IoCallback done);

  // True when every journal has been fully merged into the HDD.
  bool ReplayDrained() const;

  // Thin shim over the registry counters (refreshed on each call), preserved
  // for callers that predate the metrics registry.
  const JournalStats& stats() const;

  // Total bytes of appended-but-not-yet-replayed journal data (replay lag).
  uint64_t BacklogBytes() const;
  // Records awaiting replay across every journal.
  uint64_t PendingRecords() const;
  // Live journal-index segments across all chunks (the §3.3 index footprint).
  uint64_t IndexSegments() const;
  size_t num_journals() const { return journals_.size(); }
  size_t active_journal() const { return active_; }
  const JournalWriter& journal(size_t i) const { return *journals_[i].writer; }

  // Live journal-index mappings for `chunk` (whole-chunk query).
  std::vector<index::Segment> IndexSnapshot(storage::ChunkId chunk) const;
  // Whether `chunk` has any live journal-index mapping, i.e. records still
  // to replay (IndexSnapshot(chunk) is non-empty) — without building a copy.
  bool HasIndexedData(storage::ChunkId chunk) const;

 private:
  // Each journal occupies a disjoint 64 GiB window of the index's 30-bit
  // sector-granular j-space so a j_offset identifies (journal, position).
  static constexpr uint64_t kWindowSectors = (64ull * kGiB) / kSector;

  struct JournalSlot {
    std::unique_ptr<JournalWriter> writer;
    bool on_hdd = false;
  };

  uint64_t ToJSector(size_t journal_idx, uint64_t byte_offset) const {
    return journal_idx * kWindowSectors + byte_offset / kSector;
  }
  size_t JournalOf(uint64_t j_sector) const { return j_sector / kWindowSectors; }
  uint64_t ByteOffsetOf(uint64_t j_sector) const {
    return (j_sector % kWindowSectors) * kSector;
  }

  index::RangeIndex& IndexFor(storage::ChunkId chunk);

  // Quarantine bookkeeping (byte ranges, per chunk).
  void AddQuarantine(storage::ChunkId chunk, uint64_t offset, uint64_t length);
  void ClearQuarantine(storage::ChunkId chunk, uint64_t offset, uint64_t length);

  // Drops the record's live mappings, quarantines its range, reports the
  // corruption, and asks the handler (if any) to re-replicate.
  void OnCorruptRecord(size_t idx, const AppendedRecord& rec);

  // Drops the index mappings in [offset, offset+length) of `chunk` whose
  // records are not newer than `version`.
  void DropMappingsUpTo(storage::ChunkId chunk, uint64_t offset, uint64_t length,
                        uint64_t version);
  // Appends the waiting invalidation markers, in order, while a journal has
  // room.
  void AppendMarkers();

  // Pending data record of journal `idx` whose payload covers region-relative
  // `byte_off`; null when none does (e.g. already replayed).
  const AppendedRecord* FindPendingRecord(size_t idx, uint64_t byte_off) const;

  // Schedules a ReplayTick if replay is running and none is queued.
  void Kick();
  void ReplayTick();
  // Queues the replay tick `delay` from now.
  void ScheduleTick(Nanos delay);

  // Takes the front record of journal `k` off its replay queue. Its bytes are
  // discarded unless a rebuild scan still needs them (see MustKeep).
  void FreeFront(size_t k);
  // Whether a replayed record of journal `k` must stay on the device: while
  // its range is quarantined (the scan must find the damage again), or while
  // an older data record overlapping it is still on a journal device (the
  // scan would otherwise serve that older record in its place).
  bool MustKeep(size_t k, const AppendedRecord& rec) const;
  // Discards every kept record that no longer must stay.
  void ReleaseKept();
  bool AnyKept() const;
  // Lifts a repaired range's quarantine.
  void Heal(storage::ChunkId chunk, uint64_t offset, uint64_t length);

  // One replay wave runs in two phases so the HDD sees elevator-friendly
  // traffic: phase A reads and CRC-verifies every record payload of the wave
  // (journal-device reads), collecting per-live-segment merge intents; phase
  // B sorts the intents by backup-device offset and coalesces adjacent runs
  // into single gather writes.
  //
  // At most one wave is in flight (replay_wave_inflight_), so its state is
  // one member, wave_, reused wave after wave: a wave allocates nothing once
  // the vectors have grown, and its callbacks capture only an index.
  struct ReplayWave {
    // One record of the wave.
    struct Record {
      AppendedRecord rec;
      uint64_t slot_off = 0;       // the chunk's slot on the backup device
      size_t live_begin = 0;       // its live segments: live[live_begin, live_end)
      size_t live_end = 0;
      ursa::BufferView payload;    // replay-read payload
      size_t reads_remaining = 0;  // timing-only records: segment reads outstanding
      size_t segs_remaining = 0;   // merge writes outstanding
    };
    // One live segment to merge, keyed by its backup-device offset.
    struct Intent {
      storage::ChunkId chunk = 0;
      index::Segment seg{};    // for EraseIfMapsTo after the write lands
      uint64_t chunk_off = 0;  // bytes within the chunk
      uint64_t length = 0;     // bytes
      // Slices the record's payload as read from the journal device, so the
      // backup device store shares those bytes; null = timing-only merge.
      ursa::BufferView src;
      size_t record = 0;  // wave-local record position
      uint64_t device_off = 0;
    };
    // A coalesced gather write: intents[begin, end).
    struct Run {
      size_t begin = 0;
      size_t end = 0;
    };

    size_t journal = 0;
    size_t records_remaining = 0;  // records not yet consumed
    size_t prep_remaining = 0;     // phase-A completions outstanding
    std::vector<Record> records;
    std::vector<index::Segment> live;
    std::vector<Intent> intents;
    std::vector<Run> runs;
  };
  void PrepareReplay(size_t record_pos);
  void PrepDone();
  void FlushWave();
  void RunWritten(size_t run);
  void RecordDone();

  sim::Simulator* sim_;
  storage::ChunkStore* backup_store_;
  JournalManagerOptions options_;
  std::vector<JournalSlot> journals_;
  size_t active_ = 0;
  std::map<storage::ChunkId, index::RangeIndex> indexes_;

  // Registry-backed counters (owned_registry_ backs them when the caller
  // provided none); stats_cache_ is the stats() read-back shim.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::Counter* journaled_writes_;
  obs::Counter* bypassed_writes_;
  obs::Counter* direct_fallback_writes_;
  obs::Counter* replayed_records_;
  obs::Counter* merged_records_;
  obs::Counter* replayed_bytes_;
  obs::Counter* replay_submits_;
  obs::Counter* expansions_;
  obs::Counter* corruptions_detected_;
  obs::Counter* corruptions_repaired_;
  obs::Counter* torn_tail_bytes_;
  mutable JournalStats stats_cache_;
  // Reused result buffer for the whole-index queries behind IndexSegments
  // and HasIndexedData, so the gauge pollers do not allocate.
  mutable index::SegmentVec scratch_segments_;

  // Invalidation markers of direct writes, waiting for journal room.
  struct Marker {
    storage::ChunkId chunk;
    uint64_t offset;
    uint64_t length;
    uint64_t version;
    storage::IoTag tag;
    storage::IoCallback done;
  };
  std::deque<Marker> markers_;

  CorruptionHandler corruption_handler_;
  std::map<storage::ChunkId, std::vector<std::pair<uint64_t, uint64_t>>> quarantine_;

  bool replay_running_ = false;
  bool replay_wave_inflight_ = false;
  ReplayWave wave_;  // the wave in flight (or the last one)
  sim::EventId tick_ = 0;  // the queued replay tick; 0 when none
  // Set by RecoverFromJournals until every journal drains: a rebuilt replay
  // queue is in ring order, which after a wrap is not append order, so an
  // older record may sit behind a newer one in the same journal.
  bool restored_ = false;
  bool replay_waiting_ready_ = false;  // WhenReady backpressure waiter armed
};

}  // namespace ursa::journal

#endif  // URSA_JOURNAL_JOURNAL_MANAGER_H_
