// Append-only ring journal over a region of a BlockDevice.
//
// Appends are strictly sequential (the property that lets HDD-placed journals
// work at media rate and SSD-placed ones avoid disturbing co-located reads,
// §3.2). Space is a ring: `head` advances on append, `tail` advances when the
// replayer has durably merged the oldest record into the backup HDD. Records
// never straddle the wrap point — a pad skip is inserted instead.
#ifndef URSA_JOURNAL_JOURNAL_WRITER_H_
#define URSA_JOURNAL_JOURNAL_WRITER_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/journal/journal_record.h"
#include "src/sim/simulator.h"
#include "src/storage/block_device.h"

namespace ursa::journal {

// Metadata of one appended record, retained in FIFO order for the replayer.
struct AppendedRecord {
  storage::ChunkId chunk_id = 0;
  uint32_t chunk_offset = 0;  // bytes
  uint32_t length = 0;        // payload bytes
  uint64_t version = 0;
  uint32_t crc = 0;            // header+payload CRC32C (data records only)
  uint64_t j_offset = 0;       // region-relative payload byte offset
  uint64_t record_start = 0;   // region-relative byte offset of the header
  uint64_t logical_start = 0;  // monotone logical position (for tail math)
  bool has_data = false;       // real bytes vs timing-only
  bool invalidation = false;   // header-only bypass-invalidation marker

  uint64_t footprint() const {
    return invalidation ? kSector : RecordFootprint(length);
  }

  // The header this record was written with (crc field as stored), for
  // re-verification of the on-device image.
  RecordHeader ToHeader() const {
    RecordHeader h;
    h.crc = crc;
    h.chunk_id = chunk_id;
    h.chunk_offset = chunk_offset;
    h.length = length;
    h.version = version;
    h.flags = invalidation ? kFlagInvalidation : 0;
    return h;
  }
};

// Damage accounting from a recovery Scan (see DESIGN.md "Fault model").
struct ScanReport {
  uint64_t corrupt_sectors = 0;    // plausible header, CRC mismatch (anywhere)
  uint64_t torn_tail_records = 0;  // corrupt records past the last valid one
  uint64_t torn_tail_bytes = 0;    // bytes truncated with them

  // Chunk ranges of MID-RING corrupt records (decodable header, CRC failure,
  // before the last valid record — i.e. settled data damaged in place, not a
  // crash-torn tail). The manager re-quarantines these on rebuild: a crash
  // during an in-flight corruption repair must not let the restart forget the
  // damage and resurrect corrupt reads. Covers corrupt invalidation markers
  // too — dropping one silently would resurrect the older appends it
  // superseded.
  struct CorruptRange {
    storage::ChunkId chunk = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
  };
  std::vector<CorruptRange> corrupt_ranges;
};

class JournalWriter {
 public:
  // Journal occupies [region_offset, region_offset+region_length) on device.
  JournalWriter(sim::Simulator* sim, storage::BlockDevice* device, uint64_t region_offset,
                uint64_t region_length, std::string name = "journal");

  // Appends one record. The slot is reserved synchronously: on success the
  // returned value is the region-relative payload byte offset (so the caller
  // can update the journal index in submission order even though device
  // completions may reorder); `done` fires when the append is durable.
  // Fails immediately with kResourceExhausted when the ring lacks space (the
  // caller then expands to another journal, §3.2) — `done` is not invoked.
  // `data` is a BufferView appended zero-copy: the device request carries
  // {header sector, payload view, zero pad} as scatter segments, so no
  // contiguous record image is ever built and an owned view stays shared with
  // the device store (a null view appends a timing-only record). The optional
  // `tag` classifies the journal-device write for QoS. The record CRC is
  // combined from the payload's memoized sector sums (BufferView::SectorSums)
  // when its view has them, so the bytes are not hashed again.
  Result<uint64_t> Append(storage::ChunkId chunk_id, uint32_t chunk_offset, uint32_t length,
                          uint64_t version, ursa::BufferView data, storage::IoCallback done,
                          storage::IoTag tag = {});

  // True when a record with `payload_len` payload bytes would fit right now
  // (accounting for wrap-point padding).
  bool CanFit(uint64_t payload_len) const;

  // Appends a header-only INVALIDATION record: durable evidence that
  // [chunk_offset, chunk_offset+length) was superseded by a journal-bypass
  // write, so a post-crash scan must not resurrect older appends for it.
  Result<uint64_t> AppendInvalidation(storage::ChunkId chunk_id, uint32_t chunk_offset,
                                      uint32_t length, uint64_t version,
                                      storage::IoCallback done, storage::IoTag tag = {});

  // Reads `length` payload bytes at region-relative `j_offset`: `*out`
  // (which must outlive `done`; null: timing-only) receives them as a view
  // sharing the journal device's stored bytes — the appended payload Buffer
  // itself when the record is intact.
  void ReadPayload(uint64_t j_offset, uint32_t length, ursa::BufferView* out,
                   storage::IoCallback done, storage::IoTag tag = {});

  // FIFO of records not yet replayed. The replayer consumes from the front
  // and, after merging, either calls PopFrontAndFree(), which gives the
  // record's ring space back and discards its bytes on the device, or
  // PopFrontAndKeep() when a rebuild scan still needs the bytes.
  const std::deque<AppendedRecord>& pending() const { return pending_; }
  bool HasPending() const { return !pending_.empty(); }
  void PopFrontAndFree();

  // Takes the front record off the replay queue but keeps its bytes and its
  // ring space: no append can overwrite it until Release(i) discards it.
  // kept() lists these records in ring order.
  void PopFrontAndKeep();
  const std::vector<AppendedRecord>& kept() const { return kept_; }
  void Release(size_t i);

  // ---- Crash recovery ----
  // Scans the whole ring for valid records (magic + CRC over header and
  // payload), in physical-offset order. Freed records and wrap pads are
  // discarded, so the ring holds only pending and kept records: the scan
  // finds exactly those. The in-memory index and replay queue
  // are volatile; after a restart the manager rebuilds them from this scan.
  // `done` receives the surviving records plus a damage report. A record cut
  // mid-payload by a crash (torn tail) fails its CRC, is excluded, and is
  // counted in the report; RestorePending then parks the head at the end of
  // the last valid record, so the torn bytes are truncated — overwritten by
  // the next append.
  using ScanCallback =
      std::function<void(const Status&, std::vector<AppendedRecord>, ScanReport)>;
  void Scan(ScanCallback done);

  // Fault injection: XORs `xor_mask` into the byte at region-relative
  // `region_byte` via a read-modify-write of its sector through the device
  // (async, fire-and-forget). Used by the chaos harness to model silent media
  // corruption under a journal record.
  void CorruptByte(uint64_t region_byte, uint8_t xor_mask);

  // Reinstalls a recovered replay queue (records in replay order) and
  // repositions the ring's head past the newest record. Kept records are
  // volatile state too: the scan found them as pending again.
  void RestorePending(std::vector<AppendedRecord> records);

  // The oldest occupied ring position counts kept records.
  uint64_t used_bytes() const {
    return logical_head_ - (kept_.empty() ? logical_tail_
                                          : std::min(logical_tail_, kept_.front().logical_start));
  }
  uint64_t free_bytes() const { return region_length_ - used_bytes(); }
  uint64_t region_length() const { return region_length_; }
  uint64_t appended_records() const { return appended_records_; }
  storage::BlockDevice* device() const { return device_; }
  const std::string& name() const { return name_; }

 private:
  uint64_t PhysicalPos(uint64_t logical) const { return logical % region_length_; }
  // Moves the tail past the front record and drops it from the queue.
  void PopFront();
  // Drops a record's bytes from the device.
  void Discard(const AppendedRecord& rec);

  sim::Simulator* sim_;
  storage::BlockDevice* device_;
  uint64_t region_offset_;
  uint64_t region_length_;
  std::string name_;

  uint64_t logical_head_ = 0;  // monotone append position
  uint64_t logical_tail_ = 0;  // monotone free position
  uint64_t appended_records_ = 0;
  std::deque<AppendedRecord> pending_;
  std::vector<AppendedRecord> kept_;  // freed from replay, bytes still needed
};

}  // namespace ursa::journal

#endif  // URSA_JOURNAL_JOURNAL_WRITER_H_
