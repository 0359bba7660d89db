// On-journal record format.
//
// A record is a 512-byte header sector followed by the payload rounded up to
// whole sectors, so payload offsets (the index's j_offsets) stay
// sector-aligned. The header carries a CRC32C over the header fields and the
// payload, protecting against torn appends during crash recovery.
#ifndef URSA_JOURNAL_JOURNAL_RECORD_H_
#define URSA_JOURNAL_JOURNAL_RECORD_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/storage/chunk_store.h"

namespace ursa::journal {

inline constexpr uint32_t kJournalMagic = 0x55525341;  // "URSA"
inline constexpr uint64_t kSector = 512;

// Footprint of a DATA record with `payload_len` payload bytes: one header
// sector + payload rounded up to sectors. (Declared before RecordHeader uses
// it via Footprint().)
constexpr uint64_t RecordFootprint(uint64_t payload_len) {
  return kSector + ((payload_len + kSector - 1) / kSector) * kSector;
}

// Record kinds: data appends carry a payload; INVALIDATION records are
// header-only markers written when a journal-bypass write obsoletes earlier
// appends — without them a post-crash scan would resurrect stale journal
// data that a bypass had superseded on the HDD.
inline constexpr uint32_t kFlagInvalidation = 1u << 0;

struct RecordHeader {
  uint32_t magic = kJournalMagic;
  uint32_t crc = 0;  // CRC32C over the encoded header (crc field zeroed) + payload
  storage::ChunkId chunk_id = 0;
  uint32_t chunk_offset = 0;  // bytes within the chunk
  uint32_t length = 0;        // payload bytes (or invalidated bytes)
  uint64_t version = 0;       // chunk version that produced this write
  uint32_t flags = 0;

  static constexpr size_t kEncodedSize = 40;

  bool invalidation() const { return (flags & kFlagInvalidation) != 0; }

  // On-journal footprint: header sector (+ payload sectors for data records).
  uint64_t Footprint() const {
    return invalidation() ? kSector : RecordFootprint(length);
  }

  // Encodes into exactly kEncodedSize bytes at `out`.
  void EncodeTo(uint8_t* out) const;

  // Decodes from `in`; fails with kCorruption on bad magic.
  static Result<RecordHeader> Decode(const uint8_t* in);

  // CRC over this header (with crc=0) plus `payload` (may be null => payload
  // bytes treated as zeros, matching PageStore's zero-fill semantics).
  uint32_t ComputeCrc(const void* payload) const;

  // Vectored form: the payload is the concatenation of `count` scatter
  // segments (null segment data = zeros). Streams CRC32C across the pieces
  // via seed continuation — bit-identical to ComputeCrc over a contiguous
  // copy, without materializing one. Segment lengths must sum to `length`.
  // This is what lets the scatter append skip the record-image copy.
  uint32_t ComputeCrcVectored(const storage::IoSegment* segments, size_t count) const;

  // The same CRC from the payload's per-512-byte sums (Crc32cSectors over
  // its `length` bytes): the header bytes are hashed and the payload's sums
  // joined with Crc32cCombine, so the payload is not read again.
  // Bit-identical to ComputeCrc over the bytes the sums were taken from.
  uint32_t ComputeCrcFromSums(const uint32_t* sums) const;
};

// Builds the full on-disk image of a record (header sector + padded payload):
// the layout JournalWriter::Append assembles on the device from scatter
// segments without materializing it.
std::vector<uint8_t> EncodeRecord(const RecordHeader& header, const void* payload);

}  // namespace ursa::journal

#endif  // URSA_JOURNAL_JOURNAL_RECORD_H_
