// Per-chunk-server CRC32C ledger over logical chunk content (DESIGN.md §11).
//
// The journal pipeline only protects bytes while they sit in a journal ring;
// once replayed to the backup HDD (or written directly to a primary SSD) the
// data has no stored checksum and latent media corruption is invisible until
// a failure makes the damaged replica the last copy. The ChecksumStore closes
// that gap: every write a chunk server accepts updates a per-512B-sector
// CRC32C of the chunk's LOGICAL content, and the scrubber re-reads the newest
// logical bytes (journal overlay included) and verifies them against this
// ledger. Because the ledger tracks logical content, journal replay — which
// moves bytes without changing content — never invalidates it.
//
// Timing-only writes (null payload) mark their sectors unverifiable: large
// benchmarks that skip materializing data keep running, the scrubber simply
// skips those sectors.
#ifndef URSA_SCRUB_CHECKSUM_STORE_H_
#define URSA_SCRUB_CHECKSUM_STORE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/units.h"
#include "src/storage/chunk_store.h"

namespace ursa::scrub {

inline constexpr uint64_t kScrubSector = 512;

class ChecksumStore {
 public:
  explicit ChecksumStore(uint64_t chunk_size);

  // Records the checksums of a write at any byte range. Fully-covered sectors
  // get fresh checksums; partially-covered boundary sectors become
  // unverifiable (recomputing them would need a read of the old bytes — not
  // worth a device round trip on the write hot path). A null `data` view
  // (timing-only payload) marks every touched sector unverifiable instead.
  // A sector-aligned write records the sums its allocation memoizes
  // (BufferView::SectorSums), so the bytes are hashed at most once across
  // every replica's ledger.
  void OnWrite(storage::ChunkId chunk, uint64_t offset, uint64_t length,
               const ursa::BufferView& data);

  // Marks every sector touching [offset, offset+length) unverifiable.
  void Invalidate(storage::ChunkId chunk, uint64_t offset, uint64_t length);

  // Forgets everything about `chunk` (freed slot).
  void Drop(storage::ChunkId chunk);

  // Content-mutation counter for `chunk`: bumped by every OnWrite /
  // Invalidate / Drop that touches it (0 for a chunk never mutated). The
  // scrubber snapshots this before a bulk read so Rearm can tell whether the
  // bytes it is about to trust are stale.
  uint64_t generation(storage::ChunkId chunk) const;

  // Arms every unverifiable/never-written sector of the sector-aligned range
  // with a checksum computed from `data` — the scrubber's read-and-recompute
  // reclaim pass for boundary sectors of unaligned writes. Refuses (returns
  // 0) when generation(chunk) != expected_generation: a write landed during
  // the read, so `data` may be stale for the sectors it touched. Returns the
  // number of sectors armed. Already-known sectors are left untouched.
  uint64_t Rearm(storage::ChunkId chunk, uint64_t offset, uint64_t length, const void* data,
                 uint64_t expected_generation);

  struct VerifyResult {
    bool ok = true;                 // no checksummed sector mismatched
    uint64_t sectors_verified = 0;  // sectors with a stored checksum
    uint64_t sectors_skipped = 0;   // never written or unverifiable
    // First mismatching run, sector-aligned (valid when !ok).
    uint64_t mismatch_offset = 0;
    uint64_t mismatch_length = 0;
  };

  // Compares `data` (the chunk's logical bytes at [offset, offset+length),
  // sector-aligned) against the stored checksums. Sectors without a stored
  // checksum are skipped, not failed.
  VerifyResult Verify(storage::ChunkId chunk, uint64_t offset, uint64_t length,
                      const void* data) const;

  bool HasChecksums(storage::ChunkId chunk) const {
    return chunks_.find(chunk) != chunks_.end();
  }
  uint64_t sectors_tracked() const { return sectors_tracked_; }

 private:
  struct ChunkSums {
    std::vector<uint32_t> crc;  // per sector
    std::vector<bool> known;    // false = never written / unverifiable
  };

  ChunkSums& SumsFor(storage::ChunkId chunk);

  uint64_t chunk_size_;
  uint64_t sectors_per_chunk_;
  std::unordered_map<storage::ChunkId, ChunkSums> chunks_;
  // Kept separate from chunks_ (and surviving Drop) so a Rearm racing a
  // Drop/recreate cycle still sees the generation move.
  std::unordered_map<storage::ChunkId, uint64_t> generations_;
  uint64_t sectors_tracked_ = 0;  // sectors currently holding a checksum
};

}  // namespace ursa::scrub

#endif  // URSA_SCRUB_CHECKSUM_STORE_H_
