// Per-chunk-server scrub executor (DESIGN.md §11).
//
// A Scrubber verifies one chunk at a time: it reads the chunk's newest
// logical bytes in small pieces through the hosting server's recovery-read
// path under ServiceClass::kScrub (journal overlay included, so
// journal-resident records get their per-record CRC re-checked by the read
// itself), and compares media-resident bytes against the ChecksumStore
// ledger. Corruption surfaces through two channels:
//
//   * the READ fails kCorruption — a journal record's CRC failed; the
//     JournalManager already quarantined the range and kicked repair, the
//     scrubber just counts the detection;
//   * the read succeeds but the LEDGER disagrees — silent media corruption
//     past the journal (HDD-resident or primary-SSD bytes); the scrubber
//     reports the mismatching run through `hooks.report`, which the cluster
//     wires to quarantine + master repair.
//
// The Scrubber knows nothing about cluster topology; the ScrubCoordinator
// decides WHICH (chunk, server) to scrub and when.
#ifndef URSA_SCRUB_SCRUBBER_H_
#define URSA_SCRUB_SCRUBBER_H_

#include <cstdint>
#include <functional>

#include "src/common/buffer.h"
#include "src/common/status.h"
#include "src/scrub/checksum_store.h"
#include "src/scrub/scrub_config.h"
#include "src/sim/simulator.h"

namespace ursa::scrub {

class Scrubber {
 public:
  // A piece read's completion: its status and, on success, the bytes.
  using ReadDone = std::function<void(const Status&, const ursa::BufferView& bytes)>;

  struct Hooks {
    // Reads the newest logical bytes of [offset, offset+length) under
    // ServiceClass::kScrub (cluster wires this to HandleRecoveryRead); `done`
    // gets them as a view on success.
    std::function<void(storage::ChunkId chunk, uint64_t offset, uint64_t length, ReadDone done)>
        read;
    // Verifies bytes against the server's ChecksumStore ledger.
    std::function<ChecksumStore::VerifyResult(storage::ChunkId chunk, uint64_t offset,
                                              uint64_t length, const void* data)>
        verify;
    // Reports a media-resident mismatch (quarantine the range, kick repair).
    std::function<void(storage::ChunkId chunk, uint64_t offset, uint64_t length)> report;
    // Optional pair backing the re-arm pass (config.rearm_unverified): the
    // ledger's content-mutation counter, snapshotted before each bulk read,
    // and the arm call itself (ChecksumStore::generation / Rearm). When
    // either is unset, unverifiable sectors are skipped as before.
    std::function<uint64_t(storage::ChunkId chunk)> generation;
    std::function<uint64_t(storage::ChunkId chunk, uint64_t offset, uint64_t length,
                           const void* data, uint64_t expected_generation)>
        rearm;
  };

  struct ChunkResult {
    bool completed = false;  // every piece was read (with or without findings)
    uint64_t bytes_read = 0;
    uint64_t sectors_verified = 0;
    uint64_t sectors_skipped = 0;
    uint64_t sectors_rearmed = 0;  // unverifiable sectors given fresh checksums
    int mismatches = 0;   // ledger disagreements reported via hooks.report
    int read_errors = 0;  // pieces whose read failed (journal CRC, quarantine)
  };

  Scrubber(sim::Simulator* sim, const ScrubConfig& config, Hooks hooks);

  // Sweeps one chunk piece by piece; `done` fires once with the totals. At
  // most one ScrubChunk should be in flight per Scrubber (the coordinator's
  // per_server_concurrent enforces this).
  void ScrubChunk(storage::ChunkId chunk, uint64_t chunk_size,
                  std::function<void(ChunkResult)> done);

  // ---- Stats (lifetime totals) ----
  uint64_t chunks_scrubbed() const { return chunks_scrubbed_; }
  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t sectors_verified() const { return sectors_verified_; }
  uint64_t sectors_rearmed() const { return sectors_rearmed_; }
  uint64_t mismatches_found() const { return mismatches_found_; }
  uint64_t read_errors() const { return read_errors_; }

 private:
  sim::Simulator* sim_;
  ScrubConfig config_;
  Hooks hooks_;
  uint64_t chunks_scrubbed_ = 0;
  uint64_t bytes_read_ = 0;
  uint64_t sectors_verified_ = 0;
  uint64_t sectors_rearmed_ = 0;
  uint64_t mismatches_found_ = 0;
  uint64_t read_errors_ = 0;
};

}  // namespace ursa::scrub

#endif  // URSA_SCRUB_SCRUBBER_H_
