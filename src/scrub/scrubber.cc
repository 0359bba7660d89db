#include "src/scrub/scrubber.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/logging.h"

namespace ursa::scrub {

Scrubber::Scrubber(sim::Simulator* sim, const ScrubConfig& config, Hooks hooks)
    : sim_(sim), config_(config), hooks_(std::move(hooks)) {
  URSA_CHECK(hooks_.read && hooks_.verify && hooks_.report);
  URSA_CHECK_GT(config_.read_bytes, 0u);
}

void Scrubber::ScrubChunk(storage::ChunkId chunk, uint64_t chunk_size,
                          std::function<void(ChunkResult)> done) {
  struct Sweep {
    storage::ChunkId chunk;
    uint64_t chunk_size;
    uint64_t offset = 0;
    ChunkResult result;
    std::function<void(ChunkResult)> done;
  };
  auto sweep = std::make_shared<Sweep>();
  sweep->chunk = chunk;
  sweep->chunk_size = chunk_size;
  sweep->done = std::move(done);

  // The closure refers to itself weakly: a strong self-capture would be a
  // cycle that leaks the sweep. Whoever invokes it — this frame, then the
  // read callback's yield event — holds the strong reference, so the closure
  // stays alive while it runs and dies after the last piece.
  auto step = std::make_shared<std::function<void()>>();
  *step = [this, sweep, weak_step = std::weak_ptr<std::function<void()>>(step)] {
    if (sweep->offset >= sweep->chunk_size) {
      sweep->result.completed = true;
      ++chunks_scrubbed_;
      sweep->done(sweep->result);
      return;
    }
    uint64_t length = std::min<uint64_t>(config_.read_bytes, sweep->chunk_size - sweep->offset);
    uint64_t offset = sweep->offset;
    sweep->offset += length;
    // Snapshot the ledger generation BEFORE the read: if a write lands while
    // the bulk read is in flight, Rearm sees a newer generation and refuses
    // — the view may hold pre-write bytes for the sectors it touched.
    uint64_t gen = hooks_.generation ? hooks_.generation(sweep->chunk) : 0;
    hooks_.read(sweep->chunk, offset, length,
                [this, sweep, self = weak_step.lock(), offset, length, gen](
                    const Status& st, const ursa::BufferView& bytes) {
                  if (!st.ok()) {
                    // A journal-CRC hit: JournalManager::Read already
                    // quarantined the record and invoked the corruption
                    // handler — detection is done, repair is in flight.
                    ++sweep->result.read_errors;
                    ++read_errors_;
                  } else {
                    sweep->result.bytes_read += length;
                    bytes_read_ += length;
                    ChecksumStore::VerifyResult v =
                        hooks_.verify(sweep->chunk, offset, length, bytes.data());
                    sweep->result.sectors_verified += v.sectors_verified;
                    sweep->result.sectors_skipped += v.sectors_skipped;
                    sectors_verified_ += v.sectors_verified;
                    if (!v.ok) {
                      ++sweep->result.mismatches;
                      ++mismatches_found_;
                      hooks_.report(sweep->chunk, v.mismatch_offset, v.mismatch_length);
                    } else if (config_.rearm_unverified && v.sectors_skipped > 0 &&
                               hooks_.generation && hooks_.rearm) {
                      // Clean piece with unverifiable sectors: reclaim them
                      // from the bytes we just read (unless a write raced).
                      uint64_t armed =
                          hooks_.rearm(sweep->chunk, offset, length, bytes.data(), gen);
                      sweep->result.sectors_rearmed += armed;
                      sectors_rearmed_ += armed;
                    }
                  }
                  // Yield between pieces so a scrub never occupies more than
                  // one device slot back to back.
                  sim_->After(Nanos{0}, [self] { (*self)(); });
                });
  };
  (*step)();
}

}  // namespace ursa::scrub
