#include "src/scrub/checksum_store.h"

#include <algorithm>

#include "src/common/crc32.h"
#include "src/common/logging.h"

namespace ursa::scrub {

static_assert(kScrubSector == kCrc32cSector, "payload sums are ledger sectors");

ChecksumStore::ChecksumStore(uint64_t chunk_size)
    : chunk_size_(chunk_size), sectors_per_chunk_(chunk_size / kScrubSector) {
  URSA_CHECK_EQ(chunk_size % kScrubSector, 0u);
}

ChecksumStore::ChunkSums& ChecksumStore::SumsFor(storage::ChunkId chunk) {
  auto it = chunks_.find(chunk);
  if (it == chunks_.end()) {
    it = chunks_.emplace(chunk, ChunkSums{}).first;
    it->second.crc.resize(sectors_per_chunk_, 0);
    it->second.known.resize(sectors_per_chunk_, false);
  }
  return it->second;
}

void ChecksumStore::OnWrite(storage::ChunkId chunk, uint64_t offset, uint64_t length,
                            const ursa::BufferView& data) {
  if (length == 0) {
    return;
  }
  URSA_CHECK_LE(offset + length, chunk_size_);
  ++generations_[chunk];
  if (!data) {
    Invalidate(chunk, offset, length);
    return;
  }
  // Fully-covered sectors get fresh checksums from the payload; the partial
  // boundary sectors (if any) become unverifiable.
  uint64_t full_begin = (offset + kScrubSector - 1) / kScrubSector;  // first full sector
  uint64_t full_end = (offset + length) / kScrubSector;              // one past last full
  if (offset % kScrubSector != 0) {
    Invalidate(chunk, offset, std::min<uint64_t>(length, kScrubSector - offset % kScrubSector));
  }
  if ((offset + length) % kScrubSector != 0 && (offset + length) / kScrubSector >= full_begin) {
    Invalidate(chunk, full_end * kScrubSector, (offset + length) % kScrubSector);
  }
  if (full_begin >= full_end) {
    return;  // the write never covers a whole sector
  }
  const uint8_t* bytes = data.data();
  // The payload's own sectors line up with chunk sectors when the write does.
  const uint32_t* memo = offset % kScrubSector == 0 ? data.SectorSums() : nullptr;
  ChunkSums& ledger = SumsFor(chunk);
  for (uint64_t s = full_begin; s < full_end; ++s) {
    ledger.crc[s] = memo != nullptr ? memo[s - full_begin]
                                    : Crc32c(bytes + (s * kScrubSector - offset), kScrubSector);
    if (!ledger.known[s]) {
      ledger.known[s] = true;
      ++sectors_tracked_;
    }
  }
}

void ChecksumStore::Invalidate(storage::ChunkId chunk, uint64_t offset, uint64_t length) {
  if (length == 0) {
    return;
  }
  // Bump even when nothing is tracked yet: the bytes changed, so a scrub
  // read snapshotted before this call must not be trusted to arm sectors.
  ++generations_[chunk];
  auto it = chunks_.find(chunk);
  if (it == chunks_.end()) {
    return;  // nothing tracked: nothing to invalidate
  }
  uint64_t first = offset / kScrubSector;
  uint64_t last = (offset + length + kScrubSector - 1) / kScrubSector;  // aligned outward
  for (uint64_t s = first; s < last && s < sectors_per_chunk_; ++s) {
    if (it->second.known[s]) {
      it->second.known[s] = false;
      --sectors_tracked_;
    }
  }
}

void ChecksumStore::Drop(storage::ChunkId chunk) {
  ++generations_[chunk];
  auto it = chunks_.find(chunk);
  if (it == chunks_.end()) {
    return;
  }
  for (bool k : it->second.known) {
    if (k) {
      --sectors_tracked_;
    }
  }
  chunks_.erase(it);
}

uint64_t ChecksumStore::generation(storage::ChunkId chunk) const {
  auto it = generations_.find(chunk);
  return it == generations_.end() ? 0 : it->second;
}

uint64_t ChecksumStore::Rearm(storage::ChunkId chunk, uint64_t offset, uint64_t length,
                              const void* data, uint64_t expected_generation) {
  URSA_CHECK_EQ(offset % kScrubSector, 0u);
  URSA_CHECK_EQ(length % kScrubSector, 0u);
  URSA_CHECK_LE(offset + length, chunk_size_);
  if (generation(chunk) != expected_generation) {
    return 0;  // a write raced the scrub read; the next sweep retries
  }
  ChunkSums& sums = SumsFor(chunk);
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t first = offset / kScrubSector;
  uint64_t count = length / kScrubSector;
  uint64_t armed = 0;
  for (uint64_t s = 0; s < count; ++s) {
    if (sums.known[first + s]) {
      continue;
    }
    sums.crc[first + s] = Crc32c(bytes + s * kScrubSector, kScrubSector);
    sums.known[first + s] = true;
    ++sectors_tracked_;
    ++armed;
  }
  return armed;
}

ChecksumStore::VerifyResult ChecksumStore::Verify(storage::ChunkId chunk, uint64_t offset,
                                                  uint64_t length, const void* data) const {
  URSA_CHECK_EQ(offset % kScrubSector, 0u);
  URSA_CHECK_EQ(length % kScrubSector, 0u);
  VerifyResult result;
  auto it = chunks_.find(chunk);
  uint64_t count = length / kScrubSector;
  if (it == chunks_.end()) {
    result.sectors_skipped = count;
    return result;
  }
  const ChunkSums& sums = it->second;
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t first = offset / kScrubSector;
  uint64_t mismatch_begin = 0;
  bool in_mismatch = false;
  for (uint64_t s = 0; s < count; ++s) {
    bool bad = false;
    if (first + s >= sectors_per_chunk_ || !sums.known[first + s]) {
      ++result.sectors_skipped;
    } else {
      ++result.sectors_verified;
      bad = Crc32c(bytes + s * kScrubSector, kScrubSector) != sums.crc[first + s];
    }
    if (bad && !in_mismatch) {
      in_mismatch = true;
      mismatch_begin = s;
    }
    if (bad && result.ok) {
      result.ok = false;
    }
    if (!bad && in_mismatch) {
      // Report the FIRST mismatching run; later runs surface on the rescrub
      // after the first repair lands.
      if (result.mismatch_length == 0) {
        result.mismatch_offset = offset + mismatch_begin * kScrubSector;
        result.mismatch_length = (s - mismatch_begin) * kScrubSector;
      }
      in_mismatch = false;
    }
  }
  if (in_mismatch && result.mismatch_length == 0) {
    result.mismatch_offset = offset + mismatch_begin * kScrubSector;
    result.mismatch_length = (count - mismatch_begin) * kScrubSector;
  }
  return result;
}

}  // namespace ursa::scrub
