// Fixed-size chunk layout on top of a BlockDevice.
//
// Virtual-disk data is organized into fixed-size chunks (64 MB by default,
// matching the paper §2 fn.2). A ChunkStore owns the slot allocation on one
// device and translates (chunk_id, offset_in_chunk) to device offsets.
#ifndef URSA_STORAGE_CHUNK_STORE_H_
#define URSA_STORAGE_CHUNK_STORE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/storage/block_device.h"

namespace ursa::storage {

inline constexpr uint64_t kDefaultChunkSize = 64 * kMiB;

using ChunkId = uint64_t;

class ChunkStore {
 public:
  // `region_offset`/`region_length` restrict the store to a sub-range of the
  // device (the rest may hold journals). region_length == 0 means "to end".
  ChunkStore(BlockDevice* device, uint64_t chunk_size = kDefaultChunkSize,
             uint64_t region_offset = 0, uint64_t region_length = 0);

  // Allocates a slot for `id`. Fails with kAlreadyExists / kResourceExhausted.
  Status Allocate(ChunkId id);

  // Frees the slot for `id` and discards its bytes on the device, so a chunk
  // later placed in the slot reads zeros where it has not written, never the
  // previous chunk's data.
  Status Free(ChunkId id);

  bool Contains(ChunkId id) const { return slots_.find(id) != slots_.end(); }

  // Async chunk-relative I/O. Validates bounds, then forwards to the device.
  // Writes take a BufferView of `length` bytes (null view = timing-only): the
  // view rides the IoRequest as a strong reference, so callers need not keep
  // the bytes alive themselves, and the device store keeps sharing it
  // afterwards — the bytes must stay immutable. A read hands its bytes back
  // as a view in `*out` (IoRequest::out_view; null `out`: timing-only). The
  // optional IoTag classifies the request for QoS scheduling (class + tenant).
  void Read(ChunkId id, uint64_t offset, uint64_t length, BufferView* out, IoCallback done,
            IoTag tag = {});
  void Write(ChunkId id, uint64_t offset, uint64_t length, BufferView data, IoCallback done,
             IoTag tag = {});
  // Background-priority write (journal replay): yields to foreground I/O.
  void WriteBackground(ChunkId id, uint64_t offset, uint64_t length, BufferView data,
                       IoCallback done, IoTag tag = {});
  // Gather write: `segments` are concatenated at (id, offset). The segment
  // views ride the request (and stay shared by the device store); a null
  // segment view writes zeros over that span. Used by the replayer to
  // submit one elevator-friendly device request per coalesced run of
  // offset-adjacent merged records.
  void WriteGather(ChunkId id, uint64_t offset, std::vector<IoSegment> segments, bool background,
                   IoCallback done, IoTag tag = {});

  uint64_t chunk_size() const { return chunk_size_; }
  size_t allocated_chunks() const { return slots_.size(); }
  size_t total_slots() const { return total_slots_; }
  BlockDevice* device() const { return device_; }

  // Device-absolute offset of a chunk (for recovery transfers). Requires the
  // chunk to exist.
  uint64_t SlotOffset(ChunkId id) const;

  // Fault injection: XORs `xor_mask` into the byte at `offset` within the
  // chunk via a read-modify-write of its 512-byte sector through the device
  // (async, fire-and-forget). Models silent media corruption of at-rest chunk
  // data — the latent damage the background scrubber exists to find.
  void CorruptByte(ChunkId id, uint64_t offset, uint8_t xor_mask);

 private:
  Status CheckRange(ChunkId id, uint64_t offset, uint64_t length, uint64_t* device_offset) const;

  BlockDevice* device_;
  uint64_t chunk_size_;
  uint64_t region_offset_;
  std::unordered_map<ChunkId, uint64_t> slots_;  // chunk id -> slot index
  // Slots are handed out lazily: state grows with the slots a run touches,
  // not with the device. Slots >= next_unused_ have never been allocated;
  // free_slots_ holds freed ones below it (LIFO).
  uint64_t total_slots_ = 0;
  uint64_t next_unused_ = 0;
  std::vector<uint64_t> free_slots_;
};

}  // namespace ursa::storage

#endif  // URSA_STORAGE_CHUNK_STORE_H_
