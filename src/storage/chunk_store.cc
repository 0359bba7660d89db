#include "src/storage/chunk_store.h"

#include <memory>
#include <utility>

#include "src/common/logging.h"

namespace ursa::storage {

ChunkStore::ChunkStore(BlockDevice* device, uint64_t chunk_size, uint64_t region_offset,
                       uint64_t region_length)
    : device_(device), chunk_size_(chunk_size), region_offset_(region_offset) {
  URSA_CHECK_GT(chunk_size, 0u);
  URSA_CHECK_LE(region_offset, device->capacity());
  if (region_length == 0) {
    region_length = device->capacity() - region_offset;
  }
  URSA_CHECK_LE(region_offset + region_length, device->capacity());
  total_slots_ = region_length / chunk_size;
}

Status ChunkStore::Allocate(ChunkId id) {
  if (slots_.find(id) != slots_.end()) {
    return AlreadyExists("chunk " + std::to_string(id) + " already allocated");
  }
  // Freed slots first, most recent first; then the lowest never-used slot.
  // That is the order of an eager free list filled lowest-slot-on-top.
  uint64_t slot = 0;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else if (next_unused_ < total_slots_) {
    slot = next_unused_++;
  } else {
    return ResourceExhausted("no free chunk slots");
  }
  slots_.emplace(id, slot);
  return OkStatus();
}

Status ChunkStore::Free(ChunkId id) {
  auto it = slots_.find(id);
  if (it == slots_.end()) {
    return NotFound("chunk " + std::to_string(id) + " not allocated");
  }
  device_->Discard(region_offset_ + it->second * chunk_size_, chunk_size_);
  free_slots_.push_back(it->second);
  slots_.erase(it);
  return OkStatus();
}

uint64_t ChunkStore::SlotOffset(ChunkId id) const {
  auto it = slots_.find(id);
  URSA_CHECK(it != slots_.end()) << "chunk " << id << " not allocated";
  return region_offset_ + it->second * chunk_size_;
}

Status ChunkStore::CheckRange(ChunkId id, uint64_t offset, uint64_t length,
                              uint64_t* device_offset) const {
  auto it = slots_.find(id);
  if (it == slots_.end()) {
    return NotFound("chunk " + std::to_string(id) + " not allocated");
  }
  if (offset + length > chunk_size_ || length == 0) {
    return OutOfRange("chunk I/O out of range");
  }
  *device_offset = region_offset_ + it->second * chunk_size_ + offset;
  return OkStatus();
}

void ChunkStore::Read(ChunkId id, uint64_t offset, uint64_t length, BufferView* out,
                      IoCallback done, IoTag tag) {
  uint64_t device_offset = 0;
  Status s = CheckRange(id, offset, length, &device_offset);
  if (!s.ok()) {
    done(s);
    return;
  }
  IoRequest req;
  req.type = IoType::kRead;
  req.offset = device_offset;
  req.length = length;
  req.out_view = out;
  req.tag = tag;
  req.done = std::move(done);
  device_->Submit(std::move(req));
}

void ChunkStore::Write(ChunkId id, uint64_t offset, uint64_t length, BufferView data,
                       IoCallback done, IoTag tag) {
  uint64_t device_offset = 0;
  Status s = CheckRange(id, offset, length, &device_offset);
  if (!s.ok()) {
    done(s);
    return;
  }
  IoRequest req;
  req.type = IoType::kWrite;
  req.offset = device_offset;
  req.length = length;
  req.data = std::move(data);
  req.tag = tag;
  req.done = std::move(done);
  device_->Submit(std::move(req));
}

void ChunkStore::WriteBackground(ChunkId id, uint64_t offset, uint64_t length, BufferView data,
                                 IoCallback done, IoTag tag) {
  uint64_t device_offset = 0;
  Status s = CheckRange(id, offset, length, &device_offset);
  if (!s.ok()) {
    done(s);
    return;
  }
  IoRequest req;
  req.type = IoType::kWrite;
  req.offset = device_offset;
  req.length = length;
  req.data = std::move(data);
  req.background = true;
  req.tag = tag;
  req.done = std::move(done);
  device_->Submit(std::move(req));
}

void ChunkStore::CorruptByte(ChunkId id, uint64_t offset, uint8_t xor_mask) {
  URSA_CHECK_LT(offset, chunk_size_);
  constexpr uint64_t kSector = 512;
  uint64_t sector_start = SlotOffset(id) + (offset - offset % kSector);
  auto sector = std::make_shared<BufferView>();
  IoRequest read;
  read.type = IoType::kRead;
  read.offset = sector_start;
  read.length = kSector;
  read.out_view = sector.get();
  read.done = [this, sector, sector_start, offset, xor_mask](const Status& s) {
    if (!s.ok()) {
      return;
    }
    Buffer buf = Buffer::CopyOf(sector->data(), kSector);
    buf.data()[offset % kSector] ^= xor_mask;
    IoRequest write;
    write.type = IoType::kWrite;
    write.offset = sector_start;
    write.length = kSector;
    write.data = buf.View();
    write.done = [](const Status&) {};
    device_->Submit(std::move(write));
  };
  device_->Submit(std::move(read));
}

void ChunkStore::WriteGather(ChunkId id, uint64_t offset, std::vector<IoSegment> segments,
                             bool background, IoCallback done, IoTag tag) {
  uint64_t length = 0;
  for (const IoSegment& seg : segments) {
    length += seg.length;
  }
  uint64_t device_offset = 0;
  Status s = CheckRange(id, offset, length, &device_offset);
  if (!s.ok()) {
    done(s);
    return;
  }
  IoRequest req;
  req.type = IoType::kWrite;
  req.offset = device_offset;
  req.length = length;
  req.scatter = std::move(segments);
  req.background = background;
  req.tag = tag;
  req.done = std::move(done);
  device_->Submit(std::move(req));
}

}  // namespace ursa::storage
