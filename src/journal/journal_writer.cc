#include "src/journal/journal_writer.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/logging.h"

namespace ursa::journal {

namespace {

// Appends a record's header sector to `scatter`: the encoded fields as a
// small Buffer the device store keeps, then the sector's zero tail (which
// the store holds as implicit zeros rather than as bytes).
void PushHeaderSector(const RecordHeader& header, std::vector<storage::IoSegment>* scatter) {
  ursa::Buffer fields = ursa::Buffer::Allocate(RecordHeader::kEncodedSize);
  header.EncodeTo(fields.data());
  scatter->push_back(storage::IoSegment{fields.View(), RecordHeader::kEncodedSize});
  scatter->push_back(storage::IoSegment{{}, kSector - RecordHeader::kEncodedSize});
}

}  // namespace

JournalWriter::JournalWriter(sim::Simulator* sim, storage::BlockDevice* device,
                             uint64_t region_offset, uint64_t region_length, std::string name)
    : sim_(sim),
      device_(device),
      region_offset_(region_offset),
      region_length_(region_length),
      name_(std::move(name)) {
  URSA_CHECK_GT(region_length, 0u);
  URSA_CHECK_EQ(region_length % kSector, 0u);
  URSA_CHECK_LE(region_offset + region_length, device->capacity());
}

bool JournalWriter::CanFit(uint64_t payload_len) const {
  uint64_t footprint = RecordFootprint(payload_len);
  uint64_t phys = PhysicalPos(logical_head_);
  uint64_t pad = phys + footprint > region_length_ ? region_length_ - phys : 0;
  return footprint + pad <= free_bytes();
}

Result<uint64_t> JournalWriter::AppendInvalidation(storage::ChunkId chunk_id,
                                                   uint32_t chunk_offset, uint32_t length,
                                                   uint64_t version, storage::IoCallback done,
                                                   storage::IoTag tag) {
  uint64_t footprint = kSector;
  uint64_t phys = PhysicalPos(logical_head_);
  uint64_t pad = phys + footprint > region_length_ ? region_length_ - phys : 0;
  if (footprint + pad > free_bytes()) {
    return ResourceExhausted(name_ + " journal full");
  }
  uint64_t record_logical = logical_head_ + pad;
  uint64_t record_phys = PhysicalPos(record_logical);
  logical_head_ = record_logical + footprint;
  ++appended_records_;

  RecordHeader header;
  header.chunk_id = chunk_id;
  header.chunk_offset = chunk_offset;
  header.length = length;
  header.version = version;
  header.flags = kFlagInvalidation;

  AppendedRecord meta;
  meta.chunk_id = chunk_id;
  meta.chunk_offset = chunk_offset;
  meta.length = length;
  meta.version = version;
  meta.j_offset = record_phys + kSector;
  meta.record_start = record_phys;
  meta.logical_start = record_logical;
  meta.invalidation = true;
  pending_.push_back(meta);

  header.crc = header.ComputeCrc(nullptr);
  storage::IoRequest req;
  req.type = storage::IoType::kWrite;
  req.offset = region_offset_ + record_phys;
  req.length = kSector;
  PushHeaderSector(header, &req.scatter);
  req.tag = tag;
  req.done = std::move(done);
  device_->Submit(std::move(req));
  return meta.j_offset;
}

Result<uint64_t> JournalWriter::Append(storage::ChunkId chunk_id, uint32_t chunk_offset,
                                       uint32_t length, uint64_t version, ursa::BufferView data,
                                       storage::IoCallback done, storage::IoTag tag) {
  URSA_CHECK_GT(length, 0u);
  uint64_t footprint = RecordFootprint(length);

  // Never let a record straddle the ring wrap: skip the remainder of the
  // region by burning it as pad (the replayer frees it with the record that
  // precedes it, since logical positions stay monotone).
  uint64_t phys = PhysicalPos(logical_head_);
  uint64_t pad = 0;
  if (phys + footprint > region_length_) {
    pad = region_length_ - phys;
  }
  if (footprint + pad > free_bytes()) {
    return ResourceExhausted(name_ + " journal full");
  }
  uint64_t record_logical = logical_head_ + pad;
  uint64_t record_phys = PhysicalPos(record_logical);
  logical_head_ = record_logical + footprint;
  ++appended_records_;

  RecordHeader header;
  header.chunk_id = chunk_id;
  header.chunk_offset = chunk_offset;
  header.length = length;
  header.version = version;

  AppendedRecord meta;
  meta.chunk_id = chunk_id;
  meta.chunk_offset = chunk_offset;
  meta.length = length;
  meta.version = version;
  meta.j_offset = record_phys + kSector;
  meta.record_start = record_phys;
  meta.logical_start = record_logical;
  meta.has_data = static_cast<bool>(data);
  storage::IoRequest req;
  req.type = storage::IoType::kWrite;
  req.offset = region_offset_ + record_phys;
  req.length = footprint;
  req.tag = tag;

  if (data) {
    // Scatter append: the on-device image is assembled by the device from
    // {header sector, caller's payload view, zeroed pad tail}, so the
    // journaled path carries the payload with zero copies end to end — the
    // device store keeps sharing the payload when the caller's view is owned.
    // The CRC is combined from the sector sums the payload's allocation
    // memoizes (so a payload is hashed once across every replica), else
    // streams across the same segments (vectored); the pad segment really
    // writes zeros — ring space is reused, stale bytes must
    // not survive. Byte-identical to the contiguous EncodeRecord layout,
    // which is what recovery Scan re-validates.
    storage::IoSegment payload{data.size() == length ? std::move(data) : data.Slice(0, length),
                               length};
    const uint32_t* sums = payload.data.SectorSums();
    header.crc = sums != nullptr ? header.ComputeCrcFromSums(sums)
                                 : header.ComputeCrcVectored(&payload, 1);
    meta.crc = header.crc;
    req.scatter.reserve(4);
    PushHeaderSector(header, &req.scatter);
    req.scatter.push_back(std::move(payload));
    if (footprint > kSector + length) {
      req.scatter.push_back(storage::IoSegment{{}, footprint - kSector - length});
    }
  }
  pending_.push_back(meta);
  req.done = std::move(done);
  device_->Submit(std::move(req));
  return meta.j_offset;
}

void JournalWriter::ReadPayload(uint64_t j_offset, uint32_t length, ursa::BufferView* out,
                                storage::IoCallback done, storage::IoTag tag) {
  URSA_CHECK_LE(j_offset + length, region_length_);
  storage::IoRequest req;
  req.type = storage::IoType::kRead;
  req.offset = region_offset_ + j_offset;
  req.length = length;
  req.out_view = out;
  req.tag = tag;
  req.done = std::move(done);
  device_->Submit(std::move(req));
}

void JournalWriter::Scan(ScanCallback done) {
  // Read the full region, then walk it sector by sector validating headers.
  auto image = std::make_shared<ursa::BufferView>();
  storage::IoRequest req;
  req.type = storage::IoType::kRead;
  req.offset = region_offset_;
  req.length = region_length_;
  req.out_view = image.get();
  req.done = [this, image, done = std::move(done)](const Status& s) {
    if (!s.ok()) {
      done(s, {}, ScanReport{});
      return;
    }
    std::vector<AppendedRecord> records;
    // Sectors whose header decoded (valid magic, plausible footprint) but
    // whose CRC failed: torn appends, bit flips, or stale partial overwrites.
    struct CorruptAt {
      uint64_t pos;
      uint64_t footprint;
      storage::ChunkId chunk;
      uint64_t chunk_offset;
      uint64_t length;
    };
    std::vector<CorruptAt> corrupt;
    ScanReport report;
    uint64_t pos = 0;
    while (pos + kSector <= region_length_) {
      Result<RecordHeader> header = RecordHeader::Decode(image->data() + pos);
      if (!header.ok() || header->length == 0 ||
          header->Footprint() > region_length_ - pos) {
        pos += kSector;
        continue;
      }
      const uint8_t* payload =
          header->invalidation() ? nullptr : image->data() + pos + kSector;
      if (header->crc != header->ComputeCrc(payload)) {
        ++report.corrupt_sectors;
        corrupt.push_back(CorruptAt{pos, header->Footprint(), header->chunk_id,
                                    header->chunk_offset, header->length});
        pos += kSector;  // torn or stale record
        continue;
      }
      AppendedRecord rec;
      rec.chunk_id = header->chunk_id;
      rec.chunk_offset = header->chunk_offset;
      rec.length = header->length;
      rec.version = header->version;
      rec.crc = header->crc;
      rec.j_offset = pos + kSector;
      rec.record_start = pos;
      rec.logical_start = pos;
      rec.has_data = !header->invalidation();
      rec.invalidation = header->invalidation();
      records.push_back(rec);
      pos += header->Footprint();
    }
    // Torn-tail accounting: corrupt records at or past the end of the last
    // valid record are the crash-interrupted tail. RestorePending parks the
    // head at `valid_end`, so these bytes are truncated (overwritten by the
    // next append) rather than replayed.
    uint64_t valid_end = 0;
    for (const AppendedRecord& rec : records) {
      valid_end = std::max(valid_end, rec.record_start + rec.footprint());
    }
    for (const CorruptAt& c : corrupt) {
      if (c.pos >= valid_end) {
        ++report.torn_tail_records;
        report.torn_tail_bytes += std::min(c.footprint, region_length_ - c.pos);
      } else {
        // Settled data damaged in place: the manager must re-quarantine this
        // range on rebuild (a torn tail is just truncated instead).
        report.corrupt_ranges.push_back(
            ScanReport::CorruptRange{c.chunk, c.chunk_offset, c.length});
      }
    }
    done(OkStatus(), std::move(records), report);
  };
  device_->Submit(std::move(req));
}

void JournalWriter::CorruptByte(uint64_t region_byte, uint8_t xor_mask) {
  URSA_CHECK_LT(region_byte, region_length_);
  uint64_t sector_start = region_byte - region_byte % kSector;
  auto sector = std::make_shared<ursa::BufferView>();
  storage::IoRequest read;
  read.type = storage::IoType::kRead;
  read.offset = region_offset_ + sector_start;
  read.length = kSector;
  read.out_view = sector.get();
  read.done = [this, sector, sector_start, region_byte, xor_mask](const Status& s) {
    if (!s.ok()) {
      return;
    }
    Buffer buf = Buffer::CopyOf(sector->data(), kSector);
    buf.data()[region_byte % kSector] ^= xor_mask;
    storage::IoRequest write;
    write.type = storage::IoType::kWrite;
    write.offset = region_offset_ + sector_start;
    write.length = kSector;
    write.data = buf.View();
    write.done = [](const Status&) {};
    device_->Submit(std::move(write));
  };
  device_->Submit(std::move(read));
}

void JournalWriter::RestorePending(std::vector<AppendedRecord> records) {
  pending_.assign(records.begin(), records.end());
  kept_.clear();
  uint64_t head = 0;
  for (const AppendedRecord& rec : pending_) {
    head = std::max(head, rec.record_start + rec.footprint());
  }
  // Conservative restart: treat [0, head) as occupied until replay frees it.
  logical_tail_ = 0;
  logical_head_ = head;
  appended_records_ = pending_.size();
}

void JournalWriter::PopFrontAndFree() {
  URSA_CHECK(!pending_.empty());
  // No later append can reach this space before the tail moves past it, so
  // the record's bytes still lie where it was appended.
  Discard(pending_.front());
  PopFront();
}

void JournalWriter::PopFrontAndKeep() {
  URSA_CHECK(!pending_.empty());
  kept_.push_back(pending_.front());
  PopFront();
}

void JournalWriter::PopFront() {
  const AppendedRecord& front = pending_.front();
  uint64_t new_tail = front.logical_start + front.footprint();
  URSA_CHECK_GE(new_tail, logical_tail_);
  logical_tail_ = new_tail;
  pending_.pop_front();
  if (pending_.empty()) {
    // Everything merged: resynchronize the tail with the head so pad bytes
    // burned at the wrap point are reclaimed too.
    logical_tail_ = logical_head_;
  }
}

void JournalWriter::Release(size_t i) {
  URSA_CHECK_LT(i, kept_.size());
  Discard(kept_[i]);
  kept_.erase(kept_.begin() + static_cast<ptrdiff_t>(i));
}

void JournalWriter::Discard(const AppendedRecord& rec) {
  // Pad zones never hold live data, so they need no discard of their own.
  device_->Discard(region_offset_ + rec.record_start, rec.footprint());
}

}  // namespace ursa::journal
