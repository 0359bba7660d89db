#include "src/journal/journal_record.h"

#include <cstring>

#include "src/common/crc32.h"

namespace ursa::journal {

namespace {
void Put32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
void Put64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
uint32_t Get32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint64_t Get64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
}  // namespace

void RecordHeader::EncodeTo(uint8_t* out) const {
  Put32(out + 0, magic);
  Put32(out + 4, crc);
  Put64(out + 8, chunk_id);
  Put32(out + 16, chunk_offset);
  Put32(out + 20, length);
  Put64(out + 24, version);
  Put32(out + 32, flags);
  Put32(out + 36, 0);  // reserved/padding — keeps the CRC input deterministic
}

Result<RecordHeader> RecordHeader::Decode(const uint8_t* in) {
  RecordHeader h;
  h.magic = Get32(in + 0);
  if (h.magic != kJournalMagic) {
    return Corruption("bad journal record magic");
  }
  h.crc = Get32(in + 4);
  h.chunk_id = Get64(in + 8);
  h.chunk_offset = Get32(in + 16);
  h.length = Get32(in + 20);
  h.version = Get64(in + 24);
  h.flags = Get32(in + 32);
  return h;
}

namespace {

// Folds `count` zero bytes into a running CRC32C (timing-only payloads, null
// scatter segments): a real reader of a PageStore's implicit zeros still
// validates.
uint32_t FoldZeros(uint32_t c, uint64_t count) {
  static constexpr uint8_t kZeros[4096] = {};
  while (count > 0) {
    uint64_t n = count < sizeof(kZeros) ? count : sizeof(kZeros);
    c = Crc32c(kZeros, n, c);
    count -= n;
  }
  return c;
}

}  // namespace

uint32_t RecordHeader::ComputeCrc(const void* payload) const {
  uint8_t buf[kEncodedSize];
  RecordHeader copy = *this;
  copy.crc = 0;
  copy.EncodeTo(buf);
  uint32_t c = Crc32c(buf, kEncodedSize);
  if (invalidation()) {
    return c;  // header-only record
  }
  if (payload != nullptr) {
    c = Crc32c(payload, length, c);
  } else {
    c = FoldZeros(c, length);
  }
  return c;
}

uint32_t RecordHeader::ComputeCrcVectored(const storage::IoSegment* segments,
                                          size_t count) const {
  uint8_t buf[kEncodedSize];
  RecordHeader copy = *this;
  copy.crc = 0;
  copy.EncodeTo(buf);
  uint32_t c = Crc32c(buf, kEncodedSize);
  if (invalidation()) {
    return c;
  }
  for (size_t i = 0; i < count; ++i) {
    if (segments[i].data) {
      c = Crc32c(segments[i].data.data(), segments[i].length, c);
    } else {
      c = FoldZeros(c, segments[i].length);
    }
  }
  return c;
}

uint32_t RecordHeader::ComputeCrcFromSums(const uint32_t* sums) const {
  uint8_t buf[kEncodedSize];
  RecordHeader copy = *this;
  copy.crc = 0;
  copy.EncodeTo(buf);
  uint32_t c = Crc32c(buf, kEncodedSize);
  return invalidation() ? c : Crc32cFromSectors(c, sums, length);
}

std::vector<uint8_t> EncodeRecord(const RecordHeader& header, const void* payload) {
  std::vector<uint8_t> image(RecordFootprint(header.length), 0);
  RecordHeader h = header;
  h.crc = h.ComputeCrc(payload);
  h.EncodeTo(image.data());
  if (payload != nullptr) {
    std::memcpy(image.data() + kSector, payload, header.length);
  }
  return image;
}

}  // namespace ursa::journal
