#include "src/common/buffer.h"

#include <algorithm>
#include <new>

#include "src/common/crc32.h"

namespace ursa {
namespace {

using buffer_internal::Allocation;

constexpr size_t kWordBits = 64;

size_t MemoWords(size_t sectors) { return (sectors + kWordBits - 1) / kWordBits; }

// The unit of a Buffer's heap block; it keeps the payload bytes 16-byte
// aligned.
struct alignas(16) Granule {
  unsigned char bytes[16];
};

}  // namespace

Buffer Buffer::Allocate(size_t n) {
  Buffer b;
  b.size_ = n;
  if (n == 0) {
    return b;
  }
  // Block layout: [Allocation][known bits][sums][pad][bytes].
  const size_t sectors = Crc32cSectorCount(n);
  const size_t words = MemoWords(sectors);
  const size_t sums_at = sizeof(Allocation) + words * sizeof(uint64_t);
  const size_t prefix =
      (sums_at + sectors * sizeof(uint32_t) + sizeof(Granule) - 1) / sizeof(Granule);
  const size_t granules = prefix + (n + sizeof(Granule) - 1) / sizeof(Granule);
  std::shared_ptr<Granule[]> block = std::make_shared_for_overwrite<Granule[]>(granules);
  auto* base = reinterpret_cast<uint8_t*>(block.get());
  auto* known = reinterpret_cast<uint64_t*>(base + sizeof(Allocation));
  std::fill_n(known, words, 0);
  b.data_ = base + prefix * sizeof(Granule);
  const auto* a = new (base) Allocation{.bytes = b.data_, .size = n, .known = known,
                                        .sums = reinterpret_cast<uint32_t*>(base + sums_at)};
  b.block_ = std::shared_ptr<const Allocation>(std::move(block), a);
  return b;
}

Buffer Buffer::FromVector(std::vector<uint8_t> v) {
  struct Adopted {
    Allocation allocation;
    std::vector<uint8_t> bytes;
    std::vector<uint64_t> known;
    std::vector<uint32_t> sums;
  };
  Buffer b;
  b.size_ = v.size();
  if (v.empty()) {
    return b;
  }
  const size_t sectors = Crc32cSectorCount(v.size());
  auto held = std::make_shared<Adopted>();
  held->bytes = std::move(v);
  held->known.resize(MemoWords(sectors));
  held->sums.resize(sectors);
  held->allocation = Allocation{.bytes = held->bytes.data(), .size = held->bytes.size(),
                                .known = held->known.data(), .sums = held->sums.data()};
  b.data_ = held->bytes.data();
  b.block_ = std::shared_ptr<const Allocation>(held, &held->allocation);
  return b;
}

const uint32_t* BufferView::SectorSums() const {
  if (owner_ == nullptr) {
    return nullptr;
  }
  const Allocation& a = *owner_;
  const size_t offset = static_cast<size_t>(data_ - a.bytes);
  if (offset % kCrc32cSector != 0 ||
      (size_ % kCrc32cSector != 0 && offset + size_ != a.size)) {
    return nullptr;
  }
  const size_t first = offset / kCrc32cSector;
  const size_t end = first + Crc32cSectorCount(size_);
  auto known = [&a](size_t i) { return (a.known[i / kWordBits] >> (i % kWordBits) & 1) != 0; };
  for (size_t i = first; i < end;) {
    if (known(i)) {
      ++i;
      continue;
    }
    // Hash the run of unknown sectors in one call.
    size_t j = i + 1;
    while (j < end && !known(j)) {
      ++j;
    }
    const size_t run_end = std::min(j * kCrc32cSector, a.size);
    Crc32cSectors(a.bytes + i * kCrc32cSector, run_end - i * kCrc32cSector, a.sums + i);
    for (; i < j; ++i) {
      a.known[i / kWordBits] |= uint64_t{1} << (i % kWordBits);
    }
  }
  return a.sums + first;
}

}  // namespace ursa
