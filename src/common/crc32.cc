#include "src/common/crc32.h"

#include <array>
#include <cstring>

#include "src/common/cpu.h"

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
#define URSA_CRC32_X86 1
#endif

namespace ursa {
namespace {

// ---- Byte-at-a-time table (reference implementation) ----

constexpr uint32_t kPoly = 0x82F63B78u;  // CRC32C polynomial, reflected

// One zero bit through the CRC register: r * x modulo the polynomial.
uint32_t TimesX(uint32_t r) { return (r >> 1) ^ ((r & 1) != 0 ? kPoly : 0u); }

// Table-driven CRC32C.
std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = TimesX(crc);
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = BuildTable();
  return table;
}

uint32_t CrcTable(const void* data, size_t len, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  const auto& table = Table();
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

// ---- Shifting a CRC register past zero bytes (combine, three-way) ----

// Byte-indexed tables for shift(r, n): t[k][b] = shift(b << 8k, n).
using ShiftTables = std::array<std::array<uint32_t, 256>, 4>;

// a * b modulo the CRC polynomial, in the reflected bit order (x^0 is the
// top bit).
uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) {
      product ^= b;
    }
    b = TimesX(b);
  }
  return product;
}

// x^(8 * bytes) modulo the polynomial, by repeated squaring.
uint32_t XPowBytes(uint64_t bytes) {
  uint32_t result = 1u << 31;  // x^0
  uint32_t square = 1u << 23;  // x^8: one byte
  for (; bytes != 0; bytes >>= 1) {
    if ((bytes & 1) != 0) {
      result = MultModP(square, result);
    }
    square = MultModP(square, square);
  }
  return result;
}

ShiftTables BuildShiftTables(size_t zero_bytes) {
  const uint32_t x_pow = XPowBytes(zero_bytes);
  ShiftTables t{};
  for (int k = 0; k < 4; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      t[k][b] = MultModP(x_pow, b << (8 * k));
    }
  }
  return t;
}

uint32_t Shift(const ShiftTables& t, uint32_t crc) {
  return t[0][crc & 0xFF] ^ t[1][(crc >> 8) & 0xFF] ^ t[2][(crc >> 16) & 0xFF] ^ t[3][crc >> 24];
}

// ---- Slicing-by-8 ----
// Eight derived tables let the inner loop fold 8 input bytes per iteration:
// table k advances a byte's contribution k further positions through the CRC
// register. The combine step assumes little-endian loads; big-endian builds
// fall back to the byte-at-a-time table.

#if __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define URSA_CRC32_SLICE8 1

using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

SliceTables BuildSliceTables() {
  SliceTables t{};
  t[0] = BuildTable();
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = t[0][i];
    for (int k = 1; k < 8; ++k) {
      crc = t[0][crc & 0xFF] ^ (crc >> 8);
      t[k][i] = crc;
    }
  }
  return t;
}

const SliceTables& Slice() {
  static const SliceTables tables = BuildSliceTables();
  return tables;
}

uint32_t CrcSlice8(const void* data, size_t len, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  const SliceTables& t = Slice();
  uint32_t crc = ~seed;
  while (len >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  const auto& table = t[0];
  while (len-- > 0) {
    crc = table[(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}
#else
uint32_t CrcSlice8(const void* data, size_t len, uint32_t seed) {
  return CrcTable(data, len, seed);
}
#endif  // little-endian

// ---- SSE4.2 hardware path ----
// Compiled with a per-function target attribute so the rest of the build
// keeps the baseline ISA; only reached after a cpuid check.
//
// One crc32q chain is bound by the instruction's 3-cycle latency, not its
// 1-per-cycle throughput, so long inputs run three independent chains over
// adjacent blocks (Mark Adler's crc32c.c scheme). CRC is linear: the register
// after A|B|C equals shift(shift(crc(A), |B|) ^ crc0(B), |C|) ^ crc0(C), where
// crc0 starts from a zero register and shift(r, n) advances r over n zero
// bytes — a GF(2)-linear map applied with four byte-indexed tables. Results
// are bit-identical to the serial chain.

#ifdef URSA_CRC32_X86
constexpr size_t kLongBlock = 8192;
constexpr size_t kShortBlock = 256;

// While at least 3 * kBlock bytes remain, runs three crc32q chains over the
// next three kBlock-byte blocks and folds them into crc, advancing p and len.
template <size_t kBlock>
__attribute__((target("sse4.2"))) inline uint64_t CrcThreeWay(const ShiftTables& shift,
                                                               const uint8_t*& p, size_t& len,
                                                               uint64_t crc) {
  while (len >= 3 * kBlock) {
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    const uint8_t* end = p + kBlock;
    do {
      uint64_t v0;
      uint64_t v1;
      uint64_t v2;
      std::memcpy(&v0, p, 8);
      std::memcpy(&v1, p + kBlock, 8);
      std::memcpy(&v2, p + 2 * kBlock, 8);
      crc = _mm_crc32_u64(crc, v0);
      crc1 = _mm_crc32_u64(crc1, v1);
      crc2 = _mm_crc32_u64(crc2, v2);
      p += 8;
    } while (p < end);
    crc = Shift(shift, static_cast<uint32_t>(crc)) ^ crc1;
    crc = Shift(shift, static_cast<uint32_t>(crc)) ^ crc2;
    p += 2 * kBlock;
    len -= 3 * kBlock;
  }
  return crc;
}

__attribute__((target("sse4.2"))) uint32_t CrcHardware(const void* data, size_t len,
                                                       uint32_t seed) {
  static const ShiftTables long_shift = BuildShiftTables(kLongBlock);
  static const ShiftTables short_shift = BuildShiftTables(kShortBlock);
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  // Byte steps until the pointer is 8-byte aligned (also covers short inputs).
  while (len > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --len;
  }
  uint64_t crc64 = crc;
  crc64 = CrcThreeWay<kLongBlock>(long_shift, p, len, crc64);
  crc64 = CrcThreeWay<kShortBlock>(short_shift, p, len, crc64);
  while (len >= 8) {
    uint64_t v;
    std::memcpy(&v, p, 8);
    crc64 = _mm_crc32_u64(crc64, v);
    p += 8;
    len -= 8;
  }
  crc = static_cast<uint32_t>(crc64);
  while (len-- > 0) {
    crc = _mm_crc32_u8(crc, *p++);
  }
  return ~crc;
}

bool HardwareAvailable() {
  return !ForcePortableKernels() && __builtin_cpu_supports("sse4.2") != 0;
}
#else
uint32_t CrcHardware(const void* data, size_t len, uint32_t seed) {
  return CrcSlice8(data, len, seed);
}

bool HardwareAvailable() { return false; }
#endif  // URSA_CRC32_X86

// ---- One-time runtime dispatch ----

using CrcFn = uint32_t (*)(const void*, size_t, uint32_t);

struct Dispatch {
  CrcFn fn;
  const char* name;
};

Dispatch PickBest() {
  if (HardwareAvailable()) {
    return {&CrcHardware, "hardware"};
  }
#ifdef URSA_CRC32_SLICE8
  return {&CrcSlice8, "slice8"};
#else
  return {&CrcTable, "table"};
#endif
}

const Dispatch& Best() {
  static const Dispatch best = PickBest();
  return best;
}

uint64_t crc32c_bytes = 0;

}  // namespace

uint32_t Crc32c(const void* data, size_t len, uint32_t seed) {
  crc32c_bytes += len;
  return Best().fn(data, len, seed);
}

uint64_t Crc32cBytesHashed() { return crc32c_bytes; }

uint32_t Crc32cCombine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b) {
  // crc(a || b) = crc(a) * x^(8 |b|) + crc(b) modulo the polynomial: the
  // pre- and post-inversions cancel between the two terms.
  if (len_b == kCrc32cSector) {
    static const ShiftTables sector_shift = BuildShiftTables(kCrc32cSector);
    return Shift(sector_shift, crc_a) ^ crc_b;
  }
  return MultModP(XPowBytes(len_b), crc_a) ^ crc_b;
}

void Crc32cSectors(const void* data, size_t len, uint32_t* sums) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t off = 0; off < len; off += kCrc32cSector) {
    *sums++ = Crc32c(p + off, len - off < kCrc32cSector ? len - off : kCrc32cSector);
  }
}

uint32_t Crc32cFromSectors(uint32_t seed, const uint32_t* sums, size_t len) {
  uint32_t crc = seed;
  for (size_t off = 0; off < len; off += kCrc32cSector) {
    crc = Crc32cCombine(crc, *sums++, len - off < kCrc32cSector ? len - off : kCrc32cSector);
  }
  return crc;
}

bool Crc32cImplAvailable(Crc32cImpl impl) {
  switch (impl) {
    case Crc32cImpl::kTable:
    case Crc32cImpl::kSlice8:
      return true;
    case Crc32cImpl::kHardware:
      return HardwareAvailable();
  }
  return false;
}

uint32_t Crc32cWith(Crc32cImpl impl, const void* data, size_t len, uint32_t seed) {
  switch (impl) {
    case Crc32cImpl::kTable:
      return CrcTable(data, len, seed);
    case Crc32cImpl::kSlice8:
      return CrcSlice8(data, len, seed);
    case Crc32cImpl::kHardware:
      return CrcHardware(data, len, seed);
  }
  return CrcTable(data, len, seed);
}

const char* Crc32cImplName() { return Best().name; }

}  // namespace ursa
