// CRC32C (Castagnoli) — protects journal records against torn writes.
//
// The public entry point Crc32c() dispatches once, at first use, to the
// fastest implementation the CPU supports:
//   * kHardware  — SSE4.2 `crc32q` on x86-64, three interleaved streams on
//                  inputs of 768 bytes and up,
//   * kSlice8    — slicing-by-8 table lookup (8 bytes/iteration, portable),
//   * kTable     — the original byte-at-a-time table (reference).
// All implementations share the seed convention `crc = ~seed … return ~crc`,
// so streaming works by feeding the previous result back as `seed`:
//   Crc32c(b, nb, Crc32c(a, na)) == Crc32c(ab, na + nb)
// Crc32cCombine joins two independently computed CRCs instead:
//   Crc32cCombine(Crc32c(a, na), Crc32c(b, nb), nb) == Crc32c(ab, na + nb)
// which is what lets a payload be checksummed once, in 512-byte sectors
// (Crc32cSectors), and its record CRC be built from those sums
// (Crc32cFromSectors) without reading the bytes again (DESIGN.md §8).
//
// URSA_FORCE_PORTABLE_KERNELS (src/common/cpu.h) makes the dispatcher skip
// the SSE4.2 tier and report it unavailable, so the portable slice8 path can
// be exercised on hardware-capable hosts (CI runs the test suite both ways).
#ifndef URSA_COMMON_CRC32_H_
#define URSA_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace ursa {

// CRC32C over [data, data+len), continuing from `seed` (0 for a fresh CRC).
uint32_t Crc32c(const void* data, size_t len, uint32_t seed = 0);

// The CRC32C of a || b, from crc_a = CRC32C(a), crc_b = CRC32C(b) and |b|.
// Pure GF(2) arithmetic, independent of the implementation Crc32c() uses; a
// 512-byte `b` takes a table path (four lookups).
uint32_t Crc32cCombine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b);

// Sector granularity of the per-payload sums below (the scrub ledger's and
// the journal's sector).
inline constexpr size_t kCrc32cSector = 512;

// Number of sums Crc32cSectors writes for `len` bytes.
constexpr size_t Crc32cSectorCount(size_t len) {
  return (len + kCrc32cSector - 1) / kCrc32cSector;
}

// sums[i] = CRC32C of bytes [512 i, min(512 (i + 1), len)) of `data`.
void Crc32cSectors(const void* data, size_t len, uint32_t* sums);

// Crc32c(data, len, seed) computed from the data's Crc32cSectors sums, with
// no pass over the bytes.
uint32_t Crc32cFromSectors(uint32_t seed, const uint32_t* sums, size_t len);

// Bytes Crc32c() has hashed in this process: a test hook that counts passes
// over payloads.
uint64_t Crc32cBytesHashed();

// ---- Implementation-selection API (tests and benchmarks only) ----
// Production code should call Crc32c(); these exist so correctness tests can
// assert every path agrees and benches can report per-path throughput.
enum class Crc32cImpl {
  kTable,     // byte-at-a-time table (always available)
  kSlice8,    // slicing-by-8 (always available)
  kHardware,  // SSE4.2 crc32q (x86-64 with SSE4.2 only)
};

// Whether `impl` can run on this machine.
bool Crc32cImplAvailable(Crc32cImpl impl);

// Runs a specific implementation. `impl` must be available.
uint32_t Crc32cWith(Crc32cImpl impl, const void* data, size_t len, uint32_t seed = 0);

// Name of the implementation Crc32c() dispatches to ("hardware", "slice8",
// or "table").
const char* Crc32cImplName();

}  // namespace ursa

#endif  // URSA_COMMON_CRC32_H_
