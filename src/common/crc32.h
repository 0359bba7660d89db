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
// No separate combine API is needed and existing callers are untouched.
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
