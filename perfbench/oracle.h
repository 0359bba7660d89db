// Correctness oracle for one virtual disk.
//
// Every 512-byte sector's content is a pure function of (disk tag, sector,
// write version): version 0 is the never-written all-zero sector, version v
// is 64 words derived from a hash of the triple. The oracle keeps one flat
// version word and one in-flight flag per sector, so generating, locking,
// committing and verifying cost O(sectors touched) with no hashing of keys.
//
// The benchmark never issues a range while an overlapping op is in flight, so a
// read that completes must return exactly the last acked version of every
// sector it covers. A write that fails leaves its sectors unknown (skipped by
// verification) — the run counts the failure separately.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <cstring>
#include <vector>

namespace perfbench {

inline constexpr uint64_t kSector = 512;

inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class DiskOracle {
 public:
  static constexpr uint32_t kUnknown = UINT32_MAX;

  DiskOracle(uint64_t tag, uint64_t size)
      : tag_(tag), version_(size / kSector, 0), inflight_(size / kSector, 0) {}

  uint64_t size() const { return version_.size() * kSector; }

  bool Overlaps(uint64_t off, uint64_t len) const {
    for (uint64_t s = off / kSector, e = (off + len) / kSector; s < e; ++s) {
      if (inflight_[s] != 0) {
        return true;
      }
    }
    return false;
  }

  void Lock(uint64_t off, uint64_t len) { SetInflight(off, len, 1); }
  void Unlock(uint64_t off, uint64_t len) { SetInflight(off, len, 0); }

  // Payload of a write of version `v` covering [off, off+len).
  void Fill(uint8_t* dst, uint64_t off, uint64_t len, uint32_t v) const {
    for (uint64_t s = off / kSector, e = (off + len) / kSector; s < e; ++s, dst += kSector) {
      FillSector(dst, s, v);
    }
  }

  // The acked write of version `v` now owns [off, off+len).
  void Commit(uint64_t off, uint64_t len, uint32_t v) { SetVersion(off, len, v); }
  // A failed write may or may not have landed: stop checking those sectors.
  void Forget(uint64_t off, uint64_t len) { SetVersion(off, len, kUnknown); }

  // Number of sectors of `buf` (read at `off`) that differ from the model.
  uint64_t Verify(const uint8_t* buf, uint64_t off, uint64_t len) const {
    uint64_t bad = 0;
    uint8_t expect[kSector];
    for (uint64_t s = off / kSector, e = (off + len) / kSector; s < e; ++s, buf += kSector) {
      if (version_[s] == kUnknown) {
        continue;
      }
      FillSector(expect, s, version_[s]);
      bad += std::memcmp(expect, buf, kSector) != 0 ? 1 : 0;
    }
    return bad;
  }

 private:
  void FillSector(uint8_t* dst, uint64_t sector, uint32_t v) const {
    if (v == 0) {
      std::memset(dst, 0, kSector);
      return;
    }
    const uint64_t h = Mix64(tag_ ^ (sector * 0xd6e8feb86659fd93ULL) ^ (uint64_t{v} << 40));
    for (uint64_t i = 0; i < kSector / 8; ++i) {
      const uint64_t word = h + i * 0x9e3779b97f4a7c15ULL;
      std::memcpy(dst + i * 8, &word, 8);
    }
  }

  void SetInflight(uint64_t off, uint64_t len, uint8_t flag) {
    std::memset(inflight_.data() + off / kSector, flag, len / kSector);
  }
  void SetVersion(uint64_t off, uint64_t len, uint32_t v) {
    for (uint64_t s = off / kSector, e = (off + len) / kSector; s < e; ++s) {
      version_[s] = v;
    }
  }

  uint64_t tag_;
  std::vector<uint32_t> version_;
  std::vector<uint8_t> inflight_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
