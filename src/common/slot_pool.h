// SlotPool<T>: a free-listed pool of T records addressed by a uint32_t index,
// for per-op state on the simulator's hot paths (event closures, resource
// jobs, in-flight messages, chunk-server ops).
//
// Records live in fixed-size chunks that never move, so a reference to a
// record stays valid while the pool grows: a record's closure can run in
// place even when it acquires more records of the same pool. Acquire hands
// back a released record as it was left (callers reset what they use), or a
// default-constructed one; nothing is freed until the pool is destroyed, so
// a warmed pool allocates nothing.
#ifndef URSA_COMMON_SLOT_POOL_H_
#define URSA_COMMON_SLOT_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace ursa {

template <typename T>
class SlotPool {
 public:
  // Records per chunk: a power of two filling about 4 KiB, so an idle or
  // lightly used pool (one per resource, device and server) stays small.
  static constexpr int kChunkBits = [] {
    int bits = 0;
    while (bits < 8 && (sizeof(T) << (bits + 1)) <= 4096) {
      ++bits;
    }
    return bits;
  }();

  uint32_t Acquire() {
    if (!free_.empty()) {
      uint32_t i = free_.back();
      free_.pop_back();
      return i;
    }
    if ((size_ >> kChunkBits) == chunks_.size()) {
      chunks_.push_back(std::make_unique<T[]>(size_t{1} << kChunkBits));
    }
    return size_++;
  }
  void Release(uint32_t i) { free_.push_back(i); }

  T& operator[](uint32_t i) const { return chunks_[i >> kChunkBits][i & kChunkMask]; }

  // Records ever created (valid indices are [0, size())).
  uint32_t size() const { return size_; }
  // Records acquired and not yet released.
  size_t in_use() const { return size_ - free_.size(); }

 private:
  static constexpr uint32_t kChunkMask = (1u << kChunkBits) - 1;

  std::vector<std::unique_ptr<T[]>> chunks_;
  uint32_t size_ = 0;
  std::vector<uint32_t> free_;
};

}  // namespace ursa

#endif  // URSA_COMMON_SLOT_POOL_H_
