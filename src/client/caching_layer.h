// Client-side caching module (§5.1).
//
// A write-through LRU block cache in the client: reads served from the cache
// skip the network entirely; writes update the cache and propagate through.
// §2 argues caches help little for the *server-side* of block storage (low
// re-reference rates), which is why this lives in the optional client module
// rather than the data path — workloads that do re-reference (the KV-store
// example's hot buckets) still benefit.
//
// Cache-line granularity is 4 KB; partially-covered lines are bypassed on
// read (served below, not filled) to keep the implementation exact.
#ifndef URSA_CLIENT_CACHING_LAYER_H_
#define URSA_CLIENT_CACHING_LAYER_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/client/block_layer.h"

namespace ursa::client {

class CachingLayer : public BlockLayer {
 public:
  static constexpr uint64_t kLineSize = 4096;

  CachingLayer(BlockLayer* below, size_t capacity_lines)
      : below_(below), capacity_lines_(capacity_lines) {}

  void Read(uint64_t offset, uint64_t length, void* out, storage::IoCallback done) override;
  void Write(uint64_t offset, uint64_t length, ursa::BufferView data,
             storage::IoCallback done) override;
  uint64_t size() const override { return below_->size(); }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  size_t cached_lines() const { return lines_.size(); }
  void Invalidate();  // drop everything (e.g. after an external writer)

 private:
  struct Line {
    std::vector<uint8_t> data;
    std::list<uint64_t>::iterator lru_pos;
  };

  bool Covered(uint64_t line) const { return lines_.find(line) != lines_.end(); }
  void Touch(uint64_t line);
  void Install(uint64_t line, const uint8_t* data);
  void EvictIfNeeded();

  BlockLayer* below_;
  size_t capacity_lines_;
  std::unordered_map<uint64_t, Line> lines_;
  std::list<uint64_t> lru_;  // front = most recent
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

inline void CachingLayer::Touch(uint64_t line) {
  auto it = lines_.find(line);
  lru_.erase(it->second.lru_pos);
  lru_.push_front(line);
  it->second.lru_pos = lru_.begin();
}

inline void CachingLayer::Install(uint64_t line, const uint8_t* data) {
  auto it = lines_.find(line);
  if (it == lines_.end()) {
    lru_.push_front(line);
    Line entry;
    entry.data.assign(data, data + kLineSize);
    entry.lru_pos = lru_.begin();
    lines_.emplace(line, std::move(entry));
    EvictIfNeeded();
  } else {
    std::copy(data, data + kLineSize, it->second.data.begin());
    Touch(line);
  }
}

inline void CachingLayer::EvictIfNeeded() {
  while (lines_.size() > capacity_lines_) {
    uint64_t victim = lru_.back();
    lru_.pop_back();
    lines_.erase(victim);
  }
}

inline void CachingLayer::Invalidate() {
  lines_.clear();
  lru_.clear();
}

inline void CachingLayer::Read(uint64_t offset, uint64_t length, void* out,
                               storage::IoCallback done) {
  // Fast path: the whole range is line-aligned and resident.
  bool aligned = offset % kLineSize == 0 && length % kLineSize == 0;
  if (aligned && out != nullptr) {
    bool all_cached = true;
    for (uint64_t line = offset / kLineSize; line < (offset + length) / kLineSize; ++line) {
      if (!Covered(line)) {
        all_cached = false;
        break;
      }
    }
    if (all_cached) {
      auto* dst = static_cast<uint8_t*>(out);
      for (uint64_t line = offset / kLineSize; line < (offset + length) / kLineSize; ++line) {
        auto it = lines_.find(line);
        std::copy(it->second.data.begin(), it->second.data.end(),
                  dst + (line * kLineSize - offset));
        Touch(line);
      }
      ++hits_;
      done(OkStatus());
      return;
    }
  }
  ++misses_;
  // Miss (or unaligned): serve from below and fill aligned lines.
  below_->Read(offset, length, out,
               [this, offset, length, out, done = std::move(done)](const Status& s) {
                 if (s.ok() && out != nullptr) {
                   uint64_t first = (offset + kLineSize - 1) / kLineSize;
                   uint64_t last = (offset + length) / kLineSize;  // exclusive
                   const auto* src = static_cast<const uint8_t*>(out);
                   for (uint64_t line = first; line < last; ++line) {
                     Install(line, src + (line * kLineSize - offset));
                   }
                 }
                 done(s);
               });
}

inline void CachingLayer::Write(uint64_t offset, uint64_t length, ursa::BufferView data,
                                storage::IoCallback done) {
  // Write-through: update resident/aligned lines, then propagate below. A
  // write that partially covers a non-resident line just invalidates it.
  if (data) {
    const uint8_t* src = data.data();
    uint64_t first_full = (offset + kLineSize - 1) / kLineSize;
    uint64_t last_full = (offset + length) / kLineSize;  // exclusive
    for (uint64_t line = first_full; line < last_full; ++line) {
      Install(line, src + (line * kLineSize - offset));
    }
    // Partial edges: invalidate the straddled lines.
    auto drop_line = [this](uint64_t line) {
      auto it = lines_.find(line);
      if (it != lines_.end()) {
        lru_.erase(it->second.lru_pos);
        lines_.erase(it);
      }
    };
    if (offset % kLineSize != 0) {
      drop_line(offset / kLineSize);
    }
    uint64_t end = offset + length;
    if (end % kLineSize != 0) {
      drop_line(end / kLineSize);
    }
  }
  below_->Write(offset, length, std::move(data), std::move(done));
}

}  // namespace ursa::client

#endif  // URSA_CLIENT_CACHING_LAYER_H_
