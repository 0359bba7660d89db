// A miniature persistent key-value store running on an Ursa virtual disk —
// the kind of migrated server application the paper's introduction motivates
// (traditional software using ordinary block I/O, unaware it sits on a
// distributed hybrid store).
//
// Layout: a fixed-size hash table of 4 KiB buckets. Each SET hashes the key
// to a bucket, reads it, inserts/updates the record, writes it back
// (read-modify-write — exactly the small random I/O mix of §2). Each GET is
// one 4 KiB random read served by the primary SSD replica.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/client/virtual_disk.h"
#include "src/common/rng.h"
#include "src/core/system.h"

using namespace ursa;

namespace {

constexpr uint64_t kBucketSize = 4096;
constexpr uint64_t kNumBuckets = 16384;  // 64 MiB table

// Bucket format: repeated records of [klen u16][vlen u16][key][value], zero
// klen terminates.
class MiniKv {
 public:
  MiniKv(sim::Simulator* sim, client::VirtualDisk* disk) : sim_(sim), disk_(disk) {}

  bool Set(const std::string& key, const std::string& value) {
    uint64_t offset = Bucket(key) * kBucketSize;
    std::vector<uint8_t> bucket(kBucketSize, 0);
    if (!Sync([&](storage::IoCallback done) {
          disk_->Read(offset, kBucketSize, bucket.data(), std::move(done));
        })) {
      return false;
    }
    // Rewrite the bucket with the key replaced/appended.
    std::vector<uint8_t> out(kBucketSize, 0);
    size_t w = 0;
    auto append = [&](const std::string& k, const uint8_t* v, size_t vlen) {
      if (w + 4 + k.size() + vlen + 4 > kBucketSize) {
        return false;  // bucket overflow: drop oldest (toy policy: skip)
      }
      uint16_t klen = static_cast<uint16_t>(k.size());
      uint16_t vl = static_cast<uint16_t>(vlen);
      std::memcpy(&out[w], &klen, 2);
      std::memcpy(&out[w + 2], &vl, 2);
      std::memcpy(&out[w + 4], k.data(), klen);
      std::memcpy(&out[w + 4 + klen], v, vl);
      w += 4 + klen + vl;
      return true;
    };
    ForEachRecord(bucket, [&](const std::string& k, const uint8_t* v, size_t vlen) {
      if (k != key) {
        append(k, v, vlen);
      }
    });
    if (!append(key, reinterpret_cast<const uint8_t*>(value.data()), value.size())) {
      return false;
    }
    return Sync([&](storage::IoCallback done) {
      disk_->Write(offset, kBucketSize, Buffer::CopyOf(out.data(), out.size()), std::move(done));
    });
  }

  bool Get(const std::string& key, std::string* value) {
    uint64_t offset = Bucket(key) * kBucketSize;
    std::vector<uint8_t> bucket(kBucketSize, 0);
    if (!Sync([&](storage::IoCallback done) {
          disk_->Read(offset, kBucketSize, bucket.data(), std::move(done));
        })) {
      return false;
    }
    bool found = false;
    ForEachRecord(bucket, [&](const std::string& k, const uint8_t* v, size_t vlen) {
      if (k == key) {
        value->assign(reinterpret_cast<const char*>(v), vlen);
        found = true;
      }
    });
    return found;
  }

 private:
  static uint64_t Bucket(const std::string& key) {
    uint64_t h = 1469598103934665603ULL;
    for (char c : key) {
      h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
    }
    return h % kNumBuckets;
  }

  template <typename Fn>
  static void ForEachRecord(const std::vector<uint8_t>& bucket, Fn fn) {
    size_t r = 0;
    while (r + 4 <= kBucketSize) {
      uint16_t klen = 0;
      uint16_t vlen = 0;
      std::memcpy(&klen, &bucket[r], 2);
      std::memcpy(&vlen, &bucket[r + 2], 2);
      if (klen == 0 || r + 4 + klen + vlen > kBucketSize) {
        break;
      }
      std::string k(reinterpret_cast<const char*>(&bucket[r + 4]), klen);
      fn(k, &bucket[r + 4 + klen], vlen);
      r += 4 + klen + vlen;
    }
  }

  // Runs one async op to completion on the simulator.
  bool Sync(const std::function<void(storage::IoCallback)>& op) {
    Status status = Internal("pending");
    op([&](const Status& s) { status = s; });
    sim_->RunUntil(sim_->Now() + msec(100));
    return status.ok();
  }

  sim::Simulator* sim_;
  client::VirtualDisk* disk_;
};

}  // namespace

int main() {
  std::printf("== MiniKV on an Ursa virtual disk ==\n\n");
  core::TestBed bed(core::UrsaHybridProfile(3));
  client::VirtualDisk* disk = bed.NewDisk(256 * kMiB);
  MiniKv kv(&bed.sim(), disk);

  // Populate.
  Rng rng(7);
  constexpr int kKeys = 200;
  for (int i = 0; i < kKeys; ++i) {
    std::string key = "user:" + std::to_string(i);
    std::string value = "profile-" + std::to_string(rng.Next() % 100000);
    if (!kv.Set(key, value)) {
      std::printf("SET failed for %s\n", key.c_str());
      return 1;
    }
  }
  std::printf("stored %d keys\n", kKeys);

  // Update a few, read everything back.
  kv.Set("user:7", "updated-profile");
  kv.Set("user:42", "another-update");
  int hits = 0;
  std::string value;
  for (int i = 0; i < kKeys; ++i) {
    if (kv.Get("user:" + std::to_string(i), &value)) {
      ++hits;
    }
  }
  kv.Get("user:7", &value);
  std::printf("read back %d/%d keys; user:7 -> \"%s\"\n", hits, kKeys, value.c_str());

  std::printf("\nblock-level view: %llu reads / %llu writes issued, "
              "read mean %.0f us, write mean %.0f us\n",
              static_cast<unsigned long long>(disk->stats().reads),
              static_cast<unsigned long long>(disk->stats().writes),
              disk->stats().read_latency_us.Mean(), disk->stats().write_latency_us.Mean());
  return hits == kKeys ? 0 : 1;
}
