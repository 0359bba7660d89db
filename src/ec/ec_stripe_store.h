// Erasure-coded stripe store: the §7 alternative to n-way replication.
//
// A logical byte space is striped row-by-row across k data shard devices
// (stripe unit U per shard per row), with m Reed-Solomon parity shards.
// Three write paths, mirroring the designs §7 surveys:
//
//   * full-stripe writes (aligned, k*U bytes): encode once, write k+m shards
//     — the only cheap case, and why Sheepdog "emulates partial write by
//     reading unmodified data, re-encoding, and writing a full write";
//   * partial writes, read-modify-write: read old data, write new data, and
//     for each parity read-update-write using the delta (2 + 2m shard I/Os,
//     two dependent rounds);
//   * partial writes, parity logging (Chan et al. / parity-logging-with-
//     reserved-space): read old data, write new data, APPEND the parity
//     delta to each parity shard's log (sequential), apply lazily at
//     Flush() — trading read cost at the parity for apply work later;
//   * partial writes, PariX-style speculation: overwrites of recently
//     written ranges skip the old-data read entirely (see PartialWriteMode).
//
// Degraded reads reconstruct from any k surviving shards; RepairShard
// rebuilds a lost shard onto a fresh device. This is real, byte-accurate
// code (tests verify round trips through failures); bench_ec_comparison
// measures it against replication to reproduce the paper's §7 conclusion.
#ifndef URSA_EC_EC_STRIPE_STORE_H_
#define URSA_EC_EC_STRIPE_STORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/common/units.h"
#include "src/ec/reed_solomon.h"
#include "src/sim/simulator.h"
#include "src/storage/block_device.h"

namespace ursa::ec {

enum class PartialWriteMode {
  kReadModifyWrite,  // Sheepdog-class RMW: read old data+parity, write both
  kParityLogging,    // Chan et al.: read old data, append parity deltas
  // PariX (the Ursa authors' prior system, §7): speculative partial writes.
  // The coordinator caches the current value of every range written since
  // the last flush; OVERWRITES therefore need NO old-data read at all — the
  // delta comes from the cache and parities get one sequential log append
  // each. Only the FIRST write of a range pays the read. Log entries are
  // scaled deltas, so chained overwrites compose under XOR.
  kParixSpeculative,
};

struct EcStripeConfig {
  int k = 4;
  int m = 2;
  uint64_t stripe_unit = 64 * kKiB;  // bytes per shard per row
  PartialWriteMode mode = PartialWriteMode::kReadModifyWrite;
  // Parity-log region size reserved at the top of each parity device.
  uint64_t parity_log_bytes = 64 * kMiB;
};

struct EcStats {
  uint64_t full_stripe_writes = 0;
  uint64_t partial_writes = 0;
  uint64_t speculative_hits = 0;  // PariX overwrites that skipped the read
  uint64_t shard_reads = 0;
  uint64_t shard_writes = 0;
  uint64_t parity_log_appends = 0;
  uint64_t parity_log_applied = 0;
  // Same-range deltas merged (XOR-composed) before Flush touched the parity
  // devices — each one is a saved read-modify-write round trip.
  uint64_t parity_log_coalesced = 0;
  uint64_t degraded_reads = 0;
  // Scratch-pool accounting: `scratch_fresh` counts pool misses (heap
  // allocations); in steady state acquires keep rising while fresh stays
  // flat — encode/decode runs allocation-free off recycled buffers.
  uint64_t scratch_acquires = 0;
  uint64_t scratch_fresh = 0;
};

class EcStripeStore {
 public:
  // `devices` are the k data devices followed by the m parity devices; each
  // must hold `rows * stripe_unit` bytes of shard data (parity devices also
  // reserve config.parity_log_bytes above that).
  EcStripeStore(sim::Simulator* sim, std::vector<storage::BlockDevice*> devices,
                uint64_t rows, const EcStripeConfig& config);

  uint64_t logical_size() const { return rows_ * config_.stripe_unit * config_.k; }

  // Async logical I/O (512-aligned). Writes spanning rows are split; the
  // data shards share slices of `data` (null = timing-only). A read is the
  // edge that takes caller memory: each extent's view is copied into `out`
  // (when non-null) as it lands, all before `done` runs.
  void Write(uint64_t offset, uint64_t length, ursa::BufferView data, storage::IoCallback done);
  void Read(uint64_t offset, uint64_t length, void* out, storage::IoCallback done);

  // Marks shard i failed (reads route around it; writes to it are dropped —
  // the stripe runs degraded until repaired).
  void FailShard(int shard);
  // Rebuilds shard i from the survivors onto `replacement` and swaps it in.
  void RepairShard(int shard, storage::BlockDevice* replacement, storage::IoCallback done);

  // Applies all pending parity-log deltas to the parity shards.
  void Flush(storage::IoCallback done);

  const EcStats& stats() const { return stats_; }
  int alive_shards() const;

 private:
  struct LogEntry {
    int parity;       // which parity shard
    uint64_t offset;  // shard-relative byte offset of the delta
    // The scaled delta, published to the parity's log region (null in
    // timing-only runs).
    ursa::Buffer delta;
  };

  struct Extent {
    uint64_t row;
    int shard;            // data shard index
    uint64_t shard_off;   // byte offset within the shard (row*U + in-unit)
    uint64_t len;
    uint64_t user_off;    // offset within the caller's buffer
  };

  std::vector<Extent> SplitLogical(uint64_t offset, uint64_t length) const;

  // A shard or extent read's completion: its status and, on success, the
  // range's bytes as a view.
  using ReadCallback = std::function<void(const Status&, const ursa::BufferView& bytes)>;

  void PartialWriteExtent(const Extent& ext, ursa::BufferView data, storage::IoCallback done);
  // Reconstructs the extent of a failed shard from k survivors into a fresh
  // Buffer.
  void DegradedReadExtent(const Extent& ext, ReadCallback done);

  // Pooled scratch: recycles shard-sized buffers across async operations so
  // steady-state decode and delta math allocate nothing (see EcStats
  // scratch_*). Buffers return to the pool when their last shared_ptr drops.
  // Bytes a device keeps (parity, deltas, rebuilt shards) are Buffers
  // instead: the device store shares them after the write.
  class BufferPool;
  std::shared_ptr<std::vector<uint8_t>> AcquireBuf(size_t len, bool zero);

  // Cached reconstruction plan for degraded reads of `shard` under the
  // current liveness pattern; compiled on first use per (alive set, shard).
  const ReedSolomon::DecodePlan* PlanForDegraded(int shard, const std::vector<int>& sources);

  void ShardRead(int shard, uint64_t offset, uint64_t len, ReadCallback done);
  void ShardWrite(int shard, uint64_t offset, uint64_t len, ursa::BufferView data,
                  storage::IoCallback done);

  sim::Simulator* sim_;
  std::vector<storage::BlockDevice*> devices_;
  std::vector<bool> alive_;
  uint64_t rows_;
  EcStripeConfig config_;
  ReedSolomon rs_;
  std::deque<LogEntry> parity_log_;
  uint64_t parity_log_used_ = 0;
  // PariX speculation cache: (shard, shard_off) -> current bytes of ranges
  // written since the last flush (null view in timing-only runs).
  std::map<std::pair<int, uint64_t>, ursa::BufferView> parix_cache_;
  std::shared_ptr<BufferPool> pool_;
  std::map<std::pair<std::vector<bool>, int>, ReedSolomon::DecodePlan> plan_cache_;
  // Reused synchronously within one Encode call (never across callbacks).
  std::vector<const uint8_t*> enc_data_ptrs_;
  std::vector<uint8_t*> enc_parity_ptrs_;
  EcStats stats_;
};

}  // namespace ursa::ec

#endif  // URSA_EC_EC_STRIPE_STORE_H_
