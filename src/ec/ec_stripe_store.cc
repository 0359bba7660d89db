#include "src/ec/ec_stripe_store.h"

#include <cstring>
#include <tuple>
#include <utility>

#include "src/common/logging.h"
#include "src/ec/gf256_kernels.h"

namespace ursa::ec {

namespace {

struct Joiner {
  size_t remaining;
  Status status;
  storage::IoCallback done;

  void Finish(const Status& s) {
    if (!s.ok() && status.ok()) {
      status = s;
    }
    if (--remaining == 0) {
      done(status);
    }
  }
};

std::shared_ptr<Joiner> MakeJoiner(size_t n, storage::IoCallback done) {
  auto j = std::make_shared<Joiner>();
  j->remaining = n;
  j->done = std::move(done);
  return j;
}

// A parity's new bytes: `old_parity` with `delta` XORed in, as a fresh
// Buffer (empty when `delta` is: a timing-only write).
ursa::Buffer XorInto(const ursa::BufferView& old_parity, const ursa::Buffer& delta) {
  if (!delta) {
    return {};
  }
  ursa::Buffer parity = ursa::Buffer::CopyOf(old_parity.data(), delta.size());
  GfXorAccum(delta.data(), parity.data(), delta.size());
  return parity;
}

}  // namespace

// Freelist of recycled byte buffers. Held by shared_ptr so buffer deleters
// can outlive the store without dangling.
class EcStripeStore::BufferPool {
 public:
  std::vector<std::unique_ptr<std::vector<uint8_t>>> free_list;
};

std::shared_ptr<std::vector<uint8_t>> EcStripeStore::AcquireBuf(size_t len, bool zero) {
  ++stats_.scratch_acquires;
  std::unique_ptr<std::vector<uint8_t>> vec;
  if (!pool_->free_list.empty()) {
    vec = std::move(pool_->free_list.back());
    pool_->free_list.pop_back();
  } else {
    ++stats_.scratch_fresh;
    vec = std::make_unique<std::vector<uint8_t>>();
  }
  if (zero) {
    vec->assign(len, 0);
  } else {
    vec->resize(len);
  }
  std::shared_ptr<BufferPool> pool = pool_;
  return std::shared_ptr<std::vector<uint8_t>>(
      vec.release(), [pool](std::vector<uint8_t>* v) {
        pool->free_list.emplace_back(v);
      });
}

EcStripeStore::EcStripeStore(sim::Simulator* sim, std::vector<storage::BlockDevice*> devices,
                             uint64_t rows, const EcStripeConfig& config)
    : sim_(sim),
      devices_(std::move(devices)),
      rows_(rows),
      config_(config),
      rs_(config.k, config.m),
      pool_(std::make_shared<BufferPool>()) {
  URSA_CHECK_EQ(devices_.size(), static_cast<size_t>(config.k + config.m));
  alive_.assign(devices_.size(), true);
  uint64_t shard_bytes = rows_ * config_.stripe_unit;
  for (int i = 0; i < config_.k; ++i) {
    URSA_CHECK_GE(devices_[i]->capacity(), shard_bytes);
  }
  for (int p = 0; p < config_.m; ++p) {
    URSA_CHECK_GE(devices_[config_.k + p]->capacity(),
                  shard_bytes + config_.parity_log_bytes);
  }
}

int EcStripeStore::alive_shards() const {
  int n = 0;
  for (bool a : alive_) {
    n += a ? 1 : 0;
  }
  return n;
}

void EcStripeStore::FailShard(int shard) {
  URSA_CHECK_LT(static_cast<size_t>(shard), alive_.size());
  alive_[shard] = false;
}

std::vector<EcStripeStore::Extent> EcStripeStore::SplitLogical(uint64_t offset,
                                                               uint64_t length) const {
  URSA_CHECK_EQ(offset % 512, 0u);
  URSA_CHECK_EQ(length % 512, 0u);
  URSA_CHECK_LE(offset + length, logical_size());
  uint64_t u = config_.stripe_unit;
  uint64_t row_bytes = u * config_.k;
  std::vector<Extent> out;
  uint64_t pos = offset;
  while (pos < offset + length) {
    uint64_t row = pos / row_bytes;
    uint64_t within = pos % row_bytes;
    int shard = static_cast<int>(within / u);
    uint64_t in_unit = within % u;
    uint64_t run = std::min(u - in_unit, offset + length - pos);
    out.push_back(Extent{row, shard, row * u + in_unit, run, pos - offset});
    pos += run;
  }
  return out;
}

void EcStripeStore::ShardRead(int shard, uint64_t offset, uint64_t len, ReadCallback done) {
  ++stats_.shard_reads;
  auto bytes = std::make_shared<ursa::BufferView>();
  storage::IoRequest req;
  req.type = storage::IoType::kRead;
  req.offset = offset;
  req.length = len;
  req.out_view = bytes.get();
  req.done = [bytes, done = std::move(done)](const Status& s) { done(s, *bytes); };
  devices_[shard]->Submit(std::move(req));
}

void EcStripeStore::ShardWrite(int shard, uint64_t offset, uint64_t len, ursa::BufferView data,
                               storage::IoCallback done) {
  ++stats_.shard_writes;
  storage::IoRequest req;
  req.type = storage::IoType::kWrite;
  req.offset = offset;
  req.length = len;
  req.data = std::move(data);
  req.done = std::move(done);
  devices_[shard]->Submit(std::move(req));
}

void EcStripeStore::Write(uint64_t offset, uint64_t length, ursa::BufferView data,
                          storage::IoCallback done) {
  uint64_t u = config_.stripe_unit;
  uint64_t row_bytes = u * config_.k;
  const uint8_t* src = data.data();

  // Separate full rows (cheap path) from partial extents.
  struct FullRow {
    uint64_t row;
    uint64_t user_off;
  };
  std::vector<FullRow> full_rows;
  std::vector<Extent> partials;
  uint64_t pos = offset;
  while (pos < offset + length) {
    if (pos % row_bytes == 0 && offset + length - pos >= row_bytes) {
      full_rows.push_back(FullRow{pos / row_bytes, pos - offset});
      pos += row_bytes;
    } else {
      uint64_t run = std::min(row_bytes - pos % row_bytes, offset + length - pos);
      for (const Extent& e : SplitLogical(pos, run)) {
        Extent adjusted = e;
        adjusted.user_off += pos - offset;
        partials.push_back(adjusted);
      }
      pos += run;
    }
  }

  auto joiner = MakeJoiner(full_rows.size() + partials.size(), std::move(done));

  for (const FullRow& fr : full_rows) {
    ++stats_.full_stripe_writes;
    // A full-stripe write re-materializes the parity absolutely: pending
    // parity-log deltas for this row are now stale and must be discarded.
    uint64_t row_lo = fr.row * u;
    uint64_t row_hi = row_lo + u;
    for (auto it = parity_log_.begin(); it != parity_log_.end();) {
      uint64_t e_len = it->delta ? it->delta.size() : 512;
      if (it->offset < row_hi && row_lo < it->offset + e_len) {
        it = parity_log_.erase(it);
      } else {
        ++it;
      }
    }
    // PariX speculation-cache entries for this row are stale too.
    for (auto it = parix_cache_.begin(); it != parix_cache_.end();) {
      if (it->first.second >= row_lo && it->first.second < row_hi) {
        it = parix_cache_.erase(it);
      } else {
        ++it;
      }
    }
    // Encode parity once (one Buffer holds all m parity units, one fused
    // kernel pass per data shard), write all k+m shards in parallel.
    ursa::Buffer parity;
    if (src != nullptr) {
      parity = ursa::Buffer::Allocate(static_cast<uint64_t>(config_.m) * u);
      enc_data_ptrs_.resize(config_.k);
      enc_parity_ptrs_.resize(config_.m);
      for (int d = 0; d < config_.k; ++d) {
        enc_data_ptrs_[d] = src + fr.user_off + static_cast<uint64_t>(d) * u;
      }
      for (int p = 0; p < config_.m; ++p) {
        enc_parity_ptrs_[p] = parity.data() + static_cast<uint64_t>(p) * u;
      }
      rs_.Encode(enc_data_ptrs_, enc_parity_ptrs_, u);
    }
    uint64_t shard_off = fr.row * u;
    auto row_join = MakeJoiner(devices_.size(), [joiner](const Status& s) { joiner->Finish(s); });
    for (int d = 0; d < config_.k; ++d) {
      if (!alive_[d]) {
        sim_->After(0, [row_join]() { row_join->Finish(OkStatus()); });  // degraded: skip
        continue;
      }
      ShardWrite(d, shard_off, u, data.Slice(fr.user_off + uint64_t(d) * u, u),
                 [row_join](const Status& s) { row_join->Finish(s); });
    }
    for (int p = 0; p < config_.m; ++p) {
      int idx = config_.k + p;
      if (!alive_[idx]) {
        sim_->After(0, [row_join]() { row_join->Finish(OkStatus()); });
        continue;
      }
      ursa::BufferView bytes = parity ? parity.View(static_cast<uint64_t>(p) * u, u)
                                      : ursa::BufferView();
      ShardWrite(idx, shard_off, u, std::move(bytes),
                 [row_join](const Status& s) { row_join->Finish(s); });
    }
  }

  // Partial extents run SEQUENTIALLY: extents of a multi-shard write can
  // target overlapping parity ranges, and concurrent read-xor-write parity
  // updates would lose deltas.
  if (!partials.empty()) {
    auto idx = std::make_shared<size_t>(0);
    auto exts = std::make_shared<std::vector<Extent>>(std::move(partials));
    // Weak self-reference: the extent in flight holds the pump, so it dies
    // with the last one instead of leaking through a self-cycle.
    auto pump = std::make_shared<std::function<void()>>();
    *pump = [this, idx, exts, data, joiner, weak = std::weak_ptr<std::function<void()>>(pump)]() {
      if (*idx >= exts->size()) {
        return;
      }
      const Extent& ext = (*exts)[(*idx)++];
      PartialWriteExtent(ext, data.Slice(ext.user_off, ext.len),
                         [joiner, self = weak.lock()](const Status& s) {
                           joiner->Finish(s);
                           (*self)();
                         });
    };
    (*pump)();
  }
}

void EcStripeStore::PartialWriteExtent(const Extent& ext, ursa::BufferView data,
                                       storage::IoCallback done) {
  ++stats_.partial_writes;
  if (!alive_[ext.shard]) {
    done(Unavailable("degraded partial writes to a failed shard are unsupported"));
    return;
  }
  // PariX fast path: an overwrite of a range written since the last flush
  // computes its delta from the speculation cache — no device read.
  if (config_.mode == PartialWriteMode::kParixSpeculative) {
    auto key = std::make_pair(ext.shard, ext.shard_off);
    auto it = parix_cache_.find(key);
    bool hit = it != parix_cache_.end() &&
               (!data ? it->second.empty() : it->second.size() == ext.len);
    if (hit) {
      ++stats_.speculative_hits;
      std::shared_ptr<std::vector<uint8_t>> delta;
      if (data) {
        delta = AcquireBuf(ext.len, false);
        std::memcpy(delta->data(), data.data(), ext.len);
        GfXorAccum(it->second.data(), delta->data(), ext.len);
        it->second = data;
      }
      int alive_parities = 0;
      for (int p = 0; p < config_.m; ++p) {
        alive_parities += alive_[config_.k + p] ? 1 : 0;
      }
      auto joiner = MakeJoiner(1 + alive_parities, std::move(done));
      ShardWrite(ext.shard, ext.shard_off, ext.len, data,
                 [joiner](const Status& s2) { joiner->Finish(s2); });
      for (int p = 0; p < config_.m; ++p) {
        int idx = config_.k + p;
        if (!alive_[idx]) {
          continue;
        }
        ursa::Buffer scaled;
        if (delta) {
          scaled = ursa::Buffer::AllocateZeroed(ext.len);
          rs_.UpdateParity(p, ext.shard, delta->data(), scaled.data(), ext.len);
        }
        uint64_t log_base = rows_ * config_.stripe_unit;
        uint64_t cursor = parity_log_used_ % (config_.parity_log_bytes - ext.len + 1);
        parity_log_.push_back(LogEntry{p, ext.shard_off, scaled});
        parity_log_used_ += ext.len;
        ++stats_.parity_log_appends;
        ++stats_.shard_writes;
        storage::IoRequest log_req;
        log_req.type = storage::IoType::kWrite;
        log_req.offset = log_base + cursor;
        log_req.length = ext.len;
        log_req.data = scaled;
        log_req.done = [joiner](const Status& s2) { joiner->Finish(s2); };
        devices_[idx]->Submit(std::move(log_req));
      }
      return;
    }
  }
  // 1. Read the old data (needed for the parity delta in every scheme).
  ShardRead(
      ext.shard, ext.shard_off, ext.len,
      [this, ext, data, done = std::move(done)](const Status& s,
                                                const ursa::BufferView& old_data) mutable {
        if (!s.ok()) {
          done(s);
          return;
        }
        // 2. Compute the raw delta and write the new data.
        std::shared_ptr<std::vector<uint8_t>> delta;
        if (data) {
          delta = AcquireBuf(ext.len, false);
          std::memcpy(delta->data(), data.data(), ext.len);
          GfXorAccum(old_data.data(), delta->data(), ext.len);
        }
        if (config_.mode == PartialWriteMode::kParixSpeculative) {
          // Remember the new value so the next overwrite skips the read.
          parix_cache_[std::make_pair(ext.shard, ext.shard_off)] = data;
        }
        int alive_parities = 0;
        for (int p = 0; p < config_.m; ++p) {
          alive_parities += alive_[config_.k + p] ? 1 : 0;
        }
        auto joiner = MakeJoiner(1 + alive_parities, std::move(done));
        ShardWrite(ext.shard, ext.shard_off, ext.len, data,
                   [joiner](const Status& s2) { joiner->Finish(s2); });

        // 3. Update each alive parity.
        for (int p = 0; p < config_.m; ++p) {
          int idx = config_.k + p;
          if (!alive_[idx]) {
            continue;
          }
          // Per-parity scaled delta: coef(p, shard) * raw delta.
          ursa::Buffer scaled;
          if (delta) {
            scaled = ursa::Buffer::AllocateZeroed(ext.len);
            rs_.UpdateParity(p, ext.shard, delta->data(), scaled.data(), ext.len);
          }
          if (config_.mode != PartialWriteMode::kReadModifyWrite) {
            // Append to the parity's log region (sequential) and buffer the
            // delta for lazy application at Flush().
            uint64_t log_base = rows_ * config_.stripe_unit;
            uint64_t cursor = parity_log_used_ % (config_.parity_log_bytes - ext.len + 1);
            parity_log_.push_back(LogEntry{p, ext.shard_off, scaled});
            parity_log_used_ += ext.len;
            ++stats_.parity_log_appends;
            ++stats_.shard_writes;
            storage::IoRequest log_req;
            log_req.type = storage::IoType::kWrite;
            log_req.offset = log_base + cursor;
            log_req.length = ext.len;
            log_req.data = scaled;
            log_req.done = [joiner](const Status& s2) { joiner->Finish(s2); };
            devices_[idx]->Submit(std::move(log_req));
          } else {
            // RMW: read old parity, xor in the scaled delta, write back.
            ShardRead(idx, ext.shard_off, ext.len,
                      [this, idx, ext, scaled, joiner](const Status& s2,
                                                       const ursa::BufferView& old_parity) {
                        if (!s2.ok()) {
                          joiner->Finish(s2);
                          return;
                        }
                        ShardWrite(idx, ext.shard_off, ext.len, XorInto(old_parity, scaled),
                                   [joiner](const Status& s3) { joiner->Finish(s3); });
                      });
          }
        }
      });
}

void EcStripeStore::Read(uint64_t offset, uint64_t length, void* out, storage::IoCallback done) {
  std::vector<Extent> extents = SplitLogical(offset, length);
  auto joiner = MakeJoiner(extents.size(), std::move(done));
  auto* dst = static_cast<uint8_t*>(out);
  for (const Extent& ext : extents) {
    // The one copy into the caller's memory, before its callback runs.
    auto land = [joiner, dst, at = ext.user_off](const Status& s, const ursa::BufferView& bytes) {
      if (s.ok() && dst != nullptr) {
        std::memcpy(dst + at, bytes.data(), bytes.size());
      }
      joiner->Finish(s);
    };
    if (alive_[ext.shard]) {
      ShardRead(ext.shard, ext.shard_off, ext.len, std::move(land));
    } else {
      DegradedReadExtent(ext, std::move(land));
    }
  }
}

const ReedSolomon::DecodePlan* EcStripeStore::PlanForDegraded(
    int shard, const std::vector<int>& sources) {
  auto key = std::make_pair(alive_, shard);
  auto it = plan_cache_.find(key);
  if (it != plan_cache_.end()) {
    return &it->second;
  }
  std::vector<bool> present(devices_.size(), false);
  for (int src : sources) {
    present[src] = true;
  }
  ReedSolomon::DecodePlan plan;
  if (!rs_.PlanReconstruct(present, {shard}, &plan).ok()) {
    return nullptr;
  }
  return &plan_cache_.emplace(std::move(key), std::move(plan)).first->second;
}

void EcStripeStore::DegradedReadExtent(const Extent& ext, ReadCallback done) {
  ++stats_.degraded_reads;
  int n = rs_.n();
  // Read the same shard range from k surviving shards, then reconstruct.
  std::vector<int> sources;
  for (int i = 0; i < n && static_cast<int>(sources.size()) < config_.k; ++i) {
    if (alive_[i]) {
      sources.push_back(i);
    }
  }
  if (static_cast<int>(sources.size()) < config_.k) {
    done(Unavailable("fewer than k shards alive"), {});
    return;
  }
  auto read = std::make_shared<std::vector<ursa::BufferView>>(n);
  auto finish = [this, ext, read, n, sources, done = std::move(done)](const Status& s) {
    if (!s.ok()) {
      done(s, {});
      return;
    }
    std::vector<const uint8_t*> shards(n, nullptr);
    for (int src : sources) {
      shards[src] = (*read)[src].data();
    }
    // Pending parity-log deltas apply to private copies of the parity reads.
    std::vector<std::shared_ptr<std::vector<uint8_t>>> patched(n);
    for (const LogEntry& entry : parity_log_) {
      int idx = config_.k + entry.parity;
      if (!(*read)[idx] || !entry.delta) {
        continue;
      }
      uint64_t lo = std::max(entry.offset, ext.shard_off);
      uint64_t hi = std::min(entry.offset + entry.delta.size(), ext.shard_off + ext.len);
      if (lo < hi && patched[idx] == nullptr) {
        patched[idx] = AcquireBuf(ext.len, false);
        std::memcpy(patched[idx]->data(), shards[idx], ext.len);
        shards[idx] = patched[idx]->data();
      }
      for (uint64_t b = lo; b < hi; ++b) {
        (*patched[idx])[b - ext.shard_off] ^= entry.delta.data()[b - entry.offset];
      }
    }
    // Rebuild ONLY the shard the caller asked for, with the plan cached for
    // this (alive set, shard) pair.
    const ReedSolomon::DecodePlan* plan = PlanForDegraded(ext.shard, sources);
    if (plan == nullptr) {
      done(Unavailable("fewer than k shards alive"), {});
      return;
    }
    ursa::Buffer rebuilt = ursa::Buffer::Allocate(ext.len);
    std::vector<uint8_t*> rebuild(n, nullptr);
    rebuild[ext.shard] = rebuilt.data();
    rs_.ReconstructWith(*plan, shards, rebuild, ext.len);
    done(OkStatus(), rebuilt.View());
  };
  auto joiner = MakeJoiner(sources.size(), std::move(finish));
  for (int src : sources) {
    ShardRead(src, ext.shard_off, ext.len,
              [read, src, joiner](const Status& s, const ursa::BufferView& bytes) {
                (*read)[src] = bytes;
                joiner->Finish(s);
              });
  }
}

void EcStripeStore::Flush(storage::IoCallback done) {
  if (parity_log_.empty()) {
    sim_->After(0, [done = std::move(done)]() { done(OkStatus()); });
    return;
  }
  std::deque<LogEntry> raw;
  raw.swap(parity_log_);
  parix_cache_.clear();
  // Coalesce same-range deltas before touching the parity devices: chained
  // overwrites leave one log entry per write, but scaled deltas compose
  // under XOR, so one parity RMW per distinct range suffices.
  std::vector<LogEntry> entries;
  std::vector<bool> merged;  // entries[i].delta is a private merge buffer
  std::map<std::tuple<int, uint64_t, uint64_t>, size_t> by_range;
  for (LogEntry& e : raw) {
    uint64_t len = e.delta ? e.delta.size() : 0;
    auto key = std::make_tuple(e.parity, e.offset, len);
    auto it = by_range.find(key);
    if (it == by_range.end()) {
      by_range.emplace(key, entries.size());
      entries.push_back(std::move(e));
      merged.push_back(false);
      continue;
    }
    LogEntry& g = entries[it->second];
    if (e.delta) {
      if (!merged[it->second]) {
        // First merge into this range: the group's delta is published (its
        // log append shares it), so compose into a private buffer.
        g.delta = ursa::Buffer::CopyOf(g.delta.data(), len);
        merged[it->second] = true;
      }
      GfXorAccum(e.delta.data(), g.delta.data(), len);
    }
    ++stats_.parity_log_coalesced;
  }
  auto joiner = MakeJoiner(entries.size(), std::move(done));
  for (const LogEntry& entry : entries) {
    int idx = config_.k + entry.parity;
    ++stats_.parity_log_applied;
    if (!alive_[idx]) {
      sim_->After(0, [joiner]() { joiner->Finish(OkStatus()); });
      continue;
    }
    uint64_t len = entry.delta ? entry.delta.size() : 512;
    ursa::Buffer delta = entry.delta;
    uint64_t off = entry.offset;
    ShardRead(idx, off, len,
              [this, idx, off, len, delta, joiner](const Status& s,
                                                   const ursa::BufferView& old_parity) {
                if (!s.ok()) {
                  joiner->Finish(s);
                  return;
                }
                ShardWrite(idx, off, len, XorInto(old_parity, delta),
                           [joiner](const Status& s2) { joiner->Finish(s2); });
              });
  }
}

void EcStripeStore::RepairShard(int shard, storage::BlockDevice* replacement,
                                storage::IoCallback done) {
  URSA_CHECK_LT(static_cast<size_t>(shard), devices_.size());
  URSA_CHECK(!alive_[shard]) << "repairing a live shard";
  // Pending parity deltas must be durable in the parity shards before they
  // serve as reconstruction sources.
  Flush([this, shard, replacement, done = std::move(done)](const Status& fs) mutable {
    if (!fs.ok()) {
      done(fs);
      return;
    }
    uint64_t u = config_.stripe_unit;
    auto row = std::make_shared<uint64_t>(0);
    // Weak self-reference, as in the partial-write pump above: the row in
    // flight holds the step.
    auto step = std::make_shared<std::function<void()>>();
    auto done_shared = std::make_shared<storage::IoCallback>(std::move(done));
    *step = [this, shard, replacement, row, u, done_shared,
             weak = std::weak_ptr<std::function<void()>>(step)]() {
      if (*row >= rows_) {
        devices_[shard] = replacement;
        alive_[shard] = true;
        (*done_shared)(OkStatus());
        return;
      }
      uint64_t shard_off = *row * u;
      Extent ext{*row, shard, shard_off, u, 0};
      DegradedReadExtent(ext, [this, replacement, shard_off, u, row, step = weak.lock(),
                               done_shared](const Status& s, const ursa::BufferView& rebuilt) {
                           if (!s.ok()) {
                             (*done_shared)(s);
                             return;
                           }
                           storage::IoRequest req;
                           req.type = storage::IoType::kWrite;
                           req.offset = shard_off;
                           req.length = u;
                           req.data = rebuilt;
                           req.done = [row, step](const Status& s2) {
                             if (!s2.ok()) {
                               return;  // dropped; caller times out
                             }
                             ++*row;
                             (*step)();
                           };
                           replacement->Submit(std::move(req));
                         });
    };
    (*step)();
  });
}

}  // namespace ursa::ec
