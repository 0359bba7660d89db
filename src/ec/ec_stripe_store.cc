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

void EcStripeStore::ShardRead(int shard, uint64_t offset, uint64_t len, void* out,
                              storage::IoCallback done) {
  ++stats_.shard_reads;
  storage::IoRequest req;
  req.type = storage::IoType::kRead;
  req.offset = offset;
  req.length = len;
  req.out = out;
  req.done = std::move(done);
  devices_[shard]->Submit(std::move(req));
}

void EcStripeStore::ShardWrite(int shard, uint64_t offset, uint64_t len, const void* data,
                               storage::IoCallback done) {
  ++stats_.shard_writes;
  storage::IoRequest req;
  req.type = storage::IoType::kWrite;
  req.offset = offset;
  req.length = len;
  req.data = data;
  req.done = std::move(done);
  devices_[shard]->Submit(std::move(req));
}

void EcStripeStore::Write(uint64_t offset, uint64_t length, const void* data,
                          storage::IoCallback done) {
  uint64_t u = config_.stripe_unit;
  uint64_t row_bytes = u * config_.k;
  const auto* src = static_cast<const uint8_t*>(data);

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
      uint64_t e_len = it->delta ? it->delta->size() : 512;
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
    // Encode parity once (one pooled buffer holds all m parity units, one
    // fused kernel pass per data shard), write all k+m shards in parallel.
    std::shared_ptr<std::vector<uint8_t>> parity;
    if (src != nullptr) {
      parity = AcquireBuf(static_cast<uint64_t>(config_.m) * u, false);
      enc_data_ptrs_.resize(config_.k);
      enc_parity_ptrs_.resize(config_.m);
      for (int d = 0; d < config_.k; ++d) {
        enc_data_ptrs_[d] = src + fr.user_off + static_cast<uint64_t>(d) * u;
      }
      for (int p = 0; p < config_.m; ++p) {
        enc_parity_ptrs_[p] = parity->data() + static_cast<uint64_t>(p) * u;
      }
      rs_.Encode(enc_data_ptrs_, enc_parity_ptrs_, u);
    }
    uint64_t shard_off = fr.row * u;
    auto row_join = MakeJoiner(devices_.size(), [joiner](const Status& s) { joiner->Finish(s); });
    for (int d = 0; d < config_.k; ++d) {
      const void* bytes = src == nullptr ? nullptr : src + fr.user_off + uint64_t(d) * u;
      if (!alive_[d]) {
        sim_->After(0, [row_join]() { row_join->Finish(OkStatus()); });  // degraded: skip
        continue;
      }
      ShardWrite(d, shard_off, u, bytes,
                 [row_join, parity](const Status& s) { row_join->Finish(s); });
    }
    for (int p = 0; p < config_.m; ++p) {
      int idx = config_.k + p;
      const void* bytes = parity ? parity->data() + static_cast<uint64_t>(p) * u : nullptr;
      if (!alive_[idx]) {
        sim_->After(0, [row_join]() { row_join->Finish(OkStatus()); });
        continue;
      }
      ShardWrite(idx, shard_off, u, bytes,
                 [row_join, parity](const Status& s) { row_join->Finish(s); });
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
    *pump = [this, idx, exts, src, joiner, weak = std::weak_ptr<std::function<void()>>(pump)]() {
      if (*idx >= exts->size()) {
        return;
      }
      const Extent& ext = (*exts)[(*idx)++];
      const uint8_t* bytes = src == nullptr ? nullptr : src + ext.user_off;
      PartialWriteExtent(ext, bytes, [joiner, self = weak.lock()](const Status& s) {
        joiner->Finish(s);
        (*self)();
      });
    };
    (*pump)();
  }
}

void EcStripeStore::PartialWriteExtent(const Extent& ext, const uint8_t* data,
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
               (data == nullptr ? it->second.empty() : it->second.size() == ext.len);
    if (hit) {
      ++stats_.speculative_hits;
      std::shared_ptr<std::vector<uint8_t>> delta;
      if (data != nullptr) {
        delta = AcquireBuf(ext.len, false);
        std::memcpy(delta->data(), data, ext.len);
        GfXorAccum(it->second.data(), delta->data(), ext.len);
        it->second.assign(data, data + ext.len);
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
        std::shared_ptr<std::vector<uint8_t>> scaled;
        if (delta) {
          scaled = AcquireBuf(ext.len, true);
          rs_.UpdateParity(p, ext.shard, delta->data(), scaled->data(), ext.len);
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
        log_req.data = scaled ? scaled->data() : nullptr;
        log_req.done = [joiner](const Status& s2) { joiner->Finish(s2); };
        devices_[idx]->Submit(std::move(log_req));
      }
      return;
    }
  }
  // 1. Read the old data (needed for the parity delta in every scheme).
  auto old_data = data == nullptr ? nullptr : AcquireBuf(ext.len, false);
  ShardRead(
      ext.shard, ext.shard_off, ext.len, old_data ? old_data->data() : nullptr,
      [this, ext, data, old_data, done = std::move(done)](const Status& s) mutable {
        if (!s.ok()) {
          done(s);
          return;
        }
        // 2. Compute the raw delta and write the new data.
        std::shared_ptr<std::vector<uint8_t>> delta;
        if (data != nullptr) {
          delta = AcquireBuf(ext.len, false);
          std::memcpy(delta->data(), data, ext.len);
          GfXorAccum(old_data->data(), delta->data(), ext.len);
        }
        if (config_.mode == PartialWriteMode::kParixSpeculative) {
          // Remember the new value so the next overwrite skips the read.
          auto& cached = parix_cache_[std::make_pair(ext.shard, ext.shard_off)];
          if (data != nullptr) {
            cached.assign(data, data + ext.len);
          } else {
            cached.clear();
          }
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
          std::shared_ptr<std::vector<uint8_t>> scaled;
          if (delta) {
            scaled = AcquireBuf(ext.len, true);
            rs_.UpdateParity(p, ext.shard, delta->data(), scaled->data(), ext.len);
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
            log_req.data = scaled ? scaled->data() : nullptr;
            log_req.done = [joiner](const Status& s2) { joiner->Finish(s2); };
            devices_[idx]->Submit(std::move(log_req));
          } else {
            // RMW: read old parity, xor in the scaled delta, write back.
            auto parity_buf = scaled ? AcquireBuf(ext.len, false) : nullptr;
            ShardRead(idx, ext.shard_off, ext.len, parity_buf ? parity_buf->data() : nullptr,
                      [this, idx, ext, scaled, parity_buf, joiner](const Status& s2) {
                        if (!s2.ok()) {
                          joiner->Finish(s2);
                          return;
                        }
                        if (parity_buf) {
                          GfXorAccum(scaled->data(), parity_buf->data(), ext.len);
                        }
                        ShardWrite(idx, ext.shard_off, ext.len,
                                   parity_buf ? parity_buf->data() : nullptr,
                                   [joiner, parity_buf](const Status& s3) {
                                     joiner->Finish(s3);
                                   });
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
    uint8_t* bytes = dst == nullptr ? nullptr : dst + ext.user_off;
    if (alive_[ext.shard]) {
      ShardRead(ext.shard, ext.shard_off, ext.len, bytes,
                [joiner](const Status& s) { joiner->Finish(s); });
    } else {
      DegradedReadExtent(ext, bytes, [joiner](const Status& s) { joiner->Finish(s); });
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

void EcStripeStore::DegradedReadExtent(const Extent& ext, uint8_t* out,
                                       storage::IoCallback done) {
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
    done(Unavailable("fewer than k shards alive"));
    return;
  }
  struct State {
    std::vector<std::shared_ptr<std::vector<uint8_t>>> bufs;
  };
  auto state = std::make_shared<State>();
  state->bufs.resize(n);
  auto finish = [this, ext, out, state, n, sources,
                 done = std::move(done)](const Status& s) {
    if (!s.ok() || out == nullptr) {
      done(s);
      return;
    }
    // Apply pending parity-log deltas to the parity buffers we read.
    for (const LogEntry& entry : parity_log_) {
      int idx = config_.k + entry.parity;
      if (!state->bufs[idx] || !entry.delta) {
        continue;
      }
      uint64_t lo = std::max(entry.offset, ext.shard_off);
      uint64_t hi = std::min(entry.offset + entry.delta->size(), ext.shard_off + ext.len);
      for (uint64_t b = lo; b < hi; ++b) {
        (*state->bufs[idx])[b - ext.shard_off] ^= (*entry.delta)[b - entry.offset];
      }
    }
    // Rebuild ONLY the shard the caller asked for, straight into its output
    // buffer, with the plan cached for this (alive set, shard) pair.
    const ReedSolomon::DecodePlan* plan = PlanForDegraded(ext.shard, sources);
    if (plan == nullptr) {
      done(Unavailable("fewer than k shards alive"));
      return;
    }
    std::vector<const uint8_t*> shards(n, nullptr);
    for (int src : sources) {
      shards[src] = state->bufs[src]->data();
    }
    std::vector<uint8_t*> rebuild(n, nullptr);
    rebuild[ext.shard] = out;
    rs_.ReconstructWith(*plan, shards, rebuild, ext.len);
    done(OkStatus());
  };
  auto joiner = MakeJoiner(sources.size(), std::move(finish));
  for (int src : sources) {
    if (out != nullptr) {
      state->bufs[src] = AcquireBuf(ext.len, false);
    }
    ShardRead(src, ext.shard_off, ext.len,
              state->bufs[src] ? state->bufs[src]->data() : nullptr,
              [joiner](const Status& s) { joiner->Finish(s); });
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
    uint64_t len = e.delta ? e.delta->size() : 0;
    auto key = std::make_tuple(e.parity, e.offset, len);
    auto it = by_range.find(key);
    if (it == by_range.end()) {
      by_range.emplace(key, entries.size());
      entries.push_back(std::move(e));
      merged.push_back(false);
      continue;
    }
    LogEntry& g = entries[it->second];
    if (e.delta != nullptr) {
      if (!merged[it->second]) {
        // First merge into this range: the group's delta may still be aliased
        // by an in-flight append, so compose into a private buffer.
        auto buf = AcquireBuf(len, false);
        std::memcpy(buf->data(), g.delta->data(), len);
        g.delta = std::move(buf);
        merged[it->second] = true;
      }
      GfXorAccum(e.delta->data(), g.delta->data(), len);
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
    uint64_t len = entry.delta ? entry.delta->size() : 512;
    auto parity_buf = entry.delta ? AcquireBuf(len, false) : nullptr;
    auto delta = entry.delta;
    uint64_t off = entry.offset;
    ShardRead(idx, off, len, parity_buf ? parity_buf->data() : nullptr,
              [this, idx, off, len, delta, parity_buf, joiner](const Status& s) {
                if (!s.ok()) {
                  joiner->Finish(s);
                  return;
                }
                if (parity_buf) {
                  GfXorAccum(delta->data(), parity_buf->data(), len);
                }
                ShardWrite(idx, off, len, parity_buf ? parity_buf->data() : nullptr,
                           [joiner, parity_buf](const Status& s2) { joiner->Finish(s2); });
              });
  }
}

void EcStripeStore::RepairShard(int shard, storage::BlockDevice* replacement,
                                storage::IoCallback done) {
  URSA_CHECK_LT(static_cast<size_t>(shard), devices_.size());
  URSA_CHECK(!alive_[shard]) << "repairing a live shard";
  if (admission_.acquire == nullptr) {
    RepairShardNow(shard, replacement, std::move(done));
    return;
  }
  // Rebuild reads fan out across every surviving shard: hold the whole
  // repair behind one transfer slot keyed by the rebuilt shard.
  ++stats_.repair_admissions;
  admission_.acquire(static_cast<uint64_t>(shard),
                     [this, shard, replacement, done = std::move(done)]() mutable {
                       auto release = admission_.release;
                       RepairShardNow(shard, replacement,
                                      [shard, release, done = std::move(done)](const Status& s) {
                                        if (release != nullptr) {
                                          release(static_cast<uint64_t>(shard));
                                        }
                                        done(s);
                                      });
                     });
}

void EcStripeStore::RepairShardNow(int shard, storage::BlockDevice* replacement,
                                   storage::IoCallback done) {
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
      auto buf = AcquireBuf(u, false);
      DegradedReadExtent(ext, buf->data(),
                         [this, replacement, shard_off, u, buf, row, step = weak.lock(),
                          done_shared](const Status& s) {
                           if (!s.ok()) {
                             (*done_shared)(s);
                             return;
                           }
                           storage::IoRequest req;
                           req.type = storage::IoType::kWrite;
                           req.offset = shard_off;
                           req.length = u;
                           req.data = buf->data();
                           req.done = [buf, row, step](const Status& s2) {
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
