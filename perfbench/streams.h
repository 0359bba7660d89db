// Seeded op generators, one per tenant. A stream proposes the next op of its
// tenant; it redraws (a bounded number of times) when the proposal overlaps an
// op still in flight, and returns nothing when the tenant must wait for a
// completion first. Every stream is a pure function of its seed and of the
// order completions arrive in, which the simulator fixes, so a seed replays
// the same op sequence.
#ifndef PERFBENCH_STREAMS_H_
#define PERFBENCH_STREAMS_H_

#include <algorithm>
#include <cstdint>
#include <optional>

#include "perfbench/oracle.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/trace/msr_generator.h"
#include "src/trace/workload.h"

namespace perfbench {

struct Draw {
  bool write = false;
  uint64_t off = 0;
  uint32_t len = 0;
};

class OpStream {
 public:
  virtual ~OpStream() = default;
  virtual std::optional<Draw> Next(const DiskOracle& oracle, int inflight) = 0;
};

// Additive-recurrence (Weyl) sequence in [0, 1) starting at a seeded phase:
// its empirical distribution matches the uniform one far more closely than
// independent draws, so a mix drawn through it (Fig. 1 sizes, write share)
// comes out at the same proportions for every seed.
class WeylSequence {
 public:
  WeylSequence(double step, double phase) : step_(step), x_(phase) {}
  double Next() {
    x_ += step_;
    x_ -= static_cast<double>(static_cast<uint64_t>(x_));
    return x_;
  }

 private:
  double step_;
  double x_;
};

// MSR-shaped tenant (trace::TraceProfile semantics, scaled to the disk):
// block sizes follow the Fig. 1 mix; small writes overwrite a hot set with
// the profile's overwrite fraction and otherwise land uniformly; writes
// above Tj stream sequentially through the last quarter of the disk; reads
// re-reference the hot set with the profile's reread fraction and otherwise
// scan the cold middle of the disk once. Sizes and the read/write choice
// come from two Weyl sequences (exact mix proportions); offsets and the hot
// or cold choices from the seeded Rng.
class MsrStream : public OpStream {
 public:
  MsrStream(const ursa::trace::TraceProfile& profile, uint64_t disk_size, uint64_t seed)
      : profile_(profile),
        size_(disk_size),
        hot_(disk_size / 8),
        seq_base_(disk_size / 4 * 3),
        seq_cursor_(seq_base_),
        cold_cursor_(hot_),
        rng_(seed),
        size_seq_(0.6180339887498949, rng_.NextDouble()),   // golden ratio
        write_seq_(0.4142135623730951, rng_.NextDouble()) {}  // sqrt(2) - 1

  std::optional<Draw> Next(const DiskOracle& oracle, int /*inflight*/) override {
    for (int attempt = 0; attempt < 32; ++attempt) {
      Draw d = Propose();
      if (!oracle.Overlaps(d.off, d.len)) {
        return d;
      }
    }
    return std::nullopt;
  }

 private:
  static constexpr uint32_t kLargeIo = 64 * 1024;

  uint64_t Aligned(uint64_t base, uint64_t span, uint32_t len) {
    uint64_t limit = span > len ? span - len : 0;
    return base + rng_.Uniform(limit / kSector + 1) * kSector;
  }

  uint64_t Sequential(uint64_t* cursor, uint64_t lo, uint64_t hi, uint32_t len) {
    if (*cursor + len > hi) {
      *cursor = lo;
    }
    uint64_t off = *cursor;
    *cursor += len;
    return off;
  }

  static uint32_t BlockSizeAt(double u) {
    for (const auto& [size, cum] : ursa::trace::BlockSizeCdf()) {
      if (u <= cum) {
        return size;
      }
    }
    return ursa::trace::BlockSizeCdf().back().first;
  }

  Draw Propose() {
    Draw d;
    d.len = BlockSizeAt(size_seq_.Next());
    d.write = write_seq_.Next() < profile_.write_fraction;
    if (d.write) {
      if (d.len > kLargeIo) {
        d.off = Sequential(&seq_cursor_, seq_base_, size_, d.len);
      } else if (rng_.Bernoulli(profile_.overwrite_fraction)) {
        d.off = Aligned(0, hot_, d.len);
      } else {
        d.off = Aligned(0, size_, d.len);
      }
    } else if (rng_.Bernoulli(profile_.reread_fraction)) {
      d.off = Aligned(0, hot_, d.len);
    } else {
      d.off = Sequential(&cold_cursor_, hot_, seq_base_, d.len);
    }
    return d;
  }

  ursa::trace::TraceProfile profile_;
  uint64_t size_;
  uint64_t hot_;
  uint64_t seq_base_;
  uint64_t seq_cursor_;
  uint64_t cold_cursor_;
  ursa::Rng rng_;
  WeylSequence size_seq_;
  WeylSequence write_seq_;
};

// Alternating sequential passes over a disk of `disk_blocks` blocks:
// `pass_ops` writes of one block each, then a read pass over the same range,
// then writes again. Each write pass starts at a seeded block and wraps
// around the disk. A pass only starts once the previous one has fully
// drained, so reads always see the pass that preceded them.
class SeqStream : public OpStream {
 public:
  SeqStream(uint64_t block, uint64_t pass_ops, uint64_t disk_blocks, uint64_t seed)
      : block_(block), pass_ops_(pass_ops), disk_blocks_(disk_blocks), rng_(seed) {
    NewWritePass();
  }

  std::optional<Draw> Next(const DiskOracle& /*oracle*/, int inflight) override {
    if (issued_ == pass_ops_) {
      if (inflight > 0) {
        return std::nullopt;
      }
      if (writing_) {
        writing_ = false;
        issued_ = 0;
      } else {
        NewWritePass();
      }
    }
    Draw d;
    d.write = writing_;
    d.off = (start_ + issued_++) % disk_blocks_ * block_;
    d.len = static_cast<uint32_t>(block_);
    return d;
  }

 private:
  void NewWritePass() {
    writing_ = true;
    issued_ = 0;
    start_ = rng_.Uniform(disk_blocks_);
  }

  uint64_t block_;
  uint64_t pass_ops_;
  uint64_t disk_blocks_;
  ursa::Rng rng_;
  bool writing_ = true;
  uint64_t issued_ = 0;
  uint64_t start_ = 0;  // first block of the current pass
};

// Small-block random traffic: reads uniform over the disk, writes uniform
// over its first `write_span` bytes (so writes keep only those chunks hot).
class RandomStream : public OpStream {
 public:
  RandomStream(uint32_t block, double read_fraction, uint64_t disk_size, uint64_t write_span,
               uint64_t seed)
      : block_(block),
        read_fraction_(read_fraction),
        size_(disk_size),
        write_span_(write_span),
        rng_(seed) {}

  std::optional<Draw> Next(const DiskOracle& oracle, int /*inflight*/) override {
    for (int attempt = 0; attempt < 32; ++attempt) {
      Draw d;
      d.len = block_;
      d.write = !rng_.Bernoulli(read_fraction_);
      uint64_t span = d.write ? write_span_ : size_;
      d.off = rng_.Uniform(span / block_) * block_;
      if (!oracle.Overlaps(d.off, d.len)) {
        return d;
      }
    }
    return std::nullopt;
  }

 private:
  uint32_t block_;
  double read_fraction_;
  uint64_t size_;
  uint64_t write_span_;
  ursa::Rng rng_;
};

// One pass over the first `size` bytes of a disk in `block`-sized ops
// (prefill when writing, the post-run audit when reading).
class SweepStream : public OpStream {
 public:
  SweepStream(bool write, uint64_t block, uint64_t size)
      : write_(write), block_(block), size_(size) {}

  uint64_t ops() const { return (size_ + block_ - 1) / block_; }

  std::optional<Draw> Next(const DiskOracle& /*oracle*/, int /*inflight*/) override {
    if (cursor_ >= size_) {
      return std::nullopt;
    }
    Draw d;
    d.write = write_;
    d.off = cursor_;
    d.len = static_cast<uint32_t>(std::min(block_, size_ - cursor_));
    cursor_ += d.len;
    return d;
  }

 private:
  bool write_;
  uint64_t block_;
  uint64_t size_;
  uint64_t cursor_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_STREAMS_H_
