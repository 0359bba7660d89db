// Systematic Reed-Solomon (k data + m parity) over GF(2^8).
//
// Encoding matrix: the k x k identity stacked on an m x k Cauchy-derived
// matrix, so any k of the k+m shards reconstruct the stripe. Supports
// incremental parity updates (parity_delta = coef * data_delta), which is
// what makes partial-write strategies — RMW, parity logging (Chan et al.),
// PariX-style speculation — implementable without full-stripe rewrites.
//
// The hot loops run on the vectorized GF(256) kernels (gf256_kernels.h).
// The codec caches a split-nibble multiply table per (parity, data)
// coefficient at construction, and Encode is FUSED: each data shard is
// streamed once, updating all m parity rows while the shard is hot in cache,
// instead of re-reading it per parity row. Reconstruction compiles a
// DecodePlan — per-survivor coefficient rows (missing parity folded through
// the inverse, so every lost shard, data or parity, is a direct linear
// combination of the k survivors) plus their multiply tables — which callers
// can cache across calls with the same liveness pattern.
#ifndef URSA_EC_REED_SOLOMON_H_
#define URSA_EC_REED_SOLOMON_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/ec/gf256.h"
#include "src/ec/gf256_kernels.h"

namespace ursa::ec {

class ReedSolomon {
 public:
  // Requires 1 <= k, 0 <= m, k + m <= 255.
  ReedSolomon(int k, int m);

  int k() const { return k_; }
  int m() const { return m_; }
  int n() const { return k_ + m_; }

  // Computes the m parity shards from the k data shards (all `len` bytes),
  // one fused pass per data shard on the best available kernel tier.
  void Encode(const std::vector<const uint8_t*>& data, const std::vector<uint8_t*>& parity,
              size_t len) const;

  // Encode pinned to a kernel tier (tests assert bit-exactness across tiers,
  // benchmarks report per-tier throughput). `tier` must be available.
  void EncodeWith(GfKernelTier tier, const std::vector<const uint8_t*>& data,
                  const std::vector<uint8_t*>& parity, size_t len) const;

  // Coefficient of data shard `d` in parity shard `p` — the scalar for
  // incremental parity updates: new_parity = old_parity + coef*(new - old).
  uint8_t ParityCoefficient(int p, int d) const { return coding_[p][d]; }

  // Applies a data delta (new XOR old) of shard `d` to parity shard `p`,
  // using the cached coefficient table.
  void UpdateParity(int p, int d, const uint8_t* delta, uint8_t* parity, size_t len) const {
    GfMulAccum(enc_tables_[static_cast<size_t>(d) * m_ + p], coding_[p][d], delta, parity,
               len);
  }

  // A compiled reconstruction: which k survivors to read, which shards to
  // rebuild, and the per-(survivor, target) coefficient tables. Building one
  // costs a k x k matrix inversion plus table generation; callers that
  // reconstruct repeatedly under a stable failure pattern (degraded reads,
  // shard repair) should cache it.
  struct DecodePlan {
    std::vector<int> sources;  // k surviving shard indices, ascending
    std::vector<int> targets;  // shard indices this plan rebuilds
    // Row-major [source][target]: contribution of sources[r] to targets[t].
    std::vector<uint8_t> coefs;
    std::vector<GfMulTable> tables;
  };

  // Compiles a plan from `present` (shard availability, size n) rebuilding
  // every shard in `wanted` (indices into [0, n)). Wanted shards that are
  // present are ignored. Fails when fewer than k shards are present.
  Status PlanReconstruct(const std::vector<bool>& present, const std::vector<int>& wanted,
                         DecodePlan* plan) const;

  // Executes a plan: out[t] (for each t in plan.targets) is overwritten with
  // the reconstructed shard. `shards[s]` must be valid for every s in
  // plan.sources. Fused: each survivor is streamed once, updating every
  // rebuild target.
  void ReconstructWith(const DecodePlan& plan, const std::vector<const uint8_t*>& shards,
                       const std::vector<uint8_t*>& out, size_t len,
                       GfKernelTier tier) const;
  void ReconstructWith(const DecodePlan& plan, const std::vector<const uint8_t*>& shards,
                       const std::vector<uint8_t*>& out, size_t len) const {
    ReconstructWith(plan, shards, out, len, GfKernelBestTier());
  }

  // Rebuilds every lost shard that has a writable buffer out[i] from the
  // first k surviving ones: `shards[i]` is shard i's bytes or nullptr if
  // lost. Fails when fewer than k survive. (Compiles a throwaway DecodePlan;
  // hot paths cache one instead.) The master's stripe repair and the
  // client's degraded read both rebuild through it.
  Status Reconstruct(const std::vector<const uint8_t*>& shards, const std::vector<uint8_t*>& out,
                     size_t len) const;

 private:
  // Inverts a square GF(256) matrix in place; false if singular.
  static bool Invert(std::vector<std::vector<uint8_t>>* matrix);

  int k_;
  int m_;
  // Full (k+m) x k encoding matrix rows; first k rows = identity.
  std::vector<std::vector<uint8_t>> rows_;
  // Convenience view of the parity rows (m x k).
  std::vector<std::vector<uint8_t>> coding_;
  // Cached multiply tables, grouped for the fused encode: entry d*m + p is
  // the table for coding_[p][d], and enc_coefs_ mirrors the layout.
  std::vector<GfMulTable> enc_tables_;
  std::vector<uint8_t> enc_coefs_;
};

// The process's one codec per (k, m), built on first use.
const ReedSolomon& Codec(int k, int m);

// Read plan for rebuilding the full data image of a stripe (promotion
// back-fill, PariX-style speculation): which k shards to read — data shards
// first, so in the no-failure case the image needs no decode at all — and
// which data shards must then be reconstructed from those sources.
struct BackfillReadPlan {
  std::vector<int> sources;       // k shard indices to read, data-first
  std::vector<int> missing_data;  // data shards to rebuild from the sources
};

// Compiles a BackfillReadPlan from `alive` (shard availability, size k+m).
// Fails when fewer than k shards are alive.
Status PlanBackfillRead(const std::vector<bool>& alive, int k, int m, BackfillReadPlan* plan);

}  // namespace ursa::ec

#endif  // URSA_EC_REED_SOLOMON_H_
