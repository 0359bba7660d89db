#include "src/ec/reed_solomon.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <utility>

#include "src/common/logging.h"

namespace ursa::ec {

ReedSolomon::ReedSolomon(int k, int m) : k_(k), m_(m) {
  URSA_CHECK_GE(k, 1);
  URSA_CHECK_GE(m, 0);
  URSA_CHECK_LE(k + m, 255);
  const Gf256& gf = Gf256::Instance();

  // Cauchy matrix: coding[p][d] = 1 / (x_p + y_d) with disjoint x/y sets —
  // every square submatrix is invertible, which is exactly the MDS property.
  rows_.assign(k + m, std::vector<uint8_t>(k, 0));
  for (int d = 0; d < k; ++d) {
    rows_[d][d] = 1;
  }
  coding_.assign(m, std::vector<uint8_t>(k, 0));
  enc_tables_.resize(static_cast<size_t>(k) * m);
  enc_coefs_.resize(static_cast<size_t>(k) * m);
  for (int p = 0; p < m; ++p) {
    for (int d = 0; d < k; ++d) {
      uint8_t x = static_cast<uint8_t>(k + p);  // x_p in [k, k+m)
      uint8_t y = static_cast<uint8_t>(d);      // y_d in [0, k)
      coding_[p][d] = gf.Inv(Gf256::Add(x, y));
      rows_[k + p][d] = coding_[p][d];
      enc_coefs_[static_cast<size_t>(d) * m + p] = coding_[p][d];
      GfBuildMulTable(coding_[p][d], &enc_tables_[static_cast<size_t>(d) * m + p]);
    }
  }
}

void ReedSolomon::Encode(const std::vector<const uint8_t*>& data,
                         const std::vector<uint8_t*>& parity, size_t len) const {
  EncodeWith(GfKernelBestTier(), data, parity, len);
}

void ReedSolomon::EncodeWith(GfKernelTier tier, const std::vector<const uint8_t*>& data,
                             const std::vector<uint8_t*>& parity, size_t len) const {
  URSA_CHECK_EQ(data.size(), static_cast<size_t>(k_));
  URSA_CHECK_EQ(parity.size(), static_cast<size_t>(m_));
  for (int p = 0; p < m_; ++p) {
    std::memset(parity[p], 0, len);
  }
  if (m_ == 0) {
    return;
  }
  // Fused: stream each data shard once, updating all m parity rows while the
  // shard's cache lines are hot — instead of m full passes over every shard.
  for (int d = 0; d < k_; ++d) {
    GfMulAccumMultiWith(tier, &enc_tables_[static_cast<size_t>(d) * m_],
                        &enc_coefs_[static_cast<size_t>(d) * m_], data[d], parity.data(), m_,
                        len);
  }
}

bool ReedSolomon::Invert(std::vector<std::vector<uint8_t>>* matrix) {
  const Gf256& gf = Gf256::Instance();
  size_t n = matrix->size();
  // Augment with the identity.
  for (size_t r = 0; r < n; ++r) {
    (*matrix)[r].resize(2 * n, 0);
    (*matrix)[r][n + r] = 1;
  }
  for (size_t col = 0; col < n; ++col) {
    // Pivot.
    size_t pivot = col;
    while (pivot < n && (*matrix)[pivot][col] == 0) {
      ++pivot;
    }
    if (pivot == n) {
      return false;
    }
    std::swap((*matrix)[pivot], (*matrix)[col]);
    uint8_t inv = gf.Inv((*matrix)[col][col]);
    for (size_t c = 0; c < 2 * n; ++c) {
      (*matrix)[col][c] = gf.Mul((*matrix)[col][c], inv);
    }
    for (size_t r = 0; r < n; ++r) {
      if (r == col || (*matrix)[r][col] == 0) {
        continue;
      }
      uint8_t factor = (*matrix)[r][col];
      for (size_t c = 0; c < 2 * n; ++c) {
        (*matrix)[r][c] = Gf256::Add((*matrix)[r][c], gf.Mul(factor, (*matrix)[col][c]));
      }
    }
  }
  // Keep only the right half (the inverse).
  for (size_t r = 0; r < n; ++r) {
    (*matrix)[r].erase((*matrix)[r].begin(), (*matrix)[r].begin() + n);
  }
  return true;
}

Status ReedSolomon::PlanReconstruct(const std::vector<bool>& present,
                                    const std::vector<int>& wanted, DecodePlan* plan) const {
  URSA_CHECK_EQ(present.size(), static_cast<size_t>(n()));
  const Gf256& gf = Gf256::Instance();

  plan->sources.clear();
  plan->targets.clear();
  for (int i = 0; i < n() && static_cast<int>(plan->sources.size()) < k_; ++i) {
    if (present[i]) {
      plan->sources.push_back(i);
    }
  }
  if (static_cast<int>(plan->sources.size()) < k_) {
    return Unavailable("fewer than k shards survive; stripe unrecoverable");
  }
  for (int t : wanted) {
    URSA_CHECK_LT(static_cast<size_t>(t), static_cast<size_t>(n()));
    if (!present[t]) {
      plan->targets.push_back(t);
    }
  }
  size_t nt = plan->targets.size();
  plan->coefs.assign(static_cast<size_t>(k_) * nt, 0);
  plan->tables.resize(static_cast<size_t>(k_) * nt);
  if (nt == 0) {
    return OkStatus();
  }

  // Invert the k x k matrix of the survivors' encoding rows: inv[d][r] is
  // the coefficient of survivor r in data shard d.
  std::vector<std::vector<uint8_t>> inv(k_);
  for (int r = 0; r < k_; ++r) {
    inv[r] = rows_[plan->sources[r]];
  }
  if (!Invert(&inv)) {
    return Internal("singular decoding matrix (should be impossible for Cauchy)");
  }

  // Every lost shard is a direct linear combination of the survivors: a lost
  // data shard d uses inv[d]; a lost parity p folds its coding row through
  // the inverse (parity_p = coding_p . data = (coding_p . inv) . survivors).
  for (size_t t = 0; t < nt; ++t) {
    int shard = plan->targets[t];
    for (int r = 0; r < k_; ++r) {
      uint8_t c;
      if (shard < k_) {
        c = inv[shard][r];
      } else {
        c = 0;
        for (int d = 0; d < k_; ++d) {
          c = Gf256::Add(c, gf.Mul(coding_[shard - k_][d], inv[d][r]));
        }
      }
      plan->coefs[static_cast<size_t>(r) * nt + t] = c;
      GfBuildMulTable(c, &plan->tables[static_cast<size_t>(r) * nt + t]);
    }
  }
  return OkStatus();
}

void ReedSolomon::ReconstructWith(const DecodePlan& plan,
                                  const std::vector<const uint8_t*>& shards,
                                  const std::vector<uint8_t*>& out, size_t len,
                                  GfKernelTier tier) const {
  size_t nt = plan.targets.size();
  if (nt == 0) {
    return;
  }
  // Collect the rebuild destinations once, then stream each survivor through
  // the fused kernel — one pass per survivor updates every target.
  std::vector<uint8_t*> outs(nt);
  for (size_t t = 0; t < nt; ++t) {
    outs[t] = out[plan.targets[t]];
    URSA_CHECK(outs[t] != nullptr) << "missing shard needs an output buffer";
    std::memset(outs[t], 0, len);
  }
  for (int r = 0; r < k_; ++r) {
    const uint8_t* src = shards[plan.sources[r]];
    URSA_CHECK(src != nullptr);
    GfMulAccumMultiWith(tier, &plan.tables[static_cast<size_t>(r) * nt],
                        &plan.coefs[static_cast<size_t>(r) * nt], src, outs.data(),
                        static_cast<int>(nt), len);
  }
}

Status ReedSolomon::Reconstruct(const std::vector<const uint8_t*>& shards,
                                const std::vector<uint8_t*>& out, size_t len) const {
  URSA_CHECK_EQ(shards.size(), static_cast<size_t>(n()));
  std::vector<bool> present(n());
  std::vector<int> wanted;
  for (int i = 0; i < n(); ++i) {
    present[i] = shards[i] != nullptr;
    if (!present[i] && out[i] != nullptr) {
      wanted.push_back(i);
    }
  }
  DecodePlan plan;
  Status s = PlanReconstruct(present, wanted, &plan);
  if (!s.ok()) {
    return s;
  }
  ReconstructWith(plan, shards, out, len);
  return OkStatus();
}

const ReedSolomon& Codec(int k, int m) {
  static std::map<std::pair<int, int>, std::unique_ptr<ReedSolomon>> codecs;
  std::unique_ptr<ReedSolomon>& codec = codecs[{k, m}];
  if (codec == nullptr) {
    codec = std::make_unique<ReedSolomon>(k, m);
  }
  return *codec;
}

Status PlanBackfillRead(const std::vector<bool>& alive, int k, int m, BackfillReadPlan* plan) {
  URSA_CHECK_EQ(alive.size(), static_cast<size_t>(k + m));
  plan->sources.clear();
  plan->missing_data.clear();
  // Data shards first: every alive data shard read is a byte range of the
  // final image for free; parity shards only fill in for dead data shards.
  for (int i = 0; i < k + m && static_cast<int>(plan->sources.size()) < k; ++i) {
    if (alive[i]) {
      plan->sources.push_back(i);
    }
  }
  if (static_cast<int>(plan->sources.size()) < k) {
    return Unavailable("fewer than k shards alive; image unrecoverable");
  }
  for (int d = 0; d < k; ++d) {
    if (!alive[d]) {
      plan->missing_data.push_back(d);
    }
  }
  return OkStatus();
}

}  // namespace ursa::ec
