// Tests for the erasure-coding substrate (§7's replication alternative):
// GF(256) algebra, Reed-Solomon encode/decode with every erasure pattern,
// incremental parity updates, and the EC stripe store's write paths,
// degraded reads, and repair — byte-accurate end to end.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/ec/ec_stripe_store.h"
#include "src/ec/gf256.h"
#include "src/ec/gf256_kernels.h"
#include "src/ec/reed_solomon.h"
#include "src/storage/mem_device.h"
#include "test_util.h"

namespace ursa::ec {
namespace {

TEST(Gf256Test, FieldAxioms) {
  const Gf256& gf = Gf256::Instance();
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    uint8_t a = static_cast<uint8_t>(rng.Next());
    uint8_t b = static_cast<uint8_t>(rng.Next());
    uint8_t c = static_cast<uint8_t>(rng.Next());
    EXPECT_EQ(gf.Mul(a, b), gf.Mul(b, a));
    EXPECT_EQ(gf.Mul(a, gf.Mul(b, c)), gf.Mul(gf.Mul(a, b), c));
    // Distributivity over XOR addition.
    EXPECT_EQ(gf.Mul(a, Gf256::Add(b, c)), Gf256::Add(gf.Mul(a, b), gf.Mul(a, c)));
    EXPECT_EQ(gf.Mul(a, 1), a);
    EXPECT_EQ(gf.Mul(a, 0), 0);
  }
}

TEST(Gf256Test, InverseAndDivision) {
  const Gf256& gf = Gf256::Instance();
  for (int a = 1; a < 256; ++a) {
    uint8_t inv = gf.Inv(static_cast<uint8_t>(a));
    EXPECT_EQ(gf.Mul(static_cast<uint8_t>(a), inv), 1) << a;
    EXPECT_EQ(gf.Div(static_cast<uint8_t>(a), static_cast<uint8_t>(a)), 1) << a;
  }
  EXPECT_EQ(gf.Div(0, 7), 0);
}

TEST(Gf256Test, PowMatchesRepeatedMul) {
  const Gf256& gf = Gf256::Instance();
  uint8_t acc = 1;
  for (unsigned n = 0; n < 300; ++n) {
    EXPECT_EQ(gf.Pow(3, n), acc) << n;
    acc = gf.Mul(acc, 3);
  }
}

TEST(Gf256Test, MulAccum) {
  const Gf256& gf = Gf256::Instance();
  std::vector<uint8_t> in = {1, 2, 3, 250, 0, 77};
  std::vector<uint8_t> out(6, 0);
  gf.MulAccum(5, in.data(), out.data(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i], gf.Mul(5, in[i]));
  }
  gf.MulAccum(5, in.data(), out.data(), in.size());  // accumulate: cancels
  for (uint8_t v : out) {
    EXPECT_EQ(v, 0);
  }
}

// ---------------------------------------------------------------------------
// GF(256) kernel tiers (src/ec/gf256_kernels.h)
// ---------------------------------------------------------------------------

std::vector<GfKernelTier> AvailableTiers() {
  std::vector<GfKernelTier> tiers;
  for (GfKernelTier t : {GfKernelTier::kScalar, GfKernelTier::kPortable, GfKernelTier::kSsse3,
                         GfKernelTier::kAvx2}) {
    if (GfKernelTierAvailable(t)) {
      tiers.push_back(t);
    }
  }
  return tiers;
}

// Every tier must be bit-identical to the scalar Gf256 reference across
// randomized lengths (including 0, sub-word, and multi-vector), input/output
// alignment offsets 0..15, and coefficients including the 0 and 1 shortcuts.
TEST(GfKernelTest, TiersMatchScalarAcrossLengthsAlignmentsAndCoefs) {
  const Gf256& gf = Gf256::Instance();
  Rng rng(42);
  constexpr size_t kMax = 1536;
  std::vector<uint8_t> in_raw(kMax + 16);
  std::vector<uint8_t> out_raw(kMax + 16);
  std::vector<uint8_t> expect(kMax + 16);
  std::vector<uint8_t> actual(kMax + 16);

  for (int iter = 0; iter < 200; ++iter) {
    uint8_t coef = iter == 0 ? 0 : iter == 1 ? 1 : static_cast<uint8_t>(rng.Next());
    size_t len = iter < 8 ? static_cast<size_t>(iter)  // exercise tiny tails
                          : static_cast<size_t>(rng.Next() % kMax);
    size_t in_off = rng.Next() % 16;
    size_t out_off = rng.Next() % 16;
    for (auto& b : in_raw) {
      b = static_cast<uint8_t>(rng.Next());
    }
    for (size_t i = 0; i < out_raw.size(); ++i) {
      out_raw[i] = static_cast<uint8_t>(rng.Next());
    }

    expect = out_raw;
    gf.MulAccum(coef, in_raw.data() + in_off, expect.data() + out_off, len);

    GfMulTable table;
    GfBuildMulTable(coef, &table);
    for (GfKernelTier tier : AvailableTiers()) {
      actual = out_raw;
      GfMulAccumWith(tier, table, coef, in_raw.data() + in_off, actual.data() + out_off, len);
      ASSERT_EQ(actual, expect) << "tier=" << GfKernelTierName(tier) << " coef=" << int(coef)
                                << " len=" << len << " in_off=" << in_off
                                << " out_off=" << out_off;
    }
    // The dispatching entry point must agree too.
    actual = out_raw;
    GfMulAccum(table, coef, in_raw.data() + in_off, actual.data() + out_off, len);
    ASSERT_EQ(actual, expect) << "dispatched coef=" << int(coef) << " len=" << len;
  }
}

// The fused multi-destination kernel must equal m independent scalar passes,
// across shard counts straddling the fused-group width.
TEST(GfKernelTest, FusedMultiMatchesSeparateScalarPasses) {
  const Gf256& gf = Gf256::Instance();
  Rng rng(7);
  for (int m : {1, 2, 3, 7, 8, 9, 11}) {
    size_t len = 700 + rng.Next() % 700;
    std::vector<uint8_t> in(len);
    for (auto& b : in) {
      b = static_cast<uint8_t>(rng.Next());
    }
    std::vector<uint8_t> coefs(m);
    std::vector<GfMulTable> tables(m);
    coefs[0] = 0;  // include both shortcut coefficients in every fused call
    if (m > 1) {
      coefs[1] = 1;
    }
    for (int j = 2; j < m; ++j) {
      coefs[j] = static_cast<uint8_t>(rng.Next());
    }
    for (int j = 0; j < m; ++j) {
      GfBuildMulTable(coefs[j], &tables[j]);
    }
    std::vector<std::vector<uint8_t>> init(m, std::vector<uint8_t>(len));
    for (auto& row : init) {
      for (auto& b : row) {
        b = static_cast<uint8_t>(rng.Next());
      }
    }
    std::vector<std::vector<uint8_t>> expect = init;
    for (int j = 0; j < m; ++j) {
      gf.MulAccum(coefs[j], in.data(), expect[j].data(), len);
    }
    for (GfKernelTier tier : AvailableTiers()) {
      std::vector<std::vector<uint8_t>> actual = init;
      std::vector<uint8_t*> outs(m);
      for (int j = 0; j < m; ++j) {
        outs[j] = actual[j].data();
      }
      GfMulAccumMultiWith(tier, tables.data(), coefs.data(), in.data(), outs.data(), m, len);
      for (int j = 0; j < m; ++j) {
        ASSERT_EQ(actual[j], expect[j])
            << "tier=" << GfKernelTierName(tier) << " m=" << m << " row=" << j;
      }
    }
  }
}

// Pinned known-answer vectors (GF(2^8), polynomial 0x11D): guards against a
// regression that changes scalar and SIMD tiers in lockstep.
TEST(GfKernelTest, KnownAnswerVectors) {
  const std::vector<uint8_t> in = {0x00, 0x01, 0x02, 0x0F, 0x10, 0x53,
                                   0x80, 0x8D, 0xCA, 0xFE, 0xFF};
  struct Kat {
    uint8_t coef;
    std::vector<uint8_t> product;  // coef * in, accumulated into zeros
  };
  const std::vector<Kat> kats = {
      {0x02, {0x00, 0x02, 0x04, 0x1E, 0x20, 0xA6, 0x1D, 0x07, 0x89, 0xE1, 0xE3}},
      {0x1D, {0x00, 0x1D, 0x3A, 0xBB, 0xCD, 0xF9, 0x26, 0xA7, 0xE7, 0xD9, 0xC4}},
      {0xFF, {0x00, 0xFF, 0xE3, 0x6C, 0x4B, 0x66, 0x62, 0xED, 0x1B, 0x1D, 0xE2}},
  };
  for (const Kat& kat : kats) {
    GfMulTable table;
    GfBuildMulTable(kat.coef, &table);
    for (GfKernelTier tier : AvailableTiers()) {
      std::vector<uint8_t> out(in.size(), 0);
      GfMulAccumWith(tier, table, kat.coef, in.data(), out.data(), in.size());
      EXPECT_EQ(out, kat.product) << "tier=" << GfKernelTierName(tier) << " coef 0x" << std::hex
                                  << int(kat.coef);
    }
  }
  // Fused KAT: two coefficient rows over the same input, accumulators
  // pre-seeded with 0xA5.
  const uint8_t coefs[2] = {0x37, 0x85};
  const std::vector<uint8_t> fused0 = {0xA5, 0x92, 0xCB, 0x85, 0xF2, 0xEA,
                                       0x27, 0x69, 0xAD, 0x88, 0xBF};
  const std::vector<uint8_t> fused1 = {0xA5, 0x20, 0xB2, 0x45, 0x1D, 0x55,
                                       0x0C, 0xFB, 0x9D, 0x66, 0xE3};
  GfMulTable tables[2];
  GfBuildMulTable(coefs[0], &tables[0]);
  GfBuildMulTable(coefs[1], &tables[1]);
  for (GfKernelTier tier : AvailableTiers()) {
    std::vector<uint8_t> row0(in.size(), 0xA5);
    std::vector<uint8_t> row1(in.size(), 0xA5);
    uint8_t* outs[2] = {row0.data(), row1.data()};
    GfMulAccumMultiWith(tier, tables, coefs, in.data(), outs, 2, in.size());
    EXPECT_EQ(row0, fused0) << GfKernelTierName(tier);
    EXPECT_EQ(row1, fused1) << GfKernelTierName(tier);
  }
}

TEST(GfKernelTest, XorAccumMatchesByteXor) {
  Rng rng(3);
  for (size_t len : {0u, 1u, 7u, 8u, 63u, 64u, 1000u}) {
    for (size_t off = 0; off < 4; ++off) {
      std::vector<uint8_t> in(len + off);
      std::vector<uint8_t> out(len + off);
      for (auto& b : in) {
        b = static_cast<uint8_t>(rng.Next());
      }
      for (auto& b : out) {
        b = static_cast<uint8_t>(rng.Next());
      }
      std::vector<uint8_t> expect = out;
      for (size_t i = 0; i < len; ++i) {
        expect[off + i] ^= in[off + i];
      }
      GfXorAccum(in.data() + off, out.data() + off, len);
      ASSERT_EQ(out, expect) << "len=" << len << " off=" << off;
    }
  }
}

// The dispatcher must honor URSA_FORCE_PORTABLE_KERNELS: with it set, SIMD
// tiers report unavailable and the best tier is portable (CI runs this test
// binary both ways; either branch is exercised depending on the leg).
TEST(GfKernelTest, DispatcherHonorsForcePortable) {
  const char* forced = std::getenv("URSA_FORCE_PORTABLE_KERNELS");
  bool force = forced != nullptr && forced[0] != '\0' && std::string(forced) != "0";
  EXPECT_TRUE(GfKernelTierAvailable(GfKernelTier::kScalar));
  EXPECT_TRUE(GfKernelTierAvailable(GfKernelTier::kPortable));
  if (force) {
    EXPECT_FALSE(GfKernelTierAvailable(GfKernelTier::kSsse3));
    EXPECT_FALSE(GfKernelTierAvailable(GfKernelTier::kAvx2));
    EXPECT_EQ(GfKernelBestTier(), GfKernelTier::kPortable);
  } else {
    EXPECT_TRUE(GfKernelTierAvailable(GfKernelBestTier()));
  }
}

class ReedSolomonTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ReedSolomonTest, AllErasurePatternsRecover) {
  auto [k, m] = GetParam();
  ReedSolomon rs(k, m);
  constexpr size_t kLen = 512;
  Rng rng(k * 100 + m);

  // Random stripe.
  std::vector<std::vector<uint8_t>> shards(k + m, std::vector<uint8_t>(kLen));
  std::vector<const uint8_t*> data_ptrs(k);
  std::vector<uint8_t*> parity_ptrs(m);
  for (int d = 0; d < k; ++d) {
    for (auto& b : shards[d]) {
      b = static_cast<uint8_t>(rng.Next());
    }
    data_ptrs[d] = shards[d].data();
  }
  for (int p = 0; p < m; ++p) {
    parity_ptrs[p] = shards[k + p].data();
  }
  rs.Encode(data_ptrs, parity_ptrs, kLen);

  // Erase every subset of size <= m (exhaustive over single+double, which
  // covers m <= 2 fully).
  int n = k + m;
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      int erased = i == j ? 1 : 2;
      if (erased > m) {
        continue;
      }
      std::vector<const uint8_t*> view(n);
      std::vector<std::vector<uint8_t>> rebuilt(n);
      std::vector<uint8_t*> out(n, nullptr);
      for (int s = 0; s < n; ++s) {
        if (s == i || s == j) {
          rebuilt[s].resize(kLen);
          out[s] = rebuilt[s].data();
        } else {
          view[s] = shards[s].data();
        }
      }
      ASSERT_TRUE(rs.Reconstruct(view, out, kLen).ok()) << i << "," << j;
      EXPECT_EQ(rebuilt[i], shards[i]) << "shard " << i;
      if (j != i) {
        EXPECT_EQ(rebuilt[j], shards[j]) << "shard " << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, ReedSolomonTest,
                         ::testing::Values(std::pair{2, 1}, std::pair{4, 2}, std::pair{6, 2},
                                           std::pair{3, 3}),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param.first) + "m" +
                                  std::to_string(info.param.second);
                         });

// Every kernel tier must produce byte-identical parities and byte-identical
// reconstructions — the SIMD paths change nothing but speed.
TEST(ReedSolomonTest, AllTiersEncodeAndReconstructBitIdentical) {
  Rng rng(99);
  for (auto [k, m] : {std::pair{2, 1}, std::pair{4, 2}, std::pair{6, 3}, std::pair{10, 4}}) {
    ReedSolomon rs(k, m);
    constexpr size_t kLen = 769;  // odd: exercises vector tails everywhere
    std::vector<std::vector<uint8_t>> data(k, std::vector<uint8_t>(kLen));
    std::vector<const uint8_t*> data_ptrs(k);
    for (int d = 0; d < k; ++d) {
      for (auto& b : data[d]) {
        b = static_cast<uint8_t>(rng.Next());
      }
      data_ptrs[d] = data[d].data();
    }

    std::vector<std::vector<uint8_t>> ref_parity(m, std::vector<uint8_t>(kLen));
    std::vector<uint8_t*> ref_ptrs(m);
    for (int p = 0; p < m; ++p) {
      ref_ptrs[p] = ref_parity[p].data();
    }
    rs.EncodeWith(GfKernelTier::kScalar, data_ptrs, ref_ptrs, kLen);

    for (GfKernelTier tier : AvailableTiers()) {
      std::vector<std::vector<uint8_t>> parity(m, std::vector<uint8_t>(kLen, 0xEE));
      std::vector<uint8_t*> ptrs(m);
      for (int p = 0; p < m; ++p) {
        ptrs[p] = parity[p].data();
      }
      rs.EncodeWith(tier, data_ptrs, ptrs, kLen);
      for (int p = 0; p < m; ++p) {
        ASSERT_EQ(parity[p], ref_parity[p])
            << "k=" << k << " m=" << m << " tier=" << GfKernelTierName(tier) << " parity " << p;
      }
    }

    // Reconstruct the worst case (first m shards lost, data and parity mixed
    // in the wanted set) on every tier and compare bytes.
    std::vector<bool> present(k + m, true);
    std::vector<int> wanted;
    for (int s = 0; s < m; ++s) {
      int victim = (s % 2 == 0) ? s : k + s / 2;  // alternate data/parity losses
      if (present[victim]) {
        present[victim] = false;
        wanted.push_back(victim);
      }
    }
    ReedSolomon::DecodePlan plan;
    ASSERT_TRUE(rs.PlanReconstruct(present, wanted, &plan).ok());
    std::vector<const uint8_t*> shards(k + m, nullptr);
    for (int d = 0; d < k; ++d) {
      shards[d] = data[d].data();
    }
    for (int p = 0; p < m; ++p) {
      shards[k + p] = ref_parity[p].data();
    }
    // `out` is indexed by shard id; only the lost shards get buffers.
    std::vector<std::vector<uint8_t>> ref_out(k + m);
    std::vector<uint8_t*> ref_out_ptrs(k + m, nullptr);
    for (int w : wanted) {
      ref_out[w].resize(kLen);
      ref_out_ptrs[w] = ref_out[w].data();
    }
    rs.ReconstructWith(plan, shards, ref_out_ptrs, kLen, GfKernelTier::kScalar);
    for (int w : wanted) {
      const auto& truth = w < k ? data[w] : ref_parity[w - k];
      ASSERT_EQ(ref_out[w], truth) << "scalar reconstruct of shard " << w;
    }
    for (GfKernelTier tier : AvailableTiers()) {
      std::vector<std::vector<uint8_t>> out(k + m);
      std::vector<uint8_t*> out_ptrs(k + m, nullptr);
      for (int w : wanted) {
        out[w].assign(kLen, 0x11);
        out_ptrs[w] = out[w].data();
      }
      rs.ReconstructWith(plan, shards, out_ptrs, kLen, tier);
      for (int w : wanted) {
        ASSERT_EQ(out[w], ref_out[w]) << "tier=" << GfKernelTierName(tier) << " shard " << w;
      }
    }
  }
}

TEST(ReedSolomonTest, TooManyErasuresFails) {
  ReedSolomon rs(4, 2);
  std::vector<const uint8_t*> view(6, nullptr);
  std::vector<uint8_t> buf(64);
  view[0] = buf.data();
  view[1] = buf.data();
  view[2] = buf.data();  // only 3 of 4+2 survive
  std::vector<uint8_t*> out(6, nullptr);
  EXPECT_EQ(rs.Reconstruct(view, out, 64).code(), StatusCode::kUnavailable);
}

TEST(ReedSolomonTest, IncrementalUpdateMatchesReencode) {
  ReedSolomon rs(4, 2);
  constexpr size_t kLen = 256;
  Rng rng(9);
  std::vector<std::vector<uint8_t>> data(4, std::vector<uint8_t>(kLen));
  for (auto& shard : data) {
    for (auto& b : shard) {
      b = static_cast<uint8_t>(rng.Next());
    }
  }
  std::vector<std::vector<uint8_t>> parity(2, std::vector<uint8_t>(kLen));
  std::vector<const uint8_t*> dp = {data[0].data(), data[1].data(), data[2].data(),
                                    data[3].data()};
  std::vector<uint8_t*> pp = {parity[0].data(), parity[1].data()};
  rs.Encode(dp, pp, kLen);

  // Mutate data shard 2 and apply the delta incrementally.
  std::vector<uint8_t> updated = data[2];
  for (auto& b : updated) {
    b ^= static_cast<uint8_t>(rng.Next());
  }
  std::vector<uint8_t> delta(kLen);
  for (size_t i = 0; i < kLen; ++i) {
    delta[i] = static_cast<uint8_t>(updated[i] ^ data[2][i]);
  }
  for (int p = 0; p < 2; ++p) {
    rs.UpdateParity(p, 2, delta.data(), parity[p].data(), kLen);
  }

  // Full re-encode with the new data must agree.
  data[2] = updated;
  std::vector<std::vector<uint8_t>> expect(2, std::vector<uint8_t>(kLen));
  std::vector<uint8_t*> ep = {expect[0].data(), expect[1].data()};
  dp[2] = data[2].data();
  rs.Encode(dp, ep, kLen);
  EXPECT_EQ(parity[0], expect[0]);
  EXPECT_EQ(parity[1], expect[1]);
}

// ---------------------------------------------------------------------------
// EcStripeStore end-to-end, parameterized over the partial-write mode.
// ---------------------------------------------------------------------------
class EcStoreTest : public ::testing::TestWithParam<PartialWriteMode> {
 protected:
  static constexpr uint64_t kUnit = 16 * kKiB;
  static constexpr uint64_t kRows = 8;

  void Build(int k = 4, int m = 2) {
    config_.k = k;
    config_.m = m;
    config_.stripe_unit = kUnit;
    config_.mode = GetParam();
    config_.parity_log_bytes = 4 * kMiB;
    for (int i = 0; i < k + m; ++i) {
      devices_.push_back(std::make_unique<storage::MemDevice>(&sim_, 16 * kMiB, usec(20)));
    }
    std::vector<storage::BlockDevice*> ptrs;
    for (auto& d : devices_) {
      ptrs.push_back(d.get());
    }
    store_ = std::make_unique<EcStripeStore>(&sim_, ptrs, kRows, config_);
  }

  Status WriteSync(uint64_t offset, const std::vector<uint8_t>& data) {
    Status out = Internal("pending");
    store_->Write(offset, data.size(), test::Payload(data), [&](const Status& s) { out = s; });
    sim_.RunUntil(sim_.Now() + sec(1));
    return out;
  }

  std::vector<uint8_t> ReadSync(uint64_t offset, uint64_t length) {
    std::vector<uint8_t> out(length, 0xEE);
    Status status = Internal("pending");
    store_->Read(offset, length, out.data(), [&](const Status& s) { status = s; });
    sim_.RunUntil(sim_.Now() + sec(1));
    EXPECT_TRUE(status.ok()) << status.ToString();
    return out;
  }

  sim::Simulator sim_;
  EcStripeConfig config_;
  std::vector<std::unique_ptr<storage::MemDevice>> devices_;
  std::unique_ptr<EcStripeStore> store_;
};

TEST_P(EcStoreTest, FullStripeRoundTrip) {
  Build();
  auto data = test::Pattern(4 * kUnit, 1);  // exactly one row
  ASSERT_TRUE(WriteSync(0, data).ok());
  EXPECT_EQ(store_->stats().full_stripe_writes, 1u);
  EXPECT_EQ(store_->stats().partial_writes, 0u);
  EXPECT_EQ(ReadSync(0, data.size()), data);
}

TEST_P(EcStoreTest, PartialWriteRoundTrip) {
  Build();
  auto base = test::Pattern(4 * kUnit, 2);
  ASSERT_TRUE(WriteSync(0, base).ok());
  auto patch = test::Pattern(4096, 3);
  ASSERT_TRUE(WriteSync(8192, patch).ok());
  EXPECT_GE(store_->stats().partial_writes, 1u);
  std::vector<uint8_t> expect = base;
  std::copy(patch.begin(), patch.end(), expect.begin() + 8192);
  EXPECT_EQ(ReadSync(0, expect.size()), expect);
}

TEST_P(EcStoreTest, DegradedReadAfterDataShardLoss) {
  Build();
  auto data = test::Pattern(8 * kUnit, 4);  // two rows
  ASSERT_TRUE(WriteSync(0, data).ok());
  auto patch = test::Pattern(4096, 5);
  ASSERT_TRUE(WriteSync(12288, patch).ok());  // partial into shard 0
  std::vector<uint8_t> expect = data;
  std::copy(patch.begin(), patch.end(), expect.begin() + 12288);

  store_->FailShard(0);
  // Reads covering the failed shard reconstruct from survivors — including
  // any not-yet-applied parity-log deltas.
  EXPECT_EQ(ReadSync(0, expect.size()), expect);
  EXPECT_GT(store_->stats().degraded_reads, 0u);
}

TEST_P(EcStoreTest, DoubleFailureStillReadable) {
  Build(4, 2);
  auto data = test::Pattern(4 * kUnit, 6);
  ASSERT_TRUE(WriteSync(0, data).ok());
  store_->FailShard(1);
  store_->FailShard(5);  // one data + one parity
  EXPECT_EQ(ReadSync(0, data.size()), data);
}

TEST_P(EcStoreTest, TripleFailureUnrecoverable) {
  Build(4, 2);
  auto data = test::Pattern(4 * kUnit, 7);
  ASSERT_TRUE(WriteSync(0, data).ok());
  store_->FailShard(0);
  store_->FailShard(1);
  store_->FailShard(2);
  Status status = Internal("pending");
  std::vector<uint8_t> out(4096);
  store_->Read(0, 4096, out.data(), [&](const Status& s) { status = s; });
  sim_.RunUntil(sim_.Now() + sec(1));
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_P(EcStoreTest, RepairRestoresRedundancy) {
  Build();
  auto data = test::Pattern(8 * kUnit, 8);
  ASSERT_TRUE(WriteSync(0, data).ok());
  store_->FailShard(2);

  auto replacement = std::make_unique<storage::MemDevice>(&sim_, 16 * kMiB, usec(20));
  Status status = Internal("pending");
  store_->RepairShard(2, replacement.get(), [&](const Status& s) { status = s; });
  sim_.RunUntil(sim_.Now() + sec(5));
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(store_->alive_shards(), 6);

  // Now a SECOND failure elsewhere is tolerable again.
  store_->FailShard(0);
  store_->FailShard(4);
  EXPECT_EQ(ReadSync(0, data.size()), data);
  devices_.push_back(std::move(replacement));  // keep alive
}

TEST_P(EcStoreTest, RandomizedDifferential) {
  Build();
  Rng rng(42);
  uint64_t span = store_->logical_size();
  std::vector<uint8_t> shadow(span, 0);
  for (int step = 0; step < 40; ++step) {
    uint64_t len = rng.UniformRange(1, 64) * 512;
    uint64_t offset = rng.Uniform((span - len) / 512) * 512;
    auto data = test::Pattern(len, 500 + step);
    ASSERT_TRUE(WriteSync(offset, data).ok());
    std::copy(data.begin(), data.end(), shadow.begin() + offset);
  }
  EXPECT_EQ(ReadSync(0, span), shadow);
  // Survive a failure with the accumulated state.
  store_->FailShard(3);
  EXPECT_EQ(ReadSync(0, span), shadow);
}

TEST_P(EcStoreTest, WriteAmplificationAccounting) {
  Build();
  auto base = test::Pattern(4 * kUnit, 9);
  ASSERT_TRUE(WriteSync(0, base).ok());
  EcStats before = store_->stats();
  auto patch = test::Pattern(4096, 10);
  ASSERT_TRUE(WriteSync(0, patch).ok());
  EcStats after = store_->stats();
  uint64_t writes = after.shard_writes - before.shard_writes;
  uint64_t reads = after.shard_reads - before.shard_reads;
  if (GetParam() == PartialWriteMode::kReadModifyWrite) {
    // 1 data write + m parity writes; 1 data read + m parity reads.
    EXPECT_EQ(writes, 1u + 2u);
    EXPECT_EQ(reads, 1u + 2u);
  } else {
    // 1 data write + m log appends; only the old-data read (PariX pays it
    // here too — this offset's first write since flush).
    EXPECT_EQ(writes, 1u + 2u);
    EXPECT_EQ(reads, 1u);
    EXPECT_EQ(after.parity_log_appends - before.parity_log_appends, 2u);
  }
}

TEST_P(EcStoreTest, FlushCoalescesSameRangeDeltas) {
  if (GetParam() == PartialWriteMode::kReadModifyWrite) {
    GTEST_SKIP() << "no parity log in RMW mode";
  }
  Build();
  auto base = test::Pattern(4 * kUnit, 11);
  ASSERT_TRUE(WriteSync(0, base).ok());

  // Four overwrites of the same 4 KiB range: one log entry per parity per
  // write, but the deltas XOR-compose, so Flush performs one parity RMW per
  // (parity, range) group and counts the merged-away entries.
  std::vector<uint8_t> expect = base;
  for (int i = 0; i < 4; ++i) {
    auto patch = test::Pattern(4096, 20 + i);
    ASSERT_TRUE(WriteSync(8192, patch).ok());
    std::copy(patch.begin(), patch.end(), expect.begin() + 8192);
  }
  EXPECT_EQ(store_->stats().parity_log_appends, 8u);

  Status flushed = Internal("pending");
  store_->Flush([&](const Status& s) { flushed = s; });
  sim_.RunUntil(sim_.Now() + sec(1));
  ASSERT_TRUE(flushed.ok()) << flushed.ToString();
  EXPECT_EQ(store_->stats().parity_log_coalesced, 6u);  // (4-1) groups x 2 parities

  // The composed parity must be byte-exact: a degraded read through the
  // flushed parities reconstructs the final contents.
  store_->FailShard(0);
  EXPECT_EQ(ReadSync(0, expect.size()), expect);
}

INSTANTIATE_TEST_SUITE_P(Modes, EcStoreTest,
                         ::testing::Values(PartialWriteMode::kReadModifyWrite,
                                           PartialWriteMode::kParityLogging,
                                           PartialWriteMode::kParixSpeculative),
                         [](const auto& info) {
                           switch (info.param) {
                             case PartialWriteMode::kReadModifyWrite:
                               return "rmw";
                             case PartialWriteMode::kParityLogging:
                               return "plog";
                             default:
                               return "parix";
                           }
                         });

TEST_P(EcStoreTest, ParixOverwritesSkipReads) {
  if (GetParam() != PartialWriteMode::kParixSpeculative) {
    GTEST_SKIP();
  }
  Build();
  auto v1 = test::Pattern(4096, 40);
  ASSERT_TRUE(WriteSync(0, v1).ok());  // first write: pays the read
  EcStats after_first = store_->stats();
  std::vector<uint8_t> last;
  for (int i = 0; i < 5; ++i) {
    last = test::Pattern(4096, 41 + i);
    ASSERT_TRUE(WriteSync(0, last).ok());  // overwrites: zero device reads
  }
  EcStats after = store_->stats();
  EXPECT_EQ(after.shard_reads, after_first.shard_reads);
  EXPECT_EQ(after.speculative_hits, 5u);
  EXPECT_EQ(ReadSync(0, 4096), last);
  // Chained speculative deltas compose correctly: a degraded read after all
  // this reconstructs the final value from parity.
  store_->FailShard(0);
  EXPECT_EQ(ReadSync(0, 4096), last);
  // And flushing then failing still works.
  store_->FailShard(5);
  EXPECT_EQ(ReadSync(0, 4096), last);
}

}  // namespace
}  // namespace ursa::ec
