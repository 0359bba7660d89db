// CRC32C tests: RFC 3720 known-answer vectors, edge cases (empty, odd
// lengths, unaligned starts), streaming/seed chaining, and randomized
// equivalence across every compiled implementation (table, slicing-by-8,
// hardware) so the runtime dispatch can never change results.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/rng.h"

namespace ursa {
namespace {

std::vector<Crc32cImpl> CompiledImpls() {
  std::vector<Crc32cImpl> impls;
  for (Crc32cImpl impl :
       {Crc32cImpl::kTable, Crc32cImpl::kSlice8, Crc32cImpl::kHardware}) {
    if (Crc32cImplAvailable(impl)) {
      impls.push_back(impl);
    }
  }
  return impls;
}

struct KnownAnswer {
  std::vector<uint8_t> data;
  uint32_t crc;
};

// RFC 3720 §B.4 test vectors.
std::vector<KnownAnswer> KnownAnswers() {
  std::vector<KnownAnswer> kats;
  const std::string digits = "123456789";
  kats.push_back({{digits.begin(), digits.end()}, 0xE3069283u});
  kats.push_back({std::vector<uint8_t>(32, 0x00), 0x8A9136AAu});
  kats.push_back({std::vector<uint8_t>(32, 0xFF), 0x62A8AB43u});
  std::vector<uint8_t> ascending(32);
  std::iota(ascending.begin(), ascending.end(), 0);
  kats.push_back({ascending, 0x46DD794Eu});
  std::vector<uint8_t> descending(ascending.rbegin(), ascending.rend());
  kats.push_back({descending, 0x113FDB5Cu});
  return kats;
}

TEST(Crc32cTest, TableIsAlwaysAvailable) {
  EXPECT_TRUE(Crc32cImplAvailable(Crc32cImpl::kTable));
  EXPECT_NE(Crc32cImplName(), nullptr);
}

TEST(Crc32cTest, KnownAnswerVectors) {
  for (const KnownAnswer& kat : KnownAnswers()) {
    EXPECT_EQ(Crc32c(kat.data.data(), kat.data.size()), kat.crc);
    for (Crc32cImpl impl : CompiledImpls()) {
      EXPECT_EQ(Crc32cWith(impl, kat.data.data(), kat.data.size()), kat.crc)
          << "impl=" << static_cast<int>(impl);
    }
  }
}

TEST(Crc32cTest, EmptyInputIsZero) {
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  for (Crc32cImpl impl : CompiledImpls()) {
    EXPECT_EQ(Crc32cWith(impl, nullptr, 0), 0u);
  }
}

TEST(Crc32cTest, OddLengthsAgreeAcrossImpls) {
  // Exercise every tail-length class (mod 8) of the 8-byte-stride kernels.
  std::vector<uint8_t> buf(41);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  for (size_t len = 1; len <= buf.size(); ++len) {
    uint32_t want = Crc32cWith(Crc32cImpl::kTable, buf.data(), len);
    for (Crc32cImpl impl : CompiledImpls()) {
      EXPECT_EQ(Crc32cWith(impl, buf.data(), len), want) << "len=" << len;
    }
  }
}

TEST(Crc32cTest, UnalignedStartsAgreeAcrossImpls) {
  // Hardware/slice kernels peel bytes to reach 8-byte alignment; every start
  // alignment must land on the same answer as the byte-at-a-time table.
  std::vector<uint8_t> raw(64 + 8);
  for (size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<uint8_t>(i ^ 0x5A);
  }
  for (size_t align = 0; align < 8; ++align) {
    const uint8_t* p = raw.data() + align;
    uint32_t want = Crc32cWith(Crc32cImpl::kTable, p, 64);
    for (Crc32cImpl impl : CompiledImpls()) {
      EXPECT_EQ(Crc32cWith(impl, p, 64), want) << "align=" << align;
    }
  }
}

TEST(Crc32cTest, SeedChainingMatchesOneShot) {
  std::vector<uint8_t> buf(300);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 13 + 7);
  }
  uint32_t whole = Crc32c(buf.data(), buf.size());
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{128}, buf.size()}) {
    uint32_t head = Crc32c(buf.data(), split);
    uint32_t chained = Crc32c(buf.data() + split, buf.size() - split, head);
    EXPECT_EQ(chained, whole) << "split=" << split;
  }
}

TEST(Crc32cTest, RandomBuffersAgreeAcrossImpls) {
  // The dispatch-equivalence property: 1000 random buffers with random
  // lengths, alignments, and split points must hash identically under every
  // compiled implementation, both one-shot and seed-chained.
  Rng rng(0xC5C32C);
  std::vector<Crc32cImpl> impls = CompiledImpls();
  for (int iter = 0; iter < 1000; ++iter) {
    size_t len = rng.Uniform(513);
    size_t align = rng.Uniform(8);
    std::vector<uint8_t> raw(len + align);
    for (auto& b : raw) {
      b = static_cast<uint8_t>(rng.Uniform(256));
    }
    const uint8_t* p = raw.data() + align;
    uint32_t want = Crc32cWith(Crc32cImpl::kTable, p, len);
    size_t split = len == 0 ? 0 : rng.Uniform(len + 1);
    for (Crc32cImpl impl : impls) {
      EXPECT_EQ(Crc32cWith(impl, p, len), want);
      uint32_t head = Crc32cWith(impl, p, split);
      EXPECT_EQ(Crc32cWith(impl, p + split, len - split, head), want);
    }
    // The default entry point (whatever the dispatcher picked) agrees too.
    EXPECT_EQ(Crc32c(p, len), want);
  }
}

// The hardware kernel splits long inputs into three interleaved streams of
// 8 KiB blocks, then of 256-byte blocks, then finishes serially. Every length
// up to three long blocks plus a tail, at every start alignment, must match
// the byte-at-a-time reference (built as a running prefix, so the sweep stays
// linear in reference work) and slicing-by-8.
TEST(Crc32cTest, ThreeWayKernelMatchesReferenceAtEveryLength) {
  if (!Crc32cImplAvailable(Crc32cImpl::kHardware)) {
    GTEST_SKIP() << "no SSE4.2";
  }
  constexpr size_t kMaxLen = 3 * 8192 + 64;
  Rng rng(0x3AA7);
  std::vector<uint8_t> raw(kMaxLen + 8);
  for (auto& b : raw) {
    b = static_cast<uint8_t>(rng.Uniform(256));
  }
  std::vector<uint32_t> prefix(kMaxLen + 1);
  for (size_t align = 0; align < 8; ++align) {
    const uint8_t* p = raw.data() + align;
    prefix[0] = 0;
    for (size_t len = 1; len <= kMaxLen; ++len) {
      prefix[len] = Crc32cWith(Crc32cImpl::kTable, p + len - 1, 1, prefix[len - 1]);
    }
    for (size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(Crc32cWith(Crc32cImpl::kHardware, p, len), prefix[len])
          << "len=" << len << " align=" << align;
    }
    // Slicing-by-8 one-shot at a stride (it is the slow side of this sweep).
    for (size_t len = align; len <= kMaxLen; len += 61) {
      ASSERT_EQ(Crc32cWith(Crc32cImpl::kSlice8, p, len), prefix[len])
          << "len=" << len << " align=" << align;
    }
  }
}

TEST(Crc32cTest, ChainingAcrossThreeWayBlockBoundaries) {
  constexpr size_t kLen = 3 * 8192 + 3 * 256 + 77;
  Rng rng(0xB10C);
  std::vector<uint8_t> buf(kLen);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.Uniform(256));
  }
  const uint32_t whole = Crc32cWith(Crc32cImpl::kTable, buf.data(), buf.size());
  for (size_t edge : {size_t{256}, size_t{768}, size_t{8192}, size_t{3 * 8192},
                      size_t{3 * 8192 + 768}}) {
    for (size_t split = edge - 9; split <= edge + 9; ++split) {
      uint32_t head = Crc32c(buf.data(), split);
      EXPECT_EQ(Crc32c(buf.data() + split, kLen - split, head), whole) << "split=" << split;
    }
  }
}

// With URSA_FORCE_PORTABLE_KERNELS set, the dispatcher must skip the SSE4.2
// tier and report it unavailable; without it, whatever was picked must be
// available. CI runs this binary both ways to cover both branches.
// Crc32cCombine(crc(a), crc(b), |b|) == crc(a || b), with every CRC taken
// by each available implementation, at the edge lengths and random splits.
TEST(Crc32cTest, CombineMatchesStreamingCrc) {
  Rng rng(11);
  std::vector<uint8_t> data(1 << 20);
  for (uint8_t& byte : data) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  for (Crc32cImpl impl : CompiledImpls()) {
    for (size_t len : {size_t{0}, size_t{1}, size_t{511}, size_t{512}, size_t{4096},
                       size_t{1} << 20}) {
      std::vector<size_t> splits = {0, len / 2, len};
      for (int i = 0; i < 4 && len > 0; ++i) {
        splits.push_back(static_cast<size_t>(rng.Uniform(len + 1)));
      }
      const uint32_t whole = Crc32cWith(impl, data.data(), len);
      for (size_t split : splits) {
        const uint32_t a = Crc32cWith(impl, data.data(), split);
        const uint32_t b = Crc32cWith(impl, data.data() + split, len - split);
        EXPECT_EQ(Crc32cCombine(a, b, len - split), whole)
            << "impl " << static_cast<int>(impl) << " len " << len << " split " << split;
      }
    }
  }
}

// A record CRC built from per-sector sums equals one pass over the bytes,
// for whole and partial trailing sectors, from any seed.
TEST(Crc32cTest, FromSectorsMatchesOnePass) {
  Rng rng(12);
  std::vector<uint8_t> data(3 * kCrc32cSector + 100);
  for (uint8_t& byte : data) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  for (size_t len : {size_t{0}, size_t{1}, kCrc32cSector, 2 * kCrc32cSector + 7, data.size()}) {
    std::vector<uint32_t> sums(Crc32cSectorCount(len));
    Crc32cSectors(data.data(), len, sums.data());
    for (uint32_t seed : {0u, 0xDEADBEEFu}) {
      EXPECT_EQ(Crc32cFromSectors(seed, sums.data(), len), Crc32c(data.data(), len, seed))
          << "len " << len;
    }
  }
}

TEST(Crc32cTest, DispatcherHonorsForcePortable) {
  const char* forced = std::getenv("URSA_FORCE_PORTABLE_KERNELS");
  bool force = forced != nullptr && forced[0] != '\0' && std::string(forced) != "0";
  if (force) {
    EXPECT_FALSE(Crc32cImplAvailable(Crc32cImpl::kHardware));
    EXPECT_STRNE(Crc32cImplName(), "hardware");
  } else {
    EXPECT_TRUE(Crc32cImplAvailable(Crc32cImpl::kTable));
    EXPECT_TRUE(Crc32cImplAvailable(Crc32cImpl::kSlice8));
  }
}

}  // namespace
}  // namespace ursa
