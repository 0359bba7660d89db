// Buffer/BufferView semantics backing the zero-copy data plane: ownership
// keeps bytes alive across the original's destruction, slices share storage,
// null views propagate, and vector adoption avoids copying.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/crc32.h"

namespace ursa {
namespace {

TEST(BufferTest, AllocateAndFill) {
  Buffer b = Buffer::Allocate(16);
  ASSERT_EQ(b.size(), 16u);
  ASSERT_NE(b.data(), nullptr);
  std::memset(b.data(), 0xAB, b.size());
  BufferView v = b.View();
  EXPECT_EQ(v.size(), 16u);
  EXPECT_EQ(v.data()[0], 0xAB);
  EXPECT_EQ(v.data()[15], 0xAB);
}

TEST(BufferTest, AllocateZeroedIsZero) {
  Buffer b = Buffer::AllocateZeroed(64);
  for (size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b.data()[i], 0);
  }
}

TEST(BufferTest, CopyOfCopiesBytes) {
  uint8_t src[4] = {1, 2, 3, 4};
  Buffer b = Buffer::CopyOf(src, sizeof(src));
  src[0] = 99;  // the copy must not alias the source
  EXPECT_EQ(b.data()[0], 1);
  EXPECT_EQ(b.data()[3], 4);
}

TEST(BufferTest, ViewOutlivesBuffer) {
  BufferView v;
  {
    Buffer b = Buffer::CopyOf("payload", 7);
    v = b.View();
  }  // Buffer destroyed; the view's refcount keeps the bytes alive
  ASSERT_EQ(v.size(), 7u);
  EXPECT_EQ(std::memcmp(v.data(), "payload", 7), 0);
}

TEST(BufferTest, SliceSharesStorage) {
  Buffer b = Buffer::CopyOf("0123456789", 10);
  BufferView whole = b.View();
  BufferView mid = whole.Slice(3, 4);
  ASSERT_EQ(mid.size(), 4u);
  EXPECT_EQ(mid.data(), whole.data() + 3);
  EXPECT_EQ(std::memcmp(mid.data(), "3456", 4), 0);
}

TEST(BufferTest, SliceOutlivesEverythingElse) {
  BufferView mid;
  {
    Buffer b = Buffer::CopyOf("0123456789", 10);
    BufferView whole = b.View();
    mid = whole.Slice(5, 5);
  }
  EXPECT_EQ(std::memcmp(mid.data(), "56789", 5), 0);
}

TEST(BufferTest, NullViewBehavior) {
  BufferView null;
  EXPECT_FALSE(static_cast<bool>(null));
  EXPECT_EQ(null.data(), nullptr);
  EXPECT_EQ(null.size(), 0u);
  // Slicing a null view stays null: timing-only payloads carry their length
  // in protocol headers, not in the view.
  BufferView sliced = null.Slice(100, 50);
  EXPECT_FALSE(static_cast<bool>(sliced));
  EXPECT_EQ(sliced.data(), nullptr);
}

TEST(BufferTest, FromVectorAdoptsStorage) {
  std::vector<uint8_t> v(1024);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<uint8_t>(i);
  }
  const uint8_t* original = v.data();
  Buffer b = Buffer::FromVector(std::move(v));
  // Adoption, not copy: the buffer points at the vector's old storage.
  EXPECT_EQ(b.data(), original);
  EXPECT_EQ(b.size(), 1024u);
  EXPECT_EQ(b.data()[777], static_cast<uint8_t>(777));
}

TEST(BufferTest, EmptyBufferAndViews) {
  Buffer b = Buffer::Allocate(0);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_FALSE(static_cast<bool>(b));
  Buffer fv = Buffer::FromVector({});
  EXPECT_EQ(fv.size(), 0u);
  BufferView v = b.View();
  EXPECT_TRUE(v.empty());
}

std::vector<uint32_t> SectorsOf(const uint8_t* data, size_t len) {
  std::vector<uint32_t> sums(Crc32cSectorCount(len));
  Crc32cSectors(data, len, sums.data());
  return sums;
}

// The allocation memoizes its sector sums: the first view that asks hashes
// them, every later view of the same sectors reuses them.
TEST(BufferTest, SectorSumsAreMemoizedPerAllocation) {
  std::vector<uint8_t> bytes(4096 + 100);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  Buffer b = Buffer::CopyOf(bytes.data(), bytes.size());
  const std::vector<uint32_t> want = SectorsOf(bytes.data(), bytes.size());

  const uint64_t before = Crc32cBytesHashed();
  const uint32_t* tail = b.View(1024, bytes.size() - 1024).SectorSums();  // ends short
  ASSERT_NE(tail, nullptr);
  EXPECT_EQ(std::vector<uint32_t>(tail, tail + 7), std::vector<uint32_t>(want.begin() + 2,
                                                                          want.end()));
  EXPECT_EQ(Crc32cBytesHashed() - before, bytes.size() - 1024);
  const uint32_t* all = b.View().SectorSums();
  ASSERT_NE(all, nullptr);
  EXPECT_EQ(std::vector<uint32_t>(all, all + want.size()), want);
  EXPECT_EQ(Crc32cBytesHashed() - before, bytes.size());  // only sectors 0-1 were new
  EXPECT_EQ(BufferView(b).Slice(512, 512).SectorSums(), all + 1);
  EXPECT_EQ(Crc32cBytesHashed() - before, bytes.size());
}

TEST(BufferTest, SectorSumsNeedTheAllocationsSectors) {
  Buffer b = Buffer::AllocateZeroed(4096);
  EXPECT_EQ(b.View(100, 512).SectorSums(), nullptr);   // starts inside a sector
  EXPECT_EQ(b.View(0, 1000).SectorSums(), nullptr);    // ends inside one, short of the end
  EXPECT_NE(b.View(512, 1024).SectorSums(), nullptr);  // whole sectors
  EXPECT_EQ(BufferView().SectorSums(), nullptr);
}

TEST(BufferTest, AdoptedVectorMemoizesToo) {
  std::vector<uint8_t> v(1536, 0x5A);
  const std::vector<uint32_t> want = SectorsOf(v.data(), v.size());
  Buffer b = Buffer::FromVector(std::move(v));
  const uint32_t* sums = b.View().SectorSums();
  ASSERT_NE(sums, nullptr);
  EXPECT_EQ(std::vector<uint32_t>(sums, sums + want.size()), want);
}

}  // namespace
}  // namespace ursa
