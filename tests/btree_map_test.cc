// Model-based tests for the level-0 B+-tree: every operation is mirrored
// into a std::map and the two are compared after each step, so any split,
// erase-cascade, or separator bug shows up as a divergence.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/common/buffer.h"
#include "src/index/btree_map.h"

namespace ursa::index {
namespace {

struct Val {
  uint64_t payload = 0;
  bool operator==(const Val& o) const { return payload == o.payload; }
};

using Tree = BtreeMap<Val>;
using Model = std::map<uint32_t, Val>;

void ExpectSameContents(const Tree& tree, const Model& model) {
  ASSERT_EQ(tree.size(), model.size());
  auto mit = model.begin();
  for (auto it = tree.begin(); it != tree.end(); ++it, ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(it->first, mit->first);
    EXPECT_EQ(it->second, mit->second);
  }
  EXPECT_EQ(mit, model.end());
}

TEST(BtreeMapTest, EmptyBasics) {
  Tree t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.begin(), t.end());
  EXPECT_EQ(t.lower_bound(0), t.end());
  EXPECT_EQ(t.lower_bound(~0u), t.end());
}

TEST(BtreeMapTest, PutOverwritesExistingKey) {
  Tree t;
  t.Put(7, Val{1});
  t.Put(7, Val{2});
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.begin()->second.payload, 2u);
}

TEST(BtreeMapTest, OrderedIterationAfterManySplits) {
  Tree t;
  Model m;
  // Interleaved ascending/descending inserts force splits on both flanks.
  for (uint32_t i = 0; i < 2000; ++i) {
    uint32_t k = (i % 2) ? 1000000 - i : i;
    t.Put(k, Val{i});
    m[k] = Val{i};
  }
  ExpectSameContents(t, m);
}

TEST(BtreeMapTest, LowerBoundMatchesModel) {
  Tree t;
  Model m;
  for (uint32_t i = 0; i < 3000; ++i) {
    uint32_t k = (i * 2654435761u) % 100000;  // Knuth hash scatter
    t.Put(k, Val{i});
    m[k] = Val{i};
  }
  for (uint32_t probe = 0; probe < 100050; probe += 7) {
    auto tit = t.lower_bound(probe);
    auto mit = m.lower_bound(probe);
    if (mit == m.end()) {
      EXPECT_EQ(tit, t.end()) << "probe " << probe;
    } else {
      ASSERT_NE(tit, t.end()) << "probe " << probe;
      EXPECT_EQ(tit->first, mit->first) << "probe " << probe;
    }
  }
}

TEST(BtreeMapTest, EraseReturnsSuccessorAndDrainsLeaves) {
  Tree t;
  Model m;
  for (uint32_t i = 0; i < 500; ++i) {
    t.Put(i * 3, Val{i});
    m[i * 3] = Val{i};
  }
  // Erase every other entry front-to-back via the returned successor.
  auto it = t.begin();
  auto mit = m.begin();
  while (it != t.end()) {
    it = t.erase(it);
    mit = m.erase(mit);
    if (it != t.end()) {
      ASSERT_NE(mit, m.end());
      EXPECT_EQ(it->first, mit->first);
      ++it;
      ++mit;
    }
  }
  ExpectSameContents(t, m);
  // Drain the rest to empty — exercises leaf removal and root collapse.
  while (!t.empty()) {
    t.erase(t.begin());
    m.erase(m.begin());
  }
  ExpectSameContents(t, m);
  EXPECT_EQ(t.begin(), t.end());
  // And the tree must still be usable after emptying.
  t.Put(42, Val{42});
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.begin()->first, 42u);
}

TEST(BtreeMapTest, PrevFromEndAndMidLeaf) {
  Tree t;
  for (uint32_t i = 1; i <= 100; ++i) {
    t.Put(i * 10, Val{i});
  }
  auto it = t.lower_bound(1001);  // past everything -> end()
  EXPECT_EQ(it, t.end());
  auto last = std::prev(it);
  EXPECT_EQ(last->first, 1000u);
  auto mid = t.lower_bound(555);  // lands on 560
  EXPECT_EQ(mid->first, 560u);
  EXPECT_EQ(std::prev(mid)->first, 550u);
}

TEST(BtreeMapTest, ClearResetsAndStaysUsable) {
  Tree t;
  for (uint32_t i = 0; i < 1000; ++i) {
    t.Put(i, Val{i});
  }
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.begin(), t.end());
  t.Put(5, Val{5});
  EXPECT_EQ(t.size(), 1u);
}

TEST(BtreeMapTest, RandomOpsAgainstModel) {
  // The heavy hitter: mixed Put/erase/lower_bound across several seeds, with
  // full-content comparison at checkpoints. Erase targets come from
  // lower_bound so leaf drains and cascades happen organically.
  for (uint64_t seed : {1ull, 42ull, 0xBEEFull}) {
    Tree t;
    Model m;
    uint64_t state = seed * 0x9E3779B97F4A7C15ull + 1;
    auto next = [&state]() {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      return state >> 33;
    };
    for (int step = 0; step < 30000; ++step) {
      uint32_t k = static_cast<uint32_t>(next() % 50000);
      uint64_t op = next() % 100;
      if (op < 60) {
        Val v{next()};
        t.Put(k, v);
        m[k] = v;
      } else if (op < 90) {
        auto tit = t.lower_bound(k);
        auto mit = m.lower_bound(k);
        if (mit == m.end()) {
          ASSERT_EQ(tit, t.end()) << "seed " << seed << " step " << step;
        } else {
          ASSERT_NE(tit, t.end()) << "seed " << seed << " step " << step;
          ASSERT_EQ(tit->first, mit->first) << "seed " << seed << " step " << step;
          t.erase(tit);
          m.erase(mit);
        }
      } else {
        auto tit = t.lower_bound(k);
        auto mit = m.lower_bound(k);
        if (mit == m.end()) {
          ASSERT_EQ(tit, t.end()) << "seed " << seed << " step " << step;
        } else {
          ASSERT_NE(tit, t.end()) << "seed " << seed << " step " << step;
          ASSERT_EQ(tit->first, mit->first) << "seed " << seed << " step " << step;
          ASSERT_EQ(tit->second, mit->second) << "seed " << seed << " step " << step;
        }
      }
      ASSERT_EQ(t.size(), m.size()) << "seed " << seed << " step " << step;
      if (step % 5000 == 4999) {
        ExpectSameContents(t, m);
      }
    }
    ExpectSameContents(t, m);
  }
}

TEST(BtreeMapTest, Uint64KeysAgainstModel) {
  // The PageStore instantiation: byte offsets far above 2^32, with the same
  // Put/erase/lower_bound/upper_bound mix checked against std::map.
  BtreeMap<Val, uint64_t> t;
  std::map<uint64_t, Val> m;
  uint64_t state = 0x5EED;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int step = 0; step < 30000; ++step) {
    uint64_t k = (uint64_t{1} << 40) + (next() % 40000) * 4096;
    uint64_t op = next() % 100;
    if (op < 55) {
      Val v{next()};
      t.Put(k, v);
      m[k] = v;
    } else if (op < 85) {
      auto tit = t.upper_bound(k);
      auto mit = m.upper_bound(k);
      if (mit == m.end()) {
        ASSERT_EQ(tit, t.end()) << "step " << step;
      } else {
        ASSERT_NE(tit, t.end()) << "step " << step;
        ASSERT_EQ(tit->first, mit->first) << "step " << step;
        t.erase(tit);
        m.erase(mit);
      }
    } else {
      auto tit = t.lower_bound(k);
      auto mit = m.lower_bound(k);
      if (mit == m.end()) {
        ASSERT_EQ(tit, t.end()) << "step " << step;
      } else {
        ASSERT_NE(tit, t.end()) << "step " << step;
        ASSERT_EQ(tit->first, mit->first) << "step " << step;
        ASSERT_EQ(tit->second, mit->second) << "step " << step;
      }
    }
    ASSERT_EQ(t.size(), m.size()) << "step " << step;
  }
  ASSERT_EQ(t.size(), m.size());
  auto mit = m.begin();
  for (auto it = t.begin(); it != t.end(); ++it, ++mit) {
    ASSERT_EQ(it->first, mit->first);
    ASSERT_EQ(it->second, mit->second);
  }
}

TEST(BtreeMapTest, ErasedValueReleasesItsBuffer) {
  // An erased extent must not pin its payload: the vacated slot is reset,
  // not left holding a moved-from copy. Enough keys to split leaves, so the
  // erase shifts values within a leaf.
  BtreeMap<BufferView, uint64_t> t;
  Buffer payload = Buffer::AllocateZeroed(64);
  const long base = payload.use_count();
  for (uint64_t k = 0; k < 100; ++k) {
    t.Put(k * 10, payload.View());
  }
  EXPECT_EQ(payload.use_count(), base + 100);
  t.erase(t.lower_bound(420));
  EXPECT_EQ(payload.use_count(), base + 99);
  for (auto it = t.begin(); it != t.end();) {
    it = t.erase(it);
  }
  EXPECT_EQ(payload.use_count(), base);
  // Overwrite and in-leaf shift paths hold exactly one reference too.
  for (uint64_t k = 0; k < 100; ++k) {
    t.Put(k * 10, BufferView());
  }
  t.Put(425, payload.View());
  t.Put(421, BufferView());  // shifts the held value right within its leaf
  EXPECT_EQ(payload.use_count(), base + 1);
  t.Put(425, BufferView());
  EXPECT_EQ(payload.use_count(), base);
}

}  // namespace
}  // namespace ursa::index
