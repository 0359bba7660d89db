// Integration tests for the hybrid backup write path (§3.2): journaled
// writes, bypass, journal-overlay reads, replay merging, expansion to
// secondary SSD and HDD journals, and byte-level durability through replay.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/journal/journal_manager.h"
#include "src/storage/mem_device.h"
#include "test_util.h"

namespace ursa::journal {
namespace {

class JournalManagerTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kChunkSize = 1 * kMiB;

  void Build(JournalManagerOptions options = {}, uint64_t ssd_region = 256 * kKiB,
             uint64_t exp_region = 128 * kKiB, uint64_t hdd_region = 512 * kKiB) {
    ssd_region_ = ssd_region;
    exp_region_ = exp_region;
    hdd_region_ = hdd_region;
    ssd_ = std::make_unique<storage::MemDevice>(&sim_, 8 * kMiB);
    hdd_ = std::make_unique<storage::MemDevice>(&sim_, 16 * kMiB);
    // HDD layout: [0, hdd_region) journal, rest chunk store.
    store_ = std::make_unique<storage::ChunkStore>(hdd_.get(), kChunkSize, hdd_region,
                                                   hdd_->capacity() - hdd_region);
    manager_ = std::make_unique<JournalManager>(&sim_, store_.get(), options);
    manager_->AddJournal(
        std::make_unique<JournalWriter>(&sim_, ssd_.get(), 0, ssd_region, "ssd"), false);
    manager_->AddJournal(
        std::make_unique<JournalWriter>(&sim_, ssd_.get(), ssd_region, exp_region, "exp"),
        false);
    manager_->AddJournal(std::make_unique<JournalWriter>(&sim_, hdd_.get(), 0, hdd_region, "hdd"),
                         true);
    ASSERT_TRUE(store_->Allocate(1).ok());
  }

  // Synchronous-ish helpers driving the simulator.
  Status Write(uint64_t offset, const std::vector<uint8_t>& data, uint64_t version = 1) {
    Status out = Internal("not completed");
    manager_->Write(1, offset, data.size(), version, test::Payload(data),
                    [&](const Status& s) { out = s; });
    sim_.RunUntil(sim_.Now() + msec(10));
    return out;
  }

  std::vector<uint8_t> Read(uint64_t offset, uint64_t length) {
    BufferView out;
    Status status = Internal("not completed");
    manager_->Read(1, offset, length, &out, [&](const Status& s) { status = s; });
    sim_.RunUntil(sim_.Now() + msec(10));
    EXPECT_TRUE(status.ok()) << status.ToString();
    return test::Bytes(out);
  }

  void DrainReplay() {
    manager_->StartReplay();
    for (int i = 0; i < 1000 && !manager_->ReplayDrained(); ++i) {
      sim_.RunUntil(sim_.Now() + msec(1));
    }
    EXPECT_TRUE(manager_->ReplayDrained());
  }

  sim::Simulator sim_;
  uint64_t ssd_region_ = 0;
  uint64_t exp_region_ = 0;
  uint64_t hdd_region_ = 0;
  std::unique_ptr<storage::MemDevice> ssd_;
  std::unique_ptr<storage::MemDevice> hdd_;
  std::unique_ptr<storage::ChunkStore> store_;
  std::unique_ptr<JournalManager> manager_;
};

TEST_F(JournalManagerTest, SmallWriteIsJournaled) {
  Build();
  auto data = test::Pattern(4096, 1);
  ASSERT_TRUE(Write(0, data).ok());
  EXPECT_EQ(manager_->stats().journaled_writes, 1u);
  EXPECT_EQ(manager_->stats().bypassed_writes, 0u);
  // The data is readable through the journal overlay before any replay.
  EXPECT_EQ(Read(0, 4096), data);
  // And the HDD chunk store does not have it yet.
  std::vector<uint8_t> raw = test::Bytes(hdd_->ReadSync(store_->SlotOffset(1), 4096));
  EXPECT_NE(raw, data);
}

TEST_F(JournalManagerTest, LargeWriteBypassesJournal) {
  Build();
  auto data = test::Pattern(128 * kKiB, 2);  // > Tj = 64 KB
  ASSERT_TRUE(Write(0, data).ok());
  EXPECT_EQ(manager_->stats().journaled_writes, 0u);
  EXPECT_EQ(manager_->stats().bypassed_writes, 1u);
  EXPECT_EQ(Read(0, data.size()), data);
  // Bypass goes straight to the chunk store on the HDD.
  std::vector<uint8_t> raw = test::Bytes(hdd_->ReadSync(store_->SlotOffset(1), data.size()));
  EXPECT_EQ(raw, data);
}

TEST_F(JournalManagerTest, BypassInvalidatesOverlappedJournalData) {
  Build();
  auto small = test::Pattern(4096, 3);
  ASSERT_TRUE(Write(8192, small, 1).ok());
  auto large = test::Pattern(128 * kKiB, 4);
  ASSERT_TRUE(Write(0, large, 2).ok());  // covers the journaled range
  EXPECT_EQ(Read(8192, 4096),
            std::vector<uint8_t>(large.begin() + 8192, large.begin() + 8192 + 4096));
  // The journal index holds nothing live for the chunk anymore.
  EXPECT_TRUE(manager_->IndexSnapshot(1).empty());
}

// A direct write drops only the mappings of records up to its version: a
// recovery write of older data leaves a newer journaled write in place.
TEST_F(JournalManagerTest, DirectWriteKeepsANewerRecord) {
  Build();
  auto older = test::Pattern(4096, 7);
  auto newer = test::Pattern(4096, 8);
  ASSERT_TRUE(Write(0, older, 1).ok());
  ASSERT_TRUE(Write(8192, newer, 3).ok());
  auto repaired = test::Pattern(16 * kKiB, 9);  // the data of version 2
  Status status = Internal("pending");
  manager_->DirectWrite(1, 0, repaired.size(), 2, test::Payload(repaired),
                        [&](const Status& s) { status = s; });
  sim_.RunUntil(sim_.Now() + msec(10));
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::vector<uint8_t> expect = repaired;
  std::copy(newer.begin(), newer.end(), expect.begin() + 8192);
  EXPECT_EQ(Read(0, expect.size()), expect);
  DrainReplay();
  EXPECT_EQ(Read(0, expect.size()), expect);
}

TEST_F(JournalManagerTest, OverlayReadMixesJournalAndStore) {
  Build();
  auto base = test::Pattern(64 * kKiB, 5);
  ASSERT_TRUE(Write(0, base, 1).ok());  // journaled (== Tj, not >)
  DrainReplay();                        // now on the HDD
  auto patch = test::Pattern(4096, 6);
  ASSERT_TRUE(Write(8192, patch, 2).ok());  // journaled overlay
  auto got = Read(0, 64 * kKiB);
  std::vector<uint8_t> expect = base;
  std::copy(patch.begin(), patch.end(), expect.begin() + 8192);
  EXPECT_EQ(got, expect);
}

TEST_F(JournalManagerTest, ReplayMovesDataToHddAndFreesJournal) {
  Build();
  auto data = test::Pattern(4096, 7);
  ASSERT_TRUE(Write(4096, data).ok());
  DrainReplay();
  EXPECT_EQ(manager_->stats().replayed_records, 1u);
  EXPECT_TRUE(manager_->IndexSnapshot(1).empty());
  std::vector<uint8_t> raw = test::Bytes(hdd_->ReadSync(store_->SlotOffset(1) + 4096, 4096));
  EXPECT_EQ(raw, data);
  // Reads still return the right bytes after replay.
  EXPECT_EQ(Read(4096, 4096), data);
}

TEST_F(JournalManagerTest, ReplayMergesOverwrites) {
  Build();
  // Ten overwrites of the same 4 KB range before replay starts: only the
  // last version must reach the HDD, the rest are merged away (§3.2).
  std::vector<uint8_t> last;
  for (uint64_t v = 1; v <= 10; ++v) {
    last = test::Pattern(4096, 100 + v);
    ASSERT_TRUE(Write(0, last, v).ok());
  }
  DrainReplay();
  EXPECT_EQ(manager_->stats().merged_records, 9u);
  EXPECT_EQ(manager_->stats().replayed_records, 1u);
  std::vector<uint8_t> raw = test::Bytes(hdd_->ReadSync(store_->SlotOffset(1), 4096));
  EXPECT_EQ(raw, last);
}

TEST_F(JournalManagerTest, PartialOverwriteReplaysLivePieces) {
  Build();
  auto a = test::Pattern(16 * kKiB, 20);
  ASSERT_TRUE(Write(0, a, 1).ok());
  auto b = test::Pattern(4096, 21);
  ASSERT_TRUE(Write(4096, b, 2).ok());  // overwrites the middle of a
  DrainReplay();
  std::vector<uint8_t> expect = a;
  std::copy(b.begin(), b.end(), expect.begin() + 4096);
  std::vector<uint8_t> raw = test::Bytes(hdd_->ReadSync(store_->SlotOffset(1), 16 * kKiB));
  EXPECT_EQ(raw, expect);
  EXPECT_EQ(Read(0, 16 * kKiB), expect);
}

TEST_F(JournalManagerTest, ReplayElevatorCoalescesAdjacentRecords) {
  Build();
  // Eight adjacent 4 KB records written out of order. The replay wave sorts
  // its merge intents by backup-device offset and coalesces contiguous runs,
  // so the whole wave lands on the HDD as a single gathered submit instead of
  // eight seeks.
  static constexpr int kRecords = 8;
  std::vector<std::vector<uint8_t>> payloads(kRecords);
  const int order[kRecords] = {5, 0, 7, 2, 6, 1, 4, 3};
  uint64_t version = 1;
  for (int slot : order) {
    payloads[slot] = test::Pattern(4096, 30 + slot);
    ASSERT_TRUE(Write(static_cast<uint64_t>(slot) * 4096, payloads[slot], version++).ok());
  }
  DrainReplay();
  EXPECT_EQ(manager_->stats().replayed_records, static_cast<uint64_t>(kRecords));
  EXPECT_EQ(manager_->stats().replay_submits, 1u);
  // The coalesced write is byte-correct on the backup device.
  std::vector<uint8_t> raw = test::Bytes(hdd_->ReadSync(store_->SlotOffset(1), kRecords * 4096));
  for (int i = 0; i < kRecords; ++i) {
    std::vector<uint8_t> got(raw.begin() + i * 4096, raw.begin() + (i + 1) * 4096);
    EXPECT_EQ(got, payloads[i]) << "record " << i;
  }
}

TEST_F(JournalManagerTest, ReplayScatteredRecordsSubmitSeparately) {
  Build();
  // Records with gaps between them cannot coalesce: one submit per record.
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(Write(i * 64 * kKiB, test::Pattern(4096, 50 + i), i + 1).ok());
  }
  DrainReplay();
  EXPECT_EQ(manager_->stats().replayed_records, 4u);
  EXPECT_EQ(manager_->stats().replay_submits, 4u);
}

TEST_F(JournalManagerTest, ExpansionToSecondSsdJournal) {
  // Tiny primary journal so it fills quickly; expansion region larger.
  JournalManagerOptions options;
  Build(options, /*ssd_region=*/32 * kKiB, /*exp_region=*/256 * kKiB);
  size_t writes = 0;
  // Without replay running, the primary ring fills and the manager expands.
  while (manager_->stats().expansions == 0 && writes < 200) {
    auto data = test::Pattern(4096, writes);
    ASSERT_TRUE(Write(writes * 4096, data, writes + 1).ok());
    ++writes;
  }
  EXPECT_EQ(manager_->stats().expansions, 1u);
  EXPECT_EQ(manager_->active_journal(), 1u);
  // All data still readable.
  for (size_t i = 0; i < writes; ++i) {
    EXPECT_EQ(Read(i * 4096, 4096), test::Pattern(4096, i)) << i;
  }
}

TEST_F(JournalManagerTest, ExpansionToHddJournalAndFallback) {
  Build({}, /*ssd_region=*/16 * kKiB, /*exp_region=*/16 * kKiB, /*hdd_region=*/32 * kKiB);
  // Fill all three journals.
  size_t writes = 0;
  while (manager_->stats().direct_fallback_writes == 0 && writes < 200) {
    auto data = test::Pattern(4096, 1000 + writes);
    ASSERT_TRUE(Write(writes * 4096, data, writes + 1).ok());
    ++writes;
  }
  EXPECT_EQ(manager_->stats().expansions, 2u);  // ssd -> exp -> hdd
  EXPECT_GE(manager_->stats().direct_fallback_writes, 1u);
  for (size_t i = 0; i < writes; ++i) {
    EXPECT_EQ(Read(i * 4096, 4096), test::Pattern(4096, 1000 + i)) << i;
  }
}

TEST_F(JournalManagerTest, ReplayDrainsBacklogAndRingRecycles) {
  Build({}, /*ssd_region=*/64 * kKiB);
  manager_->StartReplay();
  // Stream far more data than the ring holds; replay must keep up.
  for (uint64_t v = 1; v <= 300; ++v) {
    auto data = test::Pattern(4096, 2000 + v);
    uint64_t offset = (v % 64) * 4096;
    ASSERT_TRUE(Write(offset, data, v).ok()) << v;
  }
  for (int i = 0; i < 1000 && !manager_->ReplayDrained(); ++i) {
    sim_.RunUntil(sim_.Now() + msec(1));
  }
  EXPECT_TRUE(manager_->ReplayDrained());
  EXPECT_EQ(manager_->stats().journaled_writes, 300u);
  // Spot-check final contents: the newest version of each slot wins.
  for (uint64_t slot = 1; slot <= 64; ++slot) {
    uint64_t newest = slot + ((300 - slot) / 64) * 64;  // last v with v%64==slot%64
    if (newest > 300) {
      newest -= 64;
    }
    EXPECT_EQ(Read((slot % 64) * 4096, 4096), test::Pattern(4096, 2000 + newest))
        << "slot " << slot;
  }
}

TEST_F(JournalManagerTest, WriteAlignmentEnforced) {
  Build();
  EXPECT_DEATH(
      {
        manager_->Write(1, 100, 512, 1, {}, [](const Status&) {});
      },
      "");
}


// ---------------------------------------------------------------------------
// Crash recovery: the in-memory index and replay queue are rebuilt by
// scanning the journal rings (CRC-validated), including durable invalidation
// markers left by journal-bypass writes.
// ---------------------------------------------------------------------------
class JournalCrashTest : public JournalManagerTest {
 protected:
  // "Crashes" the manager: throws away all volatile state by constructing a
  // fresh JournalManager over the SAME devices and journal regions (Build's),
  // then
  // recovers it from the rings. `before_recover` runs on the fresh manager
  // before the scan (e.g. to wire a corruption handler, which in production
  // the cluster installs at server construction — before recovery).
  void CrashAndRecover(std::function<void(JournalManager&)> before_recover = nullptr,
                       const JournalManagerOptions& options = {}) {
    manager_ = std::make_unique<JournalManager>(&sim_, store_.get(), options);
    manager_->AddJournal(
        std::make_unique<JournalWriter>(&sim_, ssd_.get(), 0, ssd_region_, "ssd"), false);
    manager_->AddJournal(
        std::make_unique<JournalWriter>(&sim_, ssd_.get(), ssd_region_, exp_region_, "exp"),
        false);
    manager_->AddJournal(
        std::make_unique<JournalWriter>(&sim_, hdd_.get(), 0, hdd_region_, "hdd"), true);
    if (before_recover) {
      before_recover(*manager_);
    }
    Status status = Internal("pending");
    manager_->RecoverFromJournals([&](const Status& s) { status = s; });
    sim_.RunUntil(sim_.Now() + msec(50));
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
};

TEST_F(JournalCrashTest, UnreplayedWritesSurviveCrash) {
  Build();
  auto a = test::Pattern(4096, 61);
  auto b = test::Pattern(8192, 62);
  ASSERT_TRUE(Write(0, a, 1).ok());
  ASSERT_TRUE(Write(65536, b, 2).ok());
  // Crash BEFORE any replay: the data exists only in the journal ring.
  CrashAndRecover();
  EXPECT_EQ(Read(0, 4096), a);
  EXPECT_EQ(Read(65536, 8192), b);
  // And replay still drains the recovered queue into the HDD.
  DrainReplay();
  std::vector<uint8_t> raw = test::Bytes(hdd_->ReadSync(store_->SlotOffset(1) + 65536, 8192));
  EXPECT_EQ(raw, b);
}

TEST_F(JournalCrashTest, NewestVersionWinsAfterRecovery) {
  Build();
  std::vector<uint8_t> last;
  for (uint64_t v = 1; v <= 6; ++v) {
    last = test::Pattern(4096, 70 + v);
    ASSERT_TRUE(Write(0, last, v).ok());
  }
  CrashAndRecover();
  EXPECT_EQ(Read(0, 4096), last);
}

TEST_F(JournalCrashTest, BypassInvalidationSurvivesCrash) {
  Build();
  auto small = test::Pattern(4096, 80);
  ASSERT_TRUE(Write(8192, small, 1).ok());
  // A large bypass write supersedes the journaled range; its durable
  // invalidation marker must prevent the old append from resurrecting.
  auto large = test::Pattern(128 * kKiB, 81);
  ASSERT_TRUE(Write(0, large, 2).ok());
  CrashAndRecover();
  EXPECT_EQ(Read(8192, 4096),
            std::vector<uint8_t>(large.begin() + 8192, large.begin() + 8192 + 4096));
  // The recovered index maps nothing for the superseded range.
  for (const auto& seg : manager_->IndexSnapshot(1)) {
    EXPECT_FALSE(seg.offset <= 8192 / 512 && 8192 / 512 < seg.offset + seg.length)
        << "stale mapping resurrected at sector " << seg.offset;
  }
}

TEST_F(JournalCrashTest, PartiallyReplayedJournalRecoversConsistently) {
  Build();
  std::vector<std::vector<uint8_t>> data;
  for (uint64_t v = 1; v <= 8; ++v) {
    data.push_back(test::Pattern(4096, 90 + v));
    ASSERT_TRUE(Write((v - 1) * 8192, data.back(), v).ok());
  }
  // Let replay move SOME records to the HDD, then crash.
  manager_->StartReplay();
  sim_.RunUntil(sim_.Now() + msec(2));
  CrashAndRecover();
  // Every write is still readable: replayed ones from the HDD, the rest
  // through the journal mappings the scan found again.
  for (uint64_t v = 1; v <= 8; ++v) {
    EXPECT_EQ(Read((v - 1) * 8192, 4096), data[v - 1]) << v;
  }
  DrainReplay();
  for (uint64_t v = 1; v <= 8; ++v) {
    EXPECT_EQ(Read((v - 1) * 8192, 4096), data[v - 1]) << v;
  }
}

// Regression: reclaiming ring space left a replayed record's bytes on the
// device, so a rebuild scan found it again and replayed it. Here record A
// (768 KiB, version 56) ends up in the pad zone of the ring's second lap,
// while B, which replaced it, is overwritten by the last filler: the scan
// then found A and not B, served A, and replayed A over B on the HDD.
TEST_F(JournalCrashTest, FreedRecordIsNotResurrectedByRebuild) {
  Build();
  uint64_t version = 0;
  auto write = [&](uint64_t offset, const std::vector<uint8_t>& data) {
    ASSERT_TRUE(Write(offset, data, ++version).ok());
    DrainReplay();
  };
  // 55 records of 4 KiB (4608 bytes each with the header sector) fill the
  // 256 KiB ring up to 253440, where A lands.
  for (uint64_t i = 0; i < 55; ++i) {
    write(i * 4096, test::Pattern(4096, 200 + i));
  }
  const uint64_t kAt = 768 * kKiB;
  auto a = test::Pattern(4096, 300);
  auto b = test::Pattern(4096, 301);
  write(kAt, a);
  write(kAt, b);  // does not fit before the wrap: pads, lands at 0
  // Seven 32 KiB records end lap 2 at 237568, short of A at 253440; the
  // eighth pads past A and overwrites B at 0.
  for (uint64_t i = 0; i < 8; ++i) {
    write(256 * kKiB + i * 32 * kKiB, test::Pattern(32 * kKiB, 400 + i));
  }
  CrashAndRecover();
  EXPECT_EQ(manager_->PendingRecords(), 0u);
  EXPECT_EQ(Read(kAt, 4096), b);
  DrainReplay();
  std::vector<uint8_t> raw = test::Bytes(hdd_->ReadSync(store_->SlotOffset(1) + kAt, 4096));
  EXPECT_EQ(raw, b);
  EXPECT_EQ(Read(kAt, 4096), b);
}

// Regression: a write that falls back to the HDD because every journal is
// full leaves a durable invalidation marker, like a bypass. Without one, the
// rebuild mapped the older journaled record of the range again, served it,
// and would have replayed it over the newer HDD bytes.
TEST_F(JournalCrashTest, FullJournalFallbackSurvivesCrash) {
  Build({}, /*ssd_region=*/16 * kKiB, /*exp_region=*/16 * kKiB, /*hdd_region=*/32 * kKiB);
  uint64_t version = 0;
  const uint64_t kAt = 512 * kKiB;
  auto v1 = test::Pattern(4096, 700);
  ASSERT_TRUE(Write(kAt, v1, ++version).ok());
  // Fillers until no journal fits another 4 KiB record.
  auto fits = [this]() {
    for (size_t k = 0; k < manager_->num_journals(); ++k) {
      if (manager_->journal(k).CanFit(4096)) {
        return true;
      }
    }
    return false;
  };
  for (uint64_t i = 0; fits(); ++i) {
    ASSERT_TRUE(Write(i * 4096, test::Pattern(4096, 710 + i), ++version).ok());
  }
  auto v2 = test::Pattern(4096, 701);
  ASSERT_TRUE(Write(kAt, v2, ++version).ok());
  ASSERT_EQ(manager_->stats().direct_fallback_writes, 1u);
  EXPECT_EQ(Read(kAt, 4096), v2);

  CrashAndRecover();
  EXPECT_EQ(Read(kAt, 4096), v2);
  DrainReplay();
  std::vector<uint8_t> raw = test::Bytes(hdd_->ReadSync(store_->SlotOffset(1) + kAt, 4096));
  EXPECT_EQ(raw, v2);
}

// A direct write acks only once its invalidation marker is durable. With
// every ring full to the last byte, the marker waits for replay to free
// room, and the write acks only then.
TEST_F(JournalCrashTest, DirectWriteAcksOnceItsMarkerIsDurable) {
  Build({}, /*ssd_region=*/16 * kKiB, /*exp_region=*/16 * kKiB, /*hdd_region=*/32 * kKiB);
  uint64_t version = 0;
  const uint64_t kAt = 512 * kKiB;
  auto v1 = test::Pattern(4096, 720);
  ASSERT_TRUE(Write(kAt, v1, ++version).ok());  // 4608 bytes of the primary ring
  // A 11 KiB record (11776 bytes) ends the primary ring exactly; 7.5 KiB
  // records (8 KiB each) fill the other two.
  ASSERT_TRUE(Write(0, test::Pattern(11 * kKiB, 721), ++version).ok());
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(Write(64 * kKiB + i * 8 * kKiB, test::Pattern(7680, 722 + i), ++version).ok());
  }
  for (size_t k = 0; k < manager_->num_journals(); ++k) {
    ASSERT_EQ(manager_->journal(k).free_bytes(), 0u) << k;
  }

  auto v2 = test::Pattern(4096, 730);
  Status status = Internal("pending");
  manager_->Write(1, kAt, v2.size(), ++version, test::Payload(v2),
                  [&](const Status& s) { status = s; });
  sim_.RunUntil(sim_.Now() + msec(10));
  EXPECT_EQ(status.code(), StatusCode::kInternal);  // the marker has no room yet
  EXPECT_EQ(Read(kAt, 4096), v2);
  DrainReplay();
  ASSERT_TRUE(status.ok()) << status.ToString();

  CrashAndRecover();
  EXPECT_EQ(Read(kAt, 4096), v2);
}

// Regression: a replayed record stays on its device while an older record it
// overlaps is still pending in another journal. Here v1 (4 KiB) went to the
// expansion journal while the primary ring was full, and v2 (1 KiB, inside
// v1) to the primary ring, which replays first. Discarding v2 at its free let
// the rebuild scan find v1 alone: reads and replay then served v1 over v2.
TEST_F(JournalCrashTest, ReplayedRecordStaysWhileAnOlderOverlapIsPending) {
  Build({}, /*ssd_region=*/16 * kKiB);
  uint64_t version = 0;
  // Three 4 KiB records (4608 bytes each) leave 2560 bytes of the ring.
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(Write(i * 4096, test::Pattern(4096, 500 + i), ++version).ok());
  }
  const uint64_t kAt = 64 * kKiB;
  auto v1 = test::Pattern(4096, 510);
  auto v2 = test::Pattern(1024, 511);
  ASSERT_TRUE(Write(kAt, v1, ++version).ok());
  ASSERT_TRUE(Write(kAt, v2, ++version).ok());
  ASSERT_EQ(manager_->journal(0).pending().size(), 4u);
  ASSERT_EQ(manager_->journal(1).pending().size(), 1u);
  {
    // Replay stops after the primary ring's wave.
    test::TripGate gate(&sim_, hdd_.get(), qos::ServiceClass::kJournalReplay, 1);
    manager_->StartReplay();
    sim_.RunUntil(sim_.Now() + msec(10));
    ASSERT_FALSE(manager_->journal(0).HasPending());
    ASSERT_TRUE(manager_->journal(1).HasPending());
    EXPECT_EQ(manager_->journal(0).kept().size(), 1u);
  }

  CrashAndRecover();
  std::vector<uint8_t> expect = v1;
  std::copy(v2.begin(), v2.end(), expect.begin());
  EXPECT_EQ(Read(kAt, 4096), expect);
  DrainReplay();
  EXPECT_TRUE(manager_->journal(0).kept().empty());
  std::vector<uint8_t> raw = test::Bytes(hdd_->ReadSync(store_->SlotOffset(1) + kAt, 4096));
  EXPECT_EQ(raw, expect);
  EXPECT_EQ(Read(kAt, 4096), expect);
}

// Regression: a rebuilt replay queue is in ring order, so after a wrap a
// newer record can sit ahead of an older one it overlaps. Here B (at ring
// position 0) replaced A (at 253440) before the first crash; after it B
// replays first. B must stay on the device, and keep its ring space, until A
// is freed: a second crash in between found A alone when B was discarded, or
// when a later append overwrote B.
TEST_F(JournalCrashTest, RebuiltQueueKeepsANewerRecordUntilTheOlderIsFreed) {
  Build();
  uint64_t version = 0;
  const uint64_t kAt = 768 * kKiB;
  auto a = test::Pattern(4096, 600);
  auto b = test::Pattern(4096, 601);
  {
    // 55 fillers replay, then replay stops: A and B stay pending.
    test::TripGate gate(&sim_, hdd_.get(), qos::ServiceClass::kJournalReplay, 55);
    for (uint64_t i = 0; i < 55; ++i) {
      ASSERT_TRUE(Write(i * 4096, test::Pattern(4096, 610 + i), ++version).ok());
      DrainReplay();
    }
    ASSERT_TRUE(Write(kAt, a, ++version).ok());
    ASSERT_TRUE(Write(kAt, b, ++version).ok());  // pads past the wrap, lands at 0
    ASSERT_EQ(manager_->journal(0).pending().size(), 2u);
  }
  JournalManagerOptions one_per_wave;
  one_per_wave.replay_batch = 1;
  CrashAndRecover(nullptr, one_per_wave);
  ASSERT_EQ(manager_->journal(0).pending().front().version, version);
  {
    // B's wave replays, then replay stops with A still pending.
    test::TripGate gate(&sim_, hdd_.get(), qos::ServiceClass::kJournalReplay, 1);
    manager_->StartReplay();
    sim_.RunUntil(sim_.Now() + msec(10));
    ASSERT_EQ(manager_->journal(0).pending().size(), 1u);
    ASSERT_EQ(manager_->journal(0).kept().size(), 1u);
    // B holds its ring space: this append does not fit before the wrap, and
    // the ring has no room past it, so it goes to the expansion journal.
    ASSERT_TRUE(Write(512 * kKiB, test::Pattern(4096, 620), ++version).ok());
    EXPECT_EQ(manager_->journal(1).pending().size(), 1u);
  }

  CrashAndRecover();
  EXPECT_EQ(Read(kAt, 4096), b);
  DrainReplay();
  std::vector<uint8_t> raw = test::Bytes(hdd_->ReadSync(store_->SlotOffset(1) + kAt, 4096));
  EXPECT_EQ(raw, b);
  EXPECT_EQ(Read(512 * kKiB, 4096), test::Pattern(4096, 620));
}

// Regression: a record replay finds corrupt stays on its device until its
// range is repaired, so a rebuild scan detects the damage again. Discarding it
// at its free let a crash before the repair forget the quarantine, and reads
// then served the HDD's older bytes.
TEST_F(JournalCrashTest, CorruptRecordStaysUntilRepaired) {
  Build();
  auto old_data = test::Pattern(4096, 630);
  Status seeded = Internal("not completed");
  store_->Write(1, 0, old_data.size(), test::Payload(old_data),
                [&](const Status& s) { seeded = s; });
  sim_.RunUntil(sim_.Now() + msec(10));
  ASSERT_TRUE(seeded.ok());
  ASSERT_TRUE(Write(0, test::Pattern(4096, 631), 2).ok());
  Rng flip_rng(7);
  ASSERT_TRUE(manager_->InjectBitFlip(flip_rng));
  sim_.RunUntil(sim_.Now() + msec(1));
  DrainReplay();  // detects the damage; no handler, so no repair lands
  ASSERT_EQ(manager_->stats().corruptions_detected, 1u);
  ASSERT_EQ(manager_->journal(0).kept().size(), 1u);
  {
    // A later pending record keeps the damaged one mid-ring (a corrupt record
    // past the last valid one is truncated as a torn tail).
    test::TripGate gate(&sim_, hdd_.get(), qos::ServiceClass::kJournalReplay, 0);
    ASSERT_TRUE(Write(65536, test::Pattern(4096, 632), 3).ok());
    ASSERT_TRUE(manager_->journal(0).HasPending());
  }

  CrashAndRecover();
  EXPECT_TRUE(manager_->IsQuarantined(1, 0, 4096));
  BufferView got;
  Status status = Internal("not completed");
  manager_->Read(1, 0, 4096, &got, [&](const Status& s) { status = s; });
  sim_.RunUntil(sim_.Now() + msec(10));
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_FALSE(got);  // no bytes, so never the stale v1 bytes
}

// Regression: the quarantine is volatile, so a crash mid-repair used to
// forget detected damage — the rebuilt index simply dropped the corrupt
// record and reads fell through to the stale HDD bytes underneath it. The
// rebuild scan must re-detect mid-ring corrupt records and re-arm the
// quarantine so such reads keep failing with kCorruption.
TEST_F(JournalCrashTest, CorruptRecordRequarantinedAfterRebuild) {
  Build();
  // The HDD store holds v1; the journal holds the only copy of v2.
  auto old_data = test::Pattern(4096, 21);
  Status seeded = Internal("not completed");
  store_->Write(1, 0, old_data.size(), test::Payload(old_data),
                [&](const Status& s) { seeded = s; });
  sim_.RunUntil(sim_.Now() + msec(10));
  ASSERT_TRUE(seeded.ok());
  auto new_data = test::Pattern(4096, 22);
  ASSERT_TRUE(Write(0, new_data, 2).ok());

  // Damage v2's record on media (the only live record, so the flip must hit
  // it), detect it with a read — quarantined, repair pending — then crash
  // before any repair lands.
  Rng flip_rng(7);
  ASSERT_TRUE(manager_->InjectBitFlip(flip_rng));
  sim_.RunUntil(sim_.Now() + msec(1));
  BufferView out;
  Status status = Internal("not completed");
  manager_->Read(1, 0, 4096, &out, [&](const Status& s) { status = s; });
  sim_.RunUntil(sim_.Now() + msec(10));
  ASSERT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  ASSERT_TRUE(manager_->IsQuarantined(1, 0, 4096));

  // A later valid record keeps the damaged one mid-ring (a lone corrupt
  // record at the head would be truncated as a torn tail instead).
  auto anchor = test::Pattern(4096, 23);
  ASSERT_TRUE(Write(65536, anchor, 3).ok());

  CrashAndRecover();  // no corruption handler: nothing can lift the quarantine

  // The scan re-detected the damage: reads of the range still fail with
  // kCorruption — stale v1 bytes are never resurrected as v2.
  EXPECT_TRUE(manager_->IsQuarantined(1, 0, 4096));
  EXPECT_EQ(manager_->stats().corruptions_detected, 1u);
  for (int i = 0; i < 3; ++i) {
    BufferView got;
    Status read_status = Internal("not completed");
    manager_->Read(1, 0, 4096, &got, [&](const Status& s) { read_status = s; });
    sim_.RunUntil(sim_.Now() + msec(10));
    EXPECT_EQ(read_status.code(), StatusCode::kCorruption) << "read " << i;
    EXPECT_FALSE(got);  // no bytes, so never the stale v1 bytes
  }
  // Undamaged ranges are unaffected.
  EXPECT_EQ(Read(65536, 4096), anchor);
}

// Same crash, but the fresh manager has its corruption handler wired (as the
// cluster does at construction): recovery re-detects the damage AND re-kicks
// the repair, so the range heals without any client read touching it.
TEST_F(JournalCrashTest, RequarantinedRangeRepairsThroughHandler) {
  Build();
  auto data = test::Pattern(4096, 31);
  ASSERT_TRUE(Write(0, data, 1).ok());
  Rng flip_rng(7);
  ASSERT_TRUE(manager_->InjectBitFlip(flip_rng));
  sim_.RunUntil(sim_.Now() + msec(1));
  auto anchor = test::Pattern(4096, 32);
  ASSERT_TRUE(Write(65536, anchor, 2).ok());

  int handler_calls = 0;
  CrashAndRecover([&](JournalManager& fresh) {
    fresh.SetCorruptionHandler([&](storage::ChunkId chunk, uint64_t offset, uint64_t length,
                                   std::function<void()> healed) {
      ++handler_calls;
      EXPECT_EQ(chunk, 1u);
      EXPECT_EQ(offset, 0u);
      EXPECT_EQ(length, 4096u);
      store_->Write(chunk, offset, length, test::Payload(data), [healed](const Status& s) {
        ASSERT_TRUE(s.ok());
        healed();
      });
    });
  });

  EXPECT_EQ(handler_calls, 1);
  EXPECT_EQ(manager_->stats().corruptions_detected, 1u);
  EXPECT_EQ(manager_->stats().corruptions_repaired, 1u);
  EXPECT_FALSE(manager_->IsQuarantined(1, 0, 4096));
  EXPECT_EQ(Read(0, 4096), data);
  EXPECT_EQ(Read(65536, 4096), anchor);
}

// ---- Data integrity: CRC detect -> quarantine -> re-replicate -> heal ----

// A write of an owned payload gets a record CRC combined from the sector
// sums its allocation memoizes; replay still recomputes the CRC from the
// journal's stored bytes, so a payload flipped on the device is caught and
// quarantined.
TEST_F(JournalManagerTest, SumBuiltRecordFailsReplayVerificationWhenCorrupted) {
  Build();
  auto data = test::Pattern(4096, 41);
  Buffer payload = Buffer::CopyOf(data.data(), data.size());
  Status written = Internal("not completed");
  manager_->Write(1, 0, data.size(), 1, payload.View(), [&](const Status& s) { written = s; });
  sim_.RunUntil(sim_.Now() + msec(10));
  ASSERT_TRUE(written.ok());
  ASSERT_EQ(manager_->journal(0).pending().size(), 1u);
  const AppendedRecord& rec = manager_->journal(0).pending().front();
  storage::IoSegment seg{payload.View(), data.size()};
  EXPECT_EQ(rec.crc, rec.ToHeader().ComputeCrcVectored(&seg, 1));

  Rng flip_rng(5);
  ASSERT_TRUE(manager_->InjectBitFlip(flip_rng));
  sim_.RunUntil(sim_.Now() + msec(1));
  DrainReplay();
  EXPECT_EQ(manager_->stats().corruptions_detected, 1u);
  EXPECT_TRUE(manager_->IsQuarantined(1, 0, 4096));
}

// A bit flip under a pending journal record must surface as kCorruption on
// read (never the flipped bytes, never older HDD bytes), invoke the
// corruption handler, and after the handler installs good bytes and calls
// healed(), reads recover the true data.
TEST_F(JournalManagerTest, BitFlipDetectedQuarantinedAndHealed) {
  Build();
  auto data = test::Pattern(4096, 9);

  // Stand-in for the master: "re-replicate" by writing the known-good bytes
  // straight into the backing store, then lift the quarantine.
  int handler_calls = 0;
  manager_->SetCorruptionHandler([&](storage::ChunkId chunk, uint64_t offset, uint64_t length,
                                     std::function<void()> healed) {
    ++handler_calls;
    EXPECT_EQ(chunk, 1u);
    EXPECT_EQ(offset, 0u);
    EXPECT_EQ(length, 4096u);
    store_->Write(chunk, offset, length, test::Payload(data),
                  [healed](const Status& s) {
                    ASSERT_TRUE(s.ok());
                    healed();
                  });
  });

  ASSERT_TRUE(Write(0, data).ok());
  Rng flip_rng(77);
  ASSERT_TRUE(manager_->InjectBitFlip(flip_rng));  // record is pending: must land
  sim_.RunUntil(sim_.Now() + msec(1));

  // Reading through the overlay re-verifies the CRC: the damage is detected
  // and the range quarantined — the caller sees kCorruption, not garbage.
  BufferView out;
  Status status = Internal("not completed");
  manager_->Read(1, 0, 4096, &out, [&](const Status& s) { status = s; });
  sim_.RunUntil(sim_.Now() + msec(10));
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_EQ(manager_->stats().corruptions_detected, 1u);
  EXPECT_EQ(handler_calls, 1);

  // The handler's repair + healed() already ran (store write is fast here);
  // the quarantine is lifted and reads return the re-replicated bytes.
  sim_.RunUntil(sim_.Now() + msec(10));
  EXPECT_FALSE(manager_->IsQuarantined(1, 0, 4096));
  EXPECT_EQ(manager_->stats().corruptions_repaired, 1u);
  EXPECT_EQ(Read(0, 4096), data);
}

// While quarantined (handler absent or repair still in flight), every read of
// the range keeps failing with kCorruption — the manager never falls back to
// the stale HDD bytes underneath the lost journal record.
TEST_F(JournalManagerTest, QuarantineBlocksReadsUntilRepaired) {
  Build();
  // The HDD store holds v1 (as if an earlier journal round already merged
  // it); the journal holds the only copy of v2.
  auto old_data = test::Pattern(4096, 1);
  Status seeded = Internal("not completed");
  store_->Write(1, 0, old_data.size(), test::Payload(old_data),
                [&](const Status& s) { seeded = s; });
  sim_.RunUntil(sim_.Now() + msec(10));
  ASSERT_TRUE(seeded.ok());

  auto new_data = test::Pattern(4096, 2);
  ASSERT_TRUE(Write(0, new_data, 2).ok());  // v2 pending in the journal
  Rng flip_rng(5);
  ASSERT_TRUE(manager_->InjectBitFlip(flip_rng));
  sim_.RunUntil(sim_.Now() + msec(1));

  // No corruption handler wired: the quarantine cannot lift.
  for (int i = 0; i < 3; ++i) {
    BufferView out;
    Status status = Internal("not completed");
    manager_->Read(1, 0, 4096, &out, [&](const Status& s) { status = s; });
    sim_.RunUntil(sim_.Now() + msec(10));
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << "read " << i;
    EXPECT_FALSE(out);  // no bytes: stale v1 bytes are never served as v2
  }
  EXPECT_TRUE(manager_->IsQuarantined(1, 0, 4096));
  EXPECT_EQ(manager_->stats().corruptions_detected, 1u);
  EXPECT_EQ(manager_->stats().corruptions_repaired, 0u);
}

}  // namespace
}  // namespace ursa::journal
