// Background scrub subsystem tests (DESIGN.md §11): checksum-ledger
// bookkeeping, coordinator scheduling (replica-staggering, per-server caps,
// health-aware ordering), and the end-to-end detect -> quarantine -> repair
// pipeline on a live cluster.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/client/virtual_disk.h"
#include "src/scrub/checksum_store.h"
#include "src/scrub/scrub_coordinator.h"
#include "src/scrub/scrubber.h"
#include "src/sim/simulator.h"
#include "test_util.h"

namespace ursa::scrub {
namespace {

// ---------------------------------------------------------------------------
// ChecksumStore
// ---------------------------------------------------------------------------

TEST(ChecksumStoreTest, AlignedWriteVerifiesClean) {
  ChecksumStore store(64 * kKiB);
  auto data = test::Pattern(4 * kScrubSector, 1);
  store.OnWrite(7, 0, data.size(), test::Payload(data));
  EXPECT_EQ(store.sectors_tracked(), 4u);

  ChecksumStore::VerifyResult r = store.Verify(7, 0, data.size(), data.data());
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.sectors_verified, 4u);
  EXPECT_EQ(r.sectors_skipped, 0u);
}

TEST(ChecksumStoreTest, DetectsSingleFlippedByte) {
  ChecksumStore store(64 * kKiB);
  auto data = test::Pattern(8 * kScrubSector, 2);
  store.OnWrite(1, 0, data.size(), test::Payload(data));

  auto damaged = data;
  damaged[3 * kScrubSector + 17] ^= 0x40;
  ChecksumStore::VerifyResult r = store.Verify(1, 0, damaged.size(), damaged.data());
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.mismatch_offset, 3 * kScrubSector);
  EXPECT_EQ(r.mismatch_length, kScrubSector);
  EXPECT_EQ(r.sectors_verified, 8u);
}

TEST(ChecksumStoreTest, ReportsFirstMismatchRunOnly) {
  ChecksumStore store(64 * kKiB);
  auto data = test::Pattern(8 * kScrubSector, 3);
  store.OnWrite(1, 0, data.size(), test::Payload(data));

  // Two damaged runs: sectors [1,3) and sector 6. Only the first run is
  // reported; the second surfaces on the rescrub after the repair lands.
  auto damaged = data;
  damaged[1 * kScrubSector] ^= 0x01;
  damaged[2 * kScrubSector + 5] ^= 0x02;
  damaged[6 * kScrubSector + 9] ^= 0x04;
  ChecksumStore::VerifyResult r = store.Verify(1, 0, damaged.size(), damaged.data());
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.mismatch_offset, 1 * kScrubSector);
  EXPECT_EQ(r.mismatch_length, 2 * kScrubSector);
}

TEST(ChecksumStoreTest, PartialBoundarySectorsBecomeUnverifiable) {
  ChecksumStore store(64 * kKiB);
  auto base = test::Pattern(4 * kScrubSector, 4);
  store.OnWrite(1, 0, base.size(), test::Payload(base));
  ASSERT_EQ(store.sectors_tracked(), 4u);

  // An unaligned overwrite of [100, 1200): sector 0 and sector 2 are only
  // partially covered (unverifiable now); sector 1 is fully covered and gets
  // a fresh checksum.
  auto patch = test::Pattern(1100, 5);
  store.OnWrite(1, 100, patch.size(), test::Payload(patch));
  EXPECT_EQ(store.sectors_tracked(), 2u);  // sectors 1 and 3 remain known

  auto current = base;
  std::copy(patch.begin(), patch.end(), current.begin() + 100);
  ChecksumStore::VerifyResult r = store.Verify(1, 0, current.size(), current.data());
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.sectors_verified, 2u);
  EXPECT_EQ(r.sectors_skipped, 2u);
}

TEST(ChecksumStoreTest, NullPayloadInvalidatesInsteadOfRecording) {
  ChecksumStore store(64 * kKiB);
  auto data = test::Pattern(4 * kScrubSector, 6);
  store.OnWrite(1, 0, data.size(), test::Payload(data));
  ASSERT_EQ(store.sectors_tracked(), 4u);

  // Timing-only write (no payload bytes): the touched sectors must not keep
  // stale checksums that would flag the unmaterialized bytes as corrupt.
  store.OnWrite(1, kScrubSector, 2 * kScrubSector, {});
  EXPECT_EQ(store.sectors_tracked(), 2u);
  ChecksumStore::VerifyResult r = store.Verify(1, 0, data.size(), data.data());
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.sectors_skipped, 2u);
}

TEST(ChecksumStoreTest, UnwrittenChunkSkipsEverySector) {
  ChecksumStore store(64 * kKiB);
  std::vector<uint8_t> zeros(4 * kScrubSector, 0);
  ChecksumStore::VerifyResult r = store.Verify(9, 0, zeros.size(), zeros.data());
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.sectors_verified, 0u);
  EXPECT_EQ(r.sectors_skipped, 4u);
  EXPECT_FALSE(store.HasChecksums(9));
}

TEST(ChecksumStoreTest, DropForgetsChunk) {
  ChecksumStore store(64 * kKiB);
  auto data = test::Pattern(2 * kScrubSector, 7);
  store.OnWrite(1, 0, data.size(), test::Payload(data));
  ASSERT_TRUE(store.HasChecksums(1));
  store.Drop(1);
  EXPECT_FALSE(store.HasChecksums(1));
  EXPECT_EQ(store.sectors_tracked(), 0u);
}

TEST(ChecksumStoreTest, RearmReclaimsUnverifiableBoundarySectors) {
  ChecksumStore store(64 * kKiB);
  // Unaligned write: both boundary sectors become unverifiable, only the two
  // interior sectors are tracked.
  std::vector<uint8_t> chunk(4 * kScrubSector, 0);
  auto data = test::Pattern(3 * kScrubSector, 5);
  std::copy(data.begin(), data.end(), chunk.begin() + 100);
  store.OnWrite(1, 100, data.size(), test::Payload(data));
  EXPECT_EQ(store.sectors_tracked(), 2u);

  uint64_t gen = store.generation(1);
  uint64_t armed = store.Rearm(1, 0, chunk.size(), chunk.data(), gen);
  EXPECT_EQ(armed, 2u);
  EXPECT_EQ(store.sectors_tracked(), 4u);

  ChecksumStore::VerifyResult r = store.Verify(1, 0, chunk.size(), chunk.data());
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.sectors_verified, 4u);
  EXPECT_EQ(r.sectors_skipped, 0u);
}

TEST(ChecksumStoreTest, RearmRefusesStaleGenerationAfterRacingWrite) {
  ChecksumStore store(64 * kKiB);
  auto data = test::Pattern(2 * kScrubSector, 3);
  store.OnWrite(1, 100, data.size(), test::Payload(data));  // boundary sectors unverifiable
  std::vector<uint8_t> snapshot(4 * kScrubSector, 0);  // "read" taken now

  uint64_t gen = store.generation(1);
  // A write lands between the scrub read and the arm attempt.
  store.OnWrite(1, 0, kScrubSector, test::Payload(data));
  EXPECT_NE(store.generation(1), gen);
  EXPECT_EQ(store.Rearm(1, 0, snapshot.size(), snapshot.data(), gen), 0u);
  // With the current generation, arming proceeds.
  EXPECT_GT(store.Rearm(1, 2 * kScrubSector, 2 * kScrubSector, snapshot.data(),
                        store.generation(1)),
            0u);
}

TEST(ChecksumStoreTest, GenerationMovesOnEveryMutation) {
  ChecksumStore store(64 * kKiB);
  EXPECT_EQ(store.generation(5), 0u);
  auto data = test::Pattern(kScrubSector, 2);
  store.OnWrite(5, 0, data.size(), test::Payload(data));
  uint64_t g1 = store.generation(5);
  EXPECT_GT(g1, 0u);
  store.Invalidate(5, 0, kScrubSector);
  uint64_t g2 = store.generation(5);
  EXPECT_GT(g2, g1);
  store.Drop(5);
  EXPECT_GT(store.generation(5), g2);  // survives Drop: stale rearms still refuse
}

// ---------------------------------------------------------------------------
// Scrubber re-arm pass: coverage converges to 100%
// ---------------------------------------------------------------------------

// An in-memory "server": a byte array plus a real ChecksumStore, read through
// the sim so the scrubber's piece loop runs as it would against a device.
class ScrubberRearmTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kChunkSize = 64 * kKiB;

  Scrubber::Hooks Hooks() {
    Scrubber::Hooks h;
    h.read = [this](storage::ChunkId, uint64_t offset, uint64_t length,
                    std::function<void(const Status&, const BufferView&)> done) {
      Buffer bytes = Buffer::CopyOf(media_.data() + offset, length);
      sim_.After(Nanos{0}, [bytes, done = std::move(done)] { done(OkStatus(), bytes); });
    };
    h.verify = [this](storage::ChunkId chunk, uint64_t offset, uint64_t length,
                      const void* data) { return store_.Verify(chunk, offset, length, data); };
    h.report = [this](storage::ChunkId, uint64_t, uint64_t) { ++reports_; };
    h.generation = [this](storage::ChunkId chunk) { return store_.generation(chunk); };
    h.rearm = [this](storage::ChunkId chunk, uint64_t offset, uint64_t length,
                     const void* data, uint64_t expected_generation) {
      return store_.Rearm(chunk, offset, length, data, expected_generation);
    };
    return h;
  }

  Scrubber::ChunkResult Sweep(Scrubber& scrubber) {
    Scrubber::ChunkResult result;
    bool fired = false;
    scrubber.ScrubChunk(1, kChunkSize, [&](Scrubber::ChunkResult r) {
      result = r;
      fired = true;
    });
    sim_.RunUntil(sim_.Now() + sec(1));
    EXPECT_TRUE(fired);
    return result;
  }

  sim::Simulator sim_;
  ChecksumStore store_{kChunkSize};
  std::vector<uint8_t> media_ = std::vector<uint8_t>(kChunkSize, 0);
  int reports_ = 0;
};

TEST_F(ScrubberRearmTest, CoverageConvergesToFullAfterUnalignedWrites) {
  // Several unaligned writes leave boundary sectors permanently unverifiable
  // under OnWrite alone.
  for (uint64_t off : {100u, 5000u, 40000u}) {
    auto data = test::Pattern(3 * kScrubSector, static_cast<int>(off % 251));
    std::copy(data.begin(), data.end(), media_.begin() + off);
    store_.OnWrite(1, off, data.size(), test::Payload(data));
  }
  uint64_t total_sectors = kChunkSize / kScrubSector;
  ASSERT_LT(store_.sectors_tracked(), total_sectors);

  ScrubConfig config;
  config.read_bytes = 8 * kKiB;
  ASSERT_TRUE(config.rearm_unverified);
  Scrubber scrubber(&sim_, config, Hooks());

  // First sweep verifies what it can and re-arms the rest.
  Scrubber::ChunkResult first = Sweep(scrubber);
  EXPECT_TRUE(first.completed);
  EXPECT_GT(first.sectors_rearmed, 0u);
  EXPECT_EQ(first.sectors_verified + first.sectors_rearmed, total_sectors);
  EXPECT_EQ(store_.sectors_tracked(), total_sectors);

  // Second sweep: full coverage, nothing skipped, nothing left to arm.
  Scrubber::ChunkResult second = Sweep(scrubber);
  EXPECT_TRUE(second.completed);
  EXPECT_EQ(second.sectors_verified, total_sectors);
  EXPECT_EQ(second.sectors_skipped, 0u);
  EXPECT_EQ(second.sectors_rearmed, 0u);
  EXPECT_EQ(reports_, 0);
}

TEST_F(ScrubberRearmTest, DisabledFlagLeavesSectorsSkipped) {
  auto data = test::Pattern(3 * kScrubSector, 9);
  std::copy(data.begin(), data.end(), media_.begin() + 100);
  store_.OnWrite(1, 100, data.size(), test::Payload(data));
  uint64_t tracked_before = store_.sectors_tracked();

  ScrubConfig config;
  config.read_bytes = 8 * kKiB;
  config.rearm_unverified = false;
  Scrubber scrubber(&sim_, config, Hooks());
  Scrubber::ChunkResult r = Sweep(scrubber);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.sectors_rearmed, 0u);
  EXPECT_GT(r.sectors_skipped, 0u);
  EXPECT_EQ(store_.sectors_tracked(), tracked_before);
}

// Regression: the per-chunk piece loop once captured its own shared_ptr, so
// every sweep (its piece buffer and `done` callback included) leaked. Once
// the chunk completes and the last yield event has run, everything `done`
// captured must be released.
TEST_F(ScrubberRearmTest, CompletedChunkReleasesItsSweep) {
  ScrubConfig config;
  config.read_bytes = 8 * kKiB;  // several pieces, several yields
  Scrubber scrubber(&sim_, config, Hooks());
  auto sentinel = std::make_shared<int>(0);
  bool fired = false;
  scrubber.ScrubChunk(1, kChunkSize, [&fired, sentinel](Scrubber::ChunkResult r) {
    EXPECT_TRUE(r.completed);
    fired = true;
  });
  EXPECT_GT(sentinel.use_count(), 1);  // held by the in-flight sweep
  sim_.RunToCompletion();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sentinel.use_count(), 1);
}

// ---------------------------------------------------------------------------
// ScrubCoordinator (fake hooks)
// ---------------------------------------------------------------------------

class CoordinatorTest : public ::testing::Test {
 protected:
  struct Started {
    storage::ChunkId chunk;
    uint64_t server;
    std::function<void(Scrubber::ChunkResult)> done;
  };

  ScrubConfig Config() {
    ScrubConfig c;
    c.enabled = true;
    c.sweep_interval = msec(100);
    c.tick_interval = msec(1);
    c.per_server_concurrent = 1;
    c.max_concurrent = 8;
    return c;
  }

  ScrubCoordinator::Hooks Hooks() {
    ScrubCoordinator::Hooks h;
    h.list_chunks = [this] { return chunks_; };
    h.health_score = [this](uint64_t server) {
      auto it = scores_.find(server);
      return it == scores_.end() ? 0.0 : it->second;
    };
    h.server_unavailable = [this](uint64_t server) { return unavailable_.count(server) > 0; };
    h.scrub = [this](storage::ChunkId chunk, uint64_t server, uint64_t size,
                     std::function<void(Scrubber::ChunkResult)> done) {
      (void)size;
      started_.push_back(Started{chunk, server, std::move(done)});
    };
    return h;
  }

  // Completes the oldest unfinished task successfully.
  void CompleteOne() {
    ASSERT_LT(completed_, started_.size());
    Scrubber::ChunkResult result;
    result.completed = true;
    started_[completed_].done(result);
    ++completed_;
  }

  size_t InFlightCount() const { return started_.size() - completed_; }

  // Advances past the pacing window so the coordinator may start every
  // remaining task of the sweep, then runs one scheduling pass.
  void TickLate(ScrubCoordinator& coord) {
    sim_.RunUntil(sim_.Now() + msec(150));
    coord.TickNow();
  }

  sim::Simulator sim_;
  std::vector<ScrubCoordinator::ChunkInfo> chunks_;
  std::map<uint64_t, double> scores_;
  std::set<uint64_t> unavailable_;
  std::vector<Started> started_;
  size_t completed_ = 0;
};

TEST_F(CoordinatorTest, NeverScrubsTwoReplicasOfOneChunkConcurrently) {
  chunks_ = {{1, kMiB, {0, 1, 2}}};
  ScrubCoordinator coord(&sim_, Config(), Hooks());

  // Even unconstrained by pacing or server caps, the three replica tasks of
  // chunk 1 must run strictly one at a time.
  for (int i = 0; i < 3; ++i) {
    TickLate(coord);
    EXPECT_EQ(InFlightCount(), 1u) << "replica task " << i;
    CompleteOne();
  }
  coord.TickNow();  // may also begin the next sweep immediately (we overran)
  EXPECT_EQ(coord.sweeps_completed(), 1u);
  // The first sweep visited each replica exactly once.
  std::set<uint64_t> servers;
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(started_[i].chunk, 1u);
    servers.insert(started_[i].server);
  }
  EXPECT_EQ(servers.size(), 3u);
}

TEST_F(CoordinatorTest, PerServerCapBoundsOneServersLoad) {
  // Three distinct chunks, all with a replica on server 0 only: the
  // per-server cap (1) — not replica staggering — is the binding constraint.
  chunks_ = {{1, kMiB, {0}}, {2, kMiB, {0}}, {3, kMiB, {0}}};
  ScrubCoordinator coord(&sim_, Config(), Hooks());

  for (int i = 0; i < 3; ++i) {
    TickLate(coord);
    EXPECT_EQ(InFlightCount(), 1u) << "task " << i;
    CompleteOne();
  }
  EXPECT_EQ(started_.size(), 3u);
}

TEST_F(CoordinatorTest, RiskyPeersAreVerifiedFirst) {
  // Server 3's device is past the risk threshold: chunk 2's healthy peer
  // (server 2) must be verified before any chunk-1 task — if server 3 dies,
  // server 2 holds the last copies.
  chunks_ = {{1, kMiB, {0, 1}}, {2, kMiB, {2, 3}}};
  scores_[3] = 2.0;  // >= default peer_risk_score (1.5)
  ScrubCoordinator coord(&sim_, Config(), Hooks());

  TickLate(coord);
  ASSERT_GE(started_.size(), 1u);
  EXPECT_EQ(started_[0].chunk, 2u);
  EXPECT_EQ(started_[0].server, 2u);
  EXPECT_GE(coord.risky_first_scheduled(), 1u);
}

TEST_F(CoordinatorTest, UnavailableServersAreSkippedAndSweepStillCompletes) {
  chunks_ = {{1, kMiB, {0, 1}}};
  unavailable_.insert(1);
  ScrubCoordinator coord(&sim_, Config(), Hooks());

  for (int i = 0; i < 4 && coord.sweeps_completed() == 0; ++i) {
    TickLate(coord);
    while (InFlightCount() > 0) {
      CompleteOne();
    }
    coord.TickNow();
  }
  EXPECT_EQ(coord.sweeps_completed(), 1u);
  // At least the first sweep's visit of server 1 was skipped (a follow-on
  // sweep may have begun and skipped it again).
  EXPECT_GE(coord.tasks_skipped(), 1u);
  EXPECT_EQ(coord.LastVerifiedEpoch(1, 0), 1u);
  EXPECT_EQ(coord.LastVerifiedEpoch(1, 1), 0u);  // never verified
  // The chunk-level epoch is the MINIMUM across replicas: one unverified
  // replica keeps the whole chunk at 0.
  EXPECT_EQ(coord.ChunkVerifiedEpoch(1), 0u);
}

TEST_F(CoordinatorTest, EpochsAdvanceAcrossSweeps) {
  chunks_ = {{1, kMiB, {0, 1}}};
  ScrubCoordinator coord(&sim_, Config(), Hooks());

  for (uint64_t sweep = 1; sweep <= 2; ++sweep) {
    while (coord.sweeps_completed() < sweep) {
      TickLate(coord);
      while (InFlightCount() > 0) {
        CompleteOne();
      }
      coord.TickNow();
    }
    EXPECT_EQ(coord.LastVerifiedEpoch(1, 0), sweep);
    EXPECT_EQ(coord.LastVerifiedEpoch(1, 1), sweep);
    EXPECT_EQ(coord.ChunkVerifiedEpoch(1), sweep);
  }
  EXPECT_GE(coord.current_epoch(), 2u);
}

// ---------------------------------------------------------------------------
// End to end: latent corruption on a live cluster
// ---------------------------------------------------------------------------

class ScrubClusterTest : public ::testing::Test {
 protected:
  void Build() {
    cluster::ClusterConfig config = test::SmallClusterConfig();
    config.scrub.enabled = true;
    config.scrub.sweep_interval = msec(200);
    config.scrub.tick_interval = msec(5);
    cluster_ = std::make_unique<cluster::Cluster>(&sim_, config);
    disk_id_ = *cluster_->master().CreateDisk("d", 4 * kMiB, 3, 1);
    client::VirtualDiskClientOptions options;
    options.request_timeout = msec(300);
    disk_ = std::make_unique<client::VirtualDisk>(cluster_.get(), cluster_->AddClientMachine(),
                                                  1, options);
    ASSERT_TRUE(disk_->Open(disk_id_).ok());
  }

  Status WriteSync(uint64_t offset, const std::vector<uint8_t>& data) {
    Status out = Internal("pending");
    disk_->Write(offset, data.size(), test::Payload(data), [&](const Status& s) { out = s; });
    sim_.RunUntil(sim_.Now() + sec(5));
    return out;
  }

  std::vector<uint8_t> ReadSync(uint64_t offset, uint64_t length) {
    std::vector<uint8_t> out(length, 0xCD);
    Status status = Internal("pending");
    disk_->Read(offset, length, out.data(), [&](const Status& s) { status = s; });
    sim_.RunUntil(sim_.Now() + sec(5));
    EXPECT_TRUE(status.ok()) << status.ToString();
    return out;
  }

  // Drives the sim until every journal manager has replayed its backlog —
  // the write's bytes are at rest in the chunk stores after this.
  void DrainReplay() {
    for (int i = 0; i < 500; ++i) {
      bool drained = true;
      for (journal::JournalManager* jm : cluster_->journal_managers()) {
        drained = drained && jm->ReplayDrained();
      }
      if (drained) {
        return;
      }
      sim_.RunUntil(sim_.Now() + msec(10));
    }
    FAIL() << "journal replay never drained";
  }

  sim::Simulator sim_;
  std::unique_ptr<cluster::Cluster> cluster_;
  cluster::DiskId disk_id_ = 0;
  std::unique_ptr<client::VirtualDisk> disk_;
};

TEST_F(ScrubClusterTest, LatentCorruptionIsDetectedQuarantinedAndRepaired) {
  Build();
  auto data = test::Pattern(64 * kKiB, 11);
  ASSERT_TRUE(WriteSync(0, data).ok());
  DrainReplay();

  // Flip a byte in an at-rest backup replica, behind the journal's back: no
  // CRC-carrying record covers it, only the scrub ledger can notice.
  cluster::ChunkLayout layout = (*cluster_->master().GetDisk(disk_id_))->chunks[0];
  ASSERT_EQ(layout.replicas.size(), 3u);
  cluster::ServerId victim = layout.replicas[2].server;
  cluster_->master().server(victim)->store()->CorruptByte(layout.chunk, 8192 + 100, 0x40);
  sim_.RunUntil(sim_.Now() + msec(5));

  // The self-scheduling sweep must detect the mismatch and complete the
  // repair without any client read prompting it.
  for (int i = 0; i < 400 && cluster_->scrub_repairs_completed() < 1; ++i) {
    sim_.RunUntil(sim_.Now() + msec(10));
  }
  EXPECT_GE(cluster_->scrub_mismatches_reported(), 1u);
  EXPECT_GE(cluster_->scrub_repairs_completed(), 1u);
  EXPECT_EQ(cluster_->master().server(victim)->scrub_quarantine_size(), 0u);

  // Every byte reads back clean, and the client never saw corruption.
  EXPECT_EQ(ReadSync(0, data.size()), data);
  EXPECT_EQ(disk_->stats().integrity_errors, 0u);
}

TEST_F(ScrubClusterTest, QuarantineBlocksReadsUntilRepairClears) {
  Build();
  auto data = test::Pattern(16 * kKiB, 12);
  ASSERT_TRUE(WriteSync(0, data).ok());
  DrainReplay();

  cluster::ChunkLayout layout = (*cluster_->master().GetDisk(disk_id_))->chunks[0];
  cluster::ChunkServer* victim = cluster_->master().server(layout.replicas[2].server);

  victim->AddScrubQuarantine(layout.chunk, 0, 4096);
  EXPECT_TRUE(victim->IsScrubQuarantined(layout.chunk, 0, 4096));
  EXPECT_TRUE(victim->IsScrubQuarantined(layout.chunk, 1024, 512));  // overlap
  EXPECT_FALSE(victim->IsScrubQuarantined(layout.chunk, 8192, 512));

  // A recovery read of the flagged range must refuse with kCorruption (the
  // range is untrustworthy until re-replicated), while disjoint ranges and
  // the healthy replicas keep serving.
  Status read_status = Internal("pending");
  victim->HandleRecoveryRead(
      layout.chunk, 0, 4096,
      [&](const Status& s, uint64_t, const BufferView&) { read_status = s; });
  sim_.RunUntil(sim_.Now() + msec(100));
  EXPECT_EQ(read_status.code(), StatusCode::kCorruption);

  victim->ClearScrubQuarantine(layout.chunk, 0, 4096);
  EXPECT_FALSE(victim->IsScrubQuarantined(layout.chunk, 0, 4096));
  EXPECT_EQ(victim->scrub_quarantine_size(), 0u);
  EXPECT_EQ(ReadSync(0, data.size()), data);
}

}  // namespace
}  // namespace ursa::scrub
