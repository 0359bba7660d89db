// Tiered placement tests (DESIGN.md §13): heat tracking with lazy decay,
// the migrator's demote/promote policy, and the end-to-end cold path on a
// live cluster — demote to a k+m EC stripe, degraded reads with a shard
// server down, write-triggered promotion before the ack, shard repair, and
// scrub-detected corruption healing through stripe reconstruction.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/client/virtual_disk.h"
#include "src/sim/simulator.h"
#include "src/tier/heat_tracker.h"
#include "src/tier/tier_migrator.h"
#include "test_util.h"

namespace ursa::tier {
namespace {

// ---------------------------------------------------------------------------
// HeatTracker
// ---------------------------------------------------------------------------

TEST(HeatTrackerTest, HeatIsNormalizedAndDecaysByHalfLife) {
  sim::Simulator sim;
  HeatTracker heat(&sim, sec(10));

  heat.RecordRead(1, 4 * kKiB);      // exactly one heat unit
  heat.RecordWrite(1, 8 * kKiB);     // two units on the write side
  EXPECT_DOUBLE_EQ(heat.ReadHeat(1), 1.0);
  EXPECT_DOUBLE_EQ(heat.WriteHeat(1), 2.0);
  EXPECT_DOUBLE_EQ(heat.Heat(1), 3.0);

  sim.RunUntil(sim.Now() + sec(10));  // one half-life of silence
  EXPECT_NEAR(heat.Heat(1), 1.5, 1e-9);
  sim.RunUntil(sim.Now() + sec(10));
  EXPECT_NEAR(heat.Heat(1), 0.75, 1e-9);

  // Untouched chunks read zero without being materialized.
  EXPECT_DOUBLE_EQ(heat.Heat(999), 0.0);
  EXPECT_EQ(heat.tracked(), 1u);
}

TEST(HeatTrackerTest, ShardAliasFeedsParent) {
  sim::Simulator sim;
  HeatTracker heat(&sim, sec(10));

  heat.SetAlias(/*shard=*/100, /*parent=*/7);
  heat.RecordRead(100, 4 * kKiB);
  EXPECT_DOUBLE_EQ(heat.Heat(7), 1.0);
  EXPECT_DOUBLE_EQ(heat.ReadHeat(100), 1.0);  // queries resolve too

  heat.ClearAlias(100);
  heat.RecordRead(100, 4 * kKiB);
  EXPECT_DOUBLE_EQ(heat.Heat(7), 1.0);    // no longer fed
  EXPECT_DOUBLE_EQ(heat.Heat(100), 1.0);  // its own entry now
}

TEST(HeatTrackerTest, InflightWriteWindowPairsAndGuardsUnderflow) {
  sim::Simulator sim;
  HeatTracker heat(&sim, sec(10));

  EXPECT_EQ(heat.InflightWrites(3), 0u);
  heat.BeginWrite(3);
  heat.BeginWrite(3);
  EXPECT_EQ(heat.InflightWrites(3), 2u);
  heat.EndWrite(3);
  heat.EndWrite(3);
  heat.EndWrite(3);  // unmatched end must not wrap around
  EXPECT_EQ(heat.InflightWrites(3), 0u);

  sim.RunUntil(msec(1));  // move off t=0 so the write timestamp is visible
  heat.RecordWrite(3, kKiB);
  EXPECT_EQ(heat.LastWrite(3), msec(1));
  heat.Forget(3);
  EXPECT_EQ(heat.tracked(), 0u);
  EXPECT_DOUBLE_EQ(heat.Heat(3), 0.0);
}

// ---------------------------------------------------------------------------
// HeatTracker properties under random op sequences
// ---------------------------------------------------------------------------

// Between touches, heat only decays: sampling at later instants with no
// feeds in between must never read higher.
TEST(HeatTrackerPropertyTest, DecayIsMonotoneBetweenTouches) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Simulator sim;
    HeatTracker heat(&sim, msec(700));
    std::mt19937_64 rng(seed);
    // Random warm-up feeds.
    for (int i = 0; i < 10; ++i) {
      uint64_t bytes = 1 + rng() % (256 * kKiB);
      if (rng() % 2 == 0) {
        heat.RecordRead(7, bytes);
      } else {
        heat.RecordWrite(7, bytes);
      }
      sim.RunUntil(sim.Now() + rng() % msec(50));
    }
    double prev = heat.Heat(7);
    for (int i = 0; i < 50; ++i) {
      sim.RunUntil(sim.Now() + 1 + rng() % msec(100));
      double cur = heat.Heat(7);
      ASSERT_LE(cur, prev + 1e-12) << "seed " << seed << " step " << i;
      prev = cur;
    }
  }
}

// Normalization invariance: N bytes fed as one access and fed as an
// arbitrary same-instant split must account the same heat — 4 KiB units
// are proportional to bytes, not to call counts.
TEST(HeatTrackerPropertyTest, NormalizationIsSplitInvariant) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Simulator sim;
    HeatTracker heat(&sim, sec(10));
    std::mt19937_64 rng(seed);
    uint64_t total = 1 + rng() % (4 * kMiB);

    heat.RecordRead(1, total);  // single shot
    uint64_t left = total;      // random split, same instant
    while (left > 0) {
      uint64_t piece = 1 + rng() % left;
      heat.RecordRead(2, piece);
      left -= piece;
    }
    ASSERT_NEAR(heat.Heat(1), heat.Heat(2), 1e-9 * heat.Heat(1) + 1e-12)
        << "seed " << seed;
    ASSERT_NEAR(heat.Heat(1), static_cast<double>(total) / (4 * kKiB), 1e-6)
        << "seed " << seed;
  }
}

// Alias pairing: a tracker fed through shard ids with SetAlias/ClearAlias
// must agree, at every step, with a twin tracker fed directly on the ids a
// test-side alias model resolves to.
TEST(HeatTrackerPropertyTest, AliasResolutionMatchesDirectFeeds) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Simulator sim;
    HeatTracker aliased(&sim, sec(5));
    HeatTracker direct(&sim, sec(5));
    std::mt19937_64 rng(seed);
    std::unordered_map<uint64_t, uint64_t> model;  // shard -> parent

    for (int step = 0; step < 200; ++step) {
      uint64_t shard = 100 + rng() % 8;
      uint64_t parent = rng() % 4;
      switch (rng() % 5) {
        case 0:
          aliased.SetAlias(shard, parent);
          model[shard] = parent;
          break;
        case 1:
          aliased.ClearAlias(shard);
          model.erase(shard);
          break;
        case 2: {
          uint64_t bytes = 1 + rng() % (64 * kKiB);
          aliased.RecordRead(shard, bytes);
          auto it = model.find(shard);
          direct.RecordRead(it == model.end() ? shard : it->second, bytes);
          break;
        }
        case 3: {
          uint64_t bytes = 1 + rng() % (64 * kKiB);
          aliased.RecordWrite(shard, bytes);
          auto it = model.find(shard);
          direct.RecordWrite(it == model.end() ? shard : it->second, bytes);
          break;
        }
        default:
          sim.RunUntil(sim.Now() + rng() % msec(200));
          break;
      }
      for (uint64_t p = 0; p < 4; ++p) {
        ASSERT_NEAR(aliased.Heat(p), direct.Heat(p), 1e-9)
            << "seed " << seed << " step " << step << " parent " << p;
        ASSERT_EQ(aliased.LastWrite(p), direct.LastWrite(p))
            << "seed " << seed << " step " << step << " parent " << p;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// TierMigrator policy (fake hooks)
// ---------------------------------------------------------------------------

class MigratorTest : public ::testing::Test {
 protected:
  TierConfig Config() {
    TierConfig c;
    c.enabled = true;
    c.heat_half_life = sec(10);
    c.scan_interval = msec(100);
    c.demote_max_heat = 1.0;
    c.cold_age = msec(200);
    c.promote_heat = 8.0;
    c.max_concurrent = 1;
    return c;
  }

  TierHooks Hooks() {
    TierHooks h;
    h.list_chunks = [this] { return chunks_; };
    h.demote = [this](uint64_t chunk, std::function<void(bool)> done) {
      demotes_.push_back(chunk);
      sim_.After(msec(1), [done = std::move(done)] { done(true); });
    };
    h.promote = [this](uint64_t chunk, std::function<void(bool)> done) {
      promotes_.push_back(chunk);
      sim_.After(msec(1), [done = std::move(done)] { done(true); });
    };
    return h;
  }

  sim::Simulator sim_;
  std::vector<TierChunkView> chunks_;
  std::vector<uint64_t> demotes_;
  std::vector<uint64_t> promotes_;
};

TEST_F(MigratorTest, ColdChunkIsDemotedHotChunkIsNot) {
  HeatTracker heat(&sim_, sec(10));
  chunks_ = {{1, false}, {2, false}};
  heat.RecordRead(2, 64 * kKiB);  // chunk 2 is hot (16 units), chunk 1 cold
  TierMigrator migrator(&sim_, Config(), &heat, Hooks());

  sim_.RunUntil(sim_.Now() + msec(300));  // past cold_age
  migrator.ScanOnce();
  sim_.RunUntil(sim_.Now() + msec(10));
  EXPECT_EQ(demotes_, std::vector<uint64_t>{1});
  EXPECT_TRUE(promotes_.empty());
  EXPECT_EQ(migrator.stats().demotions, 1u);
}

TEST_F(MigratorTest, RecentWriteAndInflightWriteBlockDemotion) {
  HeatTracker heat(&sim_, sec(10));
  chunks_ = {{1, false}, {2, false}};
  TierConfig config = Config();
  config.max_concurrent = 2;  // let one scan take both once unblocked
  TierMigrator migrator(&sim_, config, &heat, Hooks());
  sim_.RunUntil(sim_.Now() + msec(300));

  // Chunk 1 has an unacked write in flight; chunk 2 wrote a moment ago.
  heat.BeginWrite(1);
  heat.RecordWrite(2, 512);
  sim_.RunUntil(sim_.Now() + msec(50));  // cold in heat, young in age
  migrator.ScanOnce();
  sim_.RunUntil(sim_.Now() + msec(10));
  EXPECT_TRUE(demotes_.empty());

  // The write completes and the chunk ages past cold_age (its tiny heat
  // decays below the threshold): now it demotes.
  heat.EndWrite(1);
  sim_.RunUntil(sim_.Now() + msec(300));
  migrator.ScanOnce();
  sim_.RunUntil(sim_.Now() + msec(10));
  EXPECT_EQ(demotes_.size(), 2u);
}

TEST_F(MigratorTest, HotEcChunkIsPromoted) {
  HeatTracker heat(&sim_, sec(10));
  chunks_ = {{5, true}};
  TierMigrator migrator(&sim_, Config(), &heat, Hooks());

  migrator.ScanOnce();
  sim_.RunUntil(sim_.Now() + msec(10));
  EXPECT_TRUE(promotes_.empty());  // cold EC chunk stays put

  heat.RecordRead(5, 64 * kKiB);  // 16 units >= promote_heat
  migrator.ScanOnce();
  sim_.RunUntil(sim_.Now() + msec(10));
  EXPECT_EQ(promotes_, std::vector<uint64_t>{5});
  EXPECT_EQ(migrator.stats().promotions, 1u);
}

TEST_F(MigratorTest, ConcurrencyCapBoundsMigrationsPerScan) {
  HeatTracker heat(&sim_, sec(10));
  chunks_ = {{1, false}, {2, false}, {3, false}};
  TierConfig config = Config();
  config.max_concurrent = 1;
  TierHooks hooks = Hooks();
  // Never complete: migrations stay in flight.
  hooks.demote = [this](uint64_t chunk, std::function<void(bool)>) {
    demotes_.push_back(chunk);
  };
  TierMigrator migrator(&sim_, config, &heat, hooks);
  sim_.RunUntil(sim_.Now() + msec(300));
  migrator.ScanOnce();
  migrator.ScanOnce();
  EXPECT_EQ(demotes_.size(), 1u);  // cap holds across scans
  EXPECT_EQ(migrator.in_flight(), 1);
}

// Pins the heat-index scan cost: with a population of hot chunks whose
// demote eligibility is far in the future and no EC chunks being touched,
// repeated scans examine ZERO candidates — the old implementation walked
// the full chunk list on every pass. The index must still be live: once
// the heat decays past the threshold the chunks demote without any feed.
TEST_F(MigratorTest, ScanCostIsIndexNotPopulation) {
  HeatTracker heat(&sim_, sec(10));
  constexpr int kChunks = 200;
  for (uint64_t c = 1; c <= kChunks; ++c) {
    chunks_.push_back({c, false});
    heat.RecordRead(c, 64 * kKiB);  // 16 units: ~40s until heat < 1.0
  }
  TierConfig config = Config();
  config.max_concurrent = kChunks;
  TierMigrator migrator(&sim_, config, &heat, Hooks());

  migrator.ScanOnce();  // seeds the index (not counted as examination)
  for (int i = 0; i < 100; ++i) {
    sim_.RunUntil(sim_.Now() + msec(100));
    migrator.ScanOnce();
  }
  // 101 scans over a 200-chunk population: nothing was due, nothing was
  // examined. The full-list scanner would have examined 20200 candidates.
  EXPECT_EQ(migrator.stats().candidates_examined, 0u);
  EXPECT_TRUE(demotes_.empty());

  // Liveness: past the predicted cool-down (plus cold_age) the heap keys
  // come due and every chunk demotes, still without any external kick.
  sim_.RunUntil(sim_.Now() + sec(45));
  migrator.ScanOnce();
  sim_.RunUntil(sim_.Now() + msec(10));
  EXPECT_EQ(demotes_.size(), static_cast<size_t>(kChunks));
  // Each chunk was examined once (eligible on first pop) — cost stayed
  // proportional to due work, not scans x population.
  EXPECT_LE(migrator.stats().candidates_examined, 2u * kChunks);
}

// A touch between key-push and pop delays real eligibility; the pop-time
// re-check must re-key instead of demoting a warm chunk.
TEST_F(MigratorTest, TouchAfterPushReKeysInsteadOfDemoting) {
  HeatTracker heat(&sim_, sec(10));
  chunks_ = {{1, false}};
  TierMigrator migrator(&sim_, Config(), &heat, Hooks());
  migrator.ScanOnce();  // seed: eligible at cold_age from t=0

  sim_.RunUntil(sim_.Now() + msec(150));
  heat.RecordRead(1, 64 * kKiB);  // hot again before the key comes due
  sim_.RunUntil(sim_.Now() + msec(150));
  migrator.ScanOnce();  // key due, but the chunk no longer qualifies
  sim_.RunUntil(sim_.Now() + msec(10));
  EXPECT_TRUE(demotes_.empty());
  EXPECT_EQ(migrator.stats().candidates_examined, 1u);

  sim_.RunUntil(sim_.Now() + sec(45));  // decay past threshold again
  migrator.ScanOnce();
  sim_.RunUntil(sim_.Now() + msec(10));
  EXPECT_EQ(demotes_, std::vector<uint64_t>{1});
}

// ---------------------------------------------------------------------------
// End to end on a live cluster
// ---------------------------------------------------------------------------

class TierClusterTest : public ::testing::Test {
 protected:
  void Build(bool admission = false, bool scrub = false) {
    cluster::ClusterConfig config = test::SmallClusterConfig();
    if (admission) {
      config.admission.enabled = true;
      config.admission.per_source = 1;
    }
    if (scrub) {
      config.scrub.enabled = true;
      config.scrub.sweep_interval = msec(200);
      config.scrub.tick_interval = msec(5);
    }
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
    disk_->Write(offset, data.size(), data.data(), [&](const Status& s) { out = s; });
    sim_.RunUntil(sim_.Now() + sec(10));
    return out;
  }

  std::vector<uint8_t> ReadSync(uint64_t offset, uint64_t length) {
    std::vector<uint8_t> out(length, 0xCD);
    Status status = Internal("pending");
    disk_->Read(offset, length, out.data(), [&](const Status& s) { status = s; });
    sim_.RunUntil(sim_.Now() + sec(10));
    EXPECT_TRUE(status.ok()) << status.ToString();
    return out;
  }

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

  Status DemoteSync(storage::ChunkId chunk, int k = 4, int m = 2) {
    Status out = Internal("pending");
    cluster_->master().DemoteChunkToEc(chunk, k, m, [&](const Status& s) { out = s; });
    sim_.RunUntil(sim_.Now() + sec(30));
    return out;
  }

  cluster::ChunkLayout Layout(size_t index) {
    return (*cluster_->master().GetDisk(disk_id_))->chunks[index];
  }

  sim::Simulator sim_;
  std::unique_ptr<cluster::Cluster> cluster_;
  cluster::DiskId disk_id_ = 0;
  std::unique_ptr<client::VirtualDisk> disk_;
};

TEST_F(TierClusterTest, DemoteDegradedReadPromoteRoundTrip) {
  Build();
  auto data = test::Pattern(1 * kMiB, 21);  // exactly chunk 0
  ASSERT_TRUE(WriteSync(0, data).ok());
  DrainReplay();

  uint64_t physical_before = cluster_->master().PhysicalBytes();
  Status demote = DemoteSync(Layout(0).chunk);
  ASSERT_TRUE(demote.ok()) << demote.ToString();

  cluster::ChunkLayout layout = Layout(0);
  EXPECT_EQ(layout.tier, cluster::ChunkTier::kEc);
  EXPECT_TRUE(layout.replicas.empty());
  ASSERT_EQ(layout.ec_shards.size(), 6u);
  EXPECT_EQ(layout.ec_shard_size, 256 * kKiB);
  // 3x1MiB of replicas became 6x256KiB of shards: 1.5 MiB reclaimed.
  EXPECT_EQ(physical_before - cluster_->master().PhysicalBytes(),
            3 * kMiB - 6 * 256 * kKiB);
  // Shards land round-robin across machines — no machine holds more than m
  // shards, so any single machine loss stays reconstructable.
  std::set<cluster::ServerId> shard_servers;
  for (const cluster::EcShardRef& s : layout.ec_shards) {
    shard_servers.insert(s.server);
  }
  EXPECT_EQ(shard_servers.size(), 6u);

  // The client's cached layout still points at the freed replicas: the read
  // hits NOT_FOUND, refreshes, and routes to the shards.
  EXPECT_EQ(ReadSync(0, data.size()), data);
  EXPECT_GT(disk_->stats().ec_shard_reads, 0u);
  EXPECT_EQ(disk_->stats().ec_degraded_reads, 0u);

  // One shard server down: same bytes, served degraded via client-side
  // reconstruction from the survivors.
  cluster_->CrashServer(layout.ec_shards[1].server);
  EXPECT_EQ(ReadSync(0, data.size()), data);
  EXPECT_GT(disk_->stats().ec_degraded_reads, 0u);

  // A write to the cold chunk promotes it back BEFORE the ack; the write
  // must be durable in replicated form and every byte correct afterwards.
  auto patch = test::Pattern(64 * kKiB, 22);
  ASSERT_TRUE(WriteSync(128 * kKiB, patch).ok());
  EXPECT_GT(disk_->stats().write_promotes, 0u);
  layout = Layout(0);
  EXPECT_EQ(layout.tier, cluster::ChunkTier::kReplicated);
  EXPECT_TRUE(layout.ec_shards.empty());
  EXPECT_GE(layout.replicas.size(), 3u);
  EXPECT_GE(cluster_->master().tier_stats().write_promotions, 1u);

  auto expected = data;
  std::copy(patch.begin(), patch.end(), expected.begin() + 128 * kKiB);
  EXPECT_EQ(ReadSync(0, expected.size()), expected);
}

TEST_F(TierClusterTest, JournalBacklogAndDivergenceBlockDemotion) {
  Build();
  auto data = test::Pattern(256 * kKiB, 31);
  ASSERT_TRUE(WriteSync(0, data).ok());

  // Backup journals still hold the write: demotion must refuse rather than
  // free a chunk the replayer will write into.
  bool backlog = false;
  for (journal::JournalManager* jm : cluster_->journal_managers()) {
    backlog = backlog || !jm->ReplayDrained();
  }
  if (backlog) {
    Status refused = DemoteSync(Layout(0).chunk);
    EXPECT_FALSE(refused.ok());
  }

  DrainReplay();
  Status after = DemoteSync(Layout(0).chunk);
  EXPECT_TRUE(after.ok()) << after.ToString();
  // Second demotion of the same chunk is refused outright.
  Status again = DemoteSync(Layout(0).chunk);
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists);
}

TEST_F(TierClusterTest, MigrationCompletesUnderAdmissionPressure) {
  Build(/*admission=*/true);
  auto data = test::Pattern(2 * kMiB, 41);  // chunks 0 and 1
  ASSERT_TRUE(WriteSync(0, data).ok());
  DrainReplay();

  // Both demotions race for per-source transfer slots (per_source = 1);
  // admission serializes conflicting transfers but must not wedge either.
  Status s0 = Internal("pending");
  Status s1 = Internal("pending");
  cluster_->master().DemoteChunkToEc(Layout(0).chunk, 4, 2,
                                     [&](const Status& s) { s0 = s; });
  cluster_->master().DemoteChunkToEc(Layout(1).chunk, 4, 2,
                                     [&](const Status& s) { s1 = s; });
  sim_.RunUntil(sim_.Now() + sec(30));
  EXPECT_TRUE(s0.ok()) << s0.ToString();
  EXPECT_TRUE(s1.ok()) << s1.ToString();
  EXPECT_EQ(cluster_->master().tier_stats().demotions, 2u);
  EXPECT_EQ(ReadSync(0, data.size()), data);
}

TEST_F(TierClusterTest, ShardRepairRebuildsLostShardOnNewServer) {
  Build();
  auto data = test::Pattern(1 * kMiB, 51);
  ASSERT_TRUE(WriteSync(0, data).ok());
  DrainReplay();
  ASSERT_TRUE(DemoteSync(Layout(0).chunk).ok());

  cluster::ChunkLayout before = Layout(0);
  cluster::ServerId lost = before.ec_shards[2].server;
  cluster_->CrashServer(lost);

  Status repair = Internal("pending");
  cluster_->master().RepairEcShard(before.chunk, 2, [&](const Status& s) { repair = s; });
  sim_.RunUntil(sim_.Now() + sec(30));
  ASSERT_TRUE(repair.ok()) << repair.ToString();
  EXPECT_GE(cluster_->master().tier_stats().shard_repairs, 1u);

  cluster::ChunkLayout after = Layout(0);
  EXPECT_NE(after.ec_shards[2].server, lost);
  // With the crashed server still down, every byte reads back through the
  // repaired stripe without degraded reconstruction.
  EXPECT_EQ(ReadSync(0, data.size()), data);
  EXPECT_EQ(disk_->stats().ec_degraded_reads, 0u);
}

TEST_F(TierClusterTest, ScrubDetectsAndRepairsCorruptShardRange) {
  Build(/*admission=*/false, /*scrub=*/true);
  auto data = test::Pattern(1 * kMiB, 61);
  ASSERT_TRUE(WriteSync(0, data).ok());
  DrainReplay();
  ASSERT_TRUE(DemoteSync(Layout(0).chunk).ok());

  // Flip a byte at rest in one data shard, behind every CRC-carrying path:
  // only the scrub ledger can notice, and the repair must be a stripe-range
  // reconstruction (there is no second replica of a shard to copy from).
  cluster::ChunkLayout layout = Layout(0);
  const cluster::EcShardRef& victim = layout.ec_shards[1];
  cluster_->master().server(victim.server)->store()->CorruptByte(victim.shard_chunk,
                                                                 8192 + 17, 0x40);

  for (int i = 0; i < 600 && cluster_->master().tier_stats().shard_range_repairs < 1; ++i) {
    sim_.RunUntil(sim_.Now() + msec(10));
  }
  EXPECT_GE(cluster_->scrub_mismatches_reported(), 1u);
  EXPECT_GE(cluster_->master().tier_stats().shard_range_repairs, 1u);
  EXPECT_EQ(cluster_->master().server(victim.server)->scrub_quarantine_size(), 0u);

  EXPECT_EQ(ReadSync(0, data.size()), data);
  EXPECT_EQ(disk_->stats().integrity_errors, 0u);
}

// Leak regression: a finished demotion or promotion holds no reference to
// its `done` callback (the shard read/write pumps used to capture themselves).
TEST_F(TierClusterTest, DemotePromoteRoundTripReleasesDoneCallbacks) {
  Build();
  auto data = test::Pattern(1 * kMiB, 71);
  ASSERT_TRUE(WriteSync(0, data).ok());
  DrainReplay();
  const storage::ChunkId chunk = Layout(0).chunk;

  auto sentinel = std::make_shared<int>(0);
  std::weak_ptr<int> watch = sentinel;
  Status demote = Internal("pending");
  Status promote = Internal("pending");
  cluster_->master().DemoteChunkToEc(chunk, 4, 2,
                                     [&demote, sentinel](const Status& s) { demote = s; });
  sim_.RunUntil(sim_.Now() + sec(30));
  ASSERT_TRUE(demote.ok()) << demote.ToString();
  cluster_->master().PromoteChunk(chunk, /*write_triggered=*/false,
                                  [&promote, sentinel](const Status& s) { promote = s; });
  sentinel.reset();
  sim_.RunUntil(sim_.Now() + sec(30));
  ASSERT_TRUE(promote.ok()) << promote.ToString();
  EXPECT_EQ(Layout(0).tier, cluster::ChunkTier::kReplicated);
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(ReadSync(0, data.size()), data);
}

// QoS backpressure on an EC write leg: each shard's write pump stops issuing
// pieces once its target's gate reports the class past its high watermark,
// and the demotion completes after the class drains.
TEST_F(TierClusterTest, ShardWritesPauseAtTargetGateAndResume) {
  Build();
  cluster_->master().set_recovery_piece(64 * kKiB);  // 4 pieces per 256 KiB shard
  cluster_->master().set_recovery_window(1);         // a gate check before each
  auto data = test::Pattern(1 * kMiB, 72);
  ASSERT_TRUE(WriteSync(0, data).ok());
  DrainReplay();

  std::vector<std::unique_ptr<test::TripGate>> gates;
  for (cluster::ServerId s = 0; s < cluster_->master().num_servers(); ++s) {
    gates.push_back(std::make_unique<test::TripGate>(
        &sim_, cluster_->master().server(s)->store()->device(), qos::ServiceClass::kScrub,
        /*trip_after=*/2));
  }
  Status demote = Internal("pending");
  cluster_->master().DemoteChunkToEc(Layout(0).chunk, 4, 2,
                                     [&demote](const Status& s) { demote = s; });
  sim_.RunUntil(sim_.Now() + sec(1));
  EXPECT_EQ(demote.code(), StatusCode::kInternal);  // still pending
  int shard_targets = 0;
  for (const auto& g : gates) {
    if (g->writes() > 0) {
      ++shard_targets;
      EXPECT_EQ(g->writes(), 2u);  // paused at the trip point
      EXPECT_EQ(g->parked(), 1u);
    }
  }
  EXPECT_EQ(shard_targets, 6);

  for (auto& g : gates) {
    g->Open();
  }
  sim_.RunUntil(sim_.Now() + sec(10));
  ASSERT_TRUE(demote.ok()) << demote.ToString();
  for (const auto& g : gates) {
    EXPECT_TRUE(g->writes() == 0 || g->writes() == 4u);
  }
  EXPECT_EQ(ReadSync(0, data.size()), data);
}

// A shard freed under a running demotion fails it: `done` runs exactly once,
// the admission slot comes back, every shard the migration allocated is
// freed, and the chunk stays replicated.
TEST_F(TierClusterTest, FreedShardFailsDemotionOnceAndRollsBack) {
  Build(/*admission=*/true);
  cluster_->master().set_recovery_piece(64 * kKiB);
  cluster_->master().set_recovery_window(1);
  auto data = test::Pattern(1 * kMiB, 73);
  ASSERT_TRUE(WriteSync(0, data).ok());
  DrainReplay();
  storage::ChunkId first_shard = 0;
  for (const cluster::ChunkLayout& l : (*cluster_->master().GetDisk(disk_id_))->chunks) {
    first_shard = std::max(first_shard, l.chunk + 1);
  }

  int calls = 0;
  Status demote = Internal("pending");
  cluster_->master().DemoteChunkToEc(Layout(0).chunk, 4, 2, [&](const Status& s) {
    ++calls;
    demote = s;
  });
  // The shards are allocated once the chunk image is read; free the first
  // one the moment it exists, before any piece reaches it.
  while (!cluster_->master().IsEcShard(first_shard) && sim_.Step(sim_.Now() + sec(1))) {
  }
  ASSERT_TRUE(cluster_->master().IsEcShard(first_shard));
  for (cluster::ServerId s = 0; s < cluster_->master().num_servers(); ++s) {
    if (cluster_->master().server(s)->HasChunk(first_shard)) {
      ASSERT_TRUE(cluster_->master().server(s)->FreeChunk(first_shard).ok());
    }
  }
  sim_.RunUntil(sim_.Now() + sec(30));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(demote.code(), StatusCode::kNotFound) << demote.ToString();
  EXPECT_EQ(cluster_->master().tier_stats().demote_failures, 1u);
  EXPECT_EQ(Layout(0).tier, cluster::ChunkTier::kReplicated);
  scrub::RecoveryAdmission* admission = cluster_->recovery_admission();
  for (cluster::ServerId s = 0; s < cluster_->master().num_servers(); ++s) {
    EXPECT_EQ(admission->InFlight(s), 0) << s;
    for (storage::ChunkId id = first_shard; id < first_shard + 6; ++id) {
      EXPECT_FALSE(cluster_->master().server(s)->HasChunk(id)) << s << " " << id;
    }
  }
  for (storage::ChunkId id = first_shard; id < first_shard + 6; ++id) {
    EXPECT_FALSE(cluster_->master().IsEcShard(id)) << id;
  }
  EXPECT_EQ(ReadSync(0, data.size()), data);
}

}  // namespace
}  // namespace ursa::tier
