// Randomized tier state-machine harness (DESIGN.md §13.6).
//
// Each seed drives a live simulated cluster — tiering enabled, write
// promotions speculative (open) or blocking (closed) — through a random
// interleaving of:
//
//   * client writes (applied to a reference byte model at ack time)
//   * read-verify (byte-exact against the model, in whatever tier/degraded
//     state the chunk happens to be in)
//   * forced demotions to EC and forced background promotions
//   * EC shard repairs
//   * chunk-server crashes and delayed restores (at most one server down)
//   * master crash modeled as checkpoint-at-crash-instant + Restore
//   * idle time (heat decays; the migrator demotes/promotes on its own)
//
// After the event budget the cluster is healed and quiesced, and the seed
// asserts convergence: no chunk left speculating, every layout a clean
// replicated set or a full k+m stripe, and a full-disk read-back that is
// byte-exact against the model. 200 seeds per promotion mode; any
// interleaving that loses an acked byte or wedges a promotion fails its seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include "src/client/virtual_disk.h"
#include "src/sim/simulator.h"
#include "test_util.h"

namespace ursa::tier {
namespace {

constexpr uint64_t kDiskSize = 2 * kMiB;  // two 1 MiB chunks
constexpr int kEventsPerSeed = 30;

struct SeedTotals {
  uint64_t spec_promotions = 0;
  uint64_t write_promotions = 0;
  uint64_t demotions = 0;
  uint64_t spec_resumes = 0;
};

class TierModelHarness {
 public:
  TierModelHarness(uint64_t seed, bool speculative) : rng_(seed) {
    cluster::ClusterConfig config = test::SmallClusterConfig();
    config.tier.enabled = true;
    config.tier.heat_half_life = msec(500);
    config.tier.scan_interval = msec(100);
    config.tier.demote_max_heat = 2.0;
    config.tier.cold_age = msec(300);
    config.tier.promote_heat = 50.0;
    config.tier.speculative_promote = speculative;
    cluster_ = std::make_unique<cluster::Cluster>(&sim_, config);
    cluster_->master().set_migration_timeout(msec(500));
    cluster_->master().set_spec_retry_delay(msec(25));
    disk_id_ = *cluster_->master().CreateDisk("model", kDiskSize, 3, 1);
    client::VirtualDiskClientOptions options;
    options.request_timeout = msec(300);
    disk_ = std::make_unique<client::VirtualDisk>(cluster_.get(),
                                                  cluster_->AddClientMachine(), 1, options);
    Status open = disk_->Open(disk_id_);
    EXPECT_TRUE(open.ok()) << open.ToString();
    model_.assign(kDiskSize, 0);
  }

  void Run() {
    // Baseline image so every later partial write lands on known bytes.
    std::vector<uint8_t> init = test::Pattern(kDiskSize, rng_());
    WriteChecked(0, init);
    if (HasFailure()) {
      return;
    }
    for (int ev = 0; ev < kEventsPerSeed && !HasFailure(); ++ev) {
      Step();
      sim_.RunUntil(sim_.Now() + rng_() % msec(50));
    }
    if (!HasFailure()) {
      Converge();
    }
  }

  SeedTotals totals() const {
    const cluster::TierStats& t = cluster_->master().tier_stats();
    return SeedTotals{t.spec_promotions, t.write_promotions, t.demotions, t.spec_resumes};
  }

 private:
  static bool HasFailure() { return ::testing::Test::HasFailure(); }

  // Client I/O is sector-granular (journal::kSector = 512).
  static uint64_t AlignLen(uint64_t v) { return std::max<uint64_t>(v & ~uint64_t{511}, 512); }
  static uint64_t AlignOff(uint64_t v) { return v & ~uint64_t{511}; }

  cluster::ChunkLayout Layout(size_t index) {
    return (*cluster_->master().GetDisk(disk_id_))->chunks[index];
  }
  size_t NumChunks() { return (*cluster_->master().GetDisk(disk_id_))->chunks.size(); }

  // Runs the sim in small steps until `done` flips, bounded so a wedged
  // operation fails the seed instead of hanging the suite.
  void StepUntil(const bool& done, Nanos bound = sec(30)) {
    Nanos deadline = sim_.Now() + bound;
    while (!done && sim_.Now() < deadline) {
      sim_.RunUntil(sim_.Now() + msec(5));
    }
    EXPECT_TRUE(done) << "operation never completed";
  }

  void WriteChecked(uint64_t offset, const std::vector<uint8_t>& data) {
    bool finished = false;
    Status status = Internal("pending");
    disk_->Write(offset, data.size(), test::Payload(data), [&](const Status& s) {
      status = s;
      finished = true;
    });
    StepUntil(finished);
    // At most one server is ever down, so a quorum is always reachable and
    // every write must eventually ack; the model adopts the bytes at ack.
    ASSERT_TRUE(status.ok()) << "write failed: " << status.ToString();
    std::copy(data.begin(), data.end(), model_.begin() + offset);
  }

  void ReadVerify(uint64_t offset, uint64_t length) {
    std::vector<uint8_t> out(length, 0xCD);
    bool finished = false;
    Status status = Internal("pending");
    disk_->Read(offset, length, out.data(), [&](const Status& s) {
      status = s;
      finished = true;
    });
    StepUntil(finished);
    ASSERT_TRUE(status.ok()) << "read failed: " << status.ToString();
    ASSERT_TRUE(std::equal(out.begin(), out.end(), model_.begin() + offset))
        << "read-back diverged from model at offset " << offset << " len " << length;
  }

  void Step() {
    uint64_t pick = rng_() % 100;
    if (pick < 32) {
      // Sector-aligned like the virtio/NBD front end guarantees.
      uint64_t len = AlignLen(1 + rng_() % (64 * kKiB));
      uint64_t offset = AlignOff(rng_() % (kDiskSize - len));
      WriteChecked(offset, test::Pattern(len, rng_()));
    } else if (pick < 55) {
      uint64_t len = AlignLen(1 + rng_() % (256 * kKiB));
      uint64_t offset = AlignOff(rng_() % (kDiskSize - len));
      ReadVerify(offset, len);
    } else if (pick < 67) {
      // Forced demotion; refusals (already EC, replay backlog, mid-spec,
      // server down) are legitimate interleavings and deliberately ignored.
      cluster_->master().DemoteChunkToEc(Layout(rng_() % NumChunks()).chunk, 4, 2,
                                         [](const Status&) {});
    } else if (pick < 75) {
      cluster_->master().PromoteChunk(Layout(rng_() % NumChunks()).chunk, [](const Status&) {});
    } else if (pick < 82) {
      // Repair a random shard of a random EC chunk, fire-and-forget so the
      // repair overlaps whatever comes next.
      for (size_t attempt = 0; attempt < NumChunks(); ++attempt) {
        cluster::ChunkLayout layout = Layout(rng_() % NumChunks());
        if (layout.tier == cluster::ChunkTier::kEc && !layout.ec_shards.empty()) {
          cluster_->master().RepairEcShard(
              layout.chunk, static_cast<int>(rng_() % layout.ec_shards.size()),
              [](const Status&) {});
          break;
        }
      }
    } else if (pick < 90) {
      // Crash/restore toggle, never more than one server down at a time —
      // quorums stay reachable so acked writes remain the source of truth.
      if (crashed_ < 0) {
        crashed_ = static_cast<int>(rng_() % cluster_->master().num_servers());
        cluster_->CrashServer(static_cast<cluster::ServerId>(crashed_));
      } else {
        cluster_->RestoreServer(static_cast<cluster::ServerId>(crashed_));
        crashed_ = -1;
      }
    } else if (pick < 95) {
      // Master crash: the metadata state at the crash instant (including
      // spec_replicas/spec_extents of in-flight speculations) is what the
      // restarted master recovers; in-flight back-fill passes die and must
      // be re-armed by Restore.
      cluster::Master::Checkpoint cp = cluster_->master().TakeCheckpoint();
      cluster_->master().Restore(cp);
    } else {
      sim_.RunUntil(sim_.Now() + msec(100) + rng_() % msec(400));
    }
  }

  void Converge() {
    if (crashed_ >= 0) {
      cluster_->RestoreServer(static_cast<cluster::ServerId>(crashed_));
      crashed_ = -1;
    }
    // Quiesce: open promotions retry without bound, so with every server
    // back all back-fills must drain and commit (or, closed, roll back).
    Nanos deadline = sim_.Now() + sec(60);
    while (sim_.Now() < deadline) {
      bool busy = false;
      for (size_t i = 0; i < NumChunks(); ++i) {
        busy = busy || Layout(i).speculating();
      }
      if (!busy) {
        break;
      }
      sim_.RunUntil(sim_.Now() + msec(20));
    }
    sim_.RunUntil(sim_.Now() + msec(500));  // let trailing commits settle

    for (size_t i = 0; i < NumChunks(); ++i) {
      cluster::ChunkLayout layout = Layout(i);
      ASSERT_FALSE(layout.speculating()) << "chunk " << layout.chunk << " wedged mid-spec";
      if (layout.tier == cluster::ChunkTier::kReplicated) {
        ASSERT_FALSE(layout.replicas.empty());
        ASSERT_TRUE(layout.ec_shards.empty());
      } else {
        ASSERT_EQ(layout.ec_shards.size(), 6u);  // k+m = 4+2
        ASSERT_TRUE(layout.replicas.empty());
      }
    }
    ReadVerify(0, kDiskSize);
  }

  sim::Simulator sim_;
  std::mt19937_64 rng_;
  std::unique_ptr<cluster::Cluster> cluster_;
  cluster::DiskId disk_id_ = 0;
  std::unique_ptr<client::VirtualDisk> disk_;
  std::vector<uint8_t> model_;
  int crashed_ = -1;
};

SeedTotals Sweep(bool speculative) {
  SeedTotals sum;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    TierModelHarness harness(seed, speculative);
    harness.Run();
    EXPECT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
    if (::testing::Test::HasFailure()) {
      break;
    }
    SeedTotals t = harness.totals();
    sum.spec_promotions += t.spec_promotions;
    sum.write_promotions += t.write_promotions;
    sum.demotions += t.demotions;
    sum.spec_resumes += t.spec_resumes;
  }
  return sum;
}

TEST(TierModelTest, RandomizedInterleavingsConvergeByteExact) {
  SeedTotals sum = Sweep(/*speculative=*/true);
  ASSERT_FALSE(::testing::Test::HasFailure());
  // The sweep must actually exercise the machinery it claims to test: the
  // speculative fast path, plain write-promotions, demotions, and at least
  // one back-fill resumed across a master crash.
  EXPECT_GT(sum.spec_promotions, 0u);
  EXPECT_GT(sum.write_promotions, 0u);
  EXPECT_GT(sum.demotions, 0u);
  EXPECT_GT(sum.spec_resumes, 0u);
}

// The same interleavings with blocking write promotions: every promotion is
// closed, and still runs through the one promotion engine.
TEST(TierModelTest, BlockingPromotionInterleavingsConvergeByteExact) {
  SeedTotals sum = Sweep(/*speculative=*/false);
  ASSERT_FALSE(::testing::Test::HasFailure());
  EXPECT_EQ(sum.spec_promotions, 0u);
  EXPECT_GT(sum.write_promotions, 0u);
  EXPECT_GT(sum.demotions, 0u);
  EXPECT_GT(sum.spec_resumes, 0u);
}

}  // namespace
}  // namespace ursa::tier
