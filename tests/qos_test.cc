// Unit tests for the QoS subsystem: token-bucket conformance, weighted DRR
// fairness (classes and tenants), starvation freedom under saturating
// foreground load, and watermark backpressure (ShouldThrottle / WhenReady).
#include <cstring>
#include <vector>

#include "counting_new.h"
#include "gtest/gtest.h"
#include "src/qos/io_scheduler.h"
#include "src/qos/token_bucket.h"
#include "src/sim/simulator.h"
#include "src/storage/mem_device.h"
#include "src/storage/ssd_model.h"
#include "test_util.h"

namespace ursa::qos {
namespace {

using storage::IoRequest;
using storage::IoTag;
using storage::IoType;
using storage::MemDevice;

constexpr uint64_t kCap = 64 * kMiB;

// ---- TokenBucket ----

TEST(TokenBucketTest, ZeroRateIsUnlimited) {
  TokenBucket b(0, 16);
  EXPECT_TRUE(b.unlimited());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(b.TryConsume(1e9, 0));
  }
  EXPECT_EQ(b.DelayFor(1e12, 0), 0);
}

TEST(TokenBucketTest, BurstThenRefill) {
  TokenBucket b(/*tokens_per_sec=*/1000.0, /*burst=*/100.0);
  // The full burst is available immediately.
  EXPECT_TRUE(b.TryConsume(100.0, 0));
  EXPECT_FALSE(b.TryConsume(1.0, 0));
  // 10 tokens refill in 10 ms at 1000/s.
  EXPECT_FALSE(b.TryConsume(11.0, msec(10)));
  EXPECT_TRUE(b.TryConsume(10.0, msec(10)));
  // Tokens never exceed the burst.
  EXPECT_FALSE(b.TryConsume(101.0, sec(60)));
  EXPECT_TRUE(b.TryConsume(100.0, sec(60)));
}

TEST(TokenBucketTest, DelayForPredictsAvailability) {
  TokenBucket b(1000.0, 100.0);
  ASSERT_TRUE(b.TryConsume(100.0, 0));
  Nanos d = b.DelayFor(50.0, 0);
  // 50 tokens at 1000/s = 50 ms (+1 ns rounding guard).
  EXPECT_GE(d, msec(50));
  EXPECT_LE(d, msec(50) + usec(1));
  EXPECT_TRUE(b.TryConsume(50.0, d));
}

TEST(TokenBucketTest, OversizedRequestChargedAsFullBurst) {
  TokenBucket b(1000.0, 100.0);
  ASSERT_TRUE(b.TryConsume(100.0, 0));
  // A request larger than the burst must still get a finite wait.
  Nanos d = b.DelayFor(1e9, 0);
  EXPECT_GE(d, msec(100));
  EXPECT_LE(d, msec(100) + usec(1));
}

// ---- Scheduler conformance: per-class byte rate limits ----

TEST(IoSchedulerTest, ClassRateLimitShapesThroughput) {
  sim::Simulator sim;
  MemDevice dev(&sim, kCap);
  QosConfig config;
  config.enabled = true;
  // Replay limited to 1 MiB/s with a 64 KiB burst.
  config.MutableParams(ServiceClass::kJournalReplay).rate_bytes_per_sec = 1.0 * kMiB;
  config.MutableParams(ServiceClass::kJournalReplay).burst_bytes = 64 * kKiB;
  IoScheduler sched(&sim, &dev, config, /*device_depth=*/8, "dev");

  constexpr int kN = 256;  // 256 x 4 KiB = 1 MiB total
  int completed = 0;
  Nanos last_done = 0;
  for (int i = 0; i < kN; ++i) {
    dev.Submit(test::MakeWrite(
        static_cast<uint64_t>(i) * 4 * kKiB, 4 * kKiB, {},
        [&](const Status& s) {
          ASSERT_TRUE(s.ok());
          ++completed;
          last_done = sim.Now();
        },
        IoTag{ServiceClass::kJournalReplay, 0}));
  }
  sim.RunToCompletion();
  ASSERT_EQ(completed, kN);
  // 1 MiB at 1 MiB/s minus the 64 KiB burst -> ~0.94 s on an instant device.
  double elapsed_sec = static_cast<double>(last_done) / 1e9;
  EXPECT_GT(elapsed_sec, 0.80);
  EXPECT_LT(elapsed_sec, 1.10);
  EXPECT_GT(sched.throttle_deferrals(ServiceClass::kJournalReplay), 0u);
}

// ---- Weighted DRR fairness across classes within a tier ----

TEST(IoSchedulerTest, ClassWeightsSplitBandwidthWithinTier) {
  sim::Simulator sim;
  MemDevice dev(&sim, kCap);
  QosConfig config;
  config.enabled = true;
  config.MutableParams(ServiceClass::kJournalReplay).weight = 3.0;
  config.MutableParams(ServiceClass::kRecovery).weight = 1.0;
  IoScheduler sched(&sim, &dev, config, /*device_depth=*/1, "dev");

  // Saturate both background classes; stop sampling at 256 total dispatches
  // (both still backlogged), where DRR must have split service ~3:1.
  constexpr int kN = 600;
  int replay_served = 0;
  int recovery_served = 0;
  int replay_at_sample = -1;
  int recovery_at_sample = -1;
  auto sample = [&]() {
    if (replay_served + recovery_served == 256) {
      replay_at_sample = replay_served;
      recovery_at_sample = recovery_served;
    }
  };
  for (int i = 0; i < kN; ++i) {
    dev.Submit(test::MakeWrite(
        static_cast<uint64_t>(i) * 4 * kKiB, 4 * kKiB, {},
        [&](const Status&) {
          ++replay_served;
          sample();
        },
        IoTag{ServiceClass::kJournalReplay, 0}));
    dev.Submit(test::MakeWrite(
        (kN + static_cast<uint64_t>(i)) * 4 * kKiB, 4 * kKiB, {},
        [&](const Status&) {
          ++recovery_served;
          sample();
        },
        IoTag{ServiceClass::kRecovery, 0}));
  }
  sim.RunToCompletion();
  ASSERT_EQ(replay_served, kN);
  ASSERT_EQ(recovery_served, kN);
  ASSERT_GT(replay_at_sample, 0);
  ASSERT_GT(recovery_at_sample, 0);
  // DRR serves in quantum-sized bursts, so allow a generous band around 3:1.
  double ratio = static_cast<double>(replay_at_sample) / recovery_at_sample;
  EXPECT_GT(ratio, 2.0) << replay_at_sample << ":" << recovery_at_sample;
  EXPECT_LT(ratio, 4.5) << replay_at_sample << ":" << recovery_at_sample;
}

// ---- Tenant fairness within a class ----

TEST(IoSchedulerTest, TenantsShareAClassFairly) {
  sim::Simulator sim;
  MemDevice dev(&sim, kCap);
  QosConfig config;
  config.enabled = true;
  IoScheduler sched(&sim, &dev, config, /*device_depth=*/1, "dev");

  // Tenant 1 enqueues its entire burst first; tenant 2's requests arrive
  // behind it. Tenant DRR must interleave them instead of serving tenant 1
  // to completion (simple FIFO would finish all of tenant 1 first).
  constexpr int kN = 100;
  int t1_served = 0;
  int t2_served = 0;
  int t1_at_sample = -1;
  auto sample = [&]() {
    if (t1_served + t2_served == kN) {
      t1_at_sample = t1_served;
    }
  };
  for (int i = 0; i < kN; ++i) {
    dev.Submit(test::MakeWrite(
        static_cast<uint64_t>(i) * 4 * kKiB, 4 * kKiB, {},
        [&](const Status&) {
          ++t1_served;
          sample();
        },
        IoTag{ServiceClass::kForegroundWrite, 1}));
  }
  for (int i = 0; i < kN; ++i) {
    dev.Submit(test::MakeWrite(
        (kN + static_cast<uint64_t>(i)) * 4 * kKiB, 4 * kKiB, {},
        [&](const Status&) {
          ++t2_served;
          sample();
        },
        IoTag{ServiceClass::kForegroundWrite, 2}));
  }
  sim.RunToCompletion();
  ASSERT_EQ(t1_served, kN);
  ASSERT_EQ(t2_served, kN);
  // At the halfway point each tenant has close to half the service (within
  // one 64 KiB quantum = 16 requests of slack).
  EXPECT_GT(t1_at_sample, kN / 2 - 17);
  EXPECT_LT(t1_at_sample, kN / 2 + 17);
}

// ---- Foreground priority and starvation freedom ----

TEST(IoSchedulerTest, ForegroundPreemptsBackgroundButNeverStarvesIt) {
  sim::Simulator sim;
  MemDevice dev(&sim, kCap);
  QosConfig config;
  config.enabled = true;
  config.background_slot_every = 16;
  IoScheduler sched(&sim, &dev, config, /*device_depth=*/1, "dev");

  constexpr int kFg = 320;
  constexpr int kBg = 40;
  int fg_served = 0;
  int bg_served = 0;
  int bg_before_fg_done = 0;
  for (int i = 0; i < kBg; ++i) {
    dev.Submit(test::MakeWrite(
        static_cast<uint64_t>(i) * 4 * kKiB, 4 * kKiB, {},
        [&](const Status&) {
          ++bg_served;
          if (fg_served < kFg) {
            ++bg_before_fg_done;
          }
        },
        IoTag{ServiceClass::kRecovery, 0}));
  }
  for (int i = 0; i < kFg; ++i) {
    dev.Submit(test::MakeWrite(
        (kBg + static_cast<uint64_t>(i)) * 4 * kKiB, 4 * kKiB, {},
        [&](const Status&) { ++fg_served; },
        IoTag{ServiceClass::kForegroundRead, 1}));
  }
  sim.RunToCompletion();
  ASSERT_EQ(fg_served, kFg);
  ASSERT_EQ(bg_served, kBg);
  // Foreground bypassed waiting background work...
  EXPECT_GT(sched.preemptions(), 0u);
  // ...but the starvation guard granted background slots while foreground
  // was still backlogged: roughly one per `background_slot_every` foreground
  // dispatches.
  EXPECT_GT(sched.bg_grants(), 0u);
  EXPECT_GT(bg_before_fg_done, kFg / 16 / 2);
}

// ---- Watermark backpressure ----

TEST(IoSchedulerTest, WatermarkBackpressurePausesAndResumes) {
  sim::Simulator sim;
  MemDevice dev(&sim, kCap);
  QosConfig config;
  config.enabled = true;
  config.MutableParams(ServiceClass::kJournalReplay).high_watermark = 8;
  config.MutableParams(ServiceClass::kJournalReplay).low_watermark = 2;
  IoScheduler sched(&sim, &dev, config, /*device_depth=*/2, "dev");

  // Wedge the device so the replay queue builds: requests are admitted but
  // held (gray failure), so nothing completes and Pump stalls at depth.
  dev.SetFault(storage::DeviceFault{0, /*stuck=*/true});
  int completed = 0;
  for (int i = 0; i < 12; ++i) {
    dev.Submit(test::MakeWrite(
        static_cast<uint64_t>(i) * 4 * kKiB, 4 * kKiB, {},
        [&](const Status&) { ++completed; },
        IoTag{ServiceClass::kJournalReplay, 0}));
  }
  sim.RunUntil(msec(1));
  EXPECT_EQ(completed, 0);
  // 2 admitted into the stuck device, 10 queued >= high watermark.
  EXPECT_GE(sched.queued(ServiceClass::kJournalReplay), 8u);
  EXPECT_TRUE(sched.ShouldThrottle(ServiceClass::kJournalReplay));
  EXPECT_FALSE(sched.ShouldThrottle(ServiceClass::kForegroundRead));

  bool ready_fired = false;
  size_t queued_at_fire = 999;
  sched.WhenReady(ServiceClass::kJournalReplay, [&]() {
    ready_fired = true;
    queued_at_fire = sched.queued(ServiceClass::kJournalReplay);
  });
  sim.RunUntil(msec(2));
  EXPECT_FALSE(ready_fired);  // still above the low watermark

  dev.ClearFault();  // heal: held requests complete, the queue drains
  sim.RunToCompletion();
  EXPECT_EQ(completed, 12);
  EXPECT_TRUE(ready_fired);
  EXPECT_LE(queued_at_fire, 2u);  // fired at (or below) the low watermark
  EXPECT_FALSE(sched.ShouldThrottle(ServiceClass::kJournalReplay));
}

TEST(IoSchedulerTest, WhenReadyBelowLowWatermarkFiresImmediately) {
  sim::Simulator sim;
  MemDevice dev(&sim, kCap);
  QosConfig config;
  config.enabled = true;
  IoScheduler sched(&sim, &dev, config, 4, "dev");
  bool fired = false;
  sched.WhenReady(ServiceClass::kRecovery, [&]() { fired = true; });
  sim.RunToCompletion();
  EXPECT_TRUE(fired);
}

// ---- Data integrity through the gate ----

TEST(IoSchedulerTest, GatedWritesKeepSubmissionOrderVisibility) {
  sim::Simulator sim;
  MemDevice dev(&sim, kCap);
  QosConfig config;
  config.enabled = true;
  IoScheduler sched(&sim, &dev, config, 1, "dev");

  // Two writes to the same offset from different classes: the scheduler may
  // reorder their *timing*, but the payload visible afterwards must be the
  // later submission's (payloads apply eagerly at Submit).
  std::vector<uint8_t> first(4096, 0xAA);
  std::vector<uint8_t> second(4096, 0xBB);
  int done = 0;
  dev.Submit(test::MakeWrite(0, 4096, Buffer::CopyOf(first.data(), first.size()),
                             [&](const Status&) { ++done; }, IoTag{ServiceClass::kScrub, 0}));
  dev.Submit(test::MakeWrite(0, 4096, Buffer::CopyOf(second.data(), second.size()),
                             [&](const Status&) { ++done; },
                             IoTag{ServiceClass::kForegroundWrite, 0}));
  sim.RunToCompletion();
  ASSERT_EQ(done, 2);
  EXPECT_EQ(test::Bytes(dev.ReadSync(0, 4096)), second);
}

// ---- Allocation-free device path ----

// Closed-loop 4 KiB reads and writes from two tenants at queue depth 16
// through a scheduler on an SsdModel: more requests than the device depth,
// so tenant queues fill, empty, get pruned and come back. Once the pools
// and queues have grown, an I/O allocates nothing — the SsdModel's per-I/O
// record, the tenant queues and the dispatch completions are all pooled.
class SsdLoop {
 public:
  SsdLoop() : ssd_(&sim_, storage::SsdParams{}), sched_(&sim_, &ssd_, Config(), 4, "ssd") {}

  // Runs `ops` I/Os to completion at queue depth 16.
  void Run(int ops) {
    target_ = issued_ + ops;
    for (int i = 0; i < 16; ++i) {
      Issue();
    }
    sim_.RunToCompletion();
  }
  int completed() const { return completed_; }

 private:
  static QosConfig Config() {
    QosConfig config;
    config.enabled = true;
    return config;
  }

  void Issue() {
    IoRequest req;
    req.type = issued_ % 2 == 0 ? IoType::kRead : IoType::kWrite;
    req.offset = (static_cast<uint64_t>(issued_) * 7919 % 4096) * 4096;
    req.length = 4096;
    req.out_view = req.type == IoType::kRead ? &out_ : nullptr;
    req.tag.tenant = 1 + issued_ % 4 / 2;
    req.done = [this](const Status&) {
      ++completed_;
      if (issued_ < target_) {
        Issue();
      }
    };
    ++issued_;
    ssd_.Submit(std::move(req));
  }

  sim::Simulator sim_;
  storage::SsdModel ssd_;
  IoScheduler sched_;
  BufferView out_;
  int issued_ = 0;
  int target_ = 0;
  int completed_ = 0;
};

TEST(IoSchedulerTest, SteadyStateSsdIoAllocatesNothing) {
  SsdLoop loop;
  loop.Run(2000);  // warm-up: pools, queues and the event heap grow
  const uint64_t before = test::HeapAllocations();
  loop.Run(4000);
  const uint64_t allocations = test::HeapAllocations() - before;
  EXPECT_EQ(loop.completed(), 6000);
  EXPECT_EQ(allocations, 0u) << "heap allocations in 4000 steady-state I/Os";
}

}  // namespace
}  // namespace ursa::qos
