// Unit tests for device models and the chunk store.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/rng.h"
#include "src/sim/simulator.h"
#include "src/storage/chunk_store.h"
#include "src/storage/hdd_model.h"
#include "src/storage/mem_device.h"
#include "src/storage/ssd_model.h"
#include "test_util.h"

namespace ursa::storage {
namespace {

TEST(PageStoreTest, ZeroFillAndRoundTrip) {
  PageStore store;
  EXPECT_EQ(test::Bytes(store.ReadView(5000, 100)), std::vector<uint8_t>(100, 0));
  auto data = test::Pattern(10000, 1);
  store.Write(12345, test::Payload(data));
  EXPECT_EQ(test::Bytes(store.ReadView(12345, 10000)), data);
}

TEST(PageStoreTest, PartialOverwrite) {
  PageStore store;
  auto a = test::Pattern(8192, 2);
  auto b = test::Pattern(100, 3);
  store.Write(0, test::Payload(a));
  store.Write(4000, test::Payload(b));
  std::vector<uint8_t> back = test::Bytes(store.ReadView(0, 8192));
  for (size_t i = 0; i < 4000; ++i) {
    EXPECT_EQ(back[i], a[i]);
  }
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(back[4000 + i], b[i]);
  }
  for (size_t i = 4100; i < 8192; ++i) {
    EXPECT_EQ(back[i], a[i]);
  }
}

// Model-based: random owned, un-owned, scatter (with zero segments) and
// zeroing writes at unaligned offsets, so overwrites trim, split and swallow
// extents; every read — plain or zero-copy, across gaps or not — must match
// a flat byte array.
TEST(PageStoreTest, MatchesFlatModelUnderRandomWrites) {
  constexpr uint64_t kSpace = 64 * kKiB;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    PageStore store;
    std::vector<uint8_t> model(kSpace, 0);
    auto random_bytes = [&rng](uint64_t n) {
      std::vector<uint8_t> v(n);
      for (auto& b : v) {
        b = static_cast<uint8_t>(rng.Uniform(256));
      }
      return v;
    };
    for (int step = 0; step < 400; ++step) {
      uint64_t off = rng.Uniform(kSpace - 1);
      uint64_t len = 1 + rng.Uniform(std::min<uint64_t>(kSpace - off, 3 * kKiB));
      switch (rng.Uniform(5)) {
        case 0: {  // owned, as a slice from the middle of a larger Buffer
          std::vector<uint8_t> bytes = random_bytes(len + 64);
          Buffer buf = Buffer::CopyOf(bytes.data(), bytes.size());
          store.Write(off, buf.View(32, len));
          std::copy_n(bytes.begin() + 32, len, model.begin() + static_cast<ptrdiff_t>(off));
          break;
        }
        case 1: {  // a whole Buffer, whose caller lets go of it right after
          std::vector<uint8_t> bytes = random_bytes(len);
          store.Write(off, test::Payload(bytes));
          std::copy(bytes.begin(), bytes.end(), model.begin() + static_cast<ptrdiff_t>(off));
          break;
        }
        case 2: {  // scatter: data, zeros, data
          uint64_t a = rng.Uniform(len + 1);
          uint64_t b = a + rng.Uniform(len - a + 1);
          std::vector<uint8_t> head = random_bytes(a);
          std::vector<uint8_t> tail = random_bytes(len - b);
          IoRequest req;
          req.type = IoType::kWrite;
          req.offset = off;
          req.length = len;
          req.scatter = {IoSegment{Buffer::CopyOf(head.data(), a).View(), a},
                         IoSegment{BufferView(), b - a},
                         IoSegment{test::Payload(tail), len - b}};
          ApplyWritePayload(store, req);
          auto at = model.begin() + static_cast<ptrdiff_t>(off);
          std::copy(head.begin(), head.end(), at);
          std::fill(at + static_cast<ptrdiff_t>(a), at + static_cast<ptrdiff_t>(b), uint8_t{0});
          std::copy(tail.begin(), tail.end(), at + static_cast<ptrdiff_t>(b));
          break;
        }
        case 3:
          store.WriteZeros(off, len);
          std::fill_n(model.begin() + static_cast<ptrdiff_t>(off), len, uint8_t{0});
          break;
        default: {
          BufferView view = store.ReadView(off, len);
          ASSERT_EQ(view.size(), len);
          ASSERT_TRUE(std::equal(view.data(), view.data() + len,
                                 model.begin() + static_cast<ptrdiff_t>(off)))
              << "seed " << seed << " step " << step;
          break;
        }
      }
    }
    EXPECT_EQ(test::Bytes(store.ReadView(0, kSpace)), model) << "seed " << seed;
  }
}

TEST(PageStoreTest, FullyOverwrittenPayloadIsReleased) {
  PageStore store;
  auto bytes = test::Pattern(8192, 5);
  Buffer payload = Buffer::CopyOf(bytes.data(), bytes.size());
  store.Write(0, payload.View());
  EXPECT_EQ(payload.use_count(), 2);  // shared, not copied
  // A write inside the extent splits it: both remainders slice the payload.
  store.Write(1000, test::Payload(test::Pattern(100, 6)));
  EXPECT_EQ(payload.use_count(), 3);
  EXPECT_EQ(store.extent_count(), 3u);
  store.WriteZeros(0, 1000);
  EXPECT_EQ(payload.use_count(), 2);
  store.Write(1100, Buffer::CopyOf(bytes.data(), 8192 - 1100).View());
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(PageStoreTest, SharedBytesOutliveTheWritersBuffer) {
  PageStore store;
  auto bytes = test::Pattern(4096, 7);
  {
    Buffer payload = Buffer::CopyOf(bytes.data(), bytes.size());
    store.Write(512, payload.View());
  }
  EXPECT_EQ(test::Bytes(store.ReadView(512, 4096)), bytes);
}

TEST(PageStoreTest, ReadViewSharesOneExtentAndCopiesAcrossEdges) {
  PageStore store;
  auto bytes = test::Pattern(4096, 8);
  Buffer payload = Buffer::CopyOf(bytes.data(), bytes.size());
  store.Write(0, payload.View());
  BufferView inside = store.ReadView(100, 1000);
  EXPECT_EQ(inside.data(), payload.data() + 100);
  BufferView across = store.ReadView(4000, 200);  // extent tail + gap
  ASSERT_EQ(across.size(), 200u);
  EXPECT_NE(across.data(), payload.data() + 4000);
  EXPECT_TRUE(std::equal(across.data(), across.data() + 96, bytes.begin() + 4000));
  EXPECT_TRUE(
      std::all_of(across.data() + 96, across.data() + 200, [](uint8_t b) { return b == 0; }));
}

// One payload written through two chunk stores is resident once; a bit flip
// injected on one device is copy-on-write and leaves the other device (and
// the payload itself) byte-exact.
TEST(ChunkStoreTest, CorruptByteLeavesSharingPeerIntact) {
  sim::Simulator sim;
  MemDevice dev_a(&sim, 4 * kMiB);
  MemDevice dev_b(&sim, 4 * kMiB);
  ChunkStore a(&dev_a, 1 * kMiB);
  ChunkStore b(&dev_b, 1 * kMiB);
  ASSERT_TRUE(a.Allocate(1).ok());
  ASSERT_TRUE(b.Allocate(1).ok());
  auto bytes = test::Pattern(8192, 9);
  Buffer payload = Buffer::CopyOf(bytes.data(), bytes.size());
  a.Write(1, 0, 8192, payload.View(), [](const Status& s) { ASSERT_TRUE(s.ok()); });
  b.Write(1, 0, 8192, payload.View(), [](const Status& s) { ASSERT_TRUE(s.ok()); });
  sim.RunToCompletion();
  EXPECT_EQ(payload.use_count(), 3);

  a.CorruptByte(1, 1234, 0x10);
  sim.RunToCompletion();
  std::vector<uint8_t> got_a = test::Bytes(dev_a.ReadSync(a.SlotOffset(1), 8192));
  std::vector<uint8_t> got_b = test::Bytes(dev_b.ReadSync(b.SlotOffset(1), 8192));
  EXPECT_EQ(got_b, bytes);
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), payload.data()));
  std::vector<uint8_t> expect_a = bytes;
  expect_a[1234] ^= 0x10;
  EXPECT_EQ(got_a, expect_a);
}

// Reorders admission: holds every request, then admits newest first.
class ReversingGate : public IoGate {
 public:
  explicit ReversingGate(BlockDevice* dev) : dev_(dev) {}
  void OnSubmit(IoRequest req) override { held_.push_back(std::move(req)); }
  void Release() {
    while (!held_.empty()) {
      IoRequest req = std::move(held_.back());
      held_.pop_back();
      dev_->Admit(std::move(req));
    }
  }
  const std::vector<IoRequest>& held() const { return held_; }

 private:
  BlockDevice* dev_;
  std::vector<IoRequest> held_;
};

// With a QoS gate attached the device applies write payloads at Submit, so
// bytes become visible in submission order however the gate reorders
// service — and queued requests no longer pin their payloads.
TEST(BlockDeviceTest, GatedWritesApplyInSubmissionOrder) {
  sim::Simulator sim;
  MemDevice dev(&sim, 1 * kMiB);
  ReversingGate gate(&dev);
  dev.SetGate(&gate);
  auto first = test::Pattern(4096, 11);
  auto second = test::Pattern(1024, 12);
  Buffer one = Buffer::CopyOf(first.data(), first.size());
  Buffer two = Buffer::CopyOf(second.data(), second.size());
  int done = 0;
  auto write = [&](uint64_t offset, const Buffer& buf) {
    IoRequest req;
    req.type = IoType::kWrite;
    req.offset = offset;
    req.length = buf.size();
    req.data = buf.View();
    req.done = [&done](const Status& s) { done += s.ok() ? 1 : 0; };
    dev.Submit(std::move(req));
  };
  write(0, one);
  write(1024, two);
  IoRequest zeros;  // scatter of one null segment: zeroes [512, 1024)
  zeros.type = IoType::kWrite;
  zeros.offset = 512;
  zeros.length = 512;
  zeros.scatter = {IoSegment{BufferView(), 512}};
  zeros.done = [&done](const Status& s) { done += s.ok() ? 1 : 0; };
  dev.Submit(std::move(zeros));

  ASSERT_EQ(gate.held().size(), 3u);
  for (const IoRequest& req : gate.held()) {
    EXPECT_FALSE(req.data);
    EXPECT_TRUE(req.scatter.empty());
  }
  EXPECT_EQ(one.use_count(), 3);  // the Buffer + the two remainders of its extent
  gate.Release();
  sim.RunToCompletion();
  EXPECT_EQ(done, 3);

  std::vector<uint8_t> expect = first;
  std::fill(expect.begin() + 512, expect.begin() + 1024, uint8_t{0});
  std::copy(second.begin(), second.end(), expect.begin() + 1024);
  EXPECT_EQ(test::Bytes(dev.ReadSync(0, 4096)), expect);
}

// Writes `bytes` at `offset` through the device and settles it, then clears
// the device's counters: the test starts from a device that holds the bytes.
void Fill(sim::Simulator& sim, MemDevice& dev, uint64_t offset, const std::vector<uint8_t>& bytes) {
  dev.Submit(test::MakeWrite(offset, bytes.size(), test::Payload(bytes), [](const Status&) {}));
  sim.RunToCompletion();
  dev.ResetStats();
}

// Discard drops a range's bytes: later reads return zeros, and the device
// spends no simulated time, schedules no event and counts no I/O for it.
TEST(BlockDeviceTest, DiscardDropsBytesUntimed) {
  sim::Simulator sim;
  MemDevice dev(&sim, 1 * kMiB);
  auto data = test::Pattern(8192, 13);
  Fill(sim, dev, 0, data);
  dev.Discard(1024, 4096);
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_EQ(sim.RunToCompletion(), 0u);
  EXPECT_EQ(dev.stats().reads + dev.stats().writes, 0u);
  std::vector<uint8_t> expect = data;
  std::fill(expect.begin() + 1024, expect.begin() + 5120, uint8_t{0});
  EXPECT_EQ(test::Bytes(dev.ReadSync(0, 8192)), expect);
}

// A read takes its bytes at Submit: one still waiting in the gate returns
// the bytes the device held when it was issued, whatever a later discard or
// write does to the range before the gate admits it.
TEST(BlockDeviceTest, GatedReadKeepsItsBytesAcrossDiscard) {
  sim::Simulator sim;
  MemDevice dev(&sim, 1 * kMiB);
  auto data = test::Pattern(4096, 14);
  Fill(sim, dev, 0, data);
  ReversingGate gate(&dev);
  dev.SetGate(&gate);
  BufferView whole;
  BufferView part;
  int done = 0;
  auto count = [&](const Status& s) { done += s.ok() ? 1 : 0; };
  dev.Submit(test::MakeRead(0, 4096, &whole, count));
  dev.Submit(test::MakeRead(2048, 4096, &part, count));  // assembled: extent tail + zeros
  dev.Discard(0, 4096);
  ASSERT_EQ(gate.held().size(), 2u);
  gate.Release();
  sim.RunToCompletion();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(test::Bytes(whole), data);
  std::vector<uint8_t> tail(data.begin() + 2048, data.end());
  tail.resize(4096, 0);
  EXPECT_EQ(test::Bytes(part), tail);
  EXPECT_EQ(test::Bytes(dev.ReadSync(0, 4096)), std::vector<uint8_t>(4096, 0));
}

// A stuck fault changes only timing: every request moves its bytes at
// Submit, so a discard orders after the requests the fault holds and before
// a write submitted after it, although none has reached the device model.
TEST(BlockDeviceTest, StuckRequestsMoveTheirBytesAtSubmit) {
  sim::Simulator sim;
  MemDevice dev(&sim, 1 * kMiB);
  auto data = test::Pattern(8192, 16);
  auto early = test::Pattern(1024, 17);
  auto late = test::Pattern(1024, 18);
  Fill(sim, dev, 0, data);
  dev.SetFault(DeviceFault{0, true});
  BufferView before;
  BufferView after_early;
  int done = 0;
  auto count = [&](const Status& s) { done += s.ok() ? 1 : 0; };
  dev.Submit(test::MakeRead(0, 8192, &before, count));
  dev.Submit(test::MakeWrite(1024, 1024, test::Payload(early), count));
  dev.Submit(test::MakeRead(0, 8192, &after_early, count));
  dev.Discard(0, 8192);
  dev.Submit(test::MakeWrite(2048, 1024, test::Payload(late), count));
  ASSERT_EQ(dev.held_requests(), 4u);
  EXPECT_EQ(done, 0);
  EXPECT_EQ(test::Bytes(before), data);
  std::vector<uint8_t> expect = data;
  std::copy(early.begin(), early.end(), expect.begin() + 1024);
  EXPECT_EQ(test::Bytes(after_early), expect);
  expect.assign(8192, 0);
  std::copy(late.begin(), late.end(), expect.begin() + 2048);
  EXPECT_EQ(test::Bytes(dev.ReadSync(0, 8192)), expect);

  dev.ClearFault();
  sim.RunToCompletion();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(test::Bytes(dev.ReadSync(0, 8192)), expect);
}

TEST(MemDeviceTest, AsyncCompletionCarriesData) {
  sim::Simulator sim;
  MemDevice dev(&sim, 1 * kMiB, usec(10));
  auto data = test::Pattern(4096, 4);
  bool wrote = false;
  dev.Submit(
      test::MakeWrite(0, 4096, test::Payload(data), [&](const Status& s) { wrote = s.ok(); }));
  sim.RunToCompletion();
  EXPECT_TRUE(wrote);
  EXPECT_EQ(sim.Now(), usec(10));

  BufferView out;
  bool read = false;
  dev.Submit(test::MakeRead(0, 4096, &out, [&](const Status& s) { read = s.ok(); }));
  sim.RunToCompletion();
  EXPECT_TRUE(read);
  EXPECT_EQ(test::Bytes(out), data);
}

TEST(MemDeviceTest, FailureInjection) {
  sim::Simulator sim;
  MemDevice dev(&sim, 1 * kMiB);
  dev.FailNext(1);
  Status first;
  Status second;
  dev.Submit(test::MakeRead(0, 512, nullptr, [&](const Status& s) { first = s; }));
  dev.Submit(test::MakeRead(0, 512, nullptr, [&](const Status& s) { second = s; }));
  sim.RunToCompletion();
  EXPECT_EQ(first.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(second.ok());
}

TEST(MemDeviceTest, StatsTracking) {
  sim::Simulator sim;
  MemDevice dev(&sim, 1 * kMiB);
  dev.Submit(test::MakeRead(0, 4096, nullptr, [](const Status&) {}));
  dev.Submit(test::MakeWrite(0, 8192, {}, [](const Status&) {}));
  sim.RunToCompletion();
  EXPECT_EQ(dev.stats().reads, 1u);
  EXPECT_EQ(dev.stats().writes, 1u);
  EXPECT_EQ(dev.stats().bytes_read, 4096u);
  EXPECT_EQ(dev.stats().bytes_written, 8192u);
}

TEST(SsdModelTest, RandomReadIopsNearSpec) {
  sim::Simulator sim;
  SsdParams params;  // Intel 750-class defaults
  SsdModel ssd(&sim, params);
  Rng rng(1);
  uint64_t completed = 0;
  // Closed loop at queue depth 64 for 1 simulated second.
  Nanos deadline = sec(1);
  std::function<void()> issue = [&]() {
    if (sim.Now() >= deadline) {
      return;
    }
    uint64_t offset = rng.Uniform(params.capacity / 4096) * 4096;
    ssd.Submit(test::MakeRead(offset, 4096, nullptr, [&](const Status&) {
      ++completed;
      issue();
    }));
  };
  for (int i = 0; i < 64; ++i) {
    issue();
  }
  sim.RunUntil(deadline);
  double iops = static_cast<double>(completed);
  // Datasheet-shaped target: ~430 K random 4K read IOPS (+-25%).
  EXPECT_GT(iops, 320000);
  EXPECT_LT(iops, 540000);
}

TEST(SsdModelTest, Qd1LatencyIncludesController) {
  sim::Simulator sim;
  SsdParams params;
  SsdModel ssd(&sim, params);
  Nanos t = 0;
  ssd.Submit(test::MakeRead(0, 4096, nullptr, [&](const Status&) { t = sim.Now(); }));
  sim.RunToCompletion();
  // ~ overhead + transfer + controller latency: expect 60..150 us.
  EXPECT_GT(t, usec(60));
  EXPECT_LT(t, usec(150));
}

TEST(SsdModelTest, SequentialThroughputNearSpec) {
  sim::Simulator sim;
  SsdParams params;
  SsdModel ssd(&sim, params);
  uint64_t bytes = 0;
  uint64_t offset = 0;
  Nanos deadline = sec(1);
  std::function<void()> issue = [&]() {
    if (sim.Now() >= deadline) {
      return;
    }
    uint64_t len = 1 * kMiB;
    ssd.Submit(test::MakeRead(offset % (params.capacity - len), len, nullptr,
                              [&, len](const Status&) {
                                bytes += len;
                                issue();
                              }));
    offset += len;
  };
  for (int i = 0; i < 16; ++i) {
    issue();
  }
  sim.RunUntil(deadline);
  double gbps = static_cast<double>(bytes) / 1e9;
  // 2.2 GB/s class sequential read.
  EXPECT_GT(gbps, 1.5);
  EXPECT_LT(gbps, 2.6);
}

TEST(HddModelTest, RandomVsSequentialGap) {
  sim::Simulator sim;
  HddParams params;
  HddModel hdd(&sim, params);
  Rng rng(2);

  // 100 random 4K writes, one at a time.
  Nanos start = sim.Now();
  int done = 0;
  std::function<void()> issue_random = [&]() {
    if (done >= 100) {
      return;
    }
    uint64_t offset = rng.Uniform(params.capacity / 4096) * 4096;
    hdd.Submit(test::MakeWrite(offset, 4096, {}, [&](const Status&) {
      ++done;
      issue_random();
    }));
  };
  issue_random();
  sim.RunToCompletion();
  Nanos random_time = sim.Now() - start;
  double random_iops = 100.0 / ToSec(random_time);
  // 7200 RPM random ~ 70-150 IOPS.
  EXPECT_GT(random_iops, 50);
  EXPECT_LT(random_iops, 220);

  // Sequential: 100 x 1 MB appends approach media rate.
  start = sim.Now();
  done = 0;
  uint64_t seq_off = 0;
  std::function<void()> issue_seq = [&]() {
    if (done >= 100) {
      return;
    }
    hdd.Submit(test::MakeWrite(seq_off, 1 * kMiB, {}, [&](const Status&) {
      ++done;
      issue_seq();
    }));
    seq_off += 1 * kMiB;
  };
  issue_seq();
  sim.RunToCompletion();
  double seq_mbps = 100.0 * 1.048576 / ToSec(sim.Now() - start);
  EXPECT_GT(seq_mbps, 100);
  EXPECT_LT(seq_mbps, 170);
}

TEST(HddModelTest, ElevatorBeatsFifoForBatch) {
  // Submitting a sorted batch at once lets C-LOOK service it with short
  // seeks; the same offsets one-at-a-time in random order pay full seeks.
  sim::Simulator sim;
  HddParams params;
  HddModel hdd(&sim, params);
  Rng rng(3);
  std::vector<uint64_t> offsets;
  for (int i = 0; i < 64; ++i) {
    offsets.push_back(rng.Uniform(params.capacity / 4096) * 4096);
  }

  Nanos start = sim.Now();
  int done = 0;
  for (uint64_t off : offsets) {
    hdd.Submit(test::MakeWrite(off, 4096, {}, [&](const Status&) { ++done; }));
  }
  sim.RunToCompletion();
  Nanos batch_time = sim.Now() - start;
  EXPECT_EQ(done, 64);

  HddModel hdd2(&sim, params);
  start = sim.Now();
  size_t idx = 0;
  std::function<void()> one_by_one = [&]() {
    if (idx >= offsets.size()) {
      return;
    }
    hdd2.Submit(test::MakeWrite(offsets[idx++], 4096, {}, [&](const Status&) { one_by_one(); }));
  };
  one_by_one();
  sim.RunToCompletion();
  Nanos serial_time = sim.Now() - start;
  EXPECT_LT(batch_time, serial_time);
}

TEST(HddModelTest, IdleFlag) {
  sim::Simulator sim;
  HddModel hdd(&sim, HddParams{});
  EXPECT_TRUE(hdd.idle());
  hdd.Submit(test::MakeWrite(0, 4096, {}, [](const Status&) {}));
  EXPECT_FALSE(hdd.idle());
  sim.RunToCompletion();
  EXPECT_TRUE(hdd.idle());
}

TEST(ChunkStoreTest, AllocateFreeCycle) {
  sim::Simulator sim;
  MemDevice dev(&sim, 16 * kMiB);
  ChunkStore store(&dev, 1 * kMiB);
  EXPECT_EQ(store.total_slots(), 16u);
  EXPECT_TRUE(store.Allocate(7).ok());
  EXPECT_TRUE(store.Contains(7));
  EXPECT_EQ(store.Allocate(7).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(store.Free(7).ok());
  EXPECT_FALSE(store.Contains(7));
  EXPECT_EQ(store.Free(7).code(), StatusCode::kNotFound);
}

// Regression: Free left the chunk's bytes on the device, so a chunk placed
// in the reused slot read its predecessor's data where it had not written —
// one tenant's bytes served to another wherever a new chunk takes a slot
// freed by demotion or migration.
TEST(ChunkStoreTest, ReusedSlotReadsZeros) {
  sim::Simulator sim;
  MemDevice dev(&sim, 4 * kMiB);
  ChunkStore store(&dev, 1 * kMiB);
  ASSERT_TRUE(store.Allocate(1).ok());
  const uint64_t slot = store.SlotOffset(1);
  auto data = test::Pattern(64 * kKiB, 15);
  Status wrote = Internal("pending");
  store.Write(1, 0, data.size(), test::Payload(data), [&](const Status& s) { wrote = s; });
  sim.RunToCompletion();
  ASSERT_TRUE(wrote.ok());
  ASSERT_TRUE(store.Free(1).ok());

  ASSERT_TRUE(store.Allocate(2).ok());
  ASSERT_EQ(store.SlotOffset(2), slot);
  BufferView out;
  Status read = Internal("pending");
  store.Read(2, 0, data.size(), &out, [&](const Status& s) { read = s; });
  sim.RunToCompletion();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(test::Bytes(out), std::vector<uint8_t>(data.size(), 0));
}

TEST(ChunkStoreTest, ExhaustsSlots) {
  sim::Simulator sim;
  MemDevice dev(&sim, 4 * kMiB);
  ChunkStore store(&dev, 1 * kMiB);
  for (ChunkId id = 0; id < 4; ++id) {
    EXPECT_TRUE(store.Allocate(id).ok());
  }
  EXPECT_EQ(store.Allocate(99).code(), StatusCode::kResourceExhausted);
}

TEST(ChunkStoreTest, IoRoundTripAndIsolation) {
  sim::Simulator sim;
  MemDevice dev(&sim, 8 * kMiB);
  ChunkStore store(&dev, 1 * kMiB);
  ASSERT_TRUE(store.Allocate(1).ok());
  ASSERT_TRUE(store.Allocate(2).ok());

  auto a = test::Pattern(4096, 10);
  auto b = test::Pattern(4096, 20);
  store.Write(1, 0, 4096, test::Payload(a), [](const Status& s) { ASSERT_TRUE(s.ok()); });
  store.Write(2, 0, 4096, test::Payload(b), [](const Status& s) { ASSERT_TRUE(s.ok()); });
  sim.RunToCompletion();

  BufferView out;
  store.Read(1, 0, 4096, &out, [](const Status& s) { ASSERT_TRUE(s.ok()); });
  sim.RunToCompletion();
  EXPECT_EQ(test::Bytes(out), a);
  store.Read(2, 0, 4096, &out, [](const Status& s) { ASSERT_TRUE(s.ok()); });
  sim.RunToCompletion();
  EXPECT_EQ(test::Bytes(out), b);
}

TEST(ChunkStoreTest, RejectsOutOfRange) {
  sim::Simulator sim;
  MemDevice dev(&sim, 8 * kMiB);
  ChunkStore store(&dev, 1 * kMiB);
  ASSERT_TRUE(store.Allocate(1).ok());
  Status status;
  store.Read(1, 1 * kMiB - 512, 1024, nullptr, [&](const Status& s) { status = s; });
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  store.Read(99, 0, 512, nullptr, [&](const Status& s) { status = s; });
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(ChunkStoreTest, RegionOffsetRespected) {
  sim::Simulator sim;
  MemDevice dev(&sim, 8 * kMiB);
  // Store confined to the second half of the device (first half = journals).
  ChunkStore store(&dev, 1 * kMiB, 4 * kMiB, 4 * kMiB);
  EXPECT_EQ(store.total_slots(), 4u);
  ASSERT_TRUE(store.Allocate(1).ok());
  EXPECT_GE(store.SlotOffset(1), 4 * kMiB);
}

// The lazy slot allocator must hand out exactly the slots an eager LIFO free
// list (filled so the lowest slot is on top) would, in the same order.
TEST(ChunkStoreTest, LazySlotsMatchEagerFreeList) {
  sim::Simulator sim;
  constexpr uint64_t kSlots = 64;
  MemDevice dev(&sim, kSlots * kMiB);
  ChunkStore store(&dev, 1 * kMiB);
  ASSERT_EQ(store.total_slots(), kSlots);

  std::vector<uint64_t> model_free;
  for (uint64_t s = kSlots; s > 0; --s) {
    model_free.push_back(s - 1);
  }
  std::vector<ChunkId> live;
  Rng rng(0x51075EED);
  ChunkId next_id = 1;
  bool exhausted_seen = false;
  bool reused_after_exhaustion = false;
  for (int step = 0; step < 4000; ++step) {
    // Drift between mostly-allocate and mostly-free phases so the run both
    // reaches exhaustion and drains back down.
    const bool allocate_phase = (step / 300) % 2 == 0;
    const uint64_t coin = rng.Uniform(4);
    const bool allocate = live.empty() || (allocate_phase ? coin != 0 : coin == 0);
    if (allocate) {
      ChunkId id = next_id++;
      Status s = store.Allocate(id);
      if (model_free.empty()) {
        ASSERT_EQ(s.code(), StatusCode::kResourceExhausted) << "step " << step;
        ASSERT_EQ(live.size(), store.total_slots());
        exhausted_seen = true;
        continue;
      }
      ASSERT_TRUE(s.ok()) << "step " << step;
      uint64_t slot = model_free.back();
      model_free.pop_back();
      ASSERT_EQ(store.SlotOffset(id), slot * kMiB) << "step " << step;
      if (exhausted_seen) {
        reused_after_exhaustion = true;
      }
      live.push_back(id);
    } else {
      size_t pick = rng.Uniform(live.size());
      ChunkId id = live[pick];
      model_free.push_back(store.SlotOffset(id) / kMiB);
      ASSERT_TRUE(store.Free(id).ok());
      live[pick] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(store.allocated_chunks(), live.size());
    for (ChunkId id : live) {
      ASSERT_TRUE(store.Contains(id));
    }
  }
  EXPECT_TRUE(exhausted_seen);
  EXPECT_TRUE(reused_after_exhaustion);
  EXPECT_EQ(store.total_slots(), kSlots);
}

// Heap bytes in use: arena chunks plus mmapped ones (large blocks).
size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

TEST(ChunkStoreTest, MultiTerabyteStoreAllocatesNoPerSlotMemory) {
  sim::Simulator sim;
  MemDevice dev(&sim, 4 * kTiB);
  const size_t before = HeapInUse();
  {
    // 4M slots of 1 MiB: an eager free list would be 32 MiB.
    ChunkStore store(&dev, 1 * kMiB);
    EXPECT_EQ(store.total_slots(), 4u * 1024 * 1024);
    EXPECT_LT(HeapInUse() - before, 4096u);
    ASSERT_TRUE(store.Allocate(1).ok());
    EXPECT_EQ(store.SlotOffset(1), 0u);
  }
}

}  // namespace
}  // namespace ursa::storage
