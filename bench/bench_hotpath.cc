// Hot-path microbenchmarks for the data plane (real wall-clock, no sim):
//
//   1. CRC32C throughput per implementation (table / slicing-by-8 / SSE4.2
//      hardware) — the journaled write path hashes every payload twice
//      (append + replay verify), so this is pure data-plane overhead — plus
//      the dispatched Crc32c() at the 4 KiB and 64 KiB payload sizes.
//   2. RangeIndex insert and query rates, allocating Query() vs the
//      allocation-free QueryTo() used by journal overlay reads.
//   3. Buffer pass-through: a payload crossing N hops as memcpy-per-hop vs a
//      ref-counted BufferView per hop (what the zero-copy write path does).
//   4. Simulator EventQueue: schedule/fire and schedule/cancel rates (every
//      simulated I/O, RPC, and timeout rides this queue), and the RPC
//      pattern: each request's completion cancels a timeout armed 800 ms out,
//      so cancelled entries never reach the heap head.
//   5. PageStore, the extent store behind every device that carries bytes:
//      shared 4 KiB and 1 MiB writes, 4 KiB reads across split extents, and
//      journal-ring-style scatter appends that wrap and overwrite.
//   6. The client hot path end to end: closed-loop 4 KiB writes, then reads,
//      at queue depth 16 through a VirtualDisk on a 3-machine hybrid
//      TestBed — simulated client ops completed per wall-clock second.
//   7. The scheduled SSD path below the chunk server: closed-loop 4 KiB
//      reads and writes from two tenants at queue depth 16 through a QoS
//      IoScheduler on an SsdModel — device I/Os completed per wall-clock
//      second.
//   8. The chunk-server replication path: closed-loop client-directed 4 KiB
//      writes, each sent to all three replicas of a 3-machine hybrid cluster
//      with the scrub ledger on every server (every write reuses one
//      payload, whose sector sums its allocation memoizes) — replicated
//      writes acked by all three per wall-clock second.
//
// Emits BENCH_hotpath.json (or the --metrics-json=<path> override) for the
// CI bench-smoke regression gate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/client/virtual_disk.h"
#include "src/cluster/cluster.h"
#include "src/common/buffer.h"
#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/core/metrics.h"
#include "src/core/params.h"
#include "src/core/system.h"
#include "src/index/range_index.h"
#include "src/qos/io_scheduler.h"
#include "src/scrub/checksum_store.h"
#include "src/sim/event_queue.h"
#include "src/storage/block_device.h"
#include "src/storage/ssd_model.h"

using namespace ursa;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- 1. CRC32C ----

struct CrcResult {
  const char* name;
  bool available;
  double gbps;
};

CrcResult BenchCrcImpl(Crc32cImpl impl, const char* name, const std::vector<uint8_t>& buf) {
  if (!Crc32cImplAvailable(impl)) {
    return {name, false, 0};
  }
  // Warm up, then time enough passes for a stable figure.
  volatile uint32_t sink = Crc32cWith(impl, buf.data(), buf.size());
  int passes = impl == Crc32cImpl::kTable ? 64 : 512;
  auto t0 = Clock::now();
  for (int i = 0; i < passes; ++i) {
    sink = Crc32cWith(impl, buf.data(), buf.size(), sink);
  }
  auto t1 = Clock::now();
  (void)sink;
  double bytes = static_cast<double>(buf.size()) * passes;
  return {name, true, bytes / Seconds(t0, t1) / 1e9};
}

// Dispatched Crc32c() over `len`-byte payloads, GB/s (best of three passes).
double BenchCrcSize(const std::vector<uint8_t>& buf, size_t len) {
  const size_t payloads = buf.size() / len;
  const int passes = static_cast<int>(std::max<size_t>(1, (256u << 20) / buf.size()));
  volatile uint32_t sink = 0;
  double best = 0;
  for (int round = 0; round < 3; ++round) {
    auto t0 = Clock::now();
    for (int pass = 0; pass < passes; ++pass) {
      for (size_t i = 0; i < payloads; ++i) {
        sink = Crc32c(buf.data() + i * len, len, sink);
      }
    }
    auto t1 = Clock::now();
    double bytes = static_cast<double>(len) * payloads * passes;
    best = std::max(best, bytes / Seconds(t0, t1) / 1e9);
  }
  (void)sink;
  return best;
}

// ---- 2. RangeIndex ----

struct IndexResult {
  double inserts_per_s;
  double query_per_s;
  double queryto_per_s;
};

IndexResult BenchIndex() {
  constexpr size_t kInserts = 400000;
  constexpr size_t kQueries = 200000;
  Rng rng(42);
  index::RangeIndex idx(/*merge_threshold=*/SIZE_MAX);
  struct Op {
    uint32_t offset, length;
    uint64_t j;
  };
  std::vector<Op> inserts(kInserts), queries(kQueries);
  for (auto& op : inserts) {
    op = {static_cast<uint32_t>(rng.Uniform((1u << 20) - 64)),
          static_cast<uint32_t>(rng.UniformRange(1, 64)), rng.Uniform(1u << 28)};
  }
  for (auto& op : queries) {
    op = {static_cast<uint32_t>(rng.Uniform((1u << 20) - 64)),
          static_cast<uint32_t>(rng.UniformRange(1, 64)), 0};
  }

  auto t0 = Clock::now();
  for (size_t i = 0; i < kInserts; ++i) {
    idx.Insert(inserts[i].offset, inserts[i].length, inserts[i].j);
    if (i == kInserts * 3 / 4) {
      idx.Compact();  // realistic two-level shape: most entries in the array
    }
  }
  auto t1 = Clock::now();
  double insert_rate = kInserts / Seconds(t0, t1);

  // Best of three passes per query loop: a single pass is ~tens of ms and
  // scheduler noise dominates run-to-run otherwise.
  volatile uint64_t sink = 0;
  double query_rate = 0;
  double queryto_rate = 0;
  index::SegmentVec out;
  for (int pass = 0; pass < 3; ++pass) {
    t0 = Clock::now();
    for (const Op& q : queries) {
      sink = sink + idx.Query(q.offset, q.length).size();
    }
    t1 = Clock::now();
    query_rate = std::max(query_rate, kQueries / Seconds(t0, t1));

    t0 = Clock::now();
    for (const Op& q : queries) {
      idx.QueryTo(q.offset, q.length, &out);
      sink = sink + out.size();
    }
    t1 = Clock::now();
    queryto_rate = std::max(queryto_rate, kQueries / Seconds(t0, t1));
  }
  (void)sink;
  return {insert_rate, query_rate, queryto_rate};
}

// ---- 3. Buffer pass-through ----

struct BufferResult {
  double copy_hops_per_s;   // memcpy-per-hop baseline
  double view_hops_per_s;   // ref-counted BufferView per hop
};

BufferResult BenchBuffer() {
  constexpr size_t kPayload = 64 * 1024;  // typical journaled backup write
  constexpr int kHops = 4;                // client -> server -> journal -> device
  constexpr int kRounds = 4000;
  std::vector<uint8_t> payload(kPayload, 0x5A);

  // Baseline: every hop copies the payload into a fresh vector (the old
  // data plane).
  volatile uint8_t sink = 0;
  auto t0 = Clock::now();
  for (int r = 0; r < kRounds; ++r) {
    std::vector<uint8_t> hop = payload;
    for (int h = 1; h < kHops; ++h) {
      std::vector<uint8_t> next = hop;
      hop.swap(next);
    }
    sink = static_cast<uint8_t>(sink + hop[r % kPayload]);
  }
  auto t1 = Clock::now();
  double copy_rate = static_cast<double>(kRounds) * kHops / Seconds(t0, t1);

  // Zero-copy: allocate once, then each hop takes a BufferView (refcount
  // bump + pointer/length copy).
  Buffer buf = Buffer::CopyOf(payload.data(), payload.size());
  t0 = Clock::now();
  for (int r = 0; r < kRounds; ++r) {
    BufferView hop = buf.View();
    for (int h = 1; h < kHops; ++h) {
      BufferView next = hop.Slice(0, hop.size());
      hop = next;
    }
    sink = static_cast<uint8_t>(sink + hop.data()[r % kPayload]);
  }
  t1 = Clock::now();
  double view_rate = static_cast<double>(kRounds) * kHops / Seconds(t0, t1);
  (void)sink;
  return {copy_rate, view_rate};
}

// ---- 4. EventQueue ----

struct EventResult {
  double fire_per_s;    // schedule + pop/invoke
  double cancel_per_s;  // schedule + cancel (tombstone path)
  double rpc_per_s;     // requests: completion + cancelled long timeout each
};

EventResult BenchEvents() {
  constexpr int kEvents = 2000000;
  sim::EventQueue q;
  volatile uint64_t counter = 0;

  auto t0 = Clock::now();
  for (int i = 0; i < kEvents; ++i) {
    q.Schedule(i, [&counter]() { counter = counter + 1; });
    if ((i & 7) == 7) {  // drain in batches so the heap stays shallow-ish
      while (!q.empty()) {
        Nanos when = 0;
        q.RunNext(INT64_MAX, &when);
      }
    }
  }
  while (!q.empty()) {
    Nanos when = 0;
    q.RunNext(INT64_MAX, &when);
  }
  auto t1 = Clock::now();
  double fire_rate = kEvents / Seconds(t0, t1);

  t0 = Clock::now();
  for (int i = 0; i < kEvents; ++i) {
    sim::EventId id = q.Schedule(i, [&counter]() { counter = counter + 1; });
    q.Cancel(id);
  }
  t1 = Clock::now();
  double cancel_rate = kEvents / Seconds(t0, t1);
  (void)counter;

  // The RPC pattern: 128 requests in flight, each with a completion a few
  // microseconds out and a timeout 800 ms out. Every fired completion cancels
  // its request's timeout and issues the next request, so the cancelled
  // timeouts never surface at the heap head within the run.
  constexpr int kRequests = 1000000;
  constexpr uint32_t kInflight = 128;
  sim::EventQueue rpc;
  Rng rng(5);
  std::vector<sim::EventId> timeouts(kInflight);
  uint32_t completed = 0;
  Nanos now = 0;
  auto issue = [&](uint32_t request) {
    rpc.Schedule(now + 1000 + static_cast<Nanos>(rng.Uniform(4000)),
                 [request, &completed]() { completed = request; });
    timeouts[request] = rpc.Schedule(now + 800'000'000, []() {});
  };
  for (uint32_t r = 0; r < kInflight; ++r) {
    issue(r);
  }
  t0 = Clock::now();
  for (int i = 0; i < kRequests; ++i) {
    rpc.RunNext(INT64_MAX, &now);
    rpc.Cancel(timeouts[completed]);
    issue(completed);
  }
  t1 = Clock::now();
  double rpc_rate = kRequests / Seconds(t0, t1);
  return {fire_rate, cancel_rate, rpc_rate};
}

// ---- 5. PageStore ----

struct PageStoreResult {
  double write4k_per_s;  // shared 4 KiB writes at random aligned offsets
  double write1m_per_s;  // shared 1 MiB writes, sequential with wrap-around
  double read4k_per_s;   // 4 KiB reads over extents split every 2 KiB
  double ring_per_s;     // journal-style scatter appends around a ring
};

PageStoreResult BenchPageStore() {
  constexpr uint64_t kSpace = 256ull << 20;
  constexpr int kSmallOps = 200000;
  constexpr int kLargeOps = 2000;
  Rng rng(11);
  volatile uint64_t sink = 0;
  std::vector<uint8_t> bytes(1 << 20, 0x3C);
  Buffer small = Buffer::CopyOf(bytes.data(), 4096);
  Buffer large = Buffer::CopyOf(bytes.data(), bytes.size());
  Buffer cut = Buffer::CopyOf(bytes.data(), 512);
  std::vector<uint64_t> offsets(kSmallOps);
  for (uint64_t& off : offsets) {
    off = rng.Uniform(kSpace / 4096) * 4096;
  }

  storage::PageStore store;
  auto t0 = Clock::now();
  for (uint64_t off : offsets) {
    store.Write(off, small.View());
  }
  auto t1 = Clock::now();
  double write4k = kSmallOps / Seconds(t0, t1);

  storage::PageStore seq;
  t0 = Clock::now();
  for (int i = 0; i < kLargeOps; ++i) {
    seq.Write((static_cast<uint64_t>(i) << 20) % kSpace, large.View());
  }
  t1 = Clock::now();
  double write1m = kLargeOps / Seconds(t0, t1);

  // 64 MiB of 1 MiB extents, each split by a 512-byte write every 2 KiB, so
  // a 4 KiB read at a random byte offset crosses four or five extents and
  // is assembled into a fresh Buffer.
  constexpr uint64_t kSplitSpace = 64u << 20;
  storage::PageStore split;
  for (uint64_t off = 0; off < kSplitSpace; off += 1u << 20) {
    split.Write(off, large.View());
    for (uint64_t at = 0; at < (1u << 20); at += 2048) {
      split.Write(off + at, cut.View());
    }
  }
  for (uint64_t& off : offsets) {
    off = rng.Uniform(kSplitSpace - 4096);
  }
  t0 = Clock::now();
  for (uint64_t off : offsets) {
    BufferView view = split.ReadView(off, 4096);
    sink = sink + view.data()[0];
  }
  t1 = Clock::now();
  double read4k = kSmallOps / Seconds(t0, t1);

  // A 64 MiB journal ring of {40-byte header, zero tail, 4 KiB payload}
  // records: after the first lap every append overwrites older records.
  storage::PageStore ring;
  constexpr uint64_t kRing = 64u << 20;
  constexpr uint64_t kRecord = 512 + 4096;
  Buffer header = Buffer::CopyOf(bytes.data(), 40);
  storage::IoRequest req;
  req.type = storage::IoType::kWrite;
  req.length = kRecord;
  req.scatter = {storage::IoSegment{header.View(), 40}, storage::IoSegment{BufferView(), 472},
                 storage::IoSegment{small.View(), 4096}};
  uint64_t pos = 0;
  t0 = Clock::now();
  for (int i = 0; i < kSmallOps; ++i) {
    if (pos + kRecord > kRing) {
      pos = 0;
    }
    req.offset = pos;
    storage::ApplyWritePayload(ring, req);
    pos += kRecord;
  }
  t1 = Clock::now();
  double ring_rate = kSmallOps / Seconds(t0, t1);
  (void)sink;
  return {write4k, write1m, read4k, ring_rate};
}

// ---- 6. VirtualDisk client ----

struct VdiskResult {
  double write4k_per_s;
  double read4k_per_s;
};

VdiskResult BenchVdisk() {
  constexpr int kQueueDepth = 16;
  constexpr int kOps = 60000;
  constexpr uint64_t kDiskSize = 1ull << 30;
  core::TestBed bed(core::UrsaHybridProfile(3));
  client::VirtualDisk* disk = bed.NewDisk(kDiskSize);
  Buffer payload = Buffer::CopyOf(std::vector<uint8_t>(4096, 0x5A).data(), 4096);
  std::vector<std::vector<uint8_t>> read_bufs(kQueueDepth, std::vector<uint8_t>(4096));
  Rng rng(13);

  // Keeps kQueueDepth ops in flight until kOps completed; returns ops per
  // wall-clock second.
  auto closed_loop = [&](bool write) {
    int issued = 0;
    int completed = 0;
    std::function<void(int)> issue = [&](int slot) {
      ++issued;
      uint64_t offset = rng.Uniform(kDiskSize / 4096) * 4096;
      auto done = [&, slot](const Status&) {
        ++completed;
        if (issued < kOps) {
          issue(slot);
        }
      };
      if (write) {
        disk->Write(offset, 4096, payload.View(), done);
      } else {
        disk->Read(offset, 4096, read_bufs[slot].data(), done);
      }
    };
    auto t0 = Clock::now();
    for (int slot = 0; slot < kQueueDepth; ++slot) {
      issue(slot);
    }
    while (completed < kOps) {
      bed.sim().RunUntil(bed.sim().Now() + msec(10));
    }
    return kOps / Seconds(t0, Clock::now());
  };
  double write4k = closed_loop(true);
  double read4k = closed_loop(false);
  return {write4k, read4k};
}

// ---- 7. Scheduled SSD ----

double BenchQosSsd() {
  constexpr int kQueueDepth = 16;
  constexpr int kOps = 400000;
  constexpr uint64_t kSpan = 1ull << 30;
  sim::Simulator sim;
  storage::SsdModel ssd(&sim, storage::SsdParams{});
  qos::QosConfig config;
  config.enabled = true;
  qos::IoScheduler sched(&sim, &ssd, config, /*device_depth=*/8, "ssd");
  BufferView out;
  Rng rng(17);
  int issued = 0;
  int completed = 0;
  std::function<void()> issue = [&]() {
    storage::IoRequest req;
    req.type = issued % 2 == 0 ? storage::IoType::kRead : storage::IoType::kWrite;
    req.offset = rng.Uniform(kSpan / 4096) * 4096;
    req.length = 4096;
    req.out_view = req.type == storage::IoType::kRead ? &out : nullptr;
    req.tag.tenant = 1 + issued % 4 / 2;
    req.done = [&](const Status&) {
      ++completed;
      if (issued < kOps) {
        issue();
      }
    };
    ++issued;
    ssd.Submit(std::move(req));
  };
  auto t0 = Clock::now();
  for (int i = 0; i < kQueueDepth; ++i) {
    issue();
  }
  sim.RunToCompletion();
  return completed / Seconds(t0, Clock::now());
}

// ---- 8. Replicated writes through three ChunkServers ----

double BenchServerReplicate() {
  constexpr int kChunks = 16;  // one write in flight per chunk: queue depth 16
  constexpr int kWrites = 60000;
  core::SystemProfile profile = core::UrsaHybridProfile(3);
  sim::Simulator sim;
  cluster::Cluster cluster(&sim, profile.cluster);
  const uint64_t chunk_size = profile.cluster.chunk_size;
  Result<cluster::DiskId> disk =
      cluster.master().CreateDisk("bench", kChunks * chunk_size, 3, 1);
  URSA_CHECK(disk.ok());
  const cluster::DiskMeta* meta = *cluster.master().GetDisk(*disk);
  std::vector<std::unique_ptr<scrub::ChecksumStore>> ledgers;
  for (const cluster::ChunkLayout& layout : meta->chunks) {
    for (const cluster::ReplicaRef& r : layout.replicas) {
      cluster::ChunkServer* server = cluster.server(r.server);
      if (server->checksum_store() == nullptr) {
        ledgers.push_back(std::make_unique<scrub::ChecksumStore>(chunk_size));
        server->SetChecksumStore(ledgers.back().get());
      }
    }
  }
  Buffer payload = Buffer::CopyOf(std::vector<uint8_t>(4096, 0x3C).data(), 4096);

  struct Slot {
    uint64_t version = 0;
    int acks = 0;
  };
  std::vector<Slot> slots(kChunks);
  int issued = 0;
  int completed = 0;
  std::function<void(int)> issue = [&](int c) {
    ++issued;
    const cluster::ChunkLayout& layout = meta->chunks[c];
    slots[c].acks = 0;
    for (const cluster::ReplicaRef& r : layout.replicas) {
      cluster.server(r.server)->HandleReplicate(
          layout.chunk, 0, 4096, layout.view, slots[c].version, payload.View(),
          [&, c](const Status& s, uint64_t, const BufferView&) {
            URSA_CHECK(s.ok()) << s.ToString();
            if (++slots[c].acks < 3) {
              return;
            }
            ++completed;
            ++slots[c].version;
            if (issued < kWrites) {
              issue(c);
            }
          },
          {}, 0);
    }
  };
  auto t0 = Clock::now();
  for (int c = 0; c < kChunks; ++c) {
    issue(c);
  }
  while (completed < kWrites) {
    sim.RunUntil(sim.Now() + msec(10));
  }
  return kWrites / Seconds(t0, Clock::now());
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Data-plane hot-path microbenchmarks ===\n\n");

  // CRC over a 64 KB buffer (the journal bypass threshold — the largest
  // payload the journaled path hashes).
  std::vector<uint8_t> crc_buf(64 * 1024);
  Rng rng(7);
  for (auto& b : crc_buf) {
    b = static_cast<uint8_t>(rng.Uniform(256));
  }
  CrcResult table = BenchCrcImpl(Crc32cImpl::kTable, "table", crc_buf);
  CrcResult slice8 = BenchCrcImpl(Crc32cImpl::kSlice8, "slice8", crc_buf);
  CrcResult hw = BenchCrcImpl(Crc32cImpl::kHardware, "hardware", crc_buf);

  core::Table crc_table({"CRC32C impl", "GB/s", "vs table"});
  for (const CrcResult& r : {table, slice8, hw}) {
    if (r.available) {
      crc_table.AddRow({r.name, core::Table::Num(r.gbps, 2),
                        core::Table::Num(r.gbps / table.gbps, 1) + "x"});
    }
  }
  crc_table.Print();
  std::printf("active dispatch: %s\n", Crc32cImplName());
  const double crc_4k = BenchCrcSize(crc_buf, 4096);
  const double crc_64k = BenchCrcSize(crc_buf, 64 * 1024);
  std::printf("Crc32c() on 4 KiB payloads: %.2f GB/s, on 64 KiB: %.2f GB/s\n\n", crc_4k, crc_64k);

  IndexResult idx = BenchIndex();
  core::Table idx_table({"RangeIndex op", "ops/s"});
  idx_table.AddRow({"insert", core::Table::Int(idx.inserts_per_s)});
  idx_table.AddRow({"Query (allocating)", core::Table::Int(idx.query_per_s)});
  idx_table.AddRow({"QueryTo (alloc-free)", core::Table::Int(idx.queryto_per_s)});
  idx_table.Print();
  std::printf("QueryTo speedup: %.2fx\n\n", idx.queryto_per_s / idx.query_per_s);

  BufferResult buf = BenchBuffer();
  core::Table buf_table({"64KB payload hop", "hops/s"});
  buf_table.AddRow({"memcpy per hop", core::Table::Int(buf.copy_hops_per_s)});
  buf_table.AddRow({"BufferView per hop", core::Table::Int(buf.view_hops_per_s)});
  buf_table.Print();
  std::printf("zero-copy speedup: %.0fx\n\n", buf.view_hops_per_s / buf.copy_hops_per_s);

  EventResult ev = BenchEvents();
  core::Table ev_table({"EventQueue op", "events/s"});
  ev_table.AddRow({"schedule+fire", core::Table::Int(ev.fire_per_s)});
  ev_table.AddRow({"schedule+cancel", core::Table::Int(ev.cancel_per_s)});
  ev_table.AddRow({"RPC: fire + cancel 800ms timeout", core::Table::Int(ev.rpc_per_s)});
  ev_table.Print();
  std::printf("\n");

  PageStoreResult ps = BenchPageStore();
  core::Table ps_table({"PageStore op", "ops/s"});
  ps_table.AddRow({"write 4KiB (shared)", core::Table::Int(ps.write4k_per_s)});
  ps_table.AddRow({"write 1MiB (shared)", core::Table::Int(ps.write1m_per_s)});
  ps_table.AddRow({"read 4KiB (split extents)", core::Table::Int(ps.read4k_per_s)});
  ps_table.AddRow({"ring append (scatter)", core::Table::Int(ps.ring_per_s)});
  ps_table.Print();
  std::printf("\n");

  VdiskResult vd = BenchVdisk();
  core::Table vd_table({"VirtualDisk 4KiB, qd16", "ops/s"});
  vd_table.AddRow({"write", core::Table::Int(vd.write4k_per_s)});
  vd_table.AddRow({"read", core::Table::Int(vd.read4k_per_s)});
  vd_table.Print();
  std::printf("\n");

  const double qos_ssd = BenchQosSsd();
  core::Table qos_table({"IoScheduler on SsdModel, 4KiB qd16", "ops/s"});
  qos_table.AddRow({"read/write, two tenants", core::Table::Int(qos_ssd)});
  qos_table.Print();
  std::printf("\n");

  const double server_replicate = BenchServerReplicate();
  core::Table srv_table({"ChunkServer x3, 4KiB client-directed, qd16", "ops/s"});
  srv_table.AddRow({"replicated write, ledger on", core::Table::Int(server_replicate)});
  srv_table.Print();

  std::string json_path = core::MetricsJsonPath(argc, argv);
  if (json_path.empty()) {
    json_path = "BENCH_hotpath.json";
  }
  std::ofstream os(json_path);
  os << "{\"bench\":\"hotpath\""
     << ",\"crc32c_table_gbps\":" << table.gbps
     << ",\"crc32c_slice8_gbps\":" << (slice8.available ? slice8.gbps : 0)
     << ",\"crc32c_hw_gbps\":" << (hw.available ? hw.gbps : 0)
     << ",\"crc32c_hw_available\":" << (hw.available ? "true" : "false")
     << ",\"crc32c_best_vs_table\":"
     << ((hw.available ? hw.gbps : slice8.available ? slice8.gbps : table.gbps) / table.gbps)
     << ",\"crc32c_4k_gbps\":" << crc_4k << ",\"crc32c_64k_gbps\":" << crc_64k
     << ",\"index_insert_per_s\":" << idx.inserts_per_s
     << ",\"index_query_per_s\":" << idx.query_per_s
     << ",\"index_queryto_per_s\":" << idx.queryto_per_s
     << ",\"buffer_copy_hops_per_s\":" << buf.copy_hops_per_s
     << ",\"buffer_view_hops_per_s\":" << buf.view_hops_per_s
     << ",\"event_fire_per_s\":" << ev.fire_per_s
     << ",\"event_cancel_per_s\":" << ev.cancel_per_s
     << ",\"event_rpc_timeout_per_s\":" << ev.rpc_per_s
     << ",\"page_store_write4k_per_s\":" << ps.write4k_per_s
     << ",\"page_store_write1m_per_s\":" << ps.write1m_per_s
     << ",\"page_store_read4k_per_s\":" << ps.read4k_per_s
     << ",\"page_store_ring_per_s\":" << ps.ring_per_s
     << ",\"vdisk_write4k_per_s\":" << vd.write4k_per_s
     << ",\"vdisk_read4k_per_s\":" << vd.read4k_per_s
     << ",\"qos_ssd_io4k_per_s\":" << qos_ssd
     << ",\"server_replicate4k_per_s\":" << server_replicate << "}\n";
  std::printf("\nmetrics written to %s\n", json_path.c_str());
  return 0;
}
