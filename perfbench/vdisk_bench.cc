// End-to-end virtual-disk benchmark: seeded, verified tenant traffic through
// client::VirtualDisk on Ursa-Hybrid TestBed clusters. One invocation runs
// one round of one workload:
//
//   vdisk_bench --workload vm-fleet|seq-stream|cold-tier --seed N
//               [--traced 0|1] [--spans FILE]
//
// A round builds a fresh cluster, sets it up (disks, prefill, drain or
// demote, warm-up), runs a measured window sized by op count, and reads every
// byte back through the client to audit it. Every read is checked against
// the oracle, so a round's sim-clock results are a pure function of the seed;
// the round prints a fingerprint of them. perfbench/run.py runs rounds in
// fresh processes, requires equal fingerprints, and reports medians of the
// wall-clock figures.
//
// A traced round (--traced 1) samples every request into obs::Tracer,
// installs device latency observers, and writes per-op spans to FILE.
//
// Everything here observes the simulator from outside: wall timers around
// VirtualDisk::Read/Write and Simulator::RunUntil, public stats accessors,
// the cluster's metrics registry and the existing tracer.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/oracle.h"
#include "perfbench/streams.h"
#include "src/core/params.h"
#include "src/core/system.h"

namespace perfbench {
namespace {

using ursa::kKiB;
using ursa::kMiB;
using ursa::Nanos;

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Sizing. Every journaled byte stays resident in the simulated SSD's page
// store until its ring slot is reused, and at the default quota (1/10 of a
// 400 GB SSD) no ring ever wraps at bench scale, so RSS would track write
// volume. The benchmark sizes each SSD journal region to 64 MiB instead: that
// caps journal memory at 24 regions (plus expansion regions, if ever used)
// while vm-fleet's window still fits without expansion.
constexpr uint64_t kJournalRegion = 64 * kMiB;

// vm-fleet: four 32 MiB tenants; set-up prefills each tenant's hot set (the
// first eighth of its disk, see MsrStream).
constexpr uint64_t kFleetDisk = 32 * kMiB;
constexpr uint64_t kFleetPrefill = kFleetDisk / 8;
constexpr int kFleetQd = 16;
constexpr uint64_t kFleetWarmup = 4000;
constexpr uint64_t kFleetWindow = 64000;

// seq-stream: 1 MiB ops in 63-op passes over a 64 MiB disk at qd 2.
constexpr uint64_t kSeqBlock = 1 * kMiB;
constexpr uint64_t kSeqDiskBlocks = 64;
constexpr uint64_t kSeqPassOps = 63;
constexpr int kSeqQd = 2;
constexpr uint64_t kSeqWarmup = 2 * kSeqPassOps;
constexpr uint64_t kSeqWindow = 32 * kSeqPassOps;  // 16 write + 16 read passes

// cold-tier: 16 MiB disks of 1 MiB chunks (4+2 EC), 4 KiB ops at qd 16 with a
// 20 us mean think time; writes go to the first four chunks only.
constexpr uint64_t kColdDisk = 16 * kMiB;
constexpr uint64_t kColdWriteSpan = 4 * kMiB;
constexpr double kColdReadFraction = 0.85;
constexpr int kColdQd = 16;
constexpr Nanos kColdThink = ursa::usec(20);
constexpr uint64_t kColdWarmup = 1000;
constexpr uint64_t kColdWindow = 160000;
// Scrub read size. Scrubber::ScrubChunk keeps one piece buffer per scrubbed
// chunk alive after the sweep, so this also bounds that memory.
constexpr uint64_t kColdScrubPiece = 64 * kKiB;

// Every network link adds a seeded uniform [0, kNetJitter] delay per message:
// datacenter-scale latency noise. Without it the simulator's fixed service
// times make an uncontended path's latency a single exact value.
constexpr Nanos kNetJitter = ursa::usec(4);

constexpr Nanos kSlice = ursa::msec(1);  // RunUntil granularity of the closed loop
constexpr Nanos kSimCap = ursa::sec(60);

// ---------------------------------------------------------------------------

struct Tenant {
  ursa::client::VirtualDisk* disk = nullptr;
  int index = 0;
  std::unique_ptr<DiskOracle> oracle;
  int inflight = 0;
  uint32_t next_version = 1;
  ursa::Rng think_rng;
  std::vector<std::vector<uint8_t>> bufs;  // read buffers, reused across ops
  std::vector<int> free_bufs;

  int AcquireBuf(uint64_t len) {
    if (free_bufs.empty()) {
      bufs.emplace_back();
      free_bufs.push_back(static_cast<int>(bufs.size()) - 1);
    }
    int b = free_bufs.back();
    free_bufs.pop_back();
    if (bufs[b].size() < len) {
      bufs[b].resize(len);
    }
    return b;
  }
  void ReleaseBuf(int b) { free_bufs.push_back(b); }
};

struct SpanRec {
  uint64_t id = 0;
  int disk = 0;
  bool write = false;
  bool ok = false;
  uint64_t off = 0;
  uint32_t len = 0;
  int64_t wall_issue = 0;
  int64_t wall_done = 0;
  Nanos sim_issue = 0;
  Nanos sim_done = 0;
};

// Accounting of one closed-loop phase.
struct Window {
  std::vector<Nanos> read_lat;
  std::vector<Nanos> write_lat;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t failed_writes = 0;
  std::string first_error;  // status of the first failed op
  uint64_t mismatches = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  Nanos sim_start = 0;
  Nanos sim_end = 0;
  int64_t bench_ns = 0;  // generator + payload fill + verification
  int64_t issue_ns = 0;   // inside VirtualDisk::Read/Write
  uint64_t events = 0;
  int64_t run_ns = 0;     // inside Simulator::RunUntil
  size_t pending_peak = 0;

  uint64_t completed() const { return read_lat.size() + write_lat.size(); }
};

// Closed-loop load generator: each job keeps up to `qd` ops of its tenant in flight
// until the phase's op budget is spent, then the simulator runs until every
// op has completed. With a think time, a completion frees its slot only after
// a seeded exponential delay (the guest's compute between I/Os), which keeps
// tenants from settling into a lockstep schedule.
class ClosedLoop {
 public:
  struct Job {
    Tenant* tenant;
    OpStream* stream;
    int qd;
    Nanos think_mean = 0;
  };

  explicit ClosedLoop(ursa::sim::Simulator* sim) : sim_(sim) {}

  void set_spans(std::vector<SpanRec>* spans) { spans_ = spans; }
  // Called every 512 completions (cheap periodic sampling of gauges).
  void set_sampler(std::function<void()> fn) { sampler_ = std::move(fn); }

  // Returns false when the phase stalled or ran past the simulated cap.
  bool Run(std::vector<Job> jobs, uint64_t budget, Window* w) {
    jobs_ = std::move(jobs);
    budget_ = budget;
    w_ = w;
    w_->sim_start = sim_->Now();
    const Nanos cap = sim_->Now() + kSimCap;
    for (size_t j = 0; j < jobs_.size(); ++j) {
      Refill(j);
    }
    while (outstanding_ + thinking_ > 0 && sim_->Now() < cap) {
      int64_t t0 = WallNs();
      w_->events += sim_->RunUntil(sim_->Now() + kSlice);
      w_->run_ns += WallNs() - t0;
    }
    bool ok = outstanding_ + thinking_ == 0 && budget_ == 0;
    jobs_.clear();
    w_ = nullptr;
    return ok;
  }

 private:
  struct Op {
    uint64_t id = 0;
    bool write = false;
    uint64_t off = 0;
    uint32_t len = 0;
    uint32_t version = 0;
    int buf = -1;
    Nanos sim_issue = 0;
    int64_t wall_issue = 0;
  };

  void Refill(size_t j) {
    Job& job = jobs_[j];
    while (budget_ > 0 && job.tenant->inflight < job.qd) {
      int64_t t0 = WallNs();
      std::optional<Draw> d = job.stream->Next(*job.tenant->oracle, job.tenant->inflight);
      if (!d) {
        w_->bench_ns += WallNs() - t0;
        return;
      }
      --budget_;
      Issue(j, *d, t0);
    }
  }

  void Issue(size_t j, const Draw& d, int64_t t0) {
    Tenant& t = *jobs_[j].tenant;
    Op op;
    op.id = next_id_++;
    op.write = d.write;
    op.off = d.off;
    op.len = d.len;
    t.oracle->Lock(d.off, d.len);
    ++t.inflight;
    ++outstanding_;
    ++w_->attempted;
    ursa::Buffer payload;
    uint8_t* out = nullptr;
    if (d.write) {
      op.version = t.next_version++;
      payload = ursa::Buffer::Allocate(d.len);
      t.oracle->Fill(payload.data(), d.off, d.len, op.version);
    } else {
      op.buf = t.AcquireBuf(d.len);
      out = t.bufs[op.buf].data();
    }
    op.sim_issue = sim_->Now();
    const int64_t t1 = WallNs();
    op.wall_issue = t1;
    w_->bench_ns += t1 - t0;
    auto done = [this, j, op](const ursa::Status& s) { Complete(j, op, s); };
    if (d.write) {
      t.disk->Write(d.off, d.len, payload.View(), std::move(done));
    } else {
      t.disk->Read(d.off, d.len, out, std::move(done));
    }
    w_->issue_ns += WallNs() - t1;
  }

  void Complete(size_t j, const Op& op, const ursa::Status& s) {
    const int64_t t0 = WallNs();
    Tenant& t = *jobs_[j].tenant;
    const Nanos now = sim_->Now();
    if (op.write) {
      if (s.ok()) {
        t.oracle->Commit(op.off, op.len, op.version);
      } else {
        t.oracle->Forget(op.off, op.len);
      }
    } else {
      if (s.ok()) {
        w_->mismatches += t.oracle->Verify(t.bufs[op.buf].data(), op.off, op.len);
      }
      t.ReleaseBuf(op.buf);
    }
    t.oracle->Unlock(op.off, op.len);
    if (!s.ok()) {
      if (w_->failed++ == 0) {
        w_->first_error = (op.write ? "write: " : "read: ") + s.ToString();
      }
      w_->failed_writes += op.write ? 1 : 0;
    } else if (op.write) {
      w_->write_lat.push_back(now - op.sim_issue);
      w_->write_bytes += op.len;
    } else {
      w_->read_lat.push_back(now - op.sim_issue);
      w_->read_bytes += op.len;
    }
    w_->sim_end = now;
    w_->pending_peak = std::max(w_->pending_peak, sim_->pending_events());
    if (spans_ != nullptr) {
      spans_->push_back(SpanRec{op.id, t.index, op.write, s.ok(), op.off, op.len, op.wall_issue,
                                t0, op.sim_issue, now});
    }
    --t.inflight;
    --outstanding_;
    if (sampler_ && ++completions_ % 512 == 0) {
      sampler_();
    }
    w_->bench_ns += WallNs() - t0;
    const Nanos think = jobs_[j].think_mean;
    if (think > 0 && budget_ > 0) {
      ++thinking_;
      ++t.inflight;  // the slot stays taken while the guest thinks
      const auto delay = static_cast<Nanos>(t.think_rng.Exponential(static_cast<double>(think)));
      sim_->After(delay, [this, j]() {
        --thinking_;
        --jobs_[j].tenant->inflight;
        Refill(j);
      });
      return;
    }
    Refill(j);
  }

  ursa::sim::Simulator* sim_;
  std::vector<Job> jobs_;
  uint64_t budget_ = 0;
  Window* w_ = nullptr;
  uint64_t outstanding_ = 0;
  uint64_t thinking_ = 0;  // completed slots waiting out their think time
  uint64_t next_id_ = 0;
  uint64_t completions_ = 0;
  std::vector<SpanRec>* spans_ = nullptr;
  std::function<void()> sampler_;
};

// ---------------------------------------------------------------------------
// Counter snapshots (taken at window start and end; per-layer metrics are
// deltas).

struct Snap {
  Nanos sim_now = 0;
  // client
  uint64_t retries = 0, timeouts = 0, primary_switches = 0, ec_shard_reads = 0,
           ec_degraded_reads = 0, spec_writes = 0, write_promotes = 0;
  Nanos loop_busy = 0;
  // net (registry)
  double net_msgs = 0, net_coalesced = 0, net_bytes = 0;
  // cluster
  Nanos cpu_busy = 0;
  uint64_t server_ops = 0;
  ursa::cluster::RecoveryStats rec;
  // journal
  ursa::journal::JournalStats jr;
  // storage
  Nanos ssd_busy = 0, hdd_busy = 0;
  uint64_t ssd_written = 0, hdd_written = 0;
  // tier
  ursa::cluster::TierStats tier;
  uint64_t candidates = 0;
  // scrub / qos / admission (registry)
  double scrub_bytes = 0, scrub_sweeps = 0, qos_preempt = 0, qos_bg = 0, adm_waits = 0;
};

Snap TakeSnap(ursa::core::TestBed& bed, const std::vector<Tenant*>& tenants) {
  Snap s;
  auto& cl = bed.cluster();
  s.sim_now = bed.sim().Now();
  for (Tenant* t : tenants) {
    const auto& cs = t->disk->stats();
    s.retries += cs.retries;
    s.timeouts += cs.timeouts;
    s.primary_switches += cs.primary_switches;
    s.ec_shard_reads += cs.ec_shard_reads;
    s.ec_degraded_reads += cs.ec_degraded_reads;
    s.spec_writes += cs.spec_writes;
    s.write_promotes += cs.write_promotes;
    s.loop_busy += t->disk->loop_busy_time();
  }
  std::map<std::string, double> reg;
  for (const auto& sample : cl.metrics().Snapshot()) {
    reg[sample.name] += sample.value;
  }
  s.net_msgs = reg["net.messages_delivered"];
  s.net_coalesced = reg["net.coalesced_messages"];
  s.net_bytes = reg["net.bytes_sent"];
  s.scrub_bytes = reg["scrub.bytes_read"];
  s.scrub_sweeps = reg["scrub.sweeps_completed"];
  s.qos_preempt = reg["qos.preemptions"];
  s.qos_bg = reg["qos.bg_grants"];
  s.adm_waits = reg["admission.waits"];
  for (size_t m = 0; m < cl.num_machines(); ++m) {
    auto& mach = cl.machine(m);
    s.cpu_busy += mach.cpu().busy_time();
    for (int i = 0; i < mach.num_ssds(); ++i) {
      s.ssd_busy += mach.ssd(i).channel_busy_time();
      s.ssd_written += mach.ssd(i).stats().bytes_written;
    }
    for (int i = 0; i < mach.num_hdds(); ++i) {
      s.hdd_busy += mach.hdd(i).busy_time();
      s.hdd_written += mach.hdd(i).stats().bytes_written;
    }
  }
  for (size_t i = 0; i < cl.num_servers(); ++i) {
    auto* srv = cl.server(static_cast<ursa::cluster::ServerId>(i));
    s.server_ops += srv->reads_served() + srv->writes_served() + srv->replicates_served();
  }
  s.rec = cl.master().recovery_stats();
  for (ursa::journal::JournalManager* jm : cl.journal_managers()) {
    const auto& js = jm->stats();
    s.jr.journaled_writes += js.journaled_writes;
    s.jr.bypassed_writes += js.bypassed_writes;
    s.jr.direct_fallback_writes += js.direct_fallback_writes;
    s.jr.replayed_records += js.replayed_records;
    s.jr.merged_records += js.merged_records;
    s.jr.replay_submits += js.replay_submits;
    s.jr.expansions += js.expansions;
  }
  s.tier = cl.master().tier_stats();
  if (auto* mig = cl.tier_migrator()) {
    s.candidates = mig->stats().candidates_examined;
  }
  return s;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Nearest-rank percentile of sorted samples.
double Percentile(const std::vector<Nanos>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

// ---------------------------------------------------------------------------

using Metrics = std::vector<std::pair<std::string, double>>;

struct RoundResult {
  Metrics e2e_sim;    // sim-clock end-to-end metrics
  Metrics layer_sim;  // sim-clock per-layer metrics
  Metrics layer_wall; // wall-clock per-layer metrics
  double setup_s = 0;
  double host_ops_per_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  bool ok = true;           // phases completed, audit matched
  uint64_t fingerprint = 0;  // hash of every sim-clock result of the round
};

// One round's cluster plus its tenants.
class Bench {
 public:
  Bench(const ursa::core::SystemProfile& profile, uint64_t seed)
      : net_rng_(Mix64(seed ^ 0x6e6574ULL)), bed_(profile), loop_(&bed_.sim()), seed_(seed) {
    bed_.cluster().transport().SetChaosRng(&net_rng_);
  }

  ursa::core::TestBed& bed() { return bed_; }
  ClosedLoop& loop() { return loop_; }

  Tenant* AddTenant(uint64_t size, int stripe_group) {
    auto t = std::make_unique<Tenant>();
    t->index = static_cast<int>(tenants_.size());
    t->disk = bed_.NewDisk(size, 3, stripe_group);
    const uint64_t tag = Mix64(seed_ * 0x100 + tenants_.size());
    t->oracle = std::make_unique<DiskOracle>(tag, size);
    t->think_rng = ursa::Rng(Mix64(tag));
    tenants_.push_back(std::move(t));
    SetLinkJitter();  // the tenant's client host is a new network node
    return tenants_.back().get();
  }
  std::vector<Tenant*> tenants() const {
    std::vector<Tenant*> out;
    for (const auto& t : tenants_) {
      out.push_back(t.get());
    }
    return out;
  }

  // Runs one unmeasured phase; failures and mismatches still count.
  bool Phase(std::vector<ClosedLoop::Job> jobs, uint64_t budget) {
    Window w;
    bool ok = loop_.Run(std::move(jobs), budget, &w);
    unmeasured_failed_ += w.failed;
    unmeasured_mismatches_ += w.mismatches;
    return ok;
  }

  // Writes (or reads back and verifies) the first `limit` bytes (default:
  // all) of every disk of `tenants` in 1 MiB ops.
  bool Sweep(const std::vector<Tenant*>& tenants, bool write, int qd, uint64_t limit = UINT64_MAX) {
    std::vector<std::unique_ptr<SweepStream>> streams;
    std::vector<ClosedLoop::Job> jobs;
    uint64_t budget = 0;
    for (Tenant* t : tenants) {
      streams.push_back(std::make_unique<SweepStream>(write, 1 * kMiB,
                                                      std::min(limit, t->oracle->size())));
      budget += streams.back()->ops();
      jobs.push_back({t, streams.back().get(), qd});
    }
    return Phase(std::move(jobs), budget);
  }

  void RunFor(Nanos d) { bed_.sim().RunUntil(bed_.sim().Now() + d); }

  // Waits (bounded) until every journal has been replayed into its HDD.
  void DrainReplay() {
    for (int i = 0; i < 2000; ++i) {
      bool drained = true;
      for (auto* jm : bed_.cluster().journal_managers()) {
        drained = drained && jm->ReplayDrained();
      }
      if (drained) {
        return;
      }
      RunFor(ursa::msec(10));
    }
  }

  void SetLinkJitter() {
    auto& net = bed_.cluster().transport();
    ursa::net::LinkChaosRule rule;
    rule.jitter = kNetJitter;
    for (ursa::net::NodeId a = 0; a < net.num_nodes(); ++a) {
      for (ursa::net::NodeId b = 0; b < net.num_nodes(); ++b) {
        if (a != b) {
          net.SetLinkChaos(a, b, rule);
        }
      }
    }
  }

  uint64_t unmeasured_failed() const { return unmeasured_failed_; }
  uint64_t unmeasured_mismatches() const { return unmeasured_mismatches_; }

 private:
  ursa::Rng net_rng_;  // jitter stream; outlives the transport that draws from it
  ursa::core::TestBed bed_;
  ClosedLoop loop_;
  uint64_t seed_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  uint64_t unmeasured_failed_ = 0;
  uint64_t unmeasured_mismatches_ = 0;
};

ursa::core::SystemProfile BaseProfile(uint64_t chunk_size) {
  ursa::core::SystemProfile p = ursa::core::UrsaHybridProfile(3);
  p.cluster.chunk_size = chunk_size;
  const auto& mc = p.cluster.machine;
  int regions_per_ssd = (mc.hdds + mc.ssds - 1) / mc.ssds * (p.cluster.enable_expansion_journal ? 2 : 1);
  p.cluster.journal_quota_fraction = static_cast<double>(kJournalRegion * regions_per_ssd) /
                                     static_cast<double>(mc.ssd.capacity);
  return p;
}

// Bench-scale tiering, as in bench/bench_tiering.cc: a demotion wave within a
// couple of simulated seconds; policy promotion off (writes still promote).
// Writes promote reconstruct-first: with speculative promotion, concurrent
// writes into a chunk whose back-fill is committing leave its replicas at
// diverged versions on some seeds, and every later write to that chunk
// fails with VERSION_MISMATCH.
ursa::tier::TierConfig ColdTierConfig() {
  ursa::tier::TierConfig t;
  t.enabled = true;
  t.ec_k = 4;
  t.ec_m = 2;
  t.heat_half_life = ursa::msec(100);
  t.scan_interval = ursa::msec(100);
  t.demote_max_heat = 2.0;
  t.cold_age = ursa::msec(250);
  t.promote_heat = 1e18;
  t.max_concurrent = 2;
  t.speculative_promote = false;
  return t;
}

// Workload description: how to build and prepare a round, and which jobs the
// measured window runs.
struct Plan {
  ursa::core::SystemProfile profile;
  uint64_t window_ops = 0;
  // Builds tenants, prefills, drains/demotes and warms up; returns the
  // window's jobs (streams owned by `owned`). False = set-up failed.
  std::function<bool(Bench&, std::vector<std::unique_ptr<OpStream>>& owned,
                     std::vector<ClosedLoop::Job>& jobs)>
      setup;
};

Plan VmFleetPlan(uint64_t seed) {
  Plan plan;
  plan.profile = BaseProfile(2 * kMiB);
  plan.window_ops = kFleetWindow;
  plan.setup = [seed](Bench& b, std::vector<std::unique_ptr<OpStream>>& owned,
                      std::vector<ClosedLoop::Job>& jobs) {
    ursa::trace::TraceProfile balanced;
    balanced.name = "balanced";
    balanced.write_fraction = 0.5;
    balanced.reread_fraction = 0.5;
    balanced.overwrite_fraction = 0.4;
    std::vector<ursa::trace::TraceProfile> profiles = {
        *ursa::trace::FindTraceProfile("prxy_0"), *ursa::trace::FindTraceProfile("proj_0"),
        *ursa::trace::FindTraceProfile("mds_1"), balanced};
    std::vector<Tenant*> ts;
    for (size_t i = 0; i < profiles.size(); ++i) {
      ts.push_back(b.AddTenant(kFleetDisk, 4));
    }
    if (!b.Sweep(ts, /*write=*/true, 4, kFleetPrefill)) {
      return false;
    }
    b.DrainReplay();
    for (size_t i = 0; i < ts.size(); ++i) {
      owned.push_back(std::make_unique<MsrStream>(profiles[i], kFleetDisk, Mix64(seed + 17 * i)));
      jobs.push_back({ts[i], owned.back().get(), kFleetQd});
    }
    return b.Phase(jobs, kFleetWarmup);
  };
  return plan;
}

Plan SeqStreamPlan(uint64_t seed) {
  Plan plan;
  plan.profile = BaseProfile(8 * kMiB);
  plan.window_ops = kSeqWindow;
  plan.setup = [seed](Bench& b, std::vector<std::unique_ptr<OpStream>>& owned,
                      std::vector<ClosedLoop::Job>& jobs) {
    Tenant* t = b.AddTenant(kSeqDiskBlocks * kSeqBlock, 4);
    if (!b.Sweep({t}, /*write=*/true, kSeqQd)) {
      return false;
    }
    b.DrainReplay();
    owned.push_back(
        std::make_unique<SeqStream>(kSeqBlock, kSeqPassOps, kSeqDiskBlocks, Mix64(seed)));
    jobs.push_back({t, owned.back().get(), kSeqQd});
    return b.Phase(jobs, kSeqWarmup);
  };
  return plan;
}

Plan ColdTierPlan(uint64_t seed) {
  Plan plan;
  plan.profile = BaseProfile(1 * kMiB);
  plan.profile.cluster.tier = ColdTierConfig();
  plan.profile.cluster.qos.enabled = true;
  plan.profile.cluster.scrub.enabled = true;
  plan.profile.cluster.scrub.sweep_interval = ursa::sec(1);
  plan.profile.cluster.scrub.read_bytes = kColdScrubPiece;
  plan.window_ops = kColdWindow;
  plan.setup = [seed](Bench& b, std::vector<std::unique_ptr<OpStream>>& owned,
                      std::vector<ClosedLoop::Job>& jobs) {
    Tenant* hot = b.AddTenant(kColdDisk, 1);
    if (!b.Sweep({hot}, /*write=*/true, 4)) {
      return false;
    }
    b.DrainReplay();
    // Wait for the migrator to demote the whole disk.
    auto& master = b.bed().cluster().master();
    const ursa::cluster::DiskMeta* meta = *master.GetDisk(1);
    auto all_ec = [meta]() {
      for (const auto& l : meta->chunks) {
        if (l.tier != ursa::cluster::ChunkTier::kEc) {
          return false;
        }
      }
      return true;
    };
    for (int i = 0; i < 3000 && !all_ec(); ++i) {
      b.RunFor(ursa::msec(10));
    }
    if (!all_ec()) {
      return false;
    }
    // A second disk, written now and idle from here on: it goes cold and
    // demotes during the window.
    Tenant* idle = b.AddTenant(kColdDisk, 1);
    if (!b.Sweep({idle}, /*write=*/true, 4)) {
      return false;
    }
    // Warm up on reads only, so the window's first writes are the ones that
    // promote the written chunks.
    RandomStream warm(4 * kKiB, 1.0, kColdDisk, kColdWriteSpan, Mix64(seed + 1));
    if (!b.Phase({{hot, &warm, kColdQd, kColdThink}}, kColdWarmup)) {
      return false;
    }
    owned.push_back(std::make_unique<RandomStream>(4 * kKiB, kColdReadFraction, kColdDisk,
                                                   kColdWriteSpan, Mix64(seed)));
    jobs.push_back({hot, owned.back().get(), kColdQd, kColdThink});
    return true;
  };
  return plan;
}

Plan MakePlan(const std::string& workload, uint64_t seed) {
  if (workload == "vm-fleet") {
    return VmFleetPlan(seed);
  }
  if (workload == "seq-stream") {
    return SeqStreamPlan(seed);
  }
  if (workload == "cold-tier") {
    return ColdTierPlan(seed);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
  std::exit(2);
}

// Service-latency digests fed by BlockDevice latency observers.
struct DeviceLatency {
  std::vector<Nanos> ssd;
  std::vector<Nanos> hdd;
};

RoundResult RunRound(const std::string& workload, uint64_t seed, bool traced,
                     std::vector<SpanRec>* spans) {
  RoundResult r;
  Plan plan = MakePlan(workload, seed);
  DeviceLatency dev;  // outlives the bench (observers reference it)
  const int64_t t_setup = WallNs();
  Bench b(plan.profile, seed);
  std::vector<std::unique_ptr<OpStream>> owned;
  std::vector<ClosedLoop::Job> jobs;
  if (!plan.setup(b, owned, jobs)) {
    r.ok = false;
    return r;
  }
  auto& bed = b.bed();
  auto& cl = bed.cluster();
  const std::vector<Tenant*> tenants = b.tenants();

  // ---- measured window ----
  if (traced) {
    bed.EnableTracing(1);
    bed.tracer().Reset();
    for (size_t m = 0; m < cl.num_machines(); ++m) {
      auto& mach = cl.machine(m);
      for (int i = 0; i < mach.num_ssds(); ++i) {
        mach.ssd(i).SetLatencyObserver(
            [&dev](ursa::qos::ServiceClass, ursa::storage::IoType, Nanos lat) {
              dev.ssd.push_back(lat);
            });
      }
      for (int i = 0; i < mach.num_hdds(); ++i) {
        mach.hdd(i).SetLatencyObserver(
            [&dev](ursa::qos::ServiceClass, ursa::storage::IoType, Nanos lat) {
              dev.hdd.push_back(lat);
            });
      }
    }
    b.loop().set_spans(spans);
  }
  uint64_t index_segments_peak = 0;
  double ring_fill_peak = 0;
  auto sample_journals = [&cl, &index_segments_peak, &ring_fill_peak]() {
    uint64_t segs = 0;
    for (auto* jm : cl.journal_managers()) {
      segs += jm->IndexSegments();
      for (size_t i = 0; i < jm->num_journals(); ++i) {
        const auto& jw = jm->journal(i);
        ring_fill_peak = std::max(
            ring_fill_peak, Ratio(static_cast<double>(jw.used_bytes()),
                                  static_cast<double>(jw.region_length())));
      }
    }
    index_segments_peak = std::max(index_segments_peak, segs);
  };
  b.loop().set_sampler(sample_journals);

  const double setup_s = static_cast<double>(WallNs() - t_setup) / 1e9;
  const Snap s0 = TakeSnap(bed, tenants);
  Window w;
  const int64_t t_window = WallNs();
  bool ok = b.loop().Run(jobs, plan.window_ops, &w);
  const double window_wall_s = static_cast<double>(WallNs() - t_window) / 1e9;
  const Snap s1 = TakeSnap(bed, tenants);
  sample_journals();
  const double space_amp = Ratio(static_cast<double>(cl.master().PhysicalBytes()),
                                 static_cast<double>(cl.master().LogicalBytes()));
  uint64_t backlog = 0;
  for (auto* jm : cl.journal_managers()) {
    backlog += jm->BacklogBytes();
  }
  b.loop().set_spans(nullptr);
  b.loop().set_sampler(nullptr);

  // ---- audit: every acked byte reads back ----
  ok = b.Sweep(tenants, /*write=*/false, 4) && ok;

  r.ok = ok;
  r.setup_s = setup_s;
  r.attempted = w.attempted;
  r.failed = w.failed + b.unmeasured_failed();
  if (w.failed > 0) {
    std::fprintf(stderr, "  window: %llu failed (%llu writes), first %s\n",
                 static_cast<unsigned long long>(w.failed),
                 static_cast<unsigned long long>(w.failed_writes), w.first_error.c_str());
  }
  r.mismatches = w.mismatches + b.unmeasured_mismatches();
  const double ops = static_cast<double>(w.completed());
  r.host_ops_per_s = Ratio(ops, window_wall_s);

  std::sort(w.read_lat.begin(), w.read_lat.end());
  std::sort(w.write_lat.begin(), w.write_lat.end());
  for (const auto* lat : {&w.read_lat, &w.write_lat}) {
    std::fprintf(stderr, "  %s us:", lat == &w.read_lat ? "read " : "write");
    for (double p : {10.0, 50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9, 100.0}) {
      std::fprintf(stderr, " p%g=%.1f", p, Percentile(*lat, p) / 1e3);
    }
    std::fprintf(stderr, "\n");
  }
  const double sim_s = static_cast<double>(w.sim_end - w.sim_start) / 1e9;
  const double user_bytes = static_cast<double>(w.read_bytes + w.write_bytes);
  r.e2e_sim = {
      {"read_p50_us", Percentile(w.read_lat, 50) / 1e3},
      {"read_p99_us", Percentile(w.read_lat, 99) / 1e3},
      {"write_p50_us", Percentile(w.write_lat, 50) / 1e3},
      {"write_p99_us", Percentile(w.write_lat, 99) / 1e3},
      {"iops", Ratio(ops, sim_s)},
      {"throughput_mbps", Ratio(user_bytes / 1e6, sim_s)},
      {"space_amp", space_amp},
  };

  const double window_ns = static_cast<double>(s1.sim_now - s0.sim_now);
  const auto& mc = plan.profile.cluster.machine;
  const double machines = static_cast<double>(cl.num_machines());
  const double d_write_bytes = static_cast<double>(w.write_bytes);
  const double journaled = static_cast<double>(s1.jr.journaled_writes - s0.jr.journaled_writes);
  const double backup_writes =
      journaled + static_cast<double>(s1.jr.bypassed_writes - s0.jr.bypassed_writes) +
      static_cast<double>(s1.jr.direct_fallback_writes - s0.jr.direct_fallback_writes);
  const double replayed = static_cast<double>(s1.jr.replayed_records - s0.jr.replayed_records);
  const double merged = static_cast<double>(s1.jr.merged_records - s0.jr.merged_records);
  auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
  r.layer_sim = {
      {"failed_op_ratio", Ratio(static_cast<double>(w.failed), static_cast<double>(w.attempted))},
      {"bench.read_samples", static_cast<double>(w.read_lat.size())},
      {"bench.write_samples", static_cast<double>(w.write_lat.size())},
      {"client.loop_busy_frac",
       Ratio(static_cast<double>(s1.loop_busy - s0.loop_busy),
             window_ns * static_cast<double>(tenants.size()))},
      {"client.retries", d(s1.retries, s0.retries)},
      {"client.timeouts", d(s1.timeouts, s0.timeouts)},
      {"client.primary_switches", d(s1.primary_switches, s0.primary_switches)},
      {"client.ec_shard_reads", d(s1.ec_shard_reads, s0.ec_shard_reads)},
      {"client.ec_degraded_reads", d(s1.ec_degraded_reads, s0.ec_degraded_reads)},
      {"client.spec_writes", d(s1.spec_writes, s0.spec_writes)},
      {"client.write_promotes", d(s1.write_promotes, s0.write_promotes)},
      {"net.msgs_per_op", Ratio(s1.net_msgs - s0.net_msgs, ops)},
      {"net.coalesced_frac", Ratio(s1.net_coalesced - s0.net_coalesced, s1.net_msgs - s0.net_msgs)},
      {"net.bytes_per_user_byte", Ratio(s1.net_bytes - s0.net_bytes, user_bytes)},
      {"cluster.server_cpu_busy_frac",
       Ratio(static_cast<double>(s1.cpu_busy - s0.cpu_busy), window_ns * machines * mc.cores)},
      {"cluster.server_ops_per_op", Ratio(d(s1.server_ops, s0.server_ops), ops)},
      {"cluster.view_changes", d(s1.rec.view_changes, s0.rec.view_changes)},
      {"cluster.chunks_recovered", d(s1.rec.chunks_recovered, s0.rec.chunks_recovered)},
      {"cluster.recovery_bytes", d(s1.rec.bytes_transferred, s0.rec.bytes_transferred)},
      {"journal.journaled_frac", Ratio(journaled, backup_writes)},
      {"journal.merge_frac", Ratio(merged, merged + replayed)},
      {"journal.replay_submits_per_record",
       Ratio(d(s1.jr.replay_submits, s0.jr.replay_submits), replayed)},
      {"journal.backlog_mb_end", static_cast<double>(backlog) / kMiB},
      {"journal.expansions", d(s1.jr.expansions, s0.jr.expansions)},
      {"journal.fallback_writes",
       d(s1.jr.direct_fallback_writes, s0.jr.direct_fallback_writes)},
      {"journal.index_segments_peak", static_cast<double>(index_segments_peak)},
      {"journal.ring_fill_peak", ring_fill_peak},
      {"storage.ssd_busy_frac",
       Ratio(static_cast<double>(s1.ssd_busy - s0.ssd_busy),
             window_ns * machines * mc.ssds * mc.ssd.channels)},
      {"storage.hdd_busy_frac",
       Ratio(static_cast<double>(s1.hdd_busy - s0.hdd_busy), window_ns * machines * mc.hdds)},
      {"storage.ssd_write_amp", Ratio(d(s1.ssd_written, s0.ssd_written), d_write_bytes)},
      {"storage.hdd_write_amp", Ratio(d(s1.hdd_written, s0.hdd_written), d_write_bytes)},
      {"sim.events_per_op", Ratio(static_cast<double>(w.events), ops)},
      {"sim.pending_events_peak", static_cast<double>(w.pending_peak)},
      {"tier.demotions", d(s1.tier.demotions, s0.tier.demotions)},
      {"tier.promotions", d(s1.tier.promotions, s0.tier.promotions)},
      {"tier.spec_promotions", d(s1.tier.spec_promotions, s0.tier.spec_promotions)},
      {"tier.ec_bytes_encoded", d(s1.tier.ec_bytes_encoded, s0.tier.ec_bytes_encoded)},
      {"tier.shard_repairs", d(s1.tier.shard_repairs, s0.tier.shard_repairs)},
      {"tier.scan_candidates_examined", d(s1.candidates, s0.candidates)},
      {"scrub.bytes_read", s1.scrub_bytes - s0.scrub_bytes},
      {"scrub.sweeps_completed", s1.scrub_sweeps - s0.scrub_sweeps},
      {"qos.preemptions", s1.qos_preempt - s0.qos_preempt},
      {"qos.bg_grants", s1.qos_bg - s0.qos_bg},
      {"admission.waits", s1.adm_waits - s0.adm_waits},
  };
  // Sim-clock identity of the round: every sim-clock metric plus every
  // latency sample. Tracing and observers must not change it.
  uint64_t h = 0;
  auto mix = [&h](uint64_t x) { h = Mix64(h ^ x); };
  for (const Metrics* ms : {&r.e2e_sim, &r.layer_sim}) {
    for (const auto& [k, v] : *ms) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      mix(std::hash<std::string>{}(k));
      mix(bits);
    }
  }
  for (const auto* lat : {&w.read_lat, &w.write_lat}) {
    for (Nanos x : *lat) {
      mix(static_cast<uint64_t>(x));
    }
  }
  r.fingerprint = h;

  if (traced) {
    std::sort(dev.ssd.begin(), dev.ssd.end());
    std::sort(dev.hdd.begin(), dev.hdd.end());
    r.layer_sim.push_back({"storage.ssd_service_p99_us", Percentile(dev.ssd, 99) / 1e3});
    r.layer_sim.push_back({"storage.hdd_service_p99_us", Percentile(dev.hdd, 99) / 1e3});
    const auto& tr = bed.tracer();
    for (const auto* bd : {&tr.reads(), &tr.writes()}) {
      const std::string kind = bd == &tr.reads() ? "read" : "write";
      for (int i = 0; i < ursa::obs::kNumStages; ++i) {
        const std::string base =
            "trace." + kind + "." + ursa::obs::StageName(static_cast<ursa::obs::Stage>(i));
        r.layer_sim.push_back({base + ".p50_us", static_cast<double>(bd->stage_us[i].Percentile(50))});
        r.layer_sim.push_back({base + ".p99_us", static_cast<double>(bd->stage_us[i].Percentile(99))});
      }
    }
    r.layer_sim.push_back({"trace.reconcile_err", std::max(tr.reads().ReconciliationError(),
                                                           tr.writes().ReconciliationError())});
  }
  const double window_wall_ns = window_wall_s * 1e9;
  r.layer_wall = {
      {"client.issue_wall_ns", Ratio(static_cast<double>(w.issue_ns), static_cast<double>(w.attempted))},
      {"sim.wall_ns_per_event",
       Ratio(static_cast<double>(w.run_ns - w.bench_ns - w.issue_ns), static_cast<double>(w.events))},
      {"bench.driver_wall_frac", Ratio(static_cast<double>(w.bench_ns), window_wall_ns)},
  };

  return r;
}

// Peak resident set of this process in MiB (one round per process, so this
// is the round's peak).
double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void WriteSpans(const std::string& path, const std::vector<SpanRec>& spans) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  os << "op_id,disk,type,ok,offset,bytes,wall_issue_ns,wall_complete_ns,sim_issue_ns,"
        "sim_complete_ns\n";
  const int64_t w0 = spans.empty() ? 0 : spans.front().wall_issue;
  for (const SpanRec& s : spans) {
    os << s.id << ',' << s.disk << ',' << (s.write ? "write" : "read") << ',' << (s.ok ? 1 : 0)
       << ',' << s.off << ',' << s.len << ',' << s.wall_issue - w0 << ',' << s.wall_done - w0
       << ',' << s.sim_issue << ',' << s.sim_done << '\n';
  }
}

struct Unit {
  const char* name;
  const char* unit;
};

const char* UnitOf(const std::string& name) {
  static const Unit kUnits[] = {
      {"read_p50_us", "us"},        {"read_p99_us", "us"},       {"write_p50_us", "us"},
      {"write_p99_us", "us"},       {"iops", "op/s"},            {"throughput_mbps", "MB/s"},
      {"space_amp", "x"},           {"client.issue_wall_ns", "ns"},
      {"sim.wall_ns_per_event", "ns"}, {"journal.backlog_mb_end", "MB"},
      {"cluster.recovery_bytes", "B"}, {"tier.ec_bytes_encoded", "B"},
      {"scrub.bytes_read", "B"},
  };
  for (const Unit& u : kUnits) {
    if (name == u.name) {
      return u.unit;
    }
  }
  if (name.size() > 3 && name.compare(name.size() - 3, 3, "_us") == 0) {
    return "us";
  }
  if (name.find("frac") != std::string::npos || name.find("ratio") != std::string::npos ||
      name.find("per_") != std::string::npos || name.find("amp") != std::string::npos ||
      name.find("err") != std::string::npos || name.find("fill") != std::string::npos) {
    return "ratio";
  }
  return "count";
}

void PrintMetrics(const char* key, const Metrics& metrics) {
  std::printf(", \"%s\": {", key);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].first.c_str(), metrics[i].second, UnitOf(metrics[i].first));
  }
  std::printf("}");
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  bool traced = false;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = std::stoull(val);
    } else if (flag == "--traced") {
      traced = val == "1";
    } else if (flag == "--spans") {
      spans_path = val;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (workload.empty()) {
    std::fprintf(stderr, "usage: vdisk_bench --workload W --seed N [--traced 0|1 --spans FILE]\n");
    return 2;
  }

  // Large payload buffers come from the heap rather than per-op mmap/munmap,
  // and freed heap stays mapped for reuse instead of being re-faulted.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  std::vector<SpanRec> spans;
  const bool record_spans = traced && !spans_path.empty();
  RoundResult r = RunRound(workload, seed, traced, record_spans ? &spans : nullptr);
  if (record_spans) {
    WriteSpans(spans_path, spans);
  }
  std::fprintf(stderr,
               "%s seed %llu%s: setup %.3f s, %.0f host op/s, %llu attempted, %llu failed, "
               "%llu mismatches%s\n",
               workload.c_str(), static_cast<unsigned long long>(seed), traced ? " (traced)" : "",
               r.setup_s, r.host_ops_per_s, static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed),
               static_cast<unsigned long long>(r.mismatches), r.ok ? "" : ", INCOMPLETE");

  // One round record; perfbench/run.py aggregates rounds into the result.
  std::printf("{\"ok\": %s, \"attempted\": %llu, \"failed\": %llu, \"mismatches\": %llu, "
              "\"fingerprint\": \"%016llx\", \"setup_s\": %.9g, \"host_ops_per_s\": %.9g, "
              "\"peak_rss_mb\": %.6g",
              r.ok ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.mismatches),
              static_cast<unsigned long long>(r.fingerprint), r.setup_s, r.host_ops_per_s,
              PeakRssMb());
  PrintMetrics("end_to_end", r.e2e_sim);
  PrintMetrics("per_layer", r.layer_sim);
  PrintMetrics("per_layer_wall", r.layer_wall);
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
