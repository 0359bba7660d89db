#include "src/client/virtual_disk.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/ec/reed_solomon.h"
#include "src/net/message.h"

namespace ursa::client {

using cluster::ChunkLayout;
using cluster::ChunkServer;
using cluster::ReplicaRef;
using cluster::ReplicaState;
using net::MessageType;
using net::WireBytes;
using storage::ChunkId;

namespace {
// Per-byte client-side cost (NBD socket + VMM copies), charged on the event
// loop with the sub-request that carries the bytes (~2.9 GB/s).
constexpr double kLoopByteCostNs = 0.35;
// Bounded exponential backoff between failed attempts (DESIGN.md "Fault
// model & chaos harness"): attempt k waits base * 2^(k-1) capped at max,
// with deterministic jitter (half fixed, half uniform from the client's
// seeded rng).
constexpr Nanos kRetryBackoffBase = msec(2);
constexpr Nanos kRetryBackoffMax = msec(100);
}  // namespace

VirtualDisk::VirtualDisk(cluster::Cluster* cluster, cluster::Machine* host,
                         cluster::ClientId client_id, const VirtualDiskClientOptions& options)
    : sim_(cluster->simulator()),
      cluster_(cluster),
      host_(host),
      client_id_(client_id),
      options_(options),
      retry_rng_(0x9E3779B97F4A7C15ull ^ client_id) {
  loop_ = std::make_unique<sim::Resource>(sim_, "client" + std::to_string(client_id) + "/loop",
                                          1);
  obs::MetricsRegistry& registry = cluster_->metrics();
  obs::Labels labels{{"client", std::to_string(client_id)}};
  registry.RegisterCallbackCounter("client.reads", labels,
                                   [this]() { return static_cast<double>(stats_.reads); });
  registry.RegisterCallbackCounter("client.writes", labels,
                                   [this]() { return static_cast<double>(stats_.writes); });
  registry.RegisterCallbackCounter("client.read_bytes", labels,
                                   [this]() { return static_cast<double>(stats_.read_bytes); });
  registry.RegisterCallbackCounter("client.write_bytes", labels, [this]() {
    return static_cast<double>(stats_.write_bytes);
  });
  registry.RegisterCallbackCounter("client.retries", labels,
                                   [this]() { return static_cast<double>(stats_.retries); });
  registry.RegisterCallbackCounter("client.throttled_writes", labels, [this]() {
    return static_cast<double>(stats_.throttled_writes);
  });
  registry.RegisterCallbackCounter("client.timeouts", labels,
                                   [this]() { return static_cast<double>(stats_.timeouts); });
  registry.RegisterCallbackCounter("client.explicit_failures", labels, [this]() {
    return static_cast<double>(stats_.explicit_failures);
  });
  registry.RegisterCallbackCounter("client.integrity_errors", labels, [this]() {
    return static_cast<double>(stats_.integrity_errors);
  });
  registry.RegisterCallbackCounter("client.backoff_retries", labels, [this]() {
    return static_cast<double>(stats_.backoff_retries);
  });
  registry.RegisterCallbackCounter("client.ec_shard_reads", labels, [this]() {
    return static_cast<double>(stats_.ec_shard_reads);
  });
  registry.RegisterCallbackCounter("client.ec_degraded_reads", labels, [this]() {
    return static_cast<double>(stats_.ec_degraded_reads);
  });
  registry.RegisterCallbackCounter("client.write_promotes", labels, [this]() {
    return static_cast<double>(stats_.write_promotes);
  });
  registry.RegisterCallbackCounter("client.spec_writes", labels, [this]() {
    return static_cast<double>(stats_.spec_writes);
  });
  registry.RegisterCallbackCounter("client.spec_reads", labels, [this]() {
    return static_cast<double>(stats_.spec_reads);
  });
  registry.RegisterHistogram("client.read_latency_us", labels, &stats_.read_latency_us);
  registry.RegisterHistogram("client.write_latency_us", labels, &stats_.write_latency_us);
}

Status VirtualDisk::Open(cluster::DiskId disk) {
  Result<const cluster::DiskMeta*> meta = cluster_->master().OpenDisk(disk, client_id_);
  if (!meta.ok()) {
    return meta.status();
  }
  meta_ = **meta;
  chunk_states_.assign(meta_.chunks.size(), ChunkState{});

  // Initialization (§4.2.1): confirm the per-chunk version numbers with the
  // replicas and pick the preferred primary (the SSD replica).
  for (size_t i = 0; i < meta_.chunks.size(); ++i) {
    const ChunkLayout& layout = meta_.chunks[i];
    ChunkState& cs = chunk_states_[i];
    // A speculating chunk's write set is its spec replicas (the committed
    // replica list is empty until the promotion commits).
    for (const ReplicaRef& ref : WriteSet(layout)) {
      if (Result<ReplicaState> st = ReplicaStateOf(layout, ref); st.ok()) {
        cs.version = cluster::AdoptVersion(cs.version, st->version);
      }
    }
    cs.committed = cs.version;
    cs.spec_extents = layout.spec_extents;
    // Preferred primary: healthy SSD, then healthy HDD, then demoted
    // replicas (health steering, DESIGN.md §10).
    cs.primary = 0;
    int best_pref = 99;
    for (size_t r = 0; r < layout.replicas.size(); ++r) {
      int pref = cluster::ReplicaRank(layout.replicas[r]);
      if (pref < best_pref) {
        best_pref = pref;
        cs.primary = r;
      }
    }
  }
  open_ = true;
  return OkStatus();
}

Status VirtualDisk::Close() {
  if (!open_) {
    return OkStatus();
  }
  open_ = false;
  return cluster_->master().CloseDisk(meta_.id, client_id_);
}

void VirtualDisk::RefreshLayout() {
  Result<const cluster::DiskMeta*> meta = cluster_->master().GetDisk(meta_.id);
  if (!meta.ok()) {
    return;
  }
  // Preserve per-chunk client state; only the layout (replicas, views) moved.
  for (size_t i = 0; i < meta_.chunks.size(); ++i) {
    meta_.chunks[i] = (*meta)->chunks[i];
    // Sync speculation extents: merge the master's registered set into what
    // this client already acked (registration is post-ack, so the local set
    // can briefly lead the master's); drop them once speculation ends.
    ChunkState& cs = chunk_states_[i];
    if (meta_.chunks[i].speculating()) {
      for (const Interval& e : meta_.chunks[i].spec_extents) {
        InsertInterval(&cs.spec_extents, e);
      }
    } else {
      cs.spec_extents.clear();
    }
  }
}

void VirtualDisk::SplitRequest(uint64_t offset, uint64_t length,
                               std::vector<SubRequest>* subs) const {
  URSA_CHECK_EQ(offset % journal::kSector, 0u);
  URSA_CHECK_EQ(length % journal::kSector, 0u);
  URSA_CHECK_GT(length, 0u);
  URSA_CHECK_LE(offset + length, meta_.size);

  uint64_t g = static_cast<uint64_t>(meta_.stripe_group);
  uint64_t u = meta_.stripe_unit;
  uint64_t c = meta_.chunk_size;
  uint64_t group_span = g * c;

  const size_t first = subs->size();
  uint64_t pos = offset;
  uint64_t remaining = length;
  while (remaining > 0) {
    uint64_t group = pos / group_span;
    uint64_t within = pos % group_span;
    uint64_t stripe = within / u;
    uint64_t in_unit = within % u;
    uint64_t chunk_index = group * g + stripe % g;
    uint64_t chunk_off = (stripe / g) * u + in_unit;
    uint64_t run = std::min(remaining, u - in_unit);
    URSA_CHECK_LT(chunk_index, meta_.chunks.size());

    if (subs->size() > first && subs->back().chunk_index == chunk_index &&
        subs->back().chunk_offset + subs->back().length == chunk_off) {
      subs->back().length += run;  // contiguous in the same chunk: merge
    } else {
      subs->push_back(SubRequest{chunk_index, chunk_off, run, pos - offset});
    }
    pos += run;
    remaining -= run;
  }
}

void VirtualDisk::Read(uint64_t offset, uint64_t length, void* out, storage::IoCallback done) {
  uint32_t op = ops_.Acquire();
  OpRecord& rec = ops_[op];
  rec.is_write = false;
  rec.offset = offset;
  rec.length = length;
  rec.out = out;
  rec.done = std::move(done);
  StartRead(op);
}

void VirtualDisk::Write(uint64_t offset, uint64_t length, ursa::BufferView data,
                        storage::IoCallback done) {
  uint32_t op = ops_.Acquire();
  OpRecord& rec = ops_[op];
  rec.is_write = true;
  rec.offset = offset;
  rec.length = length;
  rec.data = std::move(data);
  rec.done = std::move(done);
  StartWrite(op);
}

void VirtualDisk::StartOp(uint32_t op) {
  if (ops_[op].is_write) {
    StartWrite(op);
  } else {
    StartRead(op);
  }
}

void VirtualDisk::StartRead(uint32_t op) {
  URSA_CHECK(open_);
  if (upgrading_) {
    // Core/shell upgrade in progress: hold the request; it resumes on the
    // new core (§5.2).
    paused_ops_.push_back(op);
    return;
  }
  ++inflight_user_ops_;
  OpRecord& rec = ops_[op];
  ++stats_.reads;
  stats_.read_bytes += rec.length;
  rec.start = sim_->Now();
  rec.span = cluster_->tracer().StartSpan(/*is_write=*/false, rec.start);
  if (rec.span != nullptr) {
    // Both fixed VMM/NBD hops are deterministic configured costs.
    rec.span->RecordStage(obs::Stage::kVmm, 2 * options_.vmm_overhead);
  }

  split_.clear();
  SplitRequest(rec.offset, rec.length, &split_);
  rec.remaining = static_cast<uint32_t>(split_.size());
  for (const SubRequest& sub : split_) {
    uint32_t s = subs_.Acquire();
    SubRecord& sr = subs_[s];
    sr.op = op;
    sr.sub = sub;
    sr.attempt = 1;
    sr.out = rec.out == nullptr ? nullptr : static_cast<uint8_t*>(rec.out) + sub.user_offset;
    // VMM/NBD entry cost, then the client loop issues the request.
    auto enter = [this, s, gen = sr.gen]() {
      URSA_CHECK(SubLive(s, gen));
      auto issue = [this, s, gen]() {
        URSA_CHECK(SubLive(s, gen));
        IssueRead(s);
      };
      static_assert(InlineFn::kFitsInline<decltype(issue)>);
      loop_->Submit(options_.loop_issue_cost, issue);
    };
    static_assert(InlineFn::kFitsInline<decltype(enter)>);
    sim_->After(options_.vmm_overhead, enter);
  }
}

void VirtualDisk::StartWrite(uint32_t op) {
  URSA_CHECK(open_);
  if (upgrading_) {
    paused_ops_.push_back(op);
    return;
  }
  // Master-imposed throttle (§3.2): delay the write until a token is free.
  Nanos wait = write_limiter_.Acquire(sim_->Now());
  if (wait > 0) {
    ++stats_.throttled_writes;
    auto resume = [this, op, gen = ops_[op].gen]() {
      URSA_CHECK(ops_[op].gen == gen);
      StartWrite(op);
    };
    static_assert(InlineFn::kFitsInline<decltype(resume)>);
    sim_->After(wait, resume);
    return;
  }
  ++inflight_user_ops_;
  OpRecord& rec = ops_[op];
  ++stats_.writes;
  stats_.write_bytes += rec.length;
  rec.start = sim_->Now();
  rec.span = cluster_->tracer().StartSpan(/*is_write=*/true, rec.start);
  if (rec.span != nullptr) {
    rec.span->RecordStage(obs::Stage::kVmm, 2 * options_.vmm_overhead);
  }

  split_.clear();
  SplitRequest(rec.offset, rec.length, &split_);
  rec.remaining = static_cast<uint32_t>(split_.size());
  for (const SubRequest& sub : split_) {
    uint32_t s = subs_.Acquire();
    SubRecord& sr = subs_[s];
    sr.op = op;
    sr.sub = sub;
    // Stable per-sub-write identity (survives retries); client id folded in
    // so concurrent clients never collide.
    sr.sub.write_id = (client_id_ << 40) | ++next_write_id_;
    sr.attempt = 1;
    // Slice shares the payload's refcount; a null view slices to a null view.
    sr.data = rec.data.Slice(sub.user_offset, sub.length);
    auto enqueue = [this, s, gen = sr.gen]() {
      URSA_CHECK(SubLive(s, gen));
      EnqueueWrite(s);
    };
    static_assert(InlineFn::kFitsInline<decltype(enqueue)>);
    sim_->After(options_.vmm_overhead, enqueue);
  }
  rec.data = {};  // each sub-request holds its own slice
}

void VirtualDisk::FinishSub(uint32_t s, Status status) {
  SubRecord& rec = subs_[s];
  const uint32_t op = rec.op;
  const bool is_write = ops_[op].is_write;
  const SubRequest sub = rec.sub;
  if (rec.spec_write && status.ok()) {
    const ChunkLayout& now = Layout(sub.chunk_index);
    if (now.speculating()) {
      ++stats_.spec_writes;
      InsertInterval(&chunk_states_[sub.chunk_index].spec_extents,
                     Interval{sub.chunk_offset, sub.length});
      // Post-ack, fire-and-forget: lets a re-opened client route reads of
      // these bytes at the spec replicas. Not on the ack path.
      cluster_->master().RegisterSpecExtent(now.chunk, sub.chunk_offset, sub.length);
    }
  }
  Release(subs_, s);
  if (is_write) {
    chunk_states_[sub.chunk_index].write_inflight = 0;
    PumpWriteQueue(sub.chunk_index);
  }
  OpRecord& o = ops_[op];
  if (!status.ok() && o.first_error.ok()) {
    o.first_error = std::move(status);
  }
  if (--o.remaining > 0) {
    return;
  }
  // VMM/NBD fixed return-path cost, then the user callback.
  auto finish = [this, op, gen = o.gen]() {
    URSA_CHECK(ops_[op].gen == gen);
    FinishOp(op);
  };
  static_assert(InlineFn::kFitsInline<decltype(finish)>);
  sim_->After(options_.vmm_overhead, finish);
}

void VirtualDisk::FinishOp(uint32_t op) {
  OpRecord& rec = ops_[op];
  const Nanos latency = sim_->Now() - rec.start;
  (rec.is_write ? stats_.write_latency_us : stats_.read_latency_us)
      .Record(static_cast<int64_t>(ToUsec(latency)));
  if (qos::SloMonitor* slo = cluster_->slo_monitor()) {
    slo->RecordForeground(latency);
  }
  if (rec.span != nullptr) {
    cluster_->tracer().FinishSpan(rec.span, sim_->Now());
  }
  storage::IoCallback done = std::move(rec.done);
  Status status = std::move(rec.first_error);
  Release(ops_, op);
  --inflight_user_ops_;
  done(status);
}

// ---- Reads ----

void VirtualDisk::IssueRead(uint32_t s) {
  SubRecord& rec = subs_[s];
  if (const obs::SpanRef& span = SubSpan(s); span != nullptr) {
    // Loop queue + issue cost since the VMM entry hop completed.
    span->RecordStage(obs::Stage::kClientIssue,
                      sim_->Now() - span->start() - options_.vmm_overhead);
  }
  rec.status = Status();
  const ChunkLayout& layout = Layout(rec.sub.chunk_index);
  if (layout.tier == cluster::ChunkTier::kEc) {
    // Cold chunk: read from the EC shards (degraded if one is down).
    IssueEcRead(s);
    return;
  }
  const ChunkState& cs = chunk_states_[rec.sub.chunk_index];
  const ReplicaRef& replica = layout.replicas[cs.primary % layout.replicas.size()];
  rec.replica_read = true;
  rec.pieces = 1;
  uint32_t p = AcquirePiece(s, PieceKind::kReplica, rec.sub.chunk_offset, rec.sub.length, rec.out);
  PieceRecord& piece = pieces_[p];
  piece.server = replica.server;
  piece.node = replica.node;
  piece.chunk = layout.chunk;
  piece.view = layout.view;
  piece.version = cs.version;
  SendPiece(p);
}

void VirtualDisk::IssueEcRead(uint32_t s) {
  SubRecord& rec = subs_[s];
  const SubRequest& sub = rec.sub;
  const ChunkLayout& layout = Layout(sub.chunk_index);
  if (layout.tier != cluster::ChunkTier::kEc || layout.ec_shards.empty() ||
      layout.ec_shard_size == 0) {
    // Promoted back under us (or a stale routing decision): take the
    // replicated path on the current layout.
    IssueRead(s);
    return;
  }
  rec.replica_read = false;
  // Split the range on shard boundaries. Data shard d owns chunk bytes
  // [d*S, (d+1)*S); stripe units normally sit entirely inside one shard, so
  // the common case is a single piece.
  const uint64_t S = layout.ec_shard_size;
  auto add_shard_pieces = [&](const Interval& r) {
    for (uint64_t pos = r.offset; pos < r.end();) {
      uint64_t off = pos % S;
      uint64_t run = std::min(r.end() - pos, S - off);
      void* dest = rec.out == nullptr ? nullptr
                                      : static_cast<uint8_t*>(rec.out) + (pos - sub.chunk_offset);
      uint32_t p = AcquirePiece(s, PieceKind::kShard, off, run, dest);
      pieces_[p].shard = static_cast<int>(pos / S);
      piece_scratch_.push_back(p);
      pos += run;
    }
  };
  // While the chunk speculates, ranges known durable on the spec replicas
  // read THERE (the shards never saw those bytes); only the remainder goes
  // to the shards.
  const ChunkState& cs = chunk_states_[sub.chunk_index];
  const Interval range{sub.chunk_offset, sub.length};
  piece_scratch_.clear();
  if (!layout.speculating() || cs.spec_extents.empty()) {
    add_shard_pieces(range);
  } else {
    for (const Interval& r : SubtractAll(range, cs.spec_extents)) {
      add_shard_pieces(r);
    }
    for (const Interval& e : cs.spec_extents) {
      Interval isect = range.Intersect(e);
      if (isect.empty()) {
        continue;
      }
      void* dest = rec.out == nullptr
                       ? nullptr
                       : static_cast<uint8_t*>(rec.out) + (isect.offset - sub.chunk_offset);
      piece_scratch_.push_back(AcquirePiece(s, PieceKind::kSpec, isect.offset, isect.length, dest));
    }
  }
  rec.pieces = static_cast<uint32_t>(piece_scratch_.size());
  for (uint32_t p : piece_scratch_) {
    if (pieces_[p].kind == PieceKind::kShard) {
      StartShardPiece(p);
    } else {
      StartSpecPiece(p);
    }
  }
}

uint32_t VirtualDisk::AcquirePiece(uint32_t s, PieceKind kind, uint64_t offset, uint64_t length,
                                   void* out) {
  uint32_t p = pieces_.Acquire();
  PieceRecord& piece = pieces_[p];
  piece.kind = kind;
  piece.sub = s;
  piece.replica = 0;
  piece.offset = offset;
  piece.length = length;
  piece.out = out;
  return p;
}

void VirtualDisk::StartShardPiece(uint32_t p) {
  PieceRecord& piece = pieces_[p];
  const ChunkLayout& layout = Layout(subs_[piece.sub].sub.chunk_index);
  if (piece.shard >= static_cast<int>(layout.ec_shards.size())) {
    FinishPiece(p, Unavailable("shard index out of range"));  // layout moved; caller retries
    return;
  }
  ++stats_.ec_shard_reads;
  const cluster::EcShardRef& shard = layout.ec_shards[piece.shard];
  piece.server = shard.server;
  piece.node = shard.node;
  piece.chunk = shard.shard_chunk;
  piece.view = layout.view;
  piece.version = 0;
  SendPiece(p);
}

void VirtualDisk::StartSpecPiece(uint32_t p) {
  PieceRecord& piece = pieces_[p];
  const size_t chunk_index = subs_[piece.sub].sub.chunk_index;
  const ChunkLayout& layout = Layout(chunk_index);
  if (!layout.speculating()) {
    // Speculation committed under us; a refresh re-routes to the replicas.
    FinishPiece(p, VersionMismatch("speculation ended"));
    return;
  }
  if (piece.replica >= layout.spec_replicas.size()) {
    // Every spec replica is stale or unreachable. Surface a mismatch: the
    // retry refreshes the layout, and by then either the back-fill committed
    // (replicated reads work) or a fresher spec replica answers.
    FinishPiece(p, VersionMismatch("no spec replica served the range"));
    return;
  }
  ++stats_.spec_reads;
  const ReplicaRef& replica = layout.spec_replicas[piece.replica];
  piece.server = replica.server;
  piece.node = replica.node;
  piece.chunk = layout.chunk;
  piece.view = layout.view;
  // Any replica at the client's acked version holds every acked byte (the
  // version guard makes each replica a prefix of the write sequence).
  piece.version = chunk_states_[chunk_index].version;
  SendPiece(p);
}

void VirtualDisk::StartDegradedRead(uint32_t p) {
  PieceRecord& piece = pieces_[p];
  const ChunkLayout& layout = Layout(subs_[piece.sub].sub.chunk_index);
  if (layout.tier != cluster::ChunkTier::kEc) {
    FinishPiece(p, VersionMismatch("chunk promoted during degraded read"));
    return;
  }
  const int k = layout.ec_k;
  const int n = k + layout.ec_m;
  piece.ec_m = layout.ec_m;
  piece.sources.clear();
  for (int i = 0; i < n && static_cast<int>(piece.sources.size()) < k; ++i) {
    if (i == piece.shard) {
      continue;
    }
    ChunkServer* server = Server(layout.ec_shards[i].server);
    if (server == nullptr || server->crashed()) {
      continue;
    }
    piece.sources.push_back(i);
  }
  if (static_cast<int>(piece.sources.size()) < k) {
    FinishPiece(p, Unavailable("too few live shards for degraded read"));
    return;
  }
  ++stats_.ec_degraded_reads;
  // One contiguous survivor buffer: slot i holds source i's [off, off+len)
  // range. Reconstruction is positional per byte, so reading the SAME range
  // from k peers is enough to rebuild the missing shard's range.
  piece.survivors.resize(piece.out == nullptr ? 0 : piece.sources.size() * piece.length);
  piece.pending = static_cast<uint32_t>(piece.sources.size());
  piece.status = Status();
  for (size_t i = 0; i < piece.sources.size(); ++i) {
    const cluster::EcShardRef& ref = layout.ec_shards[piece.sources[i]];
    void* dst = piece.survivors.empty() ? nullptr : piece.survivors.data() + i * piece.length;
    uint32_t q = AcquirePiece(piece.sub, PieceKind::kSurvivor, piece.offset, piece.length, dst);
    PieceRecord& survivor = pieces_[q];
    survivor.degraded = p;
    survivor.server = ref.server;
    survivor.node = ref.node;
    survivor.chunk = ref.shard_chunk;
    survivor.view = layout.view;
    survivor.version = 0;
    SendPiece(q);
  }
}

void VirtualDisk::SendPiece(uint32_t p) {
  PieceRecord& piece = pieces_[p];
  const uint32_t gen = piece.gen;
  if (options_.request_timeout > 0) {
    auto expire = [this, p, gen]() {
      if (pieces_[p].gen == gen) {
        OnPieceDone(p, TimedOut("rpc timeout"));
      }
    };
    static_assert(InlineFn::kFitsInline<decltype(expire)>);
    piece.timeout = sim_->After(options_.request_timeout, expire);
  }
  auto deliver = [this, p, gen]() { DeliverPiece(p, gen); };
  static_assert(InlineFn::kFitsInline<decltype(deliver)>);
  cluster_->transport().Send(host_->node(), piece.node, WireBytes(MessageType::kReadRequest),
                             deliver, SubSpan(piece.sub), obs::Stage::kNetRequest);
}

void VirtualDisk::DeliverPiece(uint32_t p, uint32_t gen) {
  PieceRecord& piece = pieces_[p];
  if (piece.gen != gen) {
    return;  // the piece already timed out
  }
  ChunkServer* server = Server(piece.server);
  if (server == nullptr) {
    return;  // the timeout handles it
  }
  auto served = [this, p, gen](const Status& s, uint64_t, const ursa::BufferView& data) {
    OnPieceServed(p, gen, s, data);
  };
  static_assert(InlineFn::kFitsInline<decltype(served)>);
  server->HandleRead(piece.chunk, piece.offset, piece.length, piece.view, piece.version, served,
                     SubSpan(piece.sub));
}

void VirtualDisk::OnPieceServed(uint32_t p, uint32_t gen, const Status& status,
                                const ursa::BufferView& data) {
  PieceRecord& piece = pieces_[p];
  if (piece.gen != gen) {
    return;  // a late or duplicated request; the piece already finished
  }
  if (status.ok() && piece.out != nullptr) {
    std::copy_n(data.data(), piece.length, static_cast<uint8_t*>(piece.out));
  }
  uint64_t bytes = status.ok() ? piece.length : 0;
  auto reply = [this, p, gen, st = status]() {
    if (pieces_[p].gen == gen) {
      OnPieceDone(p, st);
    }
  };
  static_assert(InlineFn::kFitsInline<decltype(reply)>);
  cluster_->transport().Send(piece.node, host_->node(), WireBytes(MessageType::kReadReply, bytes),
                             reply, SubSpan(piece.sub), obs::Stage::kNetReply);
}

void VirtualDisk::OnPieceDone(uint32_t p, const Status& status) {
  PieceRecord& piece = pieces_[p];
  if (options_.request_timeout > 0) {
    sim_->Cancel(piece.timeout);
  }
  piece.gen += kGenStride;  // the RPC is decided: its late replies are stale
  switch (piece.kind) {
    case PieceKind::kReplica: {
      SubRecord& rec = subs_[piece.sub];
      rec.replied = sim_->Now();
      FinishPiece(p, status);
      return;
    }
    case PieceKind::kShard:
      if (status.ok() || status.code() == StatusCode::kVersionMismatch ||
          status.code() == StatusCode::kNotFound) {
        // Mismatch/NotFound mean the layout moved (promote or shard
        // repair), not that the bytes are gone: bubble up so the caller
        // refreshes and re-routes.
        FinishPiece(p, status);
        return;
      }
      // The shard server failed (timeout / crash / corruption): tell the
      // master — it schedules a stripe repair — and satisfy the read in
      // degraded mode from the surviving shards.
      ++stats_.failures_reported;
      cluster_->master().ReportReplicaFailure(piece.chunk, piece.server, [](const Status&) {});
      StartDegradedRead(p);
      return;
    case PieceKind::kSpec:
      if (status.ok()) {
        FinishPiece(p, status);
        return;
      }
      // Stale or dead replica: fail over to the next spec replica.
      ++piece.replica;
      StartSpecPiece(p);
      return;
    case PieceKind::kSurvivor:
      FinishPiece(p, status);
      return;
  }
}

void VirtualDisk::FinishPiece(uint32_t p, Status status) {
  PieceRecord& piece = pieces_[p];
  const PieceKind kind = piece.kind;
  const uint32_t s = piece.sub;
  const uint32_t degraded = piece.degraded;
  Release(pieces_, p);
  if (kind == PieceKind::kSurvivor) {
    OnSurvivorDone(degraded, status);
    return;
  }
  SubRecord& rec = subs_[s];
  if (!status.ok() && rec.status.ok()) {
    rec.status = std::move(status);
  }
  if (--rec.pieces > 0) {
    return;
  }
  Nanos copy_cost = static_cast<Nanos>(kLoopByteCostNs * static_cast<double>(rec.sub.length));
  auto done = [this, s, gen = rec.gen]() {
    URSA_CHECK(SubLive(s, gen));
    FinishReadAttempt(s);
  };
  static_assert(InlineFn::kFitsInline<decltype(done)>);
  loop_->Submit(options_.loop_complete_cost + (rec.status.ok() ? copy_cost : 0), done);
}

void VirtualDisk::OnSurvivorDone(uint32_t p, const Status& status) {
  PieceRecord& piece = pieces_[p];
  if (!status.ok() && piece.status.ok()) {
    piece.status = status;
  }
  if (--piece.pending > 0) {
    return;
  }
  if (!piece.status.ok()) {
    FinishPiece(p, piece.status);
    return;
  }
  if (piece.out != nullptr) {
    const int k = static_cast<int>(piece.sources.size());
    const int n = k + piece.ec_m;
    std::vector<const uint8_t*> shards(n, nullptr);
    for (size_t i = 0; i < piece.sources.size(); ++i) {
      shards[piece.sources[i]] = piece.survivors.data() + i * piece.length;
    }
    std::vector<uint8_t*> rebuild(n, nullptr);
    rebuild[piece.shard] = static_cast<uint8_t*>(piece.out);
    if (Status rs = ec::Codec(k, piece.ec_m).Reconstruct(shards, rebuild, piece.length);
        !rs.ok()) {
      FinishPiece(p, rs);
      return;
    }
  }
  FinishPiece(p, OkStatus());
}

void VirtualDisk::FinishReadAttempt(uint32_t s) {
  SubRecord& rec = subs_[s];
  ChunkState& cs = chunk_states_[rec.sub.chunk_index];
  if (rec.replica_read) {
    if (const obs::SpanRef& span = SubSpan(s); span != nullptr) {
      span->RecordStage(obs::Stage::kClientComplete, sim_->Now() - rec.replied);
    }
  }
  if (rec.status.ok()) {
    cs.timeout_streak = 0;
    FinishSub(s, OkStatus());
    return;
  }
  HandleAttemptFailure(s, rec.status);
}

// ---- Writes ----

void VirtualDisk::EnqueueWrite(uint32_t s) {
  SubRecord& rec = subs_[s];
  const size_t idx = rec.sub.chunk_index;
  ChunkState& cs = chunk_states_[idx];
  // Writes to one chunk are ordered by version and run one at a time: the
  // rest wait here in FIFO order (ROADMAP.md item 7 would pipeline them).
  if (cs.queue_tail == kNoRecord) {
    cs.queue_head = s;
  } else {
    subs_[cs.queue_tail].next_queued = s;
  }
  cs.queue_tail = s;
  PumpWriteQueue(idx);
}

void VirtualDisk::PumpWriteQueue(size_t chunk_index) {
  ChunkState& cs = chunk_states_[chunk_index];
  if (cs.write_inflight || cs.queue_head == kNoRecord) {
    return;
  }
  const uint32_t s = cs.queue_head;
  SubRecord& rec = subs_[s];
  cs.write_inflight = rec.sub.write_id;
  cs.queue_head = rec.next_queued;
  if (cs.queue_head == kNoRecord) {
    cs.queue_tail = kNoRecord;
  }
  rec.next_queued = kNoRecord;
  Nanos copy_cost = static_cast<Nanos>(kLoopByteCostNs * static_cast<double>(rec.sub.length));
  auto issue = [this, s, gen = rec.gen]() {
    URSA_CHECK(SubLive(s, gen));
    IssueWrite(s);
  };
  static_assert(InlineFn::kFitsInline<decltype(issue)>);
  loop_->Submit(options_.loop_issue_cost + copy_cost, issue);
}

void VirtualDisk::IssueWrite(uint32_t s) {
  if (const obs::SpanRef& span = SubSpan(s); span != nullptr) {
    // Loop queue + per-chunk write-order queue + issue cost since VMM entry.
    span->RecordStage(obs::Stage::kClientIssue,
                      sim_->Now() - span->start() - options_.vmm_overhead);
  }
  IssueWriteAttempt(s);
}

void VirtualDisk::IssueWriteAttempt(uint32_t s) {
  SubRecord& rec = subs_[s];
  const ChunkLayout& layout = Layout(rec.sub.chunk_index);
  if (layout.tier == cluster::ChunkTier::kEc) {
    if (layout.speculating()) {
      // Speculative fast path (DESIGN.md §13.6): the new data goes straight
      // to the spec replicas and acks on quorum durability — no waiting for
      // the reconstruction. All sizes take the client-directed form: a
      // primary-driven chain through a crashed spec target would stall the
      // whole write, while the quorum tolerates a minority down.
      ChunkState& cs = chunk_states_[rec.sub.chunk_index];
      // Spec replicas start at the frozen EC version; a fresh client (whose
      // counter may still read 0) adopts it rather than burning an attempt
      // on the inevitable mismatch.
      cs.version = cluster::AdoptVersion(cs.version, layout.ec_version);
      rec.spec_write = true;
      ClientDirectedWrite(s);
      return;
    }
    // Cold chunk: writes always go to replicated form — promote first, ack
    // after (DESIGN.md §13 keeps the write path single-tier).
    PromoteForWrite(s);
    return;
  }
  if (options_.client_directed && rec.sub.length <= options_.tiny_write_threshold) {
    ClientDirectedWrite(s);
  } else {
    PrimaryDrivenWrite(s);
  }
}

void VirtualDisk::ArmWriteTimeout(uint32_t s) {
  if (options_.request_timeout <= 0) {
    return;
  }
  auto expire = [this, s, gen = subs_[s].gen]() {
    if (SubLive(s, gen)) {
      DecideWriteAttempt(s, TimedOut("rpc timeout"));
    }
  };
  static_assert(InlineFn::kFitsInline<decltype(expire)>);
  subs_[s].timeout = sim_->After(options_.request_timeout, expire);
}

void VirtualDisk::ClientDirectedWrite(uint32_t s) {
  SubRecord& rec = subs_[s];
  const ChunkLayout& layout = Layout(rec.sub.chunk_index);
  rec.primary_driven = false;
  rec.chunk = layout.chunk;
  rec.view = layout.view;
  rec.version = chunk_states_[rec.sub.chunk_index].version;
  // Speculating chunks replicate onto the spec targets (same quorum rule).
  const std::vector<ReplicaRef>& replicas = WriteSet(layout);
  URSA_CHECK_LE(replicas.size(), kMaxLegs);
  rec.targets.assign(replicas.begin(), replicas.end());
  rec.saw_mismatch = false;

  ArmWriteTimeout(s);
  rec.quorum = cluster::WriteQuorum(static_cast<int>(replicas.size()));
  auto commit = [this, s, gen = rec.gen]() {
    if (SubLive(s, gen) && subs_[s].quorum.Expire()) {
      OnQuorumDecided(s);
    }
  };
  static_assert(InlineFn::kFitsInline<decltype(commit)>);
  rec.commit_timer = sim_->After(cluster::kMajorityCommitTimeout, commit);

  // Client-directed replication (§3.2): one message per replica in parallel;
  // all legs stamp the shared span, which keeps the per-stage maximum (the
  // quorum waits for all replicas in the common case, so the slowest leg is
  // the critical path). Replica r is leg r of the quorum, which counts it
  // once: a chaos-duplicated request or reply must not let one replica's ack
  // masquerade as a majority.
  for (uint32_t r = 0; r < rec.targets.size(); ++r) {
    auto deliver = [this, s, tag = rec.gen + r]() { DeliverLeg(s, tag); };
    static_assert(InlineFn::kFitsInline<decltype(deliver)>);
    cluster_->transport().Send(host_->node(), rec.targets[r].node,
                               WireBytes(MessageType::kReplicate, rec.sub.length), deliver,
                               SubSpan(s), obs::Stage::kNetRequest);
  }
}

void VirtualDisk::DeliverLeg(uint32_t s, uint32_t tag) {
  if (!SubLive(s, tag)) {
    return;  // the attempt was decided before this leg arrived
  }
  SubRecord& rec = subs_[s];
  ChunkServer* server = Server(rec.targets[tag % kGenStride].server);
  if (server == nullptr) {
    return;  // silent drop; timeout/quorum handles it
  }
  auto served = [this, s, tag](const Status& status, uint64_t, const ursa::BufferView&) {
    OnLegServed(s, tag, status.code());
  };
  static_assert(InlineFn::kFitsInline<decltype(served)>);
  server->HandleReplicate(rec.chunk, rec.sub.chunk_offset, rec.sub.length, rec.view, rec.version,
                          rec.data, served, SubSpan(s), rec.sub.write_id);
}

void VirtualDisk::OnLegServed(uint32_t s, uint32_t tag, StatusCode code) {
  if (!SubLive(s, tag)) {
    return;
  }
  auto reply = [this, s, tag, code]() { OnLegReply(s, tag, code); };
  static_assert(InlineFn::kFitsInline<decltype(reply)>);
  cluster_->transport().Send(subs_[s].targets[tag % kGenStride].node, host_->node(),
                             WireBytes(MessageType::kReplicateReply), reply, SubSpan(s),
                             obs::Stage::kNetReply);
}

void VirtualDisk::OnLegReply(uint32_t s, uint32_t tag, StatusCode code) {
  if (!SubLive(s, tag)) {
    return;
  }
  SubRecord& rec = subs_[s];
  const int leg = static_cast<int>(tag % kGenStride);
  // Count ignores a repeated leg too, but saw_mismatch must not see it: a
  // chaos-duplicated request is answered again, perhaps with another code.
  if (rec.quorum.counted(leg)) {
    return;
  }
  rec.saw_mismatch = rec.saw_mismatch || code == StatusCode::kVersionMismatch;
  if (rec.quorum.Count(leg, code == StatusCode::kOk)) {
    const sim::EventId commit_timer = rec.commit_timer;
    OnQuorumDecided(s);
    sim_->Cancel(commit_timer);
  }
}

void VirtualDisk::OnQuorumDecided(uint32_t s) {
  SubRecord& rec = subs_[s];
  Status outcome = rec.quorum.outcome();
  if (outcome.ok() && rec.quorum.failures() > 0) {
    // Committed on a majority: notify the master to fix the lagging
    // replicas (§4.1 — "the client also notifies the master to fix the
    // problem").
    cluster_->master().RepairChunkReplicas(rec.chunk);
  }
  DecideWriteAttempt(s, std::move(outcome));
}

void VirtualDisk::PrimaryDrivenWrite(uint32_t s) {
  SubRecord& rec = subs_[s];
  const ChunkLayout& layout = Layout(rec.sub.chunk_index);
  const ChunkState& cs = chunk_states_[rec.sub.chunk_index];
  size_t primary_idx = cs.primary % layout.replicas.size();
  rec.primary_driven = true;
  rec.targets.assign(1, layout.replicas[primary_idx]);
  rec.backups.clear();
  for (size_t r = 0; r < layout.replicas.size(); ++r) {
    if (r != primary_idx) {
      rec.backups.push_back(layout.replicas[r]);
    }
  }
  rec.chunk = layout.chunk;
  rec.view = layout.view;
  rec.version = cs.version;
  rec.replied_version = 0;

  ArmWriteTimeout(s);
  auto deliver = [this, s, gen = rec.gen]() { DeliverPrimaryWrite(s, gen); };
  static_assert(InlineFn::kFitsInline<decltype(deliver)>);
  cluster_->transport().Send(host_->node(), rec.targets[0].node,
                             WireBytes(MessageType::kWriteRequest, rec.sub.length), deliver,
                             SubSpan(s), obs::Stage::kNetRequest);
}

void VirtualDisk::DeliverPrimaryWrite(uint32_t s, uint32_t gen) {
  if (!SubLive(s, gen)) {
    return;
  }
  SubRecord& rec = subs_[s];
  ChunkServer* server = Server(rec.targets[0].server);
  if (server == nullptr) {
    return;
  }
  auto served = [this, s, gen](const Status& st, uint64_t version, const ursa::BufferView&) {
    OnPrimaryServed(s, gen, st, version);
  };
  static_assert(InlineFn::kFitsInline<decltype(served)>);
  server->HandleWrite(rec.chunk, rec.sub.chunk_offset, rec.sub.length, rec.view, rec.version,
                      rec.data, rec.backups, served, SubSpan(s), rec.sub.write_id);
}

void VirtualDisk::OnPrimaryServed(uint32_t s, uint32_t gen, const Status& status,
                                  uint64_t new_version) {
  if (!SubLive(s, gen)) {
    return;
  }
  subs_[s].replied_version = new_version;
  auto reply = [this, s, gen, st = status]() {
    if (SubLive(s, gen)) {
      DecideWriteAttempt(s, st);
    }
  };
  static_assert(InlineFn::kFitsInline<decltype(reply)>);
  cluster_->transport().Send(subs_[s].targets[0].node, host_->node(),
                             WireBytes(MessageType::kWriteReply), reply, SubSpan(s),
                             obs::Stage::kNetReply);
}

void VirtualDisk::DecideWriteAttempt(uint32_t s, Status status) {
  SubRecord& rec = subs_[s];
  if (options_.request_timeout > 0) {
    sim_->Cancel(rec.timeout);
  }
  rec.gen += kGenStride;  // the attempt is decided: its late replies are stale
  rec.status = std::move(status);
  rec.replied = sim_->Now();
  auto done = [this, s, gen = rec.gen]() {
    URSA_CHECK(SubLive(s, gen));
    FinishWriteAttempt(s);
  };
  static_assert(InlineFn::kFitsInline<decltype(done)>);
  loop_->Submit(options_.loop_complete_cost, done);
}

void VirtualDisk::FinishWriteAttempt(uint32_t s) {
  SubRecord& rec = subs_[s];
  if (const obs::SpanRef& span = SubSpan(s); span != nullptr) {
    span->RecordStage(obs::Stage::kClientComplete, sim_->Now() - rec.replied);
  }
  ChunkState& cs = chunk_states_[rec.sub.chunk_index];
  if (rec.status.ok()) {
    cs.committed = cluster::CommitVersion(cs.committed, rec.version,
                                          rec.primary_driven ? rec.replied_version : 0);
    cs.version = cs.committed;
    cs.timeout_streak = 0;
    FinishSub(s, OkStatus());
    return;
  }
  HandleAttemptFailure(s, !rec.primary_driven && rec.saw_mismatch
                              ? VersionMismatch("replica ahead/behind")
                              : rec.status);
}

void VirtualDisk::PromoteForWrite(uint32_t s) {
  ++stats_.write_promotes;
  storage::ChunkId chunk = Layout(subs_[s].sub.chunk_index).chunk;
  // With speculation enabled this returns as soon as the spec targets are
  // allocated (no reconstruction wait); otherwise it blocks on the full
  // promotion like before.
  auto promoted = [this, s, gen = subs_[s].gen](Status status) {
    URSA_CHECK(SubLive(s, gen));
    subs_[s].status = std::move(status);
    auto resume = [this, s, gen]() {
      URSA_CHECK(SubLive(s, gen));
      FinishPromote(s);
    };
    static_assert(InlineFn::kFitsInline<decltype(resume)>);
    loop_->Submit(options_.loop_complete_cost, resume);
  };
  static_assert(InlineFn::kFitsInline<decltype(promoted)>);
  cluster_->master().BeginWritePromote(chunk, promoted);
}

void VirtualDisk::FinishPromote(uint32_t s) {
  RefreshLayout();
  SubRecord& rec = subs_[s];
  const ChunkLayout& layout = Layout(rec.sub.chunk_index);
  if (rec.status.ok() || layout.tier == cluster::ChunkTier::kReplicated ||
      layout.speculating()) {
    // Promoted or speculating (by us or a concurrent migration): retry on
    // the fresh layout. Same attempt number — the promote round-trip is not
    // a replica failure.
    IssueWriteAttempt(s);
    return;
  }
  HandleAttemptFailure(s, rec.status);
}

void VirtualDisk::Upgrade(const std::string& version, Nanos swap_window,
                          std::function<void()> done) {
  URSA_CHECK(!upgrading_);
  upgrading_ = true;  // (i) stop receiving new I/O requests from the VMM

  // (ii) complete pending requests, polling until the core is quiescent.
  // Weak self-reference: the pending poll event holds the closure.
  auto wait_drain = std::make_shared<std::function<void()>>();
  *wait_drain = [this, version, swap_window, done = std::move(done),
                 weak = std::weak_ptr<std::function<void()>>(wait_drain)]() mutable {
    if (inflight_user_ops_ > 0) {
      sim_->After(msec(1), [self = weak.lock()]() { (*self)(); });
      return;
    }
    // (iii) save status, exit; the shell starts the new core, which reads
    // its status and resumes service.
    sim_->After(swap_window, [this, version, done = std::move(done)]() {
      software_version_ = version;
      upgrading_ = false;
      std::vector<uint32_t> resume;
      resume.swap(paused_ops_);
      for (uint32_t op : resume) {
        StartOp(op);
      }
      done();
    });
  };
  (*wait_drain)();
}

Nanos VirtualDisk::BackoffDelay(int attempt) {
  // attempt k failed -> wait base * 2^(k-1), capped. Jitter keeps retried
  // clients from re-colliding: half the delay is fixed, half uniform.
  Nanos d = kRetryBackoffBase;
  for (int i = 1; i < attempt && d < kRetryBackoffMax; ++i) {
    d *= 2;
  }
  d = std::min(d, kRetryBackoffMax);
  Nanos half = d / 2;
  return half + static_cast<Nanos>(retry_rng_.Uniform(static_cast<uint64_t>(half) + 1));
}

void VirtualDisk::ScheduleRetry(uint32_t s) {
  Nanos delay = BackoffDelay(subs_[s].attempt);
  ++stats_.backoff_retries;
  stats_.backoff_wait_ns += delay;
  auto retry = [this, s, gen = subs_[s].gen]() {
    URSA_CHECK(SubLive(s, gen));
    Retry(s);
  };
  static_assert(InlineFn::kFitsInline<decltype(retry)>);
  sim_->After(delay, retry);
}

void VirtualDisk::Retry(uint32_t s) {
  SubRecord& rec = subs_[s];
  ++rec.attempt;
  if (ops_[rec.op].is_write) {
    IssueWriteAttempt(s);
  } else {
    IssueRead(s);
  }
}

void VirtualDisk::HandleAttemptFailure(uint32_t s, Status status) {
  const size_t chunk_index = subs_[s].sub.chunk_index;
  ChunkState& cs = chunk_states_[chunk_index];
  // Classify first (timeout vs explicit-fail vs integrity): the class drives
  // both the counters and the reaction below.
  const bool is_timeout = status.code() == StatusCode::kTimedOut;
  const bool is_integrity = status.code() == StatusCode::kCorruption;
  if (is_timeout) {
    ++stats_.timeouts;
  } else if (is_integrity) {
    ++stats_.integrity_errors;
  } else {
    ++stats_.explicit_failures;
  }

  if (subs_[s].attempt >= options_.max_attempts) {
    if (ops_[subs_[s].op].is_write) {
      FenceWrite(chunk_index);
    }
    FinishSub(s, std::move(status));
    return;
  }
  ++stats_.retries;

  if (status.code() == StatusCode::kVersionMismatch ||
      status.code() == StatusCode::kNotFound) {
    // Either the view moved under us, or the replica we asked is STALE
    // (restored after missing committed writes), or the chunk migrated
    // tiers (demotion frees the replicated images — NotFound — and shard
    // repair moves shards). Refresh the layout, steer the next attempt at
    // the freshest alive replica, and ask the master to repair the laggard
    // in the background (§4.2.1: "the primary tries to update its state by
    // incremental repair").
    RefreshLayout();
    const ChunkLayout& nl = Layout(chunk_index);
    if (nl.tier == cluster::ChunkTier::kEc || nl.replicas.empty()) {
      // Demoted under us: the issue path re-routes (EC shard read, or
      // promote-on-write) against the fresh layout.
      cs.timeout_streak = 0;
      Retry(s);
      return;
    }
    if (status.code() == StatusCode::kNotFound) {
      // Promoted under us (replicas replaced wholesale): nothing to steer —
      // the fresh layout is enough.
      cs.timeout_streak = 0;
      Retry(s);
      return;
    }
    uint64_t best_version = 0;
    uint64_t lowest = UINT64_MAX;
    size_t best = cs.primary % nl.replicas.size();
    int best_pref = 99;
    for (size_t r = 0; r < nl.replicas.size(); ++r) {
      Result<ReplicaState> st = ReplicaStateOf(nl, nl.replicas[r]);
      if (!st.ok()) {
        continue;
      }
      uint64_t version = cluster::ResyncVersion(*st, cs.write_inflight);
      lowest = std::min(lowest, version);
      int pref = cluster::ReplicaRank(nl.replicas[r]);
      if (cluster::Fresher(version, best_version, pref < best_pref)) {
        best_version = version;
        best_pref = pref;
        best = r;
      }
    }
    cs.primary = best;
    if (lowest < best_version) {
      // Every laggard, not just the primary: with two behind, no write
      // commits until they catch up.
      cluster_->master().RepairChunkReplicas(nl.chunk);
    }
    cs.version = cluster::AdoptVersion(cs.committed, best_version);
    cs.timeout_streak = 0;
    Retry(s);
    return;
  }

  const ChunkLayout& layout = Layout(chunk_index);
  if (layout.tier == cluster::ChunkTier::kEc || layout.replicas.empty()) {
    // EC-tier failure (a shard timed out, or the degraded read exhausted its
    // survivors): the shard failure was already reported inside the EC read
    // path; back off and retry — repair or promotion may land meanwhile.
    cs.timeout_streak = 0;
    RefreshLayout();
    ScheduleRetry(s);
    return;
  }

  if (is_integrity) {
    // The replica's data failed CRC (or overlaps a quarantined range). The
    // bytes are gone there, not late: switch away immediately and let the
    // master re-replicate the range; the quarantine lifts when it lands.
    cs.timeout_streak = 0;
    cs.primary = (cs.primary + 1) % layout.replicas.size();
    ++stats_.primary_switches;
    cluster_->master().RepairChunkReplicas(layout.chunk);
    ScheduleRetry(s);
    return;
  }

  if (is_timeout && ++cs.timeout_streak < options_.primary_switch_hysteresis) {
    // A single timeout is weak evidence (gray-slow disk, queueing spike):
    // retry the same primary after a backoff before declaring it failed.
    // Persistent timeouts exhaust the hysteresis and fall through to the
    // switch-and-report path below.
    ScheduleRetry(s);
    return;
  }
  cs.timeout_streak = 0;

  // Timeout / unavailability: switch to a backup as temporary primary
  // (§4.2.1) and ask the master to repair in parallel. The retry proceeds
  // against the backup immediately — it must NOT wait for the repair to
  // finish (a throttled re-replication can take seconds; blocking here
  // would stall the whole queue-depth window behind one failed replica).
  // When the repair's view change lands, resync the version and steer the
  // chunk back to an SSD primary.
  cluster::ServerId suspected = layout.replicas[cs.primary % layout.replicas.size()].server;
  cs.primary = (cs.primary + 1) % layout.replicas.size();
  ++stats_.primary_switches;
  ++stats_.failures_reported;
  auto resync = [this, chunk_index](const Status&) {
    ChunkState& ncs = chunk_states_[chunk_index];
    Resync(chunk_index, ncs.write_inflight);
    const ChunkLayout& nl = Layout(chunk_index);
    int best_pref = 99;
    for (size_t r = 0; r < nl.replicas.size(); ++r) {
      ChunkServer* server = Server(nl.replicas[r].server);
      if (server == nullptr || server->crashed()) {
        continue;
      }
      int pref = cluster::ReplicaRank(nl.replicas[r]);
      if (pref < best_pref) {
        best_pref = pref;
        ncs.primary = r;
      }
    }
  };
  cluster_->master().ReportReplicaFailure(layout.chunk, suspected, resync);
  ScheduleRetry(s);
}

void VirtualDisk::FenceWrite(size_t chunk_index) {
  if (Layout(chunk_index).tier != cluster::ChunkTier::kReplicated) {
    return;
  }
  cluster_->master().FenceChunk(Layout(chunk_index).chunk);
  cluster_->master().RepairChunkReplicas(Layout(chunk_index).chunk);  // what it left behind
  Resync(chunk_index, 0);  // the write is no longer in flight
}

void VirtualDisk::Resync(size_t chunk_index, uint64_t inflight_write_id) {
  RefreshLayout();
  const ChunkLayout& layout = Layout(chunk_index);
  uint64_t offered = 0;
  for (const ReplicaRef& r : layout.replicas) {
    if (Result<ReplicaState> st = ReplicaStateOf(layout, r); st.ok()) {
      offered = std::max(offered, cluster::ResyncVersion(*st, inflight_write_id));
    }
  }
  ChunkState& cs = chunk_states_[chunk_index];
  cs.version = cluster::AdoptVersion(cs.committed, offered);
}

Result<ReplicaState> VirtualDisk::ReplicaStateOf(const ChunkLayout& layout, const ReplicaRef& r) {
  ChunkServer* server = Server(r.server);
  if (server == nullptr || server->crashed()) {
    return Unavailable("replica down");
  }
  return server->GetState(layout.chunk);
}

}  // namespace ursa::client
