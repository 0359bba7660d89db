#include "src/client/virtual_disk.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/net/message.h"
#include "src/net/rpc.h"

namespace ursa::client {

using cluster::ChunkLayout;
using cluster::ChunkServer;
using cluster::ReplicaRef;
using net::MessageType;
using net::PendingCall;
using net::QuorumTracker;
using net::WireBytes;
using storage::ChunkId;

namespace {
// Primary-steering preference: healthy SSD < healthy HDD < demoted SSD <
// demoted HDD (mirrors the master's layout ordering, DESIGN.md §10).
int ReplicaPreference(const ReplicaRef& r) {
  return (r.demoted ? 2 : 0) + (r.on_ssd ? 0 : 1);
}
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
    uint64_t version = 0;
    // A speculating chunk's write set is its spec replicas (the committed
    // replica list is empty until the promotion commits).
    for (const ReplicaRef& ref : WriteSet(layout)) {
      ChunkServer* server = Server(ref.server);
      if (server == nullptr || server->crashed()) {
        continue;
      }
      Result<ChunkServer::ReplicaState> st = server->GetState(layout.chunk);
      if (st.ok()) {
        version = std::max(version, st->version);
      }
    }
    cs.version = version;
    cs.spec_extents = layout.spec_extents;
    // Preferred primary: healthy SSD, then healthy HDD, then demoted
    // replicas (health steering, DESIGN.md §10).
    cs.primary = 0;
    int best_pref = 99;
    for (size_t r = 0; r < layout.replicas.size(); ++r) {
      int pref = ReplicaPreference(layout.replicas[r]);
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

std::vector<VirtualDisk::SubRequest> VirtualDisk::SplitRequest(uint64_t offset,
                                                               uint64_t length) const {
  URSA_CHECK_EQ(offset % journal::kSector, 0u);
  URSA_CHECK_EQ(length % journal::kSector, 0u);
  URSA_CHECK_GT(length, 0u);
  URSA_CHECK_LE(offset + length, meta_.size);

  uint64_t g = static_cast<uint64_t>(meta_.stripe_group);
  uint64_t u = meta_.stripe_unit;
  uint64_t c = meta_.chunk_size;
  uint64_t group_span = g * c;

  std::vector<SubRequest> subs;
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

    if (!subs.empty() && subs.back().chunk_index == chunk_index &&
        subs.back().chunk_offset + subs.back().length == chunk_off) {
      subs.back().length += run;  // contiguous in the same chunk: merge
    } else {
      subs.push_back(SubRequest{chunk_index, chunk_off, run, pos - offset});
    }
    pos += run;
    remaining -= run;
  }
  return subs;
}

void VirtualDisk::Read(uint64_t offset, uint64_t length, void* out, storage::IoCallback done) {
  URSA_CHECK(open_);
  if (upgrading_) {
    // Core/shell upgrade in progress: buffer the request; it resumes on the
    // new core (§5.2).
    paused_ops_.push_back([this, offset, length, out, done = std::move(done)]() mutable {
      Read(offset, length, out, std::move(done));
    });
    return;
  }
  ++inflight_user_ops_;
  done = [this, done = std::move(done)](const Status& s) {
    --inflight_user_ops_;
    done(s);
  };
  ++stats_.reads;
  stats_.read_bytes += length;
  Nanos start = sim_->Now();
  obs::SpanRef span = cluster_->tracer().StartSpan(/*is_write=*/false, start);
  if (span != nullptr) {
    // Both fixed VMM/NBD hops are deterministic configured costs.
    span->RecordStage(obs::Stage::kVmm, 2 * options_.vmm_overhead);
  }

  std::vector<SubRequest> subs = SplitRequest(offset, length);
  auto remaining = std::make_shared<size_t>(subs.size());
  auto first_error = std::make_shared<Status>();
  auto finish = [this, start, remaining, first_error, span,
                 done = std::move(done)](const Status& s) {
    if (!s.ok() && first_error->ok()) {
      *first_error = s;
    }
    if (--*remaining > 0) {
      return;
    }
    // VMM/NBD fixed return-path cost, then the user callback.
    sim_->After(options_.vmm_overhead,
                [this, start, first_error, span, done = std::move(done)]() {
      stats_.read_latency_us.Record(static_cast<int64_t>(ToUsec(sim_->Now() - start)));
      if (qos::SloMonitor* slo = cluster_->slo_monitor()) {
        slo->RecordForeground(sim_->Now() - start);
      }
      if (span != nullptr) {
        cluster_->tracer().FinishSpan(span, sim_->Now());
      }
      done(*first_error);
    });
  };

  for (const SubRequest& sub : subs) {
    void* dest = out == nullptr ? nullptr : static_cast<uint8_t*>(out) + sub.user_offset;
    // VMM/NBD entry cost, then the client loop issues the request.
    sim_->After(options_.vmm_overhead, [this, sub, dest, finish, span]() {
      loop_->Submit(options_.loop_issue_cost,
                    [this, sub, dest, finish, span]() { IssueRead(sub, dest, 1, finish, span); });
    });
  }
}

void VirtualDisk::IssueRead(const SubRequest& sub, void* out, int attempt,
                            storage::IoCallback done, const obs::SpanRef& span) {
  if (span != nullptr) {
    // Loop queue + issue cost since the VMM entry hop completed.
    span->RecordStage(obs::Stage::kClientIssue,
                      sim_->Now() - span->start() - options_.vmm_overhead);
  }
  const ChunkLayout& layout = Layout(sub.chunk_index);
  if (layout.tier == cluster::ChunkTier::kEc) {
    // Cold chunk: read from the EC shards (degraded if one is down).
    IssueEcRead(sub, out, attempt, std::move(done), span);
    return;
  }
  ChunkState& cs = chunk_states_[sub.chunk_index];
  const ReplicaRef replica = layout.replicas[cs.primary % layout.replicas.size()];

  auto replied_version = std::make_shared<uint64_t>(0);
  auto guard = PendingCall::Start(
      sim_, options_.request_timeout,
      [this, sub, out, attempt, done, replied_version, span](const Status& s) {
        Nanos copy_cost = static_cast<Nanos>(options_.loop_byte_cost_ns *
                                             static_cast<double>(sub.length));
        Nanos replied = sim_->Now();
        loop_->Submit(options_.loop_complete_cost + (s.ok() ? copy_cost : 0),
                      [this, sub, out, attempt, done, s, replied_version, replied, span]() {
                        if (span != nullptr) {
                          span->RecordStage(obs::Stage::kClientComplete, sim_->Now() - replied);
                        }
                        if (s.ok()) {
                          chunk_states_[sub.chunk_index].timeout_streak = 0;
                          done(OkStatus());
                          return;
                        }
                        if (s.code() == StatusCode::kVersionMismatch &&
                            *replied_version > chunk_states_[sub.chunk_index].version) {
                          chunk_states_[sub.chunk_index].version = *replied_version;
                        }
                        HandleAttemptFailure(sub, s, attempt, done, [this, sub, out, attempt,
                                                                     done, span]() {
                          IssueRead(sub, out, attempt + 1, done, span);
                        });
                      });
      });

  uint64_t view = layout.view;
  uint64_t version = cs.version;
  ChunkId chunk = layout.chunk;
  cluster_->transport().Send(
      host_->node(), replica.node, WireBytes(MessageType::kReadRequest),
      [this, replica, chunk, sub, view, version, out, guard, replied_version, span]() {
        ChunkServer* server = Server(replica.server);
        if (server == nullptr) {
          return;  // the guard's timeout handles it
        }
        server->HandleRead(
            chunk, sub.chunk_offset, sub.length, view, version, out,
            [this, replica, sub, guard, replied_version, span](const Status& s, uint64_t ver) {
              *replied_version = ver;
              uint64_t bytes = s.ok() ? sub.length : 0;
              cluster_->transport().Send(replica.node, host_->node(),
                                         WireBytes(MessageType::kReadReply, bytes),
                                         [guard, s]() { guard->Complete(s); }, span,
                                         obs::Stage::kNetReply);
            },
            span);
      },
      span, obs::Stage::kNetRequest);
}

ec::ReedSolomon* VirtualDisk::Codec(int k, int m) {
  auto key = std::make_pair(k, m);
  auto it = codecs_.find(key);
  if (it == codecs_.end()) {
    it = codecs_.emplace(key, std::make_unique<ec::ReedSolomon>(k, m)).first;
  }
  return it->second.get();
}

void VirtualDisk::IssueEcRead(const SubRequest& sub, void* out, int attempt,
                              storage::IoCallback done, const obs::SpanRef& span) {
  const ChunkLayout& layout = Layout(sub.chunk_index);
  if (layout.tier != cluster::ChunkTier::kEc || layout.ec_shards.empty() ||
      layout.ec_shard_size == 0) {
    // Promoted back under us (or a stale routing decision): take the
    // replicated path on the current layout.
    IssueRead(sub, out, attempt, std::move(done), span);
    return;
  }
  // Split the range on shard boundaries. Data shard d owns chunk bytes
  // [d*S, (d+1)*S); stripe units normally sit entirely inside one shard, so
  // the common case is a single piece.
  struct Piece {
    int shard;
    uint64_t off;
    uint64_t len;
    uint64_t buf_off;
  };
  const uint64_t S = layout.ec_shard_size;
  // While the chunk speculates, ranges known durable on the spec replicas
  // read THERE (the shards never saw those bytes); only the remainder goes
  // to the shards.
  const ChunkState& cs = chunk_states_[sub.chunk_index];
  std::vector<Interval> spec_pieces;
  std::vector<Interval> shard_ranges{Interval{sub.chunk_offset, sub.length}};
  if (layout.speculating() && !cs.spec_extents.empty()) {
    const Interval range{sub.chunk_offset, sub.length};
    for (const Interval& e : cs.spec_extents) {
      Interval isect = range.Intersect(e);
      if (!isect.empty()) {
        spec_pieces.push_back(isect);
      }
    }
    shard_ranges = SubtractAll(range, cs.spec_extents);
  }
  std::vector<Piece> pieces;
  for (const Interval& r : shard_ranges) {
    uint64_t pos = r.offset;
    const uint64_t end = r.end();
    while (pos < end) {
      uint64_t off = pos % S;
      uint64_t run = std::min(end - pos, S - off);
      pieces.push_back(Piece{static_cast<int>(pos / S), off, run, pos - sub.chunk_offset});
      pos += run;
    }
  }

  auto remaining = std::make_shared<size_t>(pieces.size() + spec_pieces.size());
  auto first_error = std::make_shared<Status>();
  auto join = [this, sub, out, attempt, done, remaining, first_error,
               span](const Status& s) {
    if (!s.ok() && first_error->ok()) {
      *first_error = s;
    }
    if (--*remaining > 0) {
      return;
    }
    Nanos copy_cost =
        static_cast<Nanos>(options_.loop_byte_cost_ns * static_cast<double>(sub.length));
    loop_->Submit(options_.loop_complete_cost + (first_error->ok() ? copy_cost : 0),
                  [this, sub, out, attempt, done, first_error, span]() {
                    if (first_error->ok()) {
                      chunk_states_[sub.chunk_index].timeout_streak = 0;
                      done(OkStatus());
                      return;
                    }
                    HandleAttemptFailure(sub, *first_error, attempt, done,
                                         [this, sub, out, attempt, done, span]() {
                                           IssueRead(sub, out, attempt + 1, done, span);
                                         });
                  });
  };
  for (const Piece& p : pieces) {
    void* dest = out == nullptr ? nullptr : static_cast<uint8_t*>(out) + p.buf_off;
    ReadShardPiece(sub.chunk_index, p.shard, p.off, p.len, dest, join, span);
  }
  for (const Interval& p : spec_pieces) {
    void* dest =
        out == nullptr ? nullptr : static_cast<uint8_t*>(out) + (p.offset - sub.chunk_offset);
    ReadSpecPiece(sub.chunk_index, p.offset, p.length, dest, /*replica_idx=*/0, join, span);
  }
}

void VirtualDisk::ReadSpecPiece(size_t chunk_index, uint64_t offset, uint64_t len, void* out,
                                size_t replica_idx, storage::IoCallback done,
                                const obs::SpanRef& span) {
  const ChunkLayout& layout = Layout(chunk_index);
  if (!layout.speculating()) {
    // Speculation committed under us; a refresh re-routes to the replicas.
    done(VersionMismatch("speculation ended"));
    return;
  }
  if (replica_idx >= layout.spec_replicas.size()) {
    // Every spec replica is stale or unreachable. Surface a mismatch: the
    // retry refreshes the layout, and by then either the back-fill committed
    // (replicated reads work) or a fresher spec replica answers.
    done(VersionMismatch("no spec replica served the range"));
    return;
  }
  ++stats_.spec_reads;
  const ReplicaRef replica = layout.spec_replicas[replica_idx];
  const uint64_t view = layout.view;
  // Any replica at the client's acked version holds every acked byte (the
  // version guard makes each replica a prefix of the write sequence).
  const uint64_t version = chunk_states_[chunk_index].version;
  const ChunkId chunk = layout.chunk;
  auto guard = PendingCall::Start(
      sim_, options_.request_timeout,
      [this, chunk_index, offset, len, out, replica_idx, done, span](const Status& s) {
        if (s.ok()) {
          done(s);
          return;
        }
        // Stale or dead replica: fail over to the next spec replica.
        ReadSpecPiece(chunk_index, offset, len, out, replica_idx + 1, done, span);
      });
  cluster_->transport().Send(
      host_->node(), replica.node, WireBytes(MessageType::kReadRequest),
      [this, replica, chunk, offset, len, view, version, out, guard, span]() {
        ChunkServer* server = Server(replica.server);
        if (server == nullptr) {
          return;  // the guard's timeout handles it
        }
        server->HandleRead(
            chunk, offset, len, view, version, out,
            [this, replica, len, guard, span](const Status& s, uint64_t) {
              uint64_t bytes = s.ok() ? len : 0;
              cluster_->transport().Send(replica.node, host_->node(),
                                         WireBytes(MessageType::kReadReply, bytes),
                                         [guard, s]() { guard->Complete(s); }, span,
                                         obs::Stage::kNetReply);
            },
            span);
      },
      span, obs::Stage::kNetRequest);
}

void VirtualDisk::ReadShardPiece(size_t chunk_index, int shard_index, uint64_t shard_off,
                                 uint64_t len, void* out, storage::IoCallback done,
                                 const obs::SpanRef& span) {
  const ChunkLayout& layout = Layout(chunk_index);
  if (shard_index >= static_cast<int>(layout.ec_shards.size())) {
    done(Unavailable("shard index out of range"));  // layout moved; caller retries
    return;
  }
  ++stats_.ec_shard_reads;
  const cluster::EcShardRef shard = layout.ec_shards[shard_index];
  const uint64_t view = layout.view;
  auto guard = PendingCall::Start(
      sim_, options_.request_timeout,
      [this, chunk_index, shard_index, shard, shard_off, len, out, done,
       span](const Status& s) {
        if (s.ok() || s.code() == StatusCode::kVersionMismatch ||
            s.code() == StatusCode::kNotFound) {
          // Mismatch/NotFound mean the layout moved (promote or shard
          // repair), not that the bytes are gone: bubble up so the caller
          // refreshes and re-routes.
          done(s);
          return;
        }
        // The shard server failed (timeout / crash / corruption): tell the
        // master — it schedules a stripe repair — and satisfy the read in
        // degraded mode from the surviving shards.
        ++stats_.failures_reported;
        cluster_->master().ReportReplicaFailure(shard.shard_chunk, shard.server,
                                                [](const Status&) {});
        DegradedShardRead(chunk_index, shard_index, shard_off, len, out, std::move(done),
                          span);
      });
  cluster_->transport().Send(
      host_->node(), shard.node, WireBytes(MessageType::kReadRequest),
      [this, shard, shard_off, len, view, out, guard, span]() {
        ChunkServer* server = Server(shard.server);
        if (server == nullptr) {
          return;  // the guard's timeout handles it
        }
        server->HandleRead(
            shard.shard_chunk, shard_off, len, view, /*expected_version=*/0, out,
            [this, shard, len, guard, span](const Status& s, uint64_t) {
              uint64_t bytes = s.ok() ? len : 0;
              cluster_->transport().Send(shard.node, host_->node(),
                                         WireBytes(MessageType::kReadReply, bytes),
                                         [guard, s]() { guard->Complete(s); }, span,
                                         obs::Stage::kNetReply);
            },
            span);
      },
      span, obs::Stage::kNetRequest);
}

void VirtualDisk::DegradedShardRead(size_t chunk_index, int shard_index, uint64_t shard_off,
                                    uint64_t len, void* out, storage::IoCallback done,
                                    const obs::SpanRef& span) {
  const ChunkLayout& layout = Layout(chunk_index);
  if (layout.tier != cluster::ChunkTier::kEc) {
    done(VersionMismatch("chunk promoted during degraded read"));
    return;
  }
  const int k = layout.ec_k;
  const int n = k + layout.ec_m;
  std::vector<int> sources;
  for (int i = 0; i < n && static_cast<int>(sources.size()) < k; ++i) {
    if (i == shard_index) {
      continue;
    }
    ChunkServer* server = Server(layout.ec_shards[i].server);
    if (server == nullptr || server->crashed()) {
      continue;
    }
    sources.push_back(i);
  }
  if (static_cast<int>(sources.size()) < k) {
    done(Unavailable("too few live shards for degraded read"));
    return;
  }
  ++stats_.ec_degraded_reads;
  const uint64_t view = layout.view;
  std::vector<cluster::EcShardRef> refs;
  refs.reserve(sources.size());
  for (int i : sources) {
    refs.push_back(layout.ec_shards[i]);
  }
  // One contiguous survivor buffer: slot i holds source i's [off, off+len)
  // range. Reconstruction is positional per byte, so reading the SAME range
  // from k peers is enough to rebuild the missing shard's range.
  auto buf = out == nullptr ? std::shared_ptr<std::vector<uint8_t>>()
                            : std::make_shared<std::vector<uint8_t>>(sources.size() * len);
  auto remaining = std::make_shared<size_t>(sources.size());
  auto first_error = std::make_shared<Status>();
  auto finish = [this, k, n, shard_index, sources, buf, len, out, done, remaining,
                 first_error](const Status& s) {
    if (!s.ok() && first_error->ok()) {
      *first_error = s;
    }
    if (--*remaining > 0) {
      return;
    }
    if (!first_error->ok()) {
      done(*first_error);
      return;
    }
    if (out != nullptr && buf != nullptr) {
      ec::ReedSolomon* rs = Codec(k, n - k);
      std::vector<bool> present(n, false);
      std::vector<const uint8_t*> shards(n, nullptr);
      for (size_t i = 0; i < sources.size(); ++i) {
        present[sources[i]] = true;
        shards[sources[i]] = buf->data() + i * len;
      }
      ec::ReedSolomon::DecodePlan plan;
      Status ps = rs->PlanReconstruct(present, {shard_index}, &plan);
      if (!ps.ok()) {
        done(ps);
        return;
      }
      std::vector<uint8_t*> rebuild(n, nullptr);
      rebuild[shard_index] = static_cast<uint8_t*>(out);
      rs->ReconstructWith(plan, shards, rebuild, len);
    }
    done(OkStatus());
  };
  for (size_t i = 0; i < refs.size(); ++i) {
    const cluster::EcShardRef ref = refs[i];
    void* dst = buf == nullptr ? nullptr : buf->data() + i * len;
    auto guard = PendingCall::Start(sim_, options_.request_timeout,
                                    [finish, buf](const Status& s) { finish(s); });
    cluster_->transport().Send(
        host_->node(), ref.node, WireBytes(MessageType::kReadRequest),
        [this, ref, shard_off, len, view, dst, guard, span]() {
          ChunkServer* server = Server(ref.server);
          if (server == nullptr) {
            return;  // the guard's timeout handles it
          }
          server->HandleRead(
              ref.shard_chunk, shard_off, len, view, /*expected_version=*/0, dst,
              [this, ref, len, guard, span](const Status& s, uint64_t) {
                uint64_t bytes = s.ok() ? len : 0;
                cluster_->transport().Send(ref.node, host_->node(),
                                           WireBytes(MessageType::kReadReply, bytes),
                                           [guard, s]() { guard->Complete(s); }, span,
                                           obs::Stage::kNetReply);
              },
              span);
        },
        span, obs::Stage::kNetRequest);
  }
}

void VirtualDisk::PromoteForWrite(const SubRequest& sub, ursa::BufferView data, int attempt,
                                  storage::IoCallback done, const obs::SpanRef& span) {
  ++stats_.write_promotes;
  storage::ChunkId chunk = Layout(sub.chunk_index).chunk;
  // With speculation enabled this returns as soon as the spec targets are
  // allocated (no reconstruction wait); otherwise it blocks on the full
  // promotion like before.
  cluster_->master().BeginWritePromote(
      chunk, [this, sub, data, attempt, done, span](const Status& s) {
        loop_->Submit(options_.loop_complete_cost, [this, sub, data, attempt, done, s,
                                                    span]() {
          RefreshLayout();
          const ChunkLayout& layout = Layout(sub.chunk_index);
          if (s.ok() || layout.tier == cluster::ChunkTier::kReplicated ||
              layout.speculating()) {
            // Promoted or speculating (by us or a concurrent migration):
            // retry on the fresh layout. Same attempt number — the promote
            // round-trip is not a replica failure.
            IssueWriteAttempt(sub, data, attempt, done, span);
            return;
          }
          HandleAttemptFailure(sub, s, attempt, done,
                               [this, sub, data, attempt, done, span]() {
                                 IssueWriteAttempt(sub, data, attempt + 1, done, span);
                               });
        });
      });
}

void VirtualDisk::Write(uint64_t offset, uint64_t length, ursa::BufferView data,
                        storage::IoCallback done) {
  URSA_CHECK(open_);
  if (upgrading_) {
    paused_ops_.push_back(
        [this, offset, length, data = std::move(data), done = std::move(done)]() mutable {
          Write(offset, length, std::move(data), std::move(done));
        });
    return;
  }
  // Master-imposed throttle (§3.2): delay the write until a token is free.
  Nanos wait = write_limiter_.Acquire(sim_->Now());
  if (wait > 0) {
    ++stats_.throttled_writes;
    sim_->After(wait,
                [this, offset, length, data = std::move(data), done = std::move(done)]() mutable {
                  Write(offset, length, std::move(data), std::move(done));
                });
    return;
  }
  ++inflight_user_ops_;
  done = [this, done = std::move(done)](const Status& s) {
    --inflight_user_ops_;
    done(s);
  };
  ++stats_.writes;
  stats_.write_bytes += length;
  Nanos start = sim_->Now();
  obs::SpanRef span = cluster_->tracer().StartSpan(/*is_write=*/true, start);
  if (span != nullptr) {
    span->RecordStage(obs::Stage::kVmm, 2 * options_.vmm_overhead);
  }

  std::vector<SubRequest> subs = SplitRequest(offset, length);
  for (SubRequest& sub : subs) {
    // Stable per-sub-write identity (survives retries); client id folded in
    // so concurrent clients never collide.
    sub.write_id = (client_id_ << 40) | ++next_write_id_;
  }
  auto remaining = std::make_shared<size_t>(subs.size());
  auto first_error = std::make_shared<Status>();
  auto finish = [this, start, remaining, first_error, span,
                 done = std::move(done)](const Status& s) {
    if (!s.ok() && first_error->ok()) {
      *first_error = s;
    }
    if (--*remaining > 0) {
      return;
    }
    sim_->After(options_.vmm_overhead,
                [this, start, first_error, span, done = std::move(done)]() {
      stats_.write_latency_us.Record(static_cast<int64_t>(ToUsec(sim_->Now() - start)));
      if (qos::SloMonitor* slo = cluster_->slo_monitor()) {
        slo->RecordForeground(sim_->Now() - start);
      }
      if (span != nullptr) {
        cluster_->tracer().FinishSpan(span, sim_->Now());
      }
      done(*first_error);
    });
  };

  for (const SubRequest& sub : subs) {
    // Slice shares the payload's refcount; a null view slices to a null view.
    ursa::BufferView src = data.Slice(sub.user_offset, sub.length);
    sim_->After(options_.vmm_overhead, [this, sub, src, finish, span]() {
      size_t idx = sub.chunk_index;
      ChunkState& cs = chunk_states_[idx];
      // Writes to one chunk are ordered by version; queue and pipeline.
      cs.write_queue.push_back(PendingWrite{
          [this, sub, src, finish, idx, span]() {
            IssueWrite(sub, src, 1,
                       [this, finish, idx](const Status& s) {
                         chunk_states_[idx].write_inflight = false;
                         PumpWriteQueue(idx);
                         finish(s);
                       },
                       span);
          },
          sub.length});
      PumpWriteQueue(idx);
    });
  }
}

void VirtualDisk::PumpWriteQueue(size_t chunk_index) {
  ChunkState& cs = chunk_states_[chunk_index];
  if (cs.write_inflight || cs.write_queue.empty()) {
    return;
  }
  cs.write_inflight = true;
  PendingWrite next = std::move(cs.write_queue.front());
  cs.write_queue.pop_front();
  Nanos copy_cost =
      static_cast<Nanos>(options_.loop_byte_cost_ns * static_cast<double>(next.bytes));
  loop_->Submit(options_.loop_issue_cost + copy_cost, std::move(next.fn));
}

void VirtualDisk::IssueWrite(const SubRequest& sub, ursa::BufferView data, int attempt,
                             storage::IoCallback done, const obs::SpanRef& span) {
  if (span != nullptr) {
    // Loop queue + per-chunk write-order queue + issue cost since VMM entry.
    span->RecordStage(obs::Stage::kClientIssue,
                      sim_->Now() - span->start() - options_.vmm_overhead);
  }
  IssueWriteAttempt(sub, std::move(data), attempt, std::move(done), span);
}

void VirtualDisk::IssueWriteAttempt(const SubRequest& sub, ursa::BufferView data, int attempt,
                                    storage::IoCallback done, const obs::SpanRef& span) {
  const ChunkLayout& layout = Layout(sub.chunk_index);
  if (layout.tier == cluster::ChunkTier::kEc) {
    if (layout.speculating()) {
      // Speculative fast path (DESIGN.md §13.6): the new data goes straight
      // to the spec replicas and acks on quorum durability — no waiting for
      // the reconstruction. All sizes take the client-directed form: a
      // primary-driven chain through a crashed spec target would stall the
      // whole write, while the quorum tolerates a minority down.
      ChunkState& cs = chunk_states_[sub.chunk_index];
      // Spec replicas start at the frozen EC version; a fresh client (whose
      // counter may still read 0) adopts it rather than burning an attempt
      // on the inevitable mismatch.
      cs.version = std::max(cs.version, layout.ec_version);
      auto acked = [this, sub, done = std::move(done)](const Status& s) {
        if (s.ok()) {
          ChunkState& ok_cs = chunk_states_[sub.chunk_index];
          const ChunkLayout& now = Layout(sub.chunk_index);
          if (now.speculating()) {
            ++stats_.spec_writes;
            InsertInterval(&ok_cs.spec_extents, Interval{sub.chunk_offset, sub.length});
            // Post-ack, fire-and-forget: lets a re-opened client route reads
            // of these bytes at the spec replicas. Not on the ack path.
            cluster_->master().RegisterSpecExtent(now.chunk, sub.chunk_offset, sub.length);
          }
        }
        done(s);
      };
      ClientDirectedWrite(sub, std::move(data), attempt, std::move(acked), span);
      return;
    }
    // Cold chunk: writes always go to replicated form — promote first, ack
    // after (DESIGN.md §13 keeps the write path single-tier).
    PromoteForWrite(sub, std::move(data), attempt, std::move(done), span);
    return;
  }
  if (options_.client_directed && sub.length <= options_.tiny_write_threshold) {
    ClientDirectedWrite(sub, std::move(data), attempt, std::move(done), span);
  } else {
    PrimaryDrivenWrite(sub, std::move(data), attempt, std::move(done), span);
  }
}

void VirtualDisk::ClientDirectedWrite(const SubRequest& sub, ursa::BufferView data, int attempt,
                                      storage::IoCallback done, const obs::SpanRef& span) {
  const ChunkLayout& layout = Layout(sub.chunk_index);
  ChunkState& cs = chunk_states_[sub.chunk_index];
  uint64_t view = layout.view;
  uint64_t version = cs.version;
  ChunkId chunk = layout.chunk;

  // Speculating chunks replicate onto the spec targets (same quorum rule).
  const std::vector<ReplicaRef>& replicas = WriteSet(layout);
  int total = static_cast<int>(replicas.size());
  int majority = total / 2 + 1;

  auto saw_mismatch = std::make_shared<bool>(false);
  auto replied_version = std::make_shared<uint64_t>(0);

  auto guard = PendingCall::Start(
      sim_, options_.request_timeout,
      [this, sub, data, attempt, done, version, saw_mismatch, replied_version,
       span](const Status& s) {
        Nanos replied = sim_->Now();
        loop_->Submit(
            options_.loop_complete_cost,
            [this, sub, data, attempt, done, s, version, saw_mismatch, replied_version,
             replied, span]() {
              if (span != nullptr) {
                span->RecordStage(obs::Stage::kClientComplete, sim_->Now() - replied);
              }
              if (s.ok()) {
                // This attempt committed exactly version+1. Concurrent reads
                // (or earlier failed attempts) may have ALREADY adopted that
                // number after observing our write applied at a replica, so
                // a blind ++ here would double-count the same commit and
                // strand the client one version above every replica forever.
                ChunkState& ok_cs = chunk_states_[sub.chunk_index];
                ok_cs.version = std::max(ok_cs.version, version + 1);
                ok_cs.timeout_streak = 0;
                done(OkStatus());
                return;
              }
              Status effective = *saw_mismatch ? VersionMismatch("replica ahead/behind") : s;
              if (*saw_mismatch &&
                  *replied_version > chunk_states_[sub.chunk_index].version) {
                chunk_states_[sub.chunk_index].version = *replied_version;
              }
              HandleAttemptFailure(sub, effective, attempt, done,
                                   [this, sub, data, attempt, done, span]() {
                                     IssueWriteAttempt(sub, data, attempt + 1, done, span);
                                   });
            });
      });

  auto tracker = std::make_shared<QuorumTracker>(
      total, majority,
      [this, guard, chunk](const Status& s, int successes, int failures) {
        if (s.ok() && failures > 0) {
          // Committed on a majority: notify the master to fix the lagging
          // replicas (§4.1 — "the client also notifies the master to fix the
          // problem").
          cluster_->master().RepairChunkReplicas(chunk);
        }
        guard->Complete(s);
      });
  sim::EventId commit_timer =
      sim_->After(options_.commit_timeout, [tracker]() { tracker->TimeoutExpired(); });
  auto leg = [this, tracker, commit_timer, saw_mismatch, replied_version](const Status& s,
                                                                          uint64_t ver) {
    if (s.ok()) {
      tracker->RecordSuccess();
    } else {
      if (s.code() == StatusCode::kVersionMismatch) {
        *saw_mismatch = true;
        *replied_version = std::max(*replied_version, ver);
      }
      tracker->RecordFailure();
    }
    if (tracker->decided()) {
      sim_->Cancel(commit_timer);
    }
  };

  // Client-directed replication (§3.2): one message per replica in parallel;
  // all legs stamp the shared span, which keeps the per-stage maximum (the
  // quorum waits for all replicas in the common case, so the slowest leg is
  // the critical path). Each replica counts toward the quorum at most once:
  // a chaos-duplicated request or reply must not let one replica's ack
  // masquerade as a majority.
  auto leg_fired = std::make_shared<std::vector<bool>>(replicas.size(), false);
  for (size_t r = 0; r < replicas.size(); ++r) {
    const ReplicaRef& replica = replicas[r];
    auto leg_once = [leg, leg_fired, r](const Status& s, uint64_t ver) {
      if ((*leg_fired)[r]) {
        return;
      }
      (*leg_fired)[r] = true;
      leg(s, ver);
    };
    cluster_->transport().Send(
        host_->node(), replica.node, WireBytes(MessageType::kReplicate, sub.length),
        [this, replica, chunk, sub, view, version, data, leg_once, span]() {
          ChunkServer* server = Server(replica.server);
          if (server == nullptr) {
            return;  // silent drop; timeout/quorum handles it
          }
          server->HandleReplicate(
              chunk, sub.chunk_offset, sub.length, view, version, data,
              [this, replica, leg_once, span](const Status& s, uint64_t ver) {
                cluster_->transport().Send(replica.node, host_->node(),
                                           WireBytes(MessageType::kReplicateReply),
                                           [leg_once, s, ver]() { leg_once(s, ver); }, span,
                                           obs::Stage::kNetReply);
              },
              span, sub.write_id);
        },
        span, obs::Stage::kNetRequest);
  }
}

void VirtualDisk::PrimaryDrivenWrite(const SubRequest& sub, ursa::BufferView data, int attempt,
                                     storage::IoCallback done, const obs::SpanRef& span) {
  const ChunkLayout& layout = Layout(sub.chunk_index);
  ChunkState& cs = chunk_states_[sub.chunk_index];
  size_t primary_idx = cs.primary % layout.replicas.size();
  const ReplicaRef primary = layout.replicas[primary_idx];

  std::vector<ReplicaRef> backups;
  for (size_t r = 0; r < layout.replicas.size(); ++r) {
    if (r != primary_idx) {
      backups.push_back(layout.replicas[r]);
    }
  }

  uint64_t view = layout.view;
  uint64_t version = cs.version;
  ChunkId chunk = layout.chunk;

  auto replied_version = std::make_shared<uint64_t>(0);
  auto guard = PendingCall::Start(
      sim_, options_.request_timeout,
      [this, sub, data, attempt, done, version, replied_version, span](const Status& s) {
        Nanos replied = sim_->Now();
        loop_->Submit(options_.loop_complete_cost, [this, sub, data, attempt, done, s,
                                                    version, replied_version, replied,
                                                    span]() {
          if (span != nullptr) {
            span->RecordStage(obs::Stage::kClientComplete, sim_->Now() - replied);
          }
          if (s.ok()) {
            // Commit is idempotent against concurrent version adoption (see
            // ClientDirectedWrite): this attempt committed version+1 — the
            // primary's replied new_version — never a blind increment.
            ChunkState& ok_cs = chunk_states_[sub.chunk_index];
            ok_cs.version = std::max({ok_cs.version, version + 1, *replied_version});
            ok_cs.timeout_streak = 0;
            done(OkStatus());
            return;
          }
          if (s.code() == StatusCode::kVersionMismatch &&
              *replied_version > chunk_states_[sub.chunk_index].version) {
            chunk_states_[sub.chunk_index].version = *replied_version;
          }
          HandleAttemptFailure(sub, s, attempt, done, [this, sub, data, attempt, done,
                                                       span]() {
            IssueWriteAttempt(sub, data, attempt + 1, done, span);
          });
        });
      });

  cluster_->transport().Send(
      host_->node(), primary.node, WireBytes(MessageType::kWriteRequest, sub.length),
      [this, primary, chunk, sub, view, version, data, backups = std::move(backups), guard,
       replied_version, span]() {
        ChunkServer* server = Server(primary.server);
        if (server == nullptr) {
          return;
        }
        server->HandleWrite(
            chunk, sub.chunk_offset, sub.length, view, version, data, backups,
            [this, primary, guard, replied_version, span](const Status& s,
                                                          uint64_t new_version) {
              *replied_version = new_version;
              cluster_->transport().Send(primary.node, host_->node(),
                                         WireBytes(MessageType::kWriteReply),
                                         [guard, s]() { guard->Complete(s); }, span,
                                         obs::Stage::kNetReply);
            },
            span, sub.write_id);
      },
      span, obs::Stage::kNetRequest);
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
      std::vector<std::function<void()>> resume;
      resume.swap(paused_ops_);
      for (auto& op : resume) {
        op();
      }
      done();
    });
  };
  (*wait_drain)();
}

Nanos VirtualDisk::BackoffDelay(int attempt) {
  if (options_.retry_backoff_base <= 0) {
    return 0;
  }
  // attempt k failed -> wait base * 2^(k-1), capped. Jitter keeps retried
  // clients from re-colliding: half the delay is fixed, half uniform.
  Nanos d = options_.retry_backoff_base;
  for (int i = 1; i < attempt && d < options_.retry_backoff_max; ++i) {
    d *= 2;
  }
  d = std::min(d, options_.retry_backoff_max);
  Nanos half = d / 2;
  return half + static_cast<Nanos>(retry_rng_.Uniform(static_cast<uint64_t>(half) + 1));
}

void VirtualDisk::ScheduleRetry(int attempt, std::function<void()> retry) {
  Nanos delay = BackoffDelay(attempt);
  if (delay <= 0) {
    retry();
    return;
  }
  ++stats_.backoff_retries;
  stats_.backoff_wait_ns += delay;
  sim_->After(delay, std::move(retry));
}

void VirtualDisk::HandleAttemptFailure(const SubRequest& sub, const Status& status, int attempt,
                                       storage::IoCallback done, std::function<void()> retry) {
  ChunkState& cs = chunk_states_[sub.chunk_index];
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

  if (attempt >= options_.max_attempts) {
    done(status);
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
    const ChunkLayout& nl = Layout(sub.chunk_index);
    if (nl.tier == cluster::ChunkTier::kEc || nl.replicas.empty()) {
      // Demoted under us: the issue path re-routes (EC shard read, or
      // promote-on-write) against the fresh layout.
      cs.timeout_streak = 0;
      retry();
      return;
    }
    if (status.code() == StatusCode::kNotFound) {
      // Promoted under us (replicas replaced wholesale): nothing to steer —
      // the fresh layout is enough.
      cs.timeout_streak = 0;
      retry();
      return;
    }
    cluster::ServerId stale = nl.replicas[cs.primary % nl.replicas.size()].server;
    uint64_t best_version = 0;
    size_t best = cs.primary % nl.replicas.size();
    int best_pref = 99;
    for (size_t r = 0; r < nl.replicas.size(); ++r) {
      ChunkServer* server = Server(nl.replicas[r].server);
      if (server == nullptr || server->crashed()) {
        continue;
      }
      Result<ChunkServer::ReplicaState> st = server->GetState(nl.chunk);
      if (st.ok() && (st->version > best_version ||
                      (st->version == best_version &&
                       ReplicaPreference(nl.replicas[r]) < best_pref))) {
        best_version = st->version;
        best_pref = ReplicaPreference(nl.replicas[r]);
        best = r;
      }
    }
    if (nl.replicas[best].server != stale) {
      cs.primary = best;
      cluster_->master().RepairReplica(nl.chunk, stale, [](Status) {});
    }
    // The single-writer client's version is authoritative: never lower it,
    // only adopt newer observations.
    cs.version = std::max(cs.version, best_version);
    cs.timeout_streak = 0;
    retry();
    return;
  }

  const ChunkLayout& layout = Layout(sub.chunk_index);
  if (layout.tier == cluster::ChunkTier::kEc || layout.replicas.empty()) {
    // EC-tier failure (a shard timed out, or the degraded read exhausted its
    // survivors): the shard failure was already reported inside the EC read
    // path; back off and retry — repair or promotion may land meanwhile.
    cs.timeout_streak = 0;
    RefreshLayout();
    ScheduleRetry(attempt, std::move(retry));
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
    ScheduleRetry(attempt, std::move(retry));
    return;
  }

  if (is_timeout && ++cs.timeout_streak < options_.primary_switch_hysteresis) {
    // A single timeout is weak evidence (gray-slow disk, queueing spike):
    // retry the same primary after a backoff before declaring it failed.
    // Persistent timeouts exhaust the hysteresis and fall through to the
    // switch-and-report path below.
    ScheduleRetry(attempt, std::move(retry));
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
  cluster_->master().ReportReplicaFailure(layout.chunk, suspected, [this, sub](const Status& s) {
    (void)s;
    RefreshLayout();
    // Resync the client version after the view change — upward only:
    // the single-writer client's number is authoritative (§4.1).
    const ChunkLayout& nl = Layout(sub.chunk_index);
    ChunkState& ncs = chunk_states_[sub.chunk_index];
    uint64_t version = ncs.version;
    for (const ReplicaRef& r : nl.replicas) {
      ChunkServer* server = Server(r.server);
      if (server == nullptr || server->crashed()) {
        continue;
      }
      Result<ChunkServer::ReplicaState> st = server->GetState(nl.chunk);
      if (st.ok()) {
        version = std::max(version, st->version);
      }
    }
    ncs.version = version;
    int best_pref = 99;
    for (size_t r = 0; r < nl.replicas.size(); ++r) {
      ChunkServer* server = Server(nl.replicas[r].server);
      if (server == nullptr || server->crashed()) {
        continue;
      }
      int pref = ReplicaPreference(nl.replicas[r]);
      if (pref < best_pref) {
        best_pref = pref;
        ncs.primary = r;
      }
    }
  });
  ScheduleRetry(attempt, std::move(retry));
}

}  // namespace ursa::client
