// Exhaustive small-scope explorer for the per-chunk replication protocol
// (src/cluster/replica_protocol.h, paper §4).
//
// A model of one chunk with three replicas, one client and the master, in
// which every change of a replica's {version, view, write id} and of the
// client's version goes through the protocol module, as it does in
// ChunkServer, VirtualDisk and Master. A depth-first search runs every
// interleaving within the scope below and checks every state it reaches.
//
// Scope:
//   * 3 replicas holding one block, and one replacement slot;
//   * 1 write on a chunk whose first write committed everywhere,
//     client-directed (the client sends every replica a leg) or
//     primary-driven (the primary forwards), then one fault-free write from
//     every end state;
//   * at most 1 crash, 1 primary switch and 1 view change (a crashed
//     member's replacement, from its start to its install, or a plain view
//     bump as a health demotion installs), plus the view change that fences
//     a write which failed for good;
//   * every order of delivery of every message, with any message delayed
//     forever, and request and commit timeouts (the client's and the
//     primary's);
//   * at most 1 duplicated reply: a leg's or a backup's reply delivered a
//     second time, at any later point.
// The searched client is VirtualDisk::HandleAttemptFailure with
// max_attempts = 2 and primary_switch_hysteresis = 1: a mismatch resyncs
// and steers at the freshest replica, a timeout switches the primary and
// reports the suspect, and a write that fails for good is fenced.
//
// Checks, on every path:
//   * per-block linearizability (chaos::BlockHistory) of a read served by
//     any replica that passes the read check for the client's version under
//     the client's or the master's view;
//   * each write is applied at most once per replica;
//   * each quorum counts each of its legs once, duplicates included;
//   * no acked write is lost: an alive member of the layout holds it;
//   * from every end state, a fault-free write still commits, in both forms,
//     with the client's default 4 attempts and the master healing between
//     them (replacing a crashed member, catching laggards up).
// Left out: tiering (the 200-seed tier model harness covers promotions),
// more than one write in flight per chunk, a laggard repair overlapping the
// search (the master's repairs run only in the fault-free write), and more
// than one searched write: two serial writes pass 74 M states in 25
// minutes without a violation or an end (ROADMAP item 10).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/chaos/block_history.h"
#include "src/cluster/replica_protocol.h"

namespace ursa::cluster {
namespace {

constexpr int kReplicas = 3;
constexpr int kSlots = kReplicas + 1;  // the last slot is the replacement
constexpr uint8_t kWrites = 1;
// The searched client is VirtualDisk with max_attempts = 2 and
// primary_switch_hysteresis = 1: every retry rule is reached in two
// attempts. The fault-free write at an end state gets the defaults.
constexpr uint8_t kMaxAttempts = 4;
constexpr uint8_t kHysteresis = 2;
constexpr uint8_t kSearchAttempts = 2;
constexpr uint8_t kSearchHysteresis = 1;
constexpr uint8_t kNone = 0xff;

enum class Kind : uint8_t {
  kLeg,           // client -> replica: a client-directed leg
  kLegReply,      // replica -> client
  kWrite,         // client -> primary: a primary-driven write
  kForward,       // primary -> backup
  kForwardReply,  // backup -> primary
  kWriteReply,    // primary -> client
};

struct Msg {
  Kind kind = Kind::kLeg;
  uint8_t slot = 0;  // the replica it goes to (requests) or comes from
  uint8_t gen = 0;   // the client attempt it belongs to
  uint8_t pw = 0;    // kForward/kForwardReply: the primary write; kLeg*: the leg
  StatusCode code = StatusCode::kOk;
  uint64_t view = 0;
  uint64_t version = 0;  // requests: the version sent; kWriteReply: replied
  uint64_t write_id = 0;
  bool duplicate = false;  // a reply's second copy, delivered after the first

  // The message's fields as bytes, free of padding.
  std::string Key() const {
    std::string k{static_cast<char>(kind), static_cast<char>(slot), static_cast<char>(gen),
                  static_cast<char>(pw), static_cast<char>(code), static_cast<char>(duplicate)};
    for (uint64_t v : {view, version, write_id}) {
      k.append(reinterpret_cast<const char*>(&v), sizeof(v));
    }
    return k;
  }
};

struct Replica {
  ReplicaState st;
  uint8_t content = 0;  // seq of the write whose bytes the block holds
  uint8_t applied = 0;  // bit w: write w was applied here
  bool hosted = false;
  bool crashed = false;
};

// A primary-driven write in flight at its primary (ChunkServer's primary
// write op). Its quorum counts the local write as leg 0 and backup b as leg
// b + 1; it expires when the primary's commit timeout fires.
struct PrimaryWrite {
  bool live = false;
  uint8_t slot = 0;
  uint8_t gen = 0;
  std::array<uint8_t, 2> backups{};
  uint64_t version = 0;
  WriteQuorum quorum{kReplicas};
};

struct Client {
  uint64_t committed = 0;  // the version its last acked write made
  uint64_t version = 0;    // the version it writes at next
  uint64_t view = 0;
  std::array<uint8_t, kReplicas> members{0, 1, 2};  // cached layout
  uint8_t primary = 0;                              // index into members
  uint8_t next_seq = 1;
  uint8_t seq = 0;  // the write in flight (its id too); 0 = none
  bool primary_driven = false;
  uint8_t attempt = 0;
  uint8_t gen = 0;
  bool pending = false;  // the attempt is undecided
  uint64_t sent_version = 0;
  uint64_t sent_view = 0;
  std::array<uint8_t, kReplicas> targets{};
  // Client-directed: leg l goes to targets[l]; it expires when the client's
  // commit timer fires.
  WriteQuorum quorum{kReplicas};
  bool saw_mismatch = false;
  uint64_t replied_version = 0;
  uint8_t timeout_streak = 0;
  bool awaiting_resync = false;  // a failure report's callback is due
  uint8_t max_attempts = kSearchAttempts;
  uint8_t hysteresis = kSearchHysteresis;
};

// A replacement (ReportReplicaFailure) between its start and its install.
struct MasterJob {
  bool active = false;
  uint8_t pos = 0;     // the failed member's position
  uint8_t target = 0;  // the new slot
  uint8_t source = 0;
  ReplicaState fresh;  // the source's state at the start
};

struct Model {
  std::array<Replica, kSlots> replicas;
  std::array<uint8_t, kReplicas> members{0, 1, 2};
  uint64_t view = 1;
  Client client;
  std::vector<Msg> net;
  std::array<PrimaryWrite, kMaxAttempts> writes;  // one per client attempt at most
  MasterJob replace;
  uint8_t crashes = 1, switches = 1, view_changes = 1, duplicates = 1;
  uint8_t last_invoked = 0, last_acked = 0;
  // Not part of the state's identity: every future check depends on the
  // history only through last_invoked / last_acked.
  chaos::BlockHistory history;
  Nanos clock = 0;
};

bool Alive(const Model& m, uint8_t slot) {
  return m.replicas[slot].hosted && !m.replicas[slot].crashed;
}

uint64_t Hash(const Model& m) {
  std::string b;
  auto put = [&b](const auto& v) { b.append(reinterpret_cast<const char*>(&v), sizeof(v)); };
  auto put_quorum = [&put](const WriteQuorum& q) {
    for (int leg = 0; leg < kReplicas; ++leg) {
      put(q.counted(leg));
    }
    put(q.successes()), put(q.failures()), put(q.expired()), put(q.decided());
  };
  for (const Replica& r : m.replicas) {
    put(r.st.version), put(r.st.view), put(r.st.last_write_id), put(r.content), put(r.applied);
    put(r.hosted), put(r.crashed);
  }
  put(m.members), put(m.view);
  const Client& c = m.client;
  put(c.committed), put(c.version), put(c.view), put(c.members), put(c.primary), put(c.next_seq), put(c.seq);
  // Only whether a message or primary write belongs to the attempt in flight
  // matters, not the attempt's generation number.
  put(c.primary_driven), put(c.attempt), put(c.pending), put(c.sent_version);
  put(c.sent_view), put(c.targets), put(c.saw_mismatch);
  put(c.replied_version), put(c.timeout_streak), put(c.awaiting_resync);
  put_quorum(c.quorum);
  std::vector<std::string> msgs;
  for (Msg msg : m.net) {
    msg.gen = msg.gen == c.gen ? 1 : 0;
    msgs.push_back(msg.Key());
  }
  std::sort(msgs.begin(), msgs.end());
  for (const std::string& s : msgs) {
    b += s;
  }
  for (const PrimaryWrite& w : m.writes) {
    put(w.live);
    if (w.live) {
      put(w.slot), put(w.gen == c.gen), put(w.backups), put(w.version);
      put_quorum(w.quorum);
    }
  }
  const MasterJob& j = m.replace;
  put(j.active), put(j.pos), put(j.target), put(j.source), put(j.fresh.version);
  put(j.fresh.last_write_id);
  put(m.crashes), put(m.switches), put(m.view_changes), put(m.duplicates);
  put(m.last_invoked), put(m.last_acked);
  return std::hash<std::string>{}(b);
}

// ---- The model's moves. Each returns a violation ("" = none). ----

// A replica takes a versioned write (ChunkServer::AcceptWrite).
std::string Apply(Model& m, uint8_t slot, const Msg& req, StatusCode* code) {
  Replica& r = m.replicas[slot];
  WriteVerdict verdict = JudgeWrite(r.st, req.view, req.version, req.write_id);
  *code = VerdictStatus(verdict).code();
  if (verdict != WriteVerdict::kApply) {
    return "";
  }
  const uint8_t seq = static_cast<uint8_t>(req.write_id);
  if ((r.applied & (1u << seq)) != 0) {
    return "write " + std::to_string(seq) + " applied twice on slot " + std::to_string(slot);
  }
  r.applied |= static_cast<uint8_t>(1u << seq);
  r.content = seq;
  return "";
}

void IssueAttempt(Model& m) {
  Client& c = m.client;
  ++c.gen;
  c.pending = true;
  c.sent_version = c.version;
  c.sent_view = c.view;
  c.saw_mismatch = false;
  c.replied_version = 0;
  c.quorum = WriteQuorum(kReplicas);
  Msg req{.gen = c.gen, .view = c.view, .version = c.version, .write_id = c.seq};
  if (c.primary_driven) {
    req.kind = Kind::kWrite;
    req.slot = c.members[c.primary];
    m.net.push_back(req);
    return;
  }
  c.targets = c.members;
  req.kind = Kind::kLeg;
  for (uint8_t leg = 0; leg < kReplicas; ++leg) {
    req.slot = c.targets[leg];
    req.pw = leg;
    m.net.push_back(req);
  }
}

void Invoke(Model& m, bool primary_driven) {
  Client& c = m.client;
  c.seq = c.next_seq++;
  c.primary_driven = primary_driven;
  c.attempt = 1;
  m.last_invoked = c.seq;
  m.history.OnWriteInvoke(m.clock);
  IssueAttempt(m);
}

void RefreshLayout(Model& m) {
  m.client.view = m.view;
  m.client.members = m.members;
}

// VirtualDisk::Resync: what the replicas offer, never below the committed
// version.
void Resync(Model& m, uint64_t inflight_write_id) {
  Client& c = m.client;
  RefreshLayout(m);
  uint64_t offered = 0;
  for (uint8_t slot : c.members) {
    if (Alive(m, slot)) {
      offered = std::max(offered, ResyncVersion(m.replicas[slot].st, inflight_write_id));
    }
  }
  c.version = AdoptVersion(c.committed, offered);
}

// The resync after a failure report's view change (HandleAttemptFailure's
// callback), which then prefers the first alive member.
void ResyncCallback(Model& m) {
  Client& c = m.client;
  c.awaiting_resync = false;
  Resync(m, c.seq);
  for (uint8_t p = 0; p < kReplicas; ++p) {
    if (Alive(m, c.members[p])) {
      c.primary = p;
      break;
    }
  }
}

void BumpView(Model& m) {
  ++m.view;
  for (uint8_t slot : m.members) {
    if (Alive(m, slot)) {
      InstallView(m.replicas[slot].st, m.view);
    }
  }
}

// False when the path needs a second primary switch (out of scope).
bool AttemptFailed(Model& m, StatusCode code) {
  Client& c = m.client;
  if (c.attempt >= c.max_attempts) {
    // The write fails for good. It may have landed on some replicas and its
    // legs may still land on others: the fence makes them stale, and the
    // client adopts what the write left (VirtualDisk::FenceWrite; its
    // repair runs in the fault-free write's Heal).
    BumpView(m);
    Resync(m, 0);
    c.seq = 0;
    return true;
  }
  ++c.attempt;
  if (code == StatusCode::kVersionMismatch || code == StatusCode::kNotFound) {
    // Steer at the freshest replica and adopt its version.
    RefreshLayout(m);
    uint64_t best_version = 0;
    uint8_t best = c.primary;
    int best_pref = 99;
    for (uint8_t p = 0; p < kReplicas; ++p) {
      if (!Alive(m, c.members[p])) {
        continue;
      }
      uint64_t version = ResyncVersion(m.replicas[c.members[p]].st, c.seq);
      if (Fresher(version, best_version, p < best_pref)) {
        best_version = version;
        best_pref = p;
        best = p;
      }
    }
    c.primary = best;
    c.version = AdoptVersion(c.committed, best_version);
    c.timeout_streak = 0;
    IssueAttempt(m);
    return true;
  }
  if (code == StatusCode::kTimedOut && ++c.timeout_streak < c.hysteresis) {
    IssueAttempt(m);
    return true;
  }
  c.timeout_streak = 0;
  if (m.switches == 0) {
    return false;
  }
  --m.switches;
  c.primary = static_cast<uint8_t>((c.primary + 1) % kReplicas);
  c.awaiting_resync = true;
  IssueAttempt(m);
  return true;
}

// DecideWriteAttempt + FinishWriteAttempt.
bool Decide(Model& m, StatusCode code) {
  Client& c = m.client;
  c.pending = false;
  ++c.gen;  // late replies of the attempt are stale
  if (code == StatusCode::kOk) {
    c.committed = CommitVersion(c.committed, c.sent_version,
                                c.primary_driven ? c.replied_version : 0);
    c.version = c.committed;
    c.timeout_streak = 0;
    m.last_acked = c.seq;
    m.history.OnWriteCommit(c.seq, m.clock);
    c.seq = 0;
    return true;
  }
  if (!c.primary_driven && c.saw_mismatch) {
    code = StatusCode::kVersionMismatch;
  }
  return AttemptFailed(m, code);
}

// The client's quorum decided the attempt (VirtualDisk::OnQuorumDecided).
bool ClientQuorumDecided(Model& m) { return Decide(m, m.client.quorum.outcome().code()); }

// The primary's quorum decided its write: it replies.
void PrimaryDecided(Model& m, PrimaryWrite& w) {
  w.live = false;
  m.net.push_back(Msg{.kind = Kind::kWriteReply, .slot = w.slot, .gen = w.gen,
                      .code = w.quorum.outcome().code(), .version = w.version + 1});
}

// Delivers message `i`; false when the path leaves the scope.
bool Deliver(Model& m, size_t i, std::string* violation) {
  const Msg msg = m.net[i];
  m.net.erase(m.net.begin() + static_cast<std::ptrdiff_t>(i));
  Client& c = m.client;
  switch (msg.kind) {
    case Kind::kLeg: {
      if (!Alive(m, msg.slot)) {
        return true;  // a crashed server drops what it is sent
      }
      StatusCode code;
      *violation = Apply(m, msg.slot, msg, &code);
      m.net.push_back(Msg{.kind = Kind::kLegReply, .slot = msg.slot, .gen = msg.gen,
                          .pw = msg.pw, .code = code});
      return true;
    }
    case Kind::kLegReply: {
      // VirtualDisk::OnLegReply: a repeated leg must not reach saw_mismatch.
      if (!c.pending || msg.gen != c.gen || c.quorum.counted(msg.pw)) {
        return true;
      }
      c.saw_mismatch = c.saw_mismatch || msg.code == StatusCode::kVersionMismatch;
      return !c.quorum.Count(msg.pw, msg.code == StatusCode::kOk) || ClientQuorumDecided(m);
    }
    case Kind::kWrite: {
      if (!Alive(m, msg.slot)) {
        return true;
      }
      StatusCode code;
      *violation = Apply(m, msg.slot, msg, &code);
      if (code != StatusCode::kOk) {
        m.net.push_back(Msg{.kind = Kind::kWriteReply, .slot = msg.slot, .gen = msg.gen,
                            .code = code, .version = m.replicas[msg.slot].st.version});
        return true;
      }
      for (uint8_t k = 0; k < m.writes.size(); ++k) {
        PrimaryWrite& w = m.writes[k];
        if (w.live) {
          continue;
        }
        w = PrimaryWrite{.live = true, .slot = msg.slot, .gen = msg.gen, .version = msg.version};
        w.quorum.Count(0, true);  // the local leg
        uint8_t b = 0;
        for (uint8_t slot : c.members) {  // the request carries the replica list
          if (slot != msg.slot) {
            w.backups[b] = slot;
            Msg fwd = msg;
            fwd.kind = Kind::kForward;
            fwd.slot = slot;
            fwd.pw = static_cast<uint8_t>(k * 2 + b);
            m.net.push_back(fwd);
            ++b;
          }
        }
        return true;
      }
      ADD_FAILURE() << "primary-write records exhausted";
      return false;
    }
    case Kind::kForward: {
      if (!Alive(m, msg.slot)) {
        return true;
      }
      StatusCode code;
      *violation = Apply(m, msg.slot, msg, &code);
      m.net.push_back(
          Msg{.kind = Kind::kForwardReply, .slot = msg.slot, .pw = msg.pw, .code = code});
      return true;
    }
    case Kind::kForwardReply: {
      if (msg.pw == kNone) {
        return true;
      }
      PrimaryWrite& w = m.writes[msg.pw / 2];
      if (w.live && w.quorum.Count(1 + msg.pw % 2, msg.code == StatusCode::kOk)) {
        PrimaryDecided(m, w);
      }
      return true;
    }
    case Kind::kWriteReply:
      if (!c.pending || msg.gen != c.gen) {
        return true;
      }
      c.replied_version = msg.version;
      return Decide(m, msg.code);
  }
  return true;
}

// Master::FreshestReplica over the layout, other than `exclude`.
uint8_t Freshest(const Model& m, uint8_t exclude, ReplicaState* state) {
  uint8_t best = kNone;
  for (uint8_t slot : m.members) {
    if (slot == exclude || !Alive(m, slot)) {
      continue;
    }
    if (best == kNone || Fresher(m.replicas[slot].st.version, state->version, false)) {
      *state = m.replicas[slot].st;
      best = slot;
    }
  }
  return best;
}

// ReportReplicaFailure's install, once the copy and the catch-ups landed.
void FinishReplacement(Model& m) {
  MasterJob& j = m.replace;
  const uint8_t failed = m.members[j.pos];
  const uint64_t view = m.view + 1;  // current at the install, not at the start
  m.replicas[j.target].content = m.replicas[j.source].content;
  for (uint8_t slot : m.members) {
    Replica& r = m.replicas[slot];
    if (slot != failed && Alive(m, slot) && r.st.version < j.fresh.version) {
      r.content = m.replicas[j.source].content;  // CatchUp
    }
  }
  InstallView(m.replicas[j.target].st, view, j.fresh.version, j.fresh.last_write_id);
  for (uint8_t slot : m.members) {
    if (slot != failed) {
      InstallView(m.replicas[slot].st, view, j.fresh.version, j.fresh.last_write_id);
    }
  }
  m.members[j.pos] = j.target;
  m.view = view;
  j.active = false;
}

bool StartReplacement(Model& m, uint8_t pos) {
  MasterJob& j = m.replace;
  ReplicaState fresh;
  uint8_t source = Freshest(m, m.members[pos], &fresh);
  if (source == kNone) {
    return false;
  }
  j = MasterJob{.active = true, .pos = pos, .target = kReplicas, .source = source,
                .fresh = fresh};
  Replica& target = m.replicas[kReplicas];
  target = Replica{};
  target.hosted = true;
  target.st.view = m.view + 1;  // AllocateChunk
  return true;
}

// RepairReplica, from start to install: a laggard behind its freshest peer
// gets that peer's bytes and state.
void Repair(Model& m, uint8_t laggard) {
  ReplicaState fresh;
  uint8_t source = Freshest(m, laggard, &fresh);
  if (source != kNone && fresh.version > m.replicas[laggard].st.version) {
    m.replicas[laggard].content = m.replicas[source].content;
    InstallView(m.replicas[laggard].st, m.view, fresh.version, fresh.last_write_id);
  }
}

// Keeps the search to states that differ in what can still happen. Drops
// the messages whose delivery changes nothing (replies to a decided attempt
// or primary write, a leg's first reply once the leg counted, requests to a
// crashed server), and strips a request
// whose reply nobody waits for of its reply address. Two such requests that
// are then equal are one: once one is delivered, the other can only be
// refused, as a replica's version never goes down.
void Prune(Model& m) {
  const Client& c = m.client;
  auto waited = [&c](const Msg& msg) { return c.pending && msg.gen == c.gen; };
  std::erase_if(m.net, [&m, &c, &waited](const Msg& msg) {
    switch (msg.kind) {
      case Kind::kLegReply:
        return !waited(msg) || (c.quorum.counted(msg.pw) && !msg.duplicate);
      case Kind::kWriteReply:
        return !waited(msg);
      case Kind::kForwardReply:
        return msg.pw == kNone || !m.writes[msg.pw / 2].live ||
               (m.writes[msg.pw / 2].quorum.counted(1 + msg.pw % 2) && !msg.duplicate);
      default:
        return m.replicas[msg.slot].crashed;
    }
  });
  for (Msg& msg : m.net) {
    if ((msg.kind == Kind::kLeg || msg.kind == Kind::kWrite) && !waited(msg)) {
      msg.gen = 0;
      msg.pw = 0;
    } else if (msg.kind == Kind::kForward && msg.pw != kNone && !m.writes[msg.pw / 2].live) {
      msg.pw = kNone;
    }
  }
  std::vector<std::string> seen;
  std::erase_if(m.net, [&m, &seen](const Msg& msg) {
    bool idle = msg.gen == 0 && (msg.kind == Kind::kLeg || msg.kind == Kind::kWrite);
    idle = idle || (msg.kind == Kind::kForward && msg.pw == kNone);
    if (!idle) {
      return false;
    }
    // Views and versions never go down: a request the replica refuses now,
    // or acks as a duplicate without applying, can change nothing later
    // (a primary still forwards a duplicate, so only a refusal counts).
    const ReplicaState& st = m.replicas[msg.slot].st;
    const uint64_t spent = msg.kind == Kind::kWrite ? msg.version + 1 : msg.version;
    if (msg.view < st.view || spent < st.version) {
      return true;
    }
    std::string key = msg.Key();
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
      return true;
    }
    seen.push_back(std::move(key));
    return false;
  });
}

// ---- Checks ----

// True when the quorum counted each leg at most once (§4.1): its tallies add
// up to the legs it marked counted.
bool CountsEachLegOnce(const WriteQuorum& q) {
  int legs = 0;
  for (int leg = 0; leg < kReplicas; ++leg) {
    legs += q.counted(leg) ? 1 : 0;
  }
  return q.successes() + q.failures() == legs;
}

std::string CheckState(const Model& m) {
  const Client& c = m.client;
  if (!CountsEachLegOnce(c.quorum)) {
    return "the client's quorum counted a leg twice";
  }
  for (const PrimaryWrite& w : m.writes) {
    if (!CountsEachLegOnce(w.quorum)) {
      return "a primary's quorum counted a backup twice";
    }
  }
  for (uint64_t view : {c.view, m.view}) {
    for (uint8_t slot = 0; slot < kSlots; ++slot) {
      const Replica& r = m.replicas[slot];
      if (!Alive(m, slot) || !CheckRead(r.st, view, c.version).ok()) {
        continue;
      }
      std::string bad = m.history.CheckRead(r.content, m.clock + 1, m.clock + 1);
      if (!bad.empty()) {
        return "slot " + std::to_string(slot) + " serves a read at view " +
               std::to_string(view) + ": " + bad;
      }
    }
  }
  if (m.last_acked > 0) {
    bool held = false;
    for (uint8_t slot : m.members) {
      held = held || (Alive(m, slot) && m.replicas[slot].content >= m.last_acked);
    }
    if (!held) {
      return "acked write " + std::to_string(m.last_acked) + " lost: no alive member holds it";
    }
  }
  return "";
}

// All writes done, every primary write decided and no master job running;
// what is still in flight may yet be delivered or lost.
bool Quiet(const Model& m) {
  for (const PrimaryWrite& w : m.writes) {
    if (w.live) {
      return false;
    }
  }
  return m.client.seq == 0 && !m.replace.active;
}

// The master's answer to a failure in a fault-free world: replace a crashed
// member, catch up every laggard, and run the client's resync callback.
void Heal(Model& m) {
  for (uint8_t pos = 0; pos < kReplicas; ++pos) {
    if (m.replicas[m.members[pos]].crashed && StartReplacement(m, pos)) {
      m.replicas[kReplicas].content = m.replicas[m.replace.source].content;
      FinishReplacement(m);
      break;
    }
  }
  for (uint8_t slot : m.members) {
    if (Alive(m, slot)) {
      Repair(m, slot);
    }
  }
  if (m.client.awaiting_resync) {
    ResyncCallback(m);
  }
}

std::string Describe(const Msg& msg) {
  static const char* const kNames[] = {"leg",     "leg reply",     "write",
                                       "forward", "forward reply", "write reply"};
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s%s slot %u gen %u (view %llu version %llu id %llu code %d)",
                msg.duplicate ? "duplicate " : "", kNames[static_cast<int>(msg.kind)], msg.slot,
                msg.gen, static_cast<unsigned long long>(msg.view),
                static_cast<unsigned long long>(msg.version),
                static_cast<unsigned long long>(msg.write_id), static_cast<int>(msg.code));
  return buf;
}

// From a quiet end state: one more write with no drop and no new fault,
// messages in order, timers only when nothing else can move. Returns "" when
// it commits.
std::string FaultFreeWrite(Model m, bool primary_driven) {
  m.net.clear();              // lost: their deliveries are searched apart
  m.switches = kMaxAttempts;  // the retry loop is not cut short here
  m.client.max_attempts = kMaxAttempts;
  m.client.hysteresis = kHysteresis;
  Invoke(m, primary_driven);
  const uint8_t seq = m.client.seq;
  uint8_t attempt = m.client.attempt;
  std::string trace;
  for (int step = 0; step < 1000 && m.client.seq == seq; ++step) {
    std::string violation;
    if (!m.net.empty()) {
      trace += "\n      deliver " + Describe(m.net[0]);
      Deliver(m, 0, &violation);
    } else if (m.client.pending && !m.client.primary_driven && !m.client.quorum.expired()) {
      if (m.client.quorum.Expire()) {
        ClientQuorumDecided(m);
      }
    } else if (PrimaryWrite* w = [&m]() -> PrimaryWrite* {
                 for (PrimaryWrite& w : m.writes) {
                   if (w.live && !w.quorum.expired()) {
                     return &w;
                   }
                 }
                 return nullptr;
               }()) {
      if (w->quorum.Expire()) {
        PrimaryDecided(m, *w);
      }
    } else if (m.client.pending) {
      Decide(m, StatusCode::kTimedOut);
    }
    if (!violation.empty()) {
      return violation + trace;
    }
    if (m.client.seq == seq && m.client.attempt != attempt) {
      attempt = m.client.attempt;
      trace += "\n      attempt " + std::to_string(attempt) + " at version " +
               std::to_string(m.client.version) + ", the master heals";
      Heal(m);  // between attempts, the master answers the failure
    }
  }
  if (m.last_acked != seq) {
    return std::string(primary_driven ? "primary-driven" : "client-directed") +
           " fault-free write did not commit (client version " +
           std::to_string(m.client.version) + ")" + trace;
  }
  return "";
}

// ---- The search ----

class Explorer {
 public:
  uint64_t states() const { return visited_.size(); }
  uint64_t end_states() const { return end_states_; }
  const std::string& violation() const { return violation_; }

  void Run() {
    // The chunk starts with write 1 committed everywhere, so a replacement
    // can start from a nonzero version while the searched write lands.
    Model m;
    m.history.OnWriteCommit(m.history.OnWriteInvoke(m.clock), m.clock);
    m.last_invoked = m.last_acked = 1;
    m.client.next_seq = 2;
    for (uint8_t slot = 0; slot < kReplicas; ++slot) {
      m.replicas[slot] = Replica{.st = {.version = 1, .view = m.view, .last_write_id = 1},
                                 .content = 1, .applied = 1u << 1, .hosted = true};
    }
    // Open (§4.2.1): the client adopts the replicas' highest version.
    RefreshLayout(m);
    for (uint8_t slot : m.members) {
      m.client.version = AdoptVersion(m.client.version, m.replicas[slot].st.version);
    }
    m.client.committed = m.client.version;
    visited_.insert(Hash(m));
    Visit(m);
  }

 private:
  // Applies one move to a copy of `m` and explores from there.
  template <typename Move>
  void Try(const Model& m, const std::string& what, Move move) {
    if (!violation_.empty()) {
      return;
    }
    Model next = m;
    next.clock += 2;
    std::string violation;
    if (!move(next, &violation)) {
      return;  // outside the scope
    }
    Prune(next);
    path_.push_back(what);
    if (violation.empty()) {
      violation = CheckState(next);
    }
    if (!violation.empty()) {
      Fail(violation);
    } else if (visited_.insert(Hash(next)).second) {
      Visit(next);
    }
    path_.pop_back();
  }

  void Fail(const std::string& violation) {
    violation_ = violation + "\n  path:";
    for (const std::string& step : path_) {
      violation_ += "\n    " + step;
    }
  }

  void Visit(const Model& m) {
    const Client& c = m.client;
    if (Quiet(m) && c.next_seq > 1 + kWrites) {
      ++end_states_;
      for (bool primary_driven : {false, true}) {
        std::string bad = FaultFreeWrite(m, primary_driven);
        if (!bad.empty()) {
          path_.push_back("then a fault-free write");
          Fail(bad);
          path_.pop_back();
          return;
        }
      }
    }
    if (c.seq == 0 && c.next_seq <= 1 + kWrites) {
      for (bool primary_driven : {false, true}) {
        Try(m, std::string("invoke write ") + std::to_string(c.next_seq) +
                   (primary_driven ? " primary-driven" : " client-directed"),
            [primary_driven](Model& n, std::string*) {
              Invoke(n, primary_driven);
              return true;
            });
      }
    }
    for (size_t i = 0; i < m.net.size(); ++i) {
      const std::string key = m.net[i].Key();
      if (std::any_of(m.net.begin(), m.net.begin() + static_cast<std::ptrdiff_t>(i),
                      [&key](const Msg& o) { return o.Key() == key; })) {
        continue;  // an identical message earlier in the list
      }
      const std::string what = Describe(m.net[i]);
      // No drop move: a dropped message is one never delivered, and a state
      // with it still in flight has every future of the state without it.
      Try(m, "deliver " + what,
          [i](Model& n, std::string* violation) { return Deliver(n, i, violation); });
      // The network duplicates a reply: one copy lands now, the other stays
      // in flight, for any later delivery.
      const Kind kind = m.net[i].kind;
      if (m.duplicates > 0 && !m.net[i].duplicate &&
          (kind == Kind::kLegReply || kind == Kind::kForwardReply)) {
        Try(m, "deliver and duplicate " + what, [i](Model& n, std::string* violation) {
          --n.duplicates;
          Msg copy = n.net[i];
          copy.duplicate = true;
          n.net.push_back(copy);
          return Deliver(n, i, violation);
        });
      }
    }
    if (c.pending && !c.primary_driven && !c.quorum.expired()) {
      Try(m, "client commit timeout", [](Model& n, std::string*) {
        return !n.client.quorum.Expire() || ClientQuorumDecided(n);
      });
    }
    // The request timeout (800 ms) never fires before the commit timer
    // (200 ms) it was armed with.
    if (c.pending && (c.primary_driven || c.quorum.expired())) {
      Try(m, "client request timeout",
          [](Model& n, std::string*) { return Decide(n, StatusCode::kTimedOut); });
    }
    for (size_t k = 0; k < m.writes.size(); ++k) {
      if (m.writes[k].live && !m.writes[k].quorum.expired()) {
        Try(m, "primary commit timeout", [k](Model& n, std::string*) {
          PrimaryWrite& w = n.writes[k];
          if (w.quorum.Expire()) {
            PrimaryDecided(n, w);
          }
          return true;
        });
      }
    }
    if (m.crashes > 0) {
      for (uint8_t slot : m.members) {
        if (Alive(m, slot)) {
          Try(m, "crash slot " + std::to_string(slot), [slot](Model& n, std::string*) {
            --n.crashes;
            n.replicas[slot].crashed = true;
            return true;
          });
        }
      }
    }
    if (m.view_changes > 0 && !m.replace.active) {
      Try(m, "view bump", [](Model& n, std::string*) {
        --n.view_changes;
        BumpView(n);
        return true;
      });
      for (uint8_t pos = 0; pos < kReplicas; ++pos) {
        if (m.replicas[m.members[pos]].crashed) {
          Try(m, "replacement of slot " + std::to_string(m.members[pos]) + " starts",
              [pos](Model& n, std::string*) {
                --n.view_changes;
                return StartReplacement(n, pos);
              });
        }
      }
    }
    if (m.replace.active) {
      Try(m, "replacement copies its source and installs its view",
          [](Model& n, std::string*) {
            FinishReplacement(n);
            return true;
          });
    }
    if (c.awaiting_resync && !m.replace.active) {
      Try(m, "client resync after its failure report", [](Model& n, std::string*) {
        ResyncCallback(n);
        return true;
      });
    }
  }

  std::unordered_set<uint64_t> visited_;
  uint64_t end_states_ = 0;
  std::vector<std::string> path_;
  std::string violation_;
};

TEST(ReplicaProtocolExplorerTest, EveryInterleavingKeepsTheProtocolsInvariants) {
  Explorer explorer;
  explorer.Run();
  std::printf("replica protocol explorer: %llu states, %llu end states\n",
              static_cast<unsigned long long>(explorer.states()),
              static_cast<unsigned long long>(explorer.end_states()));
  EXPECT_TRUE(explorer.violation().empty()) << explorer.violation();
  EXPECT_GT(explorer.end_states(), 0u);
}

}  // namespace
}  // namespace ursa::cluster
