// The per-chunk replication protocol's rules (§4): versions and views.
//
// Every decision that reads or moves a replica's {version, view, write id},
// works out the client's version of a chunk or commits a replicated write
// lives here, so the chunk server, the client and the master apply one set
// of rules and the
// exhaustive explorer (tests/replica_protocol_explorer_test.cc) checks them
// on every interleaving. Nothing here touches the simulator, the network or
// a device: each rule is a pure function of the states it is handed.
//
// The invariant behind the rules: a replica at version v holds exactly the
// first v writes of the chunk's single writer (§4.1), so versions order
// replicas and a replica at the client's version holds every acked byte.
#ifndef URSA_CLUSTER_REPLICA_PROTOCOL_H_
#define URSA_CLUSTER_REPLICA_PROTOCOL_H_

#include <cstdint>

#include "src/common/status.h"

namespace ursa::cluster {

// One replica's state of one chunk.
struct ReplicaState {
  uint64_t version = 0;
  uint64_t view = 0;
  // Identity of the write that produced `version` (0 = unknown). Version
  // numbers alone cannot tell "a retry of the write I already executed"
  // (ack without re-applying) from "a DIFFERENT write reusing the version of
  // one that failed client-side" (must NOT be acked: its data was never
  // written).
  uint64_t last_write_id = 0;
};

// What a replica does with a versioned write (§4.2.1).
enum class WriteVerdict : uint8_t {
  kApply,        // at the replica's version under its view: apply it
  kDuplicate,    // the write that produced the replica's version, again
  kStaleView,    // sent under another view
  kStaleClient,  // a different write reusing the version of an applied one,
                 // or the applied one resent at its own new version
  kGap,          // any other version
};

// Judges a write of `version` (the version it applies on top of) and, on
// kApply, advances `st` to version + 1 under `write_id`. A zero `write_id`
// (an anonymous write) is taken for the applied one.
WriteVerdict JudgeWrite(ReplicaState& st, uint64_t view, uint64_t version, uint64_t write_id);

// The reply for a verdict: OK for kApply and kDuplicate, else a
// VersionMismatch naming the reason.
Status VerdictStatus(WriteVerdict verdict);

// A read under `view` by a client at `expected_version` may be served when
// the views match and the replica is not behind the client. A replica ahead
// is fine: the disk has a single writer, so a newer version is that client's
// own write, committed or in flight.
Status CheckRead(const ReplicaState& st, uint64_t view, uint64_t expected_version);

// A master's view install: `st` takes `view` and, when `version` is higher
// than its own, `version` and `write_id`, the identity of the write that
// made `version` on the replica the data was copied from (a replacement
// copied up to it, a laggard caught up to it; 0 when unknown, as for a
// promotion target at the frozen EC version). Writes keep committing while
// the master works, so a survivor may already be past `version`: the
// install never lowers a version. The master's jobs overlap, so a replica
// may also be past `view`: an install for an older view is stale and
// changes nothing (the repair it ends raised nothing). The write identity
// survives when the version does not change. Either way a client's retry
// of the write that made the version, after the view change, is acked as a
// duplicate instead of being taken for a different write or applied again.
void InstallView(ReplicaState& st, uint64_t view, uint64_t version = 0,
                 uint64_t write_id = 0);

// ---- The client's version of a chunk ----

// The single-writer client's version is authoritative (§4.1): it never goes
// down, and only adopts newer observations (the replicas' versions at open,
// a resync, a speculative promotion's frozen EC version).
inline uint64_t AdoptVersion(uint64_t client_version, uint64_t observed) {
  return observed > client_version ? observed : client_version;
}

// The version replica `st` offers a client resync. A version that the
// client's own in-flight write `inflight_write_id` produced is offered one
// lower: the write's retry resends its own version and id, acked as a
// duplicate where it was applied and applied where it was not. Adopting the
// higher number would apply the write a second time.
uint64_t ResyncVersion(const ReplicaState& st, uint64_t inflight_write_id);

// The client's version once a write sent at `sent_version` committed: the
// write made version sent_version + 1 (a primary-driven write also reports
// the primary's `replied_version`). A resync between attempts may already
// have adopted that number, so it is a max, never a blind increment.
uint64_t CommitVersion(uint64_t client_version, uint64_t sent_version,
                       uint64_t replied_version = 0);

// ---- Committing a write ----

// The commit rule of a replicated write (§4.1 step 6): the write goes to
// every leg and commits once all of them succeed, or, after the commit
// timeout (kMajorityCommitTimeout), once a majority (legs / 2 + 1) has. It
// fails once a majority can no longer succeed. Each leg counts once, so a
// duplicated request or ack never passes for another replica. A client-
// directed write has one leg per replica; a primary write counts its own
// device write as leg 0 and backup b as leg b + 1. The owner keeps the
// timer and calls Expire when it fires. Once decided, nothing changes.
class WriteQuorum {
 public:
  WriteQuorum() = default;
  explicit WriteQuorum(int legs) : legs_(legs) {}

  // Counts leg `leg` (< 64) unless it already counted or the write is
  // decided. True when this call decided the write.
  bool Count(int leg, bool ok);
  // The commit timeout expired: a majority suffices from now on. True when
  // this call decided the write.
  bool Expire();

  bool decided() const { return decided_; }
  bool expired() const { return expired_; }
  bool counted(int leg) const { return (counted_ >> leg & 1) != 0; }
  int successes() const { return successes_; }
  int failures() const { return failures_; }
  // Once decided: OK for a commit, Unavailable when a majority failed.
  Status outcome() const;

 private:
  bool Decide();
  int majority() const { return legs_ / 2 + 1; }

  uint64_t counted_ = 0;  // bit l: leg l counted
  int legs_ = 0;
  int successes_ = 0;
  int failures_ = 0;
  bool expired_ = false;
  bool decided_ = false;
};

// ---- Choosing a source ----

// True when a replica at `version` is a fresher source than the best so far
// at `best_version`: the version comes first (a stale source would hide
// committed writes), and `preferred` (the caller's placement preference)
// breaks a tie. Earlier candidates keep an unbroken tie.
inline bool Fresher(uint64_t version, uint64_t best_version, bool preferred) {
  return version > best_version || (version == best_version && preferred);
}

}  // namespace ursa::cluster

#endif  // URSA_CLUSTER_REPLICA_PROTOCOL_H_
