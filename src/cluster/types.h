// Shared identifiers and protocol types for the Ursa cluster.
#ifndef URSA_CLUSTER_TYPES_H_
#define URSA_CLUSTER_TYPES_H_

#include <cstdint>
#include <vector>

#include "src/common/interval.h"
#include "src/common/units.h"
#include "src/storage/chunk_store.h"

namespace ursa::cluster {

using MachineId = uint32_t;
using ServerId = uint32_t;  // cluster-global chunk-server index
using DiskId = uint64_t;    // virtual disk id
using storage::ChunkId;

// Replica placement mode (§6: SSD-HDD-hybrid vs SSD-only vs HDD-only).
enum class StorageMode { kHybrid, kSsdOnly, kHddOnly };

// Per-request CPU service costs (one core-time slice per event). These are
// the calibrated "software overhead" scalars separating Ursa from the
// baselines in Fig. 7; see core/params.h for the derivations.
struct CpuCosts {
  Nanos client_op = usec(7);     // client-side cost per I/O request
  Nanos server_op = usec(9);     // chunk-server critical-path cost per request
  Nanos replicate_op = usec(4);  // extra cost per backup replication
  // Additional critical-path cost for WRITE execution (journaling /
  // double-write overheads of FileStore-class backends; ~0 for Ursa).
  Nanos server_write_extra = 0;
  // CPU burned per request in parallel worker threads: occupies cores (and
  // thus counts against per-core efficiency, Fig. 7) without extending the
  // request's latency. Near zero for Ursa; large for Ceph-class software.
  Nanos server_background = 0;
};

class ChunkServer;

// One replica of a chunk as seen in the cluster layout.
struct ReplicaRef {
  ServerId server = 0;
  uint32_t node = 0;       // transport NodeId of the hosting machine
  bool on_ssd = false;     // primary-capable
  // Health demotion (DESIGN.md §10): the hosting device is degraded
  // (fail-slow). Clients and the master steer primaries, failover targets,
  // and recovery sources away from demoted replicas when any alternative
  // exists; the replica still holds data and still receives replication
  // writes, so correctness never depends on this flag.
  bool demoted = false;
};

// Preference order within a replica set (DESIGN.md §10): healthy SSD,
// healthy HDD, demoted SSD, demoted HDD. Lower rank = preferred: the master
// orders layouts, picks primaries and recovery sources by it, and the client
// steers its primary by it.
inline int ReplicaRank(const ReplicaRef& r) {
  return (r.demoted ? 2 : 0) + (r.on_ssd ? 0 : 1);
}

// Placement tier of a chunk (DESIGN.md §13): hot chunks are 3-way
// replicated; cold chunks are demoted to a k+m Reed-Solomon stripe and
// promoted back to replication on write (or on renewed read heat).
enum class ChunkTier : uint8_t { kReplicated = 0, kEc = 1 };

// One shard of an EC'd chunk. Shards are full first-class chunks on their
// hosting servers (allocated, checksummed, scrubbed like replicas); the
// shard chunk id maps back to its parent through the master.
struct EcShardRef {
  ServerId server = 0;
  uint32_t node = 0;       // transport NodeId of the hosting machine
  ChunkId shard_chunk = 0;
};

// Layout of one chunk: replica set plus the view number that versioned it.
struct ChunkLayout {
  ChunkId chunk = 0;
  uint64_t view = 0;
  std::vector<ReplicaRef> replicas;  // replicas[0] is the preferred primary

  // Tiering (DESIGN.md §13). When tier == kEc, `replicas` is empty and
  // ec_shards holds k data shards (byte-contiguous: shard d covers chunk
  // bytes [d*S, (d+1)*S), S = ec_shard_size) followed by m parity shards.
  // ec_version freezes the replica version at demotion; promotion restores
  // it so client version checks stay monotonic across a round trip.
  ChunkTier tier = ChunkTier::kReplicated;
  std::vector<EcShardRef> ec_shards;
  uint16_t ec_k = 0;
  uint16_t ec_m = 0;
  uint64_t ec_shard_size = 0;
  uint64_t ec_version = 0;

  // Speculative write-promotion (DESIGN.md §13): while a cold chunk promotes,
  // the tier stays kEc but spec_replicas already holds the allocated replica
  // targets and client writes land on them directly. spec_extents is the
  // sorted, merged range map of chunk bytes the client has (re)written since
  // the promotion began — reads serve those bytes from spec_replicas and
  // everything else from the shards until back-fill commits the promotion.
  std::vector<ReplicaRef> spec_replicas;
  std::vector<Interval> spec_extents;
  bool speculating() const { return !spec_replicas.empty(); }
};

// Protocol constants (§3.2, §4.1).
inline constexpr uint64_t kTinyWriteThreshold = 8 * kKiB;    // Tc: client-directed
inline constexpr uint64_t kJournalBypassThreshold = 64 * kKiB;  // Tj
// How long a replicated write waits for every leg before a majority may
// commit it (cluster::WriteQuorum). In the normal case every replica replies
// far sooner and the timer is cancelled.
inline constexpr Nanos kMajorityCommitTimeout = msec(200);

}  // namespace ursa::cluster

#endif  // URSA_CLUSTER_TYPES_H_
