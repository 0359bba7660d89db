// Replica placement policy.
//
// Deterministic rotation placing each chunk's primary on an SSD-backed
// server and its backups on distinct other machines, while consecutive
// chunks (striping-group members, §3.4) land on different disks and
// machines — the invariant that "all the chunks in a striping group do not
// reside on the same disk or machine".
#ifndef URSA_CLUSTER_PLACEMENT_H_
#define URSA_CLUSTER_PLACEMENT_H_

#include <functional>
#include <vector>

#include "src/cluster/types.h"
#include "src/common/status.h"

namespace ursa::cluster {

class Placement {
 public:
  // primary_servers[m] / backup_servers[m]: server ids per machine m.
  Placement(std::vector<std::vector<ServerId>> primary_servers,
            std::vector<std::vector<ServerId>> backup_servers);

  // Chooses `replication` servers for the chunk_seq-th chunk of a disk:
  // element 0 is the primary (from the primary pool), the rest are backups
  // on machines distinct from each other and from the primary. Disk choice
  // within a machine rotates through a per-machine cursor so that chunks of
  // one striping group never share a disk (§3.4's placement invariant) —
  // consecutive chunks assigned to the same machine take successive disks.
  // `salt` decorrelates different disks' rotations (each disk starts its
  // machine rotation at a different point), so many clients writing the same
  // relative offsets do not converge on the same machines.
  // `alive`, when set, vetoes servers held down: the cursor moves past them
  // to the machine's next live disk, and a machine with none is skipped for
  // the next machine in the rotation. With every server alive the choice and
  // the cursor sequence are those of a call without `alive`.
  Result<std::vector<ServerId>> PlaceChunk(
      uint64_t chunk_seq, int replication, uint64_t salt = 0,
      const std::function<bool(ServerId)>& alive = nullptr) const;

  // A replacement server for recovery: same pool kind as `like_primary`,
  // hosted on a machine not in `exclude_machines`.
  Result<ServerId> PlaceReplacement(bool like_primary, const std::vector<MachineId>& exclude,
                                    uint64_t salt) const;

  // Machine hosting `server` (by pool registry).
  MachineId MachineOf(ServerId server) const;

  size_t num_machines() const { return primary_servers_.size(); }

 private:
  // Takes the first live server of `pool` at or after `*cursor` (mod its
  // size) and moves the cursor past it; kNoServer when none is alive.
  static ServerId TakeLive(const std::vector<ServerId>& pool, size_t* cursor,
                           const std::function<bool(ServerId)>& alive);
  static constexpr ServerId kNoServer = ~ServerId{0};

  std::vector<std::vector<ServerId>> primary_servers_;
  std::vector<std::vector<ServerId>> backup_servers_;
  // Round-robin disk cursors per machine (advanced on every placement).
  mutable std::vector<size_t> primary_cursor_;
  mutable std::vector<size_t> backup_cursor_;
};

}  // namespace ursa::cluster

#endif  // URSA_CLUSTER_PLACEMENT_H_
