#include "src/cluster/placement.h"

#include "src/common/logging.h"

namespace ursa::cluster {

Placement::Placement(std::vector<std::vector<ServerId>> primary_servers,
                     std::vector<std::vector<ServerId>> backup_servers)
    : primary_servers_(std::move(primary_servers)), backup_servers_(std::move(backup_servers)) {
  URSA_CHECK_EQ(primary_servers_.size(), backup_servers_.size());
  URSA_CHECK_GT(primary_servers_.size(), 0u);
  primary_cursor_.assign(primary_servers_.size(), 0);
  backup_cursor_.assign(backup_servers_.size(), 0);
}

ServerId Placement::TakeLive(const std::vector<ServerId>& pool, size_t* cursor,
                            const std::function<bool(ServerId)>& alive) {
  for (size_t i = 0; i < pool.size(); ++i) {
    ServerId sid = pool[(*cursor + i) % pool.size()];
    if (!alive || alive(sid)) {
      *cursor += i + 1;
      return sid;
    }
  }
  return kNoServer;
}

Result<std::vector<ServerId>> Placement::PlaceChunk(
    uint64_t chunk_seq, int replication, uint64_t salt,
    const std::function<bool(ServerId)>& alive) const {
  size_t machines = primary_servers_.size();
  if (static_cast<size_t>(replication) > machines) {
    return ResourceExhausted("replication factor exceeds machine count");
  }
  std::vector<ServerId> out;
  out.reserve(replication);

  // Rotate the starting machine per chunk so consecutive chunks of a striping
  // group spread across machines; the per-machine cursor rotates through the
  // machine's disks so chunks of one group never share a disk. Machines are
  // walked in rotation order from m0, each used at most once; the first one
  // with a live primary-capable disk takes the primary, the following ones
  // with a live backup disk take the backups.
  size_t m0 = (chunk_seq + salt) % machines;
  for (size_t i = 0; i < machines && static_cast<int>(out.size()) < replication; ++i) {
    size_t m = (m0 + i) % machines;
    const bool primary = out.empty();
    const std::vector<ServerId>& pool = primary ? primary_servers_[m] : backup_servers_[m];
    if (pool.empty()) {
      return ResourceExhausted(primary ? "no primary-capable server on machine"
                                       : "no backup server on machine");
    }
    ServerId sid = TakeLive(pool, primary ? &primary_cursor_[m] : &backup_cursor_[m], alive);
    if (sid != kNoServer) {
      out.push_back(sid);
    }
  }
  if (static_cast<int>(out.size()) < replication) {
    return ResourceExhausted("too few machines with a live server");
  }
  return out;
}

Result<ServerId> Placement::PlaceReplacement(bool like_primary,
                                             const std::vector<MachineId>& exclude,
                                             uint64_t salt) const {
  size_t machines = primary_servers_.size();
  for (size_t i = 0; i < machines; ++i) {
    MachineId m = static_cast<MachineId>((salt + i) % machines);
    bool excluded = false;
    for (MachineId e : exclude) {
      if (e == m) {
        excluded = true;
        break;
      }
    }
    if (excluded) {
      continue;
    }
    const auto& pool = like_primary ? primary_servers_[m] : backup_servers_[m];
    if (!pool.empty()) {
      return pool[salt % pool.size()];
    }
  }
  // Fall back to any machine (co-location beats data loss), e.g. the paper's
  // small-testbed recovery to the SSD co-located with the failed one (§6.2).
  for (size_t i = 0; i < machines; ++i) {
    MachineId m = static_cast<MachineId>((salt + i) % machines);
    const auto& pool = like_primary ? primary_servers_[m] : backup_servers_[m];
    if (!pool.empty()) {
      return pool[(salt + 1) % pool.size()];
    }
  }
  return ResourceExhausted("no replacement server available");
}

MachineId Placement::MachineOf(ServerId server) const {
  for (size_t m = 0; m < primary_servers_.size(); ++m) {
    for (ServerId s : primary_servers_[m]) {
      if (s == server) {
        return static_cast<MachineId>(m);
      }
    }
    for (ServerId s : backup_servers_[m]) {
      if (s == server) {
        return static_cast<MachineId>(m);
      }
    }
  }
  URSA_LOG(FATAL) << "unknown server " << server;
  return 0;
}

}  // namespace ursa::cluster
