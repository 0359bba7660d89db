#include "src/cluster/replica_protocol.h"

namespace ursa::cluster {

WriteVerdict JudgeWrite(ReplicaState& st, uint64_t view, uint64_t version, uint64_t write_id) {
  if (st.view != view) {
    return WriteVerdict::kStaleView;
  }
  if (version + 1 == st.version) {
    return write_id == 0 || write_id == st.last_write_id ? WriteVerdict::kDuplicate
                                                         : WriteVerdict::kStaleClient;
  }
  if (version != st.version) {
    return WriteVerdict::kGap;
  }
  if (write_id != 0 && write_id == st.last_write_id) {
    // The write that made this version, resent one version higher by an
    // attempt that resynced elsewhere: applying it again would count it twice.
    return WriteVerdict::kStaleClient;
  }
  st.version = version + 1;
  st.last_write_id = write_id;
  return WriteVerdict::kApply;
}

Status VerdictStatus(WriteVerdict verdict) {
  switch (verdict) {
    case WriteVerdict::kApply:
    case WriteVerdict::kDuplicate:
      return OkStatus();
    case WriteVerdict::kStaleView:
      return VersionMismatch("stale view");
    case WriteVerdict::kStaleClient:
      return VersionMismatch("stale client version; resync required");
    case WriteVerdict::kGap:
      break;
  }
  return VersionMismatch("version gap; repair required");
}

Status CheckRead(const ReplicaState& st, uint64_t view, uint64_t expected_version) {
  if (st.view != view) {
    return VersionMismatch("stale view");
  }
  if (st.version < expected_version) {
    return VersionMismatch("replica version is stale");
  }
  return OkStatus();
}

void InstallView(ReplicaState& st, uint64_t view, uint64_t version, uint64_t write_id) {
  if (view < st.view) {
    return;  // a job that started before a newer view was installed
  }
  if (version > st.version) {
    st.version = version;
    st.last_write_id = write_id;
  }
  st.view = view;
}

bool WriteQuorum::Count(int leg, bool ok) {
  const uint64_t bit = uint64_t{1} << leg;
  if (decided_ || (counted_ & bit) != 0) {
    return false;
  }
  counted_ |= bit;
  ++(ok ? successes_ : failures_);
  return Decide();
}

bool WriteQuorum::Expire() {
  expired_ = true;
  return !decided_ && Decide();
}

bool WriteQuorum::Decide() {
  // Write to all first: a majority commits only once the timeout authorized
  // it. Failure is decided as soon as the outstanding legs cannot make one.
  decided_ = successes_ == legs_ || (expired_ && successes_ >= majority()) ||
             legs_ - failures_ < majority();
  return decided_;
}

Status WriteQuorum::outcome() const {
  return successes_ >= majority() ? OkStatus() : Unavailable("replication quorum failed");
}

uint64_t ResyncVersion(const ReplicaState& st, uint64_t inflight_write_id) {
  return inflight_write_id != 0 && st.last_write_id == inflight_write_id ? st.version - 1
                                                                          : st.version;
}

uint64_t CommitVersion(uint64_t client_version, uint64_t sent_version, uint64_t replied_version) {
  return AdoptVersion(AdoptVersion(client_version, sent_version + 1), replied_version);
}

}  // namespace ursa::cluster
