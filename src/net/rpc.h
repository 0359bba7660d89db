// Reply counting for replicated writes (§4.1). Exactly-once completion of a
// request (the first of reply or timeout wins) is the sender's job: the
// client keeps it in generation-tagged pooled records (DESIGN.md §8).
#ifndef URSA_NET_RPC_H_
#define URSA_NET_RPC_H_

#include "src/common/status.h"

namespace ursa::net {

// Counts replies toward quorum/all-success decisions (§4.1 step 6):
// commits when all `total` replies succeed, or — after the commit timeout
// has expired — when at least `majority` have succeeded. Reports failure
// when success can no longer be reached. The owner polls decided() after
// each Record*/TimeoutExpired call and reads outcome(); once decided, the
// tallies are frozen.
class QuorumTracker {
 public:
  QuorumTracker(int total, int majority) : total_(total), majority_(majority) {}

  void RecordSuccess() {
    if (!decided_) {
      ++successes_;
      Evaluate();
    }
  }
  void RecordFailure() {
    if (!decided_) {
      ++failures_;
      Evaluate();
    }
  }
  // Invoked when the commit timeout expires: majority suffices from now on.
  void TimeoutExpired() {
    timed_out_ = true;
    Evaluate();
  }

  bool decided() const { return decided_; }
  const Status& outcome() const { return outcome_; }
  int successes() const { return successes_; }
  int failures() const { return failures_; }

 private:
  void Evaluate() {
    if (decided_) {
      return;
    }
    if (successes_ == total_ || (timed_out_ && successes_ >= majority_)) {
      decided_ = true;
    } else if (total_ - failures_ < majority_) {
      // Even if every outstanding reply succeeds, majority is unreachable.
      decided_ = true;
      outcome_ = Unavailable("replication quorum failed");
    }
    // Otherwise wait: either more replies arrive, or the commit timeout
    // authorizes a majority commit (write-to-all first, §4.1).
  }

  int total_;
  int majority_;
  int successes_ = 0;
  int failures_ = 0;
  bool timed_out_ = false;
  bool decided_ = false;
  Status outcome_;
};

}  // namespace ursa::net

#endif  // URSA_NET_RPC_H_
