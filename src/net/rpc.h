// Reply counting for replicated writes (§4.1). Exactly-once completion of a
// request (the first of reply or timeout wins) is the sender's job: the
// client keeps it in generation-tagged pooled records (DESIGN.md §8).
#ifndef URSA_NET_RPC_H_
#define URSA_NET_RPC_H_

#include <functional>
#include <utility>

#include "src/common/status.h"

namespace ursa::net {

// Counts replies toward quorum/all-success decisions (§4.1 step 6):
// commits when all `total` replies succeed, or — after `Arm()`ed timeout —
// when at least `majority` have succeeded. Reports failure when success can
// no longer be reached. Without a `decision` callback the owner polls
// decided() after each Record*/TimeoutExpired call and reads outcome().
class QuorumTracker {
 public:
  using Decision = std::function<void(const Status&, int successes, int failures)>;

  QuorumTracker(int total, int majority, Decision decision = nullptr)
      : total_(total), majority_(majority), decision_(std::move(decision)) {}

  void RecordSuccess() {
    ++successes_;
    Evaluate(false);
  }
  void RecordFailure() {
    ++failures_;
    Evaluate(false);
  }
  // Invoked when the commit timeout expires: majority suffices from now on.
  void TimeoutExpired() {
    timed_out_ = true;
    Evaluate(true);
  }

  bool decided() const { return decided_; }
  const Status& outcome() const { return outcome_; }
  int successes() const { return successes_; }
  int failures() const { return failures_; }

 private:
  void Evaluate(bool /*from_timeout*/) {
    if (decided_) {
      return;
    }
    if (successes_ == total_ || (timed_out_ && successes_ >= majority_)) {
      Decide(OkStatus());
    } else if (total_ - failures_ < majority_) {
      // Even if every outstanding reply succeeds, majority is unreachable.
      Decide(Unavailable("replication quorum failed"));
    }
    // Otherwise wait: either more replies arrive, or the commit timeout
    // authorizes a majority commit (write-to-all first, §4.1).
  }

  void Decide(Status outcome) {
    decided_ = true;
    outcome_ = std::move(outcome);
    if (decision_) {
      decision_(outcome_, successes_, failures_);
    }
  }

  int total_;
  int majority_;
  Decision decision_;
  int successes_ = 0;
  int failures_ = 0;
  bool timed_out_ = false;
  bool decided_ = false;
  Status outcome_;
};

}  // namespace ursa::net

#endif  // URSA_NET_RPC_H_
