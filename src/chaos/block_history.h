// Per-block linearizability checking (the paper's Appendix A).
//
// The paper proves: "if a write request to a chunk is committed at time t1,
// then any following read request to that chunk issued at time t2 > t1 will
// see the committed (or newer) data." With a single writer per disk (§4.1),
// writes to one block are totally ordered by issue order, so a history is
// per-block linearizable iff every read of a block returns a write sequence
// number v with
//
//   v >= any write to that block whose COMMIT preceded the read's INVOCATION
//   v <= any write to that block whose INVOCATION preceded the read's RESPONSE
//
// Failed writes stay uncommitted: they never raise the lower bound but may
// legally be visible (the client gave up; a replica may still have applied
// them), which the upper bound already allows.
#ifndef URSA_CHAOS_BLOCK_HISTORY_H_
#define URSA_CHAOS_BLOCK_HISTORY_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/units.h"

namespace ursa::chaos {

// One block's single-writer history and the checker for reads of it.
class BlockHistory {
 public:
  // Returns the sequence number to embed in the write's payload.
  uint32_t OnWriteInvoke(Nanos now) {
    writes_.push_back(WriteRecord{next_seq_, now, -1});
    return next_seq_++;
  }
  void OnWriteCommit(uint32_t seq, Nanos now) {
    for (auto& w : writes_) {
      if (w.seq == seq) {
        w.commit = now;
      }
    }
  }

  // Checks a read that returned `seq` (0 = never written). Returns "" when
  // the read is linearizable, else a description.
  std::string CheckRead(uint32_t seq, Nanos invoke, Nanos response) const {
    uint32_t min_seq = 0;
    uint32_t max_seq = 0;
    for (const auto& w : writes_) {
      if (w.commit >= 0 && w.commit < invoke) {
        min_seq = std::max(min_seq, w.seq);
      }
      if (w.invoke < response) {
        max_seq = std::max(max_seq, w.seq);
      }
    }
    if (seq < min_seq) {
      return "STALE read: returned seq " + std::to_string(seq) + " but write " +
             std::to_string(min_seq) + " committed before the read was invoked";
    }
    if (seq > max_seq) {
      return "FUTURE read: returned seq " + std::to_string(seq) + " but only " +
             std::to_string(max_seq) + " writes were invoked before the read responded";
    }
    return "";
  }

 private:
  struct WriteRecord {
    uint32_t seq;
    Nanos invoke;
    Nanos commit;  // -1 until committed
  };
  uint32_t next_seq_ = 1;
  std::vector<WriteRecord> writes_;
};

}  // namespace ursa::chaos

#endif  // URSA_CHAOS_BLOCK_HISTORY_H_
