// FIFO multi-server resource with utilization accounting.
//
// Models contended capacity: a machine's CPU (`servers` = cores), a NIC
// direction (`servers` = 1, service time = serialization delay), or an SSD
// channel group. Jobs acquire a server for a fixed service time and run a
// completion callback when done. Utilization feeds the Fig. 7 efficiency
// numbers (IOPS per core = throughput / busy-cores).
//
// Submit and completion allocate nothing once warmed: a job's callback is
// built in a pooled record at Submit and runs there at completion, so it is
// never relocated in between; the waiting FIFO holds record indices, and the
// completion event captures only (this, index). A job submitted to an idle
// server starts at once without touching the FIFO.
#ifndef URSA_SIM_RESOURCE_H_
#define URSA_SIM_RESOURCE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/slot_pool.h"
#include "src/common/units.h"
#include "src/sim/simulator.h"

namespace ursa::sim {

class Resource {
 public:
  Resource(Simulator* sim, std::string name, int servers);

  // Enqueues a job needing `service_time` of one server; `done` (an EventFn,
  // any `void()` closure, or nullptr) runs at completion. FIFO across all
  // servers.
  template <typename F>
  void Submit(Nanos service_time, F&& done) {
    URSA_CHECK_GE(service_time, 0);
    uint32_t job = jobs_.Acquire();
    Job& j = jobs_[job];
    j.service_time = service_time;
    j.done.Emplace(std::forward<F>(done));
    if (busy_ < servers_ && head_ == queue_.size()) {
      Start(job);
    } else {
      queue_.push_back(job);
      StartNext();
    }
  }

  int servers() const { return servers_; }
  int busy() const { return busy_; }
  size_t queue_depth() const { return queue_.size() - head_; }
  const std::string& name() const { return name_; }

  // Total busy server-time accumulated since construction (or ResetStats).
  Nanos busy_time() const { return busy_time_; }
  uint64_t completed_jobs() const { return completed_jobs_; }

  // Mean number of busy servers over [reset, now].
  double Utilization() const;

  void ResetStats();

 private:
  struct Job {
    Nanos service_time;
    EventFn done;
  };

  void Start(uint32_t job);
  void StartNext();
  void FinishJob(uint32_t job);

  Simulator* sim_;
  std::string name_;
  int servers_;
  int busy_ = 0;
  // Waiting and in-service jobs.
  SlotPool<Job> jobs_;
  // FIFO of waiting jobs: queue_[head_, size) are pending; the consumed
  // prefix is dropped once it dominates.
  std::vector<uint32_t> queue_;
  size_t head_ = 0;
  Nanos busy_time_ = 0;
  uint64_t completed_jobs_ = 0;
  Nanos stats_epoch_ = 0;
};

}  // namespace ursa::sim

#endif  // URSA_SIM_RESOURCE_H_
