// FIFO multi-server resource with utilization accounting.
//
// Models contended capacity: a machine's CPU (`servers` = cores), a NIC
// direction (`servers` = 1, service time = serialization delay), or an SSD
// channel group. Jobs acquire a server for a fixed service time and run a
// completion callback when done. Utilization feeds the Fig. 7 efficiency
// numbers (IOPS per core = throughput / busy-cores).
//
// Submit and completion allocate nothing once warmed: waiting jobs sit in a
// vector queue, and an in-service job's callback moves to a pooled slot, so
// the completion event captures only (this, slot).
#ifndef URSA_SIM_RESOURCE_H_
#define URSA_SIM_RESOURCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/sim/simulator.h"

namespace ursa::sim {

class Resource {
 public:
  Resource(Simulator* sim, std::string name, int servers);

  // Enqueues a job needing `service_time` of one server; `done` runs at
  // completion. FIFO across all servers.
  void Submit(Nanos service_time, EventFn done);

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

  void StartNext();
  void FinishJob(uint32_t slot);

  Simulator* sim_;
  std::string name_;
  int servers_;
  int busy_ = 0;
  // FIFO of waiting jobs: queue_[head_, size) are pending; the consumed
  // prefix is dropped once it dominates.
  std::vector<Job> queue_;
  size_t head_ = 0;
  // Callbacks of in-service jobs (at most `servers_`), indexed by slot.
  std::vector<EventFn> in_service_;
  std::vector<uint32_t> free_slots_;
  Nanos busy_time_ = 0;
  uint64_t completed_jobs_ = 0;
  Nanos stats_epoch_ = 0;
};

}  // namespace ursa::sim

#endif  // URSA_SIM_RESOURCE_H_
