// A storage machine: CPU cores, NICs (via Transport), SSDs and HDDs.
//
// Mirrors the paper's testbed node: dual 8-core Xeon (16 cores), two PCIe
// SSDs, eight 7200 RPM HDDs, two 10 GbE NICs. Chunk servers attach to disks;
// every protocol event executed on the machine charges its CPU resource so
// per-core efficiency (Fig. 7) is measurable.
#ifndef URSA_CLUSTER_MACHINE_H_
#define URSA_CLUSTER_MACHINE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/types.h"
#include "src/net/transport.h"
#include "src/sim/resource.h"
#include "src/storage/hdd_model.h"
#include "src/storage/ssd_model.h"

namespace ursa::cluster {

struct MachineConfig {
  int cores = 16;
  int ssds = 2;
  int hdds = 8;
  storage::SsdParams ssd;
  storage::HddParams hdd;
  net::NetParams net;
};

class Machine {
 public:
  Machine(sim::Simulator* sim, net::Transport* transport, MachineId id,
          const MachineConfig& config);

  MachineId id() const { return id_; }
  net::NodeId node() const { return node_; }
  const std::string& name() const { return name_; }

  sim::Resource& cpu() { return *cpu_; }
  const sim::Resource& cpu() const { return *cpu_; }

  storage::SsdModel& ssd(int i) { return *ssds_[i]; }
  storage::HddModel& hdd(int i) { return *hdds_[i]; }
  int num_ssds() const { return static_cast<int>(ssds_.size()); }
  int num_hdds() const { return static_cast<int>(hdds_.size()); }

  // Runs `fn` after charging `cost` of one CPU core (FIFO across cores).
  template <typename F>
  void RunOnCpu(Nanos cost, F&& fn) {
    cpu_->Submit(cost, std::forward<F>(fn));
  }

  // Occupies one core for `cost` without gating anything — models parallel
  // worker-thread overhead (it shows up in utilization, not latency).
  void BurnCpu(Nanos cost) {
    if (cost > 0) {
      cpu_->Submit(cost, nullptr);
    }
  }

 private:
  sim::Simulator* sim_;
  MachineId id_;
  std::string name_;
  net::NodeId node_;
  std::unique_ptr<sim::Resource> cpu_;
  std::vector<std::unique_ptr<storage::SsdModel>> ssds_;
  std::vector<std::unique_ptr<storage::HddModel>> hdds_;
};

}  // namespace ursa::cluster

#endif  // URSA_CLUSTER_MACHINE_H_
