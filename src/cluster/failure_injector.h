// The fleet failure model: a hazard-rate model that generates component
// failures over simulated deployment time — the generator behind the Table 1
// reproduction (HDD ≈ 70% of failures, an order of magnitude above SSD).
// Live chunk servers are crashed and restored through Cluster::CrashServer /
// RestoreServer, not here.
#ifndef URSA_CLUSTER_FAILURE_INJECTOR_H_
#define URSA_CLUSTER_FAILURE_INJECTOR_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"

namespace ursa::cluster {

enum class ComponentKind : int {
  kHdd = 0,
  kSsd = 1,
  kRam = 2,
  kPower = 3,
  kCpu = 4,
  kOther = 5,
};
inline constexpr int kNumComponentKinds = 6;

const char* ComponentKindName(ComponentKind kind);

// Annualized failure rates (failures per device-year). HDD AFR is set an
// order of magnitude above SSD, per §5.4 and the cited field studies; the
// counts per machine mirror the paper testbed (8 HDD, 2 SSD, plus one RAM
// bank, PSU, CPU pair and an "other" bucket per machine).
struct FleetModel {
  double hdd_afr = 0.0345;   // x8 per machine  -> 69.1% of failures
  double ssd_afr = 0.0080;   // x2              ->  4.0%
  double ram_afr = 0.0248;   // x1              ->  6.2%
  double power_afr = 0.0120; // x1              ->  3.0%
  double cpu_afr = 0.0104;   // x1              ->  2.6%
  double other_afr = 0.0604; // x1              -> 15.1%

  int hdds_per_machine = 8;
  int ssds_per_machine = 2;
  int ram_per_machine = 1;
  int power_per_machine = 1;
  int cpu_per_machine = 1;
  int other_per_machine = 1;
};

struct FleetFailureCounts {
  std::array<uint64_t, kNumComponentKinds> counts{};
  uint64_t total() const {
    uint64_t t = 0;
    for (uint64_t c : counts) {
      t += c;
    }
    return t;
  }
  double Ratio(ComponentKind kind) const {
    uint64_t t = total();
    return t == 0 ? 0.0 : static_cast<double>(counts[static_cast<int>(kind)]) /
                              static_cast<double>(t);
  }
};

// Simulates `machines` machines for `years` of deployment; each component
// fails as a Poisson process at its AFR. Returns per-kind failure counts.
FleetFailureCounts SimulateFleetFailures(const FleetModel& model, int machines, double years,
                                         Rng* rng);

}  // namespace ursa::cluster

#endif  // URSA_CLUSTER_FAILURE_INJECTOR_H_
