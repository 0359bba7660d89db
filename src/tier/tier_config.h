// Configuration for the two-tier placement policy (DESIGN.md §13).
#ifndef URSA_TIER_TIER_CONFIG_H_
#define URSA_TIER_TIER_CONFIG_H_

#include <cstdint>

#include "src/common/units.h"

namespace ursa::tier {

struct TierConfig {
  bool enabled = false;

  // EC geometry for the cold tier. Capacity factor drops from the
  // replication factor (3x) toward (k+m)/k when chunks demote.
  int ec_k = 4;
  int ec_m = 2;

  // Heat decay half-life: a chunk's read/write heat halves every half_life
  // of inactivity (lazy exponential decay, evaluated on access).
  Nanos heat_half_life = sec(30);

  // Migrator scan cadence.
  Nanos scan_interval = sec(5);

  // Demotion preconditions: total heat strictly below demote_max_heat AND at
  // least cold_age since the last write AND no write in flight. Heat units
  // are 4 KiB-normalized accesses (one 4 KiB I/O adds 1.0).
  double demote_max_heat = 1.0;
  Nanos cold_age = sec(30);

  // Policy promotion: an EC'd chunk whose decayed heat climbs back above
  // this is re-replicated in the background (writes promote immediately and
  // unconditionally, before the ack).
  double promote_heat = 8.0;

  // Concurrent migrations the migrator keeps in flight. Their I/O is paced
  // by each device's QoS scheduler under ServiceClass::kScrub.
  int max_concurrent = 2;

  // Speculative write-promotion (PariX-style, DESIGN.md §13.6): a write into
  // an EC chunk allocates replica targets immediately, lands the new bytes on
  // them, and acks on quorum durability while full-chunk back-fill from the
  // shards proceeds in the background. Off = the write waits for the whole
  // reconstruct-then-replicate promotion before its ack.
  bool speculative_promote = true;
};

}  // namespace ursa::tier

#endif  // URSA_TIER_TIER_CONFIG_H_
