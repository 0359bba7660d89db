// Configuration for the background scrub subsystem (DESIGN.md §11): the
// scrubber/coordinator pair that proactively verifies cold chunk data under
// ServiceClass::kScrub.
#ifndef URSA_SCRUB_SCRUB_CONFIG_H_
#define URSA_SCRUB_SCRUB_CONFIG_H_

#include <cstdint>

#include "src/common/units.h"

namespace ursa::scrub {

struct ScrubConfig {
  bool enabled = false;

  // Target period of one full sweep (every replica of every chunk verified
  // once). The coordinator paces task starts so a sweep takes roughly this
  // long; an overrunning sweep starts its successor immediately.
  Nanos sweep_interval = sec(10);

  // Coordinator scheduling cadence: how often eligible tasks are (re)started.
  Nanos tick_interval = msec(20);

  // Bytes per scrub read. Small pieces keep a single verification from
  // monopolizing the device queue; the kScrub QoS class additionally yields
  // to every foreground and recovery class.
  uint64_t read_bytes = 256 * kKiB;

  // Concurrency caps: at most one scrub task per server (a scrubber is
  // background load, never a second storm) and a cluster-wide ceiling.
  int per_server_concurrent = 1;
  int max_concurrent = 4;

  // Re-arm unverifiable sectors from scrub reads: boundary sectors of
  // unaligned writes (and timing-only ranges) have no stored checksum; when
  // a piece verifies clean, the scrubber recomputes checksums for its
  // skipped sectors from the bytes it just read, guarded by the ledger's
  // per-chunk generation so a racing write can't arm stale bytes. Coverage
  // converges to 100% within one clean sweep.
  bool rearm_unverified = true;

  // Health-aware ordering: a chunk is prioritized when any peer replica's
  // health score (windowed p99 / peer median, see obs::HealthMonitor) is at
  // or above this ratio — its siblings may soon be the last good copies.
  double peer_risk_score = 1.5;
};

}  // namespace ursa::scrub

#endif  // URSA_SCRUB_SCRUB_CONFIG_H_
