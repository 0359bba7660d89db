// Heat-driven tier migration policy (DESIGN.md §13).
//
// The migrator drives the hot<->cold state machine:
//
//   replicated --[heat < demote_max_heat, last write older than cold_age,
//                 no write in flight]--> EC (k+m stripe)
//   EC --[decayed heat >= promote_heat]--> replicated
//
// Scans are HEAT-INDEXED, not population scans: candidates live in two
// incremental indexes seeded once from the list_chunks hook and re-keyed by
// tier-change and heat-touch notifications afterwards.
//
//   * Demote side: a min-heap of (predicted-eligible-at, chunk, seq) keys.
//     The prediction folds in the write cold-age AND the time for the
//     chunk's lazily-decayed heat to fall below the threshold, so a key
//     never pops early; touches make predictions stale, which the pop
//     re-checks authoritatively against the tracker and re-keys (lazy
//     deletion via per-chunk seq numbers — the heap is never searched).
//   * Promote side: a dirty set of EC chunks touched since last examined.
//     Untouched cold chunks can never cross the promote threshold (heat
//     only decays), so they are never looked at.
//
// A scan therefore costs O(due keys + touched EC chunks), not O(chunks).
//
// The actual data movement lives behind the demote/promote hooks (the
// master's DemoteChunkToEc / PromoteChunk); the migrator only decides WHAT
// migrates and bounds HOW MANY migrations run concurrently. QoS classing
// happens inside the hooks (every migration's I/O runs under kScrub in the
// device schedulers), so a migration wave yields to foreground I/O and
// failure recovery.
//
// Write-triggered promotion does NOT pass through here: a client write to
// an EC'd chunk promotes through the master before the ack (speculatively
// when enabled, DESIGN.md §13.6).
#ifndef URSA_TIER_TIER_MIGRATOR_H_
#define URSA_TIER_TIER_MIGRATOR_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/obs/metrics_registry.h"
#include "src/sim/simulator.h"
#include "src/tier/heat_tracker.h"
#include "src/tier/tier_config.h"

namespace ursa::tier {

// One candidate chunk as seen by a scan.
struct TierChunkView {
  uint64_t chunk = 0;
  bool ec = false;  // currently on the EC tier
};

// Cluster-facing hooks. `done(true)` on success; failures (precondition
// races, unavailable servers) are counted and retried on a later scan.
struct TierHooks {
  std::function<std::vector<TierChunkView>()> list_chunks;
  std::function<void(uint64_t chunk, std::function<void(bool)> done)> demote;
  std::function<void(uint64_t chunk, std::function<void(bool)> done)> promote;
};

struct TierMigratorStats {
  uint64_t scans = 0;
  uint64_t demotions = 0;
  uint64_t demote_failures = 0;
  uint64_t promotions = 0;
  uint64_t promote_failures = 0;
  // Chunks actually examined (popped or dirty) across all scans. With the
  // heat index this stays proportional to activity, not population size.
  uint64_t candidates_examined = 0;
};

class TierMigrator {
 public:
  TierMigrator(sim::Simulator* sim, const TierConfig& config, HeatTracker* heat,
               TierHooks hooks);

  void Start();
  void Stop();

  // Tier-change notification (master listener, and self-applied on hook
  // completion): re-keys `chunk` into the index matching its new tier.
  void OnTierChanged(uint64_t chunk, bool ec);

  const TierMigratorStats& stats() const { return stats_; }
  int in_flight() const { return in_flight_; }
  void RegisterMetrics(obs::MetricsRegistry* registry);

  // Runs one scan pass immediately (tests; benches forcing a wave).
  void ScanOnce();

 private:
  // Demote-heap key ordered by predicted eligibility time. `seq` implements
  // lazy deletion: only the key whose seq matches demote_seq_[chunk] is
  // live; stale keys are discarded on pop without searching the heap.
  struct DemoteKey {
    Nanos eligible_at = 0;
    uint64_t chunk = 0;
    uint64_t seq = 0;
  };
  struct DemoteKeyLater {
    bool operator()(const DemoteKey& a, const DemoteKey& b) const {
      return a.eligible_at > b.eligible_at;
    }
  };

  void Scan();
  void SeedIfNeeded();
  void PushDemote(uint64_t chunk);
  Nanos PredictDemoteEligible(uint64_t chunk) const;
  bool WantsDemote(const TierChunkView& c) const;
  bool WantsPromote(const TierChunkView& c) const;

  sim::Simulator* sim_;
  TierConfig config_;
  HeatTracker* heat_;
  TierHooks hooks_;
  bool running_ = false;
  bool seeded_ = false;
  sim::EventId next_scan_ = 0;
  int in_flight_ = 0;
  uint64_t next_seq_ = 1;
  std::priority_queue<DemoteKey, std::vector<DemoteKey>, DemoteKeyLater> demote_heap_;
  std::unordered_map<uint64_t, uint64_t> demote_seq_;  // chunk -> live seq
  std::unordered_set<uint64_t> ec_;                    // chunks on the EC tier
  std::unordered_set<uint64_t> promote_dirty_;         // EC chunks touched since examined
  TierMigratorStats stats_;
};

}  // namespace ursa::tier

#endif  // URSA_TIER_TIER_MIGRATOR_H_
