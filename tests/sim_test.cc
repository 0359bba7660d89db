// Unit tests for the discrete-event simulator core.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"

namespace ursa::sim {
namespace {

// A RunNext deadline no event is past.
constexpr Nanos kAnyTime = INT64_MAX;

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(30, [&]() { fired.push_back(3); });
  q.Schedule(10, [&]() { fired.push_back(1); });
  q.Schedule(20, [&]() { fired.push_back(2); });
  while (!q.empty()) {
    Nanos when = 0;
    q.RunNext(kAnyTime, &when);
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoAtEqualTimes) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(100, [&fired, i]() { fired.push_back(i); });
  }
  while (!q.empty()) {
    Nanos when = 0;
    q.RunNext(kAnyTime, &when);
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  EventId id = q.Schedule(10, [&]() { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // second cancel is a no-op
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(10, [&]() { fired.push_back(1); });
  EventId id = q.Schedule(20, [&]() { fired.push_back(2); });
  q.Schedule(30, [&]() { fired.push_back(3); });
  q.Cancel(id);
  while (!q.empty()) {
    Nanos when = 0;
    q.RunNext(kAnyTime, &when);
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, SlotReuseDoesNotAliasIds) {
  // After a cancel frees a slot, a new event reuses it with a bumped
  // generation: the stale id must not cancel (or fire as) the new event.
  EventQueue q;
  bool old_fired = false;
  bool new_fired = false;
  EventId stale = q.Schedule(10, [&]() { old_fired = true; });
  EXPECT_TRUE(q.Cancel(stale));
  EventId fresh = q.Schedule(10, [&]() { new_fired = true; });
  EXPECT_FALSE(q.Cancel(stale));  // stale generation: must miss
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) {
    Nanos when = 0;
    q.RunNext(kAnyTime, &when);
  }
  EXPECT_FALSE(old_fired);
  EXPECT_TRUE(new_fired);
  EXPECT_FALSE(q.Cancel(fresh));  // already fired
}

TEST(EventQueueTest, CancelRescheduleStress) {
  // Deterministic stress over the tombstone path: random interleaving of
  // schedules, cancels, and pops, checked against a reference model keyed by
  // a unique payload per event.
  EventQueue q;
  uint64_t state = 0x853C49E6748FEA9Bull;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  std::map<uint64_t, EventId> live;   // payload -> id
  std::set<uint64_t> fired;           // payloads observed firing
  std::set<uint64_t> expected_fired;  // payloads never cancelled
  std::vector<uint64_t> results;
  uint64_t payload_gen = 0;

  for (int step = 0; step < 20000; ++step) {
    uint64_t r = next() % 100;
    if (r < 55 || live.empty()) {
      uint64_t payload = ++payload_gen;
      Nanos when = static_cast<Nanos>(next() % 1000);
      live[payload] = q.Schedule(when, [payload, &fired]() { fired.insert(payload); });
    } else if (r < 80) {
      // Cancel a pseudo-random live event.
      auto it = live.begin();
      std::advance(it, static_cast<long>(next() % live.size()));
      EXPECT_TRUE(q.Cancel(it->second));
      EXPECT_FALSE(q.Cancel(it->second));  // double-cancel is a miss
      live.erase(it);
    } else if (!q.empty()) {
      Nanos when = 0;
      q.RunNext(kAnyTime, &when);
      // Whichever payload just fired was live (not cancelled): retire it.
      for (auto it = live.begin(); it != live.end(); ++it) {
        if (fired.count(it->first) && !expected_fired.count(it->first)) {
          expected_fired.insert(it->first);
          live.erase(it);
          break;
        }
      }
    }
    EXPECT_EQ(q.size(), live.size()) << "step " << step;
  }
  // Drain: everything still live fires exactly once; cancelled events never do.
  while (!q.empty()) {
    Nanos when = 0;
    q.RunNext(kAnyTime, &when);
  }
  for (const auto& [payload, id] : live) {
    EXPECT_TRUE(fired.count(payload)) << "live event " << payload << " lost";
  }
  EXPECT_EQ(fired.size(), expected_fired.size() + live.size());
}

TEST(EventQueueTest, CancelledTimeoutsDoNotAccumulate) {
  // The RPC pattern: every request arms a timeout far beyond anything else in
  // the queue and cancels it on reply, so cancelled entries would never reach
  // the heap head. Fire order must still follow the (when, seq) reference,
  // and the heap must stay within 2 * live + slack entries throughout.
  EventQueue q;
  uint64_t state = 0x2545F4914F6CDD1Dull;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  struct Pending {
    EventId id;
    Nanos when;
    uint64_t seq;
  };
  std::map<uint64_t, Pending> live;             // payload -> event
  std::set<std::pair<Nanos, uint64_t>> order;  // (when, seq) of live events
  std::map<uint64_t, uint64_t> payload_of_seq;
  std::vector<uint64_t> timeouts;               // payloads of armed timeouts
  uint64_t seq = 0;
  uint64_t fired_payload = 0;
  Nanos now = 0;

  auto schedule = [&](Nanos when) {
    uint64_t payload = seq;
    EventId id = q.Schedule(when, [payload, &fired_payload]() { fired_payload = payload; });
    live[payload] = Pending{id, when, seq};
    order.insert({when, seq});
    payload_of_seq[seq] = payload;
    ++seq;
    return payload;
  };
  for (int step = 0; step < 60000; ++step) {
    uint64_t r = next() % 100;
    if (r < 40) {
      // A request: a short completion plus a long-lived timeout.
      schedule(now + static_cast<Nanos>(next() % 50));
      timeouts.push_back(schedule(now + 800'000'000 + static_cast<Nanos>(next() % 1000)));
    } else if (r < 75 && !timeouts.empty()) {
      // A reply: cancel a pseudo-random armed timeout (mostly recent ones).
      size_t back = std::min<size_t>(timeouts.size() - 1, next() % 8);
      size_t idx = timeouts.size() - 1 - back;
      uint64_t payload = timeouts[idx];
      timeouts.erase(timeouts.begin() + static_cast<long>(idx));
      auto it = live.find(payload);
      if (it != live.end()) {
        EXPECT_TRUE(q.Cancel(it->second.id));
        order.erase({it->second.when, it->second.seq});
        live.erase(it);
      }
    } else if (!q.empty() && order.begin()->first < now + 1000) {
      // Fire the head; it must be the (when, seq) minimum of the reference.
      Nanos when = 0;
      q.RunNext(kAnyTime, &when);
      auto head = *order.begin();
      ASSERT_EQ(when, head.first);
      ASSERT_EQ(fired_payload, payload_of_seq[head.second]) << "step " << step;
      order.erase(order.begin());
      live.erase(fired_payload);
      now = when;
    } else {
      now += 10;
    }
    ASSERT_EQ(q.size(), live.size());
    ASSERT_LE(q.heap_entries(), 2 * q.size() + EventQueue::kCompactSlack) << "step " << step;
  }
  while (!q.empty()) {
    Nanos when = 0;
    q.RunNext(kAnyTime, &when);
    auto head = *order.begin();
    ASSERT_EQ(when, head.first);
    ASSERT_EQ(fired_payload, payload_of_seq[head.second]);
    order.erase(order.begin());
  }
  EXPECT_TRUE(order.empty());
}

TEST(SimulatorTest, ClockAdvances) {
  Simulator sim;
  Nanos seen = -1;
  sim.After(usec(5), [&]() { seen = sim.Now(); });
  sim.RunToCompletion();
  EXPECT_EQ(seen, usec(5));
  EXPECT_EQ(sim.Now(), usec(5));
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 10) {
      sim.After(100, recurse);
    }
  };
  sim.After(0, recurse);
  sim.RunToCompletion();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.Now(), 900);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.After(i * 100, [&]() { ++fired; });
  }
  sim.RunUntil(500);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.Now(), 500);
  sim.RunToCompletion();
  EXPECT_EQ(fired, 10);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.RunUntil(msec(5));
  EXPECT_EQ(sim.Now(), msec(5));
}

TEST(ResourceTest, SerializesOnSingleServer) {
  Simulator sim;
  Resource r(&sim, "disk", 1);
  std::vector<Nanos> completions;
  for (int i = 0; i < 3; ++i) {
    r.Submit(100, [&]() { completions.push_back(sim.Now()); });
  }
  sim.RunToCompletion();
  EXPECT_EQ(completions, (std::vector<Nanos>{100, 200, 300}));
}

TEST(ResourceTest, ParallelServers) {
  Simulator sim;
  Resource r(&sim, "cpu", 4);
  std::vector<Nanos> completions;
  for (int i = 0; i < 4; ++i) {
    r.Submit(100, [&]() { completions.push_back(sim.Now()); });
  }
  sim.RunToCompletion();
  EXPECT_EQ(completions, (std::vector<Nanos>(4, 100)));
}

TEST(ResourceTest, UtilizationAccounting) {
  Simulator sim;
  Resource r(&sim, "cpu", 2);
  r.Submit(usec(100), nullptr);
  r.Submit(usec(100), nullptr);
  sim.RunToCompletion();
  // Both servers busy for the whole 100 us window: utilization = 2.0 cores.
  EXPECT_EQ(r.busy_time(), 2 * usec(100));
  EXPECT_NEAR(r.Utilization(), 2.0, 1e-9);
  EXPECT_EQ(r.completed_jobs(), 2u);
}

TEST(ResourceTest, FifoOrder) {
  Simulator sim;
  Resource r(&sim, "q", 1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    r.Submit(10, [&order, i]() { order.push_back(i); });
  }
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ResourceTest, ResubmitFromCompletionContinues) {
  Simulator sim;
  Resource r(&sim, "loop", 1);
  int count = 0;
  std::function<void()> again = [&]() {
    if (++count < 5) {
      r.Submit(10, again);
    }
  };
  r.Submit(10, again);
  sim.RunToCompletion();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.Now(), 50);
}

}  // namespace
}  // namespace ursa::sim
