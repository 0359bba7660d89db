// The discrete-event simulator driving every Ursa performance experiment.
//
// A Simulator owns the virtual clock and the event queue. Components (device
// models, NIC links, chunk servers, clients) are callback-driven state
// machines that schedule continuations via After()/At(). Unit tests run the
// same component code with an instant MemDevice, so protocol logic is
// exercised identically in tests and experiments.
#ifndef URSA_SIM_SIMULATOR_H_
#define URSA_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "src/common/units.h"
#include "src/sim/event_queue.h"

namespace ursa::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Nanos Now() const { return now_; }

  // Schedules fn (an EventFn or any `void()` closure, built in place in the
  // queue) to run `delay` from now (delay >= 0).
  template <typename F>
  EventId After(Nanos delay, F&& fn) {
    return queue_.Schedule(now_ + delay, std::forward<F>(fn));
  }

  // Schedules fn at absolute time `when` (>= Now()).
  template <typename F>
  EventId At(Nanos when, F&& fn) {
    return queue_.Schedule(when, std::forward<F>(fn));
  }

  bool Cancel(EventId id) { return queue_.Cancel(id); }

  // Runs until the queue drains or the clock passes `deadline`.
  // Returns the number of events executed.
  uint64_t RunUntil(Nanos deadline);

  // Runs until the queue is empty. Returns the number of events executed.
  uint64_t RunToCompletion();

  // Executes exactly one event if present; returns false when the queue is
  // empty or the next event is after `deadline`.
  bool Step(Nanos deadline) { return queue_.RunNext(deadline, &now_); }

  bool idle() const { return queue_.empty(); }
  size_t pending_events() const { return queue_.size(); }

 private:
  Nanos now_ = 0;
  EventQueue queue_;
};

}  // namespace ursa::sim

#endif  // URSA_SIM_SIMULATOR_H_
