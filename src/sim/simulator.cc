#include "src/sim/simulator.h"

#include "src/common/logging.h"

namespace ursa::sim {

uint64_t Simulator::RunUntil(Nanos deadline) {
  uint64_t executed = 0;
  while (Step(deadline)) {
    ++executed;
  }
  // Advance the clock to the deadline even if the queue drained early, so
  // callers measuring rates over a window divide by the intended duration.
  if (now_ < deadline && queue_.empty()) {
    now_ = deadline;
  } else if (now_ < deadline && queue_.NextTime() > deadline) {
    now_ = deadline;
  }
  return executed;
}

uint64_t Simulator::RunToCompletion() {
  uint64_t executed = 0;
  while (Step(INT64_MAX)) {
    ++executed;
  }
  return executed;
}

}  // namespace ursa::sim
