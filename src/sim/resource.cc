#include "src/sim/resource.h"

#include <cstddef>
#include <utility>

#include "src/common/logging.h"

namespace ursa::sim {

Resource::Resource(Simulator* sim, std::string name, int servers)
    : sim_(sim), name_(std::move(name)), servers_(servers) {
  URSA_CHECK_GT(servers, 0);
  stats_epoch_ = sim_->Now();
}

void Resource::Submit(Nanos service_time, EventFn done) {
  URSA_CHECK_GE(service_time, 0);
  queue_.push_back(Job{service_time, std::move(done)});
  StartNext();
}

void Resource::StartNext() {
  while (busy_ < servers_ && head_ < queue_.size()) {
    Job& job = queue_[head_++];
    uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      in_service_[slot] = std::move(job.done);
    } else {
      slot = static_cast<uint32_t>(in_service_.size());
      in_service_.push_back(std::move(job.done));
    }
    ++busy_;
    busy_time_ += job.service_time;
    auto complete = [this, slot]() { FinishJob(slot); };
    static_assert(InlineFn::kFitsInline<decltype(complete)>);
    sim_->After(job.service_time, complete);
  }
  if (head_ == queue_.size()) {
    queue_.clear();
    head_ = 0;
  } else if (head_ >= 64 && head_ * 2 >= queue_.size()) {
    queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void Resource::FinishJob(uint32_t slot) {
  EventFn done = std::move(in_service_[slot]);
  free_slots_.push_back(slot);
  --busy_;
  ++completed_jobs_;
  // Start successors before running the completion so the resource never
  // idles across a completion callback that immediately resubmits.
  StartNext();
  if (done) {
    done();
  }
}

double Resource::Utilization() const {
  Nanos elapsed = sim_->Now() - stats_epoch_;
  if (elapsed <= 0) {
    return 0.0;
  }
  return static_cast<double>(busy_time_) / static_cast<double>(elapsed);
}

void Resource::ResetStats() {
  busy_time_ = 0;
  completed_jobs_ = 0;
  stats_epoch_ = sim_->Now();
}

}  // namespace ursa::sim
