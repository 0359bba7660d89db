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

void Resource::Start(uint32_t job) {
  ++busy_;
  Nanos service_time = jobs_[job].service_time;
  busy_time_ += service_time;
  auto complete = [this, job]() { FinishJob(job); };
  static_assert(InlineFn::kFitsInline<decltype(complete)>);
  sim_->After(service_time, complete);
}

void Resource::StartNext() {
  while (busy_ < servers_ && head_ < queue_.size()) {
    Start(queue_[head_++]);
  }
  if (head_ == queue_.size()) {
    queue_.clear();
    head_ = 0;
  } else if (head_ >= 64 && head_ * 2 >= queue_.size()) {
    queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void Resource::FinishJob(uint32_t job) {
  --busy_;
  ++completed_jobs_;
  // Start successors before running the completion so the resource never
  // idles across a completion callback that immediately resubmits. The
  // record stays acquired while its callback runs, so jobs the callback
  // submits take other records.
  StartNext();
  Job& j = jobs_[job];
  if (j.done) {
    j.done();
    j.done = nullptr;
  }
  jobs_.Release(job);
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
