#include "src/storage/hdd_model.h"

#include <cstdlib>
#include <utility>

namespace ursa::storage {

HddModel::HddModel(sim::Simulator* sim, const HddParams& params)
    : BlockDevice(sim), params_(params) {}

void HddModel::SubmitIo(IoRequest req) {
  URSA_CHECK_LE(req.offset + req.length, params_.capacity) << "I/O beyond HDD capacity";
  stats_.RecordSubmit(req);

  uint64_t offset = req.offset;
  bool background = req.background;
  if (!background) {
    last_foreground_ = sim_->Now();
  }
  (background ? background_ : pending_).emplace(offset, Pending{std::move(req), next_seq_++});
  if (!busy_) {
    Dispatch();
  }
}

Nanos HddModel::ServiceTime(const IoRequest& req) {
  uint64_t distance =
      req.offset >= head_pos_ ? req.offset - head_pos_ : head_pos_ - req.offset;
  Nanos positioning = 0;
  if (distance > params_.sequential_window) {
    double frac = static_cast<double>(distance) / static_cast<double>(params_.capacity);
    positioning = params_.min_seek +
                  static_cast<Nanos>(frac * static_cast<double>(params_.max_seek -
                                                                params_.min_seek)) +
                  params_.half_rotation;
  }
  return positioning + TransferTime(req.length, params_.media_bw);
}

void HddModel::Dispatch() {
  // Foreground first; background (replay) only when the disk has been free
  // of foreground traffic for the grace period.
  std::multimap<uint64_t, Pending>* queue = &pending_;
  if (queue->empty()) {
    if (background_.empty()) {
      busy_ = false;
      return;
    }
    Nanos since = sim_->Now() - last_foreground_;
    if (since < params_.background_idle_grace) {
      busy_ = false;
      if (!defer_scheduled_) {
        defer_scheduled_ = true;
        sim_->After(params_.background_idle_grace - since, [this]() {
          defer_scheduled_ = false;
          if (!busy_) {
            Dispatch();
          }
        });
      }
      return;
    }
    queue = &background_;
  }
  busy_ = true;

  // C-LOOK: next request at or above the head position, else wrap to lowest.
  auto it = queue->lower_bound(head_pos_);
  if (it == queue->end()) {
    it = queue->begin();
  }
  IoRequest req = std::move(it->second.req);
  bool was_foreground = queue == &pending_;
  queue->erase(it);

  // A lone small sequential write pays a partial-rotation commit penalty:
  // nothing is queued behind it to coalesce with.
  uint64_t distance =
      req.offset >= head_pos_ ? req.offset - head_pos_ : head_pos_ - req.offset;
  bool lone_small_write =
      was_foreground && req.type == IoType::kWrite && pending_.empty() &&
      req.length <= params_.lone_append_max_bytes;
  Nanos service = ServiceTime(req);
  if (lone_small_write && distance <= params_.sequential_window) {
    service += params_.lone_append_penalty;
  }
  busy_time_ += service;
  head_pos_ = req.offset + req.length;

  sim_->After(service, [this, was_foreground, done = std::move(req.done)]() mutable {
    if (was_foreground) {
      last_foreground_ = sim_->Now();
    }
    if (done) {
      done(OkStatus());
    }
    Dispatch();
  });
}

}  // namespace ursa::storage
