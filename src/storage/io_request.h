// Asynchronous block-I/O request descriptor shared by all device types.
#ifndef URSA_STORAGE_IO_REQUEST_H_
#define URSA_STORAGE_IO_REQUEST_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/status.h"
#include "src/qos/service_class.h"

namespace ursa::storage {

enum class IoType { kRead, kWrite };

using IoCallback = std::function<void(const Status&)>;

// One fragment of a scatter-gather write payload. A null `data` view means
// `length` zero bytes (sector-padding tails on journal appends); otherwise
// data.size() == length. The device store shares the view for as long as the
// bytes stay on the device, so its Buffer must never be written again once
// the segment is submitted.
struct IoSegment {
  BufferView data;
  uint64_t length = 0;
};

// QoS tag riding with a request: which service class it belongs to and which
// tenant (virtual disk) issued it. Plumbed as one struct so call chains that
// forward I/O (ChunkStore, JournalWriter) stay one-parameter wide.
struct IoTag {
  qos::ServiceClass service_class = qos::ServiceClass::kAuto;
  uint64_t tenant = 0;  // virtual-disk id; 0 = system/untagged
};

// One async device operation. A write's bytes travel in as an owned view
// (`data`, or `scatter`); a read's come back as one (`out_view`). Either side
// may be empty: performance experiments often model timing only, while
// correctness tests carry real bytes.
struct IoRequest {
  IoType type = IoType::kRead;
  uint64_t offset = 0;
  uint64_t length = 0;
  // Background work (journal replay) yields to client-facing I/O: the HDD
  // elevator serves background requests only when no foreground request is
  // queued (§5.3's single-threaded per-disk scheduling).
  bool background = false;
  IoCallback done;
  // QoS classification; kAuto derives from `type` + `background`.
  IoTag tag = {};
  // The contiguous write payload: `length` bytes, or a null view for a
  // timing-only write. The strong reference keeps the bytes alive while a
  // device parks the request (a stuck-fault device may hold it
  // indefinitely), and the device store then shares the view — so the
  // Buffer behind it must never be written again once submitted.
  BufferView data = {};
  // Scatter-gather write payload. When non-empty the on-device bytes are the
  // concatenation of the segments (lengths must sum to `length`) and `data`
  // is ignored; devices treat the request as one contiguous write for
  // timing. Null-data segments write zeros (they really overwrite — ring
  // journals reuse space, so stale bytes must not survive under the padding).
  std::vector<IoSegment> scatter = {};
  // A read's bytes: when set, Submit stores the range here as an owned view
  // — a slice of the device's stored bytes when one extent covers the range,
  // else a fresh Buffer (see PageStore::ReadView). Null: a timing-only read.
  // The slot belongs to the caller and must outlive `done`; nothing writes
  // the caller's memory, so a reader that gives up on a request drops the
  // view it was handed instead of guarding a destination buffer.
  BufferView* out_view = nullptr;
};

// Effective service class of a request: the explicit tag, or for kAuto the
// class implied by direction and background priority.
inline qos::ServiceClass EffectiveClass(const IoRequest& req) {
  if (req.tag.service_class != qos::ServiceClass::kAuto) {
    return req.tag.service_class;
  }
  if (req.background) {
    return qos::ServiceClass::kJournalReplay;
  }
  return req.type == IoType::kRead ? qos::ServiceClass::kForegroundRead
                                   : qos::ServiceClass::kForegroundWrite;
}

// Per-device counters. Latency is measured submit -> completion.
struct DeviceStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;

  void RecordSubmit(const IoRequest& req) {
    if (req.type == IoType::kRead) {
      ++reads;
      bytes_read += req.length;
    } else {
      ++writes;
      bytes_written += req.length;
    }
  }
};

}  // namespace ursa::storage

#endif  // URSA_STORAGE_IO_REQUEST_H_
