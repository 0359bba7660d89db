// Ref-counted payload buffers for the zero-copy data plane.
//
// A write's payload is allocated ONCE (at the edge that produces the bytes —
// the NBD session, a benchmark, a test) and then flows client → transport →
// chunk server → journal writer → device as BufferView slices that share the
// same immutable body. Every hop that used to copy into a fresh
// std::vector<uint8_t> now just bumps a refcount.
//
// A read's bytes travel back the same way: the device hands out a view of
// what it stores (a slice of the written Buffer, or one fresh Buffer when the
// range spans several), and every hop above passes that view on. Only the
// edges that take caller memory (VirtualDisk::Read, EcStripeStore::Read)
// copy a view out, once, and only for a request still live — a late or
// duplicated reply is dropped together with its view.
//
// Ownership rules (see DESIGN.md "Hot paths & memory discipline"):
//   * Buffer owns a heap block; it is mutable only until published — once a
//     BufferView of it has been handed to another component, treat the bytes
//     as immutable (re-using the block for a different payload would be a
//     data race in a real system and is a logic bug here). Device stores
//     keep owned views as their contents after the write completes, so a
//     mutation after publish would silently rewrite "on-disk" bytes.
//   * BufferView is offset/length slice + strong ref: holding the view keeps
//     the bytes alive. Closures capture views, never raw pointers. A view is
//     the only way a write's bytes travel: an edge that holds raw bytes makes
//     one Buffer of them (CopyOf, FromVector) where they enter. It is also
//     the only way a read's bytes come back: no read below those edges takes
//     a destination pointer, so nothing writes memory its caller may have
//     reused.
//   * A null view (data() == nullptr) is a timing-only payload: it carries a
//     length through the protocol but no bytes (simulated-cost writes).
//   * Each allocation memoizes the CRC32C of its 512-byte sectors
//     (BufferView::SectorSums): the first consumer that asks hashes the
//     sectors, every later one (the scrub ledger and the journal record CRC
//     on every replica) reuses the sums (DESIGN.md §8).
#ifndef URSA_COMMON_BUFFER_H_
#define URSA_COMMON_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

namespace ursa {

class BufferView;

namespace buffer_internal {

// What every owning Buffer shares besides its bytes: where they start, and
// the memo of their 512-byte sectors' CRC32C (sums[i] is valid when bit i
// of `known` is set). Allocate places it and the memo arrays in the same
// heap block as the bytes.
struct Allocation {
  const uint8_t* bytes = nullptr;
  size_t size = 0;
  uint64_t* known = nullptr;
  uint32_t* sums = nullptr;
};

}  // namespace buffer_internal

class Buffer {
 public:
  Buffer() = default;

  // Uninitialized storage — caller fills every byte before publishing views.
  // One heap block holds the reference count, the sector-sum memo and the
  // bytes.
  static Buffer Allocate(size_t n);

  static Buffer AllocateZeroed(size_t n) {
    Buffer b = Allocate(n);
    if (n > 0) {
      std::memset(b.data_, 0, n);
    }
    return b;
  }

  static Buffer CopyOf(const void* data, size_t n) {
    Buffer b = Allocate(n);
    if (n > 0) {
      std::memcpy(b.data_, data, n);
    }
    return b;
  }

  // Adopts a vector's storage without copying (the shared block keeps the
  // vector alive). For edges that already materialized bytes in a vector.
  static Buffer FromVector(std::vector<uint8_t> v);

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  explicit operator bool() const { return data_ != nullptr; }
  // Number of Buffers and views sharing these bytes (0 for an empty Buffer).
  long use_count() const { return block_.use_count(); }

  // Whole-buffer and sliced views (defined after BufferView).
  BufferView View() const;
  BufferView View(size_t offset, size_t length) const;

 private:
  friend class BufferView;
  std::shared_ptr<const buffer_internal::Allocation> block_;
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

class BufferView {
 public:
  // Null view: no bytes (timing-only payload).
  BufferView() = default;

  BufferView(const Buffer& b)  // NOLINT(google-explicit-constructor)
      : owner_(b.block_), data_(b.data_), size_(b.size_) {}

  BufferView(const Buffer& b, size_t offset, size_t length)
      : owner_(b.block_), data_(b.data_ + offset), size_(length) {}

  // Sub-slice sharing the same owner. Slicing a null view yields a null view
  // (the length travels in the protocol headers, not the view).
  BufferView Slice(size_t offset, size_t length) const {
    if (data_ == nullptr) {
      return BufferView();
    }
    BufferView v;
    v.owner_ = owner_;
    v.data_ = data_ + offset;
    v.size_ = length;
    return v;
  }

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // True when the view carries bytes (false = timing-only null view).
  explicit operator bool() const { return data_ != nullptr; }

  // The CRC32C of each 512-byte sector of the view (the last one may be
  // short), as Crc32cSectors computes them: memoized with the allocation, so
  // only the first call for a sector hashes it. Null for a null view, or
  // when the view's sectors are not the
  // allocation's: it starts off a sector boundary, or ends inside a sector
  // short of the allocation's end.
  const uint32_t* SectorSums() const;

 private:
  // Null for null views.
  std::shared_ptr<const buffer_internal::Allocation> owner_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

inline BufferView Buffer::View() const { return BufferView(*this); }
inline BufferView Buffer::View(size_t offset, size_t length) const {
  return BufferView(*this, offset, length);
}

}  // namespace ursa

#endif  // URSA_COMMON_BUFFER_H_
