// Pluggable client modules (§5.1).
//
// "The rich features of Ursa clients are designed as pluggable modules,
// following the decorator pattern, where all the modules implement a common
// abstract interface of read()/write()." This header defines that interface;
// VirtualDiskLayer adapts the VirtualDisk client to it, and CachingLayer /
// SnapshotLayer decorate any layer beneath them. Stacks compose freely:
//
//   SnapshotLayer -> CachingLayer -> VirtualDiskLayer -> (cluster)
#ifndef URSA_CLIENT_BLOCK_LAYER_H_
#define URSA_CLIENT_BLOCK_LAYER_H_

#include <cstdint>

#include "src/client/virtual_disk.h"

namespace ursa::client {

// The common abstract read()/write() interface all client modules implement.
class BlockLayer {
 public:
  virtual ~BlockLayer() = default;

  // Async block I/O; offsets/lengths 512-byte aligned. A read's `out` must
  // outlive `done`. A write's payload is a view of `length` bytes (null =
  // timing-only) that every layer forwards as is, so the bytes the caller
  // allocated are the bytes every replica's device keeps.
  virtual void Read(uint64_t offset, uint64_t length, void* out, storage::IoCallback done) = 0;
  virtual void Write(uint64_t offset, uint64_t length, ursa::BufferView data,
                     storage::IoCallback done) = 0;

  // Logical capacity exposed to the layer above.
  virtual uint64_t size() const = 0;
};

// Bottom adapter: forwards to the VirtualDisk portal.
class VirtualDiskLayer : public BlockLayer {
 public:
  explicit VirtualDiskLayer(VirtualDisk* disk) : disk_(disk) {}

  void Read(uint64_t offset, uint64_t length, void* out, storage::IoCallback done) override {
    disk_->Read(offset, length, out, std::move(done));
  }
  void Write(uint64_t offset, uint64_t length, ursa::BufferView data,
             storage::IoCallback done) override {
    disk_->Write(offset, length, std::move(data), std::move(done));
  }
  uint64_t size() const override { return disk_->size(); }

 private:
  VirtualDisk* disk_;
};

}  // namespace ursa::client

#endif  // URSA_CLIENT_BLOCK_LAYER_H_
