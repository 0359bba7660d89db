// Every replaceable operator new / delete form, counting allocations. The
// news allocate with malloc or aligned_alloc and every delete frees with
// free, so the pairs always match whichever form the compiler picks.
#include "counting_new.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> g_allocations{0};

void* Allocate(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) {
    size = 1;
  }
  if (align <= alignof(std::max_align_t)) {
    return std::malloc(size);
  }
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void* AllocateOrThrow(std::size_t size, std::size_t align) {
  if (void* p = Allocate(size, align)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

namespace ursa::test {
uint64_t HeapAllocations() { return g_allocations.load(std::memory_order_relaxed); }
}  // namespace ursa::test

constexpr std::size_t kDefault = alignof(std::max_align_t);

void* operator new(std::size_t size) { return AllocateOrThrow(size, kDefault); }
void* operator new[](std::size_t size) { return AllocateOrThrow(size, kDefault); }
void* operator new(std::size_t size, std::align_val_t al) {
  return AllocateOrThrow(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return AllocateOrThrow(size, static_cast<std::size_t>(al));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, kDefault);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, kDefault);
}
void* operator new(std::size_t size, std::align_val_t al, const std::nothrow_t&) noexcept {
  return Allocate(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al, const std::nothrow_t&) noexcept {
  return Allocate(size, static_cast<std::size_t>(al));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
