// Thread-local block recycler for the simulator's short-lived hot-path
// objects: coroutine frames (sim::Co promises, the engine's root task) and
// boxed in-flight wire messages (DESIGN.md §2.3).
//
// Requests up to kMaxBytes are rounded up to a 16-byte size class. A freed
// block is parked on its class's intrusive free list (the link lives in the
// block itself, so parking never allocates) and handed out again by the next
// request of that class; each class parks at most kClassCap blocks and
// returns the excess to ::operator delete, so a one-off burst cannot pin its
// high-water mark. Larger requests go straight to ::operator new.
//
// The lists are per thread and take no lock: a simulation runs whole on one
// thread (campaign jobs included). A block may be freed on another thread
// than the one that allocated it; it then parks there. At thread exit the
// lists are drained, and every later free on that thread (static or
// thread-local destructors that still own frames) goes to ::operator
// delete. Under ASan, parked blocks and the rounding slack of live blocks
// are poisoned, so a use after free reads as one.
#pragma once

#include <cstddef>

namespace gcr::recycle {

inline constexpr std::size_t kGrain = 16;
inline constexpr std::size_t kMaxBytes = 2048;
/// Blocks parked per size class per thread.
inline constexpr std::size_t kClassCap = 256;

/// A block of at least `bytes` bytes, aligned for any fundamental type.
void* allocate(std::size_t bytes);
/// Frees a block from allocate(); `bytes` must be the size it was asked for.
void deallocate(void* p, std::size_t bytes) noexcept;

/// The block size a request of `bytes` gets (itself above kMaxBytes).
constexpr std::size_t block_bytes(std::size_t bytes) {
  return bytes > kMaxBytes ? bytes
         : bytes == 0      ? kGrain
                           : (bytes + kGrain - 1) / kGrain * kGrain;
}

/// Blocks of `bytes`' class parked on the calling thread (tests).
std::size_t parked(std::size_t bytes);

/// Mixin: `new T` / `delete` of a derived type go through the recycler.
/// Coroutine promises inherit it, which routes their frames here too.
struct Recycled {
  static void* operator new(std::size_t bytes) { return allocate(bytes); }
  static void operator delete(void* p, std::size_t bytes) noexcept {
    deallocate(p, bytes);
  }
};

}  // namespace gcr::recycle
