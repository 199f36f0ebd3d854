#include "util/recycle.hpp"

#include <cstdint>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define GCR_RECYCLE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GCR_RECYCLE_ASAN 1
#endif
#endif

#ifdef GCR_RECYCLE_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace gcr::recycle {
namespace {

constexpr std::size_t kClasses = kMaxBytes / kGrain;

void poison(void* p, std::size_t n) {
#ifdef GCR_RECYCLE_ASAN
  __asan_poison_memory_region(p, n);
#else
  (void)p, (void)n;
#endif
}

void unpoison(void* p, std::size_t n) {
#ifdef GCR_RECYCLE_ASAN
  __asan_unpoison_memory_region(p, n);
#else
  (void)p, (void)n;
#endif
}

struct Block {
  Block* next;
};

enum State : std::uint8_t { kFresh, kLive, kDrained };

/// Trivially destructible and constant-initialized, so its storage stays
/// valid for the whole life of the thread, after the drain below included.
struct Lists {
  Block* head[kClasses];
  std::uint32_t count[kClasses];
  State state;
};
constinit thread_local Lists tl_lists{};

/// Its destructor, registered on the thread's first allocation, returns
/// every parked block and turns parking off for the rest of the thread.
struct Drain {
  bool armed = false;
  ~Drain() {
    Lists& l = tl_lists;
    l.state = kDrained;
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (Block* b = l.head[c]) {
        unpoison(b, (c + 1) * kGrain);
        l.head[c] = b->next;
        ::operator delete(b);
      }
      l.count[c] = 0;
    }
  }
};
thread_local Drain tl_drain;

std::size_t class_of(std::size_t bytes) {
  return block_bytes(bytes) / kGrain - 1;
}

}  // namespace

void* allocate(std::size_t bytes) {
  if (bytes > kMaxBytes) return ::operator new(bytes);
  const std::size_t block = block_bytes(bytes);
  const std::size_t c = class_of(bytes);
  Lists& l = tl_lists;
  Block* b = l.head[c];
  if (b != nullptr) {
    unpoison(b, block);
    l.head[c] = b->next;
    --l.count[c];
  } else {
    if (l.state == kFresh) {
      l.state = kLive;
      tl_drain.armed = true;  // constructs it: the drain runs at thread exit
    }
    b = static_cast<Block*>(::operator new(block));
  }
  poison(reinterpret_cast<char*>(b) + bytes, block - bytes);
  return b;
}

void deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes > kMaxBytes) {
    ::operator delete(p);
    return;
  }
  const std::size_t block = block_bytes(bytes);
  const std::size_t c = class_of(bytes);
  Lists& l = tl_lists;
  unpoison(p, block);
  if (l.state != kLive || l.count[c] >= kClassCap) {
    ::operator delete(p);
    return;
  }
  Block* b = static_cast<Block*>(p);
  b->next = l.head[c];
  l.head[c] = b;
  ++l.count[c];
  poison(b, block);
}

std::size_t parked(std::size_t bytes) {
  return bytes > kMaxBytes ? 0 : tl_lists.count[class_of(bytes)];
}

}  // namespace gcr::recycle
