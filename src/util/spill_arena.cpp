#include "util/spill_arena.hpp"

#include <algorithm>
#include <bit>
#include <new>
#include <vector>

namespace dynvote {
namespace {

/// Size classes are powers of two from 16 bytes (room for the freelist
/// link) up to 64 KiB; anything larger bypasses the arena.  A ProcessSet
/// spill at N=256 is 4 words = 32 bytes, N=4096 is 512 bytes -- all deep
/// inside the classed range.
constexpr std::size_t kMinClassShift = 4;    // 16 B
constexpr std::size_t kMaxClassShift = 16;   // 64 KiB
constexpr std::size_t kNumClasses = kMaxClassShift - kMinClassShift + 1;
constexpr std::size_t kChunkBytes = std::size_t{256} * 1024;

struct FreeBlock {
  FreeBlock* next;
};

class ThreadArena {
 public:
  ~ThreadArena() {
    for (void* chunk : chunks_) ::operator delete(chunk);
  }

  void* allocate(std::size_t bytes) {
    const int cls = class_of(bytes);
    if (cls < 0) return ::operator new(bytes);  // oversize: pass through
    const std::size_t block = std::size_t{1} << (kMinClassShift + cls);
    if (FreeBlock* head = freelists_[cls]) {
      freelists_[cls] = head->next;
      return head;
    }
    if (bump_remaining_ < block) refill();
    void* p = bump_;
    bump_ += block;
    bump_remaining_ -= block;
    return p;
  }

  void deallocate(void* p, std::size_t bytes) noexcept {
    const int cls = class_of(bytes);
    if (cls < 0) {
      ::operator delete(p);
      return;
    }
    auto* fb = static_cast<FreeBlock*>(p);
    fb->next = freelists_[cls];
    freelists_[cls] = fb;
  }

 private:
  /// Class index for a request, or -1 for oversize.
  static int class_of(std::size_t bytes) {
    const std::size_t clamped = std::max(bytes, std::size_t{1} << kMinClassShift);
    const auto shift = static_cast<std::size_t>(std::bit_width(clamped - 1));
    if (shift > kMaxClassShift) return -1;
    return static_cast<int>(shift - kMinClassShift);
  }

  void refill() {
    void* chunk = ::operator new(kChunkBytes);
    chunks_.push_back(chunk);
    bump_ = static_cast<std::byte*>(chunk);
    bump_remaining_ = kChunkBytes;
  }

  FreeBlock* freelists_[kNumClasses] = {};
  std::byte* bump_ = nullptr;
  std::size_t bump_remaining_ = 0;
  std::vector<void*> chunks_;
};

ThreadArena& thread_arena() {
  thread_local ThreadArena arena;
  return arena;
}

}  // namespace

void* spill_arena_allocate(std::size_t bytes) {
  return thread_arena().allocate(bytes);
}

void spill_arena_deallocate(void* p, std::size_t bytes) noexcept {
  thread_arena().deallocate(p, bytes);
}

}  // namespace dynvote
