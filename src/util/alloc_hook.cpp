// The counting allocator: replacement global operator new/delete that
// increment the per-thread counter in util/alloc_stats.hpp.
//
// Built as the `dv_alloc_hook` OBJECT library so that linking it pulls
// these replacements in unconditionally (archive semantics would silently
// drop them unless some symbol here were referenced).  The static
// initializer below is what flips alloc_hook_linked() to true.
#include <cstdlib>
#include <new>

#include "util/alloc_stats.hpp"

namespace {

[[maybe_unused]] const bool g_hook_marker = [] {
  dynvote::alloc_detail::mark_hook_linked();
  return true;
}();

/// Counted malloc; nullptr when memory is exhausted.
void* counted_alloc_or_null(std::size_t size) noexcept {
  dynvote::alloc_detail::count_allocation();
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc_or_null(std::size_t size,
                                    std::size_t align) noexcept {
  dynvote::alloc_detail::count_allocation();
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size == 0 ? 1 : size) != 0) return nullptr;
  return p;
}

void* counted_alloc(std::size_t size) {
  void* p = counted_alloc_or_null(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  void* p = counted_aligned_alloc_or_null(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every allocating form is replaced, the nothrow ones included: a sanitizer
// runtime supplies its own nothrow forms, whose blocks the free()-based
// deletes below would release with an alloc/dealloc mismatch.  Placement
// forms allocate nothing.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_or_null(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_or_null(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc_or_null(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc_or_null(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
