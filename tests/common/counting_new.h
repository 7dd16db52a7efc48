// Counting replacements of the global allocation functions, for the tests
// that pin how much a code path allocates.  Include this header from exactly
// one translation unit of a test binary: it defines the replaceable
// operator new/delete, and every other allocation form (array, nothrow)
// forwards to these in libstdc++; the matching deletes release with free().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace gg::counting_new {

/// Calls to operator new, and the bytes they asked for, since program start.
inline std::atomic<std::size_t> g_allocations{0};
inline std::atomic<std::size_t> g_allocated_bytes{0};

inline void* counted_alloc(std::size_t bytes, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (bytes == 0) bytes = 1;
  void* p = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    p = std::malloc(bytes);
  } else {
    p = std::aligned_alloc(alignment, (bytes + alignment - 1) / alignment * alignment);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace gg::counting_new

void* operator new(std::size_t bytes) { return gg::counting_new::counted_alloc(bytes, 0); }
void* operator new(std::size_t bytes, std::align_val_t al) {
  return gg::counting_new::counted_alloc(bytes, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
