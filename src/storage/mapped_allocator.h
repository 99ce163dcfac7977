// Copyright (c) the XKeyword authors.
//
// An allocator that takes every block straight from the OS. Connection
// relations are built on pool threads at load time (engine/load_stage.cc).
// glibc gives each of those threads its own malloc arena and keeps an
// arena's freed top chunk resident below a dynamic trim threshold of up to
// 64 MiB, where malloc_trim does not reach it; later threads then inherit
// those arenas. A relation's rows, index orderings and sort scratch churn
// while it is built (growth, clustering, sorting), so they take whole
// mappings, which munmap hands back on free whichever thread built them.

#ifndef XK_STORAGE_MAPPED_ALLOCATOR_H_
#define XK_STORAGE_MAPPED_ALLOCATOR_H_

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <vector>

namespace xk::storage {

template <typename T>
struct MappedAllocator {
  using value_type = T;

  MappedAllocator() = default;
  template <typename U>
  MappedAllocator(const MappedAllocator<U>&) {}  // NOLINT: rebinding

  T* allocate(size_t n) {
    void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, size_t n) { ::munmap(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const MappedAllocator<U>&) const { return true; }
};

/// A vector whose buffers are page mappings (see above).
template <typename T>
using MappedVector = std::vector<T, MappedAllocator<T>>;

}  // namespace xk::storage

#endif  // XK_STORAGE_MAPPED_ALLOCATOR_H_
