// Transparent-huge-page backing for the arrays that grow with the graph.
//
// At paper-range n the walk kernel is a random pointer chase over the CSR
// and the per-slot walk state (gigabytes at n = 7e6), so on 4 KiB pages
// nearly every step pays a TLB miss on top of its DRAM miss. A Linux
// kernel in THP mode `madvise` backs an anonymous range with 2 MiB pages
// only when the range was advised MADV_HUGEPAGE; HugePageAllocator gives
// that advice for every block of at least 2 MiB, before the container
// first touches it.
//
// The memory itself still comes from ::operator new, so pointers, RSS
// accounting and allocation reuse are malloc's usual ones; only the
// 2 MiB-aligned interior of a large block is advised (the kernel can back
// nothing else with a huge page). madvise errors are ignored: under THP
// mode `never` (or on a kernel without THP) the arrays simply stay on
// 4 KiB pages, and under `always` the advice is redundant. Blocks under
// 2 MiB are never advised. There is no switch: the page size is the only
// threshold.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace ewalk {

/// The transparent huge page size (x86-64 and arm64 with 4 KiB base pages).
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Number of blocks HugePageAllocator has advised MADV_HUGEPAGE in this
/// process (monotone, thread-safe); tests use it to pin the 2 MiB rule.
inline std::atomic<std::uint64_t>& huge_page_advice_counter() noexcept {
  static std::atomic<std::uint64_t> advised{0};
  return advised;
}

/// Advises MADV_HUGEPAGE on the 2 MiB-aligned interior of [p, p + bytes)
/// when that interior is non-empty. Blocks under 2 MiB are left alone.
inline void advise_huge_pages(void* p, std::size_t bytes) noexcept {
  if (bytes < kHugePageBytes) return;
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t first = (begin + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  const std::uintptr_t last = (begin + bytes) & ~(kHugePageBytes - 1);
  if (first >= last) return;
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  (void)madvise(reinterpret_cast<void*>(first), last - first, MADV_HUGEPAGE);
#endif
  huge_page_advice_counter().fetch_add(1, std::memory_order_relaxed);
}

/// Stateless std::allocator replacement: ::operator new / ::operator delete,
/// plus advise_huge_pages on every block of at least 2 MiB.
template <typename T>
class HugePageAllocator {
 public:
  using value_type = T;

  HugePageAllocator() noexcept = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_array_new_length();
    const std::size_t bytes = n * sizeof(T);
    void* p = ::operator new(bytes);
    advise_huge_pages(p, bytes);
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept { ::operator delete(p); }

  template <typename U>
  bool operator==(const HugePageAllocator<U>&) const noexcept {
    return true;
  }
};

/// A std::vector whose storage is huge-page backed once it reaches 2 MiB:
/// the container for every O(n)/O(m) graph, generation and walk-state array.
template <typename T>
using LargeVector = std::vector<T, HugePageAllocator<T>>;

}  // namespace ewalk
