#include "support/alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace {
// Trivially constructible, so access needs no TLS guard.
thread_local std::uint64_t t_allocs = 0;
thread_local std::uint64_t t_frees = 0;

void counted_free(void* p) noexcept {
  if (p != nullptr) ++t_frees;
  std::free(p);
}
}  // namespace

std::uint64_t mdac::test::thread_allocations() noexcept { return t_allocs; }
std::uint64_t mdac::test::thread_deallocations() noexcept { return t_frees; }

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

// The replacements above allocate with std::malloc, so free() is the
// matching deallocator; GCC's mismatched-new-delete heuristic cannot see
// that pairing.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }
#pragma GCC diagnostic pop
