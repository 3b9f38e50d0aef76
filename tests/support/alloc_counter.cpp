#include "support/alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace {
// Trivially constructible, so access needs no TLS guard.
thread_local std::uint64_t t_allocs = 0;
}  // namespace

std::uint64_t mdac::test::thread_allocations() noexcept { return t_allocs; }

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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop
