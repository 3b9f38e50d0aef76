#include "alloc_hook.hpp"

#include <cstdlib>
#include <new>

namespace {
// Trivially constructible, so access needs no TLS guard and the hook
// works from any thread at any point of its life.
thread_local std::uint64_t t_allocs = 0;
}  // namespace

std::uint64_t dbench::thread_allocs() { return t_allocs; }

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The replacement new above allocates with std::malloc, so free() is the
// matching deallocator; GCC's mismatched-new-delete heuristic cannot see
// that pairing.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
