// Per-thread allocation counting for the exact allocation gates.
//
// A test binary that links alloc_counter.cpp replaces the global operator
// new and delete, and every thread counts its own allocations and
// deallocations. A count taken around a loop on one thread is exact and
// independent of core count and of what other threads (an engine's
// workers, say) allocate meanwhile.
#pragma once

#include <cstdint>

namespace mdac::test {

/// Allocations made so far by the calling thread.
std::uint64_t thread_allocations() noexcept;

/// Deallocations of non-null pointers made so far by the calling thread.
std::uint64_t thread_deallocations() noexcept;

}  // namespace mdac::test
