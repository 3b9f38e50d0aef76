// Per-thread allocation counting: the benchmark replaces the global
// operator new, and every thread counts its own allocations in a
// thread_local. A count taken around one call on one thread is exact and
// independent of how many cores the host has or what other threads do.
#pragma once

#include <cstdint>

namespace dbench {

/// Allocations made so far by the calling thread.
std::uint64_t thread_allocs();

}  // namespace dbench
