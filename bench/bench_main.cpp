// The PDP/cache perf harness: runs the request-evaluation and
// decision-caching hot paths and emits BENCH_pdp.json (schema and
// comparison workflow documented in PERF.md).
//
// Unlike the google-benchmark experiments (c1..c8, fig*), this binary has
// no external dependencies, runs in seconds, and reports the three things
// the ROADMAP's perf trajectory needs per benchmark:
//   * throughput (ops/sec) and latency percentiles (p50/p90/p99 ns/op)
//   * allocation pressure (allocs/op, bytes/op) via a global
//     operator-new hook — the zero-allocation fast path is an explicit
//     acceptance criterion, so it is measured, not asserted
//   * lock acquisitions (locks/op) via a pthread_mutex_lock hook — the
//     cached hit paths are gated at exactly zero
//   * exact allocations per op on the evaluate, cached-hit, wire-decode,
//     request-copy and closed-loop rows (check_exact_allocs)
//
// Usage: bench_pdp [--smoke] [--out BENCH_pdp.json]
//   --smoke shrinks every workload so the whole run fits in <2s; the
//   bench-smoke ctest target uses it to exercise the perf plumbing on
//   every tier-1 run.
#include <dlfcn.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <list>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/analysis.hpp"
#include "cache/decision_cache.hpp"
#include "cache/request_key.hpp"
#include "common/clock.hpp"
#include "common/interner.hpp"
#include "common/rng.hpp"
#include "core/pdp.hpp"
#include "core/serialization.hpp"
#include "dependability/replicated_pdp.hpp"
#include "net/fault.hpp"
#include "obs/trace.hpp"
#include "pap/repository.hpp"
#include "report.hpp"
#include "runtime/engine.hpp"
#include "runtime/snapshot.hpp"
#include "workload.hpp"

// ---------------------------------------------------------------------
// Counting allocator hook: every global new/delete in the process is
// counted. Relaxed atomics keep the probe cheap enough not to distort
// the measurement (one uncontended RMW per allocation).
// ---------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// GCC's mismatched-new-delete heuristic cannot see that the replacement
// operators above pair global new with std::malloc, so free() here is
// the matching deallocator by construction.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

// ---------------------------------------------------------------------
// Counting lock hook: every pthread_mutex_lock call made through the
// public symbol (std::mutex, std::lock_guard, libstdc++ internals) is
// counted, then forwarded to the next definition (libc's). glibc's own
// internal locks (malloc arenas, stdio) bypass the symbol and are not
// counted. The sanitizer runtimes intercept this symbol themselves, so
// sanitized builds (MDAC_SANITIZE, MDAC_TSAN) leave it alone and report
// no lock counts.
// ---------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_lock_count{0};
}  // namespace

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
constexpr bool kCountsLocks = false;
#else
constexpr bool kSanitized = false;
constexpr bool kCountsLocks = true;

namespace {
using LockFn = int (*)(pthread_mutex_t*);
// Constant-initialised, so it needs no init guard (a guard could itself
// take a lock and recurse into the hook).
std::atomic<LockFn> g_next_lock{nullptr};
}  // namespace

extern "C" int pthread_mutex_lock(pthread_mutex_t* mutex) {
  LockFn fn = g_next_lock.load(std::memory_order_relaxed);
  if (fn == nullptr) {
    fn = reinterpret_cast<LockFn>(dlsym(RTLD_NEXT, "pthread_mutex_lock"));
    g_next_lock.store(fn, std::memory_order_relaxed);
  }
  g_lock_count.fetch_add(1, std::memory_order_relaxed);
  return fn(mutex);
}
#endif

namespace mdac::bench {

/// Keeps the optimizer from discarding decision results without the
/// google-benchmark dependency.
void benchmark_sink(const core::Decision& d);

namespace {

using Clock = std::chrono::steady_clock;

/// The hook counters at one instant; taken before a measured region and
/// charged to its row after it.
struct HookCounts {
  std::uint64_t allocs = g_alloc_count.load();
  std::uint64_t bytes = g_alloc_bytes.load();
  std::uint64_t locks = g_lock_count.load();

  /// Sets `r`'s per-op allocation and lock figures from what the hooks
  /// counted since this snapshot, over `ops` operations.
  void charge(BenchResult& r, std::uint64_t ops) const {
    const HookCounts now;
    const double n = static_cast<double>(ops);
    r.allocs_per_op = static_cast<double>(now.allocs - allocs) / n;
    r.bytes_per_op = static_cast<double>(now.bytes - bytes) / n;
    r.locks_per_op = kCountsLocks ? static_cast<double>(now.locks - locks) / n : -1;
  }
};

struct Scale {
  int policies = 200;
  int roles = 4;
  std::uint64_t iterations = 200'000;
  std::uint64_t cache_iterations = 1'000'000;
  int threads = 4;
  /// Corpus of the whole-corpus lint row and the larger issue row. Smoke
  /// halves it rather than shrinking it tenfold: the issue-scaling gate
  /// compares one issue against one whole-corpus lint, and needs a corpus
  /// whose lint outweighs an issue's fixed parse, hash and compile cost.
  int lint_policies = 2000;
};

/// Runs `op` `iterations` times in batches of `batch`, timing each batch
/// to build the latency distribution and reading the allocation hook
/// around the whole run. `op(i)` receives the global op index.
template <typename Op>
BenchResult run_bench(const std::string& name, std::uint64_t iterations,
                      std::uint64_t batch, Op&& op) {
  BenchResult r;
  r.name = name;
  r.iterations = iterations;

  // Warmup: populate caches/scratch so we measure steady state.
  const std::uint64_t warmup = std::max<std::uint64_t>(batch, iterations / 100);
  for (std::uint64_t i = 0; i < warmup; ++i) op(i);

  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(iterations / batch) + 1);

  const HookCounts before;
  const auto run_start = Clock::now();
  std::uint64_t done = 0;
  while (done < iterations) {
    const std::uint64_t n = std::min(batch, iterations - done);
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i) op(done + i);
    const auto t1 = Clock::now();
    samples.push_back(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
        static_cast<double>(n));
    done += n;
  }
  const auto run_end = Clock::now();
  before.charge(r, iterations);

  const double total_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(run_end - run_start).count());
  r.mean_ns = total_ns / static_cast<double>(iterations);
  r.ops_per_sec = total_ns > 0 ? 1e9 * static_cast<double>(iterations) / total_ns : 0;
  r.p50_ns = percentile(samples, 0.50);
  r.p90_ns = percentile(samples, 0.90);
  r.p99_ns = percentile(samples, 0.99);
  return r;
}

/// Pre-generated request pool so request construction stays out of the
/// measured region. ~half the requests carry an authorised role.
std::vector<core::RequestContext> make_request_pool(const Scale& s, std::size_t n) {
  common::Rng rng(1234);
  std::vector<core::RequestContext> pool;
  pool.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool.push_back(random_request(rng, s.policies, s.roles));
  }
  return pool;
}

// ---------------------------------------------------------------------
// Benchmarks
// ---------------------------------------------------------------------

/// Full PDP evaluation with the target index on: candidate selection +
/// combining over the selected policies. Since PR 3 the default path
/// executes compiled policy programs (core/compiled.hpp).
BenchResult bench_pdp_evaluate(const Scale& s) {
  auto store = make_policy_store(s.policies, s.roles);
  core::Pdp pdp(store);
  const auto pool = make_request_pool(s, 512);
  double skipped = 0;
  double calls = 0;
  double compiled_policies = 0;
  auto r = run_bench("pdp_evaluate_indexed", s.iterations, 64, [&](std::uint64_t i) {
    const auto res = pdp.evaluate_with_metrics(pool[i % pool.size()]);
    skipped += static_cast<double>(res.candidates_skipped);
    calls += 1;
    compiled_policies = static_cast<double>(res.compile.compiled_policies);
  });
  r.counters["policies"] = s.policies;
  r.counters["avg_candidates_skipped"] = calls > 0 ? skipped / calls : 0;
  r.counters["compiled_policies"] = compiled_policies;
  return r;
}

/// The same workload on the interpreted AST path (use_compiled off) —
/// the seed evaluator running in the same process, which both documents
/// the compiled path's win and serves as the load reference for the
/// uncached regression gate (absolute ops/sec move with machine load;
/// the compiled/interpreted ratio only moves with code).
BenchResult bench_pdp_evaluate_interpreted(const Scale& s) {
  core::PdpConfig cfg;
  cfg.use_compiled = false;
  auto store = make_policy_store(s.policies, s.roles);
  core::Pdp pdp(store, cfg);
  const auto pool = make_request_pool(s, 512);
  auto r = run_bench("pdp_evaluate_interpreted", s.iterations, 64,
                     [&](std::uint64_t i) {
                       benchmark_sink(pdp.evaluate(pool[i % pool.size()]));
                     });
  r.counters["policies"] = s.policies;
  return r;
}

/// The domain-partitioned index: the same per-resource policy mass split
/// across `n_domains` administrative domains, single-domain request
/// traffic. With 1 domain every request probes the one partition
/// (flat-equivalent); with 8 each request touches 1/8 of the index
/// state — the paper's multi-domain decomposition applied to the PDP.
BenchResult bench_pdp_evaluate_domains(const Scale& s, int n_domains) {
  auto store = make_domain_policy_store(n_domains, s.policies, s.roles);
  core::Pdp pdp(store);
  common::Rng rng(4321);
  std::vector<core::RequestContext> pool;
  pool.reserve(512);
  for (std::size_t i = 0; i < 512; ++i) {
    pool.push_back(random_domain_request(rng, n_domains, s.policies, s.roles));
  }
  double skipped = 0;
  double calls = 0;
  auto r = run_bench("pdp_evaluate_domains_" + std::to_string(n_domains),
                     s.iterations, 64, [&](std::uint64_t i) {
                       const auto res = pdp.evaluate_with_metrics(pool[i % pool.size()]);
                       skipped += static_cast<double>(res.candidates_skipped);
                       calls += 1;
                     });
  r.counters["policies"] = s.policies;
  r.counters["domains"] = n_domains;
  r.counters["partitions"] = static_cast<double>(pdp.partition_count());
  r.counters["avg_candidates_skipped"] = calls > 0 ? skipped / calls : 0;
  r.counters["avg_partitions_probed"] =
      calls > 0 ? static_cast<double>(pdp.partition_probes()) / calls : 0;
  return r;
}

/// The nested PolicySet workload (3-level set trees per domain, see
/// bench/workload.hpp): what federation-shaped syndicated policy looks
/// like at the PDP. Since ISSUE 5 the whole tree — set targets, nested
/// combining, obligation assignments — executes as one compiled program.
BenchResult bench_pdp_evaluate_set_tree_impl(const Scale& s, bool use_compiled,
                                             const std::string& name) {
  constexpr int kDomains = 4;
  constexpr int kServices = 4;
  const int per_service = std::max(1, s.policies / (kDomains * kServices));
  core::PdpConfig cfg;
  cfg.use_compiled = use_compiled;
  auto store = make_set_tree_store(kDomains, kServices, per_service, s.roles);
  core::Pdp pdp(store, cfg);
  common::Rng rng(8642);
  std::vector<core::RequestContext> pool;
  pool.reserve(512);
  for (std::size_t i = 0; i < 512; ++i) {
    pool.push_back(random_set_tree_request(rng, kDomains, kServices, s.roles));
  }
  double policy_sets = 0;
  auto r = run_bench(name, s.iterations, 64, [&](std::uint64_t i) {
    const auto res = pdp.evaluate_with_metrics(pool[i % pool.size()]);
    policy_sets = static_cast<double>(res.compile.policy_sets);
    benchmark_sink(res.decision);
  });
  r.counters["domains"] = kDomains;
  r.counters["services_per_domain"] = kServices;
  r.counters["leaf_policies"] = kDomains * kServices * per_service;
  r.counters["compiled_policy_sets"] = policy_sets;
  return r;
}

BenchResult bench_pdp_evaluate_set_tree(const Scale& s) {
  return bench_pdp_evaluate_set_tree_impl(s, /*use_compiled=*/true,
                                          "pdp_evaluate_set_tree");
}

/// The same tree workload on the interpreted AST path — the in-binary
/// load-normalisation reference for the set-tree regression gate.
BenchResult bench_pdp_evaluate_set_tree_interpreted(const Scale& s) {
  return bench_pdp_evaluate_set_tree_impl(s, /*use_compiled=*/false,
                                          "pdp_evaluate_set_tree_interpreted");
}

/// The amortised batch entry point: one staleness check and one warm
/// scratch set for the whole span.
BenchResult bench_pdp_evaluate_batch(const Scale& s) {
  auto store = make_policy_store(s.policies, s.roles);
  core::Pdp pdp(store);
  const auto pool = make_request_pool(s, 512);
  constexpr std::uint64_t kBatch = 64;
  auto r = run_bench("pdp_evaluate_batch", s.iterations / kBatch, 8,
                     [&](std::uint64_t i) {
                       const std::size_t start = (i * kBatch) % (pool.size() - kBatch);
                       const auto results = pdp.evaluate_batch(
                           std::span<const core::RequestContext>(&pool[start], kBatch));
                       benchmark_sink(results.back().decision);
                     });
  // Rescale: one "op" above is a whole batch of requests.
  r.iterations *= kBatch;
  r.ops_per_sec *= static_cast<double>(kBatch);
  r.mean_ns /= static_cast<double>(kBatch);
  r.p50_ns /= static_cast<double>(kBatch);
  r.p90_ns /= static_cast<double>(kBatch);
  r.p99_ns /= static_cast<double>(kBatch);
  r.allocs_per_op /= static_cast<double>(kBatch);
  r.bytes_per_op /= static_cast<double>(kBatch);
  r.counters["batch"] = kBatch;
  return r;
}

/// Same workload with the index off: the linear target scan the paper's
/// scalability argument says must be avoided.
BenchResult bench_pdp_evaluate_noindex(const Scale& s) {
  core::PdpConfig cfg;
  cfg.use_target_index = false;
  auto store = make_policy_store(s.policies, s.roles);
  core::Pdp pdp(store, cfg);
  const auto pool = make_request_pool(s, 512);
  auto r = run_bench("pdp_evaluate_linear_scan", s.iterations / 4, 64,
                     [&](std::uint64_t i) {
                       benchmark_sink(pdp.evaluate(pool[i % pool.size()]));
                     });
  r.counters["policies"] = s.policies;
  return r;
}

/// The cached-decision fast path at the PEP: CachingEvaluator over the
/// one decision store, with a TTL, 100% hits (the pool is cached before
/// measuring). This is the path the paper's §3.2 argument needs to be
/// near-free. Hits are counted at the caller: every evaluator call is a
/// miss.
BenchResult bench_cached_hit(const Scale& s) {
  common::ManualClock clock;
  auto store = make_policy_store(s.policies, s.roles);
  core::Pdp pdp(store);
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{
      .capacity = 8192, .ttl = 1'000'000'000, .clock = &clock});
  std::uint64_t calls = 0;
  std::uint64_t evaluations = 0;
  cache::CachingEvaluator cached(cache, [&](const core::RequestContext& req) {
    ++evaluations;
    return pdp.evaluate(req);
  });
  std::vector<core::RequestContext> pool = make_request_pool(s, 512);
  for (const auto& req : pool) cached(req);  // fill: the measured ops are hits
  // The fingerprint seed is per process, so now and then a 4-way bucket
  // draws a fifth key and one cacheable request loses its slot. Probing
  // it would miss, re-insert under the shard lock and evict a neighbour
  // on every pass, so the row would measure misses. Measure the resident
  // keys only, and report how many were dropped.
  const std::size_t filled = pool.size();
  std::erase_if(pool, [&](const core::RequestContext& req) {
    const core::Decision d = pdp.evaluate(req);
    return (d.is_permit() || d.is_deny()) && !cache.lookup(req);
  });
  evaluations = 0;
  auto r = run_bench("cached_decision_hit", s.cache_iterations, 256, [&](std::uint64_t i) {
    ++calls;
    benchmark_sink(cached(pool[i % pool.size()]));
  });
  r.counters["hit_ratio"] = 1.0 - static_cast<double>(evaluations) / static_cast<double>(calls);
  r.counters["evicted_at_fill"] = static_cast<double>(filled - pool.size());
  return r;
}

/// Mixed hit/miss traffic under TTL churn: the steady-state PEP shape.
BenchResult bench_cached_churn(const Scale& s) {
  common::ManualClock clock;
  auto store = make_policy_store(s.policies, s.roles);
  core::Pdp pdp(store);
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{
      .capacity = 4096, .ttl = 5'000, .clock = &clock});
  std::uint64_t calls = 0;
  std::uint64_t evaluations = 0;
  cache::CachingEvaluator cached(cache, [&](const core::RequestContext& req) {
    ++evaluations;
    return pdp.evaluate(req);
  });
  const auto pool = make_request_pool(s, 2048);
  auto r = run_bench("cached_decision_churn", s.cache_iterations / 4, 256,
                     [&](std::uint64_t i) {
                       ++calls;
                       clock.advance(1);
                       benchmark_sink(cached(pool[i % pool.size()]));
                     });
  r.counters["hit_ratio"] = 1.0 - static_cast<double>(evaluations) / static_cast<double>(calls);
  return r;
}

/// Raw key derivation cost: what lookup+insert pay per request before
/// they ever touch the cache structure. Legacy canonical string...
BenchResult bench_request_key_legacy(const Scale& s) {
  const auto pool = make_request_pool(s, 512);
  std::size_t sink = 0;
  auto r = run_bench("request_key_canonical_string", s.cache_iterations / 2, 256,
                     [&](std::uint64_t i) {
                       sink += cache::canonical_request_key(pool[i % pool.size()]).size();
                     });
  r.counters["sink"] = static_cast<double>(sink % 7);
  return r;
}

/// ...vs the allocation-free 128-bit fingerprint the cache now keys on.
BenchResult bench_request_key_fingerprint(const Scale& s) {
  const auto pool = make_request_pool(s, 512);
  std::uint64_t sink = 0;
  auto r = run_bench("request_key_fingerprint", s.cache_iterations, 256,
                     [&](std::uint64_t i) {
                       sink += cache::fingerprint(pool[i % pool.size()]).lo;
                     });
  r.counters["sink"] = static_cast<double>(sink % 7);
  return r;
}

BenchResult bench_wire_request_decode(const Scale& s) {
  common::interner().intern("service");  // the policy vocabulary a PDP holds
  common::Rng rng(14);
  std::vector<std::string> docs;
  for (std::uint64_t i = 0; i < 512; ++i) {
    docs.push_back(core::request_to_string(cold_wire_request(rng, 1'000'000 + i)));
  }
  // cold_wire documents: six attributes, one 12-character serial subject.
  std::uint64_t sink = 0;
  auto r = run_bench("wire_request_decode", s.iterations, 256, [&](std::uint64_t i) {
    sink += core::request_from_string(docs[i % docs.size()]).size();
  });
  r.counters["doc_bytes"] = static_cast<double>(docs[0].size());
  r.counters["sink"] = static_cast<double>(sink % 7);
  return r;
}

/// A hot_agent-shaped pool request (make + 2 adds) copied on this thread
/// and destroyed on another: the engine's shape, where the submitting
/// thread copies a request into the job and a worker frees it. Its
/// allocs/op is the copy's heap blocks; the frees land on the consumer,
/// so the timing includes cross-core frees.
BenchResult bench_request_copy_cross_thread(const Scale& s) {
  common::Rng rng(16);
  std::vector<core::RequestContext> pool;
  for (int i = 0; i < 512; ++i) {
    pool.push_back(random_domain_request(rng, 8, s.policies, s.roles));
  }
  struct Slot {
    std::optional<core::RequestContext> request;
    std::atomic<bool> full{false};
  };
  constexpr std::size_t kRing = 256;
  const auto ring = std::make_unique<Slot[]>(kRing);
  // Declared after the ring, so its destructor (stop, then join) runs
  // before the ring's.
  std::jthread consumer([&](std::stop_token stop) {
    for (std::size_t next = 0;;) {
      Slot& slot = ring[next % kRing];
      const bool stopping = stop.stop_requested();
      if (slot.full.load(std::memory_order_acquire)) {
        slot.request.reset();
        slot.full.store(false, std::memory_order_release);
        ++next;
      } else if (stopping) {
        break;
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::size_t produced = 0;
  auto r = run_bench("request_copy_cross_thread", s.iterations, 256, [&](std::uint64_t i) {
    Slot& slot = ring[produced++ % kRing];
    while (slot.full.load(std::memory_order_acquire)) std::this_thread::yield();
    slot.request.emplace(pool[i % pool.size()]);
    slot.full.store(true, std::memory_order_release);
  });
  r.counters["attributes"] = static_cast<double>(pool[0].size());
  return r;
}

/// The multi-valued case: the same requests with three roles per
/// subject, copied and freed on one thread. The role bag keeps its
/// values in a vector, so a copy is two heap blocks (entries array and
/// role vector) where a single-valued request is one.
BenchResult bench_request_copy_multi_role(const Scale& s) {
  common::Rng rng(17);
  std::vector<core::RequestContext> pool;
  for (int i = 0; i < 512; ++i) {
    core::RequestContext req = random_domain_request(rng, 8, s.policies, s.roles);
    for (int extra = 0; extra < 2; ++extra) {
      req.add(core::Category::kSubject, core::attrs::kRole,
              core::AttributeValue("role-" + std::to_string(rng.uniform_int(0, s.roles - 1))));
    }
    pool.push_back(std::move(req));
  }
  std::size_t sink = 0;
  auto r = run_bench("request_copy_multi_role", s.iterations, 256, [&](std::uint64_t i) {
    const core::RequestContext copy = pool[i % pool.size()];
    sink += copy.size();
  });
  r.counters["roles_per_subject"] = 3;
  r.counters["sink"] = static_cast<double>(sink % 7);
  return r;
}

BenchResult bench_wire_decision_encode(const Scale& s) {
  common::Rng rng(15);
  std::vector<core::Decision> decisions;
  for (std::uint64_t i = 0; i < 512; ++i) {
    decisions.push_back(cold_wire_decision(rng, "u-" + std::to_string(1'000'000'000 + i)));
  }
  std::uint64_t sink = 0;
  auto r = run_bench("wire_decision_encode", s.iterations, 256, [&](std::uint64_t i) {
    sink += core::decision_to_string(decisions[i % decisions.size()]).size();
  });
  r.counters["sink"] = static_cast<double>(sink % 7);
  return r;
}

/// The seed's decision cache, kept here as the in-binary reference for
/// the cached-hit regression gate: one string-keyed map with exact LRU
/// and TTL, no internal locking.
class LegacyTtlLruCache {
 public:
  LegacyTtlLruCache(const common::Clock& clock, common::Duration ttl, std::size_t capacity)
      : clock_(clock), ttl_(ttl), capacity_(capacity) {}

  std::optional<core::Decision> lookup(const std::string& key) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++misses_;
      return std::nullopt;
    }
    if (clock_.now() >= it->second.expires_at) {
      ++misses_;
      lru_.erase(it->second.lru_position);
      entries_.erase(it);
      return std::nullopt;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second.lru_position);
    return it->second.value;
  }

  void insert(const std::string& key, core::Decision value) {
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.value = std::move(value);
      it->second.expires_at = clock_.now() + ttl_;
      lru_.splice(lru_.begin(), lru_, it->second.lru_position);
      return;
    }
    if (entries_.size() >= capacity_ && !lru_.empty()) {
      entries_.erase(lru_.back());
      lru_.pop_back();
    }
    lru_.push_front(key);
    entries_.emplace(key, Entry{std::move(value), clock_.now() + ttl_, lru_.begin()});
  }

  double hit_ratio() const {
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
  }

 private:
  struct Entry {
    core::Decision value;
    common::TimePoint expires_at;
    std::list<std::string>::iterator lru_position;
  };

  const common::Clock& clock_;
  common::Duration ttl_;
  std::size_t capacity_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// The seed's cached-decision path, reproduced for in-binary comparison:
/// LegacyTtlLruCache keyed by the canonical string, and — as the seed's
/// CachingEvaluator did — the key canonicalised once in lookup and AGAIN
/// in insert on every miss.
BenchResult bench_cached_hit_legacy(const Scale& s) {
  common::ManualClock clock;
  auto store = make_policy_store(s.policies, s.roles);
  core::Pdp pdp(store);
  LegacyTtlLruCache cache(clock, 1'000'000'000, 8192);
  const auto pool = make_request_pool(s, 512);
  auto evaluate_cached = [&](const core::RequestContext& req) {
    if (auto hit = cache.lookup(cache::canonical_request_key(req))) return *hit;
    core::Decision d = pdp.evaluate(req);
    if (d.is_permit() || d.is_deny()) {
      cache.insert(cache::canonical_request_key(req), d);
    }
    return d;
  };
  for (const auto& req : pool) evaluate_cached(req);  // fill, as the gated row does
  auto r = run_bench("cached_decision_hit_legacy", s.cache_iterations, 256,
                     [&](std::uint64_t i) {
                       benchmark_sink(evaluate_cached(pool[i % pool.size()]));
                     });
  r.counters["hit_ratio"] = cache.hit_ratio();
  return r;
}

/// Multi-threaded 100%-hit traffic against the DecisionCache (lock-free
/// reads). Throughput is aggregated across threads; latency percentiles
/// come from thread 0's batches.
BenchResult bench_cache_mt(const Scale& s) {
  auto store = make_policy_store(s.policies, s.roles);
  core::Pdp pdp(store);
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 8192});
  const auto pool = make_request_pool(s, 512);
  for (const auto& req : pool) {
    cache.insert(req, pdp.evaluate(req));
  }

  const int threads = s.threads;
  const std::uint64_t per_thread = s.cache_iterations / static_cast<std::uint64_t>(threads);
  constexpr std::uint64_t kBatch = 256;

  std::vector<double> samples;  // thread 0 only
  samples.reserve(static_cast<std::size_t>(per_thread / kBatch) + 1);
  std::atomic<std::uint64_t> hits{0};
  BenchResult r;
  const HookCounts before;
  const auto t_start = Clock::now();
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        std::uint64_t done = 0;
        std::uint64_t local_hits = 0;
        while (done < per_thread) {
          const std::uint64_t n = std::min(kBatch, per_thread - done);
          const auto b0 = Clock::now();
          for (std::uint64_t i = 0; i < n; ++i) {
            const auto& req = pool[(done + i + static_cast<std::uint64_t>(t) * 131) %
                                   pool.size()];
            if (auto hit = cache.lookup(req)) {
              benchmark_sink(*hit);
              ++local_hits;
            }
          }
          const auto b1 = Clock::now();
          if (t == 0) {
            samples.push_back(
                static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        b1 - b0)
                                        .count()) /
                static_cast<double>(n));
          }
          done += n;
        }
        hits.fetch_add(local_hits, std::memory_order_relaxed);
      });
    }
    for (auto& w : workers) w.join();
  }
  const auto t_end = Clock::now();
  const std::uint64_t total_ops = per_thread * static_cast<std::uint64_t>(threads);
  before.charge(r, total_ops);

  const double total_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t_end - t_start).count());
  r.name = "cached_decision_hit_mt";
  r.iterations = total_ops;
  r.ops_per_sec = total_ns > 0 ? 1e9 * static_cast<double>(total_ops) / total_ns : 0;
  r.mean_ns = total_ns / static_cast<double>(total_ops) * threads;  // per-op CPU-ish
  r.p50_ns = percentile(samples, 0.50);
  r.p90_ns = percentile(samples, 0.90);
  r.p99_ns = percentile(samples, 0.99);
  r.counters["threads"] = threads;
  r.counters["hit_ratio"] =
      static_cast<double>(hits.load()) / static_cast<double>(total_ops);
  return r;
}

/// The multi-threaded decision-engine runtime on the federation
/// workload (8 administrative domains, single-domain request traffic):
/// W workers, each a private Pdp replica over the published snapshot,
/// fed through the bounded queue with a windowed in-flight submitter so
/// the queue never hits its bound (sheds are a *separate* row). The
/// workers_1 row doubles as the load-normalisation reference for the
/// thread-scaling regression gate: the mt_8/mt_1 ratio moves with code
/// (and core count), not machine load. Latency percentiles come from
/// the engine's own histogram — the metrics surface this PR adds.
BenchResult bench_pdp_mt(const Scale& s, std::size_t workers) {
  constexpr int kDomains = 8;
  auto store = make_domain_policy_store(kDomains, s.policies, s.roles);

  runtime::SnapshotPublisher publisher;
  publisher.publish(store);
  runtime::EngineConfig config;
  config.workers = workers;
  config.queue_capacity = 8192;
  config.max_batch = 64;
  runtime::DecisionEngine engine(publisher, config);

  common::Rng rng(4321);
  std::vector<core::RequestContext> pool;
  pool.reserve(512);
  for (std::size_t i = 0; i < 512; ++i) {
    pool.push_back(random_domain_request(rng, kDomains, s.policies, s.roles));
  }

  // Warmup doubles as the differential check the mt rows are gated on
  // being *correct* for: every engine decision must be bit-identical to
  // the single-threaded Pdp's (the store is shared; both only read it).
  std::uint64_t mismatches = 0;
  {
    core::Pdp reference(store);
    for (const core::RequestContext& request : pool) {
      const core::Decision expected = reference.evaluate(request);
      const runtime::EngineResult got = engine.submit(request).get();
      if (!(got.decision == expected)) ++mismatches;
    }
    if (mismatches > 0) {
      std::fprintf(stderr,
                   "FAIL: pdp_mt_workers_%zu: %llu engine decisions differ from "
                   "single-threaded Pdp\n",
                   workers, static_cast<unsigned long long>(mismatches));
    }
  }

  const std::uint64_t iterations = s.iterations;
  constexpr std::size_t kWindow = 512;
  std::vector<std::future<runtime::EngineResult>> inflight(kWindow);

  // The engine is quiescent after the serial differential round trips:
  // drop warmup traffic from the metrics so the reported latency
  // percentiles cover only the measured window's queueing regime (the
  // adoption count happens at warmup, so capture it first).
  const std::uint64_t warm_adoptions = engine.metrics().snapshot_adoptions;
  engine.reset_metrics();
  const HookCounts before;
  const auto t_start = Clock::now();
  for (std::uint64_t i = 0; i < iterations; ++i) {
    auto& slot = inflight[i % kWindow];
    if (slot.valid()) benchmark_sink(slot.get().decision);
    slot = engine.submit(pool[i % pool.size()]);
  }
  for (auto& slot : inflight) {
    if (slot.valid()) benchmark_sink(slot.get().decision);
  }
  const auto t_end = Clock::now();
  BenchResult r;
  before.charge(r, iterations);

  const runtime::EngineMetrics::Snapshot m = engine.metrics();
  const double total_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t_end - t_start).count());
  r.name = "pdp_mt_workers_" + std::to_string(workers);
  r.iterations = iterations;
  r.ops_per_sec = total_ns > 0 ? 1e9 * static_cast<double>(iterations) / total_ns : 0;
  r.mean_ns = total_ns / static_cast<double>(iterations);
  r.p50_ns = m.latency_p50_ns;
  r.p90_ns = m.latency_p90_ns;
  r.p99_ns = m.latency_p99_ns;
  r.counters["workers"] = static_cast<double>(workers);
  r.counters["domains"] = kDomains;
  r.counters["policies"] = s.policies;
  r.counters["sheds"] = static_cast<double>(m.sheds());
  r.counters["mean_batch"] = m.mean_batch_size;
  r.counters["snapshot_adoptions"] =
      static_cast<double>(m.snapshot_adoptions + warm_adoptions);
  r.counters["differential_mismatches"] = static_cast<double>(mismatches);
  return r;
}

BenchResult bench_pdp_mt_1(const Scale& s) { return bench_pdp_mt(s, 1); }
BenchResult bench_pdp_mt_8(const Scale& s) { return bench_pdp_mt(s, 8); }

/// One submitter keeping `window` requests in flight, callback form: the
/// closed loop a PEP thread runs against the engine.
///
/// pdp_mt_closed_loop_1 (one worker, one request in flight): each request
/// finds the worker idle or about to park, so the row shows how often the
/// engine parks and pays a wake-up per request (wakes_per_op,
/// parks_per_op) and what the round trip costs (p50/p99 are single round
/// trips). allocs_per_op counts every thread: the request copy on the
/// submitter is the only one (the worker evaluates into kept scratch).
///
/// pdp_mt_closed_loop_64 (two workers, 64 in flight): decisionbench's
/// capacity loop in miniature. Its wakes_per_op, parks_per_op and
/// mean_batch are counts, not speeds; the wake gate holds them.
///
/// The counted window opens and closes with a worker asleep and nothing
/// in flight.
BenchResult bench_pdp_mt_closed_loop(const Scale& s, std::size_t workers,
                                     std::uint64_t window) {
  constexpr int kDomains = 8;
  auto store = make_domain_policy_store(kDomains, s.policies, s.roles);
  runtime::SnapshotPublisher publisher;
  publisher.publish(store);
  runtime::EngineConfig config;
  config.workers = workers;
  runtime::DecisionEngine engine(publisher, config);

  common::Rng rng(4321);
  std::vector<core::RequestContext> pool;
  pool.reserve(512);
  for (std::size_t i = 0; i < 512; ++i) {
    pool.push_back(random_domain_request(rng, kDomains, s.policies, s.roles));
  }
  std::atomic<std::uint64_t> completed{0};
  // One pointer of capture: fits std::function's small buffer.
  const auto done = [&completed](runtime::EngineResult r) {
    benchmark_sink(r.decision);
    completed.fetch_add(1, std::memory_order_release);
  };
  std::uint64_t ops = 0;
  const auto drained = [&] {
    while (completed.load(std::memory_order_acquire) != ops) std::this_thread::yield();
    for (;;) {
      runtime::EngineMetrics::Snapshot m = engine.metrics();
      if (m.parks > m.wakes) return m;  // a worker is asleep
      std::this_thread::yield();
    }
  };
  const runtime::EngineMetrics::Snapshot before = drained();
  const auto submit = [&](std::uint64_t i) {
    engine.submit(pool[i % pool.size()], done);
    ++ops;
    // Spin like a PEP thread awaiting credit; yield only if a worker is
    // off its core for long.
    for (unsigned spins = 0; ops - completed.load(std::memory_order_acquire) >= window;) {
      if (++spins < 1024) {
#if defined(__x86_64__)
        __builtin_ia32_pause();
#endif
      } else {
        std::this_thread::yield();
      }
    }
  };
  // The wake gate reads counts per op: enough ops that a handful of
  // parks at the window's edges do not move them.
  const std::uint64_t iterations =
      window > 1 ? std::max<std::uint64_t>(s.iterations, 100'000) : s.iterations;
  BenchResult r =
      run_bench("pdp_mt_closed_loop_" + std::to_string(window), iterations, 1, submit);
  const runtime::EngineMetrics::Snapshot after = drained();
  const double n = static_cast<double>(ops);
  r.counters["workers"] = static_cast<double>(workers);
  r.counters["window"] = static_cast<double>(window);
  r.counters["wakes_per_op"] = static_cast<double>(after.wakes - before.wakes) / n;
  r.counters["parks_per_op"] = static_cast<double>(after.parks - before.parks) / n;
  r.counters["mean_batch"] = static_cast<double>(after.decided - before.decided) /
                             static_cast<double>(after.batches - before.batches);
  r.counters["sheds"] = static_cast<double>(after.sheds());
  return r;
}

/// The engine workload with the two-level decision cache attached: the
/// hot pool is served from per-worker private slot tables (no lock)
/// backed by the shared seqlock L2. Cache counters ride on every row so
/// BENCH_pdp.json records where hits were served from (l1_hits /
/// l2_hits).
/// `traced` attaches an obs::DecisionTracer with the given head-sampling
/// cadence (0 = tracing compiled in and admitting ids, but recording no
/// spans) — the pdp_mt_traced_* rows that pin the tracing-off overhead
/// contract. `name_override` renames the row so traced variants don't
/// collide with the cached baselines.
BenchResult bench_pdp_mt_cached(const Scale& s, std::size_t workers, bool traced = false,
                                std::uint64_t sample_every_n = 0,
                                const char* name_override = nullptr) {
  constexpr int kDomains = 8;
  auto store = make_domain_policy_store(kDomains, s.policies, s.roles);
  runtime::SnapshotPublisher publisher;
  publisher.publish(store);

  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 8192});
  obs::DecisionTracer tracer(
      obs::ObsConfig{.sample_every_n = sample_every_n, .ring_capacity = 1024});
  runtime::EngineConfig config;
  config.workers = workers;
  config.queue_capacity = 8192;
  config.max_batch = 64;
  // 1024 slots in 256 four-way buckets per worker. The 512-request pool
  // overflows a few buckets, and the keys that do not fit are served
  // from the L2 and promoted again on every pass: the l1_hits/l2_hits
  // split shows how many.
  config.l1_capacity = 1024;
  if (traced) config.tracer = &tracer;
  runtime::DecisionEngine engine(publisher, config, &cache);

  // The hot pool is rejection-sampled to *definitive* decisions: the
  // engine only caches Permit/Deny, and a pool dominated by
  // NotApplicable would make these rows measure evaluation throughput
  // (already covered by pdp_mt_workers_*) instead of cache contention.
  common::Rng rng(4321);
  std::vector<core::RequestContext> pool;
  pool.reserve(512);
  {
    core::Pdp sampler(store);
    for (int attempts = 0; pool.size() < 512 && attempts < 100'000; ++attempts) {
      core::RequestContext req =
          random_domain_request(rng, kDomains, s.policies, s.roles);
      const core::Decision d = sampler.evaluate(req);
      if (d.is_permit() || d.is_deny()) pool.push_back(std::move(req));
    }
    while (pool.size() < 512) {
      pool.push_back(random_domain_request(rng, kDomains, s.policies, s.roles));
    }
  }

  // Warmup doubles as the differential check AND the cache fill: the
  // first encounter of each request misses and caches; later encounters
  // are served from L1/L2 and must still be bit-identical to the
  // single-threaded Pdp.
  std::uint64_t mismatches = 0;
  {
    core::Pdp reference(store);
    for (int round = 0; round < 2; ++round) {
      for (const core::RequestContext& request : pool) {
        const core::Decision expected = reference.evaluate(request);
        const runtime::EngineResult got = engine.submit(request).get();
        if (!(got.decision == expected)) ++mismatches;
      }
    }
    if (mismatches > 0) {
      std::fprintf(stderr,
                   "FAIL: pdp_mt_cached workers=%zu: %llu cached engine "
                   "decisions differ from single-threaded Pdp\n",
                   workers, static_cast<unsigned long long>(mismatches));
    }
  }

  const std::uint64_t iterations = s.iterations;
  constexpr std::size_t kWindow = 512;
  std::vector<std::future<runtime::EngineResult>> inflight(kWindow);
  engine.reset_metrics();
  const HookCounts before;
  const auto t_start = Clock::now();
  for (std::uint64_t i = 0; i < iterations; ++i) {
    auto& slot = inflight[i % kWindow];
    if (slot.valid()) benchmark_sink(slot.get().decision);
    slot = engine.submit(pool[i % pool.size()]);
  }
  for (auto& slot : inflight) {
    if (slot.valid()) benchmark_sink(slot.get().decision);
  }
  const auto t_end = Clock::now();
  BenchResult r;
  before.charge(r, iterations);

  const runtime::EngineMetrics::Snapshot m = engine.metrics();
  const double total_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t_end - t_start).count());
  r.name = name_override != nullptr ? std::string(name_override)
                                    : "pdp_mt_cached_workers_" + std::to_string(workers);
  r.iterations = iterations;
  r.ops_per_sec = total_ns > 0 ? 1e9 * static_cast<double>(iterations) / total_ns : 0;
  r.mean_ns = total_ns / static_cast<double>(iterations);
  r.p50_ns = m.latency_p50_ns;
  r.p90_ns = m.latency_p90_ns;
  r.p99_ns = m.latency_p99_ns;
  r.counters["workers"] = static_cast<double>(workers);
  r.counters["sheds"] = static_cast<double>(m.sheds());
  r.counters["l1_hits"] = static_cast<double>(m.l1_hits);
  r.counters["l2_hits"] = static_cast<double>(m.l2_hits);
  r.counters["cache_misses"] = static_cast<double>(m.cache_misses);
  r.counters["l2_read_retries"] = static_cast<double>(m.l2_read_retries);
  r.counters["version_evictions"] = static_cast<double>(m.version_evictions);
  r.counters["hit_ratio"] =
      m.decided > 0 ? static_cast<double>(m.cache_hits) / static_cast<double>(m.decided)
                    : 0;
  r.counters["differential_mismatches"] = static_cast<double>(mismatches);
  if (traced) {
    r.counters["trace_sample_every_n"] = static_cast<double>(sample_every_n);
    r.counters["traces_admitted"] = static_cast<double>(tracer.admitted_total());
    r.counters["traces_published"] = static_cast<double>(tracer.published_total());
  }
  return r;
}

BenchResult bench_pdp_mt_cached_8(const Scale& s) { return bench_pdp_mt_cached(s, 8); }
/// Tracing compiled in, sampling off: the hot path pays one relaxed
/// fetch_add per submission and nothing else. The in-binary overhead
/// gate holds this row within 3% of pdp_mt_cached_workers_8.
BenchResult bench_pdp_mt_traced_off(const Scale& s) {
  return bench_pdp_mt_cached(s, 8, /*traced=*/true, /*sample_every_n=*/0,
                             "pdp_mt_traced_off");
}
/// Every 1024th decision records full spans + publishes to the ring —
/// the sampled cost an operator actually runs with.
BenchResult bench_pdp_mt_traced_sampled(const Scale& s) {
  return bench_pdp_mt_cached(s, 8, /*traced=*/true, /*sample_every_n=*/1024,
                             "pdp_mt_traced_sampled");
}

/// Deliberate overload: a tiny queue bound, fire-and-forget callback
/// submissions at full rate, no in-flight window. Measures how the
/// engine behaves AT saturation — decided throughput stays up while the
/// overflow is shed deterministically (shed_rate counter), instead of
/// latency collapsing under an unbounded backlog. ops_per_sec counts
/// *decided* requests; sheds are accounted separately.
BenchResult bench_pdp_engine_saturation(const Scale& s) {
  constexpr int kDomains = 8;
  auto store = make_domain_policy_store(kDomains, s.policies, s.roles);
  runtime::SnapshotPublisher publisher;
  publisher.publish(store);
  runtime::EngineConfig config;
  config.workers = 2;
  config.queue_capacity = 256;
  config.max_batch = 64;
  runtime::DecisionEngine engine(publisher, config);

  common::Rng rng(9876);
  std::vector<core::RequestContext> pool;
  pool.reserve(512);
  for (std::size_t i = 0; i < 512; ++i) {
    pool.push_back(random_domain_request(rng, kDomains, s.policies, s.roles));
  }
  // Warm the workers' replicas (index build, compilation), then drop
  // the warmup ops from the metrics: decided/shed counts and the
  // latency histogram must cover only the overloaded window.
  for (int i = 0; i < 64; ++i) engine.submit(pool[i]).get();
  engine.reset_metrics();

  const std::uint64_t iterations = s.iterations;
  const HookCounts before;
  const auto t_start = Clock::now();
  for (std::uint64_t i = 0; i < iterations; ++i) {
    engine.submit(pool[i % pool.size()],
                  [](runtime::EngineResult result) { benchmark_sink(result.decision); });
  }
  engine.shutdown(runtime::DecisionEngine::Drain::kDrain);
  const auto t_end = Clock::now();
  BenchResult r;
  before.charge(r, iterations);

  const runtime::EngineMetrics::Snapshot m = engine.metrics();
  const double total_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t_end - t_start).count());
  const std::uint64_t decided = m.decided;
  r.name = "pdp_engine_saturation";
  r.iterations = iterations;
  r.ops_per_sec = total_ns > 0 ? 1e9 * static_cast<double>(decided) / total_ns : 0;
  r.mean_ns = decided > 0 ? total_ns / static_cast<double>(decided) : 0;
  r.p50_ns = m.latency_p50_ns;
  r.p90_ns = m.latency_p90_ns;
  r.p99_ns = m.latency_p99_ns;
  r.counters["workers"] = static_cast<double>(config.workers);
  r.counters["queue_capacity"] = static_cast<double>(config.queue_capacity);
  r.counters["submitted"] = static_cast<double>(m.submitted);
  r.counters["decided"] = static_cast<double>(decided);
  r.counters["sheds"] = static_cast<double>(m.sheds());
  r.counters["shed_rate"] = m.shed_rate();
  return r;
}

/// Dependability under a named fault plan (net/fault.hpp): a
/// self-healing failover dispatcher over 3 PDP replicas, paced request
/// traffic, the plan's scripted faults active for the whole run. These
/// rows are RECORDED, not ratio-gated — availability and simulated
/// latency are properties of the scripted scenario, not of machine
/// load, so they belong in BENCH_pdp.json as tracked data points. The
/// latency percentile fields carry *simulated* time (ms on the
/// simulator clock, stored as ns like every other row); wall-clock cost
/// of the whole sim run is in mean_ns/ops_per_sec.
BenchResult bench_fault_plan(const Scale& s, const std::string& plan_name) {
  constexpr int kRequests = 400;
  constexpr common::Duration kPace = 25;  // simulated ms between requests
  const common::TimePoint horizon = kRequests * kPace;

  net::Simulator sim(42);
  net::Network network(sim);
  network.set_default_link({10, 0, 0.0});

  auto store = make_policy_store(s.policies, s.roles);
  const std::vector<std::string> ids = {"pdp/0", "pdp/1", "pdp/2"};
  std::vector<std::unique_ptr<dependability::PdpReplica>> replicas;
  for (const std::string& id : ids) {
    replicas.push_back(std::make_unique<dependability::PdpReplica>(
        network, id, std::make_shared<core::Pdp>(store)));
  }
  auto plan = net::make_named_fault_plan(plan_name, 42, ids, "pep", horizon);
  plan->arm(network);
  dependability::ReplicatedPdpClient client(
      network, "pep", ids, dependability::DispatchStrategy::kFailover);

  const auto pool = make_request_pool(s, 256);
  std::vector<double> sim_latency_ms;
  sim_latency_ms.reserve(kRequests);
  std::size_t definitive = 0;
  for (int i = 0; i < kRequests; ++i) {
    sim.schedule(i * kPace, [&, i] {
      const common::TimePoint issued = sim.now();
      client.evaluate(pool[static_cast<std::size_t>(i) % pool.size()],
                      [&, issued](const core::Decision& d) {
                        sim_latency_ms.push_back(
                            static_cast<double>(sim.now() - issued));
                        if (d.is_permit() || d.is_deny()) ++definitive;
                      });
    });
  }
  const HookCounts before;
  const auto t0 = Clock::now();
  sim.run();
  const auto t1 = Clock::now();
  BenchResult r;
  before.charge(r, kRequests);

  std::string row_name = "fault_plan_" + plan_name;
  std::replace(row_name.begin(), row_name.end(), '-', '_');
  const double wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  const dependability::DispatchStats& stats = client.stats();
  r.name = row_name;
  r.iterations = kRequests;
  r.ops_per_sec = wall_ns > 0 ? 1e9 * kRequests / wall_ns : 0;
  r.mean_ns = wall_ns / kRequests;
  r.p50_ns = percentile(sim_latency_ms, 0.50) * 1e6;  // simulated ms -> ns
  r.p90_ns = percentile(sim_latency_ms, 0.90) * 1e6;
  r.p99_ns = percentile(sim_latency_ms, 0.99) * 1e6;
  r.counters["availability"] = static_cast<double>(definitive) / kRequests;
  r.counters["sim_latency_p99_ms"] = percentile(sim_latency_ms, 0.99);
  r.counters["tries_per_request"] =
      static_cast<double>(stats.tries) / kRequests;
  r.counters["failsafe"] = static_cast<double>(stats.failsafe);
  r.counters["breaker_opens"] = static_cast<double>(stats.breaker_opens);
  r.counters["breaker_skips"] = static_cast<double>(stats.breaker_skips);
  r.counters["replies_undelivered"] = static_cast<double>(
      stats.retryable_replies + stats.undecodable_replies);
  return r;
}

/// Static-analysis throughput: one full analyse_store() pass (every
/// lint family, findings capped so the clock measures analysis, not
/// materialising ~10^5 cross-root conflict findings) over a 2000-policy
/// 8-domain federation corpus — the ISSUE's analyser scaling row. The
/// smoke workload halves the corpus (Scale::lint_policies).
BenchResult bench_analysis_lint(const Scale& s) {
  const int corpus = s.lint_policies;  // full: 2000 policies, smoke: 1000
  auto store = make_domain_policy_store(8, corpus, s.roles);
  analysis::AnalyzerOptions options;
  options.max_findings_per_pass = 64;
  double errors = 0, warnings = 0, suppressed = 0;
  auto r = run_bench("analysis_lint_2k", 3, 1, [&](std::uint64_t) {
    const analysis::AnalysisReport report = analysis::analyse_store(*store, options);
    errors = static_cast<double>(report.error_count);
    warnings = static_cast<double>(report.warning_count);
    suppressed = static_cast<double>(report.suppressed);
  });
  r.counters["policies"] = corpus;
  r.counters["error_findings"] = errors;
  r.counters["warning_findings"] = warnings;
  r.counters["suppressed_findings"] = suppressed;
  return r;
}

/// A repository holding `n_policies` issued federation policies (8
/// domains, lint on and gate off, the PapConfig defaults) and the two
/// versions of one of them that the issue and publish rows alternate:
/// its read rule permits in one and denies in the other, so every issue
/// replaces the conflicts the lint index holds for it. At 2,000 policies
/// it holds the analysis_lint_2k corpus: 250 policies share each
/// (domain, role), so one issue meets ~500 conflicting atoms.
struct ChurnRepository {
  common::ManualClock clock;
  pap::PolicyRepository repo{clock};
  std::string id;
  std::string documents[2];
  std::uint64_t failures = 0;  // set-up and measured issues alike

  ChurnRepository(const Scale& s, int n_policies) {
    constexpr int kDomains = 8;
    for (int i = 0; i < n_policies; ++i) {
      const core::Policy p = domain_role_policy(i % kDomains, i, s.roles);
      if (!repo.submit(core::node_to_string(p), "bench") ||
          !repo.issue(p.policy_id, "bench")) {
        ++failures;
      }
    }
    core::Policy flipped = domain_role_policy(0, 0, s.roles);
    id = flipped.policy_id;
    documents[0] = core::node_to_string(flipped);
    flipped.rules[0].effect = core::Effect::kDeny;
    documents[1] = core::node_to_string(flipped);
  }

  /// Submits and issues version `i % 2` of the alternating policy.
  void reissue(std::uint64_t i) {
    if (!repo.submit(documents[i % 2], "bench") || !repo.issue(id, "bench")) ++failures;
  }
};

std::uint64_t churn_ops(const Scale& s) {
  return std::max<std::uint64_t>(s.iterations / 400, 50);
}

/// Issue-time lint at one store size: each op submits and issues a new
/// version of the alternating policy.
BenchResult bench_pap_issue(const Scale& s, const std::string& name, ChurnRepository& churn) {
  auto r = run_bench(name, churn_ops(s), 1, [&](std::uint64_t i) { churn.reissue(i); });
  r.counters["policies"] = static_cast<double>(churn.repo.all_issued().size());
  r.counters["failed_issues"] = static_cast<double>(churn.failures);
  r.counters["error_findings"] =
      static_cast<double>(churn.repo.lint_report()->error_count);
  return r;
}

/// Snapshot publication at one store size: each op re-issues the
/// alternating policy, unmeasured, then measures one publish_from of the
/// whole repository, as a PAP publishes after every change.
BenchResult bench_snapshot_publish(const Scale& s, const std::string& name,
                                   ChurnRepository& churn) {
  runtime::SnapshotPublisher publisher;
  const std::uint64_t ops = churn_ops(s);
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(ops));
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t locks = 0;
  double total_ns = 0;
  std::size_t policies = 0;
  for (std::uint64_t i = 0; i <= ops; ++i) {  // op 0 warms up
    churn.reissue(i);
    const HookCounts before;
    const auto t0 = Clock::now();
    policies = publisher.publish_from(churn.repo)->store()->size();
    const auto t1 = Clock::now();
    const HookCounts after;
    if (i == 0) continue;
    const auto ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    samples.push_back(ns);
    total_ns += ns;
    allocs += after.allocs - before.allocs;
    bytes += after.bytes - before.bytes;
    locks += after.locks - before.locks;
  }
  BenchResult r;
  r.name = name;
  r.iterations = ops;
  const double n = static_cast<double>(ops);
  r.mean_ns = total_ns / n;
  r.ops_per_sec = total_ns > 0 ? 1e9 * n / total_ns : 0;
  r.p50_ns = percentile(samples, 0.50);
  r.p90_ns = percentile(samples, 0.90);
  r.p99_ns = percentile(samples, 0.99);
  r.allocs_per_op = static_cast<double>(allocs) / n;
  r.bytes_per_op = static_cast<double>(bytes) / n;
  r.locks_per_op = kCountsLocks ? static_cast<double>(locks) / n : -1;
  r.counters["policies"] = static_cast<double>(policies);
  r.counters["failed_issues"] = static_cast<double>(churn.failures);
  return r;
}

void print_row(const BenchResult& r) {
  std::printf("%-32s %12.0f ops/s  p50 %8.0f ns  p99 %8.0f ns  %7.2f allocs/op  "
              "%7.3g locks/op\n",
              r.name.c_str(), r.ops_per_sec, r.p50_ns, r.p99_ns, r.allocs_per_op,
              r.locks_per_op);
}

/// Reads one benchmark's ops_per_sec out of a previously written report
/// (the fixed mdac-bench-v1 layout report.hpp emits — a full JSON parser
/// would be overkill for a file we write ourselves). Returns 0 when the
/// file or the row is missing.
double baseline_ops_per_sec(const std::string& path, const std::string& bench) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  const std::string needle = "\"name\": \"" + bench + "\",";
  const auto at = text.find(needle);
  if (at == std::string::npos) return 0;
  const std::string field = "\"ops_per_sec\": ";
  const auto ops = text.find(field, at);
  if (ops == std::string::npos) return 0;
  return std::strtod(text.c_str() + ops + field.size(), nullptr);
}

/// One gated benchmark pair: the gated row is compared as a *ratio* to
/// an in-binary reference row measured in the same process under the
/// same load (absolute ops/sec move with machine load; the ratio only
/// moves with code). `run_gated`/`run_reference` re-measure a
/// below-floor first sample before failing.
struct GateSpec {
  const char* gated;
  const char* reference;
  BenchResult (*run_gated)(const Scale&);
  BenchResult (*run_reference)(const Scale&);
  /// Cores the gate needs to be meaningful (0 = always). The
  /// thread-scaling gate compares 8 workers against 1; on a host with
  /// fewer cores that ratio measures scheduler oversubscription, not
  /// code, so the gate skips itself rather than flaking.
  unsigned min_cores = 0;
  /// Additional tolerance on top of --max-regress, for gates whose
  /// ratio is workload-size dependent: the smoke workload shrinks the
  /// set-tree to 16 leaf policies while the committed baseline measures
  /// 192, which systematically compresses the compiled/interpreted
  /// ratio. The slack keeps the gate calm across that scale gap while a
  /// real regression (ratio collapsing toward 1.0) still trips it.
  double extra_slack = 0.0;
};

/// CPUs this process may run on: its affinity mask, so a run under
/// `taskset` counts the cores it really has, not the host's.
unsigned usable_cpus() {
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
#endif
  return std::thread::hardware_concurrency();
}

/// The bench-smoke regression gate (wired up in CMakeLists): fails the
/// run if a gated row regressed >max_regress against the committed
/// baseline. Four rows are gated: the cached-hit path against the
/// seed's cache implementation, the uncached compiled evaluate path
/// against the interpreted AST path (PR 3), the compiled set-tree path
/// against its interpreted reference (ISSUE 5), and — since PR 4 — the
/// 8-worker engine row against the 1-worker engine row (thread scaling:
/// the ratio is machine-load independent, and on a multi-core host a
/// serialisation bug collapses it immediately).
int check_regression(const Scale& scale, const Report& report,
                     const std::string& baseline_path, double max_regress) {
  static constexpr GateSpec kGates[] = {
      {"cached_decision_hit", "cached_decision_hit_legacy", &bench_cached_hit,
       &bench_cached_hit_legacy},
      {"pdp_evaluate_indexed", "pdp_evaluate_interpreted", &bench_pdp_evaluate,
       &bench_pdp_evaluate_interpreted},
      {"pdp_evaluate_set_tree", "pdp_evaluate_set_tree_interpreted",
       &bench_pdp_evaluate_set_tree, &bench_pdp_evaluate_set_tree_interpreted,
       /*min_cores=*/0, /*extra_slack=*/0.20},
      {"pdp_mt_workers_8", "pdp_mt_workers_1", &bench_pdp_mt_8, &bench_pdp_mt_1,
       /*min_cores=*/8},
  };

  int failures = 0;
  for (const GateSpec& gate : kGates) {
    if (gate.min_cores > 0 && usable_cpus() < gate.min_cores) {
      std::printf("regression gate: %s needs >=%u cores (have %u); skipping\n",
                  gate.gated, gate.min_cores, usable_cpus());
      continue;
    }
    const double baseline_gated = baseline_ops_per_sec(baseline_path, gate.gated);
    const double baseline_ref = baseline_ops_per_sec(baseline_path, gate.reference);
    if (baseline_gated <= 0 || baseline_ref <= 0) {
      std::printf("regression gate: no '%s'/'%s' baseline in %s; skipping\n",
                  gate.gated, gate.reference, baseline_path.c_str());
      continue;
    }
    double gated = 0;
    double reference = 0;
    for (const BenchResult& r : report.results()) {
      if (r.name == gate.gated) gated = r.ops_per_sec;
      if (r.name == gate.reference) reference = r.ops_per_sec;
    }
    if (reference <= 0) continue;

    const double baseline_ratio = baseline_gated / baseline_ref;
    const double floor = baseline_ratio * (1.0 - max_regress - gate.extra_slack);
    double ratio = gated / reference;
    for (int attempt = 0; ratio < floor && attempt < 2; ++attempt) {
      std::printf("regression gate: %s ratio %.2f below floor %.2f; re-measuring\n",
                  gate.gated, ratio, floor);
      const double g = gate.run_gated(scale).ops_per_sec;
      const double ref = gate.run_reference(scale).ops_per_sec;
      if (ref > 0) ratio = std::max(ratio, g / ref);
    }
    std::printf(
        "regression gate: %s %.2fx the reference row vs baseline %.2fx (floor "
        "%.2fx; absolute %.0f vs baseline %.0f ops/s)\n",
        gate.gated, ratio, baseline_ratio, floor, gated, baseline_gated);
    if (ratio < floor) {
      std::fprintf(stderr,
                   "FAIL: %s regressed %.1f%% against %s (max allowed %.0f%%)\n",
                   gate.gated, 100.0 * (1.0 - ratio / baseline_ratio),
                   baseline_path.c_str(), 100.0 * max_regress);
      ++failures;
    }
  }
  return failures > 0 ? 1 : 0;
}

/// The tracing hot-path cost contract, checked in-binary (no
/// baseline file needed — both rows are measured in the same process
/// under the same load): tracing compiled in with sampling OFF stays
/// within 3% of the untraced 8-worker cached row. Only meaningful with
/// >= 8 cores — below that, both sides measure the scheduler, so the
/// check skips itself. A below-floor first sample is re-measured before
/// failing (machine noise between the two process phases, not code, is
/// the usual cause).
int check_traced_overhead_floor(const Scale& scale, const Report& report) {
  constexpr const char* kGated = "pdp_mt_traced_off";
  constexpr const char* kReference = "pdp_mt_cached_workers_8";
  constexpr double kMinRatio = 0.97;
  constexpr unsigned kMinCores = 8;
  if (usable_cpus() < kMinCores) {
    std::printf("speedup floor: %s needs >=%u cores (have %u); skipping\n", kGated,
                kMinCores, usable_cpus());
    return 0;
  }
  double gated = 0;
  double reference = 0;
  for (const BenchResult& r : report.results()) {
    if (r.name == kGated) gated = r.ops_per_sec;
    if (r.name == kReference) reference = r.ops_per_sec;
  }
  if (reference <= 0) return 0;
  double ratio = gated / reference;
  for (int attempt = 0; ratio < kMinRatio && attempt < 2; ++attempt) {
    std::printf("speedup floor: %s ratio %.2f below %.2f; re-measuring\n", kGated, ratio,
                kMinRatio);
    const double g = bench_pdp_mt_traced_off(scale).ops_per_sec;
    const double ref = bench_pdp_mt_cached_8(scale).ops_per_sec;
    if (ref > 0) ratio = std::max(ratio, g / ref);
  }
  std::printf("speedup floor: %s %.2fx the %s row (floor %.2fx)\n", kGated, ratio,
              kReference, kMinRatio);
  if (ratio < kMinRatio) {
    std::fprintf(stderr, "FAIL: %s is %.2fx %s (floor %.2fx)\n", kGated, ratio, kReference,
                 kMinRatio);
    return 1;
  }
  return 0;
}

/// One row held to an exact count per op.
struct ExactCount {
  const char* row;
  double per_op;
};

/// Fails the run unless every listed row reads exactly its count of
/// `unit` (`field`) per op. Lock and allocation counts do not depend on
/// core count or machine load, so these gates hold on any host.
int check_exact_counts(const Report& report, const char* gate, const char* unit,
                       double BenchResult::*field, std::span<const ExactCount> rows) {
  int failures = 0;
  for (const ExactCount& expected : rows) {
    for (const BenchResult& r : report.results()) {
      if (r.name != expected.row) continue;
      std::printf("%s gate: %s %.6g %s/op (must be %g)\n", gate, expected.row, r.*field,
                  unit, expected.per_op);
      if (r.*field != expected.per_op) {
        std::fprintf(stderr, "FAIL: %s takes %.6g %s per op (must be %g)\n", expected.row,
                     r.*field, unit, expected.per_op);
        ++failures;
      }
    }
  }
  return failures > 0 ? 1 : 0;
}

/// The decision cache's read path (PEP-side, multi-threaded, and behind
/// the engine's L1) is lock-free by design: no lock per cached hit.
/// Skips in sanitized builds, which do not count locks.
int check_lock_free_hits(const Report& report) {
  static constexpr ExactCount kLockFree[] = {{"cached_decision_hit", 0},
                                             {"cached_decision_hit_mt", 0},
                                             {"pdp_mt_cached_workers_1", 0}};
  if (!kCountsLocks) {
    std::printf("lock gate: sanitized build counts no locks; skipping\n");
    return 0;
  }
  return check_exact_counts(report, "lock", "locks", &BenchResult::locks_per_op, kLockFree);
}

/// Exact allocations per op; the operator-new hook counts in every build,
/// sanitized ones included. 4 for a cold_wire decode is its
/// RequestContext's entries array growing 1 -> 2 -> 4 -> 8 (every bag
/// holds its one value inline); 1 for a request copy is its entries array,
/// and 2 once the subject's role bag holds three values (plus its vector).
/// The closed loop's 1 is its request copy: the worker evaluates into
/// scratch it keeps across batches.
int check_exact_allocs(const Report& report) {
  static constexpr ExactCount kExact[] = {{"pdp_evaluate_indexed", 0},
                                          {"cached_decision_hit", 0},
                                          {"wire_request_decode", 4},
                                          {"request_copy_cross_thread", 1},
                                          {"request_copy_multi_role", 2},
                                          {"pdp_mt_closed_loop_1", 1}};
  return check_exact_counts(report, "alloc", "allocs", &BenchResult::allocs_per_op, kExact);
}

/// A busy engine leaves requests to awake workers instead of waking a
/// parked one per few submits: pdp_mt_closed_loop_64 makes at most
/// kMaxPerOp wakes and parks per op. Counts, not speeds, so the gate does
/// not move with core count the way ops/s does. Measured on a 4-vCPU host
/// over 14 smoke runs each: 0.07-0.18 wakes per op when every submit that
/// saw a parked worker woke it, 0.003-0.03 with deferral. A host stall
/// stretches batches past the engine's 50 us freshness window, so a reading
/// over the bound is re-measured twice before failing, as the ratio gates
/// are. Skips in sanitized builds, where instrumented batches outlast the
/// window on every run (0.031-0.032 under ASan), and below three usable
/// CPUs (the submitter and both workers): workers sharing a core with
/// the submitter park between its time slices (0.319 per op on one core),
/// so the count would measure the scheduler, not the deferral rule.
int check_wake_counts(const Scale& scale, const Report& report) {
  constexpr double kMaxPerOp = 0.04;
  constexpr unsigned kMinCpus = 3;
  if (kSanitized) {
    std::printf("wake gate: sanitized build; skipping\n");
    return 0;
  }
  if (const unsigned cpus = usable_cpus(); cpus < kMinCpus) {
    std::printf("wake gate: needs >=%u usable CPUs (have %u); skipping\n", kMinCpus, cpus);
    return 0;
  }
  for (const BenchResult& first : report.results()) {
    if (first.name != "pdp_mt_closed_loop_64") continue;
    const auto worst = [](const BenchResult& r) {
      return std::max(r.counters.at("wakes_per_op"), r.counters.at("parks_per_op"));
    };
    double reading = worst(first);
    for (int attempt = 0; reading > kMaxPerOp && attempt < 2; ++attempt) {
      std::printf("wake gate: %s %.4g per op over %g; re-measuring\n", first.name.c_str(),
                  reading, kMaxPerOp);
      reading = std::min(reading, worst(bench_pdp_mt_closed_loop(scale, 2, 64)));
    }
    std::printf("wake gate: %s %.4g wakes or parks per op (bound %g)\n", first.name.c_str(),
                reading, kMaxPerOp);
    if (reading > kMaxPerOp) {
      std::fprintf(stderr, "FAIL: %s makes %.4g wakes or parks per op (bound %g)\n",
                   first.name.c_str(), reading, kMaxPerOp);
      return 1;
    }
  }
  return 0;
}

/// Issue-time lint costs what the candidate touches, not the store:
/// allocations per issue into the 2k store stay within 2x of the 200
/// store's, and an issue into the 2k store takes at most 1/20 of one
/// whole-corpus lint of the same corpus (analysis_lint_2k, same run).
/// Neither side depends on core count; both compare rows of one process.
int check_pap_issue_scaling(const Report& report) {
  const BenchResult* small = nullptr;
  const BenchResult* large = nullptr;
  const BenchResult* lint = nullptr;
  for (const BenchResult& r : report.results()) {
    if (r.name == "pap_issue_200") small = &r;
    if (r.name == "pap_issue_2k") large = &r;
    if (r.name == "analysis_lint_2k") lint = &r;
  }
  if (small == nullptr || large == nullptr || lint == nullptr) return 0;
  int failures = 0;
  const auto count = [&](const char* what, double value, double bound) {
    std::printf("issue gate: %s %.4g (bound %.4g)\n", what, value, bound);
    if (value > bound) {
      std::fprintf(stderr, "FAIL: %s %.4g exceeds %.4g\n", what, value, bound);
      ++failures;
    }
  };
  for (const BenchResult* r : {small, large}) {
    const auto it = r->counters.find("failed_issues");
    count((r->name + " failed issues").c_str(), it->second, 0);
  }
  count("pap_issue_2k allocs/op", large->allocs_per_op, 2 * small->allocs_per_op);
  count("pap_issue_2k mean ns", large->mean_ns, lint->mean_ns / 20);
  return failures > 0 ? 1 : 0;
}

}  // namespace

void benchmark_sink(const core::Decision& d) {
  static std::atomic<int> sink{0};
  sink.fetch_add(static_cast<int>(d.type), std::memory_order_relaxed);
}

int run(int argc, char** argv) {
  Scale scale;
  std::string out = "BENCH_pdp.json";
  std::string workload = "full";
  std::string baseline;
  double max_regress = 0.20;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      workload = "smoke";
      scale.policies = 20;
      scale.iterations = 2'000;
      scale.cache_iterations = 10'000;
      scale.threads = 2;
      scale.lint_policies = 1000;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline = argv[++i];
    } else if (std::strcmp(argv[i], "--max-regress") == 0 && i + 1 < argc) {
      max_regress = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--out FILE] [--baseline FILE] "
                   "[--max-regress FRACTION]\n",
                   argv[0]);
      return 2;
    }
  }

  Report report;
  for (auto* bench : {&bench_pdp_evaluate, &bench_pdp_evaluate_interpreted,
                      &bench_pdp_evaluate_set_tree,
                      &bench_pdp_evaluate_set_tree_interpreted,
                      &bench_pdp_evaluate_batch, &bench_pdp_evaluate_noindex,
                      &bench_cached_hit, &bench_cached_hit_legacy,
                      &bench_cached_churn, &bench_request_key_fingerprint,
                      &bench_request_key_legacy, &bench_wire_request_decode,
                      &bench_wire_decision_encode, &bench_request_copy_cross_thread,
                      &bench_request_copy_multi_role}) {
    BenchResult r = (*bench)(scale);
    print_row(r);
    report.add(std::move(r));
  }
  for (const int n_domains : {1, 8}) {
    BenchResult r = bench_pdp_evaluate_domains(scale, n_domains);
    print_row(r);
    report.add(std::move(r));
  }
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    BenchResult r = bench_pdp_mt(scale, workers);
    print_row(r);
    report.add(std::move(r));
  }
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    BenchResult r = bench_pdp_mt_cached(scale, workers);
    print_row(r);
    report.add(std::move(r));
  }
  for (const auto& [workers, window] : {std::pair<std::size_t, std::uint64_t>{1, 1},
                                        std::pair<std::size_t, std::uint64_t>{2, 64}}) {
    BenchResult r = bench_pdp_mt_closed_loop(scale, workers, window);
    print_row(r);
    report.add(std::move(r));
  }
  for (auto* bench : {&bench_pdp_mt_traced_off, &bench_pdp_mt_traced_sampled}) {
    BenchResult r = (*bench)(scale);
    print_row(r);
    report.add(std::move(r));
  }
  for (auto* bench : {&bench_pdp_engine_saturation, &bench_cache_mt}) {
    BenchResult r = (*bench)(scale);
    print_row(r);
    report.add(std::move(r));
  }
  for (const std::string& plan : net::named_fault_plan_names()) {
    BenchResult r = bench_fault_plan(scale, plan);
    print_row(r);
    report.add(std::move(r));
  }
  {
    BenchResult r = bench_analysis_lint(scale);
    print_row(r);
    report.add(std::move(r));
  }
  for (const auto& [size, policies] : {std::pair{"200", scale.lint_policies / 10},
                                       std::pair{"2k", scale.lint_policies}}) {
    ChurnRepository churn(scale, policies);
    for (BenchResult r : {bench_pap_issue(scale, std::string("pap_issue_") + size, churn),
                          bench_snapshot_publish(
                              scale, std::string("snapshot_publish_") + size, churn)}) {
      print_row(r);
      report.add(std::move(r));
    }
  }

  if (!report.write(out, workload)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu benchmarks, workload=%s)\n", out.c_str(),
              report.results().size(), workload.c_str());

  // The mt rows' warmup differential check is a correctness gate, not a
  // counter: any engine decision that differed from the single-threaded
  // Pdp fails the whole run (and with it the bench-smoke ctest).
  int failures = 0;
  for (const BenchResult& r : report.results()) {
    const auto it = r.counters.find("differential_mismatches");
    if (it != r.counters.end() && it->second > 0) {
      std::fprintf(stderr, "FAIL: %s: %.0f decisions differ from single-threaded Pdp\n",
                   r.name.c_str(), it->second);
      failures = 1;
    }
  }
  failures |= check_traced_overhead_floor(scale, report);
  failures |= check_lock_free_hits(report);
  failures |= check_exact_allocs(report);
  failures |= check_wake_counts(scale, report);
  failures |= check_pap_issue_scaling(report);
  if (!baseline.empty()) {
    failures |= check_regression(scale, report, baseline, max_regress);
  }
  return failures;
}

}  // namespace mdac::bench

int main(int argc, char** argv) { return mdac::bench::run(argc, argv); }
