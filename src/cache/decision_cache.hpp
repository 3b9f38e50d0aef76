// Decision caching (paper §3.2, "Communication Performance", citing Woo
// & Lam's caching proposal [61]).
//
// One implementation: the slot table (seqlock_cache.hpp), whose hit path
// is lock-free. Its key is the request's 128-bit fingerprint
// (request_key.hpp) plus the snapshot version the decision was computed
// under — so republication implicitly invalidates, and
// `evict_older_than` reclaims entries of withdrawn versions. Two kinds
// of caller share the DecisionCache facade over it:
//
//   * The engine (runtime/engine.hpp) keys by snapshot version and
//     fronts it with a private table per worker (a
//     `WorkerDecisionCache`, the same table with a no-op lock) —
//     together, the two-level decision cache. Both levels honour the
//     facade's TTL, and an L2 hit promoted into an L1 keeps its expiry.
//   * PEP-side callers (`CachingEvaluator`, `pep::EnforcementPoint`)
//     store under version 0 and usually set a TTL: with no version
//     stream, time is what bounds staleness.
//
// The paper's warning — stale entries cause false permits / false denies
// — is exactly what experiment C1 quantifies, using `StalenessProbe` to
// compare cached answers against a fresh oracle.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "cache/request_key.hpp"
#include "cache/seqlock_cache.hpp"
#include "common/clock.hpp"
#include "core/decision.hpp"
#include "core/request.hpp"

namespace mdac::obs {
class Registry;
}

namespace mdac::cache {

/// Canonical string form of a request (deterministic: attributes are
/// stored sorted). Two semantically equal requests produce equal keys.
/// Kept for serialisation/diagnostics; the cache itself keys on the
/// allocation-free `fingerprint()`.
std::string canonical_request_key(const core::RequestContext& request);

class DecisionCache {
 public:
  struct TwoLevelConfig {
    std::size_t capacity = 4096;  // total slots
    /// Entry lifetime in ms; 0 = entries never expire (the engine's
    /// version-keyed use, which requires it).
    common::Duration ttl = 0;
    /// Time source for `ttl`; not owned, required when ttl > 0.
    const common::Clock* clock = nullptr;
  };

  /// Throws std::invalid_argument for a negative ttl or a positive one
  /// without a clock.
  explicit DecisionCache(const TwoLevelConfig& config)
      : store_(config.capacity, config.ttl, config.clock) {}

  // ---- unversioned API (PEP-side callers; stored under version 0) ----

  std::optional<core::Decision> lookup(const core::RequestContext& request) {
    return lookup(fingerprint(request));
  }

  void insert(const core::RequestContext& request, const core::Decision& decision) {
    insert(fingerprint(request), 0, decision);
  }

  /// Key-level overloads so callers probing and then filling (the
  /// CachingEvaluator / PEP shape) fingerprint the request only once.
  std::optional<core::Decision> lookup(const RequestKey& key) {
    core::Decision d;
    if (store_.lookup(key, 0, d)) return d;
    return std::nullopt;
  }

  void insert(const RequestKey& key, const core::Decision& decision) {
    insert(key, 0, decision);
  }

  // ---- versioned API (the engine) ----

  /// Lock-free. On a hit decodes into `out`; seqlock read retries are
  /// *added* to `*l2_retries`, and the entry's expiry (clock ms, 0 =
  /// never) is stored in `*expires_at`, when non-null.
  bool lookup(const RequestKey& key, std::uint64_t version, core::Decision& out,
              std::uint64_t* l2_retries = nullptr,
              std::uint64_t* expires_at = nullptr) const {
    return store_.lookup(key, version, out, l2_retries, expires_at);
  }

  /// False if the decision is too large to cache.
  bool insert(const RequestKey& key, std::uint64_t version, const core::Decision& decision) {
    return store_.insert(key, version, decision);
  }

  /// Version sweep: drops every entry cached under a snapshot version
  /// < `version`. Returns the number of entries reclaimed. The engine
  /// calls this on snapshot adoption with the minimum version any
  /// worker still serves.
  std::size_t evict_older_than(std::uint64_t version) {
    return store_.evict_older_than(version);
  }

  /// Policy-change notification: drop everything.
  void invalidate_all() { store_.clear(); }

  /// Writer-side counters, a snapshot, not a live reference. The
  /// lock-free read path deliberately counts nothing shared: callers
  /// count their own hits (the engine in its per-worker metrics, a
  /// CachingEvaluator caller by counting evaluator calls).
  SeqlockCacheStats stats() const { return store_.stats(); }

  std::size_t size() const { return store_.size(); }
  common::Duration ttl() const { return store_.ttl(); }
  const common::Clock* clock() const { return store_.clock(); }

  /// Registers the cache's counters (mdac_cache_*: the writer-side
  /// counters and size) with a metrics registry; returns the collector
  /// id. The cache must outlive the registry or be unregistered first.
  std::uint64_t register_metrics(obs::Registry& registry) const;

 private:
  SeqlockDecisionCache store_;
};

/// Wraps an evaluation function with the cache: the shape a PEP uses.
/// Single-level: a PEP's threads are not the engine's workers; they have
/// no worker-local state to hang an L1 off, so they probe the shared slot
/// table directly.
class CachingEvaluator {
 public:
  using Evaluate = std::function<core::Decision(const core::RequestContext&)>;

  CachingEvaluator(DecisionCache& cache, Evaluate evaluate)
      : cache_(cache), evaluate_(std::move(evaluate)) {}

  core::Decision operator()(const core::RequestContext& request) {
    return evaluate_with_probe(request, nullptr);
  }

  /// As operator(), additionally reporting whether the cache served the
  /// decision — the distinction a PEP explain-trace's cache-probe span
  /// records.
  core::Decision evaluate_with_probe(const core::RequestContext& request,
                                     bool* cache_hit) {
    const RequestKey key = fingerprint(request);
    if (auto hit = cache_.lookup(key)) {
      if (cache_hit != nullptr) *cache_hit = true;
      return *hit;
    }
    if (cache_hit != nullptr) *cache_hit = false;
    core::Decision d = evaluate_(request);
    // Only definitive decisions are cacheable; Indeterminate may be a
    // transient infrastructure failure and NotApplicable may flip when
    // new policies arrive (conservative choice).
    if (d.is_permit() || d.is_deny()) cache_.insert(key, d);
    return d;
  }

 private:
  DecisionCache& cache_;
  Evaluate evaluate_;
};

/// Compares cached decisions against a fresh oracle, counting the
/// paper's two failure modes of caching.
struct StalenessProbe {
  std::size_t false_permits = 0;  // cache said permit, oracle says deny/NA
  std::size_t false_denies = 0;   // cache said deny, oracle says permit
  std::size_t agreements = 0;

  void observe(const core::Decision& cached, const core::Decision& fresh);
};

}  // namespace mdac::cache
