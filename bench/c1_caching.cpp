// C1 — decision caching at the PEP (paper §3.2, "Communication
// Performance", Woo & Lam's caching proposal [61]).
//
// Series reported:
//   * hit ratio and backend-call reduction vs TTL, fixed policy churn
//   * the price of staleness: false permits / false denies observed when
//     cached decisions are compared against a fresh-oracle PDP
//   * hit ratio vs working-set size at fixed capacity (replacement
//     pressure on the 4-way set-associative slot table)
//
// Hit ratios are counted here, at the caller: the decision cache's
// lock-free read path keeps no shared hit counters.
//
// Expected shape: longer TTLs push the hit ratio towards the request
// distribution's re-reference rate, while stale-decision incidents rise
// roughly linearly with TTL x churn — exactly the trade-off the paper
// warns about ("information stored in the cache memory may not be
// up-to-date which may result in false positive or false negative access
// control decisions").
#include <benchmark/benchmark.h>

#include <memory>

#include "cache/decision_cache.hpp"
#include "common/rng.hpp"
#include "workload.hpp"

namespace {

using namespace mdac;

void BM_HitRatioAndStalenessVsTtl(benchmark::State& state) {
  const common::Duration ttl = state.range(0);
  constexpr int kPolicies = 50;
  constexpr int kRoles = 3;
  constexpr int kUsers = 20;

  double hit_ratio = 0;
  double false_rate = 0;
  for (auto _ : state) {
    common::ManualClock clock;
    auto store = bench::make_policy_store(kPolicies, kRoles);
    core::Pdp pdp(store);
    cache::DecisionCache decision_cache(
        cache::DecisionCache::TwoLevelConfig{.ttl = ttl, .clock = &clock});
    cache::StalenessProbe probe;
    common::Rng rng(42);

    std::size_t backend_calls = 0;
    std::size_t hits = 0;
    for (int step = 0; step < 2000; ++step) {
      clock.advance(1);
      // Policy churn: every 100 steps one policy flips its protected
      // resource's rules (simulated by replacing it with a deny-all).
      if (step % 100 == 99) {
        const int victim = static_cast<int>(rng.uniform_int(0, kPolicies - 1));
        core::Policy deny_all;
        deny_all.policy_id = "policy-" + std::to_string(victim);
        deny_all.target_spec.require(
            core::Category::kResource, core::attrs::kResourceId,
            core::AttributeValue("res-" + std::to_string(victim)));
        core::Rule r;
        r.id = "deny";
        r.effect = core::Effect::kDeny;
        deny_all.rules.push_back(std::move(r));
        store->add(std::move(deny_all));
        // NOTE: deliberately no cache invalidation — that is the
        // staleness being measured.
      }

      // Zipf-ish: a small set of users re-reads a small set of resources.
      core::RequestContext req = core::RequestContext::make(
          "user-" + std::to_string(rng.uniform_int(0, kUsers - 1)),
          "res-" + std::to_string(rng.uniform_int(0, kPolicies / 5)), "read");
      req.add(core::Category::kSubject, core::attrs::kRole,
              core::AttributeValue("role-" + std::to_string(rng.uniform_int(0, kRoles))));

      core::Decision served;
      if (auto hit = decision_cache.lookup(req)) {
        ++hits;
        served = *hit;
        probe.observe(*hit, pdp.evaluate(req));  // oracle comparison
      } else {
        served = pdp.evaluate(req);
        ++backend_calls;
        if (served.is_permit() || served.is_deny()) {
          decision_cache.insert(req, served);
        }
      }
      benchmark::DoNotOptimize(served);
    }
    hit_ratio = static_cast<double>(hits) / 2000.0;
    const double disagreements =
        static_cast<double>(probe.false_permits + probe.false_denies);
    false_rate = disagreements / 2000.0;
    benchmark::DoNotOptimize(backend_calls);
  }
  state.counters["ttl_ms"] = static_cast<double>(ttl);
  state.counters["hit_ratio"] = hit_ratio;
  state.counters["stale_decision_rate"] = false_rate;
}
// ttl 1 ms: every entry expires before the next request (one step = 1
// ms), the no-caching end of the series (ttl 0 would mean "never
// expires").
BENCHMARK(BM_HitRatioAndStalenessVsTtl)->Arg(1)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_LruPressure(benchmark::State& state) {
  // Working set larger than capacity: hit ratio collapses. At working
  // set == capacity, set-associative replacement already loses some hits
  // (buckets that draw more than 4 keys).
  const int working_set = static_cast<int>(state.range(0));
  common::ManualClock clock;
  cache::DecisionCache decision_cache(cache::DecisionCache::TwoLevelConfig{
      .capacity = 256, .ttl = 1'000'000, .clock = &clock});
  common::Rng rng(7);
  std::uint64_t hits = 0;
  for (auto _ : state) {
    const auto req = core::RequestContext::make(
        "user", "res-" + std::to_string(rng.uniform_int(0, working_set - 1)), "read");
    if (decision_cache.lookup(req)) {
      ++hits;
    } else {
      decision_cache.insert(req, core::Decision::permit());
    }
  }
  state.counters["working_set"] = working_set;
  state.counters["hit_ratio"] =
      static_cast<double>(hits) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_LruPressure)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_CacheLookupCost(benchmark::State& state) {
  // The raw cost of a hit (fingerprint, lock-free probe, decode).
  common::ManualClock clock;
  cache::DecisionCache decision_cache(
      cache::DecisionCache::TwoLevelConfig{.ttl = 1'000'000, .clock = &clock});
  const auto req = core::RequestContext::make("user", "res", "read");
  decision_cache.insert(req, core::Decision::permit());
  for (auto _ : state) {
    benchmark::DoNotOptimize(decision_cache.lookup(req));
  }
}
BENCHMARK(BM_CacheLookupCost);

void BM_InvalidationRestoresCorrectness(benchmark::State& state) {
  // With invalidate_all() wired to policy changes the stale rate is zero;
  // the cost is the post-invalidation miss burst, measured here.
  common::ManualClock clock;
  auto store = bench::make_policy_store(20, 3);
  core::Pdp pdp(store);
  cache::DecisionCache decision_cache(
      cache::DecisionCache::TwoLevelConfig{.ttl = 1'000'000, .clock = &clock});
  common::Rng rng(42);
  std::size_t misses_after_invalidation = 0;
  for (auto _ : state) {
    for (int i = 0; i < 20; ++i) {
      const auto req = bench::random_request(rng, 20, 3);
      if (!decision_cache.lookup(req)) {
        decision_cache.insert(req, pdp.evaluate(req));
      }
    }
    decision_cache.invalidate_all();
    const auto probe = bench::random_request(rng, 20, 3);
    if (!decision_cache.lookup(probe)) ++misses_after_invalidation;
  }
  state.counters["miss_burst"] = static_cast<double>(misses_after_invalidation) /
                                 static_cast<double>(state.iterations());
}
BENCHMARK(BM_InvalidationRestoresCorrectness);

}  // namespace
