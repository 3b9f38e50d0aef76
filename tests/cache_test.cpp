#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cache/decision_cache.hpp"
#include "common/clock.hpp"

namespace mdac::cache {
namespace {

using core::AttributeValue;
using core::Category;
using core::Decision;

// ---------------------------------------------------------------------
// DecisionCache with a TTL (the PEP-side shape), on a ManualClock
// ---------------------------------------------------------------------

DecisionCache::TwoLevelConfig ttl_config(const common::Clock& clock, common::Duration ttl,
                                         std::size_t capacity = 4096) {
  return {.capacity = capacity, .ttl = ttl, .clock = &clock};
}

TEST(DecisionCacheTtlTest, ExpiresAfterTtl) {
  common::ManualClock clock;
  DecisionCache cache(ttl_config(clock, 100));
  const auto req = core::RequestContext::make("alice", "doc", "read");
  cache.insert(req, Decision::permit());
  clock.advance(99);
  EXPECT_TRUE(cache.lookup(req).has_value());
  clock.advance(1);  // now exactly at expiry
  EXPECT_FALSE(cache.lookup(req).has_value());
  // The expired slot is reclaimed by the next insert that needs it, not
  // by the (lock-free, counter-free) lookup.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().expirations, 0u);
}

TEST(DecisionCacheTtlTest, InsertRefreshExtendsExpiry) {
  common::ManualClock clock;
  DecisionCache cache(ttl_config(clock, 100));
  const auto req = core::RequestContext::make("alice", "doc", "read");
  cache.insert(req, Decision::permit());
  clock.advance(90);
  cache.insert(req, Decision::deny());  // refresh TTL and value
  clock.advance(50);                    // past the first expiry
  const auto hit = cache.lookup(req);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->is_deny());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().updates, 1u);
  clock.advance(50);  // 100 after the refresh
  EXPECT_FALSE(cache.lookup(req).has_value());
}

TEST(DecisionCacheTtlTest, CapacityBoundsEntries) {
  common::ManualClock clock;
  DecisionCache cache(ttl_config(clock, 1000, /*capacity=*/16));
  constexpr std::size_t kDistinct = 100;
  for (std::size_t i = 0; i < kDistinct; ++i) {
    const std::string subject = std::string("u").append(std::to_string(i));
    cache.insert(core::RequestContext::make(subject, "doc", "read"), Decision::permit());
  }
  EXPECT_LE(cache.size(), 16u);
  const SeqlockCacheStats stats = cache.stats();
  EXPECT_EQ(stats.inserts, kDistinct);
  EXPECT_EQ(stats.evictions, kDistinct - cache.size());  // every live displacement
  EXPECT_EQ(stats.expirations, 0u);
}

TEST(DecisionCacheTtlTest, InvalidateAllDropsEverything) {
  common::ManualClock clock;
  DecisionCache cache(ttl_config(clock, 100));
  const auto a = core::RequestContext::make("alice", "doc", "read");
  const auto b = core::RequestContext::make("bob", "doc", "read");
  cache.insert(a, Decision::permit());
  cache.insert(b, Decision::deny());
  cache.invalidate_all();
  EXPECT_FALSE(cache.lookup(a).has_value());
  EXPECT_FALSE(cache.lookup(b).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

TEST(DecisionCacheTtlTest, TtlWithoutClockIsRejected) {
  EXPECT_THROW(DecisionCache(DecisionCache::TwoLevelConfig{.ttl = 100}),
               std::invalid_argument);
  common::ManualClock clock;
  EXPECT_THROW(DecisionCache(ttl_config(clock, -1)), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Canonical request keys
// ---------------------------------------------------------------------

TEST(CanonicalKeyTest, EqualRequestsSameKey) {
  auto a = core::RequestContext::make("alice", "doc", "read");
  auto b = core::RequestContext::make("alice", "doc", "read");
  EXPECT_EQ(canonical_request_key(a), canonical_request_key(b));
}

TEST(CanonicalKeyTest, BagOrderDoesNotMatter) {
  core::RequestContext a;
  a.add(Category::kSubject, "role", AttributeValue("x"));
  a.add(Category::kSubject, "role", AttributeValue("y"));
  core::RequestContext b;
  b.add(Category::kSubject, "role", AttributeValue("y"));
  b.add(Category::kSubject, "role", AttributeValue("x"));
  EXPECT_EQ(canonical_request_key(a), canonical_request_key(b));
}

TEST(CanonicalKeyTest, DifferentRequestsDifferentKeys) {
  const auto a = core::RequestContext::make("alice", "doc", "read");
  const auto b = core::RequestContext::make("alice", "doc", "write");
  const auto c = core::RequestContext::make("bob", "doc", "read");
  EXPECT_NE(canonical_request_key(a), canonical_request_key(b));
  EXPECT_NE(canonical_request_key(a), canonical_request_key(c));
}

TEST(CanonicalKeyTest, TypeIsPartOfKey) {
  core::RequestContext a;
  a.add(Category::kSubject, "x", AttributeValue("1"));
  core::RequestContext b;
  b.add(Category::kSubject, "x", AttributeValue(std::int64_t{1}));
  EXPECT_NE(canonical_request_key(a), canonical_request_key(b));
}

// ---------------------------------------------------------------------
// DecisionCache + CachingEvaluator
// ---------------------------------------------------------------------

TEST(DecisionCacheTest, RoundTripWithObligations) {
  DecisionCache cache(DecisionCache::TwoLevelConfig{});
  const auto req = core::RequestContext::make("alice", "doc", "read");
  Decision d = Decision::permit();
  d.obligations.push_back(core::ObligationInstance{"audit", {}});
  cache.insert(req, d);
  const auto hit = cache.lookup(req);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, d);
}

TEST(CachingEvaluatorTest, SecondCallServedFromCache) {
  DecisionCache cache(DecisionCache::TwoLevelConfig{});
  int backend_calls = 0;
  CachingEvaluator evaluate(cache, [&](const core::RequestContext&) {
    ++backend_calls;
    return Decision::permit();
  });

  const auto req = core::RequestContext::make("alice", "doc", "read");
  EXPECT_TRUE(evaluate(req).is_permit());
  EXPECT_TRUE(evaluate(req).is_permit());
  EXPECT_EQ(backend_calls, 1);
}

TEST(CachingEvaluatorTest, IndeterminateAndNaNotCached) {
  DecisionCache cache(DecisionCache::TwoLevelConfig{});
  int backend_calls = 0;
  CachingEvaluator evaluate(cache, [&](const core::RequestContext&) {
    ++backend_calls;
    return backend_calls < 3 ? Decision::not_applicable() : Decision::permit();
  });

  const auto req = core::RequestContext::make("alice", "doc", "read");
  EXPECT_TRUE(evaluate(req).is_not_applicable());
  EXPECT_TRUE(evaluate(req).is_not_applicable());
  EXPECT_EQ(backend_calls, 2);  // NA decisions were not cached
  EXPECT_TRUE(evaluate(req).is_permit());
  EXPECT_TRUE(evaluate(req).is_permit());
  EXPECT_EQ(backend_calls, 3);  // permit was cached
}

TEST(CachingEvaluatorTest, PolicyChangeInvalidationRestoresFreshness) {
  DecisionCache cache(DecisionCache::TwoLevelConfig{});
  Decision current = Decision::permit();
  CachingEvaluator evaluate(cache,
                            [&](const core::RequestContext&) { return current; });

  const auto req = core::RequestContext::make("alice", "doc", "read");
  EXPECT_TRUE(evaluate(req).is_permit());
  current = Decision::deny();  // policy changed behind the cache's back
  EXPECT_TRUE(evaluate(req).is_permit());  // stale!
  cache.invalidate_all();                  // change notification arrives
  EXPECT_TRUE(evaluate(req).is_deny());
}

TEST(StalenessProbeTest, CountsFalsePermitsAndDenies) {
  StalenessProbe probe;
  probe.observe(Decision::permit(), Decision::permit());
  probe.observe(Decision::permit(), Decision::deny());  // false permit
  probe.observe(Decision::deny(), Decision::permit());  // false deny
  probe.observe(Decision::deny(), Decision::not_applicable());
  EXPECT_EQ(probe.agreements, 2u);
  EXPECT_EQ(probe.false_permits, 1u);
  EXPECT_EQ(probe.false_denies, 1u);
}

}  // namespace
}  // namespace mdac::cache
