// cache::DecisionSlotTable in both of its instantiations — the shared L2
// (SeqlockDecisionCache) and a worker's private L1 (WorkerDecisionCache)
// — the inline decision codec they store, and the DecisionCache facade.
// The single-thread cases are typed tests run over both lock types. The
// torn-read stress tests at the bottom are the seqlock protocol's
// consistency pin — run them under TSan (build-tsan) to check the atomic
// choreography, and under the plain tree to hammer actual tearing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "cache/decision_cache.hpp"
#include "cache/seqlock_cache.hpp"
#include "common/clock.hpp"

namespace mdac::cache {
namespace {

core::Decision stamped_permit(const std::string& tag) {
  core::Decision d = core::Decision::permit();
  core::ObligationInstance stamp;
  stamp.id = "stamp";
  stamp.assignments.emplace_back("version-tag", core::AttributeValue(tag));
  d.obligations.push_back(std::move(stamp));
  return d;
}

RequestKey key_of(std::uint64_t n) {
  // Distinct, well-spread synthetic fingerprints.
  return RequestKey{n * 0x9E3779B97F4A7C15ULL + 1, n ^ 0xA5A5A5A5A5A5A5A5ULL};
}

// ---------------------------------------------------------------------
// Decision codec
// ---------------------------------------------------------------------

TEST(DecisionCodecTest, RoundTripsEveryValueTypeAndDecisionShape) {
  core::Decision d;
  d.type = core::DecisionType::kDeny;
  d.extent = core::IndeterminateExtent::kNone;
  d.status = core::Status::okay();
  core::ObligationInstance o;
  o.id = "audit";
  o.assignments.emplace_back("who", core::AttributeValue("alice"));
  o.assignments.emplace_back("flag", core::AttributeValue(true));
  o.assignments.emplace_back("count", core::AttributeValue(std::int64_t{-42}));
  o.assignments.emplace_back("score", core::AttributeValue(2.5));
  o.assignments.emplace_back("at", core::AttributeValue(core::TimeValue{123456789}));
  d.obligations.push_back(o);
  core::ObligationInstance a;
  a.id = "advise";
  d.advice.push_back(a);

  std::uint8_t buf[SeqlockDecisionCache::kMaxEncodedBytes];
  const auto len = encode_decision(d, buf, sizeof buf);
  ASSERT_TRUE(len.has_value());
  core::Decision back;
  ASSERT_TRUE(decode_decision(buf, *len, back));
  EXPECT_EQ(back, d);

  // Indeterminate with extent + status message round-trips too.
  core::Decision ind = core::Decision::indeterminate(
      core::IndeterminateExtent::kDP, core::Status::missing_attribute("role"));
  const auto ind_len = encode_decision(ind, buf, sizeof buf);
  ASSERT_TRUE(ind_len.has_value());
  ASSERT_TRUE(decode_decision(buf, *ind_len, back));
  EXPECT_EQ(back, ind);
}

TEST(DecisionCodecTest, RejectsDecisionsThatDoNotFit) {
  core::Decision d = core::Decision::indeterminate(
      core::IndeterminateExtent::kDP,
      core::Status::processing_error(std::string(200, 'x')));
  std::uint8_t buf[SeqlockDecisionCache::kMaxEncodedBytes];
  EXPECT_FALSE(encode_decision(d, buf, sizeof buf).has_value());
  // With enough room the same decision encodes fine.
  std::uint8_t big[512];
  EXPECT_TRUE(encode_decision(d, big, sizeof big).has_value());
}

TEST(DecisionCodecTest, RejectsTruncatedAndOverlongInput) {
  std::uint8_t buf[SeqlockDecisionCache::kMaxEncodedBytes];
  const auto len = encode_decision(stamped_permit("v1"), buf, sizeof buf);
  ASSERT_TRUE(len.has_value());
  core::Decision out;
  EXPECT_TRUE(decode_decision(buf, *len, out));
  EXPECT_FALSE(decode_decision(buf, *len - 1, out));  // truncated
  EXPECT_FALSE(decode_decision(buf, 0, out));
  // Trailing garbage is not ours either (decode must consume exactly).
  std::uint8_t padded[SeqlockDecisionCache::kMaxEncodedBytes + 1];
  std::copy(buf, buf + *len, padded);
  padded[*len] = 0xFF;
  EXPECT_FALSE(decode_decision(padded, *len + 1, out));
}

// ---------------------------------------------------------------------
// DecisionSlotTable, both lock types
// ---------------------------------------------------------------------

template <class Table>
class SlotTableTest : public ::testing::Test {};

struct LockName {
  template <class Table>
  static std::string GetName(int /*index*/) {
    return std::is_same_v<Table, SeqlockDecisionCache> ? "SharedMutex" : "WorkerNoLock";
  }
};

using SlotTables = ::testing::Types<SeqlockDecisionCache, WorkerDecisionCache>;
TYPED_TEST_SUITE(SlotTableTest, SlotTables, LockName);

TYPED_TEST(SlotTableTest, LookupIsVersionScoped) {
  TypeParam cache(256);
  const RequestKey k = key_of(1);
  ASSERT_TRUE(cache.insert(k, /*version=*/1, stamped_permit("v1")));
  ASSERT_TRUE(cache.insert(k, /*version=*/2, stamped_permit("v2")));

  core::Decision out;
  std::uint64_t retries = 0;
  ASSERT_TRUE(cache.lookup(k, 1, out, &retries));
  EXPECT_EQ(out, stamped_permit("v1"));
  ASSERT_TRUE(cache.lookup(k, 2, out, &retries));
  EXPECT_EQ(out, stamped_permit("v2"));
  EXPECT_FALSE(cache.lookup(k, 3, out, &retries));
  EXPECT_FALSE(cache.lookup(key_of(2), 1, out, &retries));
  EXPECT_EQ(retries, 0u);  // no concurrent writers: reads never retry
  EXPECT_EQ(cache.size(), 2u);

  // Same (key, version) refreshes in place.
  ASSERT_TRUE(cache.insert(k, 2, stamped_permit("v2b")));
  ASSERT_TRUE(cache.lookup(k, 2, out));
  EXPECT_EQ(out, stamped_permit("v2b"));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().updates, 1u);
}

TYPED_TEST(SlotTableTest, OversizeDecisionsAreNotCached) {
  TypeParam cache(64);
  core::Decision big = core::Decision::indeterminate(
      core::IndeterminateExtent::kDP,
      core::Status::processing_error(std::string(200, 'x')));
  EXPECT_FALSE(cache.insert(key_of(1), 1, big));
  core::Decision out;
  EXPECT_FALSE(cache.lookup(key_of(1), 1, out));
  EXPECT_EQ(cache.stats().rejected_oversize, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TYPED_TEST(SlotTableTest, EvictOlderThanReclaimsExactCounts) {
  TypeParam cache(1024);
  constexpr std::uint64_t kPerVersion = 50;
  for (std::uint64_t i = 0; i < kPerVersion; ++i) {
    ASSERT_TRUE(cache.insert(key_of(i), 1, stamped_permit("v1")));
    ASSERT_TRUE(cache.insert(key_of(i), 2, stamped_permit("v2")));
  }
  ASSERT_EQ(cache.size(), 2 * kPerVersion);

  EXPECT_EQ(cache.evict_older_than(2), kPerVersion);  // exactly the v1 set
  EXPECT_EQ(cache.size(), kPerVersion);
  EXPECT_EQ(cache.stats().version_evictions, kPerVersion);

  core::Decision out;
  EXPECT_FALSE(cache.lookup(key_of(0), 1, out));
  EXPECT_TRUE(cache.lookup(key_of(0), 2, out));

  EXPECT_EQ(cache.evict_older_than(2), 0u);  // idempotent
  EXPECT_EQ(cache.clear(), kPerVersion);
  EXPECT_EQ(cache.size(), 0u);
}

TYPED_TEST(SlotTableTest, BucketOverflowEvictsAVictimNotTheCache) {
  // Capacity 4 => a single 4-way bucket: the 5th distinct key must
  // displace exactly one victim.
  TypeParam cache(4);
  EXPECT_EQ(cache.slot_count(), 4u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(cache.insert(key_of(i), 1, stamped_permit("v1")));
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  core::Decision out;
  std::size_t live = 0;
  for (std::uint64_t i = 0; i < 5; ++i) {
    if (cache.lookup(key_of(i), 1, out)) ++live;
  }
  EXPECT_EQ(live, 4u);
}

TYPED_TEST(SlotTableTest, ExpiredSlotIsReusedBeforeALiveVictim) {
  // One 4-way bucket. Way 0 is refreshed so it outlives ways 1..3: the
  // round-robin victim pick would start at way 0, the expiry-aware one
  // must take an expired slot instead.
  common::ManualClock clock;
  TypeParam cache(4, /*ttl=*/100, &clock);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(cache.insert(key_of(i), 1, stamped_permit("v1")));
  }
  clock.advance(50);
  ASSERT_TRUE(cache.insert(key_of(0), 1, stamped_permit("v1")));  // expires at 150
  clock.advance(60);  // t = 110: keys 1..3 expired, key 0 live

  core::Decision out;
  EXPECT_FALSE(cache.lookup(key_of(1), 1, out));  // expired reads miss
  ASSERT_TRUE(cache.insert(key_of(4), 1, stamped_permit("v1")));
  EXPECT_TRUE(cache.lookup(key_of(0), 1, out));
  EXPECT_TRUE(cache.lookup(key_of(4), 1, out));
  const SeqlockCacheStats stats = cache.stats();
  EXPECT_EQ(stats.expirations, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.updates, 1u);
  EXPECT_EQ(cache.size(), 4u);
}

TYPED_TEST(SlotTableTest, ExplicitExpiryIsStoredAndReported) {
  common::ManualClock clock(1'000);
  TypeParam cache(16, /*ttl=*/100, &clock);
  ASSERT_TRUE(cache.insert(key_of(1), 1, stamped_permit("ttl")));  // now + ttl
  ASSERT_TRUE(cache.insert(key_of(2), 1, stamped_permit("given"), /*expires_at=*/1'040));
  ASSERT_TRUE(cache.insert(key_of(3), 1, stamped_permit("never"), /*expires_at=*/0));

  core::Decision out;
  std::uint64_t expires_at = 7;
  ASSERT_TRUE(cache.lookup(key_of(1), 1, out, nullptr, &expires_at));
  EXPECT_EQ(expires_at, 1'100u);
  ASSERT_TRUE(cache.lookup(key_of(2), 1, out, nullptr, &expires_at));
  EXPECT_EQ(expires_at, 1'040u);
  ASSERT_TRUE(cache.lookup(key_of(3), 1, out, nullptr, &expires_at));
  EXPECT_EQ(expires_at, 0u);

  clock.advance(40);  // t = 1040: the given expiry has passed, the TTL's has not
  EXPECT_FALSE(cache.lookup(key_of(2), 1, out));
  EXPECT_TRUE(cache.lookup(key_of(1), 1, out));
  clock.advance(1'000'000);
  EXPECT_FALSE(cache.lookup(key_of(1), 1, out));
  EXPECT_TRUE(cache.lookup(key_of(3), 1, out));
}

/// The engine's promotion path: an entry read from the shared table and
/// copied into a private one expires when the shared entry would have.
TEST(SlotTablePromotionTest, PromotedEntryKeepsItsSourceExpiry) {
  common::ManualClock clock;
  SeqlockDecisionCache shared(64, /*ttl=*/100, &clock);
  WorkerDecisionCache local(4, /*ttl=*/100, &clock);
  ASSERT_TRUE(shared.insert(key_of(1), 1, stamped_permit("v1")));  // expires at 100
  clock.advance(60);

  core::Decision out;
  std::uint64_t expires_at = 0;
  ASSERT_TRUE(shared.lookup(key_of(1), 1, out, nullptr, &expires_at));
  ASSERT_TRUE(local.insert(key_of(1), 1, out, expires_at));
  EXPECT_TRUE(local.lookup(key_of(1), 1, out));
  clock.advance(40);  // t = 100
  EXPECT_FALSE(local.lookup(key_of(1), 1, out));
  EXPECT_FALSE(shared.lookup(key_of(1), 1, out));
}

// ---------------------------------------------------------------------
// DecisionCache facade
// ---------------------------------------------------------------------

TEST(DecisionCacheTwoLevelTest, VersionedApiAndSweep) {
  DecisionCache cache(DecisionCache::TwoLevelConfig{.capacity = 256});
  EXPECT_EQ(cache.ttl(), 0);

  const RequestKey k = key_of(7);
  cache.insert(k, 3, stamped_permit("v3"));
  // The unversioned (PEP) API is version 0 of the same keyspace.
  cache.insert(k, stamped_permit("v0"));
  core::Decision hit;
  ASSERT_TRUE(cache.lookup(k, 3, hit));
  EXPECT_EQ(hit, stamped_permit("v3"));
  EXPECT_FALSE(cache.lookup(k, 4, hit));
  EXPECT_EQ(cache.size(), 2u);

  EXPECT_EQ(cache.evict_older_than(4), 2u);  // versions 0 and 3
  EXPECT_FALSE(cache.lookup(k, 3, hit));
  EXPECT_FALSE(cache.lookup(k).has_value());
  EXPECT_EQ(cache.stats().version_evictions, 2u);
}

// ---------------------------------------------------------------------
// Seqlock torn-read stress
// ---------------------------------------------------------------------

// Readers and writers hammer a deliberately tiny slot table so the same
// slots are rewritten constantly. Every decision is self-validating: the
// stamp obligation's tag is derived from (key index, version), so ANY
// torn read that survives the sequence re-check — mixing bytes of two
// writes — produces either a decode failure or a stamp that contradicts
// the (key, version) the reader asked for. Under TSan this also proves
// the protocol is data-race-free.
//
// Readers start once every writer has stored each (key, version) once,
// and a reader that has seen no hit by its last planned read keeps
// reading until it does (up to kHitDeadline), so a scheduler that leaves
// the writers idle while the readers run cannot fail the hit check.
void expect_concurrent_rewrites_never_yield_mixed_payloads(SeqlockDecisionCache& cache) {
  constexpr std::uint64_t kKeys = 8;
  constexpr std::uint64_t kVersions = 4;   // concurrent version churn
  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
#ifdef NDEBUG
  constexpr std::uint64_t kReadsPerThread = 200'000;
#else
  constexpr std::uint64_t kReadsPerThread = 50'000;
#endif
  constexpr auto kHitDeadline = std::chrono::seconds(30);

  const auto tag_for = [](std::uint64_t key_index, std::uint64_t version) {
    return "k" + std::to_string(key_index) + "-v" + std::to_string(version);
  };

  std::atomic<bool> stop{false};
  std::atomic<int> writers_primed{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> total_retries{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const std::uint64_t first = static_cast<std::uint64_t>(w) * 7919;
      std::uint64_t n = first;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t ki = n % kKeys;
        const std::uint64_t version = 1 + (n / kKeys) % kVersions;
        cache.insert(key_of(ki), version, stamped_permit(tag_for(ki, version)));
        ++n;
        // Any kKeys * kVersions consecutive writes cover every pair.
        if (n - first == kKeys * kVersions) writers_primed.fetch_add(1);
      }
    });
  }
  while (writers_primed.load() < kWriters) std::this_thread::yield();

  const auto deadline = std::chrono::steady_clock::now() + kHitDeadline;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t local_hits = 0;
      std::uint64_t retries = 0;
      std::uint64_t n = static_cast<std::uint64_t>(r) * 104729;
      core::Decision out;
      for (std::uint64_t i = 0; i < kReadsPerThread ||
                      (local_hits == 0 && std::chrono::steady_clock::now() < deadline);
           ++i, ++n) {
        const std::uint64_t ki = n % kKeys;
        const std::uint64_t version = 1 + n % kVersions;
        if (!cache.lookup(key_of(ki), version, out, &retries)) continue;
        ++local_hits;
        // The invariant: a hit for (key, version) is EXACTLY the
        // decision some writer stored for (key, version) — never a
        // blend of two writes, never another slot's payload.
        if (out != stamped_permit(tag_for(ki, version))) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      hits.fetch_add(local_hits, std::memory_order_relaxed);
      total_retries.fetch_add(retries, std::memory_order_relaxed);
    });
  }

  for (auto& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(hits.load(), 0u);  // the stress actually exercised hits
}

TEST(SeqlockTornReadStressTest, ConcurrentRewritesNeverYieldMixedPayloads) {
  SeqlockDecisionCache cache(16);  // 4 buckets: heavy slot reuse
  expect_concurrent_rewrites_never_yield_mixed_payloads(cache);
}

// The same stress with expiry in the meta word: entries live 2 ms, so
// readers also see expired slots and writers reuse them.
TEST(SeqlockTornReadStressTest, ConcurrentRewritesWithTtlNeverYieldMixedPayloads) {
  common::WallClock clock;  // thread-safe; see common/clock.hpp
  SeqlockDecisionCache cache(16, /*ttl=*/2, &clock);
  expect_concurrent_rewrites_never_yield_mixed_payloads(cache);
}

}  // namespace
}  // namespace mdac::cache
