// mdac::runtime::DecisionEngine — worker pool over snapshot-published
// policy state: differential correctness against the single-threaded
// Pdp, deterministic overload shedding, deadlines, drain/discard
// shutdown, the shared decision cache, metrics, and the PEP/service
// wiring. The concurrent-churn consistency suite lives in
// tests/runtime_churn_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cache/decision_cache.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "core/pdp.hpp"
#include "core/serialization.hpp"
#include "dependability/replicated_pdp.hpp"
#include "engine_gate.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "net/sim.hpp"
#include "pep/pep.hpp"
#include "pep/remote.hpp"
#include "runtime/engine.hpp"
#include "runtime/snapshot.hpp"
#include "support/alloc_counter.hpp"
#include "workload.hpp"

namespace mdac::runtime {
namespace {

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

core::RequestContext probe_request() {
  return core::RequestContext::make("alice", "doc", "read");
}

/// Seeded federation workload shared with the bench harness: policies
/// split over `domains` administrative domains, single-domain traffic.
std::vector<core::RequestContext> federation_pool(int domains, int policies,
                                                  int roles, std::size_t n) {
  common::Rng rng(20260731);
  std::vector<core::RequestContext> pool;
  pool.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool.push_back(bench::random_domain_request(rng, domains, policies, roles));
  }
  return pool;
}

// ---------------------------------------------------------------------
// Snapshot publication
// ---------------------------------------------------------------------

TEST(SnapshotPublisherTest, VersionsAreMonotonicAndCurrentTracksLatest) {
  SnapshotPublisher publisher;
  EXPECT_EQ(publisher.current(), nullptr);
  EXPECT_EQ(publisher.current_version(), 0u);

  auto s1 = publisher.publish(bench::make_policy_store(4));
  auto s2 = publisher.publish(bench::make_policy_store(8));
  EXPECT_EQ(s1->version(), 1u);
  EXPECT_EQ(s2->version(), 2u);
  EXPECT_EQ(publisher.current_version(), 2u);
  EXPECT_EQ(publisher.current()->policy_count(), 8u);
  EXPECT_EQ(publisher.publications(), 2u);
  // The replaced snapshot stays alive for its holders (RCU grace).
  EXPECT_EQ(s1->policy_count(), 4u);
}

TEST(SnapshotPublisherTest, PublishFromRepositoryCarriesCompiledArtifacts) {
  common::ManualClock clock;
  pap::PolicyRepository repo(clock);
  core::Policy p;
  p.policy_id = "p1";
  core::Rule r;
  r.id = "permit-all";
  r.effect = core::Effect::kPermit;
  p.rules.push_back(std::move(r));
  ASSERT_TRUE(repo.submit(core::node_to_string(p), "author"));
  ASSERT_TRUE(repo.issue("p1", "admin"));

  SnapshotPublisher publisher;
  auto snapshot = publisher.publish_from(repo);
  EXPECT_EQ(snapshot->policy_count(), 1u);
  EXPECT_EQ(snapshot->source_revision(), repo.revision());
  // The snapshot's store shares the PAP's compile-on-issue artifact.
  EXPECT_EQ(snapshot->store()->compiled("p1"), repo.compiled("p1"));
}

// ---------------------------------------------------------------------
// Differential correctness: engine decisions == single-threaded Pdp
// ---------------------------------------------------------------------

TEST(DecisionEngineTest, DecisionsBitIdenticalToSingleThreadedPdp) {
  constexpr int kDomains = 4;
  constexpr int kPolicies = 64;
  constexpr int kRoles = 3;
  auto store = bench::make_domain_policy_store(kDomains, kPolicies, kRoles);
  const auto pool = federation_pool(kDomains, kPolicies, kRoles, 256);

  // Single-threaded reference decisions first (the store is shared with
  // the snapshot afterwards; both sides only read it).
  core::Pdp reference(store);
  std::vector<core::Decision> expected;
  expected.reserve(pool.size());
  for (const auto& request : pool) expected.push_back(reference.evaluate(request));

  SnapshotPublisher publisher;
  publisher.publish(store);
  EngineConfig config;
  config.workers = 4;
  config.queue_capacity = 1024;
  config.max_batch = 16;
  DecisionEngine engine(publisher, config);

  std::vector<std::future<EngineResult>> futures;
  futures.reserve(pool.size());
  for (const auto& request : pool) futures.push_back(engine.submit(request));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EngineResult result = futures[i].get();
    EXPECT_EQ(result.status, CompletionStatus::kDecided);
    EXPECT_EQ(result.snapshot_version, 1u);
    EXPECT_FALSE(result.cache_hit);
    // Bit-identical: type, extent, status text, obligations, advice.
    EXPECT_EQ(result.decision, expected[i]) << "request " << i;
  }

  engine.shutdown();
  const EngineMetrics::Snapshot m = engine.metrics();
  EXPECT_EQ(m.submitted, pool.size());
  EXPECT_EQ(m.decided, pool.size());
  EXPECT_EQ(m.sheds(), 0u);
  EXPECT_GE(m.snapshot_adoptions, 1u);
  EXPECT_GE(m.batches, 1u);
  std::uint64_t worker_total = 0;
  for (const std::uint64_t ops : m.worker_ops) worker_total += ops;
  EXPECT_EQ(worker_total, pool.size());
}

TEST(DecisionEngineTest, SubmitBeforeFirstPublishIsFailSafeIndeterminate) {
  SnapshotPublisher publisher;
  DecisionEngine engine(publisher, EngineConfig{.workers = 1});
  EngineResult result = engine.submit(probe_request()).get();
  EXPECT_EQ(result.status, CompletionStatus::kDecided);
  EXPECT_TRUE(result.decision.is_indeterminate());
  EXPECT_EQ(result.decision.status.message, kNoSnapshotMessage);
}

// ---------------------------------------------------------------------
// Admission control: deterministic shedding at the queue bound
// ---------------------------------------------------------------------

TEST(DecisionEngineTest, ShedsExactlyTheSubmissionsBeyondTheQueueBound) {
  GateResolver gate;
  SnapshotPublisher publisher;
  publisher.publish(make_gated_store());

  EngineConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  config.max_batch = 1;
  config.resolver = &gate;
  DecisionEngine engine(publisher, config);

  // Wedge the single worker inside an evaluation...
  auto wedged = engine.submit(probe_request());
  gate.wait_until_blocked(1);

  // ...fill the queue to its bound, then overflow it.
  constexpr std::size_t kOverflow = 5;
  std::vector<std::future<EngineResult>> queued;
  for (std::size_t i = 0; i < 4; ++i) queued.push_back(engine.submit(probe_request()));
  EXPECT_EQ(engine.queue_depth(), 4u);
  EXPECT_EQ(engine.metrics().sheds(), 0u);  // no shed below the bound

  std::vector<std::future<EngineResult>> shed;
  for (std::size_t i = 0; i < kOverflow; ++i) shed.push_back(engine.submit(probe_request()));

  // Sheds complete immediately (before the worker is released), with
  // the distinct queue-full status — Indeterminate, so a PEP denies.
  for (auto& f : shed) {
    EngineResult r = f.get();
    EXPECT_EQ(r.status, CompletionStatus::kShedQueueFull);
    EXPECT_TRUE(r.decision.is_indeterminate());
    EXPECT_EQ(r.decision.status.message, kShedQueueFullMessage);
  }
  const EngineMetrics::Snapshot saturated = engine.metrics();
  EXPECT_EQ(saturated.shed_queue_full, kOverflow);
  EXPECT_DOUBLE_EQ(saturated.saturation(), 1.0);
  EXPECT_GT(saturated.shed_rate(), 0.0);

  // Release the worker: everything admitted still gets a real decision.
  gate.open();
  EXPECT_TRUE(wedged.get().decision.is_permit());
  for (auto& f : queued) {
    EngineResult r = f.get();
    EXPECT_EQ(r.status, CompletionStatus::kDecided);
    EXPECT_TRUE(r.decision.is_permit());
  }
  engine.shutdown();
  EXPECT_EQ(engine.metrics().shed_queue_full, kOverflow);  // and no more
}

TEST(DecisionEngineTest, ExpiredDeadlinesShedInsteadOfEvaluatingLate) {
  GateResolver gate;
  SnapshotPublisher publisher;
  publisher.publish(make_gated_store());

  EngineConfig config;
  config.workers = 1;
  config.queue_capacity = 16;
  config.resolver = &gate;
  DecisionEngine engine(publisher, config);

  auto wedged = engine.submit(probe_request());
  gate.wait_until_blocked(1);
  auto doomed = engine.submit(probe_request(), /*deadline_ms=*/1);
  auto relaxed = engine.submit(probe_request(), /*deadline_ms=*/60'000);

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.open();

  EXPECT_TRUE(wedged.get().decision.is_permit());
  EngineResult late = doomed.get();
  EXPECT_EQ(late.status, CompletionStatus::kShedDeadline);
  EXPECT_EQ(late.decision.status.message, kShedDeadlineMessage);
  EXPECT_EQ(relaxed.get().status, CompletionStatus::kDecided);
  EXPECT_EQ(engine.metrics().shed_deadline, 1u);
}

// ---------------------------------------------------------------------
// Shutdown semantics
// ---------------------------------------------------------------------

TEST(DecisionEngineTest, DrainShutdownCompletesEverythingAdmitted) {
  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(16));
  DecisionEngine engine(publisher, EngineConfig{.workers = 2, .queue_capacity = 512});

  common::Rng rng(7);
  std::vector<std::future<EngineResult>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(engine.submit(bench::random_request(rng, 16, 3)));
  }
  engine.shutdown(DecisionEngine::Drain::kDrain);
  for (auto& f : futures) EXPECT_EQ(f.get().status, CompletionStatus::kDecided);

  // Post-shutdown submissions are shed, not lost.
  EngineResult refused = engine.submit(probe_request()).get();
  EXPECT_EQ(refused.status, CompletionStatus::kShutdown);
  EXPECT_EQ(refused.decision.status.message, kShutdownMessage);
  EXPECT_FALSE(engine.accepting());
}

TEST(DecisionEngineTest, DiscardShutdownCompletesQueuedAsShutdownSheds) {
  GateResolver gate;
  SnapshotPublisher publisher;
  publisher.publish(make_gated_store());

  EngineConfig config;
  config.workers = 1;
  config.queue_capacity = 16;
  config.max_batch = 1;
  config.resolver = &gate;
  DecisionEngine engine(publisher, config);

  auto wedged = engine.submit(probe_request());
  gate.wait_until_blocked(1);
  std::vector<std::future<EngineResult>> queued;
  for (int i = 0; i < 3; ++i) queued.push_back(engine.submit(probe_request()));

  gate.open();  // release before joining; the wedged request completes
  engine.shutdown(DecisionEngine::Drain::kDiscard);

  EXPECT_TRUE(wedged.get().decided());
  std::size_t shutdown_sheds = 0;
  for (auto& f : queued) {
    const EngineResult r = f.get();
    // Either the worker got to it before the discard, or it was
    // completed as a shutdown shed — never dropped on the floor.
    if (r.status == CompletionStatus::kShutdown) {
      EXPECT_EQ(r.decision.status.message, kShutdownMessage);
      ++shutdown_sheds;
    } else {
      EXPECT_EQ(r.status, CompletionStatus::kDecided);
    }
  }
  EXPECT_EQ(engine.metrics().shed_shutdown, shutdown_sheds);
}

// ---------------------------------------------------------------------
// Shared decision cache across workers
// ---------------------------------------------------------------------

TEST(DecisionEngineTest, WorkersShareTheDecisionCache) {
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 1024});

  SnapshotPublisher publisher;
  auto store = bench::make_policy_store(8);
  core::Pdp reference(store);
  publisher.publish(store);
  // No L1: every hit is served by the shared level, whichever worker
  // filled it.
  DecisionEngine engine(publisher, EngineConfig{.workers = 4, .l1_capacity = 0}, &cache);

  // A request the store decides definitively (permit) — only definitive
  // decisions are cacheable.
  core::RequestContext request = core::RequestContext::make("u", "res-1", "read");
  request.add(core::Category::kSubject, core::attrs::kRole,
              core::AttributeValue("role-0"));
  const core::Decision expected = reference.evaluate(request);
  ASSERT_TRUE(expected.is_permit());

  // First wave fills, second wave must hit regardless of which worker
  // serves it (the cache is shared).
  EngineResult first = engine.submit(request).get();
  EXPECT_EQ(first.decision, expected);
  std::size_t hits = 0;
  for (int i = 0; i < 32; ++i) {
    EngineResult r = engine.submit(request).get();
    EXPECT_EQ(r.decision, expected);
    if (r.cache_hit) ++hits;
  }
  EXPECT_GT(hits, 0u);
  engine.shutdown();
  const EngineMetrics::Snapshot m = engine.metrics();
  EXPECT_EQ(m.cache_hits, hits);
  EXPECT_EQ(m.l2_hits, hits);
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------
// Two levels: per-worker L1 + shared seqlock L2
// ---------------------------------------------------------------------

/// Five distinct role-0 reads (res-1..res-5) that `store` decides
/// definitively, so the engine caches each of them.
std::vector<core::RequestContext> five_cacheable_reads(
    const std::shared_ptr<core::PolicyStore>& store) {
  core::Pdp reference(store);
  std::vector<core::RequestContext> requests;
  for (int i = 1; i <= 5; ++i) {
    core::RequestContext r =
        core::RequestContext::make("u", "res-" + std::to_string(i), "read");
    r.add(core::Category::kSubject, core::attrs::kRole, core::AttributeValue("role-0"));
    const core::Decision d = reference.evaluate(r);
    EXPECT_TRUE(d.is_permit() || d.is_deny());
    requests.push_back(std::move(r));
  }
  return requests;
}

TEST(DecisionEngineTest, TwoLevelCacheServesHitsFromBothLevels) {
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 1024});

  SnapshotPublisher publisher;
  auto store = bench::make_policy_store(8);
  core::Pdp reference(store);
  publisher.publish(store);
  // One worker with the smallest L1, one 4-way bucket, makes every hit's
  // level deterministic: a repeat hits the L1, the fifth distinct key
  // evicts the first (round-robin victim), and that key then hits the L2
  // and is promoted back.
  EngineConfig config;
  config.workers = 1;
  config.l1_capacity = 1;
  DecisionEngine engine(publisher, config, &cache);

  const std::vector<core::RequestContext> requests = five_cacheable_reads(store);
  const core::RequestContext& a = requests[0];
  const core::Decision expected_a = reference.evaluate(a);

  EngineResult r1 = engine.submit(a).get();  // miss: evaluated, L1 = {a}
  EXPECT_FALSE(r1.cache_hit);
  EXPECT_EQ(r1.cache_level, 0);
  EngineResult r2 = engine.submit(a).get();  // repeat: worker-private L1
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(r2.cache_level, 1);
  EXPECT_EQ(r2.decision, expected_a);
  for (std::size_t i = 1; i < requests.size(); ++i) {  // misses; the fifth evicts a
    EXPECT_FALSE(engine.submit(requests[i]).get().cache_hit);
  }
  EngineResult r4 = engine.submit(a).get();  // L1 miss -> shared L2 hit
  EXPECT_TRUE(r4.cache_hit);
  EXPECT_EQ(r4.cache_level, 2);
  EXPECT_EQ(r4.decision, expected_a);  // seqlock payload decodes bit-identically
  EngineResult r5 = engine.submit(a).get();  // the L2 hit was promoted
  EXPECT_TRUE(r5.cache_hit);
  EXPECT_EQ(r5.cache_level, 1);
  EXPECT_EQ(r5.decision, expected_a);

  engine.shutdown();
  const EngineMetrics::Snapshot m = engine.metrics();
  EXPECT_EQ(m.l1_hits, 2u);
  EXPECT_EQ(m.l2_hits, 1u);
  EXPECT_EQ(m.cache_hits, m.l1_hits + m.l2_hits);
  EXPECT_EQ(m.cache_misses, 5u);
}

TEST(DecisionEngineTest, CacheNeverServesDecisionsFromAReplacedSnapshot) {
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 1024});

  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(8));  // v1: res-1/role-0 permits
  DecisionEngine engine(publisher, EngineConfig{.workers = 1}, &cache);

  core::RequestContext request = core::RequestContext::make("u", "res-1", "read");
  request.add(core::Category::kSubject, core::attrs::kRole,
              core::AttributeValue("role-0"));

  EngineResult filled = engine.submit(request).get();
  ASSERT_TRUE(filled.decision.is_permit());
  EngineResult hit = engine.submit(request).get();
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.snapshot_version, 1u);  // hits are snapshot-attributed

  // Withdraw everything: neither the worker's L1 (flushed at adoption)
  // nor the L2 (version-keyed, swept) may serve the v1 permit.
  publisher.publish(std::make_shared<core::PolicyStore>());
  EngineResult after = engine.submit(request).get();
  EXPECT_FALSE(after.cache_hit);
  EXPECT_TRUE(after.decision.is_not_applicable());
  EXPECT_EQ(after.snapshot_version, 2u);
  engine.shutdown();
  EXPECT_GE(engine.metrics().version_evictions, 1u);
}

/// The adoption-time version sweep reclaims exactly the entries of
/// withdrawn snapshot versions.
TEST(DecisionEngineTest, VersionSweepReclaimsWithdrawnEntries) {
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 1024});
  SnapshotPublisher publisher;
  auto store = bench::make_policy_store(8);
  publisher.publish(store);
  // One worker: adoption (and thus the sweep) happens at the first batch
  // after a publish, deterministically.
  DecisionEngine engine(publisher, EngineConfig{.workers = 1}, &cache);

  constexpr std::size_t kEntries = 16;
  for (std::size_t i = 0; i < kEntries; ++i) {
    core::RequestContext request =
        core::RequestContext::make("u" + std::to_string(i), "res-1", "read");
    request.add(core::Category::kSubject, core::attrs::kRole,
                core::AttributeValue("role-0"));
    EngineResult r = engine.submit(request).get();
    ASSERT_TRUE(r.decision.is_permit());
  }
  ASSERT_EQ(cache.size(), kEntries);
  ASSERT_EQ(engine.metrics().version_evictions, 0u);

  publisher.publish(store);  // v2 (same content, new version)
  core::RequestContext probe = core::RequestContext::make("u0", "res-1", "read");
  probe.add(core::Category::kSubject, core::attrs::kRole,
            core::AttributeValue("role-0"));
  EngineResult after = engine.submit(probe).get();
  EXPECT_FALSE(after.cache_hit);  // v1 entries are unreachable under v2
  EXPECT_EQ(after.snapshot_version, 2u);
  engine.shutdown();
  // The sweep ran at adoption, before the batch's lookups/fills: exactly
  // the kEntries v1 decisions were reclaimed (the probe refilled one
  // entry under v2 afterwards).
  EXPECT_EQ(engine.metrics().version_evictions, kEntries);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DecisionEngineTest, CacheTtlBoundsBothLevels) {
  // ManualClock is single-threaded by contract. Every advance here sits
  // between one result's get() and the next submit, and those order it
  // with each clock read on the worker.
  common::ManualClock clock;
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{
      .capacity = 1024, .ttl = 100, .clock = &clock});
  SnapshotPublisher publisher;
  auto store = bench::make_policy_store(8);
  publisher.publish(store);
  EngineConfig config;
  config.workers = 1;
  config.l1_capacity = 4;  // one 4-way bucket
  DecisionEngine engine(publisher, config, &cache);
  const std::vector<core::RequestContext> requests = five_cacheable_reads(store);
  const core::RequestContext& a = requests[0];
  const auto level_of = [&engine](const core::RequestContext& request) {
    const EngineResult r = engine.submit(request).get();
    EXPECT_TRUE(r.decided());
    return static_cast<int>(r.cache_level);
  };

  // An entry is served from the L1 until its TTL has passed, then
  // evaluated again.
  EXPECT_EQ(level_of(a), 0);  // t = 0: evaluated; both levels expire at 100
  clock.advance(99);
  EXPECT_EQ(level_of(a), 1);
  clock.advance(1);
  EXPECT_EQ(level_of(a), 0);  // t = 100: expired at both levels; now expires at 200

  // An L2 hit promoted into an L1 that had evicted it keeps its L2 expiry.
  clock.advance(50);  // t = 150
  for (std::size_t i = 1; i < requests.size(); ++i) {
    EXPECT_EQ(level_of(requests[i]), 0);  // the fourth fill evicts a from the L1
  }
  EXPECT_EQ(level_of(a), 2);  // promoted with expiry 200, not 150 + 100
  clock.advance(49);
  EXPECT_EQ(level_of(a), 1);  // t = 199
  clock.advance(1);
  EXPECT_EQ(level_of(a), 0);  // t = 200: a restarted TTL would still hit the L1
}

// ---------------------------------------------------------------------
// PIP-dependent decisions and the cache
// ---------------------------------------------------------------------

/// A thread-safe resolver answering one environment attribute,
/// "clearance", from a flag the test flips — a PIP whose answer changes
/// without any policy republication.
class ClearanceResolver : public core::AttributeResolver {
 public:
  std::optional<core::Bag> resolve(core::Category /*category*/, const std::string& id,
                                   const core::RequestContext& /*request*/) override {
    if (id != "clearance") return std::nullopt;
    return core::Bag(core::AttributeValue(cleared.load()));
  }

  std::atomic<bool> cleared{true};
};

/// Permits while the resolver reports clearance, denies otherwise.
std::shared_ptr<core::PolicyStore> make_clearance_store() {
  auto store = std::make_shared<core::PolicyStore>();
  core::Policy p;
  p.policy_id = "clearance";
  p.rule_combining = "first-applicable";
  core::Rule permit;
  permit.id = "permit-when-cleared";
  permit.effect = core::Effect::kPermit;
  permit.condition = core::designator(core::Category::kEnvironment, "clearance",
                                      core::DataType::kBoolean, /*must_be_present=*/true);
  p.rules.push_back(std::move(permit));
  core::Rule deny;
  deny.id = "deny-otherwise";
  deny.effect = core::Effect::kDeny;
  p.rules.push_back(std::move(deny));
  store->add(std::move(p));
  return store;
}

/// The resolver revokes clearance between two identical requests under
/// one snapshot: the permit the first one earned must not be served
/// from either cache level to the second.
TEST(DecisionEngineTest, ResolverDependentPermitIsNotCached) {
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 1024});
  ClearanceResolver resolver;
  SnapshotPublisher publisher;
  publisher.publish(make_clearance_store());
  EngineConfig config;
  config.workers = 1;
  config.resolver = &resolver;
  DecisionEngine engine(publisher, config, &cache);

  const EngineResult granted = engine.submit(probe_request()).get();
  ASSERT_TRUE(granted.decision.is_permit());
  resolver.cleared.store(false);
  const EngineResult revoked = engine.submit(probe_request()).get();
  EXPECT_FALSE(revoked.cache_hit);
  EXPECT_TRUE(revoked.decision.is_deny());
  EXPECT_EQ(revoked.snapshot_version, granted.snapshot_version);
  engine.shutdown();
  EXPECT_EQ(engine.metrics().cache_hits, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------
// Admission cost: exact allocation gate
// ---------------------------------------------------------------------

TEST(DecisionEngineTest, UntracedSubmitMakesZeroAllocations) {
  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(8));
  EngineConfig config;
  config.workers = 2;
  config.queue_capacity = 1024;
  DecisionEngine engine(publisher, config);

  constexpr std::size_t kWarmup = 1'000;
  constexpr std::size_t kMeasured = 10'000;
  // Stay well under the admission bound: a shed builds its status
  // message, which allocates by design.
  constexpr std::size_t kMaxInFlight = 256;
  common::Rng rng(5);
  std::vector<core::RequestContext> requests;
  requests.reserve(kWarmup + kMeasured);
  for (std::size_t i = 0; i < kWarmup + kMeasured; ++i) {
    requests.push_back(bench::random_request(rng, 8, 3));
  }
  std::atomic<std::size_t> completed{0};
  const auto submit_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      while (i - completed.load(std::memory_order_acquire) >= kMaxInFlight) {
        std::this_thread::yield();
      }
      // One pointer of capture: fits std::function's small buffer.
      engine.submit(std::move(requests[i]), [&completed](EngineResult) {
        completed.fetch_add(1, std::memory_order_release);
      });
    }
  };

  submit_range(0, kWarmup);
  const std::uint64_t before = test::thread_allocations();
  submit_range(kWarmup, kWarmup + kMeasured);
  const std::uint64_t allocations = test::thread_allocations() - before;
  while (completed.load() < kWarmup + kMeasured) std::this_thread::yield();
  engine.shutdown();

  EXPECT_EQ(allocations, 0u);
  const EngineMetrics::Snapshot m = engine.metrics();
  EXPECT_EQ(m.sheds(), 0u);
  EXPECT_EQ(m.decided, kWarmup + kMeasured);
}

TEST(DecisionEngineTest, HotAgentShapedRequestCopiesInOneAllocation) {
  // A request crosses the engine by copy (or move) on the submitting
  // thread and is freed on a worker. Five single-valued attributes
  // (make + 2 adds) with short values: the copy's only heap block is the
  // entries array, since every bag holds its one value inline.
  for (const core::RequestContext& request : federation_pool(8, 64, 4, 64)) {
    ASSERT_EQ(request.size(), 5u);
    const std::uint64_t before = test::thread_allocations();
    const core::RequestContext copy = request;
    const std::uint64_t allocations = test::thread_allocations() - before;
    EXPECT_EQ(allocations, 1u);
    EXPECT_EQ(copy, request);
  }
}

// ---------------------------------------------------------------------
// Completion path: storage goes back to the submitter; wakes hit idlers
// ---------------------------------------------------------------------

/// Heap traffic of the engine's workers while they serve cache hits.
struct WorkerHeapTraffic {
  std::uint64_t allocations = 0;
  std::uint64_t deallocations = 0;
  std::uint64_t counted = 0;  // callbacks that closed a measured interval
};

/// Submits pool[order[i % order.size()]] for `warmup` and then `measured`
/// requests through the callback form, at most 8 in flight, and sums the
/// worker-thread allocations and deallocations between consecutive
/// callbacks of the measured phase (each worker's first callback in a
/// phase sets its baseline). Every request must be a cache hit.
WorkerHeapTraffic measure_worker_heap_traffic(DecisionEngine& engine,
                                              const std::vector<core::RequestContext>& pool,
                                              const std::vector<std::size_t>& order,
                                              std::size_t warmup, std::size_t measured) {
  struct Probe {
    std::atomic<std::uint32_t> phase{0};
    std::atomic<std::uint64_t> allocations{0};
    std::atomic<std::uint64_t> deallocations{0};
    std::atomic<std::uint64_t> counted{0};
    std::atomic<std::size_t> completed{0};
  } probe;
  const auto callback = [&probe](EngineResult result) {
    static thread_local std::uint32_t seen_phase = 0;
    static thread_local std::uint64_t last_allocations = 0;
    static thread_local std::uint64_t last_deallocations = 0;
    EXPECT_TRUE(result.cache_hit);
    const std::uint32_t phase = probe.phase.load(std::memory_order_acquire);
    const std::uint64_t allocations = test::thread_allocations();
    const std::uint64_t deallocations = test::thread_deallocations();
    if (phase == seen_phase) {
      probe.allocations.fetch_add(allocations - last_allocations, std::memory_order_relaxed);
      probe.deallocations.fetch_add(deallocations - last_deallocations,
                                    std::memory_order_relaxed);
      probe.counted.fetch_add(1, std::memory_order_relaxed);
    }
    seen_phase = phase;
    last_allocations = allocations;
    last_deallocations = deallocations;
    probe.completed.fetch_add(1, std::memory_order_release);
  };
  // At most 8 in flight, far below the jobs the return ring holds
  // (workers x max_batch): completions outrun reclaims by at most a few
  // batches, so the ring never fills.
  constexpr std::size_t kMaxInFlight = 8;
  std::size_t next = 0;
  const auto run = [&](std::size_t count) {
    const std::size_t base = probe.completed.load();
    for (std::size_t i = 0; i < count; ++i) {
      while (base + i - probe.completed.load(std::memory_order_acquire) >= kMaxInFlight) {
        std::this_thread::yield();
      }
      engine.submit(pool[order[next++ % order.size()]], callback);
    }
    while (probe.completed.load() < base + count) std::this_thread::yield();
  };
  probe.phase.store(1);
  run(warmup);
  probe.allocations.store(0);
  probe.deallocations.store(0);
  probe.counted.store(0);
  probe.phase.store(2);
  run(measured);
  return {probe.allocations.load(), probe.deallocations.load(), probe.counted.load()};
}

/// `count` requests over make_policy_store(8) that it decides
/// definitively (those are the cacheable ones), drawn with `seed`.
std::vector<core::RequestContext> definitive_pool(std::size_t count, std::uint64_t seed) {
  core::Pdp reference(bench::make_policy_store(8));
  common::Rng rng(seed);
  std::vector<core::RequestContext> pool;
  while (pool.size() < count) {
    core::RequestContext request = bench::random_request(rng, 8, 3);
    const core::Decision expected = reference.evaluate(request);
    if (expected.is_permit() || expected.is_deny()) pool.push_back(std::move(request));
  }
  return pool;
}

TEST(DecisionEngineTest, WorkersFreeNoRequestStorageInSteadyState) {
  // A completed job travels back through the return ring and is freed by
  // a later submit on the submitting thread. Every measured request is a
  // shared-cache hit (the L1 is off), which allocates and frees nothing
  // else on a worker, so any worker deallocation would be request storage.
  // One worker: with several, one preempted between claiming a return
  // slot and filling it holds up the ring's head while its peers fill the
  // ring, and they then free what does not fit (the designed fallback).
  const std::vector<core::RequestContext> pool = definitive_pool(16, 9);
  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(8));
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 1024});
  EngineConfig config;
  config.workers = 1;
  config.max_batch = 64;
  config.l1_capacity = 0;
  DecisionEngine engine(publisher, config, &cache);
  for (const core::RequestContext& request : pool) {
    ASSERT_TRUE(engine.submit(request).get().decided());  // fills the shared cache
  }
  std::vector<std::size_t> order(pool.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const WorkerHeapTraffic traffic =
      measure_worker_heap_traffic(engine, pool, order, 2'000, 20'000);
  engine.shutdown();

  EXPECT_GT(traffic.counted, 10'000u);
  EXPECT_EQ(traffic.deallocations, 0u);
}

TEST(DecisionEngineTest, CachedRequestsMakeNoWorkerAllocations) {
  // One worker; obligation-free decisions; a pool four times its L1
  // (16 slots), drawn at random, so steady state mixes L1 hits with L2
  // hits, each of which fills the L1 by promotion. Neither level may
  // allocate on the worker: decisions live inline in the slots.
  const std::vector<core::RequestContext> pool = definitive_pool(64, 11);
  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(8));
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 1024});
  EngineConfig config;
  config.workers = 1;
  config.max_batch = 64;
  config.l1_capacity = 16;
  DecisionEngine engine(publisher, config, &cache);
  for (const core::RequestContext& request : pool) {
    const EngineResult r = engine.submit(request).get();  // fills both levels
    ASSERT_TRUE(r.decided());
    ASSERT_TRUE(r.decision.obligations.empty() && r.decision.advice.empty());
  }
  common::Rng rng(12);
  std::vector<std::size_t> order(4'096);
  for (std::size_t& i : order) i = static_cast<std::size_t>(rng.uniform_int(0, 63));
  const EngineMetrics::Snapshot before = engine.metrics();
  const WorkerHeapTraffic traffic =
      measure_worker_heap_traffic(engine, pool, order, 2'000, 20'000);
  engine.shutdown();
  const EngineMetrics::Snapshot after = engine.metrics();

  EXPECT_GT(traffic.counted, 10'000u);
  EXPECT_EQ(traffic.allocations, 0u);
  EXPECT_GT(after.l1_hits - before.l1_hits, 2'000u);   // hits
  EXPECT_GT(after.l2_hits - before.l2_hits, 10'000u);  // promotions
  EXPECT_EQ(after.cache_misses, before.cache_misses);
}

TEST(DecisionEngineTest, WedgedWorkerDoesNotStrandARequestQueuedWhileItsPeerIsParked) {
  GateResolver gate;
  SnapshotPublisher publisher;
  publisher.publish(make_gated_store());
  EngineConfig config;
  config.workers = 2;
  config.max_batch = 1;
  config.resolver = &gate;
  DecisionEngine engine(publisher, config);

  auto wedged = engine.submit(probe_request());
  gate.wait_until_blocked(1);
  // parks - wakes counts the workers asleep now: wait for the peer.
  for (;;) {
    const EngineMetrics::Snapshot m = engine.metrics();
    if (m.parks > m.wakes) break;
    std::this_thread::yield();
  }

  // This request carries the gate attribute, so its evaluation never
  // reaches the wedged resolver: only the parked peer can serve it.
  core::RequestContext open = probe_request();
  open.add(core::Category::kEnvironment, "gate", core::AttributeValue(true));
  auto queued = engine.submit(std::move(open));
  ASSERT_EQ(queued.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "the request waited behind the wedged worker";
  EXPECT_TRUE(queued.get().decision.is_permit());

  gate.open();
  EXPECT_TRUE(wedged.get().decision.is_permit());
}

TEST(DecisionEngineTest, WakesNeverExceedParksPlusWorkers) {
  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(8));
  EngineConfig config;
  config.workers = 3;
  DecisionEngine engine(publisher, config);

  common::Rng rng(13);
  // Serial round trips park the workers between requests; bursts find
  // them busy.
  for (int i = 0; i < 1'000; ++i) {
    ASSERT_TRUE(engine.submit(bench::random_request(rng, 8, 3)).get().decided());
  }
  std::vector<std::future<EngineResult>> burst;
  for (int round = 0; round < 20; ++round) {
    burst.clear();
    for (int i = 0; i < 100; ++i) {
      burst.push_back(engine.submit(bench::random_request(rng, 8, 3)));
    }
    for (auto& f : burst) ASSERT_TRUE(f.get().decided());
  }
  engine.shutdown();

  const EngineMetrics::Snapshot m = engine.metrics();
  EXPECT_GT(m.parks, 0u);
  EXPECT_LE(m.wakes, m.parks + config.workers);
}

// ---------------------------------------------------------------------
// Worker placement (pin_workers)
// ---------------------------------------------------------------------

TEST(DecisionEngineTest, PinWorkersIsAGracefulNoOpWhenOversubscribed) {
  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(4));
  EngineConfig config;
  // More workers than cores: pinning must back off entirely (pinned
  // oversubscribed workers would serialise on shared cores).
  config.workers = std::thread::hardware_concurrency() + 1;
  config.pin_workers = true;
  DecisionEngine engine(publisher, config);
  EXPECT_TRUE(engine.submit(probe_request()).get().decided());
  engine.shutdown();
  EXPECT_EQ(engine.workers_pinned(), 0u);
}

TEST(DecisionEngineTest, PinWorkersPinsWhenCoresSuffice) {
  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(4));
  EngineConfig config;
  config.workers = 1;  // hardware_concurrency() >= 1 everywhere
  config.pin_workers = true;
  DecisionEngine engine(publisher, config);
  EXPECT_TRUE(engine.submit(probe_request()).get().decided());
  engine.shutdown();
#ifdef __linux__
  EXPECT_EQ(engine.workers_pinned(), 1u);
#else
  EXPECT_EQ(engine.workers_pinned(), 0u);  // graceful platform no-op
#endif
}

// ---------------------------------------------------------------------
// Publish hook: the version-based flush signal for PEP-side caches
// ---------------------------------------------------------------------

TEST(SnapshotPublisherTest, PublishHooksSeeEveryVersionInOrder) {
  SnapshotPublisher publisher;
  std::vector<std::uint64_t> seen;
  publisher.add_publish_hook([&](std::uint64_t v) { seen.push_back(v); });
  publisher.publish(bench::make_policy_store(2));
  publisher.publish(bench::make_policy_store(2));
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2}));
}

TEST(SnapshotPublisherTest, PublishHookFlushesAPepSideDecisionCache) {
  // A PEP-side cache (CachingEvaluator stores under version 0) wired to
  // drop stale decisions whenever policy is republished — the
  // single-consumer flush shape the hook exists for.
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 64});
  SnapshotPublisher publisher;
  publisher.add_publish_hook(
      [&cache](std::uint64_t version) { cache.evict_older_than(version); });

  std::size_t evaluations = 0;
  cache::CachingEvaluator evaluator(cache, [&](const core::RequestContext&) {
    ++evaluations;
    return core::Decision::permit();
  });
  evaluator(probe_request());
  evaluator(probe_request());
  EXPECT_EQ(evaluations, 1u);  // second call was a cache hit

  publisher.publish(bench::make_policy_store(2));  // version 1 > 0: flushed
  evaluator(probe_request());
  EXPECT_EQ(evaluations, 2u);  // re-evaluated against the new policy
}

// ---------------------------------------------------------------------
// Wiring: EnforcementPoint and PdpService through the engine
// ---------------------------------------------------------------------

TEST(DecisionEngineTest, EnforcementPointSubmitsThroughEngine) {
  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(4));
  DecisionEngine engine(publisher, EngineConfig{.workers = 2});

  pep::EnforcementPoint point(engine_decision_source(engine));
  core::RequestContext allowed = core::RequestContext::make("u", "res-1", "read");
  allowed.add(core::Category::kSubject, core::attrs::kRole,
              core::AttributeValue("role-0"));
  EXPECT_TRUE(point.enforce(allowed).allowed);

  core::RequestContext refused = core::RequestContext::make("u", "res-1", "read");
  refused.add(core::Category::kSubject, core::attrs::kRole,
              core::AttributeValue("role-99"));
  EXPECT_FALSE(point.enforce(refused).allowed);

  // role-99 was denied BY POLICY (the trailing deny rule), not by bias;
  // a shed after shutdown is Indeterminate -> the fail-safe deny bias.
  EXPECT_EQ(point.denials_by_bias(), 0u);
  engine.shutdown();
  const pep::Enforcement e = point.enforce(allowed);
  EXPECT_FALSE(e.allowed);
  EXPECT_EQ(point.denials_by_bias(), 1u);
}

TEST(DecisionEngineTest, PdpServiceServesWireTrafficThroughEngine) {
  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(4));
  DecisionEngine engine(publisher, EngineConfig{.workers = 2});

  net::Simulator sim;
  net::Network network(sim);
  network.set_default_link({5, 0, 0.0});
  // The service still carries a local replica; the engine overrides it.
  auto local = std::make_shared<core::Pdp>(bench::make_policy_store(4));
  pep::PdpService service(network, "domain/pdp", local);
  service.set_engine(&engine);
  pep::RemotePdpClient client(network, "domain/pep", "domain/pdp");

  core::RequestContext request = core::RequestContext::make("u", "res-2", "read");
  request.add(core::Category::kSubject, core::attrs::kRole,
              core::AttributeValue("role-1"));
  std::optional<core::Decision> got;
  client.evaluate(request, [&](core::Decision d) { got = std::move(d); });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->is_permit());
  EXPECT_EQ(service.requests_served(), 1u);
  EXPECT_EQ(engine.metrics().decided, 1u);
}

TEST(DecisionEngineTest, ReplicatedClientTrafficLandsOnEngineBackedReplicas) {
  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(4));
  DecisionEngine engine(publisher, EngineConfig{.workers = 2});

  net::Simulator sim;
  net::Network network(sim);
  network.set_default_link({5, 0, 0.0});
  auto local_a = std::make_shared<core::Pdp>(bench::make_policy_store(4));
  auto local_b = std::make_shared<core::Pdp>(bench::make_policy_store(4));
  dependability::PdpReplica replica_a(network, "pdp/a", local_a);
  dependability::PdpReplica replica_b(network, "pdp/b", local_b);
  replica_a.service().set_engine(&engine);
  replica_b.service().set_engine(&engine);
  replica_a.set_up(false);  // failover forces the dispatcher to walk on

  dependability::ReplicatedPdpClient client(network, "pep/client", {"pdp/a", "pdp/b"},
                                            dependability::DispatchStrategy::kFailover,
                                            /*per_try_timeout=*/50);
  core::RequestContext request = core::RequestContext::make("u", "res-3", "read");
  request.add(core::Category::kSubject, core::attrs::kRole,
              core::AttributeValue("role-2"));
  std::optional<core::Decision> got;
  client.evaluate(request, [&](core::Decision d) { got = std::move(d); });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->is_permit());
  EXPECT_EQ(replica_b.requests_served(), 1u);
  EXPECT_EQ(engine.metrics().decided, 1u);
  EXPECT_EQ(client.stats().failovers, 1u);
}

// ---------------------------------------------------------------------
// Metrics surface
// ---------------------------------------------------------------------

TEST(DecisionEngineTest, MetricsExposeLatencyAndBatchShape) {
  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(8));
  DecisionEngine engine(publisher, EngineConfig{.workers = 2, .max_batch = 8});

  common::Rng rng(11);
  std::vector<std::future<EngineResult>> futures;
  for (int i = 0; i < 128; ++i) {
    futures.push_back(engine.submit(bench::random_request(rng, 8, 3)));
  }
  for (auto& f : futures) f.get();
  engine.shutdown();

  const EngineMetrics::Snapshot m = engine.metrics();
  EXPECT_EQ(m.decided, 128u);
  EXPECT_GT(m.latency_p50_ns, 0.0);
  EXPECT_GE(m.latency_p90_ns, m.latency_p50_ns);
  EXPECT_GE(m.latency_p99_ns, m.latency_p90_ns);
  EXPECT_GT(m.mean_batch_size, 0.0);
  EXPECT_EQ(m.queue_depth, 0u);
  EXPECT_EQ(m.queue_capacity, engine.queue_capacity());
}

/// Drives a one-worker engine (L1 of one 4-way bucket, queue bound 4)
/// through every counted outcome: misses, L1 hits and an L2 hit on the
/// cached store, then a republication to the gated store, a wedged
/// worker and three queue-full sheds. Returns with the engine shut down,
/// so its counters are final.
struct EveryOutcome {
  cache::DecisionCache cache{cache::DecisionCache::TwoLevelConfig{.capacity = 1024}};
  SnapshotPublisher publisher;
  GateResolver gate;
  std::unique_ptr<DecisionEngine> engine;

  EveryOutcome() {
    auto store = bench::make_policy_store(8);
    publisher.publish(store);
    engine = std::make_unique<DecisionEngine>(
        publisher,
        EngineConfig{.workers = 1, .queue_capacity = 4, .max_batch = 1,
                     .resolver = &gate, .l1_capacity = 1},
        &cache);
    const std::vector<core::RequestContext> reads = five_cacheable_reads(store);
    engine->submit(reads[0]).get();  // miss
    engine->submit(reads[0]).get();  // L1 hit
    for (std::size_t i = 1; i < reads.size(); ++i) engine->submit(reads[i]).get();
    engine->submit(reads[0]).get();  // L2 hit (evicted from the L1), promoted
    engine->submit(reads[0]).get();  // L1 hit

    publisher.publish(make_gated_store());
    auto wedged = engine->submit(probe_request());
    gate.wait_until_blocked(1);
    std::vector<std::future<EngineResult>> queued;
    for (int i = 0; i < 4; ++i) queued.push_back(engine->submit(probe_request()));
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(engine->submit(probe_request()).get().status,
                CompletionStatus::kShedQueueFull);
    }
    gate.open();
    wedged.get();
    for (auto& f : queued) f.get();
    engine->shutdown();
  }
};

TEST(DecisionEngineTest, ResetMetricsZeroesEveryCounter) {
  EveryOutcome run;
  DecisionEngine& engine = *run.engine;
  const EngineMetrics::Snapshot before = engine.metrics();
  ASSERT_EQ(before.submitted, 16u);
  ASSERT_EQ(before.decided, 13u);
  ASSERT_EQ(before.l1_hits, 2u);
  ASSERT_EQ(before.l2_hits, 1u);
  ASSERT_EQ(before.cache_misses, 10u);  // five fills, five gated evaluations
  ASSERT_EQ(before.shed_queue_full, 3u);
  ASSERT_EQ(before.version_evictions, 5u);
  ASSERT_GE(before.snapshot_adoptions, 2u);
  ASSERT_GT(before.batches, 0u);
  ASSERT_EQ(before.latency.total, 13u);
  ASSERT_GT(before.latency.sum, 0u);
  ASSERT_GT(before.latency_p50_ns, 0.0);

  // Quiescent: shut down, so no worker can count behind the reset.
  engine.reset_metrics();
  const EngineMetrics::Snapshot m = engine.metrics();
  for (const std::uint64_t counter :
       {m.submitted, m.decided, m.cache_hits, m.l1_hits, m.l2_hits, m.cache_misses,
        m.l2_read_retries, m.version_evictions, m.shed_queue_full, m.shed_deadline,
        m.shed_shutdown, m.batches, m.snapshot_adoptions, m.parks, m.wakes}) {
    EXPECT_EQ(counter, 0u);
  }
  EXPECT_EQ(m.worker_ops, std::vector<std::uint64_t>{0});
  EXPECT_EQ(m.mean_batch_size, 0.0);
  EXPECT_EQ(m.latency.total, 0u);
  EXPECT_EQ(m.latency.sum, 0u);
  EXPECT_EQ(m.latency_p50_ns, 0.0);
  EXPECT_EQ(m.latency_p90_ns, 0.0);
  EXPECT_EQ(m.latency_p99_ns, 0.0);
  EXPECT_EQ(m.queue_capacity, 4u);  // configuration, not a count
}

/// The value of `series` (a metric name and its label block) on a
/// scrape page; -1 when the page has no such sample.
double scraped(const std::string& page, const std::string& series) {
  const std::string prefix = "\n" + series + " ";
  const std::size_t at = page.find(prefix);
  if (at == std::string::npos) return -1;
  return std::strtod(page.c_str() + at + prefix.size(), nullptr);
}

TEST(DecisionEngineTest, ScrapeShowsTheSnapshotsNumbers) {
  EveryOutcome run;
  obs::Registry registry;
  run.engine->register_metrics(registry);
  const std::string page = registry.expose();
  const EngineMetrics::Snapshot m = run.engine->metrics();
  ASSERT_GT(m.l1_hits, 0u);
  ASSERT_GT(m.l2_hits, 0u);
  ASSERT_GT(m.cache_misses, 0u);
  ASSERT_GT(m.shed_queue_full, 0u);

  const auto as_double = [](std::uint64_t v) { return static_cast<double>(v); };
  EXPECT_EQ(scraped(page, "mdac_engine_decided_total"), as_double(m.decided));
  EXPECT_EQ(scraped(page, "mdac_engine_cache_hits_total{level=\"l1\"}"),
            as_double(m.l1_hits));
  EXPECT_EQ(scraped(page, "mdac_engine_cache_hits_total{level=\"l2\"}"),
            as_double(m.l2_hits));
  EXPECT_EQ(scraped(page, "mdac_engine_cache_misses_total"), as_double(m.cache_misses));
  EXPECT_EQ(scraped(page, "mdac_engine_sheds_total{cause=\"queue-full\"}"),
            as_double(m.shed_queue_full));
  EXPECT_EQ(scraped(page, "mdac_engine_latency_ns_count"), as_double(m.latency.total));
  EXPECT_EQ(scraped(page, "mdac_engine_latency_ns_sum"), as_double(m.latency.sum));
  EXPECT_EQ(m.latency.total, m.decided);
}

// ---------------------------------------------------------------------
// core::Pdp debug owner-thread contract (satellite)
// ---------------------------------------------------------------------

#ifndef NDEBUG
using PdpThreadContractDeathTest = ::testing::Test;

TEST(PdpThreadContractDeathTest, CrossThreadEvaluateAsserts) {
  // threadsafe style re-execs the test binary for the death assertion —
  // required here because the statement under test spawns a thread.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto store = bench::make_policy_store(2);
  core::Pdp pdp(store);
  pdp.evaluate(probe_request());  // this thread now owns the Pdp
  EXPECT_DEATH(
      {
        std::thread other([&] { pdp.evaluate(probe_request()); });
        other.join();
      },
      "single-threaded");
}

TEST(PdpThreadContractDeathTest, RebindAllowsSerialisedHandOff) {
  auto store = bench::make_policy_store(2);
  core::Pdp pdp(store);
  pdp.evaluate(probe_request());
  pdp.rebind_owner_thread();
  core::Decision moved_result;
  std::thread other([&] { moved_result = pdp.evaluate(probe_request()); });
  other.join();
  EXPECT_FALSE(moved_result.is_indeterminate());
}
#endif  // !NDEBUG

// ---------------------------------------------------------------------
// Decision tracing (mdac::obs)
// ---------------------------------------------------------------------

TEST(DecisionEngineTracingTest, SampledTraceReconstructsDecisionPath) {
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 256});
  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(8));
  obs::DecisionTracer tracer(obs::ObsConfig{.sample_every_n = 1});
  EngineConfig config;
  config.workers = 1;
  config.l1_capacity = 64;
  config.tracer = &tracer;
  DecisionEngine engine(publisher, config, &cache);

  core::RequestContext request = core::RequestContext::make("u", "res-1", "read");
  request.add(core::Category::kSubject, core::attrs::kRole,
              core::AttributeValue("role-0"));
  const EngineResult miss = engine.submit(request).get();
  const EngineResult hit = engine.submit(request).get();
  engine.shutdown();
  ASSERT_TRUE(miss.decision.is_permit());
  ASSERT_NE(miss.trace_id, 0u);
  ASSERT_NE(hit.trace_id, 0u);
  EXPECT_NE(miss.trace_id, hit.trace_id);

  // The evaluated request's trace walks the full path: admission →
  // queue wait → batch membership → cache miss → replica evaluation →
  // outcome, timestamps monotone, summary fields matching the result.
  const auto trace = tracer.find(miss.trace_id);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->outcome, obs::TraceOutcome::kDecided);
  EXPECT_FALSE(trace->anomaly);
  EXPECT_EQ(trace->worker, 0u);
  EXPECT_EQ(trace->snapshot_version, miss.snapshot_version);
  EXPECT_EQ(trace->cache_level, miss.cache_level);
  std::vector<obs::SpanKind> kinds;
  for (std::size_t i = 0; i < trace->span_count; ++i) {
    const obs::Span& span = trace->spans[i];
    kinds.push_back(span.kind);
    EXPECT_GE(span.at_ns, trace->started_ns);
    if (i > 0) {
      EXPECT_GE(span.at_ns, trace->spans[i - 1].at_ns);
    }
  }
  const std::vector<obs::SpanKind> expected = {
      obs::SpanKind::kAdmission,  obs::SpanKind::kQueueWait,
      obs::SpanKind::kBatch,      obs::SpanKind::kCacheProbe,
      obs::SpanKind::kEvaluate,   obs::SpanKind::kOutcome};
  EXPECT_EQ(kinds, expected);
  EXPECT_GE(trace->finished_ns, trace->started_ns);
  EXPECT_EQ(trace->latency_ns(), trace->finished_ns - trace->started_ns);

  // The repeat hit the worker-private L1: its trace records the serving
  // level and carries no evaluate span.
  const auto hit_trace = tracer.find(hit.trace_id);
  ASSERT_TRUE(hit_trace.has_value());
  EXPECT_EQ(hit_trace->cache_level, 1);
  bool saw_probe = false;
  for (std::size_t i = 0; i < hit_trace->span_count; ++i) {
    const obs::Span& span = hit_trace->spans[i];
    EXPECT_NE(span.kind, obs::SpanKind::kEvaluate);
    if (span.kind == obs::SpanKind::kCacheProbe) {
      saw_probe = true;
      EXPECT_EQ(span.a, 1u);  // a = serving level
    }
  }
  EXPECT_TRUE(saw_probe);
}

TEST(DecisionEngineTracingTest, ShedIsTailSampledEvenWithHeadSamplingOff) {
  GateResolver gate;
  SnapshotPublisher publisher;
  publisher.publish(make_gated_store());
  // sample_every_n = 0: no head sampling at all — only the anomaly
  // tail-path can publish.
  obs::DecisionTracer tracer(obs::ObsConfig{.sample_every_n = 0});
  EngineConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  config.max_batch = 1;
  config.resolver = &gate;
  config.tracer = &tracer;
  DecisionEngine engine(publisher, config);

  auto wedged = engine.submit(probe_request());
  gate.wait_until_blocked(1);
  std::vector<std::future<EngineResult>> queued;
  for (int i = 0; i < 2; ++i) queued.push_back(engine.submit(probe_request()));
  const EngineResult shed = engine.submit(probe_request()).get();
  ASSERT_EQ(shed.status, CompletionStatus::kShedQueueFull);
  ASSERT_NE(shed.trace_id, 0u);

  // The shed was synthesized at completion: outcome, anomaly flag and
  // path summary all present despite head sampling being off.
  const auto trace = tracer.find(shed.trace_id);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->outcome, obs::TraceOutcome::kShedQueueFull);
  EXPECT_TRUE(trace->anomaly);
  EXPECT_EQ(trace->worker, obs::Trace::kNoWorker);
  EXPECT_EQ(trace->snapshot_version, 0u);
  EXPECT_EQ(trace->decision, core::DecisionType::kIndeterminate);
  ASSERT_GE(trace->span_count, 2u);
  EXPECT_EQ(trace->spans[0].kind, obs::SpanKind::kAdmission);
  const obs::Span& outcome = trace->spans[trace->span_count - 1];
  EXPECT_EQ(outcome.kind, obs::SpanKind::kOutcome);
  EXPECT_EQ(outcome.tag_view(), "shed-queue-full");
  EXPECT_EQ(tracer.anomalies_total(), 1u);

  gate.open();
  wedged.get();
  for (auto& f : queued) f.get();
  engine.shutdown();
  // Decided, non-sampled completions stayed unpublished.
  EXPECT_EQ(tracer.published_total(), 1u);
  EXPECT_EQ(tracer.admitted_total(), 4u);
}

TEST(DecisionEngineTracingTest, NoSnapshotFailsafeIsFlaggedAnomalous) {
  SnapshotPublisher publisher;
  obs::DecisionTracer tracer(obs::ObsConfig{.sample_every_n = 0});
  EngineConfig config;
  config.workers = 1;
  config.tracer = &tracer;
  DecisionEngine engine(publisher, config);
  const EngineResult result = engine.submit(probe_request()).get();
  engine.shutdown();
  ASSERT_TRUE(result.decision.is_indeterminate());
  const auto trace = tracer.find(result.trace_id);
  ASSERT_TRUE(trace.has_value());
  // Decided — the engine answered — but Indeterminate, so the trace is
  // an always-sampled anomaly.
  EXPECT_EQ(trace->outcome, obs::TraceOutcome::kDecided);
  EXPECT_TRUE(trace->anomaly);
  EXPECT_EQ(trace->decision, core::DecisionType::kIndeterminate);
}

TEST(DecisionEngineTracingTest, UntracedEngineAssignsNoTraceIds) {
  SnapshotPublisher publisher;
  publisher.publish(bench::make_policy_store(2));
  DecisionEngine engine(publisher, EngineConfig{.workers = 1});
  const EngineResult result = engine.submit(probe_request()).get();
  engine.shutdown();
  EXPECT_EQ(result.trace_id, 0u);
}

}  // namespace
}  // namespace mdac::runtime
