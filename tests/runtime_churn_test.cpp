// Concurrent policy churn against the runtime: workers evaluate at full
// rate while a PAP thread publishes snapshot after snapshot (directly,
// and through the repository lifecycle). The invariant under test is
// the runtime's consistency model: every decision is consistent with
// exactly ONE published snapshot — never a torn mix of two policy
// states — and sheds happen only at the queue bound, never because of
// churn. Designed to run under -DMDAC_TSAN=ON (see CMakeLists), where
// the publisher/worker interleavings are additionally race-checked. The
// slot-ring stress cases at the end race submitters against shutdown,
// the exact admission bound and the park/unpark path.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/decision_cache.hpp"
#include "common/clock.hpp"
#include "core/expression.hpp"
#include "core/pdp.hpp"
#include "core/serialization.hpp"
#include "engine_gate.hpp"
#include "obs/trace.hpp"
#include "pap/repository.hpp"
#include "runtime/engine.hpp"
#include "runtime/snapshot.hpp"

namespace mdac::runtime {
namespace {

/// A store whose one policy stamps every permit with the snapshot
/// iteration that produced it: obligation "stamp" assigns
/// version-tag = "v<k>". A decision is then self-identifying — if a
/// worker ever evaluated against a half-updated store, the decision
/// could not equal any single snapshot's expected decision.
std::shared_ptr<core::PolicyStore> make_stamped_store(int k) {
  auto store = std::make_shared<core::PolicyStore>();
  core::Policy p;
  p.policy_id = "probe-policy";
  core::Rule r;
  r.id = "permit-reads";
  r.effect = core::Effect::kPermit;
  core::ObligationExpr stamp;
  stamp.id = "stamp";
  stamp.fulfill_on = core::Effect::kPermit;
  stamp.assignments.push_back(
      core::AttributeAssignmentExpr{"version-tag", core::lit("v" + std::to_string(k))});
  r.obligations.push_back(std::move(stamp));
  p.rules.push_back(std::move(r));
  store->add(std::move(p));
  return store;
}

core::RequestContext probe_request() {
  return core::RequestContext::make("alice", "doc", "read");
}

/// Expected decisions per published snapshot version, recorded by the
/// PAP thread *before* each publication and read by the checker.
class ExpectedDecisions {
 public:
  void record(std::uint64_t version, core::Decision decision) {
    std::lock_guard lock(mutex_);
    by_version_[version] = std::move(decision);
  }

  std::optional<core::Decision> find(std::uint64_t version) const {
    std::lock_guard lock(mutex_);
    const auto it = by_version_.find(version);
    if (it == by_version_.end()) return std::nullopt;
    return it->second;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::uint64_t, core::Decision> by_version_;
};

TEST(RuntimeChurnTest, EveryDecisionMatchesExactlyOnePublishedSnapshot) {
  constexpr int kPublications = 60;
  constexpr int kRequests = 1500;

  SnapshotPublisher publisher;
  ExpectedDecisions expected;

  // First snapshot before the engine starts taking traffic, so every
  // request hits a real policy state.
  {
    auto store = make_stamped_store(1);
    core::Pdp oracle(store);
    expected.record(1, oracle.evaluate(probe_request()));
    publisher.publish(store);
  }

  EngineConfig config;
  config.workers = 4;
  config.queue_capacity = 4096;  // generous: churn must not cause sheds
  config.max_batch = 8;
  DecisionEngine engine(publisher, config);

  // The PAP thread: republish as fast as it can, recording each
  // snapshot's expected decision BEFORE it becomes current.
  std::thread pap([&] {
    for (int k = 2; k <= kPublications; ++k) {
      auto store = make_stamped_store(k);
      core::Pdp oracle(store);
      expected.record(static_cast<std::uint64_t>(k), oracle.evaluate(probe_request()));
      publisher.publish(store);
      std::this_thread::yield();
    }
  });

  // Meanwhile: full-rate submissions from the test thread, windowed so
  // the queue never reaches its bound.
  constexpr std::size_t kWindow = 512;
  std::vector<std::future<EngineResult>> inflight;
  inflight.reserve(kWindow);
  std::uint64_t max_version_seen = 0;
  std::size_t checked = 0;
  const auto check = [&](EngineResult result) {
    ASSERT_EQ(result.status, CompletionStatus::kDecided);
    ASSERT_GE(result.snapshot_version, 1u);
    // No torn reads: the decision must be byte-for-byte the expected
    // decision of the exact snapshot the worker reports serving, and
    // the stamp obligation inside it must agree (a mixed store would
    // desynchronise the two or produce an unknown stamp).
    const auto want = expected.find(result.snapshot_version);
    ASSERT_TRUE(want.has_value()) << "decision from unpublished snapshot "
                                  << result.snapshot_version;
    ASSERT_EQ(result.decision, *want);
    ASSERT_EQ(result.decision.obligations.size(), 1u);
    ASSERT_EQ(result.decision.obligations[0].assignments.size(), 1u);
    EXPECT_EQ(result.decision.obligations[0].assignments[0].second.as_string(),
              "v" + std::to_string(result.snapshot_version));
    max_version_seen = std::max(max_version_seen, result.snapshot_version);
    ++checked;
  };

  for (int i = 0; i < kRequests; ++i) {
    if (inflight.size() >= kWindow) {
      for (auto& f : inflight) check(f.get());
      inflight.clear();
    }
    inflight.push_back(engine.submit(probe_request()));
  }
  pap.join();
  // A final wave after the churn settles must observe the last snapshot.
  for (int i = 0; i < 8; ++i) inflight.push_back(engine.submit(probe_request()));
  for (auto& f : inflight) check(f.get());
  engine.shutdown();

  EXPECT_EQ(checked, static_cast<std::size_t>(kRequests) + 8);
  EXPECT_EQ(max_version_seen, static_cast<std::uint64_t>(kPublications));
  const EngineMetrics::Snapshot m = engine.metrics();
  // Churn never sheds: the queue bound is the only shedding cause.
  EXPECT_EQ(m.sheds(), 0u);
  EXPECT_EQ(m.decided, static_cast<std::uint64_t>(kRequests) + 8);
  // At least one worker re-adopted beyond its first snapshot (the churn
  // was observed); exact counts depend on scheduling.
  EXPECT_GE(m.snapshot_adoptions, 2u);
}

TEST(RuntimeChurnTest, RepositoryLifecycleChurnsThroughPublisher) {
  constexpr int kVersions = 25;

  SnapshotPublisher snapshots;
  common::ManualClock clock;  // owned by the PAP thread after start
  pap::PolicyRepository repo(clock);
  RepositoryPublisher pap_edge(repo, snapshots);

  // v1 issued before traffic starts.
  {
    auto store = make_stamped_store(1);
    ASSERT_TRUE(pap_edge.submit(
        core::node_to_string(*store->find("probe-policy")), "author"));
    ASSERT_TRUE(pap_edge.issue("probe-policy", "admin"));
  }
  ASSERT_EQ(snapshots.current_version(), 1u);

  EngineConfig config;
  config.workers = 2;
  config.queue_capacity = 2048;
  DecisionEngine engine(snapshots, config);

  // The withdrawal waits until the first submission below is decided, so
  // at least one decision in the churn window comes from a policy still
  // issued and `permits > 0` does not hinge on the workers winning a race
  // against the PAP thread (on a loaded host they can lose every one).
  std::atomic<bool> first_decided{false};

  // PAP thread: update (submit+issue) the policy through the repository
  // lifecycle; each successful issue republishes. Finally withdraw it.
  std::thread pap([&] {
    // EXPECT (not ASSERT) off the main thread — GTest fatal failures
    // may only abort the thread that raised them.
    for (int k = 2; k <= kVersions; ++k) {
      auto store = make_stamped_store(k);
      EXPECT_TRUE(pap_edge.submit(
          core::node_to_string(*store->find("probe-policy")), "author"));
      EXPECT_TRUE(pap_edge.issue("probe-policy", "admin"));
      clock.advance(1);
      std::this_thread::yield();
    }
    while (!first_decided.load()) std::this_thread::yield();
    EXPECT_TRUE(pap_edge.withdraw("probe-policy", "admin"));
  });

  // Submissions race the churn; every decision must be a well-formed
  // single-version permit, or — once the withdrawal lands — the empty
  // store's NotApplicable (which a PEP denies fail-safe).
  std::vector<std::future<EngineResult>> inflight;
  for (int i = 0; i < 600; ++i) inflight.push_back(engine.submit(probe_request()));
  inflight.front().wait();
  first_decided.store(true);
  pap.join();
  auto last = engine.submit(probe_request());
  std::size_t permits = 0;
  std::size_t not_applicable = 0;
  for (auto& f : inflight) {
    EngineResult r = f.get();
    ASSERT_EQ(r.status, CompletionStatus::kDecided);
    if (r.decision.is_permit()) {
      ASSERT_EQ(r.decision.obligations.size(), 1u);
      const std::string& tag = r.decision.obligations[0].assignments[0].second.as_string();
      EXPECT_EQ(tag.rfind("v", 0), 0u);
      ++permits;
    } else {
      EXPECT_TRUE(r.decision.is_not_applicable());
      ++not_applicable;
    }
  }
  EXPECT_GT(permits, 0u);
  // After the withdrawal's republication, the engine answers from the
  // empty issued set.
  EXPECT_TRUE(last.get().decision.is_not_applicable());
  engine.shutdown();
  EXPECT_EQ(engine.metrics().sheds(), 0u);
  // issue-republications + withdraw-republication all went through.
  EXPECT_EQ(snapshots.publications(), static_cast<std::uint64_t>(kVersions) + 1);
  (void)not_applicable;
}

TEST(RuntimeChurnTest, ReferencedPolicyChurnThroughCompiledSets) {
  // The ISSUE 5 reference-recompilation edge under live churn: an issued
  // PolicySet references the probe policy; the PAP re-issues the probe
  // policy version after version while the engine serves. Every issue()
  // recompiles the dependent set's artifact *before* RepositoryPublisher
  // republishes, and compiled references resolve through the snapshot's
  // own store — so every decision's stamp obligation must name exactly
  // the leaf version of the snapshot that served it. A stale set program
  // serving a withdrawn/replaced leaf would surface as a wrong stamp.
  constexpr int kVersions = 20;

  SnapshotPublisher snapshots;
  common::ManualClock clock;  // owned by the PAP thread after start
  pap::PolicyRepository repo(clock);
  RepositoryPublisher pap_edge(repo, snapshots);

  // Publication 1: leaf v1. Publication 2: + the referencing set.
  // Publication p >= 2 therefore serves leaf version p - 1.
  {
    auto store = make_stamped_store(1);
    ASSERT_TRUE(pap_edge.submit(
        core::node_to_string(*store->find("probe-policy")), "author"));
    ASSERT_TRUE(pap_edge.issue("probe-policy", "admin"));
    core::PolicySet set;
    set.policy_set_id = "probe-set";
    set.policy_combining = "deny-overrides";
    set.add_reference("probe-policy");
    ASSERT_TRUE(pap_edge.submit(core::node_to_string(set), "author"));
    ASSERT_TRUE(pap_edge.issue("probe-set", "admin"));
  }
  ASSERT_EQ(snapshots.current_version(), 2u);

  EngineConfig config;
  config.workers = 2;
  config.queue_capacity = 2048;
  DecisionEngine engine(snapshots, config);

  // The withdrawal waits until the first submission below is decided, so
  // at least one decision in the churn window comes from a policy still
  // issued and `permits > 0` does not hinge on the workers winning a race
  // against the PAP thread (on a loaded host they can lose every one).
  std::atomic<bool> first_decided{false};

  std::thread pap([&] {
    for (int k = 2; k <= kVersions; ++k) {
      auto store = make_stamped_store(k);
      EXPECT_TRUE(pap_edge.submit(
          core::node_to_string(*store->find("probe-policy")), "author"));
      EXPECT_TRUE(pap_edge.issue("probe-policy", "admin"));
      clock.advance(1);
      std::this_thread::yield();
    }
    while (!first_decided.load()) std::this_thread::yield();
    EXPECT_TRUE(pap_edge.withdraw("probe-policy", "admin"));
  });

  std::vector<std::future<EngineResult>> inflight;
  for (int i = 0; i < 600; ++i) inflight.push_back(engine.submit(probe_request()));
  inflight.front().wait();
  first_decided.store(true);
  pap.join();
  auto last = engine.submit(probe_request());

  std::size_t permits = 0;
  for (auto& f : inflight) {
    EngineResult r = f.get();
    ASSERT_EQ(r.status, CompletionStatus::kDecided);
    if (r.decision.is_permit()) {
      // Snapshot p carries leaf version p - 1 (p == 1: version 1).
      const std::string expected_tag =
          "v" + std::to_string(r.snapshot_version <= 1 ? 1
                                                       : r.snapshot_version - 1);
      ASSERT_GE(r.decision.obligations.size(), 1u);
      for (const auto& ob : r.decision.obligations) {
        ASSERT_EQ(ob.assignments.size(), 1u);
        EXPECT_EQ(ob.assignments[0].second.as_string(), expected_tag)
            << "snapshot " << r.snapshot_version;
      }
      ++permits;
    } else {
      // Only the post-withdrawal snapshot may produce a non-permit, and
      // it must never surface the withdrawn policy's stamp.
      EXPECT_EQ(r.snapshot_version, snapshots.current_version());
      EXPECT_TRUE(r.decision.obligations.empty());
    }
  }
  EXPECT_GT(permits, 0u);

  // After the withdrawal's republication only the set remains; its
  // reference no longer resolves, so the withdrawn permit (and its
  // stamp) is unreachable — fail-safe, not stale.
  const EngineResult final_result = last.get();
  EXPECT_FALSE(final_result.decision.is_permit());
  EXPECT_TRUE(final_result.decision.obligations.empty());
  engine.shutdown();
  EXPECT_EQ(engine.metrics().sheds(), 0u);
  // 2 setup publications + (kVersions - 1) re-issues + 1 withdrawal.
  EXPECT_EQ(snapshots.publications(), static_cast<std::uint64_t>(kVersions) + 2);
}

TEST(RuntimeChurnTest, TwoLevelCacheNeverServesAStaleDecisionUnderChurn) {
  // The PR-8 staleness pin, under churn and under TSan: with BOTH cache
  // levels in play (worker-local L1, shared seqlock L2), every decision
  // — evaluated, L1-served, or L2-served — must still be byte-for-byte
  // the expected decision of the snapshot version the worker reports.
  // A cache serving across a republication boundary would surface as a
  // stamp/version mismatch.
  constexpr int kPublications = 40;
  constexpr int kRequests = 2000;
  constexpr int kHotKeys = 4;

  SnapshotPublisher publisher;
  ExpectedDecisions expected;
  {
    auto store = make_stamped_store(1);
    core::Pdp oracle(store);
    expected.record(1, oracle.evaluate(probe_request()));
    publisher.publish(store);
  }

  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 4096});
  EngineConfig config;
  config.workers = 4;
  config.queue_capacity = 4096;
  config.max_batch = 8;
  config.l1_capacity = 256;
  DecisionEngine engine(publisher, config, &cache);

  std::thread pap([&] {
    for (int k = 2; k <= kPublications; ++k) {
      auto store = make_stamped_store(k);
      core::Pdp oracle(store);
      expected.record(static_cast<std::uint64_t>(k), oracle.evaluate(probe_request()));
      publisher.publish(store);
      std::this_thread::yield();
    }
  });

  // A small hot pool so both levels see heavy reuse. The policy ignores
  // the subject, so every hot request shares each version's expected
  // decision.
  std::vector<core::RequestContext> hot;
  for (int i = 0; i < kHotKeys; ++i) {
    hot.push_back(core::RequestContext::make("user-" + std::to_string(i), "doc", "read"));
  }

  std::size_t checked = 0;
  const auto check = [&](EngineResult result) {
    ASSERT_EQ(result.status, CompletionStatus::kDecided);
    ASSERT_LE(result.cache_level, 2);
    const auto want = expected.find(result.snapshot_version);
    ASSERT_TRUE(want.has_value()) << "decision from unpublished snapshot "
                                  << result.snapshot_version;
    // Stale cache entries (either level) desynchronise stamp & version.
    ASSERT_EQ(result.decision, *want) << "cache level " << int{result.cache_level};
    ASSERT_EQ(result.decision.obligations[0].assignments[0].second.as_string(),
              "v" + std::to_string(result.snapshot_version));
    ++checked;
  };

  constexpr std::size_t kWindow = 512;
  std::vector<std::future<EngineResult>> inflight;
  inflight.reserve(kWindow);
  for (int i = 0; i < kRequests; ++i) {
    if (inflight.size() >= kWindow) {
      for (auto& f : inflight) check(f.get());
      inflight.clear();
    }
    inflight.push_back(engine.submit(hot[i % kHotKeys]));
  }
  pap.join();
  for (auto& f : inflight) check(f.get());
  inflight.clear();

  // Settled tail, version now fixed at kPublications. (a) Hammer one key
  // sequentially: each worker's first encounter may miss or hit L2, every
  // later one is an L1 hit — pigeonhole guarantees l1_hits > 0. (b) Seed
  // L2 directly with a never-submitted key at the final version; its
  // first submission must be served from L2 (the worker's L1 can't hold
  // it), guaranteeing l2_hits > 0.
  for (int i = 0; i < 64; ++i) check(engine.submit(hot[0]).get());
  {
    const auto final_version = static_cast<std::uint64_t>(kPublications);
    const auto fresh = core::RequestContext::make("bob", "doc", "read");
    cache.insert(cache::fingerprint(fresh), final_version,
                 *expected.find(final_version));
    EngineResult r = engine.submit(fresh).get();
    check(r);
    EXPECT_EQ(r.cache_level, 2);
    EXPECT_EQ(r.snapshot_version, final_version);
  }
  engine.shutdown();

  EXPECT_EQ(checked, static_cast<std::size_t>(kRequests) + 64 + 1);
  const EngineMetrics::Snapshot m = engine.metrics();
  EXPECT_EQ(m.sheds(), 0u);
  EXPECT_GT(m.l1_hits, 0u);
  EXPECT_GT(m.l2_hits, 0u);
  EXPECT_GT(m.cache_misses, 0u);
  EXPECT_EQ(m.cache_hits, m.l1_hits + m.l2_hits);
}

// ---------------------------------------------------------------------
// Tracing under churn: sampled traces stay internally consistent while
// the PAP republishes at full rate. Run under -DMDAC_TSAN=ON this also
// race-checks the tracer's publish/query paths against live workers.
// ---------------------------------------------------------------------

TEST(RuntimeChurnTest, SampledTracesStayConsistentUnderRepublication) {
  constexpr int kPublications = 40;
  constexpr int kRequests = 1200;

  SnapshotPublisher publisher;
  publisher.publish(make_stamped_store(1));

  // Sample everything, ring big enough that nothing is evicted — every
  // submission's trace must be auditable afterwards.
  obs::DecisionTracer tracer(
      obs::ObsConfig{.sample_every_n = 1, .ring_capacity = kRequests + 16});
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 2048});
  EngineConfig config;
  config.workers = 4;
  config.queue_capacity = 4096;
  config.max_batch = 8;
  config.l1_capacity = 128;
  config.tracer = &tracer;
  DecisionEngine engine(publisher, config, &cache);

  std::thread pap([&] {
    for (int k = 2; k <= kPublications; ++k) {
      publisher.publish(make_stamped_store(k));
      std::this_thread::yield();
    }
  });

  // trace id -> the completion's own stamp, collected on this thread.
  std::map<std::uint64_t, EngineResult> results;
  constexpr std::size_t kWindow = 256;
  std::vector<std::future<EngineResult>> inflight;
  const auto drain = [&] {
    for (auto& f : inflight) {
      EngineResult r = f.get();
      ASSERT_NE(r.trace_id, 0u);
      results.emplace(r.trace_id, std::move(r));
    }
    inflight.clear();
  };
  for (int i = 0; i < kRequests; ++i) {
    if (inflight.size() >= kWindow) drain();
    inflight.push_back(engine.submit(probe_request()));
  }
  drain();
  pap.join();
  engine.shutdown();

  ASSERT_EQ(results.size(), static_cast<std::size_t>(kRequests));
  std::size_t audited = 0;
  for (const obs::Trace& trace : tracer.traces()) {
    const auto it = results.find(trace.trace_id);
    ASSERT_NE(it, results.end()) << "trace for an unknown submission";
    const EngineResult& result = it->second;
    // Internal consistency: the trace's snapshot stamp is the decision
    // stamp — a worker can never report serving one snapshot in its
    // result and another in its trace.
    EXPECT_EQ(trace.snapshot_version, result.snapshot_version);
    EXPECT_EQ(trace.cache_level, result.cache_level);
    EXPECT_EQ(trace.outcome, obs::TraceOutcome::kDecided);
    EXPECT_LT(trace.worker, config.workers);
    // Monotone timeline from admission to outcome.
    EXPECT_GE(trace.finished_ns, trace.started_ns);
    ASSERT_GE(trace.span_count, 2u);
    EXPECT_EQ(trace.spans[0].kind, obs::SpanKind::kAdmission);
    EXPECT_EQ(trace.spans[trace.span_count - 1].kind, obs::SpanKind::kOutcome);
    for (std::size_t i = 0; i < trace.span_count; ++i) {
      EXPECT_GE(trace.spans[i].at_ns, trace.started_ns);
      if (i > 0) {
        EXPECT_GE(trace.spans[i].at_ns, trace.spans[i - 1].at_ns);
      }
    }
    ++audited;
  }
  EXPECT_EQ(audited, static_cast<std::size_t>(kRequests));
  EXPECT_EQ(tracer.published_total(), static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(tracer.ring_dropped_total(), 0u);
}

// ---------------------------------------------------------------------
// Slot ring and admission word under racing submitters
// ---------------------------------------------------------------------

/// Counts how each of `n` submissions completed, per submission and per
/// status, so a test can check that every callback fired exactly once.
class CompletionLedger {
 public:
  explicit CompletionLedger(std::size_t n) : fired_(n) {}

  DecisionEngine::Callback callback(std::size_t i) {
    return [this, i](EngineResult r) {
      fired_[i].fetch_add(1, std::memory_order_relaxed);
      by_status_[static_cast<std::size_t>(r.status)].fetch_add(1, std::memory_order_relaxed);
    };
  }

  std::size_t count(CompletionStatus status) const {
    return by_status_[static_cast<std::size_t>(status)].load();
  }

  /// Submissions whose callback fired zero times or more than once.
  std::size_t not_fired_once() const {
    std::size_t bad = 0;
    for (const auto& f : fired_) bad += f.load() == 1 ? 0 : 1;
    return bad;
  }

 private:
  std::vector<std::atomic<std::uint32_t>> fired_;
  std::array<std::atomic<std::size_t>, 4> by_status_{};
};

/// Every submission was answered exactly once, the engine's counters
/// agree with the callbacks, and nothing is left admitted.
void expect_all_answered(const DecisionEngine& engine, const CompletionLedger& ledger,
                         std::size_t submitted) {
  EXPECT_EQ(ledger.not_fired_once(), 0u);
  const EngineMetrics::Snapshot m = engine.metrics();
  EXPECT_EQ(m.submitted, submitted);
  EXPECT_EQ(m.decided + m.sheds(), submitted);
  EXPECT_EQ(m.decided, ledger.count(CompletionStatus::kDecided));
  EXPECT_EQ(m.shed_queue_full, ledger.count(CompletionStatus::kShedQueueFull));
  EXPECT_EQ(m.shed_shutdown, ledger.count(CompletionStatus::kShutdown));
  EXPECT_EQ(engine.queue_depth(), 0u);
  EXPECT_EQ(m.queue_depth, 0u);
}

constexpr std::size_t kSubmitters = 4;
constexpr std::size_t kPerSubmitter = 2000;

/// Starts kSubmitters threads submitting kPerSubmitter requests each;
/// `submitted` counts submissions that have returned.
std::vector<std::thread> start_submitters(DecisionEngine& engine, CompletionLedger& ledger,
                                          std::atomic<std::size_t>& submitted) {
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&engine, &ledger, &submitted, t] {
      for (std::size_t i = 0; i < kPerSubmitter; ++i) {
        engine.submit(probe_request(), ledger.callback(t * kPerSubmitter + i));
        submitted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  return threads;
}

TEST(RuntimeChurnTest, SubmittersRacingDrainShutdownAreAllAnswered) {
  SnapshotPublisher publisher;
  publisher.publish(make_stamped_store(1));
  EngineConfig config;
  config.workers = 2;
  config.queue_capacity = 256;
  config.max_batch = 16;
  DecisionEngine engine(publisher, config);

  constexpr std::size_t kTotal = kSubmitters * kPerSubmitter;
  CompletionLedger ledger(kTotal);
  std::atomic<std::size_t> submitted{0};
  std::vector<std::thread> submitters = start_submitters(engine, ledger, submitted);
  while (submitted.load() < kTotal / 4) std::this_thread::yield();
  engine.shutdown(DecisionEngine::Drain::kDrain);
  for (std::thread& t : submitters) t.join();

  expect_all_answered(engine, ledger, kTotal);
  EXPECT_EQ(ledger.count(CompletionStatus::kShedDeadline), 0u);
}

TEST(RuntimeChurnTest, SubmittersRacingDiscardShutdownAreAllAnswered) {
  GateResolver gate;
  SnapshotPublisher publisher;
  publisher.publish(make_gated_store());
  EngineConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  config.max_batch = 1;
  config.resolver = &gate;
  DecisionEngine engine(publisher, config);

  // Wedge both workers on one request each first, so nothing pops while
  // the submitters fill the ring: the count only grows until the close.
  constexpr std::size_t kTotal = kSubmitters * kPerSubmitter;
  CompletionLedger ledger(kTotal + config.workers);
  for (std::size_t w = 0; w < config.workers; ++w) {
    engine.submit(probe_request(), ledger.callback(kTotal + w));
  }
  gate.wait_until_blocked(config.workers);
  std::atomic<std::size_t> submitted{0};
  std::vector<std::thread> submitters = start_submitters(engine, ledger, submitted);
  while (engine.queue_depth() < config.queue_capacity) std::this_thread::yield();

  std::thread stopper([&] { engine.shutdown(DecisionEngine::Drain::kDiscard); });
  while (engine.accepting()) std::this_thread::yield();
  for (std::thread& t : submitters) t.join();
  // The discard empties the ring while the workers are still wedged;
  // only then may they finish their one request each and exit.
  while (engine.queue_depth() != 0) std::this_thread::yield();
  gate.open();
  stopper.join();

  expect_all_answered(engine, ledger, kTotal + config.workers);
  EXPECT_EQ(ledger.count(CompletionStatus::kDecided), config.workers);
  // The full ring was discarded, on top of any post-close submissions.
  EXPECT_GE(ledger.count(CompletionStatus::kShutdown), config.queue_capacity);
}

TEST(RuntimeChurnTest, DiscardMidStreamAnswersOnceAndFreesEveryCallback) {
  // Four submitters stream ungated requests; the discard lands while
  // workers are completing and handing jobs back through the return
  // ring. Each callback owns a heap block (a copy of `token`), so the
  // ring carries callbacks as well as requests. In the sanitizer trees,
  // ThreadSanitizer checks the hand-back and LeakSanitizer that nothing
  // the ring held outlives the engine.
  SnapshotPublisher publisher;
  publisher.publish(make_stamped_store(1));
  EngineConfig config;
  config.workers = 2;
  config.queue_capacity = 256;
  config.max_batch = 16;
  DecisionEngine engine(publisher, config);

  constexpr std::size_t kTotal = kSubmitters * kPerSubmitter;
  CompletionLedger ledger(kTotal);
  const auto token = std::make_shared<int>(0);
  std::atomic<std::size_t> submitted{0};
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerSubmitter; ++i) {
        DecisionEngine::Callback done = ledger.callback(t * kPerSubmitter + i);
        engine.submit(probe_request(),
                      [done, token](EngineResult r) { done(std::move(r)); });
        submitted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Mid-stream: workers have completed (and handed back) some jobs.
  while (submitted.load() < kTotal / 2 ||
         ledger.count(CompletionStatus::kDecided) == 0) {
    std::this_thread::yield();
  }
  engine.shutdown(DecisionEngine::Drain::kDiscard);
  for (std::thread& t : submitters) t.join();

  expect_all_answered(engine, ledger, kTotal);
  // shutdown() emptied the return ring and the submitters have returned:
  // every callback object is gone, whichever thread destroyed it.
  EXPECT_EQ(token.use_count(), 1);
}

TEST(RuntimeChurnTest, AdmissionBoundIsExactForNonPowerOfTwoCapacity) {
  GateResolver gate;
  SnapshotPublisher publisher;
  publisher.publish(make_gated_store());
  EngineConfig config;
  config.workers = 1;
  config.queue_capacity = 100;  // the ring rounds up to 128 slots
  config.max_batch = 1;
  config.resolver = &gate;
  DecisionEngine engine(publisher, config);

  constexpr std::size_t kOverflow = 7;
  const std::size_t total = 1 + config.queue_capacity + kOverflow;
  CompletionLedger ledger(total);
  engine.submit(probe_request(), ledger.callback(0));
  gate.wait_until_blocked(1);
  for (std::size_t i = 1; i < total; ++i) engine.submit(probe_request(), ledger.callback(i));

  // Queue-full sheds complete on this thread before submit returns.
  EXPECT_EQ(ledger.count(CompletionStatus::kShedQueueFull), kOverflow);
  EXPECT_EQ(engine.queue_depth(), config.queue_capacity);
  EXPECT_DOUBLE_EQ(engine.metrics().saturation(), 1.0);

  gate.open();
  engine.shutdown(DecisionEngine::Drain::kDrain);
  expect_all_answered(engine, ledger, total);
  EXPECT_EQ(ledger.count(CompletionStatus::kDecided), 1 + config.queue_capacity);
}

TEST(RuntimeChurnTest, IdleEngineNeverLosesAWakeUp) {
  SnapshotPublisher publisher;
  publisher.publish(make_stamped_store(1));
  EngineConfig config;
  config.workers = 2;
  DecisionEngine engine(publisher, config);

  // Each round trip finds the workers idle (or about to park), so every
  // submit exercises the sleeper check and every pop the park path. A
  // lost wake-up would leave a request waiting forever.
  constexpr int kRoundTrips = 10'000;
  for (int i = 0; i < kRoundTrips; ++i) {
    std::future<EngineResult> f = engine.submit(probe_request());
    ASSERT_EQ(f.wait_for(std::chrono::seconds(1)), std::future_status::ready)
        << "round trip " << i << " was never picked up";
    ASSERT_EQ(f.get().status, CompletionStatus::kDecided);
  }
  engine.shutdown();
  EXPECT_EQ(engine.metrics().decided, static_cast<std::uint64_t>(kRoundTrips));
}

}  // namespace
}  // namespace mdac::runtime
