// mdac::obs — unified metrics registry and decision tracer.
//
//   * Instruments: sharded Counter and Histogram (per-shard reads,
//     sums, reset, the percentile bucket rule).
//   * Registry unit behaviour: collectors, type-mismatch refusal, label
//     escaping, stable exposition ordering.
//   * DecisionTracer: head-sampling cadence, explain ring wrap and
//     eviction accounting, queries, rendering.
//   * Golden-file exposition: one registry covering EVERY adapted
//     subsystem (engine, cache, dispatch + breakers, heartbeat, PAP
//     audit ring, tracer self-telemetry) driven by a deterministic
//     workload, compared byte-for-byte against
//     tests/golden/metrics_exposition.prom. Regenerate with
//       MDAC_UPDATE_GOLDEN=1 ./obs_test --gtest_filter='*Golden*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/decision_cache.hpp"
#include "common/clock.hpp"
#include "core/serialization.hpp"
#include "dependability/heartbeat.hpp"
#include "dependability/replicated_pdp.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "pap/repository.hpp"
#include "runtime/engine.hpp"
#include "runtime/snapshot.hpp"

namespace mdac::obs {
namespace {

// ---------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------

TEST(CounterTest, ShardsReadAloneAndSum) {
  Counter c(4);
  EXPECT_EQ(c.shards(), 4u);
  for (std::size_t shard = 0; shard < 4; ++shard) c.add(10 * (shard + 1), shard);
  c.add();                 // one, into shard 0
  c.add(5, /*shard=*/99);  // out-of-range shards fold into shard 0
  EXPECT_EQ(c.value(0), 16u);
  EXPECT_EQ(c.value(1), 20u);
  EXPECT_EQ(c.value(2), 30u);
  EXPECT_EQ(c.value(3), 40u);
  EXPECT_EQ(c.value(), 106u);
  EXPECT_EQ(Counter(0).shards(), 1u);  // zero shards means one
}

TEST(CounterTest, ResetZeroesEveryShard) {
  Counter c(3);
  for (std::size_t shard = 0; shard < 3; ++shard) c.add(7, shard);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  for (std::size_t shard = 0; shard < 3; ++shard) EXPECT_EQ(c.value(shard), 0u);
  c.add(2, 1);
  EXPECT_EQ(c.value(), 2u);
}

TEST(HistogramTest, ShardsSumIntoOneSnapshot) {
  Histogram h(3);
  h.observe(0, 0);     // bucket 0
  h.observe(1, 1);     // bucket 1: [1, 2)
  h.observe(1000, 2);  // bucket 10: [512, 1024)
  h.observe(1023, 7);  // out-of-range shard folds into shard 0; bucket 10
  h.observe(~std::uint64_t{0}, 1);  // the widest value lands in the last bucket
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.total, 5u);
  EXPECT_EQ(s.counts[0], 1u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[10], 2u);
  EXPECT_EQ(s.counts[Histogram::kBuckets - 1], 1u);
  EXPECT_EQ(s.sum, 0u + 1u + 1000u + 1023u + ~std::uint64_t{0});  // wraps, like the atomic
  EXPECT_DOUBLE_EQ(Histogram::Snapshot::upper_bound(10), 1024.0);
}

TEST(HistogramTest, ResetZeroesEveryShard) {
  Histogram h(2);
  h.observe(5, 0);
  h.observe(500, 1);
  h.reset();
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.total, 0u);
  EXPECT_EQ(s.sum, 0u);
  for (const std::uint64_t count : s.counts) EXPECT_EQ(count, 0u);
  EXPECT_EQ(s.percentile(0.5), 0.0);
}

TEST(HistogramTest, PercentileReadsTheBucketRule) {
  // Bucket 0 reads 0, bucket i reads 1.5 * 2^(i-1): the first bucket
  // whose cumulative count exceeds q * total.
  EXPECT_EQ(Histogram().snapshot().percentile(0.5), 0.0);  // empty reads 0

  Histogram h;
  h.observe(0);                              // bucket 0
  for (int i = 0; i < 8; ++i) h.observe(3);  // bucket 2 -> 3
  h.observe(1000);                           // bucket 10 -> 768
  const Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.total, 10u);
  EXPECT_EQ(s.percentile(0.0), 0.0);    // target 0: bucket 0 already exceeds it
  EXPECT_EQ(s.percentile(0.05), 0.0);   // target 0
  EXPECT_EQ(s.percentile(0.1), 3.0);    // target 1: bucket 0 holds only 1
  EXPECT_EQ(s.percentile(0.5), 3.0);
  EXPECT_EQ(s.percentile(0.89), 3.0);   // target 8: cumulative 9 at bucket 2
  EXPECT_EQ(s.percentile(0.9), 768.0);  // target 9: cumulative 10 at bucket 10
  EXPECT_EQ(s.percentile(0.99), 768.0);
  // q = 1 asks for a count above the total: past the end reads the last
  // bucket, 1.5 * 2^62.
  EXPECT_EQ(s.percentile(1.0), 1.5 * 4611686018427387904.0);

  Histogram one;
  one.observe(1);  // bucket 1 -> 1.5
  EXPECT_EQ(one.snapshot().percentile(0.5), 1.5);
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

TEST(RegistryTest, TypeMismatchOnOneNameThrows) {
  Registry registry;
  registry.add_collector([](MetricSink& sink) {
    sink.counter("mdac_test_value", "Help.", 1);
  });
  const std::uint64_t histogram = registry.add_collector([](MetricSink& sink) {
    Histogram h;
    h.observe(10);
    sink.histogram("mdac_test_value", "Help.", h.snapshot());
  });
  EXPECT_THROW(registry.expose(), std::logic_error);
  registry.remove_collector(histogram);
  const std::uint64_t gauge = registry.add_collector([](MetricSink& sink) {
    sink.gauge("mdac_test_value", "Help.", 2);
  });
  EXPECT_THROW(registry.expose(), std::logic_error);
  registry.remove_collector(gauge);
  EXPECT_NE(registry.expose().find("mdac_test_value 1"), std::string::npos);
}

TEST(RegistryTest, LabelValuesAreEscaped) {
  EXPECT_EQ(render_label_block({{"path", "a\\b\"c\nd"}}),
            "{path=\"a\\\\b\\\"c\\nd\"}");
  EXPECT_EQ(render_label_block({}), "");
}

TEST(RegistryTest, ExpositionOrderingIsStable) {
  Registry registry;
  // Reported out of order on purpose: exposition sorts families by
  // name and samples by label block.
  registry.add_collector([](MetricSink& sink) {
    sink.counter("mdac_zz_total", "Last.", 1);
    sink.counter("mdac_aa_total", "First.", 2, {{"x", "2"}});
  });
  registry.add_collector([](MetricSink& sink) {
    sink.counter("mdac_aa_total", "First.", 1, {{"x", "1"}});
  });
  const std::string page = registry.expose();
  const std::size_t aa = page.find("mdac_aa_total{x=\"1\"} 1");
  const std::size_t aa2 = page.find("mdac_aa_total{x=\"2\"} 2");
  const std::size_t zz = page.find("mdac_zz_total 1");
  ASSERT_NE(aa, std::string::npos);
  ASSERT_NE(aa2, std::string::npos);
  ASSERT_NE(zz, std::string::npos);
  EXPECT_LT(aa, aa2);
  EXPECT_LT(aa2, zz);
  // HELP/TYPE appear exactly once per family.
  EXPECT_EQ(page.find("# HELP mdac_aa_total"), page.rfind("# HELP mdac_aa_total"));
}

TEST(RegistryTest, CollectorsReportFreshValuesAndCanBeRemoved) {
  Registry registry;
  int value = 1;
  const std::uint64_t id = registry.add_collector([&value](MetricSink& sink) {
    sink.counter("mdac_pull_total", "Pulled.", static_cast<double>(value));
  });
  EXPECT_NE(registry.expose().find("mdac_pull_total 1"), std::string::npos);
  value = 2;
  EXPECT_NE(registry.expose().find("mdac_pull_total 2"), std::string::npos);
  registry.remove_collector(id);
  EXPECT_EQ(registry.expose().find("mdac_pull_total"), std::string::npos);
}

// ---------------------------------------------------------------------
// DecisionTracer
// ---------------------------------------------------------------------

TEST(DecisionTracerTest, HeadSamplingCadence) {
  DecisionTracer tracer(ObsConfig{.sample_every_n = 3});
  std::size_t sampled = 0;
  for (int i = 0; i < 9; ++i) {
    const TraceHandle h = tracer.admit();
    EXPECT_NE(h.id, 0u);
    if (h.sampled) ++sampled;
  }
  EXPECT_EQ(sampled, 3u);
  EXPECT_EQ(tracer.admitted_total(), 9u);
  EXPECT_EQ(tracer.sampled_total(), 3u);
  // sample_every_n = 0 disables head sampling entirely.
  DecisionTracer off(ObsConfig{.sample_every_n = 0});
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(off.admit().sampled);
}

Trace make_trace(std::uint64_t id, std::uint64_t latency_ns, TraceOutcome outcome) {
  Trace t;
  t.trace_id = id;
  t.started_ns = 1000;
  t.finished_ns = 1000 + latency_ns;
  t.outcome = outcome;
  t.record(SpanKind::kAdmission, t.started_ns);
  t.record(SpanKind::kOutcome, t.finished_ns);
  return t;
}

TEST(DecisionTracerTest, RingWrapsAndCountsEvictions) {
  DecisionTracer tracer(ObsConfig{.ring_capacity = 4});
  for (std::uint64_t i = 1; i <= 10; ++i) {
    tracer.publish(make_trace(i, i * 100, TraceOutcome::kDecided));
  }
  EXPECT_EQ(tracer.published_total(), 10u);
  EXPECT_EQ(tracer.ring_dropped_total(), 6u);
  EXPECT_EQ(tracer.traces().size(), 4u);
  // The newest four survive; the evicted ones are gone.
  EXPECT_TRUE(tracer.find(10).has_value());
  EXPECT_TRUE(tracer.find(7).has_value());
  EXPECT_FALSE(tracer.find(6).has_value());
}

TEST(DecisionTracerTest, QueriesByOutcomeAndWorstLatency) {
  DecisionTracer tracer(ObsConfig{.ring_capacity = 8});
  tracer.publish(make_trace(1, 500, TraceOutcome::kDecided));
  tracer.publish(make_trace(2, 9000, TraceOutcome::kShedQueueFull));
  tracer.publish(make_trace(3, 2000, TraceOutcome::kDecided));
  const auto worst = tracer.worst_latency();
  ASSERT_TRUE(worst.has_value());
  EXPECT_EQ(worst->trace_id, 2u);
  const auto sheds = tracer.with_outcome(TraceOutcome::kShedQueueFull);
  ASSERT_EQ(sheds.size(), 1u);
  EXPECT_EQ(sheds.front().trace_id, 2u);
  EXPECT_EQ(tracer.with_outcome(TraceOutcome::kFailsafe).size(), 0u);
}

TEST(DecisionTracerTest, SpanOverflowIsCountedNotFatal) {
  Trace t;
  for (std::size_t i = 0; i < Trace::kMaxSpans + 3; ++i) {
    t.record(SpanKind::kEvaluate, i);
  }
  EXPECT_EQ(t.span_count, Trace::kMaxSpans);
  EXPECT_EQ(t.spans_dropped, 3u);
}

TEST(DecisionTracerTest, RenderShowsIdOutcomeAndSpans) {
  Trace t = make_trace(0xabcdef, 1500, TraceOutcome::kDecided);
  t.decision = core::DecisionType::kPermit;
  t.worker = 2;
  t.snapshot_version = 7;
  const std::string text = render(t);
  EXPECT_NE(text.find("0000000000abcdef"), std::string::npos);
  EXPECT_NE(text.find("decided"), std::string::npos);
  EXPECT_NE(text.find("permit"), std::string::npos);
  EXPECT_NE(text.find("admission"), std::string::npos);
  EXPECT_NE(text.find("worker=2"), std::string::npos);
}

// ---------------------------------------------------------------------
// Golden-file Prometheus exposition across every adapted subsystem
// ---------------------------------------------------------------------

std::shared_ptr<core::Pdp> permit_reads_pdp() {
  auto store = std::make_shared<core::PolicyStore>();
  core::Policy p;
  p.policy_id = "permit-reads";
  p.rule_combining = "first-applicable";
  core::Rule permit;
  permit.id = "permit-read";
  permit.effect = core::Effect::kPermit;
  core::Target t;
  t.require(core::Category::kAction, core::attrs::kActionId,
            core::AttributeValue("read"));
  permit.target = std::move(t);
  p.rules.push_back(std::move(permit));
  core::Rule deny;
  deny.id = "deny-rest";
  deny.effect = core::Effect::kDeny;
  p.rules.push_back(std::move(deny));
  store->add(std::move(p));
  return std::make_shared<core::Pdp>(store);
}

std::string simple_policy_xml(const std::string& id) {
  core::Policy p;
  p.policy_id = id;
  core::Rule r;
  r.id = "permit-all";
  r.effect = core::Effect::kPermit;
  p.rules.push_back(std::move(r));
  return core::node_to_string(p);
}

TEST(GoldenExpositionTest, FullRegistryMatchesGoldenFile) {
  // Every input below is deterministic: the dispatch workload runs on
  // the seeded network simulator (virtual time), the engine takes no
  // traffic (zeros are deterministic), and the PAP uses a ManualClock.
  obs::Registry registry;

  // Escaping demo pinned in the golden output.
  registry.add_collector([](MetricSink& sink) {
    sink.counter("mdac_example_escapes_total", "Label escaping demo.", 1,
                 {{"path", "a\\b\"c\nd"}});
  });

  // PAP with a wrapping audit ring: 2 policies x (submit + issue) = 4
  // entries through a capacity-2 ring -> 2 drops.
  common::ManualClock clock;
  pap::PapConfig pap_config;
  pap_config.lint_on_issue = false;
  pap_config.audit_capacity = 2;
  pap::PolicyRepository repo(clock, pap_config);
  ASSERT_TRUE(repo.submit(simple_policy_xml("p1"), "author"));
  ASSERT_TRUE(repo.issue("p1", "admin"));
  ASSERT_TRUE(repo.submit(simple_policy_xml("p2"), "author"));
  ASSERT_TRUE(repo.issue("p2", "admin"));
  repo.register_metrics(registry);

  // Engine + two-level cache, no traffic.
  runtime::SnapshotPublisher publisher;
  cache::DecisionCache cache(cache::DecisionCache::TwoLevelConfig{.capacity = 64});
  runtime::EngineConfig engine_config;
  engine_config.workers = 2;
  engine_config.queue_capacity = 8;
  runtime::DecisionEngine engine(publisher, engine_config, &cache);
  engine.register_metrics(registry);
  // An idle worker parks once and stays parked: wait for both, so the
  // park count on the page is exact.
  while (engine.metrics().parks < engine_config.workers) std::this_thread::yield();
  cache.register_metrics(registry);

  // Dispatch over a dead primary: one timeout, one failover decide —
  // exact counts fixed by the simulator.
  net::Simulator sim;
  net::Network network(sim);
  network.set_default_link({10, 0, 0.0});
  auto pdp = permit_reads_pdp();
  dependability::PdpReplica r0(network, "pdp/0", pdp);
  dependability::PdpReplica r1(network, "pdp/1", pdp);
  r0.set_up(false);
  obs::DecisionTracer tracer(obs::ObsConfig{.sample_every_n = 1});
  dependability::DispatchConfig dispatch_config;
  dispatch_config.tracer = &tracer;
  dependability::ReplicatedPdpClient client(
      network, "pep", {"pdp/0", "pdp/1"},
      dependability::DispatchStrategy::kFailover, dispatch_config);
  std::optional<core::Decision> got;
  client.evaluate(core::RequestContext::make("alice", "doc", "read"),
                  [&](core::Decision d) { got = std::move(d); });
  sim.run();
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->is_permit());
  client.register_metrics(registry);
  tracer.register_metrics(registry);

  // Heartbeat monitor, constructed but not started: liveness gauges
  // report down, probe counters zero.
  dependability::HeartbeatMonitor monitor(network, "monitor", {"pdp/0", "pdp/1"},
                                          100, 50);
  monitor.register_metrics(registry);

  const std::string page = registry.expose();
  const std::string golden_path =
      std::string(MDAC_TEST_SOURCE_DIR) + "/golden/metrics_exposition.prom";
  if (std::getenv("MDAC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << page;
    GTEST_SKIP() << "golden file regenerated: " << golden_path;
  }
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (regenerate with MDAC_UPDATE_GOLDEN=1)";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(page, buffer.str())
      << "exposition drifted from tests/golden/metrics_exposition.prom; "
         "if the change is intentional, regenerate with MDAC_UPDATE_GOLDEN=1";

  // The acceptance sweep: every adapted subsystem shows up in one page.
  for (const char* needle :
       {"mdac_engine_submitted_total", "mdac_engine_latency_ns_bucket",
        "mdac_cache_size", "mdac_dispatch_requests_total",
        "mdac_dispatch_tries_by_replica_total", "mdac_breaker_open",
        "mdac_heartbeat_probes_sent_total", "mdac_heartbeat_alive",
        "mdac_pap_dropped_audit_entries_total", "mdac_obs_traces_admitted_total"}) {
    EXPECT_NE(page.find(needle), std::string::npos) << "missing " << needle;
  }
}

}  // namespace
}  // namespace mdac::obs
