// mdac-metrics: runs a small traced decision workload and dumps the
// obs::Registry Prometheus text exposition to stdout — the quickest way
// to see what a scrape of an embedded mdac deployment returns, and a
// smoke test that every subsystem's register_metrics() stays wired.
//
//   mdac-metrics [--requests N] [--workers N] [--sample N] [--traces]
//
// The workload drives a PAP (bounded audit ring) publishing into a
// multi-worker DecisionEngine behind a two-level DecisionCache, floods
// past the queue bound so the shed path fires, republishes mid-stream
// so version evictions fire, and head-samples every `--sample`-th
// decision. With --traces, sampled explain traces are rendered after
// the exposition. The page then checks itself: it must carry a family
// from each of the engine, the cache, the tracer and the PAP, and
// mdac_engine_submitted_total must equal --requests and the decided
// plus shed totals. Exit status: 0 on success, 1 when that check
// fails, 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <vector>

#include "cache/decision_cache.hpp"
#include "common/clock.hpp"
#include "core/expression.hpp"
#include "core/serialization.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "pap/repository.hpp"
#include "runtime/engine.hpp"
#include "runtime/snapshot.hpp"

using namespace mdac;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: mdac-metrics [--requests N] [--workers N] [--sample N] "
               "[--traces]\n");
  return 2;
}

/// The value of `series` (a metric name and its label block) on a
/// scrape page; -1 when the page has no such sample.
double sample(const std::string& page, const std::string& series) {
  const std::string prefix = "\n" + series + " ";
  const std::size_t at = page.find(prefix);
  if (at == std::string::npos) return -1;
  return std::strtod(page.c_str() + at + prefix.size(), nullptr);
}

/// Returns the self-check failures of a scrape of `requests` submissions
/// (empty when the page passes).
std::vector<std::string> check_page(const std::string& page, std::size_t requests) {
  std::vector<std::string> failures;
  for (const char* prefix : {"mdac_engine_", "mdac_cache_", "mdac_obs_", "mdac_pap_"}) {
    if (page.find(std::string("# TYPE ") + prefix) == std::string::npos) {
      failures.push_back(std::string("no ") + prefix + "* family");
    }
  }
  const double submitted = sample(page, "mdac_engine_submitted_total");
  double completed = sample(page, "mdac_engine_decided_total");
  for (const char* cause : {"queue-full", "deadline", "shutdown"}) {
    completed += sample(page, std::string("mdac_engine_sheds_total{cause=\"") + cause + "\"}");
  }
  if (submitted != static_cast<double>(requests)) {
    failures.push_back("mdac_engine_submitted_total " + std::to_string(submitted) +
                       " != --requests " + std::to_string(requests));
  }
  if (completed != submitted) {
    failures.push_back("decided + sheds " + std::to_string(completed) +
                       " != mdac_engine_submitted_total " + std::to_string(submitted));
  }
  return failures;
}

core::Policy records_policy(bool allow_auditors) {
  core::Policy p;
  p.policy_id = "records-access";
  p.rule_combining = "first-applicable";
  p.target_spec.require(core::Category::kResource, core::attrs::kResourceId,
                        core::AttributeValue("patient-records"));
  core::Rule doctors;
  doctors.id = "permit-doctors";
  doctors.effect = core::Effect::kPermit;
  core::Target t;
  t.require(core::Category::kSubject, core::attrs::kRole,
            core::AttributeValue("doctor"));
  doctors.target = std::move(t);
  p.rules.push_back(std::move(doctors));
  if (allow_auditors) {
    core::Rule auditors;
    auditors.id = "permit-auditors";
    auditors.effect = core::Effect::kPermit;
    core::Target ta;
    ta.require(core::Category::kSubject, core::attrs::kRole,
               core::AttributeValue("auditor"));
    auditors.target = std::move(ta);
    p.rules.push_back(std::move(auditors));
  }
  core::Rule deny;
  deny.id = "deny-rest";
  deny.effect = core::Effect::kDeny;
  p.rules.push_back(std::move(deny));
  return p;
}

core::RequestContext request_as(const char* role, int user) {
  core::RequestContext r = core::RequestContext::make(
      "user-" + std::to_string(user), "patient-records", "read");
  r.add(core::Category::kSubject, core::attrs::kRole, core::AttributeValue(role));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t requests = 2000;
  std::size_t workers = 4;
  std::uint64_t sample = 50;
  bool show_traces = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--requests") {
      const char* v = next();
      if (v == nullptr) return usage();
      requests = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--workers") {
      const char* v = next();
      if (v == nullptr) return usage();
      workers = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--sample") {
      const char* v = next();
      if (v == nullptr) return usage();
      sample = std::strtoull(v, nullptr, 10);
    } else if (arg == "--traces") {
      show_traces = true;
    } else {
      return usage();
    }
  }
  if (requests == 0 || workers == 0) return usage();

  // PAP with a bounded audit ring — small enough that the republication
  // below wraps it, so mdac_pap_dropped_audit_entries_total is live.
  common::WallClock clock;
  pap::PapConfig pap_config;
  pap_config.audit_capacity = 4;
  pap::PolicyRepository repo(clock, pap_config);
  runtime::SnapshotPublisher snapshots;
  runtime::RepositoryPublisher pap(repo, snapshots);
  pap.submit(core::node_to_string(records_policy(false)), "admin");
  pap.issue("records-access", "admin");

  obs::DecisionTracer tracer(
      obs::ObsConfig{.sample_every_n = sample, .ring_capacity = 512});
  cache::DecisionCache cache(
      cache::DecisionCache::TwoLevelConfig{.capacity = 4096});
  runtime::EngineConfig config;
  config.workers = workers;
  config.queue_capacity = 64;
  config.l1_capacity = 256;
  config.tracer = &tracer;
  runtime::DecisionEngine engine(snapshots, config, &cache);

  const char* roles[] = {"doctor", "auditor", "intern"};
  std::vector<std::future<runtime::EngineResult>> inflight;
  inflight.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    if (i == requests / 2) {
      // Mid-stream republication: auditors gain access, version
      // evictions and snapshot adoptions fire.
      pap.submit(core::node_to_string(records_policy(true)), "admin");
      pap.issue("records-access", "compliance");
    }
    inflight.push_back(engine.submit(
        request_as(roles[i % 3], static_cast<int>(i % 17))));
  }
  for (auto& f : inflight) f.get();
  engine.shutdown();

  obs::Registry registry;
  tracer.register_metrics(registry);
  engine.register_metrics(registry);
  cache.register_metrics(registry);
  repo.register_metrics(registry);
  std::string page;
  registry.expose(page);
  std::fputs(page.c_str(), stdout);

  if (show_traces) {
    std::fputs("\n# ---- sampled explain traces ----\n", stdout);
    for (const obs::Trace& trace : tracer.traces()) {
      std::fputs(obs::render(trace).c_str(), stdout);
      std::fputs("\n", stdout);
    }
  }

  const std::vector<std::string> failures = check_page(page, requests);
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "mdac-metrics: check failed: %s\n", failure.c_str());
  }
  return failures.empty() ? 0 : 1;
}
