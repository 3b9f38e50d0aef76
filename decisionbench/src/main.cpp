// decisionbench: the decision-service benchmark (see WORKLOADS.md).
//
//   decisionbench --workload <hot_agent|cold_wire|admin_churn> --seed <n>
//                 --seconds <s> --trace <0|1> [--spans-out <file>]
//
// Prints a human-readable table, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Exit status 0 only when the run completed; a run whose
// decisions disagree with the oracle still exits 0 with "correct": false.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "alloc_hook.hpp"
#include "analysis/analysis.hpp"
#include "bench.hpp"
#include "cache/request_key.hpp"
#include "core/pdp.hpp"
#include "core/serialization.hpp"

namespace {

using namespace dbench;
namespace core = mdac::core;
namespace obs = mdac::obs;

constexpr int kSetups = 5;
constexpr int kCapacitySlices = 40;
constexpr std::size_t kLatencyWindowSamples = 2000;  // 20 samples beyond each p99
constexpr double kChurnIntervalMs = 50;
constexpr double kProbeIntervalMs = 15;
constexpr std::size_t kSpansWritten = 1000;
constexpr int kSidePasses = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_out;
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "decisionbench: %s\nusage: decisionbench --workload "
               "<hot_agent|cold_wire|admin_churn> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans-out <file>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--spans-out") {
        o.spans_out = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (find_workload(o.workload) == nullptr) usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !(o.seconds > 0) || o.seconds > 600) {
    usage("--seed and --seconds (0 < s <= 600) are required");
  }
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile (p in (0, 1]) of an unsorted sample.
template <typename T>
T percentile(std::vector<T> v, double p) {
  if (v.empty()) return T{};
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  const std::size_t index = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(index), v.end());
  return v[index];
}

template <typename T, typename F>
double mean_of(const std::vector<T>& v, F&& f) {
  if (v.empty()) return 0;
  double total = 0;
  for (const T& x : v) total += static_cast<double>(f(x));
  return total / static_cast<double>(v.size());
}

double safe_ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Percentile `p` of each window of kLatencyWindowSamples consecutive
/// latencies, in microseconds, median across windows. The host stalls
/// vCPUs for 1-10 ms a few times a second and has slow spells lasting
/// seconds; a whole-phase percentile would count the stalls a run
/// happened to catch, not the program.
double windowed_percentile_us(const std::vector<std::int64_t>& latency_ns, double p) {
  std::vector<double> per_window;
  for (std::size_t at = 0; at + kLatencyWindowSamples <= latency_ns.size();
       at += kLatencyWindowSamples) {
    const auto begin = latency_ns.begin() + static_cast<std::ptrdiff_t>(at);
    per_window.push_back(static_cast<double>(percentile(
                             std::vector<std::int64_t>(begin, begin + kLatencyWindowSamples), p)) /
                         1e3);
  }
  return median(per_window);
}

/// Runs `pass` kSidePasses times and returns the median of its results.
double median_of_passes(const std::function<double()>& pass) {
  std::vector<double> results;
  for (int i = 0; i < kSidePasses; ++i) results.push_back(pass());
  return median(results);
}

/// Keeps a side-measurement result alive so the timed call is not elided.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

double elapsed_ns(std::int64_t from) { return static_cast<double>(now_ns() - from); }

// ---------------------------------------------------------------------
// Traced-run analysis: per-request span trees and stage self times.
// ---------------------------------------------------------------------

struct Interval {
  const char* name;
  const char* parent;
  std::int64_t start;
  std::int64_t end;
  std::int64_t length() const { return std::max<std::int64_t>(0, end - start); }
};

/// The span tree of one request whose engine stages were captured by the
/// engine's explain tracer (every kTraceSampleEvery-th request).
std::vector<Interval> span_tree(const RequestSpans& r, const obs::Trace& t) {
  std::int64_t dequeue = 0, probe = 0, evaluated = 0, outcome = 0;
  for (std::uint32_t i = 0; i < t.span_count; ++i) {
    const obs::Span& s = t.spans[i];
    const auto at = static_cast<std::int64_t>(s.at_ns);
    switch (s.kind) {
      case obs::SpanKind::kQueueWait: dequeue = at; break;
      case obs::SpanKind::kCacheProbe: probe = at; break;
      case obs::SpanKind::kEvaluate: evaluated = at; break;
      case obs::SpanKind::kOutcome: outcome = at; break;
      default: break;
    }
  }
  if (probe == 0) probe = dequeue;
  const std::int64_t decided = evaluated != 0 ? evaluated : probe;
  // Admission happens inside submit, and a worker may dequeue before
  // submit returns: engine stages start no earlier than the turnaround.
  const auto clip = [&](std::int64_t at) { return std::max(at, r.submitted); };
  const std::int64_t admission = clip(static_cast<std::int64_t>(t.started_ns));
  return {
      {"request", nullptr, r.sched, r.done},
      {"loadgen.late", "request", r.sched, r.send},
      {"request.build", "request", r.send, r.built},
      {"engine.submit", "request", r.built, r.submitted},
      {"engine.turnaround", "request", r.submitted, r.cb_entry},
      {"engine.queue_wait", "engine.turnaround", admission, clip(dequeue)},
      {"engine.cache_probe", "engine.turnaround", clip(dequeue), clip(probe)},
      {"engine.evaluate", "engine.turnaround", clip(probe), clip(decided)},
      {"engine.complete", "engine.turnaround", clip(decided), clip(outcome)},
      {"engine.handoff", "engine.turnaround", clip(outcome), r.cb_entry},
      {"xml.encode", "request", r.cb_entry, r.encoded},
      {"pep.enforce", "request", r.encoded, r.done},
  };
}

void write_spans(const std::string& path, const std::vector<std::vector<Interval>>& trees,
                 const std::vector<std::uint64_t>& ids) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (std::size_t i = 0; i < trees.size(); ++i) {
    for (const Interval& s : trees[i]) {
      out << "{\"id\":\"" << std::hex << ids[i] << std::dec << "\",\"span\":\"" << s.name
          << "\",\"parent\":";
      if (s.parent != nullptr) {
        out << '"' << s.parent << '"';
      } else {
        out << "null";
      }
      out << ",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end << "}\n";
    }
  }
}

/// Adds the mean self time of every stage on a request's path and the
/// share of the mean end-to-end latency they leave unexplained. The
/// benchmark's own spans cover every request of the latency phase; the
/// stages inside the engine come from the explain traces of the sampled
/// requests, joined by trace id. Writes the first kSpansWritten sampled
/// span trees to `spans_out` (if set); returns how many were joined.
std::size_t add_span_metrics(const std::vector<RequestSpans>& spans,
                             const std::vector<std::int64_t>& latency_ns,
                             const std::vector<obs::Trace>& traces,
                             const std::string& spans_out, std::vector<Metric>& m) {
  const auto mean_us = [&](auto&& f) { return mean_of(spans, f) / 1e3; };
  std::vector<std::pair<std::string, double>> stages = {
      {"loadgen.late", mean_us([](const RequestSpans& r) { return r.send - r.sched; })},
      {"request.build", mean_us([](const RequestSpans& r) { return r.built - r.send; })},
      {"engine.submit", mean_us([](const RequestSpans& r) { return r.submitted - r.built; })},
      {"xml.encode", mean_us([](const RequestSpans& r) { return r.encoded - r.cb_entry; })},
      {"pep.enforce", mean_us([](const RequestSpans& r) { return r.done - r.encoded; })},
  };

  std::unordered_map<std::uint64_t, const obs::Trace*> by_id;
  for (const obs::Trace& t : traces) by_id.emplace(t.trace_id, &t);
  constexpr std::string_view kEngineStages[] = {"engine.queue_wait", "engine.cache_probe",
                                                "engine.evaluate", "engine.complete",
                                                "engine.handoff"};
  std::vector<double> engine_ns(std::size(kEngineStages), 0.0);
  std::vector<std::vector<Interval>> trees;
  std::vector<std::uint64_t> tree_ids;
  std::size_t joined = 0;
  for (const RequestSpans& r : spans) {
    const auto it = by_id.find(r.trace_id);
    if (r.trace_id == 0 || it == by_id.end()) continue;
    std::vector<Interval> tree = span_tree(r, *it->second);
    // Engine stages are leaves, so their self time is their length.
    for (const Interval& span : tree) {
      for (std::size_t i = 0; i < std::size(kEngineStages); ++i) {
        if (kEngineStages[i] == span.name) engine_ns[i] += static_cast<double>(span.length());
      }
    }
    ++joined;
    if (trees.size() < kSpansWritten) {
      trees.push_back(std::move(tree));
      tree_ids.push_back(r.trace_id);
    }
  }
  for (std::size_t i = 0; i < std::size(kEngineStages); ++i) {
    stages.emplace_back(kEngineStages[i],
                        engine_ns[i] / 1e3 / static_cast<double>(std::max<std::size_t>(1, joined)));
  }

  double explained_us = 0;
  for (const auto& [name, us] : stages) {
    m.push_back({"self_us." + name, "us", us});
    explained_us += us;
  }
  const double e2e_us = mean_of(latency_ns, [](std::int64_t ns) { return ns; }) / 1e3;
  m.push_back({"trace.sampled_requests", "count", static_cast<double>(joined)});
  m.push_back({"trace.unaccounted_frac", "fraction", 1.0 - safe_ratio(explained_us, e2e_us)});
  if (!spans_out.empty()) write_spans(spans_out, trees, tree_ids);
  return joined;
}

// ---------------------------------------------------------------------
// Side measurements: single-threaded passes over the workload's own pool.
// ---------------------------------------------------------------------

std::vector<core::RequestContext> decoded_pool(const RequestPool& pool) {
  if (pool.wire.empty()) return pool.requests;
  std::vector<core::RequestContext> out;
  for (const std::string& text : pool.wire) out.push_back(core::request_from_string(text));
  return out;
}

void side_measurements(const RequestPool& pool, const Oracle& oracle,
                       const mdac::runtime::PolicySnapshot& snapshot, bool live_xml,
                       std::vector<Metric>& m) {
  const std::vector<core::RequestContext> requests = decoded_pool(pool);
  const auto n = static_cast<double>(requests.size());
  const auto store = snapshot.store();

  core::Pdp pdp(store);
  for (const auto& r : requests) pdp.evaluate(r);  // index build + scratch warm-up
  constexpr std::size_t kBatch = 32;
  m.push_back({"core.evaluate_ns", "ns", median_of_passes([&] {
                 const std::int64_t t0 = now_ns();
                 for (std::size_t i = 0; i < requests.size(); i += kBatch) {
                   const std::size_t len = std::min(kBatch, requests.size() - i);
                   pdp.evaluate_batch(std::span<const core::RequestContext>(&requests[i], len));
                 }
                 return elapsed_ns(t0) / n;
               })});
  double candidates = 0, partitions = 0;
  for (const auto& r : requests) {
    const core::PdpResult res = pdp.evaluate_with_metrics(r);
    candidates += static_cast<double>(store->size() - res.candidates_skipped);
    partitions += static_cast<double>(res.partitions_probed);
  }
  m.push_back({"core.candidates_per_request", "count", candidates / n});
  m.push_back({"core.partitions_probed", "count", partitions / n});

  m.push_back({"cache.fingerprint_ns", "ns", median_of_passes([&] {
                 const std::int64_t t0 = now_ns();
                 for (const auto& r : requests) keep(mdac::cache::fingerprint(r));
                 return elapsed_ns(t0) / n;
               })});

  m.push_back({"analysis.lint_ms", "ms", median_of_passes([&] {
                 const std::int64_t t0 = now_ns();
                 keep(mdac::analysis::analyse_store(*store));
                 return elapsed_ns(t0) / 1e6;
               })});

  if (live_xml) return;
  // Without XML on the live path, the xml layer is measured on this
  // workload's own requests and reference decisions.
  std::vector<std::string> texts;
  for (const auto& r : requests) texts.push_back(core::request_to_string(r));
  std::uint64_t allocs = 0;
  m.push_back({"xml.request_decode_ns", "ns", median_of_passes([&] {
                 const std::uint64_t a0 = thread_allocs();
                 const std::int64_t t0 = now_ns();
                 for (const auto& t : texts) keep(core::request_from_string(t));
                 const double ns = elapsed_ns(t0) / n;
                 allocs = thread_allocs() - a0;
                 return ns;
               })});
  m.push_back({"xml.request_decode_allocs", "count", static_cast<double>(allocs) / n});
  m.push_back({"xml.decision_encode_ns", "ns", median_of_passes([&] {
                 const std::uint64_t a0 = thread_allocs();
                 const std::int64_t t0 = now_ns();
                 for (const auto& d : oracle.decisions[0]) keep(core::decision_to_string(d));
                 const double ns = elapsed_ns(t0) / n;
                 allocs = thread_allocs() - a0;
                 return ns;
               })});
  m.push_back({"xml.decision_encode_allocs", "count", static_cast<double>(allocs) / n});
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int run(const Options& opt) {
  const Workload& w = *find_workload(opt.workload);
  pin_current_thread(kGeneratorCore);
  const Corpus corpus = w.wire ? set_tree_corpus() : federation_corpus();
  RequestPool pool = w.wire ? wire_set_tree_pool(opt.seed) : zipf_federation_pool(opt.seed);
  const Oracle oracle = build_oracle(corpus, pool);

  obs::DecisionTracer tracer(
      obs::ObsConfig{.sample_every_n = kTraceSampleEvery, .ring_capacity = 16384});
  Runner runner(corpus, pool, oracle, w.wire, opt.trace);

  // Set-up, several times: the median is setup_s. Only the last service
  // stays up; in a traced run it carries the explain tracer, and the one
  // before it measures the untraced capacity the tracing overhead is
  // relative to.
  const double capacity_s = opt.seconds * (w.churn_with_reads ? 0.5 : 0.4);
  const double latency_s = opt.seconds * (w.churn_with_reads ? 0.5 : 0.4);
  const double probe_s = opt.seconds * 0.2;
  std::vector<double> setup_s;
  double untraced_rps = 0;
  std::unique_ptr<Service> service;
  for (int i = 0; i < kSetups; ++i) {
    const bool last = i == kSetups - 1;
    service.reset();
    const std::int64_t t0 = now_ns();
    service = std::make_unique<Service>(corpus, last && opt.trace ? &tracer : nullptr);
    const std::int64_t t1 = now_ns();
    runner.attach(service.get());
    const std::int64_t t2 = now_ns();
    runner.warm();
    setup_s.push_back(static_cast<double>(t1 - t0 + now_ns() - t2) / 1e9);
    if (opt.trace && i == kSetups - 2) {
      untraced_rps = median(runner.closed_loop(capacity_s, kCapacitySlices).slice_rps);
    }
  }
  mdac::runtime::DecisionEngine& engine = *service->engine;

  // Measured phases. admin_churn re-issues policy throughout; the other
  // workloads exercise the administrative path in a probe phase after
  // the read phases, so every workload reports the admin metrics.
  AdminLog admin;
  std::jthread admin_thread;  // joined before `service` goes, on every path
  const auto start_admin = [&](double interval_ms) {
    admin_thread = std::jthread([&, interval_ms](std::stop_token stop) {
      admin_loop(*service, corpus, interval_ms, stop, admin);
    });
  };
  if (w.churn_with_reads) start_admin(kChurnIntervalMs);

  engine.reset_metrics();
  const double cpu_before = process_cpu_seconds();
  const ClosedLoopResult capacity = runner.closed_loop(capacity_s, kCapacitySlices);
  const double capacity_cpu_s = process_cpu_seconds() - cpu_before;
  const auto capacity_metrics = engine.metrics();

  engine.reset_metrics();
  OpenLoopResult latency = runner.open_loop(w.open_rate, latency_s);
  const auto latency_metrics = engine.metrics();
  std::vector<obs::Trace> traces;
  if (opt.trace) traces = tracer.traces();  // before the probe's traces displace them

  engine.reset_metrics();
  if (!w.churn_with_reads) {
    start_admin(kProbeIntervalMs);
    runner.open_loop(w.open_rate, probe_s);
  }
  admin_thread = std::jthread();  // requests stop and joins
  const auto admin_metrics = engine.metrics();
  if (!admin.error.empty()) throw std::runtime_error("PAP re-issue failed: " + admin.error);

  // --- end-to-end ---------------------------------------------------------
  std::vector<double> issue_ms, propagate_ms, adopt_lag_ms;
  for (std::size_t i = 0; i < admin.versions.size(); ++i) {
    issue_ms.push_back(static_cast<double>(admin.published_ns[i] - admin.issue_start_ns[i]) / 1e6);
    if (const std::int64_t seen = runner.first_seen(admin.versions[i]); seen > 0) {
      propagate_ms.push_back(static_cast<double>(seen - admin.issue_start_ns[i]) / 1e6);
      adopt_lag_ms.push_back(static_cast<double>(seen - admin.published_ns[i]) / 1e6);
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  // The bounded end-to-end metrics: the ones that stay steady across
  // slow spells of the host (see WORKLOADS.md, "Bounds").
  const std::vector<Metric> e2e = {
      {"decide_rps", "req/s", median(capacity.slice_rps)},
      {"cpu_us_per_decision", "us", median(capacity.slice_cpu_us_per_decision)},
      {"setup_s", "s", median(setup_s)},
      {"peak_rss_mb", "MB", static_cast<double>(usage.ru_maxrss) / 1024.0},
  };
  // Printed on every run and reported per-layer, but not bounded: a slow
  // spell of the host moves them by more than any bound could absorb.
  const std::vector<Metric> unbounded = {
      {"latency.p50_us", "us", windowed_percentile_us(latency.latency_ns, 0.50)},
      {"latency.p90_us", "us", windowed_percentile_us(latency.latency_ns, 0.90)},
      {"latency.p99_us", "us", windowed_percentile_us(latency.latency_ns, 0.99)},
      {"pap.reissue_p50_ms", "ms", percentile(issue_ms, 0.50)},
      {"snapshot.propagate_p50_ms", "ms", percentile(propagate_ms, 0.50)},
      {"snapshot.propagate_p90_ms", "ms", percentile(propagate_ms, 0.90)},
  };

  const std::uint64_t failed = runner.failed();
  const std::uint64_t attempted = runner.attempted();
  const bool correct = failed == 0 && runner.stale_permits() == 0 &&
                       latency.completed == latency.sent && !propagate_ms.empty();

  std::printf("workload %s  seed %llu  seconds %.3g  trace %d\n", w.name,
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::printf(
      "  capacity: %llu decisions, %.4f s process CPU, engine.mean_batch %.2f beside "
      "cpu_us_per_decision (about 1 = wake-per-request regime)\n",
      static_cast<unsigned long long>(capacity.completed), capacity_cpu_s,
      capacity_metrics.mean_batch_size);
  std::printf(
      "  latency: %llu samples at %.0f req/s in windows of %zu (%zu beyond each window's p90, "
      "%zu beyond its p99)\n",
      static_cast<unsigned long long>(latency.sent), w.open_rate, kLatencyWindowSamples,
      kLatencyWindowSamples / 10, kLatencyWindowSamples / 100);
  std::printf("  set-up:");
  for (const double t : setup_s) std::printf(" %.4f", t);
  std::printf(" s\n");
  std::printf("  admin: %zu re-issues, %zu propagations observed (%zu beyond p90)\n",
              issue_ms.size(), propagate_ms.size(), propagate_ms.size() / 10);
  std::printf("  failed_frac %.6f (%llu of %llu), stale permits %llu\n",
              safe_ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(runner.stale_permits()));

  print_table("end-to-end (bounded)", e2e);
  print_table("end-to-end (unbounded)", unbounded);
  if (!opt.trace) {
    print_result(correct, attempted, failed, e2e);
    return 0;
  }

  // --- per-layer (traced run) --------------------------------------------
  std::vector<Metric> m = unbounded;
  const auto& spans = latency.spans;
  const auto& lm = latency_metrics;
  const double lookups = static_cast<double>(lm.cache_hits + lm.cache_misses);
  if (w.wire) {
    m.push_back({"xml.request_decode_ns", "ns",
                 mean_of(spans, [](const RequestSpans& r) { return r.built - r.send; })});
    m.push_back({"xml.request_decode_allocs", "count",
                 mean_of(spans, [](const RequestSpans& r) { return r.build_allocs; })});
    m.push_back({"xml.decision_encode_ns", "ns",
                 mean_of(spans, [](const RequestSpans& r) { return r.encoded - r.cb_entry; })});
    m.push_back({"xml.decision_encode_allocs", "count",
                 mean_of(spans, [](const RequestSpans& r) { return r.encode_allocs; })});
  }
  m.push_back({"cache.hit_ratio", "fraction", safe_ratio(static_cast<double>(lm.cache_hits), lookups)});
  m.push_back({"cache.l1_hit_frac", "fraction", safe_ratio(static_cast<double>(lm.l1_hits), lookups)});
  m.push_back({"cache.l2_hit_frac", "fraction", safe_ratio(static_cast<double>(lm.l2_hits), lookups)});
  m.push_back({"cache.l2_retries_per_hit", "count",
               safe_ratio(static_cast<double>(lm.l2_read_retries), static_cast<double>(lm.l2_hits))});
  m.push_back({"cache.version_evictions", "count",
               static_cast<double>(capacity_metrics.version_evictions + lm.version_evictions +
                                   admin_metrics.version_evictions)});
  m.push_back({"cache.hit_ratio_after_publish", "fraction", runner.hit_ratio_after_publish()});
  m.push_back({"engine.submit_ns", "ns",
               mean_of(spans, [](const RequestSpans& r) { return r.submitted - r.built; })});
  m.push_back({"engine.submit_allocs", "count",
               mean_of(spans, [](const RequestSpans& r) { return r.submit_allocs; })});
  m.push_back({"engine.turnaround_ns", "ns", mean_of(spans, [](const RequestSpans& r) {
                 return std::max<std::int64_t>(0, r.cb_entry - r.submitted);
               })});
  m.push_back({"engine.mean_batch", "count", capacity_metrics.mean_batch_size});
  m.push_back({"engine.sheds", "count",
               static_cast<double>(capacity_metrics.sheds() + lm.sheds() + admin_metrics.sheds())});
  m.push_back({"engine.queue_depth_max", "count", static_cast<double>(latency.queue_depth_max)});
  m.push_back({"snapshot.publish_ms", "ms", median(admin.publish_ms)});
  m.push_back({"snapshot.adopt_lag_ms", "ms", median(adopt_lag_ms)});
  m.push_back({"pep.enforce_ns", "ns",
               mean_of(spans, [](const RequestSpans& r) { return r.done - r.encoded; })});
  m.push_back({"pep.enforce_allocs", "count",
               mean_of(spans, [](const RequestSpans& r) { return r.enforce_allocs; })});
  m.push_back({"pep.obligations_per_decision", "count",
               mean_of(spans, [](const RequestSpans& r) { return r.obligations; })});
  m.push_back({"pap.submit_us", "us", median(admin.submit_us)});
  m.push_back({"pap.issue_ms", "ms", median(admin.issue_ms)});
  m.push_back({"obs.trace_overhead_frac", "fraction",
               1.0 - safe_ratio(median(capacity.slice_rps), untraced_rps)});
  m.push_back({"loadgen.late_p99_us", "us",
               static_cast<double>(percentile(latency.late_ns, 0.99)) / 1e3});
  m.push_back({"loadgen.sent", "count", static_cast<double>(latency.sent)});
  m.push_back({"loadgen.completed", "count", static_cast<double>(latency.completed)});
  side_measurements(pool, oracle, *service->publisher.current(), w.wire, m);

  const std::size_t joined =
      add_span_metrics(spans, latency.latency_ns, traces, opt.spans_out, m);
  const bool traced_correct = correct && joined > 0;
  print_table("per-layer", m);
  print_result(traced_correct, attempted, failed, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "decisionbench: %s\n", e.what());
    return 1;
  }
}
