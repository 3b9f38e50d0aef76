#include <pthread.h>
#include <sys/resource.h>

#include <ctime>

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "alloc_hook.hpp"
#include "bench.hpp"
#include "core/serialization.hpp"

namespace dbench {

namespace core = mdac::core;
namespace runtime = mdac::runtime;

namespace {

// Open-loop rates stay under about a fifth of each workload's closed-loop
// capacity, so that a slow spell of the host does not turn the latency
// phase into a backlog that never drains.
constexpr Workload kWorkloads[] = {
    {"hot_agent", 50'000, /*wire=*/false, /*churn_with_reads=*/false},
    {"cold_wire", 10'000, /*wire=*/true, /*churn_with_reads=*/false},
    {"admin_churn", 50'000, /*wire=*/false, /*churn_with_reads=*/true},
};

constexpr std::size_t kRingSize = std::size_t{1} << 17;
constexpr std::int64_t kDrainTimeoutNs = 30'000'000'000;

/// The policy version a snapshot carries: set-up publishes version 1
/// with variant A, and re-issue k publishes version k + 1 with variant
/// k % 2 — so the variant follows from the version alone, with no
/// hand-off from the PAP thread that could race a fast worker.
std::size_t variant_of(std::uint64_t version) { return (version - 1) & 1; }

// The PEP's decision source hands over the engine's decision for the
// request being completed on this thread.
thread_local core::Decision* t_decision = nullptr;

struct ThreadPep {
  const void* owner = nullptr;
  std::unique_ptr<mdac::pep::EnforcementPoint> point;
};
thread_local ThreadPep t_pep;

}  // namespace

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double thread_cpu_seconds() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) / 1e9;
}

bool pin_current_thread(std::size_t core) {
  if (std::thread::hardware_concurrency() < kThreads) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Service::Service(const Corpus& corpus, mdac::obs::DecisionTracer* tracer)
    : repository(clock, mdac::pap::PapConfig{.lint_on_issue = true}),
      cache(mdac::cache::DecisionCache::TwoLevelConfig{.capacity = kL2Entries}) {
  for (const std::string& doc : corpus.documents) {
    if (auto r = repository.submit(doc, "bench-admin"); !r) throw std::runtime_error(r.reason);
    const std::string id = core::node_from_string(doc)->id();
    if (auto r = repository.issue(id, "bench-admin"); !r) throw std::runtime_error(r.reason);
  }
  if (publisher.publish_from(repository)->version() != 1) {
    throw std::logic_error("set-up must publish snapshot version 1");
  }
  runtime::EngineConfig config;
  config.workers = kWorkers;
  config.queue_capacity = kQueueCapacity;
  config.l1_capacity = kL1Entries;
  config.tracer = tracer;
  config.pin_workers = std::thread::hardware_concurrency() >= kThreads;
  engine = std::make_unique<runtime::DecisionEngine>(publisher, config, &cache);
}

struct Runner::InFlight {
  std::uint64_t serial = 0;
  std::int64_t sched_ns = 0;
  std::int64_t sample = -1;  // index into the open-loop sinks, -1 = none
  std::uint32_t pool_index = 0;
  std::atomic<bool> busy{false};
};

Runner::Runner(const Corpus& corpus, RequestPool& pool, const Oracle& oracle, bool wire,
               bool trace)
    : corpus_(corpus),
      pool_(pool),
      oracle_(oracle),
      wire_(wire),
      trace_(trace),
      ring_(std::make_unique<InFlight[]>(kRingSize)),
      first_seen_(std::make_unique<std::atomic<std::int64_t>[]>(kMaxVersions)),
      after_publish_total_(std::make_unique<std::atomic<std::uint32_t>[]>(kMaxVersions)),
      after_publish_hits_(std::make_unique<std::atomic<std::uint32_t>[]>(kMaxVersions)) {}

Runner::~Runner() = default;

void Runner::attach(Service* service) {
  service_ = service;
  newest_version_.store(0);
  for (std::size_t v = 0; v < kMaxVersions; ++v) {
    first_seen_[v].store(0);
    after_publish_total_[v].store(0);
    after_publish_hits_[v].store(0);
  }
}

std::int64_t Runner::first_seen(std::uint64_t version) const {
  return version < kMaxVersions ? first_seen_[version].load(std::memory_order_acquire) : 0;
}

double Runner::hit_ratio_after_publish() const {
  std::uint64_t total = 0, hits = 0;
  for (std::size_t v = 2; v < kMaxVersions; ++v) {
    total += std::min(after_publish_total_[v].load(), kAfterPublishWindow);
    hits += after_publish_hits_[v].load();
  }
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
}

mdac::pep::EnforcementPoint& Runner::thread_pep() {
  if (t_pep.owner != this || t_pep.point == nullptr) {
    t_pep.point = std::make_unique<mdac::pep::EnforcementPoint>(
        [](const core::RequestContext&) { return std::move(*t_decision); });
    for (const std::string& id : corpus_.obligation_ids) {
      t_pep.point->register_obligation_handler(id, mdac::pep::obligations::no_op());
    }
    t_pep.owner = this;
  }
  return *t_pep.point;
}

void Runner::send(std::uint32_t pool_index, std::int64_t sched_ns, std::int64_t sample,
                  RequestSpans* spans) {
  const std::uint64_t serial = serial_++;
  const auto slot = static_cast<std::uint32_t>(serial & (kRingSize - 1));
  InFlight& f = ring_[slot];
  // The slot's previous request was sent kRingSize sends ago; if it is
  // still in flight the service is far behind — wait for it.
  while (f.busy.load(std::memory_order_acquire)) std::this_thread::yield();
  f.serial = serial;
  f.sched_ns = sched_ns;
  f.sample = sample;
  f.pool_index = pool_index;
  f.busy.store(true, std::memory_order_relaxed);
  ++attempted_;

  std::uint64_t allocs = 0;
  if (spans != nullptr) {
    spans->sched = sched_ns;
    spans->send = now_ns();
    allocs = thread_allocs();
  }
  core::RequestContext request;
  if (wire_) {
    std::string& text = pool_.wire[pool_index];
    stamp_serial(text, pool_.wire_serial_offsets[pool_index], serial);
    request = core::request_from_string(text);
  } else {
    request = pool_.requests[pool_index];
  }
  runtime::DecisionEngine::Callback done = [this, slot](runtime::EngineResult r) {
    complete(slot, std::move(r));
  };
  if (spans != nullptr) {
    spans->built = now_ns();
    spans->build_allocs = static_cast<std::uint32_t>(thread_allocs() - allocs);
    allocs = thread_allocs();
  }
  service_->engine->submit(std::move(request), std::move(done));
  if (spans != nullptr) {
    spans->submitted = now_ns();
    spans->submit_allocs = static_cast<std::uint32_t>(thread_allocs() - allocs);
  }
}

void Runner::complete(std::uint32_t slot, runtime::EngineResult result) {
  InFlight& f = ring_[slot];
  RequestSpans* spans = (spans_ != nullptr && f.sample >= 0) ? &spans_[f.sample] : nullptr;
  std::uint64_t allocs = 0;
  if (spans != nullptr) {
    spans->cb_entry = now_ns();
    spans->trace_id = result.trace_id;
    allocs = thread_allocs();
  }
  const std::uint64_t version = result.snapshot_version;
  const bool decided = result.decided() && version != 0 && version < kMaxVersions;

  std::string encoded;
  if (wire_ && decided) encoded = core::decision_to_string(result.decision);
  if (spans != nullptr) {
    spans->encoded = now_ns();
    spans->encode_allocs = static_cast<std::uint32_t>(thread_allocs() - allocs);
    allocs = thread_allocs();
  }
  const bool cache_hit = result.cache_hit;
  t_decision = &result.decision;
  const mdac::pep::Enforcement enforced = thread_pep().enforce(pool_.requests[f.pool_index]);
  std::int64_t done_ns = 0;
  if (spans != nullptr || latency_ != nullptr) done_ns = now_ns();
  if (spans != nullptr) {
    spans->done = done_ns;
    spans->enforce_allocs = static_cast<std::uint32_t>(thread_allocs() - allocs);
    spans->obligations = static_cast<std::uint32_t>(enforced.obligations_fulfilled.size());
  }

  bool ok = decided;
  if (decided) {
    const std::size_t variant = variant_of(version);
    const core::Decision& expected = oracle_.decisions[variant][f.pool_index];
    ok = enforced.allowed == expected.is_permit() &&
         (wire_ ? matches_with_serial(encoded, oracle_.encoded[variant][f.pool_index],
                                      oracle_.encoded_serial_offsets[variant][f.pool_index],
                                      f.serial)
                : enforced.decision == expected);
    if (enforced.decision.is_permit() && !expected.is_permit()) {
      stale_permits_.fetch_add(1, std::memory_order_relaxed);
    }
    if (version > newest_version_.load(std::memory_order_relaxed)) {
      std::int64_t unseen = 0;
      first_seen_[version].compare_exchange_strong(unseen, done_ns != 0 ? done_ns : now_ns());
      std::uint64_t newest = newest_version_.load(std::memory_order_relaxed);
      while (version > newest && !newest_version_.compare_exchange_weak(newest, version)) {
      }
    }
    if (trace_ && version >= 2 &&
        after_publish_total_[version].fetch_add(1, std::memory_order_relaxed) <
            kAfterPublishWindow &&
        cache_hit) {
      after_publish_hits_[version].fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!ok) failed_.fetch_add(1, std::memory_order_relaxed);
  if (latency_ != nullptr && f.sample >= 0) latency_[f.sample] = done_ns - f.sched_ns;

  f.busy.store(false, std::memory_order_release);
  completed_.fetch_add(1, std::memory_order_release);
}

void Runner::drain() {
  const std::int64_t deadline = now_ns() + kDrainTimeoutNs;
  while (completed_.load(std::memory_order_acquire) < attempted_) {
    if (now_ns() > deadline) {
      failed_.fetch_add(attempted_ - completed_.load(), std::memory_order_relaxed);
      throw std::runtime_error("requests did not complete within the drain timeout");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void Runner::await_credit() {
  // Spin rather than block: a blocking client would make every
  // completion a futex wake-up of the generator, and the wake-up
  // ping-pong, not the service, would set the pace.
  while (attempted_ - completed_.load(std::memory_order_acquire) >= kOutstanding) {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#endif
  }
}

void Runner::warm() {
  for (std::uint32_t i = 0; i < pool_.requests.size(); ++i) {
    await_credit();
    send(i, 0, -1, nullptr);
  }
  drain();
}

ClosedLoopResult Runner::closed_loop(double seconds, int slices) {
  ClosedLoopResult out;
  const auto slice_ns = static_cast<std::int64_t>(seconds * 1e9 / slices);
  const std::uint64_t completed_at_start = completed_.load(std::memory_order_acquire);
  // The generator spins, so its own CPU is excluded from the service's.
  const auto service_cpu = [] { return process_cpu_seconds() - thread_cpu_seconds(); };
  std::int64_t slice_start = now_ns();
  std::uint64_t slice_completed = completed_at_start;
  double slice_cpu = service_cpu();
  std::uint64_t sends = 0;
  while (static_cast<int>(out.slice_rps.size()) < slices) {
    await_credit();
    send(pool_.sequence[cursor_++ % pool_.sequence.size()], 0, -1, nullptr);
    if ((++sends & 63) != 0) continue;
    const std::int64_t now = now_ns();
    if (now - slice_start < slice_ns) continue;
    const std::uint64_t completed = completed_.load(std::memory_order_acquire);
    const double cpu = service_cpu();
    const double n = static_cast<double>(completed - slice_completed);
    out.slice_rps.push_back(n * 1e9 / static_cast<double>(now - slice_start));
    out.slice_cpu_us_per_decision.push_back(n > 0 ? (cpu - slice_cpu) * 1e6 / n : 0.0);
    slice_start = now;
    slice_completed = completed;
    slice_cpu = cpu;
  }
  drain();
  out.completed = completed_.load(std::memory_order_acquire) - completed_at_start;
  return out;
}

OpenLoopResult Runner::open_loop(double rate, double seconds) {
  OpenLoopResult out;
  const auto n = static_cast<std::size_t>(rate * seconds);
  out.latency_ns.assign(n, 0);
  if (trace_) {
    out.late_ns.assign(n, 0);
    out.spans.assign(n, RequestSpans{});
  }
  const std::uint64_t completed_at_start = completed_.load(std::memory_order_acquire);
  latency_ = out.latency_ns.data();
  spans_ = trace_ ? out.spans.data() : nullptr;
  const double interval_ns = 1e9 / rate;
  const std::int64_t start = now_ns() + 1'000'000;
  for (std::size_t k = 0; k < n; ++k) {
    const std::int64_t due = start + static_cast<std::int64_t>(static_cast<double>(k) * interval_ns);
    std::int64_t now = now_ns();
    if (due - now > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 100'000));
    }
    while ((now = now_ns()) < due) {
    }
    RequestSpans* spans = trace_ ? &out.spans[k] : nullptr;
    if (trace_) {
      out.late_ns[k] = now - due;
      if ((k & 1023) == 0) {
        out.queue_depth_max = std::max(out.queue_depth_max, service_->engine->queue_depth());
      }
    }
    send(pool_.sequence[cursor_++ % pool_.sequence.size()], due,
         static_cast<std::int64_t>(k), spans);
  }
  drain();
  latency_ = nullptr;
  spans_ = nullptr;
  out.sent = n;
  out.completed = completed_.load(std::memory_order_acquire) - completed_at_start;
  return out;
}

void admin_loop(Service& service, const Corpus& corpus, double interval_ms,
                std::stop_token stop, AdminLog& log) {
  pin_current_thread(kPapCore);
  const auto interval = std::chrono::nanoseconds(static_cast<std::int64_t>(interval_ms * 1e6));
  auto next = std::chrono::steady_clock::now();
  try {
    for (std::uint64_t k = 1; !stop.stop_requested(); ++k) {
      std::this_thread::sleep_until(next);
      const std::int64_t t0 = now_ns();
      if (auto r = service.repository.submit(corpus.flip_documents[k % 2], "bench-admin"); !r) {
        throw std::runtime_error(r.reason);
      }
      const std::int64_t t1 = now_ns();
      if (auto r = service.repository.issue(corpus.flip_id, "bench-admin"); !r) {
        throw std::runtime_error(r.reason);
      }
      const std::int64_t t2 = now_ns();
      const std::uint64_t version = service.publisher.publish_from(service.repository)->version();
      const std::int64_t t3 = now_ns();
      if (version != k + 1) throw std::logic_error("unexpected snapshot version");
      log.versions.push_back(version);
      log.issue_start_ns.push_back(t0);
      log.published_ns.push_back(t3);
      log.submit_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      log.issue_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
      log.publish_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
      next = std::max(next + interval, std::chrono::steady_clock::now());
    }
  } catch (const std::exception& e) {
    log.error = e.what();
  }
}

}  // namespace dbench
