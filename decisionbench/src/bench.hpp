// The decision-service benchmark: set-up of one service instance
// (PAP-loaded corpus, published snapshot, two-level cache, engine), the
// load generator that drives it through the public entry points, the
// completion sink that encodes, enforces and checks every decision, and
// the PAP thread that re-issues policy while reads run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stop_token>
#include <string>
#include <string_view>
#include <vector>

#include "cache/decision_cache.hpp"
#include "common/clock.hpp"
#include "corpus.hpp"
#include "obs/trace.hpp"
#include "pap/repository.hpp"
#include "pep/pep.hpp"
#include "runtime/engine.hpp"
#include "runtime/snapshot.hpp"

namespace dbench {

/// Steady-clock nanoseconds: the same clock obs::monotonic_ns() uses, so
/// the benchmark's spans and the engine's explain-trace spans line up.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU time of the whole process so far (getrusage).
double process_cpu_seconds();
/// CPU time of the calling thread so far.
double thread_cpu_seconds();

struct Workload {
  const char* name;
  /// Open-loop rate of the latency phase, req/s. A fixed absolute rate,
  /// never derived from measured capacity.
  double open_rate;
  /// Requests arrive as XML bytes and decisions leave as XML bytes.
  bool wire;
  /// The PAP re-issues policy during the measured read phases; otherwise
  /// the administrative path is only exercised by a probe phase after them.
  bool churn_with_reads;
};

/// The named workloads; null for an unknown name.
const Workload* find_workload(std::string_view name);

// Service shape shared by every workload (see WORKLOADS.md).
inline constexpr std::size_t kWorkers = 2;
inline constexpr std::uint64_t kOutstanding = 64;
inline constexpr std::size_t kL1Entries = 1024;
inline constexpr std::size_t kL2Entries = 8192;
inline constexpr std::size_t kQueueCapacity = 8192;
inline constexpr std::uint64_t kTraceSampleEvery = 64;

// Thread placement on a host with at least kThreads cores: engine worker
// i on core i (EngineConfig::pin_workers), the PAP thread and the load
// generator on the two cores after them. Fewer cores: nothing is pinned.
inline constexpr std::size_t kThreads = 4;
inline constexpr std::size_t kPapCore = 2;
inline constexpr std::size_t kGeneratorCore = 3;

/// Pins the calling thread to `core`; false (and no effect) on hosts
/// with fewer than kThreads cores.
bool pin_current_thread(std::size_t core);

/// One set-up of the decision service. The constructor is the PAP load:
/// every corpus document is submitted and issued (issue-time lint on),
/// the issued set is published as snapshot version 1, and the engine is
/// started over it.
struct Service {
  Service(const Corpus& corpus, mdac::obs::DecisionTracer* tracer);
  // The repository holds a reference to `clock`.
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  mdac::common::WallClock clock;
  mdac::pap::PolicyRepository repository;
  mdac::runtime::SnapshotPublisher publisher;
  mdac::cache::DecisionCache cache;
  /// Declared last: destroyed (drained and joined) before what it uses.
  std::unique_ptr<mdac::runtime::DecisionEngine> engine;
};

/// Timestamps (steady ns) and exact per-call allocation counts of one
/// request, recorded only in traced runs. The send-side fields are
/// written by the load generator, the completion-side ones by the engine
/// worker that ran the callback.
struct RequestSpans {
  std::int64_t sched = 0;      // scheduled send time
  std::int64_t send = 0;       // generator started the send
  std::int64_t built = 0;      // request built (wire: XML decoded)
  std::int64_t submitted = 0;  // DecisionEngine::submit returned
  std::int64_t cb_entry = 0;   // completion callback entered
  std::int64_t encoded = 0;    // decision encoded (wire only; else = cb_entry)
  std::int64_t done = 0;       // EnforcementPoint::enforce returned
  std::uint64_t trace_id = 0;
  std::uint32_t build_allocs = 0;
  std::uint32_t submit_allocs = 0;
  std::uint32_t encode_allocs = 0;
  std::uint32_t enforce_allocs = 0;
  std::uint32_t obligations = 0;
};

struct ClosedLoopResult {
  std::vector<double> slice_rps;
  std::vector<double> slice_cpu_us_per_decision;
  std::uint64_t completed = 0;
};

struct OpenLoopResult {
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  /// Scheduled send -> enforcement done, per request in send order.
  std::vector<std::int64_t> latency_ns;
  /// How late the generator sent each request (traced runs only).
  std::vector<std::int64_t> late_ns;
  std::vector<RequestSpans> spans;  // traced runs only
  std::size_t queue_depth_max = 0;  // traced runs only
};

/// Drives one Service. Not thread-safe: every phase runs on the calling
/// (load-generator) thread; completions arrive on engine workers.
class Runner {
 public:
  Runner(const Corpus& corpus, RequestPool& pool, const Oracle& oracle, bool wire,
         bool trace);
  ~Runner();
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// Points the runner at a freshly set-up service (versions restart).
  void attach(Service* service);

  /// Sends every distinct pool request once, closed loop (cache warm-up).
  void warm();
  /// One submitter keeping kOutstanding requests in flight.
  ClosedLoopResult closed_loop(double seconds, int slices);
  /// A fixed-rate schedule; each request is timed from its due time.
  OpenLoopResult open_loop(double rate, double seconds);

  /// Worker-side completion: encode, enforce, time, check.
  void complete(std::uint32_t slot, mdac::runtime::EngineResult result);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_.load(std::memory_order_acquire); }
  std::uint64_t stale_permits() const { return stale_permits_.load(std::memory_order_acquire); }
  /// First completion stamped with snapshot `version` (steady ns), 0 if none yet.
  std::int64_t first_seen(std::uint64_t version) const;
  /// Share of cache hits among the first decisions of each version >= 2
  /// (traced runs only).
  double hit_ratio_after_publish() const;

  static constexpr std::size_t kMaxVersions = 1 << 14;
  static constexpr std::uint32_t kAfterPublishWindow = 512;

 private:
  struct InFlight;

  void send(std::uint32_t pool_index, std::int64_t sched_ns, std::int64_t sample,
            RequestSpans* spans);
  /// Spins until fewer than kOutstanding requests are in flight.
  void await_credit();
  /// Waits until every sent request has completed (bounded; a request
  /// that never completes counts as failed).
  void drain();
  mdac::pep::EnforcementPoint& thread_pep();

  const Corpus& corpus_;
  RequestPool& pool_;
  const Oracle& oracle_;
  const bool wire_;
  const bool trace_;
  Service* service_ = nullptr;

  std::unique_ptr<InFlight[]> ring_;
  std::uint64_t serial_ = 0;
  std::size_t cursor_ = 0;  // position in pool_.sequence
  std::uint64_t attempted_ = 0;

  // Sample sinks of the running open-loop phase (null outside one).
  std::int64_t* latency_ = nullptr;
  RequestSpans* spans_ = nullptr;

  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> stale_permits_{0};
  std::atomic<std::uint64_t> newest_version_{0};
  std::unique_ptr<std::atomic<std::int64_t>[]> first_seen_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> after_publish_total_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> after_publish_hits_;
};

/// What the PAP thread measured, one entry per re-issue.
struct AdminLog {
  std::vector<std::uint64_t> versions;
  std::vector<std::int64_t> issue_start_ns;  // before PolicyRepository::submit
  std::vector<std::int64_t> published_ns;    // after publish_from returned
  std::vector<double> submit_us;
  std::vector<double> issue_ms;
  std::vector<double> publish_ms;
  std::string error;  // non-empty: a PAP operation failed
};

/// Re-issues `corpus.flip_id` every `interval_ms`, alternating between
/// its two versions, and publishes a snapshot after each issue, until
/// `stop` is requested. Runs on its own thread; the repository is touched
/// by no other thread while it runs.
void admin_loop(Service& service, const Corpus& corpus, double interval_ms,
                std::stop_token stop, AdminLog& log);

}  // namespace dbench
