// mdac::runtime::DecisionEngine — the multi-threaded decision-engine
// runtime over snapshot-published policy state (runtime/snapshot.hpp).
//
// The paper's dependability argument (§3) has one PDP service answering
// many domains' PEPs concurrently; core::Pdp is deliberately
// single-threaded (see the thread-safety contract in core/pdp.hpp). The
// engine bridges the two without weakening either side:
//
//   * N worker threads, each owning a *private* core::Pdp replica — the
//     documented one-Pdp-per-thread shape — bound to an immutable
//     PolicySnapshot. Workers adopt the latest snapshot only at batch
//     boundaries, so every decision is computed against exactly one
//     published policy state.
//   * Lock-free admission into a preallocated job-slot ring with
//     micro-batching: a worker drains up to `max_batch` requests at once
//     into Pdp::evaluate_batch, which amortises the staleness probe and
//     keeps the per-request scratch warm. See "Admission and the slot
//     ring" below.
//   * Deterministic overload shedding: a submission that finds the
//     engine at its admission bound is *immediately* completed with
//     Indeterminate{DP} and a distinct status message
//     (kShedQueueFullMessage) instead of queueing unboundedly — the
//     PEP's fail-safe deny bias then applies (pep::EnforcementPoint
//     treats Indeterminate as deny). Per-request deadlines shed the same
//     way at dequeue time: a request that waited past its deadline is
//     answered, not silently evaluated late.
//   * Graceful drain on shutdown: `shutdown(Drain::kDrain)` stops
//     admission, lets the workers empty the ring, then joins them;
//     `Drain::kDiscard` completes queued requests with kShutdown.
//   * EngineMetrics: queue depth, sheds by cause, per-worker ops, batch
//     sizes and completion-latency percentiles — the saturation signals
//     a dependability::HeartbeatMonitor-style health check or the bench
//     harness reads to observe overload (shed_rate / saturation).
//
// An optional cache::DecisionCache is shared across all workers: hits
// complete without touching a Pdp, misses are filled with definitive
// decisions. Entries are keyed by (request fingerprint, snapshot
// version), so policy republication implicitly invalidates. Each worker
// fronts the shared seqlock table (lock-free reads) with a private L1:
// the same slot table with a no-op writer lock
// (cache::WorkerDecisionCache), built with the shared cache's TTL and
// clock and allocated on the worker thread at startup (first-touch).
// An L2 hit promoted into the L1 keeps its L2 expiry, so no entry
// outlives its TTL counted from its evaluation (see ARCHITECTURE.md
// §"The two-level decision cache").
//
// On snapshot adoption a worker sweeps its L1 of the replaced version,
// and the shared cache is swept of every version older than the minimum
// any worker still serves (DecisionCache::evict_older_than), so
// long-running engines don't accumulate unreachable entries.
//
// Admission and the slot ring. Submitters and workers share four
// lock-free pieces:
//
//   * The ring: bit_ceil(queue_capacity) preallocated Job slots, each
//     with a Vyukov sequence number. A slot at position p is free for a
//     producer when its sequence reads p, holds a published job when it
//     reads p + 1, and is handed back for position p + size once a
//     worker has moved the job out. Submission moves the job into its
//     slot, so an untraced, admitted submit allocates nothing.
//   * The admission word: one atomic holding (admitted-not-yet-popped
//     count | closed bit). Submit CASes the count up only while it is
//     below queue_capacity (the exact configured bound, not the ring
//     size) and the closed bit is clear; otherwise the request is shed on
//     the submitting thread — kShedQueueFull or kShutdown. Workers
//     subtract what they popped after releasing the slots, so the count
//     bounds the occupied slots and an admitted producer always gets one
//     (at worst it yields while a worker finishes moving a job out of
//     the slot it wraps onto). A racing submitter is therefore either
//     admitted — and later drained or discarded — or shed; never lost.
//   * Idle parking: one bit per worker in an idle mask (64 workers per
//     mask word) and one park word per worker (kRunning, kWaiting,
//     kNotified), each on its own cache line. A worker that finds the
//     ring empty and the admission word at 0 sets its bit with a seq_cst
//     fetch_or and re-checks the admission word with a seq_cst load. If
//     the word still reads 0 it CASes its park word kRunning -> kWaiting
//     (a park) and futex-waits while the word reads kWaiting. Either way
//     it then clears its bit, consumes any notification and retries.
//     After publishing its slot, a producer reads the mask (seq_cst),
//     claims one set bit with fetch_and and notifies that worker alone:
//     it swaps the park word to kNotified and issues FUTEX_WAKE only if
//     the swap read kWaiting. The Dekker argument: the producer's
//     admission CAS precedes its mask read, and the worker's fetch_or
//     precedes its re-check, all four seq_cst. If the worker's re-check
//     read 0, it came before the admission in the single seq_cst order,
//     so the mask read comes after the fetch_or and finds that bit set
//     (or already claimed, which also ends in a notification). So a
//     worker parks only where some producer will see it, and no job is
//     stranded while a registered worker sleeps. A claimed worker's
//     clearing fetch_and follows the claim in the mask's modification
//     order, which makes the claimer's slot visible to its next pop. A
//     bit is set once per registration and claimed at most once, so a
//     wake always lands on a worker that registered as idle, and a
//     second submit never wakes it again: FUTEX_WAKE calls <= parks.
//     A producer that finds the mask empty makes no syscall. When the
//     ring is empty but the admission word is not 0 (a job mid-publish,
//     a peer that popped but has not yet subtracted, a closed engine
//     still draining) the worker does not register: it retries, and
//     yields only after a short spin, for a producer preempted
//     mid-publish. A notification that lands after its worker already
//     moved on makes that worker's next park return at once, once.
//     Shutdown sets the closed bit and notifies every worker; a worker
//     exits once the word reads exactly "closed, 0 admitted". A kDiscard
//     shutdown empties the ring on the calling thread; a job a worker
//     wins from it meanwhile is decided, as if popped before the close.
//   * The return ring: bit_ceil(workers * max_batch) slots (at least 2)
//     with the same Vyukov sequence scheme, carrying completed jobs back
//     to the submitting side. After a batch's callbacks have run, the
//     worker moves each job (the request's heap block, the callback, a
//     sampled trace) into the ring; each submit pops and destroys up to
//     two returned jobs on its own thread after enqueueing. The blocks go
//     back to the submitter's malloc cache, where its next request copy
//     takes them, instead of crossing threads on every request. A full
//     ring makes the worker destroy the rest itself. (A worker preempted
//     between claiming a return slot and filling it holds up reclaim at
//     that slot until it runs again, so its peers can fill the ring.)
//     With several submitters one may free another's block. shutdown()
//     empties the ring after joining, so no callback object outlives
//     it.
//
// What a busy engine pays per submit: one admission CAS, one slot
// publish, one mask read, and up to two return-ring pops. It issues a
// FUTEX_WAKE only when the mask shows a parked or parking worker, which
// on a lightly loaded engine (workers faster than submitters) is most
// submits: parks and wakes are counted (EngineMetrics::Snapshot::parks,
// wakes) so that cost is visible rather than assumed away.
//
// A completed job's callback object is destroyed later than it is
// invoked: on a later submit's thread, or by shutdown().
//
// Completion callbacks run on a worker thread — except shed-on-submit
// (queue full / shutdown), which completes on the submitting thread
// before `submit` returns; that is what makes shedding deterministic.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "cache/decision_cache.hpp"
#include "common/clock.hpp"
#include "core/pdp.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "runtime/snapshot.hpp"

namespace mdac::runtime {

/// Status messages carried by shed decisions. Distinct from every
/// evaluation-produced status so a PEP (or operator) can tell "the
/// engine refused under load" from "the policy tree failed".
inline constexpr const char* kShedQueueFullMessage = "overload-shed: queue full";
inline constexpr const char* kShedDeadlineMessage = "overload-shed: deadline exceeded";
inline constexpr const char* kShutdownMessage = "overload-shed: engine shut down";
inline constexpr const char* kNoSnapshotMessage = "no policy snapshot published";

/// Every shed status above shares this prefix — the stable contract
/// remote dispatchers classify on (see pep::classify_reply): a shed is
/// the *replica* saying "alive but refusing under load", which is a
/// retryable signal for a replicated client, not a decision to enforce.
inline constexpr std::string_view kShedStatusPrefix = "overload-shed: ";

constexpr bool is_shed_status(std::string_view message) {
  return message.size() >= kShedStatusPrefix.size() &&
         message.substr(0, kShedStatusPrefix.size()) == kShedStatusPrefix;
}

enum class CompletionStatus {
  kDecided,        ///< evaluated (or served from the shared cache)
  kShedQueueFull,  ///< admission control: queue was at capacity
  kShedDeadline,   ///< waited past its deadline before a worker got to it
  kShutdown,       ///< engine stopped before this request was evaluated
};

const char* to_string(CompletionStatus s);

struct EngineResult {
  CompletionStatus status = CompletionStatus::kDecided;
  core::Decision decision;
  /// Version of the snapshot the decision was computed against (0 for
  /// sheds). Cache hits carry it too: cache keys are scoped to the
  /// snapshot version, so a hit is always an entry some worker filled
  /// under the SAME snapshot — a republication makes old entries
  /// unreachable instead of serving withdrawn policy.
  std::uint64_t snapshot_version = 0;
  bool cache_hit = false;
  /// Which cache level served the hit: 0 = evaluated (or not cached),
  /// 1 = worker-private L1, 2 = the shared store.
  std::uint8_t cache_level = 0;
  /// Trace id assigned at admission when an obs::DecisionTracer is
  /// configured (0 otherwise) — the correlation key for explain traces
  /// and structured log lines.
  std::uint64_t trace_id = 0;

  bool decided() const { return status == CompletionStatus::kDecided; }
};

/// Aggregated engine counters, all updated with relaxed atomics on the
/// hot path and read as a consistent-enough snapshot by health checks
/// and the bench harness. The counts live in obs instruments the engine
/// owns; per-worker counts and the latency histogram have one shard per
/// worker, so no worker writes a line another thread writes.
class EngineMetrics {
 public:
  struct Snapshot {
    std::uint64_t submitted = 0;
    std::uint64_t decided = 0;
    std::uint64_t cache_hits = 0;        // l1_hits + l2_hits
    std::uint64_t l1_hits = 0;
    std::uint64_t l2_hits = 0;
    std::uint64_t cache_misses = 0;      // lookups answered by evaluation
    std::uint64_t l2_read_retries = 0;   // seqlock re-reads on the shared level
    std::uint64_t version_evictions = 0; // entries reclaimed by the sweep
    std::uint64_t shed_queue_full = 0;
    std::uint64_t shed_deadline = 0;
    std::uint64_t shed_shutdown = 0;
    std::uint64_t batches = 0;
    std::uint64_t snapshot_adoptions = 0;
    /// Times a worker went to sleep on its park word (all workers).
    std::uint64_t parks = 0;
    /// FUTEX_WAKE calls issued to wake a parked worker; never above
    /// `parks`, since each wake consumes one park.
    std::uint64_t wakes = 0;
    /// Admitted requests no worker has popped yet. Read from the
    /// engine's admission word (DecisionEngine::metrics); 0 in
    /// EngineMetrics' own snapshot, which has no queue to look at.
    std::size_t queue_depth = 0;
    std::size_t queue_capacity = 0;
    std::vector<std::uint64_t> worker_ops;  // decided per worker
    double mean_batch_size = 0;
    /// Approximate completion-latency percentiles (enqueue → callback)
    /// from `latency` (obs::Histogram::Snapshot::percentile): right
    /// within ~1.5x of a bucket.
    double latency_p50_ns = 0;
    double latency_p90_ns = 0;
    double latency_p99_ns = 0;
    /// Completion latency in ns, log2 buckets — what the obs::Registry
    /// collector exports as a native Prometheus histogram.
    obs::Histogram::Snapshot latency;

    std::uint64_t sheds() const {
      return shed_queue_full + shed_deadline + shed_shutdown;
    }
    /// Fraction of submissions shed — the overload signal a
    /// HeartbeatMonitor-style health check keys on.
    double shed_rate() const {
      return submitted > 0 ? static_cast<double>(sheds()) / static_cast<double>(submitted)
                           : 0.0;
    }
    /// Instantaneous queue fill fraction (1.0 = at the admission bound).
    double saturation() const {
      return queue_capacity > 0
                 ? static_cast<double>(queue_depth) / static_cast<double>(queue_capacity)
                 : 0.0;
    }
  };

  EngineMetrics(std::size_t workers, std::size_t queue_capacity);

  void record_submitted() { submitted_.add(); }
  void record_shed(CompletionStatus cause) {
    sheds_.add(1, static_cast<std::size_t>(cause));
  }
  void record_l1_hit(std::size_t worker) { l1_hits_.add(1, worker); }
  void record_l2_hit(std::size_t worker, std::uint64_t retries) {
    l2_hits_.add(1, worker);
    if (retries != 0) l2_retries_.add(retries, worker);
  }
  void record_cache_miss(std::size_t worker, std::uint64_t retries) {
    cache_misses_.add(1, worker);
    if (retries != 0) l2_retries_.add(retries, worker);
  }
  void record_version_evictions(std::uint64_t count) { version_evictions_.add(count); }
  void record_batch(std::size_t worker, std::size_t batch_size) {
    batches_.add(1, worker);
    batched_requests_.add(batch_size, worker);
  }
  void record_decided(std::size_t worker, std::uint64_t latency_ns) {
    ops_.add(1, worker);
    latency_.observe(latency_ns, worker);
  }
  void record_adoption() { adoptions_.add(); }
  void record_park(std::size_t worker) { parks_.add(1, worker); }
  void record_wake() { wakes_.add(); }

  Snapshot snapshot() const;

  /// Zeroes every counter and the latency histogram (queue capacity is
  /// configuration and stays). Benchmark support: call only while the
  /// engine is QUIESCENT (no submissions in flight, workers parked) so
  /// warmup traffic can be excluded from the measured window; resetting
  /// under load loses concurrent increments.
  void reset();

 private:
  std::size_t queue_capacity_;
  /// Written by every submit, on the submitting threads.
  obs::Counter submitted_;
  /// Written by submitters that wake a worker.
  obs::Counter wakes_;
  obs::Counter version_evictions_;
  obs::Counter adoptions_;
  /// Sheds by cause: one shard per CompletionStatus (kDecided's unused).
  obs::Counter sheds_{4};
  /// One shard per worker. `decided` is the sum of `ops_`.
  obs::Counter ops_;
  obs::Counter batches_;
  obs::Counter batched_requests_;
  obs::Counter l1_hits_;
  obs::Counter l2_hits_;
  obs::Counter cache_misses_;
  obs::Counter l2_retries_;
  obs::Counter parks_;
  obs::Histogram latency_;
};

struct EngineConfig {
  /// Worker threads, each with a private core::Pdp replica.
  std::size_t workers = 2;
  /// Admission bound: submissions beyond this are shed deterministically.
  std::size_t queue_capacity = 1024;
  /// Max requests one worker drains per batch (micro-batching into
  /// Pdp::evaluate_batch).
  std::size_t max_batch = 32;
  /// Configuration for every worker's Pdp replica.
  core::PdpConfig pdp;
  /// Optional shared PIP hook wired into every replica. Unlike a
  /// single-threaded Pdp's resolver, this one is consulted from all
  /// worker threads concurrently — it MUST be thread-safe. Not owned.
  core::AttributeResolver* resolver = nullptr;
  /// Optional function registry override (not owned; default: standard).
  const core::FunctionRegistry* functions = nullptr;
  /// Default per-request deadline in ms, measured from submission;
  /// <= 0 means no deadline. A request still queued when its deadline
  /// passes is shed (kShedDeadline) instead of evaluated late.
  common::Duration default_deadline_ms = 0;
  /// Pin worker i to core i (pthread affinity). Placement pass for
  /// many-core hosts: keeps each worker's first-touch allocations (Pdp
  /// replica, L1, scratch) and its L2 slot traffic on one core's node.
  /// Graceful no-op on non-Linux platforms and on hosts with fewer
  /// cores than workers (oversubscribed workers must stay migratable);
  /// `DecisionEngine::workers_pinned()` reports what actually stuck.
  bool pin_workers = false;
  /// Per-worker L1 capacity (slots) in front of the shared cache,
  /// rounded up like the shared cache's capacity (to a power-of-two
  /// number of 4-way buckets); 0 disables the L1 (L2-only).
  std::size_t l1_capacity = 256;
  /// Optional decision tracer (not owned; must outlive the engine).
  /// When set, every submission is assigned a trace id
  /// (EngineResult::trace_id) and the tracer's sampling policy decides
  /// which requests additionally record explain-trace spans. Untraced
  /// requests pay one relaxed fetch_add plus null checks — see the
  /// hot-path cost contract in obs/trace.hpp.
  obs::DecisionTracer* tracer = nullptr;
};

class DecisionEngine {
 public:
  using Callback = std::function<void(EngineResult)>;

  enum class Drain {
    kDrain,    ///< stop admission, finish everything queued, then join
    kDiscard,  ///< stop admission, complete queued requests as kShutdown
  };

  /// Workers start immediately and serve `publisher`'s current snapshot
  /// (requests submitted before the first publish are answered
  /// Indeterminate{DP} kNoSnapshotMessage — fail-safe, not a crash).
  /// `cache`, if given, is shared across all workers and must outlive
  /// the engine; a TTL it has bounds both cache levels.
  explicit DecisionEngine(SnapshotPublisher& publisher, EngineConfig config = {},
                          cache::DecisionCache* cache = nullptr);

  /// Drains and joins (shutdown(Drain::kDrain)).
  ~DecisionEngine();

  DecisionEngine(const DecisionEngine&) = delete;
  DecisionEngine& operator=(const DecisionEngine&) = delete;

  /// Submits with the config's default deadline. The future completes
  /// with kDecided, or with a shed result whose decision is
  /// Indeterminate{DP} carrying the distinct shed status. All submit
  /// overloads are safe from any number of threads, including
  /// concurrently with shutdown().
  std::future<EngineResult> submit(core::RequestContext request);
  /// As above with an explicit deadline (ms from now; <= 0 = none).
  std::future<EngineResult> submit(core::RequestContext request,
                                   common::Duration deadline_ms);

  /// Callback forms. Decided / deadline-shed callbacks run on a worker
  /// thread; queue-full and shutdown sheds complete on the submitting
  /// thread before submit returns (deterministic admission control).
  void submit(core::RequestContext request, Callback callback);
  void submit(core::RequestContext request, Callback callback,
              common::Duration deadline_ms);

  /// Idempotent; safe to call concurrently with submissions (in-flight
  /// racers are either admitted and drained, or shed as kShutdown).
  void shutdown(Drain drain = Drain::kDrain);

  bool accepting() const {
    return (admission_.load(std::memory_order_acquire) & kClosedBit) == 0;
  }
  std::size_t worker_count() const { return config_.workers; }
  std::size_t queue_capacity() const { return config_.queue_capacity; }
  /// Admitted requests no worker has popped yet (relaxed read of the
  /// admission word).
  std::size_t queue_depth() const {
    return static_cast<std::size_t>(admission_.load(std::memory_order_relaxed) &
                                    ~kClosedBit);
  }
  /// Workers whose core pinning actually took effect (0 when
  /// pin_workers is off, the platform is unsupported, or cores <
  /// workers — the graceful no-op cases).
  std::size_t workers_pinned() const {
    return pinned_workers_.load(std::memory_order_acquire);
  }

  /// Live counters; see EngineMetrics::Snapshot for the health-check
  /// surface (shed_rate, saturation, latency percentiles). Safe from any
  /// thread; the snapshot is consistent-enough (relaxed reads), not a
  /// linearisation point.
  EngineMetrics::Snapshot metrics() const {
    EngineMetrics::Snapshot s = metrics_.snapshot();
    s.queue_depth = queue_depth();
    return s;
  }

  /// See EngineMetrics::reset — quiescent engines only (bench warmup).
  void reset_metrics() { metrics_.reset(); }

  /// Registers the engine's counters, gauges and the completion-latency
  /// histogram with a metrics registry (mdac_engine_*); returns the
  /// collector id (obs::Registry::remove_collector). The engine must
  /// outlive the registry or be unregistered first.
  std::uint64_t register_metrics(obs::Registry& registry) const;

 private:
  using SteadyClock = std::chrono::steady_clock;

  struct Job {
    core::RequestContext request;
    Callback callback;
    SteadyClock::time_point enqueued;
    SteadyClock::time_point deadline;  // time_point::max() = none
    /// Trace id from tracer admission (0 = no tracer configured).
    std::uint64_t trace_id = 0;
    /// Span recorder, allocated only for head-sampled requests; null on
    /// the untraced hot path (spans gate on this pointer).
    std::unique_ptr<obs::Trace> trace;
  };

  /// One worker's execution state: the adopted snapshot and the private
  /// Pdp replica bound to it, plus reusable batch scratch and the private
  /// L1. Constructed inside worker_loop — on the worker's own thread — so
  /// first-touch places all of it on the worker's NUMA node when pinning
  /// is on.
  struct Worker {
    std::shared_ptr<const PolicySnapshot> snapshot;
    std::unique_ptr<core::Pdp> pdp;
    /// Empty without a shared cache or with l1_capacity == 0.
    std::optional<cache::WorkerDecisionCache> l1;
    std::vector<Job> jobs;
    std::vector<core::RequestContext> requests;  // contiguous, for evaluate_batch
    std::vector<std::size_t> pending;            // jobs[i] awaiting evaluation
    std::vector<cache::RequestKey> pending_keys; // fingerprints, parallel to pending
    std::vector<core::PdpResult> results;        // evaluate_batch output, parallel to pending
  };

  /// One ring slot: the Vyukov sequence number and the preallocated job.
  struct Slot {
    std::atomic<std::uint64_t> sequence{0};
    Job job;
  };

  /// Admission word layout: the top bit is "closed", the rest counts
  /// admitted requests not yet popped by a worker.
  static constexpr std::uint64_t kClosedBit = std::uint64_t{1} << 63;

  /// Claims one admission under the exact bound; kDecided = admitted,
  /// otherwise the shed status to complete with.
  CompletionStatus admit();
  /// Moves an admitted job into its ring slot and wakes one idle worker
  /// if any is registered.
  void enqueue(Job&& job);
  /// Claims one set bit of the idle mask and notifies that worker; no-op
  /// when no worker is registered as idle.
  void wake_one();
  /// Sets worker `index`'s park word to kNotified, and wakes it if it
  /// was asleep on the word.
  void notify(std::size_t index);
  /// Registers worker `index` as idle, re-checks the admission word and
  /// sleeps on its park word while nothing is admitted; returns once
  /// registered-and-woken or the re-check saw work or a close.
  void park(std::size_t index);
  /// Moves a completed job into the return ring; false = ring full (the
  /// caller destroys it).
  bool give_back(Job& job);
  /// Pops and destroys up to `max` returned jobs on the calling thread.
  void reclaim(std::size_t max);
  /// Pops up to `max` published jobs (one CAS for the whole run) into
  /// `out`, releases their slots and returns how many it took; 0 = the
  /// ring is empty at the head.
  std::size_t take_batch(std::vector<Job>& out, std::size_t max);

  void worker_loop(std::size_t index);
  /// Pops up to max_batch jobs into `worker.jobs`, parking while the
  /// ring is empty; false = closed and drained, exit.
  bool pop_batch(std::size_t index, Worker& worker);
  /// Re-binds `worker` to the newest snapshot if it changed (the batch
  /// boundary of the RCU scheme); sweeps the worker's L1 and triggers
  /// the shared-cache version sweep on change.
  void adopt_snapshot(std::size_t index, Worker& worker);
  /// Sweeps shared-cache entries older than the minimum snapshot version
  /// any worker has adopted (lagging workers pin the watermark — their
  /// entries must survive until they move on).
  void maybe_sweep_cache();
  void process_batch(std::size_t index, Worker& worker);
  /// The one completion path — decided, deadline-shed, queue-full and
  /// shutdown sheds alike: accounts the result by its status, publishes
  /// the job's trace and runs the callback, containing anything it
  /// throws so no user callback can unwind engine internals. `worker` =
  /// obs::Trace::kNoWorker for completions that never reached one
  /// (shed-on-submit, discard); decided results always carry a worker.
  void complete(Job& job, EngineResult result, std::uint32_t worker);
  /// Finalises and publishes the job's explain trace (if any): stamps
  /// outcome/summary fields, tail-synthesizes a trace for unsampled
  /// anomalies, no-op without a tracer. `worker` = Trace::kNoWorker for
  /// completions that never reached one (shed-on-submit, discard).
  void publish_trace(Job& job, const EngineResult& result, std::uint32_t worker);

  SnapshotPublisher& publisher_;
  EngineConfig config_;
  cache::DecisionCache* cache_;
  EngineMetrics metrics_;

  /// Per-worker adopted snapshot version, padded so the release store at
  /// adoption never contends with neighbours' slots. 0 = never adopted
  /// (excluded from the sweep minimum: a worker that has served nothing
  /// holds no cache entries, and its first adoption takes the newest
  /// version, which is never below an already-swept watermark).
  struct alignas(64) AdoptedVersion {
    std::atomic<std::uint64_t> version{0};
  };
  std::unique_ptr<AdoptedVersion[]> adopted_versions_;
  /// Versions below this have been swept from the shared cache; CAS'd
  /// so exactly one adopting worker runs each sweep.
  std::atomic<std::uint64_t> swept_below_{0};
  std::atomic<std::size_t> pinned_workers_{0};

  std::unique_ptr<Slot[]> slots_;
  std::uint64_t slot_mask_ = 0;
  /// Written by every submit and every pop; each on its own line so the
  /// producer and consumer cursors do not false-share with it.
  alignas(64) std::atomic<std::uint64_t> admission_{0};
  alignas(64) std::atomic<std::uint64_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::uint64_t> dequeue_pos_{0};
  /// Idle mask, one bit per worker: read by every submit, written only
  /// when a worker registers, clears or is claimed — so its line stays
  /// shared while the engine is busy.
  struct alignas(64) IdleWord {
    std::atomic<std::uint64_t> bits{0};
  };
  std::unique_ptr<IdleWord[]> idle_;
  std::size_t idle_words_ = 0;
  /// Per-worker park word (see "Idle parking" in the header comment).
  struct alignas(64) ParkWord {
    std::atomic<std::uint32_t> state{0};
  };
  std::unique_ptr<ParkWord[]> park_;
  /// The return ring: completed jobs travelling back to submitters.
  std::unique_ptr<Slot[]> returns_;
  std::uint64_t return_mask_ = 0;
  alignas(64) std::atomic<std::uint64_t> return_push_pos_{0};
  alignas(64) std::atomic<std::uint64_t> return_pop_pos_{0};
  bool joined_ = false;
  std::mutex shutdown_mutex_;  // serialises shutdown() callers
  std::vector<std::thread> threads_;
};

/// A pep::EnforcementPoint::DecisionSource that submits through the
/// engine and blocks for the result: the drop-in way to put an existing
/// PEP behind the runtime. Sheds surface as Indeterminate{DP}, so the
/// PEP's deny bias applies unchanged.
std::function<core::Decision(const core::RequestContext&)> engine_decision_source(
    DecisionEngine& engine);

}  // namespace mdac::runtime
