#include "runtime/engine.hpp"

#include <bit>
#include <exception>
#include <string>

#ifdef __linux__
#include <linux/futex.h>
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "cache/request_key.hpp"
#include "common/logging.hpp"
#include "obs/registry.hpp"

namespace mdac::runtime {

const char* to_string(CompletionStatus s) {
  switch (s) {
    case CompletionStatus::kDecided: return "decided";
    case CompletionStatus::kShedQueueFull: return "shed-queue-full";
    case CompletionStatus::kShedDeadline: return "shed-deadline";
    case CompletionStatus::kShutdown: return "shutdown";
  }
  return "?";
}

// ---------------------------------------------------------------------
// EngineMetrics
// ---------------------------------------------------------------------

EngineMetrics::EngineMetrics(std::size_t workers, std::size_t queue_capacity)
    : queue_capacity_(queue_capacity),
      ops_(workers),
      batches_(workers),
      batched_requests_(workers),
      l1_hits_(workers),
      l2_hits_(workers),
      cache_misses_(workers),
      l2_retries_(workers),
      parks_(workers),
      latency_(workers) {}

void EngineMetrics::reset() {
  for (obs::Counter* counter :
       {&submitted_, &wakes_, &version_evictions_, &adoptions_, &sheds_, &ops_, &batches_,
        &batched_requests_, &l1_hits_, &l2_hits_, &cache_misses_, &l2_retries_, &parks_}) {
    counter->reset();
  }
  latency_.reset();
}

EngineMetrics::Snapshot EngineMetrics::snapshot() const {
  Snapshot s;
  s.submitted = submitted_.value();
  s.wakes = wakes_.value();
  s.version_evictions = version_evictions_.value();
  s.snapshot_adoptions = adoptions_.value();
  const auto shed = [this](CompletionStatus cause) {
    return sheds_.value(static_cast<std::size_t>(cause));
  };
  s.shed_queue_full = shed(CompletionStatus::kShedQueueFull);
  s.shed_deadline = shed(CompletionStatus::kShedDeadline);
  s.shed_shutdown = shed(CompletionStatus::kShutdown);
  s.queue_capacity = queue_capacity_;

  s.worker_ops.reserve(ops_.shards());
  for (std::size_t worker = 0; worker < ops_.shards(); ++worker) {
    s.worker_ops.push_back(ops_.value(worker));
    s.decided += s.worker_ops.back();
  }
  s.parks = parks_.value();
  s.l1_hits = l1_hits_.value();
  s.l2_hits = l2_hits_.value();
  s.cache_hits = s.l1_hits + s.l2_hits;
  s.cache_misses = cache_misses_.value();
  s.l2_read_retries = l2_retries_.value();
  s.batches = batches_.value();
  const std::uint64_t batched = batched_requests_.value();
  s.mean_batch_size =
      s.batches > 0 ? static_cast<double>(batched) / static_cast<double>(s.batches) : 0.0;

  s.latency = latency_.snapshot();
  s.latency_p50_ns = s.latency.percentile(0.50);
  s.latency_p90_ns = s.latency.percentile(0.90);
  s.latency_p99_ns = s.latency.percentile(0.99);
  return s;
}

// ---------------------------------------------------------------------
// DecisionEngine
// ---------------------------------------------------------------------

namespace {

/// Records a span on a head-sampled request's trace (at_ns 0 = now). The
/// untraced path pays the null check only — no clock read.
inline void record_span(obs::Trace* trace, obs::SpanKind kind, std::uint64_t at_ns,
                        std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0) {
  if (trace == nullptr) return;
  if (obs::Span* s = trace->record(kind, at_ns != 0 ? at_ns : obs::monotonic_ns())) {
    s->a = a;
    s->b = b;
    s->c = c;
  }
}

// Park word states (see "Idle parking" in engine.hpp).
constexpr std::uint32_t kRunning = 0;
constexpr std::uint32_t kWaiting = 1;
constexpr std::uint32_t kNotified = 2;

/// Consecutive "ring empty but admission word non-zero" retries before a
/// worker starts yielding the core.
constexpr unsigned kSpinsBeforeYield = 64;

// Sleeping on a worker's park word. On Linux these are raw futex calls:
// std::atomic::wait spins and calls sched_yield a few times before it
// sleeps, which an engine that parks between requests would pay on every
// request. futex_wait may return spuriously; callers re-check.
void futex_wait(std::atomic<std::uint32_t>& word, std::uint32_t seen) {
#ifdef __linux__
  static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t));
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word), FUTEX_WAIT_PRIVATE, seen,
          nullptr, nullptr, 0);
#else
  word.wait(seen, std::memory_order_acquire);
#endif
}

void futex_wake_one(std::atomic<std::uint32_t>& word) {
#ifdef __linux__
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word), FUTEX_WAKE_PRIVATE, 1,
          nullptr, nullptr, 0);
#else
  word.notify_one();
#endif
}

std::uint64_t to_ns(std::chrono::steady_clock::duration d) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

/// Indeterminate{DP} carrying `message`: every shed and fail-safe answer.
EngineResult fail_safe(CompletionStatus status, const char* message) {
  EngineResult r;
  r.status = status;
  r.decision = core::Decision::indeterminate(core::IndeterminateExtent::kDP,
                                             core::Status::processing_error(message));
  return r;
}

EngineResult shed_result(CompletionStatus status) {
  const char* message = kShutdownMessage;
  if (status == CompletionStatus::kShedQueueFull) message = kShedQueueFullMessage;
  if (status == CompletionStatus::kShedDeadline) message = kShedDeadlineMessage;
  return fail_safe(status, message);
}

}  // namespace

DecisionEngine::DecisionEngine(SnapshotPublisher& publisher, EngineConfig config,
                               cache::DecisionCache* cache)
    : publisher_(publisher),
      config_(config),
      cache_(cache),
      metrics_(std::max<std::size_t>(1, config.workers),
               std::max<std::size_t>(1, config.queue_capacity)) {
  config_.workers = std::max<std::size_t>(1, config_.workers);
  config_.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
  config_.max_batch = std::max<std::size_t>(1, config_.max_batch);
  adopted_versions_ = std::make_unique<AdoptedVersion[]>(config_.workers);
  const std::size_t slots = std::bit_ceil(config_.queue_capacity);
  slots_ = std::make_unique<Slot[]>(slots);
  slot_mask_ = slots - 1;
  for (std::size_t i = 0; i < slots; ++i) {
    slots_[i].sequence.store(i, std::memory_order_relaxed);
  }
  // Room for every job the workers can hold at once, so a submitter that
  // reclaims faster than jobs complete keeps the ring from filling. At
  // least two slots: with one, "published at p" and "free for p + 1" are
  // the same sequence value.
  const std::size_t returns =
      std::bit_ceil(std::max<std::size_t>(2, config_.workers * config_.max_batch));
  returns_ = std::make_unique<Slot[]>(returns);
  return_mask_ = returns - 1;
  for (std::size_t i = 0; i < returns; ++i) {
    returns_[i].sequence.store(i, std::memory_order_relaxed);
  }
  idle_words_ = (config_.workers + 63) / 64;
  idle_ = std::make_unique<IdleWord[]>(idle_words_);
  park_ = std::make_unique<ParkWord[]>(config_.workers);
  threads_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

DecisionEngine::~DecisionEngine() { shutdown(Drain::kDrain); }

std::future<EngineResult> DecisionEngine::submit(core::RequestContext request) {
  return submit(std::move(request), config_.default_deadline_ms);
}

std::future<EngineResult> DecisionEngine::submit(core::RequestContext request,
                                                 common::Duration deadline_ms) {
  auto promise = std::make_shared<std::promise<EngineResult>>();
  std::future<EngineResult> result = promise->get_future();
  submit(
      std::move(request),
      [promise](EngineResult r) { promise->set_value(std::move(r)); }, deadline_ms);
  return result;
}

void DecisionEngine::submit(core::RequestContext request, Callback callback) {
  submit(std::move(request), std::move(callback), config_.default_deadline_ms);
}

void DecisionEngine::submit(core::RequestContext request, Callback callback,
                            common::Duration deadline_ms) {
  metrics_.record_submitted();

  const auto now = SteadyClock::now();
  Job job;
  job.request = std::move(request);
  job.callback = std::move(callback);
  job.enqueued = now;
  job.deadline = deadline_ms > 0 ? now + std::chrono::milliseconds(deadline_ms)
                                 : SteadyClock::time_point::max();
  if (config_.tracer != nullptr) {
    // Admission: one relaxed fetch_add on the untraced path; only a
    // head-sampled request allocates its span recorder.
    const obs::TraceHandle handle = config_.tracer->admit();
    job.trace_id = handle.id;
    if (handle.sampled) {
      job.trace = std::make_unique<obs::Trace>();
      job.trace->trace_id = handle.id;
      job.trace->started_ns = to_ns(now.time_since_epoch());
      job.trace->record(obs::SpanKind::kAdmission, job.trace->started_ns);
    }
  }

  const CompletionStatus refused = admit();
  if (refused != CompletionStatus::kDecided) {
    // Deterministic admission control: the submitter learns immediately,
    // on its own thread, that this request was refused.
    complete(job, shed_result(refused), obs::Trace::kNoWorker);
  } else {
    enqueue(std::move(job));
  }
  // Free what the workers handed back here, on the thread whose malloc
  // cache the next request copy draws from. Two per submit drain the
  // ring faster than one completion per submit can fill it.
  reclaim(2);
}

CompletionStatus DecisionEngine::admit() {
  std::uint64_t word = admission_.load(std::memory_order_relaxed);
  do {
    if ((word & kClosedBit) != 0) return CompletionStatus::kShutdown;
    if (word >= config_.queue_capacity) return CompletionStatus::kShedQueueFull;
  } while (!admission_.compare_exchange_weak(word, word + 1, std::memory_order_seq_cst,
                                             std::memory_order_relaxed));
  return CompletionStatus::kDecided;
}

void DecisionEngine::enqueue(Job&& job) {
  // Admission already reserved room, so the position is claimed outright.
  // The slot it wraps onto was popped (the count bounds occupied slots),
  // but its worker may still be moving the job out: wait for the hand-back.
  const std::uint64_t pos = enqueue_pos_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[pos & slot_mask_];
  while (slot.sequence.load(std::memory_order_acquire) != pos) std::this_thread::yield();
  slot.job = std::move(job);
  slot.sequence.store(pos + 1, std::memory_order_release);
  wake_one();
}

void DecisionEngine::wake_one() {
  // Admit-then-check, paired with the worker's register-then-recheck in
  // park() (see the header comment): the seq_cst CAS in admit() and the
  // seq_cst reads of the mask here order the producer's side.
  for (std::size_t w = 0; w < idle_words_; ++w) {
    std::atomic<std::uint64_t>& bits = idle_[w].bits;
    std::uint64_t seen = bits.load(std::memory_order_seq_cst);
    while (seen != 0) {
      const std::uint64_t bit = seen & (~seen + 1);  // lowest set bit
      seen = bits.fetch_and(~bit, std::memory_order_seq_cst);
      if ((seen & bit) != 0) {  // claimed: this registration is ours to wake
        notify(w * 64 + static_cast<std::size_t>(std::countr_zero(bit)));
        return;
      }
    }
  }
}

void DecisionEngine::notify(std::size_t index) {
  std::atomic<std::uint32_t>& state = park_[index].state;
  if (state.exchange(kNotified, std::memory_order_acq_rel) == kWaiting) {
    futex_wake_one(state);
    metrics_.record_wake();
  }
}

void DecisionEngine::park(std::size_t index) {
  std::atomic<std::uint64_t>& bits = idle_[index / 64].bits;
  const std::uint64_t bit = std::uint64_t{1} << (index % 64);
  std::atomic<std::uint32_t>& state = park_[index].state;
  bits.fetch_or(bit, std::memory_order_seq_cst);
  if (admission_.load(std::memory_order_seq_cst) == 0) {
    std::uint32_t expected = kRunning;
    if (state.compare_exchange_strong(expected, kWaiting, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      metrics_.record_park(index);
      do {
        futex_wait(state, kWaiting);
      } while (state.load(std::memory_order_acquire) == kWaiting);
    }
    // kNotified now: this registration's claim, or a late one from an
    // earlier registration (which costs one extra pass, nothing more).
    state.store(kRunning, std::memory_order_relaxed);
  }
  // A producer that claimed the bit did so earlier in the mask's
  // modification order, so its published slot is visible after this.
  bits.fetch_and(~bit, std::memory_order_seq_cst);
}

bool DecisionEngine::give_back(Job& job) {
  std::uint64_t pos = return_push_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Slot& slot = returns_[pos & return_mask_];
    const std::uint64_t sequence = slot.sequence.load(std::memory_order_acquire);
    if (sequence == pos) {
      if (return_push_pos_.compare_exchange_weak(pos, pos + 1,
                                                 std::memory_order_relaxed)) {
        slot.job = std::move(job);
        slot.sequence.store(pos + 1, std::memory_order_release);
        return true;
      }
    } else if (sequence < pos) {
      return false;  // full: the slot still holds a job from a lap ago
    } else {
      pos = return_push_pos_.load(std::memory_order_relaxed);
    }
  }
}

void DecisionEngine::reclaim(std::size_t max) {
  std::uint64_t pos = return_pop_pos_.load(std::memory_order_relaxed);
  for (std::size_t freed = 0; freed < max;) {
    Slot& slot = returns_[pos & return_mask_];
    const std::uint64_t sequence = slot.sequence.load(std::memory_order_acquire);
    if (sequence == pos + 1) {
      if (return_pop_pos_.compare_exchange_weak(pos, pos + 1,
                                                std::memory_order_relaxed)) {
        Job returned = std::move(slot.job);
        slot.sequence.store(pos + return_mask_ + 1, std::memory_order_release);
        ++freed;
        ++pos;
      }  // returned (and what it owns) is destroyed here, on this thread
    } else if (sequence < pos + 1) {
      return;  // empty
    } else {
      pos = return_pop_pos_.load(std::memory_order_relaxed);
    }
  }
}

std::size_t DecisionEngine::take_batch(std::vector<Job>& out, std::size_t max) {
  std::uint64_t head = dequeue_pos_.load(std::memory_order_relaxed);
  std::size_t n = 0;
  do {  // count the published run at the head, then claim it whole
    n = 0;
    while (n < max && slots_[(head + n) & slot_mask_].sequence.load(
                          std::memory_order_acquire) == head + n + 1) {
      ++n;
    }
    if (n == 0) return 0;
  } while (
      !dequeue_pos_.compare_exchange_weak(head, head + n, std::memory_order_relaxed));
  for (std::uint64_t pos = head; pos < head + n; ++pos) {
    Slot& slot = slots_[pos & slot_mask_];
    out.push_back(std::move(slot.job));
    slot.sequence.store(pos + slot_mask_ + 1, std::memory_order_release);
  }
  admission_.fetch_sub(n, std::memory_order_release);
  return n;
}

void DecisionEngine::shutdown(Drain drain) {
  std::lock_guard shutdown_lock(shutdown_mutex_);
  admission_.fetch_or(kClosedBit, std::memory_order_seq_cst);
  for (std::size_t i = 0; i < config_.workers; ++i) notify(i);
  if (drain == Drain::kDiscard) {
    // Take what is queued, racing the workers: a job a worker wins is
    // decided, as one it popped just before the close would be.
    // Submitters admitted just before the close stay counted until their
    // job is popped.
    std::vector<Job> discarded;
    while (queue_depth() != 0) {
      discarded.clear();
      if (take_batch(discarded, slot_mask_ + 1) == 0) std::this_thread::yield();
      for (Job& job : discarded) {
        complete(job, shed_result(CompletionStatus::kShutdown), obs::Trace::kNoWorker);
      }
    }
  }
  if (!joined_) {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    joined_ = true;
  }
  reclaim(return_mask_ + 1);
}

bool DecisionEngine::pop_batch(std::size_t index, Worker& worker) {
  unsigned spins = 0;
  for (;;) {
    if (take_batch(worker.jobs, config_.max_batch) != 0) return true;
    const std::uint64_t word = admission_.load(std::memory_order_acquire);
    if (word == kClosedBit) return false;
    if (word == 0) {
      park(index);  // open and empty: register as idle and sleep
      spins = 0;
    } else if (++spins > kSpinsBeforeYield) {
      // Admitted but not poppable yet (mid-publish, or a peer has not
      // subtracted what it popped): retry; yield if it takes long.
      std::this_thread::yield();
    }
  }
}

void DecisionEngine::adopt_snapshot(std::size_t index, Worker& worker) {
  const std::uint64_t version = publisher_.current_version();
  const std::uint64_t held = worker.snapshot ? worker.snapshot->version() : 0;
  if (held == version) return;
  auto latest = publisher_.current();
  if (latest == nullptr) return;  // nothing published yet
  if (worker.snapshot && latest->version() == worker.snapshot->version()) return;
  worker.snapshot = std::move(latest);
  // A fresh replica per snapshot honours core::Pdp's one-thread contract
  // and rebinds it to the new immutable store; dropping the old
  // shared_ptr is the RCU grace edge for the replaced snapshot.
  worker.pdp = std::make_unique<core::Pdp>(worker.snapshot->store(), config_.pdp);
  if (config_.resolver != nullptr) worker.pdp->set_resolver(config_.resolver);
  if (config_.functions != nullptr) worker.pdp->set_functions(config_.functions);
  metrics_.record_adoption();
  // The L1's entries all carry the replaced version: free their slots
  // now rather than waiting for fills to displace them.
  if (worker.l1) worker.l1->evict_older_than(worker.snapshot->version());
  // Publish this worker's new floor, then sweep the shared cache up to
  // the *minimum* adopted version: entries under versions no worker
  // serves any more are unreachable and only waste slots.
  adopted_versions_[index].version.store(worker.snapshot->version(),
                                         std::memory_order_release);
  maybe_sweep_cache();
}

void DecisionEngine::maybe_sweep_cache() {
  if (cache_ == nullptr) return;
  std::uint64_t min_adopted = 0;
  for (std::size_t i = 0; i < config_.workers; ++i) {
    const std::uint64_t v = adopted_versions_[i].version.load(std::memory_order_acquire);
    if (v == 0) continue;  // never adopted: holds no cache entries
    if (min_adopted == 0 || v < min_adopted) min_adopted = v;
  }
  if (min_adopted == 0) return;
  // One adopting worker wins the CAS and runs the sweep; concurrent
  // adopters at the same or a lower watermark skip it. A worker lagging
  // on an old snapshot keeps the watermark down, so its L2 entries
  // survive until it moves on — the sweep is conservative by
  // construction.
  std::uint64_t prev = swept_below_.load(std::memory_order_relaxed);
  while (min_adopted > prev &&
         !swept_below_.compare_exchange_weak(prev, min_adopted,
                                             std::memory_order_acq_rel)) {
  }
  if (min_adopted > prev) {
    const std::size_t removed = cache_->evict_older_than(min_adopted);
    metrics_.record_version_evictions(removed);
  }
}

void DecisionEngine::complete(Job& job, EngineResult result, std::uint32_t worker) {
  if (result.status == CompletionStatus::kDecided) {
    metrics_.record_decided(worker, to_ns(SteadyClock::now() - job.enqueued));
  } else {
    metrics_.record_shed(result.status);
  }
  result.trace_id = job.trace_id;
  publish_trace(job, result, worker);
  // A throwing completion callback must never take down its caller — a
  // worker (and with it every queued request), shutdown()'s discard
  // loop, or a submitter mid-shed. catch (...) on purpose: the promise
  // path never throws, and arbitrary user callbacks can throw anything.
  const std::uint64_t trace_id = result.trace_id;
  try {
    job.callback(std::move(result));
  } catch (const std::exception& e) {
    common::log_error("runtime: completion callback threw",
                      {{"trace", trace_id}, {"what", e.what()}});
  } catch (...) {
    common::log_error("runtime: completion callback threw a non-exception value",
                      {{"trace", trace_id}});
  }
}

void DecisionEngine::publish_trace(Job& job, const EngineResult& result,
                                   std::uint32_t worker) {
  obs::DecisionTracer* tracer = config_.tracer;
  if (tracer == nullptr || job.trace_id == 0) return;
  const bool anomaly = result.status != CompletionStatus::kDecided ||
                       result.decision.is_indeterminate();
  obs::Trace* trace = job.trace.get();
  obs::Trace synthesized;
  if (trace == nullptr) {
    // Tail sampling: the admission wasn't head-sampled, but the outcome
    // is one an operator always wants to see. Reconstruct the trace from
    // what this completion site knows; allocation on the anomaly path is
    // acceptable (anomalies are the exception, not the throughput).
    if (!anomaly || !tracer->always_sample_anomalies()) return;
    synthesized.trace_id = job.trace_id;
    synthesized.started_ns = to_ns(job.enqueued.time_since_epoch());
    synthesized.record(obs::SpanKind::kAdmission, synthesized.started_ns);
    trace = &synthesized;
  }
  trace->anomaly = anomaly;
  trace->finished_ns = obs::monotonic_ns();
  trace->worker = worker;
  trace->snapshot_version = result.snapshot_version;
  trace->cache_level = result.cache_level;
  trace->decision = result.decision.type;
  constexpr obs::TraceOutcome kOutcomeOf[] = {  // indexed by CompletionStatus
      obs::TraceOutcome::kDecided, obs::TraceOutcome::kShedQueueFull,
      obs::TraceOutcome::kShedDeadline, obs::TraceOutcome::kShutdown};
  trace->outcome = kOutcomeOf[static_cast<std::size_t>(result.status)];
  if (obs::Span* s = trace->record(obs::SpanKind::kOutcome, trace->finished_ns)) {
    s->set_tag(to_string(result.status));
  }
  tracer->publish(*trace);
}

void DecisionEngine::process_batch(std::size_t index, Worker& worker) {
  const auto worker_id = static_cast<std::uint32_t>(index);
  metrics_.record_batch(index, worker.jobs.size());
  adopt_snapshot(index, worker);
  const std::uint64_t version = worker.snapshot ? worker.snapshot->version() : 0;
  // Cache keys are (request fingerprint, snapshot version): a
  // republication makes every old entry unreachable (and the
  // adoption-time sweep reclaims it) instead of serving decisions from
  // withdrawn policy — the "every decision is consistent with exactly
  // one snapshot" model extends to cache hits, with no invalidation
  // stampede on publish. The worker's private L1 is probed first (no
  // lock, no allocation), then the shared store; an L2 hit is promoted
  // into the L1 with the expiry it has in the L2.
  cache::WorkerDecisionCache* const l1 = worker.l1 ? &*worker.l1 : nullptr;

  worker.requests.clear();
  worker.pending.clear();
  worker.pending_keys.clear();
  const auto now = SteadyClock::now();
  const std::uint64_t now_ns = to_ns(now.time_since_epoch());
  for (std::size_t i = 0; i < worker.jobs.size(); ++i) {
    Job& job = worker.jobs[i];
    if (obs::Trace* trace = job.trace.get()) {  // null on the untraced hot path
      record_span(trace, obs::SpanKind::kQueueWait, now_ns,
                  now_ns >= trace->started_ns ? now_ns - trace->started_ns : 0);
      record_span(trace, obs::SpanKind::kBatch, now_ns, index, worker.jobs.size());
    }
    if (job.deadline < now) {
      complete(job, shed_result(CompletionStatus::kShedDeadline), worker_id);
      continue;
    }
    if (cache_ != nullptr && worker.snapshot != nullptr) {
      const cache::RequestKey key = cache::fingerprint(job.request);
      EngineResult r;
      std::uint64_t retries = 0;
      std::uint64_t expires_at = 0;
      if (l1 != nullptr && l1->lookup(key, version, r.decision)) {
        r.cache_level = 1;
        metrics_.record_l1_hit(index);
      } else if (cache_->lookup(key, version, r.decision, &retries, &expires_at)) {
        r.cache_level = 2;
        metrics_.record_l2_hit(index, retries);
        if (l1 != nullptr) l1->insert(key, version, r.decision, expires_at);
      }
      // Span a = level served (0 = miss), b = seqlock retries.
      record_span(job.trace.get(), obs::SpanKind::kCacheProbe, 0, r.cache_level, retries);
      if (r.cache_level != 0) {
        r.snapshot_version = version;
        r.cache_hit = true;
        complete(job, std::move(r), worker_id);
        continue;
      }
      metrics_.record_cache_miss(index, retries);
      worker.pending_keys.push_back(key);
    }
    worker.pending.push_back(i);
    worker.requests.push_back(std::move(job.request));
  }
  if (worker.pending.empty()) return;

  // Answers every pending request fail-safe (the PEP's deny bias turns
  // Indeterminate into deny) instead of crashing the service.
  const auto fail_pending = [&](const std::string& message) {
    for (const std::size_t job_index : worker.pending) {
      complete(worker.jobs[job_index],
               fail_safe(CompletionStatus::kDecided, message.c_str()), worker_id);
    }
  };
  // The requests go back to their jobs after evaluation, so each job
  // leaves the batch whole and can travel back through the return ring.
  const auto restore_requests = [&worker] {
    for (std::size_t i = 0; i < worker.pending.size(); ++i) {
      worker.jobs[worker.pending[i]].request = std::move(worker.requests[i]);
    }
  };
  if (worker.pdp == nullptr) {  // no snapshot was ever published
    restore_requests();
    fail_pending(kNoSnapshotMessage);
    return;
  }

  // Evaluation failures are data (core::Status), so a throw here is
  // exceptional (resource exhaustion, a resolver bug). Either way the
  // worker must survive — catch (...) because a shared resolver is user
  // code and can throw anything — and the batch is answered fail-safe.
  std::vector<core::PdpResult>& results = worker.results;
  std::string evaluation_error;
  try {
    worker.pdp->evaluate_batch(std::span<const core::RequestContext>(
                                   worker.requests.data(), worker.requests.size()),
                               &results);
  } catch (const std::exception& e) {
    evaluation_error = std::string("evaluation failed: ") + e.what();
  } catch (...) {
    evaluation_error = "evaluation failed: non-exception value thrown";
  }
  restore_requests();
  if (!evaluation_error.empty()) {
    common::log_error("runtime: batch evaluation threw",
                      {{"worker", static_cast<std::uint64_t>(index)},
                       {"batch", static_cast<std::uint64_t>(worker.pending.size())},
                       {"error", evaluation_error}});
    fail_pending(evaluation_error);
    return;
  }
  for (std::size_t i = 0; i < worker.pending.size(); ++i) {
    Job& evaluated = worker.jobs[worker.pending[i]];
    record_span(evaluated.trace.get(), obs::SpanKind::kEvaluate, 0, index,
                results[i].partitions_probed, results[i].compile.compiled_policies);
    EngineResult r;
    r.decision = std::move(results[i].decision);
    r.snapshot_version = version;
    // Only decisions that read nothing but the request and the snapshot
    // are cached: a resolver-supplied attribute (a PIP quota, another
    // domain's attribute) can change without a republication, and the
    // version-keyed store has no expiry to notice.
    if (cache_ != nullptr && (r.decision.is_permit() || r.decision.is_deny()) &&
        results[i].metrics.resolver_calls == 0) {
      // pending_keys[i] was filled alongside pending[i] (cache_ non-null
      // implies the lookup path ran): the fingerprint is computed once
      // per request, shared by the probe and both fills. A decision too
      // large for an L2 slot is too large for an L1 slot.
      if (cache_->insert(worker.pending_keys[i], version, r.decision) && l1 != nullptr) {
        l1->insert(worker.pending_keys[i], version, r.decision);
      }
    }
    complete(evaluated, std::move(r), worker_id);
  }
}

namespace {

/// Pins the calling thread to `core`. Linux-only; other platforms are a
/// graceful no-op returning false.
bool pin_current_thread(std::size_t core) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)core;
  return false;
#endif
}

}  // namespace

void DecisionEngine::worker_loop(std::size_t index) {
  // Placement first, allocation second: pinning before the Worker (Pdp
  // replica, L1, scratch) is constructed means first-touch lands every
  // worker-local page on the core the worker will run on. Pinning is
  // skipped wholesale when the host has fewer cores than workers —
  // oversubscribed workers must stay migratable or they serialise on
  // whatever cores the pins happen to share.
  if (config_.pin_workers) {
    const std::size_t cores = std::thread::hardware_concurrency();
    if (cores >= config_.workers && pin_current_thread(index % cores)) {
      pinned_workers_.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  Worker worker;
  if (cache_ != nullptr && config_.l1_capacity > 0) {
    worker.l1.emplace(config_.l1_capacity, cache_->ttl(), cache_->clock());
  }
  worker.jobs.reserve(config_.max_batch);
  while (pop_batch(index, worker)) {
    process_batch(index, worker);
    // Every callback of the batch has run: hand the jobs' storage back
    // to the submitting side; what does not fit is freed here.
    for (Job& job : worker.jobs) {
      if (!give_back(job)) break;
    }
    worker.jobs.clear();
  }
}

std::uint64_t DecisionEngine::register_metrics(obs::Registry& registry) const {
  return registry.add_collector([this](obs::MetricSink& sink) {
    const EngineMetrics::Snapshot s = metrics();
    sink.counter("mdac_engine_submitted_total", "Requests submitted to the engine.",
                 static_cast<double>(s.submitted));
    sink.counter("mdac_engine_decided_total",
                 "Requests completed with a decision (evaluated or cache-served).",
                 static_cast<double>(s.decided));
    sink.counter("mdac_engine_cache_hits_total",
                 "Decision-cache hits by level (l1 = worker-private, l2 = shared).",
                 static_cast<double>(s.l1_hits), {{"level", "l1"}});
    sink.counter("mdac_engine_cache_hits_total",
                 "Decision-cache hits by level (l1 = worker-private, l2 = shared).",
                 static_cast<double>(s.l2_hits), {{"level", "l2"}});
    sink.counter("mdac_engine_cache_misses_total",
                 "Decision-cache lookups answered by evaluation.",
                 static_cast<double>(s.cache_misses));
    sink.counter("mdac_engine_l2_read_retries_total",
                 "Seqlock re-reads on the shared cache level.",
                 static_cast<double>(s.l2_read_retries));
    sink.counter("mdac_engine_version_evictions_total",
                 "Cache entries reclaimed by the snapshot-version sweep.",
                 static_cast<double>(s.version_evictions));
    sink.counter("mdac_engine_sheds_total", "Requests shed by cause.",
                 static_cast<double>(s.shed_queue_full), {{"cause", "queue-full"}});
    sink.counter("mdac_engine_sheds_total", "Requests shed by cause.",
                 static_cast<double>(s.shed_deadline), {{"cause", "deadline"}});
    sink.counter("mdac_engine_sheds_total", "Requests shed by cause.",
                 static_cast<double>(s.shed_shutdown), {{"cause", "shutdown"}});
    sink.counter("mdac_engine_batches_total", "Micro-batches drained by workers.",
                 static_cast<double>(s.batches));
    sink.counter("mdac_engine_snapshot_adoptions_total",
                 "Snapshot adoptions across all workers.",
                 static_cast<double>(s.snapshot_adoptions));
    sink.counter("mdac_engine_parks_total",
                 "Times a worker went to sleep waiting for work.",
                 static_cast<double>(s.parks));
    sink.counter("mdac_engine_wakes_total",
                 "Wake-up syscalls issued to parked workers.",
                 static_cast<double>(s.wakes));
    sink.gauge("mdac_engine_queue_depth", "Instantaneous submission-queue depth.",
               static_cast<double>(s.queue_depth));
    sink.gauge("mdac_engine_queue_capacity", "Admission bound of the queue.",
               static_cast<double>(s.queue_capacity));
    for (std::size_t i = 0; i < s.worker_ops.size(); ++i) {
      sink.counter("mdac_engine_worker_ops_total", "Decisions completed per worker.",
                   static_cast<double>(s.worker_ops[i]),
                   {{"worker", std::to_string(i)}});
    }
    sink.histogram("mdac_engine_latency_ns",
                   "Completion latency (enqueue to callback), log2 ns buckets.",
                   s.latency);
  });
}

std::function<core::Decision(const core::RequestContext&)> engine_decision_source(
    DecisionEngine& engine) {
  return [&engine](const core::RequestContext& request) {
    std::future<EngineResult> f = engine.submit(request);
    return std::move(f.get().decision);
  };
}

}  // namespace mdac::runtime
