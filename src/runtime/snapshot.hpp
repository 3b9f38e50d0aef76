// Snapshot-published policy state — the read side of the mdac::runtime
// decision-engine (paper §3: one decision service, many domains' PEPs).
//
// The core thread-safety contract (core/pdp.hpp) is per-thread: a Pdp
// replica must never observe its PolicyStore mutating. The single-
// threaded reproduction satisfied that trivially; a multi-threaded
// runtime cannot, so policy state crosses the PAP→worker boundary as an
// immutable *snapshot*:
//
//   * `PolicySnapshot` — a frozen PolicyStore (with its compile-on-issue
//     artifact attachments — plain policies and compiled PolicySet trees
//     alike) plus a monotonically increasing version. Nothing mutates a
//     store after it is wrapped in a snapshot; every worker-side Pdp
//     replica bound to it therefore only ever reads, which the store
//     supports concurrently. Compiled PolicyReference nodes resolve
//     against this same frozen store, so a decision's whole reference
//     closure comes from one snapshot. A snapshot carries only what a
//     replica executes: the issue-time analyser report stays with the
//     repository (pap::PolicyRepository::lint_report()).
//   * `SnapshotPublisher` — the single writer-side cell. `publish()`
//     atomically replaces the current snapshot; readers take a
//     shared_ptr copy at batch boundaries (runtime::DecisionEngine) and
//     keep evaluating against their copy until the next boundary. The
//     shared_ptr *is* the RCU grace period: the old snapshot stays alive
//     exactly as long as some worker still holds it, so a PAP update can
//     never destroy a policy node an in-flight evaluation references —
//     the UB the old contract warned about is structurally gone. The
//     engine's workers flush their caches at adoption; a cache outside
//     the engine is bounded by its TTL, or its owner calls
//     DecisionCache::evict_older_than(version) after it publishes.
//   * `RepositoryPublisher` — the PAP edge: wraps a pap::PolicyRepository
//     so that every successful issue/update/withdraw republishes the
//     issued policy set as a fresh snapshot (compiled artifacts are
//     shared across snapshots via the store attachments, so republishing
//     does not recompile unchanged policies).
//
// Workers adopting "the latest snapshot at a batch boundary" is the
// consistency model: a decision is always computed against exactly one
// published snapshot — never a half-updated store — which is what the
// churn test (tests/runtime_churn_test.cpp) pins down.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "core/policy.hpp"
#include "pap/repository.hpp"

namespace mdac::runtime {

/// An immutable, versioned policy working set. The wrapped store must
/// not be mutated after construction (the constructor takes ownership of
/// the caller's last non-const reference by convention); every accessor
/// is then safe from any number of threads.
class PolicySnapshot {
 public:
  PolicySnapshot(std::uint64_t version, std::shared_ptr<core::PolicyStore> store)
      : version_(version), store_(std::move(store)) {}

  /// Monotonic publication number (1 = first snapshot ever published).
  std::uint64_t version() const { return version_; }

  /// The frozen store. Returned as the shared_ptr core::Pdp wants;
  /// holders must honour the no-mutation convention.
  const std::shared_ptr<core::PolicyStore>& store() const { return store_; }

 private:
  std::uint64_t version_;
  std::shared_ptr<core::PolicyStore> store_;
};

/// The single cell through which policy state reaches the runtime.
/// Publishing and reading are both thread-safe; readers get an immutable
/// shared_ptr and publication never blocks on readers (RCU-by-shared_ptr:
/// replaced snapshots die when their last reader drops them).
class SnapshotPublisher {
 public:
  /// Wraps `store` in the next-versioned snapshot and makes it current.
  /// The caller must not mutate `store` afterwards. Returns the snapshot.
  std::shared_ptr<const PolicySnapshot> publish(std::shared_ptr<core::PolicyStore> store);

  /// Materialises `repository`'s issued policy set (with compiled
  /// artifacts — the repository has already recompiled reference
  /// dependents by the time any mutation returns, so the attachments are
  /// mutually consistent) into a fresh store and publishes it. Must be
  /// called from the thread that owns the repository (PolicyRepository
  /// itself is single-threaded).
  std::shared_ptr<const PolicySnapshot> publish_from(
      const pap::PolicyRepository& repository);

  /// The current snapshot, or null before the first publish().
  std::shared_ptr<const PolicySnapshot> current() const;

  /// Version of the current snapshot (0 before the first publish), which
  /// is also the number of publications. Lock free — the worker
  /// batch-boundary staleness probe reads only this.
  std::uint64_t current_version() const {
    return version_.load(std::memory_order_acquire);
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const PolicySnapshot> current_;
  std::atomic<std::uint64_t> version_{0};
};

/// PAP-side administrative facade: a PolicyRepository whose successful
/// mutations republish the issued set through a SnapshotPublisher, so
/// workers converge on the new policy state at their next batch
/// boundary. Updating = submit(new version) + issue(), exactly the
/// repository's own lifecycle. Not thread-safe (the repository is not);
/// run it on the one PAP thread — concurrency is the *publisher's* job.
class RepositoryPublisher {
 public:
  RepositoryPublisher(pap::PolicyRepository& repository, SnapshotPublisher& publisher)
      : repository_(repository), publisher_(publisher) {}

  /// Drafts never affect the issued set: no republish.
  pap::RepoOutcome submit(const std::string& document, const std::string& author) {
    return repository_.submit(document, author);
  }

  pap::RepoOutcome issue(const std::string& policy_id, const std::string& actor);
  pap::RepoOutcome withdraw(const std::string& policy_id, const std::string& actor);

  pap::PolicyRepository& repository() { return repository_; }
  SnapshotPublisher& publisher() { return publisher_; }

 private:
  pap::PolicyRepository& repository_;
  SnapshotPublisher& publisher_;
};

}  // namespace mdac::runtime
