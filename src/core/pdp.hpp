// The Policy Decision Point (paper §2.2, component 2).
//
// Deterministic and self-contained: given a request, a policy store, a
// function registry and an optional attribute resolver, it produces one
// XACML decision. Everything distributed — transport, replication,
// caching, discovery — wraps *around* this class (mdac::net,
// mdac::dependability), which is the modularity requirement of §3.
//
// The optional target index answers the paper's scalability challenge:
// with thousands of policies a linear target scan dominates decision
// latency, so top-level policies with simple equality targets are indexed
// by (category, interned attribute symbol) with a hash table from literal
// value to admitted positions, and only candidates are evaluated.
// Candidate selection runs against reusable per-PDP scratch buffers
// (epoch-stamped selection marks, candidate and Combinable vectors), so
// steady-state evaluation performs no heap allocation of its own; the
// bench harness (bench/bench_main.cpp) tracks allocs/op per PR.
//
// The index is additionally *partitioned by administrative domain* —
// the paper's multi-domain decomposition applied to the PDP's own state.
// A top-level policy whose target carries a necessary conjunct on a
// domain attribute (subject-domain / resource-domain, string equality)
// belongs to the partitions for the admitted domain values; every other
// policy sits in the shared/global partition. A request is routed to the
// global partition plus only the partitions of the domains it names, so
// in an N-domain federation a single-domain request never touches the
// other N-1 domains' index state (PdpResult::partitions_probed and the
// cumulative partition_probes() counter make this observable). Pruning
// stays sound because the domain conjunct is necessary: a target that
// requires subject-domain == "a" cannot match a request that never says
// "a". Candidate sets from multiple named partitions combine through the
// same epoch-stamped scratch, in store order, so decisions are identical
// to the flat index — only the probing is domain-local. This is the
// structural step toward NUMA-sharding and per-domain replication: each
// partition is already an independent (category, symbol)-keyed index.
//
// Index soundness assumes target attributes are request-supplied (the
// PEP-disclosure model): an AttributeResolver that conjures a target
// attribute the request omitted could make a pruned policy match. That
// contract predates partitioning and applies to both layers equally.
//
// Thread-safety contract: a Pdp instance is NOT thread-safe. The
// evaluate* methods mutate the target index, the scratch buffers and the
// evaluation counter without synchronisation. Run one Pdp per thread —
// that is exactly what mdac::runtime::DecisionEngine does (one private
// replica per worker, bound to an immutable runtime::PolicySnapshot, so
// concurrent PAP updates become snapshot republications instead of
// racing store mutations); use it instead of sharing a Pdp. Debug builds
// (!NDEBUG) enforce the contract: the first evaluating thread becomes
// the owner and any later cross-thread evaluate* asserts, so a violation
// fails loudly instead of silently corrupting scratch state (a
// legitimate serialised hand-off between threads must call
// rebind_owner_thread() in between). The shared PolicyStore is only
// read, and its revision is re-checked before every evaluation; mutating
// the store *during* an evaluation is not supported from any thread —
// including from an AttributeResolver invoked by that evaluation:
// replacing a policy destroys the node the in-flight evaluation still
// references. A resolver may re-enter evaluate() (handled, see
// in_evaluation_), but must treat the store as read-only.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/interner.hpp"
#include "common/strings.hpp"
#include "core/combining.hpp"
#include "core/compiled.hpp"
#include "core/decision.hpp"
#include "core/evaluation.hpp"
#include "core/policy.hpp"

namespace mdac::core {

/// A necessary simple-equality target conjunct (defined in pdp.cpp).
struct TargetConstraint;

struct PdpConfig {
  /// Algorithm combining the store's top-level policies.
  std::string root_combining = "deny-overrides";
  bool use_target_index = true;
  /// Partition the target index by administrative domain (see the header
  /// comment). Off = one flat global partition, the pre-partitioning
  /// behaviour; decisions are identical either way.
  bool partition_by_domain = true;
  /// Execute compiled policy programs (core/compiled.hpp) for every
  /// top-level node — plain policies and whole PolicySet trees,
  /// references included: store-attached artifacts (PAP
  /// compile-on-issue) are reused, anything else is compiled once at
  /// index-rebuild time. Off = the interpreted AST path, kept alive for
  /// differential testing (tests/compiled_differential_test.cpp);
  /// decisions are identical either way.
  bool use_compiled = true;
};

struct PdpResult {
  Decision decision;
  EvaluationMetrics metrics;
  /// Number of top-level policies the index ruled out before evaluation.
  std::size_t candidates_skipped = 0;
  /// Number of distinct per-domain partitions this request was routed to
  /// (excludes the always-probed global partition).
  std::size_t partitions_probed = 0;
  /// Aggregate compile stats of the working set this request ran
  /// against; all-zero when use_compiled is off (so an all-zero struct
  /// reliably means "interpreted mode").
  CompileStats compile;
};

class Pdp {
 public:
  explicit Pdp(std::shared_ptr<PolicyStore> store, PdpConfig config = {});

  /// Optional PIP hook; not owned, must outlive the PDP.
  void set_resolver(AttributeResolver* resolver) { resolver_ = resolver; }

  /// Replaces the function registry (not owned; default: standard()).
  void set_functions(const FunctionRegistry* functions) { functions_ = functions; }

  const PolicyStore& store() const { return *store_; }
  PolicyStore& mutable_store() { return *store_; }
  std::shared_ptr<PolicyStore> shared_store() const { return store_; }

  Decision evaluate(const RequestContext& request);
  PdpResult evaluate_with_metrics(const RequestContext& request);

  /// Evaluates many requests in order, checking index staleness once and
  /// reusing the scratch buffers across the whole batch. The store must
  /// not be mutated while the batch runs.
  std::vector<PdpResult> evaluate_batch(std::span<const RequestContext> requests);
  /// As above, into `*results` (cleared first, then one result per
  /// request): a caller that keeps the vector across batches evaluates
  /// without allocating for the results once its capacity suffices.
  void evaluate_batch(std::span<const RequestContext> requests,
                      std::vector<PdpResult>* results);

  std::uint64_t evaluation_count() const { return evaluation_count_; }
  const PdpConfig& config() const { return config_; }

  /// Releases the debug-build thread-ownership claim (see the contract
  /// in the header comment): the next evaluating thread becomes the new
  /// owner. Only for *serialised* hand-offs — the caller must guarantee
  /// no evaluation is concurrently in flight. No-op in NDEBUG builds.
  void rebind_owner_thread() {
    owner_thread_.store(std::thread::id{}, std::memory_order_relaxed);
  }

  /// Number of per-domain index partitions built from the current store
  /// (0 when partitioning is off or no policy names a domain).
  std::size_t partition_count() const { return partitions_.size(); }
  /// Cumulative count of per-domain partition probes across evaluations
  /// (tests assert requests only touch the partitions they name).
  std::uint64_t partition_probes() const { return partition_probes_; }

 private:
  struct IndexEntry {
    Category category;
    common::Symbol attribute_id;
    // literal string value -> positions (into store order) it admits;
    // heterogeneous lookup so probing with a request value never copies.
    std::unordered_map<std::string, std::vector<std::uint32_t>, common::StringHash,
                       std::equal_to<>>
        by_value;
  };

  /// One administrative domain's slice of the target index (the global
  /// partition is just the slice for domain-less policies). `residual`
  /// holds partition members with no further indexable conjunct — they
  /// are candidates whenever the partition is probed at all.
  struct Partition {
    std::vector<IndexEntry> entries;
    std::vector<std::uint32_t> residual;
    /// Dedup stamp: a request naming one domain twice (e.g. equal
    /// subject- and resource-domain) probes its partition once.
    std::uint64_t probe_epoch = 0;
  };

  /// Cheap inline staleness probe; the rebuild itself is out of line so
  /// the common already-fresh case costs two loads and a compare. Never
  /// rebuilds under an outer evaluation (re-entrant resolver frame): the
  /// live scratch references the current nodes, so a store change seen
  /// mid-evaluation takes effect on the next top-level evaluation.
  void rebuild_index_if_stale() {
    if (in_evaluation_) return;
    if (indexed_revision_ != store_->revision()) rebuild_index();
  }
  void rebuild_index();

  /// Fills `children_` (scratch) with pointers to the Combinables of the
  /// nodes whose targets might match; everything else is provably
  /// non-matching via the index (see soundness notes in the header
  /// comment).
  void select_candidates(const RequestContext& request, std::size_t* skipped,
                         std::size_t* partitions_probed);
  /// Stamps one partition's candidates for the current epoch.
  void probe_partition(const Partition& partition, const RequestContext& request);
  /// Places node `position` into a partition, under the given indexable
  /// conjunct, or as residual when `constraint` is null (or the symbol
  /// table is exhausted).
  static void place_in_partition(Partition& partition, std::uint32_t position,
                                 const TargetConstraint* constraint);

  PdpResult evaluate_prepared(const RequestContext& request);

  std::shared_ptr<PolicyStore> store_;
  PdpConfig config_;
  AttributeResolver* resolver_ = nullptr;
  const FunctionRegistry* functions_;
  const CombiningAlgorithm* root_algorithm_ = nullptr;

  // Domain-partitioned target index over top-level nodes (see header
  // comment). `global_` always participates; `partitions_` only for the
  // domains a request names.
  Partition global_;
  std::unordered_map<std::string, Partition, common::StringHash, std::equal_to<>>
      partitions_;
  std::uint64_t indexed_revision_ = static_cast<std::uint64_t>(-1);
  std::vector<const PolicyTreeNode*> ordered_nodes_;
  std::vector<Combinable> combinables_;  // parallel to ordered_nodes_
  /// Locally compiled artifacts carried across index rebuilds, keyed by
  /// id -> (store node revision, artifact): a store mutation recompiles
  /// only the nodes it replaced, not the whole working set.
  std::unordered_map<
      std::string,
      std::pair<std::uint64_t, std::shared_ptr<const CompiledPolicyTree>>>
      local_compile_cache_;
  CompileStats compile_stats_;
  /// Persistent condition-program buffers, wired into every evaluation
  /// context so compiled conditions run without per-request allocation.
  CompiledEvalScratch compiled_scratch_;

  // Reusable selection scratch: selected_stamp_[i] == select_epoch_ marks
  // node i selected for the current request; bumping the epoch clears the
  // whole bitmap in O(1). selected_ lists each node the first time it is
  // stamped, so selection costs O(candidates), not O(nodes). children_
  // holds pointers into combinables_, so selection copies nothing.
  std::vector<std::uint64_t> selected_stamp_;
  std::uint64_t select_epoch_ = 0;
  std::vector<std::uint32_t> selected_;
  std::vector<const Combinable*> children_;
  /// True while combine() runs over children_. An AttributeResolver may
  /// re-enter this Pdp (resolver -> evaluate); the nested frame must not
  /// clobber the live scratch, so it takes a local-buffer fallback.
  bool in_evaluation_ = false;

  std::uint64_t evaluation_count_ = 0;
  std::uint64_t partition_probes_ = 0;

  /// Debug-build owner-thread check: claims this Pdp for the first
  /// evaluating thread, asserts on cross-thread use. Compiles to nothing
  /// under NDEBUG (the contract still holds — it just isn't checked).
  void debug_check_owner_thread() {
#ifndef NDEBUG
    // compare_exchange keeps the claim itself race-free, so the check
    // reports the contract violation instead of being part of one.
    std::thread::id unowned{};
    if (!owner_thread_.compare_exchange_strong(unowned, std::this_thread::get_id(),
                                               std::memory_order_relaxed) &&
        unowned != std::this_thread::get_id()) {
      assert(false &&
             "core::Pdp evaluated from a second thread: a Pdp instance is "
             "single-threaded (use one replica per thread - see "
             "mdac::runtime::DecisionEngine - or rebind_owner_thread() for a "
             "serialised hand-off)");
    }
#endif
  }
  /// Atomic so the *check itself* is race-free under TSan even while it
  /// is busy reporting a contract violation. Present in ALL build modes
  /// — only the check is NDEBUG-conditional — so the class layout never
  /// depends on NDEBUG (mixing debug and release TUs around one Pdp
  /// must not corrupt memory, which is the failure the check exists to
  /// prevent).
  std::atomic<std::thread::id> owner_thread_{};
};

}  // namespace mdac::core
