// Policy Administration Point (paper §2.2, component 3).
//
// A versioned repository with the lifecycle the paper's management
// challenge enumerates (§3.2: writing, reviewing, issuing, modifying,
// withdrawing, retrieving) and an append-only audit log carrying content
// hashes — the substrate for the compliance/audit story (ISO 27k, DPA).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analysis.hpp"
#include "analysis/finding.hpp"
#include "common/clock.hpp"
#include "core/policy.hpp"

namespace mdac::core {
class CompiledPolicyTree;
}  // namespace mdac::core

namespace mdac::obs {
class Registry;
}  // namespace mdac::obs

namespace mdac::pap {

enum class Lifecycle { kDraft, kIssued, kWithdrawn };

const char* to_string(Lifecycle s);

struct PolicyRecord {
  std::string policy_id;
  int version = 1;
  Lifecycle status = Lifecycle::kDraft;
  std::string document;      // wire (XML) form
  std::string author;
  common::TimePoint updated_at = 0;
};

struct AuditEntry {
  /// Monotone per-repository sequence number, starting at 1. Survives
  /// ring eviction: when the audit log is capacity-bound, gaps below the
  /// oldest retained entry identify exactly how many entries were
  /// dropped (the retained suffix itself stays gap-free).
  std::uint64_t sequence = 0;
  common::TimePoint at = 0;
  std::string actor;
  std::string operation;   // submit / issue / withdraw / replace
  std::string policy_id;
  int version = 0;
  std::string content_hash;  // SHA-256 of the document, hex
};

struct RepoOutcome {
  bool ok = true;
  std::string reason;

  static RepoOutcome success() { return {}; }
  static RepoOutcome failure(std::string why) { return {false, std::move(why)}; }
  explicit operator bool() const { return ok; }
};

/// Issue-time static-analysis policy (paper §3.1: conflicts are found
/// *before* deployment, on the trusted administrative path).
struct PapConfig {
  /// Run the mdac::analysis linter on every issue(): the candidate is
  /// analysed against the issued trees (an analysis::IncrementalAnalysis
  /// the repository keeps between issues, so the cost follows what the
  /// candidate touches, not the corpus size), and findings involving the
  /// candidate are audited.
  bool lint_on_issue = true;
  /// Refuse issuance outright when the lint report carries
  /// error-severity findings involving the candidate (cross-root
  /// modality conflicts, dangling references, type errors). The refusal
  /// is audited as "lint-refused" and leaves the repository (and its
  /// lint_report()) unchanged.
  bool lint_gate = false;
  /// Non-empty: the issue-time lint additionally checks the candidate's
  /// referenced attribute names against this domain's registered
  /// allowlist (vocabulary pass). Meant for manually registered
  /// vocabularies; leave empty when set_vocabulary_domain() is used —
  /// auto-extraction grows the allowlist from the policies themselves,
  /// so the pass could only ever warn about its own input.
  std::string lint_vocabulary_domain;
  /// Upper bound on retained audit entries. 0 = unbounded (the default,
  /// preserving append-only semantics for compliance deployments that
  /// archive externally). When bound, the log is a ring: the oldest
  /// entry is dropped to admit a new one, dropped_audit_entries() counts
  /// the evictions, and AuditEntry::sequence stays monotone so the drop
  /// is detectable rather than silent.
  std::size_t audit_capacity = 0;
};

class PolicyRepository {
 public:
  explicit PolicyRepository(const common::Clock& clock, PapConfig config = {})
      : clock_(clock), config_(std::move(config)) {}

  /// Parses and stores `document` as a draft. A document for an existing
  /// id becomes a new draft version. Malformed documents are rejected.
  RepoOutcome submit(const std::string& document, const std::string& author);

  /// Promotes the latest draft to issued (withdrawing any prior issued
  /// version of the same id). Issuing also *compiles* the node
  /// (core::CompiledPolicyTree — plain policies and whole PolicySet
  /// trees alike) on this trusted path: the artifact is attached by
  /// load_into(), so every PDP replica loading this repository shares
  /// one compiled program per node, and re-issuing a new version
  /// recompiles. Issuing a policy that issued PolicySets *reference*
  /// additionally recompiles those dependent artifacts (transitively)
  /// before this call returns — so a snapshot published right after an
  /// issue always carries artifacts whose compile-time diagnostics and
  /// stats reflect the new working set. (Decision correctness never
  /// waits for that recompilation: compiled references resolve through
  /// the live store per request — see core/compiled.hpp.) When a
  /// vocabulary domain is set (see set_vocabulary_domain), the attribute
  /// names the policy references are harvested and registered as that
  /// domain's allowlist first.
  RepoOutcome issue(const std::string& policy_id, const std::string& actor);

  /// Withdraws the issued version and drops its compiled artifact;
  /// dependent issued artifacts recompile, as on issue().
  RepoOutcome withdraw(const std::string& policy_id, const std::string& actor);

  /// Latest record (any status) / the issued record for an id.
  const PolicyRecord* latest(const std::string& policy_id) const;
  const PolicyRecord* issued(const std::string& policy_id) const;

  std::vector<const PolicyRecord*> all_issued() const;
  std::vector<std::string> policy_ids() const;

  /// Materialises every issued policy into a PDP's store (the PAP→PDP
  /// retrieval edge of Fig. 4), attaching each policy's compiled
  /// artifact so replicas share the issue-time compilation. Returns how
  /// many were loaded.
  std::size_t load_into(core::PolicyStore* store) const;

  /// The compile-on-issue artifact for `policy_id`'s issued version, or
  /// null (not issued, or its document failed to parse).
  std::shared_ptr<const core::CompiledPolicyTree> compiled(
      const std::string& policy_id) const;

  // --- attribute vocabulary (interner-boundary hardening) -------------
  //
  // A domain registers the attribute names its policies and peers use.
  // Registration runs on the trusted admin path and interns the names
  // into the process-global symbol table, so requests carrying a
  // registered vocabulary always take the interned fast path — even
  // after an abusive wire peer has filled the table (unregistered fresh
  // names then ride the per-request side table; see core/request.hpp).
  // The allowlist also lets a wire front-end (pep::PdpService) reject
  // requests naming attributes outside the domain's vocabulary.

  /// Registers (and interns) `names` for `domain`; appends to any
  /// existing allowlist and audit-logs the registration. Fails without
  /// partial registration if the symbol table cannot hold them all.
  RepoOutcome register_attribute_names(const std::string& domain,
                                       const std::vector<std::string>& names,
                                       const std::string& actor);

  /// The registered allowlist, or nullptr if `domain` never registered.
  const std::set<std::string, std::less<>>* attribute_allowlist(
      const std::string& domain) const;

  /// True if `domain` registered no allowlist (everything allowed) or
  /// `name` is on it.
  bool attribute_allowed(const std::string& domain, std::string_view name) const;

  /// Enables issue-time vocabulary auto-extraction: every issue()
  /// harvests the attribute names the policy references
  /// (core::referenced_attribute_names) and feeds them through
  /// register_attribute_names for `domain`, so the allowlist tracks the
  /// issued policy set without manual registration. Empty = disabled
  /// (the default). Domains wire their own name in (domain::Domain).
  void set_vocabulary_domain(std::string domain) {
    vocabulary_domain_ = std::move(domain);
  }
  const std::string& vocabulary_domain() const { return vocabulary_domain_; }

  const std::deque<AuditEntry>& audit_log() const { return audit_; }

  /// Audit entries evicted by the PapConfig::audit_capacity ring; always
  /// 0 when the log is unbounded.
  std::uint64_t dropped_audit_entries() const { return dropped_audit_entries_; }

  /// Registers audit-log size/drop metrics with a metrics registry
  /// (mdac_pap_*); returns the collector id. The repository must outlive
  /// the registry or be unregistered first.
  std::uint64_t register_metrics(obs::Registry& registry) const;

  /// Bumped on every successful mutation — remote caches key off this.
  std::uint64_t revision() const { return revision_; }

  /// The analyser's report over the issued trees as they stand: every
  /// issued tree with its compiled artifact, references resolving to
  /// issued ids (null until the first successful issue() with
  /// lint_on_issue). A lint-gate refusal leaves it unchanged, and a
  /// withdrawn tree's findings leave with it. Built from the maintained
  /// index when first read after a change, then shared until the next.
  /// Snapshot publication (runtime::SnapshotPublisher::publish_from)
  /// attaches it to the published snapshot so PDP replicas can surface
  /// analyser findings alongside the policy state they execute.
  std::shared_ptr<const analysis::AnalysisReport> lint_report() const;

  const PapConfig& config() const { return config_; }

 private:
  void record_audit(const std::string& actor, const std::string& operation,
                    const std::string& policy_id, int version,
                    const std::string& document);
  /// Compiles `node` (the parsed issued document of `policy_id`) and
  /// replaces its artifact and dependency edges. `intern_names` = false
  /// is the symbol-table-exhausted degradation (see issue()); it is
  /// remembered per id so dependent *re*compiles stay resolve-only and
  /// cannot burn the symbol budget the atomic registration refusal
  /// preserved.
  void compile_node(const std::string& policy_id, const core::PolicyTreeNode& node,
                    bool intern_names);
  /// Parses `policy_id`'s issued document and compiles it via
  /// compile_node, reusing the id's remembered intern_names mode;
  /// clears artifact and edges if nothing is issued or parsing fails.
  void compile_issued(const std::string& policy_id);
  /// Recompiles every issued node whose tree references `changed_id`,
  /// transitively (a set referencing a set referencing `changed_id`
  /// recompiles too). Audited per recompiled node.
  void recompile_dependents(const std::string& changed_id, const std::string& actor);
  /// Stages `node` (the candidate for issuance as `policy_id`, at
  /// `version`) against the issued trees' lint index into `*staged` and
  /// counts the findings that name it. Returns failure when the gate
  /// refuses; audits findings either way. Changes no lint state: issue()
  /// commits the stage only once the issue goes through.
  RepoOutcome lint_candidate(const std::string& policy_id, int version,
                             const core::PolicyTreeNode& node, const std::string& actor,
                             std::optional<analysis::IncrementalAnalysis::Staged>* staged);
  /// The analyser options the lint index runs with: references resolve
  /// to issued ids, known ids with nothing issued count as withdrawn.
  analysis::AnalyzerOptions lint_options() const;
  /// Drops `policy_id`'s compiled artifact and dependency edges, and its
  /// tree from the lint index: only compiled trees are linted.
  void drop_artifact(const std::string& policy_id);

  const common::Clock& clock_;
  PapConfig config_;
  // The issued trees' analyser state (maintained while lint_on_issue).
  analysis::IncrementalAnalysis lint_index_;
  bool linted_ = false;  // a lint has been committed: lint_report() is non-null
  mutable std::mutex lint_report_mutex_;
  // Built on first read after a change; reset by every audited change.
  mutable std::shared_ptr<const analysis::AnalysisReport> lint_report_;
  // id -> all versions, ascending.
  std::map<std::string, std::vector<PolicyRecord>> records_;
  // id -> compile-on-issue artifact for the currently issued version.
  std::map<std::string, std::shared_ptr<const core::CompiledPolicyTree>> compiled_;
  // id -> policy ids its issued tree references (dependency edges for
  // recompile_dependents).
  std::map<std::string, std::set<std::string>> references_;
  // ids whose issue-time registration failed (symbol table exhausted):
  // their compiles — including dependent recompiles — stay resolve-only.
  std::set<std::string> resolve_only_;
  // domain -> registered attribute-name allowlist.
  std::map<std::string, std::set<std::string, std::less<>>, std::less<>> allowlists_;
  std::string vocabulary_domain_;
  std::deque<AuditEntry> audit_;
  std::uint64_t audit_sequence_ = 0;
  std::uint64_t dropped_audit_entries_ = 0;
  std::uint64_t revision_ = 0;
};

}  // namespace mdac::pap
