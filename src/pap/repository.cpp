#include "pap/repository.hpp"

#include <stdexcept>

#include "analysis/analysis.hpp"
#include "common/interner.hpp"
#include "core/compiled.hpp"
#include "core/serialization.hpp"
#include "crypto/sha256.hpp"
#include "obs/registry.hpp"

namespace mdac::pap {

const char* to_string(Lifecycle s) {
  switch (s) {
    case Lifecycle::kDraft: return "draft";
    case Lifecycle::kIssued: return "issued";
    case Lifecycle::kWithdrawn: return "withdrawn";
  }
  return "?";
}

void PolicyRepository::record_audit(const std::string& actor,
                                    const std::string& operation,
                                    const std::string& policy_id, int version,
                                    const std::string& document) {
  AuditEntry entry;
  entry.sequence = ++audit_sequence_;
  entry.at = clock_.now();
  entry.actor = actor;
  entry.operation = operation;
  entry.policy_id = policy_id;
  entry.version = version;
  entry.content_hash = crypto::digest_hex(crypto::Sha256::hash(document));
  audit_.push_back(std::move(entry));
  {
    // Every change is audited, so this is where a built report goes stale.
    std::lock_guard lock(lint_report_mutex_);
    lint_report_.reset();
  }
  if (config_.audit_capacity != 0 && audit_.size() > config_.audit_capacity) {
    // Ring semantics: evict oldest, never refuse the new entry — recent
    // history is what incident response reads first. The eviction is
    // accounted (dropped_audit_entries_) and detectable via the sequence
    // gap below the oldest retained entry.
    audit_.pop_front();
    ++dropped_audit_entries_;
  }
  ++revision_;
}

std::uint64_t PolicyRepository::register_metrics(obs::Registry& registry) const {
  const PolicyRepository* repo = this;
  return registry.add_collector([repo](obs::MetricSink& sink) {
    sink.gauge("mdac_pap_audit_entries", "Audit entries currently retained",
               static_cast<double>(repo->audit_.size()));
    sink.counter("mdac_pap_audit_entries_total",
                 "Audit entries ever recorded (monotone sequence high-water)",
                 static_cast<double>(repo->audit_sequence_));
    sink.counter("mdac_pap_dropped_audit_entries_total",
                 "Audit entries evicted by the audit_capacity ring",
                 static_cast<double>(repo->dropped_audit_entries_));
    sink.gauge("mdac_pap_revision", "Repository revision counter",
               static_cast<double>(repo->revision_));
  });
}

RepoOutcome PolicyRepository::submit(const std::string& document,
                                     const std::string& author) {
  std::string policy_id;
  try {
    const auto node = core::node_from_string(document);
    policy_id = node->id();
  } catch (const std::exception& e) {
    return RepoOutcome::failure(std::string("invalid policy document: ") + e.what());
  }

  auto& versions = records_[policy_id];
  const bool new_id = versions.empty();
  PolicyRecord record;
  record.policy_id = policy_id;
  record.version = versions.empty() ? 1 : versions.back().version + 1;
  record.status = Lifecycle::kDraft;
  record.document = document;
  record.author = author;
  record.updated_at = clock_.now();
  versions.push_back(std::move(record));

  record_audit(author, "submit", policy_id, versions.back().version, document);
  // A reference to an id the repository did not know dangled; now the id
  // is known with nothing issued, it reads as withdrawn.
  if (new_id && config_.lint_on_issue) {
    lint_index_.refresh_references(policy_id, lint_options());
  }
  return RepoOutcome::success();
}

analysis::AnalyzerOptions PolicyRepository::lint_options() const {
  analysis::AnalyzerOptions options;
  options.resolves = [this](const std::string& id) { return issued(id) != nullptr; };
  options.withdrawn = [this](const std::string& id) {
    return records_.find(id) != records_.end() && issued(id) == nullptr;
  };
  if (!config_.lint_vocabulary_domain.empty()) {
    options.vocabulary = attribute_allowlist(config_.lint_vocabulary_domain);
  }
  return options;
}

RepoOutcome PolicyRepository::lint_candidate(
    const std::string& policy_id, int version, const core::PolicyTreeNode& node,
    const std::string& actor, std::optional<analysis::IncrementalAnalysis::Staged>* staged) {
  // The candidate against the working set it would join: its own
  // findings, its conflicts with the issued trees' atoms in its bucket of
  // the index, and its references. Cross-root conflicts against issued
  // trees are exactly the paper's pre-deployment check.
  staged->emplace(lint_index_.stage(node, lint_options()));
  const std::size_t errors = (*staged)->error_count();
  const std::size_t warnings = (*staged)->warning_count();
  const std::size_t infos = (*staged)->info_count();
  const std::string summary = std::to_string(errors) + " error(s), " +
                              std::to_string(warnings) + " warning(s), " +
                              std::to_string(infos) + " info(s)";
  if (config_.lint_gate && errors > 0) {
    record_audit(actor, "lint-refused", policy_id, version, summary);
    return RepoOutcome::failure("lint gate: " + summary + " for " + policy_id);
  }
  // Audit the lint only when it found something about this candidate:
  // the common clean-issue path stays one audit entry per operation.
  if (errors + warnings + infos > 0) {
    record_audit(actor, "lint", policy_id, version, summary);
  }
  return RepoOutcome::success();
}

std::shared_ptr<const analysis::AnalysisReport> PolicyRepository::lint_report() const {
  if (!linted_) return nullptr;
  std::lock_guard lock(lint_report_mutex_);
  if (lint_report_ == nullptr) {
    lint_report_ = std::make_shared<const analysis::AnalysisReport>(
        lint_index_.report(lint_options()));
  }
  return lint_report_;
}

RepoOutcome PolicyRepository::issue(const std::string& policy_id,
                                    const std::string& actor) {
  const auto it = records_.find(policy_id);
  if (it == records_.end()) return RepoOutcome::failure("unknown policy " + policy_id);
  auto& versions = it->second;
  if (versions.back().status != Lifecycle::kDraft) {
    return RepoOutcome::failure("latest version of " + policy_id + " is not a draft");
  }

  // Parse and lint *before* any lifecycle mutation: a gate refusal must
  // leave the repository exactly as it was.
  core::PolicyNodePtr node;
  try {
    node = core::node_from_string(versions.back().document);
  } catch (const std::exception&) {
    // Unparseable documents cannot pass submit(); guard regardless — a
    // broken record must not block issuing, only its compilation.
    node = nullptr;
  }
  std::optional<analysis::IncrementalAnalysis::Staged> staged;
  if (node != nullptr && config_.lint_on_issue) {
    const RepoOutcome linted =
        lint_candidate(policy_id, versions.back().version, *node, actor, &staged);
    if (!linted) return linted;
  }

  for (PolicyRecord& r : versions) {
    if (r.status == Lifecycle::kIssued) r.status = Lifecycle::kWithdrawn;
  }
  versions.back().status = Lifecycle::kIssued;
  versions.back().updated_at = clock_.now();
  record_audit(actor, "issue", policy_id, versions.back().version,
               versions.back().document);
  // The issue goes through: the staged candidate replaces the previous
  // version in the lint index (its artifact follows in compile_node).
  if (staged) {
    lint_index_.commit(std::move(*staged), lint_options());
    linted_ = true;
  }

  // Compile-on-issue (and recompile-on-update: a re-issued id replaces
  // its artifact). This is the trusted administrative path, so the
  // compiler may intern the policy's attribute names; with a vocabulary
  // domain configured, the names any issued node references (policy or
  // policy set, walked recursively) are additionally registered (and
  // audited) as the domain's allowlist before compilation, keeping the
  // wire-request gate in sync with the issued policy set.
  if (node != nullptr) {
    bool intern_names = true;
    if (!vocabulary_domain_.empty()) {
      auto names = core::referenced_attribute_names(*node);
      // The request envelope is part of every domain's vocabulary by
      // construction (RequestContext::make always sends subject-id /
      // resource-id / action-id, and domain routing reads the domain
      // attributes): without these, the first auto-registration would
      // flip a previously open PEP name filter to closed and reject
      // every wire request over names no policy happens to mention.
      for (const char* envelope :
           {core::attrs::kSubjectId, core::attrs::kSubjectDomain,
            core::attrs::kResourceId, core::attrs::kResourceDomain,
            core::attrs::kActionId}) {
        names.push_back(envelope);
      }
      const RepoOutcome registered =
          register_attribute_names(vocabulary_domain_, names, actor);
      if (!registered) {
        // Symbol table exhausted: the issue still succeeds (policy
        // administration must not wedge on a full symbol table, and the
        // policy evaluates through string-lookup fallbacks), but a PEP
        // gating on this allowlist will reject the unregistered names —
        // make that visible in the audit trail instead of silent. The
        // compile below must then resolve-only: registration refused
        // *atomically* to preserve the remaining symbol budget, and a
        // name-by-name interning compile would burn it anyway.
        record_audit(actor, "register-attributes-failed", vocabulary_domain_,
                     static_cast<int>(names.size()), registered.reason);
        intern_names = false;
      }
    }
    compile_node(policy_id, *node, intern_names);
  } else {
    drop_artifact(policy_id);
    resolve_only_.erase(policy_id);
  }
  // Issued PolicySets referencing this id carry compile-time diagnostics
  // and stats about it: refresh them in the same administrative step, so
  // the next snapshot publication ships consistent artifacts.
  recompile_dependents(policy_id, actor);
  return RepoOutcome::success();
}

void PolicyRepository::compile_node(const std::string& policy_id,
                                    const core::PolicyTreeNode& node,
                                    bool intern_names) {
  core::CompileOptions options;
  options.intern_names = intern_names;
  options.reference_resolves = [this](const std::string& id) {
    return issued(id) != nullptr;
  };
  compiled_[policy_id] = core::CompiledPolicyTree::compile(node, options);
  if (config_.lint_on_issue) lint_index_.set_compiled(policy_id, compiled_[policy_id]);
  const auto refs = core::referenced_policy_ids(node);
  references_[policy_id] = std::set<std::string>(refs.begin(), refs.end());
  if (intern_names) {
    resolve_only_.erase(policy_id);
  } else {
    resolve_only_.insert(policy_id);
  }
}

void PolicyRepository::compile_issued(const std::string& policy_id) {
  const PolicyRecord* record = issued(policy_id);
  if (record == nullptr) {
    drop_artifact(policy_id);
    return;
  }
  try {
    const auto node = core::node_from_string(record->document);
    compile_node(policy_id, *node,
                 resolve_only_.find(policy_id) == resolve_only_.end());
  } catch (const std::exception&) {
    drop_artifact(policy_id);
  }
}

void PolicyRepository::drop_artifact(const std::string& policy_id) {
  compiled_.erase(policy_id);
  references_.erase(policy_id);
  if (config_.lint_on_issue) lint_index_.erase(policy_id, lint_options());
}

void PolicyRepository::recompile_dependents(const std::string& changed_id,
                                            const std::string& actor) {
  // Transitive worklist over the dependency edges; `done` both dedups
  // and breaks reference cycles. The trigger itself was just compiled —
  // never recompile it here (a self-referencing set would loop its own
  // compilation otherwise).
  std::set<std::string> done{changed_id};
  std::vector<std::string> work{changed_id};
  while (!work.empty()) {
    const std::string id = std::move(work.back());
    work.pop_back();
    // Snapshot the dependents first: compile_issued mutates references_.
    std::vector<std::string> dependents;
    for (const auto& [dependent, refs] : references_) {
      if (refs.find(id) != refs.end()) dependents.push_back(dependent);
    }
    for (const std::string& dependent : dependents) {
      if (!done.insert(dependent).second) continue;
      const PolicyRecord* record = issued(dependent);
      if (record == nullptr) continue;
      compile_issued(dependent);
      record_audit(actor, "recompile", dependent, record->version,
                   record->document);
      work.push_back(dependent);
    }
  }
}

RepoOutcome PolicyRepository::withdraw(const std::string& policy_id,
                                       const std::string& actor) {
  const auto it = records_.find(policy_id);
  if (it == records_.end()) return RepoOutcome::failure("unknown policy " + policy_id);
  for (PolicyRecord& r : it->second) {
    if (r.status == Lifecycle::kIssued) {
      r.status = Lifecycle::kWithdrawn;
      r.updated_at = clock_.now();
      drop_artifact(policy_id);  // nothing issued, nothing to execute or lint
      resolve_only_.erase(policy_id);
      record_audit(actor, "withdraw", policy_id, r.version, r.document);
      // Sets still referencing the withdrawn id recompile so their
      // diagnostics record the now-unresolvable reference (their
      // decisions already track the live store — core/compiled.hpp).
      recompile_dependents(policy_id, actor);
      return RepoOutcome::success();
    }
  }
  return RepoOutcome::failure(policy_id + " has no issued version");
}

const PolicyRecord* PolicyRepository::latest(const std::string& policy_id) const {
  const auto it = records_.find(policy_id);
  if (it == records_.end() || it->second.empty()) return nullptr;
  return &it->second.back();
}

const PolicyRecord* PolicyRepository::issued(const std::string& policy_id) const {
  const auto it = records_.find(policy_id);
  if (it == records_.end()) return nullptr;
  for (const PolicyRecord& r : it->second) {
    if (r.status == Lifecycle::kIssued) return &r;
  }
  return nullptr;
}

std::vector<const PolicyRecord*> PolicyRepository::all_issued() const {
  std::vector<const PolicyRecord*> out;
  for (const auto& [id, versions] : records_) {
    for (const PolicyRecord& r : versions) {
      if (r.status == Lifecycle::kIssued) out.push_back(&r);
    }
  }
  return out;
}

std::vector<std::string> PolicyRepository::policy_ids() const {
  std::vector<std::string> out;
  out.reserve(records_.size());
  for (const auto& [id, _] : records_) out.push_back(id);
  return out;
}

RepoOutcome PolicyRepository::register_attribute_names(
    const std::string& domain, const std::vector<std::string>& names,
    const std::string& actor) {
  if (names.empty()) return RepoOutcome::failure("empty attribute-name list");
  // Keep the registration atomic as far as the interner allows: interning
  // is irreversible, so probe capacity for the genuinely-new names before
  // interning any of them — a failed registration must not burn the
  // remaining symbol budget on a prefix of the list. The probe is
  // advisory under concurrent interning; the catch below is the backstop
  // (a race can still intern a prefix, but the allowlist itself stays
  // all-or-nothing).
  std::size_t new_count = 0;
  std::size_t new_bytes = 0;
  for (const std::string& name : names) {
    if (!common::interner().find(name)) {
      ++new_count;
      new_bytes += name.size();
    }
  }
  if (!common::interner().has_capacity(new_count, new_bytes)) {
    return RepoOutcome::failure(
        "symbol table exhausted; attribute vocabulary not registered");
  }
  try {
    for (const std::string& name : names) common::interner().intern(name);
  } catch (const std::length_error&) {
    return RepoOutcome::failure(
        "symbol table exhausted; attribute vocabulary not registered");
  }
  auto& allowlist = allowlists_[domain];
  for (const std::string& name : names) allowlist.insert(name);
  record_audit(actor, "register-attributes", domain,
               static_cast<int>(allowlist.size()),
               /*document=*/std::to_string(names.size()) + " names");
  return RepoOutcome::success();
}

const std::set<std::string, std::less<>>* PolicyRepository::attribute_allowlist(
    const std::string& domain) const {
  const auto it = allowlists_.find(domain);
  if (it == allowlists_.end()) return nullptr;
  return &it->second;
}

bool PolicyRepository::attribute_allowed(const std::string& domain,
                                         std::string_view name) const {
  const auto it = allowlists_.find(domain);
  if (it == allowlists_.end()) return true;  // no allowlist = open vocabulary
  return it->second.find(name) != it->second.end();
}

std::size_t PolicyRepository::load_into(core::PolicyStore* store) const {
  std::size_t loaded = 0;
  for (const PolicyRecord* r : all_issued()) {
    try {
      store->add(core::node_from_string(r->document), compiled(r->policy_id));
      ++loaded;
    } catch (const std::exception&) {
      // An unparseable issued record cannot happen through submit(), but
      // guard anyway: a broken policy must not take the PDP down.
    }
  }
  return loaded;
}

std::shared_ptr<const core::CompiledPolicyTree> PolicyRepository::compiled(
    const std::string& policy_id) const {
  const auto it = compiled_.find(policy_id);
  if (it == compiled_.end()) return nullptr;
  return it->second;
}

}  // namespace mdac::pap
