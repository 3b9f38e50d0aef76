// Static policy analysis (paper §3.1, "Policy Conflict Resolution",
// following Lupu & Sloman [51]) — the issue-time linter over whole
// policy trees and their compiled artifacts.
//
// The analysis projects each rule to an *atom*: its effect plus, per
// (category, attribute), the set of string-equality values its combined
// set+policy+rule target chain admits. Structure the equality fragment
// cannot capture (conditions, non-equality matches, must-be-present
// matches, cross-attribute disjunctions) marks the atom `approximate`:
// its constraint map then *over*-approximates the admitted request
// space, so overlap-based passes stay sound — they may report a
// possible conflict that is not real, but never silently miss one.
//
// Passes (see AnalyzerOptions to toggle):
//   * shadowing      — combining-algorithm-aware unreachability: under
//                      first-applicable, a rule covered by an earlier
//                      *exact* rule can never decide; under
//                      deny-overrides (resp. permit-overrides), a permit
//                      (resp. deny) rule covered by an exact opposite
//                      rule can never surface. First-applicable
//                      PolicySets get the same check across sibling
//                      policies. Coverage is only claimed when it is
//                      provable (both targets inside the fragment), so
//                      a flagged rule provably never decides — the
//                      dynamic oracle test pins this.
//   * conflicts      — modality conflicts *across* top-level trees
//                      (no combiner above them resolves the
//                      disagreement), with witness assignments; inside
//                      one tree every standard combiner resolves
//                      overlaps deterministically, except
//                      only-one-applicable, whose overlapping children
//                      yield runtime Indeterminate and are flagged.
//   * references     — dangling, withdrawn and cyclic PolicyReference
//                      edges (core::referenced_policy_ids semantics).
//   * types          — unknown/higher-order match functions, unknown
//                      condition/obligation functions, arity
//                      mismatches, unknown combining algorithms —
//                      compile-time diagnostic strings promoted to
//                      typed findings (compiled-artifact diagnostics
//                      are folded in as info findings).
//   * vocabulary     — attribute names a tree references that are
//                      absent from the supplied per-domain vocabulary.
//   * dead code      — constant-foldable conditions: always-false
//                      (rule unreachable) and always-true (redundant
//                      condition), folded with the real evaluator over
//                      designator-free expressions.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/finding.hpp"
#include "core/policy.hpp"

namespace mdac::core {
class CompiledPolicyTree;
}  // namespace mdac::core

namespace mdac::analysis {

// ---------------------------------------------------------------------
// Atoms: the equality-fragment projection
// ---------------------------------------------------------------------

struct Atom {
  /// Top-level tree this rule lives under (== policy_id for flat
  /// policies).
  std::string root_id;
  /// The enclosing policy and rule.
  std::string policy_id;
  std::string rule_id;
  /// Slash-separated provenance: "root/.../policy/rule".
  std::string path;
  core::Effect effect = core::Effect::kPermit;
  /// Admitted values per attribute; an absent key admits *any* value.
  std::map<AttributeKey, std::set<std::string>> constraints;
  /// True if the rule (or any target on its set/policy path) has
  /// structure the equality fragment cannot capture: the constraint map
  /// then over-approximates the admitted space.
  bool approximate = false;
  /// True if every target on the path projected exactly (no dropped
  /// conjuncts, equality matches only, no must-be-present): the
  /// constraint map is then *precisely* the admitted target space —
  /// the property shadowing coverage proofs need.
  bool exact_target = false;
  bool has_condition = false;
};

/// Extracts analysis atoms from a flat policy. The policy-level target
/// is intersected into every rule's constraints — including rules
/// without a target of their own and rules whose projection is
/// approximate (a condition or non-equality match must never drop the
/// policy-level constraints; see the regression test).
std::vector<Atom> extract_atoms(const core::Policy& policy);

/// Extracts atoms from a whole tree (PolicySet targets intersected down
/// the path, PolicyReference children contribute no atoms — their
/// referents are analysed as their own roots).
std::vector<Atom> extract_atoms(const core::PolicyTreeNode& node);

// ---------------------------------------------------------------------
// The linter
// ---------------------------------------------------------------------

struct AnalyzerOptions {
  /// Returns true if a policy reference to `id` resolves. Unresolvable
  /// references are "reference-dangling" (or "reference-withdrawn" when
  /// `withdrawn` claims the id). Unset: ids among the analysed roots
  /// resolve, everything else dangles.
  std::function<bool(const std::string&)> resolves;
  /// Returns true if `id` is known but currently withdrawn — refines
  /// the dangling-reference finding for repository-backed analysis.
  std::function<bool(const std::string&)> withdrawn;
  /// Per-domain attribute vocabulary; null disables the vocabulary pass.
  const std::set<std::string, std::less<>>* vocabulary = nullptr;

  bool shadowing = true;
  bool conflicts = true;
  bool references = true;
  bool types = true;
  bool dead_code = true;

  /// Materialisation cap per pass: severity totals stay exact, but at
  /// most this many findings per pass are kept (plus one summary info
  /// finding recording the truncation). 0 = unlimited.
  std::size_t max_findings_per_pass = 10000;
};

/// One top-level tree to analyse, optionally with its compiled artifact
/// (whose compile diagnostics are folded into the report).
struct AnalysisInput {
  const core::PolicyTreeNode* node = nullptr;
  std::shared_ptr<const core::CompiledPolicyTree> compiled;
};

/// Runs every enabled pass over `roots` and returns the report: each
/// root is staged and committed, in order, into a fresh
/// IncrementalAnalysis, whose report() is the result. A later root
/// replaces an earlier root of the same id, as PolicyStore::add does.
AnalysisReport analyse_roots(const std::vector<AnalysisInput>& roots,
                             const AnalyzerOptions& options = {});

/// Analyses a store's top-level trees (with their attached compiled
/// artifacts); references resolve against the store.
AnalysisReport analyse_store(const core::PolicyStore& store,
                             const AnalyzerOptions& options = {});

/// The analyser's state for a corpus that changes one root at a time
/// (the PAP's issued trees), so a change costs what it touches instead
/// of re-analysing the whole corpus:
///   * per root, the results that depend on that root alone: atoms,
///     shadowing, only-one-applicable, types and dead-code findings, its
///     reference edges, the attribute names the vocabulary pass checks,
///     and the compiled artifact whose diagnostics it reports;
///   * a persistent conflict index of every root's atoms, bucketed by
///     effect and by the value of the most common singleton equality
///     constraint (unpinned atoms sit in a global list); a candidate's
///     atoms are checked against their own bucket and the global list
///     only, and every overlapping pair is kept as a link on both roots;
///   * the reverse reference edges (referenced id -> referring roots):
///     when an id joins or leaves the corpus, or the caller reports that
///     its status changed (refresh_references), only the roots referring
///     to it re-run their reference lints.
/// report() is the corpus report, and analyse_roots is defined as this
/// fold over a fresh index. After any sequence of changes, report()
/// equals analyse_roots over the current roots (each with the artifact
/// last given to set_compiled) and the same options as a set of
/// findings; with a binding cap the totals and `suppressed` are equal,
/// and which conflicts are kept follows commit order.
///
/// Every call must pass options with the same pass switches (the cached
/// per-root results were computed with them); the cap is applied by
/// report(), and the `resolves` / `withdrawn` predicates and the
/// vocabulary are read as they stand at the call. Not thread-safe.
class IncrementalAnalysis {
 public:
  IncrementalAnalysis();
  ~IncrementalAnalysis();
  IncrementalAnalysis(const IncrementalAnalysis&) = delete;
  IncrementalAnalysis& operator=(const IncrementalAnalysis&) = delete;

  struct Root;
  struct Link;

  /// A candidate root analysed against the index but not part of it yet
  /// (it replaces the root of the same id on commit). The totals count
  /// every finding the corpus would carry that names the candidate: its
  /// own per-root and reference findings, its conflicts with the other
  /// roots, and reference cycles through it. Compile diagnostics are not
  /// counted: the candidate has no artifact until set_compiled.
  class Staged {
   public:
    Staged(Staged&&) noexcept;
    Staged& operator=(Staged&&) noexcept;
    ~Staged();

    std::size_t error_count() const { return errors_; }
    std::size_t warning_count() const { return warnings_; }
    std::size_t info_count() const { return infos_; }

   private:
    friend class IncrementalAnalysis;
    Staged();

    std::unique_ptr<Root> root_;
    std::vector<Link> links_;
    std::uint64_t generation_ = 0;
    std::size_t errors_ = 0;
    std::size_t warnings_ = 0;
    std::size_t infos_ = 0;
  };

  /// Analyses `node` as a candidate root. Does not change the index; a
  /// stage is only valid for commit until the next commit or erase.
  Staged stage(const core::PolicyTreeNode& node, const AnalyzerOptions& options) const;

  /// Makes a staged candidate part of the corpus, replacing the root of
  /// its id, and re-checks the references of the roots that refer to it.
  /// Throws std::logic_error if the index changed since the stage.
  void commit(Staged staged, const AnalyzerOptions& options);

  /// Removes `root_id` (no-op if absent) and re-checks the references of
  /// the roots that refer to it.
  void erase(const std::string& root_id, const AnalyzerOptions& options);

  /// Attaches `root_id`'s compiled artifact (its diagnostics become info
  /// findings); null detaches. No-op if `root_id` is absent.
  void set_compiled(const std::string& root_id,
                    std::shared_ptr<const core::CompiledPolicyTree> compiled);

  /// Re-runs the reference lints of the roots that refer to `id`: call
  /// when `options.resolves` / `options.withdrawn` changed their answer
  /// for an id without a commit or erase of that id.
  void refresh_references(const std::string& id, const AnalyzerOptions& options);

  /// Builds the report from the maintained state: per-root findings are
  /// copied, conflict findings are only built while their pass is under
  /// the cap, vocabulary and cycle findings are computed at this call.
  AnalysisReport report(const AnalyzerOptions& options) const;

 private:
  struct Index;
  std::unique_ptr<Index> index_;
};

/// Finding codes the shadowing/dead-code passes emit for rules (or
/// whole policies) that provably can never decide — the set the dynamic
/// soundness oracle replays (tests/analysis_oracle_test.cpp): removing
/// a flagged rule must never change any decision.
bool is_unreachability_code(const std::string& code);

// ---------------------------------------------------------------------
// Meta-policies (§3.1)
// ---------------------------------------------------------------------

/// "No subject may be permitted both A and B" — the paper's SoD example.
struct SodMetaPolicy {
  std::string name;
  std::string resource_a;
  std::string action_a;
  std::string resource_b;
  std::string action_b;
};

struct SodViolation {
  std::size_t meta_index = 0;      // into the metas vector
  std::size_t permit_a_index = 0;  // into the atoms vector
  std::size_t permit_b_index = 0;
  /// Subject constraint overlap enabling both permissions; empty set
  /// means "any subject".
  std::set<std::string> overlapping_subjects;
};

/// Finds permit-atom pairs granting both halves of a SoD constraint to an
/// overlapping subject population.
std::vector<SodViolation> check_sod(const std::vector<Atom>& atoms,
                                    const std::vector<SodMetaPolicy>& metas);

}  // namespace mdac::analysis
