// Internal to mdac::analysis: the equality-fragment projection, the
// per-root collection and the pass functions (analysis.cpp) that the
// analyser's index (IncrementalAnalysis, incremental.cpp) runs. Not part
// of the public API.
#pragma once

#include <array>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analysis.hpp"

namespace mdac::analysis::detail {

using Constraints = std::map<AttributeKey, std::set<std::string>>;

/// Constraint map plus a flag for structure outside the equality
/// fragment. When `approximate` is false the map is *exactly* the
/// target's admitted space; when true it over-approximates it (dropped
/// conjuncts only ever widen the space).
struct ExtractedTarget {
  Constraints constraints;
  bool approximate = false;
};

/// A rule's own-target projection, used by the shadowing pass: sibling
/// rules share their policy/set context, so coverage between them is
/// decided on the rule-level targets alone (the shared context cancels).
struct RuleInfo {
  const core::Rule* rule = nullptr;
  std::string path;  // root/.../policy/rule
  ExtractedTarget own;
  bool has_condition = false;
  /// Full-path atom satisfiability + exactness (for dead-rule findings).
  bool satisfiable = true;
  bool exact_path = false;
};

struct PolicyInfo {
  const core::Policy* policy = nullptr;
  std::string root_id;
  std::string path;  // root/.../policy
  std::vector<RuleInfo> rules;
};

/// One direct child of a PolicySet, as the set-level shadowing and
/// only-one-applicable passes see it.
struct ChildInfo {
  const core::PolicyTreeNode* node = nullptr;
  std::string id;
  bool is_policy = false;
  bool is_reference = false;
  /// Projection of the child's *own* target (sibling context cancels).
  ExtractedTarget own;
  /// Child is a Policy that always yields a decision when its target
  /// matches: exact own target, a known combining algorithm, and an
  /// unconditional catch-all rule.
  bool always_decides = false;
};

struct SetInfo {
  const core::PolicySet* set = nullptr;
  std::string root_id;
  std::string path;
  std::vector<ChildInfo> children;
};

struct RefEdge {
  std::string root_id;
  std::string path;
  std::string ref_id;
};

struct Collection {
  std::vector<Atom> atoms;  // satisfiable only (overlap analysis)
  std::vector<PolicyInfo> policies;
  std::vector<SetInfo> sets;
  std::vector<RefEdge> refs;
};

/// Walks `node` (the root `root_id`, or a subtree at `path` under it),
/// appending its atoms, policy/set projections and reference edges.
void collect_node(const core::PolicyTreeNode& node, const std::string& root_id,
                  const std::string& path, const ExtractedTarget& inherited,
                  Collection* out);

/// Overlap test without building a witness: every attribute constrained
/// by both sides shares at least one admitted value.
bool overlaps(const Constraints& a, const Constraints& b);

/// Report assembly with per-pass materialisation caps. Severity totals
/// count every finding offered; past the cap a finding is only counted,
/// and the lazy add() never builds it.
class ReportBuilder {
 public:
  explicit ReportBuilder(std::size_t cap) : cap_(cap) {}

  /// A builder that only counts: nothing is built or kept, and totals()
  /// reads the severity totals of everything offered.
  static ReportBuilder counting() {
    ReportBuilder rb(0);
    rb.counting_ = true;
    return rb;
  }
  const AnalysisReport& totals() const { return report_; }

  /// Counts a finding of `pass` at `severity` and builds it with
  /// `make()` (which fills in everything else) only if the pass is
  /// still under its cap.
  template <typename Make>
  void add(Pass pass, Severity severity, Make&& make) {
    if (!admit(pass, severity)) return;
    Finding f = make();
    f.pass = pass;
    f.severity = severity;
    report_.findings.push_back(std::move(f));
  }

  /// Adds an already built finding (copied in only if admitted).
  void add(const Finding& f) {
    if (admit(f.pass, f.severity)) report_.findings.push_back(f);
  }
  void add(Finding&& f) {
    if (admit(f.pass, f.severity)) report_.findings.push_back(std::move(f));
  }

  /// Appends one summary info finding per truncated pass and returns the
  /// report.
  AnalysisReport finish();

 private:
  static constexpr std::size_t kPasses = static_cast<std::size_t>(Pass::kDeadCode) + 1;

  bool admit(Pass pass, Severity severity);

  std::size_t cap_;
  bool counting_ = false;
  AnalysisReport report_;
  std::array<std::size_t, kPasses> materialised_{};
  std::array<std::size_t, kPasses> suppressed_{};
};

// --- per-root passes (each finding names only the root it is given) ----

void shadow_rules(const PolicyInfo& pi, ReportBuilder* rb);
void shadow_set_children(const SetInfo& si, ReportBuilder* rb);
void only_one_applicable_overlaps(const SetInfo& si, ReportBuilder* rb);
void types_and_dead_code(const core::PolicyTreeNode& node, const std::string& root_id,
                         const std::string& path, bool types, bool dead_code,
                         ReportBuilder* rb);
/// "rule-never-applicable": exact target chains that admit no request.
void never_applicable_rules(const PolicyInfo& pi, ReportBuilder* rb);
/// "unknown-attribute" for each of `names` (deduplicated, in order)
/// absent from `vocabulary`.
void vocabulary_findings(const std::string& root_id,
                         const std::vector<std::string>& names,
                         const std::set<std::string, std::less<>>& vocabulary,
                         ReportBuilder* rb);
/// The compiled artifact's diagnostics as info findings.
void compile_findings(const std::string& root_id,
                      const std::vector<std::string>& diagnostics, ReportBuilder* rb);

// --- cross-root passes ---------------------------------------------------

/// The modality-conflict finding for opposite-effect atoms of different
/// roots that overlap (the caller has proven it). The finding does not
/// depend on argument order.
void conflict_finding(const Atom& a, const Atom& b, ReportBuilder* rb);

/// "reference-dangling" / "reference-withdrawn" for one edge that does
/// not resolve.
void reference_edge_finding(const RefEdge& edge, bool withdrawn, ReportBuilder* rb);

/// Reference edges between analysed roots, keyed by referring root id
/// (targets in core::referenced_policy_ids order).
using ReferenceGraph = std::map<std::string, std::vector<std::string>>;

/// One "reference-cycle" finding per distinct cycle a depth-first walk
/// of `edges` (in key order) closes.
void reference_cycles(const ReferenceGraph& edges, ReportBuilder* rb);

}  // namespace mdac::analysis::detail
