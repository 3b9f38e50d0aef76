#include "support/batch_analysis.hpp"

#include <map>
#include <set>
#include <string>

#include "analysis/passes.hpp"
#include "core/compiled.hpp"

namespace mdac::test {

using namespace analysis;
using namespace analysis::detail;

namespace {

bool conflict_candidates(const Atom& a, const Atom& b) {
  return a.effect != b.effect && a.root_id != b.root_id;
}

void maybe_conflict(const Atom& a, const Atom& b, ReportBuilder* rb) {
  if (conflict_candidates(a, b) && overlaps(a.constraints, b.constraints)) {
    conflict_finding(a, b, rb);
  }
}

/// Pairwise over all cross-root opposite-effect atoms, partitioned by the
/// most common singleton equality constraint: two atoms pinned to
/// different values of that key can never overlap.
void cross_root_conflicts(const std::vector<Atom>& atoms, ReportBuilder* rb) {
  std::map<AttributeKey, std::size_t> singleton_counts;
  for (const Atom& atom : atoms) {
    for (const auto& [key, values] : atom.constraints) {
      if (values.size() == 1) ++singleton_counts[key];
    }
  }
  const AttributeKey* partition_key = nullptr;
  std::size_t best = 0;
  for (const auto& [key, n] : singleton_counts) {
    if (n > best) {
      best = n;
      partition_key = &key;
    }
  }

  std::map<std::string, std::vector<const Atom*>> buckets;
  std::vector<const Atom*> global;
  for (const Atom& atom : atoms) {
    const auto it = partition_key != nullptr ? atom.constraints.find(*partition_key)
                                             : atom.constraints.end();
    if (it != atom.constraints.end() && it->second.size() == 1) {
      buckets[*it->second.begin()].push_back(&atom);
    } else {
      global.push_back(&atom);
    }
  }

  const auto compare_within = [&](const std::vector<const Atom*>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      for (std::size_t j = i + 1; j < v.size(); ++j) maybe_conflict(*v[i], *v[j], rb);
    }
  };
  for (const auto& [value, bucket] : buckets) {
    compare_within(bucket);
    for (const Atom* x : bucket) {
      for (const Atom* y : global) maybe_conflict(*x, *y, rb);
    }
  }
  compare_within(global);
}

/// Dangling / withdrawn edges, then cycles among the analysed roots.
void reference_pass(const Collection& col, const std::vector<AnalysisInput>& roots,
                    const AnalyzerOptions& options, ReportBuilder* rb) {
  std::set<std::string> root_ids;
  for (const AnalysisInput& input : roots) {
    if (input.node != nullptr) root_ids.insert(input.node->id());
  }
  for (const RefEdge& edge : col.refs) {
    const bool resolves =
        options.resolves ? options.resolves(edge.ref_id) : root_ids.count(edge.ref_id) > 0;
    if (resolves) continue;
    reference_edge_finding(edge, options.withdrawn && options.withdrawn(edge.ref_id), rb);
  }

  ReferenceGraph edges;
  for (const AnalysisInput& input : roots) {
    if (input.node == nullptr) continue;
    for (const std::string& ref : core::referenced_policy_ids(*input.node)) {
      if (root_ids.count(ref) > 0) edges[input.node->id()].push_back(ref);
    }
  }
  reference_cycles(edges, rb);
}

}  // namespace

AnalysisReport batch_analyse_roots(const std::vector<AnalysisInput>& roots,
                                   const AnalyzerOptions& options) {
  ReportBuilder rb(options.max_findings_per_pass);

  Collection col;
  for (const AnalysisInput& input : roots) {
    if (input.node == nullptr) continue;
    collect_node(*input.node, input.node->id(), input.node->id(), ExtractedTarget{}, &col);
  }

  if (options.shadowing) {
    for (const PolicyInfo& pi : col.policies) shadow_rules(pi, &rb);
    for (const SetInfo& si : col.sets) shadow_set_children(si, &rb);
  }
  if (options.conflicts) {
    for (const SetInfo& si : col.sets) only_one_applicable_overlaps(si, &rb);
    cross_root_conflicts(col.atoms, &rb);
  }
  if (options.references) reference_pass(col, roots, options, &rb);
  if (options.dead_code) {
    for (const PolicyInfo& pi : col.policies) never_applicable_rules(pi, &rb);
  }
  for (const AnalysisInput& input : roots) {
    if (input.node == nullptr) continue;
    const std::string root_id = input.node->id();
    if (options.types || options.dead_code) {
      types_and_dead_code(*input.node, root_id, root_id, options.types, options.dead_code,
                          &rb);
    }
    if (options.vocabulary != nullptr) {
      vocabulary_findings(root_id, core::referenced_attribute_names(*input.node),
                          *options.vocabulary, &rb);
    }
    if (input.compiled != nullptr) {
      compile_findings(root_id, input.compiled->diagnostics(), &rb);
    }
  }
  return rb.finish();
}

}  // namespace mdac::test
