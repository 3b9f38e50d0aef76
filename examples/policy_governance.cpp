// Governance tooling over a policy base (paper §2.2: externalised
// policies "facilitate audits and checks ... for the purposes of
// correctness, governance and compliance"; §3.1: conflicts must be found
// before deployment). A compliance officer's view of the repository:
// lint every policy, run static modality-conflict analysis, then check
// separation-of-duty meta-policies.
#include <iostream>
#include <memory>

#include "analysis/analysis.hpp"
#include "core/serialization.hpp"
#include "core/validate.hpp"

using namespace mdac;

namespace {

core::Policy purchasing_policy(const std::string& id, core::Effect effect,
                               const std::string& subject,
                               const std::string& action) {
  core::Policy p;
  p.policy_id = id;
  p.target_spec.require(core::Category::kResource, core::attrs::kResourceId,
                        core::AttributeValue("purchase-order"));
  core::Rule r;
  r.id = id + "-rule";
  r.effect = effect;
  core::Target t;
  if (!subject.empty()) {
    t.require(core::Category::kSubject, core::attrs::kSubjectId,
              core::AttributeValue(subject));
  }
  t.require(core::Category::kAction, core::attrs::kActionId,
            core::AttributeValue(action));
  r.target = std::move(t);
  p.rules.push_back(std::move(r));
  return p;
}

}  // namespace

int main() {
  // The policy base under review: two sound policies, one broken one,
  // one that contradicts another, and one that violates SoD.
  core::PolicyStore store;
  store.add(purchasing_policy("finance-submit", core::Effect::kPermit, "carol",
                              "submit"));
  store.add(purchasing_policy("finance-approve", core::Effect::kPermit, "carol",
                              "approve"));  // SoD problem: same subject!
  store.add(purchasing_policy("freeze-orders", core::Effect::kDeny, "carol",
                              "submit"));   // contradicts finance-submit

  core::Policy broken = purchasing_policy("typo-policy", core::Effect::kPermit,
                                          "dave", "submit");
  broken.rule_combining = "majority-vote";  // no such algorithm
  broken.rules[0].condition =
      core::make_apply("frobnicate", core::lit("x"));  // no such function
  store.add(std::move(broken));

  std::cout << "=== 1. Lint: structural validation of every policy ===\n";
  const core::ValidationReport report = core::validate_store(store);
  for (const auto& finding : report.findings) {
    std::cout << "  ["
              << (finding.severity == core::FindingSeverity::kError ? "ERROR"
                                                                    : "warn ")
              << "] " << finding.path << ": " << finding.message << "\n";
  }
  std::cout << "  => " << report.error_count() << " errors, "
            << report.warning_count() << " warnings\n\n";

  std::cout << "=== 2. Static modality-conflict analysis ===\n";
  analysis::AnalyzerOptions conflicts_only;
  conflicts_only.shadowing = false;
  conflicts_only.references = false;
  conflicts_only.types = false;
  conflicts_only.dead_code = false;
  const analysis::AnalysisReport analysed = analysis::analyse_store(store, conflicts_only);
  std::size_t conflicts = 0;
  for (const analysis::Finding& f : analysed.findings) {
    if (f.code != "modality-conflict") continue;
    ++conflicts;
    std::cout << "  CONFLICT: " << f.root_id << " permits what " << f.other_root_id
              << " denies";
    if (!f.witness.empty()) {
      std::cout << "  (witness:";
      for (const auto& [key, value] : f.witness) {
        std::cout << " " << key.second << "=" << value;
      }
      std::cout << ")";
    }
    if (f.approximate) std::cout << "  [approximate]";
    std::cout << "\n";
  }
  std::cout << "  => " << conflicts
            << " conflict(s); the deployed deny-overrides root resolves them "
               "in favour of deny\n\n";

  std::cout << "=== 3. Separation-of-duty meta-policies ===\n";
  const std::vector<analysis::SodMetaPolicy> metas{
      {"submit-vs-approve", "purchase-order", "submit", "purchase-order",
       "approve"}};
  std::vector<analysis::Atom> atoms;
  for (const auto* node : store.top_level()) {
    std::vector<analysis::Atom> extracted = analysis::extract_atoms(*node);
    atoms.insert(atoms.end(), std::make_move_iterator(extracted.begin()),
                 std::make_move_iterator(extracted.end()));
  }
  const auto violations = analysis::check_sod(atoms, metas);
  for (const auto& v : violations) {
    std::cout << "  SoD VIOLATION '" << metas[v.meta_index].name << "': "
              << atoms[v.permit_a_index].policy_id << " + "
              << atoms[v.permit_b_index].policy_id << " for subject(s)";
    if (v.overlapping_subjects.empty()) {
      std::cout << " <anyone>";
    } else {
      for (const auto& s : v.overlapping_subjects) std::cout << " " << s;
    }
    std::cout << "\n";
  }
  std::cout << "  => " << violations.size()
            << " violation(s) — carol can both submit and approve\n\n";

  std::cout << "=== 4. Wire form of one policy, as auditors receive it ===\n";
  std::cout << core::node_to_string(*store.find("finance-submit"), true) << "\n";
  return 0;
}
