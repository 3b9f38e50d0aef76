#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "analysis/analysis.hpp"
#include "workload.hpp"
#include "core/functions.hpp"

namespace mdac::analysis {
namespace {

core::Policy make_policy(const std::string& id, core::Effect effect,
                         const std::string& subject, const std::string& resource,
                         const std::string& action) {
  core::Policy p;
  p.policy_id = id;
  if (!resource.empty()) {
    p.target_spec.require(core::Category::kResource, core::attrs::kResourceId,
                          core::AttributeValue(resource));
  }
  core::Rule r;
  r.id = id + "-rule";
  r.effect = effect;
  core::Target t;
  if (!subject.empty()) {
    t.require(core::Category::kSubject, core::attrs::kSubjectId,
              core::AttributeValue(subject));
  }
  if (!action.empty()) {
    t.require(core::Category::kAction, core::attrs::kActionId,
              core::AttributeValue(action));
  }
  if (!t.empty()) r.target = std::move(t);
  p.rules.push_back(std::move(r));
  return p;
}

core::Rule make_rule(const std::string& id, core::Effect effect) {
  core::Rule r;
  r.id = id;
  r.effect = effect;
  return r;
}

std::vector<const Finding*> findings_with_code(const AnalysisReport& report,
                                               const std::string& code) {
  std::vector<const Finding*> out;
  for (const Finding& f : report.findings) {
    if (f.code == code) out.push_back(&f);
  }
  return out;
}

// ---------------------------------------------------------------------
// Atom extraction (migrated from the retired conflict_test.cpp)
// ---------------------------------------------------------------------

TEST(AtomExtractionTest, PolicyTargetIntersectedIntoRules) {
  const core::Policy p = make_policy("p", core::Effect::kPermit, "alice", "doc", "read");
  const auto atoms = extract_atoms(p);
  ASSERT_EQ(atoms.size(), 1u);
  const Atom& a = atoms[0];
  EXPECT_FALSE(a.approximate);
  EXPECT_TRUE(a.exact_target);
  const AttributeKey res{core::Category::kResource, core::attrs::kResourceId};
  const AttributeKey subj{core::Category::kSubject, core::attrs::kSubjectId};
  ASSERT_TRUE(a.constraints.count(res));
  EXPECT_TRUE(a.constraints.at(res).count("doc"));
  EXPECT_TRUE(a.constraints.at(subj).count("alice"));
}

TEST(AtomExtractionTest, ConditionMakesAtomApproximate) {
  core::Policy p = make_policy("p", core::Effect::kPermit, "", "doc", "");
  p.rules[0].condition = core::lit(true);
  const auto atoms = extract_atoms(p);
  ASSERT_EQ(atoms.size(), 1u);
  EXPECT_TRUE(atoms[0].approximate);
}

TEST(AtomExtractionTest, NonEqualityMatchMakesAtomApproximate) {
  core::Policy p;
  p.policy_id = "p";
  core::AnyOf any;
  core::AllOf all;
  core::Match m;
  m.function_id = "string-starts-with";
  m.literal = core::AttributeValue("adm");
  m.category = core::Category::kSubject;
  m.attribute_id = core::attrs::kSubjectId;
  all.matches.push_back(std::move(m));
  any.all_ofs.push_back(std::move(all));
  p.target_spec.any_ofs.push_back(std::move(any));
  p.rules.push_back(make_rule("r", core::Effect::kDeny));

  const auto atoms = extract_atoms(p);
  ASSERT_EQ(atoms.size(), 1u);
  EXPECT_TRUE(atoms[0].approximate);
}

TEST(AtomExtractionTest, ContradictoryTargetDropsAtom) {
  // Policy target requires resource=a AND rule target requires resource=b:
  // the rule can never apply, so no atom is produced.
  core::Policy p = make_policy("p", core::Effect::kPermit, "", "a", "");
  core::Target rule_target;
  rule_target.require(core::Category::kResource, core::attrs::kResourceId,
                      core::AttributeValue("b"));
  p.rules[0].target = std::move(rule_target);
  EXPECT_TRUE(extract_atoms(p).empty());
}

// Regression for the bug the port fixed: the policy-level target must
// survive into the atom even when the rule has no target of its own AND
// the atom is approximate (condition / non-equality structure). Dropping
// it would turn "deny everything on doc when <cond>" into "deny
// everything everywhere", flooding the conflict pass.
TEST(AtomExtractionTest, PolicyTargetSurvivesIntoApproximateAtoms) {
  core::Policy p = make_policy("p", core::Effect::kDeny, "", "doc", "");
  p.rules[0].condition = core::lit(true);  // rule has no target of its own
  const auto atoms = extract_atoms(p);
  ASSERT_EQ(atoms.size(), 1u);
  EXPECT_TRUE(atoms[0].approximate);
  const AttributeKey res{core::Category::kResource, core::attrs::kResourceId};
  ASSERT_TRUE(atoms[0].constraints.count(res));
  EXPECT_TRUE(atoms[0].constraints.at(res).count("doc"));
}

TEST(AtomExtractionTest, SetTargetsIntersectDownTheTree) {
  core::PolicySet set;
  set.policy_set_id = "set";
  set.target_spec.require(core::Category::kResource, core::attrs::kResourceDomain,
                          core::AttributeValue("domain-1"));
  set.add(make_policy("p", core::Effect::kPermit, "alice", "doc", "read"));
  const auto atoms = extract_atoms(set);
  ASSERT_EQ(atoms.size(), 1u);
  EXPECT_EQ(atoms[0].root_id, "set");
  EXPECT_EQ(atoms[0].path, "set/p/p-rule");
  const AttributeKey dom{core::Category::kResource, core::attrs::kResourceDomain};
  ASSERT_TRUE(atoms[0].constraints.count(dom));
  EXPECT_TRUE(atoms[0].constraints.at(dom).count("domain-1"));
}

// ---------------------------------------------------------------------
// Modality conflicts between single-policy roots
// ---------------------------------------------------------------------

/// analyse_roots over `policies`, each its own root, nothing capped.
AnalysisReport analyse_policies(const std::vector<const core::Policy*>& policies) {
  std::vector<AnalysisInput> inputs;
  for (const core::Policy* p : policies) inputs.push_back({p, nullptr});
  AnalyzerOptions options;
  options.max_findings_per_pass = 0;
  return analyse_roots(inputs, options);
}

/// The policies' atoms, for the SoD meta-policy check.
std::vector<Atom> atoms_of(const std::vector<const core::Policy*>& policies) {
  std::vector<Atom> atoms;
  for (const core::Policy* p : policies) {
    std::vector<Atom> extracted = extract_atoms(*p);
    atoms.insert(atoms.end(), std::make_move_iterator(extracted.begin()),
                 std::make_move_iterator(extracted.end()));
  }
  return atoms;
}

TEST(ModalityConflictTest, OppositeEffectsSameTupleConflict) {
  const core::Policy permit = make_policy("permit", core::Effect::kPermit,
                                          "alice", "doc", "read");
  const core::Policy deny = make_policy("deny", core::Effect::kDeny,
                                        "alice", "doc", "read");
  const AnalysisReport report = analyse_policies({&permit, &deny});
  const auto conflicts = findings_with_code(report, "modality-conflict");
  ASSERT_EQ(conflicts.size(), 1u);
  const Finding& c = *conflicts[0];
  EXPECT_EQ(c.root_id, "permit");
  EXPECT_EQ(c.other_root_id, "deny");
  EXPECT_FALSE(c.approximate);
  // Witness includes a concrete value for every constrained attribute.
  const AttributeKey subj{core::Category::kSubject, core::attrs::kSubjectId};
  EXPECT_EQ(c.witness.at(subj), "alice");
}

TEST(ModalityConflictTest, DisjointSubjectsDoNotConflict) {
  const core::Policy permit = make_policy("permit", core::Effect::kPermit,
                                          "alice", "doc", "read");
  const core::Policy deny = make_policy("deny", core::Effect::kDeny,
                                        "bob", "doc", "read");
  EXPECT_TRUE(findings_with_code(analyse_policies({&permit, &deny}), "modality-conflict")
                  .empty());
}

TEST(ModalityConflictTest, DisjointResourcesDoNotConflict) {
  const core::Policy permit = make_policy("permit", core::Effect::kPermit,
                                          "alice", "doc-1", "read");
  const core::Policy deny = make_policy("deny", core::Effect::kDeny,
                                        "alice", "doc-2", "read");
  EXPECT_TRUE(findings_with_code(analyse_policies({&permit, &deny}), "modality-conflict")
                  .empty());
}

TEST(ModalityConflictTest, UnconstrainedAttributeOverlapsEverything) {
  // Deny for everyone on doc vs permit for alice on doc: conflict.
  const core::Policy permit = make_policy("permit", core::Effect::kPermit,
                                          "alice", "doc", "");
  const core::Policy deny = make_policy("deny", core::Effect::kDeny, "", "doc", "");
  EXPECT_EQ(findings_with_code(analyse_policies({&permit, &deny}), "modality-conflict")
                .size(),
            1u);
}

TEST(ModalityConflictTest, SameEffectNeverConflicts) {
  const core::Policy a = make_policy("a", core::Effect::kPermit, "alice", "doc", "read");
  const core::Policy b = make_policy("b", core::Effect::kPermit, "alice", "doc", "read");
  EXPECT_TRUE(
      findings_with_code(analyse_policies({&a, &b}), "modality-conflict").empty());
}

TEST(ModalityConflictTest, ApproximateAtomsFlaggedInConflicts) {
  core::Policy permit = make_policy("permit", core::Effect::kPermit, "", "doc", "");
  permit.rules[0].condition = core::lit(true);
  const core::Policy deny = make_policy("deny", core::Effect::kDeny, "", "doc", "");
  const AnalysisReport report = analyse_policies({&permit, &deny});
  const auto conflicts = findings_with_code(report, "modality-conflict");
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_TRUE(conflicts[0]->approximate);
}

// ---------------------------------------------------------------------
// Property test: the analysis agrees with a brute-force PDP oracle on
// the equality fragment.
// ---------------------------------------------------------------------

class ConflictOracleSweep : public ::testing::TestWithParam<int> {};

TEST_P(ConflictOracleSweep, AnalysisMatchesBruteForceOracle) {
  // Generate a random set of single-rule policies over small domains and
  // cross-check: a (permit, deny) root pair conflicts iff some concrete
  // (subject, resource, action) triple makes both rules applicable.
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  const std::vector<std::string> subjects{"s1", "s2", ""};
  const std::vector<std::string> resources{"r1", "r2", ""};
  const std::vector<std::string> actions{"read", "write", ""};

  std::vector<core::Policy> policies;
  for (int i = 0; i < 6; ++i) {
    policies.push_back(make_policy(
        std::string("p").append(std::to_string(i)),
        rng() % 2 == 0 ? core::Effect::kPermit : core::Effect::kDeny,
        subjects[rng() % subjects.size()], resources[rng() % resources.size()],
        actions[rng() % actions.size()]));
  }
  std::vector<const core::Policy*> pointers;
  for (const auto& p : policies) pointers.push_back(&p);
  const AnalysisReport report = analyse_policies(pointers);

  // Oracle: evaluate every policy against every concrete triple.
  const std::vector<std::string> concrete_subjects{"s1", "s2", "other"};
  const std::vector<std::string> concrete_resources{"r1", "r2", "other"};
  const std::vector<std::string> concrete_actions{"read", "write", "other"};
  std::set<std::pair<std::string, std::string>> oracle_conflicts;
  for (const auto& s : concrete_subjects) {
    for (const auto& r : concrete_resources) {
      for (const auto& a : concrete_actions) {
        const auto req = core::RequestContext::make(s, r, a);
        std::vector<const core::Policy*> permits, denies;
        for (const auto& p : policies) {
          core::EvaluationContext ctx(req, core::FunctionRegistry::standard());
          const core::Decision d = p.evaluate(ctx);
          if (d.is_permit()) permits.push_back(&p);
          if (d.is_deny()) denies.push_back(&p);
        }
        for (const auto* p : permits) {
          for (const auto* d : denies) {
            oracle_conflicts.insert({p->policy_id, d->policy_id});
          }
        }
      }
    }
  }

  std::set<std::pair<std::string, std::string>> analysis_conflicts;
  for (const Finding* c : findings_with_code(report, "modality-conflict")) {
    analysis_conflicts.insert({c->root_id, c->other_root_id});
  }
  EXPECT_EQ(analysis_conflicts, oracle_conflicts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictOracleSweep, ::testing::Range(0, 30));

// ---------------------------------------------------------------------
// SoD meta-policies (migrated)
// ---------------------------------------------------------------------

TEST(SodTest, DetectsSubjectGrantedBothHalves) {
  const core::Policy submit = make_policy("submit", core::Effect::kPermit,
                                          "alice", "purchase-order", "submit");
  const core::Policy approve = make_policy("approve", core::Effect::kPermit,
                                           "alice", "purchase-order", "approve");
  const std::vector<SodMetaPolicy> metas{
      {"submit-vs-approve", "purchase-order", "submit", "purchase-order", "approve"}};
  const auto violations = check_sod(atoms_of({&submit, &approve}), metas);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_TRUE(violations[0].overlapping_subjects.count("alice"));
}

TEST(SodTest, DifferentSubjectsAreFine) {
  const core::Policy submit = make_policy("submit", core::Effect::kPermit,
                                          "alice", "purchase-order", "submit");
  const core::Policy approve = make_policy("approve", core::Effect::kPermit,
                                           "bob", "purchase-order", "approve");
  const std::vector<SodMetaPolicy> metas{
      {"sod", "purchase-order", "submit", "purchase-order", "approve"}};
  EXPECT_TRUE(check_sod(atoms_of({&submit, &approve}), metas).empty());
}

TEST(SodTest, UnconstrainedSubjectViolates) {
  // A permit-to-everyone on both halves violates for any subject.
  const core::Policy submit = make_policy("submit", core::Effect::kPermit, "",
                                          "purchase-order", "submit");
  const core::Policy approve = make_policy("approve", core::Effect::kPermit, "",
                                           "purchase-order", "approve");
  const std::vector<SodMetaPolicy> metas{
      {"sod", "purchase-order", "submit", "purchase-order", "approve"}};
  const auto violations = check_sod(atoms_of({&submit, &approve}), metas);
  ASSERT_FALSE(violations.empty());
  EXPECT_TRUE(violations[0].overlapping_subjects.empty());  // "any subject"
}

TEST(SodTest, DenyAtomsDoNotTriggerSod) {
  const core::Policy submit = make_policy("submit", core::Effect::kDeny,
                                          "alice", "purchase-order", "submit");
  const core::Policy approve = make_policy("approve", core::Effect::kPermit,
                                           "alice", "purchase-order", "approve");
  const std::vector<SodMetaPolicy> metas{
      {"sod", "purchase-order", "submit", "purchase-order", "approve"}};
  EXPECT_TRUE(check_sod(atoms_of({&submit, &approve}), metas).empty());
}

// ---------------------------------------------------------------------
// Linter: shadowing pass
// ---------------------------------------------------------------------

TEST(ShadowingTest, FirstApplicableCatchAllShadowsLaterRules) {
  core::Policy p = make_policy("p", core::Effect::kPermit, "", "doc", "");
  p.rule_combining = "first-applicable";
  // p-rule has no target: an unconditional catch-all. Anything after it
  // is unreachable — even rules with conditions or odd targets.
  core::Rule late = make_rule("late", core::Effect::kDeny);
  late.condition = core::lit(true);
  p.rules.push_back(std::move(late));

  const AnalysisReport report = analyse_roots({{&p, nullptr}});
  const auto shadowed = findings_with_code(report, "rule-shadowed");
  ASSERT_EQ(shadowed.size(), 1u);
  EXPECT_EQ(shadowed[0]->path, "p/late");
  EXPECT_EQ(shadowed[0]->other_path, "p/p-rule");
  EXPECT_TRUE(is_unreachability_code(shadowed[0]->code));
}

TEST(ShadowingTest, FirstApplicableBroaderEarlierRuleShadows) {
  core::Policy p;
  p.policy_id = "p";
  p.rule_combining = "first-applicable";
  core::Rule broad = make_rule("broad", core::Effect::kPermit);
  core::Target bt;
  bt.require(core::Category::kResource, core::attrs::kResourceId,
             core::AttributeValue("doc"));
  broad.target = std::move(bt);
  p.rules.push_back(std::move(broad));
  core::Rule narrow = make_rule("narrow", core::Effect::kDeny);
  core::Target nt;
  nt.require(core::Category::kResource, core::attrs::kResourceId,
             core::AttributeValue("doc"));
  nt.require(core::Category::kAction, core::attrs::kActionId,
             core::AttributeValue("read"));
  narrow.target = std::move(nt);
  p.rules.push_back(std::move(narrow));

  const AnalysisReport report = analyse_roots({{&p, nullptr}});
  const auto shadowed = findings_with_code(report, "rule-shadowed");
  ASSERT_EQ(shadowed.size(), 1u);
  EXPECT_EQ(shadowed[0]->path, "p/narrow");
}

TEST(ShadowingTest, ConditionedEarlierRuleDoesNotShadow) {
  core::Policy p = make_policy("p", core::Effect::kPermit, "", "doc", "");
  p.rule_combining = "first-applicable";
  p.rules[0].condition = core::lit(true);  // may NotApply at runtime
  p.rules.push_back(make_rule("late", core::Effect::kDeny));

  const AnalysisReport report = analyse_roots({{&p, nullptr}});
  EXPECT_TRUE(findings_with_code(report, "rule-shadowed").empty());
}

TEST(ShadowingTest, ApproximateCandidateNotFlaggedUnderConstrainedCoverer) {
  // The coverer admits only resource=doc; the candidate's non-equality
  // match could go Indeterminate on requests outside that space, so
  // removing it is not provably decision-invariant.
  core::Policy p;
  p.policy_id = "p";
  p.rule_combining = "first-applicable";
  core::Rule cov = make_rule("cov", core::Effect::kPermit);
  core::Target ct;
  ct.require(core::Category::kResource, core::attrs::kResourceId,
             core::AttributeValue("doc"));
  cov.target = std::move(ct);
  p.rules.push_back(std::move(cov));
  core::Rule cand = make_rule("cand", core::Effect::kDeny);
  core::Target xt;
  xt.require(core::Category::kResource, core::attrs::kResourceId,
             core::AttributeValue("doc"));
  core::AnyOf any;
  core::AllOf all;
  core::Match m;
  m.function_id = "string-starts-with";
  m.literal = core::AttributeValue("adm");
  m.category = core::Category::kSubject;
  m.attribute_id = core::attrs::kSubjectId;
  m.must_be_present = true;
  all.matches.push_back(std::move(m));
  any.all_ofs.push_back(std::move(all));
  xt.any_ofs.push_back(std::move(any));
  cand.target = std::move(xt);
  p.rules.push_back(std::move(cand));

  const AnalysisReport report = analyse_roots({{&p, nullptr}});
  EXPECT_TRUE(findings_with_code(report, "rule-shadowed").empty());
}

TEST(ShadowingTest, DenyOverridesUnconditionalDenyShadowsPermit) {
  core::Policy p;
  p.policy_id = "p";
  p.rule_combining = "deny-overrides";
  core::Rule permit = make_rule("permit-read", core::Effect::kPermit);
  core::Target pt;
  pt.require(core::Category::kResource, core::attrs::kResourceId,
             core::AttributeValue("doc"));
  permit.target = std::move(pt);
  p.rules.push_back(std::move(permit));
  core::Rule deny = make_rule("deny-doc", core::Effect::kDeny);
  core::Target dt;
  dt.require(core::Category::kResource, core::attrs::kResourceId,
             core::AttributeValue("doc"));
  deny.target = std::move(dt);
  p.rules.push_back(std::move(deny));  // later position still overrides

  const AnalysisReport report = analyse_roots({{&p, nullptr}});
  const auto shadowed = findings_with_code(report, "rule-shadowed");
  ASSERT_EQ(shadowed.size(), 1u);
  EXPECT_EQ(shadowed[0]->path, "p/permit-read");
  EXPECT_EQ(shadowed[0]->other_path, "p/deny-doc");
}

TEST(ShadowingTest, FirstApplicableSetShadowsLaterSibling) {
  core::PolicySet set;
  set.policy_set_id = "set";
  set.policy_combining = "first-applicable";
  // Child 1 decides every doc request (exact target + catch-all rule).
  core::Policy first = make_policy("first", core::Effect::kPermit, "", "doc", "");
  set.add(std::move(first));
  // Child 2 only admits doc requests: unreachable.
  core::Policy second = make_policy("second", core::Effect::kDeny, "", "doc", "");
  set.add(std::move(second));

  const AnalysisReport report = analyse_roots({{&set, nullptr}});
  const auto shadowed = findings_with_code(report, "policy-shadowed");
  ASSERT_EQ(shadowed.size(), 1u);
  EXPECT_EQ(shadowed[0]->path, "set/second");
  EXPECT_EQ(shadowed[0]->other_path, "set/first");
  EXPECT_TRUE(is_unreachability_code(shadowed[0]->code));
}

TEST(ShadowingTest, DenyOverridesSetDoesNotShadowSiblings) {
  core::PolicySet set;
  set.policy_set_id = "set";
  set.policy_combining = "deny-overrides";
  set.add(make_policy("first", core::Effect::kPermit, "", "doc", ""));
  set.add(make_policy("second", core::Effect::kDeny, "", "doc", ""));
  const AnalysisReport report = analyse_roots({{&set, nullptr}});
  EXPECT_TRUE(findings_with_code(report, "policy-shadowed").empty());
}

// ---------------------------------------------------------------------
// Linter: conflict pass (cross-root only + only-one-applicable)
// ---------------------------------------------------------------------

TEST(LintConflictTest, CrossRootConflictIsAnError) {
  const core::Policy permit = make_policy("permit", core::Effect::kPermit,
                                          "alice", "doc", "read");
  const core::Policy deny = make_policy("deny", core::Effect::kDeny,
                                        "alice", "doc", "read");
  const AnalysisReport report = analyse_roots({{&permit, nullptr}, {&deny, nullptr}});
  const auto conflicts = findings_with_code(report, "modality-conflict");
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0]->severity, Severity::kError);
  EXPECT_FALSE(conflicts[0]->approximate);
  EXPECT_FALSE(report.ok());
  const AttributeKey subj{core::Category::kSubject, core::attrs::kSubjectId};
  EXPECT_EQ(conflicts[0]->witness.at(subj), "alice");
}

TEST(LintConflictTest, ApproximateConflictIsAWarning) {
  core::Policy permit = make_policy("permit", core::Effect::kPermit, "", "doc", "");
  permit.rules[0].condition = core::lit(true);
  const core::Policy deny = make_policy("deny", core::Effect::kDeny, "", "doc", "");
  core::Policy permit_frozen = std::move(permit);
  const AnalysisReport report =
      analyse_roots({{&permit_frozen, nullptr}, {&deny, nullptr}});
  const auto conflicts = findings_with_code(report, "modality-conflict");
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0]->severity, Severity::kWarning);
  EXPECT_TRUE(conflicts[0]->approximate);
  EXPECT_TRUE(report.ok());  // warnings never gate
}

TEST(LintConflictTest, LaterRootReplacesEarlierRootOfSameId) {
  // Two inputs named "x": only the later (deny) tree is analysed, so the
  // earlier permit's conflict with "d" is gone.
  const core::Policy permit = make_policy("x", core::Effect::kPermit, "alice", "doc", "read");
  const core::Policy deny = make_policy("d", core::Effect::kDeny, "alice", "doc", "read");
  const core::Policy replacement =
      make_policy("x", core::Effect::kDeny, "alice", "doc", "read");
  EXPECT_EQ(findings_with_code(analyse_policies({&permit, &deny}), "modality-conflict")
                .size(),
            1u);
  EXPECT_TRUE(findings_with_code(analyse_policies({&permit, &deny, &replacement}),
                                 "modality-conflict")
                  .empty());
}

TEST(LintConflictTest, WithinTreeOverlapIsNotAConflict) {
  // Inside one tree the combining algorithm resolves the disagreement
  // deterministically — the permit/deny pair must NOT be reported.
  core::PolicySet set;
  set.policy_set_id = "set";
  set.policy_combining = "deny-overrides";
  set.add(make_policy("permit", core::Effect::kPermit, "alice", "doc", "read"));
  set.add(make_policy("deny", core::Effect::kDeny, "alice", "doc", "read"));
  const AnalysisReport report = analyse_roots({{&set, nullptr}});
  EXPECT_TRUE(findings_with_code(report, "modality-conflict").empty());
}

TEST(LintConflictTest, OnlyOneApplicableOverlapReported) {
  core::PolicySet set;
  set.policy_set_id = "set";
  set.policy_combining = "only-one-applicable";
  set.add(make_policy("a", core::Effect::kPermit, "", "doc", ""));
  set.add(make_policy("b", core::Effect::kDeny, "", "doc", ""));
  const AnalysisReport report = analyse_roots({{&set, nullptr}});
  const auto overlaps = findings_with_code(report, "only-one-applicable-overlap");
  ASSERT_EQ(overlaps.size(), 1u);
  EXPECT_EQ(overlaps[0]->severity, Severity::kError);
}

TEST(LintConflictTest, OnlyOneApplicableDisjointChildrenAreFine) {
  core::PolicySet set;
  set.policy_set_id = "set";
  set.policy_combining = "only-one-applicable";
  set.add(make_policy("a", core::Effect::kPermit, "", "doc-1", ""));
  set.add(make_policy("b", core::Effect::kDeny, "", "doc-2", ""));
  const AnalysisReport report = analyse_roots({{&set, nullptr}});
  EXPECT_TRUE(findings_with_code(report, "only-one-applicable-overlap").empty());
}

// ---------------------------------------------------------------------
// Linter: reference pass
// ---------------------------------------------------------------------

TEST(ReferenceTest, DanglingReferenceIsAnError) {
  core::PolicySet set;
  set.policy_set_id = "set";
  set.add_reference("no-such-policy");
  const AnalysisReport report = analyse_roots({{&set, nullptr}});
  const auto dangling = findings_with_code(report, "reference-dangling");
  ASSERT_EQ(dangling.size(), 1u);
  EXPECT_EQ(dangling[0]->severity, Severity::kError);
  EXPECT_EQ(dangling[0]->other_root_id, "no-such-policy");
}

TEST(ReferenceTest, WithdrawnReferentIsDistinguished) {
  core::PolicySet set;
  set.policy_set_id = "set";
  set.add_reference("old-policy");
  AnalyzerOptions options;
  options.resolves = [](const std::string&) { return false; };
  options.withdrawn = [](const std::string& id) { return id == "old-policy"; };
  const AnalysisReport report = analyse_roots({{&set, nullptr}}, options);
  ASSERT_EQ(findings_with_code(report, "reference-withdrawn").size(), 1u);
  EXPECT_TRUE(findings_with_code(report, "reference-dangling").empty());
}

TEST(ReferenceTest, ReferenceCycleIsAnError) {
  core::PolicySet a;
  a.policy_set_id = "set-a";
  a.add_reference("set-b");
  core::PolicySet b;
  b.policy_set_id = "set-b";
  b.add_reference("set-a");
  const AnalysisReport report = analyse_roots({{&a, nullptr}, {&b, nullptr}});
  const auto cycles = findings_with_code(report, "reference-cycle");
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0]->severity, Severity::kError);
}

TEST(ReferenceTest, ResolvableAcyclicReferencesAreClean) {
  core::PolicySet set;
  set.policy_set_id = "set";
  set.add_reference("leaf");
  const core::Policy leaf = make_policy("leaf", core::Effect::kPermit, "", "doc", "");
  const AnalysisReport report = analyse_roots({{&set, nullptr}, {&leaf, nullptr}});
  EXPECT_TRUE(findings_with_code(report, "reference-dangling").empty());
  EXPECT_TRUE(findings_with_code(report, "reference-cycle").empty());
}

// ---------------------------------------------------------------------
// Linter: types + vocabulary + dead code
// ---------------------------------------------------------------------

TEST(TypesTest, UnknownConditionFunctionIsAnError) {
  core::Policy p = make_policy("p", core::Effect::kPermit, "", "doc", "");
  p.rules[0].condition = core::make_apply("no-such-function", core::lit(true));
  const AnalysisReport report = analyse_roots({{&p, nullptr}});
  ASSERT_EQ(findings_with_code(report, "unknown-function").size(), 1u);
  EXPECT_FALSE(report.ok());
}

TEST(TypesTest, ArityMismatchIsAnError) {
  core::Policy p = make_policy("p", core::Effect::kPermit, "", "doc", "");
  p.rules[0].condition = core::make_apply("not", core::lit(true), core::lit(true));
  const AnalysisReport report = analyse_roots({{&p, nullptr}});
  ASSERT_EQ(findings_with_code(report, "function-arity").size(), 1u);
}

TEST(TypesTest, UnknownCombiningAlgorithmIsAnError) {
  core::Policy p = make_policy("p", core::Effect::kPermit, "", "doc", "");
  p.rule_combining = "majority-vote";
  const AnalysisReport report = analyse_roots({{&p, nullptr}});
  ASSERT_EQ(findings_with_code(report, "unknown-combining-algorithm").size(), 1u);
}

TEST(TypesTest, UnknownMatchFunctionIsAnError) {
  core::Policy p;
  p.policy_id = "p";
  core::AnyOf any;
  core::AllOf all;
  core::Match m;
  m.function_id = "fuzzy-match";
  m.literal = core::AttributeValue("doc");
  m.category = core::Category::kResource;
  m.attribute_id = core::attrs::kResourceId;
  all.matches.push_back(std::move(m));
  any.all_ofs.push_back(std::move(all));
  p.target_spec.any_ofs.push_back(std::move(any));
  p.rules.push_back(make_rule("r", core::Effect::kPermit));
  const AnalysisReport report = analyse_roots({{&p, nullptr}});
  ASSERT_EQ(findings_with_code(report, "unknown-match-function").size(), 1u);
}

TEST(VocabularyTest, UnknownAttributeIsAWarning) {
  core::Policy p = make_policy("p", core::Effect::kPermit, "", "doc", "");
  core::Target t;
  t.require(core::Category::kSubject, "clearance-level",
            core::AttributeValue("secret"));
  p.rules[0].target = std::move(t);
  const std::set<std::string, std::less<>> vocabulary{
      core::attrs::kSubjectId, core::attrs::kResourceId, core::attrs::kActionId};
  AnalyzerOptions options;
  options.vocabulary = &vocabulary;
  const AnalysisReport report = analyse_roots({{&p, nullptr}}, options);
  const auto unknown = findings_with_code(report, "unknown-attribute");
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0]->severity, Severity::kWarning);
  EXPECT_NE(unknown[0]->message.find("clearance-level"), std::string::npos);
}

TEST(DeadCodeTest, ConstantFalseConditionIsDeadCode) {
  core::Policy p = make_policy("p", core::Effect::kPermit, "", "doc", "");
  p.rules[0].condition = core::lit(false);
  const AnalysisReport report = analyse_roots({{&p, nullptr}});
  const auto dead = findings_with_code(report, "condition-always-false");
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0]->severity, Severity::kWarning);
  EXPECT_TRUE(is_unreachability_code(dead[0]->code));
}

TEST(DeadCodeTest, ConstantTrueConditionIsRedundant) {
  core::Policy p = make_policy("p", core::Effect::kPermit, "", "doc", "");
  p.rules[0].condition = core::make_apply("not", core::lit(false));
  const AnalysisReport report = analyse_roots({{&p, nullptr}});
  const auto redundant = findings_with_code(report, "condition-always-true");
  ASSERT_EQ(redundant.size(), 1u);
  EXPECT_EQ(redundant[0]->severity, Severity::kInfo);
}

TEST(DeadCodeTest, DesignatorConditionIsNotFolded) {
  core::Policy p = make_policy("p", core::Effect::kPermit, "", "doc", "");
  p.rules[0].condition = core::make_apply(
      "string-equal",
      core::designator(core::Category::kSubject, core::attrs::kSubjectId,
                       core::DataType::kString),
      core::lit("alice"));
  const AnalysisReport report = analyse_roots({{&p, nullptr}});
  EXPECT_TRUE(findings_with_code(report, "condition-always-false").empty());
  EXPECT_TRUE(findings_with_code(report, "condition-always-true").empty());
}

TEST(DeadCodeTest, ContradictoryExactTargetIsNeverApplicable) {
  core::Policy p = make_policy("p", core::Effect::kPermit, "", "a", "");
  core::Target t;
  t.require(core::Category::kResource, core::attrs::kResourceId,
            core::AttributeValue("b"));
  p.rules[0].target = std::move(t);
  const AnalysisReport report = analyse_roots({{&p, nullptr}});
  const auto dead = findings_with_code(report, "rule-never-applicable");
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_TRUE(is_unreachability_code(dead[0]->code));
}

// ---------------------------------------------------------------------
// Linter: report caps + store entry point
// ---------------------------------------------------------------------

TEST(ReportCapTest, SeverityCountsStayExactPastTheCap) {
  // Three cross-root exact conflicts but a cap of one materialised
  // finding per pass: error_count still reports all three.
  const core::Policy d1 = make_policy("d1", core::Effect::kDeny, "alice", "doc", "read");
  const core::Policy d2 = make_policy("d2", core::Effect::kDeny, "alice", "doc", "read");
  const core::Policy d3 = make_policy("d3", core::Effect::kDeny, "alice", "doc", "read");
  const core::Policy permit = make_policy("permit", core::Effect::kPermit,
                                          "alice", "doc", "read");
  AnalyzerOptions options;
  options.max_findings_per_pass = 1;
  const AnalysisReport report = analyse_roots(
      {{&permit, nullptr}, {&d1, nullptr}, {&d2, nullptr}, {&d3, nullptr}}, options);
  EXPECT_EQ(report.error_count, 3u);
  EXPECT_EQ(report.suppressed, 2u);
  EXPECT_EQ(findings_with_code(report, "modality-conflict").size(), 1u);
  EXPECT_EQ(findings_with_code(report, "findings-truncated").size(), 1u);
  EXPECT_FALSE(report.ok());
}

TEST(AnalyseStoreTest, ResolvesReferencesAgainstTheStore) {
  core::PolicyStore store;
  store.add(make_policy("leaf", core::Effect::kPermit, "", "doc", ""));
  core::PolicySet set;
  set.policy_set_id = "set";
  set.add_reference("leaf");
  set.add_reference("missing");
  store.add(std::move(set));
  const AnalysisReport report = analyse_store(store);
  const auto dangling = findings_with_code(report, "reference-dangling");
  ASSERT_EQ(dangling.size(), 1u);
  EXPECT_EQ(dangling[0]->other_root_id, "missing");
}

// ---------------------------------------------------------------------
// IncrementalAnalysis: stage / commit / erase
// ---------------------------------------------------------------------

TEST(IncrementalAnalysisTest, StageCountsCandidateWithoutChangingTheIndex) {
  IncrementalAnalysis index;
  const AnalyzerOptions options;
  const core::Policy permit = make_policy("permit", core::Effect::kPermit,
                                          "alice", "doc", "read");
  const core::Policy deny = make_policy("deny", core::Effect::kDeny, "alice", "doc", "read");
  index.commit(index.stage(permit, options), options);

  const IncrementalAnalysis::Staged staged = index.stage(deny, options);
  EXPECT_EQ(staged.error_count(), 1u);  // its conflict with "permit"
  EXPECT_TRUE(index.report(options).ok());
}

TEST(IncrementalAnalysisTest, CommitReplacesAndEraseRemovesConflicts) {
  IncrementalAnalysis index;
  const AnalyzerOptions options;
  const core::Policy permit = make_policy("p", core::Effect::kPermit, "alice", "doc", "read");
  const core::Policy deny = make_policy("d", core::Effect::kDeny, "alice", "doc", "read");
  const core::Policy deny_elsewhere =
      make_policy("d", core::Effect::kDeny, "alice", "other-doc", "read");
  index.commit(index.stage(permit, options), options);
  index.commit(index.stage(deny, options), options);
  EXPECT_EQ(findings_with_code(index.report(options), "modality-conflict").size(), 1u);

  index.commit(index.stage(deny_elsewhere, options), options);  // a new version of "d"
  EXPECT_TRUE(index.report(options).ok());
  index.commit(index.stage(deny, options), options);
  index.erase("p", options);
  EXPECT_TRUE(index.report(options).ok());
}

TEST(IncrementalAnalysisTest, StaleStageIsRefused) {
  IncrementalAnalysis index;
  const AnalyzerOptions options;
  const core::Policy a = make_policy("a", core::Effect::kPermit, "", "doc", "");
  const core::Policy b = make_policy("b", core::Effect::kDeny, "", "doc", "");
  IncrementalAnalysis::Staged stale = index.stage(b, options);
  index.commit(index.stage(a, options), options);
  EXPECT_THROW(index.commit(std::move(stale), options), std::logic_error);
  EXPECT_TRUE(index.report(options).findings.empty());
}

TEST(IncrementalAnalysisTest, ReferrersFollowTheirReferent) {
  IncrementalAnalysis index;
  const AnalyzerOptions options;
  core::PolicySet set;
  set.policy_set_id = "set";
  set.add_reference("leaf");
  const core::Policy leaf = make_policy("leaf", core::Effect::kPermit, "", "doc", "");
  index.commit(index.stage(set, options), options);
  EXPECT_EQ(findings_with_code(index.report(options), "reference-dangling").size(), 1u);
  index.commit(index.stage(leaf, options), options);
  EXPECT_TRUE(findings_with_code(index.report(options), "reference-dangling").empty());
  index.erase("leaf", options);
  EXPECT_EQ(findings_with_code(index.report(options), "reference-dangling").size(), 1u);
}

// ---------------------------------------------------------------------
// Scaling smoke: a 2k-policy domain-structured corpus lints in bounded
// time with capped materialisation and exact severity totals.
// ---------------------------------------------------------------------

TEST(ScalingTest, TwoThousandPolicyCorpusLints) {
  const auto store = bench::make_domain_policy_store(8, 2000, 3);
  AnalyzerOptions options;
  options.max_findings_per_pass = 100;
  const AnalysisReport report = analyse_store(*store, options);
  // The generated corpus has massive cross-root permit/deny overlap
  // (every same-domain same-role pair): counts stay exact, the
  // materialised list stays capped.
  EXPECT_GT(report.error_count, 1000u);
  EXPECT_LE(findings_with_code(report, "modality-conflict").size(), 100u);
  EXPECT_EQ(report.suppressed + 100u, report.error_count + report.warning_count);
  // No shadowing or dead-code noise on the generated shape.
  EXPECT_TRUE(findings_with_code(report, "rule-shadowed").empty());
  EXPECT_TRUE(findings_with_code(report, "rule-never-applicable").empty());
}

}  // namespace
}  // namespace mdac::analysis
