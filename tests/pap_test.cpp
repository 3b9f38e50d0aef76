#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>

#include "analysis/analysis.hpp"
#include "core/compiled.hpp"
#include "core/expression.hpp"
#include "core/pdp.hpp"
#include "core/serialization.hpp"
#include "pap/admin_guard.hpp"
#include "pap/repository.hpp"
#include "pap/syndication.hpp"
#include "runtime/snapshot.hpp"
#include "support/batch_analysis.hpp"

namespace mdac::pap {
namespace {

std::string simple_policy_doc(const std::string& id, const std::string& resource,
                              core::Effect effect = core::Effect::kPermit) {
  core::Policy p;
  p.policy_id = id;
  p.target_spec.require(core::Category::kResource, core::attrs::kResourceId,
                        core::AttributeValue(resource));
  core::Rule r;
  r.id = id + "-rule";
  r.effect = effect;
  p.rules.push_back(std::move(r));
  return core::node_to_string(p);
}

// ---------------------------------------------------------------------
// Repository lifecycle
// ---------------------------------------------------------------------

TEST(RepositoryTest, SubmitIssueWithdrawLifecycle) {
  common::ManualClock clock(100);
  PolicyRepository repo(clock);

  ASSERT_TRUE(repo.submit(simple_policy_doc("p1", "doc"), "alice"));
  EXPECT_EQ(repo.latest("p1")->status, Lifecycle::kDraft);
  EXPECT_EQ(repo.issued("p1"), nullptr);

  ASSERT_TRUE(repo.issue("p1", "bob"));
  EXPECT_EQ(repo.issued("p1")->version, 1);

  ASSERT_TRUE(repo.withdraw("p1", "carol"));
  EXPECT_EQ(repo.issued("p1"), nullptr);
  EXPECT_EQ(repo.latest("p1")->status, Lifecycle::kWithdrawn);
}

TEST(RepositoryTest, RejectsMalformedDocuments) {
  common::ManualClock clock;
  PolicyRepository repo(clock);
  EXPECT_FALSE(repo.submit("not xml at all", "alice"));
  EXPECT_FALSE(repo.submit("<NotAPolicy/>", "alice"));
  EXPECT_EQ(repo.policy_ids().size(), 0u);
}

TEST(RepositoryTest, NewVersionSupersedesIssued) {
  common::ManualClock clock;
  PolicyRepository repo(clock);
  ASSERT_TRUE(repo.submit(simple_policy_doc("p1", "doc"), "alice"));
  ASSERT_TRUE(repo.issue("p1", "alice"));
  // v2 as draft, then issued: v1 must be auto-withdrawn.
  ASSERT_TRUE(repo.submit(simple_policy_doc("p1", "doc2"), "alice"));
  EXPECT_EQ(repo.latest("p1")->version, 2);
  EXPECT_EQ(repo.issued("p1")->version, 1);  // still v1 until issue
  ASSERT_TRUE(repo.issue("p1", "alice"));
  EXPECT_EQ(repo.issued("p1")->version, 2);
  EXPECT_EQ(repo.all_issued().size(), 1u);
}

TEST(RepositoryTest, CannotIssueNonDraftOrUnknown) {
  common::ManualClock clock;
  PolicyRepository repo(clock);
  EXPECT_FALSE(repo.issue("ghost", "alice"));
  ASSERT_TRUE(repo.submit(simple_policy_doc("p1", "doc"), "alice"));
  ASSERT_TRUE(repo.issue("p1", "alice"));
  EXPECT_FALSE(repo.issue("p1", "alice"));  // latest is issued, not draft
  EXPECT_FALSE(repo.withdraw("ghost", "alice"));
}

TEST(RepositoryTest, BoundedAuditRingKeepsSequenceContinuity) {
  common::ManualClock clock(100);
  PapConfig config;
  config.audit_capacity = 3;
  PolicyRepository repo(clock, config);

  // 3 policies x (submit + issue) = 6 entries through a 3-entry ring.
  for (int i = 1; i <= 3; ++i) {
    const std::string id = "p" + std::to_string(i);
    ASSERT_TRUE(repo.submit(simple_policy_doc(id, "doc"), "alice"));
    ASSERT_TRUE(repo.issue(id, "bob"));
  }

  const auto& log = repo.audit_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(repo.dropped_audit_entries(), 3u);

  // The retained suffix stays gap-free and monotone across the wrap: the
  // oldest surviving entry's sequence equals (total recorded − retained
  // + 1), so the drop is detectable rather than silent.
  EXPECT_EQ(log.front().sequence, 4u);
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_EQ(log[i].sequence, log[i - 1].sequence + 1);
  }
  EXPECT_EQ(log.back().sequence, 6u);

  // An unbounded repository (the default) never drops and numbers from 1.
  PolicyRepository unbounded(clock);
  ASSERT_TRUE(unbounded.submit(simple_policy_doc("q1", "doc"), "alice"));
  ASSERT_TRUE(unbounded.issue("q1", "bob"));
  EXPECT_EQ(unbounded.dropped_audit_entries(), 0u);
  EXPECT_EQ(unbounded.audit_log().front().sequence, 1u);
  EXPECT_EQ(unbounded.audit_log().back().sequence, 2u);
}

TEST(RepositoryTest, AuditLogRecordsEverything) {
  common::ManualClock clock(1000);
  PolicyRepository repo(clock);
  ASSERT_TRUE(repo.submit(simple_policy_doc("p1", "doc"), "alice"));
  clock.advance(10);
  ASSERT_TRUE(repo.issue("p1", "bob"));
  clock.advance(10);
  ASSERT_TRUE(repo.withdraw("p1", "carol"));

  const auto& log = repo.audit_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].operation, "submit");
  EXPECT_EQ(log[0].actor, "alice");
  EXPECT_EQ(log[0].at, 1000);
  EXPECT_EQ(log[1].operation, "issue");
  EXPECT_EQ(log[2].operation, "withdraw");
  EXPECT_EQ(log[2].at, 1020);
  // Content hashes are stable for identical documents.
  EXPECT_EQ(log[0].content_hash, log[1].content_hash);
  EXPECT_FALSE(log[0].content_hash.empty());
}

// ---------------------------------------------------------------------
// Issue-time lint and the lint gate
// ---------------------------------------------------------------------

TEST(RepositoryTest, IssueLintReportsCrossPolicyConflict) {
  common::ManualClock clock;
  PolicyRepository repo(clock);  // default config: lint on, gate off
  ASSERT_TRUE(repo.submit(simple_policy_doc("allow-doc", "doc"), "alice"));
  ASSERT_TRUE(repo.issue("allow-doc", "alice"));

  ASSERT_TRUE(repo.submit(
      simple_policy_doc("deny-doc", "doc", core::Effect::kDeny), "alice"));
  ASSERT_TRUE(repo.issue("deny-doc", "alice"));  // gate off: issued anyway
  ASSERT_NE(repo.issued("deny-doc"), nullptr);

  const auto report = repo.lint_report();
  ASSERT_NE(report, nullptr);
  EXPECT_GT(report->error_count, 0u);
  bool conflict_found = false;
  for (const analysis::Finding& f : report->findings) {
    if (f.code == "modality-conflict") conflict_found = true;
  }
  EXPECT_TRUE(conflict_found);

  // The lint outcome is audited against the candidate.
  bool lint_audited = false;
  for (const AuditEntry& entry : repo.audit_log()) {
    if (entry.operation == "lint" && entry.policy_id == "deny-doc") {
      lint_audited = true;
    }
  }
  EXPECT_TRUE(lint_audited);
}

TEST(RepositoryTest, LintGateRefusesConflictingIssueAndAuditsIt) {
  common::ManualClock clock;
  PapConfig config;
  config.lint_gate = true;
  PolicyRepository repo(clock, config);
  ASSERT_TRUE(repo.submit(simple_policy_doc("allow-doc", "doc"), "alice"));
  ASSERT_TRUE(repo.issue("allow-doc", "alice"));

  ASSERT_TRUE(repo.submit(
      simple_policy_doc("deny-doc", "doc", core::Effect::kDeny), "alice"));
  const std::uint64_t revision_before = repo.revision();
  const RepoOutcome outcome = repo.issue("deny-doc", "mallory");
  EXPECT_FALSE(outcome);
  EXPECT_NE(outcome.reason.find("lint gate"), std::string::npos);

  // Refusal leaves the policy state unchanged — still a draft, never
  // issued — and the only repository change is the refusal landing on
  // the audit trail (record_audit advances revision()).
  EXPECT_EQ(repo.issued("deny-doc"), nullptr);
  EXPECT_EQ(repo.latest("deny-doc")->status, Lifecycle::kDraft);
  EXPECT_EQ(repo.revision(), revision_before + 1);
  bool refusal_audited = false;
  for (const AuditEntry& entry : repo.audit_log()) {
    if (entry.operation == "lint-refused" && entry.policy_id == "deny-doc" &&
        entry.actor == "mallory") {
      refusal_audited = true;
    }
  }
  EXPECT_TRUE(refusal_audited);

  // A non-conflicting policy still issues through the gate.
  ASSERT_TRUE(repo.submit(simple_policy_doc("other", "other-doc"), "alice"));
  EXPECT_TRUE(repo.issue("other", "alice"));
}

TEST(RepositoryTest, CleanIssueLeavesAuditLogQuiet) {
  // A lint that finds nothing about the candidate must not add audit
  // noise — AuditLogRecordsEverything's 3-entry contract stays true.
  common::ManualClock clock;
  PolicyRepository repo(clock);
  ASSERT_TRUE(repo.submit(simple_policy_doc("p1", "doc"), "alice"));
  ASSERT_TRUE(repo.issue("p1", "alice"));
  EXPECT_EQ(repo.audit_log().size(), 2u);  // submit + issue, no "lint"
  const auto report = repo.lint_report();
  ASSERT_NE(report, nullptr);
  EXPECT_TRUE(report->ok());
}

TEST(RepositoryTest, LintOnIssueCanBeDisabled) {
  common::ManualClock clock;
  PapConfig config;
  config.lint_on_issue = false;
  PolicyRepository repo(clock, config);
  ASSERT_TRUE(repo.submit(simple_policy_doc("allow-doc", "doc"), "alice"));
  ASSERT_TRUE(repo.issue("allow-doc", "alice"));
  EXPECT_EQ(repo.lint_report(), nullptr);
}

/// A policy on `resource` whose second rule repeats the first under
/// first-applicable: a "rule-shadowed" warning, which the gate lets pass.
std::string shadowing_policy_doc(const std::string& id, const std::string& resource) {
  core::Policy p;
  p.policy_id = id;
  p.rule_combining = "first-applicable";
  p.target_spec.require(core::Category::kResource, core::attrs::kResourceId,
                        core::AttributeValue(resource));
  for (const char* rule_id : {"first", "again"}) {
    core::Rule r;
    r.id = id + "-" + rule_id;
    r.effect = core::Effect::kPermit;
    p.rules.push_back(std::move(r));
  }
  return core::node_to_string(p);
}

/// Every field of a finding, for set comparison.
auto finding_fields(const analysis::Finding& f) {
  return std::tie(f.pass, f.severity, f.code, f.root_id, f.path, f.other_root_id,
                  f.other_path, f.message, f.witness, f.approximate);
}

std::vector<analysis::Finding> sorted_findings(const analysis::AnalysisReport& report) {
  std::vector<analysis::Finding> out = report.findings;
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return finding_fields(a) < finding_fields(b);
  });
  return out;
}

bool same_findings(const analysis::AnalysisReport& a, const analysis::AnalysisReport& b) {
  const auto x = sorted_findings(a);
  const auto y = sorted_findings(b);
  return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                    [](const auto& l, const auto& r) {
                      return finding_fields(l) == finding_fields(r);
                    });
}

TEST(RepositoryTest, LintGateRefusalLeavesLintReportUnchanged) {
  common::ManualClock clock;
  PapConfig config;
  config.lint_gate = true;
  PolicyRepository repo(clock, config);
  ASSERT_TRUE(repo.submit(simple_policy_doc("allow-doc", "doc"), "alice"));
  ASSERT_TRUE(repo.issue("allow-doc", "alice"));
  ASSERT_TRUE(repo.submit(shadowing_policy_doc("other", "other-doc"), "alice"));
  ASSERT_TRUE(repo.issue("other", "alice"));  // a warning passes the gate
  const auto before = repo.lint_report();
  ASSERT_NE(before, nullptr);
  ASSERT_EQ(before->warning_count, 1u);

  // Version 2 of "other" denies "doc": an exact conflict with allow-doc.
  ASSERT_TRUE(repo.submit(simple_policy_doc("other", "doc", core::Effect::kDeny), "bob"));
  EXPECT_FALSE(repo.issue("other", "bob"));
  ASSERT_EQ(repo.issued("other")->version, 1);

  // The report still describes the issued corpus: version 1's warning,
  // no trace of the refused candidate's conflict.
  const auto after = repo.lint_report();
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->error_count, before->error_count);
  EXPECT_EQ(after->warning_count, before->warning_count);
  EXPECT_EQ(after->info_count, before->info_count);
  EXPECT_TRUE(same_findings(*after, *before));
  for (const analysis::Finding& f : after->findings) {
    EXPECT_NE(f.code, "modality-conflict") << f.message;
  }
}

TEST(RepositoryTest, WithdrawnPolicyLeavesLintReport) {
  common::ManualClock clock;
  PolicyRepository repo(clock);  // gate off: the conflicting pair issues
  runtime::SnapshotPublisher publisher;
  ASSERT_TRUE(repo.submit(simple_policy_doc("allow-doc", "doc"), "alice"));
  ASSERT_TRUE(repo.issue("allow-doc", "alice"));
  ASSERT_TRUE(repo.submit(
      simple_policy_doc("deny-doc", "doc", core::Effect::kDeny), "alice"));
  ASSERT_TRUE(repo.issue("deny-doc", "alice"));
  ASSERT_GT(repo.lint_report()->error_count, 0u);

  ASSERT_TRUE(repo.withdraw("deny-doc", "alice"));
  const auto report = repo.lint_report();
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->error_count, 0u);
  for (const analysis::Finding& f : report->findings) {
    EXPECT_NE(f.root_id, "deny-doc") << f.code;
    EXPECT_NE(f.other_root_id, "deny-doc") << f.code;
  }
  // The next publication ships the report without it.
  const auto snapshot = publisher.publish_from(repo);
  ASSERT_NE(snapshot->findings(), nullptr);
  for (const analysis::Finding& f : snapshot->findings()->findings) {
    EXPECT_NE(f.root_id, "deny-doc") << f.code;
    EXPECT_NE(f.other_root_id, "deny-doc") << f.code;
  }
}

TEST(RepositoryTest, LintReportMatchesFreshAnalysisOfIssuedTrees) {
  // A set referencing a policy that is first unknown, then a draft, then
  // issued, then withdrawn: each status change must reach the set's
  // reference findings, and the report must always equal the reference
  // whole-corpus analysis (tests/support) of what is issued.
  common::ManualClock clock;
  PolicyRepository repo(clock);
  core::PolicySet set;
  set.policy_set_id = "umbrella";
  set.add_node(std::make_unique<core::PolicyReference>("leaf"));
  ASSERT_TRUE(repo.submit(core::node_to_string(set), "alice"));
  ASSERT_TRUE(repo.submit(simple_policy_doc("allow-doc", "doc"), "alice"));
  ASSERT_TRUE(repo.issue("allow-doc", "alice"));
  ASSERT_TRUE(repo.issue("umbrella", "alice"));

  const auto matches_fresh = [&](const char* step, const char* expected_code) {
    std::vector<analysis::AnalysisInput> inputs;
    for (const std::string& id : repo.policy_ids()) {
      if (const auto artifact = repo.compiled(id)) {
        inputs.push_back({&artifact->source(), artifact});
      }
    }
    analysis::AnalyzerOptions options;
    options.resolves = [&](const std::string& id) { return repo.issued(id) != nullptr; };
    options.withdrawn = [&](const std::string& id) {
      return repo.latest(id) != nullptr && repo.issued(id) == nullptr;
    };
    const analysis::AnalysisReport fresh = test::batch_analyse_roots(inputs, options);
    const auto report = repo.lint_report();
    ASSERT_NE(report, nullptr) << step;
    EXPECT_TRUE(same_findings(*report, fresh)) << step;
    EXPECT_EQ(report->error_count, fresh.error_count) << step;
    bool found = expected_code == nullptr;
    for (const analysis::Finding& f : report->findings) {
      if (expected_code != nullptr && f.code == expected_code) found = true;
    }
    EXPECT_TRUE(found) << step << ": no " << expected_code;
  };
  matches_fresh("leaf unknown", "reference-dangling");
  ASSERT_TRUE(repo.submit(simple_policy_doc("leaf", "leaf-doc"), "alice"));
  matches_fresh("leaf drafted", "reference-withdrawn");
  ASSERT_TRUE(repo.issue("leaf", "alice"));
  matches_fresh("leaf issued", nullptr);
  ASSERT_TRUE(repo.withdraw("leaf", "alice"));
  matches_fresh("leaf withdrawn", "reference-withdrawn");
}

TEST(RepositoryTest, LoadIntoPdpStore) {
  common::ManualClock clock;
  PolicyRepository repo(clock);
  ASSERT_TRUE(repo.submit(simple_policy_doc("p1", "doc"), "a"));
  ASSERT_TRUE(repo.submit(simple_policy_doc("p2", "doc2"), "a"));
  ASSERT_TRUE(repo.issue("p1", "a"));
  // p2 stays a draft: it must not reach the PDP.

  core::PolicyStore store;
  EXPECT_EQ(repo.load_into(&store), 1u);
  EXPECT_NE(store.find("p1"), nullptr);
  EXPECT_EQ(store.find("p2"), nullptr);
}

// ---------------------------------------------------------------------
// Compile-on-issue (compiled policy programs, ISSUE 3)
// ---------------------------------------------------------------------

TEST(RepositoryTest, CompileOnIssueSharedAcrossPdpReplicas) {
  common::ManualClock clock;
  PolicyRepository repo(clock);
  ASSERT_TRUE(repo.submit(simple_policy_doc("p1", "doc"), "a"));
  EXPECT_EQ(repo.compiled("p1"), nullptr);  // drafts are not compiled

  ASSERT_TRUE(repo.issue("p1", "a"));
  const auto artifact = repo.compiled("p1");
  ASSERT_NE(artifact, nullptr);
  EXPECT_EQ(artifact->id(), "p1");
  EXPECT_EQ(artifact->stats().rules, 1u);

  // Every PDP replica loading this repository executes the *same*
  // compiled program — the artifact is shared, not re-derived per store.
  core::PolicyStore store_a;
  core::PolicyStore store_b;
  ASSERT_EQ(repo.load_into(&store_a), 1u);
  ASSERT_EQ(repo.load_into(&store_b), 1u);
  EXPECT_EQ(store_a.compiled("p1").get(), artifact.get());
  EXPECT_EQ(store_b.compiled("p1").get(), artifact.get());

  // Recompile-on-update: issuing a new version replaces the artifact...
  ASSERT_TRUE(repo.submit(simple_policy_doc("p1", "doc2"), "a"));
  ASSERT_TRUE(repo.issue("p1", "a"));
  const auto recompiled = repo.compiled("p1");
  ASSERT_NE(recompiled, nullptr);
  EXPECT_NE(recompiled.get(), artifact.get());

  // ...and withdrawing removes it.
  ASSERT_TRUE(repo.withdraw("p1", "a"));
  EXPECT_EQ(repo.compiled("p1"), nullptr);
}

// ---------------------------------------------------------------------
// PolicySet tree compilation + reference recompilation (ISSUE 5)
// ---------------------------------------------------------------------

std::string referencing_set_doc(const std::string& set_id,
                                const std::vector<std::string>& refs) {
  core::PolicySet set;
  set.policy_set_id = set_id;
  set.policy_combining = "deny-overrides";
  for (const std::string& r : refs) set.add_reference(r);
  return core::node_to_string(set);
}

TEST(RepositoryTest, PolicySetCompileOnIssueSharedAcrossPdpReplicas) {
  common::ManualClock clock;
  PolicyRepository repo(clock);
  ASSERT_TRUE(repo.submit(simple_policy_doc("leaf", "doc"), "a"));
  ASSERT_TRUE(repo.issue("leaf", "a"));
  ASSERT_TRUE(repo.submit(referencing_set_doc("outer", {"leaf"}), "a"));
  ASSERT_TRUE(repo.issue("outer", "a"));

  const auto artifact = repo.compiled("outer");
  ASSERT_NE(artifact, nullptr);
  EXPECT_EQ(artifact->stats().policy_sets, 1u);
  EXPECT_EQ(artifact->stats().references, 1u);

  core::PolicyStore store_a;
  core::PolicyStore store_b;
  ASSERT_EQ(repo.load_into(&store_a), 2u);
  ASSERT_EQ(repo.load_into(&store_b), 2u);
  EXPECT_EQ(store_a.compiled("outer").get(), artifact.get());
  EXPECT_EQ(store_b.compiled("outer").get(), artifact.get());
}

TEST(RepositoryTest, ReferencedPolicyUpdateRecompilesDependentSets) {
  common::ManualClock clock;
  PolicyRepository repo(clock);
  ASSERT_TRUE(repo.submit(simple_policy_doc("leaf", "doc", core::Effect::kPermit), "a"));
  ASSERT_TRUE(repo.issue("leaf", "a"));
  ASSERT_TRUE(repo.submit(referencing_set_doc("outer", {"leaf"}), "a"));
  ASSERT_TRUE(repo.issue("outer", "a"));
  // Transitive dependent: a set referencing the referencing set.
  ASSERT_TRUE(repo.submit(referencing_set_doc("outer2", {"outer"}), "a"));
  ASSERT_TRUE(repo.issue("outer2", "a"));

  const auto outer_v1 = repo.compiled("outer");
  const auto outer2_v1 = repo.compiled("outer2");
  ASSERT_NE(outer_v1, nullptr);
  ASSERT_NE(outer2_v1, nullptr);

  {
    auto store = std::make_shared<core::PolicyStore>();
    ASSERT_EQ(repo.load_into(store.get()), 3u);
    core::Pdp pdp(store);
    EXPECT_TRUE(pdp.evaluate(core::RequestContext::make("u", "doc", "read")).is_permit());
  }

  // Re-issue the referenced policy as a deny: both dependent artifacts
  // must be invalidated/recompiled within the same issue() call — i.e.
  // before any snapshot built from this repository publishes.
  ASSERT_TRUE(repo.submit(simple_policy_doc("leaf", "doc", core::Effect::kDeny), "a"));
  ASSERT_TRUE(repo.issue("leaf", "a"));
  const auto outer_v2 = repo.compiled("outer");
  const auto outer2_v2 = repo.compiled("outer2");
  ASSERT_NE(outer_v2, nullptr);
  ASSERT_NE(outer2_v2, nullptr);
  EXPECT_NE(outer_v2.get(), outer_v1.get());
  EXPECT_NE(outer2_v2.get(), outer2_v1.get());

  // The recompilations ride the audited administrative path.
  std::size_t recompiles = 0;
  for (const AuditEntry& e : repo.audit_log()) {
    if (e.operation == "recompile") ++recompiles;
  }
  EXPECT_GE(recompiles, 2u);

  // A replica loading the repository now denies through the set tree.
  auto store = std::make_shared<core::PolicyStore>();
  ASSERT_EQ(repo.load_into(store.get()), 3u);
  core::Pdp pdp(store);
  EXPECT_TRUE(pdp.evaluate(core::RequestContext::make("u", "doc", "read")).is_deny());
}

TEST(RepositoryTest, WithdrawnReferenceRecompilesWithDiagnostics) {
  common::ManualClock clock;
  PolicyRepository repo(clock);
  ASSERT_TRUE(repo.submit(simple_policy_doc("leaf", "doc"), "a"));
  ASSERT_TRUE(repo.issue("leaf", "a"));
  ASSERT_TRUE(repo.submit(referencing_set_doc("outer", {"leaf"}), "a"));
  ASSERT_TRUE(repo.issue("outer", "a"));
  const auto before = repo.compiled("outer");
  ASSERT_NE(before, nullptr);
  EXPECT_TRUE(before->diagnostics().empty());

  ASSERT_TRUE(repo.withdraw("leaf", "a"));
  const auto after = repo.compiled("outer");
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after.get(), before.get());
  // The fresh artifact's diagnostics record the dangling reference.
  bool saw = false;
  for (const std::string& d : after->diagnostics()) {
    if (d.find("leaf") != std::string::npos) saw = true;
  }
  EXPECT_TRUE(saw);

  // The withdrawn permit is unreachable: only the set loads, and its
  // reference no longer resolves.
  auto store = std::make_shared<core::PolicyStore>();
  ASSERT_EQ(repo.load_into(store.get()), 1u);
  core::Pdp pdp(store);
  const core::Decision d = pdp.evaluate(core::RequestContext::make("u", "doc", "read"));
  EXPECT_FALSE(d.is_permit());
  EXPECT_EQ(d.type, core::DecisionType::kIndeterminate);
}

TEST(RepositoryTest, StaleSetArtifactCannotServeWithdrawnPolicy) {
  // The structural backstop behind the recompilation machinery: even an
  // artifact compiled while the referenced policy existed resolves its
  // references through the *live* store per request, so a stale set
  // program can never serve a withdrawn rule.
  core::PolicySet outer;
  outer.policy_set_id = "outer";
  outer.policy_combining = "deny-overrides";
  outer.add_reference("leaf");

  core::Policy leaf;
  leaf.policy_id = "leaf";
  core::Rule r;
  r.id = "permit-all";
  r.effect = core::Effect::kPermit;
  leaf.rules.push_back(std::move(r));

  const auto stale = core::CompiledPolicyTree::compile(outer);
  const core::RequestContext req = core::RequestContext::make("u", "doc", "read");

  {
    auto with_leaf = std::make_shared<core::PolicyStore>();
    with_leaf->add(leaf.clone());
    with_leaf->add(outer.clone_node(), stale);
    core::Pdp pdp(with_leaf);
    EXPECT_TRUE(pdp.evaluate(req).is_permit());
  }
  {
    auto without_leaf = std::make_shared<core::PolicyStore>();
    without_leaf->add(outer.clone_node(), stale);
    core::Pdp pdp(without_leaf);
    const core::Decision d = pdp.evaluate(req);
    EXPECT_FALSE(d.is_permit());
    EXPECT_EQ(d.type, core::DecisionType::kIndeterminate);
  }
}

// ---------------------------------------------------------------------
// Issue-time vocabulary auto-extraction (ISSUE 3 satellite)
// ---------------------------------------------------------------------

TEST(RepositoryTest, IssueAutoExtractsAttributeVocabulary) {
  common::ManualClock clock;
  PolicyRepository repo(clock);
  repo.set_vocabulary_domain("hospital");

  // A policy referencing attributes in its target, a rule target, a
  // condition and an obligation assignment.
  core::Policy p;
  p.policy_id = "records";
  p.target_spec.require(core::Category::kResource, core::attrs::kResourceId,
                        core::AttributeValue("patient-records"));
  core::Rule r;
  r.id = "records-rule";
  r.effect = core::Effect::kPermit;
  core::Target t;
  t.require(core::Category::kSubject, "ward-role", core::AttributeValue("doctor"));
  r.target = std::move(t);
  r.condition = core::make_apply(
      "string-equal",
      core::designator(core::Category::kEnvironment, "shift-phase",
                       core::DataType::kString),
      core::lit("on-call"));
  core::ObligationExpr ob;
  ob.id = "log-access";
  ob.fulfill_on = core::Effect::kPermit;
  ob.assignments.push_back(core::AttributeAssignmentExpr{
      "who", core::designator(core::Category::kSubject, "staff-id",
                              core::DataType::kString)});
  r.obligations.push_back(std::move(ob));
  p.rules.push_back(std::move(r));

  ASSERT_TRUE(repo.submit(core::node_to_string(p), "admin"));
  EXPECT_EQ(repo.attribute_allowlist("hospital"), nullptr);  // not yet issued

  ASSERT_TRUE(repo.issue("records", "admin"));

  // The harvested names — target, rule target, condition designator and
  // obligation designator — are now the domain's allowlist, without any
  // register_attribute_vocabulary call.
  const auto* allowlist = repo.attribute_allowlist("hospital");
  ASSERT_NE(allowlist, nullptr);
  for (const char* name :
       {"resource-id", "ward-role", "shift-phase", "staff-id"}) {
    EXPECT_TRUE(repo.attribute_allowed("hospital", name)) << name;
    EXPECT_TRUE(allowlist->count(name)) << name;
  }
  // The request envelope is always registered alongside the harvested
  // names: a PEP gating on this allowlist must keep accepting the
  // subject/resource/action triple every request carries, even when no
  // policy target happens to mention those attributes.
  for (const char* name : {"subject-id", "action-id", "subject-domain",
                           "resource-domain"}) {
    EXPECT_TRUE(repo.attribute_allowed("hospital", name)) << name;
  }
  EXPECT_FALSE(repo.attribute_allowed("hospital", "never-mentioned"));

  // The registration went through the audited trusted path.
  bool saw_registration = false;
  for (const AuditEntry& e : repo.audit_log()) {
    if (e.operation == "register-attributes" && e.policy_id == "hospital") {
      saw_registration = true;
    }
  }
  EXPECT_TRUE(saw_registration);

  // Issuing another policy appends to the allowlist.
  ASSERT_TRUE(repo.submit(simple_policy_doc("p2", "lab-results"), "admin"));
  ASSERT_TRUE(repo.issue("p2", "admin"));
  EXPECT_TRUE(repo.attribute_allowed("hospital", "resource-id"));
  EXPECT_TRUE(repo.attribute_allowed("hospital", "ward-role"));
}

TEST(RepositoryTest, IssueHarvestsPolicySetVocabularyRecursively) {
  common::ManualClock clock;
  PolicyRepository repo(clock);
  repo.set_vocabulary_domain("lab");

  // A PolicySet whose own target and nested policy reference attributes:
  // a closed allowlist must cover them, or the PEP gate would reject the
  // only requests the set can match.
  core::PolicySet set;
  set.policy_set_id = "lab-set";
  set.target_spec.require(core::Category::kResource, "lab-wing",
                          core::AttributeValue("north"));
  core::Policy inner;
  inner.policy_id = "lab-inner";
  inner.target_spec.require(core::Category::kSubject, "badge-level",
                            core::AttributeValue("2"));
  core::Rule r;
  r.id = "lab-rule";
  r.effect = core::Effect::kPermit;
  inner.rules.push_back(std::move(r));
  set.add(std::move(inner));

  ASSERT_TRUE(repo.submit(core::node_to_string(set), "admin"));
  ASSERT_TRUE(repo.issue("lab-set", "admin"));

  for (const char* name : {"lab-wing", "badge-level", "subject-id", "action-id"}) {
    EXPECT_TRUE(repo.attribute_allowed("lab", name)) << name;
  }
  // Policy sets compile on issue too (ISSUE 5): the whole tree — set
  // target, nested policy, rules — is one artifact.
  const auto artifact = repo.compiled("lab-set");
  ASSERT_NE(artifact, nullptr);
  EXPECT_EQ(artifact->stats().policy_sets, 1u);
  EXPECT_EQ(artifact->stats().compiled_policies, 1u);
  EXPECT_EQ(artifact->stats().rules, 1u);
}

TEST(RepositoryTest, NoVocabularyDomainMeansNoAutoRegistration) {
  common::ManualClock clock;
  PolicyRepository repo(clock);
  ASSERT_TRUE(repo.submit(simple_policy_doc("p1", "doc"), "a"));
  ASSERT_TRUE(repo.issue("p1", "a"));
  EXPECT_EQ(repo.attribute_allowlist(""), nullptr);
  for (const AuditEntry& e : repo.audit_log()) {
    EXPECT_NE(e.operation, "register-attributes");
  }
}

// ---------------------------------------------------------------------
// Admin guard (policies protecting policies)
// ---------------------------------------------------------------------

class AdminGuardTest : public ::testing::Test {
 protected:
  AdminGuardTest() : repo_(clock_) {
    // Admin policy: only "chief-admin" may administer policies; issue is
    // further restricted to the compliance officer for vault policies.
    auto store = std::make_shared<core::PolicyStore>();
    core::Policy admin;
    admin.policy_id = "admin-policy";
    admin.rule_combining = "first-applicable";

    core::Rule chief;
    chief.id = "chief-can-anything";
    chief.effect = core::Effect::kPermit;
    core::Target chief_target;
    chief_target.require(core::Category::kSubject, core::attrs::kSubjectId,
                         core::AttributeValue("chief-admin"));
    chief.target = std::move(chief_target);
    admin.rules.push_back(std::move(chief));

    core::Rule compliance;
    compliance.id = "compliance-can-issue";
    compliance.effect = core::Effect::kPermit;
    core::Target t;
    t.require(core::Category::kSubject, core::attrs::kSubjectId,
              core::AttributeValue("compliance-officer"));
    t.require(core::Category::kAction, core::attrs::kActionId,
              core::AttributeValue("issue"));
    compliance.target = std::move(t);
    admin.rules.push_back(std::move(compliance));

    store->add(std::move(admin));
    guard_ = std::make_unique<GuardedRepository>(
        repo_, std::make_shared<core::Pdp>(store));
  }

  common::ManualClock clock_;
  PolicyRepository repo_;
  std::unique_ptr<GuardedRepository> guard_;
};

TEST_F(AdminGuardTest, AuthorizedAdminSucceeds) {
  EXPECT_TRUE(guard_->submit(simple_policy_doc("p1", "doc"), "chief-admin"));
  EXPECT_TRUE(guard_->issue("p1", "chief-admin"));
  EXPECT_TRUE(guard_->withdraw("p1", "chief-admin"));
}

TEST_F(AdminGuardTest, UnauthorizedActorDenied) {
  const RepoOutcome o = guard_->submit(simple_policy_doc("p1", "doc"), "mallory");
  EXPECT_FALSE(o);
  EXPECT_NE(o.reason.find("denied"), std::string::npos);
  EXPECT_EQ(repo_.policy_ids().size(), 0u);  // nothing stored
}

TEST_F(AdminGuardTest, PartialRightsEnforced) {
  ASSERT_TRUE(guard_->submit(simple_policy_doc("p1", "doc"), "chief-admin"));
  // Compliance officer may issue but not submit or withdraw.
  EXPECT_FALSE(guard_->submit(simple_policy_doc("p2", "doc"), "compliance-officer"));
  EXPECT_TRUE(guard_->issue("p1", "compliance-officer"));
  EXPECT_FALSE(guard_->withdraw("p1", "compliance-officer"));
}

TEST_F(AdminGuardTest, AdminRequestShapeIsStable) {
  const core::RequestContext req =
      GuardedRepository::admin_request("alice", "issue", "p9");
  EXPECT_TRUE(req.get(core::Category::kResource, core::attrs::kResourceId)
                  ->contains(core::AttributeValue("policy:p9")));
  EXPECT_TRUE(req.get(core::Category::kAction, core::attrs::kActionId)
                  ->contains(core::AttributeValue("issue")));
}

// ---------------------------------------------------------------------
// Syndication constraints
// ---------------------------------------------------------------------

TEST(SyndicationConstraintTest, ScopeFiltering) {
  SyndicationConstraint scoped;
  scoped.resource_scope = "domain-a/*";

  const auto in_scope = core::node_from_string(
      simple_policy_doc("p1", "domain-a/records"));
  const auto out_of_scope = core::node_from_string(
      simple_policy_doc("p2", "domain-b/records"));
  EXPECT_TRUE(scoped.accepts(*in_scope));
  EXPECT_FALSE(scoped.accepts(*out_of_scope));

  // An unscoped policy is rejected by a scoped domain.
  core::Policy unscoped;
  unscoped.policy_id = "p3";
  core::Rule r;
  r.id = "r";
  r.effect = core::Effect::kPermit;
  unscoped.rules.push_back(std::move(r));
  EXPECT_FALSE(scoped.accepts(unscoped));

  SyndicationConstraint open;
  EXPECT_TRUE(open.accepts(unscoped));
}

TEST(SyndicationConstraintTest, MaxRulesFiltering) {
  SyndicationConstraint small;
  small.max_rules = 1;
  core::Policy big;
  big.policy_id = "big";
  for (int i = 0; i < 3; ++i) {
    core::Rule r;
    r.id = std::string("r").append(std::to_string(i));
    r.effect = core::Effect::kPermit;
    big.rules.push_back(std::move(r));
  }
  EXPECT_FALSE(small.accepts(big));
  small.max_rules = 3;
  EXPECT_TRUE(small.accepts(big));
}

TEST(SyndicationReportTest, PayloadRoundTrip) {
  const SyndicationReport r{3, 2, 5};
  const auto back = report_from_payload(report_to_payload(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->accepted, 3u);
  EXPECT_EQ(back->rejected, 2u);
  EXPECT_EQ(back->nodes_reached, 5u);
  EXPECT_FALSE(report_from_payload("junk").has_value());
}

// ---------------------------------------------------------------------
// Syndication over the network (Fig 5)
// ---------------------------------------------------------------------

TEST(SyndicationTest, PropagatesThroughHierarchy) {
  net::Simulator sim;
  net::Network network(sim);
  network.set_default_link({5, 0, 0.0});
  common::ManualClock repo_clock;

  // Root with two children; one child has a grandchild.
  PolicyRepository root_repo(repo_clock), child_a_repo(repo_clock),
      child_b_repo(repo_clock), grand_repo(repo_clock);
  SyndicationServer root(network, "pap/root", root_repo, {});
  SyndicationServer child_a(network, "pap/a", child_a_repo, {});
  SyndicationServer child_b(network, "pap/b", child_b_repo, {});
  SyndicationServer grand(network, "pap/a/1", grand_repo, {});
  root.add_child("pap/a");
  root.add_child("pap/b");
  child_a.add_child("pap/a/1");

  std::optional<SyndicationReport> report;
  root.publish(simple_policy_doc("vo-policy", "shared/data"),
               [&](SyndicationReport r) { report = r; });
  sim.run();

  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->nodes_reached, 4u);
  EXPECT_EQ(report->accepted, 4u);
  EXPECT_EQ(report->rejected, 0u);
  // Every repository now has the policy issued.
  for (const PolicyRepository* repo :
       {&root_repo, &child_a_repo, &child_b_repo, &grand_repo}) {
    EXPECT_NE(repo->issued("vo-policy"), nullptr);
  }
}

TEST(SyndicationTest, LocalConstraintsRejectWithoutBlockingPropagation) {
  net::Simulator sim;
  net::Network network(sim);
  network.set_default_link({5, 0, 0.0});
  common::ManualClock repo_clock;

  PolicyRepository root_repo(repo_clock), scoped_repo(repo_clock),
      grand_repo(repo_clock);
  SyndicationServer root(network, "pap/root", root_repo, {});
  SyndicationConstraint scope_b;
  scope_b.resource_scope = "domain-b/*";
  SyndicationServer scoped(network, "pap/scoped", scoped_repo, scope_b);
  SyndicationServer grand(network, "pap/grand", grand_repo, {});
  root.add_child("pap/scoped");
  scoped.add_child("pap/grand");

  std::optional<SyndicationReport> report;
  root.publish(simple_policy_doc("p", "domain-a/data"),
               [&](SyndicationReport r) { report = r; });
  sim.run();

  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->nodes_reached, 3u);
  EXPECT_EQ(report->accepted, 2u);  // root + grand
  EXPECT_EQ(report->rejected, 1u);  // the scoped middle node
  EXPECT_EQ(scoped_repo.issued("p"), nullptr);
  EXPECT_NE(grand_repo.issued("p"), nullptr);  // still propagated past it
}

TEST(SyndicationTest, DeadChildTimesOutGracefully) {
  net::Simulator sim;
  net::Network network(sim);
  network.set_default_link({5, 0, 0.0});
  common::ManualClock repo_clock;

  PolicyRepository root_repo(repo_clock), live_repo(repo_clock),
      dead_repo(repo_clock);
  SyndicationServer root(network, "pap/root", root_repo, {});
  SyndicationServer live(network, "pap/live", live_repo, {});
  SyndicationServer dead(network, "pap/dead", dead_repo, {});
  root.add_child("pap/live");
  root.add_child("pap/dead");
  network.set_node_up("pap/dead", false);

  std::optional<SyndicationReport> report;
  root.publish(simple_policy_doc("p", "x"),
               [&](SyndicationReport r) { report = r; }, /*per_hop_timeout=*/200);
  sim.run();

  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->nodes_reached, 2u);  // root + live only
  EXPECT_EQ(report->accepted, 2u);
  EXPECT_EQ(dead_repo.issued("p"), nullptr);
}

}  // namespace
}  // namespace mdac::pap
