// Integration tests: whole-architecture scenarios exercising many
// modules together, the way the paper's Fig. 1 environment would run.
#include <gtest/gtest.h>

#include <memory>

#include "capability/capability.hpp"
#include "analysis/analysis.hpp"
#include "core/serialization.hpp"
#include "delegation/delegation.hpp"
#include "dependability/replicated_pdp.hpp"
#include "domain/domain.hpp"
#include "models/chinese_wall.hpp"
#include "pap/syndication.hpp"
#include "pep/remote.hpp"
#include "rbac/adapter.hpp"

namespace mdac {
namespace {

// ---------------------------------------------------------------------
// Scenario 1: policy authored at the VO root reaches every domain via
// syndication, is adopted into live PDPs, and governs cross-domain
// requests end to end.
// ---------------------------------------------------------------------

TEST(IntegrationTest, SyndicatedPolicyGovernsCrossDomainAccess) {
  net::Simulator sim;
  net::Network network(sim);
  network.set_default_link({5, 0, 0.0});
  common::ManualClock clock(1'000'000);

  domain::Domain home("home", clock), target("target", clock);
  home.register_user("alice", {{core::attrs::kRole,
                                core::Bag(core::AttributeValue("analyst"))}});
  target.trust_domain(home);

  // VO-wide policy distributed through the Fig-5 hierarchy.
  pap::PolicyRepository root_repo(clock);
  pap::SyndicationServer root(network, "pap/root", root_repo, {});
  pap::SyndicationServer target_pap(network, "pap/target", target.repository(), {});
  root.add_child("pap/target");

  core::Policy shared;
  shared.policy_id = "vo-policy";
  shared.rule_combining = "first-applicable";
  core::Rule permit;
  permit.id = "analysts-read";
  permit.effect = core::Effect::kPermit;
  core::Target t;
  t.require(core::Category::kSubject, core::attrs::kRole,
            core::AttributeValue("analyst"));
  t.require(core::Category::kResource, core::attrs::kResourceId,
            core::AttributeValue("vo-data"));
  t.require(core::Category::kAction, core::attrs::kActionId,
            core::AttributeValue("read"));
  permit.target = std::move(t);
  shared.rules.push_back(std::move(permit));
  core::Rule deny;
  deny.id = "deny";
  deny.effect = core::Effect::kDeny;
  shared.rules.push_back(std::move(deny));

  pap::SyndicationReport report;
  root.publish(core::node_to_string(shared),
               [&](pap::SyndicationReport r) { report = r; });
  sim.run();
  ASSERT_EQ(report.accepted, 2u);

  // The target domain adopts what its PAP received...
  ASSERT_EQ(target.adopt_issued_policies(), 1u);

  // ...and a federated request from `home` is now decidable.
  const auto token = home.issue_identity_assertion("alice", "target", 60'000);
  const auto result = target.handle_cross_domain_request(token, "vo-data", "read");
  EXPECT_TRUE(result.allowed);
  const auto denied = target.handle_cross_domain_request(token, "vo-data", "write");
  EXPECT_FALSE(denied.allowed);  // the syndicated policy only permits reads
}

// ---------------------------------------------------------------------
// Scenario 2: the full pull model with a REPLICATED decision service:
// PEP -> failover dispatcher -> PDP replicas, surviving a crash
// mid-workload.
// ---------------------------------------------------------------------

TEST(IntegrationTest, ReplicatedPullModelSurvivesCrash) {
  net::Simulator sim;
  net::Network network(sim);
  network.set_default_link({5, 0, 0.0});

  auto make_pdp = [] {
    auto store = std::make_shared<core::PolicyStore>();
    core::Policy p;
    p.policy_id = "permit-reads";
    p.rule_combining = "first-applicable";
    core::Rule permit;
    permit.id = "r";
    permit.effect = core::Effect::kPermit;
    core::Target t;
    t.require(core::Category::kAction, core::attrs::kActionId,
              core::AttributeValue("read"));
    permit.target = std::move(t);
    p.rules.push_back(std::move(permit));
    core::Rule deny;
    deny.id = "d";
    deny.effect = core::Effect::kDeny;
    p.rules.push_back(std::move(deny));
    store->add(std::move(p));
    return std::make_shared<core::Pdp>(store);
  };

  dependability::PdpReplica r0(network, "pdp/0", make_pdp());
  dependability::PdpReplica r1(network, "pdp/1", make_pdp());
  dependability::ReplicatedPdpClient dispatcher(
      network, "dispatcher", {"pdp/0", "pdp/1"},
      dependability::DispatchStrategy::kFailover, 100);

  pep::EnforcementPoint pep([&](const core::RequestContext& request) {
    core::Decision decision = core::Decision::indeterminate(
        core::IndeterminateExtent::kDP, core::Status::processing_error("lost"));
    dispatcher.evaluate(request, [&](core::Decision d) { decision = std::move(d); });
    sim.run();
    return decision;
  });

  EXPECT_TRUE(pep.enforce(core::RequestContext::make("a", "r", "read")).allowed);
  r0.set_up(false);  // primary crashes
  EXPECT_TRUE(pep.enforce(core::RequestContext::make("a", "r", "read")).allowed);
  EXPECT_FALSE(pep.enforce(core::RequestContext::make("a", "r", "write")).allowed);
  EXPECT_EQ(dispatcher.stats().failovers, 2u);
  r1.set_up(false);  // everything down: fail-safe deny at the PEP
  const auto blackout = pep.enforce(core::RequestContext::make("a", "r", "read"));
  EXPECT_FALSE(blackout.allowed);
  EXPECT_TRUE(blackout.decision.is_indeterminate());
}

// ---------------------------------------------------------------------
// Scenario 3: RBAC + delegation + conflict analysis working on one
// policy base: a partner-issued policy passes reduction, and static
// analysis finds the conflict it introduces.
// ---------------------------------------------------------------------

TEST(IntegrationTest, DelegatedPolicyDetectedInConflictAnalysis) {
  delegation::DelegationRegistry registry;
  registry.add_root("home-admin");
  ASSERT_TRUE(registry.grant(
      {"home-admin", "partner-admin", "shared/*", false, 0}));

  // Local permit, authored by the root authority.
  core::Policy local;
  local.policy_id = "local-permit";
  local.target_spec.require(core::Category::kResource, core::attrs::kResourceId,
                            core::AttributeValue("shared/data"));
  core::Rule lr;
  lr.id = "permit-alice";
  lr.effect = core::Effect::kPermit;
  core::Target lt;
  lt.require(core::Category::kSubject, core::attrs::kSubjectId,
             core::AttributeValue("alice"));
  lr.target = std::move(lt);
  local.rules.push_back(std::move(lr));

  // Partner-issued deny on the same tuple (within delegated scope).
  core::Policy partner;
  partner.policy_id = "partner-deny";
  partner.issuer = "partner-admin";
  partner.target_spec.require(core::Category::kResource, core::attrs::kResourceId,
                              core::AttributeValue("shared/data"));
  core::Rule pr;
  pr.id = "deny-alice";
  pr.effect = core::Effect::kDeny;
  core::Target pt;
  pt.require(core::Category::kSubject, core::attrs::kSubjectId,
             core::AttributeValue("alice"));
  pr.target = std::move(pt);
  partner.rules.push_back(std::move(pr));

  core::PolicyStore store;
  store.add(local.clone());
  store.add(partner.clone());

  // Reduction accepts both (partner is within scope).
  const auto filter = delegation::filter_by_reduction(store, registry);
  ASSERT_EQ(filter.accepted.size(), 2u);

  // Static analysis flags the modality conflict before deployment.
  const auto report = analysis::analyse_roots({{&local, nullptr}, {&partner, nullptr}});
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].code, "modality-conflict");
  EXPECT_EQ(report.findings[0].root_id, "local-permit");
  EXPECT_EQ(report.findings[0].other_root_id, "partner-deny");

  // At runtime, deny-overrides resolves it deterministically.
  auto shared_store = std::make_shared<core::PolicyStore>();
  shared_store->add(std::move(local));
  shared_store->add(std::move(partner));
  core::Pdp pdp(shared_store, core::PdpConfig{"deny-overrides", true});
  EXPECT_TRUE(pdp.evaluate(core::RequestContext::make("alice", "shared/data", "read"))
                  .is_deny());

  // Revoking the partner flips the outcome once the filter is re-applied.
  registry.revoke_grantee("partner-admin");
  const auto refiltered = delegation::filter_by_reduction(*shared_store, registry);
  auto clean_store = std::make_shared<core::PolicyStore>();
  for (const auto* node : refiltered.accepted) {
    clean_store->add(node->clone_node());
  }
  core::Pdp clean_pdp(clean_store);
  EXPECT_TRUE(
      clean_pdp.evaluate(core::RequestContext::make("alice", "shared/data", "read"))
          .is_permit());
}

// ---------------------------------------------------------------------
// Scenario 4: Chinese-Wall meta-policy enforced at runtime through the
// history PIP: a consultant who touches bank-a's data loses access to
// bank-b inside the same VO.
// ---------------------------------------------------------------------

TEST(IntegrationTest, ChineseWallAcrossDomainHistory) {
  common::ManualClock clock(0);
  domain::Domain consultancy("consultancy", clock);
  consultancy.register_user("carol", {});

  // Policy: permit reading any bank ledger UNLESS history shows the
  // subject already touched the other bank (wall condition via the
  // accessed-resources bag from the history PIP).
  core::Policy p;
  p.policy_id = "chinese-wall";
  p.rule_combining = "first-applicable";

  core::Rule deny_cross;
  deny_cross.id = "wall";
  deny_cross.effect = core::Effect::kDeny;
  // deny if (resource == bank-a:ledger AND bank-b:ledger in history) or
  //         (resource == bank-b:ledger AND bank-a:ledger in history)
  deny_cross.condition = core::make_apply(
      "or",
      core::make_apply(
          "and",
          core::make_apply("any-of", core::function_ref("string-equal"),
                           core::lit("bank-a:ledger"),
                           core::designator(core::Category::kResource,
                                            core::attrs::kResourceId,
                                            core::DataType::kString)),
          core::make_apply("is-in", core::lit("bank-b:ledger"),
                           core::designator(core::Category::kSubject,
                                            "accessed-resources",
                                            core::DataType::kString))),
      core::make_apply(
          "and",
          core::make_apply("any-of", core::function_ref("string-equal"),
                           core::lit("bank-b:ledger"),
                           core::designator(core::Category::kResource,
                                            core::attrs::kResourceId,
                                            core::DataType::kString)),
          core::make_apply("is-in", core::lit("bank-a:ledger"),
                           core::designator(core::Category::kSubject,
                                            "accessed-resources",
                                            core::DataType::kString))));
  p.rules.push_back(std::move(deny_cross));

  core::Rule permit;
  permit.id = "permit-ledgers";
  permit.effect = core::Effect::kPermit;
  core::Target t;
  t.require_any(core::Category::kResource, core::attrs::kResourceId,
                {core::AttributeValue("bank-a:ledger"),
                 core::AttributeValue("bank-b:ledger")});
  permit.target = std::move(t);
  p.rules.push_back(std::move(permit));
  consultancy.add_policy(std::move(p));

  // Fresh consultant: both banks reachable.
  EXPECT_TRUE(consultancy
                  .enforce(core::RequestContext::make("carol", "bank-a:ledger", "read"))
                  .allowed);
  // After touching bank-a, bank-b is behind the wall...
  EXPECT_FALSE(consultancy
                   .enforce(core::RequestContext::make("carol", "bank-b:ledger", "read"))
                   .allowed);
  // ...but bank-a remains accessible.
  EXPECT_TRUE(consultancy
                  .enforce(core::RequestContext::make("carol", "bank-a:ledger", "read"))
                  .allowed);
  // A different consultant starts clean.
  EXPECT_TRUE(consultancy
                  .enforce(core::RequestContext::make("dave", "bank-b:ledger", "read"))
                  .allowed);

  // The same invariant expressed through the models::ChineseWall oracle.
  models::ChineseWall wall;
  wall.add_company("bank-a", "banking");
  wall.add_company("bank-b", "banking");
  wall.assign_object("bank-a:ledger", "bank-a");
  wall.assign_object("bank-b:ledger", "bank-b");
  wall.record_access("carol", "bank-a:ledger");
  EXPECT_FALSE(wall.can_access("carol", "bank-b:ledger"));
  EXPECT_TRUE(wall.can_access("dave", "bank-b:ledger"));
}

// ---------------------------------------------------------------------
// Scenario 5: capability flow between two domains with RBAC-compiled
// community policy at the issuer side.
// ---------------------------------------------------------------------

TEST(IntegrationTest, RbacBackedCapabilityService) {
  common::ManualClock clock(1000);

  rbac::RbacModel members;
  members.add_user("alice");
  members.add_role("submitter");
  ASSERT_TRUE(members.grant_permission("submitter", {"job-queue", "submit"}));
  ASSERT_TRUE(members.assign_user("alice", "submitter"));

  auto issuing_store = std::make_shared<core::PolicyStore>();
  issuing_store->add(rbac::compile_to_policy_set(members, "community"));
  auto issuing_pdp = std::make_shared<core::Pdp>(issuing_store);
  // Roles resolved from the RBAC model at issuance time.
  static rbac::RbacAttributeProvider provider(members);
  issuing_pdp->set_resolver(&provider);

  const crypto::KeyPair key = crypto::KeyPair::generate("community-cas");
  capability::CapabilityService cas("community-cas", key, issuing_pdp, clock, 10'000);

  capability::CapabilityRequest request;
  request.subject = "alice";
  request.resource = "job-queue";
  request.action = "submit";
  request.audience = "cluster";
  const auto issued = cas.issue(request);
  ASSERT_TRUE(issued.token.has_value());

  crypto::TrustStore cluster_trust;
  cluster_trust.add_trusted_key(key);
  capability::CapabilityGate gate("cluster", cluster_trust, clock, nullptr);
  EXPECT_TRUE(gate.admit(*issued.token, "job-queue", "submit").allowed);

  // De-assigning the role stops future issuance (already-issued tokens
  // live until expiry — the classic capability-revocation trade-off).
  ASSERT_TRUE(members.deassign_user("alice", "submitter"));
  EXPECT_FALSE(cas.issue(request).token.has_value());
  EXPECT_TRUE(gate.admit(*issued.token, "job-queue", "submit").allowed);
  clock.advance(10'000);
  EXPECT_FALSE(gate.admit(*issued.token, "job-queue", "submit").allowed);
}

}  // namespace
}  // namespace mdac
