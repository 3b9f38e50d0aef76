// Shared workload generators for the benchmark suite. Everything is
// seeded and deterministic so every reported row is reproducible.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/expression.hpp"
#include "core/pdp.hpp"
#include "core/policy.hpp"
#include "core/request.hpp"

namespace mdac::bench {

/// A policy permitting `roles[i]` to perform `actions` on resource
/// "res-<i>", with a trailing deny — the shape of a typical per-resource
/// protection policy.
inline core::Policy resource_policy(int index, int n_roles) {
  core::Policy p;
  p.policy_id = "policy-" + std::to_string(index);
  p.rule_combining = "first-applicable";
  p.target_spec.require(core::Category::kResource, core::attrs::kResourceId,
                        core::AttributeValue("res-" + std::to_string(index)));
  for (int r = 0; r < n_roles; ++r) {
    core::Rule rule;
    rule.id = p.policy_id + ":permit-role-" + std::to_string(r);
    rule.effect = core::Effect::kPermit;
    core::Target t;
    t.require(core::Category::kSubject, core::attrs::kRole,
              core::AttributeValue("role-" + std::to_string(r)));
    rule.target = std::move(t);
    p.rules.push_back(std::move(rule));
  }
  core::Rule deny;
  deny.id = p.policy_id + ":deny-rest";
  deny.effect = core::Effect::kDeny;
  p.rules.push_back(std::move(deny));
  return p;
}

inline std::shared_ptr<core::PolicyStore> make_policy_store(int n_policies,
                                                            int n_roles = 3) {
  auto store = std::make_shared<core::PolicyStore>();
  for (int i = 0; i < n_policies; ++i) {
    store->add(resource_policy(i, n_roles));
  }
  return store;
}

/// A uniformly random request over the generated policy space; roughly
/// half the requests carry an authorised role.
inline core::RequestContext random_request(common::Rng& rng, int n_policies,
                                           int n_roles) {
  const int resource = static_cast<int>(rng.uniform_int(0, n_policies - 1));
  const int role = static_cast<int>(rng.uniform_int(0, 2 * n_roles - 1));
  core::RequestContext req = core::RequestContext::make(
      "user-" + std::to_string(rng.uniform_int(0, 999)),
      "res-" + std::to_string(resource), "read");
  req.add(core::Category::kSubject, core::attrs::kRole,
          core::AttributeValue("role-" + std::to_string(role)));
  return req;
}

/// A role-gated policy scoped to one administrative domain — the
/// federation shape (each domain grants its roles over its own
/// resources): target requires resource-domain == "domain-<d>" AND
/// role == "role-<r>". The role is the only non-domain conjunct, so the
/// *flat* index can prune by role alone, while the partitioned index
/// additionally confines the probe to the named domain — which is the
/// separation the 1-vs-8-domain benchmark measures.
inline core::Policy domain_role_policy(int domain, int index, int n_roles) {
  core::Policy p;
  p.policy_id = "domain-" + std::to_string(domain) + ":policy-" + std::to_string(index);
  p.rule_combining = "first-applicable";
  p.target_spec.require(core::Category::kResource, core::attrs::kResourceDomain,
                        core::AttributeValue("domain-" + std::to_string(domain)));
  p.target_spec.require(core::Category::kSubject, core::attrs::kRole,
                        core::AttributeValue("role-" + std::to_string(index % n_roles)));
  core::Rule permit;
  permit.id = p.policy_id + ":permit-read";
  permit.effect = core::Effect::kPermit;
  core::Target t;
  t.require(core::Category::kAction, core::attrs::kActionId,
            core::AttributeValue("read"));
  permit.target = std::move(t);
  p.rules.push_back(std::move(permit));
  core::Rule deny;
  deny.id = p.policy_id + ":deny-rest";
  deny.effect = core::Effect::kDeny;
  p.rules.push_back(std::move(deny));
  return p;
}

/// `n_policies` split evenly across `n_domains` administrative domains.
/// With 1 domain all policies share one partition (flat-equivalent);
/// with 8, each domain owns n_policies/8 of them.
inline std::shared_ptr<core::PolicyStore> make_domain_policy_store(int n_domains,
                                                                   int n_policies,
                                                                   int n_roles = 3) {
  auto store = std::make_shared<core::PolicyStore>();
  for (int i = 0; i < n_policies; ++i) {
    store->add(domain_role_policy(i % n_domains, i, n_roles));
  }
  return store;
}

/// A 3-level PolicySet tree for one administrative domain — the shape
/// policy syndication produces (paper §3.2): a root set gated on
/// resource-domain == "domain-<d>" containing one PolicySet per service
/// (gated on resource attribute "service"), each containing role-gated
/// leaf Policies whose permits carry an audit obligation. Exercises
/// set-level targets, nested combining and obligation programs — the
/// workload the pdp_evaluate_set_tree rows measure.
inline core::PolicySet domain_service_set(int domain, int n_services,
                                          int policies_per_service, int n_roles) {
  core::PolicySet root;
  root.policy_set_id = "domain-" + std::to_string(domain) + ":set";
  root.policy_combining = "first-applicable";
  root.target_spec.require(core::Category::kResource, core::attrs::kResourceDomain,
                           core::AttributeValue("domain-" + std::to_string(domain)));
  for (int s = 0; s < n_services; ++s) {
    core::PolicySet service;
    service.policy_set_id = root.policy_set_id + ":svc-" + std::to_string(s);
    service.policy_combining = "deny-overrides";
    service.target_spec.require(core::Category::kResource, "service",
                                core::AttributeValue("svc-" + std::to_string(s)));
    for (int p = 0; p < policies_per_service; ++p) {
      core::Policy leaf;
      leaf.policy_id = service.policy_set_id + ":policy-" + std::to_string(p);
      leaf.rule_combining = "first-applicable";
      leaf.target_spec.require(
          core::Category::kSubject, core::attrs::kRole,
          core::AttributeValue("role-" + std::to_string(p % n_roles)));
      core::Rule permit;
      permit.id = leaf.policy_id + ":permit-read";
      permit.effect = core::Effect::kPermit;
      core::Target t;
      t.require(core::Category::kAction, core::attrs::kActionId,
                core::AttributeValue("read"));
      permit.target = std::move(t);
      core::ObligationExpr audit;
      audit.id = leaf.policy_id + ":audit";
      audit.fulfill_on = core::Effect::kPermit;
      audit.assignments.push_back(core::AttributeAssignmentExpr{
          "who", core::designator(core::Category::kSubject, core::attrs::kSubjectId,
                                  core::DataType::kString)});
      permit.obligations.push_back(std::move(audit));
      leaf.rules.push_back(std::move(permit));
      core::Rule deny;
      deny.id = leaf.policy_id + ":deny-rest";
      deny.effect = core::Effect::kDeny;
      leaf.rules.push_back(std::move(deny));
      service.add(std::move(leaf));
    }
    root.add(std::move(service));
  }
  return root;
}

/// One 3-level set tree per domain as the store's top level; the domain
/// conjunct on each root set keeps the PDP's domain partitioning
/// engaged, exactly as for the flat domain workload.
inline std::shared_ptr<core::PolicyStore> make_set_tree_store(
    int n_domains, int n_services, int policies_per_service, int n_roles = 3) {
  auto store = std::make_shared<core::PolicyStore>();
  for (int d = 0; d < n_domains; ++d) {
    store->add(domain_service_set(d, n_services, policies_per_service, n_roles));
  }
  return store;
}

/// A random request against the set-tree store: one domain, one service,
/// one role (half the roles authorised, as elsewhere).
inline core::RequestContext random_set_tree_request(common::Rng& rng, int n_domains,
                                                    int n_services, int n_roles) {
  const int domain = static_cast<int>(rng.uniform_int(0, n_domains - 1));
  const int service = static_cast<int>(rng.uniform_int(0, n_services - 1));
  const int role = static_cast<int>(rng.uniform_int(0, 2 * n_roles - 1));
  core::RequestContext req = core::RequestContext::make(
      "user-" + std::to_string(rng.uniform_int(0, 999)),
      "res-" + std::to_string(rng.uniform_int(0, 63)), "read");
  req.add(core::Category::kResource, core::attrs::kResourceDomain,
          core::AttributeValue("domain-" + std::to_string(domain)));
  req.add(core::Category::kResource, "service",
          core::AttributeValue("svc-" + std::to_string(service)));
  req.add(core::Category::kSubject, core::attrs::kRole,
          core::AttributeValue("role-" + std::to_string(role)));
  return req;
}

/// A random single-domain request against the domain-partitioned store:
/// names exactly one resource-domain plus a role.
inline core::RequestContext random_domain_request(common::Rng& rng, int n_domains,
                                                  int n_policies, int n_roles) {
  const int domain = static_cast<int>(rng.uniform_int(0, n_domains - 1));
  const int resource = static_cast<int>(rng.uniform_int(0, n_policies - 1));
  const int role = static_cast<int>(rng.uniform_int(0, 2 * n_roles - 1));
  core::RequestContext req = core::RequestContext::make(
      "user-" + std::to_string(rng.uniform_int(0, 999)),
      "res-" + std::to_string(resource), "read");
  req.add(core::Category::kResource, core::attrs::kResourceDomain,
          core::AttributeValue("domain-" + std::to_string(domain)));
  req.add(core::Category::kSubject, core::attrs::kRole,
          core::AttributeValue("role-" + std::to_string(role)));
  return req;
}

/// A `cold_wire`-shaped request (the decision-service benchmark's
/// pull-model workload): six attributes in three categories, with a
/// 12-character serial subject id "u-<10 digits>".
inline core::RequestContext cold_wire_request(common::Rng& rng, std::uint64_t serial) {
  std::string digits = std::to_string(serial % 10'000'000'000ULL);
  core::RequestContext r = core::RequestContext::make(
      "u-" + std::string(10 - digits.size(), '0') + digits,
      "res-" + std::to_string(rng.uniform_int(0, 63)), rng.chance(0.5) ? "read" : "write");
  r.add(core::Category::kResource, core::attrs::kResourceDomain,
        core::AttributeValue("domain-" + std::to_string(rng.uniform_int(0, 3))));
  r.add(core::Category::kResource, "service",
        core::AttributeValue("svc-" + std::to_string(rng.uniform_int(0, 3))));
  r.add(core::Category::kSubject, core::attrs::kRole,
        core::AttributeValue("role-" + std::to_string(rng.uniform_int(0, 3))));
  return r;
}

/// A `cold_wire`-shaped reply: a read permit carrying its leaf's audit
/// obligation naming the subject, or a plain deny.
inline core::Decision cold_wire_decision(common::Rng& rng, const std::string& subject) {
  if (rng.chance(0.5)) return core::Decision::deny();
  core::Decision d = core::Decision::permit();
  d.obligations.push_back(core::ObligationInstance{
      "domain-" + std::to_string(rng.uniform_int(0, 3)) + ":svc-" +
          std::to_string(rng.uniform_int(0, 3)) + ":policy-" +
          std::to_string(rng.uniform_int(0, 11)) + ":audit",
      {{"who", core::AttributeValue(subject)}}});
  return d;
}

}  // namespace mdac::bench
