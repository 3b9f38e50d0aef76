#include <gtest/gtest.h>

#include <memory>

#include "core/pdp.hpp"
#include "rbac/adapter.hpp"
#include "rbac/rbac.hpp"

namespace mdac::rbac {
namespace {

RbacModel hospital_model() {
  RbacModel m;
  for (const char* u : {"alice", "bob", "carol"}) m.add_user(u);
  for (const char* r : {"staff", "nurse", "doctor", "auditor", "pharmacist"}) {
    m.add_role(r);
  }
  // doctor > nurse > staff
  EXPECT_TRUE(m.add_inheritance("nurse", "staff"));
  EXPECT_TRUE(m.add_inheritance("doctor", "nurse"));

  EXPECT_TRUE(m.grant_permission("staff", {"cafeteria", "enter"}));
  EXPECT_TRUE(m.grant_permission("nurse", {"vitals", "read"}));
  EXPECT_TRUE(m.grant_permission("doctor", {"record", "write"}));
  EXPECT_TRUE(m.grant_permission("auditor", {"record", "audit"}));
  return m;
}

// ---------------------------------------------------------------------
// Core relations
// ---------------------------------------------------------------------

TEST(RbacTest, AssignmentAndPermissionCheck) {
  RbacModel m = hospital_model();
  EXPECT_TRUE(m.assign_user("alice", "doctor"));
  EXPECT_TRUE(m.user_has_permission("alice", {"record", "write"}));
  EXPECT_FALSE(m.user_has_permission("bob", {"record", "write"}));
}

TEST(RbacTest, HierarchyInheritsJuniorPermissions) {
  RbacModel m = hospital_model();
  ASSERT_TRUE(m.assign_user("alice", "doctor"));
  // Doctor inherits nurse and staff permissions transitively.
  EXPECT_TRUE(m.user_has_permission("alice", {"vitals", "read"}));
  EXPECT_TRUE(m.user_has_permission("alice", {"cafeteria", "enter"}));
  // But a nurse does not gain doctor permissions (inheritance is one-way).
  ASSERT_TRUE(m.assign_user("bob", "nurse"));
  EXPECT_FALSE(m.user_has_permission("bob", {"record", "write"}));
}

TEST(RbacTest, AuthorizedRolesIncludeJuniors) {
  RbacModel m = hospital_model();
  ASSERT_TRUE(m.assign_user("alice", "doctor"));
  const auto roles = m.authorized_roles("alice");
  EXPECT_TRUE(roles.count("doctor"));
  EXPECT_TRUE(roles.count("nurse"));
  EXPECT_TRUE(roles.count("staff"));
  EXPECT_FALSE(roles.count("auditor"));
  EXPECT_EQ(m.assigned_roles("alice"), std::set<std::string>{"doctor"});
}

TEST(RbacTest, UnknownEntitiesRejected) {
  RbacModel m = hospital_model();
  EXPECT_FALSE(m.assign_user("mallory", "doctor"));
  EXPECT_FALSE(m.assign_user("alice", "emperor"));
  EXPECT_FALSE(m.grant_permission("emperor", {"x", "y"}));
  EXPECT_FALSE(m.add_inheritance("doctor", "emperor"));
}

TEST(RbacTest, InheritanceCycleRejected) {
  RbacModel m = hospital_model();
  // doctor -> nurse -> staff exists; adding staff -> doctor closes a cycle.
  const Outcome o = m.add_inheritance("staff", "doctor");
  EXPECT_FALSE(o);
  EXPECT_NE(o.reason.find("cycle"), std::string::npos);
  EXPECT_FALSE(m.add_inheritance("doctor", "doctor"));
}

TEST(RbacTest, DeassignRemovesAccessAndSessionRoles) {
  RbacModel m = hospital_model();
  ASSERT_TRUE(m.assign_user("alice", "doctor"));
  const SessionId s = m.create_session("alice");
  ASSERT_TRUE(m.activate_role(s, "doctor"));
  ASSERT_TRUE(m.check_access(s, {"record", "write"}));

  ASSERT_TRUE(m.deassign_user("alice", "doctor"));
  EXPECT_FALSE(m.user_has_permission("alice", {"record", "write"}));
  EXPECT_FALSE(m.check_access(s, {"record", "write"}));
  EXPECT_TRUE(m.active_roles(s).empty());
}

TEST(RbacTest, DeassignStripsInheritedSessionRoles) {
  // alice activates "staff" (reachable only through her doctor
  // assignment); de-assigning doctor must deactivate staff too.
  RbacModel m = hospital_model();
  ASSERT_TRUE(m.assign_user("alice", "doctor"));
  const SessionId s = m.create_session("alice");
  ASSERT_TRUE(m.activate_role(s, "staff"));
  ASSERT_TRUE(m.check_access(s, {"cafeteria", "enter"}));

  ASSERT_TRUE(m.deassign_user("alice", "doctor"));
  EXPECT_TRUE(m.active_roles(s).empty());
  EXPECT_FALSE(m.check_access(s, {"cafeteria", "enter"}));
}

TEST(RbacTest, DeassignKeepsRolesStillAuthorizedOtherwise) {
  // alice holds BOTH doctor and nurse; losing doctor keeps nurse-derived
  // roles active.
  RbacModel m = hospital_model();
  ASSERT_TRUE(m.assign_user("alice", "doctor"));
  ASSERT_TRUE(m.assign_user("alice", "nurse"));
  const SessionId s = m.create_session("alice");
  ASSERT_TRUE(m.activate_role(s, "staff"));
  ASSERT_TRUE(m.deassign_user("alice", "doctor"));
  EXPECT_TRUE(m.active_roles(s).count("staff"));
  EXPECT_TRUE(m.check_access(s, {"cafeteria", "enter"}));
}

TEST(RbacTest, RevokePermission) {
  RbacModel m = hospital_model();
  ASSERT_TRUE(m.assign_user("alice", "doctor"));
  ASSERT_TRUE(m.revoke_permission("doctor", {"record", "write"}));
  EXPECT_FALSE(m.user_has_permission("alice", {"record", "write"}));
  EXPECT_FALSE(m.revoke_permission("doctor", {"record", "write"}));
}

// ---------------------------------------------------------------------
// Separation of duty
// ---------------------------------------------------------------------

TEST(RbacSodTest, SsdBlocksConflictingAssignment) {
  RbacModel m = hospital_model();
  ASSERT_TRUE(m.add_ssd_constraint({"doctor-auditor", {"doctor", "auditor"}, 2}));
  ASSERT_TRUE(m.assign_user("alice", "doctor"));
  const Outcome o = m.assign_user("alice", "auditor");
  EXPECT_FALSE(o);
  EXPECT_NE(o.reason.find("doctor-auditor"), std::string::npos);
  // A different user can still take the auditor role.
  EXPECT_TRUE(m.assign_user("bob", "auditor"));
}

TEST(RbacSodTest, SsdAppliesToInheritedRoles) {
  RbacModel m = hospital_model();
  // nurse inherits staff; forbid holding both nurse and pharmacist.
  ASSERT_TRUE(m.add_ssd_constraint({"nurse-pharmacist", {"nurse", "pharmacist"}, 2}));
  ASSERT_TRUE(m.assign_user("alice", "doctor"));  // doctor ⇒ authorised for nurse
  EXPECT_FALSE(m.assign_user("alice", "pharmacist"));
}

TEST(RbacSodTest, SsdRejectedIfExistingAssignmentViolates) {
  RbacModel m = hospital_model();
  ASSERT_TRUE(m.assign_user("alice", "doctor"));
  ASSERT_TRUE(m.assign_user("alice", "auditor"));
  EXPECT_FALSE(m.add_ssd_constraint({"late", {"doctor", "auditor"}, 2}));
}

TEST(RbacSodTest, CardinalityThreeAllowsTwo) {
  RbacModel m = hospital_model();
  ASSERT_TRUE(
      m.add_ssd_constraint({"spread", {"doctor", "auditor", "pharmacist"}, 3}));
  ASSERT_TRUE(m.assign_user("alice", "doctor"));
  ASSERT_TRUE(m.assign_user("alice", "auditor"));   // 2 of 3: allowed
  EXPECT_FALSE(m.assign_user("alice", "pharmacist"));  // 3 of 3: blocked
}

TEST(RbacSodTest, DsdBlocksSimultaneousActivation) {
  RbacModel m = hospital_model();
  ASSERT_TRUE(m.add_dsd_constraint({"no-dual-hats", {"doctor", "auditor"}, 2}));
  ASSERT_TRUE(m.assign_user("alice", "doctor"));
  ASSERT_TRUE(m.assign_user("alice", "auditor"));  // assignment OK (DSD only)

  const SessionId s = m.create_session("alice");
  ASSERT_TRUE(m.activate_role(s, "doctor"));
  EXPECT_FALSE(m.activate_role(s, "auditor"));  // blocked in same session
  // After dropping doctor, auditor becomes activatable.
  ASSERT_TRUE(m.deactivate_role(s, "doctor"));
  EXPECT_TRUE(m.activate_role(s, "auditor"));
}

TEST(RbacSodTest, ConstraintCardinalityValidation) {
  RbacModel m = hospital_model();
  EXPECT_FALSE(m.add_ssd_constraint({"bad", {"doctor"}, 1}));
  EXPECT_FALSE(m.add_dsd_constraint({"bad", {"doctor"}, 0}));
}

// ---------------------------------------------------------------------
// Sessions (least privilege)
// ---------------------------------------------------------------------

TEST(RbacSessionTest, InactiveRolesGrantNothing) {
  RbacModel m = hospital_model();
  ASSERT_TRUE(m.assign_user("alice", "doctor"));
  const SessionId s = m.create_session("alice");
  EXPECT_FALSE(m.check_access(s, {"record", "write"}));  // nothing active
  ASSERT_TRUE(m.activate_role(s, "doctor"));
  EXPECT_TRUE(m.check_access(s, {"record", "write"}));
}

TEST(RbacSessionTest, ActivationRequiresAuthorization) {
  RbacModel m = hospital_model();
  ASSERT_TRUE(m.assign_user("bob", "nurse"));
  const SessionId s = m.create_session("bob");
  EXPECT_FALSE(m.activate_role(s, "doctor"));
  EXPECT_TRUE(m.activate_role(s, "staff"));  // inherited junior is activatable
  EXPECT_TRUE(m.check_access(s, {"cafeteria", "enter"}));
}

TEST(RbacSessionTest, EndedSessionDeniesEverything) {
  RbacModel m = hospital_model();
  ASSERT_TRUE(m.assign_user("alice", "doctor"));
  const SessionId s = m.create_session("alice");
  ASSERT_TRUE(m.activate_role(s, "doctor"));
  m.end_session(s);
  EXPECT_FALSE(m.check_access(s, {"record", "write"}));
  EXPECT_FALSE(m.activate_role(s, "doctor"));
}

// ---------------------------------------------------------------------
// Bridges: attribute provider + policy compiler
// ---------------------------------------------------------------------

TEST(RbacAdapterTest, AttributeProviderExposesAuthorizedRoles) {
  RbacModel m = hospital_model();
  ASSERT_TRUE(m.assign_user("alice", "doctor"));
  RbacAttributeProvider provider(m);

  const auto req = core::RequestContext::make("alice", "r", "read");
  const auto bag = provider.resolve(core::Category::kSubject, core::attrs::kRole, req);
  ASSERT_TRUE(bag.has_value());
  EXPECT_TRUE(bag->contains(core::AttributeValue("doctor")));
  EXPECT_TRUE(bag->contains(core::AttributeValue("nurse")));
  EXPECT_FALSE(bag->contains(core::AttributeValue("auditor")));

  const auto unknown = core::RequestContext::make("mallory", "r", "read");
  EXPECT_FALSE(provider.resolve(core::Category::kSubject, core::attrs::kRole, unknown)
                   .has_value());
}

TEST(RbacAdapterTest, CompiledPolicySetMatchesModelSemantics) {
  // Property: PDP over the compiled policies + the RBAC attribute
  // provider decides exactly like RbacModel::user_has_permission.
  RbacModel m = hospital_model();
  ASSERT_TRUE(m.assign_user("alice", "doctor"));
  ASSERT_TRUE(m.assign_user("bob", "nurse"));
  ASSERT_TRUE(m.assign_user("carol", "auditor"));

  auto store = std::make_shared<core::PolicyStore>();
  store->add(compile_to_policy_set(m, "hospital"));
  RbacAttributeProvider provider(m);
  core::Pdp pdp(store);
  pdp.set_resolver(&provider);

  const std::vector<Permission> perms = {
      {"record", "write"}, {"record", "audit"}, {"vitals", "read"},
      {"cafeteria", "enter"}, {"vault", "open"}};
  for (const std::string user : {"alice", "bob", "carol"}) {
    for (const Permission& p : perms) {
      const auto req = core::RequestContext::make(user, p.resource, p.action);
      const bool model_says = m.user_has_permission(user, p);
      const core::Decision pdp_says = pdp.evaluate(req);
      EXPECT_EQ(model_says, pdp_says.is_permit())
          << user << " " << p.resource << ":" << p.action << " -> "
          << pdp_says.describe();
    }
  }
}

class RbacScaleSweep : public ::testing::TestWithParam<int> {};

TEST_P(RbacScaleSweep, DeepHierarchyChainsPermissions) {
  // A chain r0 <- r1 <- ... <- rN: the top role must inherit the bottom
  // role's permission regardless of depth.
  const int depth = GetParam();
  const auto role = [](int i) { return std::string("r").append(std::to_string(i)); };
  RbacModel m;
  m.add_user("u");
  for (int i = 0; i <= depth; ++i) m.add_role(role(i));
  for (int i = depth; i > 0; --i) {
    ASSERT_TRUE(m.add_inheritance(role(i), role(i - 1)));
  }
  ASSERT_TRUE(m.grant_permission("r0", {"base", "use"}));
  ASSERT_TRUE(m.assign_user("u", role(depth)));
  EXPECT_TRUE(m.user_has_permission("u", {"base", "use"}));
  EXPECT_EQ(m.authorized_roles("u").size(), static_cast<std::size_t>(depth + 1));
}

INSTANTIATE_TEST_SUITE_P(Depths, RbacScaleSweep, ::testing::Values(1, 2, 8, 32, 128));

}  // namespace
}  // namespace mdac::rbac
