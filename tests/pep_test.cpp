#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "core/serialization.hpp"
#include "pep/pep.hpp"
#include "pep/remote.hpp"
#include "support/alloc_counter.hpp"

namespace mdac::pep {
namespace {

core::Decision permit_with_obligation(const std::string& id) {
  core::Decision d = core::Decision::permit();
  d.obligations.push_back(core::ObligationInstance{id, {}});
  return d;
}

// ---------------------------------------------------------------------
// EnforcementPoint gate semantics
// ---------------------------------------------------------------------

TEST(PepTest, PermitAllows) {
  EnforcementPoint pep([](const core::RequestContext&) {
    return core::Decision::permit();
  });
  const Enforcement e = pep.enforce(core::RequestContext::make("a", "r", "read"));
  EXPECT_TRUE(e.allowed);
}

TEST(PepTest, DenyBlocks) {
  EnforcementPoint pep([](const core::RequestContext&) {
    return core::Decision::deny();
  });
  const Enforcement e = pep.enforce(core::RequestContext::make("a", "r", "read"));
  EXPECT_FALSE(e.allowed);
  EXPECT_EQ(e.reason, "denied by policy");
}

TEST(PepTest, FailSafeDenyOnNotApplicableAndIndeterminate) {
  for (const core::Decision& d :
       {core::Decision::not_applicable(),
        core::Decision::indeterminate(core::IndeterminateExtent::kDP,
                                      core::Status::processing_error("x"))}) {
    EnforcementPoint pep([d](const core::RequestContext&) { return d; });
    const Enforcement e = pep.enforce(core::RequestContext::make("a", "r", "read"));
    EXPECT_FALSE(e.allowed);
    EXPECT_NE(e.reason.find("fail-safe"), std::string::npos);
    EXPECT_EQ(pep.denials_by_bias(), 1u);
  }
}

TEST(PepTest, ObligationFreeEnforcementMakesNoAllocations) {
  // Exact, on any core count: the counter is per thread and the PEP runs
  // on this one. The reason texts are byte-identical to the composed
  // strings they replaced.
  const core::RequestContext request = core::RequestContext::make("a", "r", "read");
  const struct {
    core::Decision decision;
    const char* reason;
  } cases[] = {
      {core::Decision::permit(), ""},
      {core::Decision::deny(), "denied by policy"},
      {core::Decision::not_applicable(), "fail-safe deny (not-applicable)"},
      {core::Decision::indeterminate(core::IndeterminateExtent::kDP,
                                     core::Status::processing_error("x")),
       "fail-safe deny (indeterminate)"},
  };
  for (const auto& c : cases) {
    EnforcementPoint pep([&c](const core::RequestContext&) { return c.decision; });
    EXPECT_EQ(pep.enforce(request).reason, c.reason);
    const std::uint64_t before = test::thread_allocations();
    for (int i = 0; i < 100; ++i) (void)pep.enforce(request);
    EXPECT_EQ(test::thread_allocations() - before, 0u) << c.decision.describe();
  }
}

TEST(PepTest, PermitBiasCanBeConfigured) {
  EnforcementPoint pep(
      [](const core::RequestContext&) { return core::Decision::not_applicable(); },
      PepConfig{Bias::kPermit});
  EXPECT_TRUE(pep.enforce(core::RequestContext::make("a", "r", "read")).allowed);
}

// ---------------------------------------------------------------------
// Obligation discharge
// ---------------------------------------------------------------------

TEST(PepObligationTest, HandledObligationFulfilled) {
  EnforcementPoint pep([](const core::RequestContext&) {
    core::Decision d = core::Decision::permit();
    d.obligations.push_back(core::ObligationInstance{
        "audit", {{"msg", core::AttributeValue("granted to alice")}}});
    return d;
  });
  std::vector<std::string> audit_log;
  pep.register_obligation_handler("audit", obligations::audit_to(&audit_log));

  const Enforcement e = pep.enforce(core::RequestContext::make("a", "r", "read"));
  EXPECT_TRUE(e.allowed);
  ASSERT_EQ(audit_log.size(), 1u);
  EXPECT_EQ(audit_log[0], "audit msg=granted to alice");
  EXPECT_EQ(e.obligations_fulfilled, std::vector<std::string>{"audit"});
}

TEST(PepObligationTest, UnhandledObligationOnPermitDenies) {
  EnforcementPoint pep([](const core::RequestContext&) {
    return permit_with_obligation("mystery-obligation");
  });
  const Enforcement e = pep.enforce(core::RequestContext::make("a", "r", "read"));
  EXPECT_FALSE(e.allowed);
  EXPECT_NE(e.reason.find("mystery-obligation"), std::string::npos);
  EXPECT_EQ(pep.denials_by_obligation(), 1u);
}

TEST(PepObligationTest, FailingObligationOnPermitDenies) {
  EnforcementPoint pep([](const core::RequestContext&) {
    return permit_with_obligation("flaky");
  });
  pep.register_obligation_handler("flaky", obligations::always_fail());
  const Enforcement e = pep.enforce(core::RequestContext::make("a", "r", "read"));
  EXPECT_FALSE(e.allowed);
}

TEST(PepObligationTest, DenyObligationFailureStaysDeny) {
  EnforcementPoint pep([](const core::RequestContext&) {
    core::Decision d = core::Decision::deny();
    d.obligations.push_back(core::ObligationInstance{"notify-security", {}});
    return d;
  });
  // No handler registered; a deny must still be a deny.
  const Enforcement e = pep.enforce(core::RequestContext::make("a", "r", "read"));
  EXPECT_FALSE(e.allowed);
  EXPECT_EQ(pep.denials_by_obligation(), 0u);
}

TEST(PepObligationTest, MultipleObligationsAllMustSucceed) {
  EnforcementPoint pep([](const core::RequestContext&) {
    core::Decision d = core::Decision::permit();
    d.obligations.push_back(core::ObligationInstance{"first", {}});
    d.obligations.push_back(core::ObligationInstance{"second", {}});
    return d;
  });
  pep.register_obligation_handler("first", obligations::no_op());
  pep.register_obligation_handler("second", obligations::always_fail());
  EXPECT_FALSE(pep.enforce(core::RequestContext::make("a", "r", "read")).allowed);
}

// ---------------------------------------------------------------------
// Decision cache integration
// ---------------------------------------------------------------------

TEST(PepCacheTest, CacheShortCircuitsBackend) {
  int backend_calls = 0;
  EnforcementPoint pep([&](const core::RequestContext&) {
    ++backend_calls;
    return core::Decision::permit();
  });
  common::ManualClock clock;
  cache::DecisionCache cache(
      cache::DecisionCache::TwoLevelConfig{.ttl = 1000, .clock = &clock});
  pep.set_cache(&cache);

  const auto req = core::RequestContext::make("a", "r", "read");
  EXPECT_TRUE(pep.enforce(req).allowed);
  EXPECT_TRUE(pep.enforce(req).allowed);
  EXPECT_EQ(backend_calls, 1);  // the second enforce was a cache hit
}

TEST(PepCacheTest, ExpiredEntryGoesBackToBackend) {
  int backend_calls = 0;
  EnforcementPoint pep([&](const core::RequestContext&) {
    ++backend_calls;
    return core::Decision::deny();
  });
  common::ManualClock clock;
  cache::DecisionCache cache(
      cache::DecisionCache::TwoLevelConfig{.ttl = 100, .clock = &clock});
  pep.set_cache(&cache);

  const auto req = core::RequestContext::make("a", "r", "read");
  (void)pep.enforce(req);
  clock.advance(200);
  (void)pep.enforce(req);
  EXPECT_EQ(backend_calls, 2);
}

// ---------------------------------------------------------------------
// Remote PDP (pull model over the simulated network)
// ---------------------------------------------------------------------

class RemotePdpTest : public ::testing::Test {
 protected:
  RemotePdpTest() : network_(sim_) {
    network_.set_default_link({10, 0, 0.0});
    auto store = std::make_shared<core::PolicyStore>();
    core::Policy p;
    p.policy_id = "permit-reads";
    p.target_spec.require(core::Category::kAction, core::attrs::kActionId,
                          core::AttributeValue("read"));
    core::Rule r;
    r.id = "permit";
    r.effect = core::Effect::kPermit;
    p.rules.push_back(std::move(r));
    store->add(std::move(p));
    pdp_ = std::make_shared<core::Pdp>(store);
  }

  net::Simulator sim_;
  net::Network network_;
  std::shared_ptr<core::Pdp> pdp_;
};

TEST_F(RemotePdpTest, PullModelRoundTrip) {
  PdpService service(network_, "domain/pdp", pdp_);
  RemotePdpClient client(network_, "domain/pep", "domain/pdp");

  std::optional<core::Decision> got;
  common::TimePoint decided_at = -1;
  client.evaluate(core::RequestContext::make("alice", "doc", "read"),
                  [&](core::Decision d) {
                    got = d;
                    decided_at = sim_.now();
                  });
  sim_.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->is_permit());
  EXPECT_EQ(service.requests_served(), 1u);
  // Round trip = request + response latency.
  EXPECT_EQ(decided_at, 20);
}

TEST_F(RemotePdpTest, DenySideCarriesThrough) {
  PdpService service(network_, "domain/pdp", pdp_);
  RemotePdpClient client(network_, "domain/pep", "domain/pdp");
  std::optional<core::Decision> got;
  client.evaluate(core::RequestContext::make("alice", "doc", "write"),
                  [&](core::Decision d) { got = d; });
  sim_.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->is_not_applicable());
}

TEST_F(RemotePdpTest, TimeoutYieldsIndeterminate) {
  PdpService service(network_, "domain/pdp", pdp_);
  network_.set_node_up("domain/pdp", false);
  RemotePdpClient client(network_, "domain/pep", "domain/pdp", /*timeout=*/100);

  std::optional<core::Decision> got;
  client.evaluate(core::RequestContext::make("alice", "doc", "read"),
                  [&](core::Decision d) { got = d; });
  sim_.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->is_indeterminate());
  EXPECT_EQ(client.timeouts(), 1u);
}

TEST_F(RemotePdpTest, MalformedRequestHandledAtService) {
  PdpService service(network_, "domain/pdp", pdp_);
  net::RpcNode raw_client(network_, "raw");
  std::optional<std::string> response;
  raw_client.call("domain/pdp", kAuthzRequestType, "<garbage", 1000,
                  [&](std::optional<std::string> r) { response = r; });
  sim_.run();
  ASSERT_TRUE(response.has_value());
  const core::Decision d = core::decision_from_string(*response);
  EXPECT_TRUE(d.is_indeterminate());
  EXPECT_EQ(d.status.code, core::StatusCode::kSyntaxError);
}

TEST_F(RemotePdpTest, HostileNestingAnsweredWithBadRequest) {
  // 100,000 nested elements: the decoder's depth bound turns what used
  // to be a stack overflow into the fail-safe bad-request reply.
  PdpService service(network_, "domain/pdp", pdp_);
  net::RpcNode raw_client(network_, "raw");
  std::string hostile = "<Request>";
  for (int i = 0; i < 100000; ++i) hostile += "<a>";
  for (int i = 0; i < 100000; ++i) hostile += "</a>";
  hostile += "</Request>";
  std::optional<std::string> response;
  raw_client.call("domain/pdp", kAuthzRequestType, hostile, 1000,
                  [&](std::optional<std::string> r) { response = r; });
  sim_.run();
  ASSERT_TRUE(response.has_value());
  const core::Decision d = core::decision_from_string(*response);
  EXPECT_TRUE(d.is_indeterminate());
  EXPECT_EQ(d.extent, core::IndeterminateExtent::kDP);
  EXPECT_EQ(d.status.code, core::StatusCode::kSyntaxError);
  EXPECT_EQ(d.status.message.rfind(kBadRequestStatusPrefix, 0), 0u);
  EXPECT_NE(d.status.message.find("nesting deeper than"), std::string::npos);
}

TEST_F(RemotePdpTest, EndToEndPepOverNetwork) {
  // Full pull-model composition: EnforcementPoint whose decision source
  // blocks on the simulated network round trip.
  PdpService service(network_, "domain/pdp", pdp_);
  RemotePdpClient client(network_, "domain/pep", "domain/pdp");

  EnforcementPoint pep([&](const core::RequestContext& request) {
    std::optional<core::Decision> decision;
    client.evaluate(request, [&](core::Decision d) { decision = d; });
    sim_.run();  // drive the simulator until the response lands
    return decision.value_or(core::Decision::indeterminate(
        core::IndeterminateExtent::kDP, core::Status::processing_error("lost")));
  });

  EXPECT_TRUE(pep.enforce(core::RequestContext::make("a", "r", "read")).allowed);
  EXPECT_FALSE(pep.enforce(core::RequestContext::make("a", "r", "write")).allowed);
}

}  // namespace
}  // namespace mdac::pep
