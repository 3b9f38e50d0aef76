#include "corpus.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>

#include "common/rng.hpp"
#include "core/expression.hpp"
#include "core/pdp.hpp"
#include "core/serialization.hpp"

namespace dbench {

namespace core = mdac::core;

namespace {

constexpr int kFederationDomains = 8;
constexpr int kFederationPolicies = 200;
constexpr int kRoles = 4;
constexpr int kTreeDomains = 4;
constexpr int kTreeServices = 4;
constexpr int kTreeLeaves = 12;
constexpr std::size_t kDistinctRequests = 4096;
constexpr std::size_t kSequenceLength = std::size_t{1} << 20;
constexpr const char* kSerialPrefix = "u-";

std::string domain_name(int d) { return "domain-" + std::to_string(d); }
std::string role_name(int r) { return "role-" + std::to_string(r); }

core::Rule action_rule(const std::string& id, core::Effect effect, const char* action) {
  core::Rule rule;
  rule.id = id;
  rule.effect = effect;
  core::Target t;
  t.require(core::Category::kAction, core::attrs::kActionId, core::AttributeValue(action));
  rule.target = std::move(t);
  return rule;
}

core::Rule deny_rest(const std::string& id) {
  core::Rule deny;
  deny.id = id;
  deny.effect = core::Effect::kDeny;
  return deny;
}

/// Policy i of the federation: domain i % 8, role (i / 8) % 4, so every
/// (domain, role) pair is governed by six or seven policies. `flipped`
/// turns the read permit into a deny — under the root deny-overrides
/// that flips every (domain, role, read) request the policy covers.
core::Policy federation_policy(int i, bool flipped) {
  const int domain = i % kFederationDomains;
  const int role = (i / kFederationDomains) % kRoles;
  core::Policy p;
  p.policy_id = domain_name(domain) + ":policy-" + std::to_string(i);
  p.rule_combining = "first-applicable";
  p.target_spec.require(core::Category::kResource, core::attrs::kResourceDomain,
                        core::AttributeValue(domain_name(domain)));
  p.target_spec.require(core::Category::kSubject, core::attrs::kRole,
                        core::AttributeValue(role_name(role)));
  p.rules.push_back(action_rule(p.policy_id + ":read", flipped ? core::Effect::kDeny
                                                               : core::Effect::kPermit,
                                "read"));
  p.rules.push_back(deny_rest(p.policy_id + ":deny-rest"));
  return p;
}

std::string leaf_id(int domain, int service, int leaf) {
  return domain_name(domain) + ":svc-" + std::to_string(service) + ":policy-" +
         std::to_string(leaf);
}

/// One domain's PolicySet tree: root gated on the domain, one set per
/// service, role-gated leaves whose read permit carries an audit
/// obligation naming the subject. `flipped` makes leaf 0 of service 0
/// deny reads.
core::PolicySet domain_tree(int domain, bool flipped) {
  core::PolicySet root;
  root.policy_set_id = domain_name(domain) + ":set";
  root.policy_combining = "first-applicable";
  root.target_spec.require(core::Category::kResource, core::attrs::kResourceDomain,
                           core::AttributeValue(domain_name(domain)));
  for (int s = 0; s < kTreeServices; ++s) {
    core::PolicySet service;
    service.policy_set_id = root.policy_set_id + ":svc-" + std::to_string(s);
    service.policy_combining = "deny-overrides";
    service.target_spec.require(core::Category::kResource, "service",
                                core::AttributeValue("svc-" + std::to_string(s)));
    for (int l = 0; l < kTreeLeaves; ++l) {
      core::Policy leaf;
      leaf.policy_id = leaf_id(domain, s, l);
      leaf.rule_combining = "first-applicable";
      leaf.target_spec.require(core::Category::kSubject, core::attrs::kRole,
                               core::AttributeValue(role_name(l % kRoles)));
      const bool deny_read = flipped && s == 0 && l == 0;
      core::Rule read = action_rule(leaf.policy_id + ":read",
                                    deny_read ? core::Effect::kDeny : core::Effect::kPermit,
                                    "read");
      core::ObligationExpr audit;
      audit.id = leaf.policy_id + ":audit";
      audit.fulfill_on = core::Effect::kPermit;
      audit.assignments.push_back(core::AttributeAssignmentExpr{
          "who", core::designator(core::Category::kSubject, core::attrs::kSubjectId,
                                  core::DataType::kString)});
      read.obligations.push_back(std::move(audit));
      leaf.rules.push_back(std::move(read));
      leaf.rules.push_back(deny_rest(leaf.policy_id + ":deny-rest"));
      service.add(std::move(leaf));
    }
    root.add(std::move(service));
  }
  return root;
}

/// `serial` as kSerialDigits zero-padded decimal digits.
struct SerialDigits {
  explicit SerialDigits(std::uint64_t serial) {
    for (std::size_t i = kSerialDigits; i-- > 0;) {
      text[i] = static_cast<char>('0' + serial % 10);
      serial /= 10;
    }
  }
  char text[kSerialDigits];
};

/// Zipf(1.0) over `n` ranks; rank r is mapped to a seeded random pool
/// index so the popular requests are not the low-numbered ones.
std::vector<std::uint32_t> zipf_sequence(mdac::common::Rng& rng, std::size_t n) {
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  std::vector<std::uint32_t> rank_to_index(n);
  for (std::size_t i = 0; i < n; ++i) rank_to_index[i] = static_cast<std::uint32_t>(i);
  std::shuffle(rank_to_index.begin(), rank_to_index.end(), rng.engine());
  std::vector<std::uint32_t> sequence(kSequenceLength);
  for (auto& slot : sequence) {
    const double u = rng.uniform_double(0, total);
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    slot = rank_to_index[std::min(rank, n - 1)];
  }
  return sequence;
}

}  // namespace

Corpus federation_corpus() {
  Corpus c;
  for (int i = 0; i < kFederationPolicies; ++i) {
    c.documents.push_back(core::node_to_string(federation_policy(i, false)));
  }
  c.flip_id = federation_policy(0, false).policy_id;
  c.flip_documents = {c.documents[0], core::node_to_string(federation_policy(0, true))};
  return c;
}

Corpus set_tree_corpus() {
  Corpus c;
  for (int d = 0; d < kTreeDomains; ++d) {
    c.documents.push_back(core::node_to_string(domain_tree(d, false)));
    for (int s = 0; s < kTreeServices; ++s) {
      for (int l = 0; l < kTreeLeaves; ++l) {
        c.obligation_ids.push_back(leaf_id(d, s, l) + ":audit");
      }
    }
  }
  c.flip_id = domain_tree(0, false).policy_set_id;
  c.flip_documents = {c.documents[0], core::node_to_string(domain_tree(0, true))};
  return c;
}

std::shared_ptr<core::PolicyStore> reference_store(const Corpus& corpus, int variant) {
  // Same top-level order as PolicyRepository::load_into (by policy id).
  std::map<std::string, core::PolicyNodePtr> nodes;
  for (const std::string& doc : corpus.documents) {
    core::PolicyNodePtr node = core::node_from_string(doc);
    if (node->id() == corpus.flip_id) {
      node = core::node_from_string(corpus.flip_documents[static_cast<std::size_t>(variant)]);
    }
    const std::string id = node->id();
    nodes[id] = std::move(node);
  }
  auto store = std::make_shared<core::PolicyStore>();
  for (auto& [id, node] : nodes) store->add(std::move(node));
  return store;
}

RequestPool zipf_federation_pool(std::uint64_t seed) {
  mdac::common::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  RequestPool pool;
  pool.requests.reserve(kDistinctRequests);
  for (std::size_t i = 0; i < kDistinctRequests; ++i) {
    // A distinct subject per entry keeps all 4,096 cache keys distinct;
    // domain, role and action decide the outcome (always Permit/Deny).
    core::RequestContext r = core::RequestContext::make(
        "user-" + std::to_string(i), "res-" + std::to_string(rng.uniform_int(0, 63)),
        rng.chance(0.5) ? "read" : "write");
    r.add(core::Category::kResource, core::attrs::kResourceDomain,
          core::AttributeValue(domain_name(
              static_cast<int>(rng.uniform_int(0, kFederationDomains - 1)))));
    r.add(core::Category::kSubject, core::attrs::kRole,
          core::AttributeValue(role_name(static_cast<int>(rng.uniform_int(0, kRoles - 1)))));
    pool.requests.push_back(std::move(r));
  }
  pool.sequence = zipf_sequence(rng, kDistinctRequests);
  return pool;
}

RequestPool wire_set_tree_pool(std::uint64_t seed) {
  mdac::common::Rng rng(seed * 0xD1B54A32D192ED03ULL + 2);
  RequestPool pool;
  const std::string subject = kSerialPrefix + std::string(kSerialDigits, '0');
  for (std::size_t i = 0; i < kDistinctRequests; ++i) {
    core::RequestContext r = core::RequestContext::make(
        subject, "res-" + std::to_string(rng.uniform_int(0, 63)),
        rng.chance(0.5) ? "read" : "write");
    r.add(core::Category::kResource, core::attrs::kResourceDomain,
          core::AttributeValue(
              domain_name(static_cast<int>(rng.uniform_int(0, kTreeDomains - 1)))));
    r.add(core::Category::kResource, "service",
          core::AttributeValue("svc-" + std::to_string(rng.uniform_int(0, kTreeServices - 1))));
    r.add(core::Category::kSubject, core::attrs::kRole,
          core::AttributeValue(role_name(static_cast<int>(rng.uniform_int(0, kRoles - 1)))));
    pool.wire.push_back(core::request_to_string(r));
    pool.wire_serial_offsets.push_back(serial_offsets(pool.wire.back()));
    if (pool.wire_serial_offsets.back().size() != 1) {
      throw std::logic_error("wire template must carry exactly one serial subject id");
    }
    pool.requests.push_back(std::move(r));
  }
  pool.sequence.resize(kSequenceLength);
  for (auto& slot : pool.sequence) {
    slot = static_cast<std::uint32_t>(rng.uniform_int(0, kDistinctRequests - 1));
  }
  return pool;
}

void stamp_serial(std::string& text, const std::vector<std::size_t>& offsets,
                  std::uint64_t serial) {
  const SerialDigits digits(serial);
  for (const std::size_t at : offsets) std::memcpy(text.data() + at, digits.text, kSerialDigits);
}

std::vector<std::size_t> serial_offsets(const std::string& text) {
  const std::string needle = kSerialPrefix + std::string(kSerialDigits, '0');
  std::vector<std::size_t> offsets;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    offsets.push_back(at + std::strlen(kSerialPrefix));
  }
  return offsets;
}

Oracle build_oracle(const Corpus& corpus, const RequestPool& pool) {
  Oracle oracle;
  core::PdpConfig interpreted;
  interpreted.use_compiled = false;
  for (int variant = 0; variant < 2; ++variant) {
    const auto v = static_cast<std::size_t>(variant);
    core::Pdp pdp(reference_store(corpus, variant), interpreted);
    for (std::size_t i = 0; i < pool.requests.size(); ++i) {
      core::Decision d = pool.wire.empty()
                             ? pdp.evaluate(pool.requests[i])
                             : pdp.evaluate(core::request_from_string(pool.wire[i]));
      if (!d.is_permit() && !d.is_deny()) {
        throw std::logic_error("workload request " + std::to_string(i) +
                               " is not decided Permit/Deny: " + d.describe());
      }
      if (!pool.wire.empty()) {
        oracle.encoded[v].push_back(core::decision_to_string(d));
        oracle.encoded_serial_offsets[v].push_back(serial_offsets(oracle.encoded[v].back()));
      }
      oracle.decisions[v].push_back(std::move(d));
    }
  }
  return oracle;
}

bool matches_with_serial(const std::string& got, const std::string& expected,
                         const std::vector<std::size_t>& offsets, std::uint64_t serial) {
  if (got.size() != expected.size()) return false;
  const SerialDigits digits(serial);
  std::size_t from = 0;
  for (const std::size_t at : offsets) {
    if (std::memcmp(got.data() + from, expected.data() + from, at - from) != 0) return false;
    if (std::memcmp(got.data() + at, digits.text, kSerialDigits) != 0) return false;
    from = at + kSerialDigits;
  }
  return std::memcmp(got.data() + from, expected.data() + from, got.size() - from) == 0;
}

}  // namespace dbench
