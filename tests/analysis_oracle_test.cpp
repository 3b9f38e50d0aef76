// Dynamic soundness oracle for the static analyser (the pinning test the
// tentpole demands): over randomized federation and set-tree workloads,
//   1. removal invariance — for every rule/policy the analyser flags
//      unreachable, deleting it from the tree must not change any
//      decision over a random request sweep (stronger than "is never the
//      deciding rule": it also covers obligations and Indeterminates);
//   2. conflict completeness — every injected cross-root permit/deny
//      mirror pair must be reported (approximate findings are allowed,
//      silently missed conflicts are not);
//   3. lifecycle equivalence — over seeded issue / update / withdraw /
//      gate-refused sequences, the incrementally maintained report
//      (IncrementalAnalysis, PolicyRepository::lint_report on top of it,
//      and analyse_roots, which folds the roots into a fresh index)
//      equals the whole-corpus reference analyser in tests/support over
//      the same roots after every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <tuple>
#include <vector>

#include "analysis/analysis.hpp"
#include "workload.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "core/compiled.hpp"
#include "core/functions.hpp"
#include "core/serialization.hpp"
#include "pap/repository.hpp"
#include "support/batch_analysis.hpp"

namespace mdac::analysis {
namespace {

std::vector<std::string> split_path(const std::string& path) {
  std::vector<std::string> segments;
  std::stringstream stream(path);
  std::string segment;
  while (std::getline(stream, segment, '/')) segments.push_back(segment);
  return segments;
}

/// Clones `node` with the rule/child named by the last path segment
/// removed. `next` indexes the segment naming the element beneath `node`.
core::PolicyNodePtr clone_without(const core::PolicyTreeNode& node,
                                  const std::vector<std::string>& segments,
                                  std::size_t next) {
  if (const auto* policy = dynamic_cast<const core::Policy*>(&node)) {
    core::Policy copy = policy->clone();
    EXPECT_EQ(next, segments.size() - 1) << "rule segment must be last";
    std::erase_if(copy.rules, [&](const core::Rule& r) {
      return r.id == segments[next];
    });
    return std::make_unique<core::Policy>(std::move(copy));
  }
  const auto* set = dynamic_cast<const core::PolicySet*>(&node);
  if (set == nullptr) return node.clone_node();
  core::PolicySet copy;
  copy.policy_set_id = set->policy_set_id;
  copy.version = set->version;
  copy.policy_combining = set->policy_combining;
  copy.target_spec = set->target_spec;
  for (const core::ObligationExpr& ob : set->obligations) {
    copy.obligations.push_back(ob.clone());
  }
  for (const core::PolicyNodePtr& child : set->children()) {
    if (child->id() == segments[next]) {
      if (next == segments.size() - 1) continue;  // drop the child itself
      copy.add_node(clone_without(*child, segments, next + 1));
    } else {
      copy.add_node(child->clone_node());
    }
  }
  return std::make_unique<core::PolicySet>(std::move(copy));
}

core::Decision evaluate(const core::PolicyTreeNode& node,
                        const core::RequestContext& request) {
  core::EvaluationContext ctx(request, core::FunctionRegistry::standard());
  return node.evaluate(ctx);
}

/// Asserts removal invariance for every unreachability finding, and that
/// every (root, other_root) pair in `required_conflicts` is reported.
void run_oracle(const std::vector<core::PolicyNodePtr>& roots,
                const std::set<std::pair<std::string, std::string>>& required_conflicts,
                const std::vector<core::RequestContext>& requests) {
  std::vector<AnalysisInput> inputs;
  for (const core::PolicyNodePtr& root : roots) {
    inputs.push_back({root.get(), nullptr});
  }
  AnalyzerOptions options;
  options.max_findings_per_pass = 0;  // the oracle must see everything
  const AnalysisReport report = analyse_roots(inputs, options);

  std::size_t unreachable_checked = 0;
  for (const Finding& finding : report.findings) {
    if (!is_unreachability_code(finding.code)) continue;
    const std::vector<std::string> segments = split_path(finding.path);
    ASSERT_GE(segments.size(), 2u) << finding.code << " at " << finding.path;
    const core::PolicyTreeNode* root = nullptr;
    for (const core::PolicyNodePtr& r : roots) {
      if (r->id() == segments[0]) root = r.get();
    }
    ASSERT_NE(root, nullptr) << finding.path;
    const core::PolicyNodePtr pruned = clone_without(*root, segments, 1);
    for (const core::RequestContext& request : requests) {
      const core::Decision before = evaluate(*root, request);
      const core::Decision after = evaluate(*pruned, request);
      ASSERT_EQ(before == after, true)
          << "removing " << finding.path << " (" << finding.code
          << ") changed a decision";
    }
    ++unreachable_checked;
  }
  // The injections below guarantee the invariance loop is not vacuous.
  EXPECT_GT(unreachable_checked, 0u);

  std::set<std::pair<std::string, std::string>> reported;
  for (const Finding& finding : report.findings) {
    if (finding.code != "modality-conflict") continue;
    reported.insert({finding.root_id, finding.other_root_id});
    reported.insert({finding.other_root_id, finding.root_id});
  }
  for (const auto& pair : required_conflicts) {
    EXPECT_TRUE(reported.count(pair) > 0)
        << "missed injected conflict " << pair.first << " vs " << pair.second;
  }
}

core::Rule shadowed_rule(const std::string& id, int role, bool conditioned) {
  core::Rule r;
  r.id = id;
  r.effect = core::Effect::kPermit;
  core::Target t;
  t.require(core::Category::kSubject, core::attrs::kRole,
            core::AttributeValue("role-" + std::to_string(role)));
  r.target = std::move(t);
  if (conditioned) r.condition = core::lit(true);
  return r;
}

class AnalysisOracle : public ::testing::TestWithParam<int> {};

TEST_P(AnalysisOracle, FederationWorkloadRemovalInvariantAndComplete) {
  const int n_domains = 4, n_policies = 40, n_roles = 3;
  common::Rng rng(static_cast<std::uint64_t>(GetParam()));

  std::vector<core::PolicyNodePtr> roots;
  std::set<std::pair<std::string, std::string>> required;
  for (int i = 0; i < n_policies; ++i) {
    core::Policy p = bench::domain_role_policy(i % n_domains, i, n_roles);
    if (rng.uniform_int(0, 4) == 0) {
      // Inject a rule after the unconditional deny-rest catch-all: under
      // first-applicable it can never decide and must be flagged.
      p.rules.push_back(shadowed_rule(p.policy_id + ":injected-shadowed",
                                      static_cast<int>(rng.uniform_int(0, n_roles - 1)),
                                      rng.uniform_int(0, 1) == 0));
    }
    if (rng.uniform_int(0, 9) == 0) {
      // Inject a mirror root denying exactly what this policy permits:
      // a cross-root exact conflict that must be reported.
      core::Policy mirror = bench::domain_role_policy(i % n_domains, i, n_roles);
      mirror.policy_id = p.policy_id + ":mirror";
      mirror.rules.clear();
      core::Rule deny;
      deny.id = mirror.policy_id + ":deny-read";
      deny.effect = core::Effect::kDeny;
      core::Target t;
      t.require(core::Category::kAction, core::attrs::kActionId,
                core::AttributeValue("read"));
      deny.target = std::move(t);
      mirror.rules.push_back(std::move(deny));
      required.insert({p.policy_id, mirror.policy_id});
      roots.push_back(std::make_unique<core::Policy>(std::move(mirror)));
    }
    roots.push_back(std::make_unique<core::Policy>(std::move(p)));
  }

  std::vector<core::RequestContext> requests;
  for (int i = 0; i < 200; ++i) {
    requests.push_back(
        bench::random_domain_request(rng, n_domains, n_policies, n_roles));
  }
  run_oracle(roots, required, requests);
}

TEST_P(AnalysisOracle, SetTreeWorkloadRemovalInvariantAndComplete) {
  const int n_domains = 3, n_services = 4, per_service = 3, n_roles = 3;
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);

  std::vector<core::PolicyNodePtr> roots;
  std::set<std::pair<std::string, std::string>> required;
  for (int d = 0; d < n_domains; ++d) {
    core::PolicySet tree =
        bench::domain_service_set(d, n_services, per_service, n_roles);
    // Inject shadowed rules into random leaf policies (after their
    // unconditional deny-rest catch-alls).
    for (const core::PolicyNodePtr& service : tree.children()) {
      auto* svc = dynamic_cast<core::PolicySet*>(service.get());
      ASSERT_NE(svc, nullptr);
      for (const core::PolicyNodePtr& leaf : svc->children()) {
        if (rng.uniform_int(0, 2) != 0) continue;
        auto* policy = dynamic_cast<core::Policy*>(leaf.get());
        ASSERT_NE(policy, nullptr);
        policy->rules.push_back(shadowed_rule(
            policy->policy_id + ":injected-shadowed",
            static_cast<int>(rng.uniform_int(0, n_roles - 1)), false));
      }
    }
    const std::string tree_id = tree.id();
    roots.push_back(std::make_unique<core::PolicySet>(std::move(tree)));

    // Mirror root: a flat deny against one leaf's exact permit space.
    core::Policy mirror;
    mirror.policy_id = "mirror:" + tree_id;
    mirror.target_spec.require(
        core::Category::kResource, core::attrs::kResourceDomain,
        core::AttributeValue("domain-" + std::to_string(d)));
    mirror.target_spec.require(core::Category::kResource, "service",
                               core::AttributeValue("svc-0"));
    mirror.target_spec.require(core::Category::kSubject, core::attrs::kRole,
                               core::AttributeValue("role-0"));
    core::Rule deny;
    deny.id = mirror.policy_id + ":deny-read";
    deny.effect = core::Effect::kDeny;
    core::Target t;
    t.require(core::Category::kAction, core::attrs::kActionId,
              core::AttributeValue("read"));
    deny.target = std::move(t);
    mirror.rules.push_back(std::move(deny));
    required.insert({tree_id, mirror.policy_id});
    roots.push_back(std::make_unique<core::Policy>(std::move(mirror)));
  }

  std::vector<core::RequestContext> requests;
  for (int i = 0; i < 200; ++i) {
    requests.push_back(
        bench::random_set_tree_request(rng, n_domains, n_services, n_roles));
  }
  run_oracle(roots, required, requests);
}

// ---------------------------------------------------------------------
// Lifecycle oracle
// ---------------------------------------------------------------------

auto finding_fields(const Finding& f) {
  return std::tie(f.pass, f.severity, f.code, f.root_id, f.path, f.other_root_id,
                  f.other_path, f.message, f.witness, f.approximate);
}

bool finding_less(const Finding& a, const Finding& b) {
  return finding_fields(a) < finding_fields(b);
}

std::string describe(const Finding& f) {
  return f.code + " " + f.root_id + ":" + f.path + " / " + f.other_root_id + ":" +
         f.other_path + " (" + f.message + ")";
}

/// The report's findings sorted; `truncation` selects the per-pass
/// "findings-truncated" summaries (true) or everything else (false).
std::vector<Finding> sorted_findings(const AnalysisReport& report, bool truncation) {
  std::vector<Finding> out;
  for (const Finding& f : report.findings) {
    if ((f.code == "findings-truncated") == truncation) out.push_back(f);
  }
  std::sort(out.begin(), out.end(), finding_less);
  return out;
}

/// Equal as sorted sets, with the first difference in the failure.
void expect_same_findings(const AnalysisReport& maintained, const AnalysisReport& fresh,
                          const std::string& step) {
  EXPECT_EQ(maintained.error_count, fresh.error_count) << step;
  EXPECT_EQ(maintained.warning_count, fresh.warning_count) << step;
  EXPECT_EQ(maintained.info_count, fresh.info_count) << step;
  EXPECT_EQ(maintained.suppressed, fresh.suppressed) << step;
  const std::vector<Finding> a = sorted_findings(maintained, false);
  const std::vector<Finding> b = sorted_findings(fresh, false);
  ASSERT_EQ(a.size(), b.size()) << step;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(finding_fields(a[i]) == finding_fields(b[i]))
        << step << ": maintained " << describe(a[i]) << " vs fresh " << describe(b[i]);
  }
}

/// Variant pools: every id of a lifecycle corpus with the trees an issue
/// or update of it picks from.
using VariantPool = std::map<std::string, std::vector<core::PolicyNodePtr>>;

core::PolicyNodePtr flipped(const core::Policy& p) {
  core::Policy copy = p.clone();
  for (core::Rule& r : copy.rules) {
    r.effect = r.effect == core::Effect::kPermit ? core::Effect::kDeny
                                                 : core::Effect::kPermit;
  }
  return std::make_unique<core::Policy>(std::move(copy));
}

/// A rule calling an unknown function: a type error (the lint gate
/// refuses it) and a compile diagnostic.
core::PolicyNodePtr with_unknown_function(const core::Policy& p) {
  core::Policy copy = p.clone();
  core::Rule r;
  r.id = copy.policy_id + ":unknown-fn";
  r.effect = core::Effect::kPermit;
  r.condition = core::make_apply(
      "urn:example:no-such-function",
      core::designator(core::Category::kSubject, core::attrs::kSubjectId,
                       core::DataType::kString));
  copy.rules.insert(copy.rules.begin(), std::move(r));
  return std::make_unique<core::Policy>(std::move(copy));
}

core::PolicyNodePtr reference_set(const std::string& id,
                                  const std::vector<std::string>& targets) {
  core::PolicySet set;
  set.policy_set_id = id;
  set.policy_combining = "first-applicable";
  for (const std::string& target : targets) {
    set.add_node(std::make_unique<core::PolicyReference>(target));
  }
  return std::make_unique<core::PolicySet>(std::move(set));
}

/// Reference roots over `targets` (ids of the pool): a hub referring to
/// some of them and to an id that never exists, and a two-set cycle
/// whose second variant breaks it.
void add_reference_roots(VariantPool* pool, const std::vector<std::string>& targets) {
  auto& hub = (*pool)["hub"];
  hub.push_back(reference_set("hub", {targets[0], targets[1], "ghost"}));
  hub.push_back(reference_set("hub", {targets[2], targets[3]}));
  (*pool)["loop-a"].push_back(reference_set("loop-a", {"loop-b", targets[0]}));
  auto& loop_b = (*pool)["loop-b"];
  loop_b.push_back(reference_set("loop-b", {"loop-a"}));
  loop_b.push_back(reference_set("loop-b", {targets[1]}));
}

/// Roots the conflict index's partition key cannot pin, so its global
/// list takes part: "wide" admits two domains and two roles (whichever
/// of the two keys partitions, its atom is not a singleton), and its
/// variants flip it to a permit or drop its target altogether.
void add_unpinned_roots(VariantPool* pool) {
  core::Policy wide;
  wide.policy_id = "wide";
  wide.target_spec.require_any(core::Category::kResource, core::attrs::kResourceDomain,
                               {core::AttributeValue("domain-0"),
                                core::AttributeValue("domain-1")});
  wide.target_spec.require_any(core::Category::kSubject, core::attrs::kRole,
                               {core::AttributeValue("role-0"),
                                core::AttributeValue("role-1")});
  core::Rule deny;
  deny.id = "wide:deny-read";
  deny.effect = core::Effect::kDeny;
  core::Target t;
  t.require(core::Category::kAction, core::attrs::kActionId, core::AttributeValue("read"));
  deny.target = std::move(t);
  wide.rules.push_back(std::move(deny));
  core::Policy everyone = wide.clone();
  everyone.target_spec = core::Target{};
  auto& variants = (*pool)["wide"];
  variants.push_back(flipped(wide));
  variants.push_back(std::make_unique<core::Policy>(std::move(everyone)));
  variants.insert(variants.begin(), std::make_unique<core::Policy>(std::move(wide)));
}

/// Drives one seeded lifecycle through both the bare index and a
/// lint-gated PolicyRepository, checking each (and analyse_roots) against
/// the reference analyser after every step.
class Lifecycle {
 public:
  static constexpr std::size_t kCap = 2;

  explicit Lifecycle(const VariantPool& pool) : pool_(pool), repo_(clock_, gated()) {
    options_.max_findings_per_pass = 0;
    options_.withdrawn = [this](const std::string& id) {
      return ever_.count(id) > 0 && current_.count(id) == 0;
    };
    capped_ = options_;
    capped_.max_findings_per_pass = kCap;
  }

  bool present(const std::string& id) const { return current_.count(id) > 0; }

  /// Issues (or updates) `id` as `variant`. A gated issue is refused when
  /// the candidate carries error findings.
  void issue(const std::string& id, std::size_t variant, bool gated) {
    const core::PolicyTreeNode& node = *pool_.at(id)[variant];
    const std::string step = "issue " + id + "#" + std::to_string(variant) +
                             (gated ? " gated" : "");
    IncrementalAnalysis::Staged staged = index_.stage(node, options_);
    if (gated && staged.error_count() > 0) {
      ++refusals_;
      const AnalysisReport before = index_.report(options_);
      check(step + " (refused)");
      expect_same_findings(index_.report(options_), before, step + " (refused)");
    } else {
      index_.commit(std::move(staged), options_);
      const auto compiled = core::CompiledPolicyTree::compile(node);
      index_.set_compiled(id, compiled);
      current_[id] = {&node, compiled};
      ever_.insert(id);
      check(step);
    }
    issue_in_repository(node, step);
  }

  void withdraw(const std::string& id) {
    const std::string step = "withdraw " + id;
    current_.erase(id);  // the `withdrawn` predicate reads it
    index_.erase(id, options_);
    check(step);
    if (repo_.issued(id) != nullptr) {
      ASSERT_TRUE(repo_.withdraw(id, "admin")) << step;
      check_repository(step);
    }
  }

  std::size_t refusals() const { return refusals_; }
  std::size_t repository_refusals() const { return repository_refusals_; }
  std::size_t capped_steps() const { return capped_steps_; }

 private:
  static pap::PapConfig gated() {
    pap::PapConfig config;
    config.lint_gate = true;
    return config;
  }

  void check(const std::string& step) {
    std::vector<AnalysisInput> inputs;
    for (const auto& [id, root] : current_) inputs.push_back({root.first, root.second});
    const AnalysisReport fresh = test::batch_analyse_roots(inputs, options_);
    expect_same_findings(index_.report(options_), fresh, step);
    expect_same_findings(analyse_roots(inputs, options_), fresh, step + " (fold)");

    // With a binding cap, totals and suppression agree and every kept
    // finding is a real one.
    const AnalysisReport fresh_capped = test::batch_analyse_roots(inputs, capped_);
    expect_capped_agrees(index_.report(capped_), fresh_capped, fresh, step);
    expect_capped_agrees(analyse_roots(inputs, capped_), fresh_capped, fresh,
                         step + " (fold)");
    if (fresh_capped.suppressed > 0) ++capped_steps_;
  }

  static void expect_capped_agrees(const AnalysisReport& capped,
                                   const AnalysisReport& fresh_capped,
                                   const AnalysisReport& fresh, const std::string& step) {
    EXPECT_EQ(capped.error_count, fresh_capped.error_count) << step;
    EXPECT_EQ(capped.warning_count, fresh_capped.warning_count) << step;
    EXPECT_EQ(capped.info_count, fresh_capped.info_count) << step;
    EXPECT_EQ(capped.suppressed, fresh_capped.suppressed) << step;
    const std::vector<Finding> all = sorted_findings(fresh, false);
    for (const Finding& f : sorted_findings(capped, false)) {
      EXPECT_TRUE(std::binary_search(all.begin(), all.end(), f, finding_less))
          << step << ": capped report invented " << describe(f);
    }
    const std::vector<Finding> truncated = sorted_findings(capped, true);
    const std::vector<Finding> fresh_truncated = sorted_findings(fresh_capped, true);
    EXPECT_TRUE(std::equal(truncated.begin(), truncated.end(), fresh_truncated.begin(),
                           fresh_truncated.end(),
                           [](const Finding& a, const Finding& b) {
                             return finding_fields(a) == finding_fields(b);
                           }))
        << step;
  }

  void issue_in_repository(const core::PolicyTreeNode& node, const std::string& step) {
    const std::string& id = node.id();
    const auto before = repo_.lint_report();
    ASSERT_TRUE(repo_.submit(core::node_to_string(node), "admin")) << step;
    if (repo_.issue(id, "admin")) {
      check_repository(step);
      return;
    }
    ++repository_refusals_;
    const auto after = repo_.lint_report();
    ASSERT_EQ(after == nullptr, before == nullptr) << step;
    if (after != nullptr) expect_same_findings(*after, *before, step + " (repo refused)");
    check_repository(step + " (repo refused)");
  }

  void check_repository(const std::string& step) {
    const auto report = repo_.lint_report();
    if (report == nullptr) return;
    std::vector<AnalysisInput> inputs;
    for (const std::string& id : repo_.policy_ids()) {
      if (const auto artifact = repo_.compiled(id)) {
        inputs.push_back({&artifact->source(), artifact});
      }
    }
    AnalyzerOptions options;
    options.resolves = [this](const std::string& id) {
      return repo_.issued(id) != nullptr;
    };
    options.withdrawn = [this](const std::string& id) {
      return repo_.latest(id) != nullptr && repo_.issued(id) == nullptr;
    };
    const AnalysisReport fresh = test::batch_analyse_roots(inputs, options);
    ASSERT_EQ(fresh.suppressed, 0u) << step << ": corpus outgrew the repository's cap";
    expect_same_findings(*report, fresh, step + " (repo)");
  }

  const VariantPool& pool_;
  AnalyzerOptions options_;
  AnalyzerOptions capped_;
  IncrementalAnalysis index_;
  std::map<std::string,
           std::pair<const core::PolicyTreeNode*,
                     std::shared_ptr<const core::CompiledPolicyTree>>>
      current_;
  std::set<std::string> ever_;
  common::ManualClock clock_;
  pap::PolicyRepository repo_;
  std::size_t refusals_ = 0;
  std::size_t repository_refusals_ = 0;
  std::size_t capped_steps_ = 0;
};

/// Issues every id once (ungated, so conflicts accumulate), then runs
/// `steps` seeded issue / update / withdraw / gated-issue steps.
void run_lifecycle(const VariantPool& pool, std::uint64_t seed, int steps) {
  common::Rng rng(seed);
  std::vector<std::string> ids;
  for (const auto& [id, variants] : pool) ids.push_back(id);
  Lifecycle life(pool);
  for (const std::string& id : ids) {
    life.issue(id, 0, false);
    if (::testing::Test::HasFatalFailure()) return;
  }
  std::size_t withdrawals = 0;
  for (int i = 0; i < steps; ++i) {
    const std::string& id = rng.pick(ids);
    const auto variant = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.at(id).size()) - 1));
    switch (rng.uniform_int(0, 3)) {
      case 0:
        if (life.present(id)) {
          life.withdraw(id);
          ++withdrawals;
          break;
        }
        [[fallthrough]];
      case 1:
        life.issue(id, variant, false);
        break;
      default:
        life.issue(id, variant, true);
        break;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The steps the oracle exists for must have happened.
  EXPECT_GT(withdrawals, 0u);
  EXPECT_GT(life.refusals(), 0u);
  EXPECT_GT(life.repository_refusals(), 0u);
  EXPECT_GT(life.capped_steps(), 0u);
}

TEST_P(AnalysisOracle, FederationLifecycleMatchesFreshAnalysis) {
  const int n_domains = 4, n_policies = 24, n_roles = 3;
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) + 200);
  VariantPool pool;
  std::vector<std::string> ids;
  for (int i = 0; i < n_policies; ++i) {
    core::Policy p = bench::domain_role_policy(i % n_domains, i, n_roles);
    if (rng.uniform_int(0, 4) == 0) {
      p.rules.push_back(shadowed_rule(p.policy_id + ":injected-shadowed",
                                      static_cast<int>(rng.uniform_int(0, n_roles - 1)),
                                      rng.uniform_int(0, 1) == 0));
    }
    auto& variants = pool[p.policy_id];
    variants.push_back(flipped(p));
    variants.push_back(with_unknown_function(p));
    variants.insert(variants.begin(), std::make_unique<core::Policy>(std::move(p)));
    ids.push_back(variants.front()->id());
  }
  add_reference_roots(&pool, ids);
  add_unpinned_roots(&pool);
  run_lifecycle(pool, static_cast<std::uint64_t>(GetParam()), 80);
}

TEST_P(AnalysisOracle, SetTreeLifecycleMatchesFreshAnalysis) {
  const int n_domains = 3, n_services = 3, per_service = 3, n_roles = 3;
  VariantPool pool;
  std::vector<std::string> ids;
  for (int d = 0; d < n_domains; ++d) {
    core::PolicySet tree = bench::domain_service_set(d, n_services, per_service, n_roles);
    const std::string tree_id = tree.id();
    auto& variants = pool[tree_id];
    variants.push_back(std::make_unique<core::PolicySet>(std::move(tree)));
    // An only-one-applicable variant: its overlapping service sets are
    // findings of the root alone.
    core::PolicySet only_one = bench::domain_service_set(d, n_services, per_service, n_roles);
    only_one.policy_combining = "only-one-applicable";
    variants.push_back(std::make_unique<core::PolicySet>(std::move(only_one)));
    ids.push_back(tree_id);

    // Mirror roots: flat denies against one leaf's permit space, exact
    // and conditioned (approximate).
    core::Policy mirror;
    mirror.policy_id = "mirror:" + tree_id;
    mirror.target_spec.require(core::Category::kResource, core::attrs::kResourceDomain,
                               core::AttributeValue("domain-" + std::to_string(d)));
    mirror.target_spec.require(core::Category::kSubject, core::attrs::kRole,
                               core::AttributeValue("role-0"));
    core::Rule deny;
    deny.id = mirror.policy_id + ":deny-read";
    deny.effect = core::Effect::kDeny;
    core::Target t;
    t.require(core::Category::kAction, core::attrs::kActionId,
              core::AttributeValue("read"));
    deny.target = std::move(t);
    mirror.rules.push_back(std::move(deny));
    core::Policy conditioned = mirror.clone();
    conditioned.rules[0].condition = core::lit(true);
    auto& mirrors = pool[mirror.policy_id];
    mirrors.push_back(with_unknown_function(mirror));
    mirrors.push_back(std::make_unique<core::Policy>(std::move(conditioned)));
    mirrors.insert(mirrors.begin(), std::make_unique<core::Policy>(std::move(mirror)));
    ids.push_back(mirrors.front()->id());
  }
  add_reference_roots(&pool, ids);
  add_unpinned_roots(&pool);
  run_lifecycle(pool, static_cast<std::uint64_t>(GetParam()) + 100, 60);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisOracle, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace mdac::analysis
