// C8 — cross-domain delegation (paper §3.2): the cost of validating
// third-party-issued policy by reduction to a trusted root, and the blast
// radius of revocation.
//
// Series reported:
//   * reduction (chain validation) cost vs delegation depth
//   * filtering a policy store by reduction vs store size
//   * post-revocation re-filtering: how many policies a mid-chain
//     revocation invalidates
//
// Expected shape: reduction cost grows linearly with chain depth (DFS up
// the grant graph); filtering is linear in policies x chain depth;
// revoking an authority at depth d invalidates every policy issued below
// it — the revocation complexity the paper warns about, made concrete.
#include <benchmark/benchmark.h>

#include "core/policy.hpp"
#include "delegation/delegation.hpp"

namespace {

using namespace mdac;

/// root -> a0 -> a1 -> ... -> a(depth-1), all over scope "shared/*".
delegation::DelegationRegistry chain_registry(int depth) {
  delegation::DelegationRegistry reg;
  reg.add_root("root");
  std::string previous = "root";
  for (int i = 0; i < depth; ++i) {
    const std::string next = std::string("a").append(std::to_string(i));
    const delegation::AdminGrant grant{
        previous, next, "shared/*",
        /*allow_redelegation=*/i + 1 < depth,
        /*max_further_depth=*/depth - i - 1};
    if (!reg.grant(grant)) std::abort();  // bench setup must be valid
    previous = next;
  }
  return reg;
}

core::Policy issued_policy(const std::string& id, const std::string& issuer) {
  core::Policy p;
  p.policy_id = id;
  p.issuer = issuer;
  p.target_spec.require(core::Category::kResource, core::attrs::kResourceId,
                        core::AttributeValue("shared/data"));
  core::Rule r;
  r.id = "permit";
  r.effect = core::Effect::kPermit;
  p.rules.push_back(std::move(r));
  return p;
}

void BM_ReductionVsChainDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const auto reg = chain_registry(depth);
  const std::string leaf = std::string("a").append(std::to_string(depth - 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.reduction_chain(leaf, "shared/data"));
  }
  state.counters["depth"] = depth;
}
BENCHMARK(BM_ReductionVsChainDepth)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_StoreFilteringVsSize(benchmark::State& state) {
  const int n_policies = static_cast<int>(state.range(0));
  const auto reg = chain_registry(4);
  core::PolicyStore store;
  for (int i = 0; i < n_policies; ++i) {
    // Mix of root-issued, validly delegated and rogue policies.
    const std::string issuer = i % 3 == 0   ? ""
                               : i % 3 == 1 ? "a3"
                                            : "rogue";
    store.add(issued_policy("p-" + std::to_string(i), issuer));
  }
  std::size_t accepted = 0;
  for (auto _ : state) {
    const auto filter = delegation::filter_by_reduction(store, reg);
    accepted = filter.accepted.size();
    benchmark::DoNotOptimize(filter);
  }
  state.counters["policies"] = n_policies;
  state.counters["accepted"] = static_cast<double>(accepted);
}
BENCHMARK(BM_StoreFilteringVsSize)->Arg(30)->Arg(120)->Arg(480);

void BM_RevocationBlastRadius(benchmark::State& state) {
  // Revoke the authority at the given chain position; count policies
  // invalidated among 100 issued along the chain.
  const int revoke_at = static_cast<int>(state.range(0));
  constexpr int kDepth = 8;
  std::size_t invalidated = 0;
  for (auto _ : state) {
    auto reg = chain_registry(kDepth);
    core::PolicyStore store;
    for (int i = 0; i < 100; ++i) {
      store.add(issued_policy("p-" + std::to_string(i),
                              std::string("a").append(std::to_string(i % kDepth))));
    }
    const std::size_t before = delegation::filter_by_reduction(store, reg).accepted.size();
    reg.revoke_grantee(std::string("a").append(std::to_string(revoke_at)));
    const std::size_t after = delegation::filter_by_reduction(store, reg).accepted.size();
    invalidated = before - after;
    benchmark::DoNotOptimize(after);
  }
  state.counters["revoked_depth"] = revoke_at;
  state.counters["policies_invalidated"] = static_cast<double>(invalidated);
}
BENCHMARK(BM_RevocationBlastRadius)->Arg(0)->Arg(3)->Arg(7);

}  // namespace
