// C6 — automated trust negotiation (paper §3.1, [46]/[60]): cost of
// establishing trust between strangers.
//
// Series reported:
//   * rounds and messages vs the depth of the credential dependency
//     chain, for eager and parsimonious strategies
//   * credentials disclosed (the privacy cost) for both strategies when
//     parties carry irrelevant credentials
//   * wall-clock negotiation cost
//
// Expected shape: rounds grow linearly with chain depth for both
// strategies; the parsimonious strategy discloses a constant (minimal)
// credential set while eager's disclosure grows with everything that
// happens to be unlocked — the classic privacy/efficiency trade-off.
#include <benchmark/benchmark.h>

#include "trust/negotiation.hpp"

namespace {

using namespace mdac;

/// Alternating dependency chain of the given depth (see trust_test.cpp).
std::pair<trust::Party, trust::Party> chain_scenario(int depth, int extra_noise) {
  trust::Party requester;
  requester.name = "requester";
  trust::Party provider;
  provider.name = "provider";
  for (int i = 0; i < depth; ++i) {
    const std::string c = std::string("c").append(std::to_string(i));
    const std::string p = std::string("p").append(std::to_string(i));
    requester.credentials.insert(c);
    provider.credentials.insert(p);
    requester.release_policies[c] = trust::DisclosurePolicy::credential(p);
    if (i + 1 < depth) {
      provider.release_policies[p] =
          trust::DisclosurePolicy::credential(
              std::string("c").append(std::to_string(i + 1)));
    }
  }
  // Irrelevant, freely releasable credentials (the privacy bait).
  for (int i = 0; i < extra_noise; ++i) {
    requester.credentials.insert("noise-" + std::to_string(i));
  }
  provider.resource_policies["res"] = trust::DisclosurePolicy::credential("c0");
  return {requester, provider};
}

void run_negotiation(benchmark::State& state, trust::Strategy strategy) {
  const int depth = static_cast<int>(state.range(0));
  const auto [requester, provider] = chain_scenario(depth, 8);
  trust::NegotiationResult result;
  for (auto _ : state) {
    result = trust::negotiate(requester, provider, "res", strategy, 1000);
    benchmark::DoNotOptimize(result);
  }
  state.counters["depth"] = depth;
  state.counters["success"] = result.success ? 1 : 0;
  state.counters["rounds"] = static_cast<double>(result.rounds);
  state.counters["messages"] = static_cast<double>(result.messages);
  state.counters["requester_disclosed"] =
      static_cast<double>(result.disclosed_by_requester.size());
}

void BM_EagerNegotiation(benchmark::State& state) {
  run_negotiation(state, trust::Strategy::kEager);
}
BENCHMARK(BM_EagerNegotiation)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_ParsimoniousNegotiation(benchmark::State& state) {
  run_negotiation(state, trust::Strategy::kParsimonious);
}
BENCHMARK(BM_ParsimoniousNegotiation)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_FailedNegotiationCost(benchmark::State& state) {
  // Deadlocked policies: how fast do we discover there is no deal?
  trust::Party a;
  a.name = "a";
  a.credentials = {"ca"};
  a.release_policies["ca"] = trust::DisclosurePolicy::credential("cb");
  trust::Party b;
  b.name = "b";
  b.credentials = {"cb"};
  b.release_policies["cb"] = trust::DisclosurePolicy::credential("ca");
  b.resource_policies["res"] = trust::DisclosurePolicy::credential("ca");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trust::negotiate(a, b, "res", trust::Strategy::kEager, 1000));
  }
}
BENCHMARK(BM_FailedNegotiationCost);

}  // namespace
