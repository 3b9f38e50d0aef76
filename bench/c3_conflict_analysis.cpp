// C3 — static policy-conflict analysis (paper §3.1): detecting modality
// conflicts before deployment.
//
// Series reported:
//   * analysis runtime vs number of policies (each policy its own root)
//   * conflicts found under a controlled conflict-injection rate
//   * SoD meta-policy checking cost
//
// Expected shape: the conflict pass compares only atoms that share the
// value of the most common pinned attribute (a subject or resource id
// here), so runtime grows far slower than the all-pairs quadratic;
// conflicts found grows with the injected conflict rate, and
// every injected conflict is detected (completeness, see the oracle
// property test).
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "analysis/analysis.hpp"

namespace {

using namespace mdac;

/// Policies over a domain of subjects/resources/actions; a fraction of
/// policies mirror the previous policy's subject and resource with the
/// opposite effect (injected conflicts).
std::vector<core::Policy> make_corpus(int n, double conflict_rate,
                                      common::Rng& rng) {
  std::vector<core::Policy> out;
  out.reserve(static_cast<std::size_t>(n));
  int subject = 0;
  int resource = 0;
  core::Effect effect = core::Effect::kPermit;
  for (int i = 0; i < n; ++i) {
    core::Policy p;
    p.policy_id = "p-" + std::to_string(i);
    if (i > 0 && rng.chance(conflict_rate)) {
      effect = effect == core::Effect::kPermit ? core::Effect::kDeny
                                               : core::Effect::kPermit;
    } else {
      subject = static_cast<int>(rng.uniform_int(0, 19));
      resource = static_cast<int>(rng.uniform_int(0, 49));
      effect = rng.chance(0.5) ? core::Effect::kPermit : core::Effect::kDeny;
    }
    p.target_spec.require(core::Category::kResource, core::attrs::kResourceId,
                          core::AttributeValue("res-" + std::to_string(resource)));
    core::Rule r;
    r.id = "r";
    r.effect = effect;
    core::Target t;
    t.require(core::Category::kSubject, core::attrs::kSubjectId,
              core::AttributeValue("user-" + std::to_string(subject)));
    r.target = std::move(t);
    p.rules.push_back(std::move(r));
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<analysis::AnalysisInput> inputs_of(const std::vector<core::Policy>& corpus) {
  std::vector<analysis::AnalysisInput> inputs;
  for (const auto& p : corpus) inputs.push_back({&p, nullptr});
  return inputs;
}

/// Modality conflicts among the corpus roots: with the other passes off,
/// every error or warning the report counts is one. The cap keeps the
/// clock on the analysis, not on building findings.
std::size_t count_conflicts(const std::vector<analysis::AnalysisInput>& inputs) {
  analysis::AnalyzerOptions options;
  options.shadowing = false;
  options.references = false;
  options.types = false;
  options.dead_code = false;
  options.max_findings_per_pass = 1;
  const analysis::AnalysisReport report = analysis::analyse_roots(inputs, options);
  return report.error_count + report.warning_count;
}

void BM_AnalysisVsPolicyCount(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  common::Rng rng(11);
  const auto corpus = make_corpus(n, 0.1, rng);
  const auto inputs = inputs_of(corpus);

  std::size_t conflicts = 0;
  for (auto _ : state) {
    conflicts = count_conflicts(inputs);
    benchmark::DoNotOptimize(conflicts);
  }
  state.counters["policies"] = n;
  state.counters["conflicts_found"] = static_cast<double>(conflicts);
}
BENCHMARK(BM_AnalysisVsPolicyCount)->Arg(50)->Arg(200)->Arg(800)->Arg(2000);

void BM_ConflictsVsInjectionRate(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0)) / 100.0;
  common::Rng rng(11);
  const auto corpus = make_corpus(400, rate, rng);
  const auto inputs = inputs_of(corpus);

  std::size_t conflicts = 0;
  for (auto _ : state) {
    conflicts = count_conflicts(inputs);
    benchmark::DoNotOptimize(conflicts);
  }
  state.counters["injection_pct"] = static_cast<double>(state.range(0));
  state.counters["conflicts_found"] = static_cast<double>(conflicts);
}
BENCHMARK(BM_ConflictsVsInjectionRate)->Arg(0)->Arg(5)->Arg(20)->Arg(50);

void BM_SodMetaPolicyCheck(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  common::Rng rng(11);
  const auto corpus = make_corpus(n, 0.0, rng);
  std::vector<analysis::Atom> atoms;
  for (const auto& p : corpus) {
    std::vector<analysis::Atom> extracted = analysis::extract_atoms(p);
    atoms.insert(atoms.end(), std::make_move_iterator(extracted.begin()),
                 std::make_move_iterator(extracted.end()));
  }

  std::vector<analysis::SodMetaPolicy> metas;
  for (int i = 0; i < 10; ++i) {
    metas.push_back({"sod-" + std::to_string(i), "res-" + std::to_string(i), "read",
                     "res-" + std::to_string(i + 10), "read"});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::check_sod(atoms, metas));
  }
  state.counters["policies"] = n;
}
BENCHMARK(BM_SodMetaPolicyCheck)->Arg(100)->Arg(400)->Arg(1600);

}  // namespace
