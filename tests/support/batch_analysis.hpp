// A whole-corpus reference analyser for the oracles that check the
// analyser's index (analysis_oracle_test's lifecycle oracle, pap_test's
// lint-report cases).
//
// analyse_roots is a fold over analysis::IncrementalAnalysis, so checking
// the index against analyse_roots would check it against itself. This
// reference runs every pass over all roots at once instead: it collects
// every root's atoms into one list, compares each opposite-effect
// cross-root pair the partition key does not separate, and checks every
// reference edge against the analysed root ids. It shares the per-root
// pass functions with the analyser (src/analysis/passes.hpp); the
// conflict and reference passes are its own.
#pragma once

#include <vector>

#include "analysis/analysis.hpp"

namespace mdac::test {

/// The report of every enabled pass over `roots` (root ids must be
/// distinct).
analysis::AnalysisReport batch_analyse_roots(
    const std::vector<analysis::AnalysisInput>& roots,
    const analysis::AnalyzerOptions& options);

}  // namespace mdac::test
