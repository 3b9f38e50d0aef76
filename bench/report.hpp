// JSON reporting for the perf harness (bench_main.cpp).
//
// The harness exists so every PR leaves a machine-readable perf
// trajectory behind (`BENCH_pdp.json`); PERF.md documents the schema and
// how to compare two runs. No external JSON dependency: the writer below
// emits the small fixed schema directly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace mdac::bench {

/// One benchmark row. Latency percentiles are nanoseconds per operation,
/// derived from batched samples; allocation and lock figures come from
/// the global operator-new and pthread_mutex_lock hooks in bench_main.cpp.
struct BenchResult {
  std::string name;
  std::uint64_t iterations = 0;
  double ops_per_sec = 0;
  double mean_ns = 0;
  double p50_ns = 0;
  double p90_ns = 0;
  double p99_ns = 0;
  double allocs_per_op = 0;
  double bytes_per_op = 0;
  /// pthread_mutex_lock calls per op; < 0 when not counted (sanitized
  /// builds), and then omitted from the report.
  double locks_per_op = -1;
  /// Benchmark-specific extra series (hit ratios, skip counts, ...).
  std::map<std::string, double> counters;
};

/// Percentile over a sample vector (ns/op); sorts a copy.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

class Report {
 public:
  void add(BenchResult r) { results_.push_back(std::move(r)); }

  const std::vector<BenchResult>& results() const { return results_; }

  /// Writes the report (schema "mdac-bench-v1", see PERF.md).
  bool write(const std::string& path, const std::string& workload) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\n";
    os << "  \"schema\": \"mdac-bench-v1\",\n";
    os << "  \"workload\": \"" << workload << "\",\n";
    os << "  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const BenchResult& r = results_[i];
      os << "    {\n";
      os << "      \"name\": \"" << r.name << "\",\n";
      os << "      \"iterations\": " << r.iterations << ",\n";
      os << "      \"ops_per_sec\": " << num(r.ops_per_sec) << ",\n";
      os << "      \"mean_ns\": " << num(r.mean_ns) << ",\n";
      os << "      \"p50_ns\": " << num(r.p50_ns) << ",\n";
      os << "      \"p90_ns\": " << num(r.p90_ns) << ",\n";
      os << "      \"p99_ns\": " << num(r.p99_ns) << ",\n";
      os << "      \"allocs_per_op\": " << num(r.allocs_per_op) << ",\n";
      os << "      \"bytes_per_op\": " << num(r.bytes_per_op);
      if (r.locks_per_op >= 0) os << ",\n      \"locks_per_op\": " << num(r.locks_per_op);
      if (!r.counters.empty()) {
        os << ",\n      \"counters\": {";
        bool first = true;
        for (const auto& [k, v] : r.counters) {
          if (!first) os << ", ";
          os << "\"" << k << "\": " << num(v);
          first = false;
        }
        os << "}";
      }
      os << "\n    }" << (i + 1 < results_.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
    return static_cast<bool>(os);
  }

 private:
  /// JSON has no NaN/Inf; clamp to 0 so the file always parses.
  static std::string num(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

  std::vector<BenchResult> results_;
};

}  // namespace mdac::bench
