// Policy Enforcement Point (paper §2.2, component 1).
//
// The PEP "creates a barrier around the resource it protects and mediates
// all accesses"; it *conforms* to PDP decisions and fulfils their
// obligations. Key dependability property implemented here: fail-safe
// bias — NotApplicable, Indeterminate, unreachable PDP, or an obligation
// the PEP cannot discharge all collapse to deny (configurable).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "cache/decision_cache.hpp"
#include "core/decision.hpp"
#include "core/request.hpp"
#include "obs/trace.hpp"

namespace mdac::pep {

/// Discharges one obligation instance; returns false if it cannot.
using ObligationHandler = std::function<bool(const core::ObligationInstance&)>;

enum class Bias { kDeny, kPermit };

struct PepConfig {
  /// Applied to NotApplicable / Indeterminate decisions.
  Bias bias = Bias::kDeny;
};

/// Why an enforcement denied. The fixed texts (policy deny, fail-safe
/// deny) are string literals held by pointer, so an obligation-free
/// enforcement allocates nothing; composed texts (obligation failures, a
/// caller's own reason) are owned.
class Reason {
 public:
  Reason() = default;
  /// `literal` must have static storage duration.
  static Reason fixed(const char* literal) {
    Reason r;
    r.literal_ = literal;
    return r;
  }
  Reason& operator=(std::string text) {
    literal_ = nullptr;
    owned_ = std::move(text);
    return *this;
  }

  std::string_view view() const {
    return literal_ != nullptr ? std::string_view(literal_) : std::string_view(owned_);
  }
  const char* c_str() const { return literal_ != nullptr ? literal_ : owned_.c_str(); }
  std::size_t find(std::string_view text) const { return view().find(text); }
  bool operator==(std::string_view text) const { return view() == text; }
  friend std::ostream& operator<<(std::ostream& os, const Reason& r) {
    return os << r.view();
  }

 private:
  const char* literal_ = nullptr;
  std::string owned_;
};

/// Result of one enforcement: the gate outcome plus its provenance.
struct Enforcement {
  bool allowed = false;
  core::Decision decision;
  std::vector<std::string> obligations_fulfilled;
  Reason reason;  // set when allowed == false
  /// Trace id assigned at PEP admission when a tracer is configured
  /// (0 otherwise) — correlate with the tracer's explain ring.
  std::uint64_t trace_id = 0;
};

/// One enforcement gate. Not thread-safe: enforce() bumps counters and
/// consults the handler map without synchronisation — run one
/// EnforcementPoint per thread, or serialise calls externally (the
/// decision source behind it may itself be shared and thread-safe, e.g.
/// runtime::engine_decision_source).
class EnforcementPoint {
 public:
  /// The decision source: a local PDP call, a remote RPC, a cached
  /// evaluator or the multi-threaded engine — the PEP does not care
  /// (paper's modularity requirement). Must outlive the PEP.
  using DecisionSource = std::function<core::Decision(const core::RequestContext&)>;

  EnforcementPoint(DecisionSource source, PepConfig config = {})
      : source_(std::move(source)), config_(config) {}

  /// Registers a handler for an obligation id. Unhandled obligations on a
  /// permit make the PEP deny (an obligation it cannot understand must
  /// not be silently skipped — XACML semantics, paper §2.3).
  void register_obligation_handler(const std::string& obligation_id,
                                   ObligationHandler handler);

  /// Optional decision cache (paper §3.2); not owned.
  void set_cache(cache::DecisionCache* cache) { cache_ = cache; }

  /// Optional decision tracer (not owned; must outlive the PEP). Every
  /// enforce() is admitted (Enforcement::trace_id); sampled ones record
  /// admission / cache-probe / obligation / outcome spans, and denials
  /// are tail-sampled as anomalies per the tracer's policy.
  void set_tracer(obs::DecisionTracer* tracer) { tracer_ = tracer; }

  /// Decides (cache first, then the source) and enforces: a Permit is
  /// allowed only after every obligation is discharged; everything else
  /// follows the configured bias. Never throws on policy errors — an
  /// errored decision is an Indeterminate and the bias applies.
  Enforcement enforce(const core::RequestContext& request);

  // Counters for the benches.
  std::size_t enforcements() const { return enforcements_; }
  std::size_t denials_by_bias() const { return denials_by_bias_; }
  std::size_t denials_by_obligation() const { return denials_by_obligation_; }

 private:
  /// Runs handlers for all obligations; returns false if any obligation
  /// is unhandled or its handler fails. Records a kObligation span per
  /// attempt when `trace` is non-null.
  bool fulfil(const std::vector<core::ObligationInstance>& obligations,
              std::vector<std::string>* fulfilled, std::string* failure,
              obs::Trace* trace);

  DecisionSource source_;
  PepConfig config_;
  std::map<std::string, ObligationHandler> handlers_;
  cache::DecisionCache* cache_ = nullptr;
  obs::DecisionTracer* tracer_ = nullptr;
  std::size_t enforcements_ = 0;
  std::size_t denials_by_bias_ = 0;
  std::size_t denials_by_obligation_ = 0;
};

/// Standard obligation handlers used across examples and benches.
namespace obligations {

/// Appends a line per obligation to `sink` ("audit-log" style).
ObligationHandler audit_to(std::vector<std::string>* sink);

/// Always succeeds, does nothing (for advice-like obligations).
ObligationHandler no_op();

/// Always fails (for failure-injection tests).
ObligationHandler always_fail();

}  // namespace obligations

}  // namespace mdac::pep
