#include "pep/pep.hpp"

namespace mdac::pep {

void EnforcementPoint::register_obligation_handler(const std::string& obligation_id,
                                                   ObligationHandler handler) {
  handlers_[obligation_id] = std::move(handler);
}

bool EnforcementPoint::fulfil(
    const std::vector<core::ObligationInstance>& obligations,
    std::vector<std::string>* fulfilled, std::string* failure, obs::Trace* trace) {
  for (const core::ObligationInstance& ob : obligations) {
    const auto it = handlers_.find(ob.id);
    const bool ok = it != handlers_.end() && it->second(ob);
    if (trace != nullptr) {
      if (obs::Span* s = trace->record(obs::SpanKind::kObligation, obs::monotonic_ns())) {
        s->set_tag(ob.id);
        s->a = ok ? 1 : 0;
      }
    }
    if (!ok) {
      *failure = it == handlers_.end()
                     ? "no handler for obligation '" + ob.id + "'"
                     : "obligation '" + ob.id + "' failed";
      return false;
    }
    fulfilled->push_back(ob.id);
  }
  return true;
}

Enforcement EnforcementPoint::enforce(const core::RequestContext& request) {
  ++enforcements_;
  Enforcement result;

  // The PEP is single-threaded by contract, so a sampled trace lives on
  // this stack frame and publishes before enforce() returns.
  obs::Trace trace_storage;
  obs::Trace* trace = nullptr;
  if (tracer_ != nullptr) {
    const obs::TraceHandle handle = tracer_->admit();
    result.trace_id = handle.id;
    if (handle.sampled) {
      trace = &trace_storage;
      trace->trace_id = handle.id;
      trace->started_ns = obs::monotonic_ns();
      trace->record(obs::SpanKind::kAdmission, trace->started_ns);
    }
  }

  bool cache_hit = false;
  if (cache_ != nullptr) {
    // Delegate to CachingEvaluator so the caching policy (fingerprint
    // once, cache only definitive decisions) lives in exactly one place.
    cache::CachingEvaluator cached(
        *cache_, [this](const core::RequestContext& r) { return source_(r); });
    result.decision = cached.evaluate_with_probe(request, &cache_hit);
    if (trace != nullptr) {
      if (obs::Span* s = trace->record(obs::SpanKind::kCacheProbe, obs::monotonic_ns())) {
        s->a = cache_hit ? 2 : 0;  // the PEP-side cache is a shared level
      }
    }
  } else {
    result.decision = source_(request);
  }

  switch (result.decision.type) {
    case core::DecisionType::kPermit: {
      std::string failure;
      if (!fulfil(result.decision.obligations, &result.obligations_fulfilled,
                  &failure, trace)) {
        // A permit whose obligations cannot be discharged must not be
        // enforced as permit.
        ++denials_by_obligation_;
        result.allowed = false;
        result.reason = std::move(failure);
      } else {
        result.allowed = true;
      }
      break;
    }
    case core::DecisionType::kDeny: {
      // Deny obligations (e.g. notify security) are best-effort; their
      // failure cannot make the outcome *more* permissive.
      std::string ignored;
      fulfil(result.decision.obligations, &result.obligations_fulfilled, &ignored,
             trace);
      result.allowed = false;
      result.reason = Reason::fixed("denied by policy");
      break;
    }
    case core::DecisionType::kNotApplicable:
    case core::DecisionType::kIndeterminate: {
      result.allowed = config_.bias == Bias::kPermit;
      if (!result.allowed) {
        ++denials_by_bias_;
        result.reason = Reason::fixed(result.decision.is_indeterminate()
                                          ? "fail-safe deny (indeterminate)"
                                          : "fail-safe deny (not-applicable)");
      }
      break;
    }
  }

  if (tracer_ != nullptr && result.trace_id != 0) {
    const bool anomaly = result.decision.is_indeterminate();
    if (trace == nullptr && anomaly && tracer_->always_sample_anomalies()) {
      // Tail sampling: the PEP reads no clock at untraced admission, so
      // a synthesized anomaly trace has zero measured latency — the path
      // summary (outcome, fail-safe cause) is what matters here.
      trace = &trace_storage;
      trace->trace_id = result.trace_id;
      trace->started_ns = obs::monotonic_ns();
      trace->record(obs::SpanKind::kAdmission, trace->started_ns);
    }
    if (trace != nullptr) {
      trace->anomaly = anomaly;
      trace->finished_ns = obs::monotonic_ns();
      trace->decision = result.decision.type;
      trace->cache_level = cache_hit ? 2 : 0;
      trace->outcome = obs::TraceOutcome::kDecided;
      if (obs::Span* s = trace->record(obs::SpanKind::kOutcome, trace->finished_ns)) {
        s->set_tag(result.allowed ? "permit" : "deny");
      }
      tracer_->publish(*trace);
    }
  }
  return result;
}

namespace obligations {

ObligationHandler audit_to(std::vector<std::string>* sink) {
  return [sink](const core::ObligationInstance& ob) {
    std::string line = ob.id;
    for (const auto& [key, value] : ob.assignments) {
      line += " " + key + "=" + value.to_text();
    }
    sink->push_back(std::move(line));
    return true;
  };
}

ObligationHandler no_op() {
  return [](const core::ObligationInstance&) { return true; };
}

ObligationHandler always_fail() {
  return [](const core::ObligationInstance&) { return false; };
}

}  // namespace obligations

}  // namespace mdac::pep
