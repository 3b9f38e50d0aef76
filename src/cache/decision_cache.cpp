#include "cache/decision_cache.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "obs/registry.hpp"

namespace mdac::cache {

std::string canonical_request_key(const core::RequestContext& request) {
  // Wire-stable (category, attribute-name) order — see entries_by_name().
  std::ostringstream os;
  for (const core::RequestContext::NamedEntry& entry : request.entries_by_name()) {
    os << core::to_string(entry.category) << '|' << *entry.name << '=';
    // Bags are canonicalised by sorting the lexical forms.
    std::vector<std::string> values;
    values.reserve(entry.bag->size());
    for (const core::AttributeValue& v : entry.bag->values()) {
      values.push_back(std::string(core::to_string(v.type())) + ":" + v.to_text());
    }
    std::sort(values.begin(), values.end());
    for (const std::string& v : values) os << v << ',';
    os << ';';
  }
  return os.str();
}

void StalenessProbe::observe(const core::Decision& cached,
                             const core::Decision& fresh) {
  if (cached.type == fresh.type) {
    ++agreements;
    return;
  }
  if (cached.is_permit()) {
    ++false_permits;
  } else if (cached.is_deny() && fresh.is_permit()) {
    ++false_denies;
  } else {
    // Disagreement not involving an unsafe grant (e.g. NA vs deny).
    ++agreements;
  }
}

std::uint64_t DecisionCache::register_metrics(obs::Registry& registry) const {
  return registry.add_collector([this](obs::MetricSink& sink) {
    sink.gauge("mdac_cache_size", "Entries currently cached.", static_cast<double>(size()));
    const SeqlockCacheStats s = stats();
    sink.counter("mdac_cache_expirations_total", "Entries dropped by TTL expiry.",
                 static_cast<double>(s.expirations));
    sink.counter("mdac_cache_evictions_total", "Entries evicted for capacity.",
                 static_cast<double>(s.evictions));
    sink.counter("mdac_cache_invalidations_total",
                 "Entries dropped by invalidate_all or the version sweep.",
                 static_cast<double>(s.version_evictions + s.invalidations));
    sink.counter("mdac_cache_seqlock_inserts_total", "Seqlock slot writes for new keys.",
                 static_cast<double>(s.inserts));
    sink.counter("mdac_cache_seqlock_updates_total",
                 "Seqlock in-place updates of existing keys.",
                 static_cast<double>(s.updates));
    sink.counter("mdac_cache_seqlock_rejected_oversize_total",
                 "Decisions too large for a slot, not cached.",
                 static_cast<double>(s.rejected_oversize));
  });
}

}  // namespace mdac::cache
