#include "obs/registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace mdac::obs {

namespace {

/// Prometheus label-value escaping: backslash, double quote, newline.
void append_escaped_value(std::string& out, std::string_view value) {
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
}

/// HELP text escaping: backslash and newline only (quotes are fine).
void append_escaped_help(std::string& out, std::string_view help) {
  for (const char c : help) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
}

/// Renders a double the way Prometheus clients do: integers without a
/// fraction, everything else shortest-roundtrip-ish, +Inf spelled out.
void append_value(std::string& out, double value) {
  if (std::isinf(value)) {
    out += value > 0 ? "+Inf" : "-Inf";
    return;
  }
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    out += buf;
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

void append_sample_line(std::string& out, std::string_view name,
                        std::string_view label_block, double value) {
  out += name;
  out += label_block;
  out += ' ';
  append_value(out, value);
  out += '\n';
}

/// Merges an extra label into a pre-rendered block (histogram `le`).
std::string with_extra_label(std::string_view block, std::string_view key,
                             std::string_view value) {
  std::string out;
  if (block.empty()) {
    out += '{';
  } else {
    out.append(block.substr(0, block.size() - 1));  // drop trailing '}'
    out += ',';
  }
  out += key;
  out += "=\"";
  append_escaped_value(out, value);
  out += "\"}";
  return out;
}

}  // namespace

std::string render_label_block(const std::vector<Label>& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const Label& label : labels) {
    if (!first) out += ',';
    first = false;
    out += label.key;
    out += "=\"";
    append_escaped_value(out, label.value);
    out += '"';
  }
  out += '}';
  return out;
}

// ---------------------------------------------------------------------
// Counter / Histogram
// ---------------------------------------------------------------------

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < shards_; ++i) total += value(i);
  return total;
}

void Counter::reset() {
  for (std::size_t i = 0; i < shards_; ++i) {
    cells_[i].v.store(0, std::memory_order_relaxed);
  }
}

double Histogram::Snapshot::upper_bound(std::size_t i) {
  return std::ldexp(1.0, static_cast<int>(i));
}

double Histogram::Snapshot::percentile(double q) const {
  if (total == 0) return 0.0;
  const auto value_of = [](std::size_t i) {
    return i == 0 ? 0.0 : 1.5 * std::ldexp(1.0, static_cast<int>(i) - 1);
  };
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(total));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (seen > target) return value_of(i);
  }
  return value_of(kBuckets - 1);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  for (std::size_t shard = 0; shard < shards_; ++shard) {
    const Shard& cell = cells_[shard];
    for (std::size_t i = 0; i < kBuckets; ++i) {
      s.counts[i] += cell.buckets[i].load(std::memory_order_relaxed);
    }
    s.sum += cell.sum.load(std::memory_order_relaxed);
  }
  for (const std::uint64_t count : s.counts) s.total += count;
  return s;
}

void Histogram::reset() {
  for (std::size_t shard = 0; shard < shards_; ++shard) {
    Shard& cell = cells_[shard];
    for (auto& bucket : cell.buckets) bucket.store(0, std::memory_order_relaxed);
    cell.sum.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------
// MetricSink
// ---------------------------------------------------------------------

MetricSink::Family& MetricSink::family(std::string_view name, std::string_view help,
                                       char type) {
  const auto it = families_.find(name);
  if (it != families_.end()) {
    if (it->second.type != type) {
      throw std::logic_error("obs::MetricSink: metric '" + std::string(name) +
                             "' reported with two types");
    }
    return it->second;
  }
  Family f;
  f.type = type;
  f.help = std::string(help);
  return families_.emplace(std::string(name), std::move(f)).first->second;
}

void MetricSink::counter(std::string_view name, std::string_view help, double value,
                         const std::vector<Label>& labels) {
  Sample s;
  s.label_block = render_label_block(labels);
  s.value = value;
  family(name, help, 'c').samples.push_back(std::move(s));
}

void MetricSink::gauge(std::string_view name, std::string_view help, double value,
                       const std::vector<Label>& labels) {
  Sample s;
  s.label_block = render_label_block(labels);
  s.value = value;
  family(name, help, 'g').samples.push_back(std::move(s));
}

void MetricSink::histogram(std::string_view name, std::string_view help,
                           const Histogram::Snapshot& snapshot,
                           const std::vector<Label>& labels) {
  Sample s;
  s.label_block = render_label_block(labels);
  // Sparse cumulative buckets: only the buckets that changed the
  // cumulative count get a `le` line (plus +Inf, emitted at render
  // time) — a 64-bucket log2 histogram would otherwise be 64 lines of
  // repeats. Valid exposition: cumulative counts stay monotone.
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    if (snapshot.counts[i] == 0) continue;
    cumulative += snapshot.counts[i];
    s.cumulative.emplace_back(Histogram::Snapshot::upper_bound(i), cumulative);
  }
  s.count = snapshot.total;
  s.sum = static_cast<double>(snapshot.sum);
  family(name, help, 'h').samples.push_back(std::move(s));
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

std::uint64_t Registry::add_collector(Collector collector) {
  std::lock_guard lock(mutex_);
  const std::uint64_t id = next_collector_id_++;
  collectors_.emplace_back(id, std::move(collector));
  return id;
}

void Registry::remove_collector(std::uint64_t id) {
  std::lock_guard lock(mutex_);
  std::erase_if(collectors_, [id](const auto& entry) { return entry.first == id; });
}

void Registry::expose(std::string& out) const {
  std::lock_guard lock(mutex_);
  MetricSink sink;
  for (const auto& [id, collector] : collectors_) {
    (void)id;
    collector(sink);
  }

  // families_ is a std::map: name order is already stable. Samples are
  // sorted by their pre-rendered label block for a deterministic layout
  // regardless of registration order (the golden test pins this).
  for (auto& [name, fam] : sink.families_) {
    std::sort(fam.samples.begin(), fam.samples.end(),
              [](const MetricSink::Sample& a, const MetricSink::Sample& b) {
                return a.label_block < b.label_block;
              });
    out += "# HELP ";
    out += name;
    out += ' ';
    append_escaped_help(out, fam.help);
    out += '\n';
    out += "# TYPE ";
    out += name;
    out += ' ';
    out += fam.type == 'c' ? "counter" : fam.type == 'g' ? "gauge" : "histogram";
    out += '\n';
    for (const MetricSink::Sample& s : fam.samples) {
      if (fam.type != 'h') {
        append_sample_line(out, name, s.label_block, s.value);
        continue;
      }
      for (const auto& [le, count] : s.cumulative) {
        char le_text[32];
        std::snprintf(le_text, sizeof(le_text), "%.17g", le);
        append_sample_line(out, std::string(name) + "_bucket",
                           with_extra_label(s.label_block, "le", le_text),
                           static_cast<double>(count));
      }
      append_sample_line(out, std::string(name) + "_bucket",
                         with_extra_label(s.label_block, "le", "+Inf"),
                         static_cast<double>(s.count));
      append_sample_line(out, std::string(name) + "_sum", s.label_block, s.sum);
      append_sample_line(out, std::string(name) + "_count", s.label_block,
                         static_cast<double>(s.count));
    }
  }
}

}  // namespace mdac::obs
