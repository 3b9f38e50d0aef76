// mdac::obs::Registry — the unified metrics registry (ISSUE 9).
//
// The repo grew five disconnected telemetry surfaces (EngineMetrics,
// DispatchStats, BreakerStats, SeqlockCacheStats, the PAP audit log); the
// paper's monitoring/audit argument (§3.2) needs them in ONE place an
// operator can scrape. The registry holds named counter / gauge /
// histogram instruments and renders them in Prometheus text exposition
// format (`expose()` — stable ordering, escaped label values), so the
// future wire front-end can serve /metrics without inventing another
// format.
//
// Two registration shapes:
//
//   * owned instruments — `counter()/gauge()/histogram()` create an
//     instrument the registry owns and hot paths update directly.
//     Counters are optionally *sharded*: N cache-line-padded cells
//     (exactly the EngineMetrics per-worker-counter idiom) so concurrent
//     writers never rendezvous on one line; `value()` sums on read.
//     Labels are pre-interned at registration — the label block is
//     rendered to its final `{k="v",...}` string once, and the hot path
//     never touches a string again.
//   * collectors — subsystems that already keep their own counters
//     (EngineMetrics, DispatchStats, BreakerStats, SeqlockCacheStats,
//     HeartbeatMonitor, the PAP audit ring) register a callback that
//     reports current values into a MetricSink at expose time. Each
//     subsystem exposes a `register_metrics(Registry&)` member doing
//     exactly this. The callback captures the subsystem by reference:
//     either unregister (remove_collector) before the subsystem dies, or
//     let the registry die first (the usual shape in tests and tools).
//
// Thread-safety: registration and expose() serialise on one mutex;
// owned-instrument updates are relaxed atomics (safe from any thread,
// any time). Collector callbacks run under the registry mutex on the
// expose()-calling thread — they must be safe to invoke from it (the
// adapted subsystems all read relaxed atomics or single-threaded sim
// state there).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mdac::obs {

/// One metric label. Values are escaped at render time, so any bytes go.
struct Label {
  std::string key;
  std::string value;
};

/// Renders `{k="v",...}` with Prometheus escaping (\\, \", \n) — empty
/// string for no labels. Exposed for tests; Registry pre-renders it at
/// instrument registration ("pre-interned symbol pairs").
std::string render_label_block(const std::vector<Label>& labels);

/// Monotonic counter over N cache-line-padded shards. Shard by worker
/// index (like EngineMetrics::WorkerCounters) so the hot path's
/// fetch_add never contends with a neighbour's line; single-shard
/// counters are just a padded atomic.
class Counter {
 public:
  explicit Counter(std::size_t shards = 1)
      : shards_(shards == 0 ? 1 : shards),
        cells_(std::make_unique<Cell[]>(shards_)) {}

  void add(std::uint64_t n = 1, std::size_t shard = 0) {
    cells_[shard < shards_ ? shard : 0].v.fetch_add(n, std::memory_order_relaxed);
  }
  void increment(std::size_t shard = 0) { add(1, shard); }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < shards_; ++i) {
      total += cells_[i].v.load(std::memory_order_relaxed);
    }
    return total;
  }

  std::size_t shards() const { return shards_; }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::size_t shards_;
  std::unique_ptr<Cell[]> cells_;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double v) { value_.fetch_add(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log2-bucketed histogram (the EngineMetrics latency-histogram shape):
/// bucket i counts observations in [2^(i-1), 2^i), so 64 buckets cover
/// the full uint64 range with ~1.5x relative error — enough for latency
/// percentiles without per-instrument bucket configuration.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void observe(std::uint64_t v);

  struct Snapshot {
    std::uint64_t counts[kBuckets] = {};
    std::uint64_t total = 0;
    std::uint64_t sum = 0;
    /// Upper bound of bucket `i` as Prometheus `le` (2^i).
    static double upper_bound(std::size_t i);
  };
  Snapshot snapshot() const;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> sum_{0};
};

/// What a collector writes into at expose time. All values are reported
/// fresh on every call; the sink owns ordering and formatting.
class MetricSink {
 public:
  void counter(std::string_view name, std::string_view help, double value,
               const std::vector<Label>& labels = {});
  void gauge(std::string_view name, std::string_view help, double value,
             const std::vector<Label>& labels = {});
  /// A full log2 histogram (cumulative buckets are derived here).
  void histogram(std::string_view name, std::string_view help,
                 const Histogram::Snapshot& snapshot,
                 const std::vector<Label>& labels = {});

 private:
  friend class Registry;
  struct Sample {
    std::string label_block;  // pre-rendered {k="v",...}
    double value = 0;
    // Histogram payload (empty for counter/gauge samples).
    std::vector<std::pair<double, std::uint64_t>> cumulative;  // (le, count)
    std::uint64_t count = 0;
    double sum = 0;
  };
  struct Family {
    char type = 'c';  // 'c' counter, 'g' gauge, 'h' histogram
    std::string help;
    std::vector<Sample> samples;
  };
  Family& family(std::string_view name, std::string_view help, char type);

  std::map<std::string, Family, std::less<>> families_;
};

using Collector = std::function<void(MetricSink&)>;

class Registry {
 public:
  /// Registers (or returns the existing) instrument under
  /// (name, labels). Re-registering with a different type throws
  /// std::logic_error — one name, one type, like Prometheus demands.
  Counter& counter(std::string name, std::string help,
                   std::vector<Label> labels = {}, std::size_t shards = 1);
  Gauge& gauge(std::string name, std::string help, std::vector<Label> labels = {});
  Histogram& histogram(std::string name, std::string help,
                       std::vector<Label> labels = {});

  /// Adds a pull-time collector; returns an id for remove_collector.
  std::uint64_t add_collector(Collector collector);
  void remove_collector(std::uint64_t id);

  /// Appends the full Prometheus text exposition to `out`: families
  /// sorted by name, samples sorted by label block, `# HELP` / `# TYPE`
  /// once per family, label values escaped. Ends with a newline.
  void expose(std::string& out) const;
  std::string expose() const {
    std::string out;
    expose(out);
    return out;
  }

 private:
  struct Instrument {
    std::string name;
    std::string help;
    std::string label_block;
    char type = 'c';
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Instrument& instrument(std::string name, std::string help,
                         std::vector<Label> labels, char type);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Instrument>> instruments_;
  std::map<std::string, std::size_t> by_key_;  // name + label block -> index
  std::vector<std::pair<std::uint64_t, Collector>> collectors_;
  std::uint64_t next_collector_id_ = 1;
};

}  // namespace mdac::obs
