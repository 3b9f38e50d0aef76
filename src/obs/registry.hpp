// mdac::obs::Registry — the unified metrics registry.
//
// The paper's monitoring/audit argument (§3.2) needs every subsystem's
// telemetry (DecisionEngine, DecisionCache, dispatch + breakers, the
// heartbeat, the PAP audit ring, the tracer) in ONE place an operator
// can scrape. The registry renders it in Prometheus text exposition
// format (`expose()` — stable ordering, escaped label values), so a
// wire front-end can serve /metrics without inventing another format.
//
// One registration shape: collectors. A subsystem owns its instruments
// (obs::Counter / obs::Histogram below, or plain counts where it runs on
// one thread) and registers a callback that reports their current
// values into a MetricSink at expose time; each subsystem exposes a
// `register_metrics(Registry&)` member doing exactly this. The registry
// only names values, it never owns them, so a subsystem built without a
// registry (a benchmark, a test) counts exactly the same way. The
// callback captures the subsystem by reference: either unregister
// (remove_collector) before the subsystem dies, or let the registry die
// first (the usual shape in tests and tools).
//
// Counter and Histogram are sharded: N cells, one per writer (the
// engine shards by worker index), summed on read, so concurrent writers
// never rendezvous on one line. Each cell is padded to 128 bytes, not
// the 64-byte line: on x86 the L2's adjacent-line prefetcher fetches
// lines in 128-byte pairs, so two writers' 64-byte cells in one pair
// would still pull each other's line. (On the hot_agent decision
// workload neither size has yet won by more than the host's run-to-run
// spread; PERF.md.)
//
// Thread-safety: registration and expose() serialise on one mutex;
// instrument updates are relaxed atomics (safe from any thread, any
// time). Collector callbacks run under the registry mutex on the
// expose()-calling thread — they must be safe to invoke from it. The
// engine, cache and tracer read relaxed atomics; the dispatcher, the
// heartbeat and the PAP read single-threaded state and must be exposed
// from the thread that drives them.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
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
/// string for no labels.
std::string render_label_block(const std::vector<Label>& labels);

/// Bytes per instrument cell: a pair of 64-byte lines (see the header
/// comment), so no two shards share what the prefetcher moves together.
inline constexpr std::size_t kCellBytes = 128;

/// Monotonic counter over N padded shards. A writer adds to its own
/// shard; out-of-range shards fold into shard 0.
class Counter {
 public:
  explicit Counter(std::size_t shards = 1)
      : shards_(shards == 0 ? 1 : shards),
        cells_(std::make_unique<Cell[]>(shards_)) {}

  void add(std::uint64_t n = 1, std::size_t shard = 0) {
    cells_[shard < shards_ ? shard : 0].v.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum over all shards.
  std::uint64_t value() const;
  /// One shard's count.
  std::uint64_t value(std::size_t shard) const {
    return cells_[shard].v.load(std::memory_order_relaxed);
  }
  std::size_t shards() const { return shards_; }

  /// Zeroes every shard. Quiescent writers only: an add racing a reset
  /// may be lost.
  void reset();

 private:
  struct alignas(kCellBytes) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::size_t shards_;
  std::unique_ptr<Cell[]> cells_;
};

/// Log2-bucketed histogram over N padded shards: bucket i counts
/// observations in [2^(i-1), 2^i) (bucket 0 holds 0), so 64 buckets
/// cover the full uint64 range with ~1.5x relative error — enough for
/// latency percentiles without per-instrument bucket configuration.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  explicit Histogram(std::size_t shards = 1)
      : shards_(shards == 0 ? 1 : shards),
        cells_(std::make_unique<Shard[]>(shards_)) {}

  /// One bucket increment and one sum add, both in `shard`'s cells.
  void observe(std::uint64_t v, std::size_t shard = 0) {
    Shard& cell = cells_[shard < shards_ ? shard : 0];
    // bit_width maps [2^(i-1), 2^i) to bucket i; 0 -> bucket 0.
    const std::size_t bucket = std::min<std::size_t>(std::bit_width(v), kBuckets - 1);
    cell.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
    cell.sum.fetch_add(v, std::memory_order_relaxed);
  }

  struct Snapshot {
    std::uint64_t counts[kBuckets] = {};
    std::uint64_t total = 0;
    std::uint64_t sum = 0;
    /// Upper bound of bucket `i` as Prometheus `le` (2^i).
    static double upper_bound(std::size_t i);
    /// Approximate q-quantile: the first bucket whose cumulative count
    /// exceeds q·total, read as its representative value (bucket 0 → 0,
    /// bucket i → 1.5·2^(i-1)); past the end reads the last bucket, an
    /// empty histogram reads 0.
    double percentile(double q) const;
  };
  /// Sums all shards.
  Snapshot snapshot() const;

  /// Zeroes every shard. Quiescent writers only, like Counter::reset.
  void reset();

 private:
  struct alignas(kCellBytes) Shard {
    std::atomic<std::uint64_t> buckets[kBuckets] = {};
    std::atomic<std::uint64_t> sum{0};
  };
  std::size_t shards_;
  std::unique_ptr<Shard[]> cells_;
};

/// What a collector writes into at expose time. All values are reported
/// fresh on every call; the sink owns ordering and formatting. A name
/// carries one type: reporting it again with another type throws
/// std::logic_error, as Prometheus demands.
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
  /// Adds a pull-time collector; returns an id for remove_collector.
  std::uint64_t add_collector(Collector collector);
  void remove_collector(std::uint64_t id);

  /// Appends the full Prometheus text exposition to `out`: families
  /// sorted by name, samples sorted by label block, `# HELP` / `# TYPE`
  /// once per family, label values escaped. Ends with a newline. Throws
  /// std::logic_error if two reports give one name different types.
  void expose(std::string& out) const;
  std::string expose() const {
    std::string out;
    expose(out);
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<std::uint64_t, Collector>> collectors_;
  std::uint64_t next_collector_id_ = 1;
};

}  // namespace mdac::obs
