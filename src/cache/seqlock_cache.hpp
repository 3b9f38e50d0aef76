// The decision slot table: the one decision-cache implementation
// (ARCHITECTURE.md §"The two-level decision cache"). Two instantiations
// share every line of it — the layout, the codec, the seqlock reader,
// the slot choice, expiry and the version sweep — and differ only in the
// lock a writer takes:
//
//   * SeqlockDecisionCache (std::mutex): the shared L2. The engine's
//     workers and PEP-side callers (CachingEvaluator) probe it directly.
//   * WorkerDecisionCache (NoLock): an engine worker's private L1. One
//     thread owns it, so writes need no mutual exclusion and hits and
//     fills take no lock.
//
// A decision cache exists because a few fingerprints absorb most
// traffic, so a lock on the hit path would serialise exactly the hot
// keys. Here the hit path takes no lock at all. Each slot is a seqlock:
//
//   reader   s1 = seq.load(acquire)           // odd ⇒ writer active ⇒ retry
//            key/meta/payload loads (acquire)
//            s2 = seq.load(relaxed)           // s1 != s2 ⇒ torn ⇒ retry
//   writer   (under per-shard lock, so writers never race each other)
//            seq.store(s+1)                   // odd: readers back off
//            key/meta/payload stores (release)
//            seq.store(s+2, release)          // even: publish
//
// Why this is TSan-clean *and* correct without std::atomic_thread_fence
// (which TSan does not model): every slot word is individually atomic, so
// there is no data race by construction; and if a reader observes any
// payload word from an in-flight write, that acquire load
// synchronizes-with the writer's release store, which makes the odd
// sequence number written *before* the payload visible — so the trailing
// seq re-check (ordered after the payload loads by their acquire
// semantics) cannot return s1, and the reader retries. The sequence
// counter is 64-bit and strictly monotonic (slots are cleared by writing
// zeroed keys, never by resetting seq), so s1 == s2 can never be an ABA
// false positive. A private table never sees a concurrent writer, so
// its reads never retry; on x86 the acquire loads and release stores
// are plain moves.
//
// Decisions are stored *inline* as a compact binary encoding packed into
// the slot's atomic words — no pointers, so there is no reclamation race
// between sequence validation and dereference, and no allocation on a
// fill. Decisions that encode to more than kMaxEncodedBytes are simply
// not cached (the evaluator recomputes them); the hot permit/deny +
// stamp-obligation shapes fit with room to spare.
//
// Staleness is bounded two ways (paper §3.2 warns that a stale entry is
// a false permit or a false deny):
//   * Keys are (request fingerprint, snapshot version): republication
//     implicitly invalidates, and `evict_older_than` reclaims the slots
//     of withdrawn versions.
//   * An optional TTL: each slot's meta word carries its expiry, and a
//     lookup treats an expired slot as a miss. The clock is read once
//     per lookup/insert, and only when a TTL is set. A hit reports its
//     slot's expiry, so an entry copied into another table (an L2 hit
//     promoted into a worker's L1) keeps the expiry it was given when it
//     was evaluated.
//
// Reader-side hit/miss/retry counters are deliberately NOT kept here —
// shared atomics on the read path would reintroduce the cache-line
// contention the seqlock removes. Readers accumulate retries via the
// out-parameter; callers count their own hits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>

#include "cache/request_key.hpp"
#include "common/clock.hpp"
#include "core/decision.hpp"

namespace mdac::cache {

/// Compact binary decision codec used by the seqlock slots. Exposed for
/// tests (round-trip) and anything else that wants a bounded, allocation-
/// free decision wire form. All counts and string lengths must fit one
/// byte; total encoded size must fit `cap`. Returns the encoded length,
/// or nullopt if the decision does not fit.
std::optional<std::size_t> encode_decision(const core::Decision& d,
                                           std::uint8_t* out, std::size_t cap);

/// Decodes a buffer produced by encode_decision. Returns false on any
/// malformed/truncated input (the decision is left unspecified).
bool decode_decision(const std::uint8_t* data, std::size_t len, core::Decision& out);

/// Writer-side counters. Maintained under the shard write locks, so
/// they are exact; aggregated on demand by stats().
struct SeqlockCacheStats {
  std::uint64_t inserts = 0;            // new entries written
  std::uint64_t updates = 0;            // same (key, version) overwritten
  std::uint64_t evictions = 0;          // bucket-full live victim displaced
  std::uint64_t expirations = 0;        // expired slot reused by an insert
  std::uint64_t version_evictions = 0;  // reclaimed by evict_older_than
  std::uint64_t invalidations = 0;      // cleared by clear()
  std::uint64_t rejected_oversize = 0;  // decision too large to inline

  SeqlockCacheStats& operator+=(const SeqlockCacheStats& o) {
    inserts += o.inserts;
    updates += o.updates;
    evictions += o.evictions;
    expirations += o.expirations;
    version_evictions += o.version_evictions;
    invalidations += o.invalidations;
    rejected_oversize += o.rejected_oversize;
    return *this;
  }
};

/// The writer lock of a table that one thread owns: does nothing.
struct NoLock {
  void lock() {}
  void unlock() {}
};

/// `Lock` serialises writers (std::mutex) or, for a table one thread
/// owns, is NoLock. Readers never take it. Instantiated for exactly
/// those two in seqlock_cache.cpp.
template <class Lock>
class DecisionSlotTable {
 public:
  // Slot layout: 5 header words + 11 payload words = 128 bytes, two cache
  // lines, so a hit touches at most two lines and slots never share a
  // line (no reader/writer false sharing between neighbouring slots).
  static constexpr std::size_t kPayloadWords = 11;
  static constexpr std::size_t kMaxEncodedBytes = kPayloadWords * 8;  // 88
  static constexpr std::size_t kWays = 4;  // set-associative bucket width
  /// insert()'s default expiry: the table's TTL from now.
  static constexpr std::uint64_t kExpiryFromTtl = ~std::uint64_t{0};

  /// `capacity` is the total slot budget; rounded up so the bucket count
  /// is a power of two (minimum one bucket of kWays slots). Storage is
  /// allocated eagerly — a slot table, no per-entry allocation ever.
  /// `ttl` > 0 gives every insert an expiry `ttl` ms after `clock->now()`
  /// (the clock is not owned and is then required; a clock shared with
  /// concurrent callers must be thread-safe, see common/clock.hpp).
  /// `ttl` == 0 means entries never expire and no clock is read.
  /// Throws std::invalid_argument for a negative ttl, or a positive one
  /// without a clock.
  explicit DecisionSlotTable(std::size_t capacity = 4096, common::Duration ttl = 0,
                             const common::Clock* clock = nullptr);

  DecisionSlotTable(const DecisionSlotTable&) = delete;
  DecisionSlotTable& operator=(const DecisionSlotTable&) = delete;

  /// Lock-free lookup. On a hit decodes into `out` and returns true; an
  /// expired slot is a miss. If `retries` is non-null, the number of
  /// seqlock re-reads performed is *added* to it (callers keep
  /// per-worker tallies). If `expires_at` is non-null, a hit stores the
  /// slot's expiry there (clock ms, 0 = never) — what a promotion into
  /// another table passes to insert(). A slot being rewritten more than
  /// kMaxReadAttempts times in a row is treated as a miss — a livelock
  /// bound, not an error.
  bool lookup(const RequestKey& key, std::uint64_t version, core::Decision& out,
              std::uint64_t* retries = nullptr, std::uint64_t* expires_at = nullptr) const;

  /// Inserts (or refreshes) a decision. `expires_at` = kExpiryFromTtl
  /// gives it the table's TTL from now (restarting it on a refresh);
  /// any other value is stored as its expiry (clock ms, 0 = never).
  /// Takes the bucket's shard write lock; readers are never blocked.
  /// Slot choice: the same (key, version), else an empty slot, else an
  /// expired one, else a round-robin victim. Returns false if the
  /// decision is too large to inline (not cached).
  bool insert(const RequestKey& key, std::uint64_t version, const core::Decision& d,
              std::uint64_t expires_at = kExpiryFromTtl);

  /// Reclaims every slot whose snapshot version is < `version`; returns
  /// the number of slots cleared. The engine calls it on snapshot
  /// adoption: on the shared table with the minimum version any worker
  /// still serves, on a worker's private table with the version it
  /// adopted.
  std::size_t evict_older_than(std::uint64_t version);

  /// Drops everything (tests / explicit policy-change notification).
  std::size_t clear();

  SeqlockCacheStats stats() const;
  std::size_t slot_count() const { return bucket_count() * kWays; }
  /// Occupied slots (exact: summed under locks). Expired entries count
  /// until an insert reuses their slot.
  std::size_t size() const;
  common::Duration ttl() const { return ttl_; }
  const common::Clock* clock() const { return clock_; }

 private:
  static constexpr std::size_t kMaxReadAttempts = 64;
  static constexpr std::size_t kMaxWriteShards = 16;

  // All words atomic: no data race is possible, only *torn snapshots*,
  // which the sequence protocol detects. meta packs the expiry time
  // (upper 56 bits, ms; 0 = never expires) over the encoded byte length
  // (low 8 bits, at most kMaxEncodedBytes). meta == 0 marks an empty
  // slot (no decision encodes to zero bytes); seq is never reset.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> key_lo{0};
    std::atomic<std::uint64_t> key_hi{0};
    std::atomic<std::uint64_t> version{0};
    std::atomic<std::uint64_t> meta{0};  // expires_at << 8 | length; 0 = empty
    std::atomic<std::uint64_t> payload[kPayloadWords] = {};
  };
  static_assert(sizeof(std::atomic<std::uint64_t>) == 8);
  static_assert(kMaxEncodedBytes <= 0xFF, "the length must fit meta's low byte");
  static constexpr std::uint64_t kMaxExpiry = (std::uint64_t{1} << 56) - 1;

  static std::size_t meta_length(std::uint64_t meta) { return meta & 0xFF; }
  /// True when the slot's expiry has passed at `now` (never for 0).
  static bool meta_expired(std::uint64_t meta, std::uint64_t now) {
    const std::uint64_t expires_at = meta >> 8;
    return expires_at != 0 && now >= expires_at;
  }
  /// The clock reading expiry is checked against; 0 (no clock read)
  /// when the table has no TTL, since then no slot carries an expiry.
  std::uint64_t expiry_now() const;

  struct alignas(64) WriteShard {
    Lock mutex;
    std::uint64_t victim_counter = 0;  // round-robin victim pick
    std::uint64_t occupied = 0;
    SeqlockCacheStats stats;
  };

  std::size_t bucket_count() const { return bucket_mask_ + 1; }
  WriteShard& shard_for(std::size_t bucket) const {
    return shards_[bucket & shard_mask_];
  }
  static std::uint64_t slot_hash(const RequestKey& key, std::uint64_t version);
  /// Clears one slot via the write protocol (caller holds its shard lock).
  static void clear_slot(Slot& slot);

  std::size_t bucket_mask_;
  std::size_t shard_mask_;
  common::Duration ttl_;
  const common::Clock* clock_;
  std::unique_ptr<Slot[]> slots_;
  mutable std::unique_ptr<WriteShard[]> shards_;
};

extern template class DecisionSlotTable<std::mutex>;
extern template class DecisionSlotTable<NoLock>;

/// The shared L2: writers lock one of up to 16 shards.
using SeqlockDecisionCache = DecisionSlotTable<std::mutex>;
/// An engine worker's private L1: one thread reads and writes it.
using WorkerDecisionCache = DecisionSlotTable<NoLock>;

}  // namespace mdac::cache
