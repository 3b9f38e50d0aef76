#include "cache/seqlock_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace mdac::cache {

// ---------------------------------------------------------------------
// Decision codec
//
// Layout (all multi-byte integers little-endian via memcpy):
//   u8   (type << 2) | extent
//   u8   status code
//   u8   status message length, bytes
//   u8   obligation count
//     per obligation: u8 id length, bytes; u8 assignment count
//       per assignment: u8 name length, bytes; u8 value tag; value
//   u8   advice count (same encoding as obligations)
// Value tags: 0 string (u8 len + bytes), 1 bool (u8), 2 int64 (8 bytes),
// 3 double (8 bytes), 4 time (8 bytes of TimePoint millis).
// ---------------------------------------------------------------------

namespace {

struct Writer {
  std::uint8_t* out;
  std::size_t cap;
  std::size_t pos = 0;

  bool u8(std::uint8_t b) {
    if (pos >= cap) return false;
    out[pos++] = b;
    return true;
  }
  bool raw(const void* p, std::size_t n) {
    if (cap - pos < n) return false;
    std::memcpy(out + pos, p, n);
    pos += n;
    return true;
  }
  bool str(const std::string& s) {
    if (s.size() > 255) return false;
    return u8(static_cast<std::uint8_t>(s.size())) && raw(s.data(), s.size());
  }
  bool value(const core::AttributeValue& v) {
    switch (v.type()) {
      case core::DataType::kString:
        return u8(0) && str(v.as_string());
      case core::DataType::kBoolean:
        return u8(1) && u8(v.as_boolean() ? 1 : 0);
      case core::DataType::kInteger: {
        const std::int64_t x = v.as_integer();
        return u8(2) && raw(&x, sizeof x);
      }
      case core::DataType::kDouble: {
        const double x = v.as_double();
        return u8(3) && raw(&x, sizeof x);
      }
      case core::DataType::kTime: {
        const common::TimePoint x = v.as_time().millis;
        return u8(4) && raw(&x, sizeof x);
      }
    }
    return false;
  }
  bool obligations(const std::vector<core::ObligationInstance>& os) {
    if (os.size() > 255) return false;
    if (!u8(static_cast<std::uint8_t>(os.size()))) return false;
    for (const auto& o : os) {
      if (!str(o.id)) return false;
      if (o.assignments.size() > 255) return false;
      if (!u8(static_cast<std::uint8_t>(o.assignments.size()))) return false;
      for (const auto& [name, val] : o.assignments) {
        if (!str(name) || !value(val)) return false;
      }
    }
    return true;
  }
};

struct Reader {
  const std::uint8_t* data;
  std::size_t len;
  std::size_t pos = 0;

  bool u8(std::uint8_t& b) {
    if (pos >= len) return false;
    b = data[pos++];
    return true;
  }
  bool raw(void* p, std::size_t n) {
    if (len - pos < n) return false;
    std::memcpy(p, data + pos, n);
    pos += n;
    return true;
  }
  bool str(std::string& s) {
    std::uint8_t n = 0;
    if (!u8(n)) return false;
    if (len - pos < n) return false;
    s.assign(reinterpret_cast<const char*>(data + pos), n);
    pos += n;
    return true;
  }
  bool value(core::AttributeValue& v) {
    std::uint8_t tag = 0;
    if (!u8(tag)) return false;
    switch (tag) {
      case 0: {
        std::string s;
        if (!str(s)) return false;
        v = core::AttributeValue(std::move(s));
        return true;
      }
      case 1: {
        std::uint8_t b = 0;
        if (!u8(b)) return false;
        v = core::AttributeValue(b != 0);
        return true;
      }
      case 2: {
        std::int64_t x = 0;
        if (!raw(&x, sizeof x)) return false;
        v = core::AttributeValue(x);
        return true;
      }
      case 3: {
        double x = 0;
        if (!raw(&x, sizeof x)) return false;
        v = core::AttributeValue(x);
        return true;
      }
      case 4: {
        common::TimePoint x = 0;
        if (!raw(&x, sizeof x)) return false;
        v = core::AttributeValue(core::TimeValue{x});
        return true;
      }
      default:
        return false;
    }
  }
  bool obligations(std::vector<core::ObligationInstance>& os) {
    std::uint8_t count = 0;
    if (!u8(count)) return false;
    os.clear();
    os.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      core::ObligationInstance o;
      if (!str(o.id)) return false;
      std::uint8_t assignments = 0;
      if (!u8(assignments)) return false;
      o.assignments.reserve(assignments);
      for (std::size_t j = 0; j < assignments; ++j) {
        std::string name;
        core::AttributeValue val;
        if (!str(name) || !value(val)) return false;
        o.assignments.emplace_back(std::move(name), std::move(val));
      }
      os.push_back(std::move(o));
    }
    return true;
  }
};

}  // namespace

std::optional<std::size_t> encode_decision(const core::Decision& d,
                                           std::uint8_t* out, std::size_t cap) {
  Writer w{out, cap};
  const auto type = static_cast<std::uint8_t>(d.type);
  const auto extent = static_cast<std::uint8_t>(d.extent);
  if (!w.u8(static_cast<std::uint8_t>((type << 2) | extent))) return std::nullopt;
  if (!w.u8(static_cast<std::uint8_t>(d.status.code))) return std::nullopt;
  if (!w.str(d.status.message)) return std::nullopt;
  if (!w.obligations(d.obligations)) return std::nullopt;
  if (!w.obligations(d.advice)) return std::nullopt;
  return w.pos;
}

bool decode_decision(const std::uint8_t* data, std::size_t len, core::Decision& out) {
  Reader r{data, len};
  std::uint8_t head = 0;
  std::uint8_t status_code = 0;
  if (!r.u8(head) || !r.u8(status_code)) return false;
  const std::uint8_t type = head >> 2;
  const std::uint8_t extent = head & 0x3;
  if (type > static_cast<std::uint8_t>(core::DecisionType::kIndeterminate)) return false;
  if (status_code > static_cast<std::uint8_t>(core::StatusCode::kProcessingError)) return false;
  out.type = static_cast<core::DecisionType>(type);
  out.extent = static_cast<core::IndeterminateExtent>(extent);
  out.status.code = static_cast<core::StatusCode>(status_code);
  if (!r.str(out.status.message)) return false;
  if (!r.obligations(out.obligations)) return false;
  if (!r.obligations(out.advice)) return false;
  return r.pos == len;  // trailing garbage ⇒ not ours
}

// ---------------------------------------------------------------------
// DecisionSlotTable
// ---------------------------------------------------------------------

template <class Lock>
DecisionSlotTable<Lock>::DecisionSlotTable(std::size_t capacity, common::Duration ttl,
                                           const common::Clock* clock)
    : ttl_(ttl), clock_(clock) {
  if (ttl < 0 || (ttl > 0 && clock == nullptr)) {
    throw std::invalid_argument("decision cache: a ttl must be >= 0, and > 0 needs a clock");
  }
  const std::size_t want_buckets = (std::max<std::size_t>(capacity, kWays) + kWays - 1) / kWays;
  const std::size_t buckets = std::bit_ceil(want_buckets);
  bucket_mask_ = buckets - 1;
  const std::size_t shards = std::min(kMaxWriteShards, buckets);  // both powers of two
  shard_mask_ = shards - 1;
  slots_ = std::make_unique<Slot[]>(buckets * kWays);
  shards_ = std::make_unique<WriteShard[]>(shards);
}

template <class Lock>
std::uint64_t DecisionSlotTable<Lock>::slot_hash(const RequestKey& key, std::uint64_t version) {
  std::uint64_t h = key.lo ^ (key.hi * 0x9E3779B97F4A7C15ULL) ^
                    ((version + 1) * 0xFF51AFD7ED558CCDULL);
  h ^= h >> 33;
  h *= 0xC2B2AE3D27D4EB4FULL;
  h ^= h >> 29;
  return h;
}

template <class Lock>
std::uint64_t DecisionSlotTable<Lock>::expiry_now() const {
  if (ttl_ == 0) return 0;
  return static_cast<std::uint64_t>(std::max<common::TimePoint>(clock_->now(), 0));
}

template <class Lock>
bool DecisionSlotTable<Lock>::lookup(const RequestKey& key, std::uint64_t version,
                                     core::Decision& out, std::uint64_t* retries,
                                     std::uint64_t* expires_at) const {
  const std::size_t bucket = static_cast<std::size_t>(slot_hash(key, version)) & bucket_mask_;
  const std::uint64_t now = expiry_now();
  std::uint64_t local_retries = 0;
  bool hit = false;
  for (std::size_t way = 0; way < kWays && !hit; ++way) {
    const Slot& slot = slots_[bucket * kWays + way];
    for (std::size_t attempt = 0; attempt < kMaxReadAttempts; ++attempt) {
      const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 == 0) break;  // never written
      if (s1 & 1) {        // writer mid-flight
        ++local_retries;
        continue;
      }
      if (slot.key_lo.load(std::memory_order_acquire) != key.lo ||
          slot.key_hi.load(std::memory_order_acquire) != key.hi ||
          slot.version.load(std::memory_order_acquire) != version) {
        // Mismatch — but it may be a torn view of a write that is
        // installing exactly our key. Re-check the sequence to tell a
        // stable other-key slot (move on) from an in-flight one (retry).
        if (slot.seq.load(std::memory_order_relaxed) != s1) {
          ++local_retries;
          continue;
        }
        break;
      }
      const std::uint64_t meta = slot.meta.load(std::memory_order_acquire);
      const std::size_t len = meta_length(meta);
      std::uint64_t buf[kPayloadWords];
      if (len != 0 && len <= kMaxEncodedBytes) {
        const std::size_t words = (len + 7) / 8;
        for (std::size_t i = 0; i < words; ++i) {
          buf[i] = slot.payload[i].load(std::memory_order_acquire);
        }
      }
      // The payload loads above are acquire, so this re-check cannot be
      // hoisted before them; see the header for why a torn payload read
      // always forces s2 != s1 here.
      if (slot.seq.load(std::memory_order_relaxed) != s1) {
        ++local_retries;
        continue;
      }
      if (len == 0 || len > kMaxEncodedBytes) break;  // cleared slot
      if (meta_expired(meta, now)) break;
      if (!decode_decision(reinterpret_cast<const std::uint8_t*>(buf), len, out)) {
        break;  // cannot happen for slots we wrote; treat as a miss
      }
      if (expires_at != nullptr) *expires_at = meta >> 8;
      hit = true;
      break;
    }
  }
  if (retries != nullptr) *retries += local_retries;
  return hit;
}

template <class Lock>
bool DecisionSlotTable<Lock>::insert(const RequestKey& key, std::uint64_t version,
                                     const core::Decision& d, std::uint64_t expires_at) {
  std::uint8_t buf[kMaxEncodedBytes];
  const auto encoded = encode_decision(d, buf, sizeof buf);
  const std::size_t bucket = static_cast<std::size_t>(slot_hash(key, version)) & bucket_mask_;
  WriteShard& ws = shard_for(bucket);
  std::lock_guard lock(ws.mutex);
  if (!encoded) {
    ++ws.stats.rejected_oversize;
    return false;
  }

  // Slot choice: exact (key, version) match > empty > expired >
  // round-robin victim.
  const std::uint64_t now = expiry_now();
  Slot* existing = nullptr;
  Slot* empty = nullptr;
  Slot* expired = nullptr;
  for (std::size_t way = 0; way < kWays && existing == nullptr; ++way) {
    Slot& s = slots_[bucket * kWays + way];
    // Relaxed loads are exact here: all writes to this bucket happen
    // under the shard lock we hold (or on the one thread that owns the
    // table).
    const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
    if (meta == 0) {
      if (empty == nullptr) empty = &s;
    } else if (s.key_lo.load(std::memory_order_relaxed) == key.lo &&
               s.key_hi.load(std::memory_order_relaxed) == key.hi &&
               s.version.load(std::memory_order_relaxed) == version) {
      existing = &s;
    } else if (expired == nullptr && meta_expired(meta, now)) {
      expired = &s;
    }
  }
  Slot* target = existing != nullptr ? existing
                 : empty != nullptr  ? empty
                 : expired != nullptr
                     ? expired
                     : &slots_[bucket * kWays + (ws.victim_counter++ % kWays)];
  if (expires_at == kExpiryFromTtl) {
    expires_at = ttl_ == 0 ? 0
                           : std::clamp<std::uint64_t>(now + static_cast<std::uint64_t>(ttl_),
                                                       1, kMaxExpiry);
  }
  expires_at = std::min(expires_at, kMaxExpiry);

  const std::uint64_t s0 = target->seq.load(std::memory_order_relaxed);
  target->seq.store(s0 + 1, std::memory_order_relaxed);  // odd: write begins
  // Release stores: any reader that observes one of these new values
  // synchronizes-with it and therefore also sees the odd seq above.
  target->key_lo.store(key.lo, std::memory_order_release);
  target->key_hi.store(key.hi, std::memory_order_release);
  target->version.store(version, std::memory_order_release);
  target->meta.store(expires_at << 8 | *encoded, std::memory_order_release);
  const std::size_t words = (*encoded + 7) / 8;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t w = 0;
    const std::size_t n = std::min<std::size_t>(8, *encoded - i * 8);
    std::memcpy(&w, buf + i * 8, n);
    target->payload[i].store(w, std::memory_order_release);
  }
  target->seq.store(s0 + 2, std::memory_order_release);  // even: published

  if (target == existing) {
    ++ws.stats.updates;
    return true;
  }
  ++ws.stats.inserts;
  if (target == empty) {
    ++ws.occupied;
  } else if (target == expired) {
    ++ws.stats.expirations;
  } else {
    ++ws.stats.evictions;
  }
  return true;
}

template <class Lock>
void DecisionSlotTable<Lock>::clear_slot(Slot& slot) {
  // Same write protocol as insert; seq stays monotonic (never back to 0)
  // so a concurrent reader can never pair a pre-clear s1 with a
  // post-refill s2 of equal value (the ABA a seq reset would reopen).
  const std::uint64_t s0 = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(s0 + 1, std::memory_order_relaxed);
  slot.key_lo.store(0, std::memory_order_release);
  slot.key_hi.store(0, std::memory_order_release);
  slot.version.store(0, std::memory_order_release);
  slot.meta.store(0, std::memory_order_release);
  slot.seq.store(s0 + 2, std::memory_order_release);
}

template <class Lock>
std::size_t DecisionSlotTable<Lock>::evict_older_than(std::uint64_t version) {
  std::size_t removed = 0;
  const std::size_t shards = shard_mask_ + 1;
  for (std::size_t si = 0; si < shards; ++si) {
    WriteShard& ws = shards_[si];
    std::lock_guard lock(ws.mutex);
    for (std::size_t bucket = si; bucket <= bucket_mask_; bucket += shards) {
      for (std::size_t way = 0; way < kWays; ++way) {
        Slot& s = slots_[bucket * kWays + way];
        if (s.meta.load(std::memory_order_relaxed) == 0) continue;
        if (s.version.load(std::memory_order_relaxed) >= version) continue;
        clear_slot(s);
        ++removed;
        ++ws.stats.version_evictions;
        --ws.occupied;
      }
    }
  }
  return removed;
}

template <class Lock>
std::size_t DecisionSlotTable<Lock>::clear() {
  std::size_t removed = 0;
  const std::size_t shards = shard_mask_ + 1;
  for (std::size_t si = 0; si < shards; ++si) {
    WriteShard& ws = shards_[si];
    std::lock_guard lock(ws.mutex);
    for (std::size_t bucket = si; bucket <= bucket_mask_; bucket += shards) {
      for (std::size_t way = 0; way < kWays; ++way) {
        Slot& s = slots_[bucket * kWays + way];
        if (s.meta.load(std::memory_order_relaxed) == 0) continue;
        clear_slot(s);
        ++removed;
        ++ws.stats.invalidations;
        --ws.occupied;
      }
    }
  }
  return removed;
}

template <class Lock>
SeqlockCacheStats DecisionSlotTable<Lock>::stats() const {
  SeqlockCacheStats total;
  const std::size_t shards = shard_mask_ + 1;
  for (std::size_t si = 0; si < shards; ++si) {
    WriteShard& ws = shards_[si];
    std::lock_guard lock(ws.mutex);
    total += ws.stats;
  }
  return total;
}

template <class Lock>
std::size_t DecisionSlotTable<Lock>::size() const {
  std::size_t total = 0;
  const std::size_t shards = shard_mask_ + 1;
  for (std::size_t si = 0; si < shards; ++si) {
    WriteShard& ws = shards_[si];
    std::lock_guard lock(ws.mutex);
    total += ws.occupied;
  }
  return total;
}

template class DecisionSlotTable<std::mutex>;
template class DecisionSlotTable<NoLock>;

}  // namespace mdac::cache
