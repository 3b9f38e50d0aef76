#include "cache/request_key.hpp"

#include <bit>
#include <random>
#include <string_view>

namespace mdac::cache {
namespace {

/// splitmix64 finalizer: full-avalanche 64-bit mix.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

struct H128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

/// Two independently keyed/multiplied 64-bit digests in one pass over the
/// bytes. The halves of a 128-bit value hash must not be functions of one
/// another, or a single 64-bit collision collapses the whole key.
H128 hash_bytes2(std::string_view bytes, std::uint64_t seed_lo,
                 std::uint64_t seed_hi) {
  std::uint64_t a = seed_lo ^ 0xCBF29CE484222325ULL;
  std::uint64_t b = seed_hi ^ 0x84222325CBF29CE4ULL;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    a = (a ^ byte) * 0x100000001B3ULL;
    b = (b ^ byte) * 0x9DDFEA08EB382D69ULL;
  }
  return {a, b};
}

/// Hashes one typed value under two secret per-process keys. The DataType
/// tag is folded in so equal lexical forms of different types stay
/// distinct. Keying each *value* hash (not just the chaining state) is
/// what makes the commutative bag sums attacker-opaque: with unkeyed
/// value hashes the sums would be computable offline regardless of any
/// seed applied later in the chain. For fixed-width types the raw value
/// is injective, so deriving hi from lo is safe; strings get two
/// independent digests so the key keeps ~128-bit collision resistance
/// for the only input an attacker can vary freely.
H128 hash_value(const core::AttributeValue& v, std::uint64_t key_lo,
                std::uint64_t key_hi) {
  const auto tag = (static_cast<std::uint64_t>(v.type()) << 56) ^ key_lo;
  if (v.type() == core::DataType::kString) {
    const H128 raw = hash_bytes2(
        v.as_string(), /*seed_lo=*/tag,
        /*seed_hi=*/(static_cast<std::uint64_t>(v.type()) << 56) ^ key_hi);
    return {mix64(tag ^ raw.lo), mix64(key_hi ^ raw.hi)};
  }
  std::uint64_t raw = 0;
  switch (v.type()) {
    case core::DataType::kString:
      break;  // handled above
    case core::DataType::kBoolean:
      raw = v.as_boolean() ? 1 : 2;
      break;
    case core::DataType::kInteger:
      raw = static_cast<std::uint64_t>(v.as_integer());
      break;
    case core::DataType::kDouble:
      raw = std::bit_cast<std::uint64_t>(v.as_double());
      break;
    case core::DataType::kTime:
      raw = static_cast<std::uint64_t>(v.as_time().millis);
      break;
  }
  H128 h;
  h.lo = mix64(tag ^ raw);
  h.hi = mix64(h.lo ^ key_hi ^ 0xA5A5A5A55A5A5A5AULL);
  return h;
}

/// Per-process random seeds: `a`/`b` key the chaining state and `a` also
/// keys every per-value hash. The mixers above are not cryptographic:
/// with fixed constants an adversary controlling multi-valued attributes
/// could search offline (Wagner k-sum) for colliding value multisets —
/// the bag combination is a commutative sum — and have one principal
/// served another's cached decision. Secret keys force any such search
/// through the live process, which cannot observe fingerprints. Costs
/// nothing per call; the fingerprint was already documented as
/// process-local.
struct Seeds {
  std::uint64_t a;
  std::uint64_t b;
  static const Seeds& get() {
    static const Seeds s = [] {
      std::random_device rd;
      const auto word = [&rd] {
        return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
      };
      return Seeds{mix64(word() ^ 0x7D0C45BD10F8E791ULL),
                   mix64(word() ^ 0x93A4F1B26E05C3DAULL)};
    }();
    return s;
  }
};

}  // namespace

RequestKey fingerprint(const core::RequestContext& request) {
  // Entries iterate in canonical (category, symbol) order, so chaining
  // order-dependently across entries is deterministic; *within* a bag the
  // per-value hashes are summed, making the bag a commutative multiset.
  const Seeds& seeds = Seeds::get();
  RequestKey key{seeds.a, seeds.b};
  const auto chain = [&](std::uint64_t slot_lo, std::uint64_t slot_hi,
                         const core::Bag& bag) {
    std::uint64_t bag_lo = 0;
    std::uint64_t bag_hi = 0;
    for (const core::AttributeValue& v : bag.values()) {
      const H128 hv = hash_value(v, seeds.a, seeds.b);
      bag_lo += hv.lo;
      bag_hi += hv.hi;
    }
    key.lo = mix64(key.lo ^ slot_lo ^ bag_lo);
    key.hi = mix64(key.hi ^ std::rotl(key.lo, 32) ^ slot_hi ^ bag_hi ^
                   (bag.size() * 0xC2B2AE3D27D4EB4FULL));
  };
  for (const core::RequestContext::Entry& entry : request.attributes()) {
    // Interned slots are injective (distinct (category, symbol) never
    // collide), so a hi-half slot contribution is unnecessary.
    chain((static_cast<std::uint64_t>(entry.category) << 32) | entry.id,
          /*slot_hi=*/0, entry.bag);
  }
  // Un-interned side entries have no symbol; their slot is the keyed hash
  // of the name bytes — two independent digests, like string values: the
  // name is attacker-chosen, so a single 64-bit digest feeding both
  // halves would collapse the key's collision resistance to 64 bits.
  // Side entries iterate in canonical (category, name) order, and a
  // request with no side entries — the steady state — pays nothing here.
  // Two requests that differ only in *where* a name is stored (interned
  // vs side) hash differently, which costs a cache miss, never a wrong
  // hit.
  for (const core::RequestContext::SideEntry& entry : request.side_attributes()) {
    const std::uint64_t category_tag = static_cast<std::uint64_t>(entry.category)
                                       << 32;
    const H128 name_hash =
        hash_bytes2(entry.name, seeds.b ^ category_tag,
                    mix64(seeds.a) ^ category_tag);
    chain(mix64(name_hash.lo), mix64(name_hash.hi), entry.bag);
  }
  return key;
}

}  // namespace mdac::cache
