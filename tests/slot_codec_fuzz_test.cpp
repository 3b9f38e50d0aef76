// Seeded mutation fuzzing of the decision-slot codec (cache::encode_decision
// / decode_decision). Every cache hit at either level decodes a slot's
// bytes, so the decoder must be total over whatever a slot can hold:
//
//   * decode_decision returns false, or the decision it yields re-encodes
//     within a slot and decodes back to the same decision;
//   * it never reads past `len`. Each input is decoded from an exact-size
//     heap copy, so an over-read is a heap-buffer-overflow under ASan.
//     (Only ASan sees one: the decoder's closing `pos == len` check turns
//     an input it over-read into a plain failure.)
//
// Inputs: ~100k mutations (common::Rng, fixed seeds) of encodings of
// valid decisions, plus random buffers up to kMaxEncodedBytes. Run in the
// ASan+UBSan tree with `ctest -L robustness`.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/seqlock_cache.hpp"
#include "common/rng.hpp"

namespace mdac::cache {
namespace {

constexpr std::size_t kCap = SeqlockDecisionCache::kMaxEncodedBytes;
using Bytes = std::vector<std::uint8_t>;

Bytes encode(const core::Decision& d) {
  std::array<std::uint8_t, kCap> buf{};
  const std::optional<std::size_t> len = encode_decision(d, buf.data(), buf.size());
  if (!len) return {};
  return Bytes(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(*len));
}

/// Encodings of the decision shapes the engine caches, plus every value
/// type and both obligation lists.
std::vector<Bytes> seed_encodings() {
  std::vector<core::Decision> decisions;
  decisions.push_back(core::Decision::permit());
  decisions.push_back(core::Decision::deny());
  decisions.push_back(core::Decision::not_applicable());
  decisions.push_back(core::Decision::indeterminate(core::IndeterminateExtent::kDP,
                                                    core::Status::missing_attribute("role")));
  core::Decision stamped = core::Decision::permit();
  core::ObligationInstance stamp;
  stamp.id = "audit";
  stamp.assignments.emplace_back("subject", core::AttributeValue("alice"));
  stamped.obligations.push_back(stamp);
  decisions.push_back(stamped);
  core::Decision typed = core::Decision::deny();
  core::ObligationInstance o;
  o.id = "o";
  o.assignments.emplace_back("b", core::AttributeValue(true));
  o.assignments.emplace_back("i", core::AttributeValue(std::int64_t{-7}));
  o.assignments.emplace_back("d", core::AttributeValue(0.25));
  o.assignments.emplace_back("t", core::AttributeValue(core::TimeValue{1'700'000'000'000}));
  typed.obligations.push_back(o);
  core::ObligationInstance advice;
  advice.id = "note";
  advice.assignments.emplace_back("s", core::AttributeValue("x"));
  typed.advice.push_back(advice);
  decisions.push_back(typed);

  std::vector<Bytes> seeds;
  for (const core::Decision& d : decisions) {
    Bytes b = encode(d);
    EXPECT_FALSE(b.empty());
    seeds.push_back(std::move(b));
  }
  return seeds;
}

std::size_t pick(common::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

std::uint8_t random_byte(common::Rng& rng) {
  return static_cast<std::uint8_t>(rng.uniform_int(0, 255));
}

/// One to four edits of `input`, capped at kCap bytes.
Bytes mutate(common::Rng& rng, Bytes input, const std::vector<Bytes>& seeds) {
  const int edits = static_cast<int>(rng.uniform_int(1, 4));
  for (int e = 0; e < edits; ++e) {
    switch (rng.uniform_int(0, 6)) {
      case 0:  // flip one bit
        if (!input.empty()) {
          input[pick(rng, input.size())] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
        }
        break;
      case 1:  // overwrite one byte
        if (!input.empty()) input[pick(rng, input.size())] = random_byte(rng);
        break;
      case 2: {  // a boundary value where a length or count may sit
        static constexpr std::uint8_t kEdges[] = {0, 1, 2, 4, 5, 7, 8, 0x7F, 0x80, 0xFE, 0xFF};
        if (!input.empty()) {
          input[pick(rng, input.size())] = kEdges[pick(rng, std::size(kEdges))];
        }
        break;
      }
      case 3:  // truncate
        input.resize(pick(rng, input.size() + 1));
        break;
      case 4:  // append random bytes
        for (std::size_t n = pick(rng, 9); n > 0; --n) input.push_back(random_byte(rng));
        break;
      case 5: {  // splice another seed's tail after a prefix of this one
        const Bytes& other = seeds[pick(rng, seeds.size())];
        input.resize(pick(rng, input.size() + 1));
        const std::size_t from = pick(rng, other.size() + 1);
        input.insert(input.end(), other.begin() + static_cast<std::ptrdiff_t>(from),
                     other.end());
        break;
      }
      default:  // delete one byte
        if (!input.empty()) {
          input.erase(input.begin() + static_cast<std::ptrdiff_t>(pick(rng, input.size())));
        }
        break;
    }
  }
  if (input.size() > kCap) input.resize(kCap);
  return input;
}

/// Decodes from a buffer of exactly input.size() bytes on the heap.
bool decode_exact(const Bytes& input, core::Decision& out) {
  const auto exact = std::make_unique<std::uint8_t[]>(input.size());
  if (!input.empty()) std::memcpy(exact.get(), input.data(), input.size());
  return decode_decision(exact.get(), input.size(), out);
}

/// Checks the decoder's contract on one input; returns false (and
/// records a failure naming the input) if it is broken.
bool check_input(const Bytes& input) {
  core::Decision decoded;
  if (!decode_exact(input, decoded)) return true;
  // Compared as encodings: a decoded double may be a NaN, which is not
  // equal to itself as a value but is as bytes.
  const Bytes canonical = encode(decoded);
  core::Decision again;
  if (canonical.size() == input.size() && decode_exact(canonical, again) &&
      encode(again) == canonical) {
    return true;
  }
  std::string hex;
  for (const std::uint8_t b : input) {
    static constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xF];
  }
  ADD_FAILURE() << "decoded decision does not round-trip; input (" << input.size()
                << " bytes): " << hex;
  return false;
}

TEST(SlotCodecFuzzTest, SeedsDecodeToThemselves) {
  for (const Bytes& seed : seed_encodings()) {
    core::Decision d;
    ASSERT_TRUE(decode_exact(seed, d));
    EXPECT_EQ(encode(d), seed);
    EXPECT_TRUE(check_input(seed));
  }
}

TEST(SlotCodecFuzzTest, MutatedEncodingsDecodeSafely) {
  const std::vector<Bytes> seeds = seed_encodings();
  common::Rng rng(0x5107C0DEC);
  constexpr int kMutations = 90'000;
  int failures = 0;
  int decoded = 0;
  for (int i = 0; i < kMutations && failures < 10; ++i) {
    const Bytes input = mutate(rng, seeds[pick(rng, seeds.size())], seeds);
    if (!check_input(input)) ++failures;
    core::Decision d;
    if (decode_exact(input, d)) ++decoded;
  }
  EXPECT_EQ(failures, 0);
  // The mutator must reach past the first byte: some inputs decode.
  EXPECT_GT(decoded, kMutations / 100);
}

TEST(SlotCodecFuzzTest, RandomBuffersDecodeSafely) {
  common::Rng rng(0xB0FFE75);
  constexpr int kBuffers = 10'000;
  int failures = 0;
  for (int i = 0; i < kBuffers && failures < 10; ++i) {
    Bytes input(pick(rng, kCap + 1));
    for (std::uint8_t& b : input) b = random_byte(rng);
    if (!check_input(input)) ++failures;
  }
  EXPECT_EQ(failures, 0);
}

}  // namespace
}  // namespace mdac::cache
