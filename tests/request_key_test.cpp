#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "cache/decision_cache.hpp"
#include "cache/request_key.hpp"

namespace mdac::cache {
namespace {

using core::AttributeValue;
using core::Category;

// ---------------------------------------------------------------------
// Canonicalisation: semantically equal requests fingerprint equal.
// ---------------------------------------------------------------------

TEST(RequestKeyTest, EqualRequestsEqualKeys) {
  const auto a = core::RequestContext::make("alice", "doc", "read");
  const auto b = core::RequestContext::make("alice", "doc", "read");
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(RequestKeyTest, AttributeInsertionOrderDoesNotMatter) {
  core::RequestContext a;
  a.add(Category::kSubject, "subject-id", AttributeValue("alice"));
  a.add(Category::kSubject, "role", AttributeValue("doctor"));
  a.add(Category::kResource, "resource-id", AttributeValue("record"));
  a.add(Category::kAction, "action-id", AttributeValue("read"));

  core::RequestContext b;
  b.add(Category::kAction, "action-id", AttributeValue("read"));
  b.add(Category::kResource, "resource-id", AttributeValue("record"));
  b.add(Category::kSubject, "role", AttributeValue("doctor"));
  b.add(Category::kSubject, "subject-id", AttributeValue("alice"));

  EXPECT_EQ(a, b);  // storage itself canonicalises
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(RequestKeyTest, BagValueOrderDoesNotMatter) {
  core::RequestContext a;
  a.add(Category::kSubject, "role", AttributeValue("x"));
  a.add(Category::kSubject, "role", AttributeValue("y"));
  core::RequestContext b;
  b.add(Category::kSubject, "role", AttributeValue("y"));
  b.add(Category::kSubject, "role", AttributeValue("x"));
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

// ---------------------------------------------------------------------
// Distinctness: different requests get different keys (by design the
// only collisions are the ~2^-128 accidental ones).
// ---------------------------------------------------------------------

TEST(RequestKeyTest, DifferentRequestsDifferentKeys) {
  const auto a = core::RequestContext::make("alice", "doc", "read");
  const auto b = core::RequestContext::make("alice", "doc", "write");
  const auto c = core::RequestContext::make("bob", "doc", "read");
  EXPECT_NE(fingerprint(a), fingerprint(b));
  EXPECT_NE(fingerprint(a), fingerprint(c));
  EXPECT_NE(fingerprint(b), fingerprint(c));
}

TEST(RequestKeyTest, DataTypeIsPartOfTheKey) {
  core::RequestContext a;
  a.add(Category::kSubject, "x", AttributeValue("1"));
  core::RequestContext b;
  b.add(Category::kSubject, "x", AttributeValue(std::int64_t{1}));
  EXPECT_NE(fingerprint(a), fingerprint(b));
}

TEST(RequestKeyTest, CategoryIsPartOfTheKey) {
  core::RequestContext a;
  a.add(Category::kSubject, "id", AttributeValue("v"));
  core::RequestContext b;
  b.add(Category::kResource, "id", AttributeValue("v"));
  EXPECT_NE(fingerprint(a), fingerprint(b));
}

TEST(RequestKeyTest, BagIsAMultiset) {
  core::RequestContext once;
  once.add(Category::kSubject, "role", AttributeValue("x"));
  core::RequestContext twice;
  twice.add(Category::kSubject, "role", AttributeValue("x"));
  twice.add(Category::kSubject, "role", AttributeValue("x"));
  EXPECT_NE(fingerprint(once), fingerprint(twice));
}

TEST(RequestKeyTest, EmptyRequestHasStableKey) {
  EXPECT_EQ(fingerprint(core::RequestContext{}), fingerprint(core::RequestContext{}));
  const auto nonempty = core::RequestContext::make("a", "b", "c");
  EXPECT_NE(fingerprint(core::RequestContext{}), fingerprint(nonempty));
}

/// The fingerprint must induce the same equivalence classes as the
/// canonical string key over a populated request space.
TEST(RequestKeyTest, AgreesWithCanonicalStringKey) {
  std::set<std::string> strings;
  std::set<std::pair<std::uint64_t, std::uint64_t>> prints;
  for (int user = 0; user < 10; ++user) {
    for (int res = 0; res < 10; ++res) {
      for (const char* action : {"read", "write"}) {
        auto req = core::RequestContext::make("user-" + std::to_string(user),
                                              "res-" + std::to_string(res), action);
        req.add(Category::kSubject, "role",
                AttributeValue("role-" + std::to_string(user % 3)));
        strings.insert(canonical_request_key(req));
        const RequestKey k = fingerprint(req);
        prints.insert({k.lo, k.hi});
      }
    }
  }
  EXPECT_EQ(strings.size(), prints.size());
  EXPECT_EQ(prints.size(), 200u);
}

// ---------------------------------------------------------------------
// The cache consumes keys directly (fingerprint-once shape).
// ---------------------------------------------------------------------

TEST(RequestKeyTest, KeyLevelCacheApiMatchesRequestLevel) {
  DecisionCache cache(DecisionCache::TwoLevelConfig{});
  const auto req = core::RequestContext::make("alice", "doc", "read");
  const RequestKey key = fingerprint(req);

  cache.insert(key, core::Decision::deny());
  const auto by_request = cache.lookup(req);
  const auto by_key = cache.lookup(key);
  ASSERT_TRUE(by_request.has_value());
  ASSERT_TRUE(by_key.has_value());
  EXPECT_TRUE(by_request->is_deny());
  EXPECT_TRUE(by_key->is_deny());
}

}  // namespace
}  // namespace mdac::cache
