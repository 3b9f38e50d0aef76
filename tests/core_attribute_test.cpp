#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/attribute.hpp"
#include "core/request.hpp"

namespace mdac::core {
namespace {

// ---------------------------------------------------------------------
// AttributeValue
// ---------------------------------------------------------------------

TEST(AttributeValueTest, TypesAreDiscriminated) {
  EXPECT_EQ(AttributeValue("x").type(), DataType::kString);
  EXPECT_EQ(AttributeValue(true).type(), DataType::kBoolean);
  EXPECT_EQ(AttributeValue(std::int64_t{5}).type(), DataType::kInteger);
  EXPECT_EQ(AttributeValue(2.5).type(), DataType::kDouble);
  EXPECT_EQ(AttributeValue(TimeValue{99}).type(), DataType::kTime);
}

TEST(AttributeValueTest, IntegerAndTimeAreDistinct) {
  // A time value and an integer with the same numeric payload must not
  // compare equal — the type is part of the value.
  EXPECT_NE(AttributeValue(std::int64_t{7}), AttributeValue(TimeValue{7}));
}

TEST(AttributeValueTest, EqualityWithinType) {
  EXPECT_EQ(AttributeValue("a"), AttributeValue("a"));
  EXPECT_NE(AttributeValue("a"), AttributeValue("b"));
  EXPECT_NE(AttributeValue("1"), AttributeValue(std::int64_t{1}));
}

struct TextCase {
  DataType type;
  std::string text;
};

class TextRoundTrip : public ::testing::TestWithParam<TextCase> {};

TEST_P(TextRoundTrip, FromTextToTextIsIdentity) {
  const auto& param = GetParam();
  const auto v = AttributeValue::from_text(param.type, param.text);
  ASSERT_TRUE(v.has_value()) << param.text;
  EXPECT_EQ(v->type(), param.type);
  const auto again = AttributeValue::from_text(param.type, v->to_text());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *v);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, TextRoundTrip,
    ::testing::Values(TextCase{DataType::kString, "hello world"},
                      TextCase{DataType::kString, ""},
                      TextCase{DataType::kString, "with <xml> & entities"},
                      TextCase{DataType::kBoolean, "true"},
                      TextCase{DataType::kBoolean, "false"},
                      TextCase{DataType::kInteger, "0"},
                      TextCase{DataType::kInteger, "-42"},
                      TextCase{DataType::kInteger, "9223372036854775807"},
                      TextCase{DataType::kDouble, "2.5"},
                      TextCase{DataType::kDouble, "-0.125"},
                      TextCase{DataType::kTime, "1700000000000"}));

TEST(AttributeValueTest, FromTextRejectsGarbage) {
  EXPECT_FALSE(AttributeValue::from_text(DataType::kInteger, "12x").has_value());
  EXPECT_FALSE(AttributeValue::from_text(DataType::kInteger, "").has_value());
  EXPECT_FALSE(AttributeValue::from_text(DataType::kBoolean, "yes").has_value());
  EXPECT_FALSE(AttributeValue::from_text(DataType::kDouble, "1.2.3").has_value());
  EXPECT_FALSE(AttributeValue::from_text(DataType::kTime, "noon").has_value());
}

TEST(AttributeValueTest, BooleanAcceptsNumericForms) {
  EXPECT_EQ(AttributeValue::from_text(DataType::kBoolean, "1"), AttributeValue(true));
  EXPECT_EQ(AttributeValue::from_text(DataType::kBoolean, "0"), AttributeValue(false));
}

// ---------------------------------------------------------------------
// Bag
// ---------------------------------------------------------------------

TEST(BagTest, BasicOperations) {
  Bag bag;
  EXPECT_TRUE(bag.empty());
  bag.add(AttributeValue("a"));
  bag.add(AttributeValue("b"));
  EXPECT_EQ(bag.size(), 2u);
  EXPECT_TRUE(bag.contains(AttributeValue("a")));
  EXPECT_FALSE(bag.contains(AttributeValue("c")));
  EXPECT_FALSE(bag.singleton());
  EXPECT_TRUE(Bag(AttributeValue("x")).singleton());
}

TEST(BagTest, SetEqualsIsOrderInsensitive) {
  const Bag a = Bag::of({AttributeValue("x"), AttributeValue("y")});
  const Bag b = Bag::of({AttributeValue("y"), AttributeValue("x")});
  EXPECT_TRUE(a.set_equals(b));
  EXPECT_FALSE(a == b);  // plain equality is order-sensitive
}

TEST(BagTest, SetEqualsIsMultisetSensitive) {
  const Bag a = Bag::of({AttributeValue("x"), AttributeValue("x")});
  const Bag b = Bag::of({AttributeValue("x")});
  EXPECT_FALSE(a.set_equals(b));
}

// The storage transitions: empty, one inline value, then all values in
// the spill vector. Every observable below must be independent of which
// storage a bag is in.

std::vector<AttributeValue> as_vector(const Bag& bag) {
  return {bag.values().begin(), bag.values().end()};
}

const AttributeValue kA("a");
const AttributeValue kB("b");
const AttributeValue kC("c");

TEST(BagTest, AddWalksSizesZeroToThreeInOrder) {
  Bag bag;
  EXPECT_TRUE(bag.empty());
  EXPECT_EQ(bag.size(), 0u);
  EXPECT_TRUE(bag.values().empty());

  bag.add(kA);
  EXPECT_FALSE(bag.empty());
  EXPECT_TRUE(bag.singleton());
  EXPECT_EQ(as_vector(bag), (std::vector<AttributeValue>{kA}));
  EXPECT_EQ(bag.at(0), kA);

  bag.add(kB);
  EXPECT_EQ(bag.size(), 2u);
  EXPECT_FALSE(bag.singleton());
  EXPECT_EQ(as_vector(bag), (std::vector<AttributeValue>{kA, kB}));

  bag.add(kC);
  EXPECT_EQ(bag.size(), 3u);
  EXPECT_EQ(as_vector(bag), (std::vector<AttributeValue>{kA, kB, kC}));
  EXPECT_EQ(bag.at(0), kA);
  EXPECT_EQ(bag.at(2), kC);
}

TEST(BagTest, EqualityIsIndependentOfConstructionPath) {
  const std::vector<std::vector<AttributeValue>> contents = {{}, {kA}, {kA, kB, kC}};
  for (const std::vector<AttributeValue>& values : contents) {
    Bag added;
    for (const AttributeValue& v : values) added.add(v);
    const Bag from_vector(values);
    EXPECT_EQ(added, from_vector) << values.size();
    EXPECT_EQ(as_vector(added), values);
    EXPECT_EQ(as_vector(from_vector), values);
  }
  EXPECT_EQ(Bag(), Bag::of({}));
  EXPECT_EQ(Bag(kA), Bag::of({kA}));
  EXPECT_EQ(Bag(kA), Bag(std::vector<AttributeValue>{kA}));
  EXPECT_EQ(Bag::of({kA, kB, kC}), Bag(std::vector<AttributeValue>{kA, kB, kC}));

  // Inequality: value, type, size, order.
  EXPECT_NE(Bag(kA), Bag(kB));
  EXPECT_NE(Bag(AttributeValue(1)), Bag(AttributeValue("1")));
  EXPECT_NE(Bag(kA), Bag::of({kA, kA}));
  EXPECT_NE(Bag(), Bag(AttributeValue("")));
  EXPECT_NE(Bag::of({kA, kB}), Bag::of({kB, kA}));
}

TEST(BagTest, CopyAndMoveKeepValuesInBothStorages) {
  for (const Bag& original : {Bag(kA), Bag::of({kA, kB, kC})}) {
    Bag copy = original;
    EXPECT_EQ(copy, original);

    Bag moved = std::move(copy);
    EXPECT_EQ(moved, original);
    // The moved-from bag is empty, and stays usable and assignable.
    EXPECT_TRUE(copy.empty());
    EXPECT_TRUE(copy.values().empty());
    copy.add(kB);
    EXPECT_EQ(copy, Bag(kB));
    copy = original;
    EXPECT_EQ(copy, original);

    Bag assigned(kC);
    assigned = std::move(moved);
    EXPECT_EQ(assigned, original);
    EXPECT_TRUE(moved.empty());
    moved = Bag::of({kB, kC});
    EXPECT_EQ(as_vector(moved), (std::vector<AttributeValue>{kB, kC}));

    // Assigning across storages: inline over spilled and back.
    Bag other = Bag::of({kC, kB, kA});
    other = original;
    EXPECT_EQ(other, original);
    other = Bag(kC);
    EXPECT_EQ(as_vector(other), (std::vector<AttributeValue>{kC}));
    other.add(kA);
    EXPECT_EQ(as_vector(other), (std::vector<AttributeValue>{kC, kA}));
  }
}

TEST(BagTest, OneSlotHoldsEitherStorage) {
  // The inline value and the vector share one slot, chosen by size().
  EXPECT_LE(sizeof(Bag), sizeof(std::size_t) + sizeof(AttributeValue));
}

TEST(BagTest, AtOutOfRangeThrows) {
  EXPECT_THROW((void)Bag().at(0), std::out_of_range);
  EXPECT_THROW((void)Bag(kA).at(1), std::out_of_range);
  EXPECT_THROW((void)Bag::of({kA, kB, kC}).at(3), std::out_of_range);
}

TEST(BagTest, ContainsAndSetEqualsOnMultisets) {
  EXPECT_FALSE(Bag().contains(kA));
  EXPECT_TRUE(Bag(kA).contains(kA));
  EXPECT_FALSE(Bag(kA).contains(kB));
  EXPECT_TRUE(Bag::of({kA, kB, kC}).contains(kC));
  EXPECT_FALSE(Bag::of({kA, kB}).contains(kC));
  EXPECT_FALSE(Bag(AttributeValue(1)).contains(AttributeValue("1")));

  EXPECT_TRUE(Bag().set_equals(Bag()));
  EXPECT_TRUE(Bag(kA).set_equals(Bag(std::vector<AttributeValue>{kA})));
  EXPECT_FALSE(Bag(kA).set_equals(Bag(kB)));
  EXPECT_FALSE(Bag().set_equals(Bag(kA)));
  EXPECT_TRUE(Bag::of({kA, kB, kA}).set_equals(Bag::of({kA, kA, kB})));
  // Same size and same distinct values, different multiplicities.
  EXPECT_FALSE(Bag::of({kA, kA, kB}).set_equals(Bag::of({kA, kB, kB})));
}

// ---------------------------------------------------------------------
// Enum conversions
// ---------------------------------------------------------------------

TEST(EnumsTest, CategoryRoundTrip) {
  for (const Category c : {Category::kSubject, Category::kResource, Category::kAction,
                           Category::kEnvironment, Category::kDelegate}) {
    EXPECT_EQ(category_from_string(to_string(c)), c);
  }
  EXPECT_FALSE(category_from_string("nonsense").has_value());
}

TEST(EnumsTest, DataTypeRoundTrip) {
  for (const DataType t : {DataType::kString, DataType::kBoolean, DataType::kInteger,
                           DataType::kDouble, DataType::kTime}) {
    EXPECT_EQ(data_type_from_string(to_string(t)), t);
  }
  EXPECT_FALSE(data_type_from_string("float").has_value());
}

// ---------------------------------------------------------------------
// RequestContext
// ---------------------------------------------------------------------

TEST(RequestContextTest, AddAccumulatesIntoBags) {
  RequestContext ctx;
  ctx.add(Category::kSubject, "role", AttributeValue("doctor"));
  ctx.add(Category::kSubject, "role", AttributeValue("researcher"));
  const Bag* bag = ctx.get(Category::kSubject, "role");
  ASSERT_NE(bag, nullptr);
  EXPECT_EQ(bag->size(), 2u);
}

TEST(RequestContextTest, GetDistinguishesCategories) {
  RequestContext ctx;
  ctx.add(Category::kSubject, "id", AttributeValue("alice"));
  EXPECT_NE(ctx.get(Category::kSubject, "id"), nullptr);
  EXPECT_EQ(ctx.get(Category::kResource, "id"), nullptr);
}

TEST(RequestContextTest, SetReplacesBag) {
  RequestContext ctx;
  ctx.add(Category::kAction, "x", AttributeValue("1"));
  ctx.set(Category::kAction, "x", Bag(AttributeValue("2")));
  EXPECT_EQ(ctx.get(Category::kAction, "x")->size(), 1u);
  EXPECT_TRUE(ctx.get(Category::kAction, "x")->contains(AttributeValue("2")));
}

TEST(RequestContextTest, MakeBuildsCanonicalTriple) {
  const RequestContext ctx = RequestContext::make("alice", "doc", "read");
  EXPECT_TRUE(ctx.get(Category::kSubject, attrs::kSubjectId)
                  ->contains(AttributeValue("alice")));
  EXPECT_TRUE(ctx.get(Category::kResource, attrs::kResourceId)
                  ->contains(AttributeValue("doc")));
  EXPECT_TRUE(ctx.get(Category::kAction, attrs::kActionId)
                  ->contains(AttributeValue("read")));
}

TEST(RequestContextTest, BuilderCoversAllCategories) {
  const RequestContext ctx = RequestBuilder()
                                 .subject("alice")
                                 .subject_attr("role", AttributeValue("doctor"))
                                 .resource("doc")
                                 .resource_attr("owner", AttributeValue("bob"))
                                 .action("write")
                                 .action_attr("mode", AttributeValue("append"))
                                 .environment_attr("tod", AttributeValue(std::int64_t{9}))
                                 .build();
  EXPECT_EQ(ctx.size(), 7u);
  EXPECT_TRUE(ctx.has(Category::kEnvironment, "tod"));
  EXPECT_TRUE(ctx.has(Category::kAction, "mode"));
}

}  // namespace
}  // namespace mdac::core
