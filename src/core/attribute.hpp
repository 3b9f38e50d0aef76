// The attribute model: typed values, bags and attribute categories.
//
// Mirrors the XACML data model the paper builds on (§2.3): every piece of
// information about an access request — who the subject is, what resource
// is touched, which action is attempted, what the environment looks like
// — is an *attribute*: a (category, id) pair bound to a bag of typed
// values. Policies never see identities directly; they see attributes,
// which is exactly the property the paper needs for multi-domain
// evaluation where "access relationships may not involve an explicitly
// named set of individuals" (§2.1).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/clock.hpp"
#include "common/interner.hpp"

namespace mdac::core {

enum class DataType { kString, kBoolean, kInteger, kDouble, kTime };

const char* to_string(DataType t);
std::optional<DataType> data_type_from_string(std::string_view s);

/// Strong wrapper so time values are distinct from integers in the variant.
struct TimeValue {
  common::TimePoint millis = 0;
  bool operator==(const TimeValue&) const = default;
  auto operator<=>(const TimeValue&) const = default;
};

/// A single typed attribute value.
class AttributeValue {
 public:
  AttributeValue() : value_(std::string()) {}
  explicit AttributeValue(std::string v) : value_(std::move(v)) {}
  explicit AttributeValue(const char* v) : value_(std::string(v)) {}
  explicit AttributeValue(bool v) : value_(v) {}
  explicit AttributeValue(std::int64_t v) : value_(v) {}
  explicit AttributeValue(int v) : value_(static_cast<std::int64_t>(v)) {}
  explicit AttributeValue(double v) : value_(v) {}
  explicit AttributeValue(TimeValue v) : value_(v) {}

  DataType type() const;

  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_boolean() const { return std::holds_alternative<bool>(value_); }
  bool is_integer() const { return std::holds_alternative<std::int64_t>(value_); }
  bool is_double() const { return std::holds_alternative<double>(value_); }
  bool is_time() const { return std::holds_alternative<TimeValue>(value_); }

  // Accessors throw std::bad_variant_access on type mismatch; evaluation
  // code checks types first and reports XACML Indeterminate instead.
  const std::string& as_string() const { return std::get<std::string>(value_); }
  bool as_boolean() const { return std::get<bool>(value_); }
  std::int64_t as_integer() const { return std::get<std::int64_t>(value_); }
  double as_double() const { return std::get<double>(value_); }
  TimeValue as_time() const { return std::get<TimeValue>(value_); }

  /// Lexical representation (used in XML serialisation and diagnostics).
  std::string to_text() const;

  /// Parses a lexical representation for a given type. Returns nullopt on
  /// malformed input.
  static std::optional<AttributeValue> from_text(DataType type, std::string_view text);

  bool operator==(const AttributeValue&) const = default;
  /// Orders first by type, then by value; gives bags a canonical order.
  auto operator<=>(const AttributeValue&) const = default;

 private:
  std::variant<std::string, bool, std::int64_t, double, TimeValue> value_;
};

/// An unordered multiset of attribute values. XACML expressions operate on
/// bags; a designator lookup always yields a bag (possibly empty).
///
/// Storage: one slot, chosen by size(), that holds nothing, a single value
/// inline, or a vector of two or more values. A single-valued bag (every
/// designator and function result, and every attribute of the benchmark
/// workloads' requests) owns no heap block; a second value moves all
/// values into the vector. values() spans whichever storage is live;
/// while the bag holds one value the span points into the Bag itself, so
/// it does not survive a move of the bag (or of the vector that holds it).
class Bag {
 public:
  Bag() noexcept {}
  explicit Bag(AttributeValue v) : size_(1) { new (&one_) AttributeValue(std::move(v)); }
  explicit Bag(std::vector<AttributeValue> vs);

  Bag(const Bag& other) : size_(other.size_) {
    if (size_ == 1) {
      new (&one_) AttributeValue(other.one_);
    } else if (size_ > 1) {
      new (&many_) Many(other.many_);
    }
  }
  /// A moved-from bag is empty.
  Bag(Bag&& other) noexcept { take(std::move(other)); }
  Bag& operator=(const Bag& other);
  Bag& operator=(Bag&& other) noexcept {
    if (this != &other) {
      reset();
      take(std::move(other));
    }
    return *this;
  }
  ~Bag() { reset(); }

  static Bag of(std::initializer_list<AttributeValue> vs);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  void add(AttributeValue v);
  bool contains(const AttributeValue& v) const;

  std::span<const AttributeValue> values() const {
    return {size_ > 1 ? many_.data() : &one_, size_};
  }
  const AttributeValue& at(std::size_t i) const;

  /// True if this bag has exactly one element.
  bool singleton() const { return size_ == 1; }

  /// Multiset equality (order-insensitive).
  bool set_equals(const Bag& other) const;

  /// Element-wise, in order (as a vector compares), whatever the storage.
  bool operator==(const Bag& other) const;

 private:
  using Many = std::vector<AttributeValue>;

  /// Moves `other`'s values into this bag, which holds nothing live, and
  /// leaves `other` empty.
  void take(Bag&& other) noexcept {
    size_ = other.size_;
    if (size_ == 1) {
      new (&one_) AttributeValue(std::move(other.one_));
    } else if (size_ > 1) {
      new (&many_) Many(std::move(other.many_));
    }
    other.reset();
  }
  /// Destroys the live member; the bag is then empty.
  void reset() noexcept {
    if (size_ == 1) {
      one_.~AttributeValue();
    } else if (size_ > 1) {
      many_.~Many();
    }
    size_ = 0;
  }

  std::size_t size_ = 0;
  union {
    AttributeValue one_;  // live while size_ == 1
    Many many_;           // live while size_ >= 2, and many_.size() == size_
  };
};

/// XACML attribute categories. kDelegate supports the administration /
/// delegation profile (§2.3, [13]).
enum class Category { kSubject, kResource, kAction, kEnvironment, kDelegate };

const char* to_string(Category c);
std::optional<Category> category_from_string(std::string_view s);

/// Well-known attribute ids used across the library (matching the XACML
/// core vocabulary, shortened).
namespace attrs {
inline constexpr const char* kSubjectId = "subject-id";
inline constexpr const char* kSubjectDomain = "subject-domain";
inline constexpr const char* kRole = "role";
inline constexpr const char* kClearance = "clearance";
inline constexpr const char* kResourceId = "resource-id";
inline constexpr const char* kResourceDomain = "resource-domain";
inline constexpr const char* kResourceOwner = "resource-owner";
inline constexpr const char* kClassification = "classification";
inline constexpr const char* kActionId = "action-id";
inline constexpr const char* kCurrentTime = "current-time";

/// The well-known ids pre-interned (common::Interner), for hot paths that
/// probe requests by Symbol instead of by string. Resolved once, on first
/// use.
struct Symbols {
  common::Symbol subject_id;
  common::Symbol subject_domain;
  common::Symbol role;
  common::Symbol clearance;
  common::Symbol resource_id;
  common::Symbol resource_domain;
  common::Symbol resource_owner;
  common::Symbol classification;
  common::Symbol action_id;
  common::Symbol current_time;

  static const Symbols& get();
};
}  // namespace attrs

}  // namespace mdac::core
