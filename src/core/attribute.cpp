#include "core/attribute.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace mdac::core {

const char* to_string(DataType t) {
  switch (t) {
    case DataType::kString: return "string";
    case DataType::kBoolean: return "boolean";
    case DataType::kInteger: return "integer";
    case DataType::kDouble: return "double";
    case DataType::kTime: return "time";
  }
  return "?";
}

std::optional<DataType> data_type_from_string(std::string_view s) {
  if (s == "string") return DataType::kString;
  if (s == "boolean") return DataType::kBoolean;
  if (s == "integer") return DataType::kInteger;
  if (s == "double") return DataType::kDouble;
  if (s == "time") return DataType::kTime;
  return std::nullopt;
}

DataType AttributeValue::type() const {
  switch (value_.index()) {
    case 0: return DataType::kString;
    case 1: return DataType::kBoolean;
    case 2: return DataType::kInteger;
    case 3: return DataType::kDouble;
    default: return DataType::kTime;
  }
}

std::string AttributeValue::to_text() const {
  switch (type()) {
    case DataType::kString:
      return as_string();
    case DataType::kBoolean:
      return as_boolean() ? "true" : "false";
    case DataType::kInteger:
      return std::to_string(as_integer());
    case DataType::kDouble: {
      std::ostringstream os;
      os.precision(17);
      os << as_double();
      return os.str();
    }
    case DataType::kTime:
      return std::to_string(as_time().millis);
  }
  return {};
}

std::optional<AttributeValue> AttributeValue::from_text(DataType type,
                                                        std::string_view text) {
  switch (type) {
    case DataType::kString:
      return AttributeValue(std::string(text));
    case DataType::kBoolean:
      if (text == "true" || text == "1") return AttributeValue(true);
      if (text == "false" || text == "0") return AttributeValue(false);
      return std::nullopt;
    case DataType::kInteger: {
      std::int64_t v = 0;
      const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc() || ptr != text.data() + text.size()) return std::nullopt;
      return AttributeValue(v);
    }
    case DataType::kDouble: {
      // std::from_chars for double is available in libstdc++ 11+.
      double v = 0;
      const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc() || ptr != text.data() + text.size()) return std::nullopt;
      return AttributeValue(v);
    }
    case DataType::kTime: {
      std::int64_t v = 0;
      const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc() || ptr != text.data() + text.size()) return std::nullopt;
      return AttributeValue(TimeValue{v});
    }
  }
  return std::nullopt;
}

Bag::Bag(std::vector<AttributeValue> vs) : size_(vs.size()) {
  if (size_ == 1) {
    new (&one_) AttributeValue(std::move(vs.front()));
  } else if (size_ > 1) {
    new (&many_) Many(std::move(vs));
  }
}

Bag& Bag::operator=(const Bag& other) {
  if (this != &other) *this = Bag(other);
  return *this;
}

Bag Bag::of(std::initializer_list<AttributeValue> vs) {
  if (vs.size() == 1) return Bag(*vs.begin());
  return Bag(std::vector<AttributeValue>(vs));
}

void Bag::add(AttributeValue v) {
  if (size_ == 0) {
    new (&one_) AttributeValue(std::move(v));
  } else if (size_ == 1) {
    Many spilled;
    spilled.reserve(2);
    spilled.push_back(std::move(one_));
    spilled.push_back(std::move(v));
    one_.~AttributeValue();
    new (&many_) Many(std::move(spilled));
  } else {
    many_.push_back(std::move(v));
  }
  ++size_;
}

const AttributeValue& Bag::at(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("Bag::at: index out of range");
  return values()[i];
}

bool Bag::contains(const AttributeValue& v) const {
  const std::span<const AttributeValue> vs = values();
  return std::ranges::find(vs, v) != vs.end();
}

bool Bag::set_equals(const Bag& other) const {
  if (size_ != other.size_) return false;
  if (size_ <= 1) return *this == other;
  Many a = many_;
  Many b = other.many_;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

bool Bag::operator==(const Bag& other) const {
  return std::ranges::equal(values(), other.values());
}

const char* to_string(Category c) {
  switch (c) {
    case Category::kSubject: return "subject";
    case Category::kResource: return "resource";
    case Category::kAction: return "action";
    case Category::kEnvironment: return "environment";
    case Category::kDelegate: return "delegate";
  }
  return "?";
}

std::optional<Category> category_from_string(std::string_view s) {
  if (s == "subject") return Category::kSubject;
  if (s == "resource") return Category::kResource;
  if (s == "action") return Category::kAction;
  if (s == "environment") return Category::kEnvironment;
  if (s == "delegate") return Category::kDelegate;
  return std::nullopt;
}

const attrs::Symbols& attrs::Symbols::get() {
  static const Symbols instance{
      common::interner().intern(attrs::kSubjectId),
      common::interner().intern(attrs::kSubjectDomain),
      common::interner().intern(attrs::kRole),
      common::interner().intern(attrs::kClearance),
      common::interner().intern(attrs::kResourceId),
      common::interner().intern(attrs::kResourceDomain),
      common::interner().intern(attrs::kResourceOwner),
      common::interner().intern(attrs::kClassification),
      common::interner().intern(attrs::kActionId),
      common::interner().intern(attrs::kCurrentTime),
  };
  return instance;
}

}  // namespace mdac::core
