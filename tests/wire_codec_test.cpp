// The streaming wire codec (core/serialization + xml::Reader) against
// the element-tree codec it replaced, over seeded mutations of
// cold_wire-shaped requests (the decision-service benchmark's pull-model
// workload: six attributes in three categories, one serial subject id):
//
//   * request_from_string vs a reference walk over xml::parse: an equal
//     RequestContext, or the same exception type and what();
//   * decoding never grows the process-global interner;
//   * xml::to_string (compact and pretty) vs the stream-based writer;
//   * decision_to_string vs xml::to_string of the element-tree encoding.
//
// It also holds the exact allocation gates of both directions. The
// reference code below is the element-tree implementation, kept here as
// the oracle only.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/interner.hpp"
#include "common/rng.hpp"
#include "core/serialization.hpp"
#include "support/alloc_counter.hpp"
#include "workload.hpp"
#include "xml/xml.hpp"

namespace mdac::core {
namespace {

// ---------------------------------------------------------------------
// Reference: the element-tree codec
// ---------------------------------------------------------------------

namespace ref {

[[noreturn]] void fail(const std::string& message) { throw SerializationError(message); }

std::string require_attr(const xml::Element& e, const std::string& key) {
  if (auto v = e.attr(key)) return *v;
  fail("<" + e.name + "> missing attribute '" + key + "'");
}

DataType parse_data_type(const std::string& s) {
  if (auto t = data_type_from_string(s)) return *t;
  fail("unknown data type '" + s + "'");
}

Category parse_category(const std::string& s) {
  if (auto c = category_from_string(s)) return *c;
  fail("unknown category '" + s + "'");
}

AttributeValue value_from_xml(const xml::Element& e) {
  const DataType type = parse_data_type(e.attr_or("DataType", "string"));
  if (auto v = AttributeValue::from_text(type, e.text)) return *v;
  fail("cannot parse '" + e.text + "' as " + to_string(type));
}

/// Calls `add(category, id, value)` for every value, in document order.
template <typename Add>
void walk_request(const xml::Element& element, Add&& add) {
  if (element.name != "Request") fail("expected <Request>");
  for (const xml::Element* group : element.children_named("Attributes")) {
    const Category category = parse_category(require_attr(*group, "Category"));
    for (const xml::Element* attr : group->children_named("Attribute")) {
      const std::string id = require_attr(*attr, "AttributeId");
      for (const xml::Element* value : attr->children_named("Value")) {
        add(category, id, value_from_xml(*value));
      }
    }
  }
}

RequestContext request_from_xml(const xml::Element& element) {
  RequestContext request;
  walk_request(element, [&](Category c, const std::string& id, AttributeValue v) {
    request.add(c, id, std::move(v));
  });
  return request;
}

xml::Element obligation_instance_to_xml(const ObligationInstance& ob) {
  xml::Element e("Obligation");
  e.set_attr("ObligationId", ob.id);
  for (const auto& [id, value] : ob.assignments) {
    xml::Element assign("Assignment");
    assign.set_attr("AttributeId", id);
    assign.set_attr("DataType", to_string(value.type()));
    assign.text = value.to_text();
    e.add_child(std::move(assign));
  }
  return e;
}

xml::Element decision_to_xml(const Decision& decision) {
  xml::Element e("Response");
  xml::Element& result = e.add_child("Result");
  result.set_attr("Decision", to_string(decision.type));
  if (decision.extent != IndeterminateExtent::kNone) {
    result.set_attr("Extent", to_string(decision.extent));
  }
  xml::Element& status = result.add_child("Status");
  status.set_attr("Code", to_string(decision.status.code));
  status.text = decision.status.message;
  if (!decision.obligations.empty()) {
    xml::Element& obs = result.add_child("Obligations");
    for (const ObligationInstance& ob : decision.obligations) {
      obs.add_child(obligation_instance_to_xml(ob));
    }
  }
  if (!decision.advice.empty()) {
    xml::Element& adv = result.add_child("Advice");
    for (const ObligationInstance& ob : decision.advice) {
      adv.add_child(obligation_instance_to_xml(ob));
    }
  }
  return e;
}

std::string escape(std::string_view s, bool quotes) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += quotes ? "&quot;" : "\""; break;
      case '\'': out += quotes ? "&apos;" : "'"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void write_element(const xml::Element& e, std::ostringstream& os, bool pretty, int depth) {
  const std::string indent = pretty ? std::string(static_cast<std::size_t>(depth) * 2, ' ') : "";
  os << indent << '<' << e.name;
  for (const auto& [k, v] : e.attributes) os << ' ' << k << "=\"" << escape(v, true) << '"';
  const bool has_text = !e.text.empty();
  if (e.children.empty() && !has_text) {
    os << "/>";
    if (pretty) os << '\n';
    return;
  }
  os << '>';
  if (has_text) os << escape(e.text, false);
  if (!e.children.empty()) {
    if (pretty) os << '\n';
    for (const xml::Element& c : e.children) write_element(c, os, pretty, depth + 1);
    if (pretty) os << indent;
  }
  os << "</" << e.name << '>';
  if (pretty) os << '\n';
}

std::string to_string(const xml::Element& root, bool pretty) {
  std::ostringstream os;
  write_element(root, os, pretty, 0);
  std::string s = os.str();
  if (pretty && !s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

}  // namespace ref

/// The policy vocabulary a PDP serving cold_wire has interned (requests
/// and decisions come from bench::cold_wire_request/_decision).
void intern_vocabulary() {
  (void)attrs::Symbols::get();
  for (const char* name : {attrs::kSubjectId, attrs::kRole, attrs::kResourceId,
                           attrs::kResourceDomain, attrs::kActionId, "service"}) {
    common::interner().intern(name);
  }
}

// ---------------------------------------------------------------------
// Mutator
// ---------------------------------------------------------------------

std::size_t any_position(common::Rng& rng, const std::string& doc) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(doc.size())));
}

/// Replaces the value of a random `key="..."` occurrence.
void replace_attr_value(common::Rng& rng, std::string& doc, const std::string& key,
                        const std::string& value) {
  std::vector<std::size_t> hits;
  const std::string needle = key + "=\"";
  for (std::size_t at = doc.find(needle); at != std::string::npos;
       at = doc.find(needle, at + 1)) {
    hits.push_back(at + needle.size());
  }
  if (hits.empty()) return;
  const std::size_t begin = rng.pick(hits);
  const std::size_t end = doc.find('"', begin);
  if (end == std::string::npos) return;
  doc.replace(begin, end - begin, value);
}

void mutate(common::Rng& rng, std::string& doc) {
  static const std::vector<std::string> kEntities = {
      "&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&#65;", "&#x42;", "&#xe9;",
      "&#x10FFFF;", "&#1114112;", "&bogus;", "&", "&#;", "&#xzz;", "&amp",
      "&#x1F600;", "&#0000000000065;"};
  static const std::vector<std::string> kElements = {
      "<x/>", "<Value>v</Value>", "<Value DataType=\"integer\">7</Value>",
      "<Attribute AttributeId=\"extra\"><Value>1</Value></Attribute>",
      "<Attributes Category=\"subject\"/>",
      "<Attributes Category=\"environment\"><Attribute AttributeId=\"t\">"
      "<Value DataType=\"time\">12</Value></Attribute></Attributes>",
      "<Unknown a=\"1\">t<b/></Unknown>", "<a><b></a>", "</Value>", "<Request/>",
      "<?pi x?>", "<!DOCTYPE x>", "<a\n  b='1'\n/>"};
  static const std::vector<std::string> kCategories = {
      "subject", "resource", "action", "environment", "delegate", "bogus", "", "Subject"};
  static const std::vector<std::string> kTypes = {"string", "integer", "boolean",
                                                  "double", "time", "bogus", ""};
  static const std::vector<std::string> kTexts = {
      "12", "-3", "true", "0", "1.5e3", "x&lt;y", "", "  ", "9223372036854775808",
      "<![CDATA[raw & <b>]]>", "a<!-- c -->b", "u-&#48;&#x30;"};
  static const std::vector<std::string> kNames = {"Request", "Attributes", "Attribute",
                                                  "Value", "Category", "AttributeId",
                                                  "DataType"};
  const std::size_t at = any_position(rng, doc);
  switch (rng.uniform_int(0, 13)) {
    case 0:
      doc.insert(at, rng.pick(kEntities));
      break;
    case 1:
      doc.insert(at, rng.chance(0.9) ? "<![CDATA[" + rng.pick(kTexts) + "]]>" : "<![CDATA[x");
      break;
    case 2:
      doc.insert(at, rng.chance(0.9) ? "<!-- note -->" : "<!-- open");
      break;
    case 3:
      doc.insert(at, rng.pick(kElements));
      break;
    case 4:
      replace_attr_value(rng, doc, "Category", rng.pick(kCategories));
      break;
    case 5:
      replace_attr_value(rng, doc, "DataType", rng.pick(kTypes));
      break;
    case 6:
      doc.resize(at);
      break;
    case 7:
      if (!doc.empty()) {
        static const std::string kBytes = "<>&/'\"= !?;#xa0\n\t";
        const std::size_t i = at == doc.size() ? at - 1 : at;
        const auto pick = rng.uniform_int(0, static_cast<std::int64_t>(kBytes.size()) - 1);
        doc[i] = rng.chance(0.7) ? kBytes[static_cast<std::size_t>(pick)]
                                 : static_cast<char>(rng.uniform_int(0, 255));
      }
      break;
    case 8: {
      const std::string key = rng.chance(0.5) ? " AttributeId=\"" : " Category=\"";
      const std::size_t begin = doc.find(key, at);
      const std::size_t end =
          begin == std::string::npos ? begin : doc.find('"', begin + key.size());
      if (end != std::string::npos) doc.erase(begin, end + 1 - begin);
      break;
    }
    case 9: {
      const std::size_t tag = doc.find("<Attributes", at);
      if (tag != std::string::npos) doc.insert(tag + 11, " Category=\"action\"");
      break;
    }
    case 10:
      doc.insert(at, rng.chance(0.5) ? "\n" : "  \r\n\t");
      break;
    case 11: {
      // Rewrite the text of a random <Value>.
      std::vector<std::size_t> hits;
      for (std::size_t p = doc.find("\">"); p != std::string::npos; p = doc.find("\">", p + 1)) {
        hits.push_back(p + 2);
      }
      if (hits.empty()) break;
      const std::size_t begin = rng.pick(hits);
      const std::size_t end = doc.find('<', begin);
      if (end != std::string::npos) doc.replace(begin, end - begin, rng.pick(kTexts));
      break;
    }
    case 12: {
      // Rename one occurrence of a dialect name (breaks tags or paths).
      const std::string& name = rng.pick(kNames);
      const std::size_t p = doc.find(name, at);
      if (p != std::string::npos) {
        doc.replace(p, name.size(), rng.chance(0.5) ? "Req" : "Attributez");
      }
      break;
    }
    case 13:
      if (rng.chance(0.5)) {
        doc.insert(0, rng.chance(0.5) ? "<?xml version=\"1.0\"?>\n" : "<!-- lead -->");
      } else {
        doc += rng.chance(0.5) ? "<!-- tail -->\n" : "<tail/>";
      }
      break;
  }
}

// ---------------------------------------------------------------------
// Differential: request decode
// ---------------------------------------------------------------------

struct Outcome {
  std::optional<RequestContext> request;
  std::string error_type;
  std::string error;
};

template <typename Decode>
Outcome run(Decode&& decode) {
  Outcome out;
  try {
    out.request = decode();
  } catch (const std::exception& e) {
    out.error_type = typeid(e).name();
    out.error = e.what();
  }
  return out;
}

TEST(WireCodecTest, StreamingDecodeMatchesTreeWalkOnMutatedRequests) {
  intern_vocabulary();
  constexpr int kCases = 100'000;
  common::Rng rng(14);
  const std::size_t interned_before = common::interner().size();
  int decoded = 0, parse_errors = 0, semantic_errors = 0, trees_written = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kCases; ++i) {
    const RequestContext seed = bench::cold_wire_request(rng, static_cast<std::uint64_t>(i));
    std::string doc = request_to_string(seed, /*pretty=*/rng.chance(0.2));
    const int mutations = static_cast<int>(rng.uniform_int(0, 3));
    for (int m = 0; m < mutations; ++m) mutate(rng, doc);

    const Outcome streamed = run([&] { return request_from_string(doc); });
    const Outcome reference = run([&] { return ref::request_from_xml(xml::parse(doc)); });
    ASSERT_EQ(streamed.error_type, reference.error_type) << doc;
    ASSERT_EQ(streamed.error, reference.error) << doc;
    ASSERT_EQ(streamed.request, reference.request) << doc;

    if (streamed.request) {
      ++decoded;
    } else if (streamed.error_type == typeid(xml::ParseError).name()) {
      ++parse_errors;
    } else {
      ASSERT_EQ(streamed.error_type, typeid(SerializationError).name()) << streamed.error;
      ++semantic_errors;
    }
    // The writer is byte-identical to the stream-based one it replaced.
    if (const std::optional<xml::Element> tree = xml::try_parse(doc)) {
      ASSERT_EQ(xml::to_string(*tree), ref::to_string(*tree, false)) << doc;
      ASSERT_EQ(xml::to_string(*tree, true), ref::to_string(*tree, true)) << doc;
      ++trees_written;
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  // Decoding never interns: attacker-chosen names ride the side table.
  EXPECT_EQ(common::interner().size(), interned_before);
  // The mutator reaches every outcome in volume.
  EXPECT_GT(decoded, kCases / 10);
  EXPECT_GT(parse_errors, kCases / 10);
  EXPECT_GT(semantic_errors, kCases / 100);
  EXPECT_GT(trees_written, kCases / 5);
  std::printf("%d cases in %.2f s: %d decoded, %d ParseError, %d SerializationError\n",
              kCases, seconds, decoded, parse_errors, semantic_errors);
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  EXPECT_LT(seconds, 30.0);
#endif
}

TEST(WireCodecTest, SyntaxErrorsTakePrecedenceOverSemanticErrors) {
  // Wrong root and an unknown category, but the document is cut short:
  // the lexer's error wins, exactly as if the tree had been built first.
  const std::string malformed = "<Req><Attributes Category=\"bogus\">";
  try {
    (void)request_from_string(malformed);
    FAIL() << "expected xml::ParseError";
  } catch (const xml::ParseError& e) {
    EXPECT_STREQ(e.what(), "xml parse error at 1:35: unterminated element 'Attributes'");
  }
  // Well-formed: the first semantic error in document order.
  try {
    (void)request_from_string(
        "<Request><Attributes Category=\"bogus\"/><Attributes/></Request>");
    FAIL() << "expected SerializationError";
  } catch (const SerializationError& e) {
    EXPECT_STREQ(e.what(), "serialization error: unknown category 'bogus'");
  }
  EXPECT_THROW((void)request_from_string("<Req/>"), SerializationError);
}

TEST(WireCodecTest, EntityDecodedNamesAndValues) {
  intern_vocabulary();
  const RequestContext got = request_from_string(
      "<Request><Attributes Category=\"subject\">"
      "<Attribute AttributeId=\"subject&#45;id\"><Value>a&amp;b<!-- c --><![CDATA[<c>]]>"
      "<ignored>zz</ignored>d</Value></Attribute>"
      "<Attribute AttributeId=\"r&#x6f;le\"><Value>x</Value></Attribute>"
      "</Attributes></Request>");
  RequestContext want;
  want.add(Category::kSubject, "subject-id", AttributeValue("a&b<c>d"));
  want.add(Category::kSubject, "role", AttributeValue("x"));
  EXPECT_EQ(got, want);
}

TEST(WireCodecTest, HostileNestingIsAParseError) {
  std::string deep = "<Request>";
  for (int i = 0; i < 100'000; ++i) deep += "<a>";
  EXPECT_THROW((void)request_from_string(deep), xml::ParseError);
  for (int i = 0; i < 100'000; ++i) deep += "</a>";
  deep += "</Request>";
  EXPECT_THROW((void)request_from_string(deep), xml::ParseError);
}

// ---------------------------------------------------------------------
// Differential: decision encode
// ---------------------------------------------------------------------

std::string random_text(common::Rng& rng) {
  static const std::vector<std::string> kTexts = {
      "", "plain", "a & b", "<tag>", "say \"hi\"", "it's", "&amp;", "]]>", "line\nbreak",
      "\xc3\xa9t\xc3\xa9", "& < > \" '"};
  return rng.pick(kTexts);
}

AttributeValue random_value(common::Rng& rng) {
  switch (rng.uniform_int(0, 4)) {
    case 0: return AttributeValue(random_text(rng));
    case 1: return AttributeValue(rng.chance(0.5));
    case 2:
      return AttributeValue(rng.chance(0.1) ? std::numeric_limits<std::int64_t>::min()
                                            : rng.uniform_int(-1'000'000, 1'000'000));
    case 3: return AttributeValue(rng.uniform_double(-1e6, 1e6));
    default: return AttributeValue(TimeValue{rng.uniform_int(0, 4'000'000'000'000)});
  }
}

std::vector<ObligationInstance> random_obligations(common::Rng& rng) {
  std::vector<ObligationInstance> out(static_cast<std::size_t>(rng.uniform_int(0, 3)));
  for (ObligationInstance& ob : out) {
    ob.id = "ob:" + random_text(rng);
    const auto n = rng.uniform_int(0, 3);
    for (std::int64_t i = 0; i < n; ++i) {
      ob.assignments.emplace_back(random_text(rng), random_value(rng));
    }
  }
  return out;
}

TEST(WireCodecTest, DecisionEncodingMatchesElementTree) {
  const DecisionType kTypes[] = {DecisionType::kPermit, DecisionType::kDeny,
                                 DecisionType::kNotApplicable, DecisionType::kIndeterminate};
  const IndeterminateExtent kExtents[] = {IndeterminateExtent::kNone, IndeterminateExtent::kD,
                                          IndeterminateExtent::kP, IndeterminateExtent::kDP};
  const StatusCode kCodes[] = {StatusCode::kOk, StatusCode::kMissingAttribute,
                               StatusCode::kSyntaxError, StatusCode::kProcessingError};
  common::Rng rng(1414);
  const auto check = [](const Decision& d) {
    ASSERT_EQ(decision_to_string(d), xml::to_string(ref::decision_to_xml(d)));
  };
  // Every type x extent x code, with and without a message that needs
  // escaping.
  for (DecisionType type : kTypes) {
    for (IndeterminateExtent extent : kExtents) {
      for (StatusCode code : kCodes) {
        for (const char* message : {"", "& < > \" '"}) {
          Decision d;
          d.type = type;
          d.extent = extent;
          d.status = Status{code, message};
          check(d);
        }
      }
    }
  }
  // Empty and typed assignments, including the empty string.
  Decision d = Decision::permit();
  d.obligations.push_back({"empty", {}});
  d.obligations.push_back({"typed",
                           {{"s", AttributeValue("")},
                            {"b", AttributeValue(false)},
                            {"i", AttributeValue(std::int64_t{-42})},
                            {"d", AttributeValue(0.1)},
                            {"t", AttributeValue(TimeValue{1234})}}});
  d.advice.push_back({"advice & more", {{"x", AttributeValue("<y>")}}});
  check(d);

  for (int i = 0; i < 50'000; ++i) {
    Decision r;
    r.type = rng.pick(std::vector<DecisionType>(std::begin(kTypes), std::end(kTypes)));
    r.extent = rng.pick(std::vector<IndeterminateExtent>(std::begin(kExtents), std::end(kExtents)));
    r.status = Status{rng.pick(std::vector<StatusCode>(std::begin(kCodes), std::end(kCodes))),
                      random_text(rng)};
    r.obligations = random_obligations(rng);
    r.advice = random_obligations(rng);
    check(r);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------
// Exact allocation gates
// ---------------------------------------------------------------------

TEST(WireCodecTest, DecisionEncodeMakesOneAllocationWhenWarm) {
  common::Rng rng(7);
  std::vector<Decision> decisions;
  for (std::uint64_t i = 0; i < 1'000; ++i) {
    decisions.push_back(bench::cold_wire_decision(rng, "u-" + std::to_string(1'000'000'000 + i)));
  }
  for (const Decision& d : decisions) (void)decision_to_string(d);  // warm the buffer

  std::size_t bytes = 0;
  const std::uint64_t before = test::thread_allocations();
  for (const Decision& d : decisions) bytes += decision_to_string(d).size();
  const std::uint64_t allocations = test::thread_allocations() - before;
  EXPECT_EQ(allocations, decisions.size());
  EXPECT_GT(bytes, 0u);
}

TEST(WireCodecTest, DecisionEncodeReturnsExactSizeString) {
  common::Rng rng(8);
  Decision big = bench::cold_wire_decision(rng, "u-0000000001");
  big.status.message = std::string(5'000, 'm');
  (void)decision_to_string(big);  // the buffer now holds > 5 KB
  const Decision small = Decision::deny();
  const std::string encoded = decision_to_string(small);
  EXPECT_EQ(encoded, xml::to_string(ref::decision_to_xml(small)));
  // No slack from the thread's buffer: callers may keep thousands.
  EXPECT_LT(encoded.capacity(), 2 * encoded.size());
}

TEST(WireCodecTest, ColdWireRequestDecodesInFourAllocations) {
  // Six single-valued attributes: the context's entries array grows
  // 1 -> 2 -> 4 -> 8, and every bag holds its one value inline (no value
  // outgrows the small-string buffer).
  intern_vocabulary();
  common::Rng rng(10);
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::string doc = request_to_string(bench::cold_wire_request(rng, 5'000'000 + i));
    const std::uint64_t before = test::thread_allocations();
    const RequestContext decoded = request_from_string(doc);
    const std::uint64_t allocations = test::thread_allocations() - before;
    ASSERT_EQ(decoded.size(), 6u);
    ASSERT_EQ(allocations, 4u) << doc;
  }
}

TEST(WireCodecTest, RequestDecodeAllocatesOnlyWhatTheContextHolds) {
  // Decoding allocates exactly what building the same RequestContext
  // with add(), in document order, allocates: the lexer, the element
  // path and the attribute names cost nothing.
  intern_vocabulary();
  common::Rng rng(9);
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::string doc = request_to_string(bench::cold_wire_request(rng, 4'000'000 + i));

    struct Triple {
      Category category;
      std::string id;
      std::string text;
    };
    std::vector<Triple> triples;
    ref::walk_request(xml::parse(doc), [&](Category c, const std::string& id,
                                            const AttributeValue& v) {
      triples.push_back({c, id, v.to_text()});
    });

    std::uint64_t before = test::thread_allocations();
    const RequestContext decoded = request_from_string(doc);
    const std::uint64_t decode_allocs = test::thread_allocations() - before;

    before = test::thread_allocations();
    RequestContext built;
    for (const Triple& t : triples) {
      built.add(t.category, std::string_view(t.id), AttributeValue(std::string(t.text)));
    }
    const std::uint64_t build_allocs = test::thread_allocations() - before;

    ASSERT_EQ(decoded, built);
    ASSERT_EQ(decode_allocs, build_allocs) << doc;
    if (i == 0) std::printf("cold_wire request: %llu allocations\n",
                            static_cast<unsigned long long>(decode_allocs));
  }
}

}  // namespace
}  // namespace mdac::core
