#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "xml/xml.hpp"

namespace mdac::xml {
namespace {

TEST(XmlParseTest, SimpleElement) {
  const Element e = parse("<a/>");
  EXPECT_EQ(e.name, "a");
  EXPECT_TRUE(e.children.empty());
  EXPECT_TRUE(e.text.empty());
}

TEST(XmlParseTest, AttributesAndText) {
  const Element e = parse(R"(<a x="1" y='two'>hello</a>)");
  EXPECT_EQ(e.attr("x"), "1");
  EXPECT_EQ(e.attr("y"), "two");
  EXPECT_FALSE(e.attr("z").has_value());
  EXPECT_EQ(e.attr_or("z", "dflt"), "dflt");
  EXPECT_EQ(e.text, "hello");
}

TEST(XmlParseTest, NestedChildren) {
  const Element e = parse("<root><a>1</a><b/><a>2</a></root>");
  EXPECT_EQ(e.children.size(), 3u);
  ASSERT_NE(e.child("a"), nullptr);
  EXPECT_EQ(e.child("a")->text, "1");
  EXPECT_EQ(e.children_named("a").size(), 2u);
  EXPECT_EQ(e.children_named("a")[1]->text, "2");
  EXPECT_EQ(e.child("missing"), nullptr);
}

TEST(XmlParseTest, XmlDeclarationAndComments) {
  const Element e = parse(
      "<?xml version=\"1.0\"?>\n"
      "<!-- leading comment -->\n"
      "<root><!-- inner --><a/></root>\n"
      "<!-- trailing -->");
  EXPECT_EQ(e.name, "root");
  EXPECT_EQ(e.children.size(), 1u);
}

TEST(XmlParseTest, PredefinedEntities) {
  const Element e = parse("<a attr=\"&lt;&amp;&gt;\">&quot;x&apos; &amp; y</a>");
  EXPECT_EQ(e.attr("attr"), "<&>");
  EXPECT_EQ(e.text, "\"x' & y");
}

TEST(XmlParseTest, NumericCharacterReferences) {
  const Element e = parse("<a>&#65;&#x42;&#xe9;</a>");
  EXPECT_EQ(e.text, "AB\xc3\xa9");  // 'A', 'B', e-acute in UTF-8
}

TEST(XmlParseTest, Cdata) {
  const Element e = parse("<a><![CDATA[<not-xml> & raw]]></a>");
  EXPECT_EQ(e.text, "<not-xml> & raw");
}

TEST(XmlParseTest, WhitespaceInTags) {
  const Element e = parse("<a  x = \"1\"   ></a >");
  EXPECT_EQ(e.attr("x"), "1");
}

TEST(XmlParseTest, NamespacePrefixesKeptLiteral) {
  const Element e = parse("<ns:a ns:attr=\"v\"><ns:b/></ns:a>");
  EXPECT_EQ(e.name, "ns:a");
  EXPECT_EQ(e.attr("ns:attr"), "v");
  EXPECT_NE(e.child("ns:b"), nullptr);
}

// --- Malformed input ---------------------------------------------------

TEST(XmlParseTest, MismatchedEndTag) {
  EXPECT_THROW(parse("<a><b></a></b>"), ParseError);
}

TEST(XmlParseTest, DuplicateAttribute) {
  EXPECT_THROW(parse("<a x=\"1\" x=\"2\"/>"), ParseError);
}

TEST(XmlParseTest, DuplicateAttributeInLargeTagReportsFirstRepeat) {
  // Past the pairwise window the check sorts the names; it must still
  // name the first attribute (in document order) that repeats, at the
  // position a left-to-right scan stops.
  std::string doc = "<a";
  for (int i = 0; i < 20; ++i) doc += " k" + std::to_string(i) + "=\"v\"";
  doc += " k15=\"x\" k3=\"y\"/>";
  try {
    parse(doc);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate attribute 'k15'"), std::string::npos);
    EXPECT_EQ(e.column(), doc.find(" k3=\"y\"") + 1);
  }
  // A syntax error after the duplicate does not mask it.
  try {
    parse(doc.substr(0, doc.size() - 2) + " &/>");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate attribute 'k15'"), std::string::npos);
  }
}

TEST(XmlParseTest, HugeAttributeListIsNotQuadratic) {
  // 100,000 distinct attributes in one start tag (~1 MB): a pairwise
  // duplicate check takes tens of seconds here; sorting takes well
  // under one.
  std::string doc = "<a";
  for (int i = 0; i < 100000; ++i) doc += " a" + std::to_string(i) + "=\"1\"";
  doc += "/>";
  const auto start = std::chrono::steady_clock::now();
  const Element e = parse(doc);
  [[maybe_unused]] const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_EQ(e.attributes.size(), 100000u);
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  EXPECT_LT(seconds, 1.0);
#endif
  doc.insert(doc.size() - 2, " a99999=\"2\"");
  EXPECT_THROW(parse(doc), ParseError);
}

TEST(XmlParseTest, NestingDepthIsBounded) {
  // Hostile nesting is a ParseError, not a stack overflow.
  constexpr int kDeep = 100000;
  std::string deep;
  for (int i = 0; i < kDeep; ++i) deep += "<a>";
  for (int i = 0; i < kDeep; ++i) deep += "</a>";
  try {
    parse(deep);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than"), std::string::npos);
  }
  EXPECT_FALSE(try_parse(deep).has_value());

  // Exactly kMaxDepth levels still parse, one more does not.
  const auto nested = [](std::size_t depth) {
    std::string doc;
    for (std::size_t i = 0; i < depth; ++i) doc += "<a>";
    doc += "<b/>";
    for (std::size_t i = 0; i < depth; ++i) doc += "</a>";
    return doc;
  };
  EXPECT_NO_THROW(parse(nested(Reader::kMaxDepth - 1)));
  EXPECT_THROW(parse(nested(Reader::kMaxDepth)), ParseError);
}

TEST(XmlReaderTest, TokensAndDepths) {
  Reader r("<?xml version=\"1.0\"?><a k=\"&lt;v\">x<!-- c -->y<b/><![CDATA[z]]></a>");
  ASSERT_EQ(r.next(), Reader::Token::kStart);
  EXPECT_EQ(r.name(), "a");
  EXPECT_EQ(r.depth(), 1u);
  EXPECT_EQ(r.attr("k"), "<v");
  EXPECT_FALSE(r.from_input(*r.attr("k")));
  ASSERT_EQ(r.next(), Reader::Token::kText);
  EXPECT_EQ(r.text(), "xy");
  ASSERT_EQ(r.next(), Reader::Token::kStart);
  EXPECT_EQ(r.name(), "b");
  EXPECT_EQ(r.depth(), 2u);
  EXPECT_TRUE(r.attributes().empty());
  ASSERT_EQ(r.next(), Reader::Token::kEnd);
  EXPECT_EQ(r.name(), "b");
  ASSERT_EQ(r.next(), Reader::Token::kText);
  EXPECT_EQ(r.text(), "z");
  EXPECT_EQ(r.depth(), 1u);
  ASSERT_EQ(r.next(), Reader::Token::kEnd);
  EXPECT_EQ(r.name(), "a");
  EXPECT_EQ(r.next(), Reader::Token::kEndOfDocument);
  EXPECT_EQ(r.next(), Reader::Token::kEndOfDocument);

  Reader plain("<a k=\"v\">text</a>");
  ASSERT_EQ(plain.next(), Reader::Token::kStart);
  EXPECT_TRUE(plain.from_input(*plain.attr("k")));
  ASSERT_EQ(plain.next(), Reader::Token::kText);
  EXPECT_TRUE(plain.from_input(plain.text()));
}

TEST(XmlParseTest, UnterminatedElement) {
  EXPECT_THROW(parse("<a><b/>"), ParseError);
}

TEST(XmlParseTest, TrailingContent) {
  EXPECT_THROW(parse("<a/><b/>"), ParseError);
}

TEST(XmlParseTest, BadEntity) {
  EXPECT_THROW(parse("<a>&nope;</a>"), ParseError);
  EXPECT_THROW(parse("<a>&#xzz;</a>"), ParseError);
}

TEST(XmlParseTest, LtInAttribute) {
  EXPECT_THROW(parse("<a x=\"<\"/>"), ParseError);
}

TEST(XmlParseTest, ErrorCarriesLineAndColumn) {
  try {
    parse("<a>\n  <b>\n</a>");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_GE(e.line(), 3u);
  }
}

TEST(XmlParseTest, TryParseReturnsNulloptWithError) {
  std::string error;
  EXPECT_FALSE(try_parse("<a", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(try_parse("<a/>").has_value());
}

// --- Writing -------------------------------------------------------------

TEST(XmlWriteTest, RoundTripCompact) {
  Element e("Policy");
  e.set_attr("PolicyId", "p<1>");
  e.add_child("Description").text = "says \"hi\" & <bye>";
  Element& target = e.add_child("Target");
  target.set_attr("x", "1");

  const std::string s = to_string(e);
  const Element back = parse(s);
  EXPECT_EQ(back, e);
}

TEST(XmlWriteTest, PrettyPrintingRoundTrips) {
  Element e("a");
  e.add_child("b").set_attr("k", "v");
  e.add_child("c");
  const std::string pretty = to_string(e, /*pretty=*/true);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  // Pretty output parses back to the same structure (no stray text nodes,
  // because elements with children carry no text of their own).
  const Element back = parse(pretty);
  EXPECT_EQ(back.name, "a");
  EXPECT_EQ(back.children.size(), 2u);
}

TEST(XmlWriteTest, SetAttrReplacesExisting) {
  Element e("a");
  e.set_attr("k", "1");
  e.set_attr("k", "2");
  EXPECT_EQ(e.attributes.size(), 1u);
  EXPECT_EQ(e.attr("k"), "2");
}

TEST(XmlWriteTest, EscapingFunctions) {
  std::string out = "x";
  append_escaped_text(out, "a<b>&c\"'");
  EXPECT_EQ(out, "xa&lt;b&gt;&amp;c\"'");
  out.clear();
  append_escaped_attr(out, "\"'");
  EXPECT_EQ(out, "&quot;&apos;");
}

// --- Helpers ------------------------------------------------------------

TEST(XmlHelpersTest, FindPath) {
  const Element e = parse("<a><b><c><d>deep</d></c></b></a>");
  const Element* d = find_path(e, "b/c/d");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->text, "deep");
  EXPECT_EQ(find_path(e, "b/x"), nullptr);
  EXPECT_EQ(find_path(e, ""), &e);
}

TEST(XmlHelpersTest, SubtreeSize) {
  const Element e = parse("<a><b><c/></b><d/></a>");
  EXPECT_EQ(e.subtree_size(), 4u);
}

}  // namespace
}  // namespace mdac::xml
