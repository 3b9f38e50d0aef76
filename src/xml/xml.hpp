// A small XML pull lexer, document model and writer, built from scratch.
//
// Scope: the XACML-shaped policy dialect, request/response contexts,
// SAML-shaped assertions and SOAP-shaped envelopes used throughout the
// library. Supported: elements, attributes, character data, comments,
// CDATA, XML declarations, the five predefined entities and numeric
// character references. Not supported (not needed by the dialect):
// DTDs, processing instructions other than the XML declaration, and
// namespace *processing* (prefixed names are kept as literal strings,
// exactly how many real-world XACML tools treat them).
//
// One lexer: `Reader` is the only XML scanner in the library. It yields
// start, end and text tokens whose names and values are `string_view`s
// into the input; entities are decoded into a scratch buffer only where
// they occur. `parse` is a short tree builder over `Reader`, and the wire
// codec (core/serialization) decodes requests straight from its tokens
// without building a tree. Both therefore report the same `ParseError`,
// at the same line and column, for the same malformed input.
//
// Untrusted input: the Reader keeps open element names in a fixed-size
// stack and throws `ParseError` when a document nests deeper than
// `Reader::kMaxDepth` elements, so hostile nesting costs a bounded
// amount of memory and stack instead of crashing the process. Duplicate
// attribute detection is O(n log n) in the attributes of one tag.
//
// Mixed content: character data inside an element is accumulated into
// Element::text; the dialect never interleaves text and child elements.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mdac::xml {

struct Element {
  std::string name;
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<Element> children;
  std::string text;

  Element() = default;
  explicit Element(std::string n) : name(std::move(n)) {}

  /// Returns the attribute value, or nullopt if absent.
  std::optional<std::string> attr(std::string_view key) const;

  /// Returns the attribute value, or `fallback` if absent.
  std::string attr_or(std::string_view key, std::string_view fallback) const;

  /// Sets (or replaces) an attribute. Returns *this for chaining.
  Element& set_attr(std::string key, std::string value);

  /// First child element with the given name, or nullptr.
  const Element* child(std::string_view name) const;

  /// All child elements with the given name.
  std::vector<const Element*> children_named(std::string_view name) const;

  /// Appends a child element and returns a reference to it.
  Element& add_child(Element e);
  Element& add_child(std::string name);

  /// Number of elements in the whole subtree (self included).
  std::size_t subtree_size() const;

  bool operator==(const Element&) const = default;
};

class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, std::size_t line, std::size_t column);
  std::size_t line() const { return line_; }
  std::size_t column() const { return column_; }

 private:
  std::size_t line_;
  std::size_t column_;
};

/// Pull lexer over one complete document. Call next() until it returns
/// kEndOfDocument; it throws ParseError at the first malformed byte.
/// A self-closing tag yields kStart followed by kEnd.
///
/// Lifetimes: name() and attribute names always point into the input.
/// text() and attribute values point into the input too, unless they
/// contained an entity, CDATA or a comment; then they point into the
/// reader's scratch buffer and stay valid only until the next call to
/// next(). from_input() tells the two apart.
class Reader {
 public:
  /// Maximum number of simultaneously open elements (root included).
  static constexpr std::size_t kMaxDepth = 256;

  enum class Token { kStart, kEnd, kText, kEndOfDocument };

  struct Attribute {
    std::string_view name;
    std::string_view value;
  };

  explicit Reader(std::string_view input) : input_(input) {}
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  Token next();

  /// kStart/kEnd: the element's name.
  std::string_view name() const { return open_[depth_ - 1]; }
  /// kStart: the tag's attributes, in document order.
  std::span<const Attribute> attributes() const {
    return {spilled_ ? spill_.data() : inline_.data(), n_attrs_};
  }
  /// kStart: the value of attribute `key`, or nullopt if absent.
  std::optional<std::string_view> attr(std::string_view key) const;
  /// kText: a maximal run of character data between two tags.
  std::string_view text() const { return text_; }
  /// kStart/kEnd: depth of that element (the root is 1). kText: depth
  /// of the enclosing element.
  std::size_t depth() const { return depth_; }

  /// True if `view` lies inside the input (it outlives the next token).
  bool from_input(std::string_view view) const;

 private:
  enum class State { kProlog, kContent, kSelfClose, kEpilog, kDone };
  static constexpr std::size_t kInlineAttrs = 16;
  /// Tags with at most this many attributes check duplicates pairwise as
  /// they are read; larger tags sort the names once (see check_duplicates).
  static constexpr std::size_t kPairwiseDuplicates = 8;

  /// Throws ParseError at `pos` with the concatenated message parts.
  /// Taking views keeps message building off the lexing paths.
  [[noreturn]] void fail_at(std::size_t pos, std::string_view a, std::string_view b = {},
                            std::string_view c = {}, std::string_view d = {},
                            std::string_view e = {}) const;
  [[noreturn]] void fail(std::string_view a, std::string_view b = {}, std::string_view c = {},
                         std::string_view d = {}, std::string_view e = {}) const {
    fail_at(pos_, a, b, c, d, e);
  }

  bool eof() const { return pos_ >= input_.size(); }
  char peek() const { return input_[pos_]; }
  bool starts_with(std::string_view s) const {
    return input_.size() - pos_ >= s.size() &&
           std::char_traits<char>::compare(input_.data() + pos_, s.data(), s.size()) == 0;
  }
  void expect(char c) {
    if (eof() || peek() != c) fail("expected '", std::string_view(&c, 1), "'");
    ++pos_;
  }
  void skip_ws();
  void skip_comment();
  void skip_misc();
  std::string_view parse_name();
  /// Decodes the entity at `at` (which holds '&') into `out`, returns
  /// its UTF-8 length and advances `at` past the ';'.
  std::size_t decode_entity(std::size_t& at, char out[4]) const;

  Token start_tag();
  void read_attributes();
  void push_attribute(std::string_view name, std::string_view raw, std::size_t end);
  void check_duplicates() const;
  void resolve_entity_values();
  Token end_tag();
  /// Lexes character data up to the next tag; returns false if empty.
  bool read_text();

  std::string_view input_;
  std::size_t pos_ = 0;
  State state_ = State::kProlog;
  bool pop_pending_ = false;

  std::array<std::string_view, kMaxDepth> open_{};  // open element names
  std::size_t depth_ = 0;

  std::array<Attribute, kInlineAttrs> inline_{};
  std::vector<Attribute> spill_;
  /// End offsets of attributes past kPairwiseDuplicates, for the error
  /// position of a duplicate found by the deferred check.
  std::vector<std::size_t> ends_;
  std::size_t n_attrs_ = 0;
  bool spilled_ = false;
  bool attr_entities_ = false;

  std::string_view text_;
  std::string scratch_;
};

/// Parses a complete XML document and returns its root element.
/// Throws ParseError on malformed input.
Element parse(std::string_view input);

/// Non-throwing variant for trust-boundary code (wire decoding).
std::optional<Element> try_parse(std::string_view input, std::string* error = nullptr);

/// Serialises. `pretty` inserts newlines and two-space indentation.
std::string to_string(const Element& root, bool pretty = false);

/// Appends `s` to `out` escaped as character data (&, <, >).
void append_escaped_text(std::string& out, std::string_view s);

/// Appends `s` to `out` escaped as an attribute value (adds quote
/// escaping to append_escaped_text).
void append_escaped_attr(std::string& out, std::string_view s);

/// Walks a '/'-separated path of child element names from `root`.
/// Returns nullptr if any step is missing. The path does not include the
/// root's own name.
const Element* find_path(const Element& root, std::string_view path);

}  // namespace mdac::xml
