#include "xml/xml.hpp"

#include <algorithm>
#include <functional>

#include "common/strings.hpp"

namespace mdac::xml {

std::optional<std::string> Element::attr(std::string_view key) const {
  for (const auto& [k, v] : attributes) {
    if (k == key) return v;
  }
  return std::nullopt;
}

std::string Element::attr_or(std::string_view key, std::string_view fallback) const {
  if (auto v = attr(key)) return *v;
  return std::string(fallback);
}

Element& Element::set_attr(std::string key, std::string value) {
  for (auto& [k, v] : attributes) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  attributes.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Element* Element::child(std::string_view name) const {
  for (const Element& c : children) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

std::vector<const Element*> Element::children_named(std::string_view name) const {
  std::vector<const Element*> out;
  for (const Element& c : children) {
    if (c.name == name) out.push_back(&c);
  }
  return out;
}

Element& Element::add_child(Element e) {
  children.push_back(std::move(e));
  return children.back();
}

Element& Element::add_child(std::string name) {
  return add_child(Element(std::move(name)));
}

std::size_t Element::subtree_size() const {
  std::size_t n = 1;
  for (const Element& c : children) n += c.subtree_size();
  return n;
}

ParseError::ParseError(const std::string& message, std::size_t line, std::size_t column)
    : std::runtime_error("xml parse error at " + std::to_string(line) + ":" +
                         std::to_string(column) + ": " + message),
      line_(line),
      column_(column) {}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

namespace {

// Character classes of the "C" locale (the dialect's names are ASCII),
// one table lookup per byte.
enum : unsigned char { kSpace = 1, kNameStart = 2, kNameChar = 4 };

constexpr std::array<unsigned char, 256> kClass = [] {
  std::array<unsigned char, 256> t{};
  for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) t[c] = kSpace;
  for (int c = 0; c < 256; ++c) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':') {
      t[static_cast<std::size_t>(c)] = kNameStart | kNameChar;
    } else if ((c >= '0' && c <= '9') || c == '-' || c == '.') {
      t[static_cast<std::size_t>(c)] = kNameChar;
    }
  }
  return t;
}();

bool is(char c, unsigned char cls) { return (kClass[static_cast<unsigned char>(c)] & cls) != 0; }

}  // namespace

void Reader::fail_at(std::size_t pos, std::string_view a, std::string_view b,
                     std::string_view c, std::string_view d, std::string_view e) const {
  std::size_t line = 1, col = 1;
  for (std::size_t i = 0; i < pos && i < input_.size(); ++i) {
    if (input_[i] == '\n') {
      ++line;
      col = 1;
    } else {
      ++col;
    }
  }
  std::string message;
  for (std::string_view part : {a, b, c, d, e}) message += part;
  throw ParseError(message, line, col);
}

void Reader::skip_ws() {
  const char* p = input_.data() + pos_;
  const char* const end = input_.data() + input_.size();
  while (p != end && is(*p, kSpace)) ++p;
  pos_ = static_cast<std::size_t>(p - input_.data());
}

void Reader::skip_comment() {
  // assumes starts_with("<!--")
  pos_ += 4;
  const std::size_t end = input_.find("-->", pos_);
  if (end == std::string_view::npos) fail("unterminated comment");
  pos_ = end + 3;
}

void Reader::skip_misc() {
  while (true) {
    skip_ws();
    if (!starts_with("<!--")) return;
    skip_comment();
  }
}

std::string_view Reader::parse_name() {
  if (eof() || !is(peek(), kNameStart)) fail("expected name");
  const char* const begin = input_.data() + pos_;
  const char* const end = input_.data() + input_.size();
  const char* p = begin + 1;
  while (p != end && is(*p, kNameChar)) ++p;
  pos_ += static_cast<std::size_t>(p - begin);
  return {begin, static_cast<std::size_t>(p - begin)};
}

std::size_t Reader::decode_entity(std::size_t& at, char out[4]) const {
  // assumes input_[at] == '&'; a reference is at most 12 bytes to ';'.
  const std::size_t semi = input_.substr(at, 13).find(';');
  if (semi == std::string_view::npos) fail_at(at, "unterminated entity reference");
  const std::string_view ent = input_.substr(at + 1, semi - 1);
  std::size_t n = 0;
  if (ent == "amp") {
    out[n++] = '&';
  } else if (ent == "lt") {
    out[n++] = '<';
  } else if (ent == "gt") {
    out[n++] = '>';
  } else if (ent == "quot") {
    out[n++] = '"';
  } else if (ent == "apos") {
    out[n++] = '\'';
  } else if (!ent.empty() && ent[0] == '#') {
    unsigned long base = 10;
    std::string_view digits = ent.substr(1);
    if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
      base = 16;
      digits = digits.substr(1);
    }
    if (digits.empty()) fail_at(at, "empty character reference");
    unsigned long code = 0;
    for (char c : digits) {
      unsigned long v;
      if (c >= '0' && c <= '9') {
        v = static_cast<unsigned long>(c - '0');
      } else if (base == 16 && c >= 'a' && c <= 'f') {
        v = static_cast<unsigned long>(c - 'a' + 10);
      } else if (base == 16 && c >= 'A' && c <= 'F') {
        v = static_cast<unsigned long>(c - 'A' + 10);
      } else {
        fail_at(at, "bad character reference");
      }
      code = code * base + v;
      if (code > 0x10ffff) fail_at(at, "character reference out of range");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      out[n++] = static_cast<char>(code);
    } else if (code < 0x800) {
      out[n++] = static_cast<char>(0xc0 | (code >> 6));
      out[n++] = static_cast<char>(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
      out[n++] = static_cast<char>(0xe0 | (code >> 12));
      out[n++] = static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out[n++] = static_cast<char>(0x80 | (code & 0x3f));
    } else {
      out[n++] = static_cast<char>(0xf0 | (code >> 18));
      out[n++] = static_cast<char>(0x80 | ((code >> 12) & 0x3f));
      out[n++] = static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out[n++] = static_cast<char>(0x80 | (code & 0x3f));
    }
  } else {
    fail_at(at, "unknown entity '", ent, "'");
  }
  at += semi + 1;
  return n;
}

Reader::Token Reader::next() {
  if (pop_pending_) {
    pop_pending_ = false;
    --depth_;
  }
  switch (state_) {
    case State::kProlog:
      skip_ws();
      if (starts_with("<?xml")) {
        const std::size_t end = input_.find("?>", pos_);
        if (end == std::string_view::npos) fail("unterminated XML declaration");
        pos_ = end + 2;
      }
      skip_misc();
      return start_tag();
    case State::kSelfClose:
      pop_pending_ = true;
      state_ = depth_ == 1 ? State::kEpilog : State::kContent;
      return Token::kEnd;
    case State::kContent:
      if (read_text()) return Token::kText;
      // read_text() stopped at a '<' that opens a tag.
      if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '/') return end_tag();
      return start_tag();
    case State::kEpilog:
      skip_misc();
      if (pos_ != input_.size()) fail("trailing content after document element");
      state_ = State::kDone;
      return Token::kEndOfDocument;
    case State::kDone:
      break;
  }
  return Token::kEndOfDocument;
}

Reader::Token Reader::start_tag() {
  if (depth_ == kMaxDepth) {
    fail("element nesting deeper than ", std::to_string(kMaxDepth), " levels");
  }
  expect('<');
  const std::string_view name = parse_name();
  read_attributes();
  if (peek() == '/') {
    ++pos_;
    expect('>');
    state_ = State::kSelfClose;
  } else {
    expect('>');
    state_ = State::kContent;
  }
  if (attr_entities_) resolve_entity_values();
  open_[depth_++] = name;
  return Token::kStart;
}

void Reader::read_attributes() {
  n_attrs_ = 0;
  spilled_ = false;
  attr_entities_ = false;
  ends_.clear();
  try {
    while (true) {
      skip_ws();
      if (eof()) fail("unterminated start tag");
      if (peek() == '/' || peek() == '>') break;
      const std::string_view key = parse_name();
      skip_ws();
      expect('=');
      skip_ws();
      if (eof() || (peek() != '"' && peek() != '\'')) {
        fail("expected quoted attribute value");
      }
      const char quote = input_[pos_++];
      const std::size_t start = pos_;
      while (true) {
        const char* p = input_.data() + pos_;
        const char* const end = input_.data() + input_.size();
        while (p != end && *p != quote && *p != '<' && *p != '&') ++p;
        pos_ = static_cast<std::size_t>(p - input_.data());
        if (eof()) fail("unterminated attribute value");
        if (*p == quote) break;
        if (*p == '<') fail("'<' in attribute value");
        // Validated here, at the position an error must be reported;
        // decoded once the tag is complete (resolve_entity_values).
        char unused[4];
        decode_entity(pos_, unused);
        attr_entities_ = true;
      }
      const std::string_view raw(input_.data() + start, pos_ - start);
      ++pos_;  // closing quote
      push_attribute(key, raw, pos_);
    }
  } catch (const ParseError&) {
    // A duplicate among the attributes already read precedes this error.
    check_duplicates();
    throw;
  }
  check_duplicates();
}

void Reader::push_attribute(std::string_view name, std::string_view raw, std::size_t end) {
  if (n_attrs_ < kPairwiseDuplicates) {
    for (const Attribute& a : attributes()) {
      if (a.name == name) fail_at(end, "duplicate attribute '", name, "'");
    }
  } else {
    ends_.push_back(end);
  }
  if (!spilled_) {
    if (n_attrs_ < kInlineAttrs) {
      inline_[n_attrs_++] = {name, raw};
      return;
    }
    spill_.assign(inline_.begin(), inline_.end());
    spilled_ = true;
  }
  spill_.push_back({name, raw});
  ++n_attrs_;
}

void Reader::check_duplicates() const {
  // The first kPairwiseDuplicates attributes were checked as they were
  // read. Past that, sort the names once and report the earliest
  // attribute (in document order) that repeats an earlier name, exactly
  // as a left-to-right pairwise scan would.
  if (n_attrs_ <= kPairwiseDuplicates) return;
  const std::span<const Attribute> attrs = attributes();
  std::vector<std::size_t> order(attrs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return attrs[a].name != attrs[b].name ? attrs[a].name < attrs[b].name : a < b;
  });
  std::size_t first = attrs.size();
  for (std::size_t i = 1; i < order.size(); ++i) {
    const std::size_t prev = order[i - 1];
    if (attrs[prev].name != attrs[order[i]].name) continue;
    // order[i] is the second occurrence only if prev is the first.
    if (i < 2 || attrs[order[i - 2]].name != attrs[prev].name) {
      first = std::min(first, order[i]);
    }
  }
  if (first == attrs.size()) return;
  fail_at(ends_[first - kPairwiseDuplicates], "duplicate attribute '", attrs[first].name, "'");
}

void Reader::resolve_entity_values() {
  Attribute* attrs = spilled_ ? spill_.data() : inline_.data();
  // Decoding never lengthens a value, so reserving the raw lengths up
  // front keeps every view into scratch_ stable while it fills.
  std::size_t total = 0;
  for (std::size_t i = 0; i < n_attrs_; ++i) {
    if (attrs[i].value.find('&') != std::string_view::npos) total += attrs[i].value.size();
  }
  scratch_.clear();
  scratch_.reserve(total);
  for (std::size_t i = 0; i < n_attrs_; ++i) {
    const std::string_view raw = attrs[i].value;
    if (raw.find('&') == std::string_view::npos) continue;
    const std::size_t begin = scratch_.size();
    std::size_t at = static_cast<std::size_t>(raw.data() - input_.data());
    const std::size_t end = at + raw.size();
    while (at < end) {
      if (input_[at] == '&') {
        char buf[4];
        scratch_.append(buf, decode_entity(at, buf));
      } else {
        scratch_.push_back(input_[at++]);
      }
    }
    attrs[i].value = std::string_view(scratch_).substr(begin);
  }
}

Reader::Token Reader::end_tag() {
  pos_ += 2;  // "</"
  const std::string_view open = open_[depth_ - 1];
  // Fast path: the open name followed by a byte that cannot extend it.
  const std::size_t after = pos_ + open.size();
  if (starts_with(open) && (after == input_.size() || !is(input_[after], kNameChar))) {
    pos_ = after;
  } else if (const std::string_view name = parse_name(); name != open) {
    fail("mismatched end tag </", name, "> for <", open, ">");
  }
  skip_ws();
  expect('>');
  pop_pending_ = true;
  state_ = depth_ == 1 ? State::kEpilog : State::kContent;
  return Token::kEnd;
}

bool Reader::read_text() {
  std::size_t run = pos_;  // start of the not-yet-copied raw run
  bool buffered = false;   // true once the text lives in scratch_
  const auto flush = [&] {
    if (!buffered) {
      scratch_.clear();
      buffered = true;
    }
    scratch_.append(input_.substr(run, pos_ - run));
  };
  while (true) {
    // Plain character data up to the next markup or entity.
    const std::size_t lt = !eof() && peek() == '<'
                               ? pos_
                               : std::min(input_.find('<', pos_), input_.size());
    const std::size_t amp =
        lt == pos_ ? std::string_view::npos : input_.substr(pos_, lt - pos_).find('&');
    if (amp != std::string_view::npos) {
      pos_ += amp;
      flush();
      char buf[4];
      scratch_.append(buf, decode_entity(pos_, buf));
      run = pos_;
      continue;
    }
    pos_ = lt;
    if (eof()) fail("unterminated element '", name(), "'");
    if (pos_ + 1 == input_.size() || input_[pos_ + 1] != '!') break;  // a tag
    if (starts_with("<!--")) {
      if (pos_ > run) flush();
      skip_comment();
      run = pos_;
    } else if (starts_with("<![CDATA[")) {
      const std::size_t end = input_.find("]]>", pos_ + 9);
      if (end == std::string_view::npos) fail("unterminated CDATA section");
      flush();
      scratch_.append(input_.substr(pos_ + 9, end - pos_ - 9));
      pos_ = end + 3;
      run = pos_;
    } else {
      break;
    }
  }
  if (buffered) {
    flush();
    text_ = scratch_;
  } else {
    text_ = {input_.data() + run, pos_ - run};
  }
  return !text_.empty();
}

std::optional<std::string_view> Reader::attr(std::string_view key) const {
  for (const Attribute& a : attributes()) {
    if (a.name == key) return a.value;
  }
  return std::nullopt;
}

bool Reader::from_input(std::string_view view) const {
  const char* begin = input_.data();
  const char* end = begin + input_.size();
  return std::greater_equal<const char*>{}(view.data(), begin) &&
         std::less_equal<const char*>{}(view.data() + view.size(), end);
}

// ---------------------------------------------------------------------
// Tree builder and writer
// ---------------------------------------------------------------------

Element parse(std::string_view input) {
  Reader reader(input);
  Element root;
  // path[d - 1] is the open element at depth d. A parent's children
  // vector only grows while none of its children is open, so the
  // pointers on the path stay valid.
  std::array<Element*, Reader::kMaxDepth> path{};
  while (true) {
    switch (reader.next()) {
      case Reader::Token::kStart: {
        const std::size_t depth = reader.depth();
        Element* e = depth == 1 ? &root : &path[depth - 2]->children.emplace_back();
        e->name.assign(reader.name());
        const std::span<const Reader::Attribute> attrs = reader.attributes();
        e->attributes.reserve(attrs.size());
        for (const Reader::Attribute& a : attrs) {
          e->attributes.emplace_back(std::string(a.name), std::string(a.value));
        }
        path[depth - 1] = e;
        break;
      }
      case Reader::Token::kText:
        path[reader.depth() - 1]->text.append(reader.text());
        break;
      case Reader::Token::kEnd:
        break;
      case Reader::Token::kEndOfDocument:
        return root;
    }
  }
}

std::optional<Element> try_parse(std::string_view input, std::string* error) {
  try {
    return parse(input);
  } catch (const ParseError& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
}

namespace {

void append_escaped(std::string& out, std::string_view s, bool quotes) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    std::string_view entity;
    switch (s[i]) {
      case '&': entity = "&amp;"; break;
      case '<': entity = "&lt;"; break;
      case '>': entity = "&gt;"; break;
      case '"': if (quotes) entity = "&quot;"; break;
      case '\'': if (quotes) entity = "&apos;"; break;
      default: break;
    }
    if (entity.empty()) continue;
    out.append(s.data() + run, i - run);
    out.append(entity);
    run = i + 1;
  }
  out.append(s.data() + run, s.size() - run);
}

void write_element(const Element& e, std::string& out, bool pretty, std::size_t depth) {
  const std::size_t indent = pretty ? depth * 2 : 0;
  out.append(indent, ' ');
  out += '<';
  out += e.name;
  for (const auto& [k, v] : e.attributes) {
    out += ' ';
    out += k;
    out += "=\"";
    append_escaped_attr(out, v);
    out += '"';
  }
  const bool has_text = !e.text.empty();
  if (e.children.empty() && !has_text) {
    out += "/>";
    if (pretty) out += '\n';
    return;
  }
  out += '>';
  if (has_text) append_escaped_text(out, e.text);
  if (!e.children.empty()) {
    if (pretty) out += '\n';
    for (const Element& c : e.children) write_element(c, out, pretty, depth + 1);
    out.append(indent, ' ');
  }
  out += "</";
  out += e.name;
  out += '>';
  if (pretty) out += '\n';
}

}  // namespace

std::string to_string(const Element& root, bool pretty) {
  std::string out;
  write_element(root, out, pretty, 0);
  if (pretty && !out.empty() && out.back() == '\n') out.pop_back();
  // Callers keep these strings (request pools, signed assertions); do
  // not leave them holding the append growth's slack.
  out.shrink_to_fit();
  return out;
}

void append_escaped_text(std::string& out, std::string_view s) {
  append_escaped(out, s, /*quotes=*/false);
}

void append_escaped_attr(std::string& out, std::string_view s) {
  append_escaped(out, s, /*quotes=*/true);
}

const Element* find_path(const Element& root, std::string_view path) {
  const Element* cur = &root;
  for (const std::string& step : common::split(path, '/')) {
    if (step.empty()) continue;
    cur = cur->child(step);
    if (cur == nullptr) return nullptr;
  }
  return cur;
}

}  // namespace mdac::xml
