#include "core/serialization.hpp"

#include <algorithm>
#include <iterator>
#include <optional>
#include <string_view>
#include <vector>

namespace mdac::core {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw SerializationError(message);
}

std::string require_attr(const xml::Element& e, const std::string& key) {
  if (auto v = e.attr(key)) return *v;
  fail("<" + e.name + "> missing attribute '" + key + "'");
}

DataType parse_data_type(std::string_view s) {
  if (auto t = data_type_from_string(s)) return *t;
  fail("unknown data type '" + std::string(s) + "'");
}

Category parse_category(std::string_view s) {
  if (auto c = category_from_string(s)) return *c;
  fail("unknown category '" + std::string(s) + "'");
}

AttributeValue parse_value(DataType type, std::string_view text) {
  if (auto v = AttributeValue::from_text(type, text)) return std::move(*v);
  fail("cannot parse '" + std::string(text) + "' as " + to_string(type));
}

Effect parse_effect(const std::string& s) {
  if (s == "permit") return Effect::kPermit;
  if (s == "deny") return Effect::kDeny;
  fail("unknown effect '" + s + "'");
}

bool parse_bool_attr(const xml::Element& e, const std::string& key, bool fallback) {
  const auto v = e.attr(key);
  if (!v) return fallback;
  if (*v == "true") return true;
  if (*v == "false") return false;
  fail("<" + e.name + "> attribute '" + key + "' must be true/false");
}

xml::Element value_to_xml(const AttributeValue& v) {
  xml::Element e("Value");
  e.set_attr("DataType", to_string(v.type()));
  e.text = v.to_text();
  return e;
}

AttributeValue value_from_xml(const xml::Element& e) {
  const DataType type = parse_data_type(e.attr_or("DataType", "string"));
  return parse_value(type, e.text);
}

}  // namespace

// ---------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------

xml::Element expr_to_xml(const Expression& expr) {
  switch (expr.kind()) {
    case ExprKind::kLiteral: {
      const auto& lit = static_cast<const LiteralExpr&>(expr);
      if (lit.bag().singleton()) return value_to_xml(lit.bag().at(0));
      xml::Element e("BagValue");
      for (const AttributeValue& v : lit.bag().values()) {
        e.add_child(value_to_xml(v));
      }
      return e;
    }
    case ExprKind::kDesignator: {
      const auto& d = static_cast<const DesignatorExpr&>(expr);
      xml::Element e("Designator");
      e.set_attr("Category", to_string(d.category()));
      e.set_attr("AttributeId", d.id());
      e.set_attr("DataType", to_string(d.data_type()));
      if (d.must_be_present()) e.set_attr("MustBePresent", "true");
      return e;
    }
    case ExprKind::kFunctionRef: {
      const auto& f = static_cast<const FunctionRefExpr&>(expr);
      xml::Element e("Function");
      e.set_attr("FunctionId", f.function_id());
      return e;
    }
    case ExprKind::kApply: {
      const auto& a = static_cast<const ApplyExpr&>(expr);
      xml::Element e("Apply");
      e.set_attr("FunctionId", a.function_id());
      for (const ExprPtr& arg : a.args()) {
        e.add_child(expr_to_xml(*arg));
      }
      return e;
    }
  }
  fail("unknown expression kind");
}

ExprPtr expr_from_xml(const xml::Element& element) {
  if (element.name == "Value") {
    return std::make_unique<LiteralExpr>(value_from_xml(element));
  }
  if (element.name == "BagValue") {
    Bag bag;
    for (const xml::Element& c : element.children) {
      if (c.name != "Value") fail("<BagValue> may only contain <Value>");
      bag.add(value_from_xml(c));
    }
    return std::make_unique<LiteralExpr>(std::move(bag));
  }
  if (element.name == "Designator") {
    return std::make_unique<DesignatorExpr>(
        parse_category(require_attr(element, "Category")),
        require_attr(element, "AttributeId"),
        parse_data_type(element.attr_or("DataType", "string")),
        parse_bool_attr(element, "MustBePresent", false));
  }
  if (element.name == "Function") {
    return std::make_unique<FunctionRefExpr>(require_attr(element, "FunctionId"));
  }
  if (element.name == "Apply") {
    std::vector<ExprPtr> args;
    args.reserve(element.children.size());
    for (const xml::Element& c : element.children) {
      args.push_back(expr_from_xml(c));
    }
    return std::make_unique<ApplyExpr>(require_attr(element, "FunctionId"),
                                       std::move(args));
  }
  fail("unknown expression element <" + element.name + ">");
}

// ---------------------------------------------------------------------
// Targets
// ---------------------------------------------------------------------

xml::Element target_to_xml(const Target& target) {
  xml::Element e("Target");
  for (const AnyOf& any : target.any_ofs) {
    xml::Element& any_el = e.add_child("AnyOf");
    for (const AllOf& all : any.all_ofs) {
      xml::Element& all_el = any_el.add_child("AllOf");
      for (const Match& m : all.matches) {
        xml::Element match_el("Match");
        match_el.set_attr("MatchId", m.function_id);
        match_el.set_attr("Category", to_string(m.category));
        match_el.set_attr("AttributeId", m.attribute_id);
        match_el.set_attr("DataType", to_string(m.data_type));
        if (m.must_be_present) match_el.set_attr("MustBePresent", "true");
        match_el.add_child(value_to_xml(m.literal));
        all_el.add_child(std::move(match_el));
      }
    }
  }
  return e;
}

Target target_from_xml(const xml::Element& element) {
  if (element.name != "Target") fail("expected <Target>, got <" + element.name + ">");
  Target target;
  for (const xml::Element* any_el : element.children_named("AnyOf")) {
    AnyOf any;
    for (const xml::Element* all_el : any_el->children_named("AllOf")) {
      AllOf all;
      for (const xml::Element* match_el : all_el->children_named("Match")) {
        Match m;
        m.function_id = match_el->attr_or("MatchId", "string-equal");
        m.category = parse_category(require_attr(*match_el, "Category"));
        m.attribute_id = require_attr(*match_el, "AttributeId");
        m.data_type = parse_data_type(match_el->attr_or("DataType", "string"));
        m.must_be_present = parse_bool_attr(*match_el, "MustBePresent", false);
        const xml::Element* value_el = match_el->child("Value");
        if (value_el == nullptr) fail("<Match> missing <Value>");
        m.literal = value_from_xml(*value_el);
        all.matches.push_back(std::move(m));
      }
      any.all_ofs.push_back(std::move(all));
    }
    target.any_ofs.push_back(std::move(any));
  }
  return target;
}

// ---------------------------------------------------------------------
// Obligations
// ---------------------------------------------------------------------

namespace {

xml::Element obligation_expr_to_xml(const ObligationExpr& ob) {
  xml::Element e(ob.advice ? "AdviceExpression" : "Obligation");
  e.set_attr("ObligationId", ob.id);
  e.set_attr("FulfillOn", to_string(ob.fulfill_on));
  for (const AttributeAssignmentExpr& a : ob.assignments) {
    xml::Element assign("Assignment");
    assign.set_attr("AttributeId", a.attribute_id);
    assign.add_child(expr_to_xml(*a.expr));
    e.add_child(std::move(assign));
  }
  return e;
}

ObligationExpr obligation_expr_from_xml(const xml::Element& element) {
  ObligationExpr ob;
  ob.advice = element.name == "AdviceExpression";
  ob.id = require_attr(element, "ObligationId");
  ob.fulfill_on = parse_effect(element.attr_or("FulfillOn", "permit"));
  for (const xml::Element* assign : element.children_named("Assignment")) {
    if (assign->children.size() != 1) {
      fail("<Assignment> must contain exactly one expression");
    }
    AttributeAssignmentExpr a;
    a.attribute_id = require_attr(*assign, "AttributeId");
    a.expr = expr_from_xml(assign->children[0]);
    ob.assignments.push_back(std::move(a));
  }
  return ob;
}

void read_obligations(const xml::Element& element, std::vector<ObligationExpr>* out) {
  for (const xml::Element* ob : element.children_named("Obligation")) {
    out->push_back(obligation_expr_from_xml(*ob));
  }
  for (const xml::Element* ob : element.children_named("AdviceExpression")) {
    out->push_back(obligation_expr_from_xml(*ob));
  }
}

}  // namespace

// ---------------------------------------------------------------------
// Rules, policies, policy sets
// ---------------------------------------------------------------------

xml::Element rule_to_xml(const Rule& rule) {
  xml::Element e("Rule");
  e.set_attr("RuleId", rule.id);
  e.set_attr("Effect", to_string(rule.effect));
  if (!rule.description.empty()) {
    e.add_child("Description").text = rule.description;
  }
  if (rule.target.has_value() && !rule.target->empty()) {
    e.add_child(target_to_xml(*rule.target));
  }
  if (rule.condition) {
    e.add_child("Condition").add_child(expr_to_xml(*rule.condition));
  }
  for (const ObligationExpr& ob : rule.obligations) {
    e.add_child(obligation_expr_to_xml(ob));
  }
  return e;
}

Rule rule_from_xml(const xml::Element& element) {
  if (element.name != "Rule") fail("expected <Rule>, got <" + element.name + ">");
  Rule rule;
  rule.id = require_attr(element, "RuleId");
  rule.effect = parse_effect(require_attr(element, "Effect"));
  if (const xml::Element* d = element.child("Description")) {
    rule.description = d->text;
  }
  if (const xml::Element* t = element.child("Target")) {
    rule.target = target_from_xml(*t);
  }
  if (const xml::Element* c = element.child("Condition")) {
    if (c->children.size() != 1) fail("<Condition> must contain one expression");
    rule.condition = expr_from_xml(c->children[0]);
  }
  read_obligations(element, &rule.obligations);
  return rule;
}

xml::Element policy_to_xml(const Policy& policy) {
  xml::Element e("Policy");
  e.set_attr("PolicyId", policy.policy_id);
  e.set_attr("Version", policy.version);
  e.set_attr("CombiningAlg", policy.rule_combining);
  if (!policy.issuer.empty()) e.set_attr("Issuer", policy.issuer);
  if (!policy.description.empty()) {
    e.add_child("Description").text = policy.description;
  }
  e.add_child(target_to_xml(policy.target_spec));
  for (const Rule& r : policy.rules) e.add_child(rule_to_xml(r));
  for (const ObligationExpr& ob : policy.obligations) {
    e.add_child(obligation_expr_to_xml(ob));
  }
  return e;
}

Policy policy_from_xml(const xml::Element& element) {
  if (element.name != "Policy") fail("expected <Policy>, got <" + element.name + ">");
  Policy policy;
  policy.policy_id = require_attr(element, "PolicyId");
  policy.version = element.attr_or("Version", "1");
  policy.rule_combining = element.attr_or("CombiningAlg", "deny-overrides");
  policy.issuer = element.attr_or("Issuer", "");
  if (const xml::Element* d = element.child("Description")) {
    policy.description = d->text;
  }
  if (const xml::Element* t = element.child("Target")) {
    policy.target_spec = target_from_xml(*t);
  }
  for (const xml::Element* r : element.children_named("Rule")) {
    policy.rules.push_back(rule_from_xml(*r));
  }
  read_obligations(element, &policy.obligations);
  return policy;
}

xml::Element policy_set_to_xml(const PolicySet& policy_set) {
  xml::Element e("PolicySet");
  e.set_attr("PolicySetId", policy_set.policy_set_id);
  e.set_attr("Version", policy_set.version);
  e.set_attr("CombiningAlg", policy_set.policy_combining);
  if (!policy_set.issuer.empty()) e.set_attr("Issuer", policy_set.issuer);
  if (!policy_set.description.empty()) {
    e.add_child("Description").text = policy_set.description;
  }
  e.add_child(target_to_xml(policy_set.target_spec));
  for (const PolicyNodePtr& child : policy_set.children()) {
    e.add_child(node_to_xml(*child));
  }
  for (const ObligationExpr& ob : policy_set.obligations) {
    e.add_child(obligation_expr_to_xml(ob));
  }
  return e;
}

PolicySet policy_set_from_xml(const xml::Element& element) {
  if (element.name != "PolicySet") {
    fail("expected <PolicySet>, got <" + element.name + ">");
  }
  PolicySet ps;
  ps.policy_set_id = require_attr(element, "PolicySetId");
  ps.version = element.attr_or("Version", "1");
  ps.policy_combining = element.attr_or("CombiningAlg", "deny-overrides");
  ps.issuer = element.attr_or("Issuer", "");
  if (const xml::Element* d = element.child("Description")) {
    ps.description = d->text;
  }
  if (const xml::Element* t = element.child("Target")) {
    ps.target_spec = target_from_xml(*t);
  }
  for (const xml::Element& c : element.children) {
    if (c.name == "Policy" || c.name == "PolicySet" || c.name == "PolicyReference") {
      ps.add_node(node_from_xml(c));
    }
  }
  read_obligations(element, &ps.obligations);
  return ps;
}

xml::Element node_to_xml(const PolicyTreeNode& node) {
  if (const auto* p = dynamic_cast<const Policy*>(&node)) {
    return policy_to_xml(*p);
  }
  if (const auto* ps = dynamic_cast<const PolicySet*>(&node)) {
    return policy_set_to_xml(*ps);
  }
  // PolicyReference
  xml::Element e("PolicyReference");
  e.text = node.id();
  return e;
}

PolicyNodePtr node_from_xml(const xml::Element& element) {
  if (element.name == "Policy") {
    return std::make_unique<Policy>(policy_from_xml(element));
  }
  if (element.name == "PolicySet") {
    return std::make_unique<PolicySet>(policy_set_from_xml(element));
  }
  if (element.name == "PolicyReference") {
    if (element.text.empty()) fail("<PolicyReference> missing referenced id");
    return std::make_unique<PolicyReference>(element.text);
  }
  fail("unknown policy node <" + element.name + ">");
}

// ---------------------------------------------------------------------
// Request / response contexts
// ---------------------------------------------------------------------

xml::Element request_to_xml(const RequestContext& request) {
  xml::Element e("Request");
  // Wire-stable (category, attribute-name) order — see entries_by_name().
  Category current{};
  xml::Element* group = nullptr;
  for (const RequestContext::NamedEntry& entry : request.entries_by_name()) {
    const Category category = entry.category;
    const std::string& id = *entry.name;
    const Bag& bag = *entry.bag;
    if (group == nullptr || category != current) {
      group = &e.add_child("Attributes");
      group->set_attr("Category", to_string(category));
      current = category;
    }
    xml::Element attr("Attribute");
    attr.set_attr("AttributeId", id);
    for (const AttributeValue& v : bag.values()) {
      attr.add_child(value_to_xml(v));
    }
    group->add_child(std::move(attr));
  }
  return e;
}

RequestContext request_from_string(const std::string& text) {
  // The element path that carries attributes, one name per depth. Only
  // elements whose every ancestor is on this path are interpreted;
  // anything else is lexed and ignored, as a tree walk over
  // children_named() would.
  static constexpr std::string_view kPath[] = {"Request", "Attributes", "Attribute",
                                               "Value"};
  xml::Reader reader(text);
  RequestContext request;
  // The first semantic error, raised only once the whole document has
  // lexed cleanly (see the header comment on error precedence).
  std::optional<SerializationError> error;
  std::size_t matched = 0;  // depth of the deepest open element on kPath
  Category category{};
  std::string_view id;
  std::string id_buf;  // holds `id` when it was entity-decoded
  DataType type{};
  std::string_view value;
  std::string value_buf;  // holds `value` once it spans several text runs
  bool value_buffered = false;
  const auto attempt = [&](auto&& step) {
    try {
      step();
    } catch (const SerializationError& e) {
      error = e;
    }
  };
  while (true) {
    switch (reader.next()) {
      case xml::Reader::Token::kStart: {
        const std::size_t depth = reader.depth();
        if (error || depth != matched + 1 || depth > std::size(kPath)) break;
        if (reader.name() != kPath[depth - 1]) {
          if (depth == 1) error.emplace("expected <Request>");
          break;
        }
        matched = depth;
        attempt([&] {
          const auto required = [&](std::string_view key) {
            if (auto v = reader.attr(key)) return *v;
            fail("<" + std::string(reader.name()) + "> missing attribute '" +
                 std::string(key) + "'");
          };
          if (depth == 2) {
            category = parse_category(required("Category"));
          } else if (depth == 3) {
            id = required("AttributeId");
            if (!reader.from_input(id)) id = id_buf.assign(id);
          } else if (depth == 4) {
            type = parse_data_type(reader.attr("DataType").value_or("string"));
            value = {};
            value_buffered = false;
          }
        });
        break;
      }
      case xml::Reader::Token::kText:
        if (error || matched != 4 || reader.depth() != 4) break;
        if (!value_buffered && value.empty() && reader.from_input(reader.text())) {
          value = reader.text();
        } else {
          if (!value_buffered) value_buf.assign(value);
          value_buffered = true;
          value = value_buf.append(reader.text());
        }
        break;
      case xml::Reader::Token::kEnd:
        if (reader.depth() != matched) break;
        if (matched == 4 && !error) {
          attempt([&] { request.add(category, id, parse_value(type, value)); });
        }
        --matched;
        break;
      case xml::Reader::Token::kEndOfDocument:
        if (error) throw *error;
        return request;
    }
  }
}

namespace {

void append_obligation(std::string& out, const ObligationInstance& ob) {
  out += "<Obligation ObligationId=\"";
  xml::append_escaped_attr(out, ob.id);
  out += '"';
  if (ob.assignments.empty()) {
    out += "/>";
    return;
  }
  out += '>';
  for (const auto& [id, value] : ob.assignments) {
    out += "<Assignment AttributeId=\"";
    xml::append_escaped_attr(out, id);
    out += "\" DataType=\"";
    out += to_string(value.type());
    out += '"';
    // Strings are escaped in place; every other type's lexical form is
    // short enough for the small-string buffer.
    std::string other;
    const std::string_view lexical =
        value.is_string() ? std::string_view(value.as_string()) : (other = value.to_text());
    if (lexical.empty()) {
      out += "/>";
      continue;
    }
    out += '>';
    xml::append_escaped_text(out, lexical);
    out += "</Assignment>";
  }
  out += "</Obligation>";
}

}  // namespace

std::string decision_to_string(const Decision& decision) {
  // Encoded into a buffer that keeps its capacity between calls on this
  // thread, then copied out at exact size: the only allocation per call,
  // and no slack capacity in strings callers keep. A reply can be as
  // large as the request it rejects (a bad-request status quotes the
  // parser's message), so a buffer grown past kMaxRetained is released
  // rather than pinned to the thread.
  static constexpr std::size_t kMaxRetained = std::size_t{64} << 10;
  thread_local std::string buf;
  buf.clear();
  buf += "<Response><Result Decision=\"";
  buf += to_string(decision.type);
  buf += '"';
  if (decision.extent != IndeterminateExtent::kNone) {
    buf += " Extent=\"";
    buf += to_string(decision.extent);
    buf += '"';
  }
  buf += "><Status Code=\"";
  buf += to_string(decision.status.code);
  buf += '"';
  if (decision.status.message.empty()) {
    buf += "/>";
  } else {
    buf += '>';
    xml::append_escaped_text(buf, decision.status.message);
    buf += "</Status>";
  }
  if (!decision.obligations.empty()) {
    buf += "<Obligations>";
    for (const ObligationInstance& ob : decision.obligations) append_obligation(buf, ob);
    buf += "</Obligations>";
  }
  if (!decision.advice.empty()) {
    buf += "<Advice>";
    for (const ObligationInstance& ob : decision.advice) append_obligation(buf, ob);
    buf += "</Advice>";
  }
  buf += "</Result></Response>";
  std::string out(buf);
  if (buf.capacity() > kMaxRetained) std::string().swap(buf);
  return out;
}

namespace {

ObligationInstance obligation_instance_from_xml(const xml::Element& element) {
  ObligationInstance ob;
  ob.id = require_attr(element, "ObligationId");
  for (const xml::Element* assign : element.children_named("Assignment")) {
    const DataType type = parse_data_type(assign->attr_or("DataType", "string"));
    ob.assignments.emplace_back(require_attr(*assign, "AttributeId"),
                                parse_value(type, assign->text));
  }
  return ob;
}

}  // namespace

Decision decision_from_xml(const xml::Element& element) {
  const xml::Element* result =
      element.name == "Result" ? &element : element.child("Result");
  if (result == nullptr) fail("expected <Response> with <Result>");

  Decision d;
  const std::string decision_text = require_attr(*result, "Decision");
  if (decision_text == "permit") {
    d.type = DecisionType::kPermit;
  } else if (decision_text == "deny") {
    d.type = DecisionType::kDeny;
  } else if (decision_text == "not-applicable") {
    d.type = DecisionType::kNotApplicable;
  } else if (decision_text == "indeterminate") {
    d.type = DecisionType::kIndeterminate;
  } else {
    fail("unknown decision '" + decision_text + "'");
  }
  const std::string extent = result->attr_or("Extent", "");
  if (extent == "D") {
    d.extent = IndeterminateExtent::kD;
  } else if (extent == "P") {
    d.extent = IndeterminateExtent::kP;
  } else if (extent == "DP") {
    d.extent = IndeterminateExtent::kDP;
  }
  if (const xml::Element* status = result->child("Status")) {
    const std::string code = status->attr_or("Code", "ok");
    if (code == "ok") {
      d.status.code = StatusCode::kOk;
    } else if (code == "missing-attribute") {
      d.status.code = StatusCode::kMissingAttribute;
    } else if (code == "syntax-error") {
      d.status.code = StatusCode::kSyntaxError;
    } else if (code == "processing-error") {
      d.status.code = StatusCode::kProcessingError;
    } else {
      fail("unknown status code '" + code + "'");
    }
    d.status.message = status->text;
  }
  if (const xml::Element* obs = result->child("Obligations")) {
    for (const xml::Element* ob : obs->children_named("Obligation")) {
      d.obligations.push_back(obligation_instance_from_xml(*ob));
    }
  }
  if (const xml::Element* adv = result->child("Advice")) {
    for (const xml::Element* ob : adv->children_named("Obligation")) {
      d.advice.push_back(obligation_instance_from_xml(*ob));
    }
  }
  return d;
}

// ---------------------------------------------------------------------
// String round-trips
// ---------------------------------------------------------------------

std::string node_to_string(const PolicyTreeNode& node, bool pretty) {
  return xml::to_string(node_to_xml(node), pretty);
}

PolicyNodePtr node_from_string(const std::string& text) {
  return node_from_xml(xml::parse(text));
}

std::string request_to_string(const RequestContext& request, bool pretty) {
  return xml::to_string(request_to_xml(request), pretty);
}

Decision decision_from_string(const std::string& text) {
  return decision_from_xml(xml::parse(text));
}

}  // namespace mdac::core
