#include "analysis/analysis.hpp"

#include <algorithm>
#include <string_view>

#include "analysis/passes.hpp"
#include "core/combining.hpp"
#include "core/evaluation.hpp"
#include "core/functions.hpp"
#include "core/request.hpp"

namespace mdac::analysis {

namespace detail {

// ---------------------------------------------------------------------
// Equality-fragment projection
// ---------------------------------------------------------------------

namespace {

/// Projects a target onto the equality fragment. Each AnyOf whose AllOfs
/// are single string-equality matches over one attribute becomes a
/// constraint (attribute -> value set). Anything else — non-equality
/// functions, multi-match AllOfs, cross-attribute disjunctions — sets
/// `approximate`. A must-be-present match keeps its constraint (the
/// admitted space is the same) but also sets `approximate`: the match
/// can go Indeterminate instead of NoMatch on an absent attribute, which
/// the shadowing proofs must treat as outside the fragment.
ExtractedTarget project_target(const core::Target& target) {
  ExtractedTarget out;
  for (const core::AnyOf& any : target.any_ofs) {
    bool viable = !any.all_ofs.empty();
    std::optional<AttributeKey> key;
    std::set<std::string> values;
    for (const core::AllOf& all : any.all_ofs) {
      if (all.matches.size() != 1) {
        viable = false;
        break;
      }
      const core::Match& m = all.matches[0];
      if (m.function_id != "string-equal" || !m.literal.is_string()) {
        viable = false;
        break;
      }
      if (m.must_be_present) out.approximate = true;
      const AttributeKey k{m.category, m.attribute_id};
      if (!key.has_value()) {
        key = k;
      } else if (*key != k) {
        viable = false;
        break;
      }
      values.insert(m.literal.as_string());
    }
    if (!viable || !key.has_value()) {
      out.approximate = true;
      continue;
    }
    // Conjunction with an existing constraint on the same key intersects.
    auto [it, inserted] = out.constraints.emplace(*key, values);
    if (!inserted) {
      std::set<std::string> intersection;
      for (const std::string& v : values) {
        if (it->second.count(v) > 0) intersection.insert(v);
      }
      it->second = std::move(intersection);
    }
  }
  return out;
}

/// Merges (conjoins) b into a.
void intersect_into(std::map<AttributeKey, std::set<std::string>>* a,
                    const std::map<AttributeKey, std::set<std::string>>& b) {
  for (const auto& [key, values] : b) {
    auto [it, inserted] = a->emplace(key, values);
    if (!inserted) {
      std::set<std::string> intersection;
      for (const std::string& v : values) {
        if (it->second.count(v) > 0) intersection.insert(v);
      }
      it->second = std::move(intersection);
    }
  }
}

/// True if some constraint admits no value at all (the atom can never
/// apply and is dropped from overlap analysis).
bool unsatisfiable(const std::map<AttributeKey, std::set<std::string>>& c) {
  for (const auto& [key, values] : c) {
    if (values.empty()) return true;
  }
  return false;
}

/// covers(a, b): every request admitted by b's constraints is admitted
/// by a's — a constrains a subset of b's keys, each with a superset of
/// b's values. Exact when both projections are exact.
bool covers(const std::map<AttributeKey, std::set<std::string>>& a,
            const std::map<AttributeKey, std::set<std::string>>& b) {
  for (const auto& [key, a_values] : a) {
    const auto b_it = b.find(key);
    if (b_it == b.end()) return false;
    if (!std::includes(a_values.begin(), a_values.end(), b_it->second.begin(),
                       b_it->second.end())) {
      return false;
    }
  }
  return true;
}

/// Overlap test with witness: every attribute constrained by BOTH sides
/// must share at least one admitted value; one-sided constraints always
/// overlap (the other side admits anything).
bool overlap_witness(const std::map<AttributeKey, std::set<std::string>>& a,
                     const std::map<AttributeKey, std::set<std::string>>& b,
                     std::map<AttributeKey, std::string>* witness) {
  for (const auto& [key, a_values] : a) {
    const auto b_it = b.find(key);
    if (b_it == b.end()) {
      if (!a_values.empty()) witness->emplace(key, *a_values.begin());
      continue;
    }
    bool found = false;
    for (const std::string& v : a_values) {
      if (b_it->second.count(v) > 0) {
        witness->emplace(key, v);
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  for (const auto& [key, b_values] : b) {
    if (a.count(key) == 0 && !b_values.empty()) {
      witness->emplace(key, *b_values.begin());
    }
  }
  return true;
}

/// True if the two sorted sets share a value.
bool intersects(const std::set<std::string>& a, const std::set<std::string>& b) {
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    const int order = i->compare(*j);
    if (order == 0) return true;
    if (order < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

}  // namespace

// One merge walk over both key-sorted maps: the conflict index runs this
// on every candidate pair, so it avoids a tree descent per key.
bool overlaps(const Constraints& a, const Constraints& b) {
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    const auto order = i->first <=> j->first;
    if (order < 0) {
      ++i;
    } else if (order > 0) {
      ++j;
    } else {
      if (!intersects(i->second, j->second)) return false;
      ++i;
      ++j;
    }
  }
  return true;
}

namespace {

// ---------------------------------------------------------------------
// Tree walk: atoms, per-policy rule projections, set children, edges
// ---------------------------------------------------------------------

bool known_combining(const std::string& name) {
  return core::CombiningRegistry::standard().find(name) != nullptr;
}

void collect_policy(const core::Policy& policy, const std::string& root_id,
                    const std::string& path, const ExtractedTarget& inherited,
                    Collection* out) {
  ExtractedTarget context = inherited;
  const ExtractedTarget own_policy = project_target(policy.target_spec);
  intersect_into(&context.constraints, own_policy.constraints);
  context.approximate = context.approximate || own_policy.approximate;

  PolicyInfo info;
  info.policy = &policy;
  info.root_id = root_id;
  info.path = path;

  for (const core::Rule& rule : policy.rules) {
    RuleInfo ri;
    ri.rule = &rule;
    ri.path = path + "/" + rule.id;
    if (rule.target.has_value()) ri.own = project_target(*rule.target);
    ri.has_condition = rule.condition != nullptr;

    Atom atom;
    atom.root_id = root_id;
    atom.policy_id = policy.policy_id;
    atom.rule_id = rule.id;
    atom.path = ri.path;
    atom.effect = rule.effect;
    atom.constraints = context.constraints;
    atom.approximate = context.approximate;
    intersect_into(&atom.constraints, ri.own.constraints);
    atom.approximate = atom.approximate || ri.own.approximate;
    atom.exact_target = !atom.approximate;
    if (rule.condition) {
      // Conditions are outside the equality fragment entirely.
      atom.approximate = true;
    }
    atom.has_condition = ri.has_condition;

    ri.exact_path = atom.exact_target;
    ri.satisfiable = !unsatisfiable(atom.constraints);
    info.rules.push_back(std::move(ri));
    if (info.rules.back().satisfiable) out->atoms.push_back(std::move(atom));
  }
  out->policies.push_back(std::move(info));
}

}  // namespace

void collect_node(const core::PolicyTreeNode& node, const std::string& root_id,
                  const std::string& path, const ExtractedTarget& inherited,
                  Collection* out) {
  if (const auto* policy = dynamic_cast<const core::Policy*>(&node)) {
    collect_policy(*policy, root_id, path, inherited, out);
    return;
  }
  if (const auto* ref = dynamic_cast<const core::PolicyReference*>(&node)) {
    out->refs.push_back(RefEdge{root_id, path, ref->id()});
    return;
  }
  const auto* set = dynamic_cast<const core::PolicySet*>(&node);
  if (set == nullptr) return;

  ExtractedTarget context = inherited;
  const ExtractedTarget own_set = project_target(set->target_spec);
  intersect_into(&context.constraints, own_set.constraints);
  context.approximate = context.approximate || own_set.approximate;

  SetInfo si;
  si.set = set;
  si.root_id = root_id;
  si.path = path;
  for (const core::PolicyNodePtr& child : set->children()) {
    ChildInfo ci;
    ci.node = child.get();
    ci.id = child->id();
    if (const auto* p = dynamic_cast<const core::Policy*>(child.get())) {
      ci.is_policy = true;
      ci.own = project_target(p->target_spec);
      if (!ci.own.approximate && known_combining(p->rule_combining)) {
        for (const core::Rule& r : p->rules) {
          if (!r.target.has_value() && !r.condition) {
            ci.always_decides = true;
            break;
          }
        }
      }
    } else if (dynamic_cast<const core::PolicyReference*>(child.get())) {
      ci.is_reference = true;
      ci.own.approximate = true;  // target unknown statically
    } else if (const auto* s = dynamic_cast<const core::PolicySet*>(child.get())) {
      ci.own = project_target(s->target_spec);
    }
    si.children.push_back(std::move(ci));
    collect_node(*child, root_id, path + "/" + child->id(), context, out);
  }
  out->sets.push_back(std::move(si));
}

// ---------------------------------------------------------------------
// Report assembly (with per-pass materialisation caps)
// ---------------------------------------------------------------------

bool ReportBuilder::admit(Pass pass, Severity severity) {
  switch (severity) {
    case Severity::kError: ++report_.error_count; break;
    case Severity::kWarning: ++report_.warning_count; break;
    case Severity::kInfo: ++report_.info_count; break;
  }
  if (counting_) return false;
  const auto p = static_cast<std::size_t>(pass);
  if (cap_ != 0 && materialised_[p] >= cap_) {
    ++suppressed_[p];
    ++report_.suppressed;
    return false;
  }
  ++materialised_[p];
  return true;
}

AnalysisReport ReportBuilder::finish() {
  for (std::size_t p = 0; p < kPasses; ++p) {
    const std::size_t n = suppressed_[p];
    if (n == 0) continue;
    Finding f;
    f.pass = static_cast<Pass>(p);
    f.severity = Severity::kInfo;
    f.code = "findings-truncated";
    f.message = std::to_string(n) + " further " + to_string(f.pass) +
                " finding(s) counted but not materialised (per-pass cap)";
    ++report_.info_count;
    report_.findings.push_back(std::move(f));
  }
  return std::move(report_);
}

namespace {

std::string describe_constraints(
    const std::map<AttributeKey, std::set<std::string>>& c) {
  if (c.empty()) return "any request";
  std::string out;
  for (const auto& [key, values] : c) {
    if (!out.empty()) out += ", ";
    out += key.second + " in {";
    bool first = true;
    for (const std::string& v : values) {
      if (!first) out += ",";
      out += v;
      first = false;
    }
    out += "}";
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------
// Pass: shadowing / unreachability
// ---------------------------------------------------------------------

void shadow_rules(const PolicyInfo& pi, ReportBuilder* rb) {
  const std::string& combining = pi.policy->rule_combining;
  const bool first_applicable = combining == "first-applicable";
  const bool deny_wins =
      combining == "deny-overrides" || combining == "ordered-deny-overrides";
  const bool permit_wins =
      combining == "permit-overrides" || combining == "ordered-permit-overrides";
  if (!first_applicable && !deny_wins && !permit_wins) return;

  const auto& rules = pi.rules;
  for (std::size_t j = 0; j < rules.size(); ++j) {
    const RuleInfo& cand = rules[j];
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (i == j) continue;
      const RuleInfo& cov = rules[i];
      // The coverer must provably decide whenever its target matches:
      // exact projection, no condition.
      if (cov.own.approximate || cov.has_condition) continue;
      if (first_applicable && i >= j) continue;
      if (deny_wins && !(cov.rule->effect == core::Effect::kDeny &&
                         cand.rule->effect == core::Effect::kPermit)) {
        continue;
      }
      if (permit_wins && !(cov.rule->effect == core::Effect::kPermit &&
                           cand.rule->effect == core::Effect::kDeny)) {
        continue;
      }
      if (!covers(cov.own.constraints, cand.own.constraints)) continue;
      // An unconstrained coverer applies to every request the candidate
      // could ever see, so the candidate is unreachable regardless of
      // its own structure. A constrained coverer needs the candidate's
      // projection exact too: an approximate candidate target could go
      // Indeterminate on requests outside the coverer's space.
      if (!cov.own.constraints.empty() && cand.own.approximate) continue;

      rb->add(Pass::kShadowing, Severity::kWarning, [&] {
        Finding f;
        f.code = "rule-shadowed";
        f.root_id = pi.root_id;
        f.path = cand.path;
        f.other_root_id = pi.root_id;
        f.other_path = cov.path;
        f.message =
            first_applicable
                ? "rule can never decide: every request it admits is decided by "
                  "earlier rule '" +
                      cov.rule->id + "' (first-applicable)"
                : "rule effect can never surface: rule '" + cov.rule->id +
                      "' covers its admitted space under " + combining;
        return f;
      });
      break;
    }
  }
}

void shadow_set_children(const SetInfo& si, ReportBuilder* rb) {
  if (si.set->policy_combining != "first-applicable") return;
  std::vector<const ChildInfo*> deciders;
  for (const ChildInfo& child : si.children) {
    for (const ChildInfo* d : deciders) {
      if (!covers(d->own.constraints, child.own.constraints)) continue;
      // Constrained deciders need the candidate exact (same
      // Indeterminate-leak argument as for rules); an unconstrained
      // decider short-circuits every later sibling outright.
      if (!d->own.constraints.empty() &&
          (child.own.approximate || !child.is_policy)) {
        continue;
      }
      rb->add(Pass::kShadowing, Severity::kWarning, [&] {
        Finding f;
        f.code = "policy-shadowed";
        f.root_id = si.root_id;
        f.path = si.path + "/" + child.id;
        f.other_root_id = si.root_id;
        f.other_path = si.path + "/" + d->id;
        f.message = "child can never decide: earlier sibling '" + d->id +
                    "' always yields a decision for every request it admits "
                    "(first-applicable)";
        return f;
      });
      break;
    }
    if (child.always_decides) deciders.push_back(&child);
  }
}

void only_one_applicable_overlaps(const SetInfo& si, ReportBuilder* rb) {
  if (si.set->policy_combining != "only-one-applicable") return;
  for (std::size_t i = 0; i < si.children.size(); ++i) {
    for (std::size_t j = i + 1; j < si.children.size(); ++j) {
      const ChildInfo& a = si.children[i];
      const ChildInfo& b = si.children[j];
      if (!overlaps(a.own.constraints, b.own.constraints)) continue;
      const bool approx = a.own.approximate || b.own.approximate;
      rb->add(Pass::kModalityConflict, approx ? Severity::kWarning : Severity::kError,
              [&] {
                Finding f;
                f.code = "only-one-applicable-overlap";
                f.root_id = si.root_id;
                f.path = si.path + "/" + a.id;
                f.other_root_id = si.root_id;
                f.other_path = si.path + "/" + b.id;
                overlap_witness(a.own.constraints, b.own.constraints, &f.witness);
                f.approximate = approx;
                f.message = "children '" + a.id + "' and '" + b.id +
                            "' can both apply; only-one-applicable then yields "
                            "Indeterminate at runtime";
                return f;
              });
    }
  }
}

// ---------------------------------------------------------------------
// Pass: cross-root modality conflicts
// ---------------------------------------------------------------------

void conflict_finding(const Atom& a, const Atom& b, ReportBuilder* rb) {
  const Atom& permit = a.effect == core::Effect::kPermit ? a : b;
  const Atom& deny = a.effect == core::Effect::kPermit ? b : a;
  const bool approx = a.approximate || b.approximate;
  rb->add(Pass::kModalityConflict, approx ? Severity::kWarning : Severity::kError, [&] {
    Finding f;
    f.code = "modality-conflict";
    f.root_id = permit.root_id;
    f.path = permit.path;
    f.other_root_id = deny.root_id;
    f.other_path = deny.path;
    overlap_witness(a.constraints, b.constraints, &f.witness);
    f.approximate = approx;
    f.message = "permit rule '" + permit.rule_id + "' and deny rule '" +
                deny.rule_id + "' of independently issued trees overlap on " +
                describe_constraints(permit.constraints) +
                (approx ? " (approximate)" : "");
    return f;
  });
}

// ---------------------------------------------------------------------
// Pass: references
// ---------------------------------------------------------------------

void reference_edge_finding(const RefEdge& edge, bool withdrawn, ReportBuilder* rb) {
  rb->add(Pass::kReference, Severity::kError, [&] {
    Finding f;
    f.code = withdrawn ? "reference-withdrawn" : "reference-dangling";
    f.root_id = edge.root_id;
    f.path = edge.path;
    f.other_root_id = edge.ref_id;
    f.message = std::string("policy reference '") + edge.ref_id +
                (withdrawn ? "' names a withdrawn policy" : "' does not resolve");
    return f;
  });
}

void reference_cycles(const ReferenceGraph& edges, ReportBuilder* rb) {
  // Cycles among the analysed roots (a reference closure that loops
  // yields runtime reference-cycle Indeterminates).
  std::set<std::set<std::string>> reported;
  std::set<std::string> done;
  std::vector<std::string> stack;
  std::set<std::string> on_stack;
  // Iterative DFS with an explicit child cursor.
  for (const auto& [start, _] : edges) {
    if (done.count(start) > 0) continue;
    std::vector<std::pair<std::string, std::size_t>> frames{{start, 0}};
    stack.push_back(start);
    on_stack.insert(start);
    while (!frames.empty()) {
      auto& [id, cursor] = frames.back();
      const auto it = edges.find(id);
      if (it == edges.end() || cursor >= it->second.size()) {
        done.insert(id);
        on_stack.erase(id);
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      const std::string next = it->second[cursor++];
      if (on_stack.count(next) > 0) {
        // Back edge: the cycle is the stack suffix from `next`.
        const auto begin =
            std::find(stack.begin(), stack.end(), next);
        std::set<std::string> members(begin, stack.end());
        if (reported.insert(members).second) {
          std::string chain;
          for (auto itc = begin; itc != stack.end(); ++itc) {
            chain += *itc + " -> ";
          }
          chain += next;
          Finding f;
          f.pass = Pass::kReference;
          f.severity = Severity::kError;
          f.code = "reference-cycle";
          f.root_id = next;
          f.other_root_id = id;
          f.message = "policy reference cycle: " + chain;
          rb->add(std::move(f));
        }
        continue;
      }
      if (done.count(next) > 0) continue;
      frames.emplace_back(next, 0);
      stack.push_back(next);
      on_stack.insert(next);
    }
  }
}

// ---------------------------------------------------------------------
// Pass: types + dead code (expression walks)
// ---------------------------------------------------------------------

namespace {

struct ExprScan {
  bool has_designator = false;
  bool foldable = true;  // no designators/refs, all functions well-formed
};

void scan_expr(const core::Expression& expr, bool higher_order_parent,
               const std::string& root_id, const std::string& path,
               ExprScan* scan, ReportBuilder* rb) {
  const auto typed = [&](std::string code, std::string message) {
    Finding f;
    f.pass = Pass::kTypes;
    f.severity = Severity::kError;
    f.code = std::move(code);
    f.root_id = root_id;
    f.path = path;
    f.message = std::move(message);
    rb->add(std::move(f));
  };

  switch (expr.kind()) {
    case core::ExprKind::kLiteral:
      return;
    case core::ExprKind::kDesignator:
      scan->has_designator = true;
      scan->foldable = false;
      return;
    case core::ExprKind::kFunctionRef: {
      scan->foldable = false;
      const auto& ref = static_cast<const core::FunctionRefExpr&>(expr);
      if (!higher_order_parent) {
        typed("function-ref-misplaced",
              "function reference '" + ref.function_id() +
                  "' outside a higher-order apply always errors");
      } else if (core::FunctionRegistry::standard().find(ref.function_id()) ==
                 nullptr) {
        typed("unknown-function",
              "unknown function '" + ref.function_id() + "'");
      }
      return;
    }
    case core::ExprKind::kApply: {
      const auto& apply = static_cast<const core::ApplyExpr&>(expr);
      const core::FunctionDef* fn =
          core::FunctionRegistry::standard().find(apply.function_id());
      if (fn == nullptr) {
        scan->foldable = false;
        typed("unknown-function",
              "unknown function '" + apply.function_id() + "'");
      } else {
        if (fn->higher_order) scan->foldable = false;
        if (fn->arity >= 0 &&
            apply.args().size() != static_cast<std::size_t>(fn->arity)) {
          scan->foldable = false;
          typed("function-arity",
                "function '" + apply.function_id() + "' expects " +
                    std::to_string(fn->arity) + " argument(s), got " +
                    std::to_string(apply.args().size()));
        }
      }
      const bool ho = fn != nullptr && fn->higher_order;
      for (const core::ExprPtr& arg : apply.args()) {
        scan_expr(*arg, ho, root_id, path, scan, rb);
      }
      return;
    }
  }
}

/// Folds a designator-free condition with the real evaluator and reports
/// always-true (redundant) / always-false (dead rule) / always-error.
void fold_condition(const core::Expression& condition, const std::string& root_id,
                    const std::string& path, ReportBuilder* rb) {
  static const core::RequestContext empty_request =
      core::RequestContext::make("", "", "");
  core::EvaluationContext ctx(empty_request, core::FunctionRegistry::standard());
  const core::ExprResult result = condition.evaluate(ctx);

  Finding f;
  f.pass = Pass::kDeadCode;
  f.root_id = root_id;
  f.path = path;
  if (!result.ok()) {
    f.severity = Severity::kWarning;
    f.code = "condition-always-error";
    f.message = "condition evaluates to a constant error (" +
                result.status.message + "): the rule is always Indeterminate";
  } else if (result.bag.singleton() && result.bag.at(0).is_boolean()) {
    if (result.bag.at(0).as_boolean()) {
      f.severity = Severity::kInfo;
      f.code = "condition-always-true";
      f.message = "condition is constantly true and can be removed";
    } else {
      f.severity = Severity::kWarning;
      f.code = "condition-always-false";
      f.message = "condition is constantly false: the rule can never apply";
    }
  } else {
    f.severity = Severity::kWarning;
    f.code = "condition-not-boolean";
    f.message = "condition folds to a non-boolean constant: the rule is "
                "always Indeterminate";
  }
  rb->add(std::move(f));
}

void scan_obligations(const std::vector<core::ObligationExpr>& obligations,
                      const std::string& root_id, const std::string& path,
                      ReportBuilder* rb) {
  for (const core::ObligationExpr& ob : obligations) {
    for (const core::AttributeAssignmentExpr& assignment : ob.assignments) {
      if (assignment.expr == nullptr) continue;
      ExprScan scan;
      scan_expr(*assignment.expr, false, root_id, path + "/" + ob.id, &scan, rb);
    }
  }
}

void scan_target_functions(const core::Target& target, const std::string& root_id,
                           const std::string& path, ReportBuilder* rb) {
  for (const core::AnyOf& any : target.any_ofs) {
    for (const core::AllOf& all : any.all_ofs) {
      for (const core::Match& m : all.matches) {
        const core::FunctionDef* fn =
            core::FunctionRegistry::standard().find(m.function_id);
        std::string code, message;
        if (fn == nullptr) {
          code = "unknown-match-function";
          message = "unknown match function '" + m.function_id + "'";
        } else if (fn->higher_order) {
          code = "higher-order-match-function";
          message = "higher-order match function '" + m.function_id +
                    "' is not usable in a target";
        } else {
          continue;
        }
        Finding f;
        f.pass = Pass::kTypes;
        f.severity = Severity::kError;
        f.code = std::move(code);
        f.root_id = root_id;
        f.path = path;
        f.message = std::move(message);
        rb->add(std::move(f));
      }
    }
  }
}

void unknown_combining_finding(const std::string& name, const char* kind,
                               const std::string& root_id, const std::string& path,
                               ReportBuilder* rb) {
  if (known_combining(name)) return;
  Finding f;
  f.pass = Pass::kTypes;
  f.severity = Severity::kError;
  f.code = "unknown-combining-algorithm";
  f.root_id = root_id;
  f.path = path;
  f.message = std::string("unknown ") + kind + " combining algorithm '" + name +
              "': the node evaluates to Indeterminate";
  rb->add(std::move(f));
}

}  // namespace

void types_and_dead_code(const core::PolicyTreeNode& node,
                         const std::string& root_id, const std::string& path,
                         bool types, bool dead_code, ReportBuilder* rb) {
  if (const auto* policy = dynamic_cast<const core::Policy*>(&node)) {
    if (types) {
      unknown_combining_finding(policy->rule_combining, "rule", root_id, path, rb);
      scan_target_functions(policy->target_spec, root_id, path, rb);
      scan_obligations(policy->obligations, root_id, path, rb);
    }
    for (const core::Rule& rule : policy->rules) {
      const std::string rule_path = path + "/" + rule.id;
      if (types) {
        if (rule.target.has_value()) {
          scan_target_functions(*rule.target, root_id, rule_path, rb);
        }
        scan_obligations(rule.obligations, root_id, rule_path, rb);
      }
      if (rule.condition != nullptr) {
        ExprScan scan;
        if (types) {
          scan_expr(*rule.condition, false, root_id, rule_path, &scan, rb);
        } else {
          ReportBuilder scratch(0);
          scan_expr(*rule.condition, false, root_id, rule_path, &scan, &scratch);
        }
        if (dead_code && scan.foldable) {
          fold_condition(*rule.condition, root_id, rule_path, rb);
        }
      }
    }
    return;
  }
  if (const auto* set = dynamic_cast<const core::PolicySet*>(&node)) {
    if (types) {
      unknown_combining_finding(set->policy_combining, "policy", root_id, path,
                                rb);
      scan_target_functions(set->target_spec, root_id, path, rb);
      scan_obligations(set->obligations, root_id, path, rb);
    }
    for (const core::PolicyNodePtr& child : set->children()) {
      types_and_dead_code(*child, root_id, path + "/" + child->id(), types,
                          dead_code, rb);
    }
  }
}

void never_applicable_rules(const PolicyInfo& pi, ReportBuilder* rb) {
  if (pi.policy == nullptr) return;
  for (const RuleInfo& ri : pi.rules) {
    if (ri.satisfiable || !ri.exact_path) continue;
    rb->add(Pass::kDeadCode, Severity::kWarning, [&] {
      Finding f;
      f.code = "rule-never-applicable";
      f.root_id = pi.root_id;
      f.path = ri.path;
      f.message = "the rule's combined set/policy/rule target admits no request";
      return f;
    });
  }
}

void vocabulary_findings(const std::string& root_id,
                         const std::vector<std::string>& names,
                         const std::set<std::string, std::less<>>& vocabulary,
                         ReportBuilder* rb) {
  std::set<std::string_view> seen;
  for (const std::string& name : names) {
    if (!seen.insert(name).second) continue;
    if (vocabulary.find(name) != vocabulary.end()) continue;
    rb->add(Pass::kVocabulary, Severity::kWarning, [&] {
      Finding f;
      f.code = "unknown-attribute";
      f.root_id = root_id;
      f.path = root_id;
      f.message = "attribute '" + name +
                  "' is not in the domain vocabulary: requests gated on the "
                  "allowlist can never carry it";
      return f;
    });
  }
}

void compile_findings(const std::string& root_id,
                      const std::vector<std::string>& diagnostics, ReportBuilder* rb) {
  for (const std::string& diagnostic : diagnostics) {
    rb->add(Pass::kTypes, Severity::kInfo, [&] {
      Finding f;
      f.code = "compile-diagnostic";
      f.root_id = root_id;
      f.path = root_id;
      f.message = diagnostic;
      return f;
    });
  }
}

}  // namespace detail

using namespace detail;

// ---------------------------------------------------------------------
// Atom extraction
// ---------------------------------------------------------------------

std::vector<Atom> extract_atoms(const core::PolicyTreeNode& node) {
  Collection col;
  collect_node(node, node.id(), node.id(), ExtractedTarget{}, &col);
  return std::move(col.atoms);
}

std::vector<Atom> extract_atoms(const core::Policy& policy) {
  return extract_atoms(static_cast<const core::PolicyTreeNode&>(policy));
}

// ---------------------------------------------------------------------
// The linter
// ---------------------------------------------------------------------

bool is_unreachability_code(const std::string& code) {
  return code == "rule-shadowed" || code == "policy-shadowed" ||
         code == "rule-never-applicable" || code == "condition-always-false";
}

AnalysisReport analyse_roots(const std::vector<AnalysisInput>& roots,
                             const AnalyzerOptions& options) {
  IncrementalAnalysis index;
  for (const AnalysisInput& input : roots) {
    if (input.node == nullptr) continue;
    index.commit(index.stage(*input.node, options), options);
    index.set_compiled(input.node->id(), input.compiled);
  }
  return index.report(options);
}

AnalysisReport analyse_store(const core::PolicyStore& store,
                             const AnalyzerOptions& options) {
  std::vector<AnalysisInput> roots;
  for (const core::PolicyTreeNode* node : store.top_level()) {
    roots.push_back({node, store.compiled(node->id())});
  }
  AnalyzerOptions opts = options;
  if (!opts.resolves) {
    opts.resolves = [&store](const std::string& id) {
      return store.find(id) != nullptr;
    };
  }
  return analyse_roots(roots, opts);
}

// ---------------------------------------------------------------------
// Meta-policies
// ---------------------------------------------------------------------

namespace {

const std::set<std::string>* constraint_of(const Atom& atom,
                                           const AttributeKey& key) {
  const auto it = atom.constraints.find(key);
  if (it == atom.constraints.end()) return nullptr;
  return &it->second;
}

/// Does the atom permit (resource, action)?
bool permits(const Atom& atom, const std::string& resource,
             const std::string& action) {
  if (atom.effect != core::Effect::kPermit) return false;
  const AttributeKey res_key{core::Category::kResource, core::attrs::kResourceId};
  const AttributeKey act_key{core::Category::kAction, core::attrs::kActionId};
  const auto* res = constraint_of(atom, res_key);
  const auto* act = constraint_of(atom, act_key);
  if (res != nullptr && res->count(resource) == 0) return false;
  if (act != nullptr && act->count(action) == 0) return false;
  return true;
}

}  // namespace

std::vector<SodViolation> check_sod(const std::vector<Atom>& atoms,
                                    const std::vector<SodMetaPolicy>& metas) {
  std::vector<SodViolation> out;
  const AttributeKey subj_key{core::Category::kSubject, core::attrs::kSubjectId};
  for (std::size_t m = 0; m < metas.size(); ++m) {
    const SodMetaPolicy& meta = metas[m];
    for (std::size_t ia = 0; ia < atoms.size(); ++ia) {
      const Atom& a = atoms[ia];
      if (!permits(a, meta.resource_a, meta.action_a)) continue;
      for (std::size_t ib = 0; ib < atoms.size(); ++ib) {
        const Atom& b = atoms[ib];
        if (!permits(b, meta.resource_b, meta.action_b)) continue;
        // Subject overlap: unconstrained on either side = everyone.
        const auto* sa = constraint_of(a, subj_key);
        const auto* sb = constraint_of(b, subj_key);
        std::set<std::string> overlap;
        bool overlapping = false;
        if (sa == nullptr && sb == nullptr) {
          overlapping = true;
        } else if (sa == nullptr) {
          overlapping = !sb->empty();
          overlap = *sb;
        } else if (sb == nullptr) {
          overlapping = !sa->empty();
          overlap = *sa;
        } else {
          for (const std::string& s : *sa) {
            if (sb->count(s) > 0) overlap.insert(s);
          }
          overlapping = !overlap.empty();
        }
        if (!overlapping) continue;
        out.push_back(SodViolation{m, ia, ib, std::move(overlap)});
      }
    }
  }
  return out;
}

}  // namespace mdac::analysis
