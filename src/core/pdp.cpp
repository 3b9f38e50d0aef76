#include "core/pdp.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/functions.hpp"

namespace mdac::core {

/// If a target conjunct is a pure disjunction of string-equality matches
/// on one attribute, it is a *necessary* condition for the target to
/// match, so both partitioning and indexing on it are sound.
struct TargetConstraint {
  Category category;
  std::string attribute_id;
  std::vector<std::string> values;
};

Pdp::Pdp(std::shared_ptr<PolicyStore> store, PdpConfig config)
    : store_(std::move(store)),
      config_(std::move(config)),
      functions_(&FunctionRegistry::standard()),
      root_algorithm_(CombiningRegistry::standard().find(config_.root_combining)) {}

namespace {

/// Extracts every viable conjunct of the target (each one independently
/// necessary). The first conjunct on a domain attribute drives
/// partitioning; the first remaining one drives the per-partition value
/// index.
std::vector<TargetConstraint> extract_constraints(const Target* target) {
  std::vector<TargetConstraint> out;
  if (target == nullptr || target->empty()) return out;
  for (const AnyOf& any : target->any_ofs) {
    if (any.all_ofs.empty()) continue;
    TargetConstraint c;
    bool first = true;
    bool viable = true;
    for (const AllOf& all : any.all_ofs) {
      if (all.matches.size() != 1) {
        viable = false;
        break;
      }
      const Match& m = all.matches[0];
      if (m.function_id != "string-equal" || m.must_be_present ||
          m.data_type != DataType::kString || !m.literal.is_string()) {
        viable = false;
        break;
      }
      if (first) {
        c.category = m.category;
        c.attribute_id = m.attribute_id;
        first = false;
      } else if (c.category != m.category || c.attribute_id != m.attribute_id) {
        viable = false;
        break;
      }
      c.values.push_back(m.literal.as_string());
    }
    if (viable && !c.values.empty()) out.push_back(std::move(c));
  }
  return out;
}

/// The attributes whose target conjuncts name administrative domains.
bool is_domain_attribute(const std::string& id) {
  return id == attrs::kSubjectDomain || id == attrs::kResourceDomain;
}

}  // namespace

void Pdp::place_in_partition(Partition& partition, std::uint32_t position,
                             const TargetConstraint* constraint) {
  if (constraint == nullptr) {
    partition.residual.push_back(position);
    return;
  }
  common::Symbol attribute;
  try {
    attribute = common::interner().intern(constraint->attribute_id);
  } catch (const std::length_error&) {
    // Symbol table exhausted (wire-driven growth hit the cap). The
    // policy stays evaluable — it just isn't indexable, so treat it as
    // always-candidate instead of letting evaluate() throw.
    partition.residual.push_back(position);
    return;
  }
  // Partitions hold very few distinct (category, attribute) entries, so a
  // linear scan beats a map here.
  IndexEntry* entry = nullptr;
  for (IndexEntry& e : partition.entries) {
    if (e.category == constraint->category && e.attribute_id == attribute) {
      entry = &e;
      break;
    }
  }
  if (entry == nullptr) {
    partition.entries.push_back(IndexEntry{constraint->category, attribute, {}});
    entry = &partition.entries.back();
  }
  for (const std::string& v : constraint->values) {
    entry->by_value[v].push_back(position);
  }
}

void Pdp::rebuild_index() {
  ordered_nodes_ = store_->top_level();
  global_ = Partition{};
  partitions_.clear();
  selected_stamp_.assign(ordered_nodes_.size(), 0);
  select_epoch_ = 0;

  // Resolve each top-level node's execution program: a store-attached
  // compiled artifact (the PAP compiled it on issue; every replica
  // loading that repository shares the same object), a local compile —
  // plain policies and whole PolicySet trees alike — for nodes the
  // store has no artifact for, or the interpreted AST (use_compiled
  // off). The Combinables built here are what the root combining
  // algorithm receives — one materialisation per store revision, zero
  // per request.
  compile_stats_ = CompileStats{};
  combinables_.clear();
  combinables_.reserve(ordered_nodes_.size());
  // Cache rebuilt fresh each time so removed ids don't accumulate;
  // unchanged nodes (same id at the same store revision) carry their
  // artifact over, so one store mutation recompiles only the policies
  // it touched. The Combinable lambdas co-own each artifact — that is
  // what keeps a store-attached program alive for in-flight use even
  // after the repository recompiles.
  decltype(local_compile_cache_) next_cache;
  for (const PolicyTreeNode* node : ordered_nodes_) {
    std::shared_ptr<const CompiledPolicyTree> compiled;
    if (config_.use_compiled) {
      if (auto attached = store_->compiled(node->id())) {
        compiled = std::move(attached);
      } else {
        const std::uint64_t node_revision = store_->node_revision(node->id());
        const auto cached = local_compile_cache_.find(node->id());
        if (cached != local_compile_cache_.end() &&
            cached->second.first == node_revision) {
          compiled = cached->second.second;
        } else {
          CompileOptions options;
          options.reference_resolves = [this](const std::string& id) {
            return store_->find(id) != nullptr;
          };
          compiled = CompiledPolicyTree::compile(*node, std::move(options));
        }
        next_cache[node->id()] = {node_revision, compiled};
      }
    }
    if (compiled != nullptr) {
      compile_stats_.accumulate(compiled->stats());
      combinables_.push_back(Combinable{
          node->id(),
          [compiled](EvaluationContext& ctx) { return compiled->match(ctx); },
          [compiled](EvaluationContext& ctx) { return compiled->evaluate(ctx); }});
    } else {
      if (config_.use_compiled) ++compile_stats_.interpreted_nodes;
      combinables_.push_back(Combinable::of_node(*node));
    }
  }
  local_compile_cache_ = std::move(next_cache);

  if (!config_.use_target_index) {
    for (std::size_t i = 0; i < ordered_nodes_.size(); ++i) {
      global_.residual.push_back(static_cast<std::uint32_t>(i));
    }
    indexed_revision_ = store_->revision();
    return;
  }

  for (std::size_t i = 0; i < ordered_nodes_.size(); ++i) {
    const std::uint32_t position = static_cast<std::uint32_t>(i);
    const auto constraints = extract_constraints(ordered_nodes_[i]->target());

    // Partition on the first domain conjunct; index within the partition
    // on the first non-domain conjunct (it discriminates better inside a
    // single domain), falling back to the domain conjunct itself.
    const TargetConstraint* domain_constraint = nullptr;
    if (config_.partition_by_domain) {
      for (const TargetConstraint& c : constraints) {
        if (is_domain_attribute(c.attribute_id)) {
          domain_constraint = &c;
          break;
        }
      }
    }
    const TargetConstraint* index_constraint = nullptr;
    for (const TargetConstraint& c : constraints) {
      if (&c != domain_constraint) {
        index_constraint = &c;
        break;
      }
    }
    if (index_constraint == nullptr) index_constraint = domain_constraint;

    if (domain_constraint == nullptr) {
      place_in_partition(global_, position, index_constraint);
    } else {
      // A disjunctive domain conjunct (domain in {a, b}) places the node
      // in every admitted domain's partition; the epoch stamps dedup it
      // if a request names several of them.
      for (const std::string& domain : domain_constraint->values) {
        place_in_partition(partitions_[domain], position, index_constraint);
      }
    }
  }
  indexed_revision_ = store_->revision();
}

void Pdp::probe_partition(const Partition& partition, const RequestContext& request) {
  const std::uint64_t epoch = select_epoch_;
  const auto select = [&](std::uint32_t i) {
    if (selected_stamp_[i] == epoch) return;
    selected_stamp_[i] = epoch;
    selected_.push_back(i);
  };
  for (const std::uint32_t i : partition.residual) select(i);

  for (const IndexEntry& entry : partition.entries) {
    const Bag* bag = request.get(entry.category, entry.attribute_id);
    if (bag == nullptr) continue;
    for (const AttributeValue& v : bag->values()) {
      if (!v.is_string()) continue;
      const auto it = entry.by_value.find(std::string_view(v.as_string()));
      if (it == entry.by_value.end()) continue;
      for (const std::uint32_t i : it->second) select(i);
    }
  }
}

void Pdp::select_candidates(const RequestContext& request, std::size_t* skipped,
                            std::size_t* partitions_probed) {
  ++select_epoch_;
  selected_.clear();

  probe_partition(global_, request);

  std::size_t probed = 0;
  if (!partitions_.empty()) {
    const attrs::Symbols& syms = attrs::Symbols::get();
    const auto visit = [&](std::string_view domain) {
      const auto it = partitions_.find(domain);
      if (it == partitions_.end()) return;
      if (it->second.probe_epoch == select_epoch_) return;  // already routed
      it->second.probe_epoch = select_epoch_;
      probe_partition(it->second, request);
      ++probed;
    };
    const auto visit_bag = [&](const Bag& bag) {
      for (const AttributeValue& v : bag.values()) {
        if (v.is_string()) visit(v.as_string());
      }
    };
    // The domains a request names, wherever it names them: domain
    // attributes in any category route (selecting a superset is sound;
    // requests hold a handful of entries, so the scan is trivial).
    for (const RequestContext::Entry& entry : request.attributes()) {
      if (entry.id == syms.subject_domain || entry.id == syms.resource_domain) {
        visit_bag(entry.bag);
      }
    }
    for (const RequestContext::SideEntry& entry : request.side_attributes()) {
      if (is_domain_attribute(entry.name)) visit_bag(entry.bag);
    }
  }
  partition_probes_ += probed;
  if (partitions_probed != nullptr) *partitions_probed = probed;

  // Document order, which the combining algorithms depend on. Each probe
  // list is in document order, so one list alone (every node residual,
  // as with the index off) needs no sort.
  if (!std::is_sorted(selected_.begin(), selected_.end())) {
    std::sort(selected_.begin(), selected_.end());
  }
  children_.clear();
  for (const std::uint32_t i : selected_) children_.push_back(&combinables_[i]);
  if (skipped != nullptr) *skipped = ordered_nodes_.size() - selected_.size();
}

Decision Pdp::evaluate(const RequestContext& request) {
  return evaluate_with_metrics(request).decision;
}

PdpResult Pdp::evaluate_with_metrics(const RequestContext& request) {
  debug_check_owner_thread();
  ++evaluation_count_;
  rebuild_index_if_stale();
  return evaluate_prepared(request);
}

std::vector<PdpResult> Pdp::evaluate_batch(std::span<const RequestContext> requests) {
  std::vector<PdpResult> results;
  results.reserve(requests.size());
  evaluate_batch(requests, &results);
  return results;
}

void Pdp::evaluate_batch(std::span<const RequestContext> requests,
                         std::vector<PdpResult>* results) {
  debug_check_owner_thread();
  rebuild_index_if_stale();
  results->clear();
  for (const RequestContext& request : requests) {
    ++evaluation_count_;
    results->push_back(evaluate_prepared(request));
  }
}

PdpResult Pdp::evaluate_prepared(const RequestContext& request) {
  PdpResult result;
  EvaluationContext ctx(request, *functions_, resolver_, store_.get());
  // Compiled condition programs execute above a saved stack base, so one
  // persistent scratch serves nested (resolver re-entrant) frames too.
  ctx.set_compiled_scratch(&compiled_scratch_);
  result.compile = compile_stats_;

  if (root_algorithm_ == nullptr) {
    result.decision = Decision::indeterminate(
        IndeterminateExtent::kDP,
        Status::syntax_error("unknown root combining algorithm '" +
                             config_.root_combining + "'"));
    return result;
  }

  if (in_evaluation_) {
    // Re-entrant evaluation (an AttributeResolver called back into this
    // Pdp while the outer combine() is iterating children_): fall back
    // to a local, unpartitioned child list. Correct — the index only
    // prunes provably non-matching targets — just not allocation-free,
    // which is fine for a path only resolvers can reach.
    std::vector<const Combinable*> local;
    local.reserve(combinables_.size());
    for (const Combinable& c : combinables_) local.push_back(&c);
    result.decision = root_algorithm_->combine(local, ctx);
    result.metrics = ctx.metrics();
    return result;
  }

  select_candidates(request, &result.candidates_skipped, &result.partitions_probed);

  struct EvaluationGuard {
    bool& flag;
    explicit EvaluationGuard(bool& f) : flag(f) { flag = true; }
    ~EvaluationGuard() { flag = false; }
  } guard(in_evaluation_);
  result.decision = root_algorithm_->combine(children_, ctx);
  result.metrics = ctx.metrics();
  return result;
}

}  // namespace mdac::core
