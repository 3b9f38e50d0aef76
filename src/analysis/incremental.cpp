// IncrementalAnalysis: the analyser's state kept between changes to a
// corpus, so that issuing, replacing or withdrawing one root costs what
// that root touches (its bucket of the conflict index, the roots on its
// reference edges) instead of re-analysing the whole corpus.
// analyse_roots is this index filled one root at a time.
#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "analysis/analysis.hpp"
#include "analysis/passes.hpp"
#include "core/compiled.hpp"

namespace mdac::analysis {

using namespace detail;

/// One overlapping opposite-effect atom pair, held by both roots: `mine`
/// indexes the holder's atoms, `theirs` the other root's. A root's links
/// are ordered by the other root's serial: a new root has the highest
/// serial, so its links append at the end of its partners' lists, and a
/// removed root's links are one contiguous run in each partner's list.
struct IncrementalAnalysis::Link {
  Root* other = nullptr;
  std::uint32_t mine = 0;
  std::uint32_t theirs = 0;
};

/// Everything the corpus report needs from one root, computed once when
/// the root is staged. Holds no pointer into the analysed node.
struct IncrementalAnalysis::Root {
  std::string id;
  /// Commit order: a link is reported from the side committed first.
  std::uint64_t serial = 0;
  std::vector<Atom> atoms;  // satisfiable atoms, as collect_node yields them
  /// Shadowing, only-one-applicable, types and dead-code findings.
  std::vector<Finding> findings;
  std::vector<RefEdge> refs;
  /// core::referenced_policy_ids, for the reverse edges and cycles.
  std::vector<std::string> referenced;
  /// Dangling / withdrawn findings as of the last reference check.
  std::vector<Finding> reference_findings;
  /// core::referenced_attribute_names, for the vocabulary pass.
  std::vector<std::string> attribute_names;
  std::shared_ptr<const core::CompiledPolicyTree> compiled;
  std::vector<Link> links;
};

namespace {

using AtomRef = std::pair<IncrementalAnalysis::Root*, std::uint32_t>;

/// Atoms of one partition value, split by effect: only opposite effects
/// can conflict.
struct Bucket {
  std::vector<AtomRef> permits;
  std::vector<AtomRef> denies;

  std::vector<AtomRef>& of(core::Effect e) {
    return e == core::Effect::kPermit ? permits : denies;
  }
  const std::vector<AtomRef>& opposite_of(core::Effect e) const {
    return e == core::Effect::kPermit ? denies : permits;
  }
  bool empty() const { return permits.empty() && denies.empty(); }
};

/// Finds one serial's run in a link list ordered by the other root.
struct LinkOrder {
  using Link = IncrementalAnalysis::Link;
  bool operator()(const Link& a, std::uint64_t serial) const {
    return a.other->serial < serial;
  }
  bool operator()(std::uint64_t serial, const Link& b) const {
    return serial < b.other->serial;
  }
};

Severity link_severity(const Atom& a, const Atom& b) {
  return a.approximate || b.approximate ? Severity::kWarning : Severity::kError;
}

}  // namespace

struct IncrementalAnalysis::Index {
  std::map<std::string, std::unique_ptr<Root>> roots;
  /// Singleton equality constraints per key over every indexed atom; the
  /// most common key partitions the buckets.
  std::map<AttributeKey, std::size_t> singleton_counts;
  std::optional<AttributeKey> partition_key;
  std::map<std::string, Bucket> buckets;  // by partition value
  Bucket global;                          // atoms not pinned by the key
  /// Reverse reference edges: referenced id -> roots referring to it
  /// (the id need not be a root).
  std::map<std::string, std::set<std::string>> referrers;
  /// Bumped by every commit and erase; a stage records it.
  std::uint64_t generation = 0;
  std::uint64_t next_serial = 0;

  const Root* find(const std::string& id) const {
    const auto it = roots.find(id);
    return it == roots.end() ? nullptr : it->second.get();
  }

  /// The value pinning `atom` under the partition key, or null.
  const std::string* pinned_value(const Atom& atom) const {
    if (!partition_key) return nullptr;
    const auto it = atom.constraints.find(*partition_key);
    if (it == atom.constraints.end() || it->second.size() != 1) return nullptr;
    return &*it->second.begin();
  }

  void bucket_atom(Root* root, std::uint32_t i) {
    const Atom& atom = root->atoms[i];
    const std::string* value = pinned_value(atom);
    Bucket& bucket = value != nullptr ? buckets[*value] : global;
    bucket.of(atom.effect).push_back({root, i});
  }

  void unbucket_atom(Root* root, std::uint32_t i) {
    const Atom& atom = root->atoms[i];
    const std::string* value = pinned_value(atom);
    const auto it = value != nullptr ? buckets.find(*value) : buckets.end();
    Bucket& bucket = it != buckets.end() ? it->second : global;
    std::erase_if(bucket.of(atom.effect), [&](const AtomRef& r) {
      return r.first == root && r.second == i;
    });
    if (it != buckets.end() && bucket.empty()) buckets.erase(it);
  }

  void count_singletons(const Root& root, int delta) {
    for (const Atom& atom : root.atoms) {
      for (const auto& [key, values] : atom.constraints) {
        if (values.size() != 1) continue;
        if (delta > 0) {
          ++singleton_counts[key];
        } else if (const auto it = singleton_counts.find(key);
                   it != singleton_counts.end() && --it->second == 0) {
          singleton_counts.erase(it);
        }
      }
    }
  }

  /// Re-buckets every atom when the most common singleton key has grown
  /// past twice the current key's count (or there was none): a key that
  /// pins few atoms degrades every check towards a global scan, while
  /// the factor keeps re-bucketing rare as the corpus grows.
  void maybe_repartition() {
    const AttributeKey* best = nullptr;
    std::size_t best_count = 0;
    for (const auto& [key, n] : singleton_counts) {
      if (n > best_count) {
        best = &key;
        best_count = n;
      }
    }
    if (best == nullptr) return;
    std::size_t current = 0;
    if (partition_key) {
      const auto it = singleton_counts.find(*partition_key);
      current = it == singleton_counts.end() ? 0 : it->second;
      if (best_count <= 2 * current) return;
    }
    partition_key = *best;
    buckets.clear();
    global = Bucket{};
    for (auto& [id, root] : roots) {
      for (std::uint32_t i = 0; i < root->atoms.size(); ++i) bucket_atom(root.get(), i);
    }
  }

  /// Takes `root` out of the buckets, the singleton counts, the reverse
  /// edges and its partners' links, and destroys it.
  void remove(Root* root) {
    for (std::uint32_t i = 0; i < root->atoms.size(); ++i) unbucket_atom(root, i);
    count_singletons(*root, -1);
    for (const std::string& ref : root->referenced) {
      const auto it = referrers.find(ref);
      if (it == referrers.end()) continue;
      it->second.erase(root->id);
      if (it->second.empty()) referrers.erase(it);
    }
    // Each partner appears once per run in `root->links`.
    for (auto it = root->links.begin(); it != root->links.end(); ++it) {
      if (it != root->links.begin() && std::prev(it)->other == it->other) continue;
      std::vector<Link>& theirs = it->other->links;
      const auto [lo, hi] = std::equal_range(theirs.begin(), theirs.end(), root->serial,
                                             LinkOrder{});
      theirs.erase(lo, hi);
    }
    roots.erase(roots.find(root->id));
  }

  /// `root`'s dangling / withdrawn reference findings. `candidate` (the
  /// id being staged, or null) resolves as if it were a root already.
  std::vector<Finding> check_references(const Root& root, const AnalyzerOptions& options,
                                        const std::string* candidate) const {
    if (!options.references || root.refs.empty()) return {};
    ReportBuilder rb(0);
    for (const RefEdge& edge : root.refs) {
      const bool resolves =
          (candidate != nullptr && edge.ref_id == *candidate) ||
          (options.resolves ? options.resolves(edge.ref_id) : roots.count(edge.ref_id) > 0);
      if (resolves) continue;
      reference_edge_finding(edge, options.withdrawn && options.withdrawn(edge.ref_id),
                             &rb);
    }
    return std::move(rb.finish().findings);
  }

  /// Edges between roots for the cycle pass; `candidate` stands in for
  /// the root of its id.
  ReferenceGraph reference_graph(const Root* candidate) const {
    const auto is_root = [&](const std::string& id) {
      return roots.count(id) > 0 || (candidate != nullptr && id == candidate->id);
    };
    ReferenceGraph edges;
    const auto add = [&](const Root& root) {
      for (const std::string& ref : root.referenced) {
        if (is_root(ref)) edges[root.id].push_back(ref);
      }
    };
    for (const auto& [id, root] : roots) {
      if (candidate == nullptr || id != candidate->id) add(*root);
    }
    if (candidate != nullptr) add(*candidate);
    return edges;
  }
};

IncrementalAnalysis::Staged::Staged() = default;
IncrementalAnalysis::Staged::Staged(Staged&&) noexcept = default;
IncrementalAnalysis::Staged& IncrementalAnalysis::Staged::operator=(Staged&&) noexcept =
    default;
IncrementalAnalysis::Staged::~Staged() = default;

IncrementalAnalysis::IncrementalAnalysis() : index_(std::make_unique<Index>()) {}
IncrementalAnalysis::~IncrementalAnalysis() = default;

IncrementalAnalysis::Staged IncrementalAnalysis::stage(
    const core::PolicyTreeNode& node, const AnalyzerOptions& options) const {
  Staged staged;
  staged.generation_ = index_->generation;
  staged.root_ = std::make_unique<Root>();
  Root& root = *staged.root_;
  root.id = node.id();

  // The per-root passes, uncapped.
  Collection col;
  collect_node(node, root.id, root.id, ExtractedTarget{}, &col);
  ReportBuilder rb(0);
  if (options.shadowing) {
    for (const PolicyInfo& pi : col.policies) shadow_rules(pi, &rb);
    for (const SetInfo& si : col.sets) shadow_set_children(si, &rb);
  }
  if (options.conflicts) {
    for (const SetInfo& si : col.sets) only_one_applicable_overlaps(si, &rb);
  }
  if (options.types || options.dead_code) {
    types_and_dead_code(node, root.id, root.id, options.types, options.dead_code, &rb);
  }
  if (options.dead_code) {
    for (const PolicyInfo& pi : col.policies) never_applicable_rules(pi, &rb);
  }
  root.findings = std::move(rb.finish().findings);
  root.atoms = std::move(col.atoms);
  root.refs = std::move(col.refs);
  root.referenced = core::referenced_policy_ids(node);
  root.attribute_names = core::referenced_attribute_names(node);
  root.reference_findings = index_->check_references(root, options, &root.id);

  ReportBuilder totals = ReportBuilder::counting();
  for (const Finding& f : root.findings) totals.add(f);
  for (const Finding& f : root.reference_findings) totals.add(f);
  if (options.vocabulary != nullptr) {
    vocabulary_findings(root.id, root.attribute_names, *options.vocabulary, &totals);
  }

  // Conflicts: each candidate atom against the opposite-effect atoms of
  // its own bucket and the global list; an atom the partition key does
  // not pin meets every bucket.
  if (options.conflicts) {
    const Root* replaced = index_->find(root.id);
    const auto check = [&](std::uint32_t mine, const std::vector<AtomRef>& others) {
      const Atom& atom = root.atoms[mine];
      for (const auto& [other, theirs] : others) {
        if (other == replaced) continue;
        const Atom& that = other->atoms[theirs];
        if (!overlaps(atom.constraints, that.constraints)) continue;
        staged.links_.push_back({other, mine, theirs});
        totals.add(Pass::kModalityConflict, link_severity(atom, that),
                   [] { return Finding{}; });
      }
    };
    for (std::uint32_t i = 0; i < root.atoms.size(); ++i) {
      const core::Effect effect = root.atoms[i].effect;
      if (const std::string* value = index_->pinned_value(root.atoms[i])) {
        const auto it = index_->buckets.find(*value);
        if (it != index_->buckets.end()) check(i, it->second.opposite_of(effect));
      } else {
        for (const auto& [value, bucket] : index_->buckets) {
          check(i, bucket.opposite_of(effect));
        }
      }
      check(i, index_->global.opposite_of(effect));
    }
  }

  // Reference cycles through the candidate: only possible when it
  // refers to a root (itself included).
  if (options.references) {
    const bool refers_to_root = std::any_of(
        root.referenced.begin(), root.referenced.end(), [&](const std::string& ref) {
          return ref == root.id || index_->roots.count(ref) > 0;
        });
    if (refers_to_root) {
      ReportBuilder cycles(0);
      reference_cycles(index_->reference_graph(&root), &cycles);
      for (const Finding& f : cycles.finish().findings) {
        if (f.root_id == root.id || f.other_root_id == root.id) totals.add(f);
      }
    }
  }
  staged.errors_ = totals.totals().error_count;
  staged.warnings_ = totals.totals().warning_count;
  staged.infos_ = totals.totals().info_count;
  return staged;
}

void IncrementalAnalysis::commit(Staged staged, const AnalyzerOptions& options) {
  Index& index = *index_;
  if (staged.root_ == nullptr || staged.generation_ != index.generation) {
    throw std::logic_error("IncrementalAnalysis::commit: stale or empty stage");
  }
  const std::string id = staged.root_->id;
  if (const auto it = index.roots.find(id); it != index.roots.end()) {
    index.remove(it->second.get());
  }
  Root* root = staged.root_.get();
  root->serial = index.next_serial++;
  index.roots.emplace(id, std::move(staged.root_));
  for (std::uint32_t i = 0; i < root->atoms.size(); ++i) index.bucket_atom(root, i);
  index.count_singletons(*root, +1);
  root->links = std::move(staged.links_);
  std::sort(root->links.begin(), root->links.end(), [](const Link& a, const Link& b) {
    return std::tie(a.other->serial, a.mine, a.theirs) <
           std::tie(b.other->serial, b.mine, b.theirs);
  });
  for (const Link& link : root->links) {
    link.other->links.push_back({root, link.theirs, link.mine});
  }
  for (const std::string& ref : root->referenced) index.referrers[ref].insert(id);
  index.maybe_repartition();
  ++index.generation;
  refresh_references(id, options);
}

void IncrementalAnalysis::erase(const std::string& root_id,
                                const AnalyzerOptions& options) {
  const auto it = index_->roots.find(root_id);
  if (it == index_->roots.end()) return;
  index_->remove(it->second.get());
  index_->maybe_repartition();
  ++index_->generation;
  refresh_references(root_id, options);
}

void IncrementalAnalysis::set_compiled(
    const std::string& root_id, std::shared_ptr<const core::CompiledPolicyTree> compiled) {
  const auto it = index_->roots.find(root_id);
  if (it != index_->roots.end()) it->second->compiled = std::move(compiled);
}

void IncrementalAnalysis::refresh_references(const std::string& id,
                                             const AnalyzerOptions& options) {
  const auto it = index_->referrers.find(id);
  if (it == index_->referrers.end()) return;
  for (const std::string& referrer : it->second) {
    const auto root = index_->roots.find(referrer);
    if (root == index_->roots.end()) continue;
    root->second->reference_findings =
        index_->check_references(*root->second, options, nullptr);
  }
}

AnalysisReport IncrementalAnalysis::report(const AnalyzerOptions& options) const {
  ReportBuilder rb(options.max_findings_per_pass);
  for (const auto& [id, root] : index_->roots) {
    for (const Finding& f : root->findings) rb.add(f);
    for (const Finding& f : root->reference_findings) rb.add(f);
    if (options.vocabulary != nullptr) {
      vocabulary_findings(id, root->attribute_names, *options.vocabulary, &rb);
    }
    if (root->compiled != nullptr) {
      compile_findings(id, root->compiled->diagnostics(), &rb);
    }
  }
  if (options.conflicts) {
    for (const auto& [id, root] : index_->roots) {
      for (const Link& link : root->links) {
        if (link.other->serial < root->serial) continue;  // reported from there
        // A link is a proven overlap: stage() tested it.
        conflict_finding(root->atoms[link.mine], link.other->atoms[link.theirs], &rb);
      }
    }
  }
  if (options.references) reference_cycles(index_->reference_graph(nullptr), &rb);
  return rb.finish();
}

}  // namespace mdac::analysis
