// The request context: the authorisation decision query a PEP sends to a
// PDP (paper Fig. 3/4, step II). Holds every attribute the PEP chose to
// disclose; anything else the PDP needs is pulled from PIPs at decision
// time through an AttributeResolver.
//
// Storage is a flat vector sorted by (category, interned name): lookups
// by pre-interned Symbol are a binary search over integers, which is
// what lets PDP candidate selection and cache-key fingerprinting stay
// allocation-free (see common/interner.hpp). Semantically equal requests
// built under the *same interner state* — however their attributes were
// added — hold identical entry sequences and compare equal. If a name is
// interned between two requests' construction, the earlier one carries
// it in the side table and the later one in the symbol-keyed storage:
// they then compare unequal and fingerprint differently, which costs a
// cache miss, never a wrong decision — callers must not use operator==
// across interner-state changes for request dedup.
//
// Interner boundary: adding an attribute never grows the process-global
// interner. Names that are already interned (the policy vocabulary,
// pre-registered ids) go into the sorted symbol-keyed storage; names
// nobody interned — which on the wire path means attacker-chosen names —
// are kept in a small per-request *side table* sorted by (category,
// name). This is what makes interner exhaustion a per-request nuisance
// instead of a process-wide denial of service: one abusive peer filling
// the symbol table cannot stop other peers' fresh attribute names from
// being carried and evaluated (they just ride the side table). Lookups
// fall back to the side table only when it is non-empty, so the hot path
// (all names known) pays nothing — a symbol-probe miss means absent.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.hpp"
#include "core/attribute.hpp"

namespace mdac::core {

class RequestContext {
 public:
  /// One (category, attribute) bag in the symbol-keyed storage; `id`
  /// indexes the global interner. 56 bytes: the entry binary search
  /// strides over these.
  struct Entry {
    Category category;
    common::Symbol id;
    Bag bag;

    /// The attribute's name, resolved through the interner.
    const std::string& name() const { return common::interner().name(id); }

    bool operator==(const Entry&) const = default;
  };

  /// One (category, attribute) bag in the side table: an un-interned
  /// wire name, carried in place. A separate type so the symbol-keyed
  /// entries the hot path searches carry no name string.
  struct SideEntry {
    Category category;
    std::string name;
    Bag bag;

    bool operator==(const SideEntry&) const = default;
  };

  /// One attribute wherever it is stored: what the wire-stable walk
  /// (entries_by_name) yields.
  struct NamedEntry {
    Category category;
    const std::string* name;
    const Bag* bag;
  };

  /// Adds a value to the (category, id) bag, creating the bag if needed.
  /// Never interns: a name the process already knows goes into the
  /// symbol-keyed storage, an unknown name into the side table.
  void add(Category category, std::string_view id, AttributeValue value);

  /// As above for callers that pre-interned the name (attrs::Symbols):
  /// skips the interner probe entirely.
  void add(Category category, common::Symbol id, AttributeValue value);

  /// Replaces the whole bag.
  void set(Category category, const std::string& id, Bag bag);

  /// Returns the bag, or nullptr if the attribute was not provided.
  const Bag* get(Category category, const std::string& id) const;

  /// Hot-path overload for callers that pre-interned the name (the PDP
  /// target index): two int compares per probe, no string hashing. Falls
  /// back to a name comparison against the side table only when the side
  /// table is non-empty (a request parsed before its vocabulary was
  /// interned — e.g. before the first index rebuild — still resolves).
  const Bag* get(Category category, common::Symbol id) const;

  bool has(Category category, const std::string& id) const {
    return get(category, id) != nullptr;
  }

  /// Flat view of the interned attributes (sorted by category, then
  /// interned name), for candidate selection and fingerprinting. Side
  /// entries are NOT included — fingerprinting and serialisation must
  /// also walk side_attributes().
  const std::vector<Entry>& attributes() const { return entries_; }

  /// The un-interned side table, sorted by (category, name). Empty
  /// unless the request carried attribute names nobody interned.
  const std::vector<SideEntry>& side_attributes() const { return side_; }

  /// Entries re-sorted by (category, attribute *name*): the wire-stable
  /// order, independent of per-process interning order. Used by every
  /// serialised/canonical form (request_to_xml, canonical_request_key)
  /// so they cannot drift apart. Allocates; not for hot paths.
  std::vector<NamedEntry> entries_by_name() const;

  std::size_t size() const { return entries_.size() + side_.size(); }

  bool operator==(const RequestContext&) const = default;

  // --- Convenience constructors -------------------------------------

  /// The canonical subject/resource/action triple request.
  static RequestContext make(const std::string& subject_id,
                             const std::string& resource_id,
                             const std::string& action_id);

 private:
  Entry& entry_for(Category category, common::Symbol id);
  SideEntry& side_entry_for(Category category, std::string_view name);
  const Bag* side_get(Category category, std::string_view name) const;
  /// Folds a stale side entry for (category, name) — one created before
  /// the name was interned — into `into`, so a write after late
  /// interning cannot split one logical bag across the two storages.
  /// `keep_values` is false when the caller is about to replace the bag.
  void absorb_side_entry(Category category, std::string_view name, Entry& into,
                         bool keep_values);

  std::vector<Entry> entries_;  // interned, sorted by (category, id)
  std::vector<SideEntry> side_;  // un-interned, sorted by (category, name)
};

/// Fluent builder for more involved requests.
class RequestBuilder {
 public:
  RequestBuilder& subject(const std::string& id);
  RequestBuilder& subject_attr(const std::string& attr_id, AttributeValue v);
  RequestBuilder& resource(const std::string& id);
  RequestBuilder& resource_attr(const std::string& attr_id, AttributeValue v);
  RequestBuilder& action(const std::string& id);
  RequestBuilder& action_attr(const std::string& attr_id, AttributeValue v);
  RequestBuilder& environment_attr(const std::string& attr_id, AttributeValue v);

  RequestContext build() const { return ctx_; }

 private:
  RequestContext ctx_;
};

}  // namespace mdac::core
