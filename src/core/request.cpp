#include "core/request.hpp"

#include <algorithm>
#include <utility>

namespace mdac::core {

namespace {

/// Strict weak order over entries: category first, then interned name.
bool entry_before(const RequestContext::Entry& e, Category category,
                  common::Symbol id) {
  if (e.category != category) return e.category < category;
  return e.id < id;
}

/// The one binary-search probe shared by lookups and inserts: returns the
/// position (category, id) occupies or would occupy.
template <typename Entries>
auto probe(Entries& entries, Category category, common::Symbol id) {
  return std::lower_bound(
      entries.begin(), entries.end(), std::make_pair(category, id),
      [](const auto& e, const std::pair<Category, common::Symbol>& key) {
        return entry_before(e, key.first, key.second);
      });
}

}  // namespace

namespace {

/// Strict weak order over side entries: category first, then name.
bool side_before(const RequestContext::SideEntry& e, Category category,
                 std::string_view name) {
  if (e.category != category) return e.category < category;
  return e.name < name;
}

}  // namespace

RequestContext::Entry& RequestContext::entry_for(Category category,
                                                 common::Symbol id) {
  const auto it = probe(entries_, category, id);
  if (it != entries_.end() && it->category == category && it->id == id) return *it;
  // Value-initialised in place, then filled: inserting a braced
  // temporary trips GCC 12's -Wmaybe-uninitialized on the bag's storage.
  const auto inserted = entries_.emplace(it);
  inserted->category = category;
  inserted->id = id;
  return *inserted;
}

RequestContext::SideEntry& RequestContext::side_entry_for(Category category,
                                                          std::string_view name) {
  const auto it = std::lower_bound(
      side_.begin(), side_.end(), name,
      [category](const SideEntry& e, std::string_view n) {
        return side_before(e, category, n);
      });
  if (it != side_.end() && it->category == category && it->name == name) return *it;
  return *side_.insert(it, SideEntry{category, std::string(name), Bag()});
}

const Bag* RequestContext::side_get(Category category, std::string_view name) const {
  const auto it = std::lower_bound(
      side_.begin(), side_.end(), name,
      [category](const SideEntry& e, std::string_view n) {
        return side_before(e, category, n);
      });
  if (it == side_.end() || it->category != category || it->name != name) {
    return nullptr;
  }
  return &it->bag;
}

void RequestContext::absorb_side_entry(Category category, std::string_view name,
                                       Entry& into, bool keep_values) {
  const auto it = std::lower_bound(
      side_.begin(), side_.end(), name,
      [category](const SideEntry& e, std::string_view n) {
        return side_before(e, category, n);
      });
  if (it == side_.end() || it->category != category || it->name != name) {
    return;
  }
  if (keep_values) {
    for (const AttributeValue& v : it->bag.values()) into.bag.add(v);
  }
  side_.erase(it);
}

void RequestContext::add(Category category, std::string_view id,
                         AttributeValue value) {
  // Never intern here: this is the wire-facing entry point, and interning
  // is permanent. Unknown names ride the per-request side table instead
  // (see the header comment on the interner boundary).
  if (const auto sym = common::interner().find(id)) {
    Entry& entry = entry_for(category, *sym);
    // The name may have been interned after an earlier add() parked it in
    // the side table; fold that entry in so one attribute stays one bag.
    if (!side_.empty()) absorb_side_entry(category, id, entry, /*keep_values=*/true);
    entry.bag.add(std::move(value));
  } else {
    side_entry_for(category, id).bag.add(std::move(value));
  }
}

void RequestContext::add(Category category, common::Symbol id, AttributeValue value) {
  Entry& entry = entry_for(category, id);
  if (!side_.empty()) {
    absorb_side_entry(category, common::interner().name(id), entry,
                      /*keep_values=*/true);
  }
  entry.bag.add(std::move(value));
}

void RequestContext::set(Category category, const std::string& id, Bag bag) {
  if (const auto sym = common::interner().find(id)) {
    Entry& entry = entry_for(category, *sym);
    if (!side_.empty()) absorb_side_entry(category, id, entry, /*keep_values=*/false);
    entry.bag = std::move(bag);
  } else {
    side_entry_for(category, id).bag = std::move(bag);
  }
}

const Bag* RequestContext::get(Category category, common::Symbol id) const {
  const auto it = probe(entries_, category, id);
  if (it != entries_.end() && it->category == category && it->id == id) {
    return &it->bag;
  }
  // Miss-means-absent fast path: with no side entries (every name in the
  // request was known when it was built — the steady state), a symbol
  // probe miss is definitive. Otherwise the name may have been interned
  // *after* this request was parsed, so compare against the side names.
  if (side_.empty()) return nullptr;
  return side_get(category, common::interner().name(id));
}

const Bag* RequestContext::get(Category category, const std::string& id) const {
  // find() never inserts; an id nobody interned cannot be in entries_,
  // but it can sit in the side table.
  if (const auto sym = common::interner().find(id)) {
    const auto it = probe(entries_, category, *sym);
    if (it != entries_.end() && it->category == category && it->id == *sym) {
      return &it->bag;
    }
  }
  if (side_.empty()) return nullptr;
  return side_get(category, id);
}

std::vector<RequestContext::NamedEntry> RequestContext::entries_by_name() const {
  // Resolve each name once (each name() call takes the interner's shared
  // lock; resolving inside the sort comparator would take it 2*n*log(n)
  // times). The references stay valid for the interner's lifetime.
  std::vector<NamedEntry> named;
  named.reserve(entries_.size() + side_.size());
  for (const Entry& e : entries_) named.push_back({e.category, &e.name(), &e.bag});
  for (const SideEntry& e : side_) named.push_back({e.category, &e.name, &e.bag});
  std::sort(named.begin(), named.end(), [](const NamedEntry& a, const NamedEntry& b) {
    if (a.category != b.category) return a.category < b.category;
    return *a.name < *b.name;
  });
  return named;
}

RequestContext RequestContext::make(const std::string& subject_id,
                                    const std::string& resource_id,
                                    const std::string& action_id) {
  const attrs::Symbols& syms = attrs::Symbols::get();
  RequestContext ctx;
  ctx.add(Category::kSubject, syms.subject_id, AttributeValue(subject_id));
  ctx.add(Category::kResource, syms.resource_id, AttributeValue(resource_id));
  ctx.add(Category::kAction, syms.action_id, AttributeValue(action_id));
  return ctx;
}

RequestBuilder& RequestBuilder::subject(const std::string& id) {
  ctx_.add(Category::kSubject, attrs::Symbols::get().subject_id, AttributeValue(id));
  return *this;
}

RequestBuilder& RequestBuilder::subject_attr(const std::string& attr_id,
                                             AttributeValue v) {
  ctx_.add(Category::kSubject, attr_id, std::move(v));
  return *this;
}

RequestBuilder& RequestBuilder::resource(const std::string& id) {
  ctx_.add(Category::kResource, attrs::Symbols::get().resource_id, AttributeValue(id));
  return *this;
}

RequestBuilder& RequestBuilder::resource_attr(const std::string& attr_id,
                                              AttributeValue v) {
  ctx_.add(Category::kResource, attr_id, std::move(v));
  return *this;
}

RequestBuilder& RequestBuilder::action(const std::string& id) {
  ctx_.add(Category::kAction, attrs::Symbols::get().action_id, AttributeValue(id));
  return *this;
}

RequestBuilder& RequestBuilder::action_attr(const std::string& attr_id,
                                            AttributeValue v) {
  ctx_.add(Category::kAction, attr_id, std::move(v));
  return *this;
}

RequestBuilder& RequestBuilder::environment_attr(const std::string& attr_id,
                                                 AttributeValue v) {
  ctx_.add(Category::kEnvironment, attr_id, std::move(v));
  return *this;
}

}  // namespace mdac::core
