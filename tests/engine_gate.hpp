// Test lever shared by the runtime suites: a resolver whose "gate"
// attribute blocks until opened, and a store that consults it on every
// evaluation. Together they wedge engine workers inside an evaluation,
// so queueing, shedding, deadlines and shutdown races become observable.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/evaluation.hpp"
#include "core/expression.hpp"
#include "core/policy.hpp"

namespace mdac::runtime {

/// An AttributeResolver whose resolutions block until opened.
/// Thread-safe (the engine contract for shared resolvers).
class GateResolver : public core::AttributeResolver {
 public:
  std::optional<core::Bag> resolve(core::Category /*category*/,
                                   const std::string& id,
                                   const core::RequestContext& /*request*/) override {
    if (id != "gate") return std::nullopt;
    std::unique_lock lock(mutex_);
    ++entered_;
    entered_cv_.notify_all();
    open_cv_.wait(lock, [this] { return open_; });
    return core::Bag(core::AttributeValue(true));
  }

  void open() {
    {
      std::lock_guard lock(mutex_);
      open_ = true;
    }
    open_cv_.notify_all();
  }

  /// Blocks the calling (test) thread until `n` resolutions are wedged.
  void wait_until_blocked(std::size_t n) {
    std::unique_lock lock(mutex_);
    entered_cv_.wait(lock, [&] { return entered_ >= n; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable open_cv_;
  std::condition_variable entered_cv_;
  bool open_ = false;
  std::size_t entered_ = 0;
};

/// A store whose single policy permits "read" only once the "gate"
/// environment attribute resolves true — every evaluation goes through
/// the resolver.
inline std::shared_ptr<core::PolicyStore> make_gated_store() {
  auto store = std::make_shared<core::PolicyStore>();
  core::Policy p;
  p.policy_id = "gated";
  core::Rule r;
  r.id = "permit-when-open";
  r.effect = core::Effect::kPermit;
  r.condition = core::designator(core::Category::kEnvironment, "gate",
                                 core::DataType::kBoolean, /*must_be_present=*/true);
  p.rules.push_back(std::move(r));
  store->add(std::move(p));
  return store;
}

}  // namespace mdac::runtime
