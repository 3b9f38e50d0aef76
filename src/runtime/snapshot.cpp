#include "runtime/snapshot.hpp"

namespace mdac::runtime {

std::shared_ptr<const PolicySnapshot> SnapshotPublisher::publish(
    std::shared_ptr<core::PolicyStore> store) {
  std::lock_guard lock(mutex_);
  const std::uint64_t version = version_.load(std::memory_order_relaxed) + 1;
  auto snapshot = std::make_shared<const PolicySnapshot>(version, std::move(store));
  current_ = snapshot;
  // Release-ordered after current_ is in place: a reader that observes
  // version v through current_version() will observe a current() whose
  // version is >= v (current() synchronises through the mutex).
  version_.store(version, std::memory_order_release);
  return snapshot;
}

std::shared_ptr<const PolicySnapshot> SnapshotPublisher::publish_from(
    const pap::PolicyRepository& repository) {
  auto store = std::make_shared<core::PolicyStore>();
  repository.load_into(store.get());
  return publish(std::move(store));
}

std::shared_ptr<const PolicySnapshot> SnapshotPublisher::current() const {
  std::lock_guard lock(mutex_);
  return current_;
}

pap::RepoOutcome RepositoryPublisher::issue(const std::string& policy_id,
                                            const std::string& actor) {
  pap::RepoOutcome outcome = repository_.issue(policy_id, actor);
  if (outcome) publisher_.publish_from(repository_);
  return outcome;
}

pap::RepoOutcome RepositoryPublisher::withdraw(const std::string& policy_id,
                                               const std::string& actor) {
  pap::RepoOutcome outcome = repository_.withdraw(policy_id, actor);
  if (outcome) publisher_.publish_from(repository_);
  return outcome;
}

}  // namespace mdac::runtime
