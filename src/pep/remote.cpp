#include "pep/remote.hpp"

#include "core/serialization.hpp"
#include "runtime/engine.hpp"

namespace mdac::pep {

PdpService::PdpService(net::Network& network, std::string node_id,
                       std::shared_ptr<core::Pdp> pdp)
    : node_(network, std::move(node_id)), pdp_(std::move(pdp)) {
  node_.set_request_handler([this](const std::string& type,
                                   const std::string& payload,
                                   const std::string& /*from*/) {
    ++requests_served_;
    if (type == "ping") return std::string("pong");  // heartbeat probe
    if (type != kAuthzRequestType) {
      return core::decision_to_string(core::Decision::indeterminate(
          core::IndeterminateExtent::kDP,
          core::Status::processing_error("unknown request type '" + type + "'")));
    }
    core::Decision decision;
    try {
      const core::RequestContext request = core::request_from_string(payload);
      if (name_filter_) {
        // Validate the wire vocabulary before evaluation: reject the
        // whole request on the first attribute name outside the
        // domain's allowlist (fail-safe — the PEP's deny bias applies).
        // Walks the two entry vectors directly — order is irrelevant
        // here and entries_by_name() allocates.
        const std::string* rejected = nullptr;
        for (const core::RequestContext::Entry& entry : request.attributes()) {
          if (!name_filter_(entry.name())) {
            rejected = &entry.name();
            break;
          }
        }
        for (const core::RequestContext::SideEntry& entry : request.side_attributes()) {
          if (rejected != nullptr) break;
          if (!name_filter_(entry.name)) rejected = &entry.name;
        }
        if (rejected != nullptr) {
          ++filter_rejections_;
          return core::decision_to_string(core::Decision::indeterminate(
              core::IndeterminateExtent::kDP,
              core::Status::syntax_error("attribute name not in domain vocabulary: '" +
                                         *rejected + "'")));
        }
      }
      if (engine_ != nullptr) {
        // Multi-threaded path: hand the request to the runtime's worker
        // pool and wait for completion. Sheds already carry a fail-safe
        // Indeterminate{DP} decision, so they encode like any other.
        decision = std::move(engine_->submit(request).get().decision);
      } else {
        decision = pdp_->evaluate(request);
      }
    } catch (const std::exception& e) {
      decision = core::Decision::indeterminate(
          core::IndeterminateExtent::kDP,
          core::Status::syntax_error(std::string(kBadRequestStatusPrefix) + ": " +
                                     e.what()));
    }
    return core::decision_to_string(decision);
  });
}

ReplyClass classify_reply(const core::Decision& decision) {
  if (!decision.is_indeterminate()) return ReplyClass::kDeliverable;
  const std::string& message = decision.status.message;
  if (runtime::is_shed_status(message)) return ReplyClass::kRetryable;
  if (message == runtime::kNoSnapshotMessage) return ReplyClass::kRetryable;
  if (decision.status.code == core::StatusCode::kSyntaxError &&
      message.starts_with(kBadRequestStatusPrefix)) {
    return ReplyClass::kRetryable;
  }
  return ReplyClass::kDeliverable;
}

RemotePdpClient::RemotePdpClient(net::Network& network, std::string node_id,
                                 std::string pdp_node_id, common::Duration timeout)
    : node_(network, std::move(node_id)),
      pdp_node_(std::move(pdp_node_id)),
      timeout_(timeout) {}

void RemotePdpClient::evaluate(const core::RequestContext& request,
                               DecisionCallback callback) {
  node_.call(pdp_node_, kAuthzRequestType, core::request_to_string(request),
             timeout_, [callback](std::optional<std::string> response) {
               if (!response.has_value()) {
                 callback(core::Decision::indeterminate(
                     core::IndeterminateExtent::kDP,
                     core::Status::processing_error("decision query timed out")));
                 return;
               }
               try {
                 callback(core::decision_from_string(*response));
               } catch (const std::exception& e) {
                 callback(core::Decision::indeterminate(
                     core::IndeterminateExtent::kDP,
                     core::Status::syntax_error(
                         std::string("undecodable decision: ") + e.what())));
               }
             });
}

}  // namespace mdac::pep
