// XML (de)serialisation of policies, requests and responses — the
// XACML-shaped wire dialect (see DESIGN.md substitutions).
//
// This is what makes the architecture *interoperable* in the paper's
// sense (§3.2): every PAP→PDP policy retrieval, PEP→PDP decision query
// and syndication push crosses domains as one of these documents. The
// encoding is intentionally as verbose as XACML's, because that verbosity
// is itself measured by experiment C2.
//
// The wire hop streams. request_from_string() decodes straight from
// xml::Reader tokens into RequestContext::add() without building an
// element tree, and decision_to_string() writes the response into a
// per-thread buffer and returns one exact-size string. Everything else
// (policies, request_to_string, decision_from_string) goes through an
// xml::Element tree.
//
// Error precedence: a document is always lexed to its end before a
// semantic error is raised. A malformed document therefore throws
// xml::ParseError (same text, line and column as xml::parse) even when
// it also carries a semantic error earlier on, such as a wrong root or
// an unknown category; only a well-formed document throws
// SerializationError, for the first semantic error in document order.
#pragma once

#include <stdexcept>
#include <string>

#include "core/decision.hpp"
#include "core/pdp.hpp"
#include "core/policy.hpp"
#include "core/request.hpp"
#include "xml/xml.hpp"

namespace mdac::core {

class SerializationError : public std::runtime_error {
 public:
  explicit SerializationError(const std::string& message)
      : std::runtime_error("serialization error: " + message) {}
};

// --- Expressions ------------------------------------------------------
xml::Element expr_to_xml(const Expression& expr);
ExprPtr expr_from_xml(const xml::Element& element);  // throws

// --- Policy trees ------------------------------------------------------
xml::Element target_to_xml(const Target& target);
Target target_from_xml(const xml::Element& element);

xml::Element rule_to_xml(const Rule& rule);
Rule rule_from_xml(const xml::Element& element);

xml::Element policy_to_xml(const Policy& policy);
Policy policy_from_xml(const xml::Element& element);

xml::Element policy_set_to_xml(const PolicySet& policy_set);
PolicySet policy_set_from_xml(const xml::Element& element);

/// Serialises any node (Policy, PolicySet or PolicyReference).
xml::Element node_to_xml(const PolicyTreeNode& node);
PolicyNodePtr node_from_xml(const xml::Element& element);

// --- Contexts ------------------------------------------------------------
xml::Element request_to_xml(const RequestContext& request);

Decision decision_from_xml(const xml::Element& element);

// --- Convenience string round-trips ---------------------------------------
std::string node_to_string(const PolicyTreeNode& node, bool pretty = false);
PolicyNodePtr node_from_string(const std::string& text);
std::string request_to_string(const RequestContext& request, bool pretty = false);
/// Streams: never builds an element tree (see the header comment).
RequestContext request_from_string(const std::string& text);
/// Streams: exactly one allocation once the thread's buffer is warm.
std::string decision_to_string(const Decision& decision);
Decision decision_from_string(const std::string& text);

}  // namespace mdac::core
