// Seeded inputs for the decision-service benchmark: the policy corpora
// the PAP loads, the request streams the load generator sends, and the
// reference decisions every delivered decision is checked against.
//
// Everything here is generated from the workload name and the --seed
// value; the program under test only ever sees these generated inputs.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/decision.hpp"
#include "core/policy.hpp"
#include "core/request.hpp"

namespace dbench {

/// A policy corpus in wire (XML) form, in the order the PAP issues it,
/// plus the one policy the administrative path re-issues. Version A of
/// that policy is the one issued at set-up; version B flips the effect
/// of one role's permit rule to deny.
struct Corpus {
  std::vector<std::string> documents;
  std::string flip_id;
  std::array<std::string, 2> flip_documents;
  /// Every obligation id a Permit can carry (the PEP registers a
  /// handler for each; an unhandled obligation would deny).
  std::vector<std::string> obligation_ids;
};

/// 200 role-gated policies over 8 administrative domains and 4 roles
/// (the shape of the bench_pdp `pdp_evaluate_domains_8` store).
Corpus federation_corpus();

/// 4 domains x 4 services x 12 leaf policies (192 leaves) as one
/// PolicySet tree per domain; every permit carries an audit obligation
/// naming the subject.
Corpus set_tree_corpus();

/// Builds the in-process store for policy version `variant` (0 = A,
/// 1 = B) of `corpus`, parsing the same documents the PAP receives.
std::shared_ptr<mdac::core::PolicyStore> reference_store(const Corpus& corpus,
                                                         int variant);

/// Width of the numeric part of a wire request's subject id. The load
/// generator overwrites these digits with the request's serial number,
/// so every wire request is distinct without re-encoding it.
inline constexpr std::size_t kSerialDigits = 10;

/// The requests one workload sends.
struct RequestPool {
  /// In-process form of every distinct request (for wire pools: the
  /// template with serial 0).
  std::vector<mdac::core::RequestContext> requests;
  /// Wire pools only: the XML form of requests[i], and the offsets of
  /// every serial-digit run inside it.
  std::vector<std::string> wire;
  std::vector<std::vector<std::size_t>> wire_serial_offsets;
  /// Send order as indexes into `requests`; the generator cycles it.
  std::vector<std::uint32_t> sequence;
};

/// 4,096 distinct federation requests, each deciding Permit or Deny,
/// sent in Zipf(1.0) popularity order.
RequestPool zipf_federation_pool(std::uint64_t seed);

/// 4,096 wire templates over the set-tree federation, sent uniformly;
/// each send stamps a fresh serial into the subject id.
RequestPool wire_set_tree_pool(std::uint64_t seed);

/// Writes `serial` as kSerialDigits decimal digits at each offset.
void stamp_serial(std::string& text, const std::vector<std::size_t>& offsets,
                  std::uint64_t serial);

/// Offsets of every occurrence of the serial-0 subject id's digits.
std::vector<std::size_t> serial_offsets(const std::string& text);

/// Reference decisions for every request of a pool under both policy
/// versions, from a single-threaded interpreted core::Pdp.
struct Oracle {
  std::array<std::vector<mdac::core::Decision>, 2> decisions;
  /// Wire pools only: decision_to_string of each reference (serial 0)
  /// and the offsets of the serial digits inside it.
  std::array<std::vector<std::string>, 2> encoded;
  std::array<std::vector<std::vector<std::size_t>>, 2> encoded_serial_offsets;
};

Oracle build_oracle(const Corpus& corpus, const RequestPool& pool);

/// True when `got` equals `expected` with its serial digits replaced by
/// `serial` — a byte-for-byte check of an encoded wire decision.
bool matches_with_serial(const std::string& got, const std::string& expected,
                         const std::vector<std::size_t>& offsets, std::uint64_t serial);

}  // namespace dbench
