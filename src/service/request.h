#pragma once

#include <string>
#include <string_view>

#include "cluster/cluster.h"
#include "common/hash.h"
#include "core/planner/planner.h"
#include "model/model.h"

namespace dpipe {

/// One planning request as the plan service sees it: which model, on which
/// cluster, under which planner settings. Its identity is written two ways
/// by one walk: canonical_request_text() (portable bytes) and
/// request_key() (the in-process cache key).
struct PlanRequest {
  ModelDesc model;
  ClusterSpec cluster;
  PlannerOptions options;
};

/// The canonical byte encoding of a request: model profile bytes, cluster
/// topology, and every *result-visible* planner option, in a fixed order
/// with doubles as printf "%.17g" (CanonicalWriter). Two requests
/// canonicalize identically iff the planner is guaranteed to produce
/// bit-identical plans for them, so this text is both
///   - the fingerprint input (Fingerprint names the entry on disk/wire),
///   - the wire encoding of a request (it parses back losslessly).
/// The plan service writes it only when it plans (a cache miss); lookups
/// use request_key().
///
/// Result-INVISIBLE options are deliberately excluded so they cannot
/// fragment the cache: search_threads and cache_store both leave the
/// selected plan and the `explored` list bit-identical by the planner's
/// determinism contract. Empty candidate lists are resolved to their
/// defaults first (Planner::apply_default_candidates), so "defaulted" and
/// "explicitly-default" requests share one cache entry. The text starts
/// with "dpipe-plan-request v2"; v1 payloads no longer parse.
[[nodiscard]] std::string canonical_request_text(const PlanRequest& request);

/// The whole-plan cache key: the same walk as canonical_request_text with
/// each double written as its 8 raw bytes (DoubleFormat::kRawBits), so
/// no number is formatted. For requests of finite doubles, equal keys iff
/// equal texts. The key never leaves the process: it is not persisted,
/// sent or fingerprinted.
[[nodiscard]] std::string request_key(const PlanRequest& request);

/// Parses canonical_request_text output (excluded options take their
/// defaults). canonical_request_text(parse_request_text(t)) == t.
/// Throws std::invalid_argument on malformed input, including a numeric
/// field that is empty, out of double range, or followed by stray bytes.
[[nodiscard]] PlanRequest parse_request_text(std::string_view text);

/// Fingerprint of canonical_request_text(request).
[[nodiscard]] Fingerprint request_fingerprint(const PlanRequest& request);

/// Fingerprint of the model profile bytes alone.
[[nodiscard]] Fingerprint model_fingerprint(const ModelDesc& model);

/// Fingerprint of the cluster topology alone — the invalidation key when a
/// cluster changes shape (plans for the old topology are stale).
[[nodiscard]] Fingerprint cluster_fingerprint(const ClusterSpec& cluster);

}  // namespace dpipe
