#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "service/plan_cache.h"
#include "service/request.h"

namespace dpipe {

class PlanService;

/// Wire framing for dpipe_plan_serve: each message is a 4-byte big-endian
/// length followed by that many payload bytes, over any byte stream (a Unix
/// socket or a stdio pipe pair). Payloads are the same canonical text forms
/// the cache and store use, so the wire encoding is free.

/// Maximum accepted frame payload (a guard against a corrupt or hostile
/// length prefix, not a protocol limit — real plans are well under this).
inline constexpr std::size_t kMaxFrameBytes = 64u * 1024u * 1024u;

/// Writes one frame, handling short writes. Throws std::runtime_error on
/// I/O failure (including a closed peer).
void write_frame(int fd, const std::string& payload);

/// Reads one frame. Returns std::nullopt on clean EOF at a frame boundary;
/// throws std::runtime_error on I/O failure, a truncated frame, or a length
/// prefix above kMaxFrameBytes. The payload grows in bounded chunks as
/// bytes arrive, so a truncated frame allocates at most one 64 KiB chunk
/// beyond the bytes it carried.
[[nodiscard]] std::optional<std::string> read_frame(int fd);

/// Request payload: a verb line then the verb's body.
///   "plan\n"  + canonical_request_text(request)   -> plan response
///   "stats\n"                                     -> stats text response
///   "shutdown\n"                                  -> server stops serving
[[nodiscard]] std::string encode_plan_request(const PlanRequest& request);

/// A decoded plan response. `ok` false means the server reported an error
/// (message in `error`); otherwise `plan` holds the full verified entry and
/// `cache_hit` tells whether the server answered from its cache.
struct PlanResponse {
  bool ok = false;
  bool cache_hit = false;
  std::string error;
  std::shared_ptr<const CachedPlan> plan;
};

/// Response payload for "plan": "ok hit=<0|1>\n" + save_plan_entry bytes,
/// or "error <message>" on failure.
[[nodiscard]] std::string encode_plan_response(const CachedPlan& plan,
                                               bool cache_hit);
[[nodiscard]] std::string encode_error_response(const std::string& message);

/// Decodes a plan response, re-verifying a successful payload exactly like
/// the plan store does (fingerprints re-derived, program parsed). Transport
/// corruption surfaces as a thrown std::invalid_argument, never as a
/// silently wrong plan.
[[nodiscard]] PlanResponse decode_plan_response(std::string_view payload);

struct ServeResult {
  std::size_t requests_answered = 0;
  bool shutdown_requested = false;  ///< Client sent "shutdown".
};

/// Serves framed requests from `in_fd`, writing responses to `out_fd`,
/// until EOF, a "shutdown" request, or `max_requests` plan/stats requests
/// have been answered (0 = unlimited). Per-request planner errors are
/// reported to the client as error responses; the loop keeps serving.
ServeResult serve_connection(PlanService& service, int in_fd, int out_fd,
                             std::size_t max_requests = 0);

}  // namespace dpipe
