#include "service/protocol.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "common/canonical.h"
#include "common/error.h"
#include "service/plan_store.h"
#include "service/service.h"

namespace dpipe {

namespace {

void write_all(int fd, const char* data, std::size_t bytes) {
  while (bytes > 0) {
    const ssize_t written = ::write(fd, data, bytes);
    if (written < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw std::runtime_error(std::string("frame write failed: ") +
                               std::strerror(errno));
    }
    data += written;
    bytes -= static_cast<std::size_t>(written);
  }
}

/// Reads exactly `bytes`. Returns false only on EOF before the first byte;
/// EOF mid-read (a truncated frame) throws.
bool read_all(int fd, char* data, std::size_t bytes) {
  std::size_t got = 0;
  while (got < bytes) {
    const ssize_t n = ::read(fd, data + got, bytes - got);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw std::runtime_error(std::string("frame read failed: ") +
                               std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0) {
        return false;
      }
      throw std::runtime_error("truncated frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

/// The stats verb's response body: one "key value" line per counter.
std::string stats_text(const PlanService& service) {
  const PlanService::Stats stats = service.stats();
  CanonicalWriter out;
  out << "ok\n";
  out << "cache_hits " << stats.cache.hits << '\n';
  out << "cache_misses " << stats.cache.misses << '\n';
  out << "single_flight_joins " << stats.cache.single_flight_joins << '\n';
  out << "cache_entries " << stats.cache.entries << '\n';
  out << "planner_runs " << stats.planner_runs << '\n';
  out << "store_loaded " << stats.store_loaded << '\n';
  return out.take();
}

}  // namespace

void write_frame(int fd, const std::string& payload) {
  require(payload.size() <= kMaxFrameBytes, "frame payload too large");
  const auto length = static_cast<std::uint32_t>(payload.size());
  char header[4] = {static_cast<char>((length >> 24) & 0xFF),
                    static_cast<char>((length >> 16) & 0xFF),
                    static_cast<char>((length >> 8) & 0xFF),
                    static_cast<char>(length & 0xFF)};
  write_all(fd, header, sizeof(header));
  write_all(fd, payload.data(), payload.size());
}

std::optional<std::string> read_frame(int fd) {
  char header[4];
  if (!read_all(fd, header, sizeof(header))) {
    return std::nullopt;
  }
  const std::uint32_t length =
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[0]))
       << 24) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[1]))
       << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[2]))
       << 8) |
      static_cast<std::uint32_t>(static_cast<unsigned char>(header[3]));
  if (length > kMaxFrameBytes) {
    throw std::runtime_error("frame length prefix exceeds limit");
  }
  // The payload grows in bounded chunks as its bytes arrive, so a length
  // prefix whose bytes never come costs one chunk, not the claimed size.
  constexpr std::size_t kChunkBytes = 64u * 1024u;
  std::string payload;
  while (payload.size() < length) {
    const std::size_t got = payload.size();
    const std::size_t chunk = std::min<std::size_t>(kChunkBytes, length - got);
    payload.resize(got + chunk);
    if (!read_all(fd, payload.data() + got, chunk)) {
      throw std::runtime_error("truncated frame");
    }
  }
  return payload;
}

std::string encode_plan_request(const PlanRequest& request) {
  return "plan\n" + canonical_request_text(request);
}

std::string encode_plan_response(const CachedPlan& plan, bool cache_hit) {
  CanonicalWriter out;
  out << "ok hit=" << (cache_hit ? 1 : 0) << '\n';
  save_plan_entry(out, plan);
  return out.take();
}

std::string encode_error_response(const std::string& message) {
  return "error " + message;
}

PlanResponse decode_plan_response(std::string_view payload) {
  PlanResponse response;
  CanonicalReader in(payload);
  const std::string_view verb = in.token("response verb");
  if (verb == "error") {
    const std::string_view message = in.rest().empty() ? "" : in.line("error");
    response.error = message.starts_with(' ') ? message.substr(1) : message;
    return response;
  }
  require(verb == "ok", "malformed response verb");
  const int hit = in.integer_field<int>("hit=");
  require((hit == 0 || hit == 1) && in.line("status line").empty(),
          "malformed response status line");
  response.cache_hit = hit == 1;
  // load_plan_entry re-verifies fingerprints and parses the program, so a
  // corrupted payload throws here instead of yielding a wrong plan.
  response.plan =
      std::make_shared<const CachedPlan>(load_plan_entry(in.rest()));
  response.ok = true;
  return response;
}

ServeResult serve_connection(PlanService& service, int in_fd, int out_fd,
                             std::size_t max_requests) {
  ServeResult result;
  while (max_requests == 0 || result.requests_answered < max_requests) {
    std::optional<std::string> payload = read_frame(in_fd);
    if (!payload.has_value()) {
      break;  // Clean EOF: the client is done.
    }
    const std::string_view frame = *payload;
    const std::size_t eol = frame.find('\n');
    const std::string_view verb = frame.substr(0, eol);
    if (verb == "shutdown") {
      result.shutdown_requested = true;
      write_frame(out_fd, "ok\n");
      break;
    }
    std::string response;
    if (verb == "plan") {
      try {
        // Parse (validates the payload) and re-canonicalize; a client that
        // sends non-canonical bytes still deduplicates correctly.
        const PlanRequest request = parse_request_text(frame.substr(eol + 1));
        bool cache_hit = false;
        const auto plan = service.plan(request, &cache_hit);
        response = encode_plan_response(*plan, cache_hit);
      } catch (const std::exception& error) {
        response = encode_error_response(error.what());
      }
    } else if (verb == "stats") {
      response = stats_text(service);
    } else {
      response = encode_error_response("unknown request verb: " +
                                       std::string(verb));
    }
    write_frame(out_fd, response);
    ++result.requests_answered;
  }
  return result;
}

}  // namespace dpipe
