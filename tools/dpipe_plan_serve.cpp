// dpipe_plan_serve: the planning service as a daemon. Clients (dpipe_plan
// --connect, or anything speaking the framed protocol) submit plan requests
// and get back the full verified plan entry; repeats are answered from the
// exact-match whole-plan cache, and with --store the cache survives
// restarts.
//
//   dpipe_plan_serve --socket <path> [options]   Unix socket server
//   dpipe_plan_serve --stdio [options]           one framed session on
//                                                stdin/stdout
// options:
//   --store <dir>        persist plans; warm-start from the directory
//   --threads <n>        planner search threads per cold request (0 = auto)
//   --max-requests <n>   exit after answering n requests (0 = serve forever)

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.h"
#include "service/service.h"

namespace {

struct ServerArgs {
  std::string socket_path;
  bool stdio = false;
  dpipe::PlanServiceOptions service;
  std::size_t max_requests = 0;
};

bool parse_args(int argc, char** argv, ServerArgs* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--socket") {
      const char* value = next();
      if (value == nullptr) return false;
      args->socket_path = value;
    } else if (arg == "--stdio") {
      args->stdio = true;
    } else if (arg == "--store") {
      const char* value = next();
      if (value == nullptr) return false;
      args->service.store_dir = value;
    } else if (arg == "--threads") {
      const char* value = next();
      if (value == nullptr) return false;
      args->service.planner_threads = std::atoi(value);
    } else if (arg == "--max-requests") {
      const char* value = next();
      if (value == nullptr) return false;
      args->max_requests = static_cast<std::size_t>(std::atoll(value));
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  // Exactly one transport: --stdio or --socket.
  return args->stdio == args->socket_path.empty();
}

void print_summary(const dpipe::PlanService& service, std::size_t answered) {
  const dpipe::PlanService::Stats stats = service.stats();
  std::printf(
      "served %zu requests: %zu cache hits (%zu single-flight joins), "
      "%zu planner runs, %zu warm-loaded from store\n",
      answered, stats.cache.hits, stats.cache.single_flight_joins,
      stats.planner_runs, stats.store_loaded);
}

int serve_stdio(const ServerArgs& args) {
  dpipe::PlanService service(args.service);
  const dpipe::ServeResult result = dpipe::serve_connection(
      service, STDIN_FILENO, STDOUT_FILENO, args.max_requests);
  print_summary(service, result.requests_answered);
  return 0;
}

int serve_socket(const ServerArgs& args) {
  sockaddr_un addr{};
  if (args.socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "socket path too long: %s\n",
                 args.socket_path.c_str());
    return 1;
  }
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("socket");
    return 1;
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, args.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(args.socket_path.c_str());  // Stale socket from a prior run.
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 16) != 0) {
    std::perror("bind/listen");
    ::close(listener);
    return 1;
  }

  dpipe::PlanService service(args.service);
  std::printf("dpipe_plan_serve: listening on %s\n",
              args.socket_path.c_str());
  std::fflush(stdout);

  std::atomic<std::size_t> answered{0};
  std::atomic<bool> shutdown{false};
  std::vector<std::thread> connections;
  while (!shutdown.load()) {
    if (args.max_requests != 0 && answered.load() >= args.max_requests) {
      break;
    }
    const int client = ::accept(listener, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      if (!shutdown.load() &&
          (args.max_requests == 0 || answered.load() < args.max_requests)) {
        std::perror("accept");
      }
      break;
    }
    // One thread per connection: PlanService is thread-safe, and identical
    // concurrent cold requests still collapse to one planner run.
    connections.emplace_back([&, client] {
      try {
        const dpipe::ServeResult result =
            dpipe::serve_connection(service, client, client,
                                    args.max_requests);
        answered.fetch_add(result.requests_answered);
        if (result.shutdown_requested) {
          shutdown.store(true);
        }
      } catch (const std::exception& error) {
        std::fprintf(stderr, "connection error: %s\n", error.what());
      }
      ::close(client);
      if (shutdown.load() ||
          (args.max_requests != 0 && answered.load() >= args.max_requests)) {
        // Unblock the accept() so the main loop can exit.
        ::shutdown(listener, SHUT_RDWR);
      }
    });
  }
  for (std::thread& connection : connections) {
    connection.join();
  }
  ::close(listener);
  ::unlink(args.socket_path.c_str());
  print_summary(service, answered.load());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServerArgs args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s (--socket <path> | --stdio) [--store <dir>] "
                 "[--threads <n>] [--max-requests <n>]\n",
                 argv[0]);
    return 2;
  }
  try {
    return args.stdio ? serve_stdio(args) : serve_socket(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
