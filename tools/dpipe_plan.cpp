// dpipe_plan: DiffusionPipe's front-end as a CLI. Plans pipeline training
// for a zoo model and writes the back-end instruction program.
//
//   dpipe_plan <model> <machines> <global_batch> [output.dpipe]
//             [--schedule <family>] [--vstages <N>] [--connect <socket>]
//
// Models: sd21, controlnet, cdm_lsun, cdm_imagenet, cdm_imagenet_full,
//         sdxl, dit.
//
// --schedule picks the plannable family: 1f1b (default), interleaved
// (virtual stages; pair with --vstages), or bidir (requires a two-backbone
// cdm_* model). --vstages N widens the search grid with a V axis over
// 1..N virtual stages per device.
//
// With --connect the request goes to a running dpipe_plan_serve instead of
// planning locally: repeats are answered from the server's whole-plan cache.
// `dpipe_plan --connect <socket> --shutdown` stops the server.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/instr/serialize.h"
#include "core/planner/planner.h"
#include "model/zoo.h"
#include "service/protocol.h"
#include "service/request.h"

namespace {

int connect_to(const std::string& socket_path) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error("cannot create socket");
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to " + socket_path);
  }
  return fd;
}

void print_config(const dpipe::PlanConfig& config) {
  std::printf("  S=%d M=%d D=%d dp=%d V=%d\n", config.num_stages,
              config.num_microbatches, config.group_size,
              config.data_parallel_degree, config.vstages);
  std::printf("  predicted iteration %.1f ms, planned bubble %.1f%%\n",
              config.predicted_iteration_ms,
              100.0 * config.planned_bubble_ratio);
}

int write_program_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  out << text;
  std::printf("  wrote instruction program to %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect_path;
  std::string schedule;
  int vstages = 1;
  bool shutdown = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      connect_path = argv[++i];
    } else if (arg == "--schedule" && i + 1 < argc) {
      schedule = argv[++i];
    } else if (arg == "--vstages" && i + 1 < argc) {
      vstages = std::atoi(argv[++i]);
    } else if (arg == "--shutdown") {
      shutdown = true;
    } else {
      positional.push_back(arg);
    }
  }
  if (shutdown && !connect_path.empty()) {
    try {
      const int fd = connect_to(connect_path);
      dpipe::write_frame(fd, "shutdown\n");
      (void)dpipe::read_frame(fd);
      ::close(fd);
      std::printf("server at %s shut down\n", connect_path.c_str());
      return 0;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return 1;
    }
  }
  if (positional.size() < 3) {
    std::fprintf(stderr,
                 "usage: %s <model> <machines> <global_batch> "
                 "[output.dpipe] [--schedule <family>] [--vstages <N>] "
                 "[--connect <socket>]\n"
                 "       %s --connect <socket> --shutdown\n"
                 "models: sd21 controlnet cdm_lsun cdm_imagenet "
                 "cdm_imagenet_full sdxl dit\n"
                 "schedules: 1f1b interleaved bidir\n",
                 argv[0], argv[0]);
    return 2;
  }
  try {
    const dpipe::ModelDesc model = dpipe::model_by_name(positional[0]);
    const int machines = std::atoi(positional[1].c_str());
    const double batch = std::atof(positional[2].c_str());
    dpipe::PlannerOptions options;
    options.global_batch = batch;
    if (!schedule.empty()) {
      const dpipe::ScheduleFamily family =
          dpipe::parse_schedule_family(schedule);
      if (family == dpipe::ScheduleFamily::kGpipe) {
        std::fprintf(stderr,
                     "error: gpipe is a baseline, not a plannable family; "
                     "lower one directly with dpipe_run --schedule=gpipe\n");
        return 2;
      }
      if (family == dpipe::ScheduleFamily::kBidirectional) {
        // The planner picks the bidirectional builder whenever the model
        // has two backbone components; the flag just validates the intent.
        if (model.backbone_ids.size() < 2) {
          std::fprintf(stderr,
                       "error: bidir needs a two-backbone model "
                       "(cdm_lsun, cdm_imagenet, ...)\n");
          return 2;
        }
      } else {
        options.schedule_family = family;
      }
    }
    if (vstages < 1) {
      std::fprintf(stderr, "error: --vstages must be positive\n");
      return 2;
    }
    if (vstages > 1) {
      if (options.schedule_family != dpipe::ScheduleFamily::kInterleaved) {
        std::fprintf(stderr,
                     "error: --vstages > 1 requires "
                     "--schedule interleaved\n");
        return 2;
      }
      options.vstage_candidates.clear();
      for (int v = 1; v <= vstages; ++v) {
        options.vstage_candidates.push_back(v);
      }
    }

    if (!connect_path.empty()) {
      dpipe::PlanRequest request;
      request.model = model;
      request.cluster = dpipe::make_p4de_cluster(machines);
      request.options = options;
      const int fd = connect_to(connect_path);
      dpipe::write_frame(fd, dpipe::encode_plan_request(request));
      const auto payload = dpipe::read_frame(fd);
      ::close(fd);
      if (!payload.has_value()) {
        std::fprintf(stderr, "error: server closed the connection\n");
        return 1;
      }
      const dpipe::PlanResponse response =
          dpipe::decode_plan_response(*payload);
      if (!response.ok) {
        std::fprintf(stderr, "server error: %s\n", response.error.c_str());
        return 1;
      }
      std::printf("%s on %d GPUs, batch %.0f (%s):\n", model.name.c_str(),
                  8 * machines, batch,
                  response.cache_hit ? "served from plan cache"
                                     : "planned by server");
      print_config(response.plan->config);
      if (positional.size() >= 4) {
        return write_program_text(positional[3],
                                  response.plan->program_text);
      }
      return 0;
    }

    const dpipe::Planner planner(model, dpipe::make_p4de_cluster(machines),
                                 options);
    const dpipe::Plan plan = planner.plan();
    std::printf("%s on %d GPUs, batch %.0f:\n", model.name.c_str(),
                8 * machines, batch);
    print_config(plan.config);
    if (positional.size() >= 4) {
      return write_program_text(positional[3],
                                dpipe::program_to_string(plan.program));
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
