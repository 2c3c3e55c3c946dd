#include "workloads.h"

#include <stdexcept>

#include "model/zoo.h"
#include "stats.h"

namespace perfbench {

using dpipe::rt::DdpmConfig;
using dpipe::rt::PipelineRtConfig;

PipelineRtConfig recovery_config() {
  PipelineRtConfig cfg;
  cfg.num_stages = 2;
  cfg.data_parallel_degree = 2;
  cfg.num_microbatches = 4;
  cfg.global_batch = 32;
  cfg.use_adam = true;
  cfg.lr = 0.01f;
  cfg.checkpoint_interval = 4;
  return cfg;
}

WorkloadSpec make_workload(const std::string& name, std::uint64_t seed) {
  WorkloadSpec w;
  w.name = name;
  DdpmConfig ddpm;
  ddpm.seed = mix_seed(seed, 1);
  if (name == "narrow-sd") {
    // Orchestration-bound trainer: 8x32x32 per-micro-batch GEMMs.
    ddpm.hidden = 32;
    ddpm.depth = 4;
    ddpm.self_conditioning = true;
    ddpm.self_cond_prob = 0.5;
    w.ddpm = ddpm;
    PipelineRtConfig& cfg = w.config;
    cfg.num_stages = 4;
    cfg.num_microbatches = 8;
    cfg.data_parallel_degree = 1;
    cfg.global_batch = 64;
    cfg.use_adam = true;
    cfg.lr = 0.01f;
    cfg.cross_iteration = true;
    w.train_steps_per_round = 32;
    w.base_request.model = dpipe::make_stable_diffusion_v21();
    w.base_request.cluster = dpipe::make_p4de_cluster(2);
    w.base_request.options.global_batch = 512;
    w.batch_list = {448, 480, 512, 544, 576};
    w.recovery_pairs = 4;
  } else if (name == "wide-cdm") {
    // Compute-bound trainer: GEMM, elementwise and Adam dominate a step.
    ddpm.hidden = 128;
    ddpm.depth = 6;
    w.ddpm = ddpm;
    PipelineRtConfig& cfg = w.config;
    cfg.num_stages = 2;
    cfg.num_microbatches = 4;
    cfg.data_parallel_degree = 2;
    cfg.global_batch = 256;
    cfg.use_adam = true;
    cfg.lr = 0.01f;
    cfg.cross_iteration = true;
    w.train_steps_per_round = 8;
    w.base_request.model = dpipe::make_cdm_lsun();
    w.base_request.cluster = dpipe::make_p4de_cluster(1);
    w.base_request.options.global_batch = 128;
    w.batch_list = {96, 112, 128, 144, 160};
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

}  // namespace perfbench
