#pragma once

// The benchmark's workloads (see perfbench/README.md for why each exists).
// A workload fixes the trainer the user trains, the plan requests the user
// sends, and the elastic sessions the user runs; --seed only drives the
// generated inputs (data seed, crash points, request variants, request
// order).

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/ddpm.h"
#include "runtime/pipeline_exec.h"
#include "service/request.h"

namespace perfbench {

/// Each round's request stream: one new request among kWarmPerRound
/// repeats of requests already answered (~90% hits), in seeded order.
constexpr int kWarmPerRound = 9;
/// Iterations of every elastic session; a lossy session loses one device.
constexpr int kSessionIterations = 8;

struct WorkloadSpec {
  std::string name;
  /// The trainer, trained with train(1) per step: the toy DDPM problem plus
  /// the pipeline configuration PipelineTrainer gets.
  dpipe::rt::DdpmConfig ddpm;
  dpipe::rt::PipelineRtConfig config;
  /// train(1) calls per round; their mean is the round's step sample.
  int train_steps_per_round = 8;

  /// The base request of PlanService::plan; cold variants replace its
  /// global batch and profiler noise seed.
  dpipe::PlanRequest base_request;
  /// Global batches cold variants draw from (seeded order).
  std::vector<int> batch_list;

  /// Lossy/clean elastic session pairs per round (the sessions train the
  /// workload's model on recovery_config()); each pair gives one recovery
  /// sample.
  int recovery_pairs = 2;
};

/// The named workload with its data seed derived from `seed`; throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] WorkloadSpec make_workload(const std::string& name,
                                         std::uint64_t seed);

/// The elastic geometry every workload's recovery sessions start from: a
/// 4-device world, S=2 x dp=2, M=4, batch 32, Adam, checkpoint every 4.
[[nodiscard]] dpipe::rt::PipelineRtConfig recovery_config();

}  // namespace perfbench
