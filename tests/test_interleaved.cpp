// Interleaved (virtual-stage) placement: one device owns an ordered list
// of virtual stages instead of exactly one stage. These tests pin the
// generalized contract end to end — the builder emits valid interleaved
// programs across the (D, V, M) grid, the validator's cover-and-fencing
// checks accept them and reject broken placements, the planner searches
// the V axis, the runtime executes multi-stage device timelines with the
// same math as any other placement, and the engine's bubble shrinks as V
// grows.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/fill/filler.h"
#include "core/instr/serialize.h"
#include "core/instr/validate.h"
#include "core/partition/partitioner.h"
#include "core/planner/planner.h"
#include "engine/engine.h"
#include "model/zoo.h"
#include "runtime/interpreter.h"
#include "runtime/pipeline_exec.h"
#include "service/plan_store.h"
#include "service/request.h"

namespace dpipe {
namespace {

/// Planner-pipeline lowering of an interleaved (or, with V == 1, plain
/// 1F1B) program: partition the backbone over the S*V-position virtual
/// chain against the physical round-robin placement, build the interleaved
/// schedule, fill, and generate instructions — exactly the planner's
/// evaluate() path for V > 1.
InstructionProgram lowered_interleaved(const ModelDesc& model, int D, int V,
                                       int micros, double batch, int dp,
                                       bool enable_fill = true) {
  const ClusterSpec cluster = make_p4de_cluster(2);
  const CommModel comm(cluster);
  const ProfileDb db(model,
                     AnalyticCostModel(cluster.device, NoiseSource(0, 0.0)),
                     default_batch_grid());
  const int St = D * V;
  PartitionOptions opts;
  opts.num_stages = St;
  opts.num_microbatches = micros;
  opts.group_size = D;
  opts.data_parallel_degree = dp;
  opts.microbatch_size = batch / micros;

  PartitionOptions chain_opts = opts;
  chain_opts.group_size = St;
  chain_opts.device_ranks.resize(St);
  for (int s = 0; s < St; ++s) {
    chain_opts.device_ranks[s] = s % D;
  }
  chain_opts.dp_rank_stride = D;

  const DpPartitioner partitioner(db, comm);
  const PartitionResult part =
      partitioner.partition_single(model.backbone_ids[0], chain_opts);
  std::vector<StagePlan> stages = part.stages;
  for (int s = 0; s < St; ++s) {
    stages[s].device_ranks = {s % D};
  }
  const ScheduleBuilder builder(db, comm);
  const Schedule schedule =
      builder.build_interleaved(model.backbone_ids[0], stages, opts);
  FillOptions fill_opts;
  fill_opts.training_batch = batch;
  fill_opts.enable_fill = enable_fill;
  const FillResult fill = BubbleFiller(db).fill(schedule, fill_opts);
  return generate_instructions(db, fill.filled_schedule, fill, opts);
}

/// Plain 1F1B lowering over the same pipeline (one stage per device).
InstructionProgram lowered_1f1b(const ModelDesc& model, int S, int micros,
                                double batch, int dp,
                                bool enable_fill = true) {
  const ClusterSpec cluster = make_p4de_cluster(2);
  const CommModel comm(cluster);
  const ProfileDb db(model,
                     AnalyticCostModel(cluster.device, NoiseSource(0, 0.0)),
                     default_batch_grid());
  PartitionOptions opts;
  opts.num_stages = S;
  opts.num_microbatches = micros;
  opts.group_size = S;
  opts.data_parallel_degree = dp;
  opts.microbatch_size = batch / micros;
  const DpPartitioner partitioner(db, comm);
  const PartitionResult part =
      partitioner.partition_single(model.backbone_ids[0], opts);
  const ScheduleBuilder builder(db, comm);
  const Schedule schedule =
      builder.build_1f1b(model.backbone_ids[0], part.stages, opts);
  FillOptions fill_opts;
  fill_opts.training_batch = batch;
  fill_opts.enable_fill = enable_fill;
  const FillResult fill = BubbleFiller(db).fill(schedule, fill_opts);
  return generate_instructions(db, fill.filled_schedule, fill, opts);
}

float params_diff(const std::vector<rt::Tensor>& a,
                  const std::vector<rt::Tensor>& b) {
  EXPECT_EQ(a.size(), b.size());
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, rt::max_abs_diff(a[i], b[i]));
  }
  return worst;
}

/// Trains `a` and `b` for 8 iterations on the same problem and config
/// (2 replicas, cross-iteration), once with SGD and once with Adam, and
/// expects bit-identical losses and parameters.
void expect_same_trajectory(const rt::DdpmProblem& problem,
                            const InstructionProgram& a,
                            const InstructionProgram& b, int global_batch) {
  for (const bool adam : {false, true}) {
    rt::PipelineRtConfig cfg;
    cfg.data_parallel_degree = 2;
    cfg.global_batch = global_batch;
    cfg.cross_iteration = true;
    cfg.use_adam = adam;
    cfg.lr = 0.01f;
    rt::PipelineTrainer ta(problem, cfg, a);
    rt::PipelineTrainer tb(problem, cfg, b);
    ta.train(8);
    tb.train(8);
    EXPECT_FLOAT_EQ(
        params_diff(ta.snapshot_params(), tb.snapshot_params()), 0.0f)
        << "adam=" << adam;
    ASSERT_EQ(ta.losses().size(), tb.losses().size());
    for (std::size_t i = 0; i < ta.losses().size(); ++i) {
      EXPECT_DOUBLE_EQ(ta.losses()[i], tb.losses()[i]) << "adam=" << adam;
    }
  }
}

/// The engine's execution log of `iterations` replays of `program`, costed
/// against `model` on one p4de machine.
ExecutionLog engine_log(const ModelDesc& model,
                        const InstructionProgram& program, int iterations,
                        double group_batch, int dp) {
  const ClusterSpec cluster = make_p4de_cluster(1);
  const CommModel comm(cluster);
  const ProfileDb db(model,
                     AnalyticCostModel(cluster.device, NoiseSource(1, 0.0)),
                     default_batch_grid());
  EngineOptions eopts;
  eopts.iterations = iterations;
  eopts.group_batch = group_batch;
  eopts.data_parallel_degree = dp;
  eopts.record_timelines = true;
  return ExecutionEngine(db, comm).run(program, eopts).execution_log;
}

TEST(Interleaved, ValidatorAcceptsAcrossGrid) {
  const ProgramValidator validator;
  const ModelDesc model = make_stable_diffusion_v21();
  const struct {
    int D;
    int V;
    int M;
  } grid[] = {{2, 1, 2}, {2, 2, 2}, {2, 2, 4}, {4, 2, 4},
              {2, 3, 4}, {4, 3, 6}, {3, 2, 4}};
  for (const auto& g : grid) {
    const InstructionProgram program =
        lowered_interleaved(model, g.D, g.V, g.M, 64.0, 2);
    const ValidationReport base = validator.validate(program);
    EXPECT_TRUE(base.ok()) << "D=" << g.D << " V=" << g.V << " M=" << g.M
                           << ":\n"
                           << base.to_string();
    const ValidationReport bindable =
        validator.validate_runtime_bindable(program);
    EXPECT_TRUE(bindable.ok()) << "D=" << g.D << " V=" << g.V
                               << " M=" << g.M << ":\n"
                               << bindable.to_string();
  }
}

TEST(Interleaved, V1LowersToTheExact1F1BProgram) {
  // With one virtual stage per device the interleaved builder must
  // degenerate to build_1f1b bit for bit — placement generalization is
  // free for every existing plan.
  const ModelDesc model = make_stable_diffusion_v21();
  const InstructionProgram interleaved =
      lowered_interleaved(model, 4, 1, 4, 64.0, 2);
  const InstructionProgram plain = lowered_1f1b(model, 4, 4, 64.0, 2);
  EXPECT_EQ(program_to_string(interleaved), program_to_string(plain));
}

TEST(Interleaved, RejectsStageOwnedTwice) {
  const ProgramValidator validator;
  // Every stage replicated twice (4 stages on 8 devices): fine for the
  // engine, but the cover contract needs each stage owned exactly once.
  const ModelDesc model = make_stable_diffusion_v21();
  const ClusterSpec cluster = make_p4de_cluster(2);
  const CommModel comm(cluster);
  const ProfileDb db(model,
                     AnalyticCostModel(cluster.device, NoiseSource(0, 0.0)),
                     default_batch_grid());
  PartitionOptions opts;
  opts.num_stages = 4;
  opts.num_microbatches = 4;
  opts.group_size = 8;
  opts.data_parallel_degree = 2;
  opts.microbatch_size = 16.0;
  const DpPartitioner partitioner(db, comm);
  const PartitionResult part =
      partitioner.partition_single(model.backbone_ids[0], opts);
  const ScheduleBuilder builder(db, comm);
  const Schedule schedule =
      builder.build_1f1b(model.backbone_ids[0], part.stages, opts);
  FillOptions fill_opts;
  fill_opts.training_batch = 64.0;
  const FillResult fill = BubbleFiller(db).fill(schedule, fill_opts);
  const InstructionProgram program =
      generate_instructions(db, fill.filled_schedule, fill, opts);

  EXPECT_TRUE(validator.validate(program).ok());
  const ValidationReport rep = validator.validate_runtime_bindable(program);
  EXPECT_FALSE(rep.ok());
  EXPECT_NE(rep.to_string().find("owned by more than one device"),
            std::string::npos)
      << rep.to_string();
}

TEST(Interleaved, AnyDevicePlacementTrainsBitIdentically) {
  const ProgramValidator validator;
  const ModelDesc model = make_stable_diffusion_v21();
  const InstructionProgram round_robin =
      lowered_interleaved(model, 2, 2, 4, 64.0, 2);
  ASSERT_TRUE(validator.validate_runtime_bindable(round_robin).ok());

  // Swap the two device streams (remapping peers consistently): device 0
  // now owns stages {1, 3}, device 1 owns {0, 2}, so stage s no longer
  // lives on device s % D. The interpreter keys tensors by stage and runs
  // each stream as written, so the placement must not change a bit.
  InstructionProgram swapped = round_robin;
  std::swap(swapped.per_device[0], swapped.per_device[1]);
  std::swap(swapped.preamble[0], swapped.preamble[1]);
  for (std::vector<Instruction>& stream : swapped.per_device) {
    for (Instruction& instr : stream) {
      if (instr.kind == InstrKind::kSendActivation ||
          instr.kind == InstrKind::kRecvActivation ||
          instr.kind == InstrKind::kSendGradient ||
          instr.kind == InstrKind::kRecvGradient) {
        instr.peer = 1 - instr.peer;
      }
    }
  }
  const ValidationReport rep = validator.validate_runtime_bindable(swapped);
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  expect_same_trajectory(rt::DdpmProblem(rt::DdpmConfig{}), round_robin,
                         swapped, 128);
  EXPECT_EQ(engine_log(model, swapped, 3, 64.0, 2),
            occupancy_trace(swapped, 3));
}

TEST(Interleaved, RejectsDanglingRecvAcrossVirtualStages) {
  const ProgramValidator validator;
  const ModelDesc model = make_stable_diffusion_v21();
  InstructionProgram program = lowered_interleaved(model, 2, 2, 4, 64.0, 2);
  ASSERT_TRUE(validator.validate_runtime_bindable(program).ok());

  // Drop one activation send at the virtual boundary 1 -> 2 (device 1's
  // slot-0 stage feeding device 0's slot-1 stage): the receive on the
  // co-hosting device dangles.
  bool erased = false;
  for (std::vector<Instruction>& stream : program.per_device) {
    for (auto it = stream.begin(); it != stream.end(); ++it) {
      if (it->kind == InstrKind::kSendActivation && it->stage == 1) {
        stream.erase(it);
        erased = true;
        break;
      }
    }
    if (erased) {
      break;
    }
  }
  ASSERT_TRUE(erased);
  const ValidationReport rep = validator.validate_runtime_bindable(program);
  EXPECT_FALSE(rep.ok());
  EXPECT_NE(rep.to_string().find("dangling receive"), std::string::npos)
      << rep.to_string();
}

TEST(Interleaved, V1TrajectoryBitIdenticalToPlain1F1B) {
  // The runtime refactor (thread-per-device driving owned virtual stages)
  // must keep every V=1 trajectory bit-identical to the historical
  // stage-per-device execution, for both optimizers.
  const rt::DdpmProblem problem(rt::DdpmConfig{});
  rt::TrainerLoweringSpec spec;
  spec.num_stages = 4;
  spec.num_microbatches = 4;
  spec.data_parallel_degree = 2;
  spec.global_batch = 16;
  spec.cross_iteration = true;
  spec.num_modules = static_cast<int>(problem.make_backbone()->size());
  const rt::TrainerLowering plain = rt::lower_trainer_program(spec);
  spec.family = ScheduleFamily::kInterleaved;
  spec.vstages = 1;
  const rt::TrainerLowering inter = rt::lower_trainer_program(spec);
  expect_same_trajectory(problem, plain.program, inter.program, 16);
}

TEST(Interleaved, PlacementInvariantTrajectory) {
  // Folding the same 4-stage module partition onto 2 devices (V=2) is a
  // pure scheduling change: the math — forwards, backwards, allreduce,
  // optimizer — is identical, so the trajectory matches the 4-device run
  // bit for bit, for SGD and Adam.
  const rt::DdpmProblem problem(rt::DdpmConfig{});
  rt::TrainerLoweringSpec spec;
  spec.num_stages = 4;
  spec.num_microbatches = 4;
  spec.data_parallel_degree = 2;
  spec.global_batch = 16;
  spec.cross_iteration = true;
  spec.num_modules = static_cast<int>(problem.make_backbone()->size());
  const rt::TrainerLowering unfolded = rt::lower_trainer_program(spec);
  spec.num_stages = 2;
  spec.family = ScheduleFamily::kInterleaved;
  spec.vstages = 2;  // 2 devices x 2 virtual stages = the same 4 cuts.
  const rt::TrainerLowering folded = rt::lower_trainer_program(spec);
  expect_same_trajectory(problem, unfolded.program, folded.program, 16);
}

TEST(Interleaved, ThreeWayOpOrderParity) {
  // One interleaved program, two backends: the runtime's and the engine's
  // execution logs and the program's static occupancy trace agree per
  // device.
  const rt::DdpmProblem problem(rt::DdpmConfig{});
  rt::TrainerLoweringSpec spec;
  spec.num_stages = 2;
  spec.num_microbatches = 4;
  spec.data_parallel_degree = 2;
  spec.global_batch = 16;
  spec.cross_iteration = true;
  spec.num_modules = static_cast<int>(problem.make_backbone()->size());
  spec.family = ScheduleFamily::kInterleaved;
  spec.vstages = 2;
  const rt::TrainerLowering l = rt::lower_trainer_program(spec);

  const int iterations = 3;
  const auto expected = occupancy_trace(l.program, iterations);

  rt::PipelineRtConfig cfg;
  cfg.data_parallel_degree = 2;
  cfg.global_batch = 16;
  cfg.cross_iteration = true;
  cfg.record_execution = true;
  rt::PipelineTrainer trainer(problem, cfg, l.program);
  trainer.train(iterations);
  ASSERT_EQ(trainer.execution_log().size(), expected.size());
  for (std::size_t dev = 0; dev < expected.size(); ++dev) {
    ASSERT_GT(expected[dev].size(), 0u);
    EXPECT_EQ(trainer.execution_log()[dev], expected[dev])
        << "runtime, device " << dev;
  }
  EXPECT_EQ(engine_log(l.model, l.program, iterations, 8.0, 2), expected);
}

TEST(Interleaved, TwoLayerFrozenOpThreeWayParity) {
  // A kFrozenForward may cover several layers. Give the trainer's encoder
  // a second layer and merge each device's two single-layer preamble ops
  // into one "frozen c1 l0:2": the runtime and the engine both log the
  // merged op under its whole layer range, as the occupancy trace names
  // it, and the merge changes no bit of the trajectory.
  const rt::DdpmProblem problem(rt::DdpmConfig{});
  ModelDesc model = rt::trainer_planner_model(
      static_cast<int>(problem.make_backbone()->size()));
  model.components[1].layers.push_back(model.components[1].layers[0]);
  const InstructionProgram split = lowered_interleaved(model, 2, 2, 4, 8.0, 2);
  InstructionProgram merged = split;
  for (std::vector<Instruction>& stream : merged.preamble) {
    ASSERT_EQ(stream.size(), 2u);
    ASSERT_EQ(op_signature(stream[0]), "frozen c1 l0:1");
    ASSERT_EQ(op_signature(stream[1]), "frozen c1 l1:2");
    stream[0].layer_end = 2;
    stream.pop_back();
  }
  const ValidationReport rep =
      ProgramValidator().validate_runtime_bindable(merged);
  ASSERT_TRUE(rep.ok()) << rep.to_string();

  const int iterations = 3;
  const ExecutionLog expected = occupancy_trace(merged, iterations);
  for (const std::vector<std::string>& device : expected) {
    ASSERT_FALSE(device.empty());
    EXPECT_EQ(device.front(), "frozen c1 l0:2");
  }
  rt::PipelineRtConfig cfg;
  cfg.data_parallel_degree = 2;
  cfg.global_batch = 16;
  cfg.cross_iteration = true;
  cfg.record_execution = true;
  rt::PipelineTrainer trainer(problem, cfg, merged);
  trainer.train(iterations);
  EXPECT_EQ(trainer.execution_log(), expected);
  EXPECT_EQ(engine_log(model, merged, iterations, 8.0, 2), expected);
  expect_same_trajectory(problem, split, merged, 16);
}

TEST(Interleaved, EngineBubbleShrinksWithVirtualStages) {
  // The point of interleaving: same devices, same model, same batch, but
  // V=2 cuts the warm-up/cool-down bubble roughly in half.
  const ModelDesc model = make_stable_diffusion_v21();
  const ClusterSpec cluster = make_p4de_cluster(2);
  const CommModel comm(cluster);
  const ProfileDb db(model,
                     AnalyticCostModel(cluster.device, NoiseSource(0, 0.0)),
                     default_batch_grid());
  const InstructionProgram plain =
      lowered_1f1b(model, 4, 4, 64.0, 2, /*enable_fill=*/false);
  const InstructionProgram interleaved =
      lowered_interleaved(model, 4, 2, 4, 64.0, 2, /*enable_fill=*/false);

  EngineOptions eopts;
  eopts.iterations = 4;
  eopts.group_batch = 64.0;
  eopts.data_parallel_degree = 2;
  const ExecutionEngine engine(db, comm);
  const EngineResult base = engine.run(plain, eopts);
  const EngineResult inter = engine.run(interleaved, eopts);
  EXPECT_GT(base.steady_bubble_ratio, 0.0);
  EXPECT_LT(inter.steady_bubble_ratio, base.steady_bubble_ratio);
}

TEST(Interleaved, PlannerSearchesTheVAxis) {
  PlannerOptions options;
  options.global_batch = 64.0;
  options.schedule_family = ScheduleFamily::kInterleaved;
  options.require_bindable_placement = true;
  options.stage_candidates = {4};
  options.micro_candidates = {4};
  options.group_candidates = {4};
  options.vstage_candidates = {1, 2};
  const Planner planner(make_stable_diffusion_v21(), make_p4de_cluster(1),
                        options);
  const Plan plan = planner.plan();
  EXPECT_EQ(plan.search.vstage_axis, 2);
  bool saw_v2 = false;
  for (const PlanConfig& config : plan.explored) {
    saw_v2 = saw_v2 || config.vstages == 2;
  }
  EXPECT_TRUE(saw_v2 || plan.config.vstages == 2);
  // Whatever wins, the emitted program must satisfy the cover-and-fencing
  // contract (that is what require_bindable_placement promises).
  const ValidationReport rep =
      ProgramValidator().validate_runtime_bindable(plan.program);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GE(plan.config.vstages, 1);
}

TEST(Interleaved, VStagesRequireTheInterleavedFamily) {
  // vstage candidates > 1 without the interleaved family contradict the
  // search space; the ctor rejects them.
  PlannerOptions bad;
  bad.global_batch = 64.0;
  bad.vstage_candidates = {1, 2};
  EXPECT_THROW(Planner(make_stable_diffusion_v21(), make_p4de_cluster(1),
                       bad),
               std::invalid_argument);
}

TEST(Interleaved, RequestAndPlanConfigSerializationCarryVStages) {
  PlanRequest request;
  request.model = make_stable_diffusion_v21();
  request.cluster = make_p4de_cluster(1);
  request.options.global_batch = 64.0;
  request.options.schedule_family = ScheduleFamily::kInterleaved;
  request.options.require_bindable_placement = true;
  request.options.vstage_candidates = {1, 2, 3};
  const std::string text = canonical_request_text(request);
  const PlanRequest parsed = parse_request_text(text);
  EXPECT_EQ(parsed.options.schedule_family, ScheduleFamily::kInterleaved);
  EXPECT_TRUE(parsed.options.require_bindable_placement);
  EXPECT_EQ(parsed.options.vstage_candidates, std::vector<int>({1, 2, 3}));
  // Canonical text is byte-stable under a round trip.
  EXPECT_EQ(canonical_request_text(parsed), text);

  PlanConfig config;
  config.num_stages = 4;
  config.num_microbatches = 8;
  config.group_size = 4;
  config.data_parallel_degree = 2;
  config.predicted_iteration_ms = 12.5;
  config.planned_bubble_ratio = 0.125;
  config.memory_feasible = true;
  config.vstages = 2;
  CanonicalWriter out;
  write_plan_config(out, config);
  const std::string line = out.take();
  CanonicalReader in(line);
  const PlanConfig back = read_plan_config(in);
  EXPECT_EQ(back.vstages, 2);
  EXPECT_EQ(back.num_stages, 4);
  EXPECT_EQ(back.group_size, 4);
  EXPECT_DOUBLE_EQ(back.predicted_iteration_ms, 12.5);
}

}  // namespace
}  // namespace dpipe
