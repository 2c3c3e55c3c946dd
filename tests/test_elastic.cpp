// Elastic recovery: reshard_checkpoint geometry re-binning, byte-exact
// checkpoint serialization, and the crash -> re-plan -> re-shard -> resume
// loop of ElasticRecoveryController (DESIGN.md §10). The central claim
// under test: a resumed trajectory is bit-identical to a fresh trainer of
// the re-planned geometry restored from the same resharded checkpoint.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/hash.h"
#include "core/instr/serialize.h"
#include "fault/elastic.h"
#include "runtime/dp_trainer.h"
#include "runtime/pipeline_exec.h"

namespace dpipe::rt {
namespace {

float params_diff(const std::vector<Tensor>& a,
                  const std::vector<Tensor>& b) {
  EXPECT_EQ(a.size(), b.size());
  float max_diff = 0.0f;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    EXPECT_EQ(a[i].numel(), b[i].numel());
    for (int j = 0; j < a[i].numel(); ++j) {
      max_diff =
          std::max(max_diff, std::abs(a[i].data()[j] - b[i].data()[j]));
    }
  }
  return max_diff;
}

/// A 3-stage trainer's boundary checkpoint after a few iterations.
TrainerCheckpoint sample_checkpoint(bool use_adam, int* num_modules = nullptr) {
  const DdpmProblem problem(DdpmConfig{});
  PipelineRtConfig cfg;
  cfg.num_stages = 3;
  cfg.num_microbatches = 4;
  cfg.global_batch = 16;
  cfg.use_adam = use_adam;
  PipelineTrainer trainer(problem, cfg);
  trainer.train(3);
  if (num_modules != nullptr) {
    *num_modules = trainer.binding().module_cut().back();
  }
  return trainer.checkpoint();
}

TEST(Reshard, IdentityIsNoOp) {
  const TrainerCheckpoint ckpt = sample_checkpoint(false);
  ReshardReport report;
  const TrainerCheckpoint same = reshard_checkpoint(
      ckpt, ckpt.module_cut(), ckpt.data_parallel_degree, &report);
  EXPECT_EQ(report.moved_tensors, 0);
  EXPECT_GT(report.total_tensors, 0);
  EXPECT_EQ(same.module_cut(), ckpt.module_cut());
  EXPECT_EQ(same.iteration, ckpt.iteration);
  EXPECT_FLOAT_EQ(params_diff(same.flat_params(), ckpt.flat_params()), 0.0f);
}

TEST(Reshard, UnevenCutsPreserveEveryTensorBitExactly) {
  int num_modules = 0;
  const TrainerCheckpoint ckpt = sample_checkpoint(false, &num_modules);
  // A deliberately lopsided 2-stage cut: one module vs the rest.
  const std::vector<int> uneven = {0, 1, num_modules};
  ReshardReport report;
  const TrainerCheckpoint out = reshard_checkpoint(ckpt, uneven, 1, &report);
  EXPECT_EQ(out.module_cut(), uneven);
  EXPECT_EQ(static_cast<int>(out.shards.size()), 2);
  EXPECT_EQ(static_cast<int>(out.shards[0].params.size()), 1);
  EXPECT_EQ(static_cast<int>(out.shards[1].params.size()), num_modules - 1);
  EXPECT_GT(report.moved_tensors, 0);
  // Re-binning only changes ownership, never values: the module-major
  // flattening is identical on both sides.
  EXPECT_FLOAT_EQ(params_diff(out.flat_params(), ckpt.flat_params()), 0.0f);
}

TEST(Reshard, SingleStageCollapseAndBack) {
  int num_modules = 0;
  const TrainerCheckpoint ckpt = sample_checkpoint(false, &num_modules);
  const TrainerCheckpoint one =
      reshard_checkpoint(ckpt, {0, num_modules}, 1);
  ASSERT_EQ(one.shards.size(), 1u);
  EXPECT_EQ(one.shards[0].module_begin, 0);
  EXPECT_EQ(one.shards[0].module_end, num_modules);
  // Round-trip back to the original 3-stage cut reproduces it exactly.
  const TrainerCheckpoint back = reshard_checkpoint(
      one, ckpt.module_cut(), ckpt.data_parallel_degree);
  EXPECT_EQ(back.module_cut(), ckpt.module_cut());
  EXPECT_FLOAT_EQ(params_diff(back.flat_params(), ckpt.flat_params()), 0.0f);
}

TEST(Reshard, DpWidthChangeOnlyRetargetsMetadata) {
  const TrainerCheckpoint ckpt = sample_checkpoint(false);
  ReshardReport report;
  const TrainerCheckpoint wide =
      reshard_checkpoint(ckpt, ckpt.module_cut(), 4, &report);
  // Replicas are identical by invariant, so a dp change moves nothing.
  EXPECT_EQ(report.moved_tensors, 0);
  EXPECT_EQ(wide.data_parallel_degree, 4);
  EXPECT_EQ(report.old_dp, ckpt.data_parallel_degree);
  EXPECT_EQ(report.new_dp, 4);
  EXPECT_FLOAT_EQ(params_diff(wide.flat_params(), ckpt.flat_params()), 0.0f);
}

TEST(Reshard, AdamStateRidesAlongBitExactly) {
  int num_modules = 0;
  const TrainerCheckpoint ckpt = sample_checkpoint(true, &num_modules);
  ASSERT_TRUE(ckpt.has_adam);
  ASSERT_GT(ckpt.adam_t, 0);
  const TrainerCheckpoint out =
      reshard_checkpoint(ckpt, {0, 2, num_modules}, 1);
  EXPECT_TRUE(out.has_adam);
  EXPECT_EQ(out.adam_t, ckpt.adam_t);
  // Flatten moments module-major on both sides and compare bit-exact.
  const auto flatten_moments = [](const TrainerCheckpoint& c, bool second) {
    std::vector<Tensor> flat;
    for (const TrainerCheckpoint::StageShard& shard : c.shards) {
      for (const std::vector<Tensor>& mod :
           second ? shard.adam_v : shard.adam_m) {
        flat.insert(flat.end(), mod.begin(), mod.end());
      }
    }
    return flat;
  };
  EXPECT_FLOAT_EQ(
      params_diff(flatten_moments(out, false), flatten_moments(ckpt, false)),
      0.0f);
  EXPECT_FLOAT_EQ(
      params_diff(flatten_moments(out, true), flatten_moments(ckpt, true)),
      0.0f);
}

TEST(Reshard, RejectsInvalidCutsAndDp) {
  int num_modules = 0;
  const TrainerCheckpoint ckpt = sample_checkpoint(false, &num_modules);
  // Not starting at 0.
  EXPECT_THROW(reshard_checkpoint(ckpt, {1, num_modules}, 1),
               std::invalid_argument);
  // Not ending at the module count.
  EXPECT_THROW(reshard_checkpoint(ckpt, {0, num_modules - 1}, 1),
               std::invalid_argument);
  // Non-monotone.
  EXPECT_THROW(reshard_checkpoint(ckpt, {0, 5, 3, num_modules}, 1),
               std::invalid_argument);
  // Too few cut points.
  EXPECT_THROW(reshard_checkpoint(ckpt, {0}, 1), std::invalid_argument);
  // dp must divide the global batch (16).
  EXPECT_THROW(reshard_checkpoint(ckpt, ckpt.module_cut(), 3),
               std::invalid_argument);
  EXPECT_THROW(reshard_checkpoint(ckpt, ckpt.module_cut(), 0),
               std::invalid_argument);
}

TEST(CheckpointIo, SaveLoadSaveIsByteIdentical) {
  for (const bool use_adam : {false, true}) {
    const TrainerCheckpoint ckpt = sample_checkpoint(use_adam);
    std::stringstream first;
    save_checkpoint(first, ckpt);
    std::stringstream copy(first.str());
    const TrainerCheckpoint loaded = load_checkpoint(copy);
    std::stringstream second;
    save_checkpoint(second, loaded);
    EXPECT_EQ(first.str(), second.str()) << "adam=" << use_adam;
    EXPECT_EQ(loaded.iteration, ckpt.iteration);
    EXPECT_EQ(loaded.module_cut(), ckpt.module_cut());
    EXPECT_FLOAT_EQ(params_diff(loaded.flat_params(), ckpt.flat_params()),
                    0.0f);
  }
}

TEST(CheckpointIo, GoldenBytes) {
  // Pinned digests of the dpipe-checkpoint v1 bytes of a trained 3-stage
  // trainer, with and without Adam moments: checkpoints written by older
  // builds must keep loading, and the trajectory bits behind them are the
  // same at every SIMD level and executor width.
  struct Golden {
    bool use_adam;
    std::size_t bytes;
    const char* digest;
  };
  const Golden goldens[] = {
      {false, 33891, "661ec2b047ad7c1ee89e178c60a4d180"},
      {true, 99143, "d70d48136ad47734cf99294000997471"},
  };
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(golden.use_adam);
    std::stringstream out;
    save_checkpoint(out, sample_checkpoint(golden.use_adam));
    EXPECT_EQ(out.str().size(), golden.bytes);
    EXPECT_EQ(fingerprint_bytes(out.str()).hex(), golden.digest);
  }
}

TEST(CheckpointIo, LoadedCheckpointResumesExactTrajectory) {
  const DdpmProblem problem(DdpmConfig{});
  PipelineRtConfig cfg;
  cfg.num_stages = 3;
  cfg.num_microbatches = 4;
  cfg.global_batch = 16;
  cfg.use_adam = true;
  PipelineTrainer trainer(problem, cfg);
  trainer.train(4);
  std::stringstream disk;
  save_checkpoint(disk, trainer.checkpoint());
  trainer.train(4);  // The reference continuation.

  PipelineTrainer resumed(problem, cfg);
  resumed.restore(load_checkpoint(disk));
  resumed.train(4);
  EXPECT_FLOAT_EQ(
      params_diff(resumed.snapshot_params(), trainer.snapshot_params()),
      0.0f);
  ASSERT_EQ(resumed.losses().size(), trainer.losses().size());
  for (std::size_t i = 0; i < resumed.losses().size(); ++i) {
    EXPECT_DOUBLE_EQ(resumed.losses()[i], trainer.losses()[i]) << i;
  }
}

TEST(CheckpointIo, RejectsCorruptedInput) {
  const TrainerCheckpoint ckpt = sample_checkpoint(false);
  std::stringstream good;
  save_checkpoint(good, ckpt);
  // Wrong magic.
  {
    std::stringstream bad("bogus-header v1\n" + good.str());
    EXPECT_THROW(load_checkpoint(bad), std::invalid_argument);
  }
  // Truncated body.
  {
    std::stringstream bad(good.str().substr(0, good.str().size() / 2));
    EXPECT_THROW(load_checkpoint(bad), std::invalid_argument);
  }
  // Empty stream.
  {
    std::stringstream bad;
    EXPECT_THROW(load_checkpoint(bad), std::invalid_argument);
  }
}

/// A valid checkpoint's bytes up to its pending_cond list, followed by
/// `tail` in place of that list.
std::string checkpoint_with_pending_cond(const std::string& tail) {
  std::stringstream good;
  save_checkpoint(good, sample_checkpoint(false));
  const std::string text = good.str();
  const std::size_t at = text.find("pending_cond ");
  EXPECT_NE(at, std::string::npos);
  return text.substr(0, at + std::string("pending_cond ").size()) + tail;
}

TEST(CheckpointIo, OversizedTensorHeaderFailsWithoutAllocating) {
  // The header claims 2^31 floats (8 GiB) but only 3 payload tokens
  // follow: the load must fail as truncated, sizing storage by the tokens
  // that arrived rather than by the header.
  std::stringstream bad(
      checkpoint_with_pending_cond("1\ntensor 2 65536 32768\n0 0 0\n"));
  EXPECT_THROW(load_checkpoint(bad), std::invalid_argument);
}

TEST(CheckpointIo, TensorElementCountOverflowFails) {
  // Four dims of INT_MAX multiply past int64: rejected at the header.
  std::stringstream bad(checkpoint_with_pending_cond(
      "1\ntensor 4 2147483647 2147483647 2147483647 2147483647\n0\n"));
  EXPECT_THROW(load_checkpoint(bad), std::invalid_argument);
}

TEST(CheckpointIo, UndefinedTensorIsRejectedBeforeWriting) {
  // The format has no encoding for an undefined tensor (it would read back
  // as one element): save refuses it up front and writes nothing.
  {
    TrainerCheckpoint ckpt = sample_checkpoint(false);
    ckpt.pending_cond.push_back(Tensor());
    std::stringstream out;
    EXPECT_THROW(save_checkpoint(out, ckpt), std::invalid_argument);
    EXPECT_TRUE(out.str().empty());
  }
  {
    TrainerCheckpoint ckpt = sample_checkpoint(true);
    std::vector<Tensor>* moments = nullptr;
    for (std::vector<Tensor>& list : ckpt.shards.back().adam_v) {
      if (!list.empty()) {
        moments = &list;
      }
    }
    ASSERT_NE(moments, nullptr);
    moments->back() = Tensor();
    std::stringstream out;
    EXPECT_THROW(save_checkpoint(out, ckpt), std::invalid_argument);
    EXPECT_TRUE(out.str().empty());
  }
}

/// Elastic controller options for a 2-stage x 2-replica (world 4) run.
ElasticOptions small_world_options(bool use_adam) {
  ElasticOptions eopts;
  eopts.config.num_stages = 2;
  eopts.config.num_microbatches = 2;
  eopts.config.data_parallel_degree = 2;
  eopts.config.global_batch = 8;
  eopts.config.checkpoint_interval = 2;
  eopts.config.use_adam = use_adam;
  return eopts;
}

TEST(Elastic, ResumesBitIdenticalToFreshShrunkTrainer) {
  // THE acceptance property: after the crash, the controller's continued
  // trajectory must match — bit for bit — a fresh trainer of the
  // re-planned (N-1)-device geometry restored from the same resharded
  // checkpoint. SGD and Adam both.
  for (const bool use_adam : {false, true}) {
    const DdpmProblem problem(DdpmConfig{});
    ElasticOptions eopts = small_world_options(use_adam);
    ElasticCrash crash;
    crash.iteration = 3;
    crash.stage = 1;
    eopts.crashes = {crash};
    ElasticRecoveryController controller(problem, eopts);
    const RecoveryStats& stats = controller.run(6);
    EXPECT_EQ(stats.faults, 1) << "adam=" << use_adam;
    EXPECT_EQ(stats.replans, 1);
    EXPECT_EQ(controller.world(), 3);  // 4 devices, one lost.
    ASSERT_EQ(controller.phases().size(), 2u);

    const RecoveryPhase& resumed = controller.phases()[1];
    EXPECT_FALSE(resumed.crashed);
    EXPECT_EQ(resumed.start_iteration, 3);
    EXPECT_EQ(resumed.end_iteration, 6);
    ASSERT_TRUE(resumed.resume_from.has_value());

    // Rebuild the resumed phase from its recorded (config, program,
    // checkpoint) triple — fresh threads, fresh weights — and train the
    // same stretch.
    PipelineTrainer fresh(problem, resumed.config, resumed.program);
    fresh.restore(*resumed.resume_from);
    EXPECT_EQ(fresh.iteration(), 3);
    fresh.train(3);
    EXPECT_FLOAT_EQ(
        params_diff(fresh.snapshot_params(), controller.final_params()),
        0.0f)
        << "adam=" << use_adam;
    ASSERT_EQ(fresh.losses().size(), controller.losses().size());
    for (std::size_t i = 0; i < fresh.losses().size(); ++i) {
      EXPECT_DOUBLE_EQ(fresh.losses()[i], controller.losses()[i]) << i;
    }
    EXPECT_FLOAT_EQ(controller.replica_divergence(), 0.0f);
  }
}

TEST(Elastic, SalvageMatchesBoundaryCheckpoint) {
  // salvage_checkpoint() of a crashed trainer must equal the checkpoint a
  // clean run takes at the same boundary: the crashed iteration never
  // stepped an optimizer, so the state is exactly the boundary's.
  const DdpmProblem problem(DdpmConfig{});
  PipelineRtConfig cfg;
  cfg.num_stages = 3;
  cfg.num_microbatches = 4;
  cfg.global_batch = 16;
  PipelineRtConfig doomed = cfg;
  doomed.fault.iteration = 5;
  doomed.fault.stage = 1;
  doomed.fault.micro = 2;
  PipelineTrainer victim(problem, doomed);
  EXPECT_THROW(victim.train(10), StageFailure);
  ASSERT_TRUE(victim.failed());
  const TrainerCheckpoint salvaged = victim.salvage_checkpoint();
  EXPECT_EQ(salvaged.iteration, 5);  // Boundary before the crashed wave.

  PipelineTrainer clean(problem, cfg);
  clean.train(5);
  const TrainerCheckpoint boundary = clean.checkpoint();
  EXPECT_EQ(salvaged.module_cut(), boundary.module_cut());
  EXPECT_FLOAT_EQ(
      params_diff(salvaged.flat_params(), boundary.flat_params()), 0.0f);
  ASSERT_EQ(salvaged.losses.size(), boundary.losses.size());
  for (std::size_t i = 0; i < salvaged.losses.size(); ++i) {
    EXPECT_DOUBLE_EQ(salvaged.losses[i], boundary.losses[i]) << i;
  }
  // Un-failed trainers refuse to salvage; failed trainers refuse a normal
  // checkpoint.
  EXPECT_THROW(clean.salvage_checkpoint(), std::invalid_argument);
  EXPECT_THROW(victim.checkpoint(), std::invalid_argument);
}

TEST(Elastic, SecondReplanForSameWorldIsDeterministic) {
  // Re-plans keep no stage costs between calls: the second plan for the
  // same world recomputes every cost and must land on the same config and
  // the same program bytes.
  const DdpmProblem problem(DdpmConfig{});
  ElasticRecoveryController controller(problem, small_world_options(false));
  const Plan first = controller.plan_for_world(3);
  const Plan second = controller.plan_for_world(3);
  EXPECT_GT(first.search.cache_misses, 0u);
  EXPECT_EQ(second.search.cache_misses, first.search.cache_misses);
  EXPECT_EQ(second.search.cache_hits, first.search.cache_hits);
  EXPECT_EQ(second.config, first.config);
  EXPECT_EQ(program_to_string(second.program),
            program_to_string(first.program));
}

TEST(Elastic, SurvivesMultipleCrashesAndTracksReference) {
  // Two device losses: world 4 -> 3 -> 2. The final model must still track
  // the full-batch reference (same tolerance as the equivalence tests) and
  // replicas must never diverge.
  const DdpmProblem problem(DdpmConfig{});
  ElasticOptions eopts = small_world_options(false);
  ElasticCrash first;
  first.iteration = 2;
  first.stage = 1;
  ElasticCrash second;
  second.iteration = 5;
  second.stage = 0;
  second.micro = 1;
  eopts.crashes = {first, second};
  ElasticRecoveryController controller(problem, eopts);
  const RecoveryStats& stats = controller.run(8);
  EXPECT_EQ(stats.faults, 2);
  EXPECT_EQ(stats.replans, 2);
  EXPECT_EQ(controller.world(), 2);
  EXPECT_EQ(controller.losses().size(), 8u);
  EXPECT_EQ(stats.iterations_lost, 0);
  EXPECT_FLOAT_EQ(controller.replica_divergence(), 0.0f);

  ReferenceTrainer ref(problem, 8, eopts.config.lr);
  ref.train(8);
  EXPECT_LT(params_diff(ref.snapshot_params(), controller.final_params()),
            2e-4f);
}

TEST(Elastic, LosesFewerIterationsThanRestartBaseline) {
  // Crash at iteration 5 with checkpoints every 2: restart would rewind to
  // iteration 4 (1 lost); elastic resumes from the boundary (0 lost).
  const DdpmProblem problem(DdpmConfig{});
  ElasticOptions eopts = small_world_options(false);
  ElasticCrash crash;
  crash.iteration = 5;
  crash.stage = 1;
  eopts.crashes = {crash};
  ElasticRecoveryController controller(problem, eopts);
  const RecoveryStats& stats = controller.run(8);
  EXPECT_EQ(stats.iterations_lost, 0);
  EXPECT_EQ(stats.restart_iterations_lost, 1);
  EXPECT_LT(stats.iterations_lost, stats.restart_iterations_lost);
  EXPECT_GT(stats.resharded_tensors, 0);
}

TEST(Elastic, RejectsBadOptions) {
  const DdpmProblem problem(DdpmConfig{});
  {
    ElasticOptions eopts = small_world_options(false);
    eopts.config.checkpoint_interval = 0;  // Recovery-consumed knob.
    EXPECT_THROW(ElasticRecoveryController(problem, eopts),
                 std::invalid_argument);
  }
  {
    ElasticOptions eopts = small_world_options(false);
    ElasticCrash a;
    a.iteration = 5;
    ElasticCrash b;
    b.iteration = 5;  // Not strictly increasing.
    eopts.crashes = {a, b};
    EXPECT_THROW(ElasticRecoveryController(problem, eopts),
                 std::invalid_argument);
  }
  {
    ElasticOptions eopts = small_world_options(false);
    ElasticCrash a;
    a.iteration = 2;
    a.stage = -1;  // Negative coordinate.
    eopts.crashes = {a};
    EXPECT_THROW(ElasticRecoveryController(problem, eopts),
                 std::invalid_argument);
  }
  {
    ElasticRecoveryController controller(problem,
                                         small_world_options(false));
    EXPECT_THROW(controller.run(0), std::invalid_argument);
    EXPECT_THROW(controller.plan_for_world(0), std::invalid_argument);
  }
}

}  // namespace
}  // namespace dpipe::rt
