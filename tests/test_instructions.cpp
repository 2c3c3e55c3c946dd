#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/fill/filler.h"
#include "core/instr/instructions.h"
#include "core/instr/serialize.h"
#include "core/partition/brute_force.h"
#include "engine/engine.h"
#include "model/zoo.h"

namespace dpipe {
namespace {

struct Lowered {
  ModelDesc model;
  ClusterSpec cluster;
  CommModel comm;
  ProfileDb db;
  PartitionOptions opts;
  FillResult fill;
  InstructionProgram program;

  Lowered(ModelDesc m, int stages, int micro, double batch)
      : model(std::move(m)),
        cluster(make_p4de_cluster(1)),
        comm(cluster),
        db(model, AnalyticCostModel(cluster.device, NoiseSource(0, 0.0)),
           default_batch_grid()) {
    opts.num_stages = stages;
    opts.num_microbatches = micro;
    opts.group_size = 8;
    opts.microbatch_size = batch / micro;
    const DpPartitioner partitioner(db, comm);
    const ScheduleBuilder builder(db, comm);
    const int backbone = model.backbone_ids[0];
    const PartitionResult part =
        partitioner.partition_single(backbone, opts);
    const Schedule schedule = builder.build_1f1b(backbone, part.stages, opts);
    FillOptions fill_opts;
    fill_opts.training_batch = batch;
    fill = BubbleFiller(db).fill(schedule, fill_opts);
    program = generate_instructions(db, fill.filled_schedule, fill, opts);
  }
};

TEST(Instructions, ForwardLayerRangesTileTheBackbone) {
  const Lowered l(make_stable_diffusion_v21(), 4, 4, 64.0);
  // Union of fwd layer ranges over all devices for micro 0 must equal
  // [0, L) exactly once per stage replica chain.
  std::map<int, int> coverage;  // layer -> times forwarded for micro 0
  for (const auto& stream : l.program.per_device) {
    for (const Instruction& i : stream) {
      if (i.kind == InstrKind::kForward && i.micro == 0) {
        for (int layer = i.layer_begin; layer < i.layer_end; ++layer) {
          ++coverage[layer];
        }
      }
    }
  }
  const int L = l.model.backbone(0).num_layers();
  const int replicas = 8 / 4;
  for (int layer = 0; layer < L; ++layer) {
    EXPECT_EQ(coverage[layer], replicas) << "layer " << layer;
  }
}

TEST(Instructions, EveryRecvNamesAValidSender) {
  const Lowered l(make_controlnet_v10(), 2, 4, 64.0);
  for (int dev = 0; dev < 8; ++dev) {
    for (const Instruction& i : l.program.per_device[dev]) {
      if (i.kind != InstrKind::kRecvActivation &&
          i.kind != InstrKind::kRecvGradient) {
        continue;
      }
      // The peer must host a matching send targeting this device.
      bool found = false;
      for (const Instruction& j : l.program.per_device[i.peer]) {
        const bool send = j.kind == InstrKind::kSendActivation ||
                          j.kind == InstrKind::kSendGradient;
        if (send && j.peer == dev && j.micro == i.micro &&
            j.backbone == i.backbone) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "orphan recv on device " << dev << " micro "
                         << i.micro;
    }
  }
}

TEST(Instructions, OptimizerStepsFollowAllBackwards) {
  const Lowered l(make_stable_diffusion_v21(), 4, 4, 64.0);
  for (const auto& stream : l.program.per_device) {
    bool saw_optimizer = false;
    for (const Instruction& i : stream) {
      if (i.kind == InstrKind::kOptimizerStep) {
        saw_optimizer = true;
      } else if (i.kind == InstrKind::kBackward) {
        EXPECT_FALSE(saw_optimizer) << "backward after optimizer step";
      }
    }
    EXPECT_TRUE(saw_optimizer);
  }
}

TEST(Instructions, PreambleCoversWholeNonTrainablePart) {
  const Lowered l(make_controlnet_v10(), 2, 4, 64.0);
  for (const auto& stream : l.program.preamble) {
    std::map<std::pair<int, int>, int> seen;
    for (const Instruction& i : stream) {
      ASSERT_EQ(i.kind, InstrKind::kFrozenForward);
      ++seen[{i.component, i.layer_begin}];
      EXPECT_NEAR(i.samples, 64.0 / 8.0, 1e-9);  // Data-parallel share.
    }
    int expected = 0;
    for (const ComponentDesc& c : l.model.components) {
      if (!c.trainable) {
        expected += c.num_layers();
      }
    }
    EXPECT_EQ(static_cast<int>(seen.size()), expected);
  }
}

TEST(Instructions, FrozenSamplesSumToNextIterationBatch) {
  const Lowered l(make_stable_diffusion_v21(), 2, 4, 64.0);
  // Steady-state frozen instructions (bubble + leftover) process exactly
  // one full batch per (component, layer) per iteration.
  std::map<std::pair<int, int>, double> samples;
  for (const auto& stream : l.program.per_device) {
    for (const Instruction& i : stream) {
      if (i.kind == InstrKind::kFrozenForward) {
        samples[{i.component, i.layer_begin}] += i.samples;
      }
    }
  }
  for (std::size_t ci = 0; ci < l.model.components.size(); ++ci) {
    if (l.model.components[ci].trainable) {
      continue;
    }
    for (int li = 0; li < l.model.components[ci].num_layers(); ++li) {
      const double s = samples[{static_cast<int>(ci), li}];
      EXPECT_NEAR(s, 64.0, 1e-6) << "component " << ci << " layer " << li;
    }
  }
}

// --- Program serialization (front-end -> back-end hand-off) -----------------

TEST(Serialize, RoundTripPreservesEveryField) {
  const Lowered l(make_controlnet_v10(), 4, 4, 64.0);
  const InstructionProgram copy =
      program_from_string(program_to_string(l.program));
  ASSERT_EQ(copy.group_size, l.program.group_size);
  ASSERT_EQ(copy.num_backbones, l.program.num_backbones);
  for (int dev = 0; dev < copy.group_size; ++dev) {
    ASSERT_EQ(copy.per_device[dev].size(), l.program.per_device[dev].size());
    ASSERT_EQ(copy.preamble[dev].size(), l.program.preamble[dev].size());
    for (std::size_t n = 0; n < copy.per_device[dev].size(); ++n) {
      const Instruction& a = copy.per_device[dev][n];
      const Instruction& b = l.program.per_device[dev][n];
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.backbone, b.backbone);
      EXPECT_EQ(a.stage, b.stage);
      EXPECT_EQ(a.micro, b.micro);
      EXPECT_EQ(a.component, b.component);
      EXPECT_EQ(a.layer_begin, b.layer_begin);
      EXPECT_EQ(a.layer_end, b.layer_end);
      EXPECT_EQ(a.peer, b.peer);
      EXPECT_NEAR(a.samples, b.samples, 1e-9);
      EXPECT_NEAR(a.size_mb, b.size_mb, b.size_mb * 1e-6 + 1e-9);
    }
  }
}

TEST(Serialize, ReserializationIsByteIdentical) {
  // serialize -> parse -> re-serialize is the identity on the textual
  // form: the .dpipe format loses nothing, so a program can cross the
  // front-end/back-end hand-off any number of times.
  const Lowered l(make_stable_diffusion_v21(), 4, 4, 64.0);
  const std::string text = program_to_string(l.program);
  EXPECT_EQ(program_to_string(program_from_string(text)), text);
  const Lowered cascade(make_cdm_lsun(), 2, 4, 64.0);
  const std::string text2 = program_to_string(cascade.program);
  EXPECT_EQ(program_to_string(program_from_string(text2)), text2);
}

TEST(Serialize, DeserializedProgramExecutesIdentically) {
  const Lowered l(make_stable_diffusion_v21(), 2, 4, 64.0);
  const InstructionProgram copy =
      program_from_string(program_to_string(l.program));
  const ExecutionEngine engine(l.db, l.comm);
  EngineOptions eopts;
  eopts.iterations = 3;
  eopts.group_batch = 64.0;
  const double a = engine.run(l.program, eopts).steady_iteration_ms;
  const double b = engine.run(copy, eopts).steady_iteration_ms;
  EXPECT_NEAR(a, b, a * 1e-6);
}

TEST(Serialize, RejectsMalformedInput) {
  EXPECT_THROW((void)program_from_string("not a program"),
               std::invalid_argument);
  EXPECT_THROW((void)program_from_string("dpipe-program v1\ngroup_size 0\n"),
               std::invalid_argument);
  EXPECT_THROW((void)program_from_string(
                   "dpipe-program v1\ngroup_size 1\nnum_backbones 1\n"
                   "device 0 preamble 1\n"),  // Missing instruction line.
               std::invalid_argument);
  EXPECT_THROW(
      (void)program_from_string(
          "dpipe-program v1\ngroup_size 1\nnum_backbones 1\n"
          "device 0 preamble 1\n"
          "teleport b=0 s=0 m=0 c=0 l=0:1 n=1 p=-1 sz=0\n"),  // Bad kind.
      std::invalid_argument);
  // Header lines are parsed whole: a missing or non-numeric count, stray
  // bytes after a number and a stray token all fail instead of loading
  // (the device sections as empty ones).
  for (const std::string body :
       {"group_size 1\nnum_backbones 1\n"
        "device 0 preamble\ndevice 0 steady 0\n",
        "group_size 1\nnum_backbones 1\n"
        "device 0 preamble 0\ndevice 0 steady xyz\n",
        "group_size 1\nnum_backbones 1\n"
        "device 0 preamble 0 junk\ndevice 0 steady 0\n",
        "group_size 1\nnum_backbones 1x\n"
        "device 0 preamble 0\ndevice 0 steady 0\n",
        "group_size 1\nnum_backbones 1 junk\n"
        "device 0 preamble 0\ndevice 0 steady 0\n"}) {
    SCOPED_TRACE(body);
    EXPECT_THROW((void)program_from_string("dpipe-program v1\n" + body),
                 std::invalid_argument);
  }
}

TEST(Serialize, RejectsGroupSizeTheInputCannotBack) {
  // group_size is read from the input: a huge value followed by a single
  // device section must fail as truncated instead of sizing per-device
  // tables for two billion devices up front.
  EXPECT_THROW((void)program_from_string(
                   "dpipe-program v1\ngroup_size 2000000000\n"
                   "num_backbones 1\ndevice 0 preamble 0\n"),
               std::invalid_argument);
  EXPECT_THROW((void)program_from_string(
                   "dpipe-program v1\ngroup_size 2147483647\n"
                   "num_backbones 1\n"),
               std::invalid_argument);
}

TEST(Serialize, RejectsMalformedNumbers) {
  const auto program_with = [](const std::string& instruction) {
    return "dpipe-program v1\ngroup_size 1\nnum_backbones 1\n"
           "device 0 preamble 1\n" +
           instruction + "\ndevice 0 steady 0\n";
  };
  const std::string kind = to_string(InstrKind::kForward);
  const InstructionProgram valid = program_from_string(
      program_with(kind + " b=0 s=0 m=0 c=0 l=0:1 n=1.5 p=-1 sz=4.9e-324"));
  EXPECT_EQ(valid.preamble[0][0].size_mb, 4.9e-324);
  for (const std::string fields :
       {" b=0 s=0 m=0 c=0 l=0:1 n=1.5xyz p=-1 sz=0",   // Stray bytes.
        " b=0 s=0 m=0 c=0 l=0:1 n=1e999 p=-1 sz=0",    // Out of range.
        " b=0 s=0 m=0 c=0 l=0:1 n= p=-1 sz=0",         // Empty field.
        " b=0.5 s=0 m=0 c=0 l=0:1 n=1 p=-1 sz=0",      // Not an integer.
        " b=0 s=0 m=0 c=0 l=0:1x n=1 p=-1 sz=0",       // Stray range bytes.
        " b=0 s=0 m=0 c=0 l=:1 n=1 p=-1 sz=0",         // Empty range bound.
        " b=0 s=0 m=0 c=0 l=0:1 n=1 p=99999999999 sz=0",  // Beyond int.
        " b=0 s=0 m=0 c=0 l=0:1 n=1 p=-1 sz=0 extra",  // Stray token.
        " b=0 s=0 m=0 c=0 l=0:1 n=1 p=-1"}) {          // Truncated.
    SCOPED_TRACE(fields);
    EXPECT_THROW((void)program_from_string(program_with(kind + fields)),
                 std::invalid_argument);
  }
}

// --- Pareto DP ablation ------------------------------------------------------

TEST(PartitionerAblation, ScalarizedStatesNeverBeatTheFrontier) {
  // Collapsing each DP state's (W, Y) frontier to one scalarized point is
  // the naive reading of Eqn (2); it can only match or worsen the final
  // objective. (The Pareto frontier is the reason the DP stays exact.)
  int worse = 0;
  for (unsigned seed = 200; seed < 215; ++seed) {
    ModelDesc m = make_synthetic_model(10, 0, seed);
    // Heavy first-layer gradients create genuine W/Y trade-offs.
    m.components[0].layers[0].param_mb *= 40.0;
    m.components[0].layers[5].param_mb *= 25.0;
    const ClusterSpec cluster = make_p4de_cluster(2);
    const CommModel comm(cluster);
    const ProfileDb db(
        m, AnalyticCostModel(cluster.device, NoiseSource(0, 0.0)),
        default_batch_grid());
    const DpPartitioner partitioner(db, comm);
    PartitionOptions opts;
    opts.num_stages = 5;
    opts.num_microbatches = 2;
    opts.group_size = 5;
    opts.data_parallel_degree = 3;
    opts.microbatch_size = 8.0;
    opts.force_uniform_replicas = true;
    const double pareto =
        partitioner.partition_single(0, opts).upper_bound_ms;
    opts.scalarize_dp_states = true;
    const double scalar =
        partitioner.partition_single(0, opts).upper_bound_ms;
    EXPECT_GE(scalar, pareto - 1e-9) << "seed " << seed;
    worse += scalar > pareto * (1.0 + 1e-12) ? 1 : 0;
  }
  // On most instances the two coincide; the invariant is the ordering.
  SUCCEED() << worse << " instances strictly worse under scalarization";
}

}  // namespace
}  // namespace dpipe
