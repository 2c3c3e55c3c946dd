#include <gtest/gtest.h>

#include "model/model.h"
#include "model/zoo.h"

namespace dpipe {
namespace {

TEST(Model, ValidateAcceptsZooModels) {
  for (const ModelDesc& m : paper_models()) {
    EXPECT_NO_THROW(validate(m)) << m.name;
  }
}

TEST(Model, BackboneAccessor) {
  const ModelDesc m = make_cdm_lsun();
  EXPECT_EQ(m.backbone(0).name, "lsun_base64");
  EXPECT_EQ(m.backbone(1).name, "lsun_sr128");
  EXPECT_THROW((void)m.backbone(2), std::invalid_argument);
}

TEST(Model, EffectiveGradDefaultsToParam) {
  LayerDesc l;
  l.param_mb = 10.0;
  EXPECT_DOUBLE_EQ(l.effective_grad_mb(), 10.0);
  l.grad_mb = 0.0;
  EXPECT_DOUBLE_EQ(l.effective_grad_mb(), 0.0);
}

TEST(Model, NonTrainableTopoOrderRespectsDeps) {
  const ModelDesc m = make_controlnet_v10();
  const std::vector<int> order = m.non_trainable_topo_order();
  // text(0), vae(1), hint(2) before locked encoder(3).
  ASSERT_EQ(order.size(), 4u);
  const auto pos = [&](int id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos(0), pos(3));
  EXPECT_LT(pos(1), pos(3));
  EXPECT_LT(pos(2), pos(3));
}

TEST(Model, TopoOrderDetectsCycle) {
  ModelDesc m = make_synthetic_model(4, 2, 1);
  // Introduce a frozen->frozen cycle.
  ComponentDesc extra;
  extra.name = "cyclic";
  extra.trainable = false;
  extra.deps = {0};
  extra.layers.push_back(m.components[0].layers[0]);
  m.components[0].deps.push_back(static_cast<int>(m.components.size()));
  m.components.push_back(extra);
  EXPECT_THROW((void)m.non_trainable_topo_order(), std::logic_error);
}

TEST(Model, ValidateRejectsNonTrainableBackbone) {
  ModelDesc m = make_synthetic_model(4, 0, 2);
  m.components[0].trainable = false;
  EXPECT_THROW(validate(m), std::invalid_argument);
}

TEST(Zoo, StableDiffusionShape) {
  const ModelDesc m = make_stable_diffusion_v21();
  ASSERT_EQ(m.backbone_ids.size(), 1u);
  const ComponentDesc& unet = m.backbone(0);
  EXPECT_EQ(unet.num_layers(), 30);
  // Published totals: ~1.7 TFLOP fwd / sample, 865M params (1730 MB fp16).
  EXPECT_NEAR(unet.total_fwd_gflop(), 1700.0, 1.0);
  EXPECT_NEAR(unet.total_param_mb(), 1730.0, 1.0);
  EXPECT_TRUE(m.self_conditioning);
}

TEST(Zoo, ControlNetTrainablePartSyncsOnlyControlBranch) {
  const ModelDesc m = make_controlnet_v10();
  const ComponentDesc& trainable = m.backbone(0);
  double synced = 0.0;
  double params = 0.0;
  for (const LayerDesc& l : trainable.layers) {
    synced += l.effective_grad_mb();
    params += l.param_mb;
  }
  // Control branch is 722 MB (361M params fp16); locked decoder syncs 0.
  EXPECT_NEAR(synced, 722.0, 1.0);
  EXPECT_GT(params, synced + 500.0);
}

TEST(Zoo, CdmModelsHaveTwoBackbonesAndTinyFrozenPart) {
  for (const ModelDesc& m : {make_cdm_lsun(), make_cdm_imagenet()}) {
    EXPECT_EQ(m.backbone_ids.size(), 2u) << m.name;
    double frozen_gflop = 0.0;
    for (const ComponentDesc& c : m.components) {
      if (!c.trainable) {
        frozen_gflop += c.total_fwd_gflop();
      }
    }
    EXPECT_LT(frozen_gflop, 1.0) << m.name;  // "little non-trainable part"
  }
}

TEST(Zoo, SyntheticModelIsDeterministic) {
  const ModelDesc a = make_synthetic_model(8, 3, 77);
  const ModelDesc b = make_synthetic_model(8, 3, 77);
  ASSERT_EQ(a.components.size(), b.components.size());
  for (std::size_t i = 0; i < a.components.size(); ++i) {
    ASSERT_EQ(a.components[i].layers.size(), b.components[i].layers.size());
    for (std::size_t j = 0; j < a.components[i].layers.size(); ++j) {
      EXPECT_DOUBLE_EQ(a.components[i].layers[j].fwd_gflop,
                       b.components[i].layers[j].fwd_gflop);
    }
  }
}

TEST(Zoo, UniformModelIsUniform) {
  const ModelDesc m = make_uniform_model(10, 25.0, 30.0);
  for (const LayerDesc& l : m.backbone(0).layers) {
    EXPECT_DOUBLE_EQ(l.fwd_gflop, 25.0);
    EXPECT_DOUBLE_EQ(l.param_mb, 30.0);
  }
}

TEST(Zoo, ModelByNameSelectsEveryZooModel) {
  const std::pair<const char*, ModelDesc> named[] = {
      {"sd21", make_stable_diffusion_v21()},
      {"controlnet", make_controlnet_v10()},
      {"cdm_lsun", make_cdm_lsun()},
      {"cdm_imagenet", make_cdm_imagenet()},
      {"cdm_imagenet_full", make_cdm_imagenet_full()},
      {"sdxl", make_sdxl_base()},
      {"dit", make_dit_xl2()},
  };
  for (const auto& [name, model] : named) {
    SCOPED_TRACE(name);
    const ModelDesc got = model_by_name(name);
    EXPECT_EQ(got.name, model.name);
    EXPECT_EQ(got.components.size(), model.components.size());
    EXPECT_EQ(got.backbone_ids, model.backbone_ids);
  }
  EXPECT_THROW((void)model_by_name("sd22"), std::invalid_argument);
}

}  // namespace
}  // namespace dpipe
