#include "model/zoo.h"

#include <cmath>
#include <stdexcept>

#include "common/noise.h"

namespace dpipe {

namespace {

// Shorthand builder for a layer row. Sizes per sample, see LayerDesc.
LayerDesc layer(std::string name, LayerKind kind, double gflop,
                double param_mb, double out_mb, double act_mb, double eff,
                double overhead_fwd_ms = 0.1, double overhead_bwd_ms = 0.0,
                double grad_mb = -1.0) {
  LayerDesc l;
  l.name = std::move(name);
  l.kind = kind;
  l.fwd_gflop = gflop;
  l.param_mb = param_mb;
  l.grad_mb = grad_mb;
  l.output_mb = out_mb;
  l.act_mb = act_mb;
  l.efficiency = eff;
  l.overhead_fwd_ms = overhead_fwd_ms;
  l.overhead_bwd_ms = overhead_bwd_ms;
  return l;
}

// Rescales a field across all layers so its total hits a calibration target
// (keeps the per-layer *shape*, fixes the physically-known total).
void scale_total(std::vector<LayerDesc>& layers, double LayerDesc::*field,
                 double target_total) {
  double sum = 0.0;
  for (const LayerDesc& l : layers) {
    sum += l.*field;
  }
  ensure(sum > 0.0, "cannot scale a zero-total field");
  const double factor = target_total / sum;
  for (LayerDesc& l : layers) {
    l.*field *= factor;
  }
}

// ---------------------------------------------------------------------------
// Shared sub-model builders
// ---------------------------------------------------------------------------

// OpenCLIP-H text tower: 23 transformer blocks, width 1024, 77 tokens.
// ~2 GFLOP / block / sample => ~1 ms per layer at batch 64 on A100
// (the "short" layers 0..21 of the paper's Fig. 5).
ComponentDesc make_clip_text_encoder() {
  ComponentDesc c;
  c.name = "clip_text_encoder";
  c.trainable = false;
  for (int i = 0; i < 22; ++i) {
    c.layers.push_back(layer("text_block_" + std::to_string(i),
                             LayerKind::kTransformerBlock, 2.0, 25.0, 0.158,
                             0.4, 0.45, 0.08));
  }
  c.layers.push_back(layer("text_final_ln_proj", LayerKind::kNorm, 0.3, 4.0,
                           0.158, 0.2, 0.30, 0.08));
  return c;
}

// SD VAE encoder at 512x512 (fp32 kernels — hence the low efficiencies and
// the extra-long first-stage residual blocks, >400 ms at batch 64; the
// "moderate" and "extra-long" layers 22..41 of Fig. 5).
ComponentDesc make_vae_encoder() {
  ComponentDesc c;
  c.name = "vae_encoder";
  c.trainable = false;
  auto add = [&](std::string name, LayerKind k, double gf, double p,
                 double out, double eff) {
    c.layers.push_back(layer(std::move(name), k, gf, p, out, 1.0, eff, 0.15));
  };
  add("vae_conv_in", LayerKind::kHighResConv, 1.8, 0.02, 67.0, 0.12);
  add("vae_down0_res0", LayerKind::kHighResConv, 155.0, 0.6, 67.0, 0.065);
  add("vae_down0_res1", LayerKind::kHighResConv, 155.0, 0.6, 67.0, 0.075);
  add("vae_down0_down", LayerKind::kDownsample, 19.3, 0.3, 16.8, 0.12);
  add("vae_down1_res0", LayerKind::kHighResConv, 116.0, 1.7, 33.5, 0.10);
  add("vae_down1_res1", LayerKind::kHighResConv, 155.0, 2.3, 33.5, 0.14);
  add("vae_down1_down", LayerKind::kDownsample, 19.3, 1.2, 8.4, 0.14);
  add("vae_down2_res0", LayerKind::kConv, 87.0, 6.8, 16.8, 0.20);
  add("vae_down2_res1", LayerKind::kConv, 116.0, 9.0, 16.8, 0.20);
  add("vae_down2_down", LayerKind::kDownsample, 19.3, 4.7, 4.2, 0.25);
  add("vae_down3_res0", LayerKind::kConv, 38.7, 9.0, 4.2, 0.30);
  add("vae_down3_res1", LayerKind::kConv, 38.7, 9.0, 4.2, 0.30);
  add("vae_mid_res0", LayerKind::kConv, 38.7, 9.0, 4.2, 0.30);
  add("vae_mid_attn", LayerKind::kAttention, 21.0, 2.0, 4.2, 0.22);
  add("vae_mid_res1", LayerKind::kConv, 38.7, 9.0, 4.2, 0.30);
  add("vae_out_norm", LayerKind::kNorm, 2.0, 0.01, 4.2, 0.10);
  add("vae_out_conv", LayerKind::kConv, 8.0, 0.06, 0.065, 0.20);
  add("vae_quant_conv", LayerKind::kConv, 1.0, 0.001, 0.065, 0.15);
  // Calibration: non-trainable forward / trainable fwd+bwd ratio of Stable
  // Diffusion (paper Table 1: 38% @ batch 8 -> 44% @ batch 64).
  scale_total(c.layers, &LayerDesc::fwd_gflop, 888.0);
  return c;
}

// SD v2.1 U-Net backbone. 36 schedulable layers; GFLOPs/params/activations
// normalized to the published totals: ~1.7 TFLOP forward per sample at
// 64x64x4 latents, 865M parameters (1730 MB fp16), ~1.29 GB activations per
// sample (paper §2.3: 24.3 GB at batch 8 incl. 13.8 GB optimizer states).
ComponentDesc make_sd_unet(const std::string& name) {
  ComponentDesc c;
  c.name = name;
  c.trainable = true;
  auto add = [&](std::string n, double gf, double p, double out, double act) {
    c.layers.push_back(layer(std::move(n), LayerKind::kResBlock, gf, p, out,
                             act, 0.30, 0.6, 1.0));
  };
  add("conv_in", 9, 12, 5.2, 10);
  for (int i = 0; i < 2; ++i) {
    add("down0_restrans" + std::to_string(i), 85, 38, 7.9, 46);
  }
  add("down0_downsample", 10, 7, 4.2, 12);
  for (int i = 0; i < 2; ++i) {
    add("down1_restrans" + std::to_string(i), 78, 95, 5.5, 30);
  }
  add("down1_downsample", 9, 15, 3.5, 8);
  for (int i = 0; i < 2; ++i) {
    add("down2_restrans" + std::to_string(i), 72, 220, 2.8, 18);
  }
  add("down2_downsample", 8, 30, 2.2, 5);
  for (int i = 0; i < 2; ++i) {
    add("down3_res" + std::to_string(i), 40, 120, 1.6, 8);
  }
  add("mid_res_attn0", 60, 150, 1.6, 10);
  add("mid_res_attn1", 65, 160, 1.6, 10);
  for (int i = 0; i < 3; ++i) {
    add("up3_res" + std::to_string(i), 45, 140, 2.0, 9);
  }
  add("up3_upsample", 6, 15, 2.6, 5);
  for (int i = 0; i < 3; ++i) {
    add("up2_restrans" + std::to_string(i), 75, 230, 3.0, 16);
  }
  add("up2_upsample", 6, 18, 4.0, 6);
  for (int i = 0; i < 3; ++i) {
    add("up1_restrans" + std::to_string(i), 80, 105, 5.5, 28);
  }
  add("up1_upsample", 6, 8, 6.5, 9);
  for (int i = 0; i < 3; ++i) {
    add("up0_restrans" + std::to_string(i), 88, 42, 7.9, 44);
  }
  add("out_norm_conv", 10, 6, 0.033, 6);
  ensure(c.num_layers() == 30, "SD U-Net layer count drifted");
  scale_total(c.layers, &LayerDesc::fwd_gflop, 1700.0);
  scale_total(c.layers, &LayerDesc::param_mb, 1730.0);
  scale_total(c.layers, &LayerDesc::act_mb, 1290.0);
  return c;
}

// Generic cascaded-diffusion U-Net backbone used by the CDM models.
ComponentDesc make_cdm_unet(const std::string& name, int num_layers,
                            double total_gflop, double total_param_mb,
                            double total_act_mb, double out_mb) {
  ComponentDesc c;
  c.name = name;
  c.trainable = true;
  // Spindle-shaped cost profile: heavier layers in the middle of the net.
  for (int i = 0; i < num_layers; ++i) {
    const double t = static_cast<double>(i) / (num_layers - 1);
    const double bump = 0.6 + 0.8 * std::sin(3.14159265 * t);
    c.layers.push_back(layer(name + "_block" + std::to_string(i),
                             LayerKind::kResBlock, bump, bump, out_mb,
                             bump, 0.30, 0.15, 0.25));
  }
  scale_total(c.layers, &LayerDesc::fwd_gflop, total_gflop);
  scale_total(c.layers, &LayerDesc::param_mb, total_param_mb);
  scale_total(c.layers, &LayerDesc::act_mb, total_act_mb);
  return c;
}

ComponentDesc make_class_embedding(const std::string& name) {
  ComponentDesc c;
  c.name = name;
  c.trainable = false;
  c.layers.push_back(layer(name + "_lookup", LayerKind::kEmbedding, 0.01, 8.0,
                           0.004, 0.01, 0.20, 0.05));
  c.layers.push_back(
      layer(name + "_mlp", LayerKind::kLinear, 0.05, 4.0, 0.004, 0.01, 0.30,
            0.05));
  return c;
}

}  // namespace

ModelDesc make_stable_diffusion_v21() {
  ModelDesc m;
  m.name = "stable_diffusion_v2.1";
  m.image_size = 512;
  m.self_conditioning = true;
  m.self_cond_prob = 0.5;
  m.components.push_back(make_clip_text_encoder());  // 0
  m.components.push_back(make_vae_encoder());        // 1
  ComponentDesc unet = make_sd_unet("sd_unet");      // 2
  unet.deps = {0, 1};
  m.components.push_back(std::move(unet));
  m.backbone_ids = {2};
  validate(m);
  return m;
}

ModelDesc make_controlnet_v10() {
  ModelDesc m;
  m.name = "controlnet_v1.0";
  m.image_size = 512;
  m.self_conditioning = true;
  m.self_cond_prob = 0.5;

  m.components.push_back(make_clip_text_encoder());  // 0
  m.components.push_back(make_vae_encoder());        // 1

  // Canny-hint encoder: conv stack ingesting the 512x512 condition image.
  ComponentDesc hint;
  hint.name = "hint_encoder";
  hint.trainable = false;
  hint.layers.push_back(layer("hint_conv0", LayerKind::kHighResConv, 146.0,
                              0.2, 33.0, 1.0, 0.10, 0.12));
  hint.layers.push_back(layer("hint_conv1", LayerKind::kHighResConv, 40.0, 0.4,
                              16.0, 1.0, 0.12, 0.12));
  hint.layers.push_back(
      layer("hint_conv2", LayerKind::kConv, 18.0, 0.8, 8.0, 0.8, 0.18, 0.12));
  hint.layers.push_back(
      layer("hint_conv3", LayerKind::kConv, 6.0, 1.0, 2.6, 0.5, 0.22, 0.12));
  m.components.push_back(std::move(hint));  // 2

  // Locked SD U-Net *encoder* forward: frozen, consumes text/VAE/hint
  // outputs, produces the skip activations the decoder needs. Its output
  // does not depend on trainable parameters, so it is precomputable —
  // this is the paper's example of non-trainable components with
  // inter-dependencies.
  ComponentDesc locked_enc;
  locked_enc.name = "locked_unet_encoder";
  locked_enc.trainable = false;
  locked_enc.deps = {0, 1, 2};
  {
    const ComponentDesc full = make_sd_unet("locked");
    for (int i = 0; i < 12; ++i) {  // conv_in .. down path
      LayerDesc l = full.layers[i];
      l.overhead_fwd_ms = 0.2;
      l.overhead_bwd_ms = 0.0;
      l.grad_mb = 0.0;
      locked_enc.layers.push_back(std::move(l));
    }
    scale_total(locked_enc.layers, &LayerDesc::fwd_gflop, 700.0);
  }
  m.components.push_back(std::move(locked_enc));  // 3

  // Trainable pipeline: the control branch (a trainable copy of the U-Net
  // encoder + zero-convs, 361M params) followed by the locked decoder,
  // through which gradients flow but whose own gradients are never synced
  // (grad_mb = 0, bwd_flop_factor 1.2: dL/dx only, no dL/dW).
  ComponentDesc trainable;
  trainable.name = "control_branch_and_locked_decoder";
  trainable.trainable = true;
  trainable.deps = {0, 1, 2, 3};
  {
    const ComponentDesc full = make_sd_unet("ctrl");
    std::vector<LayerDesc> control(full.layers.begin(),
                                   full.layers.begin() + 14);
    scale_total(control, &LayerDesc::fwd_gflop, 700.0);
    scale_total(control, &LayerDesc::param_mb, 722.0);
    scale_total(control, &LayerDesc::act_mb, 560.0);
    for (LayerDesc& l : control) {
      l.name = "control_" + l.name;
      trainable.layers.push_back(std::move(l));
    }
    std::vector<LayerDesc> decoder(full.layers.begin() + 14,
                                   full.layers.end());
    scale_total(decoder, &LayerDesc::fwd_gflop, 900.0);
    scale_total(decoder, &LayerDesc::param_mb, 1010.0);
    scale_total(decoder, &LayerDesc::act_mb, 640.0);
    for (LayerDesc& l : decoder) {
      l.name = "locked_dec_" + l.name;
      l.grad_mb = 0.0;
      l.bwd_flop_factor = 1.2;
      trainable.layers.push_back(std::move(l));
    }
  }
  m.components.push_back(std::move(trainable));  // 4
  m.backbone_ids = {4};
  validate(m);
  return m;
}

ModelDesc make_cdm_lsun() {
  ModelDesc m;
  m.name = "cdm_lsun";
  m.image_size = 128;
  m.self_conditioning = false;
  m.components.push_back(make_class_embedding("lsun_cond"));  // 0
  ComponentDesc base =
      make_cdm_unet("lsun_base64", 24, 520.0, 550.0, 200.0, 3.0);
  base.deps = {0};
  m.components.push_back(std::move(base));  // 1
  ComponentDesc sr = make_cdm_unet("lsun_sr128", 26, 680.0, 640.0, 400.0, 8.0);
  sr.deps = {0};
  m.components.push_back(std::move(sr));  // 2
  m.backbone_ids = {1, 2};
  validate(m);
  return m;
}

ModelDesc make_cdm_imagenet() {
  ModelDesc m;
  m.name = "cdm_imagenet";
  m.image_size = 128;
  m.self_conditioning = false;
  m.components.push_back(make_class_embedding("in_cond"));  // 0
  ComponentDesc b1 =
      make_cdm_unet("imagenet_sr64", 28, 880.0, 820.0, 300.0, 4.0);
  b1.deps = {0};
  m.components.push_back(std::move(b1));  // 1
  ComponentDesc b2 =
      make_cdm_unet("imagenet_sr128", 30, 1180.0, 950.0, 600.0, 10.0);
  b2.deps = {0};
  m.components.push_back(std::move(b2));  // 2
  m.backbone_ids = {1, 2};
  validate(m);
  return m;
}

ModelDesc make_sdxl_base() {
  ModelDesc m;
  m.name = "sdxl_base";
  m.image_size = 1024;
  m.self_conditioning = false;

  // Dual text encoders: CLIP-L (smaller) + OpenCLIP-bigG (larger).
  ComponentDesc text1 = make_clip_text_encoder();
  text1.name = "clip_l_text_encoder";
  scale_total(text1.layers, &LayerDesc::fwd_gflop, 20.0);
  m.components.push_back(std::move(text1));  // 0
  ComponentDesc text2 = make_clip_text_encoder();
  text2.name = "openclip_bigg_text_encoder";
  scale_total(text2.layers, &LayerDesc::fwd_gflop, 140.0);
  scale_total(text2.layers, &LayerDesc::param_mb, 1390.0);
  m.components.push_back(std::move(text2));  // 1

  // VAE at 1024x1024: 4x the spatial work of the SD v2.1 encoder.
  ComponentDesc vae = make_vae_encoder();
  vae.name = "vae_encoder_1024";
  scale_total(vae.layers, &LayerDesc::fwd_gflop, 3552.0);  // 888 x 4
  for (LayerDesc& l : vae.layers) {
    l.output_mb *= 4.0;
  }
  m.components.push_back(std::move(vae));  // 2

  // U-Net: ~2.6B params (5200 MB fp16), ~6 TFLOP fwd at 128x128 latents.
  ComponentDesc unet = make_sd_unet("sdxl_unet");
  unet.deps = {0, 1, 2};
  scale_total(unet.layers, &LayerDesc::fwd_gflop, 6000.0);
  scale_total(unet.layers, &LayerDesc::param_mb, 5200.0);
  scale_total(unet.layers, &LayerDesc::act_mb, 2600.0);
  m.components.push_back(std::move(unet));  // 3
  m.backbone_ids = {3};
  validate(m);
  return m;
}

ModelDesc make_dit_xl2() {
  ModelDesc m;
  m.name = "dit_xl2";
  m.image_size = 256;
  m.self_conditioning = false;

  // Conditioning embedder (class label + timestep), frozen here: DiT
  // trains it, but as a pipeline input producer it behaves like the
  // paper's encoders.
  m.components.push_back(make_class_embedding("dit_cond"));  // 0

  // VAE encoder at 256x256: same architecture as SD's but 1/4 the spatial
  // work (ratios scale accordingly).
  ComponentDesc vae = make_vae_encoder();
  vae.name = "vae_encoder_256";
  scale_total(vae.layers, &LayerDesc::fwd_gflop, 222.0);  // 888 / 4
  for (LayerDesc& l : vae.layers) {
    l.output_mb *= 0.25;
  }
  m.components.push_back(std::move(vae));  // 1

  // Backbone: patchify + 28 transformer blocks (width 1152, 256 tokens) +
  // final layer. DiT-XL/2 ~675M params (1350 MB fp16), ~480 GFLOP fwd.
  ComponentDesc backbone;
  backbone.name = "dit_backbone";
  backbone.trainable = true;
  backbone.deps = {0, 1};
  backbone.layers.push_back(layer("patchify", LayerKind::kLinear, 2.0, 3.0,
                                  0.6, 1.2, 0.40, 0.3, 0.5));
  for (int i = 0; i < 28; ++i) {
    backbone.layers.push_back(
        layer("dit_block_" + std::to_string(i), LayerKind::kTransformerBlock,
              17.0, 48.0, 0.6, 4.0, 0.42, 0.3, 0.5));
  }
  backbone.layers.push_back(layer("final_layer", LayerKind::kLinear, 2.0,
                                  4.0, 0.016, 0.8, 0.40, 0.3, 0.5));
  scale_total(backbone.layers, &LayerDesc::fwd_gflop, 480.0);
  scale_total(backbone.layers, &LayerDesc::param_mb, 1350.0);
  m.components.push_back(std::move(backbone));  // 2
  m.backbone_ids = {2};
  validate(m);
  return m;
}

ModelDesc make_cdm_imagenet_full() {
  ModelDesc m = make_cdm_imagenet();
  m.name = "cdm_imagenet_full";
  ComponentDesc base =
      make_cdm_unet("imagenet_base32", 20, 560.0, 700.0, 250.0, 2.0);
  base.deps = {0};
  m.backbone_ids.insert(m.backbone_ids.begin(),
                        static_cast<int>(m.components.size()));
  m.components.push_back(std::move(base));
  validate(m);
  return m;
}

std::vector<ModelDesc> paper_models() {
  return {make_stable_diffusion_v21(), make_controlnet_v10(), make_cdm_lsun(),
          make_cdm_imagenet()};
}

ModelDesc make_synthetic_model(int num_layers, int num_frozen_layers,
                               unsigned seed) {
  require(num_layers >= 1, "need at least one trainable layer");
  require(num_frozen_layers >= 0, "frozen layer count must be >= 0");
  const NoiseSource rng(seed, 0.9);  // wide spread for adversarial shapes
  ModelDesc m;
  m.name = "synthetic_" + std::to_string(seed);
  ComponentDesc frozen;
  frozen.name = "synthetic_encoder";
  frozen.trainable = false;
  for (int i = 0; i < num_frozen_layers; ++i) {
    const double r = rng.multiplier(NoiseSource::key(1, i));
    frozen.layers.push_back(layer("enc" + std::to_string(i),
                                  LayerKind::kConv, 20.0 * r, 5.0 * r,
                                  2.0 * r, 1.0, 0.3, 0.1));
  }
  ComponentDesc backbone;
  backbone.name = "synthetic_backbone";
  backbone.trainable = true;
  if (num_frozen_layers > 0) {
    backbone.deps = {0};
  }
  for (int i = 0; i < num_layers; ++i) {
    const double r = rng.multiplier(NoiseSource::key(2, i));
    const double r2 = rng.multiplier(NoiseSource::key(3, i));
    backbone.layers.push_back(layer("blk" + std::to_string(i),
                                    LayerKind::kResBlock, 50.0 * r, 40.0 * r2,
                                    3.0 * r, 10.0 * r, 0.3, 0.3, 0.5));
  }
  if (num_frozen_layers > 0) {
    m.components.push_back(std::move(frozen));
    m.components.push_back(std::move(backbone));
    m.backbone_ids = {1};
  } else {
    m.components.push_back(std::move(backbone));
    m.backbone_ids = {0};
  }
  validate(m);
  return m;
}

ModelDesc make_uniform_model(int num_layers, double gflop_per_layer,
                             double param_mb_per_layer) {
  require(num_layers >= 1, "need at least one layer");
  ModelDesc m;
  m.name = "uniform";
  ComponentDesc backbone;
  backbone.name = "uniform_backbone";
  backbone.trainable = true;
  for (int i = 0; i < num_layers; ++i) {
    backbone.layers.push_back(layer("blk" + std::to_string(i),
                                    LayerKind::kResBlock, gflop_per_layer,
                                    param_mb_per_layer, 2.0, 5.0, 0.3, 0.0,
                                    0.0));
  }
  m.components.push_back(std::move(backbone));
  m.backbone_ids = {0};
  validate(m);
  return m;
}

ModelDesc model_by_name(const std::string& name) {
  if (name == "sd21") return make_stable_diffusion_v21();
  if (name == "controlnet") return make_controlnet_v10();
  if (name == "cdm_lsun") return make_cdm_lsun();
  if (name == "cdm_imagenet") return make_cdm_imagenet();
  if (name == "cdm_imagenet_full") return make_cdm_imagenet_full();
  if (name == "sdxl") return make_sdxl_base();
  if (name == "dit") return make_dit_xl2();
  throw std::invalid_argument("unknown model: " + name);
}

}  // namespace dpipe
