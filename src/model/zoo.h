#pragma once

#include <string>

#include "model/model.h"

namespace dpipe {

/// Model zoo: layer-graph descriptors of the four diffusion models evaluated
/// in the paper (Table 5), calibrated against the paper's published
/// measurements — Table 1 non-trainable/trainable ratios, Fig. 5 layer-time
/// distribution (short text-encoder layers, moderate VAE layers, a few
/// extra-long >400 ms layers), Table 2 synchronization fractions.
///
/// All descriptors are *structural*: layer FLOPs, parameter/activation/
/// communication sizes. Times are derived by profiler::AnalyticCostModel.

/// Stable Diffusion v2.1: U-Net backbone (~865M params), OpenCLIP-H text
/// encoder, VAE encoder. 512x512 input; self-conditioning enabled (§6).
[[nodiscard]] ModelDesc make_stable_diffusion_v21();

/// ControlNet v1.0: trainable control branch + locked U-Net decoder
/// (pipelined together; locked layers sync no gradients), with frozen text
/// encoder, VAE, canny-hint encoder and locked U-Net encoder as the
/// non-trainable part (with inter-dependencies, §5).
[[nodiscard]] ModelDesc make_controlnet_v10();

/// Cascaded diffusion (LSUN): two backbones (64x64 base, 128x128 SR) trained
/// with bidirectional pipelining; almost no non-trainable part.
[[nodiscard]] ModelDesc make_cdm_lsun();

/// Cascaded diffusion (ImageNet): the second and third backbones
/// (64x64 and 128x128 inputs), as trained in §6.
[[nodiscard]] ModelDesc make_cdm_imagenet();

/// The full ImageNet cascade including the base backbone the paper left
/// out for memory reasons. Three backbones exercise the §4.2 grouping
/// extension (two FLOP-balanced virtual backbones).
[[nodiscard]] ModelDesc make_cdm_imagenet_full();

/// Returns all four paper models (for sweeps in benches).
[[nodiscard]] std::vector<ModelDesc> paper_models();

/// SDXL-base-style latent diffusion model (~2.6B-parameter U-Net at
/// 128x128x4 latents, dual text encoders): the "larger backbone" trend the
/// paper's introduction motivates. Exercises memory-pressure paths — DDP
/// cannot fit meaningful local batches where the pipeline still can.
[[nodiscard]] ModelDesc make_sdxl_base();

/// DiT-XL/2-style latent diffusion transformer (~675M params, 28 blocks on
/// 32x32x4 latents at 256x256): the transformer-backbone direction the
/// paper's conclusion names as a natural extension. Frozen parts: a class/
/// text embedder and the VAE encoder at 256x256.
[[nodiscard]] ModelDesc make_dit_xl2();

/// The zoo model a command-line name selects: "sd21", "controlnet",
/// "cdm_lsun", "cdm_imagenet", "cdm_imagenet_full", "sdxl" or "dit".
/// Throws std::invalid_argument on any other name.
[[nodiscard]] ModelDesc model_by_name(const std::string& name);

/// Synthetic single-backbone model for tests: `num_layers` trainable layers
/// with deterministic pseudo-random sizes (seeded), one small frozen encoder
/// of `num_frozen_layers` layers.
[[nodiscard]] ModelDesc make_synthetic_model(int num_layers,
                                             int num_frozen_layers,
                                             unsigned seed);

/// Synthetic uniform backbone: every layer identical. Useful for analytic
/// expectations in unit tests (optimal partition is the even split).
[[nodiscard]] ModelDesc make_uniform_model(int num_layers,
                                           double gflop_per_layer,
                                           double param_mb_per_layer);

}  // namespace dpipe
