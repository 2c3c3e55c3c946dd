#pragma once

#include <string>
#include <vector>

#include "common/canonical.h"
#include "common/error.h"

namespace dpipe {

/// Coarse layer taxonomy; the cost model assigns each kind a default
/// hardware efficiency (fraction of device peak attained by its kernels).
enum class LayerKind {
  kConv,              ///< Convolution block at tensor-core-friendly shapes.
  kHighResConv,       ///< Convolution at large spatial dims (memory-bound).
  kResBlock,          ///< Residual block (convs + norms + pointwise).
  kAttention,         ///< Self/cross attention block.
  kTransformerBlock,  ///< Full transformer block (attn + MLP).
  kLinear,            ///< Dense / projection.
  kNorm,              ///< Normalization (bandwidth-bound).
  kEmbedding,         ///< Embedding / encoding lookup.
  kUpsample,
  kDownsample,
  kOther,
};

[[nodiscard]] const char* to_string(LayerKind kind);

/// Inverse of to_string(LayerKind). Throws std::invalid_argument on an
/// unknown spelling.
[[nodiscard]] LayerKind layer_kind_from_string(const std::string& text);

/// Gradients are reduced in fp32 (DeepSpeed's default) while grad_mb
/// records the fp16 tensor size, so every gradient allreduce moves twice
/// the bytes. Applied uniformly to DiffusionPipe and the baselines.
inline constexpr double kGradCommBytesFactor = 2.0;

/// One schedulable unit of a component. Sizes are per *sample* and scale
/// linearly with batch size; times come from the cost model.
struct LayerDesc {
  std::string name;
  LayerKind kind = LayerKind::kOther;
  double fwd_gflop = 0.0;       ///< Forward GFLOPs per sample.
  double bwd_flop_factor = 2.0; ///< Backward FLOPs = factor * forward FLOPs.
  double param_mb = 0.0;        ///< Parameter bytes (MB).
  double grad_mb = -1.0;        ///< Gradient bytes synced in allreduce; -1
                                ///< means "same as param_mb". Frozen layers
                                ///< living inside a trainable pipeline (e.g.
                                ///< ControlNet's locked decoder) use 0.
  double output_mb = 0.0;       ///< Activation sent to the next layer, MB/sample
                                ///< (includes skip tensors crossing the cut).
  double act_mb = 0.0;          ///< Activations stashed for backward, MB/sample.
  double overhead_fwd_ms = 0.1; ///< Batch-independent kernel launch overhead.
  double overhead_bwd_ms = 0.0; ///< Extra overhead for the backward kernels.
  double efficiency = 0.0;      ///< >0 overrides the kind's default efficiency.

  [[nodiscard]] double effective_grad_mb() const {
    return grad_mb < 0.0 ? param_mb : grad_mb;
  }
};

/// A chain of layers executed in order. Trainable components (backbones) are
/// pipelined; non-trainable components (frozen encoders) are bubble-filled.
struct ComponentDesc {
  std::string name;
  bool trainable = false;
  std::vector<LayerDesc> layers;
  /// Indices of components (within the owning ModelDesc) whose *outputs*
  /// this component consumes. Must form a DAG.
  std::vector<int> deps;

  [[nodiscard]] int num_layers() const {
    return static_cast<int>(layers.size());
  }
  [[nodiscard]] double total_param_mb() const;
  [[nodiscard]] double total_fwd_gflop() const;
};

/// A diffusion model: backbones (trainable, pipelined, in cascade order)
/// plus frozen components (the non-trainable part).
struct ModelDesc {
  std::string name;
  std::vector<ComponentDesc> components;
  std::vector<int> backbone_ids;  ///< Trainable components in cascade order.
  bool self_conditioning = false;
  double self_cond_prob = 0.5;  ///< Probability self-conditioning activates.
  int image_size = 512;         ///< Input resolution (documentation only).

  [[nodiscard]] const ComponentDesc& backbone(int cascade_index) const;
  /// Indices of non-trainable components in a valid topological order.
  /// Throws std::invalid_argument if their dependencies form a cycle.
  [[nodiscard]] std::vector<int> non_trainable_topo_order() const;
  [[nodiscard]] double trainable_param_mb() const;
};

/// Validates structural invariants (backbone ids in range and trainable,
/// deps form a DAG) and every layer number: sizes, bwd_flop_factor,
/// overheads and efficiency finite and non-negative (efficiency 0 means
/// the kind's default), grad_mb finite. Throws std::invalid_argument on
/// violation.
void validate(const ModelDesc& model);

/// Appends the model in its canonical text form: every field, in a fixed
/// order, doubles as "%.17g" (lossless round-trip). Equal models produce
/// equal bytes, so the text doubles as the fingerprint input for the plan
/// service ("model profile bytes") and as the wire encoding of a plan
/// request's model.
void write_canonical(CanonicalWriter& out, const ModelDesc& model);

/// Parses write_canonical output. Throws std::invalid_argument on
/// malformed input, including a numeric field that is empty, out of range,
/// or followed by stray bytes, and on a model that fails validate() (a
/// NaN or infinite layer number, a dependency cycle, ...).
/// read_canonical_model then write_canonical is byte-identity.
[[nodiscard]] ModelDesc read_canonical_model(CanonicalReader& in);

}  // namespace dpipe
