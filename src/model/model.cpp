#include "model/model.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

namespace dpipe {

const char* to_string(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv:
      return "conv";
    case LayerKind::kHighResConv:
      return "highres_conv";
    case LayerKind::kResBlock:
      return "res_block";
    case LayerKind::kAttention:
      return "attention";
    case LayerKind::kTransformerBlock:
      return "transformer_block";
    case LayerKind::kLinear:
      return "linear";
    case LayerKind::kNorm:
      return "norm";
    case LayerKind::kEmbedding:
      return "embedding";
    case LayerKind::kUpsample:
      return "upsample";
    case LayerKind::kDownsample:
      return "downsample";
    case LayerKind::kOther:
      return "other";
  }
  return "unknown";
}

LayerKind layer_kind_from_string(const std::string& text) {
  static constexpr std::array<LayerKind, 11> kAll = {
      LayerKind::kConv,      LayerKind::kHighResConv,
      LayerKind::kResBlock,  LayerKind::kAttention,
      LayerKind::kTransformerBlock,
      LayerKind::kLinear,    LayerKind::kNorm,
      LayerKind::kEmbedding, LayerKind::kUpsample,
      LayerKind::kDownsample, LayerKind::kOther};
  for (const LayerKind kind : kAll) {
    if (text == to_string(kind)) {
      return kind;
    }
  }
  throw std::invalid_argument("unknown layer kind: " + text);
}

double ComponentDesc::total_param_mb() const {
  return std::accumulate(
      layers.begin(), layers.end(), 0.0,
      [](double acc, const LayerDesc& l) { return acc + l.param_mb; });
}

double ComponentDesc::total_fwd_gflop() const {
  return std::accumulate(
      layers.begin(), layers.end(), 0.0,
      [](double acc, const LayerDesc& l) { return acc + l.fwd_gflop; });
}

const ComponentDesc& ModelDesc::backbone(int cascade_index) const {
  require(cascade_index >= 0 &&
              cascade_index < static_cast<int>(backbone_ids.size()),
          "cascade index out of range");
  return components[backbone_ids[cascade_index]];
}

std::vector<int> ModelDesc::non_trainable_topo_order() const {
  // Kahn's algorithm restricted to non-trainable components. Dependencies on
  // trainable components are ignored here: by cross-iteration pipelining the
  // non-trainable part of iteration i+1 only needs iteration i+1's *inputs*.
  const int n = static_cast<int>(components.size());
  std::vector<int> indegree(n, 0);
  std::vector<std::vector<int>> children(n);
  for (int i = 0; i < n; ++i) {
    if (components[i].trainable) {
      continue;
    }
    for (const int dep : components[i].deps) {
      if (!components[dep].trainable) {
        ++indegree[i];
        children[dep].push_back(i);
      }
    }
  }
  std::vector<int> ready;
  for (int i = 0; i < n; ++i) {
    if (!components[i].trainable && indegree[i] == 0) {
      ready.push_back(i);
    }
  }
  std::vector<int> order;
  while (!ready.empty()) {
    // Pop the smallest index for determinism.
    const auto it = std::min_element(ready.begin(), ready.end());
    const int node = *it;
    ready.erase(it);
    order.push_back(node);
    for (const int child : children[node]) {
      if (--indegree[child] == 0) {
        ready.push_back(child);
      }
    }
  }
  int non_trainable_count = 0;
  for (const ComponentDesc& c : components) {
    if (!c.trainable) {
      ++non_trainable_count;
    }
  }
  require(static_cast<int>(order.size()) == non_trainable_count,
          "non-trainable component dependencies contain a cycle");
  return order;
}

double ModelDesc::trainable_param_mb() const {
  double sum = 0.0;
  for (const ComponentDesc& c : components) {
    if (c.trainable) {
      sum += c.total_param_mb();
    }
  }
  return sum;
}

namespace {

bool finite_non_negative(double value) {
  return std::isfinite(value) && value >= 0.0;
}

}  // namespace

void validate(const ModelDesc& model) {
  require(!model.components.empty(), "model has no components");
  require(!model.backbone_ids.empty(), "model has no backbone");
  const int n = static_cast<int>(model.components.size());
  for (const int id : model.backbone_ids) {
    require(id >= 0 && id < n, "backbone id out of range");
    require(model.components[id].trainable, "backbone must be trainable");
    require(!model.components[id].layers.empty(), "backbone has no layers");
  }
  for (const ComponentDesc& c : model.components) {
    for (const int dep : c.deps) {
      require(dep >= 0 && dep < n, "component dependency out of range");
    }
    for (const LayerDesc& l : c.layers) {
      require(finite_non_negative(l.fwd_gflop) &&
                  finite_non_negative(l.param_mb) &&
                  finite_non_negative(l.output_mb) &&
                  finite_non_negative(l.act_mb),
              "layer sizes must be finite and non-negative");
      // Any negative grad_mb means "same as param_mb".
      require(std::isfinite(l.grad_mb), "grad_mb must be finite");
      require(finite_non_negative(l.bwd_flop_factor),
              "bwd_flop_factor must be finite and >= 0");
      require(finite_non_negative(l.overhead_fwd_ms) &&
                  finite_non_negative(l.overhead_bwd_ms),
              "layer overheads must be finite and non-negative");
      // 0 selects the layer kind's default efficiency.
      require(finite_non_negative(l.efficiency),
              "efficiency must be finite and >= 0");
    }
  }
  require(model.self_cond_prob >= 0.0 && model.self_cond_prob <= 1.0,
          "self_cond_prob must be a probability");
  // Throws if the non-trainable dependency graph is cyclic.
  (void)model.non_trainable_topo_order();
}

void write_canonical(CanonicalWriter& out, const ModelDesc& model) {
  out << "dpipe-model v1\n";
  out << "name=" << model.name << '\n';
  out << "self_conditioning " << (model.self_conditioning ? 1 : 0) << ' '
      << model.self_cond_prob << '\n';
  out << "image_size " << model.image_size << '\n';
  out << "components " << model.components.size() << '\n';
  for (const ComponentDesc& c : model.components) {
    out << "component trainable=" << (c.trainable ? 1 : 0)
        << " deps=" << c.deps.size();
    for (const int dep : c.deps) {
      out << ' ' << dep;
    }
    out << " layers=" << c.layers.size() << " name=" << c.name << '\n';
    for (const LayerDesc& l : c.layers) {
      out << "layer kind=" << to_string(l.kind) << " fwd=" << l.fwd_gflop
          << " bwdf=" << l.bwd_flop_factor << " param=" << l.param_mb
          << " grad=" << l.grad_mb << " out=" << l.output_mb
          << " act=" << l.act_mb << " ovf=" << l.overhead_fwd_ms
          << " ovb=" << l.overhead_bwd_ms << " eff=" << l.efficiency
          << " name=" << l.name << '\n';
    }
  }
  out << "backbones " << model.backbone_ids.size();
  for (const int id : model.backbone_ids) {
    out << ' ' << id;
  }
  out << '\n';
}

ModelDesc read_canonical_model(CanonicalReader& in) {
  in.keyword("dpipe-model");
  in.keyword("v1");
  ModelDesc model;
  model.name = in.name_field("name=");
  // Counts are not trusted for up-front allocation: a hostile count fails
  // at the first missing token.
  in.keyword("self_conditioning");
  model.self_conditioning = in.integer<int>("self_conditioning") != 0;
  model.self_cond_prob = in.real("self_cond_prob");
  in.keyword("image_size");
  model.image_size = in.integer<int>("image_size");
  in.keyword("components");
  const auto num_components = in.integer<std::size_t>("components");
  for (std::size_t ci = 0; ci < num_components; ++ci) {
    in.keyword("component");
    ComponentDesc c;
    c.trainable = in.integer_field<int>("trainable=") != 0;
    const auto num_deps = in.integer_field<std::size_t>("deps=");
    for (std::size_t d = 0; d < num_deps; ++d) {
      c.deps.push_back(in.integer<int>("deps"));
    }
    const auto num_layers = in.integer_field<std::size_t>("layers=");
    c.name = in.name_field("name=");
    for (std::size_t li = 0; li < num_layers; ++li) {
      in.keyword("layer");
      LayerDesc l;
      l.kind = layer_kind_from_string(std::string(in.field("kind=")));
      l.fwd_gflop = in.real_field("fwd=");
      l.bwd_flop_factor = in.real_field("bwdf=");
      l.param_mb = in.real_field("param=");
      l.grad_mb = in.real_field("grad=");
      l.output_mb = in.real_field("out=");
      l.act_mb = in.real_field("act=");
      l.overhead_fwd_ms = in.real_field("ovf=");
      l.overhead_bwd_ms = in.real_field("ovb=");
      l.efficiency = in.real_field("eff=");
      l.name = in.name_field("name=");
      c.layers.push_back(std::move(l));
    }
    model.components.push_back(std::move(c));
  }
  in.keyword("backbones");
  const auto num_backbones = in.integer<std::size_t>("backbones");
  for (std::size_t b = 0; b < num_backbones; ++b) {
    model.backbone_ids.push_back(in.integer<int>("backbones"));
  }
  validate(model);
  return model;
}

}  // namespace dpipe
