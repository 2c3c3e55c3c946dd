#include "profiler/profiler.h"

namespace dpipe {

Profiler::Profiler(ProfilerOptions options) : options_(std::move(options)) {
  require(options_.repeats >= 1, "repeats must be >= 1");
  require(options_.warmup_repeats >= 0, "warmup_repeats must be >= 0");
}

ProfileReport Profiler::profile(const ModelDesc& model,
                                const ClusterSpec& cluster) const {
  validate(model);
  validate(cluster);
  const AnalyticCostModel cost(cluster.device,
                               NoiseSource(options_.noise_seed,
                                           options_.noise_amplitude));
  ProfileDb db(model, cost, options_.batch_grid);

  // Wall-clock estimate: each (layer, batch) cell is measured
  // warmup + repeats times; cells are distributed over all devices.
  double total_measurement_ms = 0.0;
  const int runs = options_.repeats + options_.warmup_repeats;
  for (std::size_t ci = 0; ci < model.components.size(); ++ci) {
    const ComponentDesc& comp = model.components[ci];
    for (int li = 0; li < comp.num_layers(); ++li) {
      for (const double batch : options_.batch_grid) {
        double per_run = db.fwd_ms(static_cast<int>(ci), li, batch);
        if (comp.trainable) {
          per_run += db.bwd_ms(static_cast<int>(ci), li, batch);
        }
        // ~1 ms fixed cost per measurement (launch, sync, record).
        total_measurement_ms += runs * (per_run + 1.0);
      }
    }
  }
  ProfileReport report{std::move(db),
                       total_measurement_ms / cluster.world_size()};
  return report;
}

void write_canonical(CanonicalWriter& out, const ProfilerOptions& options) {
  out << "dpipe-profiler v1\n";
  out << "batch_grid " << options.batch_grid.size();
  for (const double batch : options.batch_grid) {
    out << ' ' << batch;
  }
  out << '\n';
  out << "noise " << options.noise_seed << ' ' << options.noise_amplitude
      << '\n';
  out << "repeats " << options.repeats << ' ' << options.warmup_repeats
      << '\n';
}

ProfilerOptions read_canonical_profiler_options(CanonicalReader& in) {
  in.keyword("dpipe-profiler");
  in.keyword("v1");
  ProfilerOptions options;
  in.keyword("batch_grid");
  const auto grid_size = in.integer<std::size_t>("batch_grid");
  options.batch_grid.clear();
  for (std::size_t i = 0; i < grid_size; ++i) {
    options.batch_grid.push_back(in.real("batch_grid"));
  }
  in.keyword("noise");
  options.noise_seed = in.integer<std::uint64_t>("noise_seed");
  options.noise_amplitude = in.real("noise_amplitude");
  in.keyword("repeats");
  options.repeats = in.integer<int>("repeats");
  options.warmup_repeats = in.integer<int>("warmup_repeats");
  return options;
}

}  // namespace dpipe
