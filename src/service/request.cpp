#include "service/request.h"

#include "common/canonical.h"
#include "common/error.h"

namespace dpipe {

namespace {

void write_candidates(CanonicalWriter& out, const char* label,
                      const std::vector<int>& values) {
  out << label << ' ' << values.size();
  for (const int v : values) {
    out << ' ' << v;
  }
  out << '\n';
}

std::vector<int> read_candidates(CanonicalReader& in, std::string_view label) {
  in.keyword(label);
  const auto count = in.integer<std::size_t>(label);
  std::vector<int> values;
  for (std::size_t i = 0; i < count; ++i) {
    values.push_back(in.integer<int>(label));
  }
  return values;
}

std::string canonical_text(const auto& value) {
  CanonicalWriter out;
  write_canonical(out, value);
  return out.take();
}

/// The one walk over a request, shared by its text and its key. Empty
/// candidate lists are written as their defaults.
std::string encode_request(const PlanRequest& request,
                           CanonicalWriter::DoubleFormat doubles) {
  PlannerOptions options = request.options;
  Planner::apply_default_candidates(options, request.cluster.world_size());
  CanonicalWriter out(doubles);
  out << "dpipe-plan-request v2\n";
  write_canonical(out, request.model);
  write_canonical(out, request.cluster);
  out << "options global_batch=" << options.global_batch
      << " fill=" << (options.enable_fill ? 1 : 0)
      << " partial=" << (options.enable_partial ? 1 : 0)
      << " mem=" << (options.check_memory ? 1 : 0)
      << " int_micro=" << (options.integer_microbatches ? 1 : 0)
      << " bindable=" << (options.require_bindable_placement ? 1 : 0)
      << " family=" << static_cast<int>(options.schedule_family) << '\n';
  write_candidates(out, "stage_candidates", options.stage_candidates);
  write_candidates(out, "micro_candidates", options.micro_candidates);
  write_candidates(out, "group_candidates", options.group_candidates);
  write_candidates(out, "vstage_candidates", options.vstage_candidates);
  write_canonical(out, options.profiler);
  out << "end\n";
  return out.take();
}

}  // namespace

std::string canonical_request_text(const PlanRequest& request) {
  return encode_request(request, CanonicalWriter::DoubleFormat::kText);
}

std::string request_key(const PlanRequest& request) {
  return encode_request(request, CanonicalWriter::DoubleFormat::kRawBits);
}

PlanRequest parse_request_text(std::string_view text) {
  CanonicalReader in(text);
  require(in.line("request header") == "dpipe-plan-request v2",
          "not a dpipe-plan-request v2 payload");
  PlanRequest request;
  request.model = read_canonical_model(in);
  request.cluster = read_canonical_cluster(in);
  in.keyword("options");
  const auto flag = [&in](std::string_view key) {
    return in.integer_field<int>(key) != 0;
  };
  request.options.global_batch = in.real_field("global_batch=");
  request.options.enable_fill = flag("fill=");
  request.options.enable_partial = flag("partial=");
  request.options.check_memory = flag("mem=");
  request.options.integer_microbatches = flag("int_micro=");
  request.options.require_bindable_placement = flag("bindable=");
  const int family = in.integer_field<int>("family=");
  require(family >= 0 &&
              family <= static_cast<int>(ScheduleFamily::kInterleaved),
          "unknown schedule family");
  request.options.schedule_family = static_cast<ScheduleFamily>(family);
  request.options.stage_candidates = read_candidates(in, "stage_candidates");
  request.options.micro_candidates = read_candidates(in, "micro_candidates");
  request.options.group_candidates = read_candidates(in, "group_candidates");
  request.options.vstage_candidates =
      read_candidates(in, "vstage_candidates");
  request.options.profiler = read_canonical_profiler_options(in);
  in.keyword("end");
  return request;
}

Fingerprint request_fingerprint(const PlanRequest& request) {
  return fingerprint_bytes(canonical_request_text(request));
}

Fingerprint model_fingerprint(const ModelDesc& model) {
  return fingerprint_bytes(canonical_text(model));
}

Fingerprint cluster_fingerprint(const ClusterSpec& cluster) {
  return fingerprint_bytes(canonical_text(cluster));
}

}  // namespace dpipe
