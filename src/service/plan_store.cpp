#include "service/plan_store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/canonical.h"
#include "common/error.h"
#include "service/request.h"

namespace dpipe {

namespace fs = std::filesystem;

namespace {

Fingerprint read_fingerprint(CanonicalReader& in, std::string_view keyword) {
  in.keyword(keyword);
  return Fingerprint::from_hex(in.token(keyword));
}

/// Reads a `<keyword> <n>\n` header then exactly n raw bytes. The size
/// comes from the input, so it is checked against the bytes that remain
/// before anything is copied: a header claiming more fails as truncated.
std::string read_sized_block(CanonicalReader& in, std::string_view keyword) {
  in.keyword(keyword);
  const auto size = in.integer<std::size_t>(keyword);
  require(in.line(keyword).empty(),
          "malformed " + std::string(keyword) + " header");
  return std::string(in.bytes(size, keyword));
}

void write_partition_opts(CanonicalWriter& out, const PartitionOptions& opts) {
  out << "popts s=" << opts.num_stages << " m=" << opts.num_microbatches
      << " d=" << opts.group_size << " dp=" << opts.data_parallel_degree
      << " mb=" << opts.microbatch_size
      << " sc=" << (opts.self_conditioning ? 1 : 0)
      << " scp=" << opts.self_cond_prob
      << " fur=" << (opts.force_uniform_replicas ? 1 : 0)
      << " ccf=" << opts.comm_competition_factor
      << " sds=" << (opts.scalarize_dp_states ? 1 : 0)
      << " stride=" << opts.dp_rank_stride
      << " ranks=" << opts.device_ranks.size();
  for (const int rank : opts.device_ranks) {
    out << ' ' << rank;
  }
  out << '\n';
}

PartitionOptions read_partition_opts(CanonicalReader& in) {
  in.keyword("popts");
  PartitionOptions opts;
  opts.num_stages = in.integer_field<int>("s=");
  opts.num_microbatches = in.integer_field<int>("m=");
  opts.group_size = in.integer_field<int>("d=");
  opts.data_parallel_degree = in.integer_field<int>("dp=");
  opts.microbatch_size = in.real_field("mb=");
  opts.self_conditioning = in.integer_field<int>("sc=") != 0;
  opts.self_cond_prob = in.real_field("scp=");
  opts.force_uniform_replicas = in.integer_field<int>("fur=") != 0;
  opts.comm_competition_factor = in.real_field("ccf=");
  opts.scalarize_dp_states = in.integer_field<int>("sds=") != 0;
  opts.dp_rank_stride = in.integer_field<int>("stride=");
  const auto num_ranks = in.integer_field<std::size_t>("ranks=");
  for (std::size_t i = 0; i < num_ranks; ++i) {
    opts.device_ranks.push_back(in.integer<int>("device_ranks"));
  }
  return opts;
}

}  // namespace

void write_plan_config(CanonicalWriter& out, const PlanConfig& config) {
  out << "config s=" << config.num_stages << " m=" << config.num_microbatches
      << " d=" << config.group_size
      << " dp=" << config.data_parallel_degree
      << " t=" << config.predicted_iteration_ms
      << " br=" << config.planned_bubble_ratio
      << " mem=" << (config.memory_feasible ? 1 : 0)
      << " v=" << config.vstages << '\n';
}

PlanConfig read_plan_config(CanonicalReader& in) {
  in.keyword("config");
  PlanConfig config;
  config.num_stages = in.integer_field<int>("s=");
  config.num_microbatches = in.integer_field<int>("m=");
  config.group_size = in.integer_field<int>("d=");
  config.data_parallel_degree = in.integer_field<int>("dp=");
  config.predicted_iteration_ms = in.real_field("t=");
  config.planned_bubble_ratio = in.real_field("br=");
  config.memory_feasible = in.integer_field<int>("mem=") != 0;
  config.vstages = in.integer_field<int>("v=");
  return config;
}

void save_plan_entry(CanonicalWriter& out, const CachedPlan& entry) {
  out << "dpipe-plan v1\n";
  out << "fingerprint " << entry.fingerprint.hex() << '\n';
  out << "model_fingerprint " << entry.model_fp.hex() << '\n';
  out << "cluster_fingerprint " << entry.cluster_fp.hex() << '\n';
  out << "request_bytes " << entry.request_text.size() << '\n';
  out << entry.request_text;
  write_plan_config(out, entry.config);
  write_partition_opts(out, entry.partition_opts);
  out << "explored " << entry.explored.size() << '\n';
  for (const PlanConfig& config : entry.explored) {
    write_plan_config(out, config);
  }
  out << "program_bytes " << entry.program_text.size() << '\n';
  out << entry.program_text;
  out << "end\n";
}

CachedPlan load_plan_entry(std::string_view bytes, PlanRequest* request) {
  CanonicalReader in(bytes);
  require(in.line("plan header") == "dpipe-plan v1",
          "not a dpipe-plan v1 file");
  CachedPlan entry;
  entry.fingerprint = read_fingerprint(in, "fingerprint");
  entry.model_fp = read_fingerprint(in, "model_fingerprint");
  entry.cluster_fp = read_fingerprint(in, "cluster_fingerprint");
  entry.request_text = read_sized_block(in, "request_bytes");
  entry.config = read_plan_config(in);
  entry.partition_opts = read_partition_opts(in);
  in.keyword("explored");
  const auto explored_count = in.integer<std::size_t>("explored");
  for (std::size_t i = 0; i < explored_count; ++i) {
    entry.explored.push_back(read_plan_config(in));
  }
  entry.program_text = read_sized_block(in, "program_bytes");
  in.keyword("end");

  // Verification: the stored fingerprints must re-derive from the stored
  // request bytes, and the program must parse. A stale or bit-rotted entry
  // fails here instead of being served.
  require(fingerprint_bytes(entry.request_text) == entry.fingerprint,
          "plan entry fingerprint does not match its request bytes");
  PlanRequest parsed = parse_request_text(entry.request_text);
  require(model_fingerprint(parsed.model) == entry.model_fp,
          "plan entry model fingerprint mismatch");
  require(cluster_fingerprint(parsed.cluster) == entry.cluster_fp,
          "plan entry cluster fingerprint mismatch");
  (void)program_from_string(entry.program_text);
  if (request != nullptr) {
    *request = std::move(parsed);
  }
  return entry;
}

PlanStore::PlanStore(std::string dir) : dir_(std::move(dir)) {
  require(!dir_.empty(), "plan store directory must be non-empty");
  fs::create_directories(dir_);
}

std::string PlanStore::path_for(const Fingerprint& fingerprint) const {
  return (fs::path(dir_) / (fingerprint.hex() + ".plan")).string();
}

PlanStore::LoadReport PlanStore::load_all() {
  LoadReport report;
  std::vector<fs::path> files;
  for (const auto& dir_entry : fs::directory_iterator(dir_)) {
    if (dir_entry.is_regular_file() &&
        dir_entry.path().extension() == ".plan") {
      files.push_back(dir_entry.path());
    }
  }
  // Deterministic load order (directory iteration order is not specified).
  std::sort(files.begin(), files.end());
  for (const fs::path& path : files) {
    try {
      std::ifstream in(path, std::ios::binary);
      require(static_cast<bool>(in), "cannot open plan file");
      const std::string bytes(std::istreambuf_iterator<char>(in), {});
      PlanRequest request;
      auto entry =
          std::make_shared<CachedPlan>(load_plan_entry(bytes, &request));
      require(path.filename().string() == entry->fingerprint.hex() + ".plan",
              "plan file name does not match its fingerprint");
      report.plans.push_back(std::move(entry));
      report.requests.push_back(std::move(request));
    } catch (const std::exception&) {
      // Corrupt or stale-format entry: drop it from disk so it is
      // re-planned (and re-persisted) on next request.
      std::error_code ec;
      fs::remove(path, ec);
      ++report.corrupt_dropped;
    }
  }
  return report;
}

void PlanStore::put(const CachedPlan& entry) {
  const std::string final_path = path_for(entry.fingerprint);
  const std::string tmp_path = final_path + ".tmp";
  {
    CanonicalWriter bytes;
    save_plan_entry(bytes, entry);
    const std::string text = bytes.take();
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    require(static_cast<bool>(out),
            "cannot open plan store file for writing: " + tmp_path);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    require(static_cast<bool>(out), "plan store write failed: " + tmp_path);
  }
  fs::rename(tmp_path, final_path);
}

std::size_t PlanStore::invalidate_cluster(const Fingerprint& cluster_fp) {
  std::size_t removed = 0;
  for (const auto& plan : load_all().plans) {
    if (plan->cluster_fp == cluster_fp) {
      std::error_code ec;
      if (fs::remove(path_for(plan->fingerprint), ec)) {
        ++removed;
      }
    }
  }
  return removed;
}

std::size_t PlanStore::erase(const Fingerprint& fingerprint) {
  std::error_code ec;
  return fs::remove(path_for(fingerprint), ec) ? 1 : 0;
}

void PlanStore::clear() {
  for (const auto& dir_entry : fs::directory_iterator(dir_)) {
    if (dir_entry.is_regular_file() &&
        dir_entry.path().extension() == ".plan") {
      std::error_code ec;
      fs::remove(dir_entry.path(), ec);
    }
  }
}

std::size_t PlanStore::size() const {
  std::size_t count = 0;
  for (const auto& dir_entry : fs::directory_iterator(dir_)) {
    if (dir_entry.is_regular_file() &&
        dir_entry.path().extension() == ".plan") {
      ++count;
    }
  }
  return count;
}

}  // namespace dpipe
