#include "service/plan_store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/canonical.h"
#include "common/error.h"
#include "service/request.h"

namespace dpipe {

namespace fs = std::filesystem;

namespace {

Fingerprint read_fingerprint_line(std::istream& in,
                                  const std::string& keyword) {
  expect_keyword(in, keyword);
  std::string hex;
  require(static_cast<bool>(in >> hex), "truncated " + keyword);
  return Fingerprint::from_hex(hex);
}

/// Reads a `<keyword> <n>\n` header then exactly n raw bytes. The size
/// comes from the file, so the block grows in bounded chunks as bytes
/// arrive: a header claiming more than the file holds fails as truncated
/// instead of allocating the claimed size up front.
std::string read_sized_block(std::istream& in, const std::string& keyword) {
  expect_keyword(in, keyword);
  std::size_t bytes = 0;
  require(static_cast<bool>(in >> bytes), "malformed " + keyword + " size");
  std::string line;
  std::getline(in, line);  // Consume the header's newline.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::string block;
  while (block.size() < bytes) {
    const std::size_t have = block.size();
    const std::size_t want = std::min(kChunk, bytes - have);
    block.resize(have + want);
    in.read(block.data() + have, static_cast<std::streamsize>(want));
    require(static_cast<std::size_t>(in.gcount()) == want,
            "truncated " + keyword + " block");
  }
  return block;
}

void write_partition_opts(std::ostream& out, const PartitionOptions& opts) {
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

PartitionOptions read_partition_opts(std::istream& in) {
  expect_keyword(in, "popts");
  PartitionOptions opts;
  opts.num_stages = read_integer_field<int>(in, "s=");
  opts.num_microbatches = read_integer_field<int>(in, "m=");
  opts.group_size = read_integer_field<int>(in, "d=");
  opts.data_parallel_degree = read_integer_field<int>(in, "dp=");
  opts.microbatch_size = read_double_field(in, "mb=");
  opts.self_conditioning = read_integer_field<int>(in, "sc=") != 0;
  opts.self_cond_prob = read_double_field(in, "scp=");
  opts.force_uniform_replicas = read_integer_field<int>(in, "fur=") != 0;
  opts.comm_competition_factor = read_double_field(in, "ccf=");
  opts.scalarize_dp_states = read_integer_field<int>(in, "sds=") != 0;
  opts.dp_rank_stride = read_integer_field<int>(in, "stride=");
  const auto num_ranks = read_integer_field<std::size_t>(in, "ranks=");
  for (std::size_t i = 0; i < num_ranks; ++i) {
    opts.device_ranks.push_back(read_integer<int>(in, "device_ranks"));
  }
  return opts;
}

}  // namespace

void write_plan_config(std::ostream& out, const PlanConfig& config) {
  out << "config s=" << config.num_stages << " m=" << config.num_microbatches
      << " d=" << config.group_size
      << " dp=" << config.data_parallel_degree
      << " t=" << config.predicted_iteration_ms
      << " br=" << config.planned_bubble_ratio
      << " mem=" << (config.memory_feasible ? 1 : 0)
      << " v=" << config.vstages << '\n';
}

PlanConfig read_plan_config(std::istream& in) {
  expect_keyword(in, "config");
  PlanConfig config;
  config.num_stages = read_integer_field<int>(in, "s=");
  config.num_microbatches = read_integer_field<int>(in, "m=");
  config.group_size = read_integer_field<int>(in, "d=");
  config.data_parallel_degree = read_integer_field<int>(in, "dp=");
  config.predicted_iteration_ms = read_double_field(in, "t=");
  config.planned_bubble_ratio = read_double_field(in, "br=");
  config.memory_feasible = read_integer_field<int>(in, "mem=") != 0;
  config.vstages = read_integer_field<int>(in, "v=");
  return config;
}

void save_plan_entry(const CachedPlan& entry, std::ostream& out) {
  const auto flags = out.flags();
  const auto precision = out.precision(17);
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
  out.precision(precision);
  out.flags(flags);
}

CachedPlan load_plan_entry(std::istream& in) {
  std::string line;
  require(std::getline(in, line) && line == "dpipe-plan v1",
          "not a dpipe-plan v1 file");
  CachedPlan entry;
  entry.fingerprint = read_fingerprint_line(in, "fingerprint");
  entry.model_fp = read_fingerprint_line(in, "model_fingerprint");
  entry.cluster_fp = read_fingerprint_line(in, "cluster_fingerprint");
  entry.request_text = read_sized_block(in, "request_bytes");
  entry.config = read_plan_config(in);
  entry.partition_opts = read_partition_opts(in);
  expect_keyword(in, "explored");
  const auto explored_count = read_integer<std::size_t>(in, "explored");
  for (std::size_t i = 0; i < explored_count; ++i) {
    entry.explored.push_back(read_plan_config(in));
  }
  std::getline(in, line);  // Position after the last config line.
  entry.program_text = read_sized_block(in, "program_bytes");
  expect_keyword(in, "end");

  // Verification: the stored fingerprints must re-derive from the stored
  // request bytes, and the program must parse. A stale or bit-rotted entry
  // fails here instead of being served.
  require(fingerprint_bytes(entry.request_text) == entry.fingerprint,
          "plan entry fingerprint does not match its request bytes");
  const PlanRequest request = parse_request_text(entry.request_text);
  require(model_fingerprint(request.model) == entry.model_fp,
          "plan entry model fingerprint mismatch");
  require(cluster_fingerprint(request.cluster) == entry.cluster_fp,
          "plan entry cluster fingerprint mismatch");
  (void)program_from_string(entry.program_text);
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
      auto entry = std::make_shared<CachedPlan>(load_plan_entry(in));
      require(path.filename().string() == entry->fingerprint.hex() + ".plan",
              "plan file name does not match its fingerprint");
      report.plans.push_back(std::move(entry));
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
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    require(static_cast<bool>(out),
            "cannot open plan store file for writing: " + tmp_path);
    save_plan_entry(entry, out);
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
