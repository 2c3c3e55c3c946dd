// Tests for the planning service: canonical request identity, the
// whole-plan cache (single-flight), the on-disk plan store (byte-identical
// round trips, verification, invalidation), the PlanService itself
// (bit-identical cached plans, warm restart, concurrent determinism), and
// the framed wire protocol.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/canonical.h"
#include "core/instr/serialize.h"
#include "core/planner/planner.h"
#include "model/zoo.h"
#include "service/plan_cache.h"
#include "service/plan_store.h"
#include "service/protocol.h"
#include "service/request.h"
#include "service/service.h"

namespace dpipe {
namespace {

namespace fs = std::filesystem;

/// A request whose grid is a handful of combos, so cold plans stay fast.
PlanRequest small_request(double global_batch = 128.0) {
  PlanRequest request;
  request.model = make_stable_diffusion_v21();
  request.cluster = make_p4de_cluster(1);
  request.options.global_batch = global_batch;
  request.options.stage_candidates = {2};
  request.options.micro_candidates = {2, 4};
  request.options.group_candidates = {2, 4};
  return request;
}

/// A fresh per-test scratch directory under the gtest temp root.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("dpipe_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

void expect_entries_identical(const CachedPlan& a, const CachedPlan& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.request_text, b.request_text);
  EXPECT_EQ(a.config, b.config);
  EXPECT_TRUE(a.partition_opts == b.partition_opts);
  EXPECT_EQ(a.explored, b.explored);
  EXPECT_EQ(a.program_text, b.program_text);
}

/// small_request() with extreme doubles in every layer field of the first
/// backbone layers, the cluster, and the profiler: negative zero,
/// subnormals, huge and long-mantissa values, and non-terminating binary
/// fractions. Layer i's fields take the values rotated by i, so each field
/// sees each value.
PlanRequest edge_value_request() {
  constexpr std::array<double, 8> kEdges = {
      -0.0, 4.9e-324, 1e-310, 1e300, 1e17, 1.0 / 3, 0.1,
      123456789012345678.0};
  PlanRequest request = small_request();
  ComponentDesc& backbone =
      request.model.components[request.model.backbone_ids[0]];
  for (std::size_t i = 0; i < kEdges.size(); ++i) {
    LayerDesc& l = backbone.layers[i];
    double* const fields[] = {&l.fwd_gflop,       &l.bwd_flop_factor,
                              &l.param_mb,        &l.grad_mb,
                              &l.output_mb,       &l.act_mb,
                              &l.overhead_fwd_ms, &l.overhead_bwd_ms,
                              &l.efficiency};
    for (std::size_t f = 0; f < std::size(fields); ++f) {
      *fields[f] = kEdges[(i + f) % kEdges.size()];
    }
  }
  request.model.self_cond_prob = 4.9e-324;
  request.cluster.intra.latency_ms = 1e-310;
  request.cluster.device.mem_bw_gbps = 123456789012345678.0;
  request.options.global_batch = 1.0 / 3;
  request.options.profiler.noise_amplitude = -0.0;
  request.options.profiler.batch_grid.push_back(1e300);
  return request;
}

/// The v1 spelling of the v2 request text `v2`: the same request under the
/// v1 header, with the `one_replica=` and `prune=` fields v2 dropped.
std::string as_v1_request_text(std::string v2) {
  const std::string header = "dpipe-plan-request v2\n";
  EXPECT_EQ(v2.rfind(header, 0), 0u);
  v2.replace(0, header.size(), "dpipe-plan-request v1\n");
  v2.insert(v2.find(" int_micro="), " one_replica=0");
  v2.insert(v2.find(" bindable="), " prune=0");
  return v2;
}

/// `text` with the value that follows the first `key` at or after `from`
/// (up to the next space or newline) replaced by `value`.
std::string with_value(std::string text, const std::string& key,
                       const std::string& value, std::size_t from = 0) {
  const std::size_t at = text.find(key, from);
  EXPECT_NE(at, std::string::npos) << key;
  const std::size_t begin = at + key.size();
  const std::size_t end = text.find_first_of(" \n", begin);
  return text.replace(begin, end - begin, value);
}

/// The three hostile spellings of the number that follows `key`: stray
/// bytes after it, a value beyond double range, and an empty field.
std::vector<std::string> hostile_numbers(const std::string& text,
                                         const std::string& key,
                                         std::size_t from = 0) {
  const std::size_t begin = text.find(key, from) + key.size();
  const std::string value =
      text.substr(begin, text.find_first_of(" \n", begin) - begin);
  return {with_value(text, key, value + "xyz", from),
          with_value(text, key, "1e999", from),
          with_value(text, key, "", from)};
}

// --- Canonical request identity ---------------------------------------------

TEST(PlanFingerprint, CanonicalTextParsesBackLosslessly) {
  const PlanRequest request = small_request();
  const std::string text = canonical_request_text(request);
  const PlanRequest parsed = parse_request_text(text);
  EXPECT_EQ(canonical_request_text(parsed), text);
  EXPECT_EQ(request_fingerprint(parsed), request_fingerprint(request));
}

TEST(PlanFingerprint, DefaultAndExplicitCandidatesShareIdentity) {
  PlanRequest defaulted = small_request();
  defaulted.options.stage_candidates.clear();
  defaulted.options.micro_candidates.clear();
  defaulted.options.group_candidates.clear();
  PlanRequest explicit_defaults = defaulted;
  Planner::apply_default_candidates(explicit_defaults.options,
                                    explicit_defaults.cluster.world_size());
  EXPECT_FALSE(explicit_defaults.options.stage_candidates.empty());
  EXPECT_EQ(canonical_request_text(defaulted),
            canonical_request_text(explicit_defaults));
  EXPECT_EQ(request_key(defaulted), request_key(explicit_defaults));
}

TEST(PlanFingerprint, ResultInvisibleOptionsDoNotFragmentTheCache) {
  const PlanRequest base = small_request();
  PlanRequest tuned = base;
  tuned.options.search_threads = 7;
  StageCostStore store;
  tuned.options.cache_store = &store;
  EXPECT_EQ(canonical_request_text(base), canonical_request_text(tuned));
  // The placement predicate changes the explored grid, so it IS identity.
  PlanRequest bindable = base;
  bindable.options.require_bindable_placement = true;
  EXPECT_NE(canonical_request_text(base), canonical_request_text(bindable));
}

TEST(PlanFingerprint, V1RequestTextFailsWithInvalidArgument) {
  const std::string v2 = canonical_request_text(small_request());
  ASSERT_NO_THROW((void)parse_request_text(v2));
  const std::string v1 = as_v1_request_text(v2);
  EXPECT_NE(v1.find(" one_replica=0 "), std::string::npos);
  EXPECT_NE(v1.find(" prune=0 "), std::string::npos);
  EXPECT_THROW((void)parse_request_text(v1), std::invalid_argument);
}

TEST(PlanFingerprint, DistinctInputsGetDistinctFingerprints) {
  const PlanRequest base = small_request();
  PlanRequest other_model = base;
  other_model.model = make_controlnet_v10();
  PlanRequest other_cluster = base;
  other_cluster.cluster = make_p4de_cluster(2);
  PlanRequest other_batch = base;
  other_batch.options.global_batch = 256.0;
  EXPECT_NE(request_fingerprint(base), request_fingerprint(other_model));
  EXPECT_NE(request_fingerprint(base), request_fingerprint(other_cluster));
  EXPECT_NE(request_fingerprint(base), request_fingerprint(other_batch));
  EXPECT_NE(model_fingerprint(base.model),
            model_fingerprint(other_model.model));
  EXPECT_NE(cluster_fingerprint(base.cluster),
            cluster_fingerprint(other_cluster.cluster));
}

TEST(PlanFingerprint, HexRoundTrips) {
  const Fingerprint fp = request_fingerprint(small_request());
  EXPECT_EQ(fp.hex().size(), 32u);
  EXPECT_EQ(Fingerprint::from_hex(fp.hex()), fp);
  EXPECT_THROW((void)Fingerprint::from_hex("nope"), std::invalid_argument);
}

/// Every field of every explored config, doubles as their raw bits in
/// hex, so a plan search that drifts by one ulp anywhere in the grid
/// changes the bytes.
std::string explored_bytes(const std::vector<PlanConfig>& explored) {
  CanonicalWriter out;
  for (const PlanConfig& c : explored) {
    out << c.num_stages << ' ' << c.num_microbatches << ' ' << c.group_size
        << ' ' << c.data_parallel_degree << ' ';
    out.hex(std::bit_cast<std::uint64_t>(c.predicted_iteration_ms)) << ' ';
    out.hex(std::bit_cast<std::uint64_t>(c.planned_bubble_ratio)) << ' ';
    out << (c.memory_feasible ? 1 : 0) << ' ' << c.vstages << '\n';
  }
  return out.take();
}

TEST(PlanFingerprint, GoldenCanonicalBytes) {
  // Pinned fingerprints of the canonical bytes of three paper workloads.
  // The request text is the plan-cache key and the name of every stored
  // plan, so any drift in the canonical writer (request, model, cluster,
  // profiler, or program text) must fail here, not silently orphan
  // persisted plans. The program and the whole explored grid also pin the
  // planner's search: single-backbone (SD) and bidirectional (CDM) plans
  // must stay bit-identical through any rewrite of the partitioner.
  struct Golden {
    ModelDesc model;
    int machines;
    double global_batch;
    const char* request;
    std::size_t request_bytes;
    const char* model_fp;
    const char* cluster_fp;
    const char* program;
    std::size_t program_bytes;
    const char* explored;
    std::size_t explored_configs;
  };
  const Golden goldens[] = {
      {make_stable_diffusion_v21(), 2, 512.0,
       "6b09dacab4f513037520d29804d39a54", 13323,
       "c13c3cc4e51646815530c7eeed4f63e2",
       "d4c2532cfab5953e7daf613180ea20fe",
       "20e97d4b46e702bae46adc94cac20b26", 8643,
       "8f3d1f74140c2534daa1b18fe65123c9", 36},
      {make_cdm_lsun(), 1, 128.0, "67b80e0fa63b85720a2de9104d1fc7d1", 10735,
       "5a273b6a4d9bda1985e5efc09d56df75",
       "ac6de2522f01667389e269e1f74df27b",
       "b6f6c463fc1b4d79e833c37accc772a9", 4216,
       "00ba7f243584f1c0ac75c6a8a7bf7f25", 24},
      {make_cdm_imagenet(), 1, 128.0, "4446339e102af091f59425f747f260e4",
       12491, "bc26cbb4096639ee644138f3f15a42b6",
       "ac6de2522f01667389e269e1f74df27b",
       "c56c0f958f783505f7a19bd44433e5b3", 4218,
       "13ab22df805b7cf2f0b37b414465b2ad", 24},
  };
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(golden.model.name);
    PlanRequest request;
    request.model = golden.model;
    request.cluster = make_p4de_cluster(golden.machines);
    request.options.global_batch = golden.global_batch;
    const std::string text = canonical_request_text(request);
    EXPECT_EQ(text.size(), golden.request_bytes);
    EXPECT_EQ(fingerprint_bytes(text).hex(), golden.request);
    EXPECT_EQ(model_fingerprint(request.model).hex(), golden.model_fp);
    EXPECT_EQ(cluster_fingerprint(request.cluster).hex(), golden.cluster_fp);
    const Plan plan =
        Planner(request.model, request.cluster, request.options).plan();
    const std::string program = program_to_string(plan.program);
    EXPECT_EQ(program.size(), golden.program_bytes);
    EXPECT_EQ(fingerprint_bytes(program).hex(), golden.program);
    EXPECT_EQ(plan.explored.size(), golden.explored_configs);
    EXPECT_EQ(fingerprint_bytes(explored_bytes(plan.explored)).hex(),
              golden.explored);
  }
}

TEST(PlanFingerprint, EdgeValuesRoundTripLosslessly) {
  const PlanRequest request = edge_value_request();
  const std::string text = canonical_request_text(request);
  // The printf "%.17g" spellings, so the bytes match any C library.
  EXPECT_NE(text.find(" fwd=-0 "), std::string::npos);
  EXPECT_NE(text.find(" act=4.9406564584124654e-324 "), std::string::npos);
  EXPECT_NE(text.find("=1.2345678901234568e+17 "), std::string::npos);
  EXPECT_NE(text.find("=0.33333333333333331 "), std::string::npos);
  const PlanRequest parsed = parse_request_text(text);
  EXPECT_EQ(canonical_request_text(parsed), text);
  const LayerDesc& layer =
      parsed.model.components[parsed.model.backbone_ids[0]].layers[0];
  EXPECT_TRUE(std::signbit(layer.fwd_gflop));
  EXPECT_EQ(parsed.model.self_cond_prob, 4.9e-324);
  EXPECT_EQ(parsed.cluster.intra.latency_ms, 1e-310);
}

TEST(PlanFingerprint, HostileNumbersFailWithInvalidArgument) {
  const std::string text = canonical_request_text(small_request());
  ASSERT_NO_THROW((void)parse_request_text(text));
  // One key per reader: model layer, model header, cluster, request
  // options, candidate lists, profiler; and every layer number the cost
  // model reads.
  for (const std::string key :
       {" fwd=", " act=", " ovf=", " ovb=", " eff=", "self_conditioning ",
        "intra ", "global_batch=", " int_micro=", "micro_candidates 2 ",
        "noise ", "repeats "}) {
    for (const std::string& mutant : hostile_numbers(text, key)) {
      SCOPED_TRACE(key);
      EXPECT_THROW((void)parse_request_text(mutant), std::invalid_argument);
    }
  }
  // Well-formed numbers no layer may hold: "nan" and "inf" parse as
  // doubles, so the model's own checks must reject them, and a negative
  // overhead or efficiency too.
  for (const std::string key :
       {" fwd=", " bwdf=", " param=", " grad=", " out=", " act=", " ovf=",
        " ovb=", " eff="}) {
    for (const std::string value : {"nan", "inf", "-inf", "-1"}) {
      if (key == " grad=" && value == "-1") {
        continue;  // A negative grad_mb means "same as param_mb".
      }
      SCOPED_TRACE(key + value);
      EXPECT_THROW((void)parse_request_text(with_value(text, key, value)),
                   std::invalid_argument);
    }
  }
  // Efficiency 0 is the layer kind's default, not an error.
  EXPECT_NO_THROW((void)parse_request_text(with_value(text, " eff=", "0")));
  // Well-formed numbers out of their field's range: a schedule family past
  // the last one, and a device count whose product overflows int.
  EXPECT_THROW((void)parse_request_text(with_value(text, " family=", "4")),
               std::invalid_argument);
  EXPECT_THROW((void)parse_request_text(with_value(
                   with_value(text, "shape ", "4"), "shape 4 ", "1073741824")),
               std::invalid_argument);
}

// --- StageCostStore single-owner guard --------------------------------------

TEST(StageCostStore, ConcurrentPlansOnOneStoreThrowBusy) {
  PlanRequest request = small_request();
  StageCostStore store;
  request.options.cache_store = &store;
  const Planner planner(request.model, request.cluster, request.options);
  {
    // While another owner holds the store, a plan() on this thread or any
    // other throws the typed error before it touches a cache.
    const StageCostStore::Claim held(store);
    EXPECT_THROW((void)planner.plan(), StageCostStoreBusy);
    std::thread other(
        [&] { EXPECT_THROW((void)planner.plan(), StageCostStoreBusy); });
    other.join();
    EXPECT_EQ(store.size(), 0u);
  }
  const std::string reference = program_to_string(planner.plan().program);

  // Racing plans: each one either finishes with the same program or
  // throws StageCostStoreBusy, and at least one finishes. The tier-1 TSan
  // phase runs this to check the guard leaves no data race.
  constexpr int kThreads = 4;
  std::vector<std::string> programs(kThreads);
  std::atomic<int> busy{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) {
        std::this_thread::yield();
      }
      try {
        programs[t] = program_to_string(planner.plan().program);
      } catch (const StageCostStoreBusy&) {
        ++busy;
      }
    });
  }
  go.store(true);
  for (std::thread& thread : threads) {
    thread.join();
  }
  int finished = 0;
  for (const std::string& program : programs) {
    if (!program.empty()) {
      ++finished;
      EXPECT_EQ(program, reference);
    }
  }
  EXPECT_GE(finished, 1);
  EXPECT_EQ(finished + busy.load(), kThreads);
}

// --- PlanCache --------------------------------------------------------------

std::shared_ptr<const CachedPlan> fake_entry(const std::string& text,
                                             Fingerprint cluster_fp) {
  auto entry = std::make_shared<CachedPlan>();
  entry->fingerprint = fingerprint_bytes(text);
  entry->cluster_fp = cluster_fp;
  entry->request_text = text;
  return entry;
}

TEST(PlanCache, MissComputesThenHitsServeWithoutCompute) {
  PlanCache cache;
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return fake_entry("req", Fingerprint{});
  };
  bool hit = true;
  const auto first = cache.get_or_compute("req", compute, &hit);
  EXPECT_FALSE(hit);
  const auto second = cache.get_or_compute("req", compute, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(first.get(), second.get());
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PlanCache, SingleFlightCollapsesConcurrentIdenticalMisses) {
  PlanCache cache;
  std::atomic<int> computes{0};
  const auto compute = [&] {
    computes.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return fake_entry("req", Fingerprint{});
  };
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const CachedPlan>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { results[t] = cache.get_or_compute("req", compute); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(computes.load(), 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[t].get(), results[0].get());
  }
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::size_t>(kThreads - 1));
}

TEST(PlanCache, ComputeFailurePropagatesAndNextRequestRetries) {
  PlanCache cache;
  int calls = 0;
  EXPECT_THROW((void)cache.get_or_compute(
                   "req",
                   [&]() -> std::shared_ptr<const CachedPlan> {
                     ++calls;
                     throw std::runtime_error("planner failed");
                   }),
               std::runtime_error);
  // The failed slot is gone: the next identical request retries.
  const auto value = cache.get_or_compute("req", [&] {
    ++calls;
    return fake_entry("req", Fingerprint{});
  });
  EXPECT_EQ(calls, 2);
  EXPECT_NE(value, nullptr);
}

TEST(PlanCache, InvalidateClusterEvictsOnlyMatchingEntries) {
  PlanCache cache;
  const Fingerprint cluster_a = fingerprint_bytes("cluster-a");
  const Fingerprint cluster_b = fingerprint_bytes("cluster-b");
  cache.put("r1", fake_entry("r1", cluster_a));
  cache.put("r2", fake_entry("r2", cluster_a));
  cache.put("r3", fake_entry("r3", cluster_b));
  EXPECT_EQ(cache.invalidate_cluster(cluster_a), 2u);
  EXPECT_EQ(cache.find("r1"), nullptr);
  EXPECT_EQ(cache.find("r2"), nullptr);
  EXPECT_NE(cache.find("r3"), nullptr);
  EXPECT_EQ(cache.stats().invalidated, 2u);
}

// --- PlanStore --------------------------------------------------------------

/// The dpipe-plan v1 bytes of `entry`.
std::string entry_bytes(const CachedPlan& entry) {
  CanonicalWriter out;
  save_plan_entry(out, entry);
  return out.take();
}

/// One real planned entry (computed once, reused across store tests).
const CachedPlan& real_entry() {
  static const CachedPlan entry = [] {
    PlanService service;
    return *service.plan(small_request());
  }();
  return entry;
}

TEST(PlanStore, SaveLoadSaveIsByteIdentical) {
  const std::string first = entry_bytes(real_entry());
  const CachedPlan loaded = load_plan_entry(first);
  expect_entries_identical(real_entry(), loaded);
  EXPECT_EQ(first, entry_bytes(loaded));
}

/// A hand-built entry whose bytes do not depend on the planner: the
/// request is small_request()'s canonical text, the configs and partition
/// options hold edge-valued doubles, and the program is a one-device stub.
CachedPlan fixed_entry() {
  const PlanRequest request = small_request();
  CachedPlan entry;
  entry.request_text = canonical_request_text(request);
  entry.fingerprint = fingerprint_bytes(entry.request_text);
  entry.model_fp = model_fingerprint(request.model);
  entry.cluster_fp = cluster_fingerprint(request.cluster);
  entry.config = PlanConfig{2, 4, 2, 4, 1.0 / 3, 4.9e-324, true, 1};
  entry.partition_opts.num_stages = 2;
  entry.partition_opts.group_size = 2;
  entry.partition_opts.data_parallel_degree = 4;
  entry.partition_opts.microbatch_size = -0.0;
  entry.partition_opts.self_conditioning = true;
  entry.partition_opts.self_cond_prob = 0.1;
  entry.partition_opts.device_ranks = {0, 4};
  entry.partition_opts.dp_rank_stride = 1;
  entry.partition_opts.comm_competition_factor = 1e300;
  entry.explored = {entry.config,
                    PlanConfig{2, 2, 2, 4, 123456789012345678.0, 1e-310,
                               false, 2}};
  InstructionProgram program;
  program.group_size = 1;
  program.preamble.resize(1);
  program.per_device = {{Instruction{InstrKind::kForward, 0, 0, 1, 2, 0, 3,
                                     2.5, -1, 0.1},
                         Instruction{InstrKind::kOptimizerStep, 0, 0, -1, 2,
                                     0, 3, 0.0, -1, 1e17}}};
  entry.program_text = program_to_string(program);
  return entry;
}

TEST(PlanStore, GoldenBytes) {
  // Pinned digests of one fixed dpipe-plan v1 entry and of the wire
  // response that carries it: stores written by older builds must keep
  // loading, and a client must decode an older server's responses.
  const CachedPlan entry = fixed_entry();
  const std::string bytes = entry_bytes(entry);
  EXPECT_EQ(bytes.size(), 14095u);
  EXPECT_EQ(fingerprint_bytes(bytes).hex(),
            "3984bed6c6d8de990538ffe1d7db2e31");
  const std::string response = encode_plan_response(entry, true);
  EXPECT_EQ(response.size(), 14104u);
  EXPECT_EQ(fingerprint_bytes(response).hex(),
            "3a83eea769111cb66170073d831cebc8");
  expect_entries_identical(entry, load_plan_entry(bytes));
}

TEST(PlanStore, RoundTripsThroughDirectory) {
  PlanStore store(scratch_dir("store_roundtrip"));
  store.put(real_entry());
  EXPECT_EQ(store.size(), 1u);
  const PlanStore::LoadReport report = store.load_all();
  EXPECT_EQ(report.corrupt_dropped, 0u);
  ASSERT_EQ(report.plans.size(), 1u);
  expect_entries_identical(real_entry(), *report.plans[0]);
  // The persisted program deserializes to a working InstructionProgram.
  EXPECT_GT(report.plans[0]->program().per_device.size(), 0u);
  EXPECT_EQ(store.erase(real_entry().fingerprint), 1u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(PlanStore, CorruptEntriesAreDroppedAndDeleted) {
  const std::string dir = scratch_dir("store_corrupt");
  PlanStore store(dir);
  store.put(real_entry());
  // Flip one byte of the persisted request text: the fingerprint check
  // must reject the entry.
  const std::string path =
      dir + "/" + real_entry().fingerprint.hex() + ".plan";
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  const std::size_t pos = bytes.find("dpipe-model v1");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] = 'X';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  const PlanStore::LoadReport report = store.load_all();
  EXPECT_EQ(report.plans.size(), 0u);
  EXPECT_EQ(report.corrupt_dropped, 1u);
  EXPECT_EQ(store.size(), 0u);  // Deleted from disk, not just skipped.
}

TEST(PlanStore, LoadsEntryWithEdgeValueNumbers) {
  // Loading verifies an entry by re-parsing its request bytes, so a request
  // holding subnormal or extreme doubles must survive a warm restart
  // instead of being deleted as corrupt.
  const PlanRequest request = edge_value_request();
  CachedPlan entry = real_entry();
  entry.request_text = canonical_request_text(request);
  entry.fingerprint = fingerprint_bytes(entry.request_text);
  entry.model_fp = model_fingerprint(request.model);
  entry.cluster_fp = cluster_fingerprint(request.cluster);
  PlanStore store(scratch_dir("store_edge_values"));
  store.put(entry);
  const PlanStore::LoadReport report = store.load_all();
  EXPECT_EQ(report.corrupt_dropped, 0u);
  ASSERT_EQ(report.plans.size(), 1u);
  expect_entries_identical(entry, *report.plans[0]);
}

TEST(PlanStore, V1EntryIsDroppedAndDeleted) {
  // A plan persisted under the v1 request text, correctly fingerprinted:
  // its request no longer parses, so a warm start deletes the file
  // instead of serving it.
  CachedPlan entry = real_entry();
  entry.request_text = as_v1_request_text(entry.request_text);
  entry.fingerprint = fingerprint_bytes(entry.request_text);
  PlanStore store(scratch_dir("store_v1_entry"));
  store.put(entry);
  EXPECT_EQ(store.size(), 1u);
  const PlanStore::LoadReport report = store.load_all();
  EXPECT_EQ(report.plans.size(), 0u);
  EXPECT_EQ(report.corrupt_dropped, 1u);
  EXPECT_EQ(store.size(), 0u);  // Deleted from disk, not just skipped.
}

TEST(PlanStore, HostileNumbersFailWithInvalidArgument) {
  const std::string bytes = entry_bytes(real_entry());
  ASSERT_NO_THROW((void)load_plan_entry(bytes));
  // The entry's own fields: winning config and partition context.
  const std::size_t config = bytes.find("\nconfig ");
  std::vector<std::string> mutants;
  for (const std::string key : {" t=", " br=", " mb=", " ranks="}) {
    for (std::string& mutant : hostile_numbers(bytes, key, config)) {
      mutants.push_back(std::move(mutant));
    }
  }
  // Hostile numbers inside the program block and inside correctly
  // fingerprinted request bytes (the size headers stay in step).
  for (const std::string& program :
       hostile_numbers(real_entry().program_text, " sz=")) {
    CachedPlan entry = real_entry();
    entry.program_text = program;
    mutants.push_back(entry_bytes(entry));
  }
  for (const std::string& request :
       hostile_numbers(real_entry().request_text, " eff=")) {
    CachedPlan entry = real_entry();
    entry.request_text = request;
    entry.fingerprint = fingerprint_bytes(request);
    mutants.push_back(entry_bytes(entry));
  }
  for (const std::string& mutant : mutants) {
    EXPECT_THROW((void)load_plan_entry(mutant), std::invalid_argument);
  }
}

TEST(PlanStore, OversizedBlockHeaderFailsWithoutAllocating) {
  // A size header claiming 2^40 bytes in a file that holds a few hundred:
  // the reader must fail as truncated (std::invalid_argument) rather than
  // allocate the claimed size first.
  const std::string bytes = entry_bytes(real_entry());
  const std::string header =
      "request_bytes " + std::to_string(real_entry().request_text.size()) +
      "\n";
  const std::size_t pos = bytes.find(header);
  ASSERT_NE(pos, std::string::npos);
  const std::string hostile = bytes.substr(0, pos) +
                              "request_bytes 1099511627776\n" +
                              bytes.substr(pos + header.size(), 200);
  EXPECT_THROW((void)load_plan_entry(hostile), std::invalid_argument);

  const std::string dir = scratch_dir("store_oversized_block");
  PlanStore store(dir);
  {
    std::ofstream file(dir + "/" + real_entry().fingerprint.hex() + ".plan",
                       std::ios::binary | std::ios::trunc);
    file << hostile;
  }
  const PlanStore::LoadReport report = store.load_all();
  EXPECT_EQ(report.plans.size(), 0u);
  EXPECT_EQ(report.corrupt_dropped, 1u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(PlanStore, InvalidateClusterRemovesMatchingFiles) {
  PlanStore store(scratch_dir("store_invalidate"));
  store.put(real_entry());
  const Fingerprint other = fingerprint_bytes("some-other-cluster");
  EXPECT_EQ(store.invalidate_cluster(other), 0u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.invalidate_cluster(real_entry().cluster_fp), 1u);
  EXPECT_EQ(store.size(), 0u);
}

// --- PlanService ------------------------------------------------------------

TEST(PlanService, CachedPlanIsBitIdenticalToDirectPlanner) {
  const PlanRequest request = small_request();
  PlanService service;
  bool hit = true;
  const auto cold = service.plan(request, &hit);
  EXPECT_FALSE(hit);
  const auto warm = service.plan(request, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cold.get(), warm.get());

  // The service's answer must match a locally run planner bit for bit:
  // same winning config, same explored list, same serialized program.
  const Plan direct =
      Planner(request.model, request.cluster, request.options).plan();
  EXPECT_EQ(cold->config, direct.config);
  EXPECT_EQ(cold->explored, direct.explored);
  EXPECT_EQ(cold->program_text, program_to_string(direct.program));
  EXPECT_EQ(service.stats().planner_runs, 1u);
}

TEST(PlanService, ColdPlansMatchAStandalonePlanner) {
  // Cold plans keep no stage costs across requests, so each one must be
  // byte-identical to a store-less Planner::plan() of the same request, for
  // the 1F1B (SD) and the bidirectional (CDM) partitioner alike; the memo
  // counters are that plan's own.
  PlanRequest sd = small_request();
  PlanRequest cdm;
  cdm.model = make_cdm_lsun();
  cdm.cluster = make_p4de_cluster(1);
  cdm.options.global_batch = 128.0;
  cdm.options.stage_candidates = {2, 4};
  cdm.options.micro_candidates = {2, 4};
  PlanService service;
  std::size_t hits = 0;
  std::size_t misses = 0;
  for (const PlanRequest& request : {sd, cdm}) {
    SCOPED_TRACE(request.model.name);
    ASSERT_EQ(request.options.cache_store, nullptr);
    const Plan direct =
        Planner(request.model, request.cluster, request.options).plan();
    const auto cold = service.plan(request);
    EXPECT_EQ(cold->program_text, program_to_string(direct.program));
    EXPECT_EQ(cold->config, direct.config);
    EXPECT_EQ(cold->explored, direct.explored);
    hits += direct.search.cache_hits;
    misses += direct.search.cache_misses;
    EXPECT_EQ(service.stats().stage_costs.cost_hits, hits);
    EXPECT_EQ(service.stats().stage_costs.cost_misses, misses);
  }
  // Each evaluation's DP costs every stage once and the schedule builder
  // never reads the memo: a cold plan misses and never hits.
  EXPECT_EQ(hits, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_EQ(service.stats().planner_runs, 2u);
}

TEST(PlanService, NonFiniteModelNumbersFailWithInvalidArgument) {
  // A request built in code never passes the text reader: the planner's
  // model check must reject it before anything is planned or cached.
  PlanService service;
  for (const double bad :
       {std::nan(""), std::numeric_limits<double>::infinity(), -1.0}) {
    SCOPED_TRACE(bad);
    PlanRequest request = small_request();
    LayerDesc& layer =
        request.model.components[request.model.backbone_ids[0]].layers[0];
    layer.overhead_fwd_ms = bad;
    EXPECT_THROW((void)service.plan(request), std::invalid_argument);
    layer.overhead_fwd_ms = 0.1;
    layer.efficiency = bad;
    EXPECT_THROW((void)service.plan(request), std::invalid_argument);
  }
  const PlanService::Stats stats = service.stats();
  EXPECT_EQ(stats.planner_runs, 0u);
  EXPECT_EQ(stats.cache.entries, 0u);
}

TEST(PlanService, WarmRestartServesFromDiskWithoutPlanning) {
  const std::string dir = scratch_dir("service_restart");
  const PlanRequest request = small_request();
  Fingerprint fp;
  {
    PlanServiceOptions options;
    options.store_dir = dir;
    PlanService service(options);
    fp = service.plan(request)->fingerprint;
    EXPECT_EQ(service.stats().planner_runs, 1u);
  }
  PlanServiceOptions options;
  options.store_dir = dir;
  PlanService restarted(options);
  EXPECT_EQ(restarted.stats().store_loaded, 1u);
  bool hit = false;
  const auto plan = restarted.plan(request, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(plan->fingerprint, fp);
  EXPECT_EQ(restarted.stats().planner_runs, 0u);
}

TEST(PlanService, ClusterInvalidationEvictsCacheAndStore) {
  const std::string dir = scratch_dir("service_invalidate");
  PlanServiceOptions options;
  options.store_dir = dir;
  PlanService service(options);
  const PlanRequest request = small_request();
  (void)service.plan(request);
  const PlanService::InvalidationReport report =
      service.invalidate_cluster(request.cluster);
  EXPECT_EQ(report.cache_evicted, 1u);
  EXPECT_EQ(report.store_removed, 1u);
  bool hit = true;
  (void)service.plan(request, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(service.stats().planner_runs, 2u);
}

TEST(PlanService, ConcurrentIdenticalRequestsRunThePlannerOnce) {
  PlanService service;
  const PlanRequest request = small_request();
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const CachedPlan>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { results[t] = service.plan(request); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(service.stats().planner_runs, 1u);
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_NE(results[t], nullptr);
    expect_entries_identical(*results[0], *results[t]);
  }
}

TEST(PlanService, ConcurrentMixedBatchMatchesSequentialBitForBit) {
  const std::vector<PlanRequest> requests = {
      small_request(128.0), small_request(256.0), small_request(128.0),
      small_request(256.0)};
  PlanService concurrent_service;
  const auto concurrent = concurrent_service.plan_all(requests, 4);
  PlanService sequential_service;
  const auto sequential = sequential_service.plan_all(requests, 1);
  ASSERT_EQ(concurrent.size(), requests.size());
  // Two distinct requests, each planned exactly once per service.
  EXPECT_EQ(concurrent_service.stats().planner_runs, 2u);
  EXPECT_EQ(sequential_service.stats().planner_runs, 2u);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_NE(concurrent[i], nullptr);
    expect_entries_identical(*concurrent[i], *sequential[i]);
  }
}

/// The model's layer doubles in write order, as pointers into `model`.
std::vector<double*> layer_doubles(ModelDesc& model) {
  std::vector<double*> out;
  for (ComponentDesc& c : model.components) {
    for (LayerDesc& l : c.layers) {
      for (double* field :
           {&l.fwd_gflop, &l.bwd_flop_factor, &l.param_mb, &l.grad_mb,
            &l.output_mb, &l.act_mb, &l.overhead_fwd_ms, &l.overhead_bwd_ms,
            &l.efficiency}) {
        out.push_back(field);
      }
    }
  }
  return out;
}

/// One single-field change to a request, named for failure messages.
struct RequestVariant {
  std::string label;
  PlanRequest request;
};

/// Seeded single-field variants of `base`: layer doubles one ulp up and
/// down, 0.0 and -0.0 in one field, a renamed layer and component, another
/// batch and noise seed, and another search_threads (which is not part of
/// the request's identity).
std::vector<RequestVariant> single_field_variants(const PlanRequest& base,
                                                  std::uint64_t seed) {
  std::vector<RequestVariant> out;
  const auto add = [&](std::string label, const auto& change) {
    PlanRequest request = base;
    change(request);
    out.push_back({std::move(label), std::move(request)});
  };
  PlanRequest copy = base;
  const std::size_t num_doubles = layer_doubles(copy.model).size();
  std::uint64_t state = seed;
  const auto next_index = [&] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::size_t>(state >> 33) % num_doubles;
  };
  for (int i = 0; i < 24; ++i) {
    const std::size_t at = next_index();
    for (const double toward : {INFINITY, -INFINITY}) {
      add("layer double " + std::to_string(at) + " +-1 ulp",
          [&](PlanRequest& r) {
            double& field = *layer_doubles(r.model)[at];
            field = std::nextafter(field, toward);
          });
    }
  }
  const std::size_t zero_at = next_index();
  add("0.0", [&](PlanRequest& r) { *layer_doubles(r.model)[zero_at] = 0.0; });
  add("-0.0",
      [&](PlanRequest& r) { *layer_doubles(r.model)[zero_at] = -0.0; });
  add("layer name", [](PlanRequest& r) {
    r.model.components[r.model.backbone_ids[0]].layers[0].name += "_x";
  });
  add("component name",
      [](PlanRequest& r) { r.model.components[0].name += "_x"; });
  add("batch", [](PlanRequest& r) { r.options.global_batch += 64.0; });
  add("noise seed",
      [&](PlanRequest& r) { r.options.profiler.noise_seed ^= seed; });
  add("search_threads", [](PlanRequest& r) { r.options.search_threads = 3; });
  return out;
}

TEST(PlanService, RequestKeyMatchesCanonicalText) {
  for (const ModelDesc& model :
       {make_stable_diffusion_v21(), make_cdm_lsun()}) {
    PlanRequest base = small_request();
    base.model = model;
    const std::string base_key = request_key(base);
    // The key writes doubles as raw bits, so it is not the text.
    EXPECT_NE(base_key, canonical_request_text(base));
    std::vector<RequestVariant> variants =
        single_field_variants(base, 0x5EED0 + model.components.size());
    variants.insert(variants.begin(), {"base", base});
    std::vector<std::string> keys;
    std::vector<std::string> texts;
    for (const RequestVariant& v : variants) {
      keys.push_back(request_key(v.request));
      texts.push_back(canonical_request_text(v.request));
    }
    for (std::size_t a = 0; a < variants.size(); ++a) {
      for (std::size_t b = a + 1; b < variants.size(); ++b) {
        EXPECT_EQ(keys[a] == keys[b], texts[a] == texts[b])
            << model.name << ": " << variants[a].label << " vs "
            << variants[b].label;
      }
      const std::string& label = variants[a].label;
      if (label == "search_threads") {
        EXPECT_EQ(keys[a], base_key) << model.name;
      } else if (label != "base" && label != "0.0") {
        // The 0.0 variant may leave a field that already held 0.0.
        EXPECT_NE(keys[a], base_key) << model.name << ": " << label;
      }
    }
  }
}

TEST(PlanService, KeyingAHundredMillionDeviceRequestTakesUnderOneMs) {
  // Keying resolves the default group candidates (the divisors of the
  // world size); a small model keeps the rest of the key negligible.
  PlanRequest request;
  request.model = make_uniform_model(4, 1.0, 1.0);
  request.cluster = make_p4de_cluster(1);
  request.cluster.devices_per_machine = 100'000'000;
  double best_ms = INFINITY;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const std::string key = request_key(request);
    best_ms = std::min(
        best_ms, std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
    EXPECT_FALSE(key.empty());
  }
  EXPECT_LT(best_ms, 1.0);
}

// --- Wire protocol ----------------------------------------------------------

TEST(PlanProtocol, FramesRoundTripOverAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // The large frame exceeds the pipe's buffer, so write from a thread
  // while this one reads (also exercises write_all's short-write loop).
  std::thread writer([&] {
    write_frame(fds[1], "hello");
    write_frame(fds[1], "");
    write_frame(fds[1], std::string(100000, 'x'));
    ::close(fds[1]);
  });
  EXPECT_EQ(read_frame(fds[0]).value(), "hello");
  EXPECT_EQ(read_frame(fds[0]).value(), "");
  EXPECT_EQ(read_frame(fds[0]).value(), std::string(100000, 'x'));
  EXPECT_FALSE(read_frame(fds[0]).has_value());  // Clean EOF.
  writer.join();
  ::close(fds[0]);
}

TEST(PlanProtocol, TruncatedHugeFrameFailsWithoutAllocating) {
  // A length prefix claiming 60 MiB, then 3 bytes, then EOF: the reader
  // must fail as truncated having allocated only for what arrived.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  constexpr std::uint32_t kClaimed = 60u * 1024u * 1024u;
  const char bytes[] = {static_cast<char>(kClaimed >> 24),
                        static_cast<char>((kClaimed >> 16) & 0xFF),
                        static_cast<char>((kClaimed >> 8) & 0xFF),
                        static_cast<char>(kClaimed & 0xFF),
                        'a', 'b', 'c'};
  ASSERT_EQ(::write(fds[1], bytes, sizeof(bytes)),
            static_cast<ssize_t>(sizeof(bytes)));
  ::close(fds[1]);
  try {
    (void)read_frame(fds[0]);
    ADD_FAILURE() << "a truncated frame was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "truncated frame");
  }
  ::close(fds[0]);
}

TEST(PlanProtocol, PlanResponseRoundTripsAndVerifies) {
  const std::string payload = encode_plan_response(real_entry(), true);
  const PlanResponse response = decode_plan_response(payload);
  EXPECT_TRUE(response.ok);
  EXPECT_TRUE(response.cache_hit);
  ASSERT_NE(response.plan, nullptr);
  expect_entries_identical(real_entry(), *response.plan);

  const PlanResponse failure =
      decode_plan_response(encode_error_response("no such model"));
  EXPECT_FALSE(failure.ok);
  EXPECT_EQ(failure.error, "no such model");

  // A corrupted payload throws instead of yielding a wrong plan.
  std::string corrupt = payload;
  corrupt[corrupt.find("dpipe-model v1")] = 'X';
  EXPECT_THROW((void)decode_plan_response(corrupt), std::invalid_argument);
}

TEST(PlanProtocol, HitFieldAcceptsOnlyZeroOrOne) {
  // The status line's hit= field is a 0/1 flag: any other spelling is a
  // malformed response, never a cache hit.
  const std::string payload = encode_plan_response(real_entry(), false);
  EXPECT_FALSE(decode_plan_response(payload).cache_hit);
  for (const std::string value : {"yes", "", "2", "-1", "1x", "0.5"}) {
    SCOPED_TRACE(value);
    EXPECT_THROW((void)decode_plan_response(with_value(payload, "hit=", value)),
                 std::invalid_argument);
  }
}

TEST(PlanProtocol, ServeConnectionAnswersPlanStatsAndShutdown) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  PlanService service;
  ServeResult result;
  std::thread server(
      [&] { result = serve_connection(service, fds[0], fds[0]); });

  const PlanRequest request = small_request();
  write_frame(fds[1], encode_plan_request(request));
  const PlanResponse cold = decode_plan_response(read_frame(fds[1]).value());
  ASSERT_TRUE(cold.ok);
  EXPECT_FALSE(cold.cache_hit);

  write_frame(fds[1], encode_plan_request(request));
  const PlanResponse warm = decode_plan_response(read_frame(fds[1]).value());
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.cache_hit);
  expect_entries_identical(*cold.plan, *warm.plan);

  write_frame(fds[1], "stats\n");
  const std::string stats = read_frame(fds[1]).value();
  EXPECT_NE(stats.find("planner_runs 1"), std::string::npos);
  EXPECT_NE(stats.find("cache_hits 1"), std::string::npos);

  write_frame(fds[1], "bogus\n");
  const PlanResponse bogus =
      decode_plan_response(read_frame(fds[1]).value());
  EXPECT_FALSE(bogus.ok);

  write_frame(fds[1], "shutdown\n");
  EXPECT_EQ(read_frame(fds[1]).value(), "ok\n");
  server.join();
  EXPECT_TRUE(result.shutdown_requested);
  EXPECT_EQ(result.requests_answered, 4u);
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace dpipe
