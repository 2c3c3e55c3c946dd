// Runtime kernel & memory substrate benchmark (DESIGN.md §8, §11, §13):
// matmul GFLOP/s of the naive reference and of the blocked kernels at
// executor width 1 and at the default width, across the three transpose
// variants — square shapes plus the rectangular (skinny/tall) batch x
// hidden GEMMs the trainer actually issues — a roofline section comparing
// achieved GFLOP/s against the measured register-tile compute ceiling at
// the active SIMD level, an elementwise bandwidth section (GB/s, scalar vs
// active SIMD level) for the fused eltwise/optimizer kernels, end-to-end
// PipelineTrainer iterations/s, a GEMM vs non-GEMM time breakdown of the
// trainer loop (via the runtime op profiler), and TensorPool
// recycling/alignment stats. Prints a table and writes BENCH_runtime.json
// (pass an output path to override; pass --quick for a fast smoke run).
//
// Timing idiom (SNIPPETS §2–3, the DeployUseTensorRT harness): set up
// once, one untimed warm-up, then a timed loop of enough calls to swamp
// clock granularity, best-of-reps. The end-to-end section interleaves its
// cases round-robin across repetitions so slow drift on a shared machine
// (frequency scaling, co-tenants) hits every case equally instead of
// biasing whichever ran last.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/dp_trainer.h"
#include "runtime/eltwise.h"
#include "runtime/kernels.h"
#include "runtime/pipeline_exec.h"
#include "runtime/pool.h"
#include "runtime/simd.h"

namespace {

using namespace dpipe::rt;

/// CPUs this process may run on (what `nproc` prints).
int available_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return CPU_COUNT(&mask);
  }
  return static_cast<int>(std::thread::hardware_concurrency());
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct MatmulRow {
  std::string op;
  int m = 0, k = 0, n = 0;
  double naive_gflops = 0.0;       ///< Executor width 1.
  double blocked_w1_gflops = 0.0;  ///< Executor width 1.
  double blocked_gflops = 0.0;     ///< Default executor width.
  double blocked_vs_naive = 0.0;   ///< Both at width 1.
  double width_speedup = 0.0;      ///< Default width vs width 1.
};

using MatmulFn = void (*)(Tensor&, const Tensor&, const Tensor&, KernelMode);

/// Best-of-`reps` GFLOP/s for one kernel at one shape: one untimed warm-up
/// call, then timed loops of `inner` calls each (sized so a loop covers at
/// least ~20 MFLOP, swamping timer granularity for the skinny shapes).
double time_gflops(MatmulFn fn, Tensor& out, const Tensor& a,
                   const Tensor& b, KernelMode mode, std::int64_t flops,
                   int reps) {
  fn(out, a, b, mode);  // Warm-up: pool fill, thread startup, page faults.
  const int inner = static_cast<int>(
      std::max<std::int64_t>(1, (20LL << 20) / std::max<std::int64_t>(
                                                   flops, 1)));
  double best_ms = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double start = now_ms();
    for (int i = 0; i < inner; ++i) {
      fn(out, a, b, mode);
    }
    const double ms = (now_ms() - start) / inner;
    if (r == 0 || ms < best_ms) {
      best_ms = ms;
    }
  }
  return static_cast<double>(flops) / (best_ms * 1e6);
}

MatmulRow run_matmul_case(const std::string& op, int m, int k, int n,
                          int reps) {
  Rng rng(0xBE7C4ull + m + k + n);
  Tensor a, b, out;
  MatmulFn fn = nullptr;
  if (op == "nn") {
    a = rng.randn({m, k});
    b = rng.randn({k, n});
    out = Tensor({m, n});
    fn = [](Tensor& o, const Tensor& x, const Tensor& y, KernelMode mo) {
      matmul_into(o, x, y, mo);
    };
  } else if (op == "tn") {
    a = rng.randn({k, m});  // a^T [k,m]^T -> contributes m as inner dim.
    b = rng.randn({k, n});
    out = Tensor({m, n});
    fn = [](Tensor& o, const Tensor& x, const Tensor& y, KernelMode mo) {
      matmul_tn_into(o, x, y, mo);
    };
  } else {
    a = rng.randn({m, k});
    b = rng.randn({n, k});
    out = Tensor({m, n});
    fn = [](Tensor& o, const Tensor& x, const Tensor& y, KernelMode mo) {
      matmul_nt_into(o, x, y, mo);
    };
  }
  const std::int64_t flops = 2ll * m * k * n;
  MatmulRow row;
  row.op = op;
  row.m = m;
  row.k = k;
  row.n = n;
  set_kernel_threads(1);
  // Naive is two orders of magnitude slower; fewer reps at big shapes.
  row.naive_gflops = time_gflops(fn, out, a, b, KernelMode::kNaive, flops,
                                 flops >= (1 << 26) ? 1 : 2);
  row.blocked_w1_gflops =
      time_gflops(fn, out, a, b, KernelMode::kBlocked, flops, reps);
  set_kernel_threads(0);
  row.blocked_gflops =
      time_gflops(fn, out, a, b, KernelMode::kBlocked, flops, reps);
  row.blocked_vs_naive = row.blocked_w1_gflops / row.naive_gflops;
  row.width_speedup = row.blocked_gflops / row.blocked_w1_gflops;
  return row;
}

// --- Elementwise bandwidth -------------------------------------------------

struct EltwiseRow {
  std::string op;
  std::int64_t n = 0;
  double scalar_gbs = 0.0;
  double simd_gbs = 0.0;
  double speedup = 0.0;
};

/// Best-of-`reps` GB/s for one eltwise op: warm-up call, then timed loops
/// of `inner` calls each, sized so a loop moves at least ~64 MiB.
double time_gbs(const std::function<void()>& fn, double bytes_per_call,
                int reps) {
  fn();  // Warm-up.
  const int inner = static_cast<int>(std::max(
      1.0, static_cast<double>(64ll << 20) / bytes_per_call));
  double best_ms = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double start = now_ms();
    for (int i = 0; i < inner; ++i) {
      fn();
    }
    const double ms = (now_ms() - start) / inner;
    if (r == 0 || ms < best_ms) {
      best_ms = ms;
    }
  }
  return bytes_per_call / (best_ms * 1e6);
}

/// GB/s for every dispatched eltwise op at size `n`, at the given SIMD
/// level. Bytes counted are the op's actual memory traffic (reads +
/// writes), so the number is directly comparable to stream bandwidth.
std::vector<EltwiseRow> run_eltwise_cases(std::int64_t n, int reps) {
  const int cols = 256;
  const int rows = static_cast<int>(std::max<std::int64_t>(1, n / cols));
  Rng rng(0xE17ull + n);
  const Tensor x = rng.randn({1, static_cast<int>(n)});
  const Tensor g = rng.randn({1, static_cast<int>(n)});
  const Tensor a2d = rng.randn({rows, cols});
  const Tensor bias = rng.randn({1, cols});
  Tensor out({1, static_cast<int>(n)});
  Tensor p = rng.randn({1, static_cast<int>(n)});
  Tensor m({1, static_cast<int>(n)});
  Tensor v({1, static_cast<int>(n)});
  Tensor row_acc = a2d.slice_rows(0, rows);
  Tensor col_sum({1, cols});

  struct Case {
    const char* name;
    double bytes;  ///< reads + writes per call.
    std::function<void()> fn;
  };
  const double fn4 = static_cast<double>(n) * 4.0;
  std::vector<Case> cases;
  cases.push_back({"exp", 2 * fn4, [&] { exp_into(out, x); }});
  cases.push_back({"silu", 2 * fn4, [&] { silu_into(out, x); }});
  cases.push_back(
      {"silu_bwd", 3 * fn4, [&] { silu_backward_into(out, x, g); }});
  cases.push_back({"axpy", 3 * fn4, [&] { axpy_inplace(p, g, 0.37f); }});
  cases.push_back({"sub_scale", 3 * fn4,
                   [&] { sub_scale_into(out, x, g, 0.123f); }});
  cases.push_back({"adam", 7 * fn4, [&] {
                     eltwise_adam(p, g, m, v, 1e-3f, 0.9f, 0.999f, 1e-8f,
                                  0.5f, 0.5f);
                   }});
  cases.push_back({"bias_add",
                   2.0 * rows * cols * 4.0,
                   [&] { bias_add_inplace(row_acc, bias); }});
  cases.push_back({"sum_rows",
                   static_cast<double>(rows) * cols * 4.0,
                   [&] { sum_rows_into(col_sum, a2d); }});

  const SimdLevel active = simd_level();
  std::vector<EltwiseRow> out_rows;
  for (const Case& c : cases) {
    EltwiseRow r;
    r.op = c.name;
    r.n = (std::strcmp(c.name, "bias_add") == 0 ||
           std::strcmp(c.name, "sum_rows") == 0)
              ? static_cast<std::int64_t>(rows) * cols
              : n;
    set_simd_level(SimdLevel::kScalar);
    r.scalar_gbs = time_gbs(c.fn, c.bytes, reps);
    set_simd_level(active);
    r.simd_gbs = time_gbs(c.fn, c.bytes, reps);
    r.speedup = r.simd_gbs / r.scalar_gbs;
    out_rows.push_back(std::move(r));
  }
  set_simd_level(active);
  return out_rows;
}

// --- End-to-end trainer ----------------------------------------------------

struct EndToEndRow {
  std::string mode;
  int width = 0;  ///< Executor width.
  double iters_per_s = 0.0;
  double speedup = 0.0;  ///< vs naive.
};

PipelineRtConfig e2e_config() {
  PipelineRtConfig cfg;
  cfg.num_stages = 3;
  cfg.num_microbatches = 4;
  cfg.data_parallel_degree = 2;
  cfg.global_batch = 32;
  cfg.lr = 0.2f;
  cfg.cross_iteration = true;
  return cfg;
}

DdpmConfig e2e_problem_config() {
  DdpmConfig dc;
  dc.self_conditioning = true;
  dc.self_cond_prob = 0.5;
  return dc;
}

/// Iterations/s of the full pipeline trainer (the default example config:
/// self-conditioning, cross-iteration frozen part, 3 stages x 4 micros x
/// 2 replicas): the naive reference at the default executor width, then
/// the blocked kernels at width 1 and at the default width. One persistent
/// trainer per case; the cases are timed round-robin for `rounds`
/// repetitions of `iters` each, best-of-rounds per case.
std::vector<EndToEndRow> run_end_to_end(int iters, int rounds) {
  struct Case {
    KernelMode mode;
    int width;  ///< 0: the default width.
  };
  const std::vector<Case> cases = {{KernelMode::kNaive, 0},
                                   {KernelMode::kBlocked, 1},
                                   {KernelMode::kBlocked, 0}};
  const DdpmProblem problem(e2e_problem_config());
  const PipelineRtConfig cfg = e2e_config();
  const auto select = [](const Case& c) {
    set_kernel_mode(c.mode);
    set_kernel_threads(c.width);
  };
  std::vector<std::unique_ptr<PipelineTrainer>> trainers;
  std::vector<double> best_ms(cases.size(), 0.0);
  for (const Case& c : cases) {
    select(c);
    trainers.push_back(std::make_unique<PipelineTrainer>(problem, cfg));
    trainers.back()->train(2);  // Warm-up: thread startup, pool fill.
  }
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      select(cases[i]);
      const double start = now_ms();
      trainers[i]->train(iters);
      const double ms = now_ms() - start;
      if (round == 0 || ms < best_ms[i]) {
        best_ms[i] = ms;
      }
    }
  }
  std::vector<EndToEndRow> rows;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    select(cases[i]);
    EndToEndRow row;
    row.mode = kernel_mode_name(cases[i].mode);
    row.width = kernel_threads();
    row.iters_per_s = iters / (best_ms[i] / 1000.0);
    row.speedup = row.iters_per_s / (iters / (best_ms[0] / 1000.0));
    rows.push_back(std::move(row));
  }
  set_kernel_threads(0);
  return rows;
}

// --- GEMM vs non-GEMM breakdown --------------------------------------------

struct OpBreakdown {
  double wall_ms = 0.0;
  double matmul_ms = 0.0;   ///< Summed across stage threads.
  double eltwise_ms = 0.0;  ///< Summed across stage threads.
  std::uint64_t matmul_calls = 0;
  std::uint64_t eltwise_calls = 0;
  double nongemm_share = 0.0;  ///< eltwise / (matmul + eltwise) time.
};

/// Where the trainer's compute time goes, via the runtime op profiler:
/// matmul vs dispatched-eltwise nanoseconds accumulated across all stage
/// threads over `iters` iterations at the default executor width. The op times
/// are thread-summed, so they can exceed wall time on a multi-core box;
/// the share is the meaningful number.
OpBreakdown run_op_breakdown(int iters) {
  set_kernel_mode(KernelMode::kBlocked);
  set_kernel_threads(0);
  const DdpmProblem problem(e2e_problem_config());
  PipelineTrainer trainer(problem, e2e_config());
  trainer.train(2);  // Warm-up.
  reset_op_profile();
  set_op_profiling(true);
  const double start = now_ms();
  trainer.train(iters);
  const double wall = now_ms() - start;
  set_op_profiling(false);
  const RuntimeOpProfile prof = op_profile();
  OpBreakdown b;
  b.wall_ms = wall;
  b.matmul_ms = static_cast<double>(prof.matmul_ns) / 1e6;
  b.eltwise_ms = static_cast<double>(prof.eltwise_ns) / 1e6;
  b.matmul_calls = prof.matmul_calls;
  b.eltwise_calls = prof.eltwise_calls;
  const double accounted = b.matmul_ms + b.eltwise_ms;
  b.nongemm_share = accounted > 0.0 ? b.eltwise_ms / accounted : 0.0;
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_runtime.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      out_path = argv[i];
    }
  }

  const int width = kernel_threads();
  std::printf("== Runtime kernel & memory substrate ==\n");
  std::printf("simd: %s (detected %s), nproc: %d, executor width: %d, "
              "build: %s\n\n",
              simd_level_name(simd_level()),
              simd_level_name(detected_simd_level()), available_cpus(),
              width, DPIPE_BUILD_TYPE);

  struct Shape {
    int m, k, n;
  };
  std::vector<Shape> shapes;
  if (quick) {
    shapes.push_back({128, 128, 128});
    shapes.push_back({16, 40, 32});
  } else {
    // Squares for the roofline trajectory...
    shapes.push_back({128, 128, 128});
    shapes.push_back({256, 256, 256});
    shapes.push_back({512, 512, 512});
    // ...plus the rectangular shapes the trainer issues: micro-batch rows x
    // backbone widths (modules.cpp Linear/backbone GEMMs and the output
    // head) and skinny/tall panels stressing each dimension in turn.
    shapes.push_back({16, 40, 32});
    shapes.push_back({16, 32, 2});
    shapes.push_back({512, 64, 64});
    shapes.push_back({64, 512, 64});
    shapes.push_back({64, 64, 512});
  }
  const int reps = quick ? 2 : 5;

  const std::string wide_col = "blk_w" + std::to_string(width) + "_gf";
  std::printf("%-4s %5s %5s %5s %10s %10s %10s %9s %8s\n", "op", "m", "k",
              "n", "naive_gf", "blk_w1_gf", wide_col.c_str(), "blk/naive",
              "wN/w1");
  std::vector<MatmulRow> matmul_rows;
  for (const Shape& s : shapes) {
    for (const std::string op : {"nn", "tn", "nt"}) {
      const MatmulRow row = run_matmul_case(op, s.m, s.k, s.n, reps);
      std::printf("%-4s %5d %5d %5d %10.2f %10.2f %10.2f %8.1fx %7.2fx\n",
                  row.op.c_str(), row.m, row.k, row.n, row.naive_gflops,
                  row.blocked_w1_gflops, row.blocked_gflops,
                  row.blocked_vs_naive, row.width_speedup);
      matmul_rows.push_back(row);
    }
  }

  // Roofline: the single-thread ceiling at the active SIMD level, and the
  // fraction each shape achieves at width 1. The L1-resident register-tile
  // probe alone can read below the packed GEMM on a time-shared host, so
  // the ceiling is the larger of the probe and the best width-1 GEMM rate
  // of this run.
  const double probe = measured_peak_gflops();
  double best_gemm = 0.0;
  for (const MatmulRow& r : matmul_rows) {
    best_gemm = std::max(best_gemm, r.blocked_w1_gflops);
  }
  const double peak = std::max(probe, best_gemm);
  std::printf("\nroofline (%s): single-thread peak %.2f GF/s (probe %.2f, "
              "best GEMM %.2f)\n",
              simd_level_name(simd_level()), peak, probe, best_gemm);
  std::printf("%-4s %5s %5s %5s %12s\n", "op", "m", "k", "n", "w1_pct");
  for (const MatmulRow& r : matmul_rows) {
    std::printf("%-4s %5d %5d %5d %11.1f%%\n", r.op.c_str(), r.m, r.k, r.n,
                100.0 * r.blocked_w1_gflops / peak);
  }

  // Elementwise bandwidth: GB/s of actual memory traffic per dispatched
  // op, scalar table vs the active SIMD table (DESIGN.md §13).
  std::vector<EltwiseRow> eltwise_rows;
  std::printf("\n%-9s %9s %12s %12s %9s   (eltwise GB/s)\n", "op", "n",
              "scalar", simd_level_name(simd_level()), "speedup");
  for (const std::int64_t n :
       quick ? std::vector<std::int64_t>{1 << 16}
             : std::vector<std::int64_t>{1 << 14, 1 << 20}) {
    for (EltwiseRow& r : run_eltwise_cases(n, reps)) {
      std::printf("%-9s %9lld %12.2f %12.2f %8.2fx\n", r.op.c_str(),
                  static_cast<long long>(r.n), r.scalar_gbs, r.simd_gbs,
                  r.speedup);
      eltwise_rows.push_back(std::move(r));
    }
  }

  const int e2e_iters = quick ? 6 : 20;
  const int e2e_rounds = quick ? 2 : 3;
  TensorPool::global().reset_stats();
  std::printf("\n%-8s %6s %10s %9s   (PipelineTrainer, best of %d x %d "
              "iters, interleaved)\n",
              "mode", "width", "iters/s", "speedup", e2e_rounds, e2e_iters);
  const std::vector<EndToEndRow> e2e_rows =
      run_end_to_end(e2e_iters, e2e_rounds);
  for (const EndToEndRow& row : e2e_rows) {
    std::printf("%-8s %6d %10.1f %8.2fx\n", row.mode.c_str(), row.width,
                row.iters_per_s, row.speedup);
  }

  // GEMM vs non-GEMM: where the trainer's compute time goes at the default
  // width, accumulated across threads by the runtime op profiler.
  const OpBreakdown bd = run_op_breakdown(e2e_iters);
  std::printf(
      "\nop breakdown (blocked, width %d, %d iters): wall %.1f ms, "
      "matmul %.1f ms / %llu calls, eltwise %.1f ms / %llu calls, "
      "non-GEMM share %.1f%%\n",
      width, e2e_iters, bd.wall_ms, bd.matmul_ms,
      static_cast<unsigned long long>(bd.matmul_calls), bd.eltwise_ms,
      static_cast<unsigned long long>(bd.eltwise_calls),
      100.0 * bd.nongemm_share);

  const TensorPool::Stats pool = TensorPool::global().stats();
  const double hit_rate =
      pool.allocs_avoided + pool.allocs_fresh > 0
          ? static_cast<double>(pool.allocs_avoided) /
                static_cast<double>(pool.allocs_avoided + pool.allocs_fresh)
          : 0.0;
  std::printf(
      "\npool: %llu recycled / %llu fresh (%.1f%% hit), peak %.2f MiB, "
      "%llu rounded allocs (%.1f KiB padding, %llu-byte aligned)\n",
      static_cast<unsigned long long>(pool.allocs_avoided),
      static_cast<unsigned long long>(pool.allocs_fresh), 100.0 * hit_rate,
      static_cast<double>(pool.peak_bytes) / (1024.0 * 1024.0),
      static_cast<unsigned long long>(pool.rounded_allocs),
      static_cast<double>(pool.padding_bytes_total) / 1024.0,
      static_cast<unsigned long long>(pool.alignment_bytes));

  std::ofstream json(out_path);
  json << "{\n  \"simd\": \"" << simd_level_name(simd_level())
       << "\",\n  \"nproc\": " << available_cpus()
       << ",\n  \"executor_width\": " << width
       << ",\n  \"build_type\": \"" << DPIPE_BUILD_TYPE
       << "\",\n  \"matmul\": [\n";
  for (std::size_t i = 0; i < matmul_rows.size(); ++i) {
    const MatmulRow& r = matmul_rows[i];
    json << "    {\"op\": \"" << r.op << "\", \"m\": " << r.m
         << ", \"k\": " << r.k << ", \"n\": " << r.n
         << ", \"naive_gflops\": " << r.naive_gflops
         << ", \"blocked_w1_gflops\": " << r.blocked_w1_gflops
         << ", \"blocked_gflops\": " << r.blocked_gflops
         << ", \"blocked_vs_naive\": " << r.blocked_vs_naive
         << ", \"width_speedup\": " << r.width_speedup << "}"
         << (i + 1 < matmul_rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"roofline\": {\n    \"peak_gflops\": " << peak
       << ",\n    \"probe_gflops\": " << probe
       << ",\n    \"best_gemm_gflops\": " << best_gemm
       << ",\n    \"rows\": [\n";
  for (std::size_t i = 0; i < matmul_rows.size(); ++i) {
    const MatmulRow& r = matmul_rows[i];
    json << "      {\"op\": \"" << r.op << "\", \"m\": " << r.m
         << ", \"k\": " << r.k << ", \"n\": " << r.n
         << ", \"w1_pct\": " << 100.0 * r.blocked_w1_gflops / peak << "}"
         << (i + 1 < matmul_rows.size() ? "," : "") << "\n";
  }
  json << "    ]\n  },\n  \"eltwise\": [\n";
  for (std::size_t i = 0; i < eltwise_rows.size(); ++i) {
    const EltwiseRow& r = eltwise_rows[i];
    json << "    {\"op\": \"" << r.op << "\", \"n\": " << r.n
         << ", \"scalar_gbs\": " << r.scalar_gbs
         << ", \"simd_gbs\": " << r.simd_gbs
         << ", \"speedup\": " << r.speedup << "}"
         << (i + 1 < eltwise_rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"end_to_end\": [\n";
  for (std::size_t i = 0; i < e2e_rows.size(); ++i) {
    const EndToEndRow& r = e2e_rows[i];
    json << "    {\"mode\": \"" << r.mode
         << "\", \"executor_width\": " << r.width
         << ", \"iters_per_s\": " << r.iters_per_s
         << ", \"speedup\": " << r.speedup << "}"
         << (i + 1 < e2e_rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"op_breakdown\": {\"mode\": \"blocked\", "
       << "\"executor_width\": " << width << ", \"iters\": " << e2e_iters
       << ", \"wall_ms\": " << bd.wall_ms
       << ", \"matmul_ms\": " << bd.matmul_ms
       << ", \"matmul_calls\": " << bd.matmul_calls
       << ", \"eltwise_ms\": " << bd.eltwise_ms
       << ", \"eltwise_calls\": " << bd.eltwise_calls
       << ", \"nongemm_share\": " << bd.nongemm_share << "},\n";
  json << "  \"pool\": {\"allocs_avoided\": " << pool.allocs_avoided
       << ", \"allocs_fresh\": " << pool.allocs_fresh
       << ", \"hit_rate\": " << hit_rate
       << ", \"peak_bytes\": " << pool.peak_bytes
       << ", \"alignment_bytes\": " << pool.alignment_bytes
       << ", \"rounded_allocs\": " << pool.rounded_allocs
       << ", \"padding_bytes_total\": " << pool.padding_bytes_total
       << "}\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
