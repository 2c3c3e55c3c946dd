// The process-wide executor (common/parallel.h): default width from the CPU
// affinity mask, nested fork-join, and concurrent and nested planner fan-out
// giving plans byte-identical to a width-1 run.
#include <gtest/gtest.h>

#include <sched.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "core/instr/serialize.h"
#include "core/planner/planner.h"
#include "model/zoo.h"
#include "service/service.h"

namespace dpipe {
namespace {

/// Restores the executor's default width on scope exit.
struct ExecutorWidthGuard {
  ~ExecutorWidthGuard() { set_executor_width(0); }
};

/// Unsets DPIPE_THREADS for its lifetime, restoring the previous value.
class UnsetThreadsEnv {
 public:
  UnsetThreadsEnv() {
    if (const char* value = std::getenv("DPIPE_THREADS")) {
      saved_ = value;
    }
    ::unsetenv("DPIPE_THREADS");
  }
  ~UnsetThreadsEnv() {
    if (saved_.has_value()) {
      ::setenv("DPIPE_THREADS", saved_->c_str(), 1);
    }
  }

 private:
  std::optional<std::string> saved_;
};

TEST(Executor, DefaultWidthFollowsAffinity) {
  // hardware_concurrency() ignores the affinity mask (taskset -c 0 still
  // reports every CPU); the default width must count the CPUs this process
  // may actually run on.
  const UnsetThreadsEnv env;
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(default_thread_count(), CPU_COUNT(&saved));
  int first = 0;
  while (!CPU_ISSET(first, &saved)) {
    ++first;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const int pinned = default_thread_count();
  ::setenv("DPIPE_THREADS", "3", 1);
  const int overridden = default_thread_count();
  ::unsetenv("DPIPE_THREADS");
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1);
  EXPECT_EQ(overridden, 3);  // DPIPE_THREADS still wins.
}

TEST(Executor, NestedForkJoinCoversEveryIndexOnce) {
  // Inner fork-joins run from inside an outer one: each recruits only the
  // workers idle at its call, or runs inline, and never waits on a busy
  // worker.
  const ExecutorWidthGuard guard;
  set_executor_width(4);
  EXPECT_EQ(executor_width(), 4);
  constexpr std::size_t kOuter = 6;
  constexpr std::size_t kInner = 64;
  std::vector<std::vector<int>> visits(kOuter, std::vector<int>(kInner, 0));
  parallel_for(kOuter, 3, [&](std::size_t i) {
    parallel_for(kInner, 0, [&](std::size_t j) { ++visits[i][j]; });
  });
  for (std::size_t i = 0; i < kOuter; ++i) {
    for (std::size_t j = 0; j < kInner; ++j) {
      ASSERT_EQ(visits[i][j], 1) << i << "," << j;
    }
  }
}

PlannerOptions forced_fan_out(double global_batch) {
  PlannerOptions options;
  options.global_batch = global_batch;
  options.stage_candidates = {2, 4};
  options.micro_candidates = {2, 4};
  return options;
}

std::string plan_bytes(const Plan& plan) {
  return program_to_string(plan.program);
}

TEST(Executor, ConcurrentPlannersMatchWidthOne) {
  const ExecutorWidthGuard guard;
  const ModelDesc model = make_stable_diffusion_v21();
  const ClusterSpec cluster = make_p4de_cluster(1);
  set_executor_width(1);
  const Plan reference = Planner(model, cluster, forced_fan_out(128.0)).plan();
  EXPECT_EQ(reference.search.threads, 1);

  set_executor_width(4);
  std::vector<Plan> plans(2);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < plans.size(); ++t) {
    callers.emplace_back([&, t] {
      plans[t] = Planner(model, cluster, forced_fan_out(128.0)).plan();
    });
  }
  for (std::thread& caller : callers) {
    caller.join();
  }
  for (const Plan& plan : plans) {
    EXPECT_EQ(plan.search.threads, 4);
    EXPECT_TRUE(plan.config == reference.config);
    EXPECT_TRUE(plan.explored == reference.explored);
    EXPECT_EQ(plan_bytes(plan), plan_bytes(reference));
  }
}

TEST(Executor, PlanAllWithNestedPlannerFanOutMatchesWidthOne) {
  // plan_all fans three requests out over the executor; each cold plan's
  // grid search then forks from inside that fork-join, onto the one worker
  // left idle or inline.
  const ExecutorWidthGuard guard;
  std::vector<PlanRequest> requests;
  for (const double batch : {128.0, 256.0, 192.0}) {
    PlanRequest request;
    request.model = make_stable_diffusion_v21();
    request.cluster = make_p4de_cluster(1);
    request.options = forced_fan_out(batch);
    requests.push_back(request);
  }
  PlanServiceOptions options;

  set_executor_width(1);
  PlanService sequential(options);
  const auto reference = sequential.plan_all(requests, 4);

  set_executor_width(4);
  PlanService concurrent(options);
  const auto plans = concurrent.plan_all(requests, 4);
  ASSERT_EQ(plans.size(), requests.size());
  EXPECT_EQ(concurrent.stats().planner_runs, requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_NE(plans[i], nullptr);
    EXPECT_EQ(plans[i]->request_text, reference[i]->request_text);
    EXPECT_EQ(plans[i]->config, reference[i]->config);
    EXPECT_EQ(plans[i]->explored, reference[i]->explored);
    EXPECT_EQ(plans[i]->program_text, reference[i]->program_text);
  }
}

}  // namespace
}  // namespace dpipe
