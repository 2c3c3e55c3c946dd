#include "runtime/intraop.h"

#include <atomic>

#include "runtime/kernels.h"

namespace dpipe::rt {

namespace detail {

namespace {

std::atomic<bool> g_profile{false};
std::atomic<std::uint64_t> g_matmul_ns{0};
std::atomic<std::uint64_t> g_matmul_calls{0};
std::atomic<std::uint64_t> g_eltwise_ns{0};
std::atomic<std::uint64_t> g_eltwise_calls{0};

}  // namespace

bool op_profiling_enabled() {
  return g_profile.load(std::memory_order_relaxed);
}

void profile_add_matmul(std::uint64_t ns) {
  g_matmul_ns.fetch_add(ns, std::memory_order_relaxed);
  g_matmul_calls.fetch_add(1, std::memory_order_relaxed);
}

void profile_add_eltwise(std::uint64_t ns) {
  g_eltwise_ns.fetch_add(ns, std::memory_order_relaxed);
  g_eltwise_calls.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

void set_op_profiling(bool enabled) {
  detail::g_profile.store(enabled, std::memory_order_relaxed);
}

bool op_profiling_enabled() { return detail::op_profiling_enabled(); }

RuntimeOpProfile op_profile() {
  RuntimeOpProfile p;
  p.matmul_ns = detail::g_matmul_ns.load(std::memory_order_relaxed);
  p.matmul_calls = detail::g_matmul_calls.load(std::memory_order_relaxed);
  p.eltwise_ns = detail::g_eltwise_ns.load(std::memory_order_relaxed);
  p.eltwise_calls = detail::g_eltwise_calls.load(std::memory_order_relaxed);
  return p;
}

void reset_op_profile() {
  detail::g_matmul_ns.store(0, std::memory_order_relaxed);
  detail::g_matmul_calls.store(0, std::memory_order_relaxed);
  detail::g_eltwise_ns.store(0, std::memory_order_relaxed);
  detail::g_eltwise_calls.store(0, std::memory_order_relaxed);
}

}  // namespace dpipe::rt
