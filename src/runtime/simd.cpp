#include "runtime/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/error.h"

namespace dpipe::rt {

namespace {

/// Sentinel for "not resolved yet" in the atomic level cell.
constexpr int kUnresolved = -1;

std::atomic<int> g_level{kUnresolved};

SimdLevel resolve_from_env() {
  const char* env = std::getenv("DPIPE_SIMD");
  if (env == nullptr || std::strcmp(env, "auto") == 0 ||
      std::strcmp(env, "") == 0) {
    return detected_simd_level();
  }
  if (std::strcmp(env, "scalar") == 0) {
    return SimdLevel::kScalar;
  }
  if (std::strcmp(env, "avx2") == 0) {
    DPIPE_REQUIRE(build_has_avx2_kernels(),
                  "DPIPE_SIMD=avx2 but this build has no AVX2 kernels "
                  "(DPIPE_NATIVE_KERNELS was off or the toolchain lacks "
                  "-mavx2)");
    DPIPE_REQUIRE(cpu_supports_avx2(),
                  "DPIPE_SIMD=avx2 but this CPU does not report AVX2");
    return SimdLevel::kAvx2;
  }
  DPIPE_REQUIRE(false, std::string("unknown DPIPE_SIMD value '") + env +
                           "' (expected scalar, avx2, or auto)");
  return SimdLevel::kScalar;  // Unreachable.
}

}  // namespace

bool cpu_supports_avx2() {
#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool build_has_avx2_kernels() {
#if defined(DPIPE_HAVE_AVX2_TU)
  return true;
#else
  return false;
#endif
}

SimdLevel detected_simd_level() {
  return build_has_avx2_kernels() && cpu_supports_avx2() ? SimdLevel::kAvx2
                                                         : SimdLevel::kScalar;
}

SimdLevel simd_level() {
  int level = g_level.load(std::memory_order_acquire);
  if (level == kUnresolved) {
    const SimdLevel resolved = resolve_from_env();
    // First resolver wins; concurrent resolvers compute the same value
    // (the env cannot change mid-process).
    int expected = kUnresolved;
    g_level.compare_exchange_strong(expected, static_cast<int>(resolved),
                                    std::memory_order_acq_rel);
    level = g_level.load(std::memory_order_acquire);
  }
  return static_cast<SimdLevel>(level);
}

void set_simd_level(SimdLevel level) {
  if (level == SimdLevel::kAvx2) {
    DPIPE_REQUIRE(build_has_avx2_kernels() && cpu_supports_avx2(),
                  "set_simd_level(kAvx2): AVX2 kernels unavailable on this "
                  "CPU/build");
  }
  g_level.store(static_cast<int>(level), std::memory_order_release);
}

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "?";
}

}  // namespace dpipe::rt
