#pragma once

namespace dpipe::rt {

/// Instruction-set level the packed matmul microkernels dispatch to at
/// runtime (DESIGN.md §11). Selection is a *runtime* decision — the AVX2
/// translation unit is compiled with ISA flags, but whether it is called is
/// decided per process from CPUID + the DPIPE_SIMD environment variable —
/// so one binary runs correctly on any x86-64 machine.
///
/// Exactness contract: every SIMD level produces bit-identical results —
/// the vector lanes are distinct output columns and each output element
/// keeps the single ascending inner-dimension accumulation chain, with the
/// multiply and the add rounded separately, so the level only changes how
/// many columns advance per instruction.
enum class SimdLevel {
  kScalar,  ///< Portable fallback (compiled with the base ISA).
  kAvx2,    ///< AVX2 microkernels (requires CPU and build support).
};

/// The level the dispatcher currently resolves to. Initialized lazily from
/// DPIPE_SIMD ("scalar", "avx2", or "auto"/unset = best supported), then
/// overridable via set_simd_level.
[[nodiscard]] SimdLevel simd_level();

/// Pins the dispatch level (tests, benchmarks). Throws std::invalid_argument
/// if the level is not supported by this CPU/build.
void set_simd_level(SimdLevel level);

/// Best level supported by both this CPU and this build.
[[nodiscard]] SimdLevel detected_simd_level();

/// True when the running CPU reports AVX2 support.
[[nodiscard]] bool cpu_supports_avx2();

/// True when the binary contains the AVX2 microkernel translation unit
/// (CMake option DPIPE_NATIVE_KERNELS, x86-64 toolchains only).
[[nodiscard]] bool build_has_avx2_kernels();

[[nodiscard]] const char* simd_level_name(SimdLevel level);

}  // namespace dpipe::rt
