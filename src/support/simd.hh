/**
 * @file
 * SIMD dispatch policy for the replay kernels.
 *
 * A replay runs on one of two paths, bit-identical by contract (the
 * contract tests sweep every scheme under both): Avx2, the
 * phase-split kernels (predictors/block_kernel_simd.hh), whose
 * index/hash fills exist only as AVX2 code; and Scalar, the block
 * kernel (predictors/block_kernel.hh), which computes each index
 * inline as it walks the block. The counter tables' bank transposes
 * (support/sat_counter_simd.hh) follow the same mode. Which path
 * runs is decided once per session:
 *
 *  - Build time: the CMake cache variable BPRED_SIMD
 *    (auto | avx2 | scalar) decides whether the AVX2 kernels are
 *    compiled at all. `scalar` defines BPRED_SIMD_SCALAR_ONLY and
 *    the tree contains no vector code: the block kernel and the
 *    scalar bank transposes are its only paths, and that build is
 *    the reference.
 *  - Run time: the BPRED_SIMD environment variable (auto | avx2 |
 *    scalar) or the per-run SimOptions::simd knob picks among the
 *    compiled paths; `auto` probes the CPU with
 *    __builtin_cpu_supports("avx2"). An explicit `avx2` request on
 *    a machine (or build) without AVX2 warns once and falls back to
 *    scalar — results are identical either way, so a fallback is
 *    always safe.
 *
 * BPRED_HAVE_AVX2 is the compile-time gate every intrinsic in the
 * *_simd translation units must sit behind (enforced by the bp_lint
 * `simd-isolation` rule).
 */

#pragma once

#include "support/types.hh"

#if !defined(BPRED_SIMD_SCALAR_ONLY) && \
    (defined(__x86_64__) || defined(__i386__))
#define BPRED_HAVE_AVX2 1
#else
#define BPRED_HAVE_AVX2 0
#endif

namespace bpred
{

/** Which replay path (and bank-transpose kernel) a pass uses. */
enum class SimdMode : u8
{
    /** Defer to BPRED_SIMD in the environment, then the CPU probe. */
    Auto,

    /** The AVX2 kernels (falls back to Scalar when unavailable). */
    Avx2,

    /** The scalar block kernel and bank transposes: the reference. */
    Scalar,
};

/** "auto" / "avx2" / "scalar". */
const char *simdModeName(SimdMode mode);

/**
 * True when the AVX2 kernels are compiled into this build and the
 * host CPU supports them (the probe result is cached).
 */
bool simdAvx2Available();

/**
 * Resolve @p requested to the mode a kernel should actually run:
 * Auto consults the BPRED_SIMD environment variable and then
 * simdAvx2Available(); an explicit Avx2 request degrades to Scalar
 * (with a one-time warning) when AVX2 is unavailable. Never
 * returns Auto.
 */
SimdMode resolveSimdMode(SimdMode requested = SimdMode::Auto);

} // namespace bpred
