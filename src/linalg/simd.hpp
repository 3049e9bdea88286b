// Portable explicit-SIMD dispatch for the linear-algebra kernels.
//
// The hot kernels (linalg/fused.cpp, blas.cpp, shrinkage.cpp) carry
// hand-written vector paths selected per architecture at compile time:
//
//  * x86-64 — an AVX2 path built with function-level target attributes,
//    so the library itself still targets baseline x86-64 and the vector
//    code is only entered after a cpuid check at runtime;
//  * aarch64 — a NEON path (NEON is baseline on aarch64, no runtime
//    check needed);
//  * everything else — the scalar loops, unchanged.
//
// Numerics contract (see docs/PERFORMANCE.md "Threading model & SIMD"):
// elementwise kernels are bit-identical at every level — SIMD lanes
// perform the same IEEE mul/add per element and no FMA contraction is
// ever emitted. Reduction kernels (dot products, Gram accumulations,
// iterate_change_norms) split the accumulator across lanes under a
// vector level, which reassociates the sum: deterministic for a fixed
// level, but not bit-identical to the scalar order. The ordered
// kernels are bit-identical at every level: the reduction
// rank1_polish_pass adds lane terms one at a time in index order
// (rank1_finish_pass is its row body without the sums),
// huber_fit_columns runs one whole scalar 1-D fit per lane (four
// independent fits per AVX2 vector, two to four vectors advanced per
// pass over the terms), and the Huber fit's Newton pass and Hessian
// sum in four column lanes at every level, the scalar one included.
// The bit-exact
// equivalence suites therefore pin Level::Scalar (ScopedLevel below),
// and the frozen rpca::reference numerics are reproduced exactly by the
// scalar level.
//
// The active level resolves once from the NETCONST_SIMD environment
// variable ("auto" default, "scalar"/"off" to disable, "avx2"/"neon" to
// require) plus CPU detection; benches and tests can override it in
// process with ScopedLevel for A/B comparisons inside one binary.
#pragma once

#include <cstddef>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NETCONST_SIMD_X86 1
// Lets baseline-x86-64 translation units define AVX2 functions; callers
// must guard every call with a runtime check (simd::active_level()).
#define NETCONST_TARGET_AVX2 __attribute__((target("avx2")))
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define NETCONST_SIMD_NEON 1
#define NETCONST_TARGET_AVX2
#else
#define NETCONST_TARGET_AVX2
#endif

namespace netconst::linalg::simd {

enum class Level {
  Scalar = 0,
  Avx2 = 1,
  Neon = 2,
};

/// The level kernels dispatch on for this call: a ScopedLevel override
/// if one is in force, otherwise the process-wide detected level.
Level active_level();

/// Best level this binary + CPU supports (ignores overrides and the
/// environment); what "auto" resolves to when NETCONST_SIMD is unset.
Level best_available_level();

const char* level_name(Level level);
inline const char* active_level_name() { return level_name(active_level()); }

/// Doubles per vector register at `level` (1 for Scalar).
std::size_t lane_width(Level level);

/// RAII process-wide level override for benches and equivalence tests
/// (e.g. pin Scalar for the bit-exact suites, or A/B scalar vs vector
/// kernels inside one binary). Requesting a level the binary/CPU cannot
/// execute clamps to Scalar. Overrides nest; not intended for use while
/// kernels run concurrently on other threads with a *different* desired
/// level (the override is global).
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level);
  ~ScopedLevel();

  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  int saved_;  // previous override slot (-1 = none)
};

}  // namespace netconst::linalg::simd
