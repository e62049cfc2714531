// Compile-time rank dispatch for the rank-R inner loops.
//
// The per-event cost of every SliceNStitch updater is dominated by length-R
// loops (R = CP rank, padded to a multiple of 4 — see linalg/simd.h). With a
// runtime trip count the autovectorizer must emit prologue/epilogue scalar
// tails and aliasing checks; with a compile-time padded trip count and
// __restrict pointers it emits clean full-width SIMD. This header provides:
//
//   - RankTag<P> / DispatchPaddedRank: a switch that maps the padded rank
//     (4, 8, ..., 32; every multiple of kRankPadDoubles up to 32) onto a
//     template instantiation, with RankTag<0> as the runtime-bound generic
//     fallback for larger ranks,
//   - the templated __restrict vector primitives every dense kernel is
//     built from (fill/copy/axpy/Hadamard/dot/rank-1 Gram deltas), and
//   - RankKernelTable: a function-pointer table over those primitives,
//     resolved ONCE at engine construction (UpdateWorkspace::Prepare) so
//     the row updaters pay no per-call dispatch.
//
// Contract shared by all padded primitives: pointer arguments reference
// buffers of at least the padded length, with the padding lanes holding
// exactly 0.0 (Matrix rows and AlignedVector buffers guarantee both).
// Differential coverage for every specialization and the generic fallback
// lives in tests/kernel_dispatch_test.cpp.

#ifndef SLICENSTITCH_LINALG_RANK_DISPATCH_H_
#define SLICENSTITCH_LINALG_RANK_DISPATCH_H_

#include <cstdint>

#include "common/cpu_features.h"
#include "linalg/simd.h"

namespace sns {

/// Tag carrying a compile-time padded rank; 0 means "runtime length".
template <int64_t kPadded>
struct RankTag {
  static constexpr int64_t value = kPadded;
};

/// Invokes fn(RankTag<P>{}) with P = padded_rank when a specialization
/// exists, RankTag<0> (generic runtime-bound kernels) otherwise.
template <typename Fn>
decltype(auto) DispatchPaddedRank(int64_t padded_rank, Fn&& fn) {
  switch (padded_rank) {
    case 4:
      return fn(RankTag<4>{});
    case 8:
      return fn(RankTag<8>{});
    case 12:
      return fn(RankTag<12>{});
    case 16:
      return fn(RankTag<16>{});
    case 20:
      return fn(RankTag<20>{});
    case 24:
      return fn(RankTag<24>{});
    case 28:
      return fn(RankTag<28>{});
    case 32:
      return fn(RankTag<32>{});
    default:
      return fn(RankTag<0>{});
  }
}

/// Loop bound of a primitive: the compile-time padded rank when
/// specialized, the runtime argument for the generic fallback.
template <int64_t P>
constexpr int64_t TripCount(int64_t n) {
  return P > 0 ? P : n;
}

// ---------------------------------------------------------------------------
// Vector primitives. `n` is the padded length; specialized instantiations
// (P > 0) ignore it.

/// dst[0..n) = value.
template <int64_t P>
inline void VecFill(double* SNS_RESTRICT dst, double value, int64_t n) {
  const int64_t m = TripCount<P>(n);
  for (int64_t r = 0; r < m; ++r) dst[r] = value;
}

/// dst = src. src and dst must not overlap.
template <int64_t P>
inline void VecCopy(const double* SNS_RESTRICT src, double* SNS_RESTRICT dst,
                    int64_t n) {
  const int64_t m = TripCount<P>(n);
  for (int64_t r = 0; r < m; ++r) dst[r] = src[r];
}

/// y += alpha * x. x and y must not overlap.
template <int64_t P>
inline void VecAxpy(double alpha, const double* SNS_RESTRICT x,
                    double* SNS_RESTRICT y, int64_t n) {
  const int64_t m = TripCount<P>(n);
  for (int64_t r = 0; r < m; ++r) y[r] += alpha * x[r];
}

/// out = a ∗ b elementwise. `out` MAY alias `a` or `b` (elementwise maps
/// with matching indices are alias-safe), so no __restrict here.
template <int64_t P>
inline void VecMul(const double* a, const double* b, double* out, int64_t n) {
  const int64_t m = TripCount<P>(n);
  for (int64_t r = 0; r < m; ++r) out[r] = a[r] * b[r];
}

/// dst ∗= src elementwise. dst may alias src.
template <int64_t P>
inline void VecMulAccum(double* dst, const double* src, int64_t n) {
  const int64_t m = TripCount<P>(n);
  for (int64_t r = 0; r < m; ++r) dst[r] *= src[r];
}

/// out += v · (a ∗ b): the fused 3-mode MTTKRP row accumulation. `a` and
/// `b` are read-only and may alias each other (e.g. a squared-row
/// accumulation passes the same row twice); `out` must not alias either.
template <int64_t P>
inline void VecFma3(double v, const double* a, const double* b,
                    double* SNS_RESTRICT out, int64_t n) {
  const int64_t m = TripCount<P>(n);
  for (int64_t r = 0; r < m; ++r) out[r] += v * (a[r] * b[r]);
}

/// Σ a[r]·b[r]. a and b may point at the same data (reads only).
///
/// Accumulates into four independent partial sums (one per 256-bit lane
/// slot), combined as (s0+s2)+(s1+s3): a sequential dot is one
/// multiply-add dependency chain and bottlenecks on FMA latency — the
/// Cholesky factorize/solve loops live on this. The grouping is fixed, so
/// results are deterministic: every generic-tier dot (the table's `dot`,
/// the lower-triangular Cholesky, the generic `solve_upper_rows`) rounds
/// the same way, and internal bitwise differentials remain exact.
template <int64_t P>
inline double VecDot(const double* a, const double* b, int64_t n) {
  const int64_t m = TripCount<P>(n);
  const int64_t m4 = m - m % 4;
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  int64_t r = 0;
  for (; r < m4; r += 4) {
    s0 += a[r] * b[r];
    s1 += a[r + 1] * b[r + 1];
    s2 += a[r + 2] * b[r + 2];
    s3 += a[r + 3] * b[r + 3];
  }
  double sum = (s0 + s2) + (s1 + s3);
  for (; r < m; ++r) sum += a[r] * b[r];
  return sum;
}

/// g[j] += new_i·new_row[j] − old_i·old_row[j]: one row of the Gram rank-1
/// update Q ← Q − p'p + a'a (Eq. 13). g must not alias the row arguments.
template <int64_t P>
inline void VecGramRowDelta(double new_i, const double* SNS_RESTRICT new_row,
                            double old_i, const double* SNS_RESTRICT old_row,
                            double* SNS_RESTRICT g, int64_t n) {
  const int64_t m = TripCount<P>(n);
  for (int64_t j = 0; j < m; ++j) {
    g[j] += new_i * new_row[j] - old_i * old_row[j];
  }
}

/// g[j] += p·(new_row[j] − prev_row[j]): one row of the prev-Gram update
/// U ← U − p'p + p'a (Eq. 17 / Eq. 26). g must not alias the row arguments.
template <int64_t P>
inline void VecScaledDiffAccum(double p, const double* SNS_RESTRICT new_row,
                               const double* SNS_RESTRICT prev_row,
                               double* SNS_RESTRICT g, int64_t n) {
  const int64_t m = TripCount<P>(n);
  for (int64_t j = 0; j < m; ++j) g[j] += p * (new_row[j] - prev_row[j]);
}

// ---------------------------------------------------------------------------
// Function-pointer table over the primitives, resolved once per engine.

/// Rows a `solve_upper_rows` kernel holds in its lane scratch at a time: the
/// scratch it is handed must hold n × kSolveRowsBlock doubles.
inline constexpr int64_t kSolveRowsBlock = 16;

/// The row-level kernel set the per-event updaters call directly. Resolved
/// by GetRankKernelTable at engine construction (UpdateWorkspace::Prepare)
/// and cached, so steady-state events perform no dispatch at all. Every
/// function takes the padded length as its trailing argument; specialized
/// tables (padded_rank > 0) ignore it.
///
/// Three tiers of the same contract exist (common/cpu_features.h): the
/// generic tier points at the templated primitives above; the AVX2 and
/// AVX-512 tiers point at the intrinsic codelets of linalg/codelets/,
/// compiled in dedicated TUs with the matching -m flags and only reachable
/// through this table (so a baseline build never executes them on hosts
/// without the extensions). Intrinsic tiers may fuse multiply-adds, so they
/// match the generic tier to a few ulps, not bitwise; elementwise kernels
/// (fill/copy/mul/mul_accum) are bitwise across tiers.
///
/// `solve_upper_rows` is the one multi-row kernel: it is runtime-length in
/// every table (n is an argument, padded_rank plays no part) and, within a
/// tier, bitwise equal to solving each row alone with that tier's `axpy`
/// and `dot` (linalg/cholesky.h, CholeskySolveUpperInPlace).
struct RankKernelTable {
  KernelTier tier;      // Which implementation tier this table points at.
  int64_t padded_rank;  // 0 for the runtime-bound table of this tier.
  void (*fill)(double* dst, double value, int64_t n);
  void (*copy)(const double* src, double* dst, int64_t n);
  void (*axpy)(double alpha, const double* x, double* y, int64_t n);
  void (*mul)(const double* a, const double* b, double* out, int64_t n);
  void (*mul_accum)(double* dst, const double* src, int64_t n);
  void (*fma3)(double v, const double* a, const double* b, double* out,
               int64_t n);
  double (*dot)(const double* a, const double* b, int64_t n);
  void (*gram_row_delta)(double new_i, const double* new_row, double old_i,
                         const double* old_row, double* g, int64_t n);
  void (*scaled_diff_accum)(double p, const double* new_row,
                            const double* prev_row, double* g, int64_t n);
  // x_j = b_j (U'U)⁻¹ for rows j < `rows` of b and x (both `row_stride`
  // apart; only their first n values are read and written), against the
  // upper factor U of CholeskyFactorizeUpperInto (n×n, `upper_stride`
  // apart). `lanes` is scratch of n × kSolveRowsBlock doubles. b and x
  // must not alias.
  void (*solve_upper_rows)(const double* upper, int64_t upper_stride,
                           int64_t n, const double* b, double* x,
                           int64_t row_stride, int64_t rows, double* lanes);
};

/// The auto-tier table for a given padded rank: a specialization for every
/// padded rank with a RankTag case above, the runtime-bound table
/// otherwise, from the tier ResolveKernelTier() picked for this process.
/// The returned reference has static storage duration.
const RankKernelTable& GetRankKernelTable(int64_t padded_rank);

/// Same, pinned to an explicit tier. Falls back tier-by-tier (AVX-512 →
/// AVX2 → generic) when the requested tier is not compiled into the build,
/// so the returned table is always callable on a host that supports the
/// requested tier.
const RankKernelTable& GetRankKernelTable(int64_t padded_rank,
                                          KernelTier tier);

}  // namespace sns

#endif  // SLICENSTITCH_LINALG_RANK_DISPATCH_H_
