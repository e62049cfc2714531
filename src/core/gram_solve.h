// Row solve against a Gram matrix: x = b H† (Eqs. 4, 9, 12, 16).
//
// H = ∗ A'A is symmetric PSD but can be singular (duplicated components,
// cold rows); H† is the Moore–Penrose pseudo-inverse. Everything comes from
// the row-suffix U'U Cholesky of linalg/cholesky.h, which drops a Schur
// pivot ≤ τ·max diag(H), τ = kCholeskyDropRatio = 1e-12, by zeroing its row
// of U:
//   - H's own pivot order first. When every pivot exceeds 1e-6·max diag(H)
//     this is the plain Cholesky solve.
//   - Otherwise a diagonal-pivoting factorization decides the numerical
//     rank. Full rank keeps the natural-order solve. Rank r < n: the live
//     rows L of the pivoted factor give P'HP ≈ L'L, and
//     H† = P K'K P' with K = (LL')⁻¹L, through one more Cholesky of LL'.

#ifndef SLICENSTITCH_CORE_GRAM_SOLVE_H_
#define SLICENSTITCH_CORE_GRAM_SOLVE_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace sns {

struct RankKernelTable;  // linalg/rank_dispatch.h

/// Reusable Gram solver: factorize H once, then solve any number of rows
/// against it. Factorize and both solves perform zero heap allocations
/// once the internal buffers match H's order — the singular path's buffers
/// are sized by the first H of that order that needs them — which makes
/// this the solver of the per-event update hot path (owned by
/// UpdateWorkspace / AlsWorkspace).
class GramSolver {
 public:
  /// Factorizes symmetric PSD `h` (order n), replacing any previous
  /// factorization.
  void Factorize(const Matrix& h);

  /// x = b H† for the last Factorize'd H. `b` and `x` hold n values and
  /// must not alias. An all-zero H gives x = 0. Not safe to call
  /// concurrently on one solver (a singular H solves through the shared
  /// lane scratch).
  void Solve(const double* b, double* x) const;

  /// X = B H† for every row of `b` (m×n) into `x` (m×n; only the n logical
  /// values of each row are written). Rows are solved a block at a time,
  /// one row per SIMD lane on the intrinsic tiers (CholeskySolveUpperRows);
  /// each row is bitwise identical to Solve on it (a singular H solves row
  /// by row). `b` and `x` must not alias. Allocation-free, like Solve; not
  /// safe to call concurrently on one solver (the lane scratch is shared).
  void SolveRows(const Matrix& b, Matrix& x) const;

  /// Pins the RUNTIME-LENGTH kernel table (padded_rank == 0) the row-suffix
  /// loops run through — set by UpdateWorkspace::Prepare to the
  /// engine's kernel tier. Unset, each Factorize/Solve resolves the
  /// process-wide auto tier.
  void set_kernels(const RankKernelTable* rt) { rt_ = rt; }

 private:
  Matrix upper_;  // H ≈ U'U in H's own pivot order.
  // SolveRows' lane scratch: n × kSolveRowsBlock doubles, sized with upper_;
  // its first n doubles stage the pivoted Solve.
  mutable AlignedVector lanes_;
  // Pivoted path (sized on its first use): P'HP ≈ U'U with dropped pivots as
  // zero rows, then UU' and its U'U factor.
  Matrix pivoted_;
  std::vector<int64_t> perm_;
  Matrix outer_;
  Matrix outer_upper_;
  bool use_pivoted_ = false;
  const RankKernelTable* rt_ = nullptr;
};

/// Computes x = b H† for symmetric PSD H (order n). `b` and `x` hold n
/// values and must not alias. One-shot convenience over GramSolver.
void SolveRowAgainstGram(const Matrix& h, const double* b, double* x);

/// Computes X = B H† for a full matrix of right-hand rows (B is m×n, H is
/// n×n). One-shot convenience over GramSolver::SolveRows.
Matrix SolveRowsAgainstGram(const Matrix& h, const Matrix& b);

}  // namespace sns

#endif  // SLICENSTITCH_CORE_GRAM_SOLVE_H_
