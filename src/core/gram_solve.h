// Row solve against a Gram matrix: x = b H† (Eqs. 4, 9, 12, 16).
//
// H = ∗ A'A is symmetric PSD. The fast path is a Cholesky solve (identical
// result when H is safely positive definite); when H is singular or
// ill-conditioned the solve falls back to the symmetric eigendecomposition
// pseudoinverse, which is what the paper's H† denotes.

#ifndef SLICENSTITCH_CORE_GRAM_SOLVE_H_
#define SLICENSTITCH_CORE_GRAM_SOLVE_H_

#include "linalg/matrix.h"

namespace sns {

struct RankKernelTable;  // linalg/rank_dispatch.h

/// Reusable Gram solver: factorize H once, then solve any number of rows
/// against it. The Cholesky fast path performs zero heap allocations once
/// the internal buffer matches H's order, which makes this the solver of
/// the per-event update hot path (owned by UpdateWorkspace / AlsWorkspace).
/// Singular / ill-conditioned H falls back to the (allocating, rare)
/// symmetric-eigen pseudoinverse — the paper's H†.
class GramSolver {
 public:
  /// Factorizes symmetric PSD `h` (order n), replacing any previous
  /// factorization.
  void Factorize(const Matrix& h);

  /// x = b H† for the last Factorize'd H. `b` and `x` hold n values and
  /// must not alias.
  void Solve(const double* b, double* x) const;

  /// X = B H† for every row of `b` (m×n) into `x` (m×n; only the n logical
  /// values of each row are written). Rows are solved a block at a time,
  /// one row per SIMD lane on the intrinsic tiers (CholeskySolveUpperRows);
  /// each row is bitwise identical to Solve on it. `b` and `x` must not
  /// alias. Allocation-free on the Cholesky path, like Solve; not safe to
  /// call concurrently on one solver (the lane scratch is shared).
  void SolveRows(const Matrix& b, Matrix& x) const;

  /// Pins the RUNTIME-LENGTH kernel table (padded_rank == 0) the Cholesky
  /// row-suffix loops run through — set by UpdateWorkspace::Prepare to the
  /// engine's kernel tier. Unset, each Factorize/Solve resolves the
  /// process-wide auto tier.
  void set_kernels(const RankKernelTable* rt) { rt_ = rt; }

 private:
  Matrix upper_;  // A = U'U factor (row-suffix kernels; linalg/cholesky.h).
  // SolveRows' lane scratch: n × kSolveRowsBlock doubles, sized with upper_.
  mutable AlignedVector lanes_;
  Matrix pinv_;
  bool use_pinv_ = false;
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
