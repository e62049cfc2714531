// Cholesky (LL') factorization for symmetric positive-definite systems.
// Used as the fast path for solving Gram systems when they are well
// conditioned; callers fall back to the pseudoinverse (pseudo_inverse.h)
// when factorization fails.

#ifndef SLICENSTITCH_LINALG_CHOLESKY_H_
#define SLICENSTITCH_LINALG_CHOLESKY_H_

#include "common/status.h"
#include "linalg/matrix.h"

namespace sns {

struct RankKernelTable;  // linalg/rank_dispatch.h

/// Allocation-free factorization into a caller-owned n×n `lower` (only the
/// lower triangle including the diagonal is written and later read; entries
/// above the diagonal are left untouched, so a reused buffer may carry stale
/// values there). Returns false when a non-positive or non-finite pivot is
/// found — `lower` is then partially written and must not be solved against.
bool CholeskyFactorizeInto(const Matrix& a, Matrix& lower);

/// In-place solve A x = b against a factorization produced by
/// CholeskyFactorizeInto (or Cholesky::lower()): `x` holds b on entry and
/// the solution on exit (n = lower order values).
void CholeskySolveInPlace(const Matrix& lower, double* x);

/// Right-looking factorization A = U'U with U upper-triangular in row-major
/// storage — the hot-path form used by GramSolver. Storing the transposed
/// factor makes every inner loop a CONTIGUOUS row-suffix operation: the
/// trailing update subtracts u_ki · U(k, i..n) from U(i, i..n) (an
/// independent-element axpy the autovectorizer handles at full width),
/// where the classic lower/left-looking form walks strided columns or
/// latency-bound sequential dots. Only the upper triangle including the
/// diagonal is written and later read; entries below the diagonal may
/// carry stale values in a reused buffer. Returns false on a non-positive
/// or non-finite pivot. Rounds differently than CholeskyFactorizeInto
/// (incremental vs deferred subtraction), so the two factorization paths
/// agree to solver tolerance, not bitwise.
///
/// The table-taking overloads run the suffix axpys/dots through a
/// RUNTIME-LENGTH RankKernelTable (padded_rank == 0 — the row suffixes are
/// unaligned and of arbitrary length), letting the engine pin a kernel
/// tier; the plain overloads resolve the process-wide auto tier per call.
bool CholeskyFactorizeUpperInto(const Matrix& a, Matrix& upper);
bool CholeskyFactorizeUpperInto(const Matrix& a, Matrix& upper,
                                const RankKernelTable& kr);

/// In-place solve A x = b against CholeskyFactorizeUpperInto's factor:
/// U' y = b by forward elimination over row suffixes of U, then U x = y by
/// back substitution with contiguous row-suffix dots.
void CholeskySolveUpperInPlace(const Matrix& upper, double* x);
void CholeskySolveUpperInPlace(const Matrix& upper, double* x,
                               const RankKernelTable& kr);

/// Solves every row of `b` into the same row of `x` (both m×n, not
/// aliased) through the table's `solve_upper_rows`: the intrinsic tiers
/// solve a block of rows at once with one row per SIMD lane, the generic
/// tier interleaves rows per elimination step. Every solution is bitwise
/// identical to CholeskySolveUpperInPlace's on that row with the same
/// table. `lanes` is scratch of n × kSolveRowsBlock doubles
/// (linalg/rank_dispatch.h).
void CholeskySolveUpperRows(const Matrix& upper, const Matrix& b, Matrix& x,
                            double* lanes, const RankKernelTable& kr);

/// Cholesky factorization of a symmetric positive-definite matrix.
class Cholesky {
 public:
  /// Factorizes `a` (only the lower triangle is read). Fails with
  /// FailedPrecondition if a non-positive pivot is found.
  static StatusOr<Cholesky> Factorize(const Matrix& a);

  /// Solves A x = b for a single right-hand side (b.size() == n).
  std::vector<double> Solve(const std::vector<double>& b) const;

  /// Solves A X = B columnwise; B is n×m, the result is n×m.
  Matrix Solve(const Matrix& b) const;

  /// The lower-triangular factor L with A = L L'.
  const Matrix& lower() const { return lower_; }

 private:
  explicit Cholesky(Matrix lower) : lower_(std::move(lower)) {}
  Matrix lower_;
};

}  // namespace sns

#endif  // SLICENSTITCH_LINALG_CHOLESKY_H_
