// Cholesky factorizations of symmetric positive (semi-)definite matrices.
// The row-suffix U'U form drops numerically zero pivots instead of failing,
// so it also factors the singular Grams whose pseudo-inverse GramSolver
// (core/gram_solve.h) builds from that factor.

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

/// Relative floor of CholeskyFactorizeUpperInto's drop rule (τ). Every
/// Schur pivot is at most its diagonal entry, so a factor that drops
/// nothing has pivot ratios min/max diag(U) ≥ √τ.
inline constexpr double kCholeskyDropRatio = 1e-12;

/// Right-looking factorization A = U'U with U upper-triangular in row-major
/// storage — the hot-path form used by GramSolver. Storing the transposed
/// factor makes every inner loop a CONTIGUOUS row-suffix operation: the
/// trailing update subtracts u_ki · U(k, i..n) from U(i, i..n) (an
/// independent-element axpy the autovectorizer handles at full width),
/// where the classic lower/left-looking form walks strided columns or
/// latency-bound sequential dots. Only the upper triangle including the
/// diagonal is written and later read (of `a` too); entries below the
/// diagonal may carry stale values in a reused buffer. Rounds differently
/// than CholeskyFactorizeInto (incremental vs deferred subtraction), so the
/// two factorization paths agree to solver tolerance, not bitwise.
///
/// Drop rule: a Schur pivot ≤ kCholeskyDropRatio · max diag(a), or a
/// non-finite one, is dropped — its row of U is zeroed, so the remaining
/// rows L factor a ≈ L'L. Returns the number of kept pivots (n when a is
/// numerically positive definite); the factor is complete either way.
///
/// With `perm` (n entries) the factorization pivots on the diagonal: step
/// k takes the largest remaining Schur diagonal, so P'aP ≈ U'U with
/// perm[k] the index of a behind row k of U. The kept pivots then come
/// first and the returned count is a's numerical rank — rank-revealing,
/// where natural order can leave a rounding-level pivot far above the drop
/// floor when the leading block is ill-conditioned. Without `perm` the
/// pivot order is a's own.
int64_t CholeskyFactorizeUpperInto(const Matrix& a, Matrix& upper);
int64_t CholeskyFactorizeUpperInto(const Matrix& a, Matrix& upper,
                                   const RankKernelTable& kr,
                                   int64_t* perm = nullptr);

/// In-place solve A x = b against CholeskyFactorizeUpperInto's factor:
/// U' y = b by forward elimination over row suffixes of U, then U x = y by
/// back substitution with contiguous row-suffix dots. Entries at dropped
/// pivots come out 0 (with none dropped, this is the exact solve).
void CholeskySolveUpperInPlace(const Matrix& upper, double* x);
void CholeskySolveUpperInPlace(const Matrix& upper, double* x,
                               const RankKernelTable& kr);

/// Solves every row of `b` into the same row of `x` (both m×n, not
/// aliased) through the table's `solve_upper_rows`: the intrinsic tiers
/// solve a block of rows at once with one row per SIMD lane, the generic
/// tier interleaves rows per elimination step. Every solution is bitwise
/// identical to CholeskySolveUpperInPlace's on that row with the same
/// table. Requires a factor with no dropped pivot. `lanes` is scratch of
/// n × kSolveRowsBlock doubles (linalg/rank_dispatch.h).
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
