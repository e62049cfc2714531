#include "core/gram_solve.h"

#include <algorithm>

#include "linalg/cholesky.h"
#include "linalg/rank_dispatch.h"

namespace sns {
namespace {

// Natural-order factors whose every Schur pivot exceeds this fraction of
// max diag(H) are solved as they stand. A smaller pivot may be rounding
// left over from a singular H — natural order grows that rounding with the
// condition of the leading block (to 9e-10·max diag on a rank-11 Gram of
// order 12 in linalg_test's sweep) — so the rank is then decided by the
// diagonal-pivoting factorization, whose rounding-level pivots fall to the
// kCholeskyDropRatio floor.
constexpr double kTrustedPivotRatio = 1e-6;

const RankKernelTable& KernelsOrAuto(const RankKernelTable* rt) {
  return rt ? *rt : GetRankKernelTable(0);
}

bool PivotsTrusted(const Matrix& upper, const Matrix& h) {
  double max_diag = 0.0, min_pivot_sq = 0.0;
  for (int64_t i = 0; i < h.rows(); ++i) {
    max_diag = std::max(max_diag, h(i, i));
    const double pivot_sq = upper(i, i) * upper(i, i);
    min_pivot_sq = i == 0 ? pivot_sq : std::min(min_pivot_sq, pivot_sq);
  }
  return min_pivot_sq > kTrustedPivotRatio * max_diag;
}

}  // namespace

void GramSolver::Factorize(const Matrix& h) {
  const int64_t n = h.rows();
  if (upper_.rows() != n) {
    upper_ = Matrix(n, n);
    lanes_.Resize(n * kSolveRowsBlock);
  }
  const RankKernelTable& rt = KernelsOrAuto(rt_);
  // Row-suffix (U'U) factorization in H's own order: every inner loop
  // contiguous — see CholeskyFactorizeUpperInto.
  const bool full_rank = CholeskyFactorizeUpperInto(h, upper_, rt) == n;
  use_pivoted_ = !PivotsTrusted(upper_, h);
  if (!use_pivoted_) return;
  // The pivoted path's buffers are sized by the first H of this order that
  // needs them, so full-rank (and one-shot) solves never pay for them.
  if (pivoted_.rows() != n) {
    pivoted_ = Matrix(n, n);
    perm_.resize(static_cast<size_t>(n));
    outer_ = Matrix(n, n);
    outer_upper_ = Matrix(n, n);
  }
  const int64_t rank = CholeskyFactorizeUpperInto(h, pivoted_, rt, perm_.data());
  // Full rank after all: keep the natural-order factor and its solve.
  use_pivoted_ = rank < n || !full_rank;
  if (!use_pivoted_) return;
  // The live rows L of the pivoted factor give P'HP ≈ L'L, so
  // (P'HP)† = K'K with K = (LL')⁻¹L. Stage the upper triangle of UU'
  // (row-suffix dots: U(i, ·) is zero left of i) and factor it in natural
  // order: the zero rows and columns of dropped pivots drop again, the
  // live block LL' is factored.
  for (int64_t i = 0; i < n; ++i) {
    const double* u_i = pivoted_.Row(i);
    double* o_i = outer_.Row(i);
    for (int64_t j = i; j < n; ++j) {
      o_i[j] = rt.dot(u_i + j, pivoted_.Row(j) + j, n - j);
    }
  }
  CholeskyFactorizeUpperInto(outer_, outer_upper_, rt);
}

void GramSolver::Solve(const double* b, double* x) const {
  const RankKernelTable& rt = KernelsOrAuto(rt_);
  const int64_t n = upper_.rows();
  if (!use_pivoted_) {
    // H symmetric: b H⁻¹ == (H⁻¹ b')'.
    std::copy(b, b + n, x);
    CholeskySolveUpperInPlace(upper_, x, rt);
    return;
  }
  // y' = K'K P'b' = U'(LL')⁻¹(LL')⁻¹ U P'b' in pivot order (dropped entries
  // held at 0), then x = y P'. Every step runs in place on y.
  double* y = lanes_.data();
  for (int64_t k = 0; k < n; ++k) y[k] = b[perm_[static_cast<size_t>(k)]];
  // y ← U y, first row first: row k reads y[k..n) only.
  for (int64_t k = 0; k < n; ++k) {
    y[k] = rt.dot(pivoted_.Row(k) + k, y + k, n - k);
  }
  CholeskySolveUpperInPlace(outer_upper_, y, rt);
  CholeskySolveUpperInPlace(outer_upper_, y, rt);
  // y ← U'y, last row first: y[k] is read before any write to it.
  for (int64_t k = n - 1; k >= 0; --k) {
    const double* row = pivoted_.Row(k);
    const double w = y[k];
    y[k] = row[k] * w;
    rt.axpy(w, row + k + 1, y + k + 1, n - k - 1);
  }
  for (int64_t k = 0; k < n; ++k) x[perm_[static_cast<size_t>(k)]] = y[k];
}

void GramSolver::SolveRows(const Matrix& b, Matrix& x) const {
  SNS_CHECK(b.rows() == x.rows() && b.cols() == x.cols());
  if (use_pivoted_) {
    for (int64_t i = 0; i < b.rows(); ++i) Solve(b.Row(i), x.Row(i));
    return;
  }
  CholeskySolveUpperRows(upper_, b, x, lanes_.data(), KernelsOrAuto(rt_));
}

void SolveRowAgainstGram(const Matrix& h, const double* b, double* x) {
  GramSolver solver;
  solver.Factorize(h);
  solver.Solve(b, x);
}

Matrix SolveRowsAgainstGram(const Matrix& h, const Matrix& b) {
  SNS_CHECK(b.cols() == h.rows());
  GramSolver solver;
  solver.Factorize(h);
  Matrix x(b.rows(), b.cols());
  solver.SolveRows(b, x);
  return x;
}

}  // namespace sns
