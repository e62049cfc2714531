#include "linalg/cholesky.h"

#include <cmath>

#include "linalg/rank_dispatch.h"

namespace sns {

bool CholeskyFactorizeInto(const Matrix& a, Matrix& lower) {
  SNS_CHECK(a.rows() == a.cols());
  SNS_CHECK(lower.rows() == a.rows() && lower.cols() == a.rows());
  const int64_t n = a.rows();
  for (int64_t i = 0; i < n; ++i) {
    const double* row_i = lower.Row(i);
    for (int64_t j = 0; j <= i; ++j) {
      // Row-prefix dot (runtime length j; contiguous row access).
      const double sum = a(i, j) - VecDot<0>(row_i, lower.Row(j), j);
      if (i == j) {
        if (sum <= 0.0 || !std::isfinite(sum)) return false;
        lower(i, i) = std::sqrt(sum);
      } else {
        lower(i, j) = sum / lower(j, j);
      }
    }
  }
  return true;
}

void CholeskySolveInPlace(const Matrix& lower, double* SNS_RESTRICT x) {
  const int64_t n = lower.rows();
  // Forward substitution L y = b: x[i] ← (x[i] − L(i,0..i)·x) / L(i,i).
  // Row-prefix dot over the contiguous row, vectorizable without strided
  // column access.
  for (int64_t i = 0; i < n; ++i) {
    const double* SNS_RESTRICT row = lower.Row(i);
    x[i] = (x[i] - VecDot<0>(row, x, i)) / row[i];
  }
  // Back substitution L' x = y, written column-of-L' = row-of-L oriented:
  // once x[i] is final, subtract its contribution L(i, 0..i)·x[i] from the
  // pending prefix — an axpy over the contiguous row instead of a strided
  // column walk.
  for (int64_t i = n - 1; i >= 0; --i) {
    const double* SNS_RESTRICT row = lower.Row(i);
    const double x_i = x[i] / row[i];
    x[i] = x_i;
    VecAxpy<0>(-x_i, row, x, i);
  }
}

bool CholeskyFactorizeUpperInto(const Matrix& a, Matrix& upper) {
  return CholeskyFactorizeUpperInto(a, upper, GetRankKernelTable(0));
}

bool CholeskyFactorizeUpperInto(const Matrix& a, Matrix& upper,
                                const RankKernelTable& kr) {
  SNS_CHECK(a.rows() == a.cols());
  SNS_CHECK(upper.rows() == a.rows() && upper.cols() == a.rows());
  SNS_DCHECK(kr.padded_rank == 0);  // Suffix lengths are runtime values.
  const int64_t n = a.rows();
  // Stage the upper triangle of (symmetric) a row by row.
  for (int64_t i = 0; i < n; ++i) {
    const double* SNS_RESTRICT a_row = a.Row(i);
    double* SNS_RESTRICT u_row = upper.Row(i);
    for (int64_t j = i; j < n; ++j) u_row[j] = a_row[j];
  }
  for (int64_t k = 0; k < n; ++k) {
    double* SNS_RESTRICT row_k = upper.Row(k);
    const double pivot = row_k[k];
    if (pivot <= 0.0 || !std::isfinite(pivot)) return false;
    const double diag = std::sqrt(pivot);
    row_k[k] = diag;
    const double inv = 1.0 / diag;
    for (int64_t j = k + 1; j < n; ++j) row_k[j] *= inv;
    // Trailing update: U(i, i..n) −= u_ki · U(k, i..n) — contiguous
    // independent-element suffix axpys (negated alpha flips the sign
    // exactly, so this matches the subtraction form bitwise per tier).
    for (int64_t i = k + 1; i < n; ++i) {
      const double u_ki = row_k[i];
      if (u_ki == 0.0) continue;
      kr.axpy(-u_ki, row_k + i, upper.Row(i) + i, n - i);
    }
  }
  return true;
}

void CholeskySolveUpperInPlace(const Matrix& upper, double* x) {
  CholeskySolveUpperInPlace(upper, x, GetRankKernelTable(0));
}

void CholeskySolveUpperInPlace(const Matrix& upper, double* x,
                               const RankKernelTable& kr) {
  SNS_DCHECK(kr.padded_rank == 0);
  const int64_t n = upper.rows();
  // Forward elimination U' y = b, walking rows of U: once y[k] is final,
  // subtract its contribution U(k, k+1..n)·y[k] from the pending suffix.
  for (int64_t k = 0; k < n; ++k) {
    const double* row = upper.Row(k);
    const double y_k = x[k] / row[k];
    x[k] = y_k;
    kr.axpy(-y_k, row + k + 1, x + k + 1, n - k - 1);
  }
  // Back substitution U x = y: contiguous row-suffix dots.
  for (int64_t i = n - 1; i >= 0; --i) {
    const double* row = upper.Row(i);
    x[i] = (x[i] - kr.dot(row + i + 1, x + i + 1, n - i - 1)) / row[i];
  }
}

void CholeskySolveUpperRows(const Matrix& upper, const Matrix& b, Matrix& x,
                            double* lanes, const RankKernelTable& kr) {
  SNS_CHECK(b.rows() == x.rows() && b.cols() == upper.rows() &&
            x.cols() == upper.rows());
  if (b.rows() == 0 || upper.rows() == 0) return;
  kr.solve_upper_rows(upper.Row(0), upper.stride(), upper.rows(), b.Row(0),
                      x.Row(0), b.stride(), b.rows(), lanes);
}

StatusOr<Cholesky> Cholesky::Factorize(const Matrix& a) {
  SNS_CHECK(a.rows() == a.cols());
  Matrix lower(a.rows(), a.rows());
  if (!CholeskyFactorizeInto(a, lower)) {
    return Status::FailedPrecondition("matrix is not positive definite");
  }
  return Cholesky(std::move(lower));
}

std::vector<double> Cholesky::Solve(const std::vector<double>& b) const {
  SNS_CHECK(static_cast<int64_t>(b.size()) == lower_.rows());
  std::vector<double> x(b);
  CholeskySolveInPlace(lower_, x.data());
  return x;
}

Matrix Cholesky::Solve(const Matrix& b) const {
  const int64_t n = lower_.rows();
  SNS_CHECK(b.rows() == n);
  Matrix x(n, b.cols());
  std::vector<double> col(n);
  for (int64_t j = 0; j < b.cols(); ++j) {
    for (int64_t i = 0; i < n; ++i) col[i] = b(i, j);
    std::vector<double> sol = Solve(col);
    for (int64_t i = 0; i < n; ++i) x(i, j) = sol[i];
  }
  return x;
}

}  // namespace sns
