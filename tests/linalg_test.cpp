// Unit and property tests for the dense linear algebra substrate.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "common/random.h"
#include "core/gram_solve.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "linalg/rank_dispatch.h"

namespace sns {
namespace {

Matrix RandomSpd(int64_t n, Rng& rng, double ridge = 0.5) {
  Matrix b = Matrix::RandomNormal(n, n, rng);
  Matrix spd = MultiplyTransposeA(b, b);
  for (int64_t i = 0; i < n; ++i) spd(i, i) += ridge;
  return spd;
}

TEST(MatrixTest, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 4; ++j) EXPECT_EQ(m(i, j), 0.0);
  }
}

TEST(MatrixTest, IdentityAndFrobenius) {
  Matrix id = Matrix::Identity(4);
  EXPECT_DOUBLE_EQ(id.FrobeniusNorm(), 2.0);
  EXPECT_DOUBLE_EQ(id(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(id(2, 1), 0.0);
}

TEST(MatrixTest, MultiplyMatchesHandComputation) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  Matrix b(3, 2);
  b(0, 0) = 7;  b(0, 1) = 8;
  b(1, 0) = 9;  b(1, 1) = 10;
  b(2, 0) = 11; b(2, 1) = 12;
  Matrix c = Multiply(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(MatrixTest, MultiplyTransposeAMatchesExplicitTranspose) {
  Rng rng(5);
  Matrix a = Matrix::RandomNormal(6, 3, rng);
  Matrix b = Matrix::RandomNormal(6, 4, rng);
  Matrix expected = Multiply(a.Transposed(), b);
  Matrix actual = MultiplyTransposeA(a, b);
  EXPECT_LT(MaxAbsDiff(expected, actual), 1e-12);
}

TEST(MatrixTest, TransposeInvolution) {
  Rng rng(6);
  Matrix a = Matrix::RandomNormal(5, 7, rng);
  EXPECT_LT(MaxAbsDiff(a, a.Transposed().Transposed()), 1e-15);
}

TEST(MatrixTest, HadamardElementwise) {
  Rng rng(8);
  Matrix a = Matrix::RandomNormal(4, 4, rng);
  Matrix b = Matrix::RandomNormal(4, 4, rng);
  Matrix h = Hadamard(a, b);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(h(i, j), a(i, j) * b(i, j));
    }
  }
}

// The Gram identity the SliceNStitch derivation leans on (Eq. 8):
// (A ⊙ B)'(A ⊙ B) = (A'A) ∗ (B'B).
TEST(MatrixTest, KhatriRaoGramIdentity) {
  Rng rng(9);
  Matrix a = Matrix::RandomNormal(5, 3, rng);
  Matrix b = Matrix::RandomNormal(4, 3, rng);
  Matrix kr = KhatriRao(a, b);
  ASSERT_EQ(kr.rows(), 20);
  Matrix lhs = MultiplyTransposeA(kr, kr);
  Matrix rhs = Hadamard(MultiplyTransposeA(a, a), MultiplyTransposeA(b, b));
  EXPECT_LT(MaxAbsDiff(lhs, rhs), 1e-10);
}

TEST(MatrixTest, KhatriRaoRowLayout) {
  // Row (i*K + k) of A ⊙ B must equal A(i,:) ∗ B(k,:).
  Rng rng(10);
  Matrix a = Matrix::RandomNormal(3, 2, rng);
  Matrix b = Matrix::RandomNormal(2, 2, rng);
  Matrix kr = KhatriRao(a, b);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t k = 0; k < 2; ++k) {
      for (int64_t r = 0; r < 2; ++r) {
        EXPECT_DOUBLE_EQ(kr(i * 2 + k, r), a(i, r) * b(k, r));
      }
    }
  }
}

TEST(MatrixTest, AddSubtractScale) {
  Rng rng(11);
  Matrix a = Matrix::RandomNormal(3, 3, rng);
  Matrix b = Matrix::RandomNormal(3, 3, rng);
  EXPECT_LT(MaxAbsDiff(Subtract(Add(a, b), b), a), 1e-12);
  EXPECT_LT(MaxAbsDiff(Scale(a, 2.0), Add(a, a)), 1e-12);
}

TEST(MatrixTest, RowTimesMatrix) {
  Rng rng(12);
  Matrix m = Matrix::RandomNormal(3, 4, rng);
  const double row[3] = {1.0, -2.0, 0.5};
  double out[4];
  RowTimesMatrix(row, m, out);
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(out[j], row[0] * m(0, j) + row[1] * m(1, j) + row[2] * m(2, j),
                1e-12);
  }
}

TEST(CholeskyTest, ReconstructsFactorization) {
  Rng rng(13);
  Matrix a = RandomSpd(6, rng);
  auto chol = Cholesky::Factorize(a);
  ASSERT_TRUE(chol.ok());
  const Matrix& lower = chol.value().lower();
  Matrix recon = Multiply(lower, lower.Transposed());
  EXPECT_LT(MaxAbsDiff(recon, a), 1e-9);
}

TEST(CholeskyTest, SolveRecoversSolution) {
  Rng rng(14);
  Matrix a = RandomSpd(5, rng);
  std::vector<double> x_true = {1, -2, 3, 0.5, -0.25};
  std::vector<double> b(5, 0.0);
  for (int64_t i = 0; i < 5; ++i) {
    for (int64_t j = 0; j < 5; ++j) b[i] += a(i, j) * x_true[j];
  }
  auto chol = Cholesky::Factorize(a);
  ASSERT_TRUE(chol.ok());
  std::vector<double> x = chol.value().Solve(b);
  for (int64_t i = 0; i < 5; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(CholeskyTest, MatrixSolve) {
  Rng rng(15);
  Matrix a = RandomSpd(4, rng);
  Matrix x_true = Matrix::RandomNormal(4, 3, rng);
  Matrix b = Multiply(a, x_true);
  auto chol = Cholesky::Factorize(a);
  ASSERT_TRUE(chol.ok());
  EXPECT_LT(MaxAbsDiff(chol.value().Solve(b), x_true), 1e-9);
}

TEST(CholeskyTest, RejectsIndefiniteMatrix) {
  Matrix a = Matrix::Identity(3);
  a(2, 2) = -1.0;
  EXPECT_FALSE(Cholesky::Factorize(a).ok());
}

// H† through GramSolver: the rows of I·H†, i.e. SolveRows of the identity.
Matrix PseudoInverse(const Matrix& h) {
  return SolveRowsAgainstGram(h, Matrix::Identity(h.rows()));
}

TEST(PseudoInverseTest, InvertsFullRankSpd) {
  Rng rng(18);
  Matrix a = RandomSpd(6, rng);
  Matrix pinv = PseudoInverse(a);
  EXPECT_LT(MaxAbsDiff(Multiply(a, pinv), Matrix::Identity(6)), 1e-8);
}

// All four Moore–Penrose conditions on a singular symmetric matrix.
TEST(PseudoInverseTest, MoorePenroseConditionsOnSingularMatrix) {
  Rng rng(19);
  Matrix b = Matrix::RandomNormal(3, 6, rng);  // rank <= 3
  Matrix a = MultiplyTransposeA(b, b);         // 6x6 singular PSD
  Matrix p = PseudoInverse(a);
  Matrix apa = Multiply(Multiply(a, p), a);
  Matrix pap = Multiply(Multiply(p, a), p);
  Matrix ap = Multiply(a, p);
  Matrix pa = Multiply(p, a);
  EXPECT_LT(MaxAbsDiff(apa, a), 1e-7);
  EXPECT_LT(MaxAbsDiff(pap, p), 1e-7);
  EXPECT_LT(MaxAbsDiff(ap, ap.Transposed()), 1e-8);
  EXPECT_LT(MaxAbsDiff(pa, pa.Transposed()), 1e-8);
}

TEST(PseudoInverseTest, ZeroMatrixHasZeroPinv) {
  Matrix zero(4, 4);
  Matrix p = PseudoInverse(zero);
  EXPECT_EQ(p.MaxAbs(), 0.0);
}

TEST(PseudoInverseTest, SolveRowSystemMatchesLeastSquares) {
  Rng rng(20);
  Matrix h = RandomSpd(5, rng);
  std::vector<double> b = {1, 2, 3, 4, 5};
  std::vector<double> x(5);
  SolveRowAgainstGram(h, b.data(), x.data());
  // x H should give back b for a full-rank H.
  std::vector<double> recon(5, 0.0);
  for (int64_t j = 0; j < 5; ++j) {
    for (int64_t i = 0; i < 5; ++i) recon[j] += x[i] * h(i, j);
  }
  for (int64_t j = 0; j < 5; ++j) EXPECT_NEAR(recon[j], b[j], 1e-8);
}

// The four Moore–Penrose conditions on random exactly rank-deficient Grams
// H = B'B (B is rank×n, rank < n), measured relative to ‖H‖ and ‖H†‖ (the
// products HH† and H†H are projections, of norm 1). A factorization that
// keeps a roundoff-level pivot fails them by many orders of magnitude.
TEST(PseudoInverseTest, MoorePenroseConditionsOnRandomRankDeficientGrams) {
  Rng rng(21);
  for (int trial = 0; trial < 240; ++trial) {
    const int64_t n = 2 + static_cast<int64_t>(rng.NextUint64(19));
    // Rank n−1 half the time (the hardest case: one roundoff pivot among
    // live ones), uniform in [0, n−1) otherwise.
    const int64_t rank =
        trial % 2 == 0 ? n - 1
                       : static_cast<int64_t>(rng.NextUint64(
                             static_cast<uint64_t>(n - 1)));
    SCOPED_TRACE("trial=" + std::to_string(trial) + " n=" +
                 std::to_string(n) + " rank=" + std::to_string(rank));
    const Matrix b = Matrix::RandomNormal(rank, n, rng);
    const Matrix h = MultiplyTransposeA(b, b);
    const Matrix p = PseudoInverse(h);
    const double h_norm = std::max(h.MaxAbs(), 1e-300);
    const double p_norm = std::max(p.MaxAbs(), 1e-300);
    const Matrix hp = Multiply(h, p);
    const Matrix ph = Multiply(p, h);
    EXPECT_LT(MaxAbsDiff(Multiply(hp, h), h) / h_norm, 1e-9);
    EXPECT_LT(MaxAbsDiff(Multiply(ph, p), p) / p_norm, 1e-9);
    EXPECT_LT(MaxAbsDiff(hp, hp.Transposed()), 1e-9);
    EXPECT_LT(MaxAbsDiff(ph, ph.Transposed()), 1e-9);
  }
}

// Parameterized sweep: H† agrees with Cholesky-based solve on random SPD
// systems across sizes.
class PinvVsCholeskyTest : public ::testing::TestWithParam<int> {};

TEST_P(PinvVsCholeskyTest, AgreesWithCholeskySolve) {
  const int n = GetParam();
  Rng rng(100 + n);
  Matrix h = RandomSpd(n, rng, 1.0);
  Matrix h_pinv = PseudoInverse(h);
  std::vector<double> b(n);
  for (int i = 0; i < n; ++i) b[i] = rng.Normal();
  auto chol = Cholesky::Factorize(h);
  ASSERT_TRUE(chol.ok());
  std::vector<double> x_chol = chol.value().Solve(b);
  std::vector<double> x_pinv(n);
  RowTimesMatrix(b.data(), h_pinv, x_pinv.data());  // H symmetric: same sol.
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x_pinv[i], x_chol[i], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PinvVsCholeskyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 20, 32));

// --- In-place hot-path kernels ---------------------------------------------

TEST(InPlaceKernelsTest, HadamardIntoMatchesHadamard) {
  Rng rng(41);
  Matrix a = Matrix::RandomNormal(4, 3, rng);
  Matrix b = Matrix::RandomNormal(4, 3, rng);
  Matrix expected = Hadamard(a, b);
  Matrix out(4, 3);
  HadamardInto(a, b, out);
  EXPECT_EQ(MaxAbsDiff(out, expected), 0.0);
  // Aliasing out with an input is allowed.
  HadamardInto(a, b, a);
  EXPECT_EQ(MaxAbsDiff(a, expected), 0.0);
}

TEST(InPlaceKernelsTest, HadamardAccumulateMatchesHadamard) {
  Rng rng(42);
  Matrix a = Matrix::RandomNormal(3, 3, rng);
  Matrix b = Matrix::RandomNormal(3, 3, rng);
  Matrix expected = Hadamard(a, b);
  HadamardAccumulate(a, b);
  EXPECT_EQ(MaxAbsDiff(a, expected), 0.0);
}

TEST(InPlaceKernelsTest, AddOuterProduct) {
  Matrix m(2, 2);
  m(0, 0) = 1.0;
  m(1, 1) = 2.0;
  // Padded contract: u and v span m.stride() doubles, padding at 0.0.
  const double u[4] = {2.0, -1.0, 0.0, 0.0};
  const double v[4] = {3.0, 4.0, 0.0, 0.0};
  AddOuterProduct(m, u, v);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0 + 6.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 8.0);
  EXPECT_DOUBLE_EQ(m(1, 0), -3.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 2.0 - 4.0);
}

TEST(InPlaceKernelsTest, MultiplyTransposeAIntoMatchesAllocatingForm) {
  Rng rng(43);
  Matrix a = Matrix::RandomNormal(6, 4, rng);
  Matrix b = Matrix::RandomNormal(6, 3, rng);
  Matrix expected = MultiplyTransposeA(a, b);
  Matrix out(4, 3);
  out.Fill(99.0);  // Must be fully overwritten.
  MultiplyTransposeAInto(a, b, out);
  EXPECT_EQ(MaxAbsDiff(out, expected), 0.0);
}

TEST(InPlaceKernelsTest, CholeskyFactorizeIntoAndSolveInPlace) {
  Rng rng(44);
  Matrix h = RandomSpd(5, rng, 1.0);
  auto chol = Cholesky::Factorize(h);
  ASSERT_TRUE(chol.ok());
  Matrix lower(5, 5);
  lower.Fill(7.0);  // Stale garbage that must not leak into the solve.
  ASSERT_TRUE(CholeskyFactorizeInto(h, lower));
  std::vector<double> b(5);
  for (int i = 0; i < 5; ++i) b[i] = rng.Normal();
  std::vector<double> expected = chol.value().Solve(b);
  std::vector<double> x(b);
  CholeskySolveInPlace(lower, x.data());
  for (int i = 0; i < 5; ++i) EXPECT_EQ(x[i], expected[i]);
}

TEST(InPlaceKernelsTest, CholeskyFactorizeIntoRejectsIndefinite) {
  Matrix a = Matrix::Identity(3);
  a(2, 2) = -1.0;
  Matrix lower(3, 3);
  EXPECT_FALSE(CholeskyFactorizeInto(a, lower));
}

TEST(InPlaceKernelsTest, GramSolverReuseMatchesOneShotSolve) {
  Rng rng(45);
  Matrix h = RandomSpd(4, rng, 1.0);
  GramSolver solver;
  solver.Factorize(h);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<double> b(4), expected(4), x(4);
    for (int i = 0; i < 4; ++i) b[i] = rng.Normal();
    SolveRowAgainstGram(h, b.data(), expected.data());
    solver.Solve(b.data(), x.data());
    for (int i = 0; i < 4; ++i) EXPECT_EQ(x[i], expected[i]);
  }
}

// Every kernel tier compiled in and supported by the host.
std::vector<KernelTier> RunnableTiers() {
  std::vector<KernelTier> tiers;
  for (const KernelTier t :
       {KernelTier::kGeneric, KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (KernelTierCompiledIn(t) && KernelTierSupported(t)) tiers.push_back(t);
  }
  return tiers;
}

// Entries of row i of SolveRows' output that differ bitwise from a per-row
// Solve of the same right-hand side.
int CountRowMismatches(const GramSolver& solver, const Matrix& b,
                       const Matrix& x, int64_t i) {
  std::vector<double> expected(static_cast<size_t>(b.cols()));
  solver.Solve(b.Row(i), expected.data());
  int mismatches = 0;
  for (int64_t r = 0; r < b.cols(); ++r) {
    if (std::memcmp(x.Row(i) + r, &expected[static_cast<size_t>(r)],
                    sizeof(double)) != 0) {
      ++mismatches;
    }
  }
  return mismatches;
}

TEST(GramSolverRowsTest, SolveRowsBitwiseEqualsPerRowSolve) {
  Rng rng(46);
  for (const KernelTier tier : RunnableTiers()) {
    for (int64_t n = 1; n <= 33; ++n) {
      GramSolver solver;
      solver.set_kernels(&GetRankKernelTable(0, tier));
      solver.Factorize(RandomSpd(n, rng, 1.0));
      // Row counts around the generic tier's interleaving block (4), the
      // SIMD lane groups (4, 8) and the lane blocks (8, 16).
      for (const int64_t rows : {0, 1, 3, 5, 7, 8, 9, 15, 16, 17, 265}) {
        SCOPED_TRACE("tier=" + std::string(KernelTierName(tier)) +
                     " n=" + std::to_string(n) +
                     " rows=" + std::to_string(rows));
        const Matrix b = Matrix::RandomNormal(rows, n, rng);
        Matrix x(rows, n);
        solver.SolveRows(b, x);
        int mismatches = 0;
        for (int64_t i = 0; i < rows; ++i) {
          mismatches += CountRowMismatches(solver, b, x, i);
        }
        EXPECT_EQ(mismatches, 0);
      }
    }
  }
}

TEST(GramSolverRowsTest, SolveRowsOnSingularGramTakesPinvPathBitwise) {
  Rng rng(48);
  for (const KernelTier tier : RunnableTiers()) {
    SCOPED_TRACE(KernelTierName(tier));
    const int64_t n = 7;
    // A zero last row/column: the Cholesky pivot drops, so the solver
    // takes the pivoted H† path, which maps every right-hand side to a
    // zero last component.
    Matrix h = RandomSpd(n, rng, 1.0);
    for (int64_t k = 0; k < n; ++k) h(n - 1, k) = h(k, n - 1) = 0.0;
    GramSolver solver;
    solver.set_kernels(&GetRankKernelTable(0, tier));
    solver.Factorize(h);
    const Matrix b = Matrix::RandomNormal(9, n, rng);
    Matrix x(9, n);
    solver.SolveRows(b, x);
    for (int64_t i = 0; i < b.rows(); ++i) {
      EXPECT_EQ(CountRowMismatches(solver, b, x, i), 0) << "row " << i;
      EXPECT_NEAR(x(i, n - 1), 0.0, 1e-12) << "row " << i;
    }
  }
}

}  // namespace
}  // namespace sns
