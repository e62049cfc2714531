// Differential tests for the SIMD kernel layer (linalg/simd.h,
// linalg/rank_dispatch.h): every rank-dispatched kernel is pinned to a
// naive scalar reference computed with bounds-checked (i, j) indexing, at
// awkward ranks covering each dispatch specialization (padded ranks
// 4, 8, 12, 16, 20, 24, 32), the generic fallback (padded rank > 32), and
// padded tails of every phase (rank ≡ 0..3 mod 4). Also regression-guards
// the layout invariants: 64-byte-aligned storage, padded leading stride,
// and padding lanes that stay exactly 0.0 through real updater runs.

#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "common/random.h"
#include "core/cpd_state.h"
#include "core/sns_rnd.h"
#include "core/sns_vec.h"
#include "core/sns_vec_plus.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "linalg/rank_dispatch.h"
#include "linalg/simd.h"
#include "tensor/mttkrp.h"

namespace sns {
namespace {

// Ranks exercising every specialization (padded 4, 8, 12, 16, 20, 24, 32),
// the generic fallback (40), and every padded-tail residue.
const int64_t kRanks[] = {1, 3, 5, 7, 12, 16, 20, 24, 29, 32, 40};

// Every tier the host can actually run: the generic fallback always, plus
// each compiled-in intrinsic tier the CPU supports. Kernels pinned to these
// tables exercise the real codelets, not the fallback.
std::vector<KernelTier> AvailableTiers() {
  std::vector<KernelTier> tiers = {KernelTier::kGeneric};
  for (const KernelTier t : {KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (KernelTierCompiledIn(t) && KernelTierSupported(t)) tiers.push_back(t);
  }
  return tiers;
}

// FMA-bearing codelets drop one rounding per multiply-add: intrinsic tiers
// agree with the scalar reference to ulps, not bitwise.
void ExpectTierValue(KernelTier tier, double actual, double expected) {
  if (tier == KernelTier::kGeneric) {
    ASSERT_EQ(actual, expected);
  } else {
    ASSERT_NEAR(actual, expected, 1e-13 * (1.0 + std::fabs(expected)));
  }
}

class KernelDispatchTest : public ::testing::TestWithParam<int64_t> {};

INSTANTIATE_TEST_SUITE_P(Ranks, KernelDispatchTest,
                         ::testing::ValuesIn(kRanks));

// ---------------------------------------------------------------------------
// Layout invariants.

TEST(SimdLayoutTest, PaddedRankRoundsUpToMultipleOfFour) {
  EXPECT_EQ(PaddedRank(0), 0);
  EXPECT_EQ(PaddedRank(1), 4);
  EXPECT_EQ(PaddedRank(4), 4);
  EXPECT_EQ(PaddedRank(5), 8);
  EXPECT_EQ(PaddedRank(20), 20);
  EXPECT_EQ(PaddedRank(33), 36);
}

TEST_P(KernelDispatchTest, MatrixLayoutAlignedAndPadded) {
  const int64_t rank = GetParam();
  Rng rng(1);
  Matrix m = Matrix::RandomUniform(7, rank, rng);
  EXPECT_EQ(m.stride(), PaddedRank(rank));
  EXPECT_GE(m.stride(), m.cols());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(m.Row(0)) % kSimdByteAlignment, 0u);
  // Every row is at least one vector lane (32 bytes) aligned.
  for (int64_t i = 0; i < m.rows(); ++i) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.Row(i)) %
                  (kRankPadDoubles * sizeof(double)),
              0u);
  }
  EXPECT_TRUE(m.PaddingIsZero());
}

TEST(SimdLayoutTest, AlignedVectorZeroPadsAndAligns) {
  AlignedVector v(5, 3.0);
  EXPECT_EQ(v.size(), 5);
  EXPECT_EQ(v.padded_size(), 8);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % kSimdByteAlignment, 0u);
  for (int64_t i = 0; i < 5; ++i) EXPECT_EQ(v[i], 3.0);
  EXPECT_TRUE(v.PaddingIsZero());
  // Resize within capacity is value-preserving; across capacity reallocates
  // zero-initialized.
  v.Resize(6);
  EXPECT_EQ(v.padded_size(), 8);
  EXPECT_EQ(v[0], 3.0);
  // A shrink within the same padded bucket must re-zero the lanes leaving
  // the logical range — they become padding.
  v[5] = 7.0;
  v.Resize(5);
  EXPECT_EQ(v.padded_size(), 8);
  EXPECT_TRUE(v.PaddingIsZero());
  v.Resize(9);
  EXPECT_EQ(v.padded_size(), 12);
  EXPECT_TRUE(v.PaddingIsZero());
}

TEST(SimdLayoutTest, MatrixFillLeavesPaddingZero) {
  Matrix m(3, 5);
  m.Fill(7.5);
  EXPECT_TRUE(m.PaddingIsZero());
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 5; ++j) EXPECT_EQ(m(i, j), 7.5);
  }
}

TEST(SimdLayoutTest, ForEachEntryNeverExposesPadding) {
  Rng rng(2);
  Matrix m = Matrix::RandomNormal(4, 5, rng);
  int64_t visits = 0;
  m.ForEachEntry([&](int64_t i, int64_t j, double value) {
    EXPECT_EQ(value, m(i, j));
    ++visits;
  });
  EXPECT_EQ(visits, 4 * 5);
}

// ---------------------------------------------------------------------------
// Elementwise matrix kernels vs (i, j)-indexed references. Bitwise: the
// kernels perform the same per-entry arithmetic.

TEST_P(KernelDispatchTest, HadamardKernelsMatchNaive) {
  const int64_t rank = GetParam();
  Rng rng(10 + rank);
  Matrix a = Matrix::RandomNormal(rank, rank, rng);
  Matrix b = Matrix::RandomNormal(rank, rank, rng);

  Matrix out(rank, rank);
  HadamardInto(a, b, out);
  Matrix acc = a;
  HadamardAccumulate(acc, b);
  for (int64_t i = 0; i < rank; ++i) {
    for (int64_t j = 0; j < rank; ++j) {
      ASSERT_EQ(out(i, j), a(i, j) * b(i, j));
      ASSERT_EQ(acc(i, j), a(i, j) * b(i, j));
    }
  }
  EXPECT_TRUE(out.PaddingIsZero());
  EXPECT_TRUE(acc.PaddingIsZero());
}

TEST_P(KernelDispatchTest, AddOuterProductMatchesNaive) {
  const int64_t rank = GetParam();
  Rng rng(20 + rank);
  const Matrix base = Matrix::RandomNormal(rank, rank, rng);
  AlignedVector u(rank), v(rank);
  for (int64_t r = 0; r < rank; ++r) {
    u[r] = rng.Normal();
    v[r] = rng.Normal();
  }
  for (const KernelTier tier : AvailableTiers()) {
    SCOPED_TRACE(KernelTierName(tier));
    Matrix dst = base;
    AddOuterProduct(dst, u.data(), v.data(),
                    GetRankKernelTable(dst.stride(), tier));
    for (int64_t i = 0; i < rank; ++i) {
      for (int64_t j = 0; j < rank; ++j) {
        ExpectTierValue(tier, dst(i, j), base(i, j) + u[i] * v[j]);
      }
    }
    EXPECT_TRUE(dst.PaddingIsZero());
  }
}

TEST_P(KernelDispatchTest, MultiplyTransposeAIntoMatchesNaive) {
  const int64_t rank = GetParam();
  Rng rng(30 + rank);
  Matrix a = Matrix::RandomNormal(9, rank, rng);
  Matrix b = Matrix::RandomNormal(9, rank, rng);
  Matrix out(rank, rank);
  out.Fill(99.0);  // Must be fully overwritten.
  MultiplyTransposeAInto(a, b, out);
  for (int64_t i = 0; i < rank; ++i) {
    for (int64_t j = 0; j < rank; ++j) {
      double sum = 0.0;
      for (int64_t k = 0; k < 9; ++k) sum += a(k, i) * b(k, j);
      ASSERT_NEAR(out(i, j), sum, 1e-12 * (1.0 + std::fabs(sum)));
    }
  }
  EXPECT_TRUE(out.PaddingIsZero());
}

// ---------------------------------------------------------------------------
// Gram rank-1 updates.

TEST_P(KernelDispatchTest, GramRowUpdatesMatchNaive) {
  const int64_t rank = GetParam();
  Rng rng(40 + rank);
  const Matrix base = Matrix::RandomNormal(rank, rank, rng);
  AlignedVector old_row(rank), new_row(rank);
  for (int64_t r = 0; r < rank; ++r) {
    old_row[r] = rng.Normal();
    new_row[r] = rng.Normal();
  }

  for (const KernelTier tier : AvailableTiers()) {
    SCOPED_TRACE(KernelTierName(tier));
    Matrix gram = base;
    Matrix prev_gram = base;
    const RankKernelTable& kr = GetRankKernelTable(gram.stride(), tier);
    ApplyGramRowUpdate(gram, old_row.data(), new_row.data(), kr);
    ApplyPrevGramRowUpdate(prev_gram, old_row.data(), new_row.data(), kr);
    for (int64_t i = 0; i < rank; ++i) {
      for (int64_t j = 0; j < rank; ++j) {
        // Group like the kernel: g += (a·b − p·p), not (g + a·b) − p·p.
        const double gram_delta =
            new_row[i] * new_row[j] - old_row[i] * old_row[j];
        ExpectTierValue(tier, gram(i, j), base(i, j) + gram_delta);
        const double prev_delta = old_row[i] * (new_row[j] - old_row[j]);
        ExpectTierValue(tier, prev_gram(i, j), base(i, j) + prev_delta);
      }
    }
    EXPECT_TRUE(gram.PaddingIsZero());
    EXPECT_TRUE(prev_gram.PaddingIsZero());
  }
}

// ---------------------------------------------------------------------------
// Every RankKernelTable entry point, per available tier, against a scalar
// reference. Elementwise kernels (fill/copy/mul/mul_accum) are bitwise on
// every tier — same per-entry arithmetic; FMA-bearing kernels
// (axpy/fma3/dot/gram deltas) are bitwise on the generic tier and
// ulp-tight on the intrinsic ones.

TEST_P(KernelDispatchTest, TableKernelsMatchNaivePerTier) {
  const int64_t rank = GetParam();
  const int64_t padded = PaddedRank(rank);
  Rng rng(110 + rank);
  AlignedVector a(rank), b(rank);
  for (int64_t r = 0; r < rank; ++r) {
    a[r] = rng.Normal();
    b[r] = rng.Normal();
  }
  AlignedVector out(rank), scratch(rank);
  for (const KernelTier tier : AvailableTiers()) {
    SCOPED_TRACE(KernelTierName(tier));
    const RankKernelTable& kr = GetRankKernelTable(padded, tier);
    // Specialized table for padded ranks <= 32, runtime-bound (sentinel 0)
    // beyond.
    ASSERT_EQ(kr.padded_rank, padded <= 32 ? padded : 0);

    kr.fill(out.data(), 1.75, padded);
    for (int64_t r = 0; r < padded; ++r) ASSERT_EQ(out.data()[r], 1.75);

    kr.copy(a.data(), out.data(), padded);
    for (int64_t r = 0; r < rank; ++r) ASSERT_EQ(out[r], a[r]);

    kr.copy(b.data(), out.data(), padded);
    kr.axpy(1.3, a.data(), out.data(), padded);
    for (int64_t r = 0; r < rank; ++r) {
      ExpectTierValue(tier, out[r], b[r] + 1.3 * a[r]);
    }

    kr.mul(a.data(), b.data(), out.data(), padded);
    for (int64_t r = 0; r < rank; ++r) ASSERT_EQ(out[r], a[r] * b[r]);

    kr.copy(a.data(), out.data(), padded);
    kr.mul_accum(out.data(), b.data(), padded);
    for (int64_t r = 0; r < rank; ++r) ASSERT_EQ(out[r], a[r] * b[r]);

    kr.copy(b.data(), out.data(), padded);
    kr.fma3(0.77, a.data(), a.data(), out.data(), padded);
    for (int64_t r = 0; r < rank; ++r) {
      ExpectTierValue(tier, out[r], b[r] + 0.77 * (a[r] * a[r]));
    }

    // Dot reference replicating the fixed four-lane reduction grouping
    // every tier's contract is based on.
    {
      const int64_t m4 = padded - padded % 4;
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (int64_t r = 0; r < m4; r += 4) {
        s0 += a.data()[r] * b.data()[r];
        s1 += a.data()[r + 1] * b.data()[r + 1];
        s2 += a.data()[r + 2] * b.data()[r + 2];
        s3 += a.data()[r + 3] * b.data()[r + 3];
      }
      const double expected = (s0 + s2) + (s1 + s3);
      ExpectTierValue(tier, kr.dot(a.data(), b.data(), padded), expected);
    }

    kr.copy(b.data(), out.data(), padded);
    kr.gram_row_delta(a[0], a.data(), b[0], b.data(), out.data(), padded);
    for (int64_t r = 0; r < rank; ++r) {
      ExpectTierValue(tier, out[r], b[r] + (a[0] * a[r] - b[0] * b[r]));
    }

    kr.copy(b.data(), out.data(), padded);
    kr.scaled_diff_accum(1.1, a.data(), b.data(), out.data(), padded);
    for (int64_t r = 0; r < rank; ++r) {
      ExpectTierValue(tier, out[r], b[r] + 1.1 * (a[r] - b[r]));
    }
  }
}

// ---------------------------------------------------------------------------
// Hadamard row product + MTTKRP rows vs a std::map tensor reference.

TEST_P(KernelDispatchTest, HadamardRowProductMatchesNaive) {
  const int64_t rank = GetParam();
  Rng rng(50 + rank);
  std::vector<Matrix> factors;
  const std::vector<int64_t> dims = {4, 5, 3};
  for (int64_t d : dims) {
    factors.push_back(Matrix::RandomNormal(d, rank, rng));
  }
  AlignedVector out(rank);
  const ModeIndex index{2, 4, 1};
  for (int skip = -1; skip < 3; ++skip) {
    HadamardRowProduct(factors, index, skip, out.data());
    for (int64_t r = 0; r < rank; ++r) {
      double expected = 1.0;
      for (int m = 0; m < 3; ++m) {
        if (m == skip) continue;
        expected *= factors[static_cast<size_t>(m)](index[m], r);
      }
      ASSERT_EQ(out[r], expected) << "skip " << skip << " r " << r;
    }
    EXPECT_TRUE(out.PaddingIsZero()) << "skip " << skip;
  }
}

// Builds a small random sparse tensor plus a std::map mirror.
SparseTensor RandomTensor(const std::vector<int64_t>& dims, int64_t nnz,
                          Rng& rng,
                          std::map<std::vector<int32_t>, double>* mirror) {
  SparseTensor x(dims);
  for (int64_t k = 0; k < nnz; ++k) {
    ModeIndex index;
    std::vector<int32_t> key;
    for (int64_t d : dims) {
      const auto i = static_cast<int32_t>(rng.UniformInt(0, d - 1));
      index.PushBack(i);
      key.push_back(i);
    }
    const double v = rng.Normal();
    x.Add(index, v);
    (*mirror)[key] += v;
  }
  return x;
}

TEST_P(KernelDispatchTest, MttkrpRow3ModeFusedMatchesNaive) {
  const int64_t rank = GetParam();
  Rng rng(60 + rank);
  const std::vector<int64_t> dims = {6, 5, 4};
  std::map<std::vector<int32_t>, double> mirror;
  SparseTensor x = RandomTensor(dims, 40, rng, &mirror);
  std::vector<Matrix> factors;
  for (int64_t d : dims) {
    factors.push_back(Matrix::RandomNormal(d, rank, rng));
  }

  AlignedVector out(rank);
  for (int mode = 0; mode < 3; ++mode) {
    for (int64_t row = 0; row < dims[static_cast<size_t>(mode)]; ++row) {
      MttkrpRow(x, factors, mode, row, out.data());
      for (int64_t r = 0; r < rank; ++r) {
        double expected = 0.0;
        for (const auto& [key, value] : mirror) {
          if (value == 0.0 || key[static_cast<size_t>(mode)] != row) continue;
          double prod = value;
          for (int m = 0; m < 3; ++m) {
            if (m == mode) continue;
            prod *= factors[static_cast<size_t>(m)](key[static_cast<size_t>(m)],
                                                    r);
          }
          expected += prod;
        }
        ASSERT_NEAR(out[r], expected, 1e-10 * (1.0 + std::fabs(expected)))
            << "mode " << mode << " row " << row << " r " << r;
      }
      EXPECT_TRUE(out.PaddingIsZero());
    }
  }
}

TEST_P(KernelDispatchTest, MttkrpRow4ModeGenericMatchesNaive) {
  const int64_t rank = GetParam();
  Rng rng(70 + rank);
  const std::vector<int64_t> dims = {4, 3, 3, 4};
  std::map<std::vector<int32_t>, double> mirror;
  SparseTensor x = RandomTensor(dims, 50, rng, &mirror);
  std::vector<Matrix> factors;
  for (int64_t d : dims) {
    factors.push_back(Matrix::RandomNormal(d, rank, rng));
  }

  AlignedVector out(rank), had(rank);
  for (int mode = 0; mode < 4; ++mode) {
    for (int64_t row = 0; row < dims[static_cast<size_t>(mode)]; ++row) {
      MttkrpRow(x, factors, mode, row, out.data(), had.data());
      for (int64_t r = 0; r < rank; ++r) {
        double expected = 0.0;
        for (const auto& [key, value] : mirror) {
          if (value == 0.0 || key[static_cast<size_t>(mode)] != row) continue;
          double prod = value;
          for (int m = 0; m < 4; ++m) {
            if (m == mode) continue;
            prod *= factors[static_cast<size_t>(m)](key[static_cast<size_t>(m)],
                                                    r);
          }
          expected += prod;
        }
        ASSERT_NEAR(out[r], expected, 1e-10 * (1.0 + std::fabs(expected)));
      }
      EXPECT_TRUE(out.PaddingIsZero());
      EXPECT_TRUE(had.PaddingIsZero());
    }
  }
}

TEST_P(KernelDispatchTest, MttkrpIntoMatchesRowKernel) {
  const int64_t rank = GetParam();
  Rng rng(80 + rank);
  const std::vector<int64_t> dims = {6, 5, 4};
  std::map<std::vector<int32_t>, double> mirror;
  SparseTensor x = RandomTensor(dims, 40, rng, &mirror);
  std::vector<Matrix> factors;
  for (int64_t d : dims) {
    factors.push_back(Matrix::RandomNormal(d, rank, rng));
  }
  for (int mode = 0; mode < 3; ++mode) {
    const Matrix full = Mttkrp(x, factors, mode);
    EXPECT_TRUE(full.PaddingIsZero());
    AlignedVector row_out(rank);
    for (int64_t row = 0; row < dims[static_cast<size_t>(mode)]; ++row) {
      MttkrpRow(x, factors, mode, row, row_out.data());
      for (int64_t r = 0; r < rank; ++r) {
        // Same kernels, different entry order (pool vs slice order):
        // tolerance, not bitwise.
        ASSERT_NEAR(full(row, r), row_out[r],
                    1e-10 * (1.0 + std::fabs(row_out[r])));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cholesky solve vs a naive textbook substitution on (i, j) indexing.

TEST_P(KernelDispatchTest, CholeskySolveMatchesNaiveSubstitution) {
  const int64_t n = GetParam();
  Rng rng(90 + n);
  Matrix b = Matrix::RandomNormal(2 * n, n, rng);
  Matrix spd = MultiplyTransposeA(b, b);
  for (int64_t i = 0; i < n; ++i) spd(i, i) += 1.0;

  Matrix lower(n, n);
  ASSERT_TRUE(CholeskyFactorizeInto(spd, lower));
  EXPECT_TRUE(lower.PaddingIsZero());

  AlignedVector rhs(n), x(n);
  for (int64_t i = 0; i < n; ++i) rhs[i] = rng.Normal();

  // Kernel path.
  for (int64_t i = 0; i < n; ++i) x[i] = rhs[i];
  CholeskySolveInPlace(lower, x.data());

  // Naive textbook forward/back substitution.
  std::vector<double> y(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    double sum = rhs[i];
    for (int64_t k = 0; k < i; ++k) sum -= lower(i, k) * y[static_cast<size_t>(k)];
    y[static_cast<size_t>(i)] = sum / lower(i, i);
  }
  std::vector<double> z(y);
  for (int64_t i = n - 1; i >= 0; --i) {
    double sum = z[static_cast<size_t>(i)];
    for (int64_t k = i + 1; k < n; ++k) {
      sum -= lower(k, i) * z[static_cast<size_t>(k)];
    }
    z[static_cast<size_t>(i)] = sum / lower(i, i);
  }
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_NEAR(x[i], z[static_cast<size_t>(i)],
                1e-9 * (1.0 + std::fabs(z[static_cast<size_t>(i)])));
  }
  EXPECT_TRUE(x.PaddingIsZero());
}

// The hot-path U'U (row-suffix) factorization agrees with the textbook
// lower factorization: U = L' up to rounding, and both solves recover the
// same solution.
TEST_P(KernelDispatchTest, UpperCholeskyMatchesLowerFactorization) {
  const int64_t n = GetParam();
  Rng rng(95 + n);
  Matrix b = Matrix::RandomNormal(2 * n, n, rng);
  Matrix spd = MultiplyTransposeA(b, b);
  for (int64_t i = 0; i < n; ++i) spd(i, i) += 1.0;

  Matrix lower(n, n), upper(n, n);
  ASSERT_TRUE(CholeskyFactorizeInto(spd, lower));
  ASSERT_TRUE(CholeskyFactorizeUpperInto(spd, upper));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i; j < n; ++j) {
      ASSERT_NEAR(upper(i, j), lower(j, i),
                  1e-9 * (1.0 + std::fabs(lower(j, i))))
          << i << "," << j;
    }
  }

  AlignedVector rhs(n), x_lower(n), x_upper(n);
  for (int64_t i = 0; i < n; ++i) {
    rhs[i] = rng.Normal();
    x_lower[i] = rhs[i];
    x_upper[i] = rhs[i];
  }
  CholeskySolveInPlace(lower, x_lower.data());
  CholeskySolveUpperInPlace(upper, x_upper.data());
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_NEAR(x_upper[i], x_lower[i], 1e-8 * (1.0 + std::fabs(x_lower[i])));
  }
  EXPECT_TRUE(upper.PaddingIsZero());
}

// ---------------------------------------------------------------------------
// Coordinate descent vs a naive reimplementation (same update order; tight
// tolerance rather than bitwise — with -march enabling FMA the compiler may
// contract the kernel's dot and this reference loop differently).

TEST_P(KernelDispatchTest, CoordinateDescentRowMatchesNaive) {
  const int64_t rank = GetParam();
  Rng rng(100 + rank);
  Matrix k = Matrix::RandomNormal(2 * rank + 1, rank, rng);
  Matrix hq = MultiplyTransposeA(k, k);
  AlignedVector row(rank), numerator(rank);
  for (int64_t r = 0; r < rank; ++r) {
    row[r] = rng.Normal();
    numerator[r] = rng.Normal();
  }
  std::vector<double> naive_row(row.data(), row.data() + rank);

  CoordinateDescentRow(row.data(), rank, hq, numerator.data(), -2.0, 2.0);

  for (int64_t kk = 0; kk < rank; ++kk) {
    const double c_k = hq(kk, kk);
    if (!(c_k > 1e-300)) continue;
    double d_k = 0.0;
    for (int64_t r = 0; r < rank; ++r) {
      d_k += naive_row[static_cast<size_t>(r)] * hq(kk, r);
    }
    d_k -= naive_row[static_cast<size_t>(kk)] * c_k;
    double value = (numerator[kk] - d_k) / c_k;
    value = std::min(2.0, std::max(-2.0, value));
    naive_row[static_cast<size_t>(kk)] = value;
  }
  for (int64_t r = 0; r < rank; ++r) {
    const double expected = naive_row[static_cast<size_t>(r)];
    ASSERT_NEAR(row[r], expected, 1e-12 * (1.0 + std::fabs(expected)))
        << "r " << r;
  }
  EXPECT_TRUE(row.PaddingIsZero());
}

// ---------------------------------------------------------------------------
// The padding invariant survives real updater runs: after hundreds of
// events through SNS-VEC / SNS+VEC / SNS-RND, every factor and Gram matrix
// still has exactly-zero padding lanes.

SparseTensor DenseWindowFromModel(const KruskalModel& model) {
  std::vector<int64_t> dims;
  for (int m = 0; m < model.num_modes(); ++m) {
    dims.push_back(model.factor(m).rows());
  }
  SparseTensor x(dims);
  ModeIndex index;
  for (size_t m = 0; m < dims.size(); ++m) index.PushBack(0);
  while (true) {
    x.Set(index, model.Evaluate(index));
    int m = static_cast<int>(dims.size()) - 1;
    while (m >= 0) {
      if (++index[m] < dims[static_cast<size_t>(m)]) break;
      index[m] = 0;
      --m;
    }
    if (m < 0) break;
  }
  return x;
}

template <typename UpdaterT>
void RunPaddingInvariantCheck(UpdaterT& updater, int64_t rank,
                              uint64_t seed) {
  Rng rng(seed);
  const int w_size = 4;
  const std::vector<int64_t> dims = {5, 6, w_size};
  KruskalModel model = KruskalModel::Random(dims, rank, rng);
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);

  for (int step = 0; step < 120; ++step) {
    WindowDelta delta;
    delta.kind = EventKind::kArrival;
    delta.w = 0;
    const auto i0 = static_cast<int32_t>(rng.UniformInt(0, dims[0] - 1));
    const auto i1 = static_cast<int32_t>(rng.UniformInt(0, dims[1] - 1));
    const double v = rng.UniformDouble(0.5, 1.5);
    delta.tuple = Tuple{{i0, i1}, v, 0};
    const ModeIndex cell = ModeIndex{i0, i1}.WithAppended(w_size - 1);
    window.Add(cell, v);
    delta.cells.push_back({cell, v});
    updater.OnEvent(window, delta, state);
  }
  for (int m = 0; m < state.num_modes(); ++m) {
    EXPECT_TRUE(state.model.factor(m).PaddingIsZero()) << "factor " << m;
    EXPECT_TRUE(state.grams[static_cast<size_t>(m)].PaddingIsZero())
        << "gram " << m;
  }
}

TEST_P(KernelDispatchTest, PaddingStaysZeroThroughSnsVecEvents) {
  // Cap the rank: the dense differential window is O(Π dims) work per event.
  const int64_t rank = std::min<int64_t>(GetParam(), 20);
  SnsVecUpdater updater;
  RunPaddingInvariantCheck(updater, rank, 0x9add1);
}

TEST_P(KernelDispatchTest, PaddingStaysZeroThroughSnsVecPlusEvents) {
  const int64_t rank = std::min<int64_t>(GetParam(), 20);
  SnsVecPlusUpdater updater(/*clip_bound=*/50.0);
  RunPaddingInvariantCheck(updater, rank, 0x9add2);
}

TEST_P(KernelDispatchTest, PaddingStaysZeroThroughSnsRndEvents) {
  const int64_t rank = std::min<int64_t>(GetParam(), 20);
  SnsRndUpdater updater(/*sample_threshold=*/2, /*seed=*/5);
  RunPaddingInvariantCheck(updater, rank, 0x9add3);
}

}  // namespace
}  // namespace sns
