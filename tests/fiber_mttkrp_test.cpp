// The fiber-walking MTTKRP (tensor/mttkrp.h) against a local copy of the
// pool-order scatter it replaced: "for each non-zero in pool order,
// out[i] += v·(a ∗ b)" (3 modes) or "out[i] += v·had" (other orders).
// A FiberIndex row lists its non-zeros in ascending pool-id order, so each
// output row sees the same terms in the same order and must come out
// bitwise equal — at every tier the host runs, on 3- and 4-mode tensors,
// at ranks on both sides of the padded-rank specializations, after churn
// that makes bucket order differ from pool order, with empty rows, and on
// an all-zero tensor. AlsDecompose is pinned the same way against a local
// copy of its sweep loop driven by the scatter.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "common/random.h"
#include "core/als.h"
#include "core/cpd_state.h"
#include "linalg/matrix.h"
#include "linalg/rank_dispatch.h"
#include "linalg/simd.h"
#include "tensor/kruskal.h"
#include "tensor/mttkrp.h"
#include "tensor/sparse_tensor.h"

namespace sns {
namespace {

const int64_t kRanks[] = {1, 3, 8, 20, 33};

std::vector<KernelTier> AvailableTiers() {
  std::vector<KernelTier> tiers = {KernelTier::kGeneric};
  for (const KernelTier t : {KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (KernelTierCompiledIn(t) && KernelTierSupported(t)) tiers.push_back(t);
  }
  return tiers;
}

// The MTTKRP body before fibers, verbatim in its arithmetic: one kernel
// call per non-zero, in pool order.
void ScatterMttkrp(const SparseTensor& x, const std::vector<Matrix>& factors,
                   int mode, Matrix& out, double* had,
                   const RankKernelTable& kr) {
  const int64_t padded = factors[0].stride();
  out.SetZero();
  if (factors.size() == 3) {
    const int a = mode == 0 ? 1 : 0;
    const int b = mode == 2 ? 1 : 2;
    const Matrix& fa = factors[static_cast<size_t>(a)];
    const Matrix& fb = factors[static_cast<size_t>(b)];
    x.ForEachNonzero([&](const ModeIndex& index, double value) {
      kr.fma3(value, fa.Row(index[a]), fb.Row(index[b]), out.Row(index[mode]),
              padded);
    });
    return;
  }
  x.ForEachNonzero([&](const ModeIndex& index, double value) {
    HadamardRowProduct(factors, index, mode, had, kr);
    kr.axpy(value, had, out.Row(index[mode]), padded);
  });
}

// AlsSweep + AlsDecompose with ScatterMttkrp in place of the fiber walk;
// every other step is the library's own, in the library's order.
void ScatterSweep(const SparseTensor& x, CpdState& state, bool normalize,
                  AlsWorkspace& ws) {
  const int64_t rank = state.rank();
  ws.Prepare(state);
  ws.grams.BeginEvent(state.grams);
  const RankKernelTable& kr = GetRankKernelTable(PaddedRank(rank), ws.tier);
  for (int m = 0; m < state.num_modes(); ++m) {
    Matrix& mttkrp = ws.mttkrp[static_cast<size_t>(m)];
    ScatterMttkrp(x, state.model.factors(), m, mttkrp, ws.had.data(), kr);
    ws.grams.ProductExcept(m, ws.h);
    ws.solver.Factorize(ws.h);
    Matrix& factor = state.model.factor(m);
    ws.solver.SolveRows(mttkrp, factor);
    if (normalize) {
      const int64_t padded = factor.stride();
      double* norm_sq = ws.col_norm_sq.data();
      double* scale = ws.col_scale.data();
      kr.fill(norm_sq, 0.0, padded);
      for (int64_t i = 0; i < factor.rows(); ++i) {
        kr.fma3(1.0, factor.Row(i), factor.Row(i), norm_sq, padded);
      }
      for (int64_t r = 0; r < rank; ++r) {
        const double norm = std::sqrt(norm_sq[r]);
        state.model.lambda()[static_cast<size_t>(r)] = norm;
        scale[r] = norm > 0.0 ? 1.0 / norm : 0.0;
      }
      for (int64_t i = 0; i < factor.rows(); ++i) {
        kr.mul_accum(factor.Row(i), scale, padded);
      }
    }
    MultiplyTransposeAInto(factor, factor, state.grams[static_cast<size_t>(m)],
                           kr);
    ws.grams.NotifyModeChanged(m);
  }
}

KruskalModel ScatterAlsDecompose(const SparseTensor& x, int64_t rank,
                                 const AlsOptions& options, Rng& rng,
                                 KernelTier tier) {
  CpdState state(KruskalModel::Random(x.dims(), rank, rng), tier);
  AlsWorkspace ws;
  ws.tier = tier;
  ws.fibers.Build(x);  // Read only by AlsSweepFitness's checks: unused.
  const double x_norm_sq = x.FrobeniusNormSquared();
  double previous_fitness = 0.0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ScatterSweep(x, state, options.normalize_columns, ws);
    const double fitness = AlsSweepFitness(state, x_norm_sq, ws);
    if (iter > 0 && fitness - previous_fitness < options.fitness_tolerance) {
      break;
    }
    previous_fitness = fitness;
  }
  return state.model;
}

bool RowsBitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.stride() != b.stride()) return false;
  for (int64_t i = 0; i < a.rows(); ++i) {
    if (std::memcmp(a.Row(i), b.Row(i),
                    static_cast<size_t>(a.stride()) * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool ModelsBitwiseEqual(const KruskalModel& a, const KruskalModel& b) {
  if (a.num_modes() != b.num_modes() || a.lambda() != b.lambda()) return false;
  for (int m = 0; m < a.num_modes(); ++m) {
    if (!RowsBitwiseEqual(a.factor(m), b.factor(m))) return false;
  }
  return true;
}

// A tensor whose last two indices of every mode stay empty, filled and
// then churned: about a third of the cells are erased again (pool
// swap-with-last moves), so bucket order no longer follows pool order.
SparseTensor ChurnedTensor(const std::vector<int64_t>& dims, int draws,
                           Rng& rng) {
  SparseTensor x(dims);
  std::vector<ModeIndex> cells;
  for (int i = 0; i < draws; ++i) {
    ModeIndex cell;
    for (int64_t dim : dims) {
      cell.PushBack(static_cast<int32_t>(rng.UniformInt(0, dim - 3)));
    }
    x.Add(cell, rng.UniformDouble(-2.0, 2.0));
    cells.push_back(cell);
    if (i % 3 == 2) {
      const ModeIndex& victim = cells[rng.NextUint64(cells.size())];
      x.Add(victim, -x.Get(victim));
    }
  }
  return x;
}

// True when some slice lists its non-zeros in another order than the pool
// walk meets them — i.e. the churn actually scrambled the buckets.
bool SomeSliceOutOfPoolOrder(const SparseTensor& x) {
  for (int m = 0; m < x.num_modes(); ++m) {
    for (int64_t i = 0; i < x.dim(m); ++i) {
      std::vector<ModeIndex> pool_order;
      x.ForEachNonzero([&](const ModeIndex& index, double) {
        if (index[m] == i) pool_order.push_back(index);
      });
      size_t k = 0;
      for (const SparseTensor::SliceEntry entry : x.Slice(m, i)) {
        if (!(entry.coords == pool_order[k++])) return true;
      }
    }
  }
  return false;
}

struct Shape {
  const char* name;
  std::vector<int64_t> dims;
  int draws;
};

const Shape kShapes[] = {
    {"3-mode", {11, 9, 8}, 400},
    {"4-mode", {7, 6, 5, 5}, 300},
};

TEST(FiberMttkrpTest, FiberIndexListsEachRowInAscendingPoolOrder) {
  Rng rng(0xf1b0);
  const SparseTensor x = ChurnedTensor({11, 9, 8}, 400, rng);
  FiberIndex fibers;
  fibers.Build(x);
  ASSERT_EQ(fibers.nnz(), x.nnz());
  for (int m = 0; m < x.num_modes(); ++m) {
    int64_t listed = 0;
    for (int64_t i = 0; i < x.dim(m); ++i) {
      const std::span<const uint32_t> row = fibers.Row(m, i);
      ASSERT_EQ(static_cast<int64_t>(row.size()), x.Degree(m, i));
      for (size_t k = 1; k < row.size(); ++k) ASSERT_LT(row[k - 1], row[k]);
      for (const SparseTensor::SliceEntry entry : x.Entries(row)) {
        ASSERT_EQ(entry.coords[m], i);
      }
      listed += static_cast<int64_t>(row.size());
    }
    EXPECT_EQ(listed, x.nnz());
    EXPECT_TRUE(fibers.Row(m, x.dim(m) - 1).empty());  // Never filled.
  }
}

TEST(FiberMttkrpTest, MttkrpIntoBitwiseEqualsPoolOrderScatter) {
  for (const Shape& shape : kShapes) {
    Rng rng(0xf1b1);
    const SparseTensor x = ChurnedTensor(shape.dims, shape.draws, rng);
    ASSERT_TRUE(SomeSliceOutOfPoolOrder(x)) << shape.name;
    const SparseTensor zero(shape.dims);
    FiberIndex fibers;
    FiberIndex zero_fibers;
    fibers.Build(x);
    zero_fibers.Build(zero);
    for (const int64_t rank : kRanks) {
      std::vector<Matrix> factors;
      for (int64_t dim : shape.dims) {
        factors.push_back(Matrix::RandomNormal(dim, rank, rng));
      }
      AlignedVector had(rank);
      for (const KernelTier tier : AvailableTiers()) {
        SCOPED_TRACE(std::string(shape.name) + " rank " +
                     std::to_string(rank) + " " + KernelTierName(tier));
        const RankKernelTable& kr = GetRankKernelTable(PaddedRank(rank), tier);
        for (int mode = 0; mode < x.num_modes(); ++mode) {
          Matrix expected(x.dim(mode), rank);
          Matrix actual(x.dim(mode), rank);
          ScatterMttkrp(x, factors, mode, expected, had.data(), kr);
          actual.Fill(7.0);  // MttkrpInto must overwrite every row.
          MttkrpInto(x, fibers, factors, mode, actual, had.data(), kr);
          EXPECT_TRUE(RowsBitwiseEqual(actual, expected)) << "mode " << mode;
          EXPECT_TRUE(actual.PaddingIsZero());

          actual.Fill(7.0);
          MttkrpInto(zero, zero_fibers, factors, mode, actual, had.data(), kr);
          ScatterMttkrp(zero, factors, mode, expected, had.data(), kr);
          EXPECT_TRUE(RowsBitwiseEqual(actual, expected)) << "all-zero";
        }
      }
    }
  }
}

TEST(FiberMttkrpTest, AlsDecomposeBitwiseEqualsScatterSweeps) {
  for (const Shape& shape : kShapes) {
    Rng data_rng(0xf1b2);
    const SparseTensor x = ChurnedTensor(shape.dims, shape.draws, data_rng);
    const SparseTensor zero(shape.dims);
    for (const int64_t rank : kRanks) {
      for (const KernelTier tier : AvailableTiers()) {
        for (const bool normalize : {true, false}) {
          SCOPED_TRACE(std::string(shape.name) + " rank " +
                       std::to_string(rank) + " " + KernelTierName(tier) +
                       (normalize ? " normalized" : " raw"));
          AlsOptions options;
          options.max_iterations = 12;
          options.normalize_columns = normalize;
          for (const SparseTensor* tensor : {&x, &zero}) {
            Rng reference_rng(rank);
            Rng rng(rank);
            const KruskalModel expected = ScatterAlsDecompose(
                *tensor, rank, options, reference_rng, tier);
            const KruskalModel actual =
                AlsDecompose(*tensor, rank, options, rng, tier);
            EXPECT_TRUE(ModelsBitwiseEqual(actual, expected))
                << (tensor == &x ? "churned" : "all-zero");
          }
        }
      }
    }
  }
}

// fiber_fma3 is `count` fma3 calls in order, bitwise, at every tier and
// padded rank (and the runtime-length table past 32), for fibers shorter
// and longer than one register block.
TEST(FiberMttkrpTest, FiberFma3EqualsFma3SequencePerTier) {
  Rng rng(0xf1b3);
  for (const int64_t rank : {1, 4, 7, 12, 20, 24, 29, 32, 33, 40}) {
    const int64_t padded = PaddedRank(rank);
    const Matrix rows = Matrix::RandomNormal(16, rank, rng);
    for (const int64_t count : {0, 1, 5, 64, 131}) {
      std::vector<double> values;
      std::vector<const double*> a;
      std::vector<const double*> b;
      for (int64_t k = 0; k < count; ++k) {
        values.push_back(rng.Normal());
        a.push_back(rows.Row(static_cast<int64_t>(rng.NextUint64(16))));
        b.push_back(rows.Row(static_cast<int64_t>(rng.NextUint64(16))));
      }
      for (const KernelTier tier : AvailableTiers()) {
        SCOPED_TRACE("rank " + std::to_string(rank) + " count " +
                     std::to_string(count) + " " + KernelTierName(tier));
        const RankKernelTable& kr = GetRankKernelTable(padded, tier);
        AlignedVector expected(rank);
        AlignedVector actual(rank);
        for (int64_t r = 0; r < rank; ++r) {
          expected[r] = actual[r] = rng.Normal();
        }
        for (int64_t k = 0; k < count; ++k) {
          kr.fma3(values[static_cast<size_t>(k)], a[static_cast<size_t>(k)],
                  b[static_cast<size_t>(k)], expected.data(), padded);
        }
        kr.fiber_fma3(values.data(), a.data(), b.data(), count, actual.data(),
                      padded);
        EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                              static_cast<size_t>(padded) * sizeof(double)),
                  0);
      }
    }
  }
}

}  // namespace
}  // namespace sns
