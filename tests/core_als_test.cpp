// Tests for batch ALS (Eq. 4) and the CpdState bookkeeping helpers.

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/als.h"
#include "core/cpd_state.h"
#include "core/gram_solve.h"
#include "tensor/mttkrp.h"

namespace sns {
namespace {

// Sparse tensor holding the dense values of a random rank-r model.
SparseTensor DenseFromModel(const KruskalModel& model) {
  SparseTensor x(model.factor(0).rows() == 0 ? std::vector<int64_t>{}
                                             : [&] {
                                                 std::vector<int64_t> dims;
                                                 for (int m = 0;
                                                      m < model.num_modes();
                                                      ++m) {
                                                   dims.push_back(
                                                       model.factor(m).rows());
                                                 }
                                                 return dims;
                                               }());
  std::vector<int64_t> dims = x.dims();
  ModeIndex index;
  for (size_t m = 0; m < dims.size(); ++m) index.PushBack(0);
  // Odometer over all cells.
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

TEST(CpdStateTest, RecomputeGramsMatchesDefinition) {
  Rng rng(1);
  CpdState state(KruskalModel::Random({4, 5, 3}, 2, rng));
  ASSERT_EQ(state.grams.size(), 3u);
  for (int m = 0; m < 3; ++m) {
    Matrix expected =
        MultiplyTransposeA(state.model.factor(m), state.model.factor(m));
    EXPECT_LT(MaxAbsDiff(state.grams[static_cast<size_t>(m)], expected),
              1e-12);
  }
}

TEST(CpdStateTest, AbsorbLambdaPreservesModelValues) {
  Rng rng(2);
  CpdState state(KruskalModel::Random({3, 4, 2}, 2, rng));
  state.model.lambda() = {2.0, -0.5};
  std::vector<double> before;
  for (int32_t i = 0; i < 3; ++i) {
    before.push_back(state.model.Evaluate({i, 1, 1}));
  }
  state.AbsorbLambda();
  EXPECT_DOUBLE_EQ(state.model.lambda()[0], 1.0);
  EXPECT_DOUBLE_EQ(state.model.lambda()[1], 1.0);
  for (int32_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(state.model.Evaluate({i, 1, 1}), before[static_cast<size_t>(i)],
                1e-10);
  }
  // Grams refreshed too.
  for (int m = 0; m < 3; ++m) {
    Matrix expected =
        MultiplyTransposeA(state.model.factor(m), state.model.factor(m));
    EXPECT_LT(MaxAbsDiff(state.grams[static_cast<size_t>(m)], expected),
              1e-12);
  }
}

TEST(CpdStateTest, GramRowUpdateMatchesRecompute) {
  Rng rng(3);
  Matrix factor = Matrix::RandomNormal(6, 4, rng);
  Matrix gram = MultiplyTransposeA(factor, factor);
  // Change row 2. The snapshot spans the padded stride (zero padding comes
  // along from the factor row), per the padded-buffer contract.
  std::vector<double> old_row(factor.Row(2), factor.Row(2) + factor.stride());
  for (int64_t r = 0; r < 4; ++r) factor(2, r) = rng.Normal();
  ApplyGramRowUpdate(gram, old_row.data(), factor.Row(2));
  EXPECT_LT(MaxAbsDiff(gram, MultiplyTransposeA(factor, factor)), 1e-10);
}

TEST(CpdStateTest, PrevGramRowUpdateMatchesDefinition) {
  Rng rng(4);
  Matrix prev_factor = Matrix::RandomNormal(5, 3, rng);
  Matrix factor = prev_factor;
  Matrix u = MultiplyTransposeA(prev_factor, factor);
  // Update two distinct rows (as an event would: once each).
  for (int64_t row : {1L, 3L}) {
    std::vector<double> prev_row(factor.Row(row),
                                 factor.Row(row) + factor.stride());
    for (int64_t r = 0; r < 3; ++r) factor(row, r) = rng.Normal();
    ApplyPrevGramRowUpdate(u, prev_row.data(), factor.Row(row));
  }
  EXPECT_LT(MaxAbsDiff(u, MultiplyTransposeA(prev_factor, factor)), 1e-10);
}

TEST(AlsTest, SweepSolvesExactRowLeastSquares) {
  // After one sweep, each factor row satisfies the normal equations of
  // Eq. 3 for the factors it was solved against.
  Rng rng(5);
  const std::vector<int64_t> dims = {5, 4, 3};
  SparseTensor x(dims);
  for (int i = 0; i < 25; ++i) {
    x.Set({static_cast<int32_t>(rng.UniformInt(0, 4)),
           static_cast<int32_t>(rng.UniformInt(0, 3)),
           static_cast<int32_t>(rng.UniformInt(0, 2))},
          rng.UniformDouble(0.5, 2.0));
  }
  CpdState state(KruskalModel::Random(dims, 2, rng));
  AlsSweep(x, state, /*normalize_columns=*/false);
  // The last updated mode (mode 2) must satisfy A H = MTTKRP exactly.
  Matrix mttkrp = Mttkrp(x, state.model.factors(), 2);
  Matrix h = HadamardOfGramsExcept(state.grams, 2);
  Matrix lhs = Multiply(state.model.factor(2), h);
  EXPECT_LT(MaxAbsDiff(lhs, mttkrp), 1e-8);
}

TEST(AlsTest, FitnessNonDecreasingAcrossSweeps) {
  Rng rng(6);
  const std::vector<int64_t> dims = {6, 5, 4};
  KruskalModel truth = KruskalModel::Random(dims, 2, rng);
  SparseTensor x = DenseFromModel(truth);

  CpdState state(KruskalModel::Random(dims, 3, rng));
  double previous = state.model.Fitness(x);
  for (int sweep = 0; sweep < 10; ++sweep) {
    AlsSweep(x, state, /*normalize_columns=*/true);
    const double fitness = state.model.Fitness(x);
    EXPECT_GE(fitness, previous - 1e-9) << "sweep " << sweep;
    previous = fitness;
  }
}

TEST(AlsTest, RecoversExactLowRankTensor) {
  Rng rng(7);
  const std::vector<int64_t> dims = {6, 5, 4};
  KruskalModel truth = KruskalModel::Random(dims, 2, rng);
  SparseTensor x = DenseFromModel(truth);
  AlsOptions options;
  options.max_iterations = 200;
  options.fitness_tolerance = 1e-9;
  KruskalModel fitted = AlsDecompose(x, 3, options, rng);  // Overcomplete.
  EXPECT_GT(fitted.Fitness(x), 0.999);
}

TEST(AlsTest, NormalizedSweepKeepsUnitColumns) {
  Rng rng(8);
  const std::vector<int64_t> dims = {5, 4, 3};
  SparseTensor x(dims);
  for (int i = 0; i < 20; ++i) {
    x.Set({static_cast<int32_t>(rng.UniformInt(0, 4)),
           static_cast<int32_t>(rng.UniformInt(0, 3)),
           static_cast<int32_t>(rng.UniformInt(0, 2))},
          1.0);
  }
  CpdState state(KruskalModel::Random(dims, 2, rng));
  AlsSweep(x, state, /*normalize_columns=*/true);
  for (int m = 0; m < 3; ++m) {
    for (int64_t r = 0; r < 2; ++r) {
      double norm_sq = 0.0;
      for (int64_t i = 0; i < dims[static_cast<size_t>(m)]; ++i) {
        norm_sq += state.model.factor(m)(i, r) * state.model.factor(m)(i, r);
      }
      // Columns are unit length unless the component died entirely.
      if (norm_sq > 0.0) {
        EXPECT_NEAR(norm_sq, 1.0, 1e-9);
      }
    }
  }
}

TEST(AlsTest, EmptyTensorIsHandled) {
  Rng rng(9);
  SparseTensor x({3, 3, 3});
  AlsOptions options;
  KruskalModel model = AlsDecompose(x, 2, options, rng);
  EXPECT_EQ(model.Fitness(x), 0.0);
  EXPECT_EQ(AlsReferenceFitness(x, 2, options, rng), 0.0);
}

TEST(AlsTest, ReferenceFitnessIsReasonablyHighOnLowRankData) {
  Rng rng(10);
  const std::vector<int64_t> dims = {8, 7, 5};
  KruskalModel truth = KruskalModel::Random(dims, 3, rng);
  SparseTensor x = DenseFromModel(truth);
  AlsOptions options;
  options.max_iterations = 100;
  EXPECT_GT(AlsReferenceFitness(x, 3, options, rng), 0.95);
}

TEST(GramSolveTest, AgreesWithPinvOnSingularGram) {
  // Duplicated component ⇒ rank-deficient H; the solve must fall back to the
  // pseudoinverse rather than blowing up.
  Matrix a(4, 2);
  for (int64_t i = 0; i < 4; ++i) {
    a(i, 0) = static_cast<double>(i + 1);
    a(i, 1) = static_cast<double>(i + 1);  // Same column twice.
  }
  Matrix h = MultiplyTransposeA(a, a);
  double b[2] = {1.0, 2.0};
  double x[2];
  SolveRowAgainstGram(h, b, x);
  EXPECT_TRUE(std::isfinite(x[0]));
  EXPECT_TRUE(std::isfinite(x[1]));
  // For the pseudoinverse solution, x H must reproduce the projection of b
  // onto range(H); with b in range check consistency: (1,2) is not symmetric
  // so project: verify ‖x‖ finite and x H ≈ projection of b.
  double recon[2] = {x[0] * h(0, 0) + x[1] * h(1, 0),
                     x[0] * h(0, 1) + x[1] * h(1, 1)};
  // Range of H is span{(1,1)}; projection of (1,2) is (1.5,1.5).
  EXPECT_NEAR(recon[0], 1.5, 1e-8);
  EXPECT_NEAR(recon[1], 1.5, 1e-8);
}

// ---------------------------------------------------------------------------
// AlsDecompose's stopping rule reads the fitness off the sweep's own
// by-products (AlsSweepFitness). Pinned here against the loop it replaced:
// AlsSweep followed by an exact KruskalModel::Fitness re-evaluation.

SparseTensor RandomSparse(const std::vector<int64_t>& dims, int draws,
                          Rng& rng) {
  SparseTensor x(dims);
  for (int i = 0; i < draws; ++i) {
    ModeIndex cell;
    for (int64_t dim : dims) {
      cell.PushBack(static_cast<int32_t>(rng.UniformInt(0, dim - 1)));
    }
    x.Set(cell, rng.UniformDouble(0.5, 2.0));
  }
  return x;
}

bool BitwiseEqual(const KruskalModel& a, const KruskalModel& b) {
  if (a.num_modes() != b.num_modes() || a.rank() != b.rank()) return false;
  if (std::memcmp(a.lambda().data(), b.lambda().data(),
                  a.lambda().size() * sizeof(double)) != 0) {
    return false;
  }
  for (int m = 0; m < a.num_modes(); ++m) {
    const Matrix& fa = a.factor(m);
    const Matrix& fb = b.factor(m);
    if (fa.rows() != fb.rows()) return false;
    for (int64_t i = 0; i < fa.rows(); ++i) {
      if (std::memcmp(fa.Row(i), fb.Row(i), fa.cols() * sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

// The model after every sweep of the reference loop (which keeps sweeping
// one past its stopping point, so the neighbours of the stop exist), and
// the number of sweeps the reference stopped after.
struct ReferenceRun {
  std::vector<KruskalModel> after_sweep;
  int sweeps = 0;
};

ReferenceRun ReferenceAlsDecompose(const SparseTensor& x, int64_t rank,
                                   const AlsOptions& options, Rng& rng) {
  CpdState state(KruskalModel::Random(x.dims(), rank, rng));
  AlsWorkspace ws;
  ReferenceRun run;
  double previous_fitness = state.model.Fitness(x);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    AlsSweep(x, state, options.normalize_columns, ws);
    run.after_sweep.push_back(state.model);
    const double fitness = state.model.Fitness(x);
    if (fitness - previous_fitness < options.fitness_tolerance && iter > 0) {
      run.sweeps = iter + 1;
      AlsSweep(x, state, options.normalize_columns, ws);
      run.after_sweep.push_back(state.model);
      return run;
    }
    previous_fitness = fitness;
  }
  run.sweeps = options.max_iterations;
  return run;
}

struct StoppingFixture {
  const char* name;
  std::vector<int64_t> dims;
  int draws;
};

const StoppingFixture kStoppingFixtures[] = {
    {"3-mode", {9, 8, 7}, 150},
    {"4-mode", {6, 5, 4, 3}, 120},
};

TEST(AlsStoppingRuleTest, DecomposeBitwiseMatchesExactFitnessLoop) {
  for (const StoppingFixture& fixture : kStoppingFixtures) {
    for (const bool normalize : {true, false}) {
      SCOPED_TRACE(std::string(fixture.name) +
                   (normalize ? " normalized" : " raw"));
      Rng data_rng(11);
      const SparseTensor x = RandomSparse(fixture.dims, fixture.draws, data_rng);
      AlsOptions options;
      options.max_iterations = 300;
      options.fitness_tolerance = 1e-4;
      options.normalize_columns = normalize;
      Rng reference_rng(12);
      Rng rng(12);
      const ReferenceRun reference =
          ReferenceAlsDecompose(x, 3, options, reference_rng);
      const KruskalModel model = AlsDecompose(x, 3, options, rng);
      // The tolerance, not the iteration cap, ended the run.
      ASSERT_LT(reference.sweeps, options.max_iterations);
      ASSERT_GE(reference.sweeps, 2);
      const size_t stop = static_cast<size_t>(reference.sweeps) - 1;
      EXPECT_TRUE(BitwiseEqual(model, reference.after_sweep[stop]));
      // Same sweep count: one sweep fewer or more gives another model.
      EXPECT_FALSE(BitwiseEqual(model, reference.after_sweep[stop - 1]));
      EXPECT_FALSE(BitwiseEqual(model, reference.after_sweep[stop + 1]));
    }
  }
}

TEST(AlsStoppingRuleTest, SweepFitnessMatchesExactFitness) {
  for (const StoppingFixture& fixture : kStoppingFixtures) {
    for (const bool normalize : {true, false}) {
      SCOPED_TRACE(std::string(fixture.name) +
                   (normalize ? " normalized" : " raw"));
      Rng rng(13);
      const SparseTensor x = RandomSparse(fixture.dims, fixture.draws, rng);
      const double x_norm_sq = x.FrobeniusNormSquared();
      CpdState state(KruskalModel::Random(x.dims(), 3, rng));
      AlsWorkspace ws;
      for (int sweep = 0; sweep < 12; ++sweep) {
        AlsSweep(x, state, normalize, ws);
        const double exact = state.model.Fitness(x);
        ASSERT_GT(std::abs(exact), 0.05) << "sweep " << sweep;
        EXPECT_NEAR(AlsSweepFitness(state, x_norm_sq, ws), exact,
                    1e-12 * std::abs(exact))
            << "sweep " << sweep;
      }
    }
  }
}

TEST(AlsStoppingRuleTest, AllZeroTensorStopsAsBefore) {
  for (const bool normalize : {true, false}) {
    SCOPED_TRACE(normalize ? "normalized" : "raw");
    const SparseTensor x({4, 3, 5});
    AlsOptions options;
    options.normalize_columns = normalize;
    Rng reference_rng(14);
    Rng rng(14);
    const ReferenceRun reference =
        ReferenceAlsDecompose(x, 2, options, reference_rng);
    const KruskalModel model = AlsDecompose(x, 2, options, rng);
    // Fitness is 0 at every sweep, so the rule stops after the second.
    EXPECT_EQ(reference.sweeps, 2);
    EXPECT_TRUE(BitwiseEqual(model, reference.after_sweep[1]));
    EXPECT_EQ(model.Fitness(x), 0.0);
  }
}

}  // namespace
}  // namespace sns
