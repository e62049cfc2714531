#include "core/als.h"

#include <cmath>

#include "linalg/rank_dispatch.h"
#include "tensor/mttkrp.h"

namespace sns {

void AlsWorkspace::Prepare(const CpdState& state) {
  const int modes = state.num_modes();
  const int64_t rank = state.rank();
  if (static_cast<int>(mttkrp.size()) != modes) mttkrp.resize(modes);
  for (int m = 0; m < modes; ++m) {
    const int64_t rows = state.model.factor(m).rows();
    Matrix& out = mttkrp[static_cast<size_t>(m)];
    if (out.rows() != rows || out.cols() != rank) out = Matrix(rows, rank);
  }
  if (h.rows() != rank) h = Matrix(rank, rank);
  if (had.size() != rank) {
    had.Assign(rank, 0.0);
    col_norm_sq.Assign(rank, 0.0);
    col_scale.Assign(rank, 0.0);
  }
  solver.set_kernels(&GetRankKernelTable(0, tier));
  grams.set_kernels(&GetRankKernelTable(PaddedRank(rank), tier));
}

void AlsSweep(const SparseTensor& x, CpdState& state, bool normalize_columns,
              AlsWorkspace& ws) {
  const int modes = state.num_modes();
  const int64_t rank = state.rank();
  ws.Prepare(state);
  ws.grams.BeginEvent(state.grams);
  const RankKernelTable& kr = GetRankKernelTable(PaddedRank(rank), ws.tier);
  for (int m = 0; m < modes; ++m) {
    Matrix& mttkrp = ws.mttkrp[static_cast<size_t>(m)];
    MttkrpInto(x, state.model.factors(), m, mttkrp, ws.had.data(), kr);
    ws.grams.ProductExcept(m, ws.h);  // H of Alg. 2.
    ws.solver.Factorize(ws.h);

    // A(m) ← U H†, written in place: the MTTKRP of mode m never reads
    // A(m), and later modes want the updated factor.
    Matrix& factor = state.model.factor(m);
    ws.solver.SolveRows(mttkrp, factor);

    if (normalize_columns) {
      // λ_r = ‖column r‖₂; Ā gets unit columns (Alg. 2 lines 5-6). Zero
      // columns keep λ_r = 0 and stay zero (scaling by 0 below). Both
      // passes run row-major over the padded stride — per component the
      // accumulation order over i is unchanged, so this is bitwise
      // identical to the column-walk formulation.
      const int64_t padded = factor.stride();
      double* norm_sq = ws.col_norm_sq.data();
      double* scale = ws.col_scale.data();
      kr.fill(norm_sq, 0.0, padded);
      for (int64_t i = 0; i < factor.rows(); ++i) {
        const double* row = factor.Row(i);
        kr.fma3(1.0, row, row, norm_sq, padded);
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

void AlsSweep(const SparseTensor& x, CpdState& state,
              bool normalize_columns) {
  AlsWorkspace ws;
  AlsSweep(x, state, normalize_columns, ws);
}

double AlsSweepFitness(const CpdState& state, double x_norm_sq,
                       AlsWorkspace& ws) {
  if (x_norm_sq <= 0.0) return 0.0;
  const int last = state.num_modes() - 1;
  const int64_t rank = state.rank();
  const double* lambda = state.model.lambda().data();
  // ⟨X, X̃⟩ = Σ_i Σ_r λ_r A(N)(i,r) U(N)(i,r): the last mode's MTTKRP was
  // taken against the other modes' final factors of this sweep.
  const Matrix& factor = state.model.factor(last);
  const Matrix& mttkrp = ws.mttkrp[static_cast<size_t>(last)];
  double inner = 0.0;
  for (int64_t i = 0; i < factor.rows(); ++i) {
    const double* a = factor.Row(i);
    const double* u = mttkrp.Row(i);
    for (int64_t r = 0; r < rank; ++r) inner += lambda[r] * a[r] * u[r];
  }
  // ‖X̃‖² = λ'(∗_m Q(m))λ over the Grams the sweep just refreshed.
  ws.grams.ProductExcept(state.num_modes(), ws.h);
  double model_norm_sq = 0.0;
  for (int64_t r = 0; r < rank; ++r) {
    const double* h_row = ws.h.Row(r);
    for (int64_t s = 0; s < rank; ++s) {
      model_norm_sq += lambda[r] * h_row[s] * lambda[s];
    }
  }
  const double residual = model_norm_sq - 2.0 * inner + x_norm_sq;
  return 1.0 - std::sqrt((residual > 0.0 ? residual : 0.0) / x_norm_sq);
}

KruskalModel AlsDecompose(const SparseTensor& x, int64_t rank,
                          const AlsOptions& options, Rng& rng,
                          KernelTier tier) {
  CpdState state(KruskalModel::Random(x.dims(), rank, rng), tier);
  AlsWorkspace ws;
  ws.tier = tier;
  const double x_norm_sq = x.FrobeniusNormSquared();
  double previous_fitness = 0.0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    AlsSweep(x, state, options.normalize_columns, ws);
    const double fitness = AlsSweepFitness(state, x_norm_sq, ws);
    if (iter > 0 && fitness - previous_fitness < options.fitness_tolerance) {
      break;
    }
    previous_fitness = fitness;
  }
  return state.model;
}

double AlsReferenceFitness(const SparseTensor& x, int64_t rank,
                           const AlsOptions& options, Rng& rng) {
  if (x.nnz() == 0) return 0.0;
  return AlsDecompose(x, rank, options, rng).Fitness(x);
}

}  // namespace sns
