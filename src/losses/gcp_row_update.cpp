#include "losses/gcp_row_update.h"

#include <cmath>
#include <limits>

#include "tensor/mttkrp.h"

namespace sns {
namespace {

// Tikhonov ridge added to the Newton system's diagonal: scaled to the
// system's own trace so it stays negligible against real curvature but
// keeps the Cholesky fast path positive definite when the cell set is
// rank-deficient (few cells, collinear Hadamard rows).
constexpr double kRidgeScale = 1e-9;

// Backtracking schedule of the damped step.
constexpr double kAlphas[] = {1.0, 0.5, 0.25, 0.125};

}  // namespace

void GcpRowWorkspace::Prepare(int64_t rank, KernelTier tier) {
  if (rank == rank_ && tier == tier_ && kernels != nullptr) return;
  rank_ = rank;
  tier_ = tier;
  padded_rank = PaddedRank(rank);
  kernels = &GetRankKernelTable(padded_rank, tier);
  solver.set_kernels(&GetRankKernelTable(0, tier));
  hessian = Matrix(rank, rank);
  grad.Assign(rank, 0.0);
  step.Assign(rank, 0.0);
  candidate.Assign(rank, 0.0);
  old_row.Assign(rank, 0.0);
  had.Assign(rank, 0.0);
  had_scaled.Assign(rank, 0.0);
}

bool GcpNewtonRowUpdate(CpdState& state, int mode, int64_t row,
                        const LossFunction& loss,
                        std::span<const SampledCell> cells, double clip_min,
                        double clip_max, GcpRowWorkspace& ws) {
  const int64_t rank = state.rank();
  ws.Prepare(rank, state.kernel_tier);
  const RankKernelTable& kr = *ws.kernels;
  const int64_t padded = ws.padded_rank;
  double* live_row = state.model.factor(mode).Row(row);
  // Snapshot before any early-out: callers commit against ws.old_row even
  // when the update declines to move the row.
  kr.copy(live_row, ws.old_row.data(), padded);
  if (cells.empty()) return false;  // No information: leave the row alone.

  ws.theta0.resize(cells.size());
  ws.dtheta.resize(cells.size());

  // Pass 1: restricted objective, gradient and curvature at the current row.
  ws.hessian.SetZero();
  kr.fill(ws.grad.data(), 0.0, padded);
  double obj0 = 0.0;
  size_t c = 0;
  for (const SampledCell& cell : cells) {
    HadamardRowProduct(state.model.factors(), cell.index, mode,
                       ws.had.data(), kr);
    const double theta = kr.dot(ws.had.data(), ws.old_row.data(), padded);
    ws.theta0[c] = theta;
    ++c;
    obj0 += loss.Value(cell.value, theta);
    const double d1 = loss.FirstDerivative(cell.value, theta);
    const double d2 = loss.SecondDerivative(cell.value, theta);
    kr.axpy(-d1, ws.had.data(), ws.grad.data(), padded);
    kr.fill(ws.had_scaled.data(), 0.0, padded);
    kr.axpy(d2, ws.had.data(), ws.had_scaled.data(), padded);
    AddOuterProduct(ws.hessian, ws.had_scaled.data(), ws.had.data(), kr);
  }
  if (!std::isfinite(obj0)) return false;  // Already-poisoned row: bail out.

  double trace = 0.0;
  for (int64_t r = 0; r < rank; ++r) trace += ws.hessian(r, r);
  const double ridge =
      kRidgeScale * (1.0 + trace / static_cast<double>(rank));
  for (int64_t r = 0; r < rank; ++r) ws.hessian.Row(r)[r] += ridge;

  ws.solver.Factorize(ws.hessian);
  kr.fill(ws.step.data(), 0.0, padded);
  ws.solver.Solve(ws.grad.data(), ws.step.data());  // step = H⁻¹(−g).

  // Project the full-length candidate onto the clip box, then take the
  // PROJECTED direction: the box is convex and contains old_row, so every
  // backtrack point old + α·step stays feasible while θ remains linear in
  // α — which is what lets the search below run on cached scalars.
  kr.fill(ws.candidate.data(), 0.0, padded);
  for (int64_t r = 0; r < rank; ++r) {
    double v = ws.old_row.data()[r] + ws.step.data()[r];
    if (v > clip_max) {
      v = clip_max;
    } else if (v < clip_min) {
      v = clip_min;
    }
    ws.candidate.data()[r] = v;
    ws.step.data()[r] = v - ws.old_row.data()[r];
  }
  const double dir_norm_sq = kr.dot(ws.step.data(), ws.step.data(), padded);
  if (!(dir_norm_sq > 0.0) || !std::isfinite(dir_norm_sq)) return false;

  // Pass 2: the step's θ-rate at every cell.
  c = 0;
  for (const SampledCell& cell : cells) {
    HadamardRowProduct(state.model.factors(), cell.index, mode,
                       ws.had.data(), kr);
    ws.dtheta[c] = kr.dot(ws.had.data(), ws.step.data(), padded);
    ++c;
  }

  // Backtracking: commit the first non-increasing candidate, else keep the
  // row exactly as it was (objective unchanged — monotone either way).
  for (double alpha : kAlphas) {
    double obj = 0.0;
    for (size_t i = 0; i < cells.size(); ++i) {
      obj += loss.Value(cells[i].value, ws.theta0[i] + alpha * ws.dtheta[i]);
    }
    if (!std::isfinite(obj) || obj > obj0) continue;
    kr.copy(ws.old_row.data(), ws.candidate.data(), padded);
    kr.axpy(alpha, ws.step.data(), ws.candidate.data(), padded);
    for (int64_t r = 0; r < rank; ++r) {
      // Re-clamp: a + α(b − a) can overshoot the box by an ulp.
      double v = ws.candidate.data()[r];
      if (v > clip_max) {
        v = clip_max;
      } else if (v < clip_min) {
        v = clip_min;
      }
      ws.candidate.data()[r] = v;
    }
    kr.copy(ws.candidate.data(), live_row, padded);
    return true;
  }
  return false;
}

bool GcpNewtonRowUpdateOnSlice(const SparseTensor& window, CpdState& state,
                               int mode, int64_t row, const LossFunction& loss,
                               double clip_min, double clip_max,
                               GcpRowWorkspace& ws) {
  ws.cells.clear();
  for (const auto [coords, value] : window.Slice(mode, row)) {
    ws.cells.push_back({coords, value});
  }
  return GcpNewtonRowUpdate(state, mode, row, loss, ws.cells, clip_min,
                            clip_max, ws);
}

void GcpSweep(const SparseTensor& window, CpdState& state,
              const LossFunction& loss, GcpRowWorkspace& ws) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (int m = 0; m < state.num_modes(); ++m) {
    const int64_t dim = state.model.factor(m).rows();
    for (int64_t i = 0; i < dim; ++i) {
      if (window.Degree(m, i) == 0) continue;
      GcpNewtonRowUpdateOnSlice(window, state, m, i, loss, -kInf, kInf, ws);
    }
  }
}

}  // namespace sns
