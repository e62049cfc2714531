#include "core/sns_rnd.h"

#include <limits>

#include "core/slice_sampler.h"
#include "tensor/mttkrp.h"

namespace sns {

void SnsRndUpdater::UpdateRow(int mode, int64_t row,
                              const SparseTensor& window,
                              const WindowDelta& delta, CpdState& state,
                              UpdateWorkspace& ws) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (GcpUpdateRow(mode, row, window, delta, state, -kInf, kInf,
                   sample_threshold_, &rng_)) {
    return;  // Non-Gaussian loss: θ-sampled GCP Newton step replaces Eq. 16.
  }
  Matrix& factor = state.model.factor(mode);
  const RankKernelTable& kr = *ws.kernels;
  const int64_t padded = ws.padded_rank;
  kr.copy(factor.Row(row), ws.old_row.data(), padded);

  const int64_t degree = window.Degree(mode, row);

  if (degree <= sample_threshold_) {
    // Exact path (Alg. 4 lines 9-10): Eq. 12, identical to SNS-VEC's
    // non-time rule, applied to every mode including time.
    MttkrpRow(window, state.model.factors(), mode, row, ws.rhs.data(),
              ws.had.data(), kr);
  } else {
    // Sampled path (Alg. 4 lines 11-14): Eq. 16.
    // First term: A(m)(row,:) H_prev with H_prev = ∗_{n≠m} U(n), each U(n)
    // reconstructed from Q(n) and this event's committed-row deltas. The
    // row is still at its event-start value B(m)(row,:) here.
    HadamardOfPrevGramsExcept(state, mode, ws);
    RowTimesMatrixPadded(ws.old_row.data(), ws.h_prev, ws.rhs.data(), kr);

    // Residual corrections x̄_J = x_J − x̃_J at θ cells sampled uniformly
    // from the slice grid (zero cells included — they pull spurious model
    // mass down), with x̃ evaluated under the pre-event factors.
    SampleSliceCellsInto(window, mode, row, sample_threshold_, delta, rng_,
                         ws.samples);
    for (const SampledCell& cell : ws.samples) {
      const double residual =
          cell.value - EvaluatePrevModel(cell.index, state);
      HadamardRowProduct(state.model.factors(), cell.index, mode,
                         ws.had.data(), kr);
      kr.axpy(residual, ws.had.data(), ws.rhs.data(), padded);
    }

    // ΔX term of Eq. 16.
    for (const DeltaCell& cell : delta.cells) {
      if (cell.index[mode] != row) continue;
      HadamardRowProduct(state.model.factors(), cell.index, mode,
                         ws.had.data(), kr);
      kr.axpy(cell.delta, ws.had.data(), ws.rhs.data(), padded);
    }
  }

  ws.solver.Factorize(ws.h);  // H(m) = ∗_{n≠m} Q(n), preloaded by the base.
  ws.solver.Solve(ws.rhs.data(), ws.solution.data());
  kr.copy(ws.solution.data(), factor.Row(row), padded);

  CommitRow(mode, row, ws.old_row.data(), state);  // Eq. 13 + Eq. 17.
}

}  // namespace sns
