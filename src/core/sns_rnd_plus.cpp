#include "core/sns_rnd_plus.h"

#include "core/slice_sampler.h"
#include "core/sns_vec_plus.h"
#include "tensor/mttkrp.h"

namespace sns {

void SnsRndPlusUpdater::UpdateRow(int mode, int64_t row,
                                  const SparseTensor& window,
                                  const WindowDelta& delta, CpdState& state,
                                  UpdateWorkspace& ws) {
  if (GcpUpdateRow(mode, row, window, delta, state, clip_min_, clip_max_,
                   sample_threshold_, &rng_)) {
    return;  // Non-Gaussian loss: clipped θ-sampled GCP step replaces Eq. 23.
  }
  const int64_t rank = state.rank();
  Matrix& factor = state.model.factor(mode);
  const RankKernelTable& kr = *ws.kernels;
  const int64_t padded = ws.padded_rank;
  kr.copy(factor.Row(row), ws.old_row.data(), padded);

  // ws.h = HQ(m) = ∗_{n≠m} Q(n), preloaded by the base.
  const int64_t degree = window.Degree(mode, row);

  if (degree <= sample_threshold_) {
    // Exact coordinate rule (Alg. 5 line 13 → Eq. 21) for every mode.
    MttkrpRow(window, state.model.factors(), mode, row, ws.rhs.data(),
              ws.had.data(), kr);
  } else {
    // Sampled coordinate rule (Alg. 5 lines 9-11, 14 → Eq. 23):
    // e_k + Σ (x̄_J + Δx_J)·Π_{n≠m} a(n)_{j_n k} with
    // e_k = Σ_r b_{i r} (∗_{n≠m} U(n))(r, k), U(n) reconstructed from Q(n)
    // and this event's committed-row deltas.
    HadamardOfPrevGramsExcept(state, mode, ws);
    RowTimesMatrixPadded(ws.old_row.data(), ws.h_prev, ws.rhs.data(), kr);

    // θ cells sampled uniformly from the slice grid, zero cells included
    // (their x̄ = −x̃ pulls spurious mass down); delta cells excluded per
    // footnote 2.
    SampleSliceCellsInto(window, mode, row, sample_threshold_, delta, rng_,
                         ws.samples);
    for (const SampledCell& cell : ws.samples) {
      const double residual =
          cell.value - EvaluatePrevModel(cell.index, state);
      HadamardRowProduct(state.model.factors(), cell.index, mode,
                         ws.had.data(), kr);
      kr.axpy(residual, ws.had.data(), ws.rhs.data(), padded);
    }
    for (const DeltaCell& cell : delta.cells) {
      if (cell.index[mode] != row) continue;
      HadamardRowProduct(state.model.factors(), cell.index, mode,
                         ws.had.data(), kr);
      kr.axpy(cell.delta, ws.had.data(), ws.rhs.data(), padded);
    }
  }

  CoordinateDescentRow(factor.Row(row), rank, ws.h, ws.rhs.data(), clip_min_,
                       clip_max_, kr);
  CommitRow(mode, row, ws.old_row.data(), state);  // Eqs. 24-26.
}

}  // namespace sns
