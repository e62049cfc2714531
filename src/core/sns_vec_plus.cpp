#include "core/sns_vec_plus.h"

#include <cmath>

#include "linalg/rank_dispatch.h"
#include "tensor/mttkrp.h"

namespace sns {

void CoordinateDescentRow(double* row, int64_t rank, const Matrix& hq,
                          const double* numerator, double clip_min,
                          double clip_max) {
  CoordinateDescentRow(row, rank, hq, numerator, clip_min, clip_max,
                       GetRankKernelTable(hq.stride()));
}

void CoordinateDescentRow(double* row, int64_t rank, const Matrix& hq,
                          const double* numerator, double clip_min,
                          double clip_max, const RankKernelTable& kr) {
  for (int64_t k = 0; k < rank; ++k) {
    const double c_k = hq(k, k);
    if (!(c_k > 1e-300)) continue;  // Dead component: leave the entry.
    // d_k = Σ_{r≠k} row[r]·HQ(r,k) against the live (partially updated)
    // row. HQ is a Hadamard product of symmetric Grams, so HQ(r,k) =
    // HQ(k,r) bitwise — read row k instead of column k for contiguous
    // access. The dot runs to the padded bound (zero lanes on both sides).
    double d_k = kr.dot(row, hq.Row(k), hq.stride());
    d_k -= row[k] * c_k;
    double value = (numerator[k] - d_k) / c_k;
    // Clipping (Alg. 5 line 5): projection onto [clip_min, clip_max] never
    // increases the convex per-entry objective.
    if (value > clip_max) {
      value = clip_max;
    } else if (value < clip_min) {
      value = clip_min;
    }
    row[k] = value;
  }
}

void SnsVecPlusUpdater::UpdateRow(int mode, int64_t row,
                                  const SparseTensor& window,
                                  const WindowDelta& delta, CpdState& state,
                                  UpdateWorkspace& ws) {
  if (GcpUpdateRow(mode, row, window, delta, state, clip_min_, clip_max_,
                   /*sample_threshold=*/0, /*rng=*/nullptr)) {
    return;  // Non-Gaussian loss: clipped GCP Newton step replaces Eqs. 21/22.
  }
  const int64_t rank = state.rank();
  const int time_mode = state.num_modes() - 1;
  Matrix& factor = state.model.factor(mode);
  const RankKernelTable& kr = *ws.kernels;
  const int64_t padded = ws.padded_rank;
  kr.copy(factor.Row(row), ws.old_row.data(), padded);

  // ws.h = HQ(m) = ∗_{n≠m} Q(n), preloaded by the base.
  if (mode == time_mode) {
    // Eq. 22: e_k + Σ_J Δx_J Π_{n≠M} a(n)_{j_n k}. Time rows are updated
    // first within an event, so U(n) = Q(n) for all n ≠ M and
    // e_k = Σ_r b_{i r} (∗_{n≠M} Q(n))(r, k) = (B row) · HQ(:,k).
    RowTimesMatrixPadded(ws.old_row.data(), ws.h, ws.rhs.data(), kr);
    for (const DeltaCell& cell : delta.cells) {
      if (cell.index[time_mode] != row) continue;
      HadamardRowProduct(state.model.factors(), cell.index, time_mode,
                         ws.had.data(), kr);
      kr.axpy(cell.delta, ws.had.data(), ws.rhs.data(), padded);
    }
  } else {
    // Eq. 21: Σ_{J∈Ω} (x_J + Δx_J) Π_{n≠m} a(n)_{j_n k} — the row MTTKRP
    // over the live window. It only involves other modes' rows, so it stays
    // constant across the coordinate loop.
    MttkrpRow(window, state.model.factors(), mode, row, ws.rhs.data(),
              ws.had.data(), kr);
  }

  CoordinateDescentRow(factor.Row(row), rank, ws.h, ws.rhs.data(), clip_min_,
                       clip_max_, kr);
  CommitRow(mode, row, ws.old_row.data(), state);  // Eqs. 24-25.
}

}  // namespace sns
