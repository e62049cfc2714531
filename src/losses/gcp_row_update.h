// Damped Newton row updates for non-Gaussian losses (streaming GCP).
//
// The Gaussian row rules (Eqs. 9/12/16/21-23) are closed-form least-squares
// solves against Hadamard-of-Grams systems. For a general pointwise loss
// ℓ(y, θ) no Gram shortcut exists — the curvature ℓ''(y, θ) varies per cell
// — so each affected row takes one damped Newton step on the restricted
// objective
//
//   F(a) = Σ_{J ∈ cells} ℓ(x_J, h_J · a),   h_J = ∗_{n≠m} A(n)(j_n, :),
//
// with gradient g = Σ ℓ'·h_J, curvature H = Σ ℓ''·h_J h_J' + ridge·I, solved
// through the same Cholesky row solver as the Gaussian path. The step is
// projected onto the variant's clip box [clip_min, clip_max] at full length
// first (the box is convex and contains the current row, so every backtrack
// point stays feasible and θ stays linear in the step length), then
// backtracks over α ∈ {1, ½, ¼, ⅛} and commits the first candidate whose
// restricted objective does not increase; if all four fail the row is left
// unchanged. That acceptance rule is what makes the window loss monotone
// non-increasing on a static window (regression-guarded by
// tests/losses_test.cpp).
//
// The cell set is the caller's choice: the VEC/MAT-style exact paths pass
// the row's whole slice of window non-zeros; the θ-sampled RND paths pass
// their sampled cells (which include zero cells — those contribute ℓ(0, θ)
// terms that pull spurious model mass down) plus the event's delta cells.
//
// Cost per row is O(|cells|·(M·R + R²) + R³) — the price of loss
// generality; BM_LossUpdate tracks it against the Gaussian baseline. The
// workspace reuses its buffers across events; per-cell scratch grows
// geometrically to the largest slice seen, so steady state allocates
// nothing new.

#ifndef SLICENSTITCH_LOSSES_GCP_ROW_UPDATE_H_
#define SLICENSTITCH_LOSSES_GCP_ROW_UPDATE_H_

#include <span>
#include <vector>

#include "common/cpu_features.h"
#include "core/cpd_state.h"
#include "core/gram_solve.h"
#include "core/slice_sampler.h"
#include "linalg/matrix.h"
#include "linalg/rank_dispatch.h"
#include "linalg/simd.h"
#include "losses/loss_function.h"
#include "tensor/sparse_tensor.h"

namespace sns {

/// Scratch of one GCP Newton row step, reused across rows and events.
struct GcpRowWorkspace {
  /// (Re)sizes the rank-shaped buffers and resolves the kernel table for
  /// `tier`; allocation-free no-op when rank and tier are unchanged.
  void Prepare(int64_t rank, KernelTier tier = ResolveKernelTier());

  const RankKernelTable* kernels = nullptr;
  int64_t padded_rank = 0;

  Matrix hessian;           // Σ ℓ''·h h' + ridge·I.
  GramSolver solver;
  AlignedVector grad;       // −g accumulator (so Solve yields the step).
  AlignedVector step;       // Box-projected Newton direction.
  AlignedVector candidate;  // Trial row of the backtracking search.
  AlignedVector old_row;    // Row value at entry.
  AlignedVector had;        // Per-cell Hadamard row h_J.
  AlignedVector had_scaled; // ℓ''-scaled copy of h_J for the outer product.

  /// Per-cell caches of the backtracking search (θ at entry and the step's
  /// θ-rate per cell). Sized to the largest cell set seen.
  std::vector<double> theta0;
  std::vector<double> dtheta;
  /// Materialized cell set of the slice-driven entry points.
  std::vector<SampledCell> cells;

 private:
  int64_t rank_ = 0;
  KernelTier tier_ = KernelTier::kGeneric;
};

/// One damped Newton step of A(mode)(row, :) on the restricted objective
/// over `cells` (window coordinates + values; every cell must have
/// index[mode] == row). The updated row is written back but the Grams are
/// NOT touched — callers commit the row through their own Gram maintenance
/// (RowUpdaterBase::CommitRow) or recompute afterwards (GcpSweep).
/// Returns true when the row changed; ws.old_row then holds its previous
/// value. Pass clip_min = -inf / clip_max = +inf for unclipped variants.
bool GcpNewtonRowUpdate(CpdState& state, int mode, int64_t row,
                        const LossFunction& loss,
                        std::span<const SampledCell> cells, double clip_min,
                        double clip_max, GcpRowWorkspace& ws);

/// Convenience over GcpNewtonRowUpdate: materializes the full slice
/// {J : J[mode] = row} of window non-zeros into ws.cells and steps on it —
/// the exact (non-sampled) GCP row rule.
bool GcpNewtonRowUpdateOnSlice(const SparseTensor& window, CpdState& state,
                               int mode, int64_t row, const LossFunction& loss,
                               double clip_min, double clip_max,
                               GcpRowWorkspace& ws);

/// GCP analog of one SNS-MAT ALS sweep: a damped Newton step for every
/// factor row with a non-empty window slice, mode by mode, reading the
/// live (partially updated) factors like ALS does. λ is left untouched
/// (non-Gaussian engines absorb λ into the factors at initialization) and
/// the Grams are left stale — the caller refreshes them (SNS-MAT recomputes
/// or re-quantizes after the sweep).
void GcpSweep(const SparseTensor& window, CpdState& state,
              const LossFunction& loss, GcpRowWorkspace& ws);

}  // namespace sns

#endif  // SLICENSTITCH_LOSSES_GCP_ROW_UPDATE_H_
