// Mutable decomposition state shared by every updater: the Kruskal model
// plus the incrementally maintained Gram matrices Q(m) = A(m)'A(m) that make
// the O(1)-style updates of §V possible.

#ifndef SLICENSTITCH_CORE_CPD_STATE_H_
#define SLICENSTITCH_CORE_CPD_STATE_H_

#include <vector>

#include "common/cpu_features.h"
#include "linalg/matrix.h"
#include "tensor/kruskal.h"

namespace sns {

struct RankKernelTable;  // linalg/rank_dispatch.h

/// Factor matrices + Grams. The time mode is always the last mode.
struct CpdState {
  KruskalModel model;
  /// grams[m] = A(m)'A(m), kept in lockstep with the factors by the update
  /// rules (Eqs. 13, 24, 25) or recomputed wholesale after batch steps.
  std::vector<Matrix> grams;
  /// Tier the state's own kernels (RecomputeGrams, the GCP row steps) run
  /// at: the process-wide auto tier unless a caller pins one.
  KernelTier kernel_tier = ResolveKernelTier();

  CpdState() = default;
  explicit CpdState(KruskalModel m) : model(std::move(m)) { RecomputeGrams(); }
  CpdState(KruskalModel m, KernelTier tier)
      : model(std::move(m)), kernel_tier(tier) {
    RecomputeGrams();
  }

  int num_modes() const { return model.num_modes(); }
  int64_t rank() const { return model.rank(); }

  /// Recomputes every Gram matrix from the factors (O(Σ N_m R²)).
  void RecomputeGrams();

  /// Folds λ into the factors (each mode absorbs λ^(1/M)) and resets λ = 1.
  /// The unnormalized variants (everything except SNS-MAT) operate on plain
  /// factors, so ALS-initialized models are de-normalized through this.
  void AbsorbLambda();
};

/// Eq. 13 (and Eqs. 24–25 taken together): Q ← Q − p'p + a'a after the row
/// of one factor changed from `old_row` to `new_row`. Padded-buffer
/// contract: both rows must reference gram.stride() doubles with zero
/// padding lanes (Matrix rows and AlignedVector buffers qualify). The
/// table-taking overloads run through the caller's cached RankKernelTable
/// (the hot-path form); the plain overloads resolve the process-wide auto
/// tier per call.
void ApplyGramRowUpdate(Matrix& gram, const double* old_row,
                        const double* new_row);
void ApplyGramRowUpdate(Matrix& gram, const double* old_row,
                        const double* new_row, const RankKernelTable& kr);

/// Eq. 17 / Eq. 26: U ← U − p'p + p'a for U = A'_prev A when the row changed
/// from `prev_row` (its value at event start) to `new_row`. Valid because
/// each row changes at most once per event. Same padded-buffer contract as
/// ApplyGramRowUpdate.
void ApplyPrevGramRowUpdate(Matrix& prev_gram, const double* prev_row,
                            const double* new_row);
void ApplyPrevGramRowUpdate(Matrix& prev_gram, const double* prev_row,
                            const double* new_row, const RankKernelTable& kr);

}  // namespace sns

#endif  // SLICENSTITCH_CORE_CPD_STATE_H_
