// Alternating Least Squares (Eq. 4) — the standard batch CP decomposition.
//
// ALS plays three roles in the reproduction, exactly as in the paper:
//   1. factor initialization on the initial tensor window (§VI-A),
//   2. the offline accuracy reference of "relative fitness" (§VI),
//   3. a single sweep of it is the body of SNS-MAT (Alg. 2).

#ifndef SLICENSTITCH_CORE_ALS_H_
#define SLICENSTITCH_CORE_ALS_H_

#include <vector>

#include "common/cpu_features.h"
#include "common/random.h"
#include "core/cpd_state.h"
#include "core/gram_product_cache.h"
#include "core/gram_solve.h"
#include "core/options.h"
#include "linalg/simd.h"
#include "tensor/sparse_tensor.h"

namespace sns {

/// Preallocated scratch space of one ALS sweep, reused across sweeps (and
/// across events by SNS-MAT, whose per-event sweep performs zero heap
/// allocations once the workspace is warm — guarded by
/// tests/hot_path_test.cpp). The multi-row Cholesky solve and the
/// AlsSweepFitness stopping rule run on this scratch too, so an
/// AlsDecompose iteration allocates nothing after the first sweep (the
/// rare pseudoinverse fallback aside). Rank-length scratch is aligned and
/// padded (linalg/simd.h) so the padded rank-dispatch kernels apply.
struct AlsWorkspace {
  /// (Re)sizes the buffers for `state`'s shape and pins the solver / Gram
  /// chain to `tier`; allocation-free no-op when the shape is unchanged.
  void Prepare(const CpdState& state);

  /// Kernel tier every rank kernel of the sweep runs at. Set before
  /// Prepare.
  KernelTier tier = ResolveKernelTier();

  std::vector<Matrix> mttkrp;  // Per-mode MTTKRP output (factor-shaped).
  Matrix h;                    // Hadamard-of-Grams of the current mode.
  AlignedVector had;           // Per-entry Hadamard row scratch.
  AlignedVector col_norm_sq;   // Per-component ‖column‖² accumulator.
  AlignedVector col_scale;     // Per-component 1/‖column‖ (0 for dead cols).
  GramSolver solver;
  GramProductCache grams;
};

/// One full alternating sweep over every mode of `x` (Alg. 2 lines 1-7):
/// A(m) ← X_(m)(⊙_{n≠m} A(n)) H†, optionally followed by column
/// normalization into λ. Grams are refreshed per mode. All scratch comes
/// from `ws` — the hot-path form SNS-MAT calls once per event.
void AlsSweep(const SparseTensor& x, CpdState& state, bool normalize_columns,
              AlsWorkspace& ws);

/// Convenience overload with a throwaway workspace.
void AlsSweep(const SparseTensor& x, CpdState& state, bool normalize_columns);

/// Fitness 1 − ‖X̃ − X‖_F / ‖X‖_F of `state.model` right after
/// AlsSweep(x, state, ·, ws), read off the sweep's by-products (the CP-ALS
/// identity of Kolda & Bader, SIAM Review 2009) instead of re-evaluating
/// the model at every non-zero:
///   ⟨X, X̃⟩ = Σ_i Σ_r λ_r A(N)(i,r) U(N)(i,r), with U(N) the last mode's
///   MTTKRP still in ws.mttkrp, and ‖X̃‖² = λ'(∗_m Q(m))λ from
///   state.grams through ws.grams (at ws.tier).
/// `x_norm_sq` is ‖X‖²_F; returns 0 when it is 0, like
/// KruskalModel::Fitness, which it matches up to rounding. O(N_N·R + N·R²)
/// and allocation-free.
double AlsSweepFitness(const CpdState& state, double x_norm_sq,
                       AlsWorkspace& ws);

/// Batch CP decomposition of `x` with random Uniform[0,1) initialization:
/// sweeps until the fitness gain drops below options.fitness_tolerance or
/// options.max_iterations is hit. `tier` pins the sweep kernels; the
/// stopping rule's fitness is AlsSweepFitness, which runs on the sweep's
/// own Grams at the same tier.
KruskalModel AlsDecompose(const SparseTensor& x, int64_t rank,
                          const AlsOptions& options, Rng& rng,
                          KernelTier tier = ResolveKernelTier());

/// Fitness reached by a fresh batch ALS on `x` — the denominator of the
/// paper's relative-fitness metric.
double AlsReferenceFitness(const SparseTensor& x, int64_t rank,
                           const AlsOptions& options, Rng& rng);

}  // namespace sns

#endif  // SLICENSTITCH_CORE_ALS_H_
