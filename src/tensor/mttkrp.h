// Sparse MTTKRP — the matricized-tensor-times-Khatri-Rao product
// X_(n) (⊙_{m≠n} A(m)) at the heart of ALS (Eq. 4) and SNS-MAT (Alg. 2).
// Also provides the per-row Hadamard kernel that every SliceNStitch row
// update rule shares.
//
// Padded-buffer contract: the `out` / `had` scratch pointers below must
// reference PaddedRank(R) doubles (R = factors[0].cols()); the kernels run
// tail-free to the padded bound through the compile-time rank dispatch of
// linalg/rank_dispatch.h and leave the padding lanes at exactly 0.0.
// AlignedVector (linalg/simd.h) and Matrix rows satisfy the contract.

#ifndef SLICENSTITCH_TENSOR_MTTKRP_H_
#define SLICENSTITCH_TENSOR_MTTKRP_H_

#include <vector>

#include "linalg/matrix.h"
#include "tensor/sparse_tensor.h"

namespace sns {

struct RankKernelTable;  // linalg/rank_dispatch.h

/// out[r] = Π_{m≠skip_mode} factors[m](index[m], r) for r in [0, R).
/// With skip_mode = -1, multiplies over every mode. `out` must hold
/// PaddedRank(R) values (padding is left zeroed).
///
/// Table-taking overloads (here and below) run through the caller's cached
/// RankKernelTable — the hot-path form; the plain overloads resolve the
/// process-wide auto tier per call.
void HadamardRowProduct(const std::vector<Matrix>& factors,
                        const ModeIndex& index, int skip_mode, double* out);
void HadamardRowProduct(const std::vector<Matrix>& factors,
                        const ModeIndex& index, int skip_mode, double* out,
                        const RankKernelTable& kr);

/// Full sparse MTTKRP: returns the N_mode × R matrix
/// X_(mode) (⊙_{m≠mode} A(m)), iterating once over the non-zeros of x.
Matrix Mttkrp(const SparseTensor& x, const std::vector<Matrix>& factors,
              int mode);

/// Row-restricted MTTKRP: the 1×R row X_(mode)(row, :) (⊙_{m≠mode} A(m)),
/// i.e. Σ over non-zeros with mode-th index = row of x_J · Π_{m≠mode}
/// A(m)(j_m, :). Cost O(deg(mode,row)·M·R) — the dominant term of
/// Theorem 4. Iterates the slice through SparseTensor::Slice, which carries
/// values, so no per-entry hash lookup happens here (regression-guarded by
/// storage_test). `out` must hold PaddedRank(R) values.
void MttkrpRow(const SparseTensor& x, const std::vector<Matrix>& factors,
               int mode, int64_t row, double* out);

/// Scratch-buffer form of MttkrpRow: `had` must hold PaddedRank(R) values
/// and is used as the per-entry Hadamard workspace. Performs no heap
/// allocation — the form called on the per-event update hot path.
void MttkrpRow(const SparseTensor& x, const std::vector<Matrix>& factors,
               int mode, int64_t row, double* out, double* had);
void MttkrpRow(const SparseTensor& x, const std::vector<Matrix>& factors,
               int mode, int64_t row, double* out, double* had,
               const RankKernelTable& kr);

/// Allocation-free full MTTKRP into a preallocated dim(mode)×R `out`
/// (zeroed here); `had` must hold PaddedRank(R) values. The hot-path form
/// used by the SNS-MAT per-event ALS sweep.
void MttkrpInto(const SparseTensor& x, const std::vector<Matrix>& factors,
                int mode, Matrix& out, double* had);
void MttkrpInto(const SparseTensor& x, const std::vector<Matrix>& factors,
                int mode, Matrix& out, double* had,
                const RankKernelTable& kr);

/// Hadamard of all Gram matrices except `skip_mode` (skip_mode = -1 keeps
/// all): H(m) = ∗_{n≠m} A(n)'A(n) of Eqs. 4/12. `grams[m]` must be R×R.
Matrix HadamardOfGramsExcept(const std::vector<Matrix>& grams, int skip_mode);

}  // namespace sns

#endif  // SLICENSTITCH_TENSOR_MTTKRP_H_
