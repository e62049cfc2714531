// Sparse MTTKRP — the matricized-tensor-times-Khatri-Rao product
// X_(n) (⊙_{m≠n} A(m)) at the heart of ALS (Eq. 4) and SNS-MAT (Alg. 2).
// Also provides the per-row Hadamard kernel that every SliceNStitch row
// update rule shares.
//
// The full MTTKRP walks fibers, SPLATT-style: a FiberIndex lists, per row
// of the output mode, the pool ids of that row's non-zeros in ascending
// order, and each output row is summed over its fiber with the running row
// held in registers (RankKernelTable::fiber_fma3). Ascending pool-id order
// is the order a pool walk (ForEachNonzero) reaches a row's non-zeros, and
// the rows are independent sums, so the result is bitwise equal to the
// pool-order scatter "for each non-zero: out[i] += v·(a ∗ b)".
//
// Padded-buffer contract: the `out` / `had` scratch pointers below must
// reference PaddedRank(R) doubles (R = factors[0].cols()); the kernels run
// tail-free to the padded bound through the compile-time rank dispatch of
// linalg/rank_dispatch.h and leave the padding lanes at exactly 0.0.
// AlignedVector (linalg/simd.h) and Matrix rows satisfy the contract.

#ifndef SLICENSTITCH_TENSOR_MTTKRP_H_
#define SLICENSTITCH_TENSOR_MTTKRP_H_

#include <cstdint>
#include <span>
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

/// Per-mode fiber index of a SparseTensor: for every mode m and row i, the
/// pool ids of the non-zeros whose m-th index is i, ascending. Holds
/// 4 B per non-zero per mode plus one uint32 per row. It is a snapshot:
/// any mutation of the tensor stales it until the next Build.
class FiberIndex {
 public:
  /// Re-indexes `x`: row extents come from the bucket degrees, then one
  /// pool walk places every id in its M fibers. O(nnz·M + Σ dims). Storage
  /// is retained across calls, so a Build allocates only on a new shape or
  /// when x holds more non-zeros than any tensor indexed before.
  void Build(const SparseTensor& x);

  /// Non-zeros indexed by the last Build.
  int64_t nnz() const { return nnz_; }

  /// Pool ids of the non-zeros of row `row` of mode `mode`, ascending.
  std::span<const uint32_t> Row(int mode, int64_t row) const {
    const std::vector<uint32_t>& starts = starts_[static_cast<size_t>(mode)];
    const uint32_t* ids = ids_[static_cast<size_t>(mode)].data();
    return {ids + starts[static_cast<size_t>(row)],
            ids + starts[static_cast<size_t>(row) + 1]};
  }

 private:
  int64_t nnz_ = 0;
  // starts_[m][i]: position in ids_[m] of row i's first id; dim(m) + 1
  // entries.
  std::vector<std::vector<uint32_t>> starts_;
  // ids_[m]: the nnz pool ids grouped by mode-m row.
  std::vector<std::vector<uint32_t>> ids_;
};

/// Full sparse MTTKRP: returns the N_mode × R matrix
/// X_(mode) (⊙_{m≠mode} A(m)). Builds a throwaway FiberIndex.
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
/// (zeroed here), walking the fibers of `fibers`, which must index `x` as
/// it stands. 3-mode tensors sum each fiber with kr.fiber_fma3; other
/// orders take the Hadamard row product and axpy it per non-zero. `had`
/// must hold PaddedRank(R) values. The form the ALS sweeps call (AlsSweep:
/// initialization and SNS-MAT's per-event sweep).
void MttkrpInto(const SparseTensor& x, const FiberIndex& fibers,
                const std::vector<Matrix>& factors, int mode, Matrix& out,
                double* had, const RankKernelTable& kr);

/// Hadamard of all Gram matrices except `skip_mode` (skip_mode = -1 keeps
/// all): H(m) = ∗_{n≠m} A(n)'A(n) of Eqs. 4/12. `grams[m]` must be R×R.
Matrix HadamardOfGramsExcept(const std::vector<Matrix>& grams, int skip_mode);

}  // namespace sns

#endif  // SLICENSTITCH_TENSOR_MTTKRP_H_
