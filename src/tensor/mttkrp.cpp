#include "tensor/mttkrp.h"

#include <algorithm>

#include "linalg/rank_dispatch.h"
#include "linalg/simd.h"

namespace sns {
namespace {

// The two modes of a 3-mode tensor other than `mode`, in ascending order —
// the common case gets a fused single-pass kernel below. The fused product
// v·(r_a[r]·r_b[r]) groups exactly like the generic Hadamard accumulation
// (1·r_a is exact), so both paths are bitwise identical per tier.
inline void OtherTwoModes(int mode, int* a, int* b) {
  *a = mode == 0 ? 1 : 0;
  *b = mode == 2 ? 1 : 2;
}

// Body of HadamardRowProduct. The padded lanes end at 0.0: they start at
// 0.0, and every accumulated factor row has zero padding.
inline void HadamardRowProductImpl(const std::vector<Matrix>& factors,
                                   const ModeIndex& index, int skip_mode,
                                   double* out, int64_t rank, int64_t padded,
                                   const RankKernelTable& kr) {
  std::fill(out, out + rank, 1.0);
  std::fill(out + rank, out + padded, 0.0);
  for (size_t m = 0; m < factors.size(); ++m) {
    if (static_cast<int>(m) == skip_mode) continue;
    kr.mul_accum(out, factors[m].Row(index[static_cast<int>(m)]), padded);
  }
}

}  // namespace

void HadamardRowProduct(const std::vector<Matrix>& factors,
                        const ModeIndex& index, int skip_mode, double* out) {
  HadamardRowProduct(factors, index, skip_mode, out,
                     GetRankKernelTable(factors[0].stride()));
}

void HadamardRowProduct(const std::vector<Matrix>& factors,
                        const ModeIndex& index, int skip_mode, double* out,
                        const RankKernelTable& kr) {
  HadamardRowProductImpl(factors, index, skip_mode, out, factors[0].cols(),
                         factors[0].stride(), kr);
}

Matrix Mttkrp(const SparseTensor& x, const std::vector<Matrix>& factors,
              int mode) {
  const int64_t rank = factors[0].cols();
  Matrix out(x.dim(mode), rank);
  AlignedVector had(rank);
  MttkrpInto(x, factors, mode, out, had.data());
  return out;
}

void MttkrpInto(const SparseTensor& x, const std::vector<Matrix>& factors,
                int mode, Matrix& out, double* had) {
  MttkrpInto(x, factors, mode, out, had,
             GetRankKernelTable(factors[0].stride()));
}

void MttkrpInto(const SparseTensor& x, const std::vector<Matrix>& factors,
                int mode, Matrix& out, double* had,
                const RankKernelTable& kr) {
  const int64_t rank = factors[0].cols();
  const int64_t padded = factors[0].stride();
  SNS_CHECK(out.rows() == x.dim(mode) && out.cols() == rank);
  out.SetZero();
  if (factors.size() == 3) {
    int a, b;
    OtherTwoModes(mode, &a, &b);
    const Matrix& fa = factors[static_cast<size_t>(a)];
    const Matrix& fb = factors[static_cast<size_t>(b)];
    x.ForEachNonzero([&](const ModeIndex& index, double value) {
      kr.fma3(value, fa.Row(index[a]), fb.Row(index[b]), out.Row(index[mode]),
              padded);
    });
    return;
  }
  x.ForEachNonzero([&](const ModeIndex& index, double value) {
    HadamardRowProductImpl(factors, index, mode, had, rank, padded, kr);
    kr.axpy(value, had, out.Row(index[mode]), padded);
  });
}

void MttkrpRow(const SparseTensor& x, const std::vector<Matrix>& factors,
               int mode, int64_t row, double* out) {
  AlignedVector had(factors[0].cols());
  MttkrpRow(x, factors, mode, row, out, had.data());
}

void MttkrpRow(const SparseTensor& x, const std::vector<Matrix>& factors,
               int mode, int64_t row, double* out, double* had) {
  MttkrpRow(x, factors, mode, row, out, had,
            GetRankKernelTable(factors[0].stride()));
}

void MttkrpRow(const SparseTensor& x, const std::vector<Matrix>& factors,
               int mode, int64_t row, double* out, double* had,
               const RankKernelTable& kr) {
  const int64_t rank = factors[0].cols();
  const int64_t padded = factors[0].stride();
  kr.fill(out, 0.0, padded);
  if (factors.size() == 3) {
    int a, b;
    OtherTwoModes(mode, &a, &b);
    const Matrix& fa = factors[static_cast<size_t>(a)];
    const Matrix& fb = factors[static_cast<size_t>(b)];
    for (const SparseTensor::SliceEntry entry : x.Slice(mode, row)) {
      kr.fma3(entry.value, fa.Row(entry.coords[a]), fb.Row(entry.coords[b]),
              out, padded);
    }
    return;
  }
  for (const SparseTensor::SliceEntry entry : x.Slice(mode, row)) {
    HadamardRowProductImpl(factors, entry.coords, mode, had, rank, padded, kr);
    kr.axpy(entry.value, had, out, padded);
  }
}

Matrix HadamardOfGramsExcept(const std::vector<Matrix>& grams, int skip_mode) {
  SNS_CHECK(!grams.empty());
  const int64_t rank = grams[0].rows();
  Matrix h(rank, rank);
  h.Fill(1.0);
  for (size_t m = 0; m < grams.size(); ++m) {
    if (static_cast<int>(m) == skip_mode) continue;
    h = Hadamard(h, grams[m]);
  }
  return h;
}

}  // namespace sns
