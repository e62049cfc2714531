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

// Fiber terms per fiber_fma3 call: MttkrpInto gathers a fiber's values and
// factor-row pointers into stack arrays of this length.
constexpr int kFiberBlock = 64;

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

void FiberIndex::Build(const SparseTensor& x) {
  const int modes = x.num_modes();
  const uint32_t n = static_cast<uint32_t>(x.nnz());
  nnz_ = n;
  starts_.resize(static_cast<size_t>(modes));
  ids_.resize(static_cast<size_t>(modes));
  // Counting sort by row, rows sized by the bucket degrees. starts[i + 1]
  // begins as row i's first slot and serves as its placement cursor, so
  // after the pool walk it has advanced to row i + 1's first slot.
  uint32_t* cursor[kMaxTensorModes];
  uint32_t* ids[kMaxTensorModes];
  for (int m = 0; m < modes; ++m) {
    std::vector<uint32_t>& starts = starts_[static_cast<size_t>(m)];
    const int64_t rows = x.dim(m);
    starts.resize(static_cast<size_t>(rows) + 1);
    starts[0] = 0;
    uint32_t position = 0;
    for (int64_t i = 0; i < rows; ++i) {
      starts[static_cast<size_t>(i) + 1] = position;
      position += static_cast<uint32_t>(x.Degree(m, i));
    }
    cursor[m] = starts.data() + 1;
    ids_[static_cast<size_t>(m)].resize(n);
    ids[m] = ids_[static_cast<size_t>(m)].data();
  }
  uint32_t id = 0;
  x.ForEachNonzero([&](const ModeIndex& index, double) {
    for (int m = 0; m < modes; ++m) ids[m][cursor[m][index[m]]++] = id;
    ++id;
  });
}

Matrix Mttkrp(const SparseTensor& x, const std::vector<Matrix>& factors,
              int mode) {
  const int64_t rank = factors[0].cols();
  Matrix out(x.dim(mode), rank);
  AlignedVector had(rank);
  FiberIndex fibers;
  fibers.Build(x);
  MttkrpInto(x, fibers, factors, mode, out, had.data(),
             GetRankKernelTable(factors[0].stride()));
  return out;
}

void MttkrpInto(const SparseTensor& x, const FiberIndex& fibers,
                const std::vector<Matrix>& factors, int mode, Matrix& out,
                double* had, const RankKernelTable& kr) {
  const int64_t rank = factors[0].cols();
  const int64_t padded = factors[0].stride();
  SNS_CHECK(out.rows() == x.dim(mode) && out.cols() == rank);
  SNS_CHECK(fibers.nnz() == x.nnz());
  out.SetZero();
  if (factors.size() == 3) {
    int a, b;
    OtherTwoModes(mode, &a, &b);
    const Matrix& fa = factors[static_cast<size_t>(a)];
    const Matrix& fb = factors[static_cast<size_t>(b)];
    double values[kFiberBlock];
    const double* rows_a[kFiberBlock];
    const double* rows_b[kFiberBlock];
    for (int64_t i = 0; i < out.rows(); ++i) {
      double* row = out.Row(i);
      int count = 0;
      for (const SparseTensor::SliceEntry entry :
           x.Entries(fibers.Row(mode, i))) {
        values[count] = entry.value;
        rows_a[count] = fa.Row(entry.coords[a]);
        rows_b[count] = fb.Row(entry.coords[b]);
        if (++count == kFiberBlock) {
          kr.fiber_fma3(values, rows_a, rows_b, count, row, padded);
          count = 0;
        }
      }
      if (count > 0) kr.fiber_fma3(values, rows_a, rows_b, count, row, padded);
    }
    return;
  }
  for (int64_t i = 0; i < out.rows(); ++i) {
    double* row = out.Row(i);
    for (const SparseTensor::SliceEntry entry :
         x.Entries(fibers.Row(mode, i))) {
      HadamardRowProductImpl(factors, entry.coords, mode, had, rank, padded,
                             kr);
      kr.axpy(entry.value, had, row, padded);
    }
  }
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
