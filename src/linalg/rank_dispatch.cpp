#include "linalg/rank_dispatch.h"

#ifdef SNS_HAVE_X86_CODELETS
#include "linalg/codelets/codelet_tables.h"
#endif

#include <algorithm>

namespace sns {
namespace {

// Rows the generic solve interleaves per elimination step: their
// latency-bound axpy/dot chains overlap, while each row goes through
// exactly the kernel calls of the single-row solve, in the same order.
constexpr int kGenericSolveBlock = 4;

void VecSolveUpperRows(const double* upper, int64_t upper_stride, int64_t n,
                       const double* b, double* x, int64_t row_stride,
                       int64_t rows, double* /*lanes*/) {
  for (int64_t first = 0; first < rows; first += kGenericSolveBlock) {
    const int count = static_cast<int>(
        std::min<int64_t>(kGenericSolveBlock, rows - first));
    double* xs[kGenericSolveBlock];
    for (int j = 0; j < count; ++j) {
      const double* src = b + (first + j) * row_stride;
      xs[j] = x + (first + j) * row_stride;
      std::copy(src, src + n, xs[j]);
    }
    // Forward elimination U' y = b, walking rows of U.
    for (int64_t k = 0; k < n; ++k) {
      const double* row = upper + k * upper_stride;
      for (int j = 0; j < count; ++j) {
        const double y_k = xs[j][k] / row[k];
        xs[j][k] = y_k;
        VecAxpy<0>(-y_k, row + k + 1, xs[j] + k + 1, n - k - 1);
      }
    }
    // Back substitution U x = y: contiguous row-suffix dots.
    for (int64_t i = n - 1; i >= 0; --i) {
      const double* row = upper + i * upper_stride;
      for (int j = 0; j < count; ++j) {
        xs[j][i] =
            (xs[j][i] - VecDot<0>(row + i + 1, xs[j] + i + 1, n - i - 1)) /
            row[i];
      }
    }
  }
}

template <int64_t P>
constexpr RankKernelTable kGenericTable = {KernelTier::kGeneric,
                                           P,
                                           &VecFill<P>,
                                           &VecCopy<P>,
                                           &VecAxpy<P>,
                                           &VecMul<P>,
                                           &VecMulAccum<P>,
                                           &VecFma3<P>,
                                           &VecFiberFma3<P>,
                                           &VecDot<P>,
                                           &VecGramRowDelta<P>,
                                           &VecScaledDiffAccum<P>,
                                           &VecSolveUpperRows};

const RankKernelTable& GenericTable(int64_t padded_rank) {
  // Reuses DispatchPaddedRank so the specialization set lives in exactly
  // one place (the RankTag switch in rank_dispatch.h).
  return DispatchPaddedRank(
      padded_rank, [](auto tag) -> const RankKernelTable& {
        return kGenericTable<decltype(tag)::value>;
      });
}

}  // namespace

const RankKernelTable& GetRankKernelTable(int64_t padded_rank,
                                          KernelTier tier) {
#ifdef SNS_HAVE_X86_CODELETS
  switch (tier) {
    case KernelTier::kAvx512:
      return codelets::Avx512Table(padded_rank);
    case KernelTier::kAvx2:
      return codelets::Avx2Table(padded_rank);
    case KernelTier::kGeneric:
      break;
  }
#else
  (void)tier;  // Codelet TUs not in this build: every tier is generic.
#endif
  return GenericTable(padded_rank);
}

const RankKernelTable& GetRankKernelTable(int64_t padded_rank) {
  return GetRankKernelTable(padded_rank, ResolveKernelTier());
}

}  // namespace sns
