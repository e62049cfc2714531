#include "core/cpd_state.h"

#include <cmath>

#include "linalg/rank_dispatch.h"

namespace sns {

void CpdState::RecomputeGrams() {
  const int modes = num_modes();
  if (modes == 0) {
    grams.clear();
    return;
  }
  const int64_t r = rank();
  // In place when already shaped (keeps the per-event GCP sweep refresh of
  // SNS-MAT allocation-free); (re)allocate otherwise.
  if (static_cast<int>(grams.size()) != modes || grams[0].rows() != r) {
    grams.assign(static_cast<size_t>(modes), Matrix(r, r));
  }
  const RankKernelTable& kr = GetRankKernelTable(PaddedRank(r), kernel_tier);
  for (int m = 0; m < modes; ++m) {
    const Matrix& f = model.factor(m);
    MultiplyTransposeAInto(f, f, grams[static_cast<size_t>(m)], kr);
  }
}

void CpdState::AbsorbLambda() {
  const int modes = num_modes();
  const int64_t r = rank();
  for (int64_t k = 0; k < r; ++k) {
    double& lambda_k = model.lambda()[static_cast<size_t>(k)];
    if (lambda_k == 1.0) continue;
    // Distribute the magnitude evenly; the sign goes to the first mode.
    const double magnitude =
        std::pow(std::fabs(lambda_k), 1.0 / static_cast<double>(modes));
    const double sign = lambda_k < 0.0 ? -1.0 : 1.0;
    for (int m = 0; m < modes; ++m) {
      Matrix& factor = model.factor(m);
      const double scale = (m == 0) ? sign * magnitude : magnitude;
      for (int64_t i = 0; i < factor.rows(); ++i) factor(i, k) *= scale;
    }
    lambda_k = 1.0;
  }
  RecomputeGrams();
}

void ApplyGramRowUpdate(Matrix& gram, const double* old_row,
                        const double* new_row) {
  ApplyGramRowUpdate(gram, old_row, new_row,
                     GetRankKernelTable(gram.stride()));
}

void ApplyGramRowUpdate(Matrix& gram, const double* old_row,
                        const double* new_row, const RankKernelTable& kr) {
  const int64_t r = gram.rows();
  for (int64_t i = 0; i < r; ++i) {
    kr.gram_row_delta(new_row[i], new_row, old_row[i], old_row, gram.Row(i),
                      gram.stride());
  }
}

void ApplyPrevGramRowUpdate(Matrix& prev_gram, const double* prev_row,
                            const double* new_row) {
  ApplyPrevGramRowUpdate(prev_gram, prev_row, new_row,
                         GetRankKernelTable(prev_gram.stride()));
}

void ApplyPrevGramRowUpdate(Matrix& prev_gram, const double* prev_row,
                            const double* new_row,
                            const RankKernelTable& kr) {
  const int64_t r = prev_gram.rows();
  for (int64_t i = 0; i < r; ++i) {
    const double prev_i = prev_row[i];
    if (prev_i == 0.0) continue;
    kr.scaled_diff_accum(prev_i, new_row, prev_row, prev_gram.Row(i),
                         prev_gram.stride());
  }
}

}  // namespace sns
