// AVX2+FMA codelets for the rank-R kernel layer.
//
// This TU is compiled with -mavx2 -mfma (see CMakeLists.txt) and is only
// reachable through the tier-resolved RankKernelTable, after the cpuid
// probe (common/cpu_features.h) confirmed avx2+fma — never from baseline
// code paths. Everything except the exported Avx2Table getter lives in an
// anonymous namespace so the linker cannot substitute AVX2-compiled inline
// symbols into TUs built for baseline x86-64.
//
// Numeric contract (see rank_dispatch.h): elementwise kernels (fill, copy,
// mul, mul_accum) are bitwise identical to the generic tier — each lane is
// a single correctly-rounded operation.
// Multiply-accumulate kernels (axpy, fma3, gram_row_delta,
// scaled_diff_accum, dot) use fused multiply-adds, which drop one rounding
// per element relative to an uncontracted generic build, so they agree to
// a few ulps rather than bitwise. The scalar tails of axpy, fma3 and dot
// are fused too, written as std::fma so the rounding of every element is
// fixed by the source rather than by the compiler's contraction setting;
// solve_upper_rows replays exactly this arithmetic with one row per lane.
// The dot kernel keeps the generic tier's fixed four-lane reduction
// grouping (s0+s2)+(s1+s3): vector lane l holds partial sum s_l, so the
// summation ORDER matches and only FMA contraction differs.
//
// Padded-buffer contract: P > 0 instantiations run exactly P lanes
// (P ≡ 0 mod 4, buffers padded with zeros per linalg/simd.h); the P = 0
// runtime-length instantiations handle arbitrary n with scalar tails —
// they serve the triangular Cholesky loops, whose row suffixes are
// unaligned, so every vector access uses unaligned loads/stores.

#include "linalg/codelets/codelet_tables.h"

#ifdef SNS_HAVE_X86_CODELETS

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace sns::codelets {
namespace {

template <int64_t P>
inline int64_t Trip(int64_t n) {
  return P > 0 ? P : n;
}

template <int64_t P>
void Fill(double* dst, double value, int64_t n) {
  const int64_t m = Trip<P>(n);
  const __m256d v = _mm256_set1_pd(value);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) _mm256_storeu_pd(dst + r, v);
  for (; r < m; ++r) dst[r] = value;
}

template <int64_t P>
void Copy(const double* src, double* dst, int64_t n) {
  const int64_t m = Trip<P>(n);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    _mm256_storeu_pd(dst + r, _mm256_loadu_pd(src + r));
  }
  for (; r < m; ++r) dst[r] = src[r];
}

template <int64_t P>
void Axpy(double alpha, const double* x, double* y, int64_t n) {
  const int64_t m = Trip<P>(n);
  const __m256d va = _mm256_set1_pd(alpha);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    const __m256d vy =
        _mm256_fmadd_pd(va, _mm256_loadu_pd(x + r), _mm256_loadu_pd(y + r));
    _mm256_storeu_pd(y + r, vy);
  }
  for (; r < m; ++r) y[r] = std::fma(alpha, x[r], y[r]);
}

template <int64_t P>
void Mul(const double* a, const double* b, double* out, int64_t n) {
  const int64_t m = Trip<P>(n);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    _mm256_storeu_pd(
        out + r, _mm256_mul_pd(_mm256_loadu_pd(a + r), _mm256_loadu_pd(b + r)));
  }
  for (; r < m; ++r) out[r] = a[r] * b[r];
}

template <int64_t P>
void MulAccum(double* dst, const double* src, int64_t n) {
  const int64_t m = Trip<P>(n);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    _mm256_storeu_pd(dst + r, _mm256_mul_pd(_mm256_loadu_pd(dst + r),
                                            _mm256_loadu_pd(src + r)));
  }
  for (; r < m; ++r) dst[r] *= src[r];
}

template <int64_t P>
void Fma3(double v, const double* a, const double* b, double* out, int64_t n) {
  const int64_t m = Trip<P>(n);
  const __m256d vv = _mm256_set1_pd(v);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    const __m256d prod =
        _mm256_mul_pd(_mm256_loadu_pd(a + r), _mm256_loadu_pd(b + r));
    _mm256_storeu_pd(out + r,
                     _mm256_fmadd_pd(vv, prod, _mm256_loadu_pd(out + r)));
  }
  for (; r < m; ++r) out[r] = std::fma(v, a[r] * b[r], out[r]);
}

template <int64_t P>
double Dot(const double* a, const double* b, int64_t n) {
  const int64_t m = Trip<P>(n);
  const int64_t m4 = m - m % 4;
  __m256d acc = _mm256_setzero_pd();
  int64_t r = 0;
  for (; r < m4; r += 4) {
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(a + r), _mm256_loadu_pd(b + r), acc);
  }
  // (s0+s2)+(s1+s3): lane l of acc is exactly the generic tier's s_l.
  const __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(acc),
                                  _mm256_extractf128_pd(acc, 1));
  double sum = _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
  for (; r < m; ++r) sum = std::fma(a[r], b[r], sum);
  return sum;
}

template <int64_t P>
void GramRowDelta(double new_i, const double* new_row, double old_i,
                  const double* old_row, double* g, int64_t n) {
  const int64_t m = Trip<P>(n);
  const __m256d vn = _mm256_set1_pd(new_i);
  const __m256d vo = _mm256_set1_pd(old_i);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    // t = new_i·new − old_i·old, then g += t: one FMA + one FNMA keeps the
    // subtraction inside the delta like the generic expression.
    __m256d t = _mm256_mul_pd(vn, _mm256_loadu_pd(new_row + r));
    t = _mm256_fnmadd_pd(vo, _mm256_loadu_pd(old_row + r), t);
    _mm256_storeu_pd(g + r, _mm256_add_pd(_mm256_loadu_pd(g + r), t));
  }
  for (; r < m; ++r) g[r] += new_i * new_row[r] - old_i * old_row[r];
}

template <int64_t P>
void ScaledDiffAccum(double p, const double* new_row, const double* prev_row,
                     double* g, int64_t n) {
  const int64_t m = Trip<P>(n);
  const __m256d vp = _mm256_set1_pd(p);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(new_row + r),
                                    _mm256_loadu_pd(prev_row + r));
    _mm256_storeu_pd(g + r, _mm256_fmadd_pd(vp, d, _mm256_loadu_pd(g + r)));
  }
  for (; r < m; ++r) g[r] += p * (new_row[r] - prev_row[r]);
}

// Solves the rows held in `t` in place, one row per lane: t[k·S + j] is
// value k of row j, S = 4·G rows in G lane groups. Each lane performs
// CholeskySolveUpperInPlace's operations with Axpy<0> and Dot<0> above, in
// their order: the forward step's x_j = fma(−y_k, u_kj, x_j); the dot's
// four accumulators, (s0+s2)+(s1+s3) reduction and fused tail; the
// division by the pivot.
template <int G>
void SolveLanes(const double* upper, int64_t upper_stride, int64_t n,
                double* t) {
  constexpr int64_t S = 4 * G;
  // Forward elimination U' y = b.
  for (int64_t k = 0; k < n; ++k) {
    const double* row = upper + k * upper_stride;
    const __m256d pivot = _mm256_set1_pd(row[k]);
    __m256d y[G];
    for (int g = 0; g < G; ++g) {
      y[g] = _mm256_div_pd(_mm256_loadu_pd(t + k * S + 4 * g), pivot);
      _mm256_storeu_pd(t + k * S + 4 * g, y[g]);
    }
    for (int64_t j = k + 1; j < n; ++j) {
      const __m256d u = _mm256_set1_pd(row[j]);
      double* x = t + j * S;
      for (int g = 0; g < G; ++g) {
        const __m256d xg = _mm256_loadu_pd(x + 4 * g);
        _mm256_storeu_pd(x + 4 * g, _mm256_fnmadd_pd(y[g], u, xg));
      }
    }
  }
  // Back substitution U x = y.
  for (int64_t i = n - 1; i >= 0; --i) {
    const double* a = upper + i * upper_stride + i + 1;
    const double* x = t + (i + 1) * S;
    const int64_t m = n - i - 1;
    const int64_t m4 = m - m % 4;
    __m256d acc[G][4];
    for (int g = 0; g < G; ++g) {
      for (int l = 0; l < 4; ++l) acc[g][l] = _mm256_setzero_pd();
    }
    int64_t r = 0;
    for (; r < m4; r += 4) {
      for (int l = 0; l < 4; ++l) {
        const __m256d u = _mm256_set1_pd(a[r + l]);
        for (int g = 0; g < G; ++g) {
          acc[g][l] = _mm256_fmadd_pd(
              u, _mm256_loadu_pd(x + (r + l) * S + 4 * g), acc[g][l]);
        }
      }
    }
    __m256d sum[G];
    for (int g = 0; g < G; ++g) {
      sum[g] = _mm256_add_pd(_mm256_add_pd(acc[g][0], acc[g][2]),
                             _mm256_add_pd(acc[g][1], acc[g][3]));
    }
    for (; r < m; ++r) {
      const __m256d u = _mm256_set1_pd(a[r]);
      for (int g = 0; g < G; ++g) {
        sum[g] = _mm256_fmadd_pd(u, _mm256_loadu_pd(x + r * S + 4 * g), sum[g]);
      }
    }
    const __m256d pivot = _mm256_set1_pd(upper[i * upper_stride + i]);
    double* xi = t + i * S;
    for (int g = 0; g < G; ++g) {
      _mm256_storeu_pd(xi + 4 * g,
                       _mm256_div_pd(_mm256_sub_pd(_mm256_loadu_pd(xi + 4 * g),
                                                   sum[g]),
                                     pivot));
    }
  }
}

// Rows in blocks of 8 (two lane groups), a last block of at most 4 rows in
// one group; the lane scratch of kSolveRowsBlock rows per value holds one
// block.
void SolveUpperRows(const double* upper, int64_t upper_stride, int64_t n,
                    const double* b, double* x, int64_t row_stride,
                    int64_t rows, double* lanes) {
  constexpr int64_t kBlock = 8;
  for (int64_t first = 0; first < rows; first += kBlock) {
    const int64_t count = std::min(kBlock, rows - first);
    const int64_t s = count <= 4 ? 4 : 8;
    const double* b0 = b + first * row_stride;
    for (int64_t k = 0; k < n; ++k) {
      double* lane = lanes + k * s;
      for (int64_t j = 0; j < count; ++j) lane[j] = b0[j * row_stride + k];
      for (int64_t j = count; j < s; ++j) lane[j] = 0.0;
    }
    if (s == 4) {
      SolveLanes<1>(upper, upper_stride, n, lanes);
    } else {
      SolveLanes<2>(upper, upper_stride, n, lanes);
    }
    double* x0 = x + first * row_stride;
    for (int64_t j = 0; j < count; ++j) {
      for (int64_t k = 0; k < n; ++k) x0[j * row_stride + k] = lanes[k * s + j];
    }
  }
}

template <int64_t P>
constexpr RankKernelTable kTable = {KernelTier::kAvx2,
                                    P,
                                    &Fill<P>,
                                    &Copy<P>,
                                    &Axpy<P>,
                                    &Mul<P>,
                                    &MulAccum<P>,
                                    &Fma3<P>,
                                    &Dot<P>,
                                    &GramRowDelta<P>,
                                    &ScaledDiffAccum<P>,
                                    &SolveUpperRows};

}  // namespace

const RankKernelTable& Avx2Table(int64_t padded_rank) {
  return DispatchPaddedRank(padded_rank,
                            [](auto tag) -> const RankKernelTable& {
                              return kTable<decltype(tag)::value>;
                            });
}

}  // namespace sns::codelets

#endif  // SNS_HAVE_X86_CODELETS
